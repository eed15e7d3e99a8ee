"""Pipeline configuration: JSON-backed, validated, with documented defaults."""
from __future__ import annotations

import copy
import json
import math

from .cloud import RigidTransform, read_text
from .errors import ConfigError

SCHEMA_VERSION = 1

DEFAULTS = {
    "schema_version": SCHEMA_VERSION,
    "seed": 0,
    "cloud": {
        # pass-through window per axis, null disables the filter
        "passthrough": None,  # e.g. {"axis": "z", "lo": 0.0, "hi": 2.0}
        "voxel_leaf": None,  # meters, null disables downsampling
        "ransac": {
            "dist_thresh": 0.01,
            "max_iters": 500,
            "min_inlier_fraction": 0.2,
        },
    },
    "transform": {
        # camera -> robot base; identity by default
        "rotation": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
        "translation": [0.0, 0.0, 0.0],
    },
    "height": {
        "base_height": 0.0,
        "tol": 0.005,
    },
    "foot": {
        "width": 0.2,
        "length": 0.3,
        "tolerance": 0.02,
        "n_anchors": 5,
        "m_neighbors": 3,
    },
    "boundary": {
        "alpha_s": None,  # null -> 2x median nearest-neighbor spacing
        "eps_border": None,  # null -> 2 * alpha_s
        "l_b": 0.06,
    },
    "segmentation": {
        "n_cmin": 2,
        "n_cmax": 6,
        "max_iter": 200,
        "rel_tol": 1e-7,
        "restarts": 3,
    },
    "graph": {
        "d_min": None,  # null -> robot footprint length
    },
    "route": {
        "v_s": 0,
        "v_t": None,  # null -> highest vertex id
    },
    "planner": {
        "footprint_width": 0.04,
        "footprint_length": 0.05,
        "step": None,  # null -> footprint_width / 2
        "theta_step": 0.3,
        "goal_tol": None,  # null -> footprint_width / 4
        "goal_bias": 0.1,
        "max_iters": 5000,
        "n_candidates": 3,
        "m_neighbors": 5,
        # "any" accepts a point when any of its m nearest boundary points
        # is farther from the cluster center; "all" is far more conservative
        # and rejects most of a thin bar's interior, so it is unusable for
        # corridor planning (it remains the default for point_in_boundary).
        "rule": "any",
    },
}


def _merge(defaults, override, path=""):
    if not isinstance(override, dict):
        raise ConfigError(f"expected object at {path or 'top level'}")
    merged = copy.deepcopy(defaults)
    for key, value in override.items():
        if key not in defaults:
            raise ConfigError(f"unknown config key {path + key!r}")
        if isinstance(defaults[key], dict) and defaults[key]:
            merged[key] = _merge(defaults[key], value, path + key + ".")
        else:
            merged[key] = value
    return merged


def _require(cond, msg):
    if not cond:
        raise ConfigError(msg)


# Type of each leaf whose default is null; every other leaf takes the type
# of its default.  Leaves typed float also accept integers.
_NULLABLE = {
    "cloud.passthrough": dict,
    "cloud.voxel_leaf": float,
    "boundary.alpha_s": float,
    "boundary.eps_border": float,
    "graph.d_min": float,
    "route.v_t": int,
    "planner.step": float,
    "planner.goal_tol": float,
}


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


def _numbers_like(value, default) -> bool:
    """Numbers nested in lists of the same lengths as `default`."""
    if isinstance(default, list):
        return isinstance(value, list) and len(value) == len(default) and \
            all(map(_numbers_like, value, default))
    return _is_number(value)


def _type_ok(value, kind, default) -> bool:
    if kind is int:
        return isinstance(value, int) and not isinstance(value, bool)
    if kind in (float, list):
        return _numbers_like(value, default)
    return isinstance(value, kind)


_KIND_NAMES = {float: "a finite number", int: "an integer", str: "a string",
               list: "a list of numbers shaped like the default", dict: "an object"}


def _check_types(cfg: dict, defaults: dict = DEFAULTS, path: str = ""):
    for key, default in defaults.items():
        name, value = path + key, cfg[key]
        if isinstance(default, dict) and default:
            _check_types(value, default, name + ".")
            continue
        kind = _NULLABLE.get(name, type(default))
        if value is None and name in _NULLABLE:
            continue
        _require(_type_ok(value, kind, default),
                 f"{name} must be {_KIND_NAMES[kind]}, got {json.dumps(value)}")


def validate(cfg: dict) -> dict:
    _check_types(cfg)
    _require(cfg["schema_version"] == SCHEMA_VERSION,
             f"unsupported schema_version {cfg['schema_version']}")
    _require(cfg["seed"] >= 0, "seed must be >= 0")
    pt = cfg["cloud"]["passthrough"]
    if pt is not None:
        _require(set(pt) == {"axis", "lo", "hi"},
                 "passthrough needs exactly axis/lo/hi")
        _require(pt["axis"] in ("x", "y", "z"), "passthrough axis must be x, y, or z")
        _require(_is_number(pt["lo"]) and _is_number(pt["hi"]),
                 "passthrough lo and hi must be finite numbers")
        _require(pt["lo"] <= pt["hi"], "passthrough lo must be <= hi")
    leaf = cfg["cloud"]["voxel_leaf"]
    _require(leaf is None or leaf > 0, "voxel_leaf must be positive")
    _require(cfg["cloud"]["ransac"]["dist_thresh"] > 0, "ransac dist_thresh must be > 0")
    _require(cfg["foot"]["width"] > 0 and cfg["foot"]["length"] > 0,
             "foot dimensions must be positive")
    _require(cfg["foot"]["tolerance"] >= 0, "foot tolerance must be >= 0")
    _require(cfg["foot"]["n_anchors"] >= 1 and cfg["foot"]["m_neighbors"] >= 1,
             "foot n_anchors and m_neighbors must be >= 1")
    try:
        RigidTransform(cfg["transform"]["rotation"], cfg["transform"]["translation"])
    except ValueError as exc:
        raise ConfigError(f"transform: {exc}") from None
    _require(cfg["height"]["tol"] >= 0, "height tol must be >= 0")
    b = cfg["boundary"]
    _require(b["alpha_s"] is None or b["alpha_s"] > 0, "alpha_s must be positive")
    _require(b["eps_border"] is None or b["eps_border"] > 0,
             "eps_border must be positive")
    _require(b["l_b"] > 0, "l_b must be positive")
    s = cfg["segmentation"]
    _require(s["n_cmin"] >= 2 and s["n_cmax"] >= s["n_cmin"],
             "need n_cmax >= n_cmin >= 2")
    _require(s["max_iter"] >= 1, "segmentation.max_iter must be >= 1")
    _require(s["restarts"] >= 1, "segmentation.restarts must be >= 1")
    _require(s["rel_tol"] >= 0, "segmentation.rel_tol must be >= 0")
    g = cfg["graph"]
    _require(g["d_min"] is None or g["d_min"] >= 0, "d_min must be >= 0")
    p = cfg["planner"]
    _require(p["footprint_width"] > 0 and p["footprint_length"] > 0,
             "planner footprint dimensions must be positive")
    _require(p["step"] is None or p["step"] > 0, "planner.step must be > 0")
    _require(p["theta_step"] > 0, "planner.theta_step must be > 0")
    _require(p["goal_tol"] is None or p["goal_tol"] >= 0, "planner.goal_tol must be >= 0")
    _require(p["max_iters"] >= 0, "planner.max_iters must be >= 0")
    _require(0.0 <= p["goal_bias"] <= 1.0, "goal_bias must be in [0, 1]")
    _require(p["rule"] in ("all", "any"), "planner rule must be 'all' or 'any'")
    _require(p["n_candidates"] >= 1 and p["m_neighbors"] >= 1,
             "planner n_candidates and m_neighbors must be >= 1")
    return cfg


def load_config(path=None, seed=None) -> dict:
    """Load and validate a config file; missing keys fall back to defaults.

    A `seed` other than None replaces the file's seed before validation.
    """
    raw = {}
    if path is not None:
        try:
            raw = json.loads(read_text(path, ConfigError))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON in {path}: {exc}") from None
    cfg = _merge(DEFAULTS, raw)
    if seed is not None:
        cfg["seed"] = seed
    return validate(cfg)


def dump_json(obj) -> str:
    """The one JSON layout of artifacts, stdout and the config template."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"
