"""Pipeline configuration: JSON-backed, validated, with documented defaults."""
from __future__ import annotations

import copy
import json
import math
import operator
from functools import reduce

from .cloud import MAX_COORD, RigidTransform, read_text
from .errors import ConfigError

SCHEMA_VERSION = 1


def _is_number(v) -> bool:
    """An int or float, not a bool, that is finite as a float."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:  # an int beyond the float range
        return False


def _numbers_like(value, default) -> bool:
    """Numbers nested in lists of the same lengths as `default`."""
    if isinstance(default, list):
        return isinstance(value, list) and len(value) == len(default) and \
            all(map(_numbers_like, value, default))
    return _is_number(value)


# Type tests of a leaf, given its default: the name used in type errors
# and the test.  A float leaf also accepts integers, and `validate` stores
# them as floats.
_KINDS = {
    int: ("an integer", lambda v, d: isinstance(v, int) and not isinstance(v, bool)),
    float: ("a finite number", lambda v, d: _is_number(v)),
    list: ("a list of numbers shaped like the default", _numbers_like),
    str: ("a string", lambda v, d: isinstance(v, str)),
    dict: ("an object", lambda v, d: isinstance(v, dict)),
}

_POSITIVE = ("> 0", lambda v: v > 0)
_NON_NEGATIVE = (">= 0", lambda v: v >= 0)
_AT_LEAST_ONE = (">= 1", lambda v: v >= 1)
_FRACTION = ("in [0, 1]", lambda v: 0 <= v <= 1)
# a foot or footprint size, bounded like a coordinate so that squared
# distances stay finite
_SIZE = (f"in (0, {MAX_COORD:g}]", lambda v: 0 < v <= MAX_COORD)

# One row per leaf: dotted key -> (default, kind, bound).  A null default
# makes the leaf nullable.  A bound is (text, predicate) and fails as
# "<key> must be <text>".
_KEYS = {
    "schema_version": (SCHEMA_VERSION, int, None),
    "seed": (0, int, _NON_NEGATIVE),
    # pass-through window per axis, e.g. {"axis": "z", "lo": 0.0, "hi": 2.0};
    # null disables the filter
    "cloud.passthrough": (None, dict, None),
    "cloud.voxel_leaf": (None, float, _POSITIVE),  # meters, null disables downsampling
    "cloud.ransac.dist_thresh": (0.01, float, _POSITIVE),
    "cloud.ransac.max_iters": (500, int, _NON_NEGATIVE),
    "cloud.ransac.min_inlier_fraction": (0.2, float, _FRACTION),
    # camera -> robot base; identity by default
    "transform.rotation": ([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], list,
                           None),
    "transform.translation": ([0.0, 0.0, 0.0], list, None),
    "height.base_height": (0.0, float, None),
    "height.tol": (0.005, float, _NON_NEGATIVE),
    "foot.width": (0.2, float, _SIZE),
    "foot.length": (0.3, float, _SIZE),
    "foot.tolerance": (0.02, float, _NON_NEGATIVE),
    "foot.n_anchors": (5, int, _AT_LEAST_ONE),
    "foot.m_neighbors": (3, int, _AT_LEAST_ONE),
    # null -> 2x median nearest-neighbor spacing
    "boundary.alpha_s": (None, float, _POSITIVE),
    "boundary.eps_border": (None, float, _POSITIVE),  # null -> 2 * alpha_s
    "boundary.l_b": (0.06, float, _POSITIVE),
    "segmentation.n_cmin": (2, int, (">= 2", lambda v: v >= 2)),
    "segmentation.n_cmax": (6, int, None),
    "segmentation.max_iter": (200, int, _AT_LEAST_ONE),
    "segmentation.rel_tol": (1e-7, float, _NON_NEGATIVE),
    "segmentation.restarts": (3, int, _AT_LEAST_ONE),
    "graph.d_min": (None, float, _NON_NEGATIVE),  # null -> robot footprint length
    "route.v_s": (0, int, None),
    "route.v_t": (None, int, None),  # null -> highest vertex id
    "planner.footprint_width": (0.04, float, _SIZE),
    "planner.footprint_length": (0.05, float, _SIZE),
    "planner.step": (None, float, _POSITIVE),  # null -> footprint_width / 2
    "planner.theta_step": (0.3, float, _POSITIVE),
    "planner.goal_tol": (None, float, _NON_NEGATIVE),  # null -> footprint_width / 4
    "planner.goal_bias": (0.1, float, _FRACTION),
    "planner.max_iters": (5000, int, _NON_NEGATIVE),
    "planner.n_candidates": (3, int, _AT_LEAST_ONE),
    "planner.m_neighbors": (5, int, _AT_LEAST_ONE),
    # "any" accepts a point when any of its m nearest boundary points
    # is farther from the cluster center; "all" is far more conservative
    # and rejects most of a thin bar's interior, so it is unusable for
    # corridor planning.
    "planner.rule": ("any", str, ("'all' or 'any'", lambda v: v in ("all", "any"))),
}


def _nest(flat: dict) -> dict:
    nested = {}
    for key, value in flat.items():
        *sections, leaf = key.split(".")
        node = nested
        for section in sections:
            node = node.setdefault(section, {})
        node[leaf] = value
    return nested


DEFAULTS = _nest({key: row[0] for key, row in _KEYS.items()})


def _merge(defaults, override, path=""):
    if not isinstance(override, dict):
        raise ConfigError(f"expected object at {path or 'top level'}")
    merged = copy.deepcopy(defaults)
    for key, value in override.items():
        if key not in defaults:
            raise ConfigError(f"unknown config key {path + key!r}")
        if isinstance(defaults[key], dict):
            merged[key] = _merge(defaults[key], value, path + key + ".")
        else:
            merged[key] = value
    return merged


def _require(cond, msg):
    if not cond:
        raise ConfigError(msg)


def validate(cfg: dict) -> dict:
    for key, (default, kind, bound) in _KEYS.items():
        *sections, leaf = key.split(".")
        node = reduce(operator.getitem, sections, cfg)
        value = node[leaf]
        if value is None and default is None:
            continue
        kind_name, is_kind = _KINDS[kind]
        _require(is_kind(value, default),
                 f"{key} must be {kind_name}, got {json.dumps(value)}")
        if kind is float:  # the bound holds for the value the pipeline reads
            value = node[leaf] = float(value)
        if bound is not None:
            _require(bound[1](value), f"{key} must be {bound[0]}")
    _require(cfg["schema_version"] == SCHEMA_VERSION,
             f"unsupported schema_version {cfg['schema_version']}")
    pt = cfg["cloud"]["passthrough"]
    if pt is not None:
        _require(set(pt) == {"axis", "lo", "hi"},
                 "passthrough needs exactly axis/lo/hi")
        _require(pt["axis"] in ("x", "y", "z"), "passthrough axis must be x, y, or z")
        _require(_is_number(pt["lo"]) and _is_number(pt["hi"]),
                 "passthrough lo and hi must be finite numbers")
        _require(pt["lo"] <= pt["hi"], "passthrough lo must be <= hi")
    try:
        RigidTransform(cfg["transform"]["rotation"], cfg["transform"]["translation"])
    except ValueError as exc:
        raise ConfigError(f"transform: {exc}") from None
    s = cfg["segmentation"]
    _require(s["n_cmax"] >= s["n_cmin"],
             "segmentation.n_cmax must be >= segmentation.n_cmin")
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
