import codecs
import json
import math
import operator
from functools import reduce

import pytest

from steelnav import config
from steelnav.cli import main
from steelnav.errors import ConfigError

TINY = math.ulp(0.0)
SIZE = [TINY, 1e75], [0.0, math.nextafter(1e75, math.inf)], "in (0, 1e+75]"

# Every bound of the config, stated independently of the table in config.py:
# (dotted key, values on or next to the bound that load, values just outside
# it that fail, the bound's text in "<key> must be <bound>").
BOUNDS = [
    ("seed", [0], [-1], ">= 0"),
    ("cloud.voxel_leaf", [TINY], [0.0], "> 0"),
    ("cloud.ransac.dist_thresh", [TINY], [0.0], "> 0"),
    ("cloud.ransac.max_iters", [0], [-1], ">= 0"),
    ("cloud.ransac.min_inlier_fraction", [0.0, 1.0], [-TINY, math.nextafter(1.0, 2.0)],
     "in [0, 1]"),
    ("height.tol", [0.0], [-TINY], ">= 0"),
    ("foot.width", *SIZE),
    ("foot.length", *SIZE),
    ("foot.tolerance", [0.0], [-TINY], ">= 0"),
    ("foot.n_anchors", [1], [0], ">= 1"),
    ("foot.m_neighbors", [1], [0], ">= 1"),
    ("boundary.alpha_s", [TINY], [0.0], "> 0"),
    ("boundary.eps_border", [TINY], [0.0], "> 0"),
    ("boundary.l_b", [TINY], [0.0], "> 0"),
    ("segmentation.n_cmin", [2], [1], ">= 2"),
    ("segmentation.n_cmax", [2], [1], ">= segmentation.n_cmin"),
    ("segmentation.max_iter", [1], [0], ">= 1"),
    ("segmentation.rel_tol", [0.0], [-TINY], ">= 0"),
    ("segmentation.restarts", [1], [0], ">= 1"),
    ("graph.d_min", [0.0], [-TINY], ">= 0"),
    ("planner.footprint_width", *SIZE),
    ("planner.footprint_length", *SIZE),
    ("planner.step", [TINY], [0.0], "> 0"),
    ("planner.theta_step", [TINY], [0.0], "> 0"),
    ("planner.goal_tol", [0.0], [-TINY], ">= 0"),
    ("planner.goal_bias", [0.0, 1.0], [-TINY, math.nextafter(1.0, 2.0)], "in [0, 1]"),
    ("planner.max_iters", [0], [-1], ">= 0"),
    ("planner.n_candidates", [1], [0], ">= 1"),
    ("planner.m_neighbors", [1], [0], ">= 1"),
    ("planner.rule", ["all", "any"], ["none"], "'all' or 'any'"),
]

# The nested defaults as the init template has always written them.
TEMPLATE = {
    "boundary": {"alpha_s": None, "eps_border": None, "l_b": 0.06},
    "cloud": {
        "passthrough": None,
        "ransac": {"dist_thresh": 0.01, "max_iters": 500, "min_inlier_fraction": 0.2},
        "voxel_leaf": None,
    },
    "foot": {"length": 0.3, "m_neighbors": 3, "n_anchors": 5, "tolerance": 0.02,
             "width": 0.2},
    "graph": {"d_min": None},
    "height": {"base_height": 0.0, "tol": 0.005},
    "planner": {
        "footprint_length": 0.05, "footprint_width": 0.04, "goal_bias": 0.1,
        "goal_tol": None, "m_neighbors": 5, "max_iters": 5000, "n_candidates": 3,
        "rule": "any", "step": None, "theta_step": 0.3,
    },
    "route": {"v_s": 0, "v_t": None},
    "schema_version": 1,
    "seed": 0,
    "segmentation": {"max_iter": 200, "n_cmax": 6, "n_cmin": 2, "rel_tol": 1e-07,
                     "restarts": 3},
    "transform": {
        "rotation": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
        "translation": [0.0, 0.0, 0.0],
    },
}


def load_override(tmp_path, key, value):
    override = value
    for part in reversed(key.split(".")):
        override = {part: override}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(override))
    return config.load_config(path)


def test_every_bound_of_the_table_is_listed():
    bounded = {key for key, (_, _, bound) in config._KEYS.items() if bound is not None}
    listed = {key for key, *_ in BOUNDS}
    assert listed == bounded | {"segmentation.n_cmax"}


@pytest.mark.parametrize("key,accepted,rejected,bound", BOUNDS)
def test_bound_is_exact(key, accepted, rejected, bound, tmp_path):
    for value in accepted:
        cfg = load_override(tmp_path, key, value)
        assert reduce(operator.getitem, key.split("."), cfg) == value
    for value in rejected:
        with pytest.raises(ConfigError) as exc:
            load_override(tmp_path, key, value)
        assert str(exc.value) == f"{key} must be {bound}"


def test_init_template_is_unchanged(tmp_path):
    path = tmp_path / "cfg.json"
    assert main(["init", "--out", str(path)]) == 0
    assert path.read_text() == json.dumps(TEMPLATE, indent=2, sort_keys=True) + "\n"
    assert config.load_config(path) == config.DEFAULTS


def test_byte_order_mark_is_dropped(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_bytes(codecs.BOM_UTF8 + json.dumps({"seed": 7}).encode())
    assert config.load_config(path)["seed"] == 7


def test_integer_of_a_float_key_is_stored_as_a_float(tmp_path):
    float_keys = [key for key, (_, kind, _) in config._KEYS.items() if kind is float]
    assert "boundary.alpha_s" in float_keys
    for key in float_keys:
        value = reduce(operator.getitem, key.split("."), load_override(tmp_path, key, 1))
        assert type(value) is float and value == 1.0, key
    # so an artifact writes the value one way: the top-level alpha_s of
    # clusters.json as its boundaries' alpha_s
    scene, cfg = tmp_path / "scene", tmp_path / "int.json"
    assert main(["synth", "--shape", "l", "--density", "1500", "--seed", "1",
                 "--out", str(scene)]) == 0
    cfg.write_text(json.dumps({"boundary": {"alpha_s": 1, "eps_border": 2, "l_b": 0.01},
                               "planner": {"max_iters": 0}}))
    assert main(["navigate", "--input", str(scene / "cloud.csv"), "--config", str(cfg),
                 "--seed", "1", "--out", str(tmp_path / "out")]) in (0, 2)
    text = (tmp_path / "out" / "clusters.json").read_text()
    clusters = json.loads(text)
    assert type(clusters["alpha_s"]) is float and type(clusters["eps_border"]) is float
    assert text.count('"alpha_s":1.0,') == 1 + len(clusters["boundaries"])
