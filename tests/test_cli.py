import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import steelnav
from steelnav.cli import load_edge_list, main

import oracles

NAV_ARTIFACTS = [
    "cloud.json", "clusters.json", "graph.json", "route.json", "motion.json",
    "cloud.svg", "segmentation.svg", "graph.svg", "route.svg", "motion.svg",
]


def run(*argv):
    return main(list(argv))


def read_json(path):
    return json.loads(path.read_text())


@pytest.fixture(scope="module")
def l_cloud(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    assert run("synth", "--shape", "l", "--out", str(out),
               "--density", "8000", "--noise", "0.004", "--seed", "1") == 0
    return out / "cloud.csv"


class TestInit:
    def test_writes_valid_template(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        assert run("init", "--out", str(cfg_path)) == 0
        cfg = read_json(cfg_path)
        assert cfg["schema_version"] == 1
        assert cfg["planner"]["rule"] in ("all", "any")


class TestSynthCommand:
    def test_artifacts(self, tmp_path):
        out = tmp_path / "s"
        assert run("synth", "--shape", "cross", "--out", str(out),
                   "--density", "2000", "--seed", "3") == 0
        rows = (out / "cloud.csv").read_text().strip().splitlines()
        truth = read_json(out / "ground_truth.json")
        assert len(rows) == len(truth["labels"])
        assert all(len(r.split(",")) == 3 for r in rows[:10])
        assert truth["schema_version"] == 1

    @pytest.mark.parametrize("shape", [s.value for s in steelnav.Shape])
    def test_cloud_csv_matches_per_element_formatter(self, shape, tmp_path):
        out = tmp_path / "s"
        assert run("synth", "--shape", shape, "--out", str(out), "--density", "1000",
                   "--noise", "0.003", "--seed", "2") == 0
        cloud, _ = steelnav.generate(steelnav.StructureSpec(
            steelnav.Shape(shape), density=1000, noise_sigma=0.003, seed=2))
        assert (out / "cloud.csv").read_text() == \
            oracles.per_element_cloud_csv(cloud.points)

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run("synth", "--shape", "t", "--out", str(out),
                       "--density", "1000", "--seed", "9") == 0
        assert (a / "cloud.csv").read_bytes() == (b / "cloud.csv").read_bytes()


class TestSwitching:
    def write_plane(self, tmp_path, z, n=4000, side=1.0):
        rng = np.random.default_rng(0)
        xy = rng.uniform(-side / 2, side / 2, (n, 2))
        pts = np.column_stack([xy, np.full(n, z)])
        path = tmp_path / "plane.csv"
        path.write_text("\n".join(",".join(map(str, p)) for p in pts) + "\n")
        return path

    def test_mobile_on_level_plane(self, tmp_path):
        cloud = self.write_plane(tmp_path, z=0.0)
        out = tmp_path / "sw"
        assert run("switching", "--input", str(cloud),
                   "--out", str(out), "--seed", "0") == 0
        payload = read_json(out / "switching.json")
        d = payload["decision"]
        assert (d["s_pa"], d["s_am"], d["s_hc"]) == (True, True, True)
        assert d["mode"] == "mobile"
        assert d["pose"] is not None
        assert (out / "switching.svg").exists()

    def test_inchworm_on_offset_plane(self, tmp_path):
        cloud = self.write_plane(tmp_path, z=0.07)
        out = tmp_path / "sw"
        assert run("switching", "--input", str(cloud),
                   "--out", str(out), "--seed", "0") == 0
        d = read_json(out / "switching.json")["decision"]
        assert d["mode"] == "inchworm"
        assert d["s_hc"] is False

    def test_stop_on_empty_input(self, tmp_path):
        cloud = tmp_path / "empty.csv"
        cloud.write_text("")
        out = tmp_path / "sw"
        assert run("switching", "--input", str(cloud),
                   "--out", str(out)) == 0
        d = read_json(out / "switching.json")["decision"]
        assert d["mode"] == "stop"
        assert d["s_pa"] is False and d["pose"] is None

    def test_missing_input_is_error(self, tmp_path):
        out = tmp_path / "sw"
        assert run("switching", "--input", str(tmp_path / "nope.csv"),
                   "--out", str(out)) == 1

    def test_anchor_at_centroid_is_skipped(self, tmp_path):
        # the fifth point is the centroid, and the boundary holds all five,
        # so the nearest anchor gives no in-plane frame and is skipped
        cloud = tmp_path / "square.csv"
        cloud.write_text("0,0,0\n10,0,0\n0,10,0\n10,10,0\n5,5,0\n")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"boundary": {"alpha_s": 1.0}}))
        out = tmp_path / "sw"
        assert run("switching", "--input", str(cloud), "--config", str(cfg),
                   "--out", str(out)) == 0
        payload = read_json(out / "switching.json")
        assert len(payload["boundary"]["points"]) == 5
        assert payload["decision"]["mode"] == "stop"
        anchors = [c["anchor"] for c in payload["candidate_rectangles"]]
        assert len(anchors) == 4 and [5.0, 5.0, 0.0] not in anchors


class TestNavigate:
    def test_full_pipeline(self, l_cloud, tmp_path):
        out = tmp_path / "nav"
        assert run("navigate", "--input", str(l_cloud),
                   "--out", str(out), "--seed", "1") == 0
        for name in NAV_ARTIFACTS:
            assert (out / name).exists(), name
        assert not (out / "failures.json").exists()
        route = read_json(out / "route.json")
        motion = read_json(out / "motion.json")
        graph = read_json(out / "graph.json")
        # every graph edge is visited and every walk step has a motion path
        assert len(route["edge_visits"]) == len(graph["edges"])
        assert all(v >= 1 for v in route["edge_visits"])
        assert len(motion["paths"]) == len(route["walk"]) - 1
        assert motion["failures"] == []

    def test_byte_identical_reruns(self, l_cloud, tmp_path):
        outs = [tmp_path / "a", tmp_path / "b"]
        for out in outs:
            assert run("navigate", "--input", str(l_cloud),
                       "--out", str(out), "--seed", "1") == 0
        for name in NAV_ARTIFACTS:
            assert (outs[0] / name).read_bytes() == \
                (outs[1] / name).read_bytes(), name

    def test_malformed_config_no_partial_artifacts(self, l_cloud, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{ not json")
        out = tmp_path / "nav"
        assert run("navigate", "--input", str(l_cloud),
                   "--config", str(cfg), "--out", str(out)) == 1
        assert not out.exists()

    def test_unknown_config_key_rejected(self, l_cloud, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"plannerr": {}}))
        out = tmp_path / "nav"
        assert run("navigate", "--input", str(l_cloud),
                   "--config", str(cfg), "--out", str(out)) == 1
        assert not out.exists()

    def test_svgs_drawn_from_json_data(self, l_cloud, tmp_path):
        # the graph figure must contain exactly the vertex ids of graph.json
        out = tmp_path / "nav"
        assert run("navigate", "--input", str(l_cloud),
                   "--out", str(out), "--seed", "1") == 0
        graph = read_json(out / "graph.json")
        svg = (out / "graph.svg").read_text()
        for v in graph["vertices"]:
            assert f">{v['id']}<" in svg


class TestSolve:
    def write_edges(self, tmp_path, text):
        path = tmp_path / "edges.txt"
        path.write_text(text)
        return path

    def test_solve_with_oracle(self, tmp_path, capsys):
        path = self.write_edges(tmp_path, "0 1 1.0\n1 2 1.0\n0 2 2.0\n")
        out = tmp_path / "route.json"
        assert run("solve", "--input", str(path), "--vs", "0", "--vt", "1",
                   "--oracle", "--out", str(out)) == 0
        payload = read_json(out)
        assert payload["total_length"] == pytest.approx(5.0)
        assert payload["optimality_gap"] == pytest.approx(0.0)
        printed = json.loads(capsys.readouterr().out)
        assert printed["walk"][0] == 0 and printed["walk"][-1] == 1

    def test_comments_and_blank_lines(self, tmp_path):
        path = self.write_edges(tmp_path, "# edges\n\n0 1 2.5\n")
        g = load_edge_list(path)
        assert g.edges == ((0, 1, 2.5),)

    def test_byte_order_mark_is_dropped(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_bytes(b"\xef\xbb\xbf0 1 2.5\n")
        assert load_edge_list(path).edges == ((0, 1, 2.5),)

    def test_malformed_line_is_error(self, tmp_path):
        path = self.write_edges(tmp_path, "0 1\n")
        assert run("solve", "--input", str(path), "--vs", "0", "--vt", "1") == 1

    def test_disconnected_is_error(self, tmp_path):
        path = self.write_edges(tmp_path, "0 1 1.0\n2 3 1.0\n")
        assert run("solve", "--input", str(path), "--vs", "0", "--vt", "2") == 1

    def test_string_vertices(self, tmp_path, capsys):
        path = self.write_edges(tmp_path, "a b 1.0\nb c 2.0\n")
        assert run("solve", "--input", str(path), "--vs", "a", "--vt", "c") == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed["walk"] == ["a", "b", "c"]

    def test_one_id_type_per_file(self, tmp_path, capsys):
        # one string token makes every id a string: "1" is one vertex
        path = self.write_edges(tmp_path, "0 1 1.0\n1 b 1.0\n")
        assert run("solve", "--input", str(path), "--vs", "0", "--vt", "b") == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed["walk"] == ["0", "1", "b"]

    @pytest.mark.parametrize("text", ["1 2 1.0\n01 3 1.0\n", "10 2 1.0\n1_0 3 1.0\n"])
    def test_look_alike_tokens_are_distinct(self, tmp_path, capsys, text):
        # "01" and "1_0" both parse as ints but are not canonical spellings,
        # so every id stays a string and the two edges stay disjoint
        path = self.write_edges(tmp_path, text)
        assert run("solve", "--input", str(path), "--vs", "2", "--vt", "3") == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")

    def test_endpoints_follow_integer_file(self, tmp_path, capsys):
        path = self.write_edges(tmp_path, "0 1 1.0\n1 3 1.0\n")
        assert run("solve", "--input", str(path), "--vs", "0", "--vt", "03") == 0
        assert json.loads(capsys.readouterr().out)["walk"] == [0, 1, 3]


BAD_EDGE_LISTS = [
    ("0 1 abc\n", "line 1: could not convert"),
    ("0 1 1.0\n1 2 -1\n", "line 2: edge weights must be non-negative"),
    ("0 1 1.0\n0 0 1\n", "line 2: self-loops"),
    ("0 1 nan\n", "line 1: edge weights must be finite"),
    ("0 1 inf\n", "line 1: edge weights must be finite"),
    (b"\xff\xfe", "edges.txt is not UTF-8 text (byte 0)"),
    # the offset counts the byte-order mark
    (b"\xef\xbb\xbf0 1 1.0\n\xff", "edges.txt is not UTF-8 text (byte 11)"),
]


def write_text_or_bytes(path, data):
    path.write_bytes(data if isinstance(data, bytes) else data.encode())


@pytest.mark.parametrize("text,message", BAD_EDGE_LISTS)
def test_bad_edge_list_is_one_error_line(text, message, tmp_path, capsys):
    path = tmp_path / "edges.txt"
    write_text_or_bytes(path, text)
    out = tmp_path / "route.json"
    assert run("solve", "--input", str(path), "--vs", "0", "--vt", "1",
               "--out", str(out)) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and message in err[0]
    assert not out.exists()


PLY_HEADER = "ply\nformat ascii 1.0\n{}\nproperty float x\nend_header\n"


@pytest.mark.parametrize("command", ["switching", "navigate"])
@pytest.mark.parametrize("name,text,message", [
    ("bad.ply", PLY_HEADER.format("element vertex zz"), "line 3: expected 'element"),
    ("bad.ply", PLY_HEADER.format("element vertex"), "line 3: expected 'element"),
    ("missing.csv", None, "missing.csv"),
    ("bin.csv", b"\xff\xfe", "bin.csv is not UTF-8 text"),
    ("bom.csv", b"\xef\xbb\xbf0,0,0\n\xff", "bom.csv is not UTF-8 text (byte 9)"),
    ("bin.ply", b"ply\nformat binary_little_endian 1.0\n\xff\x00\n",
     "bin.ply is not UTF-8 text"),
    # a vertex count above sys.maxsize
    ("big.ply", "ply\nformat ascii 1.0\nelement vertex 99999999999999999999\n"
     "property float x\nproperty float y\nproperty float z\nend_header\n"
     "0 0 0\n1 0 0\n0 1 0\n", "expected 99999999999999999999 vertices, got 3"),
])
def test_bad_input_is_one_error_line(command, name, text, message, tmp_path, capsys):
    cloud = tmp_path / name
    if text is not None:
        write_text_or_bytes(cloud, text)
    out = tmp_path / "out"
    assert run(command, "--input", str(cloud), "--out", str(out)) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and message in err[0]
    assert not out.exists()


BAD_CONFIGS = [
    ({"seed": "x"}, "seed must be an integer"),
    ({"seed": True}, "seed must be an integer"),
    ({"foot": {"width": "a"}}, "foot.width must be a finite number"),
    ({"foot": {"n_anchors": 0}}, "n_anchors"),
    ({"cloud": {"voxel_leaf": "0.1"}}, "cloud.voxel_leaf"),
    ({"cloud": {"passthrough": {"axis": "z", "lo": "a", "hi": 1}}}, "lo and hi"),
    ({"boundary": {"alpha_s": float("nan")}}, "boundary.alpha_s"),
    ({"transform": {"translation": [0, 0]}}, "transform.translation must be a list"),
    ({"transform": {"rotation": [[2, 0, 0], [0, 1, 0], [0, 0, 1]]}}, "orthonormal"),
    ({"planner": {"max_iters": 1.5}}, "planner.max_iters must be an integer"),
    ({"planner": {"rule": 3}}, "planner.rule must be a string"),
    ({"planner": {"m_neighbors": 0}}, "m_neighbors"),
    ({"route": {"v_t": "3"}}, "route.v_t must be an integer"),
    (b'{"seed": 1\xff}', "cfg.json is not UTF-8 text (byte 10)"),
    (b'\xef\xbb\xbf{"seed": 1\xff}', "cfg.json is not UTF-8 text (byte 13)"),
    ({"planner": {"step": 0}}, "planner.step must be > 0"),
    ({"planner": {"step": -0.01}}, "planner.step must be > 0"),
    ({"planner": {"max_iters": -1}}, "planner.max_iters must be >= 0"),
    ({"planner": {"theta_step": 0}}, "planner.theta_step must be > 0"),
    ({"planner": {"goal_tol": -0.01}}, "planner.goal_tol must be >= 0"),
    ({"segmentation": {"max_iter": 0}}, "segmentation.max_iter must be >= 1"),
    ({"segmentation": {"restarts": 0}}, "segmentation.restarts must be >= 1"),
    ({"segmentation": {"rel_tol": -1e-7}}, "segmentation.rel_tol must be >= 0"),
    ({"seed": -1}, "seed must be >= 0"),
    ({"cloud": {"ransac": {"min_inlier_fraction": 1.5}}},
     "cloud.ransac.min_inlier_fraction must be in [0, 1]"),
    ({"cloud": {"ransac": {"min_inlier_fraction": -0.1}}},
     "cloud.ransac.min_inlier_fraction must be in [0, 1]"),
    ({"cloud": {"ransac": {"max_iters": -1}}}, "cloud.ransac.max_iters must be >= 0"),
    # accepted as positive, but too small for the coordinates
    ({"cloud": {"voxel_leaf": 1e-300}}, "leaf 1e-300 is too small"),
    ({"boundary": {"alpha_s": 1e-300}}, "alpha_s 1e-300 is too small"),
    # integers beyond the float range
    ({"foot": {"width": 10**400}}, "foot.width must be a finite number, got 1000"),
    ({"height": {"base_height": -10**400}}, "height.base_height must be a finite number"),
    ({"transform": {"translation": [0, 10**400, 0]}}, "transform.translation must be a list"),
    ({"cloud": {"passthrough": {"axis": "z", "lo": 0, "hi": 10**400}}}, "lo and hi"),
    # sizes past the coordinate bound, whose squared distances overflow
    ({"foot": {"width": 1e300}}, "foot.width must be in (0, 1e+75]"),
    ({"foot": {"length": 1e300}}, "foot.length must be in (0, 1e+75]"),
    ({"planner": {"footprint_width": 1e300}}, "planner.footprint_width must be in (0, 1e+75]"),
    ({"planner": {"footprint_length": 1e300}},
     "planner.footprint_length must be in (0, 1e+75]"),
]


@pytest.mark.parametrize("command", ["switching", "navigate"])
@pytest.mark.parametrize("config,message", BAD_CONFIGS)
def test_bad_config_value_is_one_error_line(command, config, message, tmp_path, capsys):
    cloud = TestSwitching().write_plane(tmp_path, z=0.0, n=500)
    cfg = tmp_path / "cfg.json"
    write_text_or_bytes(cfg, config if isinstance(config, bytes) else json.dumps(config))
    out = tmp_path / "out"
    assert run(command, "--input", str(cloud), "--config", str(cfg),
               "--out", str(out)) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and message in err[0]
    assert not out.exists()


def test_huge_integer_seed_runs(tmp_path):
    # an integer leaf is never converted to float, so its size is unbounded
    cloud = TestSwitching().write_plane(tmp_path, z=0.0, n=500)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 10**400}))
    assert run("switching", "--input", str(cloud), "--config", str(cfg),
               "--out", str(tmp_path / "out")) == 0


@pytest.mark.parametrize("command", ["switching", "navigate"])
def test_negative_seed_flag_is_one_error_line(command, tmp_path, capsys):
    # --seed is validated like the config's seed
    cloud = TestSwitching().write_plane(tmp_path, z=0.0, n=500)
    out = tmp_path / "out"
    assert run(command, "--input", str(cloud), "--out", str(out), "--seed", "-1") == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0] == "error: seed must be >= 0"
    assert not out.exists()


@pytest.mark.parametrize("args,message", [
    (("--bar-length", "nan"), "must be finite"),
    (("--density", "inf"), "must be finite"),
    (("--bar-width", "inf"), "must be finite"),
    (("--seed", "-1"), "seed must be >= 0"),
    (("--noise", "nan"), "must be finite"),
    (("--density", "-5"), "density must be positive"),
    # more points in one rectangle than a NumPy array holds
    (("--density", "1e300"), "density 1e+300 gives more points"),
    # an array NumPy could index but cannot allocate (1.39 EiB)
    (("--density", "1e18"), "density 1e+18 gives more points"),
    # a point count that overflows to inf: density times area, or the area
    (("--bar-length", "1e200", "--density", "1e200"), "density 1e+200 gives more points"),
    (("--bar-length", "1e300", "--bar-width", "1e300", "--density", "1"),
     "density 1.0 gives more points"),
], ids=lambda v: "-".join(v) if isinstance(v, tuple) else None)
def test_bad_synth_argument_is_one_error_line(args, message, tmp_path, capsys):
    out = tmp_path / "scene"
    assert run("synth", "--shape", "i", "--out", str(out), *args) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and message in err[0]
    assert not out.exists()


def test_disconnected_structure_is_one_error_line(tmp_path, capsys):
    # two parallel bars 0.54 apart: two clusters that share no border
    x, y = np.meshgrid(np.arange(51) * 0.02, np.arange(4) * 0.02)
    bar = np.column_stack([x.ravel(), y.ravel()])
    cloud = tmp_path / "two_bars.csv"
    cloud.write_text("".join(f"{float(px)!r},{float(py)!r},0.0\n"
                             for px, py in np.vstack([bar, bar + [0.0, 0.6]])))
    out = tmp_path / "out"
    assert run("navigate", "--input", str(cloud), "--out", str(out)) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: structure graph has 2 components")
    assert not out.exists()


def test_repeated_points_are_one_error_line(tmp_path, capsys):
    # 50 copies of one point: the median nearest-neighbor spacing, and so
    # the default alpha_s, is 0
    cloud = tmp_path / "repeated.csv"
    cloud.write_text("0.5,0.5,0\n" * 50)
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run("navigate", "--input", str(cloud), "--out", str(out)) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: boundary.alpha_s is null")
    assert "nearest-neighbor spacing of the points is 0" in err[0]
    assert err[0].endswith("set boundary.alpha_s")
    assert not out.exists()


@pytest.mark.parametrize("step", [5e-324, 1e-320])
def test_subnormal_step_is_one_error_line(step, tmp_path, capsys):
    # positive, but a segment across the scene does not cut into a finite
    # number of step / 2 pieces; only navigate plans, so this is not a
    # BAD_CONFIGS row
    scene = tmp_path / "scene"
    assert run("synth", "--shape", "l", "--density", "1500", "--seed", "1",
               "--out", str(scene)) == 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"planner": {"step": step, "max_iters": 5}}))
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run("navigate", "--input", str(scene / "cloud.csv"), "--config", str(cfg),
                   "--out", str(out), "--seed", "1")
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"error: step {step!r} is too small for coordinates in [")
    assert not out.exists()


@pytest.mark.parametrize("length", [5e-324, 1e-300])
def test_tiny_footprint_is_one_error_line(length, tmp_path):
    # a quarter of the length does not advance a nudge along any route edge
    # (5e-324 / 4 rounds to 0), so the walk would never end: a subprocess
    # with a timeout, so that a hang fails this test and not the suite
    scene = tmp_path / "scene"
    assert run("synth", "--shape", "l", "--density", "1500", "--seed", "1",
               "--out", str(scene)) == 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"planner": {"footprint_length": length, "max_iters": 0}}))
    out = tmp_path / "out"
    env = dict(os.environ, PYTHONPATH=str(Path(steelnav.__file__).parents[1]),
               PYTHONWARNINGS="error")
    proc = subprocess.run([sys.executable, "-m", "steelnav.cli", "navigate",
                           "--input", str(scene / "cloud.csv"), "--config", str(cfg),
                           "--out", str(out), "--seed", "1"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1
    err = proc.stderr.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"error: planner.footprint_length {length!r} is too small")
    assert not out.exists()


def test_overflowing_transform_is_one_error_line(tmp_path, capsys):
    # the translation pushes every point past the coordinate bound
    cloud = tmp_path / "cloud.csv"
    cloud.write_text("0,0,0\n1,0,0\n0,1,0\n1,1,0\n2,2,0\n3,1,0\n")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"transform": {"translation": [1e308, 0.0, 0.0]}}))
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run("navigate", "--input", str(cloud), "--config", str(cfg),
                   "--out", str(out))
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0] == "error: " + HUGE_MESSAGE
    assert not out.exists()


HUGE_MESSAGE = "points must be finite and at most 1e+75 in magnitude"


def synth_with_huge_x(tmp_path, x, *synth_args):
    """A synth cloud whose first point's x is replaced by `x`."""
    assert run("synth", "--out", str(tmp_path / "scene"), "--seed", "1", *synth_args) == 0
    cloud = tmp_path / "scene" / "cloud.csv"
    first, rest = cloud.read_text().split("\n", 1)
    cloud.write_text(f"{x!r},{first.split(',', 1)[1]}\n{rest}")
    return cloud


def five_rows_two_huge(tmp_path):
    cloud = tmp_path / "five.csv"
    cloud.write_text("1,2,0\n3,4,0\n1e200,0,0\n0,1e200,0\n5,5,0\n")
    return cloud


@pytest.mark.parametrize("command,scene", [
    # k-means++ seeding would square x: its probabilities would be NaN
    ("navigate", lambda p: synth_with_huge_x(p, 1e306, "--shape", "i", "--density", "300")),
    # RANSAC's cross product would overflow: its normal would not be a unit vector
    ("switching", five_rows_two_huge),
    # one far point would make the plate collinear: a silent `stop`, exit 0
    ("switching", lambda p: synth_with_huge_x(p, 1e200, "--shape", "i", "--bar-width", "0.5",
                                              "--density", "3000", "--noise", "0.002")),
])
def test_huge_coordinate_is_one_error_line(command, scene, tmp_path, capsys):
    cloud = scene(tmp_path)
    capsys.readouterr()
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(command, "--input", str(cloud), "--out", str(out)) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: " + HUGE_MESSAGE]
    assert not out.exists()


@pytest.mark.parametrize("x", [6.053847750727365e13, 1e14, 1e20])
def test_far_plate_point_is_one_error_line(x, tmp_path, capsys):
    # one far point below the coordinate bound once made the plate count as
    # collinear: a silent `stop`, exit 0.  RANSAC now fits the plate with the
    # far point as an inlier, and no alpha_s can resolve that span.
    cloud = synth_with_huge_x(tmp_path, x, "--shape", "i", "--bar-width", "0.5",
                              "--density", "3000", "--noise", "0.002")
    capsys.readouterr()
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run("switching", "--input", str(cloud), "--out", str(out)) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: alpha_s ")
    assert "is too small for coordinates" in err[0]
    assert not out.exists()


def test_pipeline_loads_no_scipy(tmp_path):
    # SciPy is a test dependency only; the installed program must not need it.
    # Nor does it load numpy.ma, whose import alone costs 15-25 ms of a run:
    # np.median and np.unique(axis=0) load it, so boundary does without them
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"planner": {"max_iters": 0}}))
    code = f"""
import sys
import warnings
from steelnav import cli
tmp, cfg = {str(tmp_path)!r}, {str(cfg)!r}
assert cli.main(["synth", "--shape", "i", "--density", "1000", "--out", tmp + "/i"]) == 0
assert cli.main(["switching", "--input", tmp + "/i/cloud.csv", "--out", tmp + "/sw"]) == 0
assert cli.main(["synth", "--shape", "cross", "--density", "2000", "--noise", "0.004",
                 "--seed", "1", "--out", tmp + "/cross"]) == 0
assert cli.main(["navigate", "--input", tmp + "/cross/cloud.csv", "--config", cfg,
                 "--seed", "1", "--out", tmp + "/nav"]) in (0, 2)
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
print(sorted(m for m in sys.modules if m.split(".")[:2] == ["numpy", "ma"]))
"""
    src = str(Path(steelnav.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "[]"]
