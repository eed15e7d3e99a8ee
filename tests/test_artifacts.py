"""Artifact encoding: one compact JSON layout, and SVG point layers that hold
exactly the JSON's points."""
import json
import re
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from steelnav import boundary, cloud, segmentation, svgplot
from steelnav.cli import main

import oracles

SVG = "{http://www.w3.org/2000/svg}"
DOT = re.compile(r"M(\S+) (\S+?)h0")


def run(*argv):
    return main([str(a) for a in argv])


def read_json(path):
    return json.loads(path.read_text())


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """A small navigate run (exit 2: no RRT budget, so failures.json is
    written too) and a switching run that finds a standing pose."""
    root = tmp_path_factory.mktemp("artifacts")
    assert run("synth", "--shape", "cross", "--density", "2000", "--noise", "0.004",
               "--seed", "1", "--out", root / "cross") == 0
    cfg = root / "cfg.json"
    cfg.write_text(json.dumps({"planner": {"max_iters": 0}}))
    assert run("navigate", "--input", root / "cross" / "cloud.csv", "--config", cfg,
               "--seed", "1", "--out", root / "nav") == 2
    assert run("synth", "--shape", "i", "--bar-width", "0.5", "--density", "3000",
               "--noise", "0.002", "--seed", "1", "--out", root / "plate") == 0
    assert run("switching", "--input", root / "plate" / "cloud.csv", "--seed", "1",
               "--out", root / "sw") == 0
    return root


def point_layers(path):
    """The dots of each point path of an SVG file, as (x, y) strings."""
    layers = []
    for el in ET.parse(path).getroot().iter(f"{SVG}path"):
        d = el.get("d")
        dots = DOT.findall(d)
        assert d == "".join(f"M{x} {y}h0" for x, y in dots)
        assert el.get("stroke-linecap") == "round"
        layers.append(dots)
    return layers


def check_layers(path, bounds, expected):
    """Each point path lists its JSON points in order, under the canvas
    transform of `bounds`."""
    canvas = svgplot.SvgCanvas(bounds)
    layers = point_layers(path)
    assert len(layers) == len(expected), path.name
    for dots, pts in zip(layers, expected):
        pts = np.asarray(pts, dtype=float)[:, :2]
        assert len(dots) == len(pts), path.name
        x, y = canvas._xy(pts[0])
        assert dots[0] == (svgplot._fmt(x), svgplot._fmt(y)), path.name
        want = np.array([canvas._xy(p) for p in pts])
        np.testing.assert_allclose(np.asarray(dots, dtype=float), want, rtol=0, atol=5e-5)


class TestSvgDotsMatchJson:
    def test_navigate_layers(self, runs):
        out = runs / "nav"
        pts = np.asarray(read_json(out / "cloud.json")["points"])[:, :2]
        bounds = svgplot.bounds_of(pts)
        clusters = read_json(out / "clusters.json")
        labels = np.asarray(clusters["labels"])
        graph = read_json(out / "graph.json")

        check_layers(out / "cloud.svg", bounds, [pts])
        check_layers(out / "motion.svg", bounds, [pts])
        per_label = [pts[labels == i] for i in range(clusters["n_c"])]
        check_layers(out / "segmentation.svg", bounds, [p for p in per_label if len(p)])
        borders = [b["points"] for b in clusters["boundaries"] if b["points"]]
        vertices = [v["pos"] for v in graph["vertices"]]
        check_layers(out / "graph.svg", bounds, borders + [vertices])
        assert len(point_layers(out / "route.svg")) == 0

    def test_switching_layers(self, runs):
        payload = read_json(runs / "sw" / "switching.json")
        pose = payload["decision"]["pose"]
        assert pose is not None
        border = np.asarray(payload["boundary"]["points"])[:, :2]
        check_layers(runs / "sw" / "switching.svg", svgplot.bounds_of(border),
                     [border, [payload["plane"]["centroid"]], [pose["position"]]])

    @pytest.mark.parametrize("pts", [[], np.empty((0, 2))])
    def test_empty_point_set_adds_nothing(self, pts):
        canvas = svgplot.SvgCanvas(((0, 0), (1, 1)))
        canvas.points(pts)
        assert canvas.parts == []


def compact(text):
    return json.dumps(json.loads(text), sort_keys=True, separators=(",", ":")) + "\n"


class TestOneJsonLayout:
    def test_pipeline_files(self, runs):
        files = [runs / "cross" / "ground_truth.json",
                 runs / "plate" / "ground_truth.json",
                 runs / "sw" / "switching.json"]
        files += [runs / "nav" / f"{name}.json" for name in
                  ("cloud", "clusters", "graph", "route", "motion", "failures")]
        for path in files:
            text = path.read_text()
            assert text == compact(text), path.name

    def test_solve_out_and_stdout(self, tmp_path, capsys):
        edges = tmp_path / "edges.txt"
        edges.write_text("0 1 1.0\n1 2 1.0\n0 2 2.0\n")
        out = tmp_path / "route.json"
        assert run("solve", "--input", edges, "--vs", "0", "--vt", "1",
                   "--oracle", "--out", out) == 0
        printed = capsys.readouterr().out
        assert printed == compact(printed)
        text = out.read_text()
        assert text == compact(text)


class TestKernelsMatchTheirOracles:
    def test_every_artifact_is_byte_identical(self, runs, tmp_path, monkeypatch):
        # the per-window NCBE and the per-row parser in place of the
        # package's batched pass and bulk parser
        calls = []

        def per_window_ncbe(points, alpha_s):
            calls.append("ncbe")
            return oracles.per_window_ncbe(points, alpha_s)

        def per_row_parse_rows(*args):
            calls.append("parse")
            return oracles.per_row_parse_rows(*args)

        monkeypatch.setattr(boundary, "ncbe", per_window_ncbe)
        monkeypatch.setattr(segmentation, "ncbe", per_window_ncbe)  # imported by name
        monkeypatch.setattr(cloud, "_parse_rows", per_row_parse_rows)
        assert run("navigate", "--input", runs / "cross" / "cloud.csv", "--config",
                   runs / "cfg.json", "--seed", "1", "--out", tmp_path / "nav") == 2
        assert run("switching", "--input", runs / "plate" / "cloud.csv", "--seed", "1",
                   "--out", tmp_path / "sw") == 0
        assert calls.count("parse") == 2 and calls.count("ncbe") > 2
        for name in ("nav", "sw"):
            files = sorted(p.relative_to(runs / name) for p in (runs / name).iterdir())
            assert files == sorted(p.relative_to(tmp_path / name)
                                   for p in (tmp_path / name).iterdir())
            for f in files:
                want = (runs / name / f).read_bytes()
                assert (tmp_path / name / f).read_bytes() == want, f
