"""Artifact encoding: one compact JSON layout, and SVG figures whose dots,
strokes and labels decode to the JSON's positions."""
import json
import re
import warnings
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from steelnav import boundary, cloud, segmentation, svgplot
from steelnav.cli import main

import oracles

SVG = "{http://www.w3.org/2000/svg}"
PATH_TOKEN = re.compile(r"[MmLlh]|[-+]?\d+")
TOL = 0.005  # px: half a user unit of 1/100 px
NAV_SPARSE = {"planner": {"max_iters": 300}, "segmentation": {"n_cmax": 5}}


def run(*argv):
    return main([str(a) for a in argv])


def read_json(path):
    return json.loads(path.read_text())


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """A small navigate run (exit 2: no RRT budget, so failures.json is
    written too), the same scene with the nav-sparse bench config (motion
    paths and failures, exit 2) and a switching run that finds a standing
    pose."""
    root = tmp_path_factory.mktemp("artifacts")
    assert run("synth", "--shape", "cross", "--density", "2000", "--noise", "0.004",
               "--seed", "1", "--out", root / "cross") == 0
    cfg = root / "cfg.json"
    cfg.write_text(json.dumps({"planner": {"max_iters": 0}}))
    assert run("navigate", "--input", root / "cross" / "cloud.csv", "--config", cfg,
               "--seed", "1", "--out", root / "nav") == 2
    (root / "rrt.json").write_text(json.dumps(NAV_SPARSE))
    assert run("navigate", "--input", root / "cross" / "cloud.csv", "--config",
               root / "rrt.json", "--seed", "1", "--out", root / "rrt") == 2
    assert run("synth", "--shape", "i", "--bar-width", "0.5", "--density", "3000",
               "--noise", "0.002", "--seed", "1", "--out", root / "plate") == 0
    assert run("switching", "--input", root / "plate" / "cloud.csv", "--seed", "1",
               "--out", root / "sw") == 0
    return root


def decode(d):
    """The subpaths of integer path data, each an (n, 2) array of its stops
    in px: `M`/`m` start one (further pairs draw lines), `L`/`l` draw to
    each pair, `h0` draws to where the pen is."""
    assert PATH_TOKEN.sub("", d).strip(" ") == "", d
    tokens = PATH_TOKEN.findall(d)
    subpaths, pen, cmd, i = [], np.zeros(2, dtype=np.int64), None, 0
    while i < len(tokens):
        if tokens[i] in ("M", "m", "L", "l", "h"):
            cmd = tokens[i]
            i += 1
        if cmd == "h":
            assert tokens[i] == "0", d
            subpaths[-1].append(pen.copy())
            i += 1
            continue
        pair = np.array([int(tokens[i]), int(tokens[i + 1])])
        i += 2
        pen = pair if cmd in ("M", "L") else pen + pair
        if cmd in ("M", "m"):
            subpaths.append([pen.copy()])
            cmd = "L" if cmd == "M" else "l"
        else:
            subpaths[-1].append(pen.copy())
    return [np.array(s) / svgplot.UNITS_PER_PX for s in subpaths]


def svg_paths(path):
    return list(ET.parse(path).getroot().iter(f"{SVG}path"))


def point_layers(path):
    """The dots of each point path of an SVG file, as (n, 2) px arrays."""
    layers = []
    for el in svg_paths(path):
        if el.get("stroke-linecap") != "round":
            continue
        subpaths = decode(el.get("d"))
        # a dot is a zero-length subpath: its stop, then h0 to the same place
        assert all(len(s) == 2 and (s[0] == s[1]).all() for s in subpaths)
        layers.append(np.array([s[0] for s in subpaths]))
    return layers


def strokes(path):
    """Every segment of the unfilled paths, in drawing order: (stroke,
    width in px, start, end)."""
    out = []
    for el in svg_paths(path):
        if el.get("fill") != "none":
            continue
        width = int(el.get("stroke-width")) / svgplot.UNITS_PER_PX
        for stops in decode(el.get("d")):
            out += [(el.get("stroke"), width, a, b) for a, b in zip(stops, stops[1:])]
    return out


def to_px(canvas, pts):
    return np.array([canvas._xy(p) for p in np.asarray(pts, dtype=float)[:, :2]])


def check_layers(path, canvas, expected):
    """Each point path holds its JSON points as a multiset, each dot within
    0.005 px of its point under the canvas transform.  The encoding stores
    1/100-px integers in a spatial order, so the dots pair with the points
    by sorting both sides on the stored position."""
    layers = point_layers(path)
    assert len(layers) == len(expected), path.name
    for dots, pts in zip(layers, expected):
        want = to_px(canvas, pts)
        assert len(dots) == len(want), path.name
        units = np.rint(svgplot.UNITS_PER_PX * want)
        np.testing.assert_allclose(dots[np.lexsort(dots.T)],
                                   want[np.lexsort(units.T)], rtol=0, atol=TOL)


def check_strokes(path, canvas, expected):
    """The segments decode, in drawing order, to `expected` (stroke, width,
    world start, world end) within 0.005 px."""
    got = strokes(path)
    assert [g[:2] for g in got] == [e[:2] for e in expected], path.name
    if got:
        np.testing.assert_allclose(
            [np.concatenate(g[2:]) for g in got],
            [np.concatenate(to_px(canvas, e[2:])) for e in expected], rtol=0, atol=TOL)


def check_texts(path, canvas, expected):
    """Each label sits at its world position (within 0.005 px), in order."""
    texts = list(ET.parse(path).getroot().iter(f"{SVG}text"))
    assert [t.text for t in texts] == [label for _, label in expected], path.name
    got = [[int(t.get("x")), int(t.get("y"))] for t in texts]
    if got:
        np.testing.assert_allclose(np.array(got) / svgplot.UNITS_PER_PX,
                                   to_px(canvas, [p for p, _ in expected]),
                                   rtol=0, atol=TOL)


def arrow(stroke, a, b, canvas):
    """An arrow's three segments from world points: the shaft, then two head
    strokes to the tip from 8 px behind it and 4 px to either side."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    d = (b - a) / np.linalg.norm(b - a)
    perp = np.array([-d[1], d[0]])
    size = 8.0 / canvas.scale
    tails = [b - size * d + side * 0.5 * size * perp for side in (1, -1)]
    return [(stroke, 2.0, a, b)] + [(stroke, 2.0, t, b) for t in tails]


def check_navigation(out):
    pts = np.asarray(read_json(out / "cloud.json")["points"])[:, :2]
    canvas = svgplot.SvgCanvas(svgplot.bounds_of(pts))
    clusters = read_json(out / "clusters.json")
    labels = np.asarray(clusters["labels"])
    graph = read_json(out / "graph.json")
    walk = read_json(out / "route.json")["walk"]
    paths = read_json(out / "motion.json")["paths"]
    pos = {v["id"]: np.asarray(v["pos"]) for v in graph["vertices"]}
    edges = [(pos[e["u"]], pos[e["v"]]) for e in graph["edges"]]
    steps = [(pos[u], pos[v]) for u, v in zip(walk, walk[1:])]

    check_layers(out / "cloud.svg", canvas, [pts])
    per_label = [pts[labels == i] for i in range(clusters["n_c"])]
    check_layers(out / "segmentation.svg", canvas, [p for p in per_label if len(p)])
    borders = [b["points"] for b in clusters["boundaries"] if b["points"]]
    check_layers(out / "graph.svg", canvas, borders + [list(pos.values())])
    check_strokes(out / "graph.svg", canvas, [("#000000", 1.5, a, b) for a, b in edges])
    check_texts(out / "graph.svg", canvas, [(p, str(v)) for v, p in pos.items()])
    assert point_layers(out / "route.svg") == []
    check_strokes(out / "route.svg", canvas,
                  [("#bbbbbb", 1.0, a, b) for a, b in edges]
                  + [s for a, b in steps for s in arrow("#d62728", a, b, canvas)])
    check_texts(out / "route.svg", canvas,
                [((a + b) / 2, str(i + 1)) for i, (a, b) in enumerate(steps)])
    check_layers(out / "motion.svg", canvas, [pts])
    check_strokes(out / "motion.svg", canvas, [
        (svgplot.color(i), 2.0, a, b) for i, path in enumerate(paths)
        for a, b in zip(path["configs"], path["configs"][1:])])
    return paths


class TestSvgDotsMatchJson:
    """Dots, strokes and labels of every figure, against the JSON."""

    def test_navigate_layers(self, runs):
        assert check_navigation(runs / "nav") == []

    def test_navigate_layers_with_motion(self, runs):
        assert len(check_navigation(runs / "rrt")) > 0

    def test_switching_layers(self, runs):
        payload = read_json(runs / "sw" / "switching.json")
        pose = payload["decision"]["pose"]
        assert pose is not None
        border = np.asarray(payload["boundary"]["points"])[:, :2]
        centroid = payload["plane"]["centroid"][:2]
        corners = [np.asarray(c["corners"])[:, :2] for c in payload["candidate_rectangles"]]
        p = np.asarray(pose["position"][:2])
        tip_x = p + 0.1 * np.asarray(pose["e_x"][:2])
        tip_y = p + 0.1 * np.asarray(pose["e_y"][:2])
        # the figure spans every point it draws
        canvas = svgplot.SvgCanvas(svgplot.bounds_of(
            np.vstack([border, [centroid], *corners, tip_x, tip_y])))
        path = runs / "sw" / "switching.svg"
        check_layers(path, canvas, [border, [centroid], [pose["position"]]])
        rects = []
        for i, (cand, c) in enumerate(zip(payload["candidate_rectangles"], corners)):
            col = "#2ca02c" if cand["passed"] else svgplot.color(i + 3)
            rects += [(col, 2.0, c[a], c[b]) for a, b in ((0, 1), (1, 3), (3, 2), (2, 0))]
        check_strokes(path, canvas, rects + arrow("#d62728", p, tip_x, canvas)
                      + arrow("#2ca02c", p, tip_y, canvas))

    def test_switching_with_a_huge_foot_stays_on_the_canvas(self, runs, tmp_path):
        # candidate rectangles far larger than the plate: every dot and
        # stroke stop still decodes inside the viewBox, with no warning
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"foot": {"width": 1e50, "length": 1e50}}))
        out = tmp_path / "sw"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run("switching", "--input", runs / "plate" / "cloud.csv", "--config", cfg,
                       "--seed", "1", "--out", out) == 0
        assert read_json(out / "switching.json")["candidate_rectangles"]
        root = ET.parse(out / "switching.svg").getroot()
        size = np.array([float(root.get("width")), float(root.get("height"))])
        stops = np.vstack([*point_layers(out / "switching.svg"),
                           *(s for _, _, *s in strokes(out / "switching.svg"))])
        assert ((stops >= 0) & (stops <= size)).all()

    @pytest.mark.parametrize("pts", [[], np.empty((0, 2))])
    def test_empty_point_set_adds_nothing(self, pts):
        canvas = svgplot.SvgCanvas(((0, 0), (1, 1)))
        canvas.points(pts)
        assert canvas.parts == []

    def test_one_path_per_run_of_one_stroke_style(self):
        canvas = svgplot.SvgCanvas(((0, 0), (1, 1)))
        canvas.line((0, 0), (1, 1))
        canvas.arrow((1, 0), (0, 1), stroke="#000000", width=1.5)
        canvas.line((0, 0), (1, 0), stroke="#ff0000")
        canvas.text((0.5, 0.5), "x")
        canvas.line((0, 1), (1, 1), stroke="#ff0000")
        root = ET.fromstring(canvas.render())
        kinds = [(el.tag[len(SVG):], el.get("stroke")) for el in root][1:]  # after <rect>
        assert kinds == [("path", "#000000"), ("path", "#ff0000"), ("text", None),
                         ("path", "#ff0000")]
        # the line, then the arrow's shaft and two head strokes
        assert [len(s) for s in decode(root.find(f"{SVG}path").get("d"))] == [2, 2, 2, 2]


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
