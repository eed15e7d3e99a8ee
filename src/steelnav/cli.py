"""Pipeline orchestrator: ingestion, switching, navigation, standalone solver.

This is the one module that writes artifacts: each payload is built here
from the pipeline's objects, and `dump_json` encodes it.  Artifacts are
JSON (schema-versioned, sorted keys) with sibling SVG figures drawn only
from the same payload values.  Exit codes: 0 success, 1 error, 2 partial
success (some route edges could not be planned).
"""
from __future__ import annotations

import argparse
import dataclasses
import enum
import json
import sys
from pathlib import Path

import numpy as np

from . import boundary as bd
from . import cloud as cl
from . import config as cfgmod
from . import graph as gr
from . import route as rt
from . import segmentation as seg
from . import svgplot
from . import switching as sw
from . import synth
from .errors import (
    DegenerateCloud, DisconnectedEndpoints, NoPlane, ParseError, SteelNavError)
from .planner import Footprint, PibcChecker, RrtParams, plan_route

SCHEMA_VERSION = cfgmod.SCHEMA_VERSION


def _fields(obj) -> dict:
    """A dataclass's fields by name."""
    return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}


def _encode(obj):
    """The JSON value of what `json` does not encode itself."""
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    if isinstance(obj, enum.Enum):
        return obj.value
    if isinstance(obj, set):
        return sorted(obj)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return _fields(obj)
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def dump_json(obj) -> str:
    """The one JSON layout of artifacts and stdout: one line, sorted keys,
    no whitespace between tokens."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), default=_encode) + "\n"


def _write_json(path: Path, payload: dict):
    path.write_text(dump_json({"schema_version": SCHEMA_VERSION, **payload}))


def _preprocess(cloud, cfg):
    pt = cfg["cloud"]["passthrough"]
    if pt is not None:
        cloud = cl.passthrough_filter(cloud, pt["axis"], pt["lo"], pt["hi"])
    leaf = cfg["cloud"]["voxel_leaf"]
    if leaf is not None:
        cloud = cl.voxel_downsample(cloud, leaf)
    return cloud


def _transform(cfg) -> cl.RigidTransform:
    return cl.RigidTransform(np.asarray(cfg["transform"]["rotation"]),
                             np.asarray(cfg["transform"]["translation"]))


def _alpha_for(points, cfg) -> float:
    alpha = cfg["boundary"]["alpha_s"]
    return alpha if alpha is not None else bd.default_alpha_s(points)


# --- switching pipeline ----------------------------------------------------

def run_switching(input_path, cfg, out_dir: Path) -> sw.SwitchDecision:
    cloud = _preprocess(cl.load_cloud(input_path), cfg)
    try:
        plane = cl.extract_plane_ransac(
            cloud,
            dist_thresh=cfg["cloud"]["ransac"]["dist_thresh"],
            max_iters=cfg["cloud"]["ransac"]["max_iters"],
            rng_seed=cfg["seed"],
            min_inlier_fraction=cfg["cloud"]["ransac"]["min_inlier_fraction"],
        )
    except (NoPlane, DegenerateCloud):
        plane = None

    s_pa = sw.plane_available(plane.inliers if plane else None)
    candidates = []
    pose = None
    s_hc = False
    bound = None
    if s_pa:
        alpha = _alpha_for(plane.inliers.points, cfg)
        bound = bd.ncbe(plane.inliers.points, alpha)
        foot = sw.FootParams(**cfg["foot"])
        candidates = sw.area_check_candidates(bound, plane.centroid, plane.normal, foot)
        pose = next((c.pose for c in candidates if c.passed), None)
        if pose is not None:
            s_hc = sw.height_available(plane.centroid, _transform(cfg),
                                       cfg["height"]["base_height"],
                                       cfg["height"]["tol"])
    decision = sw.switch_decision(s_pa, s_hc, pose)

    payload = {
        "decision": {**_fields(decision), "s_am": decision.s_am},
        "plane": None if plane is None else {
            "normal": plane.normal,
            "offset": plane.offset,
            "centroid": plane.centroid,
            "inlier_count": len(plane.inliers),
        },
        "boundary": bound,
        "candidate_rectangles": [
            {"anchor": c.anchor, "corners": c.corners, "midpoints": c.midpoints,
             "passed": c.passed} for c in candidates],
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_json(out_dir / "switching.json", payload)
    _render_switching_svg(out_dir / "switching.svg", payload)
    return decision


def _render_switching_svg(path: Path, payload: dict):
    bound = payload["boundary"]
    if bound is None:
        path.write_text(svgplot.SvgCanvas(((0, 0), (1, 1))).render())
        return
    pts = bound.points[:, :2]
    centroid = payload["plane"]["centroid"][:2]
    corners = [c["corners"][:, :2] for c in payload["candidate_rectangles"]]
    drawn = [pts, [centroid], *corners]
    pose = payload["decision"]["pose"]
    if pose is not None:
        p = pose.position[:2]
        tips = p + 0.1 * np.array([pose.e_x[:2], pose.e_y[:2]])
        drawn.append(tips)
    # the figure spans every point it draws, so no position leaves the canvas
    canvas = svgplot.SvgCanvas(svgplot.bounds_of(np.vstack(drawn)))
    canvas.points(pts, radius=1.5, fill="#555555")
    canvas.points([centroid], radius=4, fill="#000000")
    for i, (cand, c) in enumerate(zip(payload["candidate_rectangles"], corners)):
        col = "#2ca02c" if cand["passed"] else svgplot.color(i + 3)
        for a, b in ((0, 1), (1, 3), (3, 2), (2, 0)):
            canvas.line(c[a], c[b], stroke=col, width=2.0)
    if pose is not None:
        canvas.points([p], radius=5, fill="#d62728")
        canvas.arrow(p, tips[0], stroke="#d62728")
        canvas.arrow(p, tips[1], stroke="#2ca02c")
    path.write_text(canvas.render())


# --- navigation pipeline ---------------------------------------------------

def run_navigation(input_path, cfg, out_dir: Path) -> int:
    """Full pipeline; returns the process exit code (0 full, 2 partial)."""
    cloud = _preprocess(cl.load_cloud(input_path), cfg)
    cloud = cl.transform_cloud(cloud, _transform(cfg))
    flat = cl.project_to_2d(cloud)
    xy = flat.xy

    alpha = _alpha_for(xy, cfg)
    eps_border = cfg["boundary"]["eps_border"] or 2.0 * alpha
    s = cfg["segmentation"]
    cs = seg.segment_structure(
        xy, s["n_cmin"], s["n_cmax"], l_b=cfg["boundary"]["l_b"],
        eps_border=eps_border, alpha_s=alpha, seed=cfg["seed"],
        max_iter=s["max_iter"], rel_tol=s["rel_tol"], restarts=s["restarts"])

    d_min = cfg["graph"]["d_min"]
    if d_min is None:
        d_min = cfg["planner"]["footprint_length"]
    g = gr.build_graph(cs, d_min)

    v_s = cfg["route"]["v_s"]
    v_t = cfg["route"]["v_t"]
    if v_t is None:
        v_t = max(g.vertices)
    try:
        route = rt.vocpp(g, v_s, v_t)
    except DisconnectedEndpoints as exc:
        raise DisconnectedEndpoints(
            f"structure graph has {g.component_count} components: {exc}") from None

    p = cfg["planner"]
    fp = Footprint(p["footprint_width"], p["footprint_length"])
    params = RrtParams(
        step=p["step"] if p["step"] is not None else fp.width / 2.0,
        theta_step=p["theta_step"],
        goal_tol=p["goal_tol"] if p["goal_tol"] is not None else fp.width / 4.0,
        goal_bias=p["goal_bias"], max_iters=p["max_iters"])
    checker = PibcChecker(cs.boundaries, p["n_candidates"], p["m_neighbors"], p["rule"])
    result = plan_route(route, g, checker, fp, params, seed=cfg["seed"])

    # stage artifacts, written only once every stage has succeeded
    if g.component_count > 1:
        print(f"warning: structure graph has {g.component_count} components",
              file=sys.stderr)
    out_dir.mkdir(parents=True, exist_ok=True)
    cloud_json = {"points": flat.points, "frame": flat.frame}
    _write_json(out_dir / "cloud.json", cloud_json)
    clusters_json = {
        "n_c": cs.n_c, "labels": cs.labels, "means": cs.model.means,
        "ratio_table": cs.ratio_table, "seed": cs.seed,
        "alpha_s": alpha, "eps_border": eps_border,
        "boundaries": [{"cluster_id": i, "center": b.center, "alpha_s": b.alpha_s,
                        "points": b.points} for i, b in enumerate(cs.boundaries)],
    }
    _write_json(out_dir / "clusters.json", clusters_json)
    graph_json = {
        "vertices": [{"id": v, "kind": k, "pos": p}
                     for v, p, k in zip(g.vertices, g.positions, g.kinds)],
        "edges": [{"u": u, "v": v, "w": w} for u, v, w in g.edges],
        "component_count": g.component_count,
    }
    _write_json(out_dir / "graph.json", graph_json)
    route_json = {**_fields(route), "v_s": v_s, "v_t": v_t,
                  "covered_edges": len(g.edges)}
    _write_json(out_dir / "route.json", route_json)
    motion_json = {
        "paths": [{"edge": p.edge_ref, "configs": [[c.x, c.y, c.theta] for c in p.configs]}
                  for p in result.paths],
        "failures": result.failures,
    }
    _write_json(out_dir / "motion.json", motion_json)

    _render_navigation_svgs(out_dir, cloud_json, clusters_json, graph_json,
                            route_json, motion_json)
    if result.failures:
        manifest = {"failed_edges": [f.edge for f in result.failures]}
        _write_json(out_dir / "failures.json", manifest)
        return 2
    return 0


def _render_navigation_svgs(out_dir, cloud_json, clusters_json, graph_json,
                            route_json, motion_json):
    pts = cloud_json["points"][:, :2]
    bounds = svgplot.bounds_of(pts)

    canvas = svgplot.SvgCanvas(bounds)
    canvas.points(pts, radius=1.0, fill="#444444")
    (out_dir / "cloud.svg").write_text(canvas.render())

    canvas = svgplot.SvgCanvas(bounds)
    labels = clusters_json["labels"]
    for i in range(clusters_json["n_c"]):
        canvas.points(pts[labels == i], radius=1.0, fill=svgplot.color(i))
    (out_dir / "segmentation.svg").write_text(canvas.render())

    canvas = svgplot.SvgCanvas(bounds)
    for b in clusters_json["boundaries"]:
        if len(b["points"]):
            canvas.points(b["points"][:, :2], radius=1.5,
                          fill=svgplot.color(b["cluster_id"]))
    pos = {v["id"]: v["pos"] for v in graph_json["vertices"]}
    for e in graph_json["edges"]:
        canvas.line(pos[e["u"]], pos[e["v"]], stroke="#000000", width=1.5)
    # one path for all vertex dots: a one-dot path is longer than a circle
    canvas.points([pos[v["id"]] for v in graph_json["vertices"]], radius=4,
                  fill="#000000")
    for v in graph_json["vertices"]:
        canvas.text(pos[v["id"]], str(v["id"]))
    (out_dir / "graph.svg").write_text(canvas.render())

    canvas = svgplot.SvgCanvas(bounds)
    for e in graph_json["edges"]:
        canvas.line(pos[e["u"]], pos[e["v"]], stroke="#bbbbbb", width=1.0)
    walk = route_json["walk"]
    for i in range(len(walk) - 1):
        canvas.arrow(pos[walk[i]], pos[walk[i + 1]])
        mid = (pos[walk[i]] + pos[walk[i + 1]]) / 2
        canvas.text(mid, str(i + 1), size=10, fill="#1f77b4")
    (out_dir / "route.svg").write_text(canvas.render())

    canvas = svgplot.SvgCanvas(bounds)
    canvas.points(pts, radius=0.8, fill="#dddddd")
    for i, path in enumerate(motion_json["paths"]):
        configs = np.asarray(path["configs"])
        canvas.polyline(configs[:, :2], stroke=svgplot.color(i), width=2.0)
    (out_dir / "motion.svg").write_text(canvas.render())


# --- standalone solver -----------------------------------------------------

def _vertex_ids(tokens) -> list:
    """The one vertex-id rule: all ints when every token is an int's canonical
    spelling (str(int(t)) == t), else the tokens unchanged.  Distinct tokens
    stay distinct ids ("1" and "01" are two vertices), and ids of one type
    keep the route's sorts defined."""
    try:
        ids = [int(t) for t in tokens]
    except ValueError:
        return list(tokens)
    return ids if all(str(i) == t for i, t in zip(ids, tokens)) else list(tokens)


def load_edge_list(path) -> rt.Multigraph:
    """Parse 'u v w' lines into a multigraph; `_vertex_ids` types the ids."""
    rows = []
    for lineno, raw in enumerate(cl.read_text(path).splitlines(), start=1):
        parts = raw.split()
        if parts and not parts[0].startswith("#"):
            rows.append((lineno, parts))
    tokens = [t for _, parts in rows for t in parts[:2]]
    id_of = dict(zip(tokens, _vertex_ids(tokens)))
    edges = []
    for lineno, parts in rows:
        if len(parts) != 3:
            raise ParseError("expected 'u v w'", line=lineno)
        u, v = id_of[parts[0]], id_of[parts[1]]
        try:
            w = float(parts[2])
            # the one-edge build runs Multigraph's edge checks on this line
            rt.Multigraph.build((u, v), [(u, v, w)])
        except ValueError as exc:
            raise ParseError(str(exc), line=lineno) from None
        edges.append((u, v, w))
    return rt.Multigraph.build(dict.fromkeys(x for u, v, _ in edges for x in (u, v)),
                               edges)


def solve_graph(path, v_s, v_t, oracle=False, out=None) -> dict:
    g = load_edge_list(path)
    # the endpoints take the file's id type: on an integer file "03" is vertex 3
    if all(isinstance(v, int) for v in g.vertices):
        try:
            v_s, v_t = int(v_s), int(v_t)
        except ValueError:
            pass  # an endpoint that is no integer names no vertex here
    plan = rt.vocpp(g, v_s, v_t)
    payload = _fields(plan)
    if oracle:
        ref = rt.brute_force_ocpp(g, v_s, v_t)
        payload["oracle_length"] = ref.total_length
        payload["optimality_gap"] = (
            (plan.total_length - ref.total_length) / ref.total_length
            if ref.total_length > 0 else 0.0)
    if out is not None:
        _write_json(Path(out), payload)
    return payload


# --- synth command -----------------------------------------------------------

def run_synth(shape, out_dir: Path, bar_length, bar_width, density, noise, seed):
    spec = synth.StructureSpec(synth.Shape(shape), bar_length, bar_width,
                               density, noise, seed)
    cloud, truth = synth.generate(spec)
    text = "".join(f"{x!r},{y!r},{z!r}\n" for x, y, z in cloud.points.tolist())
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "cloud.csv").write_text(text)
    _write_json(out_dir / "ground_truth.json", _fields(truth))


# --- argparse wiring ---------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="steelnav",
        description="Lattice-structure inspection: switching control and "
                    "route/motion planning from point clouds.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("init", help="write a config template with all defaults")
    p.add_argument("--out", default="steelnav.json")

    for name, text in (("switching", "run the switching-control pipeline"),
                       ("navigate", "run the full navigation pipeline")):
        p = sub.add_parser(name, help=text)
        p.add_argument("--input", required=True)
        p.add_argument("--config", default=None)
        p.add_argument("--out", required=True)
        p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("solve", help="solve the open postman route on an edge list")
    p.add_argument("--input", required=True)
    p.add_argument("--vs", required=True)
    p.add_argument("--vt", required=True)
    p.add_argument("--oracle", action="store_true",
                   help="also run the exact brute-force solver (<= 14 edges)")
    p.add_argument("--out", default=None)

    p = sub.add_parser("synth", help="generate a synthetic structure cloud")
    p.add_argument("--shape", required=True,
                   choices=[s.value for s in synth.Shape])
    p.add_argument("--out", required=True)
    p.add_argument("--bar-length", type=float, default=1.0)
    p.add_argument("--bar-width", type=float, default=0.1)
    p.add_argument("--density", type=float, default=4000.0)
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "init":
            # the one JSON file a person edits stays indented
            Path(args.out).write_text(
                json.dumps(cfgmod.DEFAULTS, indent=2, sort_keys=True) + "\n")
            return 0
        if args.command == "synth":
            run_synth(args.shape, Path(args.out), args.bar_length, args.bar_width,
                      args.density, args.noise, args.seed)
            return 0
        if args.command == "solve":
            payload = solve_graph(args.input, args.vs, args.vt,
                                  oracle=args.oracle, out=args.out)
            sys.stdout.write(dump_json(payload))
            return 0
        cfg = cfgmod.load_config(args.config, seed=args.seed)
        if args.command == "switching":
            run_switching(args.input, cfg, Path(args.out))
            return 0
        return run_navigation(args.input, cfg, Path(args.out))
    except (SteelNavError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

if __name__ == "__main__":
    sys.exit(main())
