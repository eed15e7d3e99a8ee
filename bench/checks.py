"""Output checks and quality measures for one benchmark call.

Each `check_*` function reads a call's output files and returns a list of
problems (empty when the outputs are correct) and a dict of quality
measures.  They run in the parent process, outside the timed region.
"""
from __future__ import annotations

import hashlib
import json
import math
from collections import Counter
from pathlib import Path

import numpy as np


def artifact_hashes(out_dir: Path) -> dict:
    """{relative path: [bytes, sha256]} for every file the call wrote."""
    return {str(p.relative_to(out_dir)): [p.stat().st_size,
                                          hashlib.sha256(p.read_bytes()).hexdigest()]
            for p in sorted(out_dir.rglob("*")) if p.is_file()}


def adjusted_rand_index(a, b) -> float:
    """Hubert-Arabie adjusted Rand index of two labelings."""
    a = np.unique(np.asarray(a), return_inverse=True)[1]
    b = np.unique(np.asarray(b), return_inverse=True)[1]
    table = np.zeros((a.max() + 1, b.max() + 1))
    np.add.at(table, (a, b), 1)

    def pairs(x):
        return float((x * (x - 1) / 2).sum())

    n = len(a)
    s_ab, s_a, s_b = pairs(table), pairs(table.sum(axis=1)), pairs(table.sum(axis=0))
    expected = s_a * s_b / (n * (n - 1) / 2)
    top = (s_a + s_b) / 2
    return 1.0 if top == expected else (s_ab - expected) / (top - expected)


def _walk_problems(walk, v_s, v_t, edges) -> list[str]:
    """The walk runs v_s -> v_t along graph edges and traverses every edge."""
    problems = []
    if walk[0] != v_s or walk[-1] != v_t:
        problems.append(f"walk runs {walk[0]} -> {walk[-1]}, expected {v_s} -> {v_t}")
    need = Counter(tuple(sorted(e)) for e in edges)
    steps = Counter(tuple(sorted(s)) for s in zip(walk, walk[1:]))
    off_graph = sorted(set(steps) - set(need))
    uncovered = sorted(e for e, k in need.items() if steps[e] < k)
    if off_graph:
        problems.append(f"walk steps off the graph: {off_graph[:5]}")
    if uncovered:
        problems.append(f"edges not covered: {uncovered[:5]}")
    return problems


def check_navigate(call_dir: Path, exit_code: int):
    from steelnav.boundary import Boundary
    from steelnav.config import load_config
    from steelnav.planner import Config, Footprint, PibcChecker

    out = call_dir / "out"

    def load(name):
        return json.loads((out / name).read_text())

    graph, route, motion, clusters = (load(n) for n in (
        "graph.json", "route.json", "motion.json", "clusters.json"))
    walk = route["walk"]
    problems = _walk_problems(walk, route["v_s"], route["v_t"],
                              [(e["u"], e["v"]) for e in graph["edges"]])
    paths, failures = motion["paths"], motion["failures"]
    if len(paths) + len(failures) != len(walk) - 1:
        problems.append(f"{len(paths)} paths + {len(failures)} failures "
                        f"for {len(walk) - 1} route steps")
    if (exit_code == 2) != bool(failures) or \
            (out / "failures.json").is_file() != bool(failures):
        problems.append(f"exit code {exit_code} disagrees with {len(failures)} failures")

    p = load_config(call_dir / "config.json")["planner"]
    boundaries = [Boundary(np.asarray(b["points"]), np.asarray(b["center"]), b["alpha_s"])
                  for b in clusters["boundaries"] if b["points"]]
    checker = PibcChecker(boundaries, p["n_candidates"], p["m_neighbors"], p["rule"])
    fp = Footprint(p["footprint_width"], p["footprint_length"])
    invalid = sum(not checker.check(Config(*c), fp)
                  for path in paths for c in path["configs"])
    if invalid:
        problems.append(f"{invalid} motion configs fail a fresh PibcChecker.check")

    truth = json.loads((call_dir / "scene" / "ground_truth.json").read_text())
    quality = {
        "edge_fail_frac": len(failures) / (len(walk) - 1),
        "seg_ari": adjusted_rand_index(truth["labels"], clusters["labels"]),
        "route_ratio": route["total_length"] / math.fsum(e["w"] for e in graph["edges"]),
    }
    return problems, quality


def check_switching(call_dir: Path, exit_code: int):
    decision = json.loads((call_dir / "out" / "switching.json").read_text())["decision"]
    problems = []
    if decision["mode"] != "mobile":
        problems.append(f"mode {decision['mode']}, expected mobile")
    pose = decision["pose"]
    if pose is None:
        problems.append("no standing pose")
    else:
        r = np.column_stack([pose["e_x"], pose["e_y"], pose["e_z"]])
        residual = float(np.max(np.abs(r.T @ r - np.eye(3))))
        if residual > 1e-9:
            problems.append(f"pose orthonormality residual {residual:.3g}")
    return problems, {}


CHECKS = {"navigate": check_navigate, "switching": check_switching}
