"""The benchmark's workloads and the inputs each one generates from its seed.

Every workload runs through `steelnav.cli.main`, the entry point a user
calls.  `setup` writes a call's inputs into its directory and returns the
pipeline's argument list; the call's outputs go under ``out/``.
"""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np

# Why each workload is here, and which layer it stresses, is in README.md.
#
# Each workload is one fixed instance (SCENE_SEED; also the pipeline seed),
# moved in the plane by an offset drawn from the workload seed.  Every input
# byte changes with the seed, but the work and the outcome do not; README.md
# gives the measurements behind this choice.
SCENE_SEED = 1
WORKLOADS = {
    "nav-sparse": {
        "command": "navigate",
        "synth": {"shape": "cross", "density": 2000, "noise": 0.004},
        # Three of the 21 route steps are infeasible; each spends
        # 3 x max_iters RRT iterations before it fails.  EM stops at 5
        # clusters, which it picks anyway: every output but the ratio table
        # in clusters.json stays the same, EM takes less than half the
        # time, and the planner dominates.
        "config": {"planner": {"max_iters": 300}, "segmentation": {"n_cmax": 5}},
        "exit_code": 2,
    },
    "nav-dense": {
        "command": "navigate",
        "synth": {"shape": "cross", "density": 4000, "noise": 0.004},
        # Start and goal poses are nudged and checked, but no RRT runs: the
        # success path's work varies ~2x with the seed and would drown EM.
        "config": {"planner": {"max_iters": 0}},
        "exit_code": 2,
    },
    "switch-plate": {
        "command": "switching",
        "synth": {"shape": "i", "bar_width": 0.5, "density": 3000, "noise": 0.002},
        "config": {},
        "exit_code": 0,
    },
}


def shift_cloud(path: Path, offset) -> None:
    """Move every point of an x,y,z CSV cloud by `offset` in x and y."""
    dx, dy = (float(v) for v in offset)
    rows = [[float(c) for c in line.split(",")] for line in path.read_text().splitlines()]
    path.write_text("".join(f"{x + dx!r},{y + dy!r},{z!r}\n" for x, y, z in rows))


def setup(name: str, seed: int, call_dir: Path, cli) -> list[str]:
    """Generate the call's inputs; return the pipeline's argument list."""
    w = WORKLOADS[name]
    offset = np.random.default_rng(seed).uniform(-1.0, 1.0, 2)
    s = w["synth"]
    scene = call_dir / "scene"
    synth_argv = ["synth", "--shape", s["shape"], "--out", str(scene),
                  "--density", str(s["density"]), "--noise", str(s["noise"]),
                  "--seed", str(SCENE_SEED)]
    if "bar_width" in s:
        synth_argv += ["--bar-width", str(s["bar_width"])]
    if cli.main(synth_argv) != 0:
        raise RuntimeError(f"synth failed: {synth_argv}")
    shift_cloud(scene / "cloud.csv", offset)
    config = call_dir / "config.json"
    config.write_text(json.dumps(w["config"], indent=2, sort_keys=True) + "\n")
    return [w["command"], "--input", str(scene / "cloud.csv"), "--config", str(config),
            "--out", str(call_dir / "out"), "--seed", str(SCENE_SEED)]
