"""Spans around calls into steelnav's layers, recorded from outside the program.

`Tracer.install` replaces each traced public function with a wrapper at
every place it is looked up through: the module that defines it, every
steelnav module that imported it by name (``segmentation.ncbe`` as well as
``boundary.ncbe``), and the class for methods.  `Tracer.restore` puts the
originals back and reports any attribute that is not the original again.

Spans are kept in memory as ``[name, parent, phase, start, end, ok, info]``
and reduced to per-layer metrics by `layer_metrics`.
"""
from __future__ import annotations

import functools
import inspect
import sys
import time

import numpy as np

# span name -> (module, attribute path, what to record from the call).
# The info callables receive the bound arguments and the result.
TARGETS = {
    "cli.main": ("steelnav.cli", "main", None),
    "synth.generate": ("steelnav.synth", "generate", None),
    "cloud.load_cloud": ("steelnav.cloud", "load_cloud",
                         lambda a, r: len(r)),
    "cloud.extract_plane_ransac": ("steelnav.cloud", "extract_plane_ransac",
                                   lambda a, r: len(r.inliers)),
    "boundary.default_alpha_s": ("steelnav.boundary", "default_alpha_s", None),
    "boundary.ncbe": ("steelnav.boundary", "ncbe",
                      lambda a, r: (len(a["points"]), len(r))),
    "boundary.cluster_border": ("steelnav.boundary", "cluster_border", None),
    "switching.area_check_candidates": (
        "steelnav.switching", "area_check_candidates",
        lambda a, r: (len(r), sum(bool(c.passed) for c in r))),
    "segmentation.segment_structure": ("steelnav.segmentation",
                                       "segment_structure", None),
    "segmentation.em_gmm_fit": (
        "steelnav.segmentation", "em_gmm_fit",
        lambda a, r: (len(r.ll_history), len(r.ll_history) >= a["max_iter"])),
    "segmentation.assign_clusters": ("steelnav.segmentation",
                                     "assign_clusters", None),
    "segmentation.neighbor_stats": ("steelnav.segmentation",
                                    "neighbor_stats", None),
    "graph.build_graph": ("steelnav.graph", "build_graph",
                          lambda a, r: (len(r.vertices), len(r.edges))),
    "route.vocpp": ("steelnav.route", "vocpp", None),
    "route.dijkstra": ("steelnav.route", "dijkstra", None),
    "route.min_weight_pairing": ("steelnav.route", "min_weight_pairing",
                                 lambda a, r: len(a["odd"])),
    "route.euler_trail": ("steelnav.route", "euler_trail",
                          lambda a, r: len(r.walk) - 1),
    "planner.plan_route": ("steelnav.planner", "plan_route", None),
    "planner.rrt_plan": ("steelnav.planner", "rrt_plan", None),
    "planner.check": ("steelnav.planner", "PibcChecker.check", None),
    "planner.points_inside": (
        "steelnav.planner", "PibcChecker.points_inside",
        lambda a, r: len(np.atleast_2d(a["points"]))),
}

# Counts that must repeat exactly between two traced runs on the same input;
# a later change may cite these as counts.
EXACT_COUNTS = ("segmentation.em_iters", "segmentation.em_fits_at_max_iter",
                "planner.rrt_calls", "planner.check_calls",
                "planner.points_tested", "boundary.ncbe_points_out",
                "route.dijkstra_calls")

_NAME, _PARENT, _PHASE, _START, _END, _OK, _INFO = range(7)


class Tracer:
    def __init__(self):
        self.spans = []
        self.phase = "setup"
        self._stack = []
        self._patches = []  # (owner, attribute, original)

    def _wrap(self, name, fn, info):
        sig = inspect.signature(fn) if info is not None else None
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, self.phase,
                    time.perf_counter(), 0.0, False, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[_END] = time.perf_counter()
                stack.pop()
            span[_OK] = True
            if info is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                span[_INFO] = info(bound.arguments, result)
            return result
        return traced

    def install(self):
        """Wrap every target at every steelnav attribute that refers to it."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "steelnav" or n.startswith("steelnav."))]
        for name, (modname, path, info) in TARGETS.items():
            owner = sys.modules[modname]
            *cls, attr = path.split(".")
            if cls:
                owner = getattr(owner, cls[0])
                original = vars(owner)[attr]
                self._patch(owner, attr, original, self._wrap(name, original, info))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, info)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapper)

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def restore(self) -> list[str]:
        """Put the originals back; return the attributes that did not restore."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        bad = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, original in self._patches
               if vars(owner).get(attr) is not original]
        self._patches.clear()
        return bad


def layer_metrics(spans) -> dict:
    """Per-layer totals, counts and ratios from recorded spans."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s[_PARENT] >= 0:
            child_time[s[_PARENT]] += s[_END] - s[_START]

    groups = {}
    for i, s in enumerate(spans):
        groups.setdefault((s[_NAME], s[_PHASE]), []).append((i, s))

    def sel(name, phase="pipeline"):
        return groups.get((name, phase), [])

    def total(name, phase="pipeline"):
        return sum(s[_END] - s[_START] for _, s in sel(name, phase))

    def calls(name):
        return len(sel(name))

    def info_sum(name, k=None):
        return sum(s[_INFO] if k is None else s[_INFO][k]
                   for _, s in sel(name) if s[_INFO] is not None)

    rrt = [s for _, s in sel("planner.rrt_plan")]
    roots = sel("cli.main")
    return {
        "planner.plan_route_s": total("planner.plan_route"),
        "planner.rrt_calls": len(rrt),
        "planner.rrt_success_ratio":
            sum(s[_OK] for s in rrt) / len(rrt) if rrt else 0.0,
        "planner.rrt_failed_s":
            sum(s[_END] - s[_START] for s in rrt if not s[_OK]),
        "planner.check_calls": calls("planner.check"),
        "planner.points_inside_calls": calls("planner.points_inside"),
        "planner.points_tested": info_sum("planner.points_inside"),
        "planner.points_inside_s": total("planner.points_inside"),
        "segmentation.segment_s": total("segmentation.segment_structure"),
        "segmentation.em_fit_s": total("segmentation.em_gmm_fit"),
        "segmentation.em_fits": calls("segmentation.em_gmm_fit"),
        "segmentation.em_iters": info_sum("segmentation.em_gmm_fit", 0),
        "segmentation.em_fits_at_max_iter":
            info_sum("segmentation.em_gmm_fit", 1),
        "segmentation.assign_s": total("segmentation.assign_clusters"),
        "segmentation.neighbor_stats_s": total("segmentation.neighbor_stats"),
        "boundary.ncbe_calls": calls("boundary.ncbe"),
        "boundary.ncbe_s": total("boundary.ncbe"),
        "boundary.ncbe_points_in": info_sum("boundary.ncbe", 0),
        "boundary.ncbe_points_out": info_sum("boundary.ncbe", 1),
        "boundary.cluster_border_calls": calls("boundary.cluster_border"),
        "boundary.cluster_border_s": total("boundary.cluster_border"),
        "boundary.default_alpha_s_s": total("boundary.default_alpha_s"),
        "switching.area_check_s": total("switching.area_check_candidates"),
        "switching.candidates": info_sum("switching.area_check_candidates", 0),
        "switching.candidates_passed":
            info_sum("switching.area_check_candidates", 1),
        "cloud.ransac_s": total("cloud.extract_plane_ransac"),
        "cloud.ransac_inliers": info_sum("cloud.extract_plane_ransac"),
        "cloud.load_s": total("cloud.load_cloud"),
        "cloud.points_loaded": info_sum("cloud.load_cloud"),
        "graph.build_s": total("graph.build_graph"),
        "graph.vertices": info_sum("graph.build_graph", 0),
        "graph.edges": info_sum("graph.build_graph", 1),
        "route.vocpp_s": total("route.vocpp"),
        "route.dijkstra_calls": calls("route.dijkstra"),
        "route.dijkstra_s": total("route.dijkstra"),
        "route.pairing_s": total("route.min_weight_pairing"),
        "route.pairing_size": info_sum("route.min_weight_pairing"),
        "route.euler_s": total("route.euler_trail"),
        "route.walk_steps": info_sum("route.euler_trail"),
        "cli.self_s": sum(s[_END] - s[_START] - child_time[i] for i, s in roots),
        "synth.generate_s": total("synth.generate", phase="setup"),
    }
