"""Footprint-aware motion planning over cluster boundaries.

A robot configuration is valid when every projected footprint point
passes the center-closest-points test against at least one of the
nearest candidate clusters; RRT grows a tree of valid configurations in
(x, y, theta) for each route edge.
"""
from __future__ import annotations

import functools
import itertools
import math
import sys
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .boundary import Boundary, CenterClosest
from .errors import (EmptyBoundaries, GoalInvalid, InvalidFootprint, InvalidStep,
                     NoPathFound, StartInvalid)
from .route import RoutePlan

THETA_METRIC_WEIGHT = 0.3  # m/rad inside the nearest-neighbor metric
_DRAW_BLOCK = 1 << 10  # doubles per Generator.random call of _samples


def _angle_dist(a: np.ndarray) -> np.ndarray:
    """abs(_wrap(x)) for each angle x of `a`, bit for bit."""
    return np.abs(np.remainder(a + math.pi, 2.0 * math.pi) - math.pi)


def _wrap(a: float) -> float:
    """Normalize an angle to (-pi, pi] (math.fmod is C fmod)."""
    a = math.fmod(a + math.pi, 2.0 * math.pi)
    return (a + 2.0 * math.pi if a <= 0 else a) - math.pi


class Config(namedtuple("Pose", "x y theta")):
    """A pose (x, y, theta): finite, theta wrapped to (-pi, pi]."""

    __slots__ = ()

    def __new__(cls, x: float, y: float, theta: float):
        if not all(np.isfinite([x, y, theta])):
            raise ValueError("configuration must be finite")
        return super().__new__(cls, x, y, _wrap(theta))


@dataclass(frozen=True)
class Footprint:
    width: float
    length: float

    def __post_init__(self):
        if self.width <= 0 or self.length <= 0:
            raise ValueError("footprint dimensions must be positive")

    @functools.cached_property
    def offsets(self) -> np.ndarray:
        """(9, 2) local points: the corners, the edge midpoints and the center."""
        hw, hl = self.width / 2.0, self.length / 2.0
        return np.array([
            [hl, hw], [hl, -hw], [-hl, hw], [-hl, -hw],  # corners
            [hl, 0.0], [-hl, 0.0], [0.0, hw], [0.0, -hw],  # edge midpoints
            [0.0, 0.0],  # center
        ])


@dataclass(frozen=True)
class RrtParams:
    step: float
    goal_tol: float
    theta_step: float = 0.3
    goal_bias: float = 0.1
    max_iters: int = 5000


@dataclass(frozen=True)
class MotionPath:
    configs: tuple  # of Config
    edge_ref: tuple  # (u, v) graph edge served


@dataclass(frozen=True)
class EdgePlanFailure:
    edge: tuple
    reason: str


def segment_footprints(states: np.ndarray, fp: Footprint) -> np.ndarray:
    """(N, 9, 2) footprint offsets rotated and translated per (x, y, theta) row."""
    cos, sin = np.cos(states[:, 2]), np.sin(states[:, 2])
    # contiguous per-row rotations: each row multiplies exactly as it would alone
    rot = np.array([[cos, -sin], [sin, cos]]).transpose(2, 0, 1).copy()
    return fp.offsets @ rot.transpose(0, 2, 1) + states[:, None, :2]


class PibcChecker:
    """Footprint checks: CenterClosest in the plane against the clusters'
    boundaries, a point valid when inside one of its `n_candidates` nearest.

    `check` keeps each verdict per (Config, Footprint): it is a
    deterministic function of the two, and a route step's endpoints are
    checked again on every RRT attempt.
    """

    def __init__(self, boundaries: list[Boundary], n_candidates: int = 3,
                 m: int = 5, rule: str = "any"):
        boundaries = [b for b in boundaries if len(b) > 0]
        if not boundaries:
            raise EmptyBoundaries("no non-empty boundaries")
        planar = [b.points[:, :2] for b in boundaries]
        self._test = CenterClosest(planar, np.array([b.center[:2] for b in boundaries]),
                                   n_candidates, m, rule)
        all_pts = np.vstack(planar)
        self.bbox_lo = all_pts.min(axis=0)
        self.bbox_hi = all_pts.max(axis=0)
        self._verdicts = {}

    def points_inside(self, points: np.ndarray) -> np.ndarray:
        """Per-point validity of (P, 2) points against the n_candidates nearest clusters."""
        return self._test(points)

    def check(self, c: Config, fp: Footprint) -> bool:
        key = (c, fp)
        if key not in self._verdicts:
            pts = segment_footprints(np.array([c]), fp)[0]
            self._verdicts[key] = bool(np.all(self.points_inside(pts)))
        return self._verdicts[key]


def _segment_count(a, b, spacing: float) -> int:
    """How many rows `_interp_segment(a, b, spacing)` returns, at least 1."""
    d = np.array((b[0] - a[0], b[1] - a[1]))
    return max(int(math.ceil(math.sqrt(d @ d) / spacing)), 1)  # np.linalg.norm's sum


def _interp_segment(a, b, spacing: float) -> np.ndarray:
    """States from a (exclusive) to b (inclusive) at <= spacing apart, as rows.

    a and b are (x, y, theta) poses; each row is a + t * (b - a) with the
    angle difference wrapped, and its angle wrapped again.
    """
    ax, ay, ath = a
    dx, dy = b[0] - ax, b[1] - ay
    n = _segment_count(a, b, spacing)
    dth = _wrap(b[2] - ath)
    return np.array([(ax + dx * t, ay + dy * t, _wrap(ath + dth * t))
                     for t in (i / n for i in range(1, n + 1))])


def _segment_free(a, b, checker: PibcChecker, fp: Footprint, step: float) -> bool:
    """The test of one RRT extension from state a to b: every footprint of
    `_interp_segment(a, b, step / 2)` passes, in one `points_inside` call."""
    segment = _interp_segment(a, b, step / 2.0)
    return bool(checker.points_inside(segment_footprints(segment, fp).reshape(-1, 2)).all())


def _samples(seed: int, n: int, goal_bias: float, lo: np.ndarray, hi: np.ndarray):
    """n RRT samples: None for the goal, else (x, y, theta) in [lo, hi) x [-pi, pi).

    The random numbers are `Generator.random` doubles, drawn in blocks of
    _DRAW_BLOCK whatever n and walked in order: one for the goal test,
    three more for a free sample, turned into x, y and theta with
    `Generator.uniform`'s arithmetic, low + (high - low) * u.  So the
    samples are those of one `random` and two `uniform` calls each, bit
    for bit.
    """
    rng = np.random.default_rng(seed)
    draws = itertools.chain.from_iterable(
        rng.random(_DRAW_BLOCK).tolist() for _ in itertools.count())
    (lo_x, lo_y), (span_x, span_y) = lo.tolist(), (hi - lo).tolist()
    for _ in range(n):
        if next(draws) < goal_bias:
            yield None
        else:
            yield (lo_x + span_x * next(draws), lo_y + span_y * next(draws),
                   -math.pi + 2.0 * math.pi * next(draws))


def rrt_plan(start: Config, goal: Config, checker: PibcChecker, fp: Footprint,
             params: RrtParams, seed: int = 0) -> tuple:
    """RRT in (x, y, theta) over configurations that `checker` accepts.

    Extensions are capped at `step` in position and `theta_step` in
    angle; every extension is collision-checked at interpolated configs
    spaced <= step/2.  Success when a tree node falls within `goal_tol`
    of the goal position, returning the tuple of Configs from start to it.
    Deterministic per seed.  The tree is one (x, y, theta) state array plus
    parent indices.  Raises StartInvalid or GoalInvalid when an endpoint
    fails the check, NoPathFound after `max_iters` iterations.

    A goal sample whose nearest node already failed to extend toward the
    goal is skipped: the extension would be the same segment, and it would
    fail again.
    """
    if not checker.check(start, fp):
        raise StartInvalid(f"start configuration {start} fails PIBC")
    if not checker.check(goal, fp):
        raise GoalInvalid(f"goal configuration {goal} fails PIBC")

    if start == goal:
        return (start,)

    margin = max(fp.width, fp.length)
    samples = _samples(seed, params.max_iters, params.goal_bias,
                       checker.bbox_lo - margin, checker.bbox_hi + margin)
    step, theta_step = params.step, params.theta_step

    parents = [-1]
    states = np.empty((64, 3))  # doubled whenever the tree fills it
    states[0] = start
    v = np.empty(2)  # each 2-norm is sqrt(v @ v), the sum np.linalg.norm takes
    goal_failed = set()  # nodes whose extension toward the goal failed

    for sample in samples:
        to_goal = sample is None
        sx, sy, sth = goal if to_goal else sample

        tree = states[:len(parents)]
        d_xy = np.hypot(tree[:, 0] - sx, tree[:, 1] - sy)
        d_th = _angle_dist(tree[:, 2] - sth)
        ni = int(np.argmin(np.hypot(d_xy, THETA_METRIC_WEIGHT * d_th)))
        if to_goal and ni in goal_failed:
            continue
        nx, ny, nth = states[ni].tolist()
        dx, dy = sx - nx, sy - ny
        v[0], v[1] = dx, dy
        dist = math.sqrt(v @ v)
        if dist > step:
            scale = step / dist
            dx, dy = dx * scale, dy * scale
        dth = max(-theta_step, min(theta_step, _wrap(sth - nth)))
        new = (nx + dx, ny + dy, _wrap(nth + dth))

        if not _segment_free((nx, ny, nth), new, checker, fp, step):
            if to_goal:
                goal_failed.add(ni)
            continue

        if len(parents) == len(states):
            states = np.concatenate([states, np.empty_like(states)])
        states[len(parents)] = new
        parents.append(ni)

        v[0], v[1] = new[0] - goal.x, new[1] - goal.y
        if math.sqrt(v @ v) <= params.goal_tol:
            path = []
            i = len(parents) - 1
            while i >= 0:
                # wrapping an already wrapped theta returns it unchanged
                path.append(Config(*states[i]))
                i = parents[i]
            path.reverse()
            return tuple(path)

    raise NoPathFound(f"no path after {params.max_iters} iterations")


def _straight_path(start: Config, goal: Config, checker: PibcChecker, fp: Footprint,
                   step: float) -> tuple | None:
    """The straight path from start to goal, or None where the checker blocks it.

    The nodes are start, the interior rows of `_interp_segment(start, goal,
    step)` and goal itself: the last row need not round to goal.  Every node
    passes `check`, and every node-to-node segment passes `_segment_free`,
    the test an RRT extension makes.  start is taken as checked:
    `plan_route` passes nudged endpoints.
    """
    nodes = [start, *(Config(*s) for s in _interp_segment(start, goal, step)[:-1].tolist())]
    if goal != start:
        nodes.append(goal)
    for p, q in zip(nodes, nodes[1:]):
        if not (checker.check(q, fp) and _segment_free(p, q, checker, fp, step)):
            return None
    return tuple(nodes)


def _nudge_valid(pos: np.ndarray, toward: np.ndarray, theta: float,
                 checker: PibcChecker, fp: Footprint):
    """Pull an edge endpoint inward along the edge until PIBC-valid.

    Graph vertices at bar ends sit on the boundary itself, where a
    centered footprint necessarily sticks out; stepping toward the edge
    interior, at most 60 % of the way, recovers a valid via configuration.
    Raises InvalidFootprint when `pos` itself is invalid and the step, a
    quarter of the footprint length, is at most half an ulp of that 60 %:
    the offset would stop short of it and the walk would never end.
    """
    span = float(np.linalg.norm(toward - pos))
    direction = (toward - pos) / max(span, 1e-12)  # a zero-length edge checks pos alone
    step, limit = fp.length / 4.0, 0.6 * span
    offset = 0.0
    while offset <= limit:
        p = pos + offset * direction
        c = Config(p[0], p[1], theta)
        if checker.check(c, fp):
            return c
        if offset == 0.0 and not step > math.ulp(limit) / 2:
            raise InvalidFootprint(f"planner.footprint_length {fp.length!r} is too small "
                                   f"for a route edge {span!r} long: a quarter of it does "
                                   f"not advance the nudge")
        offset += step
    return None


@dataclass
class RoutePlanResult:
    paths: list[MotionPath]
    failures: list[EdgePlanFailure]


def plan_route(route: RoutePlan, g, checker: PibcChecker, fp: Footprint,
               params: RrtParams, seed: int = 0) -> RoutePlanResult:
    """Plan one motion path per consecutive walk pair, chained end to start.

    `g` is the structure graph: `g.positions[v]` places walk vertex v.
    `checker` is the run's one PIBC checker, used for the endpoints, the
    straight path tried first and every `rrt_plan` call.  The straight path
    is tried only when it has at most `max_iters` segments: RRT adds at most
    one node per iteration, so no attempt could build a longer path.  RRT
    runs where the straight path is blocked or not tried.  Edges whose
    planning fails are reported and skipped; the remaining edges are still
    planned so the failure set plus the success set always covers the route.
    Raises InvalidStep when a segment across the boundaries' box does not cut
    into a finite number of `step / 2` pieces.
    Raises InvalidFootprint when a nudge cannot advance (_nudge_valid).
    """
    lo, hi = checker.bbox_lo, checker.bbox_hi
    if not params.step / 2.0 > math.hypot(*(hi - lo)) / sys.float_info.max:
        raise InvalidStep(f"step {params.step} is too small for coordinates "
                          f"in [{float(lo.min())}, {float(hi.max())}]")
    pos = g.positions
    paths: list[MotionPath] = []
    failures: list[EdgePlanFailure] = []
    prev_end: Config | None = None

    for i in range(len(route.walk) - 1):
        u, v = route.walk[i], route.walk[i + 1]
        heading = math.atan2(*(pos[v] - pos[u])[::-1])
        start_xy = prev_end[:2] if prev_end is not None else pos[u]
        start = _nudge_valid(start_xy, pos[v], heading, checker, fp)
        goal = _nudge_valid(pos[v], pos[u], heading, checker, fp)
        if start is None or goal is None:
            which = "start" if start is None else "goal"
            failures.append(EdgePlanFailure((u, v), f"no valid {which} configuration"))
            prev_end = None
            continue
        # connect first, within the iteration budget (0 plans no motion)
        n = _segment_count(start, goal, params.step)
        path = (_straight_path(start, goal, checker, fp, params.step)
                if n <= params.max_iters else None)
        # a narrow corridor can stall RRT for an unlucky seed; retry with
        # derived seeds before reporting the edge as failed (deterministic)
        for attempt in range(3):
            if path is not None:
                break
            try:
                path = rrt_plan(start, goal, checker, fp, params,
                                seed=seed + i + 9973 * attempt)
            except NoPathFound:
                pass
        if path is None:
            failures.append(EdgePlanFailure((u, v), NoPathFound.__name__))
            prev_end = None
            continue
        paths.append(MotionPath(path, (u, v)))
        prev_end = path[-1]

    return RoutePlanResult(paths, failures)
