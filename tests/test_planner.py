import functools
import math
import tracemalloc

import numpy as np
import pytest

from steelnav import (
    Config,
    Footprint,
    RrtParams,
    Shape,
    StructureGraph,
    StructureSpec,
    VertexKind,
    generate,
    ncbe,
    rrt_plan,
    vocpp,
)
from steelnav.boundary import default_alpha_s
from steelnav.errors import (
    EmptyBoundaries,
    GoalInvalid,
    InvalidFootprint,
    NoPathFound,
    StartInvalid,
)
from steelnav import planner
from steelnav.planner import (
    MotionPath,
    PibcChecker,
    _interp_segment,
    _nudge_valid,
    _samples,
    _angle_dist,
    _wrap,
    plan_route,
    segment_footprints,
)

import oracles


def corridor_boundary(length=1.0, width=0.14, seed=0, density=20000):
    """Boundary of an axis-aligned length x width bar centered at origin."""
    rng = np.random.default_rng(seed)
    n = int(density * length * width)
    pts = rng.uniform([-length / 2, -width / 2], [length / 2, width / 2],
                      (n, 2))
    return ncbe(pts, 0.02), pts


class TestConfig:
    def test_theta_wrapped(self):
        assert Config(0, 0, 3 * math.pi).theta == pytest.approx(math.pi)
        assert Config(0, 0, -3 * math.pi).theta == pytest.approx(math.pi)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            Config(float("nan"), 0.0, 0.0)

    # the facts PibcChecker.check's verdict cache keys rely on

    def test_row_of_an_array_is_the_same_pose(self):
        x, y, t = 0.3, -1.7, 2.5
        a, b = Config(*np.array([x, y, t])), Config(x, y, t)
        assert a == b and hash(a) == hash(b)

    def test_equal_after_wrapping(self):
        assert Config(0, 0, 3 * math.pi) == Config(0, 0, -math.pi)

    @pytest.mark.parametrize("bad", [(math.inf, 0.0, 0.0), (0.0, -math.inf, 0.0),
                                     (0.0, 0.0, math.inf)])
    def test_infinite_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            Config(*bad)


def states(*configs):
    """The (x, y, theta) rows of configs, as segment_footprints takes them."""
    return np.array([[c.x, c.y, c.theta] for c in configs])


class TestFootprintPoints:
    def test_identity_pose(self):
        fp = Footprint(width=0.1, length=0.2)
        (pts,) = segment_footprints(states(Config(0, 0, 0)), fp)
        assert len(pts) == 9
        corners = {tuple(p) for p in pts[:4]}
        assert (0.1, 0.05) in corners and (-0.1, -0.05) in corners
        np.testing.assert_allclose(pts[-1], [0, 0])

    def test_quarter_turn(self):
        fp = Footprint(width=0.1, length=0.2)
        pts0, pts90 = segment_footprints(
            states(Config(0, 0, 0), Config(0, 0, math.pi / 2)), fp)
        rot = np.array([[0.0, -1.0], [1.0, 0.0]])
        np.testing.assert_allclose(pts90, pts0 @ rot.T, atol=1e-12)

    def test_translation(self):
        fp = Footprint(width=0.1, length=0.2)
        pts, base = segment_footprints(
            states(Config(2.0, -1.0, 0.4), Config(0, 0, 0.4)), fp)
        np.testing.assert_allclose(pts, base + [2.0, -1.0], atol=1e-12)

    def test_rigidity(self):
        fp = Footprint(width=0.1, length=0.2)
        a, b = segment_footprints(states(Config(0, 0, 0), Config(1.3, 0.7, 1.1)), fp)
        da = np.linalg.norm(a[:, None] - a[None, :], axis=2)
        db = np.linalg.norm(b[:, None] - b[None, :], axis=2)
        np.testing.assert_allclose(da, db, atol=1e-12)


class TestPibc:
    def test_center_config_valid(self):
        b, _ = corridor_boundary()
        fp = Footprint(width=0.04, length=0.05)
        assert PibcChecker([b], rule="any").check(Config(0, 0, 0), fp)

    def test_outside_config_invalid(self):
        b, _ = corridor_boundary()
        fp = Footprint(width=0.04, length=0.05)
        for rule in ("all", "any"):
            assert not PibcChecker([b], rule=rule).check(Config(0.0, 0.5, 0.0), fp)

    def test_all_rule_subset_of_any(self):
        b, _ = corridor_boundary()
        checker_all = PibcChecker([b], rule="all")
        checker_any = PibcChecker([b], rule="any")
        rng = np.random.default_rng(1)
        probes = rng.uniform([-0.6, -0.12], [0.6, 0.12], (300, 2))
        inside_all = checker_all.points_inside(probes)
        inside_any = checker_any.points_inside(probes)
        assert np.all(inside_any[inside_all])

    def test_empty_boundaries(self):
        with pytest.raises(EmptyBoundaries):
            PibcChecker([])

    def test_bad_rule(self):
        b, _ = corridor_boundary()
        with pytest.raises(ValueError):
            PibcChecker([b], rule="most")

    @pytest.mark.parametrize("n_candidates", [0, -1])
    def test_bad_n_candidates(self, n_candidates):
        b, _ = corridor_boundary()
        with pytest.raises(ValueError, match="n_candidates"):
            PibcChecker([b], n_candidates=n_candidates)


class TestRrtPlan:
    PARAMS = RrtParams(step=0.02, goal_tol=0.01)
    FP = Footprint(width=0.1, length=0.12)

    def test_corridor_ten_seeds(self):
        b, _ = corridor_boundary(length=1.0, width=0.14)
        checker = PibcChecker([b], rule="any")
        start = Config(-0.4, 0.0, 0.0)
        goal = Config(0.4, 0.0, 0.0)
        straight = 0.8
        for seed in range(10):
            path = rrt_plan(start, goal, checker, self.FP, self.PARAMS, seed=seed)
            xy = np.array([[c.x, c.y] for c in path])
            length = float(np.linalg.norm(np.diff(xy, axis=0), axis=1).sum())
            assert length <= 2 * straight
            assert np.linalg.norm(xy[-1] - goal[:2]) <= self.PARAMS.goal_tol
            # every waypoint of the returned path is itself valid
            for c in path:
                assert checker.check(c, self.FP)

    def test_start_equals_goal(self):
        b, _ = corridor_boundary()
        c = Config(0, 0, 0)
        path = rrt_plan(c, c, PibcChecker([b], rule="any"), self.FP, self.PARAMS, seed=0)
        assert path == (c,)

    def test_invalid_endpoints(self):
        b, _ = corridor_boundary()
        inside = Config(0, 0, 0)
        outside = Config(0.0, 1.0, 0.0)
        checker = PibcChecker([b], rule="any")
        with pytest.raises(StartInvalid):
            rrt_plan(outside, inside, checker, self.FP, self.PARAMS, seed=0)
        with pytest.raises(GoalInvalid):
            rrt_plan(inside, outside, checker, self.FP, self.PARAMS, seed=0)

    def test_deterministic(self):
        b, _ = corridor_boundary()
        start, goal = Config(-0.3, 0, 0), Config(0.3, 0, 0)
        a = rrt_plan(start, goal, PibcChecker([b], rule="any"), self.FP, self.PARAMS,
                     seed=4)
        c = rrt_plan(start, goal, PibcChecker([b], rule="any"), self.FP, self.PARAMS,
                     seed=4)
        assert a == c

    def test_memory_does_not_grow_with_max_iters(self):
        # an easy step ends long before either budget; neither the samples
        # nor the tree are allocated up front
        b, _ = corridor_boundary()
        checker = PibcChecker([b], rule="any")
        start, goal = Config(-0.3, 0, 0), Config(0.3, 0, 0)
        paths, peaks = [], []
        for max_iters in (300, 10**12):
            params = RrtParams(step=0.02, goal_tol=0.01, max_iters=max_iters)
            tracemalloc.start()
            try:
                paths.append(rrt_plan(start, goal, checker, self.FP, params, seed=4))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert paths[0] == paths[1]
        assert max(peaks) < 1e6, peaks

    def test_unreachable_times_out(self):
        # two disjoint bars: the goal sits in the far one
        b1, _ = corridor_boundary(seed=0)
        rng = np.random.default_rng(1)
        far = rng.uniform([2.0, -0.07], [3.0, 0.07], (2000, 2))
        b2 = ncbe(far, 0.02)
        params = RrtParams(step=0.02, goal_tol=0.01, max_iters=300)
        with pytest.raises(NoPathFound):
            rrt_plan(Config(0, 0, 0), Config(2.5, 0, 0),
                     PibcChecker([b1, b2], rule="any"), self.FP, params, seed=0)


class TestAgainstReference:
    """The state-array planner against the one-object-per-node reference."""

    FP = Footprint(width=0.04, length=0.05)

    @staticmethod
    def random_poses(rng, n):
        return np.column_stack([rng.uniform(-2.0, 2.0, (n, 2)),
                                rng.uniform(-4.0, 4.0, n)])

    # the nav-sparse scene and planner settings: a sparse noisy cross,
    # footprint 0.04 x 0.05, step 0.02, max_iters 300; the turn from the
    # left arm into the top arm fails for some seeds
    PARAMS = RrtParams(step=0.02, goal_tol=0.01, max_iters=300)
    START, GOAL = (-0.2, 0.0, 0.0), (0.0, 0.1, math.pi / 2)

    @staticmethod
    @functools.cache
    def checker():
        cloud, truth = generate(StructureSpec(Shape.CROSS, density=2000,
                                              noise_sigma=0.004, seed=1))
        xy = cloud.points[:, :2]
        alpha = default_alpha_s(xy)
        boundaries = [ncbe(xy[truth.labels == i], alpha)
                      for i in range(len(truth.rects))]
        return PibcChecker(boundaries, n_candidates=3, m=5, rule="any")

    def reference(self, seed):
        """The reference planner's path as a list of (x, y, theta) triples,
        or its NoPathFound message."""
        try:
            ref = oracles.rrt_plan(oracles.Pose(*self.START), oracles.Pose(*self.GOAL),
                                   self.FP, self.PARAMS, seed, self.checker())
        except NoPathFound as exc:
            return str(exc)
        return [(c.x, c.y, c.theta) for c in ref]

    def test_rrt_matches_reference_on_twenty_seeds(self):
        outcomes = []
        for seed in range(20):
            try:
                path = rrt_plan(Config(*self.START), Config(*self.GOAL), self.checker(),
                                self.FP, self.PARAMS, seed=seed)
                got = [(c.x, c.y, c.theta) for c in path]
            except NoPathFound as exc:
                got = str(exc)
            assert got == self.reference(seed), f"seed {seed}"
            outcomes.append(isinstance(got, list))
        assert 0 < sum(outcomes) < len(outcomes)  # both branches ran

    @pytest.mark.parametrize("seed, outcomes", [
        (27, "fail fail fail"),
        (15, "fail fail path"),
        (0, "fail path fail"),
        # attempts 2 and 1 reach the goal first (iterations 121 and 125),
        # and attempt 0's later path (iteration 146) replaces theirs
        (2, "path path path"),
        (5, "path path fail"),
    ])
    def test_lockstep_attempts_match_the_sequential_loop(self, seed, outcomes):
        # three attempts in lockstep return the first success of the
        # attempts run one after another, attempt a from seed + 9973 * a
        refs = [self.reference(seed + 9973 * a) for a in range(3)]
        assert " ".join("path" if isinstance(r, list) else "fail" for r in refs) == outcomes
        try:
            path = rrt_plan(Config(*self.START), Config(*self.GOAL), self.checker(),
                            self.FP, self.PARAMS, seed=seed, attempts=3)
            got = [(c.x, c.y, c.theta) for c in path]
        except NoPathFound as exc:
            got = str(exc)
        assert got == next((r for r in refs if isinstance(r, list)),
                           "no path after 300 iterations in each of 3 attempts")

    def test_attempts_must_be_positive(self):
        start = Config(*self.START)
        with pytest.raises(ValueError, match="attempts must be >= 1, got 0"):
            rrt_plan(start, start, self.checker(), self.FP, self.PARAMS, attempts=0)

    def test_footprints_bit_equal_on_random_poses(self):
        raw = self.random_poses(np.random.default_rng(7), 2000)
        poses = [oracles.Pose(*p) for p in raw]
        want = np.stack([oracles.footprint_points(c, self.FP) for c in poses])
        # one row per call, as PibcChecker.check makes them, then all at once
        got = np.stack([segment_footprints(states(Config(*p)), self.FP)[0] for p in raw])
        assert np.array_equal(got, want)
        assert np.array_equal(segment_footprints(states(*poses), self.FP), want)

    def test_segments_bit_equal_on_random_segments(self):
        # RRT extensions: at most one step (0.02) and theta_step (0.3) long
        rng = np.random.default_rng(8)
        poses = self.random_poses(rng, 1000)
        ends = poses + rng.uniform([-0.02, -0.02, -0.3], [0.02, 0.02, 0.3], poses.shape)
        for a, b in zip(map(oracles.Pose, *poses.T), map(oracles.Pose, *ends.T)):
            ref = oracles.interp_configs(a, b, 0.01)
            want = np.stack([oracles.footprint_points(c, self.FP) for c in ref])
            seg = _interp_segment(np.array([a.x, a.y, a.theta]),
                                  np.array([b.x, b.y, b.theta]), 0.01)
            assert np.array_equal(seg, [[c.x, c.y, c.theta] for c in ref])
            assert np.array_equal(segment_footprints(seg, self.FP), want)


class TestFloatKernels:
    """The planner's float arithmetic against the NumPy calls it replaces, bit for bit."""

    def test_wrap_matches_array_wrap(self):
        odd = [k * math.pi for k in range(-41, 42, 2)]
        special = np.array([0.0, -0.0, math.pi, -math.pi, 2 * math.pi, -2 * math.pi,
                            1e6, -1e6, *odd])
        rng = np.random.default_rng(5)
        angles = np.concatenate([
            special, np.nextafter(special, np.inf), np.nextafter(special, -np.inf),
            rng.uniform(-7.0, 7.0, 100_000), rng.normal(0.0, 1e3, 100_000 - 3 * len(special))])
        assert len(angles) == 200_000
        # the RRT metric's angle distance is abs(_wrap(a)), bit for bit
        got = np.array([abs(_wrap(a)) for a in angles.tolist()])
        assert got.tobytes() == _angle_dist(angles).tobytes()

    def test_two_norm_matches_linalg_norm(self):
        rng = np.random.default_rng(6)
        vs = rng.standard_normal((20_000, 2)) * 10.0 ** rng.integers(-8, 9, (20_000, 1))
        assert [math.sqrt(v @ v) for v in vs] == [float(np.linalg.norm(v)) for v in vs]

    @pytest.mark.parametrize("goal_bias", [0.0, 0.1, 1.0])
    def test_sample_block_matches_per_call_draws(self, goal_bias):
        lo, hi = np.array([-0.71, -0.33]), np.array([1.93, 0.8])

        def bits(sample):
            return None if sample is None else [float(v).hex() for v in sample]

        for seed in range(200):
            rng = np.random.default_rng(seed)
            want = []
            for _ in range(300):
                if rng.random() < goal_bias:
                    want.append(None)
                else:
                    xy = rng.uniform(lo, hi)
                    want.append(bits([xy[0], xy[1], rng.uniform(-math.pi, math.pi)]))
            assert [bits(s) for s in _samples(seed, 300, goal_bias, lo, hi)] == want

    @pytest.mark.parametrize("goal_bias", [0.0, 0.1])
    def test_sample_blocks_match_one_block(self, goal_bias):
        # counts of samples up to and past block boundaries: a free sample
        # takes four doubles, a goal sample one
        lo, hi = np.array([-0.71, -0.33]), np.array([1.93, 0.8])
        per_block = planner._DRAW_BLOCK // 4
        for seed in range(5):
            for n in (per_block - 1, per_block, per_block + 1, 3 * per_block + 7):
                want = list(oracles.one_block_samples(seed, n, goal_bias, lo, hi))
                assert list(_samples(seed, n, goal_bias, lo, hi)) == want


class CountingChecker(PibcChecker):
    calls = 0

    def points_inside(self, points):
        self.calls += 1
        return super().points_inside(points)


class TestMemos:
    FP = Footprint(width=0.04, length=0.05)

    def test_check_keeps_its_verdict(self):
        b, _ = corridor_boundary()
        checker = CountingChecker([b], rule="any")
        inside, outside = Config(0, 0, 0), Config(0.0, 0.5, 0.0)
        assert [checker.check(c, self.FP) for c in (inside, outside) * 3] == [True, False] * 3
        assert checker.calls == 2
        assert not checker.check(inside, Footprint(width=0.4, length=0.5))
        assert checker.calls == 3

    def test_goal_memo_skips_repeated_failures(self):
        # the unreachable goal draws a goal sample about every tenth
        # iteration; after the first failure from a node, the next goal
        # samples nearest that node make no check
        b1, _ = corridor_boundary(seed=0)
        rng = np.random.default_rng(1)
        b2 = ncbe(rng.uniform([2.0, -0.07], [3.0, 0.07], (2000, 2)), 0.02)
        checker = CountingChecker([b1, b2], rule="any")
        params = RrtParams(step=0.02, goal_tol=0.01, max_iters=300)
        with pytest.raises(NoPathFound):
            rrt_plan(Config(0, 0, 0), Config(2.5, 0, 0), checker, self.FP, params, seed=0)
        goal_samples = sum(s is None for s in _samples(0, 300, 0.1, np.zeros(2), np.ones(2)))
        assert 2 + 300 - goal_samples < checker.calls < 2 + 300


def structure_graph(positions, edges):
    """A StructureGraph over ids 0..n-1 at `positions`, every vertex a bar end."""
    return StructureGraph(tuple(range(len(positions))), tuple(edges),
                          tuple(np.asarray(p, dtype=float) for p in positions),
                          (VertexKind.BAR_END,) * len(positions))


class TestPlanRoute:
    def test_single_bar_route(self):
        b, _ = corridor_boundary(length=1.0, width=0.14)
        g = structure_graph([[-0.5, 0.0], [0.5, 0.0]], [(0, 1, 1.0)])
        route = vocpp(g, 0, 1)
        fp = Footprint(width=0.1, length=0.12)
        params = RrtParams(step=0.02, goal_tol=0.01)
        result = plan_route(route, g, PibcChecker([b], rule="any"), fp, params, seed=0)
        assert not result.failures
        assert [p.edge_ref for p in result.paths] == [(0, 1)]
        # chained: nothing to chain with one edge, but the path must end
        # near the (nudged) goal end of the bar
        assert result.paths[0].configs[-1].x > 0.3

    def test_phantom_edge_reported(self):
        # vertex 2 sits far outside every boundary: its edge must fail
        # while the real edge still gets planned
        b, _ = corridor_boundary(length=1.0, width=0.14)
        g = structure_graph([[-0.5, 0.0], [0.5, 0.0], [0.5, 5.0]],
                            [(0, 1, 1.0), (1, 2, 5.0)])
        route = vocpp(g, 0, 2)
        fp = Footprint(width=0.1, length=0.12)
        params = RrtParams(step=0.02, goal_tol=0.01, max_iters=500)
        result = plan_route(route, g, PibcChecker([b], rule="any"), fp, params, seed=0)
        assert result.failures
        failed_edges = {f.edge for f in result.failures}
        assert (1, 2) in failed_edges
        assert [p.edge_ref for p in result.paths] == [(0, 1)]


class TestNudge:
    # a quarter of 5e-324 rounds to 0: the walk could never leave `pos`
    TINY = Footprint(width=5e-324, length=5e-324)

    def test_tiny_footprint_on_a_valid_point_needs_no_step(self):
        b, _ = corridor_boundary()
        c = _nudge_valid(np.array([0.0, 0.0]), np.array([0.3, 0.0]), 0.0,
                         PibcChecker([b], rule="any"), self.TINY)
        assert (c.x, c.y, c.theta) == (0.0, 0.0, 0.0)

    def test_tiny_footprint_on_an_invalid_point_raises(self):
        b, _ = corridor_boundary()
        with pytest.raises(InvalidFootprint, match="planner.footprint_length 5e-324"):
            _nudge_valid(np.array([0.0, 0.5]), np.array([0.0, 0.0]), 0.0,
                         PibcChecker([b], rule="any"), self.TINY)


class TestStraightConnect:
    """plan_route tries the checked straight path before any RRT call."""

    FP = Footprint(width=0.04, length=0.05)
    PARAMS = RrtParams(step=0.02, goal_tol=0.01, max_iters=3000)

    @staticmethod
    def segment_ok(checker, p, q, fp, spacing):
        seg = _interp_segment((p.x, p.y, p.theta), (q.x, q.y, q.theta), spacing)
        return bool(checker.points_inside(segment_footprints(seg, fp).reshape(-1, 2)).all())

    def test_straight_bar_runs_no_rrt(self, monkeypatch):
        def no_rrt(*args, **kwargs):
            raise AssertionError("rrt_plan called on a straight bar")

        monkeypatch.setattr(planner, "rrt_plan", no_rrt)
        b, _ = corridor_boundary()
        g = structure_graph([[-0.3, 0.0], [0.3, 0.0]], [(0, 1, 0.6)])
        result = plan_route(vocpp(g, 0, 1), g, PibcChecker([b], rule="any"), self.FP,
                            self.PARAMS, seed=0)
        assert not result.failures
        configs = result.paths[0].configs
        assert configs[0] == Config(-0.3, 0.0, 0.0)
        assert configs[-1] == Config(0.3, 0.0, 0.0)  # the goal itself, not a rounding of it
        assert len(configs) == 31
        fresh = PibcChecker([b], rule="any")
        assert all(fresh.check(c, self.FP) for c in configs)
        step = self.PARAMS.step
        for p, q in zip(configs, configs[1:]):
            assert math.dist((p.x, p.y), (q.x, q.y)) <= step * (1 + 1e-12)
            assert self.segment_ok(fresh, p, q, self.FP, step / 2.0)

    def test_corner_cut_falls_back_to_rrt(self):
        # an L of two bars; the straight path from one arm to the other
        # leaves both, so the step is RRT's, with plan_route's first seed
        rng = np.random.default_rng(2)
        arms = [rng.uniform([-0.5, -0.07], [0.07, 0.07], (2000, 2)),
                rng.uniform([-0.07, -0.07], [0.07, 0.5], (2000, 2))]
        checker = PibcChecker([ncbe(a, 0.02) for a in arms], rule="any")
        g = structure_graph([[-0.35, 0.0], [0.0, 0.35]], [(0, 1, 0.7)])
        seed = 5
        result = plan_route(vocpp(g, 0, 1), g, checker, self.FP, self.PARAMS, seed=seed)
        assert not result.failures
        start, goal = Config(-0.35, 0.0, math.pi / 4), Config(0.0, 0.35, math.pi / 4)
        assert planner._straight_path(start, goal, checker, self.FP, self.PARAMS.step) is None
        want = rrt_plan(start, goal, checker, self.FP, self.PARAMS, seed=seed)  # step 0, attempt 0
        assert result.paths == [MotionPath(want, (0, 1))]

    def test_one_rrt_call_per_blocked_step(self, monkeypatch):
        # an L of two bars and a bar apart from both: the corner step is
        # planned by RRT, the step to the far bar fails every attempt; each
        # is one rrt_plan call that runs all three attempts
        calls = []

        def counting(*args, **kwargs):
            calls.append((kwargs["seed"], kwargs["attempts"]))
            return rrt_plan(*args, **kwargs)

        monkeypatch.setattr(planner, "rrt_plan", counting)
        rng = np.random.default_rng(2)
        bars = [rng.uniform([-0.5, -0.07], [0.07, 0.07], (2000, 2)),
                rng.uniform([-0.07, -0.07], [0.07, 0.5], (2000, 2)),
                rng.uniform([2.0, -0.07], [3.0, 0.07], (2000, 2))]
        checker = PibcChecker([ncbe(a, 0.02) for a in bars], rule="any")
        g = structure_graph([[-0.35, 0.0], [0.0, 0.35], [2.5, 0.0]],
                            [(0, 1, 0.7), (1, 2, 2.6)])
        params = RrtParams(step=0.02, goal_tol=0.01, max_iters=300)
        result = plan_route(vocpp(g, 0, 2), g, checker, self.FP, params, seed=5)
        assert calls == [(5, 3), (6, 3)]
        assert [p.edge_ref for p in result.paths] == [(0, 1)]
        assert [(f.edge, f.reason) for f in result.failures] == [((1, 2), "NoPathFound")]

    def test_zero_budget_plans_no_motion(self):
        b, _ = corridor_boundary()
        checker = CountingChecker([b], rule="any")
        g = structure_graph([[-0.3, 0.0], [0.3, 0.0]], [(0, 1, 0.6)])
        params = RrtParams(step=0.02, goal_tol=0.01, max_iters=0)
        result = plan_route(vocpp(g, 0, 1), g, checker, self.FP, params, seed=0)
        assert not result.paths
        assert [(f.edge, f.reason) for f in result.failures] == [((0, 1), "NoPathFound")]
        assert checker.calls == 2  # the start and the goal check, nothing more

    def test_straight_path_longer_than_the_budget_is_not_tried(self):
        # 600 segments of 1 mm against a budget of 5 iterations: the
        # straight path would take 1,200 points_inside calls, RRT at most 15
        b, _ = corridor_boundary()
        checker = CountingChecker([b], rule="any")
        g = structure_graph([[-0.3, 0.0], [0.3, 0.0]], [(0, 1, 0.6)])
        params = RrtParams(step=1e-3, goal_tol=1e-3, max_iters=5)
        result = plan_route(vocpp(g, 0, 1), g, checker, self.FP, params, seed=0)
        assert [(f.edge, f.reason) for f in result.failures] == [((0, 1), "NoPathFound")]
        assert checker.calls <= 2 + 3 * params.max_iters
