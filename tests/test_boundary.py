import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from steelnav import boundary as bd
from steelnav import segmentation
from steelnav import (
    Boundary,
    are_neighbors,
    cluster_border,
    default_alpha_s,
    ncbe,
)
from steelnav.boundary import CenterClosest
from steelnav.cli import main
from steelnav.errors import EmptyInput, InvalidAlpha
from steelnav.planner import PibcChecker

import oracles
from oracles import dist_to_polygon_edge, point_in_polygon

UNIT_SQUARE = np.array([[0.0, 0], [1.0, 0], [1.0, 1], [0.0, 1]])


def square_samples(n, seed=0):
    rng = np.random.default_rng(seed)
    return rng.uniform(0, 1, (n, 2))


class TestNcbe:
    def test_two_points(self):
        pts = np.array([[0.0, 0.0], [1.0, 1.0]])
        b = ncbe(pts, 0.5)
        assert len(b) == 2
        assert {tuple(p) for p in b.points} == {(0, 0), (1, 1)}

    def test_unit_square_fidelity(self):
        pts = square_samples(10000)
        b = ncbe(pts, 0.05)
        for p in b.points:
            assert dist_to_polygon_edge(p, UNIT_SQUARE) <= 0.05

    def test_square_with_hole_traces_outer_perimeter(self):
        pts = square_samples(10000, seed=1)
        hole = (np.abs(pts[:, 0] - 0.5) <= 0.1) & (np.abs(pts[:, 1] - 0.5) <= 0.1)
        b = ncbe(pts[~hole], 0.05)
        for p in b.points:
            assert dist_to_polygon_edge(p, UNIT_SQUARE) <= 0.05

    def test_members_of_input(self):
        pts = square_samples(500, seed=2)
        b = ncbe(pts, 0.1)
        as_set = {tuple(p) for p in pts}
        assert all(tuple(p) in as_set for p in b.points)

    def test_size_bound(self):
        pts = square_samples(300, seed=3)
        alpha = 0.2
        b = ncbe(pts, alpha)
        windows = sum(
            int(np.ceil((pts[:, ax].max() - pts[:, ax].min()) / alpha)) + 1
            for ax in (0, 1)
        )
        assert len(b) <= min(2 * windows, len(pts))

    def test_monotone_fidelity_on_square(self):
        # shrinking alpha gives a denser boundary, so the worst gap from
        # the true perimeter to the nearest boundary point shrinks too
        pts = square_samples(8000, seed=4)
        t = np.linspace(0, 1, 400, endpoint=False)
        perimeter = np.vstack([
            np.column_stack([t, np.zeros_like(t)]),
            np.column_stack([np.ones_like(t), t]),
            np.column_stack([1 - t, np.ones_like(t)]),
            np.column_stack([np.zeros_like(t), 1 - t]),
        ])
        worst = []
        for alpha in (0.2, 0.1, 0.05):
            b = ncbe(pts, alpha)
            gaps = np.linalg.norm(perimeter[:, None, :] - b.points[None, :, :],
                                  axis=2).min(axis=1)
            worst.append(float(gaps.max()))
        assert worst[0] >= worst[1] >= worst[2]

    def test_monotone_fidelity_on_disk(self):
        rng = np.random.default_rng(5)
        r = np.sqrt(rng.uniform(0, 1, 8000))
        th = rng.uniform(0, 2 * np.pi, 8000)
        pts = np.column_stack([r * np.cos(th), r * np.sin(th)])
        t = np.linspace(0, 2 * np.pi, 800, endpoint=False)
        circle = np.column_stack([np.cos(t), np.sin(t)])
        worst = []
        for alpha in (0.2, 0.1, 0.05):
            b = ncbe(pts, alpha)
            gaps = np.linalg.norm(circle[:, None, :] - b.points[None, :, :],
                                  axis=2).min(axis=1)
            worst.append(float(gaps.max()))
        assert worst[0] >= worst[1] >= worst[2]

    def test_errors(self):
        with pytest.raises(EmptyInput):
            ncbe(np.zeros((0, 2)), 0.1)
        with pytest.raises(InvalidAlpha):
            ncbe(np.zeros((3, 2)), 0.0)

    @pytest.mark.parametrize("bad", [(5, 1, np.nan), (0, 0, np.inf), (69, 2, np.nan)])
    def test_non_finite_coordinate(self, bad):
        # checked on every axis before any window pass, whichever axis holds it
        i, axis, value = bad
        pts = np.random.default_rng(12).uniform(0, 1, (70, 3))
        pts[i, axis] = value
        with pytest.raises(InvalidAlpha, match="too small for coordinates"):
            ncbe(pts, 0.5)

    def test_infinite_alpha(self):
        with pytest.raises(InvalidAlpha, match="finite"):
            ncbe(square_samples(50), math.inf)

    def test_alpha_too_small_for_coordinates(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidAlpha, match="too small"):
                ncbe(square_samples(50), 1e-300)

    def test_3d_input(self):
        rng = np.random.default_rng(6)
        pts = np.column_stack([rng.uniform(0, 1, (2000, 2)), np.zeros(2000)])
        b = ncbe(pts, 0.1)
        assert b.points.shape[1] == 3

    def test_default_alpha_scale(self):
        pts = square_samples(2500, seed=7)
        alpha = default_alpha_s(pts)
        # 2x median nearest-neighbor spacing of 2500 uniform points
        assert 0.005 < alpha < 0.05


@pytest.fixture(scope="module")
def square_boundary():
    pts = square_samples(10000, seed=8)
    return ncbe(pts, 0.05)


def center_closest_test(b, m, rule="all"):
    """CenterClosest against the one boundary b."""
    return CenterClosest([b.points], [b.center], 1, m, rule)


class TestPointInBoundary:
    def test_center_inside(self, square_boundary):
        assert center_closest_test(square_boundary, 5)(np.array([[0.5, 0.5]]))[0]

    def test_far_outside(self, square_boundary):
        assert not center_closest_test(square_boundary, 5)(np.array([[1.5, 0.5]]))[0]

    def test_convex_polygon_agreement(self):
        k = 12
        angles = np.arange(k) * 2 * np.pi / k
        polygon = np.column_stack([np.cos(angles), np.sin(angles)])
        # dense samples of the 12-gon to build a realistic boundary
        rng = np.random.default_rng(9)
        raw = rng.uniform(-1, 1, (40000, 2))
        inside_mask = np.array([point_in_polygon(p, polygon) for p in raw])
        samples = raw[inside_mask]
        b = ncbe(samples, 0.05)
        probes = np.random.default_rng(10).uniform(-0.2, 1.2, (500, 2))
        inside = center_closest_test(b, 5)(probes)
        agree = 0
        counted = 0
        for p, got in zip(probes, inside):
            if dist_to_polygon_edge(p, polygon) < 0.02:
                continue
            counted += 1
            want = point_in_polygon(p, polygon)
            agree += got == want
        assert counted > 0
        assert agree / counted >= 0.98

    def test_any_rule_superset_of_all(self, square_boundary):
        rng = np.random.default_rng(11)
        probes = rng.uniform(-0.2, 1.2, (200, 2))
        inside_all = center_closest_test(square_boundary, 5, "all")(probes)
        inside_any = center_closest_test(square_boundary, 5, "any")(probes)
        assert inside_any[inside_all].all()

    def test_bad_rule(self, square_boundary):
        with pytest.raises(ValueError):
            center_closest_test(square_boundary, 1, "most")


def grid_square_boundary(x0, y0, pitch=0.05):
    """Boundary of a unit square sampled along its perimeter at `pitch`."""
    t = np.arange(0.0, 1.0, pitch)
    pts = np.vstack([
        np.column_stack([x0 + t, np.full_like(t, y0)]),
        np.column_stack([np.full_like(t, x0 + 1.0), y0 + t]),
        np.column_stack([x0 + 1.0 - t, np.full_like(t, y0 + 1.0)]),
        np.column_stack([np.full_like(t, x0), y0 + 1.0 - t]),
    ])
    return Boundary(pts, np.array([x0 + 0.5, y0 + 0.5]), pitch)


class TestClusterBorder:
    def test_shared_edge(self):
        a = grid_square_boundary(0.0, 0.0)
        b = grid_square_boundary(1.0, 0.0)
        border = cluster_border(a, b, eps_border=0.02)
        assert abs(border.length - 1.0) <= 0.1
        np.testing.assert_allclose(border.midpoint, [1.0, 0.5], atol=0.06)

    def test_disjoint(self):
        a = grid_square_boundary(0.0, 0.0)
        b = grid_square_boundary(2.0, 0.0)
        border = cluster_border(a, b, eps_border=0.02)
        assert border.length == 0.0
        assert len(border.points) == 0
        assert border.midpoint is None

    def test_corner_contact_not_neighbors(self):
        a = grid_square_boundary(0.0, 0.0)
        b = grid_square_boundary(1.0, 1.0)
        eps = 0.02
        border = cluster_border(a, b, eps_border=eps)
        assert border.length <= 2 * eps + 1e-12
        assert not are_neighbors(border, l_b=0.1)

    def test_symmetry(self):
        a = grid_square_boundary(0.0, 0.0)
        b = grid_square_boundary(1.0, 0.0)
        ab = cluster_border(a, b, eps_border=0.02)
        ba = cluster_border(b, a, eps_border=0.02)
        assert ab.length == ba.length
        assert are_neighbors(ab, 0.3) == are_neighbors(ba, 0.3)


class TestAreNeighbors:
    def test_definition(self):
        a = grid_square_boundary(0.0, 0.0)
        b = grid_square_boundary(1.0, 0.0)
        border = cluster_border(a, b, eps_border=0.02)
        assert are_neighbors(border, l_b=0.3)
        assert not are_neighbors(border, l_b=1.5)

    def test_zero_length(self):
        a = grid_square_boundary(0.0, 0.0)
        b = grid_square_boundary(2.0, 0.0)
        border = cluster_border(a, b, eps_border=0.02)
        assert not are_neighbors(border, l_b=0.001)


CUTOFF = bd._FAN_MIN_POINTS


def shuffled_lattice(rng, *axes):
    """Integer lattice in shuffled order, with some points repeated."""
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))
    grid = np.vstack([grid, grid[rng.choice(len(grid), len(grid) // 4)]])
    return grid[rng.permutation(len(grid))].astype(float)


def assert_same_boundary(pts, alpha):
    """ncbe gives the per-window pass's points in the same order and bits,
    or raises the same InvalidAlpha."""
    try:
        want = oracles.per_window_ncbe(pts, alpha).points
    except InvalidAlpha:
        with pytest.raises(InvalidAlpha):
            ncbe(pts, alpha)
        return
    got = ncbe(pts, alpha).points
    assert got.shape == want.shape and np.array_equal(got, want)
    assert got.tobytes() == want.tobytes()  # also the sign of each zero


class TestFarthestPairOracle:
    def check(self, pts):
        got = bd._farthest_pairs(pts, np.arange(len(pts)), [0])
        assert got.shape == (1, 2) and tuple(got[0]) == oracles.farthest_pair(pts)
        assert_same_boundary(pts, float(np.ptp(pts, axis=0).max()) / 7)

    @pytest.mark.parametrize("n", [5, CUTOFF - 1, CUTOFF, CUTOFF + 1, 300])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_random(self, n, dim):
        rng = np.random.default_rng(n * dim)
        self.check(rng.normal(size=(n, dim)))
        self.check(rng.uniform(0, [0.02, 1.0, 1.0][:dim], (n, dim)))  # a thin slab

    @pytest.mark.parametrize("seed", range(4))
    def test_lattices_with_ties_and_duplicates(self, seed):
        rng = np.random.default_rng(seed)
        self.check(shuffled_lattice(rng, np.arange(12), np.arange(9)))
        self.check(shuffled_lattice(rng, np.arange(5), np.arange(5), np.arange(4)))
        self.check(shuffled_lattice(rng, np.arange(4), np.arange(4)))  # below the cutoff

    @pytest.mark.parametrize("flat_axis", [0, 1, 2])
    def test_exactly_flat_3d(self, flat_axis):
        rng = np.random.default_rng(flat_axis)
        pts = rng.uniform(-1, 1, (250, 3))
        pts[:, flat_axis] = 0.7
        self.check(pts)
        self.check(shuffled_lattice(rng, np.arange(10), np.arange(10), [3.0]))

    def test_collinear(self):
        t = np.random.default_rng(5).uniform(-1, 1, 150)
        self.check(np.column_stack([0.5 + t, -1.0 + 2 * t]))  # tilted
        self.check(np.column_stack([t, np.zeros_like(t), np.ones_like(t)]))  # one live axis
        self.check(np.column_stack([np.round(t * 4), np.zeros_like(t)]))  # ties on a line

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("dim", [2, 3])
    def test_extreme_points_ulps_apart(self, dim, seed):
        # two corner points a few ulps apart: which one is farther from the
        # far end depends on the far end's direction, and the prune must
        # keep both
        rng = np.random.default_rng(seed)
        pts = rng.uniform(0, 1, (100, dim))
        ia, ib, ip = rng.choice(100, 3, replace=False)
        pts[[ia, ib]] = 2.0
        pts[ia, 0] += 4.44e-16 * (1 + seed)
        pts[ib, 1] += 4.44e-16 * (1 + seed)
        d = rng.normal(size=dim)
        d[:2] = -np.abs(d[:2]) - [0.5, 0.0]
        pts[ip] = 2.0 + 10 * d / np.linalg.norm(d)
        self.check(pts)

    @pytest.mark.parametrize("offset, radius", [(1e8, 1e-6), (1e8, 3e-7), (-3e9, 1e-5)])
    def test_round_window_far_from_the_origin(self, offset, radius):
        # the projections' rounding is then of the order of the window itself
        rng = np.random.default_rng(4)
        r, t = np.sqrt(rng.uniform(0, 1, 300)), rng.uniform(0, 2 * np.pi, 300)
        self.check(offset + radius * np.column_stack([r * np.cos(t), r * np.sin(t)]))

    def test_large_windows_scan_only_the_hull(self, monkeypatch):
        # the pair scan sees only the prunes' survivors
        scanned = []
        scan = bd._scan_windows
        monkeypatch.setattr(bd, "_scan_windows", lambda q, first, n:
                            scanned.append(int(n.sum())) or scan(q, first, n))
        rng = np.random.default_rng(3)
        flat = np.column_stack([rng.uniform(0, 1, (2000, 2)), np.zeros(2000)])
        r, t = np.sqrt(rng.uniform(0, 1, 1000)), rng.uniform(0, 2 * np.pi, 1000)
        disk = np.column_stack([r * np.cos(t), r * np.sin(t)])  # the box keeps most of it
        diamond = rng.uniform(-1, 1, (1000, 2)) @ [[1.0, 1.0], [-1.0, 1.0]]
        for pts in (rng.uniform(0, 1, (2000, 2)), rng.uniform(0, 1, (2000, 3)), flat,
                    disk, diamond):
            scanned.clear()
            self.check(pts)
            assert 0 < sum(scanned) < 300


class TestScanWindows:
    """The one pair scan, window by window against the all-pairs oracle,
    in blocks of at most _BLOCK_ELEMS pair distances."""

    @pytest.fixture(autouse=True)
    def block_sizes(self, monkeypatch):
        sizes = []
        sq_dist = bd._sq_dist

        def record(a, b):
            sizes.append(math.prod(np.broadcast_shapes(a.shape[:-1], b.shape[:-1])))
            return sq_dist(a, b)

        monkeypatch.setattr(bd, "_sq_dist", record)
        return sizes

    def check(self, windows, block_sizes):
        n = np.array([len(w) for w in windows])
        first = np.cumsum(n) - n
        i, j = bd._scan_windows(np.concatenate(windows), first, n)
        for w, a, b in zip(windows, i.tolist(), j.tolist()):
            # a full scan of one point or of duplicates alone stops at (0, 0)
            want = oracles.farthest_pair(w) if np.ptp(w, axis=0).any() else (0, 0)
            assert (a, b) == want
        assert block_sizes and max(block_sizes) <= bd._BLOCK_ELEMS

    @pytest.mark.parametrize("dim", [2, 3])
    def test_one_block_and_just_over(self, dim, block_sizes):
        # k = 90 fills one block (8,100 pairs at 8,192); k = 91 is scanned
        # alone, in blocks of rows
        k = math.isqrt(bd._BLOCK_ELEMS)
        rng = np.random.default_rng(dim)
        sizes = [k, k + 1, 1, 7, k - 1, 2, 40, k + 1, 3]
        self.check([rng.normal(size=(m, dim)) for m in sizes], block_sizes)

    def test_one_point_and_duplicates(self, block_sizes):
        rng = np.random.default_rng(5)
        lattice = shuffled_lattice(rng, np.arange(6), np.arange(5))  # ties and repeats
        wide = shuffled_lattice(rng, np.arange(12), np.arange(9))  # wider than a block
        self.check([np.array([[0.5, -2.0]]), lattice, np.full((4, 2), 3.0), wide,
                    np.array([[1.0, 1.0], [1.0, 1.0], [2.0, 1.0], [2.0, 1.0]])],
                   block_sizes)

    def test_fan_pruned_circle(self, monkeypatch, block_sizes):
        # nearly every point of a circle survives both prunes, so the window is
        # scanned alone, in blocks of rows
        scanned = []
        scan = bd._scan_windows
        monkeypatch.setattr(bd, "_scan_windows", lambda q, first, n:
                            scanned.append(int(n.sum())) or scan(q, first, n))
        t = np.random.default_rng(6).uniform(0, 2 * np.pi, 400)
        pts = np.column_stack([np.cos(t), np.sin(t)])
        got = bd._farthest_pairs(pts, np.arange(len(pts)), [0])
        assert tuple(got[0]) == oracles.farthest_pair(pts)
        assert scanned[0] ** 2 > bd._BLOCK_ELEMS
        assert max(block_sizes) <= bd._BLOCK_ELEMS


class TestNcbeWindowsOracle:
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_full_mask_windows(self, seed):
        rng = np.random.default_rng(seed)
        # half-integer lattice: points fall exactly on window edges
        pts = shuffled_lattice(rng, np.arange(13) / 2, np.arange(7) / 2) + [0.25, 3.0]
        noisy = rng.uniform(0, 2, (400, 3))
        for p, alpha in ((pts, 1.0), (pts, 0.5), (noisy, 0.3)):
            got = {tuple(q) for q in ncbe(p, alpha).points}
            assert got == oracles.ncbe_points(p, alpha)
            assert_same_boundary(p, alpha)

    def test_mostly_empty_windows(self):
        # 20,000 windows per axis for 300 points: ncbe visits only those
        # near a point and must still find every nonempty one
        pts = np.random.default_rng(4).uniform(0, 2, (300, 2))
        got = {tuple(q) for q in ncbe(pts, 1e-4).points}
        assert got == oracles.ncbe_points(pts, 1e-4)
        assert_same_boundary(pts, 1e-4)


# The benchmark's seed-1 scenes: synth at scene seed 1, moved in the plane by
# an offset drawn from the workload seed.  The planner never calls ncbe, so
# the navigate scenes run without an RRT budget.
WORKLOAD_SCENES = {
    "switch-plate": ("switching", ["--shape", "i", "--bar-width", "0.5",
                                   "--density", "3000", "--noise", "0.002"], {}),
    "nav-sparse": ("navigate",
                   ["--shape", "cross", "--density", "2000", "--noise", "0.004"],
                   {"planner": {"max_iters": 0}, "segmentation": {"n_cmax": 5}}),
    "nav-dense": ("navigate",
                  ["--shape", "cross", "--density", "4000", "--noise", "0.004"],
                  {"planner": {"max_iters": 0}}),
}


@pytest.fixture(scope="module")
def workload_ncbe_inputs(tmp_path_factory):
    """Each benchmark scene's ncbe calls, as (points, alpha_s) pairs."""
    root = tmp_path_factory.mktemp("workloads")
    calls = {}
    real = bd.ncbe
    with pytest.MonkeyPatch.context() as mp:
        for name, (command, synth, config) in WORKLOAD_SCENES.items():
            seen = calls[name] = []

            def record(points, alpha_s, seen=seen):
                seen.append((np.array(points), alpha_s))
                return real(points, alpha_s)

            mp.setattr(bd, "ncbe", record)
            mp.setattr(segmentation, "ncbe", record)  # imported by name
            scene = root / name
            assert main(["synth", *synth, "--seed", "1", "--out", str(scene)]) == 0
            dx, dy = (float(v) for v in np.random.default_rng(1).uniform(-1.0, 1.0, 2))
            cloud = scene / "cloud.csv"
            rows = [[float(c) for c in line.split(",")]
                    for line in cloud.read_text().splitlines()]
            cloud.write_text("".join(f"{x + dx!r},{y + dy!r},{z!r}\n" for x, y, z in rows))
            (scene / "config.json").write_text(json.dumps(config))
            main([command, "--input", str(cloud), "--config", str(scene / "config.json"),
                  "--seed", "1", "--out", str(scene / "out")])
    return calls


class TestNcbeBitExact:
    """The batched pass gives the per-window pass's points, order and bits."""

    def test_workload_inputs(self, workload_ncbe_inputs):
        assert [len(c) for c in workload_ncbe_inputs.values()] == [1, 14, 20]
        for calls in workload_ncbe_inputs.values():
            for pts, alpha in calls:
                assert_same_boundary(pts, alpha)

    def test_disk_takes_the_fan_path(self, monkeypatch):
        fans = []
        fan = bd._fan_prune
        monkeypatch.setattr(bd, "_fan_prune", lambda pts, lower: fans.append(len(pts))
                            or fan(pts, lower))
        rng = np.random.default_rng(8)
        r, t = np.sqrt(rng.uniform(0, 1, 20000)), rng.uniform(0, 2 * np.pi, 20000)
        assert_same_boundary(np.column_stack([r * np.cos(t), r * np.sin(t)]), 0.5)
        assert fans

    def test_plate_whose_z_axis_is_one_window(self):
        rng = np.random.default_rng(9)
        xy = rng.uniform(-1, 1, (3000, 2))
        assert_same_boundary(np.column_stack([xy, np.zeros(3000)]), 0.05)
        assert_same_boundary(np.column_stack([xy, rng.uniform(0, 0.01, 3000)]), 0.05)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_single_point_windows(self, dim):
        pts = np.random.default_rng(dim).uniform(0, 1, (60, dim))
        assert_same_boundary(pts, 1e-3)
        assert_same_boundary(pts[:1], 0.1)

    @pytest.mark.parametrize("budget", [1, 40, 300])
    def test_small_blocks(self, monkeypatch, budget):
        # one window or a few per block, each padded to the widest in it
        monkeypatch.setattr(bd, "_BLOCK_ELEMS", budget)
        rng = np.random.default_rng(budget)
        pts = shuffled_lattice(rng, np.arange(13) / 2, np.arange(7) / 2) + [0.25, 3.0]
        for p, alpha in ((pts, 0.5), (rng.normal(size=(500, 3)), 0.2)):
            assert_same_boundary(p, alpha)


def traced_peak(fn, *args):
    """tracemalloc's peak over one call, after a first call to warm up."""
    fn(*args)
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestNcbeMemory:
    """One axis at a time, and padded blocks of at most _BLOCK_ELEMS pair
    distances, keep the batched pass within 0.5 MB of the per-window peak."""

    def check(self, pts, alpha):
        assert traced_peak(ncbe, pts, alpha) <= (
            traced_peak(oracles.per_window_ncbe, pts, alpha) + 0.5e6)

    def test_switch_plate_inliers(self, workload_ncbe_inputs):
        self.check(*workload_ncbe_inputs["switch-plate"][0])

    def test_large_square(self):
        self.check(np.random.default_rng(10).uniform(0, 1, (50000, 2)), 0.01)

    def test_circle(self):
        # up to 26 points of each of the 201 windows per axis survive the
        # reach prune; in one block, their padded scan would take 1.5 MB more
        t = np.random.default_rng(11).uniform(0, 2 * np.pi, 8000)
        self.check(np.column_stack([np.cos(t), np.sin(t)]), 0.01)


def strip_edge_set():
    """400 points over [0, 10]^2, so the strips are w = 2 sqrt(10 * 10 / 400)
    = 1 wide and their edges lie on the integers: a blob whose y values are
    all on edges, and 20 isolated pairs exactly w apart across an edge, at
    least 1.75 from any other point."""
    rng = np.random.default_rng(31)
    blob = np.column_stack([rng.uniform(0, 2, 360), rng.integers(0, 5, 360) / 2])
    blob[0] = [0.0, 0.5]
    pairs = [[x, y + dy] for x in (3.25, 5.0, 6.75, 8.5, 10.0) for y in (0, 3, 6, 9)
             for dy in (0, 1)]
    return np.vstack([blob, pairs])


def outlier_set():
    """A uniform square with isolated points far beyond any first strip."""
    rng = np.random.default_rng(32)
    return np.vstack([rng.uniform(0, 1, (2000, 2)),
                      [[5.0, 40.0], [-30.0, 2.0], [0.5, -25.0], [0.5, -24.0]]])


def on_x_axis(dim):
    """Every point on a line along x, with ties: a strip axis of zero extent."""
    t = np.random.default_rng(33).uniform(-1, 1, 500)
    return np.column_stack([np.round(t * 64) / 64] + [np.full(500, 5.0)] * (dim - 1))


def nearest_neighbor_cases():
    rng = np.random.default_rng(21)
    t = rng.uniform(-1, 1, 200)
    ties = np.column_stack([rng.choice([0.0, 10.0], 300), rng.uniform(0, 5, 300)])
    yield from (rng.normal(size=(n, dim)) * scale  # odd and even n
                for n in (3, 50, 501) for dim in (2, 3) for scale in (1e-3, 1.0, 1e4))
    yield rng.uniform(0, [1.0, 0.01, 1.0], (400, 3))  # a thin slab
    for seed in range(3):  # duplicates are at distance 0
        yield shuffled_lattice(rng, np.arange(15), np.arange(11))
        yield shuffled_lattice(rng, np.arange(6), np.arange(5), np.arange(4)) * 0.1
    yield np.column_stack([0.5 + t, -1.0 + 2 * t])  # collinear, tilted
    yield np.column_stack([t, np.zeros_like(t), np.ones_like(t)])  # on an axis
    yield np.column_stack([np.round(t * 8) / 8, np.zeros_like(t)])  # on an axis, tied
    yield np.array([[0.0, 0.0], [3.0, 4.0]])
    yield np.array([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]])
    yield ties  # the sweep axis holds only two values
    yield ties[:, ::-1].copy()
    # strip edges and widths
    yield strip_edge_set()
    yield outlier_set()
    yield on_x_axis(2)
    yield on_x_axis(3)
    rng = np.random.default_rng(34)
    for offset in (1e8, -1e8):
        yield rng.uniform(0, 1, (3000, 2)) + [offset, -offset]
    yield np.column_stack([rng.uniform(0, [4.0, 1.0], (5000, 2)),  # a plate, z noise
                           rng.normal(0, 0.002, 5000)])
    for dim in (2, 3):
        yield rng.uniform(0, 1, (2, dim))
        yield np.repeat(rng.uniform(0, 1, (1, dim)), 50, axis=0)


NEAREST_NEIGHBOR_CASES = list(nearest_neighbor_cases())


class TestNearestNeighborOracle:
    @pytest.mark.parametrize("case", range(len(NEAREST_NEIGHBOR_CASES)))
    def test_matches_kd_tree(self, case):
        pts = NEAREST_NEIGHBOR_CASES[case]
        want = oracles.nearest_neighbor_dist(pts)
        assert np.array_equal(bd._nn_dist(pts), want)
        assert default_alpha_s(pts) == 2.0 * float(np.median(want))

    def test_ties_and_duplicates_take_few_steps(self, monkeypatch):
        # each sweep step computes its pairs' distances in one _dist call
        steps = []
        dist = bd._dist
        monkeypatch.setattr(bd, "_dist", lambda a, b: steps.append(len(a)) or dist(a, b))
        rng = np.random.default_rng(8)
        two_columns = np.column_stack([rng.choice([0.0, 10.0], 2000),
                                       rng.uniform(0, 5, 2000)])
        repeated = rng.uniform(0, 1, (400, 2))[rng.permutation(np.arange(2000) % 400)]
        lattice = shuffled_lattice(rng, np.arange(40), np.arange(40))
        for pts in (two_columns, repeated, lattice, lattice[:, ::-1].copy()):
            steps.clear()
            assert np.array_equal(bd._nn_dist(pts), oracles.nearest_neighbor_dist(pts))
            assert 1 <= len(steps) <= 2


class TestStripSweep:
    # NEAREST_NEIGHBOR_CASES checks these sets against the oracle; here, the
    # passes and steps they take
    @pytest.fixture
    def sweeps(self, monkeypatch):
        # one _sweep call per pass, given the points of its double strips
        calls = []
        sweep = bd._sweep
        monkeypatch.setattr(bd, "_sweep", lambda p, pt, *a:
                            calls.append(len(pt)) or sweep(p, pt, *a))
        return calls

    @pytest.fixture
    def steps(self, monkeypatch):
        # each step computes its pairs in one _dist call
        calls = []
        dist = bd._dist
        monkeypatch.setattr(bd, "_dist", lambda a, b: calls.append(len(a)) or dist(a, b))
        return calls

    def test_pairs_w_apart_widen_once(self, sweeps):
        # left over at w, resolved at 2w among the double strips that hold them
        bd._nn_dist(strip_edge_set())
        assert len(sweeps) == 2 and sweeps[1] < sweeps[0]

    def test_outliers_widen_more_than_once(self, sweeps):
        # the far points stay left over until w passes their distances
        bd._nn_dist(outlier_set())
        assert len(sweeps) > 2

    @pytest.mark.parametrize("dim", [2, 3])
    def test_zero_strip_extent_is_one_sweep(self, sweeps, dim):
        # w = 0: one strip, one copy of each point
        bd._nn_dist(on_x_axis(dim))
        assert sweeps == [500]

    def test_uniform_plate_takes_few_steps(self, steps):
        # one sweep over the whole set takes hundreds of steps here
        pts = np.random.default_rng(37).uniform(0, 1, (20000, 2))
        assert np.array_equal(bd._nn_dist(pts), oracles.nearest_neighbor_dist(pts))
        assert len(steps) <= 40


class TestUniqueRowsOracle:
    @pytest.mark.parametrize("dim", [2, 3])
    def test_matches_np_unique(self, dim):
        rng = np.random.default_rng(dim)
        rows = [rng.integers(0, 3, (200, dim)).astype(float),
                rng.normal(size=(50, dim))[rng.integers(0, 50, 120)],
                rng.normal(size=(1, dim)), np.zeros((0, dim))]
        for a in rows:
            assert np.array_equal(bd._unique_rows(a), np.unique(a, axis=0))


class TestClusterBorderOracle:
    def check(self, a_pts, b_pts, eps):
        got = cluster_border(Boundary(a_pts, a_pts.mean(axis=0), 1.0),
                             Boundary(b_pts, b_pts.mean(axis=0), 1.0), eps)
        merged, length, midpoint = oracles.cluster_border(a_pts, b_pts, eps)
        assert np.array_equal(got.points, merged)
        assert got.length == length
        assert (got.midpoint is None) == (midpoint is None)
        if midpoint is not None:
            assert np.array_equal(got.midpoint, midpoint)
        return merged

    @pytest.mark.parametrize("dim", [2, 3])
    def test_random(self, dim):
        rng = np.random.default_rng(30 + dim)
        a = rng.uniform(0, 1, (120, dim))
        b = rng.uniform(0, 1, (90, dim)) + 0.9 * np.eye(dim)[0]
        for eps in (0.01, 0.05, 0.2, 5.0):
            merged = self.check(a, b, eps)
        # the last merges all 210 points, more than one block of the pair scan
        assert len(merged) ** 2 > bd._BLOCK_ELEMS

    @pytest.mark.parametrize("dim", [2, 3])
    def test_one_point(self, dim):
        # the two sets share one point and are otherwise farther than eps apart
        a = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        b = np.array([[1.0, 1.0], [2.0, 1.0], [2.0, 2.0]])
        if dim == 3:
            a, b = np.column_stack([a, np.ones(3)]), np.column_stack([b, np.ones(3)])
        # the oracle gives that point length 0.0 and makes it the midpoint
        assert np.array_equal(self.check(a, b, 0.5), b[:1])

    @pytest.mark.parametrize("dim", [2, 3])
    def test_empty_side(self, dim):
        # an empty boundary takes its dimension from its center
        pts = np.random.default_rng(40).uniform(0, 1, (20, dim))
        empty = Boundary([], np.zeros(dim), 0.1)
        full = Boundary(pts, pts.mean(axis=0), 0.1)
        for a, b in ((empty, full), (full, empty)):
            got = cluster_border(a, b, 0.5)
            assert got.points.shape == (0, dim)
            assert got.length == 0.0 and got.midpoint is None

    def test_pairs_exactly_eps_apart(self):
        y = np.arange(9) * 0.25
        a = np.column_stack([np.zeros_like(y), y])
        for b, eps in ((a + [0.5, 0.0], 0.5),  # one axis
                       (a + [0.75, 1.0], 1.25),  # a 3-4-5 triangle
                       (a[::2] + [0.25, 0.0], 0.25)):
            for e in (eps, np.nextafter(eps, 0.0), np.nextafter(eps, 1.0)):
                self.check(a, b, e)
                self.check(b, a, e)


def center_closest_cases():
    rng = np.random.default_rng(12)
    lattice = shuffled_lattice(rng, np.arange(7), np.arange(5))
    ring = lattice[(lattice[:, 0] % 6 == 0) | (lattice[:, 1] % 4 == 0)]
    probes = np.vstack([shuffled_lattice(rng, np.arange(-1, 8) / 2, np.arange(-1, 6) / 2),
                        rng.uniform(-1, 7, (60, 2))])
    return [(ring, np.array([3.0, 2.0]), probes),
            (rng.uniform(0, 1, (40, 3)), np.full(3, 0.5), rng.uniform(-0.2, 1.2, (80, 3)))]


class TestCenterClosestOracle:
    @pytest.mark.parametrize("rule", ["all", "any"])
    @pytest.mark.parametrize("tol", [0.0, 0.05])
    @pytest.mark.parametrize("m", [1, 3, 5, 100])
    def test_single_boundary(self, rule, tol, m):
        for boundary, center, probes in center_closest_cases():
            got = CenterClosest([boundary], [center], 1, m, rule, tol)(probes)
            want = [oracles.center_closest(p, boundary, center, m, rule, tol)
                    for p in probes]
            assert got.tolist() == want

    @pytest.mark.parametrize("rule", ["all", "any"])
    def test_point_in_boundary(self, rule):
        boundary, center, probes = center_closest_cases()[0]
        inside = center_closest_test(Boundary(boundary, center, 1.0), 4, rule)
        for p in probes:
            assert inside(p[None])[0] == oracles.center_closest(p, boundary, center, 4, rule)

    @pytest.mark.parametrize("rule", ["all", "any"])
    @pytest.mark.parametrize("m", [1, 6])
    @pytest.mark.parametrize("n_candidates", [1, 2, 7])
    def test_padded_boundaries(self, rule, m, n_candidates):
        # boundaries of different lengths share one NaN-padded array; the
        # 4-point one has fewer than m = 6 points, and at m = 1 the index
        # order of tied points decides some verdicts; 7 candidates are more
        # than the 5 boundaries, so all of them are taken
        rng = np.random.default_rng(13)
        bs = [Boundary(rng.uniform(x0, x0 + 1, (n, 2)), [x0 + 0.5, 0.5], 0.1)
              for x0, n in ((0.0, 30), (0.8, 4), (1.6, 55), (2.4, 12))]
        # a lattice boundary with repeated points: distances tie exactly
        bs.append(Boundary(shuffled_lattice(rng, np.arange(3.2, 4.3, 0.25),
                                            np.arange(0.0, 1.1, 0.25)), [3.7, 0.5], 0.1))
        checker = PibcChecker(bs, n_candidates=n_candidates, m=m, rule=rule)
        pts = [b.points for b in bs]
        pairs = [p[rng.integers(0, len(p), (2, 40))] for p in pts]
        probes = np.vstack([rng.uniform([-0.2, -0.2], [4.4, 1.2], (300, 2)),
                            *pts,  # probes at boundary points
                            *[(a + b) / 2 for a, b in pairs]])  # and at pair midpoints
        centers = np.array([b.center for b in bs])
        want = []
        for p in probes:
            near = np.argsort(np.linalg.norm(centers - p, axis=1), kind="stable")
            want.append(any(oracles.center_closest(p, bs[j].points, bs[j].center, m, rule)
                            for j in near[:n_candidates]))
        assert checker.points_inside(probes).tolist() == want

    def test_errors(self):
        with pytest.raises(ValueError):
            CenterClosest([np.ones((3, 2))], [np.zeros(2)], 1, 0, "all")
        with pytest.raises(ValueError):
            CenterClosest([np.ones((3, 2))], [np.zeros(2)], 1, 1, "most")

    @pytest.mark.parametrize("sets", [
        [np.zeros((0, 2))],
        [np.ones((3, 2)), np.zeros((0, 2))],
    ], ids=["alone", "beside-a-real-one"])
    def test_empty_point_set(self, sets):
        # an empty set has no nearest boundary points: under rule "all",
        # every point whose candidates include it would pass
        centers = [np.ones(2), np.full(2, 9.0)][:len(sets)]
        with pytest.raises(ValueError, match=f"point set {len(sets) - 1} is empty"):
            CenterClosest(sets, centers, 1, 3, "all")
