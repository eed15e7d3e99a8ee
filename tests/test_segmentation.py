from fractions import Fraction
import math

import numpy as np
import pytest
from scipy.special import logsumexp

from steelnav import Shape, StructureSpec, generate, ncbe, segment_structure
from steelnav import segmentation
from steelnav.errors import InvalidPoints, SingularCovariance, SteelNavError, TooFewPoints
from steelnav.segmentation import (
    _covariances,
    _em_restarts,
    _log_gaussians,
    _logsumexp_components,
    _m_step,
    _offsets,
    assign_clusters,
    cluster_ratio,
    em_gmm_fit,
    neighbor_stats,
)

import oracles
from oracles import adjusted_rand_index


def two_blobs(n=400, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.normal([0.0, 0.0], 0.1, (n, 2))
    b = rng.normal([5.0, 0.0], 0.1, (n, 2))
    labels = np.repeat([0, 1], n)
    return np.vstack([a, b]), labels


class TestEmGmmFit:
    def test_k1_closed_form(self):
        rng = np.random.default_rng(0)
        pts = rng.normal(0.0, 1.0, (300, 2)) @ np.array([[1.0, 0.3], [0.0, 0.7]])
        model = em_gmm_fit(pts, k=1, seed=0)
        ml_cov = np.cov(pts.T, bias=True)
        floor = 1e-6 * np.trace(np.cov(pts.T)) / 2.0
        np.testing.assert_allclose(model.means[0], pts.mean(axis=0), atol=1e-9)
        np.testing.assert_allclose(model.covariances[0],
                                   ml_cov + floor * np.eye(2), atol=1e-12)
        np.testing.assert_allclose(model.weights, [1.0], atol=1e-12)

    def test_two_blobs_recovered(self):
        pts, labels = two_blobs()
        model = em_gmm_fit(pts, k=2, seed=1)
        means = model.means[np.argsort(model.means[:, 0])]
        np.testing.assert_allclose(means[0], [0, 0], atol=0.05)
        np.testing.assert_allclose(means[1], [5, 0], atol=0.05)
        got = assign_clusters(model, pts)
        # labels up to permutation
        match = max(np.mean(got == labels), np.mean(got == 1 - labels))
        assert match >= 0.99

    def test_ll_monotone_non_decreasing(self):
        pts, _ = two_blobs(seed=2)
        for k in (1, 2, 3):
            model = em_gmm_fit(pts, k=k, seed=3)
            h = np.array(model.ll_history)
            assert np.all(np.diff(h) >= -1e-9)

    def test_deterministic(self):
        pts, _ = two_blobs(seed=4)
        a = em_gmm_fit(pts, k=2, seed=7)
        b = em_gmm_fit(pts, k=2, seed=7)
        np.testing.assert_array_equal(a.means, b.means)
        np.testing.assert_array_equal(a.covariances, b.covariances)
        assert a.ll_history == b.ll_history

    def test_errors(self):
        with pytest.raises(TooFewPoints):
            em_gmm_fit(np.zeros((2, 2)), k=3)
        with pytest.raises(ValueError):
            em_gmm_fit(np.zeros((5, 3)), k=1)

    @pytest.mark.parametrize("arg", ["restarts", "max_iter"])
    def test_zero_runs_or_iterations(self, arg):
        with pytest.raises(ValueError, match=f"^{arg} must be >= 1"):
            em_gmm_fit(two_blobs()[0], k=2, **{arg: 0})


def log_gaussians(points, means, covs):
    """The package's log-density kernel as an (N, k) array."""
    return _log_gaussians(*_offsets(points.T, means),
                          covs[:, 0, 0], covs[:, 0, 1], covs[:, 1, 1]).T


def logsumexp_rows(a):
    """The package's logsumexp over components, applied to the rows of a."""
    lp = a.T.copy()
    return _logsumexp_components(lp, np.empty_like(lp), np.empty(lp.shape, bool))


def m_step(points, resp, floor):
    """The package's M-step on (N, k) responsibilities, with (k, 2, 2)
    covariances; it must leave the new means' offsets in dx, dy."""
    resp = resp.T.copy()  # the M-step overwrites it
    dx, dy, tmp = (np.empty_like(resp) for _ in range(3))
    weights, means, a, b, c = _m_step(points, points.T, resp, len(resp), floor,
                                      dx, dy, tmp)
    want_dx, want_dy = _offsets(points.T, means)
    np.testing.assert_array_equal(dx, want_dx)
    np.testing.assert_array_equal(dy, want_dy)
    return weights, means, _covariances(a, b, c)


def rotated_cov(l1, l2, theta):
    rot = np.array([[math.cos(theta), -math.sin(theta)],
                    [math.sin(theta), math.cos(theta)]])
    cov = rot @ np.diag([l1, l2]) @ rot.T
    return (cov + cov.T) / 2.0


def exact_log_gaussian(p, mean, cov):
    """Log-density in exact rational arithmetic on the float inputs,
    rounded once at the end."""
    a, b, c = (Fraction(float(v)) for v in (cov[0, 0], cov[0, 1], cov[1, 1]))
    dx = Fraction(float(p[0])) - Fraction(float(mean[0]))
    dy = Fraction(float(p[1])) - Fraction(float(mean[1]))
    det = a * c - b * b
    maha = (c * dx * dx - 2 * b * dx * dy + a * dy * dy) / det
    return -0.5 * (float(maha) + math.log(det) + 2.0 * math.log(2.0 * math.pi))


class TestLogGaussians:
    def probes(self, rng, means, covs, n=200):
        """Points around each component, out to about four sigma."""
        k = rng.integers(len(means), size=n)
        z = rng.normal(0.0, 1.5, (n, 2))
        return means[k] + np.einsum("nij,nj->ni", np.linalg.cholesky(covs[k]), z)

    def test_matches_cholesky_oracle(self):
        rng = np.random.default_rng(11)
        covs = [rotated_cov(s, s / kappa, rng.uniform(0, np.pi))
                for s, kappa in zip(10.0 ** rng.uniform(-5, 0, 12),
                                    10.0 ** rng.uniform(0, 4, 12))]
        # thin bars along the axes, condition number about 1e8
        covs += [np.diag([1e-2, 1e-10]), np.diag([1e-10, 1e-2]),
                 rotated_cov(1e-2, 1e-10, 1e-5)]
        # strong correlation of both signs with |b| > a
        covs += [np.array([[1e-4, s * 3e-3], [s * 3e-3, 1e-1]]) for s in (1, -1)]
        covs += [rotated_cov(1e-2, 1e-5, t) for t in (1.2, -1.2, 1.9)]
        covs = np.array(covs)
        means = rng.normal(0.0, 1.0, (len(covs), 2))
        pts = self.probes(rng, means, covs)
        assert np.any(np.abs(covs[:, 0, 1]) > covs[:, 0, 0])
        got = log_gaussians(pts, means, covs)
        np.testing.assert_allclose(got, oracles.log_gaussians(pts, means, covs),
                                   rtol=1e-10)

    @pytest.mark.parametrize("theta", [0.8, 1.2, -1.2, 2.0])
    def test_rotated_thin_bar_as_accurate_as_oracle(self, theta):
        # At condition number 1e8 off the axes, ac - b^2 and the quadratic
        # form cancel in any double-precision method; the Cholesky oracle
        # is itself off by up to about 1e-8 here.  Measure both against
        # exact arithmetic instead.
        rng = np.random.default_rng(12)
        cov = rotated_cov(1e-2, 1e-10, theta)
        assert abs(cov[0, 1]) > cov[0, 0]
        means = np.array([[0.3, -0.2]])
        pts = self.probes(rng, means, cov[None], n=50)
        exact = np.array([exact_log_gaussian(p, means[0], cov) for p in pts])
        scale = np.abs(exact) + 1.0
        got = log_gaussians(pts, means, cov[None])[:, 0]
        ref = oracles.log_gaussians(pts, means, cov[None])[:, 0]
        got_err = np.abs(got - exact) / scale
        ref_err = np.abs(ref - exact) / scale
        assert got_err.max() <= max(2.0 * ref_err.max(), 1e-12)

    @pytest.mark.parametrize("bad", [
        [[0.0, 0.0], [0.0, 1.0]],  # zero variance
        [[1.0, 2.0], [2.0, 1.0]],  # negative determinant
        [[-1.0, 0.0], [0.0, -1.0]],  # negative definite, positive determinant
        [[1.0, np.nan], [np.nan, 1.0]],
        [[np.inf, 0.0], [0.0, 1.0]],
    ])
    def test_singular_names_first_bad_component(self, bad):
        covs = np.array([np.eye(2), np.eye(2), bad, bad])
        with pytest.raises(SingularCovariance, match="component 2 "):
            log_gaussians(np.zeros((3, 2)), np.zeros((4, 2)), covs)


class TestLogsumexpRows:
    def test_matches_scipy(self):
        rng = np.random.default_rng(13)
        a = rng.normal(0.0, 30.0, (200, 6))
        a[::7, 1] = a[::7, 4]  # ties at arbitrary values
        a[::5, :3] = a[::5, :3].max(axis=1, keepdims=True) + 5.0  # tied maxima
        a[::3, 2] = -np.inf
        a[::4, [0, 5]] = -np.inf
        a[1] = 0.0  # all tied
        a[2, :5] = -np.inf  # one finite entry
        a[4] = -np.inf  # all -inf
        with np.errstate(invalid="ignore", divide="ignore"):
            want = logsumexp(a, axis=1)
        np.testing.assert_allclose(logsumexp_rows(a), want, rtol=1e-15, atol=0)
        assert logsumexp_rows(a)[4] == -np.inf

    def test_column_counts(self):
        for k in (1, 2, 7):
            a = np.random.default_rng(k).normal(size=(50, k))
            np.testing.assert_allclose(logsumexp_rows(a), logsumexp(a, axis=1),
                                       rtol=1e-15)

    def test_bit_equal_to_allocating_form(self):
        rng = np.random.default_rng(15)
        untied = rng.normal(0.0, 30.0, (300, 5))
        tied = untied.copy()
        tied[::3, 1] = tied[::3].max(axis=1)  # a tie with other terms left
        tied[::7, 2] = -np.inf
        for a in (untied, tied):
            np.testing.assert_array_equal(logsumexp_rows(a), oracles._logsumexp_rows(a))

    def test_infinite_single_maximum(self):
        # one maximum per row, so m = 1 and the formula reduces to
        # log1p(s) + max; an infinite maximum minus itself must not warn
        np.testing.assert_array_equal(
            logsumexp_rows(np.array([[-np.inf], [np.inf], [2.0]])),
            [-np.inf, np.inf, 2.0])
        np.testing.assert_array_equal(
            logsumexp_rows(np.array([[np.inf, 0.0, -np.inf], [1.0, -np.inf, 0.0]])),
            [np.inf, 1.0 + np.log1p(np.exp(-1.0))])


class TestMStep:
    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(14)
        pts = rng.normal(0.0, 1.0, (300, 2)) * [1.0, 0.05]
        for k in (1, 2, 6):
            resp = rng.dirichlet(np.ones(k), size=len(pts))
            if k > 1:
                resp[:, -1] = 0.0  # an empty component
            got = m_step(pts, resp, 1e-9)
            want = oracles.m_step(pts, resp, 1e-9)
            for g, w in zip(got, want):
                np.testing.assert_allclose(g, w, rtol=1e-12, atol=1e-15)
            np.testing.assert_array_equal(got[2], got[2].transpose(0, 2, 1))


def sequential(em_once):
    """An `_em_restarts` that runs `em_once` on each restart in turn: a
    failure raises at once, so later restarts never run."""
    def run(points, k, seed, max_iter, rel_tol, restarts, floor):
        return [em_once(points, k, np.random.default_rng([seed, r]), max_iter,
                        rel_tol, floor) for r in range(restarts)]
    return run


def recorded(monkeypatch, em_restarts):
    """Patch `_em_restarts` to run `em_restarts` and record each call's
    arguments and per-restart fits."""
    calls = []

    def recording(*args):
        fits = em_restarts(*args)
        calls.append((args, fits))
        return fits

    monkeypatch.setattr(segmentation, "_em_restarts", recording)
    return calls


class TestEmRegression:
    """Every restart of every fit against the per-component Cholesky
    E-step, SciPy's logsumexp and the per-component M-step."""

    @staticmethod
    def run(pts, monkeypatch, em_restarts):
        with monkeypatch.context() as m:
            calls = recorded(m, em_restarts)
            cs = segment_structure(pts, 2, 6, 0.06, 0.04, 0.02, seed=1)
        return cs, [fit.ll_history for _, fits in calls for fit in fits]

    def test_cross_matches_reference(self, monkeypatch):
        spec = StructureSpec(Shape.CROSS, density=4000, noise_sigma=0.004, seed=1)
        pts = generate(spec)[0].points[:, :2]
        got, got_fits = self.run(pts, monkeypatch, _em_restarts)
        ref, ref_fits = self.run(pts, monkeypatch, sequential(oracles.em_once))
        np.testing.assert_array_equal(got.labels, ref.labels)
        assert got.n_c == ref.n_c
        assert got.ratio_table == ref.ratio_table
        np.testing.assert_allclose(got.model.means, ref.model.means, rtol=0, atol=1e-13)
        assert len(got_fits) == len(ref_fits) == 5 * 3
        assert any(len(h) == 200 for h in ref_fits)  # fits that stop at max_iter
        for g, r in zip(got_fits, ref_fits):
            assert len(g) == len(r)
            np.testing.assert_allclose(g, r, rtol=1e-9)


class TestEmBitExact:
    """Every restart of every fit rounds every float as the EM iteration
    that allocates a temporary per step (oracles.allocating_em_once), run
    alone, and the fit returns the first restart of highest
    log-likelihood."""

    @staticmethod
    def check(monkeypatch, pts, ks, seed):
        """Fits each count in `ks`; returns every restart's iteration count,
        one list per count."""
        calls = recorded(monkeypatch, _em_restarts)
        iterations = []
        for k in ks:
            best = em_gmm_fit(pts, k, seed=seed)
            (points, _, _, max_iter, rel_tol, restarts, floor), fits = calls[-1]
            assert len(fits) == restarts == 3
            for r, got in enumerate(fits):
                want = oracles.allocating_em_once(
                    points, k, np.random.default_rng([seed, r]), max_iter, rel_tol, floor)
                assert got.ll_history == want.ll_history
                assert got.log_likelihood == want.log_likelihood
                for name in ("weights", "means", "covariances"):
                    np.testing.assert_array_equal(getattr(got, name), getattr(want, name))
            first_best = 0
            for r, fit in enumerate(fits):
                if fit.log_likelihood > fits[first_best].log_likelihood:
                    first_best = r
            assert best is fits[first_best]
            iterations.append([len(fit.ll_history) for fit in fits])
        return iterations

    @pytest.mark.parametrize("density, n_cmax", [(4000, 6), (2000, 5)])
    def test_navigate_bench_scenes(self, monkeypatch, density, n_cmax):
        # the cross scenes and cluster counts of the navigate benchmark
        # workloads at bench seed 1, whose offset moves the seed-1 scene;
        # segment_structure seeds count n_c with 1009 * seed + n_c.  k = 2,
        # 3, 5 and 6 are the counts whose stacked product would round otherwise
        spec = StructureSpec(Shape.CROSS, density=density, noise_sigma=0.004, seed=1)
        pts = generate(spec)[0].points[:, :2] + np.random.default_rng(1).uniform(-1.0, 1.0, 2)
        iterations = [self.check(monkeypatch, pts, [n_c], 1009 + n_c)[0]
                      for n_c in range(2, n_cmax + 1)]
        if density == 4000:
            # 7 of the 15 fits stop at max_iter; at some counts others stop
            # early, so the lockstep compacts them out while the rest go on
            assert sum(its.count(200) for its in iterations) == 7
            assert any(200 in its and min(its) < 200 for its in iterations)

    def test_one_component(self, monkeypatch):
        self.check(monkeypatch, two_blobs(seed=6)[0], [1], 2)

    def test_identical_points_tie_every_column(self, monkeypatch):
        # every component has the same density at every point
        pts = np.full((40, 2), 0.3)
        assert len(self.check(monkeypatch, pts, [2, 3], 5)) == 2


class TestSingularFit:
    """Points whose squared coordinates overflow: some restarts meet a
    covariance that is not SPD, at different steps and components.  The fit
    raises what a loop over the restarts that stops at the first failure
    raises."""

    @staticmethod
    def check(monkeypatch, pts, k, seed, message):
        with np.errstate(all="ignore"):
            with pytest.raises(SingularCovariance, match=message) as got:
                em_gmm_fit(pts, k, seed=seed)
            monkeypatch.setattr(segmentation, "_em_restarts",
                                sequential(oracles.allocating_em_once))
            with pytest.raises(SingularCovariance) as want:
                em_gmm_fit(pts, k, seed=seed)
        assert str(got.value) == str(want.value)
        assert got.value.component == want.value.component

    @pytest.mark.parametrize("cloud_seed, k, first_ok, message", [
        (12, 3, True, "component 1 "),  # restarts 1 and 2 fail at one step
        (17, 5, True, "component 2 "),  # restart 1 alone fails
        (16, 5, False, "component 4 "),  # restart 0 fails, after 3 steps
        (430, 3, True, "component 1 "),  # restart 2 fails a step before 1
    ])
    def test_same_error_as_sequential(self, monkeypatch, cloud_seed, k, first_ok,
                                      message):
        pts = np.random.default_rng(cloud_seed).normal(0.0, 1.0, (100, 2))
        pts[:8] *= 1.3e77
        if first_ok:
            with np.errstate(all="ignore"):
                em_gmm_fit(pts, k, seed=k, restarts=1)
        self.check(monkeypatch, pts, k, seed=k, message=message)

    def test_later_seeding_failure(self, monkeypatch):
        # restart 1's k-means++ weights do not sum to 1 once squared
        # distances near the float range are summed, a NumPy ValueError; the
        # loop never got there, as restart 0 met a singular covariance first
        far = np.array([[-0.938e152, -2.346e153], [1.680e153, -1.565e153],
                        [-3.537e153, -0.985e153]])
        pts = np.vstack([far, np.random.default_rng(0).normal(0.0, 1.0, (80, 2))])
        with np.errstate(all="ignore"), pytest.raises(ValueError, match="sum to 1"):
            segmentation._kmeanspp_means(pts, 6, np.random.default_rng([595, 1]))
        self.check(monkeypatch, pts, 6, seed=595, message="component 0 ")

    def test_first_seeding_failure(self):
        # the same cloud: at seed 23, restart 0's k-means++ weights do not
        # sum to 1, and the fit raises that, as InvalidPoints with NumPy's text
        far = np.array([[-0.938e152, -2.346e153], [1.680e153, -1.565e153],
                        [-3.537e153, -0.985e153]])
        pts = np.vstack([far, np.random.default_rng(0).normal(0.0, 1.0, (80, 2))])
        with np.errstate(all="ignore"), pytest.raises(InvalidPoints, match="sum to 1") as got:
            em_gmm_fit(pts, 6, seed=23)
        assert isinstance(got.value, SteelNavError)


class TestAssignClusters:
    def test_nearest_mean_on_isotropic(self):
        model = em_gmm_fit(np.vstack(two_blobs(seed=5)[0]), k=2, seed=0)
        probes = np.array([[0.1, 0.0], [4.9, 0.1]])
        got = assign_clusters(model, probes)
        d = np.linalg.norm(probes[:, None] - model.means[None], axis=2)
        np.testing.assert_array_equal(got, d.argmin(axis=1))

    def test_tie_breaks_to_lowest_index(self):
        from steelnav import GmmModel
        eye = np.tile(np.eye(2) * 0.01, (2, 1, 1))
        model = GmmModel(np.array([0.5, 0.5]),
                         np.array([[-1.0, 0.0], [1.0, 0.0]]), eye, 0.0)
        got = assign_clusters(model, np.array([[0.0, 0.0]]))
        assert got[0] == 0


class TestClusterRatio:
    def test_values(self):
        assert cluster_ratio(4, 1, 5) == pytest.approx(4 / 5 + 4 / 5)
        assert cluster_ratio(2, 2, 4) == pytest.approx(0.5 + 0.5)
        assert cluster_ratio(0, 0, 3) == 0.0

    def test_errors(self):
        with pytest.raises(ValueError):
            cluster_ratio(1, 2, 3)
        with pytest.raises(ValueError):
            cluster_ratio(1, 0, 0)


class TestNeighborStats:
    def test_cross_hub_counts(self):
        # five clusters: hub square plus four arms; only the hub touches all
        spec = StructureSpec(Shape.CROSS, density=6000, seed=0)
        cloud, truth = generate(spec)
        pts = cloud.points[:, :2]
        boundaries = [ncbe(pts[truth.labels == i], 0.02) for i in range(5)]
        n_m, n_s, counts, matrix, borders = neighbor_stats(
            boundaries, l_b=0.06, eps_border=0.04)
        assert n_m == 4
        assert counts[4] == 4
        assert np.array_equal(matrix, matrix.T)
        assert not matrix.diagonal().any()

    def test_chain_counts(self):
        # three unit squares in a row: middle has 2 neighbors, ends have 1
        def sq(x0):
            t = np.arange(0.0, 1.0, 0.02)
            pts = np.vstack([
                np.column_stack([x0 + t, np.zeros_like(t)]),
                np.column_stack([np.full_like(t, x0 + 1.0), t]),
                np.column_stack([x0 + 1.0 - t, np.ones_like(t)]),
                np.column_stack([np.full_like(t, x0), 1.0 - t]),
            ])
            from steelnav import Boundary
            return Boundary(pts, np.array([x0 + 0.5, 0.5]), 0.02)

        n_m, n_s, counts, _, _ = neighbor_stats(
            [sq(0.0), sq(1.0), sq(2.0)], l_b=0.3, eps_border=0.02)
        assert n_m == 2 and n_s == 1
        assert sorted(counts) == [1, 1, 2]


class TestSegmentStructure:
    def test_cross_selects_five(self):
        spec = StructureSpec(Shape.CROSS, density=5000, noise_sigma=0.005,
                             seed=0)
        cloud, truth = generate(spec)
        cs = segment_structure(cloud.points[:, :2], n_cmin=3, n_cmax=8,
                               l_b=0.06, eps_border=0.04, alpha_s=0.02,
                               seed=0)
        hubs = np.flatnonzero(cs.neighbor_matrix.sum(axis=1) >= 3)
        assert len(hubs) == 1
        assert adjusted_rand_index(cs.labels, truth.labels) >= 0.8

    def test_l_shape_selects_three(self):
        wins = 0
        for seed in range(10):
            spec = StructureSpec(Shape.L, density=5000, noise_sigma=0.005,
                                 seed=seed)
            cloud, _ = generate(spec)
            cs = segment_structure(cloud.points[:, :2], n_cmin=2, n_cmax=6,
                                   l_b=0.06, eps_border=0.04, alpha_s=0.02,
                                   seed=seed)
            wins += cs.n_c == 3
        assert wins >= 8

    def test_tie_goes_to_smaller_count(self):
        # one isotropic blob: every count has n_m = n_s patterns; the
        # recorded table must rank the winner first under the tie rule
        rng = np.random.default_rng(9)
        pts = rng.normal(0.0, 0.3, (800, 2))
        cs = segment_structure(pts, n_cmin=2, n_cmax=4, l_b=0.01,
                               eps_border=0.05, alpha_s=0.05, seed=0)
        best_r = max(rec.r for rec in cs.ratio_table)
        winners = [rec.n_c for rec in cs.ratio_table if rec.r == best_r]
        assert cs.n_c == min(winners)

    def test_deterministic_and_seed_reproduces(self):
        spec = StructureSpec(Shape.L, density=4000, noise_sigma=0.004, seed=3)
        cloud, _ = generate(spec)
        pts = cloud.points[:, :2]
        a = segment_structure(pts, 2, 6, 0.06, 0.04, 0.02, seed=5)
        b = segment_structure(pts, 2, 6, 0.06, 0.04, 0.02, seed=5)
        np.testing.assert_array_equal(a.labels, b.labels)
        # the stored seed and winning count rebuild the same labels
        model = em_gmm_fit(pts, a.n_c, seed=a.seed * 1009 + a.n_c)
        np.testing.assert_array_equal(assign_clusters(model, pts), a.labels)

    def test_errors(self):
        with pytest.raises(ValueError):
            segment_structure(np.zeros((10, 2)), 1, 4, 0.1, 0.05, 0.05)
        with pytest.raises(TooFewPoints):
            segment_structure(np.zeros((3, 2)), 2, 6, 0.1, 0.05, 0.05)
