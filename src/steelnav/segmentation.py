"""EM-GMM segmentation and neighbor-ratio model selection.

The cluster-count sweep scores each candidate count by
r = n_m / (n_m + n_s) + n_m / n_c, where n_m and n_s are the highest and
second-highest per-cluster neighbor counts; the count with the highest r
wins (ties go to the smaller count).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .boundary import Border, Boundary, are_neighbors, cluster_border, ncbe
from .errors import SingularCovariance, TooFewPoints

_DEFAULT_RESTARTS = 3
_COV_FLOOR_SCALE = 1e-6


@dataclass(frozen=True)
class GmmModel:
    k: int
    weights: np.ndarray  # (k,) simplex
    means: np.ndarray  # (k, 2)
    covariances: np.ndarray  # (k, 2, 2) SPD
    log_likelihood: float
    ll_history: tuple = ()  # per-iteration log-likelihood of the winning restart


@dataclass
class RatioRecord:
    n_c: int
    n_m: int
    n_s: int
    r: float

    def to_json(self):
        return {"n_c": self.n_c, "n_m": self.n_m, "n_s": self.n_s, "r": self.r}


@dataclass
class ClusterSet:
    points: np.ndarray  # (N, 2)
    labels: np.ndarray  # (N,) int in [0, n_c)
    n_c: int
    model: GmmModel
    boundaries: list[Boundary]
    borders: dict[tuple[int, int], Border]
    neighbor_matrix: np.ndarray  # (k, k) bool, false diagonal
    ratio_table: list[RatioRecord] = field(default_factory=list)
    seed: int | None = None

    @property
    def means(self) -> np.ndarray:
        """(k, 2) component means."""
        return self.model.means

    @property
    def neighbor_counts(self) -> np.ndarray:
        """(k,) neighbors per cluster."""
        return self.neighbor_matrix.sum(axis=1).astype(int)

    def cluster_points(self, i: int) -> np.ndarray:
        return self.points[self.labels == i]

    def to_json(self):
        return {
            "n_c": self.n_c,
            "labels": [int(v) for v in self.labels],
            "means": [[float(v) for v in m] for m in self.means],
            "ratio_table": [r.to_json() for r in self.ratio_table],
            "seed": self.seed,
        }


def _kmeanspp_means(points, k, rng):
    n = len(points)
    means = np.empty((k, 2))
    means[0] = points[rng.integers(n)]
    d2 = np.sum((points - means[0]) ** 2, axis=1)
    for i in range(1, k):
        total = d2.sum()
        if total <= 0:
            means[i] = points[rng.integers(n)]
        else:
            means[i] = points[rng.choice(n, p=d2 / total)]
        d2 = np.minimum(d2, np.sum((points - means[i]) ** 2, axis=1))
    return means


def _log_gaussians(points, means, covariances):
    """(N, k) log-densities, all components at once.

    For a 2×2 covariance [[a, b], [b, c]] with det = ac - b², the
    Mahalanobis form is (c·dx² - 2b·dx·dy + a·dy²) / det (Bishop 2006, §9.2).
    The result is the transpose of a component-major (k, N) array, so
    reductions over the k components run along contiguous memory.
    """
    a, b, c = covariances[:, 0, 0], covariances[:, 0, 1], covariances[:, 1, 1]
    det = a * c - b * b
    # an infinite or NaN entry makes det infinite or NaN too
    bad = ~((a > 0) & (det > 0) & np.isfinite(det))
    if bad.any():
        raise SingularCovariance(f"component {int(np.argmax(bad))} covariance not SPD")
    dx = points[:, 0] - means[:, :1]  # (k, N)
    dy = points[:, 1] - means[:, 1:]
    maha = (c[:, None] * dx * dx - 2.0 * b[:, None] * dx * dy
            + a[:, None] * dy * dy) / det[:, None]
    return (-0.5 * (maha + np.log(det)[:, None] + 2.0 * np.log(2.0 * np.pi))).T


def _logsumexp_rows(a):
    """Row-wise log(sum(exp(a))), by SciPy's formula: the m terms equal to
    the row maximum are taken out, log1p(s / m) + log(m) + max."""
    a_max = a.max(axis=1, keepdims=True)
    rest = a != a_max
    m = a.shape[1] - np.count_nonzero(rest, axis=1, keepdims=True)
    shifted = np.subtract(a, a_max, out=np.full_like(a, -np.inf), where=rest)
    s = np.exp(shifted).sum(axis=1, keepdims=True)
    return (np.log1p(s / m) + np.log(m) + a_max)[:, 0]


def _m_step(points, resp, floor):
    """Weights, means and floored covariances from (N, k) responsibilities."""
    resp = resp.T  # (k, N); contiguous for responsibilities of _log_gaussians
    k, n = resp.shape
    nk = resp.sum(axis=1)
    nk_safe = np.maximum(nk, 1e-300)
    means = (resp @ points) / nk_safe[:, None]
    dx = points[:, 0] - means[:, :1]
    dy = points[:, 1] - means[:, 1:]
    rdx = resp * dx
    covariances = np.empty((k, 2, 2))
    covariances[:, 0, 0] = (rdx * dx).sum(axis=1) / nk_safe + floor
    covariances[:, 0, 1] = covariances[:, 1, 0] = (rdx * dy).sum(axis=1) / nk_safe
    covariances[:, 1, 1] = (resp * dy * dy).sum(axis=1) / nk_safe + floor
    return nk / n, means, covariances


def _em_once(points, k, rng, max_iter, rel_tol, floor):
    means = _kmeanspp_means(points, k, rng)
    weights = np.full(k, 1.0 / k)
    iso = max(float(np.var(points, axis=0).mean()), floor)
    covariances = np.tile(np.eye(2) * iso, (k, 1, 1))

    history = []
    prev_ll = -np.inf
    for _ in range(max_iter):
        log_prob = _log_gaussians(points, means, covariances) + np.log(weights)
        log_norm = _logsumexp_rows(log_prob)
        ll = float(log_norm.sum())
        history.append(ll)
        weights, means, covariances = _m_step(
            points, np.exp(log_prob - log_norm[:, None]), floor)

        if ll - prev_ll < rel_tol * max(abs(ll), 1.0) and np.isfinite(prev_ll):
            break
        prev_ll = ll
    return GmmModel(k, weights, means, covariances, history[-1], tuple(history))


def em_gmm_fit(points: np.ndarray, k: int, seed: int = 0, max_iter: int = 200,
               rel_tol: float = 1e-7, restarts: int = _DEFAULT_RESTARTS) -> GmmModel:
    """Full-covariance 2D EM with k-means++ seeding and restarts.

    Deterministic given `seed`; the best of `restarts` runs by final
    log-likelihood is returned.  Covariances carry a diagonal floor
    derived from the data scale, which keeps thin-bar fits from
    collapsing.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != 2:
        raise ValueError("points must have shape (N, 2)")
    if k < 1 or len(points) < k:
        raise TooFewPoints(f"need at least k={k} points, got {len(points)}")

    sample_cov = np.cov(points.T) if len(points) > 1 else np.zeros((2, 2))
    floor = max(_COV_FLOOR_SCALE * float(np.trace(np.atleast_2d(sample_cov))) / 2.0,
                1e-12)

    best = None
    for r in range(restarts):
        rng = np.random.default_rng([seed, r])
        model = _em_once(points, k, rng, max_iter, rel_tol, floor)
        if best is None or model.log_likelihood > best.log_likelihood:
            best = model
    return best


def assign_clusters(model: GmmModel, points: np.ndarray) -> np.ndarray:
    """Hard labels by maximum posterior; ties break to the lowest index."""
    points = np.asarray(points, dtype=float)
    log_prob = _log_gaussians(points, model.means, model.covariances) \
        + np.log(np.maximum(model.weights, 1e-300))
    return np.argmax(log_prob, axis=1)


def _cluster_boundaries(points, labels, n_c, alpha_s):
    boundaries = []
    for i in range(n_c):
        cluster = points[labels == i]
        if len(cluster) == 0:
            boundaries.append(Boundary(np.zeros((0, 2)), np.zeros(2), alpha_s))
        else:
            boundaries.append(ncbe(cluster, alpha_s))
    return boundaries


def neighbor_stats(boundaries: list[Boundary], l_b: float, eps_border: float):
    """Pairwise borders, neighbor matrix, and the (n_m, n_s) statistics.

    n_s is the count of the second-ranked cluster and may equal n_m.
    """
    n_c = len(boundaries)
    matrix = np.zeros((n_c, n_c), dtype=bool)
    borders: dict[tuple[int, int], Border] = {}
    for i in range(n_c):
        for j in range(i + 1, n_c):
            border = cluster_border(boundaries[i], boundaries[j], eps_border, i, j)
            borders[(i, j)] = border
            if are_neighbors(border, l_b):
                matrix[i, j] = matrix[j, i] = True
    counts = matrix.sum(axis=1).astype(int)
    ranked = np.sort(counts)[::-1]
    n_m = int(ranked[0]) if n_c >= 1 else 0
    n_s = int(ranked[1]) if n_c >= 2 else 0
    return n_m, n_s, counts, matrix, borders


def cluster_ratio(n_m: int, n_s: int, n_c: int) -> float:
    """r = n_m/(n_m+n_s) + n_m/n_c, with the first term 0 when n_m = 0."""
    if n_c < 1:
        raise ValueError("n_c must be >= 1")
    if n_m < n_s or n_s < 0:
        raise ValueError("require n_m >= n_s >= 0")
    if n_m == 0:
        return 0.0
    return n_m / (n_m + n_s) + n_m / n_c


def segment_structure(points: np.ndarray, n_cmin: int, n_cmax: int,
                      l_b: float, eps_border: float, alpha_s: float,
                      seed: int = 0, max_iter: int = 200,
                      rel_tol: float = 1e-7,
                      restarts: int = _DEFAULT_RESTARTS) -> ClusterSet:
    """Sweep the cluster count, score each by the neighbor ratio, keep the best.

    Deterministic given (points, parameters, seed); each candidate count
    gets its own derived seed so the winning fit can be reproduced.
    """
    points = np.asarray(points, dtype=float)
    if n_cmin < 2 or n_cmax < n_cmin:
        raise ValueError("require n_cmax >= n_cmin >= 2")
    if len(points) < n_cmax:
        raise TooFewPoints(f"need >= {n_cmax} points, got {len(points)}")

    table = []  # every candidate shares it, so the winner holds the whole sweep
    best, best_r = None, None
    for n_c in range(n_cmin, n_cmax + 1):
        child_seed = seed * 1009 + n_c
        model = em_gmm_fit(points, n_c, seed=child_seed, max_iter=max_iter,
                           rel_tol=rel_tol, restarts=restarts)
        labels = assign_clusters(model, points)
        boundaries = _cluster_boundaries(points, labels, n_c, alpha_s)
        n_m, n_s, _, matrix, borders = neighbor_stats(boundaries, l_b, eps_border)
        r = cluster_ratio(n_m, n_s, n_c)
        table.append(RatioRecord(n_c, n_m, n_s, r))
        if best is None or r > best_r:
            best, best_r = ClusterSet(points, labels, n_c, model, boundaries, borders,
                                      matrix, table, seed), r
    return best
