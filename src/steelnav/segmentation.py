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


def _offsets(points, means, dx=None, dy=None):
    """(k, N) offsets of the points from each mean, one array per coordinate."""
    return (np.subtract(points[:, 0], means[:, :1], out=dx),
            np.subtract(points[:, 1], means[:, 1:], out=dy))


def _covariances(a, b, c):
    """(k, 2, 2) covariances [[a, b], [b, c]] from their (k,) entries."""
    covariances = np.empty((len(a), 2, 2))
    covariances[:, 0, 0] = a
    covariances[:, 0, 1] = covariances[:, 1, 0] = b
    covariances[:, 1, 1] = c
    return covariances


def _log_gaussians(dx, dy, a, b, c, out=None, tmp=None):
    """(k, N) log-densities, all components at once.

    dx and dy are the offsets from `_offsets`; a, b, c are the (k,) entries
    of each covariance [[a, b], [b, c]].  With det = ac - b², the Mahalanobis
    form is (c·dx² - 2b·dx·dy + a·dy²) / det (Bishop 2006, §9.2).  Each step
    writes into `out` or `tmp` in the order the expression is written, so
    every float rounds as in it.  Component-major (k, N) arrays keep each
    reduction over a component's points on contiguous memory.
    """
    det = a * c - b * b
    # an infinite or NaN entry makes det infinite or NaN too
    bad = ~((a > 0) & (det > 0) & np.isfinite(det))
    if bad.any():
        raise SingularCovariance(f"component {int(np.argmax(bad))} covariance not SPD")
    out = np.multiply(c[:, None], dx, out=out)
    out *= dx
    tmp = np.multiply((2.0 * b)[:, None], dx, out=tmp)
    tmp *= dy
    out -= tmp
    np.multiply(a[:, None], dy, out=tmp)
    tmp *= dy
    out += tmp
    out /= det[:, None]
    out += np.log(det)[:, None]
    out += 2.0 * np.log(2.0 * np.pi)
    out *= -0.5
    return out


def _logsumexp_components(log_prob, buf, top):
    """Per point, log(sum(exp(.))) over the k components of (k, N) `log_prob`.

    SciPy's formula: the m terms equal to the column maximum are taken out,
    log1p(s / m) + log(m) + max.  `buf` and the bool `top` are overwritten.
    """
    a_max = log_prob.max(axis=0)
    np.equal(log_prob, a_max, out=top)
    # only a maximum minus itself can be invalid (inf - inf); it is zeroed
    with np.errstate(invalid="ignore"):
        np.subtract(log_prob, a_max, out=buf)
    np.exp(buf, out=buf)
    np.putmask(buf, top, 0.0)
    s = buf.sum(axis=0)
    m = top.sum(axis=0, dtype=float)
    # in place, adding in the docstring's order so each float rounds as in it
    s /= m
    log_norm = np.log1p(s, out=s)
    log_norm += np.log(m, out=m)
    log_norm += a_max
    return log_norm


def _m_step(points, resp, floor, dx, dy, tmp):
    """Weights, means and floored covariance entries a, b, c from (k, N)
    responsibilities.  The new means' offsets go into dx and dy; `resp` and
    `tmp` are overwritten."""
    n = resp.shape[1]
    nk = resp.sum(axis=1)
    nk_safe = np.maximum(nk, 1e-300)
    means = (resp @ points) / nk_safe[:, None]
    _offsets(points, means, dx, dy)
    # sums of resp·dx·dx, resp·dx·dy and resp·dy·dy, multiplied left to right
    rdx = np.multiply(resp, dx, out=tmp)
    resp *= dy
    resp *= dy
    c = resp.sum(axis=1) / nk_safe + floor
    a = np.multiply(rdx, dx, out=resp).sum(axis=1) / nk_safe + floor
    rdx *= dy
    b = rdx.sum(axis=1) / nk_safe
    return nk / n, means, a, b, c


def _em_once(points, k, rng, max_iter, rel_tol, floor):
    means = _kmeanspp_means(points, k, rng)
    weights = np.full(k, 1.0 / k)
    iso = max(float(np.var(points, axis=0).mean()), floor)
    a, b, c = np.full(k, iso), np.zeros(k), np.full(k, iso)
    # (k, N) buffers for the whole fit.  The M-step leaves the new means'
    # offsets in dx, dy for the next E-step; log_prob turns into the
    # responsibilities in place.
    dx, dy = _offsets(points, means)
    log_prob, tmp = np.empty_like(dx), np.empty_like(dx)
    top = np.empty(dx.shape, dtype=bool)

    history = []
    prev_ll = -np.inf
    for _ in range(max_iter):
        _log_gaussians(dx, dy, a, b, c, log_prob, tmp)
        log_prob += np.log(weights)[:, None]
        log_norm = _logsumexp_components(log_prob, tmp, top)
        ll = float(log_norm.sum())
        history.append(ll)
        log_prob -= log_norm
        weights, means, a, b, c = _m_step(
            points, np.exp(log_prob, out=log_prob), floor, dx, dy, tmp)

        if ll - prev_ll < rel_tol * max(abs(ll), 1.0) and np.isfinite(prev_ll):
            break
        prev_ll = ll
    return GmmModel(weights, means, _covariances(a, b, c), history[-1], tuple(history))


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
    cov = model.covariances
    log_prob = _log_gaussians(*_offsets(points, model.means),
                              cov[:, 0, 0], cov[:, 0, 1], cov[:, 1, 1])
    log_prob += np.log(np.maximum(model.weights, 1e-300))[:, None]
    return np.argmax(log_prob, axis=0)


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
            border = cluster_border(boundaries[i], boundaries[j], eps_border)
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
