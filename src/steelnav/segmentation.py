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
from .errors import InvalidPoints, SingularCovariance, TooFewPoints

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

    def cluster_points(self, i: int) -> np.ndarray:
        return self.points[self.labels == i]


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
            try:
                means[i] = points[rng.choice(n, p=d2 / total)]
            except ValueError as e:  # weights from overflowing distances
                raise InvalidPoints(str(e)) from None
        d2 = np.minimum(d2, np.sum((points - means[i]) ** 2, axis=1))
    return means


def _offsets(xy, means, dx=None, dy=None):
    """(k, N) offsets of the points from each mean, one array per coordinate;
    `xy` holds the points' x and y as its two rows."""
    return (np.subtract(xy[0], means[:, :1], out=dx),
            np.subtract(xy[1], means[:, 1:], out=dy))


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
        raise SingularCovariance(int(np.argmax(bad)))
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
    """Per point, log(sum(exp(.))) over the components: the k axis of (k, N)
    `log_prob`, or of (R, k, N) with one (k, N) block per restart.

    SciPy's formula: the m terms equal to the column maximum are taken out,
    log1p(s / m) + log(m) + max.  `buf` and the bool `top` are overwritten.
    """
    a_max = log_prob.max(axis=-2)
    col_max = a_max[..., None, :]
    np.equal(log_prob, col_max, out=top)
    # only a maximum minus itself can be invalid (inf - inf); it is zeroed
    with np.errstate(invalid="ignore"):
        np.subtract(log_prob, col_max, out=buf)
    np.exp(buf, out=buf)
    np.putmask(buf, top, 0.0)
    s = buf.sum(axis=-2)
    m = top.sum(axis=-2, dtype=float)
    # in place, adding in the docstring's order so each float rounds as in it
    s /= m
    log_norm = np.log1p(s, out=s)
    log_norm += np.log(m, out=m)
    log_norm += a_max
    return log_norm


def _m_step(points, xy, resp, k, floor, dx, dy, tmp):
    """Weights, means and floored covariance entries a, b, c from (R·k, N)
    responsibilities, one block of k rows per restart.  The new means'
    offsets go into dx and dy; `resp` and `tmp` are overwritten."""
    n = resp.shape[1]
    nk = resp.sum(axis=1)
    nk_safe = np.maximum(nk, 1e-300)
    # one product per restart: BLAS rounds a product over R·k rows otherwise
    means = np.concatenate([resp[i:i + k] @ points for i in range(0, len(resp), k)])
    means /= nk_safe[:, None]
    _offsets(xy, means, dx, dy)
    # sums of resp·dx·dx, resp·dx·dy and resp·dy·dy, multiplied left to right
    rdx = np.multiply(resp, dx, out=tmp)
    resp *= dy
    resp *= dy
    c = resp.sum(axis=1) / nk_safe + floor
    a = np.multiply(rdx, dx, out=resp).sum(axis=1) / nk_safe + floor
    rdx *= dy
    b = rdx.sum(axis=1) / nk_safe
    return nk / n, means, a, b, c


def _stops(history, max_iter, rel_tol):
    """Whether a fit with this log-likelihood history stops: at `max_iter`
    iterations, or when the last step gained less than `rel_tol` of the
    log-likelihood after a finite one."""
    if len(history) >= max_iter:
        return True
    if len(history) < 2:
        return False
    ll, prev_ll = history[-1], history[-2]
    return ll - prev_ll < rel_tol * max(abs(ll), 1.0) and np.isfinite(prev_ll)


def _em_restarts(points, k, seed, max_iter, rel_tol, restarts, floor):
    """The fit of every restart r, in restart order, each from its own
    k-means++ seeds drawn from `default_rng([seed, r])`.

    The restarts run in lockstep: the live restarts' components are the
    rows of (R·k, N) buffers, so each EM step makes every elementwise pass
    once for all of them.  Each restart keeps its own log-likelihood
    history and stopping test, and one that stops is compacted out.  Every
    float rounds as in a fit of that restart alone.  A restart fails on a
    covariance that is not SPD (SingularCovariance) or in its seeding; the
    fit raises the failure of the lowest-index restart that fails, as a
    loop over the restarts that stops at the first failure would.
    """
    n = len(points)
    xy = np.ascontiguousarray(points.T)
    seeds, failure = [], None
    for r in range(restarts):
        try:
            seeds.append(_kmeanspp_means(points, k, np.random.default_rng([seed, r])))
        except InvalidPoints as e:
            if r == 0:
                raise
            # restart r fails before its first step: only the earlier ones run
            failure = e
            break
    means = np.concatenate(seeds)
    rows = len(means)
    weights = np.full(rows, 1.0 / k)
    iso = max(float(np.var(points, axis=0).mean()), floor)
    a, b, c = np.full(rows, iso), np.zeros(rows), np.full(rows, iso)
    # (R·k, N) buffers for all the restarts, of which the live ones use the
    # first rows.  The M-step leaves the new means' offsets in dx, dy for
    # the next E-step; log_prob turns into the responsibilities in place.
    dx_buf, dy_buf = _offsets(xy, means)
    log_prob_buf, tmp_buf = np.empty_like(dx_buf), np.empty_like(dx_buf)
    top_buf = np.empty(dx_buf.shape, dtype=bool)

    live = list(range(len(seeds)))
    history = [[] for _ in live]
    fits = [None] * restarts
    while live:
        rows = len(live) * k
        dx, dy, log_prob, tmp, top = (
            buf[:rows] for buf in (dx_buf, dy_buf, log_prob_buf, tmp_buf, top_buf))
        try:
            _log_gaussians(dx, dy, a, b, c, log_prob, tmp)
        except SingularCovariance as e:
            if e.component < k:  # the lowest live restart: no earlier one can fail
                raise
            # the restarts after this one no longer matter; the earlier ones go on
            failure = SingularCovariance(e.component % k)
            del live[e.component // k:]
            rows = len(live) * k
            a, b, c, weights, means = (v[:rows] for v in (a, b, c, weights, means))
            continue
        log_prob += np.log(weights)[:, None]
        blocks = log_prob.reshape(len(live), k, n)
        log_norm = _logsumexp_components(blocks, tmp.reshape(blocks.shape),
                                         top.reshape(blocks.shape))
        for r, restart_norm in zip(live, log_norm):
            history[r].append(float(restart_norm.sum()))
        blocks -= log_norm[:, None, :]
        weights, means, a, b, c = _m_step(
            points, xy, np.exp(log_prob, out=log_prob), k, floor, dx, dy, tmp)

        stop = [_stops(history[r], max_iter, rel_tol) for r in live]
        if any(stop):
            for i in np.flatnonzero(stop):
                r, own = live[i], slice(i * k, (i + 1) * k)
                fits[r] = GmmModel(weights[own], means[own],
                                   _covariances(a[own], b[own], c[own]),
                                   history[r][-1], tuple(history[r]))
            keep = np.repeat(np.logical_not(stop), k)
            live = [r for r, done in zip(live, stop) if not done]
            rows = len(live) * k
            dx_buf[:rows], dy_buf[:rows] = dx[keep], dy[keep]
            a, b, c, weights, means = (v[keep] for v in (a, b, c, weights, means))
    if failure is not None:
        raise failure
    return fits


def em_gmm_fit(points: np.ndarray, k: int, seed: int = 0, max_iter: int = 200,
               rel_tol: float = 1e-7, restarts: int = _DEFAULT_RESTARTS) -> GmmModel:
    """Full-covariance 2D EM with k-means++ seeding and restarts.

    Deterministic given `seed`; the best of `restarts` runs by final
    log-likelihood is returned, the first on a tie.  The restarts run in
    lockstep (`_em_restarts`), each as it would alone.  Covariances carry a
    diagonal floor derived from the data scale, which keeps thin-bar fits
    from collapsing.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != 2:
        raise ValueError("points must have shape (N, 2)")
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    if k < 1 or len(points) < k:
        raise TooFewPoints(f"need at least k={k} points, got {len(points)}")

    sample_cov = np.cov(points.T) if len(points) > 1 else np.zeros((2, 2))
    floor = max(_COV_FLOOR_SCALE * float(np.trace(np.atleast_2d(sample_cov))) / 2.0,
                1e-12)
    fits = _em_restarts(points, k, seed, max_iter, rel_tol, restarts, floor)
    return max(fits, key=lambda model: model.log_likelihood)


def assign_clusters(model: GmmModel, points: np.ndarray) -> np.ndarray:
    """Hard labels by maximum posterior; ties break to the lowest index."""
    points = np.asarray(points, dtype=float)
    cov = model.covariances
    log_prob = _log_gaussians(*_offsets(points.T, model.means),
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
