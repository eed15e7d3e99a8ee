"""Independent reference implementations used only by the test suite.

Deliberately naive: Bellman-Ford, full pairing enumeration, a pairing
table over every vertex subset, ray-casting point-in-polygon,
rectangle-union containment, a from-scratch adjusted Rand index, an
all-pairs farthest pair, per-window slicing boundary points, a per-point
center-closest test, per-component Cholesky Gaussian log-densities and EM
M-steps and a whole EM fit built from them, SciPy k-d tree nearest
neighbors and cluster borders, and an RRT planner that keeps one
configuration object per tree node.  None of these share
code with the package under test; the reference planner takes the
package's containment checker as its validity test, and the EM fits take
its k-means++ seeding.  The EM iteration that allocates a temporary per
step is kept verbatim as the bit-exact rounding reference for the
package's in-place kernel, and the RANSAC plane fit that scores every
sample (with the package's scalar cross product) as the reference for the
package's fit, which stops sampling once a plane holds every point.
The slicing boundary estimator that prunes and scans one window at a time
(with the package's bounds, fan prune and pair scan) is kept verbatim,
but for names, as the bit-exact reference for the package's batched pass,
and the row parser that converts one row at a time as the reference for
its bulk parser, as is the `cloud.csv` formatter that converts one NumPy
element at a time for synth's.  The RRT samples drawn from one block of 4n
doubles are the reference for the planner's, drawn in blocks of a fixed
size.  The pairing table over every vertex subset is kept verbatim, but
for its name, as the bit-exact reference for the package's top-down
pairing, which visits only the subsets that pairing the lowest vertex
first leaves.
"""
import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree
from scipy.special import logsumexp

from steelnav.boundary import (
    _DIRECTIONS,
    Boundary,
    _fan_prune,
    _scan_windows,
    _sq_dist as _np_sq_dist,
    _unique_rows,
)
from steelnav.cloud import PlanePatch, PointCloud, _cross
from steelnav.errors import (
    DegenerateCloud,
    DisconnectedEndpoints,
    EmptyInput,
    GoalInvalid,
    InvalidAlpha,
    NoPathFound,
    NoPlane,
    ParseError,
    SingularCovariance,
    StartInvalid,
)
from steelnav.segmentation import GmmModel, _kmeanspp_means


def bellman_ford(vertices, edges, src):
    """Shortest distances from src over undirected weighted edges."""
    dist = {v: float("inf") for v in vertices}
    dist[src] = 0.0
    for _ in range(len(vertices) - 1):
        changed = False
        for u, v, w in edges:
            if dist[u] + w < dist[v]:
                dist[v] = dist[u] + w
                changed = True
            if dist[v] + w < dist[u]:
                dist[u] = dist[v] + w
                changed = True
        if not changed:
            break
    return dist


def enumerate_pairings(items):
    """Yield every perfect pairing of an even-sized list."""
    items = list(items)
    if not items:
        yield []
        return
    first = items[0]
    for i in range(1, len(items)):
        rest = items[1:i] + items[i + 1:]
        for sub in enumerate_pairings(rest):
            yield [(first, items[i])] + sub


def min_pairing_cost(items, metric):
    best = float("inf")
    for pairing in enumerate_pairings(list(items)):
        cost = sum(metric[(a, b)] for a, b in pairing)
        best = min(best, cost)
    return best


def bitmask_pairing(odd, metric):
    """Minimum-weight perfect pairing of `odd` by a bottom-up table over all
    2^n vertex subsets, the lowest vertex of each paired first."""
    odd = sorted(odd)
    n = len(odd)

    def d(i, j):
        val = metric[(odd[i], odd[j])]
        if not np.isfinite(val):
            raise DisconnectedEndpoints(
                f"no finite distance between {odd[i]!r} and {odd[j]!r}")
        return val

    full = (1 << n) - 1
    best = [float("inf")] * (full + 1)
    choice = [None] * (full + 1)
    best[0] = 0.0
    for mask in range(1, full + 1):
        if bin(mask).count("1") % 2:
            continue
        i = (mask & -mask).bit_length() - 1
        for j in range(i + 1, n):
            if not mask & (1 << j):
                continue
            sub = mask & ~(1 << i) & ~(1 << j)
            cost = best[sub] + d(i, j)
            if cost < best[mask]:
                best[mask] = cost
                choice[mask] = (i, j)
    pairs = []
    mask = full
    while mask:
        i, j = choice[mask]
        pairs.append((odd[i], odd[j]))
        mask &= ~(1 << i) & ~(1 << j)
    return pairs, float(best[full])


def point_in_polygon(p, polygon):
    """Ray casting; polygon is an ordered (K, 2) array of vertices."""
    x, y = float(p[0]), float(p[1])
    inside = False
    k = len(polygon)
    for i in range(k):
        x1, y1 = polygon[i]
        x2, y2 = polygon[(i + 1) % k]
        if (y1 > y) != (y2 > y):
            xi = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
            if x < xi:
                inside = not inside
    return inside


def dist_to_polygon_edge(p, polygon):
    """Unsigned distance from p to the polygon outline."""
    p = np.asarray(p, dtype=float)
    best = float("inf")
    k = len(polygon)
    for i in range(k):
        a = np.asarray(polygon[i], dtype=float)
        b = np.asarray(polygon[(i + 1) % k], dtype=float)
        ab = b - a
        t = 0.0 if ab @ ab == 0 else np.clip((p - a) @ ab / (ab @ ab), 0.0, 1.0)
        best = min(best, float(np.linalg.norm(p - (a + t * ab))))
    return best


def rect_corners(center, length, width, angle):
    cos, sin = math.cos(angle), math.sin(angle)
    r = np.array([[cos, -sin], [sin, cos]])
    local = np.array([[length / 2, width / 2], [length / 2, -width / 2],
                      [-length / 2, -width / 2], [-length / 2, width / 2]])
    return local @ r.T + np.asarray(center, dtype=float)


class RectScene:
    """Union of oriented rectangles with exact containment and clearance."""

    def __init__(self, rects):
        # rects: iterable with .center/.length/.width/.angle
        self.polys = [rect_corners(r.center, r.length, r.width, r.angle)
                      for r in rects]

    def contains(self, p):
        return any(point_in_polygon(p, poly) for poly in self.polys)

    def contains_all(self, points):
        return all(self.contains(p) for p in np.atleast_2d(points))

    def clearance(self, points):
        """Min distance of any point to the union outline.

        For points inside the union the outline may still be interior to
        another rectangle, so this is conservative (a lower bound on the
        true free-space clearance); fine for filtering test configs.
        """
        return min(
            min(dist_to_polygon_edge(p, poly) for poly in self.polys)
            for p in np.atleast_2d(points)
        )

    def exit_depth(self, points):
        """Max distance of an OUTSIDE point to the union, 0 if all inside."""
        worst = 0.0
        for p in np.atleast_2d(points):
            if not self.contains(p):
                worst = max(worst, min(dist_to_polygon_edge(p, poly)
                                       for poly in self.polys))
        return worst


def adjusted_rand_index(labels_a, labels_b):
    """ARI from the pair-counting contingency table, computed directly."""
    a = np.asarray(labels_a)
    b = np.asarray(labels_b)
    assert a.shape == b.shape
    ua, ia = np.unique(a, return_inverse=True)
    ub, ib = np.unique(b, return_inverse=True)
    table = np.zeros((len(ua), len(ub)), dtype=np.int64)
    np.add.at(table, (ia, ib), 1)

    def comb2(x):
        return x * (x - 1) // 2

    sum_cells = comb2(table).sum()
    sum_rows = comb2(table.sum(axis=1)).sum()
    sum_cols = comb2(table.sum(axis=0)).sum()
    total = comb2(len(a))
    expected = sum_rows * sum_cols / total if total else 0.0
    max_index = (sum_rows + sum_cols) / 2.0
    if max_index == expected:
        return 1.0
    return (sum_cells - expected) / (max_index - expected)


def random_connected_multigraph(rng, max_vertices=8, max_edges=14):
    """Seeded random connected weighted multigraph (spanning tree + extras)."""
    n = int(rng.integers(2, max_vertices + 1))
    vertices = list(range(n))
    edges = []
    for v in range(1, n):
        u = int(rng.integers(0, v))
        edges.append((u, v, float(rng.uniform(0.1, 5.0))))
    extra = int(rng.integers(0, max_edges - (n - 1) + 1))
    for _ in range(extra):
        u, v = rng.choice(n, size=2, replace=False)
        edges.append((int(u), int(v), float(rng.uniform(0.1, 5.0))))
    return vertices, edges


def check_route_plan(plan, vertices, edges, v_s, v_t):
    """Assert a route plan is a valid edge-covering v_s -> v_t walk.

    Checks endpoints, per-step adjacency, per-pair step counts against
    the reported edge visits, visit floor of 1, and the reported length.
    """
    walk = list(plan.walk)
    assert walk[0] == v_s and walk[-1] == v_t
    pair_of = [frozenset((u, v)) for u, v, _ in edges]
    step_counts = {}
    for a, b in zip(walk[:-1], walk[1:]):
        key = frozenset((a, b))
        assert key in pair_of, f"walk step {a}-{b} is not a graph edge"
        step_counts[key] = step_counts.get(key, 0) + 1
    assert len(plan.edge_visits) == len(edges)
    assert all(v >= 1 for v in plan.edge_visits)
    visit_counts = {}
    total = 0.0
    for (u, v, w), visits in zip(edges, plan.edge_visits):
        key = frozenset((u, v))
        visit_counts[key] = visit_counts.get(key, 0) + visits
        total += w * visits
    assert step_counts == visit_counts
    assert math.isclose(total, plan.total_length, rel_tol=1e-9, abs_tol=1e-9)


def _sq_dist(a, b):
    """Squared Euclidean distance, coordinates summed in order as plain floats."""
    return sum((float(x) - float(y)) * (float(x) - float(y)) for x, y in zip(a, b))


def _dist(a, b):
    return math.sqrt(_sq_dist(a, b))


def farthest_pair(points):
    """Lexicographically first (i, j), i < j, of maximum squared distance;
    None for fewer than two points.

    The all-pairs table in blocks of 256 rows, each squared distance
    summed coordinate by coordinate in order; the first maximum in
    row-major order above the diagonal wins.
    """
    p = np.asarray(points, dtype=float)
    n, rows = len(p), 256
    best, pair = -1.0, None
    for i0 in range(0, n, rows):
        block = p[i0:i0 + rows]
        d2 = np.zeros((len(block), n))
        for k in range(p.shape[1]):
            d = block[:, k, None] - p[None, :, k]
            d2 += d * d
        d2[np.arange(i0, i0 + len(block))[:, None] >= np.arange(n)] = -1.0
        flat = int(d2.argmax())
        if d2.flat[flat] > best:
            best, pair = float(d2.flat[flat]), (i0 + flat // n, flat % n)
    return pair


def center_closest(point, boundary, center, m, rule="all", tol=0.0):
    """One point against one boundary, looping over its m nearest points.

    Boundary points equally far from `point` are taken in index order.
    """
    d_r = _dist(point, center)
    order = sorted(range(len(boundary)), key=lambda i: (_dist(point, boundary[i]), i))
    verdicts = []
    for i in order[:m]:
        d_q = _dist(boundary[i], center)
        verdicts.append(d_r < d_q or (d_r > 0 and (d_r - d_q) / d_r < tol))
    return all(verdicts) if rule == "all" else any(verdicts)


def nearest_neighbor_dist(points):
    """Each point's distance to its nearest other point, from a k-d tree."""
    return cKDTree(points).query(points, k=2)[0][:, 1]


def cluster_border(a_points, b_points, eps_border):
    """Merged border points, length and midpoint through k-d tree queries."""
    d_ab = cKDTree(b_points).query(a_points, k=1)[0]
    d_ba = cKDTree(a_points).query(b_points, k=1)[0]
    merged = np.unique(np.vstack([a_points[d_ab <= eps_border],
                                  b_points[d_ba <= eps_border]]), axis=0)
    if len(merged) < 2:
        length = 0.0
    else:
        i, j = farthest_pair(merged)
        length = float(np.linalg.norm(merged[i] - merged[j]))
    return merged, length, merged.mean(axis=0) if len(merged) else None


def ncbe_points(points, alpha_s):
    """Slicing boundary points as a set, one full mask per window."""
    out = set()
    for axis in range(points.shape[1]):
        coord = points[:, axis]
        lo, hi = float(coord.min()), float(coord.max())
        for i in range(int(math.ceil((hi - lo) / alpha_s)) + 1):
            window = points[np.abs(coord - (lo + i * alpha_s)) <= alpha_s / 2]
            if len(window) == 1:
                out.add(tuple(window[0]))
            elif len(window) > 1:
                a, b = farthest_pair(window)
                out.update((tuple(window[a]), tuple(window[b])))
    return out


_PRUNE_MIN_POINTS = 64  # measured: pruning first pays from about 50-70 points


def window_farthest_pair(pts):
    """Indices of the two points at maximum mutual distance.

    Returns the lexicographically first (i, j) of the full scan.  From
    _PRUNE_MIN_POINTS points on, the scan runs only over the points whose
    reach, an upper bound on their squared distance to any other point,
    attains `lower`, the largest squared distance among the extreme points
    along the axes and diagonals (Akl & Toussaint 1978).  The first reach
    is the distance to the bounding box's farthest corner, summed in the
    scan's coordinate order; it is exact after rounding, because rounding
    is monotone.  Where that leaves _PRUNE_MIN_POINTS or more points, as
    on a round window, _fan_prune bounds those again.  Both points of every
    maximum pair are kept, in their original order.
    """
    keep = np.arange(len(pts))
    if len(pts) >= _PRUNE_MIN_POINTS:
        proj = pts @ _DIRECTIONS[pts.shape[1]].T
        ext = pts[np.concatenate([proj.argmin(axis=0), proj.argmax(axis=0)])]
        lower = _np_sq_dist(ext[:, None, :], ext[None, :, :]).max()
        far = np.maximum(pts - pts.min(axis=0), pts.max(axis=0) - pts)
        keep = np.flatnonzero(_np_sq_dist(far, np.zeros(pts.shape[1])) >= lower)
        if len(keep) >= _PRUNE_MIN_POINTS:
            keep = keep[_fan_prune(pts[keep], lower)]
    i, j = _scan_windows(pts[keep], np.zeros(1, dtype=np.intp), np.array([len(keep)]))
    return int(keep[i[0]]), int(keep[j[0]])


def per_window_ncbe(points, alpha_s):
    """Slicing boundary estimation.

    For every axis (x, y for 2D input; x, y, z for 3D) the coordinate
    range is tiled by windows of width `alpha_s` centered at
    min + i*alpha_s; each window contributes its farthest point pair.
    Output points are deduplicated members of the input, never
    synthesized coordinates.  Raises InvalidAlpha when alpha_s is not
    finite and positive, or too small for the rounding of the coordinates.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] not in (2, 3):
        raise EmptyInput("points must have shape (N, 2) or (N, 3)")
    if len(pts) == 0:
        raise EmptyInput("empty point set")
    if not 0 < alpha_s < np.inf:
        raise InvalidAlpha(f"alpha_s must be finite and > 0, got {alpha_s}")

    center = pts.mean(axis=0)
    half = alpha_s / 2
    out = []
    for axis in range(pts.shape[1]):
        coord = pts[:, axis]
        lo, hi = float(coord.min()), float(coord.max())
        pad = 16 * np.finfo(float).eps * (abs(lo) + abs(hi) + alpha_s)
        # rounding must stay far below a window, or a point's nearest
        # window below could be off by more than one
        if not pad < alpha_s / 4:
            raise InvalidAlpha(f"alpha_s {alpha_s} is too small for coordinates "
                               f"in [{lo}, {hi}]")
        n_windows = int(np.ceil(max(hi - lo, 0.0) / alpha_s)) + 1
        order = np.argsort(coord, kind="stable")
        sorted_c = coord[order]
        # Only windows that can hold a point: each point's nearest window
        # and its two neighbours, as most windows of a tiny alpha_s are empty.
        # Sort and drop repeats by hand: the first np.unique call of a
        # process (NumPy 2.4) adds about 1 MB to its peak RSS.
        near = np.rint((sorted_c - lo) / alpha_s).astype(np.int64)
        near = np.sort(np.concatenate([near - 1, near, near + 1]).clip(0, n_windows - 1))
        slices = lo + near[np.r_[True, near[1:] != near[:-1]]] * alpha_s
        # Sorted-order slices, widened past rounding, then the exact mask.
        starts = np.searchsorted(sorted_c, slices - half - pad, "left")
        stops = np.searchsorted(sorted_c, slices + half + pad, "right")
        for sl, a, b in zip(slices, starts, stops):
            idx = order[a:b]
            window = pts[np.sort(idx[np.abs(coord[idx] - sl) <= half])]
            if len(window) == 0:
                continue
            if len(window) == 1:
                out.append(window[0])
                continue
            i, j = window_farthest_pair(window)
            out.append(window[i])
            out.append(window[j])
    uniq = _unique_rows(np.asarray(out))
    return Boundary(uniq, center, alpha_s)


def per_row_parse_rows(lines, start, cols, sep, count):
    """x, y, z floats of the data rows; blank and '#' lines are skipped."""
    ix, iy, iz = cols
    need = max(cols) + 1
    pts = []
    for lineno, raw in enumerate(lines[start:], start=start + 1):
        if len(pts) == count:
            break
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        row = line.split(sep)
        if len(row) < need:
            raise ParseError(f"expected {need} columns, got {len(row)}", line=lineno)
        try:
            p = [float(row[ix]), float(row[iy]), float(row[iz])]
        except ValueError as exc:
            raise ParseError(str(exc), line=lineno) from None
        if not (math.isfinite(p[0]) and math.isfinite(p[1]) and math.isfinite(p[2])):
            raise ParseError("non-finite coordinate", line=lineno)
        pts.append(p)
    if count is not None and len(pts) != count:
        raise ParseError(f"expected {count} vertices, got {len(pts)}")
    return pts


def per_element_cloud_csv(points):
    """`cloud.csv` text of an (n, 3) array, one `repr(float(c))` per NumPy
    element: the reference for synth's formatter over Python floats."""
    return "\n".join(",".join(repr(float(c)) for c in p) for p in points) + "\n"


def log_gaussians(points, means, covariances):
    """(N, k) 2D Gaussian log-densities through per-component Cholesky factors
    and a general triangular solve."""
    out = np.empty((len(points), len(means)))
    for j in range(len(means)):
        chol = np.linalg.cholesky(covariances[j])
        sol = np.linalg.solve(chol, (points - means[j]).T)
        maha = np.sum(sol ** 2, axis=0)
        logdet = 2.0 * np.sum(np.log(np.diag(chol)))
        out[:, j] = -0.5 * (maha + logdet + 2.0 * np.log(2.0 * np.pi))
    return out


def m_step(points, resp, floor):
    """EM weights, means and floored covariances, one component at a time."""
    n, k = resp.shape
    nk = resp.sum(axis=0)
    nk_safe = np.maximum(nk, 1e-300)
    means = (resp.T @ points) / nk_safe[:, None]
    covariances = np.empty((k, 2, 2))
    for j in range(k):
        diff = points - means[j]
        cov = (resp[:, j][:, None] * diff).T @ diff / nk_safe[j]
        covariances[j] = cov + floor * np.eye(2)
    return nk / n, means, covariances


def em_once(points, k, rng, max_iter, rel_tol, floor):
    """One EM fit from the package's k-means++ seeding, with the
    per-component Cholesky E-step, SciPy's logsumexp and the per-component
    M-step above; same stopping rule as the package."""
    means = _kmeanspp_means(points, k, rng)
    weights = np.full(k, 1.0 / k)
    iso = max(float(np.var(points, axis=0).mean()), floor)
    covariances = np.tile(np.eye(2) * iso, (k, 1, 1))

    history = []
    prev_ll = -np.inf
    for _ in range(max_iter):
        log_prob = log_gaussians(points, means, covariances) + np.log(weights)
        log_norm = logsumexp(log_prob, axis=1)
        ll = float(log_norm.sum())
        history.append(ll)
        weights, means, covariances = m_step(
            points, np.exp(log_prob - log_norm[:, None]), floor)
        if ll - prev_ll < rel_tol * max(abs(ll), 1.0) and np.isfinite(prev_ll):
            break
        prev_ll = ll
    return GmmModel(weights, means, covariances, history[-1], tuple(history))


# The EM iteration written with a fresh temporary per elementwise step, kept
# verbatim as the rounding reference: the package's in-place kernel must
# reproduce every float of it bit for bit.

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
        raise SingularCovariance(int(np.argmax(bad)))
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


def allocating_em_once(points, k, rng, max_iter, rel_tol, floor):
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
    return GmmModel(weights, means, covariances, history[-1], tuple(history))



def ransac_full_scan(
    cloud: PointCloud,
    dist_thresh: float,
    max_iters: int = 500,
    rng_seed: int = 0,
    min_inlier_fraction: float = 0.2,
) -> PlanePatch:
    """RANSAC plane fit maximizing the inlier count over `max_iters` samples.

    Deterministic given `rng_seed`.  A sample is degenerate when its two
    spans a, b have |a x b| <= 1e-12 |a| |b|, a test relative to the sample
    alone, so no far point elsewhere in the cloud sways it.  Raises
    DegenerateCloud for fewer than 3 points or when every sample is
    degenerate (a collinear cloud), NoPlane when the best inlier fraction
    falls below `min_inlier_fraction`.
    """
    pts = cloud.points
    n = len(pts)
    if n < 3:
        raise DegenerateCloud(f"need >= 3 non-collinear points, got {n}")
    rng = np.random.default_rng(rng_seed)
    best_count = -1
    best = None  # (normal, offset)
    for _ in range(max_iters):
        i, j, k = rng.choice(n, size=3, replace=False)
        a, b = pts[j] - pts[i], pts[k] - pts[i]
        normal = _cross(a, b)
        norm = np.linalg.norm(normal)
        if norm <= 1e-12 * np.linalg.norm(a) * np.linalg.norm(b):
            continue
        normal = normal / norm
        offset = float(normal @ pts[i])
        count = int(np.count_nonzero(np.abs(pts @ normal - offset) <= dist_thresh))
        if count > best_count:
            best_count = count
            best = (normal, offset)
    if best is None and max_iters > 0:
        raise DegenerateCloud(f"all {max_iters} samples of {n} points are collinear")
    if best is None or best_count < min_inlier_fraction * n:
        raise NoPlane(f"best inlier fraction {max(best_count, 0) / n:.3f} "
                      f"below {min_inlier_fraction}")
    normal, offset = best
    # sign convention: first non-negligible component positive
    for c in normal:
        if abs(c) > 1e-12:
            if c < 0:
                normal, offset = -normal, -offset
            break
    mask = np.abs(pts @ normal - offset) <= dist_thresh
    inliers = PointCloud(pts[mask], cloud.frame)
    return PlanePatch(inliers, normal, offset, inliers.points.mean(axis=0))


def wrap_angle(a):
    """Normalize one angle to (-pi, pi] with scalar math."""
    a = math.fmod(a + math.pi, 2.0 * math.pi)
    if a <= 0:
        a += 2.0 * math.pi
    return a - math.pi


@dataclass(frozen=True)
class Pose:
    """Reference planner configuration, wrapped on construction."""

    x: float
    y: float
    theta: float

    def __post_init__(self):
        if not all(np.isfinite([self.x, self.y, self.theta])):
            raise ValueError("configuration must be finite")
        object.__setattr__(self, "theta", wrap_angle(self.theta))

    @property
    def xy(self):
        return np.array([self.x, self.y])


def footprint_points(c, fp):
    """Offsets of `fp` rotated by c.theta and translated to (c.x, c.y)."""
    cos, sin = math.cos(c.theta), math.sin(c.theta)
    rot = np.array([[cos, -sin], [sin, cos]])
    return fp.offsets @ rot.T + c.xy


def interp_configs(a, b, spacing):
    """Poses from a (exclusive) to b (inclusive) at <= spacing apart."""
    dist = float(np.linalg.norm(b.xy - a.xy))
    n = max(int(math.ceil(dist / spacing)), 1)
    dtheta = wrap_angle(b.theta - a.theta)
    return [
        Pose(a.x + (b.x - a.x) * t, a.y + (b.y - a.y) * t, a.theta + dtheta * t)
        for t in (i / n for i in range(1, n + 1))
    ]


def one_block_samples(seed, n, goal_bias, lo, hi):
    """RRT samples from one block of 4n `Generator.random` doubles, walked
    in order: one for the goal test, three more for a free sample."""
    draws = iter(np.random.default_rng(seed).random(4 * n).tolist())
    (lo_x, lo_y), (span_x, span_y) = lo.tolist(), (hi - lo).tolist()
    for _ in range(n):
        if next(draws) < goal_bias:
            yield None
        else:
            yield (lo_x + span_x * next(draws), lo_y + span_y * next(draws),
                   -math.pi + 2.0 * math.pi * next(draws))


def rrt_plan(start, goal, fp, params, seed, checker):
    """RRT over `checker`-valid poses with one Pose object per tree node.

    Returns the path as a list of Poses; raises like the package planner.
    """
    if not checker.points_inside(footprint_points(start, fp)).all():
        raise StartInvalid(f"start configuration {start} fails PIBC")
    if not checker.points_inside(footprint_points(goal, fp)).all():
        raise GoalInvalid(f"goal configuration {goal} fails PIBC")
    if start == goal:
        return [start]

    rng = np.random.default_rng(seed)
    margin = max(fp.width, fp.length)
    lo = checker.bbox_lo - margin
    hi = checker.bbox_hi + margin

    nodes = [start]
    parents = [-1]
    states = np.empty((params.max_iters + 1, 3))
    states[0] = start.x, start.y, start.theta

    def metric(sample):
        s = states[:len(nodes)]
        d_xy = np.hypot(s[:, 0] - sample[0], s[:, 1] - sample[1])
        d_th = np.abs((s[:, 2] - sample[2] + math.pi) % (2 * math.pi) - math.pi)
        return np.hypot(d_xy, 0.3 * d_th)

    for _ in range(params.max_iters):
        if rng.random() < params.goal_bias:
            sample = np.array([goal.x, goal.y, goal.theta])
        else:
            xy = rng.uniform(lo, hi)
            sample = np.array([xy[0], xy[1], rng.uniform(-math.pi, math.pi)])

        ni = int(np.argmin(metric(sample)))
        near = nodes[ni]
        delta = sample[:2] - near.xy
        dist = float(np.linalg.norm(delta))
        if dist > params.step:
            delta = delta * (params.step / dist)
        dtheta = wrap_angle(sample[2] - near.theta)
        dtheta = max(-params.theta_step, min(params.theta_step, dtheta))
        new = Pose(near.x + delta[0], near.y + delta[1], near.theta + dtheta)

        segment = interp_configs(near, new, params.step / 2.0)
        if not checker.points_inside(
                np.vstack([footprint_points(c, fp) for c in segment])).all():
            continue

        states[len(nodes)] = new.x, new.y, new.theta
        nodes.append(new)
        parents.append(ni)

        if np.linalg.norm(new.xy - goal.xy) <= params.goal_tol:
            path = []
            i = len(nodes) - 1
            while i >= 0:
                path.append(nodes[i])
                i = parents[i]
            return path[::-1]

    raise NoPathFound(f"no path after {params.max_iters} iterations")
