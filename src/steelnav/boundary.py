"""Non-convex boundary estimation and boundary-based membership tests.

The slicing estimator keeps, per window along each axis, the two points
at maximum mutual distance; the union over windows and axes approximates
the outer boundary of the point set without reconstructing a polygon.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import ConvexHull, QhullError, cKDTree

from .errors import EmptyBoundary, EmptyInput, InvalidAlpha

_MAX_PAIR_BLOCK = 2048  # bounds memory of the per-window farthest-pair search
_HULL_MIN_POINTS = 64  # measured: below ~60 points the plain scan beats Qhull


@dataclass(frozen=True)
class Boundary:
    points: np.ndarray  # (M, d) subset of the source cluster, d in {2, 3}
    center: np.ndarray  # (d,) mean of the SOURCE cluster, not of the boundary
    alpha_s: float

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2:
            pts = pts.reshape(0, 2)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float))

    def __len__(self):
        return self.points.shape[0]

    def to_json(self, cluster_id=None):
        d = {
            "center": [float(v) for v in self.center],
            "alpha_s": float(self.alpha_s),
            "points": [[float(v) for v in p] for p in self.points],
        }
        if cluster_id is not None:
            d["cluster_id"] = cluster_id
        return d


@dataclass(frozen=True)
class Border:
    """Shared boundary-point set between two clusters."""

    cluster_a: int
    cluster_b: int
    points: np.ndarray  # (K, d), possibly empty
    length: float  # diameter of the border point set, 0 if < 2 points
    midpoint: np.ndarray | None  # mean of border points, None when empty


def _scan_farthest_pair(pts: np.ndarray) -> tuple[int, int]:
    """Blocked O(k^2) scan; the first maximum in row-major order wins."""
    n = len(pts)
    best = (-1.0, 0, 0)
    for i0 in range(0, n, _MAX_PAIR_BLOCK):
        block = pts[i0:i0 + _MAX_PAIR_BLOCK]
        d2 = np.sum((block[:, None, :] - pts[None, :, :]) ** 2, axis=2)
        flat = int(np.argmax(d2))
        i, j = divmod(flat, n)
        val = float(d2[i, j])
        if val > best[0]:
            best = (val, i0 + i, j)
    return best[1], best[2]


def _farthest_pair(pts: np.ndarray) -> tuple[int, int]:
    """Indices of the two points at maximum mutual distance.

    Returns the lexicographically first (i, j) of the full scan.  A
    farthest pair lies on the convex hull, so from _HULL_MIN_POINTS points
    on only the hull vertices and Qhull's coplanar points are scanned.
    Coordinates whose range is exactly 0 add exactly 0 to every distance
    and are left out of the hull, so a flat 3D window gets a 2D hull.
    """
    if len(pts) >= _HULL_MIN_POINTS:
        live = np.ptp(pts, axis=0) > 0
        if np.count_nonzero(live) >= 2:
            try:
                hull = ConvexHull(pts[:, live], qhull_options="Qc")
            except QhullError:
                pass  # degenerate (e.g. collinear) input: fall back to the scan
            else:
                keep = np.union1d(hull.vertices, hull.coplanar[:, 0])
                i, j = _scan_farthest_pair(pts[keep])
                return int(keep[i]), int(keep[j])
    return _scan_farthest_pair(pts)


def default_alpha_s(points: np.ndarray) -> float:
    """2x the median nearest-neighbor spacing of the set."""
    pts = np.asarray(points, dtype=float)
    if len(pts) < 2:
        raise EmptyInput("need >= 2 points to derive alpha_s")
    tree = cKDTree(pts)
    d, _ = tree.query(pts, k=2)
    return 2.0 * float(np.median(d[:, 1]))


def ncbe(points: np.ndarray, alpha_s: float) -> Boundary:
    """Slicing boundary estimation.

    For every axis (x, y for 2D input; x, y, z for 3D) the coordinate
    range is tiled by windows of width `alpha_s` centered at
    min + i*alpha_s; each window contributes its farthest point pair.
    Output points are deduplicated members of the input, never
    synthesized coordinates.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] not in (2, 3):
        raise EmptyInput("points must have shape (N, 2) or (N, 3)")
    if len(pts) == 0:
        raise EmptyInput("empty point set")
    if not alpha_s > 0:
        raise InvalidAlpha(f"alpha_s must be > 0, got {alpha_s}")

    center = pts.mean(axis=0)
    half = alpha_s / 2
    out = []
    for axis in range(pts.shape[1]):
        coord = pts[:, axis]
        lo, hi = float(coord.min()), float(coord.max())
        n_windows = int(np.ceil(max(hi - lo, 0.0) / alpha_s)) + 1
        slices = lo + np.arange(n_windows) * alpha_s
        # Sorted-order slices, widened past rounding, then the exact mask.
        order = np.argsort(coord, kind="stable")
        sorted_c = coord[order]
        pad = 16 * np.finfo(float).eps * (abs(lo) + abs(hi) + alpha_s)
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
            i, j = _farthest_pair(window)
            out.append(window[i])
            out.append(window[j])
    uniq = np.unique(np.asarray(out), axis=0)
    return Boundary(uniq, center, alpha_s)


def _dist(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Broadcast Euclidean distance over the last axis, summed coordinate by
    coordinate (the same sums as np.linalg.norm(a - b, axis=-1))."""
    d = a[..., 0] - b[..., 0]
    sq = d * d
    for k in range(1, a.shape[-1]):
        d = a[..., k] - b[..., k]
        sq = sq + d * d
    return np.sqrt(sq)


def center_closest(points: np.ndarray, boundary: np.ndarray, center: np.ndarray,
                   m: int, rule: str = "all", tol: float = 0.0,
                   center_dist: np.ndarray | None = None) -> np.ndarray:
    """Center-closest-points membership test, one verdict per point.

    A point r is inside when its center distance d_r beats the center
    distances d_q of its `m` nearest boundary points: all of them under
    rule="all", any under rule="any".  A d_q also counts as beaten when
    d_r > 0 and (d_r - d_q) / d_r < tol.  Of boundary points equally far
    from r the lower index is nearer, as in a stable argsort.

    points (P, d); boundary (L, d) shared by all points, or (P, L, d) with
    NaN rows as padding; center (d,) or (P, d).  `center_dist`, shaped like
    `boundary` without its last axis, holds the boundary points' center
    distances when the caller has them already.
    """
    if rule not in ("all", "any"):
        raise ValueError(f"unknown rule {rule!r}")
    if m < 1:
        raise ValueError("m must be >= 1")
    r = np.atleast_2d(np.asarray(points, dtype=float))
    c = np.broadcast_to(np.asarray(center, dtype=float), r.shape)
    q = np.asarray(boundary, dtype=float)
    q = q[None] if q.ndim == 2 else q
    if q.shape[1] == 0:
        raise EmptyBoundary("boundary has no points")
    d_r = _dist(r, c)
    d_q = _dist(q, c[:, None, :]) if center_dist is None else center_dist
    d_rq = _dist(q, r[:, None, :])  # NaN on padding, which compares False
    # the m nearest by (distance, index): all within the m-th distance,
    # less the last of those tied with it when there are too many
    k = min(m, d_rq.shape[1])
    kth = np.partition(d_rq, k - 1, axis=1)[:, k - 1:k]  # NaN sorts last
    kth[np.isnan(kth)] = np.inf  # fewer than m real points: take them all
    chosen = d_rq <= kth
    excess = np.count_nonzero(chosen, axis=1, keepdims=True) - k
    if np.any(excess > 0):
        tied = d_rq == kth
        keep = np.count_nonzero(tied, axis=1, keepdims=True) - excess
        chosen &= ~tied | (np.cumsum(tied, axis=1) <= keep)
    # the verdict is monotone in d_q: "all" needs the smallest, "any" the largest
    if rule == "all":
        d_q = np.where(chosen, d_q, np.inf).min(axis=1)
    else:
        d_q = np.where(chosen, d_q, -np.inf).max(axis=1)
    inside = d_r < d_q
    if tol > 0:
        with np.errstate(divide="ignore", invalid="ignore"):
            inside |= (d_r > 0) & ((d_r - d_q) / d_r < tol)
    return inside


def point_in_boundary(b: Boundary, p: np.ndarray, m: int, rule: str = "all") -> bool:
    """Center-closest-points membership test of one point against `b`.

    `p` is inside when its distance to the cluster center beats the
    center distances of its `m` nearest boundary points: for ALL of them
    under the conservative default rule, for ANY under rule="any".
    """
    return bool(center_closest(p, b.points, b.center, m, rule)[0])


def cluster_border(a: Boundary, b: Boundary, eps_border: float,
                   cluster_a: int = 0, cluster_b: int = 1) -> Border:
    """Boundary points of each cluster within eps_border of the other's."""
    if not eps_border > 0:
        raise ValueError(f"eps_border must be > 0, got {eps_border}")
    pts = []
    if len(a) and len(b):
        tree_b = cKDTree(b.points)
        d_ab, _ = tree_b.query(a.points, k=1)
        pts.append(a.points[d_ab <= eps_border])
        tree_a = cKDTree(a.points)
        d_ba, _ = tree_a.query(b.points, k=1)
        pts.append(b.points[d_ba <= eps_border])
    if pts:
        merged = np.unique(np.vstack(pts), axis=0)
    else:
        merged = np.zeros((0, a.points.shape[1] if len(a) else 2))
    if len(merged) >= 2:
        i, j = _farthest_pair(merged)
        length = float(np.linalg.norm(merged[i] - merged[j]))
    else:
        length = 0.0
    midpoint = merged.mean(axis=0) if len(merged) else None
    return Border(cluster_a, cluster_b, merged, length, midpoint)


def are_neighbors(border: Border, l_b: float) -> bool:
    """Clusters are neighbors when they share a border of length >= l_b."""
    if not l_b > 0:
        raise ValueError(f"l_b must be > 0, got {l_b}")
    return border.length >= l_b
