"""Non-convex boundary estimation and boundary-based membership tests.

The slicing estimator keeps, per window along each axis, the two points
at maximum mutual distance; the union over windows and axes approximates
the outer boundary of the point set without reconstructing a polygon.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import EmptyInput, InvalidAlpha

_BLOCK_ELEMS = 1 << 13  # bounds each block of the pair scan (windows x rows x k)
# a window with this many survivors of the reach prune, as a round one, is
# pruned again by _fan_prune
_FAN_MIN_POINTS = 64
# axes and diagonals: the vectors of {-1, 0, 1}^d whose first nonzero is 1
_DIRECTIONS = {d: np.array([v for v in product((-1, 0, 1), repeat=d) if v > (0,) * d],
                           dtype=float)
               for d in (2, 3)}
# a fan of unit vectors pi/32 apart over a half-turn: with their negatives,
# every direction of the plane is within pi/64 of one of them
_FAN = np.array([[np.cos(t), np.sin(t)] for t in np.arange(32) * np.pi / 32])
_FAN_COS = np.cos(np.pi / 64) - 1e-12  # less the vectors' rounding


@dataclass(frozen=True)
class Boundary:
    points: np.ndarray  # (M, d) subset of the source cluster, d in {2, 3}
    center: np.ndarray  # (d,) mean of the SOURCE cluster, not of the boundary
    alpha_s: float

    def __post_init__(self):
        center = np.asarray(self.center, dtype=float)
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2:
            pts = pts.reshape(0, len(center))
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "center", center)

    def __len__(self):
        return self.points.shape[0]


@dataclass(frozen=True)
class Border:
    """Shared boundary-point set between two clusters."""

    points: np.ndarray  # (K, d), possibly empty
    length: float  # diameter of the border point set, 0 if < 2 points
    midpoint: np.ndarray | None  # mean of border points, None when empty


def _sq_dist(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Broadcast squared Euclidean distance over the last axis, summed
    coordinate by coordinate (the same sums as np.linalg.norm(a - b, axis=-1))."""
    d = a[..., 0] - b[..., 0]
    sq = d * d
    for k in range(1, a.shape[-1]):
        d = a[..., k] - b[..., k]
        sq = sq + d * d
    return sq


def _dist(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Broadcast Euclidean distance over the last axis."""
    return np.sqrt(_sq_dist(a, b))


def _farthest_pairs(pts: np.ndarray, idx: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Each window's farthest pair, as a (windows, 2) array of indices into pts.

    Window w holds the points idx[starts[w]:starts[w + 1]], the last one
    to the end of idx: one or more finite points, in increasing order.
    Its pair is the lexicographically first (i, j) of a full row-major
    scan over its ordered pairs, (i, i) for a single point.

    The scan runs only over the points whose reach, an upper bound on
    their squared distance to any other point of the window, attains
    `lower`, the largest squared distance between a point at the least and
    one at the greatest projection on one of the axes and diagonals (Akl &
    Toussaint 1978).  The reach is the distance to the window's bounding
    box's farthest corner, summed in the scan's coordinate order; it is
    exact after rounding, because rounding is monotone.  Any real pair's
    squared distance is a valid `lower`, so both points of every maximum
    pair survive, in their original order, whichever of several tied
    points stands at an end.  Boxes and ends are segmented reductions over
    all windows at once (Blelloch 1990).  A window with _FAN_MIN_POINTS
    survivors or more is pruned again by _fan_prune, and one call of
    _scan_windows then scans the survivors of all windows.
    """
    n_win = len(starts)
    counts = np.diff(np.append(starts, len(idx)))
    p = pts.take(idx, axis=0)
    proj = p @ _DIRECTIONS[p.shape[1]].T
    ends = []
    for reduce in (np.minimum, np.maximum):
        at = proj == np.repeat(reduce.reduceat(proj, starts), counts, axis=0)
        m, t = np.divmod(np.flatnonzero(at), proj.shape[1])
        end = np.empty((n_win, proj.shape[1]), dtype=np.intp)
        end[np.searchsorted(starts, m, "right") - 1, t] = m  # any of tied points will do
        ends.append(end)
    del proj, at
    lower = _sq_dist(p[ends[0]], p[ends[1]]).max(axis=1)
    far = np.maximum(p - np.repeat(np.minimum.reduceat(p, starts), counts, axis=0),
                     np.repeat(np.maximum.reduceat(p, starts), counts, axis=0) - p)
    keep = np.flatnonzero(_sq_dist(far, np.zeros(p.shape[1])) >= np.repeat(lower, counts))
    del far
    n_keep = np.bincount(np.searchsorted(starts, keep, "right") - 1, minlength=n_win)
    first = np.cumsum(n_keep) - n_keep
    live = np.ones(len(keep), dtype=bool)
    for w in np.flatnonzero(n_keep >= _FAN_MIN_POINTS):
        seg = slice(first[w], first[w] + n_keep[w])
        live[seg] = _fan_prune(p[keep[seg]], lower[w])
        n_keep[w] = np.count_nonzero(live[seg])
    keep = keep[live]
    first = np.cumsum(n_keep) - n_keep
    i, j = _scan_windows(p.take(keep, axis=0), first, n_keep)
    return idx[keep[np.column_stack([first + i, first + j])]]


def _scan_windows(q: np.ndarray, first: np.ndarray, n: np.ndarray):
    """The lexicographically first (i, j) of maximum squared distance over
    the ordered pairs of each window q[first[w]:first[w] + n[w]]: a full
    row-major scan summed by _sq_dist, (0, 0) for a single point.

    Windows are taken widest first.  Each block of windows is padded to the
    width k of its first, and holds at most _BLOCK_ELEMS pair distances
    (at least one window).  A window is padded with its first point, so a
    padded pair repeats the distance of a real pair that comes before it in
    row-major order and never wins.  A window too wide for one block is
    scanned alone, in blocks of rows under the same budget, and the
    earliest block holding its maximum wins.
    """
    i, j = np.empty(len(n), dtype=np.intp), np.empty(len(n), dtype=np.intp)
    order = np.argsort(-n, kind="stable")
    a = 0
    while a < len(order):
        k = int(n[order[a]])
        rows = min(k, max(1, _BLOCK_ELEMS // k))
        w = order[a:a + max(1, _BLOCK_ELEMS // (rows * k))]
        col = np.arange(k)
        x = q.take(first[w, None] + np.where(col < n[w, None], col, 0), axis=0)
        best = np.full(len(w), -np.inf)
        for r in range(0, k, rows):
            d2 = _sq_dist(x[:, r:r + rows, None, :], x[:, None, :, :]).reshape(len(w), -1)
            at = d2.argmax(axis=1)
            val = d2[np.arange(len(w)), at]
            up = val > best
            best[up] = val[up]
            i[w[up]], j[w[up]] = np.divmod(at[up] + r * k, k)
        a += len(w)
    return i, j


def _fan_prune(pts: np.ndarray, lower: float) -> np.ndarray:
    """Which points' fan bound attains `lower`, as a mask.

    In the plane of the two widest axes, a point's distance to another is
    at most its distance to the farthest support line of the set along the
    64 directions of _FAN and its negatives, divided by _FAN_COS; along a
    third axis, at most its distance to the farther face of the bounding
    box.  The slack covers the projections' rounding (two products and a
    sum each) and the final factor every other rounding, including that of
    the scan's sums.  The extreme points along the fan may raise `lower`.
    """
    eps = np.finfo(float).eps
    plane = np.sort(np.argsort(-np.ptp(pts, axis=0), kind="stable")[:2])
    proj = _FAN @ pts[:, plane].T  # (directions, points)
    lo, hi = proj.min(axis=1, keepdims=True), proj.max(axis=1, keepdims=True)
    slack = 8 * eps * np.abs(pts[:, plane]).sum(axis=1).max()
    reach = (np.maximum(proj - lo, hi - proj).max(axis=0) + slack) / _FAN_COS
    bound = reach * reach
    if pts.shape[1] == 3:
        c = pts[:, 3 - plane.sum()]
        far = np.maximum(c - c.min(), c.max() - c)
        bound = bound + far * far
    ext = np.zeros(len(pts), dtype=bool)
    ext[proj.argmin(axis=1)] = ext[proj.argmax(axis=1)] = True
    e = pts[ext]
    lower = max(lower, _sq_dist(e[:, None, :], e[None, :, :]).max())
    return bound * (1 + 64 * eps) >= lower


def _unique_rows(a: np.ndarray) -> np.ndarray:
    """np.unique(a, axis=0): the distinct rows in lexicographic order."""
    if len(a) == 0:
        return a
    s = a[np.lexsort(a.T[::-1])]
    first = np.ones(len(s), dtype=bool)
    first[1:] = np.any(s[1:] != s[:-1], axis=1)
    return s[first]


def _nn_dist(pts: np.ndarray) -> np.ndarray:
    """Each point's distance to its nearest other point (0 for a duplicate).

    Strip sweep (Bentley, Stanat & Williams 1977).  The points are sorted
    on (x, y, z), x the widest axis and y the next.  The y range is cut
    into strips w wide, at first twice the points' spacing in the plane of
    x and y, 2 sqrt(x extent * y extent / n).  A double strip is two
    adjacent strips; a point lies in the one or two that hold its strip,
    and _sweep runs over all double strips at once.  Two points whose y gap
    is below w share a double strip, and a distance is never below its y
    gap (see _sweep).  So a point whose best distance is below w, less a
    margin for the rounding of the strip index, has its nearest neighbor.
    The others take another pass at twice the width, over the double strips
    that hold one of them; every other point's bound is then -inf, so only
    pairs with a point left over are computed.  Where w is not finite, is
    tiny (a gap's square would be subnormal) or is over a quarter of the y
    extent, the pass is one sweep over the whole set.
    """
    n = len(pts)
    ext = np.ptp(pts, axis=0)
    axes = np.argsort(-ext, kind="stable")
    order = np.lexsort(pts[:, axes[::-1]].T)
    p = pts[order]
    y = p[:, axes[1]]
    height = float(ext[axes[1]])
    w = 2.0 * math.sqrt(float(ext[axes[0]]) * height / n)
    best = np.full(n, np.inf)
    left = np.ones(n, dtype=bool)  # points whose nearest neighbor is not yet certain
    while True:
        # below five strips a double strip holds most of the points, and a
        # second pass would repeat most of the first: one strip instead
        m = math.floor(height / w) + 1 if 1e-150 < w and 4 * w <= height else 1
        # fl(y - min) <= height, so the strip index is at most m - 1
        s = (np.floor((y - y.min()) / w).astype(np.intp) if m > 1
             else np.zeros(n, dtype=np.intp))
        lo, hi = np.maximum(s - 1, 0), np.minimum(s, max(m - 2, 0))
        key = np.column_stack([lo, hi]).ravel()
        pt = np.repeat(np.arange(n), 2)
        held = np.zeros(m, dtype=bool)
        held[key[left[pt]]] = True
        keep = held[key]
        keep[1::2] &= lo != hi  # an end strip lies in one double strip
        # stable, so each double strip's points stay in sorted order; NumPy
        # radix-sorts a dtype of 16 bits or less
        sort = np.argsort(key[keep].astype(np.min_scalar_type(m)), kind="stable")
        pt, key = pt[keep][sort], key[keep][sort]
        got = np.where(left, best, -np.inf)[pt]
        _sweep(p, pt, axes[0], axes[1], key, got)
        mine = left[pt]
        np.minimum.at(best, pt[mine], got[mine])
        if m == 1:
            break
        # (y - min) / w is rounded by under eps * height / w, and a y gap by
        # eps times itself: two points nearer than w less this margin differ
        # by under 1 in it, so they share a double strip
        left &= best >= w - 8 * np.finfo(float).eps * (w + height)
        if not left.any():
            break
        w *= 2
    out = np.empty(n)
    out[order] = best
    return out


def _sweep(p: np.ndarray, pt: np.ndarray, x_axis: int, y_axis: int,
           key: np.ndarray, best: np.ndarray) -> None:
    """Plane sweep along x within each double strip (Hinrichs, Nievergelt &
    Schorn 1988): lowers each point's `best` to its least distance to
    another point of its double strip, where that is less.

    The points are p[pt], sorted on (key, x, y, z), key the double strip,
    with one entry of `best` each; x and y are the columns x_axis and
    y_axis.  Step k compares points i and i + k unless the pair's lower
    bound g reaches the best distance so far of both: g is +inf across
    double strips, else the pair's x gap or, for two points of one x
    column, their y gap capped at the column's smaller gap to an adjacent
    column of its double strip.  A computed distance is never below g,
    because fl(sqrt(fl(t^2))) = |t| for |t| above 1e-154 and rounding is
    monotone; and g never shrinks as k grows with either point fixed.  So a
    pair left out can never lower a best, nor can any later pair
    (i, i + k') whose pairs (i, i + k) and (i + k' - k, i + k') were left
    out: the sweep keeps only the index range that can still hold a needed
    pair and ends at a step without one.
    """
    n = len(pt)
    x = p[pt, x_axis]
    new = np.concatenate([[True], (x[1:] != x[:-1]) | (key[1:] != key[:-1])])
    starts = np.flatnonzero(new)
    if len(starts) < n:  # x ties: bound pairs within a column by their y gap
        y = p[pt, y_axis]
        gaps = np.concatenate([[np.inf], np.diff(x[starts]), [np.inf]])
        gaps[1:-1][key[starts[1:]] != key[starts[:-1]]] = np.inf
        cap = np.repeat(np.minimum(gaps[:-1], gaps[1:]), np.diff(np.append(starts, n)))
    a, b = 0, n  # step k needs only the pairs (i, i + k) with a <= i < b
    for k in range(1, n):
        b = min(b, n - k)
        if a >= b:
            break
        g = x[a + k:b + k] - x[a:b]
        if len(starts) < n:
            g = np.where(g > 0, g, np.minimum(y[a + k:b + k] - y[a:b], cap[a:b]))
        need = ((g < best[a:b]) | (g < best[a + k:b + k])) & (key[a + k:b + k] == key[a:b])
        i = np.flatnonzero(need)
        if len(i) == 0:
            break
        i += a
        j = i + k
        d = _dist(p.take(pt[i], axis=0), p.take(pt[j], axis=0))
        best[i] = np.minimum(best[i], d)
        best[j] = np.minimum(best[j], d)
        a, b = max(int(i[0]) - 1, 0), int(i[-1]) + 1


def default_alpha_s(points: np.ndarray) -> float:
    """2x the median nearest-neighbor spacing of the set."""
    pts = np.asarray(points, dtype=float)
    if len(pts) < 2:
        raise EmptyInput("need >= 2 points to derive alpha_s")
    # np.median's arithmetic through np.partition: np.median imports numpy.ma
    half = len(pts) // 2
    part = np.partition(_nn_dist(pts), (half - 1, half))
    median = part[half] if len(pts) % 2 else (part[half - 1] + part[half]) / 2
    return 2.0 * float(median)


def _windows(coord: np.ndarray, lo: float, hi: float,
             alpha_s: float) -> tuple[np.ndarray, np.ndarray]:
    """The nonempty windows of one axis, for _farthest_pairs: the indices
    of their points, window by window and each window's in increasing
    order, and where each window starts among them.

    The windows are `alpha_s` wide, centered at lo + i*alpha_s; a point
    lies in each one whose center is at most alpha_s / 2 away.  lo and hi
    are the least and greatest coordinate.
    """
    n_windows = int(np.ceil(max(hi - lo, 0.0) / alpha_s)) + 1
    # a point's windows are among its nearest and that one's two neighbours
    near = np.rint((coord - lo) / alpha_s).astype(np.int64)
    inside = np.empty((len(coord), 3), dtype=bool)
    for k in range(3):
        win = near + (k - 1)
        inside[:, k] = ((np.abs(coord - (lo + win * alpha_s)) <= alpha_s / 2)
                        & (win >= 0) & (win < n_windows))
    point, k = np.divmod(np.flatnonzero(inside), 3)
    win = near[point] + (k - 1)
    # stable, so each window's points stay in index order; NumPy
    # radix-sorts a dtype of 16 bits or less
    order = np.argsort(win.astype(np.min_scalar_type(n_windows)), kind="stable")
    win = win[order]
    return point[order], np.flatnonzero(np.r_[True, win[1:] != win[:-1]])


def ncbe(points: np.ndarray, alpha_s: float) -> Boundary:
    """Slicing boundary estimation.

    For every axis (x, y for 2D input; x, y, z for 3D) the coordinate
    range is tiled by windows of width `alpha_s` centered at
    min + i*alpha_s; each window contributes its farthest point pair,
    found for all windows of an axis in one pass (_farthest_pairs).
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
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    # rounding must stay far below a window, or a point's nearest window
    # could be off by more than one; a NaN or an infinity fails here too,
    # before any window pass
    pad = 16 * np.finfo(float).eps * (np.abs(lo) + np.abs(hi) + alpha_s)
    bad = np.flatnonzero(~(pad < alpha_s / 4))
    if len(bad):
        raise InvalidAlpha(f"alpha_s {alpha_s} is too small for coordinates "
                           f"in [{float(lo[bad[0]])}, {float(hi[bad[0]])}]")
    pairs = [_farthest_pairs(pts, *_windows(pts[:, axis], lo[axis], hi[axis], alpha_s))
             for axis in range(pts.shape[1])]
    uniq = _unique_rows(pts[np.concatenate(pairs).ravel()])
    return Boundary(uniq, center, alpha_s)


class CenterClosest:
    """The center-closest-points membership test (PIBC, the paper's
    Algorithm 6) against one or more boundaries, one verdict per point.

    A point r is inside a boundary when its distance d_r to that
    boundary's center beats the center distances d_q of its `m` nearest
    boundary points: all of them under rule="all", any under rule="any".
    A d_q also counts as beaten when d_r > 0 and (d_r - d_q) / d_r < tol.
    The m nearest are taken by (distance, index): all within the m-th
    distance, less the last of those tied with it when there are too many.
    A point passes when it is inside one of the `n_candidates` boundaries
    whose centers are nearest to it (every boundary, when there are fewer).

    point_sets holds the boundaries, (L_j, d) each with L_j >= 1; centers is (B, d).
    They are laid out as d coordinate planes of shape (B, max L_j), NaN on
    padding, so every distance is summed in place, plane by plane, in the
    order of _dist.
    """

    def __init__(self, point_sets: list[np.ndarray], centers: np.ndarray,
                 n_candidates: int, m: int, rule: str, tol: float = 0.0):
        if rule not in ("all", "any"):
            raise ValueError(f"unknown rule {rule!r}")
        if m < 1:
            raise ValueError("m must be >= 1")
        if n_candidates < 1:
            raise ValueError("n_candidates must be >= 1")
        self.centers = np.asarray(centers, dtype=float)
        self.n_candidates = min(n_candidates, len(point_sets))
        self.m, self.rule, self.tol = m, rule, tol
        self.planes = np.full((self.centers.shape[1], len(point_sets),
                               max(map(len, point_sets))), np.nan)
        for j, q in enumerate(point_sets):
            if len(q) == 0:  # no nearest points: rule "all" would pass every point
                raise ValueError(f"point set {j} is empty")
            self.planes[:, j, :len(q)] = q.T
        self.center_dist = _plane_norm(self.planes - self.centers.T[:, :, None])

    def __call__(self, points: np.ndarray) -> np.ndarray:
        """(P,) verdicts of (P, d) points."""
        # (d, P, B), C order so that each coordinate's plane is contiguous
        d_c = _plane_norm(np.subtract(points.T[:, :, None], self.centers.T[:, None, :],
                                      order="C"))
        cand = d_c.argsort(axis=1, kind="stable")[:, :self.n_candidates]
        q = self.planes.take(cand, axis=1)  # (d, P, candidates, max L)
        q -= points.T[:, :, None, None]
        d_rq = _plane_norm(q)
        d_r = d_c[np.arange(len(points))[:, None], cand]
        d_q = self.center_dist.take(cand, axis=0)
        k = min(self.m, d_rq.shape[-1])
        # a full sort beats np.partition on rows this short, and it shows ties
        srt = np.sort(d_rq, axis=-1)  # NaN sorts last
        kth = srt[..., k - 1:k]
        np.fmin(kth, np.inf, out=kth)  # fewer than m real points (NaN): take them all
        chosen = d_rq <= kth
        if k < d_rq.shape[-1] and (srt[..., k:k + 1] == kth).any():
            excess = np.count_nonzero(chosen, axis=-1, keepdims=True) - k
            tied = d_rq == kth
            keep = np.count_nonzero(tied, axis=-1, keepdims=True) - excess
            chosen &= ~tied | (np.cumsum(tied, axis=-1) <= keep)
        # the verdict is monotone in d_q: "all" needs the smallest, "any" the largest
        if self.rule == "all":
            d_q = d_q.min(axis=-1, where=chosen, initial=np.inf)
        else:
            d_q = d_q.max(axis=-1, where=chosen, initial=-np.inf)
        inside = d_r < d_q
        if self.tol > 0:
            with np.errstate(divide="ignore", invalid="ignore"):
                inside |= (d_r > 0) & ((d_r - d_q) / d_r < self.tol)
        return inside.any(axis=1)


def _plane_norm(diff: np.ndarray) -> np.ndarray:
    """The Euclidean norm over the first axis of `diff`, a fresh array of
    per-coordinate differences, squared and summed in place in the order
    of _dist."""
    diff *= diff
    acc = diff[0]
    for t in diff[1:]:
        acc += t
    return np.sqrt(acc, out=acc)


def cluster_border(a: Boundary, b: Boundary, eps_border: float) -> Border:
    """Boundary points of each cluster within eps_border of the other's."""
    if not eps_border > 0:
        raise ValueError(f"eps_border must be > 0, got {eps_border}")
    # an empty side gives an empty mask on both sides
    near = _dist(a.points[:, None, :], b.points[None, :, :]) <= eps_border
    merged = _unique_rows(np.vstack([a.points[near.any(axis=1)],
                                     b.points[near.any(axis=0)]]))
    if len(merged) == 0:
        return Border(merged, 0.0, None)
    # a single point is its own farthest pair, (0, 0), at length 0
    i, j = _scan_windows(merged, np.zeros(1, dtype=np.intp), np.array([len(merged)]))
    return Border(merged, float(np.linalg.norm(merged[i[0]] - merged[j[0]])),
                  merged.mean(axis=0))


def are_neighbors(border: Border, l_b: float) -> bool:
    """Clusters are neighbors when they share a border of length >= l_b."""
    if not l_b > 0:
        raise ValueError(f"l_b must be > 0, got {l_b}")
    return border.length >= l_b
