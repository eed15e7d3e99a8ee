"""Structure graph construction from cluster boundaries.

Vertices are cluster centers, border midpoints between neighbor
clusters, and far bar-end points found by PCA line fitting; edges are
straight segments weighted by Euclidean length.
"""
from __future__ import annotations

import enum
import functools
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateCluster, EmptyBoundary
from .route import Multigraph, connected_components
from .segmentation import ClusterSet


class VertexKind(enum.Enum):
    CENTER = "center"
    BORDER_MID = "border_mid"
    BAR_END = "bar_end"


@dataclass(frozen=True)
class StructureGraph(Multigraph):
    """The route's multigraph over ids 0..n-1, with each vertex's place and kind.

    `edges` are (u, v, w) tuples, a multiset with no self-loops;
    `positions[v]` is vertex v's (2,) position and `kinds[v]` its kind.
    """

    positions: tuple
    kinds: tuple

    @functools.cached_property
    def component_count(self) -> int:
        return len(connected_components(self.vertices, (e[:2] for e in self.edges)))

    def to_json(self):
        return {
            "vertices": [
                {"id": v, "kind": k.value, "pos": [float(c) for c in p]}
                for v, p, k in zip(self.vertices, self.positions, self.kinds)
            ],
            "edges": [{"u": u, "v": v, "w": float(w)} for u, v, w in self.edges],
            "component_count": self.component_count,
        }


@dataclass(frozen=True)
class PrincipalLine:
    point: np.ndarray  # (2,) cluster mean
    direction: np.ndarray  # unit (2,)


def fit_principal_line(points: np.ndarray) -> PrincipalLine:
    """Leading principal axis of a 2D point set.

    Sign convention: positive x component, ties resolved to positive y.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or len(pts) < 2:
        raise DegenerateCluster("need >= 2 points")
    mean = pts.mean(axis=0)
    cov = np.cov(pts.T)
    vals, vecs = np.linalg.eigh(cov)
    if vals[-1] <= 1e-18:
        raise DegenerateCluster("all points identical")
    d = vecs[:, -1]
    if d[0] < 0 or (d[0] == 0 and d[1] < 0):
        d = -d
    return PrincipalLine(mean, d)


def line_boundary_intersections(line: PrincipalLine, b) -> tuple[np.ndarray, np.ndarray]:
    """Boundary points at the extreme scalar projections along the line."""
    if len(b) == 0:
        raise EmptyBoundary("boundary has no points")
    pts = b.points[:, :2]
    t = (pts - line.point) @ line.direction
    return pts[int(np.argmin(t))], pts[int(np.argmax(t))]


def build_graph(cs: ClusterSet, d_min: float) -> StructureGraph:
    """Assemble the structure graph from a segmented cluster set.

    Vertex ids are stable: centers in cluster order, then border
    midpoints in (min, max) cluster-pair order, then bar ends in cluster
    order.  Bar-end candidates closer than d_min to any existing vertex
    are suppressed (a stub shorter than the robot is not traversable).
    """
    positions: list[np.ndarray] = []
    kinds: list[VertexKind] = []
    edges: list[tuple] = []
    center_id: dict[int, int] = {}

    def add_vertex(pos, kind) -> int:
        positions.append(pos)
        kinds.append(kind)
        return len(positions) - 1

    for i in range(cs.n_c):
        if len(cs.boundaries[i]) == 0:
            continue  # empty cluster contributes nothing
        center_id[i] = add_vertex(cs.boundaries[i].center[:2], VertexKind.CENTER)

    # a neighbor border is at least l_b > 0 long, so it holds points of two
    # non-empty boundaries and has a midpoint
    for (i, j), border in sorted(cs.borders.items()):
        if not cs.neighbor_matrix[i, j]:
            continue
        mid_pos = border.midpoint[:2]
        mid_id = add_vertex(mid_pos, VertexKind.BORDER_MID)
        for c in (center_id[i], center_id[j]):
            edges.append((c, mid_id, float(np.linalg.norm(positions[c] - mid_pos))))

    for i, c in center_id.items():
        try:
            line = fit_principal_line(cs.cluster_points(i))
        except DegenerateCluster:
            continue
        for end in line_boundary_intersections(line, cs.boundaries[i]):
            # positions holds this cluster's center, so the minimum exists
            if min(np.linalg.norm(p - end) for p in positions) <= d_min:
                continue
            vid = add_vertex(end.copy(), VertexKind.BAR_END)
            edges.append((c, vid, float(np.linalg.norm(positions[c] - end))))

    # every edge joins a new vertex to a center, with a finite length under
    # the coordinate bound, so Multigraph.build's edge checks would all pass
    return StructureGraph(tuple(range(len(positions))), tuple(edges),
                          tuple(positions), tuple(kinds))
