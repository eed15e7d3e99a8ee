"""Structure graph construction from cluster boundaries.

Vertices are cluster centers, border midpoints between neighbor
clusters, and far bar-end points found by PCA line fitting; edges are
straight segments weighted by Euclidean length.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateCluster, EmptyBoundary
from .route import connected_components
from .segmentation import ClusterSet


class VertexKind(enum.Enum):
    CENTER = "center"
    BORDER_MID = "border_mid"
    BAR_END = "bar_end"


@dataclass(frozen=True)
class Vertex:
    id: int
    pos: np.ndarray  # (2,)
    kind: VertexKind


@dataclass(frozen=True)
class Edge:
    u: int
    v: int
    weight: float


@dataclass
class StructureGraph:
    vertices: list[Vertex]
    edges: list[Edge]  # multiset; parallel edges allowed, no self-loops
    component_count: int = 1

    def positions(self) -> dict[int, np.ndarray]:
        return {v.id: v.pos for v in self.vertices}

    def vertex_ids(self) -> list[int]:
        return [v.id for v in self.vertices]

    def degree(self, vid: int) -> int:
        return sum((e.u == vid) + (e.v == vid) for e in self.edges)

    def to_json(self):
        return {
            "vertices": [
                {"id": v.id, "kind": v.kind.value, "pos": [float(c) for c in v.pos]}
                for v in self.vertices
            ],
            "edges": [{"u": e.u, "v": e.v, "w": float(e.weight)} for e in self.edges],
            "component_count": self.component_count,
        }


@dataclass(frozen=True)
class PrincipalLine:
    point: np.ndarray  # (2,) cluster mean
    direction: np.ndarray  # unit (2,)
    eigenvalues: tuple[float, float] = (0.0, 0.0)  # (leading, minor)

    @property
    def anisotropy(self) -> float:
        """Eigenvalue gap ratio; near 0 for isotropic clusters."""
        lead, minor = self.eigenvalues
        return (lead - minor) / lead if lead > 0 else 0.0


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
    return PrincipalLine(mean, d, (float(vals[-1]), float(vals[0])))


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
    vertices: list[Vertex] = []
    edges: list[Edge] = []
    center_id: dict[int, int] = {}

    for i in range(cs.n_c):
        if len(cs.boundaries[i]) == 0:
            continue  # empty cluster contributes nothing
        vid = len(vertices)
        center_id[i] = vid
        vertices.append(Vertex(vid, cs.boundaries[i].center[:2], VertexKind.CENTER))

    for (i, j), border in sorted(cs.borders.items()):
        if not cs.neighbor_matrix[i, j] or border.midpoint is None:
            continue
        if i not in center_id or j not in center_id:
            continue
        mid_id = len(vertices)
        mid_pos = border.midpoint[:2]
        vertices.append(Vertex(mid_id, mid_pos, VertexKind.BORDER_MID))
        for c in (center_id[i], center_id[j]):
            w = float(np.linalg.norm(vertices[c].pos - mid_pos))
            edges.append(Edge(c, mid_id, w))

    for i in range(cs.n_c):
        if i not in center_id:
            continue
        cluster = cs.cluster_points(i)
        if len(cluster) < 2:
            continue
        try:
            line = fit_principal_line(cluster)
        except DegenerateCluster:
            continue
        for end in line_boundary_intersections(line, cs.boundaries[i]):
            dists = [np.linalg.norm(v.pos - end) for v in vertices]
            if dists and min(dists) <= d_min:
                continue
            vid = len(vertices)
            vertices.append(Vertex(vid, end.copy(), VertexKind.BAR_END))
            w = float(np.linalg.norm(vertices[center_id[i]].pos - end))
            edges.append(Edge(center_id[i], vid, w))

    components = connected_components(range(len(vertices)), ((e.u, e.v) for e in edges))
    return StructureGraph(vertices, edges, len(components))
