"""Deterministic synthetic generators for lattice-structure point clouds.

Each shape is a set of bar rectangles plus square junction areas; points
are sampled uniformly per rectangle at a fixed density, labeled before
noise is added, and shipped with the true rectangles and the true
structure graph as ground truth.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .cloud import Frame, PointCloud
from .errors import InvalidSpec


# NumPy's array limit for a rectangle's (n, 2) float64 samples: their size
# in bytes must fit an intp.  A count below it whose samples cannot be
# allocated is refused as well; no memory bound is set here.
_MAX_POINTS = np.iinfo(np.intp).max // (2 * np.dtype(float).itemsize)


class Shape(enum.Enum):
    CROSS = "cross"
    K = "k"
    L = "l"
    T = "t"
    I = "i"


@dataclass(frozen=True)
class BarRect:
    """Oriented rectangle: `length` along the local x axis rotated by `angle`."""

    center: np.ndarray  # (2,)
    length: float
    width: float
    angle: float  # radians

    def __post_init__(self):
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float))

    @property
    def area(self) -> float:
        return self.length * self.width


@dataclass(frozen=True)
class StructureSpec:
    shape: Shape
    bar_length: float = 1.0
    bar_width: float = 0.1
    density: float = 4000.0  # points per square meter
    noise_sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not all(map(math.isfinite, (self.bar_length, self.bar_width,
                                       self.density, self.noise_sigma))):
            raise InvalidSpec("bar dimensions, density and noise_sigma must be finite")
        if self.bar_length <= 0 or self.bar_width <= 0:
            raise InvalidSpec("bar dimensions must be positive")
        if self.density <= 0:
            raise InvalidSpec("density must be positive")
        if self.noise_sigma < 0:
            raise InvalidSpec("noise_sigma must be >= 0")
        if self.seed < 0:
            raise InvalidSpec("seed must be >= 0")


@dataclass
class GroundTruth:
    labels: np.ndarray  # per-point rectangle index, assigned pre-noise
    rects: list[BarRect]
    cross_labels: set[int]  # which rectangles are junction areas
    graph_vertices: list[np.ndarray]
    graph_edges: list[tuple[int, int]]


def _dir(angle: float) -> np.ndarray:
    return np.array([math.cos(angle), math.sin(angle)])


def _arm(angle: float, length: float, width: float, hub_half: float) -> BarRect:
    """Bar of given length attached to a hub square of half-size `hub_half`."""
    center = _dir(angle) * (hub_half + length / 2.0)
    return BarRect(center, length, width, angle)


# Arm angles of the shapes built from one hub square; the K is a vertical
# stroke (two arms) plus three arms fanning out.
_HUB_ARMS = {
    Shape.CROSS: (0.0, math.pi, math.pi / 2, -math.pi / 2),
    Shape.T: (0.0, math.pi, -math.pi / 2),
    Shape.L: (0.0, math.pi / 2),
    Shape.K: (math.pi / 2, -math.pi / 2, 0.0, math.pi / 4, -math.pi / 4),
}


def _build_shape(spec: StructureSpec):
    """Rectangles, junction labels, and the true graph for one shape."""
    length, w = spec.bar_length, spec.bar_width
    hub = w / 2.0
    origin = np.zeros(2)

    def square(at):
        return BarRect(np.asarray(at, dtype=float), w, w, 0.0)

    if spec.shape in _HUB_ARMS:
        angles = _HUB_ARMS[spec.shape]
        rects = [_arm(a, length, w, hub) for a in angles] + [square(origin)]
        cross = {len(angles)}
        verts = [origin] + [origin + _dir(a) * (hub + length) for a in angles]
        edges = [(0, i) for i in range(1, len(angles) + 1)]
    elif spec.shape is Shape.I:
        # two junction squares joined by one bar, each with stub flanges
        stub = length / 3.0
        top = np.array([0.0, hub + length / 2.0])
        bot = -top
        mid_bar = BarRect(origin, length, w, math.pi / 2)
        rects = [mid_bar, square(top), square(bot)]
        for at in (top, bot):
            for a in (0.0, math.pi):
                rects.append(BarRect(at + _dir(a) * (hub + stub / 2.0), stub, w, a))
        cross = {1, 2}
        verts = [top, bot,
                 top + _dir(0.0) * (hub + stub), top + _dir(math.pi) * (hub + stub),
                 bot + _dir(0.0) * (hub + stub), bot + _dir(math.pi) * (hub + stub)]
        edges = [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5)]
    else:
        raise InvalidSpec(f"unknown shape {spec.shape!r}")
    return rects, cross, verts, edges


def generate(spec: StructureSpec) -> tuple[PointCloud, GroundTruth]:
    """Sample the shape at `spec.density` with per-rect labels and optional noise."""
    rects, cross, verts, edges = _build_shape(spec)
    rng = np.random.default_rng(spec.seed)

    pts = []
    labels = []
    for idx, rect in enumerate(rects):
        count = spec.density * rect.area  # inf where the product overflows
        if not count <= _MAX_POINTS:
            raise InvalidSpec(f"density {spec.density!r} gives more points in one "
                              f"rectangle than a NumPy array holds ({_MAX_POINTS})")
        n = max(int(round(count)), 1)
        try:
            local = rng.uniform([-rect.length / 2, -rect.width / 2],
                                [rect.length / 2, rect.width / 2], size=(n, 2))
        except MemoryError:
            raise InvalidSpec(f"density {spec.density!r} gives more points in one "
                              f"rectangle ({n}) than memory holds") from None
        cos, sin = math.cos(rect.angle), math.sin(rect.angle)
        world = local @ np.array([[cos, sin], [-sin, cos]]) + rect.center
        pts.append(world)
        labels.append(np.full(n, idx, dtype=int))
    xy = np.vstack(pts)
    labels = np.concatenate(labels)
    if spec.noise_sigma > 0:
        xy = xy + rng.normal(0.0, spec.noise_sigma, size=xy.shape)

    cloud = PointCloud(np.column_stack([xy, np.zeros(len(xy))]), Frame.PROJECTED_2D)
    truth = GroundTruth(labels, rects, cross, verts, edges)
    return cloud, truth
