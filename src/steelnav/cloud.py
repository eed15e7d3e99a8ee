"""Point cloud ingestion and geometric pre-processing.

Clouds are immutable (N, 3) float64 arrays tagged with the coordinate
frame they live in.  All operations are pure functions; randomized ones
take an explicit seed.
"""
from __future__ import annotations

import codecs
import enum
import math
from dataclasses import dataclass
from itertools import chain, islice
from operator import itemgetter
from pathlib import Path

import numpy as np

from .errors import (
    DegenerateCloud,
    InvalidLeaf,
    InvalidPoints,
    InvalidRange,
    NoPlane,
    ParseError,
    WrongFrame,
)

_AXIS_INDEX = {"x": 0, "y": 1, "z": 2}
# The largest coordinate magnitude a cloud may hold.  The highest power of a
# coordinate the pipeline forms is 4: RANSAC's squared norm of the cross
# product of two coordinate differences.  At 1e75 a difference is at most
# 2e75, a cross-product entry 8e150 and that squared norm 3 * 6.4e301, all
# finite.
MAX_COORD = 1e75


class Frame(enum.Enum):
    CAMERA = "camera"
    ROBOT_BASE = "robot_base"
    PROJECTED_2D = "projected_2d"


@dataclass(frozen=True)
class PointCloud:
    points: np.ndarray  # (N, 3) float64, all finite
    frame: Frame = Frame.CAMERA

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.size == 0:
            pts = pts.reshape(0, 3)
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise InvalidPoints("points must have shape (N, 3)")
        if not np.all(np.abs(pts) <= MAX_COORD):  # NaN compares False
            raise InvalidPoints(f"points must be finite and at most {MAX_COORD:g} "
                                f"in magnitude")
        pts = pts.copy()
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    def __len__(self):
        return self.points.shape[0]


@dataclass(frozen=True)
class PlanePatch:
    """RANSAC-extracted plane: inlier cloud plus n.p = offset model."""

    inliers: PointCloud
    normal: np.ndarray  # unit (3,)
    offset: float
    centroid: np.ndarray  # (3,), mean of inliers

    def __post_init__(self):
        n = np.asarray(self.normal, dtype=float)
        if abs(np.linalg.norm(n) - 1.0) > 1e-9:
            raise ValueError("normal must be a unit vector")
        object.__setattr__(self, "normal", n)
        object.__setattr__(self, "centroid", np.asarray(self.centroid, dtype=float))


@dataclass(frozen=True)
class RigidTransform:
    rotation: np.ndarray  # (3, 3) orthonormal, det +1
    translation: np.ndarray  # (3,)

    def __post_init__(self):
        r = np.asarray(self.rotation, dtype=float)
        t = np.asarray(self.translation, dtype=float).reshape(3)
        if r.shape != (3, 3):
            raise ValueError("rotation must be 3x3")
        if np.max(np.abs(r.T @ r - np.eye(3))) > 1e-9:
            raise ValueError("rotation must be orthonormal")
        if abs(np.linalg.det(r) - 1.0) > 1e-9:
            raise ValueError("rotation must be proper (det +1)")
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "translation", t)

    def apply(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        # an overflow gives inf, which PointCloud rejects as an InvalidPoints error
        with np.errstate(over="ignore"):
            return pts @ self.rotation.T + self.translation


def read_text(path, error_cls=ParseError) -> str:
    """The file's UTF-8 text, less a leading byte-order mark; other bytes
    raise `error_cls` with their offset in the file."""
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        # the decoder counts from after the byte-order mark it dropped
        with open(path, "rb") as f:
            start = exc.start + len(codecs.BOM_UTF8) * (f.read(3) == codecs.BOM_UTF8)
        raise error_cls(f"{path} is not UTF-8 text (byte {start})") from None


# Each header parser returns (index of the first data line, (ix, iy, iz)
# column indices, field separator, row count or None to read to the end).

def _csv_header(lines):
    return 0, (0, 1, 2), ",", None


def _pcd_header(lines):
    """Minimal PCD header: ascii data with x y z among the fields."""
    fields = None
    data_start = None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, _, rest = line.partition(" ")
        key = key.upper()
        if key == "FIELDS":
            fields = rest.split()
        elif key == "DATA":
            if rest.strip().lower() != "ascii":
                raise ParseError("only DATA ascii is supported", line=lineno)
            data_start = lineno
            break
    if fields is None or data_start is None:
        raise ParseError("missing FIELDS or DATA header")
    try:
        cols = (fields.index("x"), fields.index("y"), fields.index("z"))
    except ValueError:
        raise ParseError("FIELDS must contain x y z") from None
    return data_start, cols, None, None


def _ply_header(lines):
    """Minimal PLY header: ascii format, vertex element with x, y, z."""
    if not lines or lines[0].strip() != "ply":
        raise ParseError("not a PLY file", line=1)
    n_vertex = None
    props = []
    in_vertex = False
    header_end = None
    for lineno, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if line.startswith("format"):
            if "ascii" not in line:
                raise ParseError("only ascii PLY is supported", line=lineno)
        elif line.startswith("element"):
            parts = line.split()
            if len(parts) != 3 or not parts[2].isdecimal():
                raise ParseError("expected 'element <name> <count>'", line=lineno)
            in_vertex = parts[1] == "vertex"
            if in_vertex:
                n_vertex = int(parts[2])
        elif line.startswith("property") and in_vertex:
            props.append(line.split()[-1])
        elif line == "end_header":
            header_end = lineno
            break
    if n_vertex is None or header_end is None:
        raise ParseError("missing vertex element or end_header")
    try:
        cols = (props.index("x"), props.index("y"), props.index("z"))
    except ValueError:
        raise ParseError("vertex element must have x, y, z properties") from None
    return header_end, cols, None, n_vertex


def _parse_rows(lines, start, cols, sep, count):
    """(N, 3) x, y, z floats of the data rows; blank and '#' lines are skipped.

    The rows are split and converted in bulk, by Python's float, as one
    stream, so no split row outlives its conversion; only when that fails
    are they walked one by one for the first bad row, so each error names
    the line and gives the text of a row-by-row parse.
    """
    rows = (line.split(sep) for line in map(str.strip, lines[start:])
            if line and line[0] != "#")
    if count is not None:  # islice takes no count above sys.maxsize
        rows = islice(rows, min(count, len(lines)))
    try:  # itemgetter raises IndexError on a row that is too short
        xyz = np.fromiter(map(float, chain.from_iterable(
            map(itemgetter(*cols), rows))), dtype=float).reshape(-1, 3)
    except (IndexError, ValueError):
        xyz = None
    if xyz is None or not np.isfinite(xyz).all():
        _raise_bad_row(lines, start, cols, sep)
    if count is not None and len(xyz) != count:
        raise ParseError(f"expected {count} vertices, got {len(xyz)}")
    return xyz


def _raise_bad_row(lines, start, cols, sep):
    """Raise the ParseError of the first data row that does not parse."""
    need = max(cols) + 1
    for lineno, raw in enumerate(lines[start:], start=start + 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        row = line.split(sep)
        if len(row) < need:
            raise ParseError(f"expected {need} columns, got {len(row)}", line=lineno)
        try:
            p = [float(row[i]) for i in cols]
        except ValueError as exc:
            raise ParseError(str(exc), line=lineno) from None
        if not all(map(math.isfinite, p)):
            raise ParseError("non-finite coordinate", line=lineno)
    raise AssertionError("every data row parses")


_HEADERS = {"csv": _csv_header, "pcd": _pcd_header, "ply": _ply_header}


def load_cloud(path) -> PointCloud:
    """Load a cloud from CSV, ascii PCD, or ascii PLY, by file suffix.

    NaN/Inf coordinates are a hard ParseError (with the offending line),
    never silently dropped.
    """
    path = Path(path)
    fmt = path.suffix.lstrip(".").lower()
    if fmt not in _HEADERS:
        raise ParseError(f"unsupported format {fmt!r}")
    lines = read_text(path).splitlines()
    pts = _parse_rows(lines, *_HEADERS[fmt](lines))
    return PointCloud(np.asarray(pts, dtype=float).reshape(-1, 3), Frame.CAMERA)


def passthrough_filter(cloud: PointCloud, axis: str, lo: float, hi: float) -> PointCloud:
    """Keep points whose coordinate on `axis` lies in [lo, hi]."""
    if axis not in _AXIS_INDEX:
        raise InvalidRange(f"unknown axis {axis!r}")
    if lo > hi:
        raise InvalidRange(f"lo ({lo}) > hi ({hi})")
    coord = cloud.points[:, _AXIS_INDEX[axis]]
    mask = (coord >= lo) & (coord <= hi)
    return PointCloud(cloud.points[mask], cloud.frame)


def voxel_downsample(cloud: PointCloud, leaf: float) -> PointCloud:
    """Replace each occupied voxel of side `leaf` by the centroid of its members.

    Output is sorted by voxel index, which makes the operation
    deterministic regardless of input order.
    """
    if leaf <= 0:
        raise InvalidLeaf(f"leaf must be > 0, got {leaf}")
    if len(cloud) == 0:
        return cloud
    with np.errstate(over="ignore"):
        scaled = np.floor(cloud.points / leaf)
    if not np.abs(scaled).max() < 2.0 ** 63:  # also false on inf and NaN
        raise InvalidLeaf(f"leaf {leaf} is too small: voxel indices overflow int64")
    idx = scaled.astype(np.int64)
    uniq, inverse = np.unique(idx, axis=0, return_inverse=True)
    sums = np.zeros((len(uniq), 3))
    np.add.at(sums, inverse, cloud.points)
    counts = np.bincount(inverse, minlength=len(uniq)).astype(float)
    return PointCloud(sums / counts[:, None], cloud.frame)


def _cross(a, b):
    """a × b for two 3-vectors: np.cross's formula and rounding in scalar
    arithmetic, without its per-call array overhead."""
    a0, a1, a2 = a.tolist()
    b0, b1, b2 = b.tolist()
    return np.array([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0])


def extract_plane_ransac(
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

    Sampling stops once a plane holds every point: a later sample is
    adopted only when it holds more, so the plane, its inliers and every
    error are those of scoring all `max_iters` samples.
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
            if count == n:
                break
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


def transform_cloud(cloud: PointCloud, t: RigidTransform) -> PointCloud:
    """The cloud moved by t, in the robot's base frame."""
    return PointCloud(t.apply(cloud.points), Frame.ROBOT_BASE)


def project_to_2d(cloud: PointCloud) -> PointCloud:
    """Drop z (set to 0) and retag as PROJECTED_2D.  Idempotent."""
    if cloud.frame not in (Frame.ROBOT_BASE, Frame.PROJECTED_2D):
        raise WrongFrame(f"cannot project from frame {cloud.frame}")
    pts = cloud.points.copy()
    pts[:, 2] = 0.0
    return PointCloud(pts, Frame.PROJECTED_2D)
