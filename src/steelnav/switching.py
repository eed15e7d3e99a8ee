"""Switching-control predicates: plane, area, and height availability.

The combined decision selects mobile mode when all three hold, inch-worm
when only the height check fails, and stop otherwise.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .boundary import Boundary, center_closest
from .cloud import PointCloud, RigidTransform
from .errors import EmptyBoundary


@dataclass(frozen=True)
class FootParams:
    width: float  # w, foot rectangle width (m)
    length: float  # l, foot rectangle length (m)
    tolerance: float = 0.02  # t, relative distance tolerance
    n_anchors: int = 5  # candidate anchor points on the boundary
    m_neighbors: int = 3  # boundary points checked per test point

    def __post_init__(self):
        if self.width <= 0 or self.length <= 0:
            raise ValueError("foot dimensions must be positive")
        if self.tolerance < 0:
            raise ValueError("tolerance must be >= 0")
        if self.n_anchors < 1 or self.m_neighbors < 1:
            raise ValueError("n_anchors and m_neighbors must be >= 1")


@dataclass(frozen=True)
class SurfacePose:
    e_x: np.ndarray
    e_y: np.ndarray
    e_z: np.ndarray
    position: np.ndarray

    def __post_init__(self):
        for name in ("e_x", "e_y", "e_z"):
            v = np.asarray(getattr(self, name), dtype=float)
            if abs(np.linalg.norm(v) - 1.0) > 1e-6:
                raise ValueError(f"{name} must be a unit vector")
            object.__setattr__(self, name, v)
        for a, b in (("e_x", "e_y"), ("e_y", "e_z"), ("e_x", "e_z")):
            if abs(getattr(self, a) @ getattr(self, b)) > 1e-6:
                raise ValueError(f"{a} and {b} must be orthogonal")
        object.__setattr__(self, "position", np.asarray(self.position, dtype=float))


class Mode(enum.Enum):
    MOBILE = "mobile"
    INCHWORM = "inchworm"
    STOP = "stop"


@dataclass(frozen=True)
class SwitchDecision:
    s_pa: bool
    s_hc: bool
    mode: Mode
    pose: SurfacePose | None = None

    @property
    def s_am(self) -> bool:
        """Area availability: a standing pose was found."""
        return self.pose is not None


def plane_available(p: PointCloud | None) -> bool:
    """False iff the extracted planar cloud is empty (or absent)."""
    return p is not None and len(p) > 0


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)


@dataclass(frozen=True)
class CandidateRectangle:
    """One anchored foot rectangle and its area-check outcome."""

    anchor: np.ndarray
    corners: np.ndarray  # (4, 3)
    midpoints: np.ndarray  # (4, 3)
    pose: SurfacePose | None  # present exactly when the area check passed

    @property
    def passed(self) -> bool:
        return self.pose is not None


def area_check_candidates(b: Boundary, centroid: np.ndarray, normal: np.ndarray,
                          fp: FootParams) -> list[CandidateRectangle]:
    """Evaluate foot rectangles anchored at the boundary points nearest the centroid.

    For each anchor the local frame points e_x away from the centroid and
    e_z along the plane normal.  The w x l rectangle extends from the
    anchor toward the centroid; its 4 corners and 4 edge midpoints must
    all sit closer to the centroid than their m nearest boundary points
    (up to relative tolerance t).
    """
    if len(b) == 0:
        raise EmptyBoundary("boundary has no points")
    centroid = np.asarray(centroid, dtype=float)
    e_z = _unit(np.asarray(normal, dtype=float))

    order = np.argsort(np.linalg.norm(b.points - centroid, axis=1), kind="stable")
    anchors = b.points[order[:fp.n_anchors]]

    out = []
    for anchor in anchors:
        v = anchor - centroid
        v_in_plane = v - (v @ e_z) * e_z
        if np.linalg.norm(v_in_plane) < 1e-12:
            continue  # anchor at or straight above the centroid: no in-plane frame
        e_x = _unit(v_in_plane)
        e_y = np.cross(e_z, e_x)

        half_w = (fp.width / 2.0) * e_y
        c1 = anchor + half_w
        c2 = anchor - half_w
        c3 = c1 - fp.length * e_x  # shifted toward the centroid
        c4 = c2 - fp.length * e_x
        corners = [c1, c2, c3, c4]
        mids = [(c1 + c2) / 2, (c3 + c4) / 2, (c1 + c3) / 2, (c2 + c4) / 2]

        pose = None
        if np.all(center_closest(np.array(corners + mids), b.points, centroid,
                                 fp.m_neighbors, "all", fp.tolerance)):
            r_c = np.mean(corners, axis=0)
            position = r_c - (fp.length / 4.0) * e_y  # foot-placement bias
            pose = SurfacePose(e_x, e_y, e_z, position)
        out.append(CandidateRectangle(anchor, np.array(corners), np.array(mids), pose))
    return out


def height_available(surface_centroid_cam: np.ndarray, t_cam_to_base: RigidTransform,
                     base_height: float, tol: float) -> bool:
    """True when the surface height in the base frame matches the robot base."""
    if tol < 0:
        raise ValueError("tol must be >= 0")
    p = t_cam_to_base.apply(surface_centroid_cam)
    return abs(float(p[2]) - base_height) <= tol


def switch_decision(s_pa: bool, s_hc: bool,
                    pose: SurfacePose | None) -> SwitchDecision:
    """Mode from plane availability, height check and the standing pose.

    S_am, area availability, is the pose's presence: mobile when all three
    signals hold, inch-worm when only the height check fails, stop otherwise.
    """
    s_am = pose is not None
    if s_pa and s_am and s_hc:
        mode = Mode.MOBILE
    elif s_pa and s_am and not s_hc:
        mode = Mode.INCHWORM
    else:
        mode = Mode.STOP
    return SwitchDecision(s_pa, s_hc, mode, pose)
