import itertools

import numpy as np
import pytest

from steelnav import (
    Boundary,
    FootParams,
    Mode,
    PointCloud,
    RigidTransform,
    SurfacePose,
    center_closest,
    height_available,
    ncbe,
    plane_available,
    switch_decision,
)
from steelnav.switching import area_check_candidates
from steelnav.errors import EmptyBoundary

PAPER_FOOT = FootParams(width=0.2, length=0.3, tolerance=0.02,
                        n_anchors=5, m_neighbors=3)
Z_NORMAL = np.array([0.0, 0.0, 1.0])
IDENTITY = RigidTransform(np.eye(3), np.zeros(3))


def first_pose(b, centroid, normal, fp):
    """The pose of the first passing candidate, as `cli` picks it; None if none passes."""
    return next((c.pose for c in area_check_candidates(b, centroid, normal, fp)
                 if c.passed), None)


def plane_boundary(side, n=8000, seed=0, z=0.0):
    """NCBE boundary of a square side x side patch in the z=z plane."""
    rng = np.random.default_rng(seed)
    xy = rng.uniform(-side / 2, side / 2, (n, 2))
    pts = np.column_stack([xy, np.full(n, z)])
    alpha = max(side / 20, 0.01)
    return ncbe(pts, alpha), pts.mean(axis=0)


class TestPlaneAvailable:
    def test_empty(self):
        assert not plane_available(PointCloud(np.zeros((0, 3))))

    def test_none(self):
        assert not plane_available(None)

    def test_non_empty(self):
        assert plane_available(PointCloud(np.zeros((5, 3))))


class TestAreaCheck:
    def test_sufficient_square(self):
        b, centroid = plane_boundary(1.0)
        pose = first_pose(b, centroid, Z_NORMAL, PAPER_FOOT)
        assert pose is not None
        r = np.column_stack([pose.e_x, pose.e_y, pose.e_z])
        np.testing.assert_allclose(r.T @ r, np.eye(3), rtol=0, atol=1e-6)

    def test_insufficient_square(self):
        b, centroid = plane_boundary(0.05, n=500)
        pose = first_pose(b, centroid, Z_NORMAL, PAPER_FOOT)
        assert pose is None

    def test_circle_anchor_frame(self):
        # anchor at (1,0,0), centroid at origin, normal +z:
        # e_x points from centroid to anchor, e_y = e_z x e_x
        th = np.linspace(0, 2 * np.pi, 720, endpoint=False)
        pts = np.column_stack([np.cos(th), np.sin(th), np.zeros_like(th)])
        b = Boundary(pts, np.zeros(3), 0.05)
        fp = FootParams(width=0.2, length=0.3, n_anchors=720, m_neighbors=3)
        cands = area_check_candidates(b, np.zeros(3), Z_NORMAL, fp)
        at_1_0 = [c for c in cands
                  if np.allclose(c.anchor, [1, 0, 0], atol=1e-9)]
        assert at_1_0
        passing = [c for c in cands if c.passed]
        assert passing
        pose = passing[0].pose
        anchor_dir = passing[0].anchor / np.linalg.norm(passing[0].anchor)
        np.testing.assert_allclose(pose.e_x, anchor_dir, atol=1e-9)
        np.testing.assert_allclose(pose.e_z, Z_NORMAL, atol=1e-9)
        np.testing.assert_allclose(pose.e_y, np.cross(Z_NORMAL, pose.e_x),
                                   atol=1e-9)

    def test_accepted_rectangle_interior_passes_pibc_all_rule(self):
        # the anchor edge sits on the boundary, so only strictly interior
        # points of an accepted rectangle must satisfy strict membership
        b, centroid = plane_boundary(1.0, seed=3)
        cands = area_check_candidates(b, centroid, Z_NORMAL, PAPER_FOOT)
        accepted = [c for c in cands if c.passed]
        assert accepted
        for cand in accepted:
            interior = np.vstack([cand.corners.mean(axis=0),
                                  cand.corners[2:].mean(axis=0)])
            for r in interior:
                assert center_closest(r, b.points, b.center, PAPER_FOOT.m_neighbors,
                                      "all")[0]

    def test_rigid_invariance(self):
        b, centroid = plane_boundary(1.0, seed=4)
        theta = 0.6
        rot = np.array([
            [np.cos(theta), -np.sin(theta), 0],
            [np.sin(theta), np.cos(theta), 0],
            [0, 0, 1.0],
        ])
        shift = np.array([2.0, -1.0, 0.5])
        b2 = Boundary(b.points @ rot.T + shift, rot @ b.center + shift,
                      b.alpha_s)
        pose1 = first_pose(b, centroid, Z_NORMAL, PAPER_FOOT)
        pose2 = first_pose(b2, rot @ centroid + shift, rot @ Z_NORMAL, PAPER_FOOT)
        assert (pose1 is None) == (pose2 is None)
        if pose1 is not None:
            np.testing.assert_allclose(rot @ pose1.position + shift,
                                       pose2.position, atol=1e-6)
            np.testing.assert_allclose(rot @ pose1.e_x, pose2.e_x, atol=1e-6)

    def test_position_offset(self):
        # position = rectangle centroid - (l/4) e_y, in the local frame
        b, centroid = plane_boundary(1.0, seed=5)
        cands = area_check_candidates(b, centroid, Z_NORMAL, PAPER_FOOT)
        accepted = [c for c in cands if c.passed]
        assert accepted
        cand = accepted[0]
        r_c = cand.corners.mean(axis=0)
        expected = r_c - (PAPER_FOOT.length / 4.0) * cand.pose.e_y
        np.testing.assert_allclose(cand.pose.position, expected, atol=1e-9)

    def test_empty_boundary(self):
        b = Boundary(np.zeros((0, 3)), np.zeros(3), 0.05)
        with pytest.raises(EmptyBoundary):
            area_check_candidates(b, np.zeros(3), Z_NORMAL, PAPER_FOOT)


class TestHeightAvailable:
    def test_zero_difference(self):
        assert height_available(np.zeros(3), IDENTITY,
                                base_height=0.0, tol=0.01)

    def test_seven_cm_lower(self):
        centroid = np.array([0.0, 0.0, -0.07])
        assert not height_available(centroid, IDENTITY,
                                    base_height=0.0, tol=0.01)

    def test_exactly_at_tolerance(self):
        centroid = np.array([0.0, 0.0, 0.01])
        assert height_available(centroid, IDENTITY,
                                base_height=0.0, tol=0.01)

    def test_transform_applied(self):
        t = RigidTransform(np.eye(3), np.array([0.0, 0.0, 0.07]))
        centroid = np.array([0.0, 0.0, -0.07])
        assert height_available(centroid, t, base_height=0.0, tol=0.001)


def unit_pose():
    return SurfacePose(np.array([1.0, 0, 0]), np.array([0.0, 1, 0]),
                       np.array([0.0, 0, 1]), np.zeros(3))


class TestSwitchDecision:
    def test_truth_table(self):
        expected = {
            (True, True, True): Mode.MOBILE,
            (True, True, False): Mode.INCHWORM,
        }
        for s_pa, s_am, s_hc in itertools.product([False, True], repeat=3):
            pose = unit_pose() if s_am else None
            d = switch_decision(s_pa, s_hc, pose)
            assert d.mode is expected.get((s_pa, s_am, s_hc), Mode.STOP)
            assert (d.pose is not None) == s_am
            assert d.s_am == s_am

    def test_pose_consistency_enforced(self):
        # S_am is read from the pose, so the two cannot disagree: a call
        # that passes S_am next to the pose is refused
        with pytest.raises(TypeError):
            switch_decision(True, True, True, None)
        for pose in (None, unit_pose()):
            d = switch_decision(True, True, pose)
            assert d.s_am == (pose is not None)

    def test_non_orthonormal_pose_rejected(self):
        with pytest.raises(ValueError):
            SurfacePose(np.array([1.0, 0, 0]), np.array([1.0, 0, 0]),
                        np.array([0.0, 0, 1]), np.zeros(3))
