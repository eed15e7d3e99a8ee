import math
import warnings

import numpy as np
import pytest

from steelnav import (
    Frame,
    PointCloud,
    RigidTransform,
    extract_plane_ransac,
    load_cloud,
    passthrough_filter,
    project_to_2d,
    transform_cloud,
    transform_point,
    voxel_downsample,
)
from steelnav.cloud import MAX_COORD, _cross
from steelnav.errors import (
    DegenerateCloud,
    InvalidLeaf,
    InvalidPoints,
    InvalidRange,
    ParseError,
    WrongFrame,
)


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return p


class TestCoordinateBound:
    def test_bound_is_inclusive(self):
        assert len(PointCloud(np.array([[MAX_COORD, -MAX_COORD, 0.0]]))) == 1
        for v in (math.nextafter(MAX_COORD, math.inf), -math.inf, math.nan):
            with pytest.raises(InvalidPoints, match=r"finite and at most 1e\+75"):
                PointCloud(np.array([[0.0, v, 0.0]]))

    def test_ransac_finite_at_the_bound(self):
        # the bound's degree-4 form: the squared norm of a cross product of
        # differences as large as 2 * MAX_COORD
        rng = np.random.default_rng(0)
        pts = np.vstack([[[-MAX_COORD, -MAX_COORD, 0.0], [MAX_COORD, -MAX_COORD, 0.0],
                          [-MAX_COORD, MAX_COORD, 0.0], [MAX_COORD, MAX_COORD, 0.0]],
                         np.column_stack([rng.uniform(-MAX_COORD, MAX_COORD, (20, 2)),
                                          np.zeros(20)])])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            plane = extract_plane_ransac(PointCloud(pts), dist_thresh=1.0, max_iters=50)
        assert plane.normal.tolist() == [0.0, 0.0, 1.0]


class TestLoadCloud:
    def test_csv_two_points(self, tmp_path):
        c = load_cloud(write(tmp_path, "a.csv", "0,0,0\n1,2,3\n"))
        assert len(c) == 2
        assert c.frame is Frame.CAMERA
        np.testing.assert_allclose(c.points[1], [1, 2, 3])

    def test_empty_csv(self, tmp_path):
        c = load_cloud(write(tmp_path, "a.csv", ""))
        assert len(c) == 0

    def test_nan_rejected_with_line(self, tmp_path):
        with pytest.raises(ParseError) as ei:
            load_cloud(write(tmp_path, "a.csv", "0,0,0\nnan,0,0\n"))
        assert ei.value.line == 2

    def test_comments_skipped(self, tmp_path):
        c = load_cloud(write(tmp_path, "a.csv", "# header\n1,1,1\n"))
        assert len(c) == 1

    def test_pcd_ascii(self, tmp_path):
        text = ("VERSION .7\nFIELDS x y z\nSIZE 4 4 4\nTYPE F F F\n"
                "COUNT 1 1 1\nWIDTH 2\nHEIGHT 1\nPOINTS 2\nDATA ascii\n"
                "0 0 0\n1 2 3\n")
        c = load_cloud(write(tmp_path, "a.pcd", text))
        assert len(c) == 2
        np.testing.assert_allclose(c.points[1], [1, 2, 3])

    def test_pcd_binary_rejected(self, tmp_path):
        text = "FIELDS x y z\nDATA binary\n"
        with pytest.raises(ParseError):
            load_cloud(write(tmp_path, "a.pcd", text))

    def test_ply_ascii(self, tmp_path):
        text = ("ply\nformat ascii 1.0\nelement vertex 2\n"
                "property float x\nproperty float y\nproperty float z\n"
                "end_header\n0 0 0\n4 5 6\n")
        c = load_cloud(write(tmp_path, "a.ply", text))
        assert len(c) == 2
        np.testing.assert_allclose(c.points[1], [4, 5, 6])

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ParseError):
            load_cloud(write(tmp_path, "a.xyz", "0 0 0\n"))


PLY_XYZ = "property float x\nproperty float y\nproperty float z\n"


class TestRowParser:
    """Column selection, skipped lines and row errors of all three formats."""

    @pytest.mark.parametrize("name,text", [
        ("a.pcd", "VERSION .7\nFIELDS x y z rgb\nDATA ascii\n0 0 0 7\n1 2 3 7\n"),
        ("a.pcd", "VERSION .7\nFIELDS z x y\nDATA ascii\n0 0 0\n3 1 2\n"),
        ("a.pcd", "VERSION .7\nFIELDS x y z\n# a comment\nDATA ascii\n0 0 0\n1 2 3\n"),
        ("a.ply", "ply\nformat ascii 1.0\nelement vertex 2\n" + PLY_XYZ +
         "property float intensity\nend_header\n0 0 0 9\n1 2 3 9\n"),
        ("a.ply", "ply\nformat ascii 1.0\nelement vertex 2\n" + PLY_XYZ +
         "element face 1\nproperty list uchar int vertex_indices\nend_header\n"
         "0 0 0\n1 2 3\n3 0 1 1\n"),
        ("a.csv", "0,0,0,5\n1,2,3,5\n"),
    ])
    def test_selects_xyz_columns(self, tmp_path, name, text):
        c = load_cloud(write(tmp_path, name, text))
        np.testing.assert_array_equal(c.points, [[0, 0, 0], [1, 2, 3]])

    @pytest.mark.parametrize("name,text,line", [
        ("a.csv", "0,0,0\n1,2\n", 2),
        ("a.pcd", "FIELDS x y z\nDATA ascii\n0 0 0\n1 2\n", 4),
        ("a.ply", "ply\nformat ascii 1.0\nelement vertex 2\n" + PLY_XYZ +
         "end_header\n0 0 0\n1 2\n", 9),
        ("a.csv", "0,0,0\n1,inf,3\n", 2),
        ("a.pcd", "FIELDS x y z\nDATA ascii\nnan 0 0\n", 3),
        ("a.ply", "ply\nformat ascii 1.0\nelement vertex 1\n" + PLY_XYZ +
         "end_header\n0 0 -inf\n", 8),
        ("a.csv", "0,0,0\n1,x,3\n", 2),
    ])
    def test_bad_row_names_its_line(self, tmp_path, name, text, line):
        with pytest.raises(ParseError) as ei:
            load_cloud(write(tmp_path, name, text))
        assert ei.value.line == line

    def test_ply_with_fewer_rows_than_declared(self, tmp_path):
        text = ("ply\nformat ascii 1.0\nelement vertex 3\n" + PLY_XYZ +
                "end_header\n0 0 0\n1 2 3\n")
        with pytest.raises(ParseError, match="expected 3 vertices, got 2"):
            load_cloud(write(tmp_path, "a.ply", text))


class TestPassthrough:
    def test_definition(self):
        c = PointCloud(np.array([[0.0, 0, 0], [5.0, 0, 0]]))
        out = passthrough_filter(c, "x", 0.0, 1.0)
        assert len(out) == 1
        np.testing.assert_allclose(out.points[0], [0, 0, 0])

    def test_wide_range_identity(self):
        rng = np.random.default_rng(0)
        c = PointCloud(rng.uniform(-1, 1, (50, 3)))
        out = passthrough_filter(c, "y", -1e9, 1e9)
        np.testing.assert_array_equal(out.points, c.points)

    def test_uniform_split_count(self):
        rng = np.random.default_rng(7)
        c = PointCloud(rng.uniform(0, 1, (1000, 3)))
        out = passthrough_filter(c, "z", 0.0, 0.5)
        # binomial(1000, 0.5) 99% CI is roughly 500 +/- 41
        assert 459 <= len(out) <= 541

    def test_bad_range(self):
        c = PointCloud(np.zeros((1, 3)))
        with pytest.raises(InvalidRange):
            passthrough_filter(c, "x", 1.0, 0.0)


class TestVoxelDownsample:
    def test_midpoint_of_two(self):
        c = PointCloud(np.array([[0.01, 0.01, 0.01], [0.03, 0.03, 0.03]]))
        out = voxel_downsample(c, 0.1)
        assert len(out) == 1
        np.testing.assert_allclose(out.points[0], [0.02, 0.02, 0.02])

    def test_grid_preserved(self):
        g = np.stack(np.meshgrid([0.0, 1, 2], [0.0, 1, 2], [0.0]),
                     axis=-1).reshape(-1, 3)
        out = voxel_downsample(PointCloud(g + 0.05), 1.0)
        assert len(out) == len(g)

    def test_per_voxel_uniqueness(self):
        rng = np.random.default_rng(3)
        c = PointCloud(rng.uniform(0, 1, (10000, 3)))
        out = voxel_downsample(c, 0.1)
        assert len(out) <= 1000
        idx = np.floor(out.points / 0.1).astype(int)
        assert len(np.unique(idx, axis=0)) == len(out)

    def test_bad_leaf(self):
        with pytest.raises(InvalidLeaf):
            voxel_downsample(PointCloud(np.zeros((1, 3))), 0.0)

    @pytest.mark.parametrize("coord,leaf", [
        (0.5, 1e-300),  # finite quotient far beyond int64
        (1e75, 1e-300),  # the quotient overflows to inf
        (2.0 ** 63, 1.0),
        (-(2.0 ** 63), 1.0),
    ])
    def test_leaf_too_small_for_int64(self, coord, leaf):
        c = PointCloud(np.array([[0.0, 0.0, 0.0], [coord, 0.0, 0.0]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidLeaf, match="too small"):
                voxel_downsample(c, leaf)

    def test_largest_voxel_index_below_int64_limit(self):
        coord = math.nextafter(2.0 ** 63, 0.0)
        out = voxel_downsample(PointCloud(np.array([[coord, -coord, 0.0]])), 1.0)
        assert out.points.tolist() == [[coord, -coord, 0.0]]

    def test_stays_in_bbox(self):
        rng = np.random.default_rng(5)
        c = PointCloud(rng.uniform(-2, 2, (500, 3)))
        out = voxel_downsample(c, 0.3)
        assert np.all(out.points >= c.points.min(axis=0) - 1e-12)
        assert np.all(out.points <= c.points.max(axis=0) + 1e-12)


class TestRansac:
    def test_known_plane_with_outliers(self):
        rng = np.random.default_rng(0)
        plane = np.column_stack([rng.uniform(0, 1, (500, 2)), np.zeros(500)])
        outliers = np.column_stack([rng.uniform(0, 1, (10, 2)), np.full(10, 5.0)])
        c = PointCloud(np.vstack([plane, outliers]))
        patch = extract_plane_ransac(c, dist_thresh=0.01, rng_seed=0)
        assert len(patch.inliers) == 500
        np.testing.assert_allclose(np.abs(patch.normal), [0, 0, 1], atol=1e-9)

    def test_exact_three_points(self):
        c = PointCloud(np.array([[0.0, 0, 0], [1.0, 0, 0], [0.0, 1, 0]]))
        patch = extract_plane_ransac(c, dist_thresh=0.001, rng_seed=1)
        assert len(patch.inliers) == 3

    def test_two_points_degenerate(self):
        with pytest.raises(DegenerateCloud):
            extract_plane_ransac(PointCloud(np.zeros((2, 3))), 0.01)

    def test_collinear_degenerate(self):
        pts = np.outer(np.linspace(0, 1, 10), [1.0, 2.0, 3.0])
        with pytest.raises(DegenerateCloud):
            extract_plane_ransac(PointCloud(pts), 0.01)

    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
    def test_collinear_degenerate_at_any_scale(self, scale):
        # every sample of a collinear cloud is degenerate relative to its
        # own spans, whatever the cloud's size
        pts = scale * (np.outer(np.linspace(0, 1, 50), [1.0, 2.0, 3.0]) + [0.3, -0.7, 0.1])
        with pytest.raises(DegenerateCloud):
            extract_plane_ransac(PointCloud(pts), 0.01 * scale)

    def test_far_in_plane_point_is_an_inlier(self):
        rng = np.random.default_rng(3)
        plate = np.column_stack([rng.uniform(0, 1, (300, 2)), np.zeros(300)])
        plate[0, 0] = 1e14
        patch = extract_plane_ransac(PointCloud(plate), 0.01, rng_seed=0)
        assert len(patch.inliers) == 300
        np.testing.assert_allclose(np.abs(patch.normal), [0, 0, 1], atol=1e-9)

    def test_cross_bit_equal_to_numpy(self):
        # spans of 1e-5 to 1e5 per pair, signs and zeros mixed
        rng = np.random.default_rng(4)
        n = 100_000
        a = rng.normal(size=(n, 3)) * 10.0 ** rng.uniform(-5, 5, (n, 1))
        b = rng.normal(size=(n, 3)) * 10.0 ** rng.uniform(-5, 5, (n, 1))
        a[::97, 1] = 0.0
        b[::89] *= -1.0
        got = np.array([_cross(u, v) for u, v in zip(a, b)])
        assert got.tobytes() == np.cross(a, b).tobytes()

    def test_seed_reproducible(self):
        rng = np.random.default_rng(2)
        c = PointCloud(np.column_stack([rng.uniform(0, 1, (200, 2)),
                                        rng.normal(0, 0.002, 200)]))
        a = extract_plane_ransac(c, 0.01, rng_seed=42)
        b = extract_plane_ransac(c, 0.01, rng_seed=42)
        np.testing.assert_array_equal(a.normal, b.normal)
        np.testing.assert_array_equal(a.inliers.points, b.inliers.points)


class TestTransforms:
    def test_identity(self):
        p = np.array([1.0, 2.0, 3.0])
        np.testing.assert_allclose(transform_point(p, RigidTransform.identity()), p)

    def test_seven_cm_offset(self):
        t = RigidTransform(np.eye(3), np.array([0.0, 0.0, -0.07]))
        np.testing.assert_allclose(transform_point(np.zeros(3), t), [0, 0, -0.07])

    def test_rotation_about_z(self):
        r = np.array([[0.0, -1, 0], [1.0, 0, 0], [0.0, 0, 1]])
        t = RigidTransform(r, np.zeros(3))
        np.testing.assert_allclose(transform_point(np.array([1.0, 0, 0]), t),
                                   [0, 1, 0], atol=1e-9)

    def test_distance_preserving(self):
        rng = np.random.default_rng(1)
        theta = 0.7
        r = np.array([[np.cos(theta), -np.sin(theta), 0],
                      [np.sin(theta), np.cos(theta), 0], [0, 0, 1.0]])
        t = RigidTransform(r, np.array([1.0, -2.0, 0.5]))
        pts = rng.uniform(-1, 1, (20, 3))
        moved = np.array([transform_point(p, t) for p in pts])
        d0 = np.linalg.norm(pts[:, None] - pts[None, :], axis=2)
        d1 = np.linalg.norm(moved[:, None] - moved[None, :], axis=2)
        np.testing.assert_allclose(d0, d1, rtol=1e-9, atol=1e-9)

    def test_improper_rotation_rejected(self):
        r = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(ValueError):
            RigidTransform(r, np.zeros(3))


class TestProjection:
    def test_definition(self):
        c = PointCloud(np.array([[1.0, 2, 3]]), Frame.ROBOT_BASE)
        out = project_to_2d(c)
        np.testing.assert_allclose(out.points[0], [1, 2, 0])
        assert out.frame is Frame.PROJECTED_2D

    def test_empty(self):
        out = project_to_2d(PointCloud(np.zeros((0, 3)), Frame.ROBOT_BASE))
        assert len(out) == 0

    def test_idempotent(self):
        c = PointCloud(np.array([[1.0, 2, 3]]), Frame.ROBOT_BASE)
        once = project_to_2d(c)
        twice = project_to_2d(once)
        np.testing.assert_array_equal(once.points, twice.points)

    def test_camera_frame_rejected(self):
        with pytest.raises(WrongFrame):
            project_to_2d(PointCloud(np.zeros((1, 3)), Frame.CAMERA))

    def test_transform_cloud_retags(self):
        c = PointCloud(np.zeros((2, 3)), Frame.CAMERA)
        out = transform_cloud(c, RigidTransform.identity())
        assert out.frame is Frame.ROBOT_BASE
