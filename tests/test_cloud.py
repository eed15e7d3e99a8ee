import codecs
import math
import warnings

import numpy as np
import pytest

from steelnav import (
    Frame,
    PointCloud,
    RigidTransform,
    Shape,
    StructureSpec,
    extract_plane_ransac,
    generate,
    load_cloud,
    passthrough_filter,
    project_to_2d,
    transform_cloud,
    voxel_downsample,
)
from steelnav import cloud
from steelnav.cloud import MAX_COORD, _cross
from steelnav.errors import (
    DegenerateCloud,
    InvalidLeaf,
    InvalidPoints,
    InvalidRange,
    NoPlane,
    ParseError,
    WrongFrame,
)

import oracles


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

    @pytest.mark.parametrize("name,text", [
        ("a.csv", "0,0,0\n1,2,3\n"),
        ("a.pcd", "FIELDS x y z\nDATA ascii\n0 0 0\n1 2 3\n"),
        ("a.ply", "ply\nformat ascii 1.0\nelement vertex 2\nproperty float x\n"
         "property float y\nproperty float z\nend_header\n0 0 0\n1 2 3\n"),
    ])
    def test_byte_order_mark_is_dropped(self, tmp_path, name, text):
        path = tmp_path / name
        path.write_bytes(codecs.BOM_UTF8 + text.encode())
        np.testing.assert_array_equal(load_cloud(path).points, [[0, 0, 0], [1, 2, 3]])

    @pytest.mark.parametrize("prefix", [b"", codecs.BOM_UTF8])
    def test_bad_byte_offset_counts_from_the_file_start(self, tmp_path, prefix):
        path = tmp_path / "a.csv"
        path.write_bytes(prefix + b"0,0,0\n\xff\n")
        with pytest.raises(ParseError) as ei:
            load_cloud(path)
        assert str(ei.value) == f"{path} is not UTF-8 text (byte {len(prefix) + 6})"


PLY_XYZ = "property float x\nproperty float y\nproperty float z\n"


def random_field(rng):
    """One number in one of the spellings Python's float accepts."""
    x = float(rng.normal() * 10.0 ** rng.integers(-8, 9))
    spell = rng.integers(8)
    if spell == 0:
        return repr(x)
    if spell == 1:
        return f"{x:.6e}"
    if spell == 2:
        return f"{x:+.3E}"
    if spell == 3:
        return f"{rng.integers(1, 99)}_{rng.integers(0, 999):03d}"  # 1_0 is 10
    if spell == 4:
        return str(int(rng.integers(-9, 10)))
    if spell == 5:
        return rng.choice(["-0", "-0.0", "+0.", ".5", "5.", "-.25e-3"])
    if spell == 6:
        return f"{x:.17g}".upper()
    return f"{x!r}".replace("e", "E")


def random_cloud_text(fmt, seed, rows=60):
    """A valid cloud with padded fields, extra columns, blank and '#' lines
    between the rows, CRLF line ends and, for PLY, face rows after the
    vertices."""
    rng = np.random.default_rng(seed)
    sep, n_cols = ",", 3
    head = []
    if fmt == "pcd":
        sep, n_cols = " ", 5
        head = ["VERSION .7", "FIELDS rgb z x i y", "SIZE 4 4 4 4 4", "DATA ascii"]
    elif fmt == "ply":
        sep, n_cols = " ", 4
        head = ["ply", "format ascii 1.0", f"element vertex {rows}", "property float y",
                "property float intensity", "property float x", "property float z",
                "element face 2", "property list uchar int vertex_indices", "end_header"]
    body = []
    for _ in range(rows):
        extra = int(rng.integers(3)) if fmt == "csv" else 0
        fields = [random_field(rng) for _ in range(n_cols + extra)]
        if sep == ",":
            fields = [" " * int(rng.integers(2)) + f + "\t" * int(rng.integers(2))
                      for f in fields]
            row = ",".join(fields)
        else:
            gaps = rng.choice([" ", "  ", "\t", " \t "], len(fields))
            row = "".join(f + g for f, g in zip(fields, gaps)).rstrip()
        body.append(" " * int(rng.integers(2)) + row + " " * int(rng.integers(2)))
        if rng.uniform() < 0.15:
            body.append(rng.choice(["", "   ", "# a comment", "#1,2,3"]))
    if fmt == "ply":
        body += ["3 0 1 2", "4 0 1 2 3"]
    end = rng.choice(["\n", "\r\n"])
    return end.join(head + body) + end


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

    @pytest.mark.parametrize("name,text,line,message", [
        ("a.csv", "0,0,0\n1,2\n", 2, "expected 3 columns, got 2"),
        ("a.pcd", "FIELDS x y z\nDATA ascii\n0 0 0\n1 2\n", 4, "expected 3 columns, got 2"),
        ("a.ply", "ply\nformat ascii 1.0\nelement vertex 2\n" + PLY_XYZ +
         "end_header\n0 0 0\n1 2\n", 9, "expected 3 columns, got 2"),
        ("a.csv", "0,0,0\n1,inf,3\n", 2, "non-finite coordinate"),
        ("a.pcd", "FIELDS x y z\nDATA ascii\nnan 0 0\n", 3, "non-finite coordinate"),
        ("a.ply", "ply\nformat ascii 1.0\nelement vertex 1\n" + PLY_XYZ +
         "end_header\n0 0 -inf\n", 8, "non-finite coordinate"),
        ("a.csv", "0,0,0\n1,x,3\n", 2, "could not convert string to float: 'x'"),
        # the first bad row wins, whatever is wrong with a later one
        ("a.csv", "0,0,0\n1,2,y\n1,2\nnan,0,0\n", 2,
         "could not convert string to float: 'y'"),
        ("a.csv", "0,0,0\n1,2,nan\n1,2\n", 2, "non-finite coordinate"),
        ("a.csv", "0,0,0\n\n# x\n1,2\n1,x,3\n", 4, "expected 3 columns, got 2"),
        # PLY rows past the vertex count are not vertices
        ("a.ply", "ply\nformat ascii 1.0\nelement vertex 2\n" + PLY_XYZ +
         "end_header\n0 0 0\n1 x 3\n3 0 1 2\n", 9,
         "could not convert string to float: 'x'"),
    ])
    def test_bad_row_names_its_line(self, tmp_path, name, text, line, message):
        with pytest.raises(ParseError) as ei:
            load_cloud(write(tmp_path, name, text))
        assert ei.value.line == line
        assert str(ei.value) == f"line {line}: {message}"

    def test_rows_past_the_vertex_count_are_not_parsed(self, tmp_path):
        text = ("ply\nformat ascii 1.0\nelement vertex 2\n" + PLY_XYZ +
                "end_header\n0 0 0\n1 2 3\n3 0 1\nx y\n")
        c = load_cloud(write(tmp_path, "a.ply", text))
        np.testing.assert_array_equal(c.points, [[0, 0, 0], [1, 2, 3]])

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("fmt", ["csv", "pcd", "ply"])
    def test_bulk_parse_matches_row_by_row(self, tmp_path, fmt, seed):
        path = write(tmp_path, f"a.{fmt}", random_cloud_text(fmt, seed))
        lines = cloud.read_text(path).splitlines()
        header = cloud._HEADERS[fmt](lines)
        got = cloud._parse_rows(lines, *header)
        want = np.asarray(oracles.per_row_parse_rows(lines, *header), dtype=float)
        assert got.shape == want.reshape(-1, 3).shape and len(got) > 0
        assert got.tobytes() == want.tobytes()

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


def noisy_plate(n, outlier_frac, seed):
    """A tilted unit plate with z noise 0.003 whose `outlier_frac` of rows
    are replaced by points uniform in a box around it."""
    rng = np.random.default_rng(seed)
    pts = np.column_stack([rng.uniform(0, 1, (n, 2)), rng.normal(0, 0.003, n)])
    m = int(round(outlier_frac * n))
    pts[rng.choice(n, m, replace=False)] = rng.uniform(-0.5, 1.5, (m, 3))
    rot = np.linalg.qr(rng.normal(size=(3, 3)))[0]
    return pts @ rot.T + [0.2, -0.3, 0.5]


def flat_plate(n, seed, z=0.0):
    rng = np.random.default_rng(seed)
    return np.column_stack([rng.uniform(0, 1, (n, 2)), np.full(n, z)])


class TestRansacBitExact:
    """Every plane, inlier set and error equals that of scoring every sample
    in full (oracles.ransac_full_scan)."""

    @staticmethod
    def check(pts, dist_thresh=0.01, **kwargs):
        cloud = PointCloud(pts)
        try:
            want = oracles.ransac_full_scan(cloud, dist_thresh, **kwargs)
        except (DegenerateCloud, NoPlane) as exc:
            with pytest.raises(type(exc)) as got:
                extract_plane_ransac(cloud, dist_thresh, **kwargs)
            assert type(got.value) is type(exc)
            assert str(got.value) == str(exc)
            return None
        got = extract_plane_ransac(cloud, dist_thresh, **kwargs)
        assert got.normal.tobytes() == want.normal.tobytes()
        assert np.float64(got.offset).tobytes() == np.float64(want.offset).tobytes()
        assert got.inliers.points.tobytes() == want.inliers.points.tobytes()
        assert got.centroid.tobytes() == want.centroid.tobytes()
        return got

    def test_switch_plate_bench_scene(self):
        # the switch-plate workload's cloud at bench seed 1: the seed-1 I
        # plate moved by the seed-1 offset, fitted with pipeline seed 1
        spec = StructureSpec(Shape.I, bar_width=0.5, density=3000, noise_sigma=0.002, seed=1)
        offset = np.append(np.random.default_rng(1).uniform(-1.0, 1.0, 2), 0.0)
        got = self.check(generate(spec)[0].points + offset, rng_seed=1)
        assert len(got.inliers) == 5000

    @pytest.mark.parametrize("n", [300, 5000, 20_000])
    @pytest.mark.parametrize("z", [0.0, 0.7])
    def test_exactly_planar(self, n, z):
        assert len(self.check(flat_plate(n, seed=n, z=z), rng_seed=3).inliers) == n

    @pytest.mark.parametrize("outlier_frac", [0.0, 0.1, 0.4, 0.7])
    def test_noisy_plate_with_outliers(self, outlier_frac):
        assert self.check(noisy_plate(20_000, outlier_frac, seed=5), rng_seed=2) is not None

    def test_all_points_after_all_but_one(self):
        # a plane holding 29 of the 30 points is adopted before one that
        # holds all 30: sampling goes on until every point is held
        assert len(self.check(noisy_plate(30, 0.0, seed=2), rng_seed=0).inliers) == 30

    def test_three_points(self):
        self.check(np.array([[0.0, 0, 0], [1.0, 0, 0], [0.0, 1, 0]]), dist_thresh=0.001)

    def test_two_points(self):
        assert self.check(np.zeros((2, 3))) is None

    def test_far_in_plane_point(self):
        plate = flat_plate(300, seed=3)
        plate[0, 0] = 1e14
        assert len(self.check(plate).inliers) == 300

    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
    def test_collinear(self, scale):
        pts = scale * (np.outer(np.linspace(0, 1, 50), [1.0, 2.0, 3.0]) + [0.3, -0.7, 0.1])
        assert self.check(pts, dist_thresh=0.01 * scale) is None

    @pytest.mark.parametrize("max_iters", [0, 1])
    def test_max_iters_zero_and_one(self, max_iters):
        self.check(noisy_plate(2000, 0.4, seed=9), max_iters=max_iters)

    @pytest.mark.parametrize("pts", [flat_plate(500, seed=6), noisy_plate(20_000, 0.1, seed=7)],
                             ids=["flat", "outliers"])
    def test_min_inlier_fraction_one(self, pts):
        self.check(pts, min_inlier_fraction=1.0)

    def test_all_inlier_plate_draws_one_sample(self, monkeypatch):
        # max_iters bounds the samples drawn; a plane that holds every point
        # cannot be beaten, so no later sample is drawn
        plate = PointCloud(flat_plate(500, seed=8))
        draws = []
        default_rng = np.random.default_rng

        class CountingRng:
            def __init__(self, seed):
                self.rng = default_rng(seed)

            def choice(self, *args, **kwargs):
                draws.append(args)
                return self.rng.choice(*args, **kwargs)

        monkeypatch.setattr(np.random, "default_rng", CountingRng)
        patch = extract_plane_ransac(plate, 0.01, max_iters=10**6)
        assert len(draws) == 1
        assert len(patch.inliers) == 500


class TestTransforms:
    def test_identity(self):
        p = np.array([1.0, 2.0, 3.0])
        np.testing.assert_allclose(RigidTransform.identity().apply(p), p)

    def test_seven_cm_offset(self):
        t = RigidTransform(np.eye(3), np.array([0.0, 0.0, -0.07]))
        np.testing.assert_allclose(t.apply(np.zeros(3)), [0, 0, -0.07])

    def test_rotation_about_z(self):
        r = np.array([[0.0, -1, 0], [1.0, 0, 0], [0.0, 0, 1]])
        t = RigidTransform(r, np.zeros(3))
        np.testing.assert_allclose(t.apply(np.array([1.0, 0, 0])),
                                   [0, 1, 0], atol=1e-9)

    def test_distance_preserving(self):
        rng = np.random.default_rng(1)
        theta = 0.7
        r = np.array([[np.cos(theta), -np.sin(theta), 0],
                      [np.sin(theta), np.cos(theta), 0], [0, 0, 1.0]])
        t = RigidTransform(r, np.array([1.0, -2.0, 0.5]))
        pts = rng.uniform(-1, 1, (20, 3))
        moved = np.array([t.apply(p) for p in pts])
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
