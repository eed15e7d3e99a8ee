import numpy as np
import pytest

from steelnav import (
    Shape,
    StructureSpec,
    VertexKind,
    build_graph,
    fit_principal_line,
    generate,
    segment_structure,
)
from steelnav.errors import DegenerateCluster, EmptyBoundary
from steelnav.graph import line_boundary_intersections


def segmented_shape(shape, seed=0, density=5000, sigma=0.004,
                    n_cmin=2, n_cmax=6):
    cloud, truth = generate(StructureSpec(shape, density=density,
                                          noise_sigma=sigma, seed=seed))
    cs = segment_structure(cloud.points[:, :2], n_cmin, n_cmax,
                           l_b=0.06, eps_border=0.04, alpha_s=0.02,
                           seed=seed)
    return cs, truth


class TestFitPrincipalLine:
    def test_line_y_eq_2x(self):
        t = np.linspace(-1, 1, 50)
        pts = np.column_stack([t, 2 * t])
        line = fit_principal_line(pts)
        expected = np.array([1.0, 2.0]) / np.sqrt(5.0)
        np.testing.assert_allclose(line.direction, expected, atol=1e-9)
        np.testing.assert_allclose(line.point, [0, 0], atol=1e-12)

    def test_two_points(self):
        line = fit_principal_line(np.array([[0.0, 0.0], [0.0, 2.0]]))
        np.testing.assert_allclose(line.direction, [0, 1], atol=1e-12)

    def test_sign_convention(self):
        t = np.linspace(-1, 1, 30)
        line = fit_principal_line(np.column_stack([-t, t]))
        assert line.direction[0] > 0 or (
            line.direction[0] == 0 and line.direction[1] > 0)

    def test_degenerate(self):
        with pytest.raises(DegenerateCluster):
            fit_principal_line(np.array([[1.0, 1.0]]))
        with pytest.raises(DegenerateCluster):
            fit_principal_line(np.ones((5, 2)))


class TestLineIntersections:
    def test_rectangle_extremes(self):
        from steelnav import ncbe
        rng = np.random.default_rng(1)
        pts = rng.uniform([-0.5, -0.05], [0.5, 0.05], (4000, 2))
        b = ncbe(pts, 0.02)
        line = fit_principal_line(pts)
        lo, hi = line_boundary_intersections(line, b)
        assert lo[0] < -0.45 and hi[0] > 0.45

    def test_single_boundary_point(self):
        from steelnav import Boundary
        b = Boundary(np.array([[2.0, 3.0]]), np.array([2.0, 3.0]), 0.1)
        line = fit_principal_line(np.array([[0.0, 0.0], [1.0, 0.0]]))
        lo, hi = line_boundary_intersections(line, b)
        np.testing.assert_array_equal(lo, hi)

    def test_empty_boundary(self):
        from steelnav import Boundary
        b = Boundary(np.zeros((0, 2)), np.zeros(2), 0.1)
        line = fit_principal_line(np.array([[0.0, 0.0], [1.0, 0.0]]))
        with pytest.raises(EmptyBoundary):
            line_boundary_intersections(line, b)


class TestBuildGraph:
    def test_l_shape_path_graph(self):
        cs, _ = segmented_shape(Shape.L, seed=1)
        g = build_graph(cs, d_min=0.1)
        assert len(g.vertices) == 7
        assert len(g.edges) == 6
        assert g.component_count == 1
        degrees = sorted(g.degrees().values())
        # a path on 7 vertices: two ends of degree 1, five of degree 2
        assert degrees == [1, 1, 2, 2, 2, 2, 2]

    def test_cross_star(self):
        cs, _ = segmented_shape(Shape.CROSS, seed=1, density=12000,
                                n_cmin=3, n_cmax=8)
        g = build_graph(cs, d_min=0.1)
        assert g.component_count == 1
        kinds = list(g.kinds)
        assert kinds.count(VertexKind.CENTER) == 5
        assert kinds.count(VertexKind.BORDER_MID) == 4
        assert kinds.count(VertexKind.BAR_END) == 4  # far ends of the arms
        degrees = g.degrees()
        centers = [v for v in g.vertices if g.kinds[v] is VertexKind.CENTER]
        hub = max(centers, key=lambda v: degrees[v])
        assert degrees[hub] == 4

    def test_vertex_kind_degrees(self):
        cs, _ = segmented_shape(Shape.L, seed=2)
        g = build_graph(cs, d_min=0.1)
        degrees = g.degrees()
        for v in g.vertices:
            if g.kinds[v] is VertexKind.BORDER_MID:
                assert degrees[v] == 2
            elif g.kinds[v] is VertexKind.BAR_END:
                assert degrees[v] == 1

    def test_large_dmin_suppresses_bar_ends(self):
        cs, _ = segmented_shape(Shape.L, seed=1)
        g = build_graph(cs, d_min=10.0)
        assert all(g.kinds[v] is not VertexKind.BAR_END for v in g.vertices)

    def test_ids_stable_and_contiguous(self):
        cs, _ = segmented_shape(Shape.L, seed=3)
        g = build_graph(cs, d_min=0.1)
        assert list(g.vertices) == list(range(len(g.vertices)))
        g2 = build_graph(cs, d_min=0.1)
        assert [(v, g.kinds[v]) for v in g.vertices] == \
            [(v, g2.kinds[v]) for v in g2.vertices]
        for a, b in zip(g.positions, g2.positions):
            np.testing.assert_array_equal(a, b)

    def test_edge_weights_are_segment_lengths(self):
        cs, _ = segmented_shape(Shape.L, seed=1)
        g = build_graph(cs, d_min=0.1)
        pos = g.positions
        for u, v, w in g.edges:
            assert w == pytest.approx(
                float(np.linalg.norm(pos[u] - pos[v])))
            assert u != v

    @pytest.mark.parametrize("shape", [Shape.CROSS, Shape.K, Shape.L, Shape.T, Shape.I])
    def test_neighbor_borders_hold_both_clusters(self, shape):
        # build_graph reads a neighbor border's midpoint and both centers
        # without checking: each neighbor pair's border has >= 2 points
        # drawn from two non-empty boundaries
        cs, _ = segmented_shape(shape, seed=1)
        pairs = list(zip(*np.nonzero(np.triu(cs.neighbor_matrix))))
        assert pairs
        for i, j in pairs:
            assert len(cs.borders[(i, j)].points) >= 2
            assert len(cs.boundaries[i]) and len(cs.boundaries[j])
        g = build_graph(cs, d_min=0.1)
        assert g.kinds.count(VertexKind.BORDER_MID) == len(pairs)

    def test_missing_neighbor_data_rejected(self):
        # boundaries, borders and the neighbor matrix are required fields,
        # so a ClusterSet without them never reaches build_graph
        from steelnav import ClusterSet, GmmModel
        model = GmmModel(weights=np.ones(1), means=np.zeros((1, 2)),
                         covariances=np.eye(2)[None], log_likelihood=0.0)
        with pytest.raises(TypeError, match="neighbor_matrix"):
            ClusterSet(points=np.zeros((4, 2)),
                       labels=np.zeros(4, dtype=int), n_c=1, model=model)
