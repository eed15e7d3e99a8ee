import numpy as np
import pytest

from steelnav import Multigraph, Shape, StructureSpec, generate, vocpp
from steelnav.errors import InvalidSpec

from oracles import RectScene


class TestGenerate:
    def test_point_count_tracks_density(self):
        spec = StructureSpec(Shape.CROSS, density=5000, seed=0)
        cloud, truth = generate(spec)
        area = sum(r.area for r in truth.rects)
        expected = spec.density * area
        assert abs(len(cloud) - expected) <= 0.01 * expected

    @pytest.mark.parametrize("shape", list(Shape))
    def test_noise_free_points_inside_rects(self, shape):
        cloud, truth = generate(StructureSpec(shape, density=3000, seed=1))
        xy = cloud.points[:, :2]
        # allow boundary grazing: every point within 1e-9 of its rectangle
        for idx, rect in enumerate(truth.rects):
            assert RectScene([rect]).exit_depth(xy[truth.labels == idx]) <= 1e-9

    def test_deterministic(self):
        spec = StructureSpec(Shape.T, density=2000, noise_sigma=0.003, seed=7)
        a, _ = generate(spec)
        b, _ = generate(spec)
        np.testing.assert_array_equal(a.points, b.points)

    def test_labels_assigned_pre_noise(self):
        spec = StructureSpec(Shape.L, density=2000, noise_sigma=0.05, seed=2)
        cloud, truth = generate(spec)
        clean, truth_clean = generate(
            StructureSpec(Shape.L, density=2000, noise_sigma=0.0, seed=2))
        np.testing.assert_array_equal(truth.labels, truth_clean.labels)

    @pytest.mark.parametrize("shape", list(Shape))
    def test_ground_truth_graph_connected(self, shape):
        _, truth = generate(StructureSpec(shape, density=1000, seed=0))
        n = len(truth.graph_vertices)
        weights = [
            float(np.linalg.norm(truth.graph_vertices[u] - truth.graph_vertices[v]))
            for u, v in truth.graph_edges
        ]
        g = Multigraph.build(range(n), [(u, v, w) for (u, v), w in
                                        zip(truth.graph_edges, weights)])
        plan = vocpp(g, 0, truth.graph_edges[-1][1])  # raises if disconnected
        assert all(v >= 1 for v in plan.edge_visits)

    @pytest.mark.parametrize("shape", list(Shape))
    def test_truth_edges_lie_on_the_bars(self, shape):
        # the structure graph's edges run along the sampled bars, so every
        # point of every edge lies in some rectangle (its ends on a border)
        _, truth = generate(StructureSpec(shape, density=1000, seed=0))
        t = np.linspace(0.0, 1.0, 201)[:, None]
        for u, v in truth.graph_edges:
            a, b = truth.graph_vertices[u], truth.graph_vertices[v]
            samples = a + t * (b - a)
            assert RectScene(truth.rects).exit_depth(samples) <= 1e-9, (u, v)

    def test_junction_labels_are_squares(self):
        _, truth = generate(StructureSpec(Shape.CROSS, density=1000, seed=0))
        for idx in truth.cross_labels:
            r = truth.rects[idx]
            assert r.length == pytest.approx(r.width)

    def test_invalid_specs(self):
        with pytest.raises(InvalidSpec):
            StructureSpec(Shape.L, bar_length=0.0)
        with pytest.raises(InvalidSpec):
            StructureSpec(Shape.L, density=-1.0)
        with pytest.raises(InvalidSpec):
            StructureSpec(Shape.L, noise_sigma=-0.01)

