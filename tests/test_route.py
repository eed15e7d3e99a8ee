import math

import numpy as np
import pytest

from steelnav import (
    Multigraph,
    brute_force_ocpp,
    dijkstra,
    euler_trail,
    min_weight_pairing,
    vocpp,
)
from steelnav.errors import (
    DisconnectedEndpoints,
    EmptyGraph,
    OddCardinality,
    ParityViolation,
    TooLarge,
    UnknownVertex,
)
from steelnav.route import AugmentedGraph, augment_for_open_trail, odd_vertices

from oracles import (
    bellman_ford,
    bitmask_pairing,
    check_route_plan,
    min_pairing_cost,
    random_connected_multigraph,
)

TRIANGLE = Multigraph.build("ABC", [("A", "B", 1.0), ("B", "C", 1.0),
                                    ("A", "C", 2.0)])
STAR = Multigraph.build("OABC", [("O", "A", 1.0), ("O", "B", 1.0),
                                 ("O", "C", 1.0)])
PATH = Multigraph.build("ABC", [("A", "B", 1.0), ("B", "C", 2.0)])


class TestDijkstra:
    def test_triangle(self):
        dist, _ = dijkstra(TRIANGLE, "A")
        assert dist == {"A": 0.0, "B": 1.0, "C": 2.0}

    def test_isolated_source(self):
        g = Multigraph.build("ABC", [("B", "C", 1.0)])
        dist, _ = dijkstra(g, "A")
        assert dist["A"] == 0.0
        assert math.isinf(dist["B"]) and math.isinf(dist["C"])

    def test_parallel_edges_take_lighter(self):
        g = Multigraph.build("AB", [("A", "B", 5.0), ("A", "B", 1.0)])
        dist, _ = dijkstra(g, "A")
        assert dist["B"] == 1.0

    def test_matches_bellman_ford_on_random_graphs(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            vertices, edges = random_connected_multigraph(rng)
            g = Multigraph.build(vertices, edges)
            src = vertices[int(rng.integers(len(vertices)))]
            dist, _ = dijkstra(g, src)
            ref = bellman_ford(vertices, edges, src)
            for v in vertices:
                assert dist[v] == pytest.approx(ref[v])

    def test_unknown_source(self):
        with pytest.raises(UnknownVertex):
            dijkstra(TRIANGLE, "Z")


class TestOddVertices:
    def test_triangle_even(self):
        assert odd_vertices(TRIANGLE) == set()

    def test_star_leaves_odd(self):
        assert odd_vertices(STAR) == {"O", "A", "B", "C"}

    def test_path_ends_odd(self):
        assert odd_vertices(PATH) == {"A", "C"}


class TestMinWeightPairing:
    def metric_for(self, items, seed):
        rng = np.random.default_rng(seed)
        metric = {}
        for a in items:
            for b in items:
                if a != b:
                    key = frozenset((a, b))
                    if key not in metric:
                        metric[key] = float(rng.uniform(0.1, 5.0))
        return {(a, b): metric[frozenset((a, b))]
                for a in items for b in items if a != b}

    def test_empty(self):
        assert min_weight_pairing([], {}) == ([], 0.0)

    def test_two(self):
        pairs, cost = min_weight_pairing([1, 2], {(1, 2): 3.0, (2, 1): 3.0})
        assert pairs == [(1, 2)] and cost == 3.0

    def test_odd_cardinality(self):
        with pytest.raises(OddCardinality):
            min_weight_pairing([1, 2, 3], {})

    def test_no_finite_distance(self):
        inf = float("inf")
        with pytest.raises(DisconnectedEndpoints):
            min_weight_pairing([1, 2], {(1, 2): inf, (2, 1): inf})

    @pytest.mark.parametrize("n", [4, 6, 8, 10])
    def test_matches_enumeration(self, n):
        items = list(range(n))
        for seed in range(5):
            metric = self.metric_for(items, seed)
            _, cost = min_weight_pairing(items, metric)
            assert cost == pytest.approx(min_pairing_cost(items, metric))

    def test_large_fallback_reasonable(self):
        # beyond the exact DP limit the greedy + 2-opt result must still
        # be a valid pairing and not worse than the naive ordered pairing
        items = list(range(18))
        metric = self.metric_for(items, 3)
        pairs, cost = min_weight_pairing(items, metric)
        assert sorted(x for p in pairs for x in p) == items
        naive = sum(metric[(items[i], items[i + 1])]
                    for i in range(0, 18, 2))
        assert cost <= naive + 1e-12

    def test_matches_bitmask_table(self):
        # the same pairs in the same order and a bit-identical total as the
        # table over every subset; a third of the metrics hold integer
        # weights in {0, 1, 2}, so ties are common
        rng = np.random.default_rng(24)
        sizes = [n for n in range(0, 13, 2) for _ in range(42)] + [14] * 8 + [16] * 4
        for case, n in enumerate(sizes):
            items = rng.permutation(100)[:n].tolist()
            w = (rng.integers(0, 3, (n, n)).astype(float) if case % 3 == 0
                 else rng.uniform(0.1, 5.0, (n, n)))
            metric = {(a, b): float(w[min(i, j), max(i, j)])
                      for i, a in enumerate(items) for j, b in enumerate(items) if i != j}
            pairs, total = min_weight_pairing(items, metric)
            ref_pairs, ref_total = bitmask_pairing(items, metric)
            assert pairs == ref_pairs
            assert total.hex() == ref_total.hex()

    def test_exact_pairing_reads_few_distances(self):
        # pairing the lowest vertex first reaches 1,596 of the 65,536 vertex
        # subsets at n = 16 and reads 10,226 distances; a table over every
        # subset reads 229,377
        class CountingMetric(dict):
            reads = 0

            def __getitem__(self, key):
                self.reads += 1
                return super().__getitem__(key)

        items = list(range(16))
        metric = CountingMetric(self.metric_for(items, 7))
        min_weight_pairing(items, metric)
        assert metric.reads <= 12_000


class TestAugmentation:
    def test_eulerian_case(self):
        ag = augment_for_open_trail(TRIANGLE, "A", "B")
        assert ag.provenance == "TJoin"
        # the shortest A-B path (the direct edge) is duplicated
        assert [d[:3] for d in ag.duplicated] == [("A", "B", 1.0)]

    def test_both_odd_no_duplicates(self):
        ag = augment_for_open_trail(PATH, "A", "C")
        assert ag.duplicated == ()

    def test_target_odd(self):
        # PATH degrees: A=1 (odd), B=2 (even), C=1 (odd)
        ag = augment_for_open_trail(PATH, "B", "C")
        assert ag.odd_set() == {"B", "C"}
        # T = {A, C} xor {B, C} = {A, B}: the A-B path is duplicated
        assert [d[:3] for d in ag.duplicated] == [("A", "B", 1.0)]

    def test_source_odd(self):
        g = Multigraph.build("ABCD", [("A", "B", 1.0), ("B", "C", 1.0),
                                      ("C", "D", 1.0), ("B", "D", 1.0)])
        # degrees: A=1 (odd), B=3 (odd), C=2, D=2; source odd, target even
        ag = augment_for_open_trail(g, "A", "C")
        assert ag.odd_set() == {"A", "C"}

    def test_both_even(self):
        g2 = Multigraph.build("ABCDE", [("A", "B", 1.0), ("B", "C", 1.0),
                                        ("C", "D", 1.0), ("D", "E", 1.0),
                                        ("E", "A", 1.0), ("B", "D", 1.0)])
        # odd set {B, D}; endpoints A, C both even
        ag2 = augment_for_open_trail(g2, "A", "C")
        assert ag2.odd_set() == {"A", "C"}

    def test_circuit_with_odd_set(self):
        ag = augment_for_open_trail(STAR, "O", "O")
        assert ag.odd_set() == set()

    @pytest.mark.parametrize("n_leaves,provenance",
                             [(18, "TJoin"), (20, "TJoinGreedy")])
    def test_pairing_limit_provenance(self, n_leaves, provenance):
        # every leaf of an even star is odd; with the endpoints on two
        # leaves, T holds the other n_leaves - 2, and the exact pairing
        # stops at 16 of them
        leaves = [f"L{i:02d}" for i in range(n_leaves)]
        g = Multigraph.build(["O"] + leaves, [("O", x, 1.0) for x in leaves])
        ag = augment_for_open_trail(g, leaves[0], leaves[1])
        assert ag.provenance == provenance
        assert ag.odd_set() == {leaves[0], leaves[1]}
        assert len(ag.duplicated) == n_leaves - 2


class TestEulerTrail:
    def test_uses_every_augmented_edge_once(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            vertices, edges = random_connected_multigraph(rng)
            g = Multigraph.build(vertices, edges)
            v_s, v_t = rng.choice(len(vertices), size=2, replace=False)
            v_s, v_t = vertices[v_s], vertices[v_t]
            ag = augment_for_open_trail(g, v_s, v_t)
            plan = euler_trail(ag, v_s, v_t)
            check_route_plan(plan, vertices, edges, v_s, v_t)
            assert sum(plan.edge_visits) == len(ag.combined_edges())

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        vertices, edges = random_connected_multigraph(rng)
        g = Multigraph.build(vertices, edges)
        a = vocpp(g, vertices[0], vertices[-1])
        b = vocpp(g, vertices[0], vertices[-1])
        assert a.walk == b.walk

    def test_disconnected_edge_multiset(self):
        # two disjoint triangles: every degree is even, so the parity test
        # passes, but no walk from A can use the second triangle's edges
        g = Multigraph.build("ABCDEF", [("A", "B", 1.0), ("B", "C", 1.0), ("C", "A", 1.0),
                                        ("D", "E", 1.0), ("E", "F", 1.0), ("F", "D", 1.0)])
        with pytest.raises(ParityViolation):
            euler_trail(AugmentedGraph(g, (), "TJoin"), "A", "A")


class TestVocpp:
    def test_triangle(self):
        plan = vocpp(TRIANGLE, "A", "B")
        assert plan.total_length == pytest.approx(5.0)
        assert plan.provenance == "TJoin"
        check_route_plan(plan, list("ABC"), list(TRIANGLE.edges), "A", "B")

    def test_star(self):
        plan = vocpp(STAR, "A", "B")
        # duplicate O-C: walk A-O-C-O-B or similar, length 4
        assert plan.total_length == pytest.approx(4.0)
        check_route_plan(plan, list("OABC"), list(STAR.edges), "A", "B")

    def test_path_exact(self):
        plan = vocpp(PATH, "A", "C")
        assert plan.total_length == pytest.approx(3.0)
        assert plan.walk == ("A", "B", "C")

    def test_circuit(self):
        plan = vocpp(TRIANGLE, "A", "A")
        assert plan.walk[0] == plan.walk[-1] == "A"
        assert plan.total_length == pytest.approx(4.0)

    def test_length_bounds(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            vertices, edges = random_connected_multigraph(rng)
            g = Multigraph.build(vertices, edges)
            v_s, v_t = vertices[0], vertices[-1]
            plan = vocpp(g, v_s, v_t)
            w = sum(w for _, _, w in g.edges)
            assert w - 1e-9 <= plan.total_length <= 2 * w + 1e-9

    def test_disconnected(self):
        g = Multigraph.build("ABCD", [("A", "B", 1.0), ("C", "D", 1.0)])
        with pytest.raises(DisconnectedEndpoints):
            vocpp(g, "A", "C")

    def test_empty(self):
        g = Multigraph.build("AB", [])
        with pytest.raises(EmptyGraph):
            vocpp(g, "A", "B")


class TestBruteForce:
    def test_matches_vocpp_when_exact(self):
        # both endpoints odd: the variant solver is provably optimal
        rng = np.random.default_rng(4)
        checked = 0
        while checked < 20:
            vertices, edges = random_connected_multigraph(rng, max_edges=12)
            g = Multigraph.build(vertices, edges)
            odd = sorted(odd_vertices(g))
            if len(odd) < 2:
                continue
            v_s, v_t = odd[0], odd[-1]
            exact = brute_force_ocpp(g, v_s, v_t)
            got = vocpp(g, v_s, v_t)
            assert got.total_length == pytest.approx(exact.total_length)
            checked += 1

    def test_never_beaten(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            vertices, edges = random_connected_multigraph(rng, max_edges=12)
            g = Multigraph.build(vertices, edges)
            v_s, v_t = vertices[0], vertices[-1]
            exact = brute_force_ocpp(g, v_s, v_t)
            got = vocpp(g, v_s, v_t)
            assert exact.total_length <= got.total_length + 1e-9
            check_route_plan(exact, vertices, edges, v_s, v_t)

    def test_too_large(self):
        edges = [(0, i % 5 + 1, 1.0) for i in range(15)]
        g = Multigraph.build(range(6), edges)
        with pytest.raises(TooLarge):
            brute_force_ocpp(g, 0, 1)


class TestMultigraphValidation:
    def test_unknown_vertex(self):
        with pytest.raises(UnknownVertex):
            Multigraph.build("AB", [("A", "Z", 1.0)])

    def test_self_loop(self):
        with pytest.raises(ValueError):
            Multigraph.build("AB", [("A", "A", 1.0)])

    def test_negative_weight(self):
        with pytest.raises(ValueError):
            Multigraph.build("AB", [("A", "B", -1.0)])
