"""Variant open Chinese Postman solver.

The graph is augmented with a minimum T-join, T = odd(G) xor {v_s} xor {v_t}:
shortest paths between the vertices of T, paired by a minimum-weight
perfect matching, are duplicated so that an Euler trail from v_s to v_t
exists (Edmonds & Johnson 1973).  The trail is then extracted with
Hierholzer's method.  A subset-enumeration oracle gives the exact
optimum on small instances.
"""
from __future__ import annotations

import functools
import heapq
import itertools
from dataclasses import dataclass

import numpy as np

from .errors import (
    DisconnectedEndpoints,
    EmptyGraph,
    OddCardinality,
    ParityViolation,
    TooLarge,
    UnknownVertex,
)

_MATCHING_DP_LIMIT = 16


@dataclass(frozen=True)
class Multigraph:
    """Undirected weighted multigraph over hashable, orderable vertex ids."""

    vertices: tuple
    edges: tuple  # of (u, v, w)

    @classmethod
    def build(cls, vertices, edges) -> "Multigraph":
        vertices = tuple(vertices)
        vset = set(vertices)
        norm = []
        for u, v, w in edges:
            if u not in vset or v not in vset:
                raise UnknownVertex(f"edge ({u}, {v}) references unknown vertex")
            if u == v:
                raise ValueError("self-loops are not allowed")
            if not np.isfinite(w):
                raise ValueError("edge weights must be finite")
            if w < 0:
                raise ValueError("edge weights must be non-negative")
            norm.append((u, v, float(w)))
        return cls(vertices, tuple(norm))

    def adjacency(self):
        adj = {v: [] for v in self.vertices}
        for idx, (u, v, w) in enumerate(self.edges):
            adj[u].append((v, idx, w))
            adj[v].append((u, idx, w))
        return adj

    def degrees(self):
        deg = {v: 0 for v in self.vertices}
        for u, v, _ in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg


@dataclass(frozen=True)
class AugmentedGraph:
    base: Multigraph
    duplicated: tuple  # of (u, v, w, base_edge_idx)
    provenance: str  # "TJoin", "TJoinGreedy" or "BruteForce"

    def combined_edges(self):
        """Base edges then duplicates, each tagged with its base edge index."""
        out = [(u, v, w, i) for i, (u, v, w) in enumerate(self.base.edges)]
        out.extend(self.duplicated)
        return out

    def odd_set(self):
        """Odd-degree vertices of the base edges and duplicates together."""
        return odd_vertices(Multigraph(
            self.base.vertices, tuple(e[:3] for e in self.combined_edges())))


@dataclass(frozen=True)
class RoutePlan:
    walk: tuple  # ordered vertex ids, starts v_s, ends v_t
    edge_visits: tuple  # per base edge, visit count >= 1
    total_length: float
    provenance: str = ""


def dijkstra(mg: Multigraph, src):
    """Shortest-path distances and predecessor map from `src`.

    Returns (dist, pred) where pred[v] = (previous vertex, edge index).
    Unreachable vertices get dist infinity.  Equal-length paths resolve
    to the smallest predecessor id.
    """
    if src not in set(mg.vertices):
        raise UnknownVertex(f"unknown vertex {src!r}")
    adj = mg.adjacency()
    dist = {v: float("inf") for v in mg.vertices}
    pred = {v: None for v in mg.vertices}
    dist[src] = 0.0
    heap = [(0.0, src)]
    done = set()
    while heap:
        d, u = heapq.heappop(heap)
        if u in done:
            continue
        done.add(u)
        for v, idx, w in adj[u]:
            nd = d + w
            if nd < dist[v] - 1e-15:
                dist[v] = nd
                pred[v] = (u, idx)
                heapq.heappush(heap, (nd, v))
            elif abs(nd - dist[v]) <= 1e-15 and pred[v] is not None and u < pred[v][0]:
                pred[v] = (u, idx)
    return dist, pred


def _path_edges(pred, src, dst):
    """Base edge indices along the shortest path src -> dst."""
    out = []
    v = dst
    while v != src:
        u, idx = pred[v]
        out.append(idx)
        v = u
    out.reverse()
    return out


def odd_vertices(mg: Multigraph):
    return {v for v, d in mg.degrees().items() if d % 2 == 1}


def min_weight_pairing(odd, metric):
    """Minimum-weight perfect pairing of `odd` under distance map `metric`.

    Exact up to 16 vertices by a top-down DP that pairs the lowest vertex
    first; greedy nearest-pair with 2-opt swap improvement beyond.  A pair
    with no finite metric[(u, v)] raises DisconnectedEndpoints.
    """
    odd = sorted(odd)
    n = len(odd)
    if n % 2 != 0:
        raise OddCardinality(f"odd set has odd cardinality {n}")

    def d(i, j):
        val = metric[(odd[i], odd[j])]
        if not np.isfinite(val):
            raise DisconnectedEndpoints(
                f"no finite distance between {odd[i]!r} and {odd[j]!r}")
        return val

    if n <= _MATCHING_DP_LIMIT:
        @functools.cache
        def best(mask):
            """(cost, pairs) pairing `mask`'s lowest vertex first; ties keep the lower j."""
            if not mask:
                return 0.0, ()
            i = (mask & -mask).bit_length() - 1
            out = float("inf"), None
            for j in range(i + 1, n):
                if mask & (1 << j):
                    cost, rest = best(mask & ~(1 << i) & ~(1 << j))
                    cost += d(i, j)
                    if cost < out[0]:
                        out = cost, ((odd[i], odd[j]),) + rest
            return out

        total, pairs = best((1 << n) - 1)
        return list(pairs), float(total)

    # greedy nearest pair, then 2-opt pair swaps
    remaining = list(range(n))
    pairs_idx = []
    while remaining:
        _, i, j = min((d(i, j), i, j) for i, j in itertools.combinations(remaining, 2))
        pairs_idx.append((i, j))
        remaining.remove(i)
        remaining.remove(j)
    improved = True
    while improved:
        improved = False
        for a in range(len(pairs_idx)):
            for b in range(a + 1, len(pairs_idx)):
                (i, j), (k, l) = pairs_idx[a], pairs_idx[b]
                cur = d(i, j) + d(k, l)
                for alt in (((i, k), (j, l)), ((i, l), (j, k))):
                    cost = d(*alt[0]) + d(*alt[1])
                    if cost < cur - 1e-15:
                        pairs_idx[a], pairs_idx[b] = alt
                        cur = cost
                        improved = True
    total = sum(d(i, j) for i, j in pairs_idx)
    return [(odd[i], odd[j]) for i, j in pairs_idx], float(total)


def connected_components(vertices, pairs) -> list[set]:
    """Vertex sets of the graph on `vertices` with undirected edges `pairs`."""
    adj = {v: set() for v in vertices}
    for u, v in pairs:
        adj[u].add(v)
        adj[v].add(u)
    components = []
    for root in adj:
        if not any(root in comp for comp in components):
            comp, stack = {root}, [root]
            while stack:
                new = adj[stack.pop()] - comp
                comp |= new
                stack.extend(new)
            components.append(comp)
    return components


def _check_trail_input(mg: Multigraph, v_s, v_t) -> set:
    """T = odd(G) ^ {v_s} ^ {v_t}, after checking for known endpoints, at
    least one edge, and one component to cover.

    The endpoints and every edge-bearing vertex must share one component.
    A connected graph has a T-join for every even T (Edmonds & Johnson
    1973), so past this check every pair of T has a finite distance and
    a duplication subset exists.
    """
    vset = set(mg.vertices)
    if v_s not in vset or v_t not in vset:
        raise UnknownVertex(f"unknown endpoint {v_s!r} or {v_t!r}")
    if not mg.edges:
        raise EmptyGraph("graph has no edges")
    relevant = {v for v, dg in mg.degrees().items() if dg > 0} | {v_s, v_t}
    if not any(relevant <= comp for comp in
               connected_components(mg.vertices, (e[:2] for e in mg.edges))):
        raise DisconnectedEndpoints(
            "endpoints and edge-bearing vertices are not in one component")
    return odd_vertices(mg) ^ {v_s} ^ {v_t}


def augment_for_open_trail(mg: Multigraph, v_s, v_t) -> AugmentedGraph:
    """Duplicate a minimum T-join so odd degrees sit exactly at {v_s} ^ {v_t}.

    T is odd(G) ^ {v_s} ^ {v_t} (odd(G) alone for a circuit, v_s == v_t).
    Every vertex of T is paired with another by a minimum-weight perfect
    matching over shortest-path distances, and each pair's shortest path
    is duplicated; that union is a minimum T-join (Edmonds & Johnson
    1973), so the covering walk is optimal.  The pairing is exact up to
    _MATCHING_DP_LIMIT vertices of T (provenance "TJoin"); above that it
    is greedy with 2-opt swaps (provenance "TJoinGreedy").
    """
    t = _check_trail_input(mg, v_s, v_t)
    sp = {a: dijkstra(mg, a) for a in t}
    metric = {(a, b): sp[a][0][b] for a in t for b in t if a != b}
    pairs, _ = min_weight_pairing(t, metric)
    duplicated = tuple((*mg.edges[i], i) for a, b in pairs
                       for i in _path_edges(sp[a][1], a, b))
    provenance = "TJoin" if len(t) <= _MATCHING_DP_LIMIT else "TJoinGreedy"

    return AugmentedGraph(mg, duplicated, provenance)


def euler_trail(ag: AugmentedGraph, v_s, v_t) -> RoutePlan:
    """Extract the trail over the augmented edge multiset (Hierholzer).

    Each augmented edge is used exactly once; the walk starts at v_s and
    ends at v_t (a circuit when they coincide).  A walk that misses an edge
    or ends elsewhere, as on a disconnected edge multiset, raises
    ParityViolation.
    """
    mg = ag.base
    combined = ag.combined_edges()
    if ag.odd_set() != {v_s} ^ {v_t}:
        raise ParityViolation("odd-degree set does not match the trail endpoints")

    adj = {v: [] for v in mg.vertices}
    for eid, (u, v, w, base_idx) in enumerate(combined):
        adj[u].append((v, eid))
        adj[v].append((u, eid))
    for v in adj:
        adj[v].sort()  # deterministic traversal order

    used = [False] * len(combined)
    ptr = {v: 0 for v in mg.vertices}
    stack = [v_s]
    walk = []
    while stack:
        u = stack[-1]
        nbrs = adj[u]
        i = ptr[u]
        while i < len(nbrs) and used[nbrs[i][1]]:
            i += 1
        ptr[u] = i
        if i == len(nbrs):
            walk.append(stack.pop())
        else:
            v, eid = nbrs[i]
            used[eid] = True
            stack.append(v)
    walk.reverse()

    if not all(used) or walk[-1] != v_t:
        raise ParityViolation("failed to extract a complete trail")

    visits = [0] * len(mg.edges)
    for _, _, _, base_idx in combined:
        visits[base_idx] += 1
    total = float(sum(w for _, _, w, _ in combined))
    return RoutePlan(tuple(walk), tuple(visits), total, ag.provenance)


def vocpp(mg: Multigraph, v_s, v_t) -> RoutePlan:
    """Solve the variant open CPP: augment, then extract the Euler trail."""
    ag = augment_for_open_trail(mg, v_s, v_t)
    return euler_trail(ag, v_s, v_t)


def brute_force_ocpp(mg: Multigraph, v_s, v_t) -> RoutePlan:
    """Exact open-CPP optimum by enumerating duplicated edge subsets.

    A minimum T-join never needs an edge twice, so the optimum is the
    lightest D subseteq E whose own odd-degree set is T, as in
    `augment_for_open_trail`: adding D then leaves odd degrees exactly at
    the trail endpoints.  Exponential in |E|; refuses more than 14 edges.
    """
    if len(mg.edges) > 14:
        raise TooLarge(f"{len(mg.edges)} edges exceeds the brute-force limit of 14")
    t = _check_trail_input(mg, v_s, v_t)
    m = len(mg.edges)
    best_mask, best_extra = 0, float("inf")
    for mask in range(1 << m):
        odd = set()
        extra = 0.0
        for i in range(m):
            if mask & (1 << i):
                u, v, w = mg.edges[i]
                odd ^= {u, v}
                extra += w
        if extra < best_extra and odd == t:
            best_mask, best_extra = mask, extra

    duplicated = tuple(
        (mg.edges[i][0], mg.edges[i][1], mg.edges[i][2], i)
        for i in range(m) if best_mask & (1 << i)
    )
    return euler_trail(AugmentedGraph(mg, duplicated, "BruteForce"), v_s, v_t)
