"""§6 variations: directed graphs and multi-category PoIs, end-to-end.

The destination variant and repeated-tree sequences are covered in
test_bssr.py; here the remaining implemented variations get their own
brute-force-checked suites.
"""
from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.brute import brute_force_skysr, score_set
from repro.core.bssr import bssr
from repro.core.query import QueryContext
from repro.graphs.categories import foursquare_lite_forest
from repro.graphs.dijkstra import dijkstra
from repro.graphs.generator import graph_from_edges, road_network
from tests.conftest import floyd_warshall_reference, leaves_of_tree, matches, perfect_matches, poi_ids


def _reaches(out: list[list[int]], s: int, t: int) -> bool:
    """Whether ``t`` is reachable from ``s`` over the adjacency lists ``out``."""
    seen, stack = {s}, [s]
    while stack:
        u = stack.pop()
        if u == t:
            return True
        for v in out[u]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return False


def _directed_world(seed: int):
    """Random strongly connected directed graph: an undirected base with each
    edge kept in both directions, or, for about 20 % of them, in one."""
    f = foursquare_lite_forest()
    base = road_network(n_road=70, n_edges_road=90, n_pois=40, forest=f, seed=seed)
    rng = np.random.default_rng(seed)
    eu = np.concatenate([base.edges_u, base.edges_v])
    ev = np.concatenate([base.edges_v, base.edges_u])
    ew = np.concatenate([base.edges_w, base.edges_w])
    keep = rng.random(len(eu)) > 0.2
    keep[: len(base.edges_u)] |= ~keep[len(base.edges_u):]  # never drop both copies
    # A dropped copy u -> v comes back when u no longer reaches v without it.
    # Then the ends of every base edge reach each other, and since the base
    # is connected, every vertex reaches every other.
    out: list[list[int]] = [[] for _ in range(base.n_vertices)]
    for u, v in zip(eu[keep].tolist(), ev[keep].tolist()):
        out[u].append(v)
    for i in np.flatnonzero(~keep).tolist():
        u, v = int(eu[i]), int(ev[i])
        if not _reaches(out, u, v):
            keep[i] = True
            out[u].append(v)
    edges = [(int(u), int(v), float(w)) for u, v, w, k in zip(eu, ev, ew, keep) if k]
    g = graph_from_edges(
        base.n_vertices,
        edges,
        {int(p): int(base.cat_of[p]) for p in poi_ids(base)},
        n_road=base.n_road,
        directed=True,
    )
    return g, f, rng


class TestDirectedGraphs:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 10, 11])
    def test_world_is_strongly_connected(self, seed):
        g, _f, _rng = _directed_world(seed)
        assert np.isfinite(dijkstra(g, 0)).all()  # 0 reaches every vertex
        assert np.isfinite(dijkstra(g, 0, reverse=True)).all()  # and every vertex reaches 0

    @pytest.mark.parametrize("seed", range(4))
    def test_bssr_matches_brute(self, seed):
        from tests.conftest import random_query

        g, f, rng = _directed_world(seed)
        v_q, cats = random_query(g, f, rng, 2)
        want = score_set(brute_force_skysr(g, f, v_q, cats))
        assert want
        assert bssr(g, f, v_q, cats).score_set() == want

    @pytest.mark.parametrize("seed", range(2))
    def test_destination_on_directed(self, seed):
        from tests.conftest import random_query

        g, f, rng = _directed_world(seed + 10)
        v_q, cats = random_query(g, f, rng, 2)
        dest = int(rng.integers(0, g.n_road))
        want = score_set(brute_force_skysr(g, f, v_q, cats, destination=dest))
        assert want
        assert bssr(g, f, v_q, cats, destination=dest).score_set() == want

    def test_asymmetric_distances(self):
        g = graph_from_edges(3, [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)], {}, directed=True)
        d = dijkstra(g, 0)
        assert d[1] == 1.0 and d[2] == 2.0
        dr = dijkstra(g, 0, reverse=True)
        assert dr[2] == 1.0 and dr[1] == 2.0  # distances TO vertex 0

    def test_floyd_warshall_directed(self):
        g = graph_from_edges(3, [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)], {}, directed=True)
        ref = floyd_warshall_reference(g)
        assert ref[0, 2] == 2.0 and ref[2, 0] == 1.0

    def test_spark_engines_on_directed(self, spark):
        """The Spark pipeline equals brute force on a directed graph, with
        and without a destination."""
        from repro.core.skysr_spark import skysr_spark
        from tests.conftest import random_query, skysr_spark_scores

        g, f, rng = _directed_world(0)
        v_q, cats = random_query(g, f, rng, 2)
        for dest in (None, int(rng.integers(0, g.n_road))):
            want = score_set(brute_force_skysr(g, f, v_q, cats, destination=dest))
            assert want
            got = skysr_spark_scores(skysr_spark(spark, g, f, v_q, cats, destination=dest))
            assert got == want, dest


class TestMultiCategoryPoIs:
    @pytest.fixture(scope="class")
    def world(self):
        f = foursquare_lite_forest()
        food = leaves_of_tree(f, 0)
        shop = leaves_of_tree(f, 1)
        # PoI 3 is primarily a shop leaf but ALSO an exact food match —
        # closer than the pure food PoI 4.
        g = graph_from_edges(
            5,
            [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0)],
            {3: shop[1], 4: food[0], 1: shop[0]},
            extra_cats={3: [food[0]]},
        )
        return g, f, food, shop

    def test_sim_uses_best_category(self, world):
        g, f, food, shop = world
        ctx = QueryContext(g, f, 0, [food[0]])
        assert ctx.sim_at(0, 3) == 1.0  # via extra category
        assert ctx.sim_at(0, 4) == 1.0
        assert 3 in perfect_matches(ctx, 0)

    def test_bssr_matches_brute_with_extra_cats(self, world):
        g, f, food, shop = world
        cats = [food[0], shop[0]]
        want = score_set(brute_force_skysr(g, f, 0, cats))
        got = bssr(g, f, 0, cats)
        assert got.score_set() == want

    def test_overlapping_match_sets_disable_cache_gate(self, world):
        """PoI 3 matches both query positions -> the disjointness gate must
        switch Lemma 5.5/caching off (DESIGN.md §deviations-3)."""
        g, f, food, shop = world
        ctx = QueryContext(g, f, 0, [food[0], shop[1]])
        assert 3 in matches(ctx, 0) and 3 in matches(ctx, 1)
        assert not ctx.trees_distinct

    def test_distinct_gate_for_plain_queries(self, world):
        g, f, food, shop = world
        ctx = QueryContext(g, f, 0, [food[1], shop[0]])
        # PoI 3's extra food category overlaps the food tree: gate off.
        assert not ctx.trees_distinct

    def test_multi_category_shortens_route(self, world):
        """With PoI 3 counting as food, <3, ...> beats going out to 4."""
        g, f, food, shop = world
        res = bssr(g, f, 0, [food[0], shop[0]])
        best_perfect = min((l for l, s, _r in res.routes if s == 0.0), default=None)
        assert best_perfect is not None
        # 0->3 (food via extra cat) = 3, then 3->1 (shop) = 2 -> total 5;
        # vs 0->4 = 4, 4->1 = 3 -> 7.
        assert best_perfect == pytest.approx(5.0)

    @pytest.mark.parametrize("engine", ["dijkstra", "pne"])
    def test_naive_sees_extra_categories(self, world, engine):
        """PoI 3 matches food[0] only through its extra category; the naive
        baselines' super-category match sets must include it."""
        from repro.baselines.naive import naive_skysr

        g, f, food, shop = world
        want = score_set(brute_force_skysr(g, f, 0, [food[0]]))
        assert want == {(3.0, 0.0)}
        assert score_set(naive_skysr(g, f, 0, [food[0]], engine=engine)) == want

    @pytest.fixture(scope="class")
    def partial_world(self):
        """PoI 3 is primarily an arts leaf; its extra category is a food
        sibling of the query's food[0] — a non-perfect match (sim 2/3)."""
        f = foursquare_lite_forest()
        food = leaves_of_tree(f, 0)
        shop = leaves_of_tree(f, 1)
        g = graph_from_edges(
            5,
            [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0)],
            {3: leaves_of_tree(f, 2)[0], 4: food[0], 1: shop[0]},
            extra_cats={3: [food[1]]},
        )
        return g, f, [food[0], shop[0]]

    def test_scoring_reads_extra_categories(self, partial_world):
        from tests.conftest import is_sequenced_route, route_scores

        g, f, cats = partial_world
        res = bssr(g, f, 0, cats)
        assert (3, 1) in {r for _l, _s, r in res.routes}
        for l, s, r in res.routes:
            assert is_sequenced_route(g, f, cats, r)
            assert route_scores(g, f, 0, cats, r) == pytest.approx((l, s))
        assert route_scores(g, f, 0, cats, (3, 1)) == pytest.approx((5.0, 1 / 3))

    def test_spark_matches_brute_with_extra_cats(self, spark, partial_world):
        from repro.core.skysr_spark import skysr_spark
        from tests.conftest import skysr_spark_scores

        g, f, cats = partial_world
        want = score_set(brute_force_skysr(g, f, 0, cats))
        assert len(want) == 2  # (5, 1/3) via PoI 3's extra category, and (7, 0)
        assert skysr_spark_scores(skysr_spark(spark, g, f, 0, cats)) == want
