"""Local shortest-path primitives vs independent references."""
from __future__ import annotations

import numpy as np
import pytest

from repro.graphs.categories import foursquare_lite_forest
from repro.graphs.dijkstra import (
    dijkstra,
    floyd_warshall_reference,
    multi_source_to_targets,
    settle,
)
from repro.graphs.generator import graph_from_edges, road_network

INF = float("inf")


@pytest.fixture(scope="module")
def graphs():
    f = foursquare_lite_forest()
    return [
        road_network(n_road=40, n_edges_road=52, n_pois=15, forest=f, seed=s)
        for s in range(4)
    ]


class TestDijkstraVsFloydWarshall:
    @pytest.mark.parametrize("seed", range(4))
    def test_all_sources(self, graphs, seed):
        g = graphs[seed]
        ref = floyd_warshall_reference(g)
        for s in range(0, g.n_vertices, 7):
            got = dijkstra(g, s)
            assert np.allclose(got, ref[s], rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_settle_order_distances_and_parents(self, graphs, seed):
        g = graphs[seed]
        ref = floyd_warshall_reference(g)
        adj = g.adjacency()
        for s in range(0, g.n_vertices, 7):
            got = list(settle(g, [s]))
            ds = [d for d, _u, _p in got]
            assert ds == sorted(ds)
            dist = {u: d for d, u, _p in got}
            assert len(dist) == len(got)  # each vertex settles once
            row = np.full(g.n_vertices, INF)
            row[list(dist)] = list(dist.values())
            assert np.allclose(row, ref[s], rtol=1e-9, atol=1e-12)
            for d, u, p in got:
                if p < 0:
                    assert (u, d) == (s, 0.0)
                else:
                    assert any(v == u and d == dist[p] + w for v, w in adj[p])

    @pytest.mark.parametrize("seed", range(4))
    def test_settle_through_mask(self, graphs, seed):
        """Masked vertices settle but relax nothing: the distances are those
        of the graph without the masked vertices' out-edges."""
        g = graphs[seed]
        through = np.random.default_rng(seed).random(g.n_vertices) > 0.2
        through[0] = True
        adj = g.adjacency()
        pruned = graph_from_edges(
            g.n_vertices,
            [(u, v, w) for u in range(g.n_vertices) if through[u] for v, w in adj[u]],
            {},
            directed=True,
        )
        want = floyd_warshall_reference(pruned)[0]
        row = np.full(g.n_vertices, INF)
        for d, u, p in settle(g, [0], through=through.tobytes()):
            assert p < 0 or through[p]
            row[u] = d
        assert np.allclose(row, want, rtol=1e-9, atol=1e-12)
        assert not through[np.isfinite(row)].all()  # some masked vertex was yielded

    def test_settle_masked_vertex_blocks_the_path_behind_it(self):
        g = graph_from_edges(4, [(0, 1, 1.0), (1, 2, 1.0), (0, 3, 5.0)], {})
        got = [(d, u) for d, u, _p in settle(g, [0], through=[True, False, True, True])]
        assert got == [(0.0, 0), (1.0, 1), (5.0, 3)]

    def test_symmetry(self, graphs):
        g = graphs[0]
        d01 = dijkstra(g, 0)[1]
        d10 = dijkstra(g, 1)[0]
        assert d01 == pytest.approx(d10)  # undirected graph

    def test_source_distance_zero(self, graphs):
        assert dijkstra(graphs[0], 5)[5] == 0.0


class TestCutoffAndTargets:
    def test_cutoff_leaves_far_vertices_inf(self, graphs):
        g = graphs[1]
        full = dijkstra(g, 0)
        cut = float(np.median(full[np.isfinite(full)]))
        limited = dijkstra(g, 0, cutoff=cut)
        near = full <= cut
        assert np.allclose(limited[near], full[near])
        assert np.isinf(limited[~near]).all()

    def test_targets_early_stop_exact_on_targets(self, graphs):
        g = graphs[2]
        full = dijkstra(g, 3)
        targets = [g.n_vertices - 1, g.n_vertices - 2, 7]
        got = dijkstra(g, 3, targets=targets)
        for t in targets:
            assert got[t] == pytest.approx(full[t])

    def test_disconnected_target(self):
        g = graph_from_edges(4, [(0, 1, 1.0), (2, 3, 1.0)], {})
        assert np.isinf(dijkstra(g, 0)[2])


class TestMultiSource:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_brute_min(self, graphs, seed):
        g = graphs[seed]
        rng = np.random.default_rng(seed)
        srcs = rng.choice(g.n_vertices, 5, replace=False)
        tgts = rng.choice(g.n_vertices, 5, replace=False)
        ref = floyd_warshall_reference(g)
        want = float(ref[np.ix_(srcs, tgts)].min())
        got = multi_source_to_targets(g, srcs, tgts)
        assert got == pytest.approx(want)

    def test_empty_sets(self, graphs):
        assert multi_source_to_targets(graphs[0], [], [1]) == INF
        assert multi_source_to_targets(graphs[0], [1], []) == INF

    def test_overlapping_source_target(self, graphs):
        assert multi_source_to_targets(graphs[0], [4, 5], [5, 9]) == 0.0


class TestDuckDBOracle:
    def test_recursive_cte_shortest_path(self):
        """Independent SQL shortest path (bounded recursion, tiny graph)
        agrees with Dijkstra."""
        import duckdb

        edges = [(0, 1, 1.0), (1, 2, 2.0), (0, 2, 4.0), (2, 3, 1.0), (1, 3, 5.0)]
        g = graph_from_edges(4, edges, {})
        want = dijkstra(g, 0)
        con = duckdb.connect()
        con.execute("CREATE TABLE e(src INT, dst INT, w DOUBLE)")
        for u, v, w in edges:
            con.execute("INSERT INTO e VALUES (?,?,?),(?,?,?)", [u, v, w, v, u, w])
        got = con.execute(
            """
            WITH RECURSIVE walk(v, d, steps) AS (
              SELECT 0, CAST(0.0 AS DOUBLE), 0
              UNION
              SELECT e.dst, walk.d + e.w, steps + 1
              FROM walk JOIN e ON e.src = walk.v WHERE steps < 4
            )
            SELECT v, MIN(d) AS d FROM walk GROUP BY v ORDER BY v
            """
        ).fetchall()
        con.close()
        for v, d in got:
            assert d == pytest.approx(want[v])
