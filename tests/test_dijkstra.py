"""Local shortest-path primitives vs independent references."""
from __future__ import annotations

import gc
import pickle
import sys
import threading
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.categories import foursquare_lite_forest
from repro.graphs import dijkstra as dijkstra_mod
from repro.graphs.dijkstra import dijkstra, vertex_mask
from repro.graphs.generator import graph_from_edges, road_network
from tests.conftest import adjacency, floyd_warshall_reference, multi_source_to_targets, poi_ids, settle

INF = float("inf")


def settle_below(g, source, budget, *, through=None, marks=None):
    """The kernel's ``settle_below`` with ``marks`` as a vertex -> mark dict,
    its result as ``(dist, radius, passed)`` dicts, as the reference gives.
    Each record's distance and mark must be the vertex's own."""
    mark = None
    if marks is not None:
        mark = np.zeros(g.n_vertices)
        mark[list(marks)] = list(marks.values())
    ball = dijkstra_mod.settle_below(g, source, budget, through=through, mark=mark)
    dist = dict(zip(ball.order.tolist(), ball.dist.tolist()))
    for d, u, _passed, m in ball.marked:
        assert (d, m) == (dist[u], marks[u])
    return dist, ball.radius, {u: passed for _d, u, passed, _m in ball.marked}


def settle_to(g, sources, targets):
    """The kernel's ``settle_to`` towards a set of target vertices."""
    return dijkstra_mod.settle_to(g, sources, vertex_mask(g.n_vertices, targets))


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
        adj = adjacency(g)
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
        adj = adjacency(g)
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

    def test_settle_tie_order(self):
        """Ties settle by vertex id among the vertices discovered so far:
        the zero-weight edge discovers 2 only after 5 settles."""
        g = graph_from_edges(6, [(0, 5, 1.0), (5, 2, 0.0), (0, 3, 1.0)], {})
        got = [(d, u) for d, u, _p in settle(g, [0])]
        assert got == [(0.0, 0), (1.0, 3), (1.0, 5), (1.0, 2)]

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
        dist, radius, _passed = settle_below(g, 0, cut)
        limited = np.full(g.n_vertices, INF)
        limited[list(dist)] = list(dist.values())
        near = full < cut
        assert np.array_equal(limited[near], full[near])
        assert np.isinf(limited[~near]).all()
        assert radius == full[~near].min()

    def test_disconnected_target(self):
        g = graph_from_edges(4, [(0, 1, 1.0), (2, 3, 1.0)], {})
        assert np.isinf(dijkstra(g, 0)[2])


def _scan_reference(g, source, budget, through, marks):
    """BSSR's settle-order modified Dijkstra, stopped at its first
    ``dist >= budget``: distances, stop value and Lemma 5.5-i ``passed`` of
    the marked vertices, which with ``through`` given are only those whose
    mark exceeds ``passed``."""
    dist, passed, radius = {}, {}, INF
    for d, u, parent in settle(g, (source,), through=through):
        if d >= budget:
            radius = d
            break
        dist[u] = d
        passed[u] = max(passed[parent], marks.get(parent, 0.0)) if parent >= 0 else 0.0
    return dist, radius, {
        u: b for u, b in passed.items() if u in marks and (through is None or marks[u] > b)
    }


def _assert_matches_reference(g, marks, through):
    """Every source (core, chain interior, leaf) at every budget that equals
    some vertex's distance, and at ``inf``."""
    for s in range(g.n_vertices):
        budgets = sorted({d for d, _u, _p in settle(g, (s,))}) + [INF]
        for budget in budgets:
            want = _scan_reference(g, s, budget, through, marks)
            assert settle_below(g, s, budget, through=through, marks=marks) == want, (s, budget)


@st.composite
def _small_worlds(draw, weight=st.integers(1, 3)):
    """Small multigraphs with weights 1-3 (or ``weight``), so ties are
    everywhere, plus a core-less path or cycle component and isolated
    vertices; a quarter of them directed.  Returns ``(graph, marks,
    through)``."""
    n = draw(st.integers(1, 10))
    edges = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), weight), max_size=2 * n))
    k = draw(st.integers(0, 6))
    ws = draw(st.lists(weight, min_size=k, max_size=k))
    edges += [(n + i, n + i + 1, ws[i]) for i in range(k - 1)]
    if k >= 2 and draw(st.booleans()):
        edges.append((n + k - 1, n, ws[-1]))  # close the path into a cycle
    n_total = n + k + draw(st.integers(0, 2))
    directed = draw(st.integers(0, 3)) == 0
    g = graph_from_edges(n_total, [(u, v, float(w)) for u, v, w in edges], {}, directed=directed)
    marks = draw(st.dictionaries(st.integers(0, n_total - 1), st.sampled_from([0.25, 0.5, 1.0])))
    mask = draw(st.sampled_from(["none", "perfect", "random"]))
    if mask == "none":
        through = None
    elif mask == "perfect":
        through = bytes(marks.get(v) != 1.0 for v in range(n_total))
    else:
        through = bytes(draw(st.lists(st.booleans(), min_size=n_total, max_size=n_total)))
    return g, marks, through


# Core vertices joined by a chain and by a direct edge, parallel edges, a
# dead-end branch, a core-less cycle, a core-less path and (vertex 16) an
# isolated vertex.
_EVERY_SHAPE = [
    (0, 1, 1.0), (0, 2, 2.0), (0, 3, 1.0),  # 0 and 3 are core
    (1, 4, 1.0), (4, 3, 2.0),  # chain 0-1-4-3
    (2, 5, 1.0), (5, 6, 1.0),  # dead-end branch 0-2-5-6
    (3, 7, 1.0), (3, 7, 1.0), (3, 8, 2.0), (8, 9, 1.0), (9, 3, 1.0),  # parallel edges, loop at 3
    (10, 11, 1.0), (11, 12, 2.0), (12, 10, 1.0),  # core-less cycle
    (13, 14, 2.0), (14, 15, 1.0),  # core-less path
]


class TestSettleBelow:
    """The budgeted search against the settle-order scan."""

    @settings(max_examples=300, deadline=None)
    @given(_small_worlds(st.integers(0, 4)))
    def test_matches_settle_reference(self, world):
        _assert_matches_reference(*world)

    def test_zero_weight_settle_order(self):
        """A zero-weight chain 1-20-2 makes 2 settle after 15 at distance 1,
        so 15, not the smaller id 2, is the parent of 3 and sets its
        ``passed``."""
        edges = [(0, 1, 1.0), (0, 15, 1.0), (1, 20, 0.0), (20, 2, 0.0), (2, 3, 1.0), (15, 3, 1.0),
                 (1, 4, 4.0), (15, 5, 4.0), (2, 6, 4.0)]
        g = graph_from_edges(21, edges, {})
        marks = {2: 0.5, 15: 0.25, 3: 1.0}
        assert settle_below(g, 0, INF, marks=marks)[2] == {2: 0.0, 15: 0.0, 3: 0.25}
        _assert_matches_reference(g, marks, None)

    @pytest.mark.parametrize("through", ["none", "perfect"])
    def test_every_chain_shape(self, through):
        """One hand-built graph with every shape: core vertices joined by a
        chain and by a direct edge, parallel edges, a dead-end branch, a
        core-less cycle, a core-less path and an isolated vertex."""
        g = graph_from_edges(17, _EVERY_SHAPE, {})
        marks = {1: 0.5, 4: 1.0, 5: 1.0, 6: 0.25, 7: 0.5, 9: 1.0, 11: 1.0, 12: 0.5, 14: 1.0, 15: 0.25}
        mask = bytes(marks.get(v) != 1.0 for v in range(17)) if through == "perfect" else None
        _assert_matches_reference(g, marks, mask)


@st.composite
def _target_searches(draw):
    """A ``_small_worlds`` graph with one to three sources (any vertex: core,
    chain interior or leaf) and any target set, sources included."""
    g = draw(_small_worlds(st.integers(0, 4)))[0]
    vertex = st.integers(0, g.n_vertices - 1)
    return g, draw(st.lists(vertex, min_size=1, max_size=3)), draw(st.sets(vertex))


def _filtered_settle(g, sources, targets):
    return [(d, u) for d, u, _p in settle(g, sources) if u in targets]


class TestSettleTo:
    """The target-only search against ``settle`` filtered to the targets."""

    @settings(max_examples=400, deadline=None)
    @given(_target_searches())
    def test_matches_filtered_settle(self, search):
        g, sources, targets = search
        assert list(settle_to(g, sources, targets)) == _filtered_settle(g, sources, targets)

    def test_every_chain_shape(self):
        """Every source and every pair of sources on the hand-built graph,
        towards all vertices and towards every other one."""
        g = graph_from_edges(17, _EVERY_SHAPE, {})
        n = g.n_vertices
        for sources in [[s] for s in range(n)] + [[a, b] for a in range(n) for b in range(a + 1, n)]:
            for targets in (set(range(n)), set(range(0, n, 2)), set(range(1, n, 2))):
                assert list(settle_to(g, sources, targets)) == _filtered_settle(g, sources, targets)

    def test_preset_pois(self, graphs):
        """A generated road network: from every vertex towards all PoIs,
        and from a third of the PoIs at once."""
        g = graphs[0]
        pois = {int(p) for p in poi_ids(g)}
        for s in range(g.n_vertices):
            assert list(settle_to(g, [s], pois)) == _filtered_settle(g, [s], pois)
        srcs = sorted(pois)[::3]
        assert list(settle_to(g, srcs, pois)) == _filtered_settle(g, srcs, pois)

    def test_zero_weight_tie_order(self):
        """With a zero-weight edge tied targets come out in settle order:
        ``settle`` discovers 2 only after 5 settles, so 2 comes last."""
        g = graph_from_edges(6, [(0, 5, 1.0), (5, 2, 0.0), (0, 3, 1.0)], {})
        assert _filtered_settle(g, [0], {2, 3, 5}) == [(1.0, 3), (1.0, 5), (1.0, 2)]
        assert list(settle_to(g, [0], {2, 3, 5})) == [(1.0, 3), (1.0, 5), (1.0, 2)]


class TestReverseRows:
    @settings(max_examples=200, deadline=None)
    @given(_small_worlds(st.integers(0, 4)), st.data())
    def test_matches_floyd_warshall_column(self, world, data):
        """``reverse=True`` gives every vertex's distance *to* the source:
        a column of the all-pairs matrix, directed or not."""
        g = world[0]
        s = data.draw(st.integers(0, g.n_vertices - 1))
        assert np.array_equal(dijkstra(g, s, reverse=True), floyd_warshall_reference(g)[:, s])


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


def _searches(g):
    """A fixed batch of searches on ``g``, through both entry points, each
    a thunk that returns plain values: full balls with marks and
    ``through``, a budgeted ball, and target lists with a stop and a
    limit."""
    rng = np.random.default_rng(g.n_vertices)
    mark = np.where(rng.random(g.n_vertices) < 0.3, rng.choice([0.25, 0.5, 1.0], g.n_vertices), 0.0)
    targets, stop = mark > 0, mark == 1.0

    def ball(s, budget, **kw):
        b = dijkstra_mod.settle_below(g, s, budget, **kw)
        return b.order.tolist(), b.dist.tolist(), b.radius, b.marked, b.weight_sum

    out = []
    for s in range(0, g.n_vertices, 5):
        out += [
            lambda s=s: ball(s, INF),
            lambda s=s: ball(s, INF, through=mark != 1.0, mark=mark),
            lambda s=s: ball(s, 0.3, mark=mark),
            lambda s=s: dijkstra_mod.settle_to(g, [s], targets, stop=stop),
            lambda s=s: dijkstra_mod.settle_to(g, [s, 0], targets, limit=3),
        ]
    return out


def _run(searches):
    return [search() for search in searches]


class TestWorkspace:
    """One reusable set of search buffers per graph."""

    def test_a_second_search_leaves_the_first_results_alone(self, graphs):
        g = graphs[0]
        mark = np.where(g.cat_of >= 0, 0.5, 0.0)
        ball = dijkstra_mod.settle_below(g, 0, INF, mark=mark)
        found = dijkstra_mod.settle_to(g, [0], g.cat_of >= 0)
        kept = (ball.order.copy(), ball.dist.copy(), list(ball.marked), list(found))
        dijkstra_mod.settle_below(g, 7, INF, mark=mark * 2)
        dijkstra_mod.settle_to(g, [7], g.cat_of < 0)
        assert np.array_equal(ball.order, kept[0]) and np.array_equal(ball.dist, kept[1])
        assert ball.marked == kept[2] and found == kept[3]

    def test_interleaved_graphs_search_as_if_alone(self, graphs):
        a, b = _searches(graphs[0]), _searches(graphs[1])
        assert len(a) == len(b)
        alone = (_run(a), _run(b))
        interleaved = ([], [])
        for search_a, search_b in zip(a, b):
            interleaved[0].append(search_a())
            interleaved[1].append(search_b())
        assert interleaved == alone

    def test_pickle_leaves_the_workspace_behind(self, graphs):
        g = graphs[1]
        want = _run(_searches(g))
        assert dijkstra_mod.workspace(g) is g._workspace
        copy = pickle.loads(pickle.dumps(g))
        assert copy._workspace is None and "_workspace" not in copy.__dict__
        assert _run(_searches(copy)) == want
        assert copy._workspace is not g._workspace

    def test_short_lived_graphs_free_their_workspaces(self):
        refs = []
        for seed in range(200):
            g = graph_from_edges(30, [(i, i + 1, 1.0 + seed % 3) for i in range(29)], {})
            dijkstra_mod.settle_below(g, seed % 30, INF)
            refs.append(weakref.ref(dijkstra_mod.workspace(g)))
        del g
        gc.collect()
        assert not any(r() for r in refs)

    def test_a_star_fills_the_heap(self):
        """3,000 leaves around one centre: the centre's search holds every
        leaf in the heap at once, and settle_to from every leaf seeds one
        heap entry per source."""
        rng = np.random.default_rng(5)
        n = 3001
        edges = [(0, i, float(w)) for i, w in zip(range(1, n), rng.integers(1, 5, n - 1))]
        g = graph_from_edges(n, edges, {})
        marks = {int(v): 0.5 for v in rng.choice(n, 300, replace=False)}
        for s in (0, 1, 2999):
            want = _scan_reference(g, s, INF, None, marks)
            assert settle_below(g, s, INF, marks=marks) == want
        leaves = list(range(1, n))
        assert list(settle_to(g, leaves, set(range(n)))) == _filtered_settle(g, leaves, set(range(n)))

    def test_growth_past_the_initial_capacities(self):
        """The kernel starts its heap at 1,024 pairs and its marked records
        at 256, and doubles them when full: a star whose 2,500 leaves are
        all marked overflows both in one search from the centre, and
        ``settle_to`` from every leaf seeds more pairs than the heap held.
        Every result equals the settle-order reference."""
        rng = np.random.default_rng(11)
        n = 2501
        edges = [(0, i, float(w)) for i, w in zip(range(1, n), rng.integers(1, 4, n - 1))]
        g = graph_from_edges(n, edges, {})
        marks = {v: float(m) for v, m in zip(range(1, n), rng.choice([0.5, 1.0], n - 1))}
        perfect = bytes(marks.get(v) != 1.0 for v in range(n))
        ws = dijkstra_mod.workspace(g)
        assert (ws.c.heap_cap, ws.c.marked_cap) == (0, 0)
        for through in (None, perfect):
            want = _scan_reference(g, 0, INF, through, marks)
            assert settle_below(g, 0, INF, through=through, marks=marks) == want
        assert ws.c.heap_cap == 4096 and ws.c.marked_cap == 4096
        leaves = set(range(1, n))
        assert list(settle_to(g, [0], leaves)) == _filtered_settle(g, [0], leaves)
        assert list(settle_to(g, sorted(leaves), {0})) == _filtered_settle(g, sorted(leaves), {0})
        assert ws.nbytes == 5 * 8 * n + 4096 * (16 + 32)

    def test_threads_share_a_graph_safely(self, graphs):
        """Searches from several threads on one graph give the results of
        the same searches run one after another."""
        g = graphs[2]
        searches = _searches(g)
        want = _run(searches)
        got, errors = [], []

        def work():
            try:
                for _ in range(5):
                    got.append(_run(searches))
            except Exception as e:  # reported below
                errors.append(e)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads) and not errors
        assert len(got) == 40 and all(r == want for r in got)


class TestKernelBuild:
    def test_missing_compiler_names_what_the_build_needs(self, tmp_path, monkeypatch):
        """Building with a C compiler that does not exist fails with an
        ``ImportError`` naming both build requirements, and publishes
        nothing."""
        monkeypatch.setenv("CC", str(tmp_path / "no-such-cc"))
        with pytest.raises(ImportError, match="C compiler") as err:
            dijkstra_mod._build("_settle_no_compiler", tmp_path)
        assert "cffi" in str(err.value)
        assert not list(tmp_path.glob("_settle_no_compiler*"))

    def test_build_replaces_older_builds(self, tmp_path):
        """A build deletes the older ``_settle_*`` builds beside it, and the
        new one imports."""
        import importlib.machinery
        import importlib.util

        older = tmp_path / f"_settle_0000000000000000{importlib.machinery.EXTENSION_SUFFIXES[0]}"
        older.write_bytes(b"an older build")
        name = "_settle_ffffffffffffffff"
        dijkstra_mod._build(name, tmp_path)
        built = list(tmp_path.glob("_settle_*.so"))
        assert [p.name.split(".")[0] for p in built] == [name]
        spec = importlib.util.spec_from_file_location(f"repro.graphs.{name}", built[0])
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
        assert hasattr(mod.lib, "settle_below") and hasattr(mod.lib, "settle_to")

    def test_module_name_hashes_every_input(self, tmp_path, monkeypatch):
        """Editing any source compiled into the kernel, its cdef (the
        header) or its flags gives the module another name, so a stale
        build is never loaded."""
        sources = []
        for src in dijkstra_mod._SOURCES:
            copy = tmp_path / src.name
            copy.write_bytes(src.read_bytes())
            sources.append(copy)
        monkeypatch.setattr(dijkstra_mod, "_SOURCES", sources)
        assert [p.suffix for p in sources] == [".h", ".c", ".c", ".c"]
        names = {dijkstra_mod._module_name()}
        for src in sources:
            text = src.read_text()
            src.write_text(text + "/* edited */\n")
            names.add(dijkstra_mod._module_name())
            src.write_text(text)
        monkeypatch.setattr(dijkstra_mod, "_CFLAGS", [*dijkstra_mod._CFLAGS, "-g"])
        names.add(dijkstra_mod._module_name())
        assert len(names) == len(sources) + 2

    def test_source_and_vertex_arrays_are_checked(self, graphs):
        """A source outside the graph or a per-vertex array of the wrong
        size raises instead of reaching the kernel."""
        g = graphs[0]
        n = g.n_vertices
        with pytest.raises(IndexError):
            dijkstra(g, n)
        with pytest.raises(IndexError):
            dijkstra_mod.settle_to(g, [0, -1], vertex_mask(n, [1]))
        with pytest.raises(ValueError):
            dijkstra_mod.settle_to(g, [0], vertex_mask(n + 1, [1]))
        with pytest.raises(ValueError):
            dijkstra_mod.settle_below(g, 0, INF, mark=np.zeros(n, dtype=np.float32))


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
