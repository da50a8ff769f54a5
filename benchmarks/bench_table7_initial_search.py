"""Table 7 benchmark: NNinit alone, and BSSR seeded vs unseeded, whose first
modified Dijkstra is Table 7's weight sum."""
import pytest

from repro.core.bssr import BSSROptions, bssr
from repro.core.nninit import nninit
from repro.core.query import QueryContext


@pytest.mark.parametrize("size", [2, 3, 4])
def test_nninit_alone(benchmark, bench_world, bench_queries, size):
    ds = bench_world
    q = bench_queries[size][0]
    ctx = QueryContext(ds.graph, ds.forest, q.v_q, list(q.seq_cats))
    S = benchmark(lambda: nninit(ctx))
    benchmark.extra_info["n_routes"] = len(S)


@pytest.mark.parametrize("seeded", [True, False])
def test_first_scan(benchmark, bench_world, bench_queries, seeded):
    ds = bench_world
    q = bench_queries[3][0]
    opts = BSSROptions(use_nninit=seeded)
    st = benchmark.pedantic(
        lambda: bssr(ds.graph, ds.forest, q.v_q, list(q.seq_cats), options=opts).stats,
        rounds=2,
        iterations=1,
    )
    benchmark.extra_info["weight_sum"] = round(st.first_weight_sum, 4)
