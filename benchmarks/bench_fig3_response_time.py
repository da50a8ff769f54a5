"""Fig. 3 benchmark: response time of every engine on one query —
BSSR / BSSR w/o Opt / Dij / PNE / the distributed Spark pipeline."""
import pytest

from repro.baselines.naive import naive_skysr
from repro.core.bssr import BSSROptions, bssr
from repro.core.skysr_spark import skysr_spark


@pytest.mark.parametrize("size", [2, 3])
@pytest.mark.parametrize("algo", ["bssr", "bssr_noopt", "pne", "dij"])
def test_local_engines(benchmark, bench_world_small, bench_queries_small, algo, size):
    ds = bench_world_small
    q = bench_queries_small[size][0]
    if algo == "bssr":
        fn = lambda: bssr(ds.graph, ds.forest, q.v_q, list(q.seq_cats))  # noqa: E731
    elif algo == "bssr_noopt":
        fn = lambda: bssr(ds.graph, ds.forest, q.v_q, list(q.seq_cats), options=BSSROptions.none())  # noqa: E731
    elif algo == "pne":
        fn = lambda: naive_skysr(ds.graph, ds.forest, q.v_q, list(q.seq_cats), engine="pne")  # noqa: E731
    else:
        fn = lambda: naive_skysr(ds.graph, ds.forest, q.v_q, list(q.seq_cats), engine="dijkstra")  # noqa: E731
    rows = benchmark.pedantic(fn, rounds=2, iterations=1)
    n = len(rows.routes) if hasattr(rows, "routes") else len(rows)
    benchmark.extra_info["n_skysr"] = n


def test_spark_pipeline(benchmark, spark, bench_queries_small, bench_world_small):
    ds = bench_world_small
    q = bench_queries_small[2][0]
    rows = benchmark.pedantic(
        lambda: skysr_spark(spark, ds.graph, ds.forest, q.v_q, list(q.seq_cats)).collect(),
        rounds=1,
        iterations=1,
    )
    benchmark.extra_info["n_skysr"] = len(rows)
