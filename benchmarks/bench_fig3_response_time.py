"""Fig. 3 benchmark: response time of every engine on one query —
BSSR / BSSR w/o Opt / PNE / Dij / the distributed Spark pipeline."""
from functools import partial

import pytest

from repro.core.skysr_spark import skysr_spark
from repro.tables.common import ENGINES


@pytest.mark.parametrize("size", [2, 3])
@pytest.mark.parametrize("algo", list(ENGINES))
def test_local_engines(benchmark, bench_world_small, bench_queries_small, algo, size):
    ds = bench_world_small
    q = bench_queries_small[size][0]
    rows = benchmark.pedantic(partial(ENGINES[algo], ds, q), rounds=2, iterations=1)
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
