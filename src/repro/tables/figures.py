"""Figures 3–6 counters — not tables, but their metrics back the narrative
around Tables 6–8, so the jobs emit them and EXPERIMENTS.md records them.

* Fig. 3 — response time of BSSR / BSSR w/o Opt / Dij / PNE (and optionally
  the Spark pipeline) across |S_q|;
* Fig. 4 — possible-minimum distances (semantic / perfect) relative to the
  initial-search weight sum at |S_q|=5;
* Fig. 5 — modified-Dijkstra executions with vs without on-the-fly caching;
* Fig. 6 — number of SkySRs returned.
"""
from __future__ import annotations

import time

import numpy as np

from repro.core.bounds import MinDistBounds
from repro.core.bssr import BSSROptions, bssr
from repro.core.nninit import nninit
from repro.core.query import QueryContext
from repro.tables.common import DATASETS, ENGINES, env_queries, env_scale, get_dataset
from repro.workloads import make_queries


def fig3_rows(
    *,
    scale: float | None = None,
    n_queries: int | None = None,
    sizes=(2, 3, 4),
    spark=None,
) -> list[dict]:
    """Mean response time (ms) per algorithm.  Baselines blow up in |S_q|
    exactly like the paper's Fig. 3 (their |S_q|=5 bars are missing after a
    month; ours are simply omitted by default)."""
    scale = env_scale(0.2) if scale is None else scale
    n_queries = env_queries(3) if n_queries is None else n_queries
    engines = dict(ENGINES)
    if spark is not None:
        from repro.core.skysr_spark import skysr_spark

        engines["Spark-BSSR"] = lambda ds, q: skysr_spark(
            spark, ds.graph, ds.forest, q.v_q, list(q.seq_cats)
        ).collect()
        # One untimed query first, so that the session's first-job start-up
        # is not charged to the first cell.
        ds = get_dataset(DATASETS[0], scale)
        engines["Spark-BSSR"](ds, make_queries(ds, size=sizes[0], n_queries=1, seed=1)[0])
    out = []
    for name in DATASETS:
        ds = get_dataset(name, scale)
        for size in sizes:
            queries = make_queries(ds, size=size, n_queries=n_queries, seed=51)
            row: dict = {"Dataset": name, "|Sq|": size}
            for algo, run in engines.items():
                t0 = time.perf_counter()
                for q in queries:
                    run(ds, q)
                row[algo] = round((time.perf_counter() - t0) / len(queries) * 1e3, 1)
            out.append(row)
    return out


def fig4_rows(*, scale: float | None = None, n_queries: int | None = None, size: int = 5) -> list[dict]:
    """Ratio of the possible-minimum distances to the initial-search weight
    sum (Fig. 4's y-axis in spirit): Tokyo/NYC spread-out PoIs give usable
    bounds, Cal's clustered PoIs give near-zero ones (§7.3)."""
    scale = env_scale(1.0) if scale is None else scale
    n_queries = env_queries(5) if n_queries is None else n_queries
    out = []
    for name in DATASETS:
        ds = get_dataset(name, scale)
        queries = make_queries(ds, size=size, n_queries=n_queries, seed=61)
        ls_ratio, lp_ratio = [], []
        for q in queries:
            ctx = QueryContext(ds.graph, ds.forest, q.v_q, list(q.seq_cats))
            S0 = nninit(ctx)
            t0 = S0.threshold(0.0)
            if not np.isfinite(t0) or t0 <= 0:
                continue
            b = MinDistBounds.compute(ctx, t0)
            ls_ratio.append(b.ls_suffix[1] / t0)
            lp_ratio.append(b.lp_suffix[1] / t0)
        out.append(
            {
                "Dataset": name,
                "l_s / init length": round(float(np.mean(ls_ratio)), 4),
                "l_p / init length": round(float(np.mean(lp_ratio)), 4),
            }
        )
    return out


def fig5_rows(*, scale: float | None = None, n_queries: int | None = None, sizes=(2, 3, 4, 5)) -> list[dict]:
    """Modified-Dijkstra executions with vs without on-the-fly caching."""
    scale = env_scale(1.0) if scale is None else scale
    n_queries = env_queries(5) if n_queries is None else n_queries
    out = []
    for name in DATASETS:
        ds = get_dataset(name, scale)
        for size in sizes:
            queries = make_queries(ds, size=size, n_queries=n_queries, seed=71)
            runs = {"cached": 0, "uncached": 0}
            for q in queries:
                r = bssr(ds.graph, ds.forest, q.v_q, list(q.seq_cats))
                runs["cached"] += r.stats.mdijkstra_runs
                r = bssr(
                    ds.graph, ds.forest, q.v_q, list(q.seq_cats),
                    options=BSSROptions(use_cache=False),
                )
                runs["uncached"] += r.stats.mdijkstra_runs
            out.append(
                {
                    "Dataset": name,
                    "|Sq|": size,
                    "mDijkstra w/ cache": runs["cached"],
                    "mDijkstra w/o cache": runs["uncached"],
                    "saved %": round(100 * (1 - runs["cached"] / max(runs["uncached"], 1)), 1),
                }
            )
    return out


def fig6_rows(*, scale: float | None = None, n_queries: int | None = None, sizes=(2, 3, 4, 5)) -> list[dict]:
    """Number of SkySRs per (dataset, |S_q|) — Cal returns the most."""
    scale = env_scale(1.0) if scale is None else scale
    n_queries = env_queries(5) if n_queries is None else n_queries
    out = []
    for name in DATASETS:
        ds = get_dataset(name, scale)
        for size in sizes:
            queries = make_queries(ds, size=size, n_queries=n_queries, seed=81)
            ns = [
                len(bssr(ds.graph, ds.forest, q.v_q, list(q.seq_cats)).routes)
                for q in queries
            ]
            out.append(
                {"Dataset": name, "|Sq|": size, "mean #SkySR": round(float(np.mean(ns)), 2)}
            )
    return out
