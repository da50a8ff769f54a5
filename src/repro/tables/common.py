"""Shared experiment plumbing for the Table/Figure reproductions.

Environment knobs (all optional):

* ``REPRO_SCALE``   — dataset scale multiplier on the lite presets
  (default 1.0 for BSSR-only experiments; baseline-heavy experiments pick
  their own smaller default, mirroring the paper's own |S_q|=5 timeouts);
* ``REPRO_QUERIES`` — queries per (dataset, size) cell (paper: 100; default
  here is small so the whole suite stays minutes, not months).
"""
from __future__ import annotations

import os
import tracemalloc
from collections.abc import Callable

import numpy as np

from repro.baselines.naive import naive_skysr
from repro.core.bssr import BSSROptions, bssr
from repro.graphs.dijkstra import settle_below, settle_to, workspace
from repro.graphs.generator import Dataset, dataset
from repro.workloads import Query

DATASETS = ["tokyo-lite", "nyc-lite", "cal-lite"]

# The engines Table 6 and Fig. 3 compare, by the paper's names: each answers
# one query on a dataset.
ENGINES: dict[str, Callable[[Dataset, Query], object]] = {
    "BSSR": lambda ds, q: bssr(ds.graph, ds.forest, q.v_q, list(q.seq_cats)),
    "BSSR w/o Opt": lambda ds, q: bssr(
        ds.graph, ds.forest, q.v_q, list(q.seq_cats), options=BSSROptions.none()
    ),
    "PNE": lambda ds, q: naive_skysr(ds.graph, ds.forest, q.v_q, list(q.seq_cats), engine="pne"),
    "Dij": lambda ds, q: naive_skysr(ds.graph, ds.forest, q.v_q, list(q.seq_cats), engine="dijkstra"),
}

_ds_cache: dict[tuple[str, float], Dataset] = {}


def env_scale(default: float) -> float:
    return float(os.environ.get("REPRO_SCALE", default))


def env_queries(default: int) -> int:
    return int(os.environ.get("REPRO_QUERIES", default))


def get_dataset(name: str, scale: float) -> Dataset:
    """Presets are deterministic, so cache per (name, scale)."""
    key = (name, scale)
    if key not in _ds_cache:
        _ds_cache[key] = dataset(name, scale=scale)
    return _ds_cache[key]


def graph_mem_mb(ds: Dataset) -> float:
    """Resident bytes of the graph itself (its arrays, the CSR and the
    search workspace the shortest-path kernel reads), in MB.

    tracemalloc only sees allocations made while tracing, so the statically
    held graph is added analytically to per-algorithm peaks to mirror the
    paper's process-level RSS (DESIGN.md §deviations-5).  Building the
    workspace here, and calling each kernel entry point once, also keeps
    that one-off set-up out of whichever algorithm is traced first.
    """
    g = ds.graph
    no_vertex = np.zeros(g.n_vertices, dtype=bool)
    settle_below(g, 0, 0.0, through=~no_vertex, mark=np.zeros(g.n_vertices))
    settle_to(g, [0], no_vertex, stop=no_vertex)
    arrays = (g.edges_u, g.edges_v, g.edges_w, g.xy, g.cat_of, *g.csr())
    return (sum(a.nbytes for a in arrays) + workspace(g).nbytes) / 1e6


def traced_peak_mb(fn: Callable[[], object]) -> float:
    """Run ``fn`` under ``tracemalloc``; returns the traced peak in MB.
    Tracing slows the engines unevenly, so nothing is timed here: Fig. 3
    reports untraced response times."""
    tracemalloc.start()
    try:
        fn()
        _cur, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / 1e6


def fmt_table(rows: list[dict], columns: list[str]) -> str:
    """Plain markdown table for job stdout / EXPERIMENTS.md."""
    widths = {
        c: max([len(c)] + [len(str(r.get(c, ""))) for r in rows]) for c in columns
    }
    head = "| " + " | ".join(c.ljust(widths[c]) for c in columns) + " |"
    sep = "|" + "|".join("-" * (widths[c] + 2) for c in columns) + "|"
    body = [
        "| " + " | ".join(str(r.get(c, "")).ljust(widths[c]) for c in columns) + " |"
        for r in rows
    ]
    return "\n".join([head, sep, *body])
