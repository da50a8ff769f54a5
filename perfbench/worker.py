"""One fresh benchmark process for one workload.

It sets up (imports, dataset, query pool), answers the untimed warm-up query
and, unless ``--setup-only``, answers the run's timed queries one at a time.
Answers are checked against the stored reference score sets after the timed
loop.  The last line of its standard output is one JSON object with the raw
measurements; ``run.py`` turns them into metrics.

``--spawned`` is the parent's ``time.monotonic()`` just before it started
this process, so ``setup_s`` covers interpreter start and imports too.
"""
from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

import numpy as np

from repro.graphs.generator import dataset
from repro.workloads import make_queries

from workloads import POOL_SEED, WORKLOADS, Workload

ROOT = Path(__file__).resolve().parents[1]


def _parse() -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--spawned", type=float, required=True)
    return p.parse_args()


def load_refs(w: Workload) -> dict[tuple[int, tuple[int, ...]], frozenset]:
    """Reference score sets keyed by query ``(v_q, seq_cats)``."""
    data = json.loads(w.refs_path().read_text())
    return {
        (q["v_q"], tuple(q["seq_cats"])): frozenset(map(tuple, q["scores"]))
        for q in data["queries"]
    }


def select(w: Workload, seed: int, seconds: int) -> list[int]:
    """Pool indices of the run's timed queries, distinct, in run order."""
    rng = np.random.default_rng(seed)
    return [int(i) + 1 for i in rng.choice(w.pool - 1, size=w.n_queries(seconds), replace=False)]


def _score_set(answer) -> frozenset:
    """Score pairs rounded like ``BSSRResult.score_set``."""
    if isinstance(answer, list):  # naive_skysr rows (l, s, route)
        return frozenset((round(l, 9), round(s, 9)) for (l, s, _r) in answer)
    return frozenset(answer.score_set())


def _engine(w: Workload, ds, tracer):
    """``answer(query) -> (answer, stats)`` for the workload's engine; with a
    tracer, the calls into each layer record spans."""
    import repro.baselines.naive as naive_mod
    import repro.baselines.osr as osr_mod
    import repro.core.bounds as bounds_mod
    import repro.core.bssr as bssr_mod
    import repro.core.nninit as nninit_mod

    bssr, naive_skysr = bssr_mod.bssr, naive_mod.naive_skysr
    if tracer is not None:
        tracer.patch(bssr_mod, "QueryContext", "core.query")
        tracer.patch(naive_mod, "QueryContext", "core.query")
        tracer.patch(bssr_mod, "nninit", "core.nninit", count=_count_routes)
        tracer.patch(bounds_mod.MinDistBounds, "compute", "core.bounds")
        for mod in (osr_mod, bounds_mod, nninit_mod):
            tracer.patch(mod, "dijkstra", "graphs.dijkstra", count=_count_dijkstra)
        tracer.patch(naive_mod, "osr_pne", "baselines.osr.pne")
        bssr = tracer.wrap(bssr, "core.bssr")
        naive_skysr = tracer.wrap(naive_skysr, "baselines.naive")
    g, f = ds.graph, ds.forest
    if w.engine == "bssr":
        return lambda q: (bssr(g, f, q.v_q, list(q.seq_cats)), None)

    def naive(q):
        stats: dict = {}
        return naive_skysr(g, f, q.v_q, list(q.seq_cats), engine="pne", stats=stats), stats

    return naive


def _count_routes(tracer, skyline_set) -> None:
    tracer.counts["core.nninit.routes"] += len(skyline_set)


def _count_dijkstra(tracer, dist) -> None:
    tracer.counts["graphs.dijkstra.calls"] += 1
    tracer.counts["graphs.dijkstra.reached"] += int(np.isfinite(dist).sum())


def _layers(tracer, answered: list, n: int, qps: float) -> dict[str, float]:
    """Per-layer metrics of a traced run: per-query means over the ``n``
    answered timed queries, plus ratios of run totals."""
    bssr_stats = [a.stats for (a, s) in answered if s is None]
    naive_stats = [s for (a, s) in answered if s is not None]

    def total(field: str) -> float:
        return float(sum(getattr(st, field) for st in bssr_stats))

    bssr_self = tracer.self_ms("core.bssr")
    requests = total("mdijkstra_requests")
    return {
        "core.bssr.self_ms": bssr_self / n,
        "core.bssr.visited_vertices": total("visited_vertices") / n,
        "core.bssr.mdijkstra_runs": total("mdijkstra_runs") / n,
        "core.bssr.mdijkstra_requests": requests / n,
        "core.bssr.first_weight_sum": total("first_weight_sum") / n,
        "core.bssr.queue_pushes": total("queue_pushes") / n,
        "core.bssr.results": total("n_results") / n,
        "core.bssr.visited_per_ms": total("visited_vertices") / bssr_self if bssr_self else 0.0,
        "core.bssr.cache_hit_ratio": total("cache_hits") / requests if requests else 0.0,
        "core.query.ctx_ms": tracer.total_ms("core.query") / n,
        "core.nninit.ms": tracer.total_ms("core.nninit") / n,
        "core.nninit.routes": tracer.counts["core.nninit.routes"] / n,
        "core.bounds.ms": tracer.total_ms("core.bounds") / n,
        "graphs.dijkstra.calls": tracer.counts["graphs.dijkstra.calls"] / n,
        "graphs.dijkstra.ms": tracer.total_ms("graphs.dijkstra") / n,
        "graphs.dijkstra.reached": tracer.counts["graphs.dijkstra.reached"] / n,
        "baselines.naive.self_ms": tracer.self_ms("baselines.naive") / n,
        "baselines.naive.osr_calls": sum(s["osr_queries"] for s in naive_stats) / n,
        "baselines.osr.pne_ms": tracer.total_ms("baselines.osr.pne") / n,
        "baselines.osr.queue_peak": sum(s.get("queue_peak", 0) for s in naive_stats) / n,
        "trace.queries_per_s": qps,
    }


def main() -> None:
    args = _parse()
    w = WORKLOADS[args.workload]
    t = time.perf_counter()
    ds = dataset(w.dataset, scale=w.scale)
    dataset_ms = (time.perf_counter() - t) * 1e3
    pool = make_queries(ds, size=w.size, n_queries=w.pool, seed=POOL_SEED)
    answer = _engine(w, ds, None)

    failures: list[str] = []
    t = time.perf_counter()
    try:
        warmup = answer(pool[0])
    except Exception as e:  # a failed query is counted, never fatal
        warmup = None
        failures.append(f"pool query 0 {pool[0]}: {e!r}")
    warmup_ms = (time.perf_counter() - t) * 1e3
    setup_s = time.monotonic() - args.spawned
    refs = load_refs(w)

    def check(i: int, result) -> None:
        q = pool[i]
        want = refs.get((q.v_q, tuple(q.seq_cats)))
        if want is None:
            failures.append(f"pool query {i} {q}: no stored reference")
        elif _score_set(result) != want:
            failures.append(f"pool query {i} {q}: score set {sorted(_score_set(result))} != {sorted(want)}")

    if warmup is not None:
        check(0, warmup[0])
    out = {"setup_s": setup_s, "attempted": 1}
    if not args.setup_only:
        tracer = None
        if args.trace:
            from spans import Tracer

            tracer = Tracer()
            answer = _engine(w, ds, tracer)
        chosen = select(w, args.seed, args.seconds)
        answered: list[tuple[int, object]] = []
        latencies: list[float] = []
        t_run = time.perf_counter()
        for n, i in enumerate(chosen):
            if tracer is not None:
                tracer.query = n
            t = time.perf_counter()
            try:
                result = answer(pool[i])
            except Exception as e:
                failures.append(f"pool query {i} {pool[i]}: {e!r}")
                continue
            latencies.append((time.perf_counter() - t) * 1e3)
            answered.append((i, result))
        wall_s = time.perf_counter() - t_run
        peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        for i, (a, _stats) in answered:
            check(i, a)
        out.update(
            attempted=1 + len(chosen),
            latencies_ms=latencies,
            wall_s=wall_s,
            peak_rss_mb=peak_rss_kb / 1024,
        )
        if tracer is not None:
            results = [r for (_i, r) in answered]
            out["layers"] = _layers(tracer, results, max(len(results), 1), len(latencies) / wall_s)
            out["layers"].update({"graphs.generator.dataset_ms": dataset_ms, "warmup_ms": warmup_ms})
            tracer.dump(ROOT / ".perfbench" / f"trace-{w.name}-seed{args.seed}.jsonl")
    out["failures"] = failures
    print(json.dumps(out))


if __name__ == "__main__":
    sys.exit(main())
