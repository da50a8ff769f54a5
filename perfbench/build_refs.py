"""Rebuild ``refs/<workload>.json``, the stored reference score sets.

    PYTHONPATH=src python3 perfbench/build_refs.py [--workload NAME]

A pool query's reference is the score set of ``bssr()`` with default
options, rounded to 9 digits as in ``BSSRResult.score_set``.  The build
cross-checks it against ``BSSROptions.none()`` (the branch-and-bound core
alone) and against the workload's own engine, and stops at the first
disagreement.  Only rebuild when the pool itself changes: references taken
from a program that is wrong would let the benchmark pass it.
"""
from __future__ import annotations

import argparse
import json
import multiprocessing

from repro.core.bssr import BSSROptions, bssr
from repro.graphs.generator import dataset
from repro.workloads import make_queries

from worker import _engine, _score_set
from workloads import POOL_SEED, WORKLOADS, Workload

_state: dict = {}


def _init(name: str) -> None:
    w = WORKLOADS[name]
    ds = dataset(w.dataset, scale=w.scale)
    _state.update(w=w, ds=ds, engine=_engine(w, ds, None))


def _reference(q) -> list[list[float]]:
    w, ds = _state["w"], _state["ds"]
    cats = list(q.seq_cats)
    ref = bssr(ds.graph, ds.forest, q.v_q, cats).score_set()
    core = bssr(ds.graph, ds.forest, q.v_q, cats, options=BSSROptions.none()).score_set()
    if core != ref:
        raise RuntimeError(f"{w.name} {q}: BSSR {sorted(ref)} != BSSR w/o Opt {sorted(core)}")
    if w.engine != "bssr":
        own = _score_set(_state["engine"](q)[0])
        if own != ref:
            raise RuntimeError(f"{w.name} {q}: {w.engine} {sorted(own)} != BSSR {sorted(ref)}")
    return sorted(map(list, ref))


def build(w: Workload) -> None:
    pool = make_queries(dataset(w.dataset, scale=w.scale), size=w.size, n_queries=w.pool, seed=POOL_SEED)
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(3, initializer=_init, initargs=(w.name,)) as workers:
        scores = workers.map(_reference, pool, chunksize=1)
    doc = {
        "workload": w.name,
        "engine": w.engine,
        "dataset": w.dataset,
        "scale": w.scale,
        "size": w.size,
        "pool_seed": POOL_SEED,
        "queries": [
            {"v_q": q.v_q, "seq_cats": list(q.seq_cats), "scores": s} for q, s in zip(pool, scores)
        ],
    }
    w.refs_path().parent.mkdir(exist_ok=True)
    w.refs_path().write_text(json.dumps(doc, indent=1) + "\n")
    print(f"{w.refs_path()}: {len(pool)} queries")


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=sorted(WORKLOADS), action="append")
    args = p.parse_args()
    for name in args.workload or sorted(WORKLOADS):
        build(WORKLOADS[name])


if __name__ == "__main__":
    main()
