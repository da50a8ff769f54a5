"""SkySR benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload bssr-tokyo --seed 1 --seconds 50 --trace 0

Run it from the repository root; the program is imported from ``src/``.
Each workload is a closed loop: one client, one query in flight.  This
process imports nothing from the program.  It starts fresh worker processes
(``worker.py``): with ``--trace 0``, ``SETUPS - 1`` that only set up and
answer the warm-up query, then one that also answers the timed queries;
with ``--trace 1``, only the measuring one, with spans recorded around the
calls into each layer (``spans.py``).

The metrics and their units are the ones ``BENCHMARK.json`` declares:
``end_to_end`` with ``--trace 0``, ``per_layer`` with ``--trace 1``.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A query fails when it raises or
its score set differs from the stored reference; warm-up queries are
attempted and checked too.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import SETUPS, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEADLINE_S = 170  # the whole run, all workers included


def _parse() -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True, help="selects the run's queries")
    p.add_argument("--seconds", type=int, required=True, help="about this long of timed queries")
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return p.parse_args()


def _worker(args: argparse.Namespace, setup_only: bool, deadline: float) -> dict:
    """Run one fresh worker process to completion and return its result;
    one still running at ``deadline`` (``time.monotonic()``) is killed."""
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--spawned", repr(time.monotonic())]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=deadline - time.monotonic())
    if proc.returncode != 0:
        raise SystemExit(f"worker exited with code {proc.returncode}: {' '.join(cmd)}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, as
    ``(value, percentile)``."""
    xs = sorted(latencies)
    n = len(xs)
    if n < 21:
        raise ValueError(f"{n} timed queries: a tail above the median needs at least 21")
    return xs[n - 11], 100.0 * (n - 10) / n


def main() -> int:
    args = _parse()
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program sources under {ROOT / 'src'}; run from a repository checkout", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    w = WORKLOADS[args.workload]
    deadline = time.monotonic() + DEADLINE_S
    setups = [] if args.trace else [_worker(args, True, deadline) for _ in range(SETUPS - 1)]
    run = _worker(args, False, deadline)
    workers = setups + [run]
    failures = [f for r in workers for f in r["failures"]]
    attempted = sum(r["attempted"] for r in workers)
    lat = run["latencies_ms"]
    tail_ms, tail_pct = tail(lat)

    print(f"workload {w.name}: {w.engine} on {w.dataset} scale {w.scale}, |S_q|={w.size}, seed {args.seed}")
    print(f"  {len(lat)} timed queries in {run['wall_s']:.2f} s; tail = p{tail_pct:.1f}; "
          f"setup_s is the median of {len(workers)} fresh processes")
    if args.trace:
        values = run["layers"]
        specs = declared["per_layer"]
    else:
        values = {
            "query_ms_p50": statistics.median(lat),
            "query_ms_tail": tail_ms,
            "queries_per_s": len(lat) / run["wall_s"],
            "setup_s": statistics.median(r["setup_s"] for r in workers),
            "peak_rss_mb": run["peak_rss_mb"],
        }
        specs = declared["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in specs}
    for name, m in metrics.items():
        print(f"  {name:30s} {m['value']:14.4f} {m['unit']}")
    for f in failures:
        print(f"  FAILED {f}")
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
