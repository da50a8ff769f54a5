"""Job entrypoints (jobs/*.py) — smoke-run each main() at tiny scale.

fig3 is the one job that opens a Spark session; here it runs with
REPRO_SPARK=0, so no job ever stops the shared test session.
"""
from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

JOBS = Path(__file__).resolve().parent.parent / "jobs"


def _load(name: str, path: Path | None = None):
    spec = importlib.util.spec_from_file_location(name, path or JOBS / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    sys.modules[name] = mod
    spec.loader.exec_module(mod)
    return mod


@pytest.fixture(autouse=True)
def tiny_env(monkeypatch):
    monkeypatch.setenv("REPRO_SCALE", "0.06")
    monkeypatch.setenv("REPRO_QUERIES", "1")
    monkeypatch.setenv("REPRO_SPARK", "0")


@pytest.mark.parametrize(
    "job",
    [
        "table5_datasets",
        "table6_rss",
        "table7_initial_search",
        "table8_priority_queue",
        "table9_usecase",
        "fig3_response_time",
        "fig456_counters",
    ],
)
def test_job_main_runs(job, capsys):
    _load(job).main()
    out = capsys.readouterr().out
    assert "==" in out and "|" in out  # printed a table


def test_all_jobs_have_docstrings_and_main():
    for f in sorted(JOBS.glob("*.py")):
        mod = _load(f.stem + "_check", f)
        assert mod.__doc__, f
        assert hasattr(mod, "main"), f
