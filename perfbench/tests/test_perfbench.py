"""Self-tests of the benchmark. Run from the repository root:

    python3 -m pytest perfbench/tests

Every workload runs at its tiny budget. tv-decay-reference still takes tens of
seconds per run because its stationary reference has a fixed length.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run as bench_run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
from workloads import WORKLOADS, make_config, run_seed  # noqa: E402

from langevin_kit import cli  # noqa: E402

NPROC = max(2, len(os.sched_getaffinity(0)))


def _cli_run(cfg: dict, out: Path) -> int:
    cfg_path = out.with_suffix(".json")
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    return cli.main(["run", str(cfg_path), "--out", str(out)])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_results_repeat_bytewise_and_ignore_thread_count(name, tmp_path, monkeypatch):
    cfg = make_config(name, run_seed(3, 0), tiny=True)
    codes, csvs = [], []
    for i, threads in enumerate((NPROC, NPROC, 1)):
        monkeypatch.setenv("LANGEVIN_KIT_THREADS", str(threads))
        out = tmp_path / f"run{i}"
        codes.append(_cli_run(cfg, out))
        csvs.append((out / "results.csv").read_bytes())
    assert codes[0] == codes[1] == codes[2]
    assert csvs[0] == csvs[1], "two runs of one config differ"
    assert csvs[0] == csvs[2], f"LANGEVIN_KIT_THREADS=1 and ={NPROC} differ"


def test_failed_output_check_is_counted_and_not_timed(tmp_path):
    # A first-order scheme passes the CLI's own check (exit 0) but not the
    # workload's second-order bias-ratio bound.
    bad = make_config("order-check-narrow", run_seed(3, 0), tiny=True)
    bad["scheme"].update(kind="EulerMaruyama", gamma=0.2)
    bad["monte_carlo"]["gamma_pair"] = [0.2, 0.1]
    good = make_config("drift-check-wide", run_seed(3, 0), tiny=True)
    runs = [
        worker.run_once(cli, "order-check-narrow", bad, tmp_path / "bad"),
        worker.run_once(cli, "drift-check-wide", good, tmp_path / "good"),
    ]
    assert runs[0]["failure"].startswith("x bias_ratio 1.63")
    assert runs[1]["failure"] is None

    values = bench_run.end_to_end(runs, [0.4], 50.0)
    assert values["wall_s"] == runs[1]["wall_s"]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    final = bench_run.report(runs, values, spec["end_to_end"])
    assert (final["attempted"], final["failed"], final["correct"]) == (2, 1, False)

    values = bench_run.end_to_end(runs[:1], [0.4], 50.0)
    assert "wall_s" not in values


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_trace_accounts_for_wall_time_and_is_removed(name, tmp_path):
    originals = {(id(owner), attr): owner.__dict__[attr] for owner, attr in tracing.patch_points()}
    cfg = make_config(name, run_seed(3, 0), tiny=True)
    tracer = tracing.Tracer()
    with tracing.traced(tracer):
        traced_run = worker.run_once(cli, name, cfg, tmp_path, tracer)
    wall = traced_run["wall_s"]

    # Self times plus pool idle time cover the traced wall time.
    acc = tracer.accounting()
    assert abs(acc["accounted_s"] - wall) <= tracing.ACCOUNTING_TOLERANCE * wall + 0.005, acc
    assert acc["pool_idle_s"] >= -1e-6

    # Every wrapper is gone, and an untraced run records nothing.
    for owner, attr in tracing.patch_points():
        assert owner.__dict__[attr] is originals[(id(owner), attr)], f"{owner}.{attr}"
    calls = sum(c.calls for c in tracer.counters().values())
    spans = len(tracer.spans)
    worker.run_once(cli, name, cfg, tmp_path)
    assert sum(c.calls for c in tracer.counters().values()) == calls
    assert len(tracer.spans) == spans

    layers = tracing.layer_metrics(tracer)
    if name == "drift-check-wide":
        assert layers["rng.normals"] == 0
        assert layers["lyapunov.pool_tasks"] == 16
    if name == "tv-decay-reference":
        assert layers["convergence.reference_steps"] == 10_000_000
        # The reference run's per-step force calls stay unwrapped.
        assert layers["core.force_calls"] < 10_000
    for span in tracer.spans:
        assert span.end >= span.start


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "order-check-narrow",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
