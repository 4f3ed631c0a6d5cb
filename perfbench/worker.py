"""The fresh-process side of the benchmark.

    python3 perfbench/worker.py setup   --workload W --seed N
    python3 perfbench/worker.py measure --workload W --seed N --seconds S --trace 0|1

``setup`` times ``import langevin_kit.cli`` plus ``validate_config`` in this
new interpreter. ``measure`` does the same, then runs the workload through
``langevin_kit.cli.main`` as one closed-loop client: a run starts when the
previous one has returned and its output has been checked, as long as one
more run is expected to end within ``seconds`` (at least one run). With
``--trace 1`` it runs pairs instead, one run untraced and one traced with the
same config, alternating which goes first. Either way the last line on stdout
is one JSON object; the CLI's own output goes to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

from workloads import WORKLOADS, check_output, make_config, run_seed

ROOT = Path(__file__).resolve().parent.parent


def import_and_validate(cfg: dict):
    """Set-up as a user pays it: returns (cli module, seconds)."""
    sys.path.insert(0, str(ROOT / "src"))
    start = time.perf_counter()
    from langevin_kit import cli

    cli.validate_config(cfg)
    elapsed = time.perf_counter() - start
    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise RuntimeError(f"langevin_kit was imported from {cli.__file__}, not {ROOT / 'src'}")
    return cli, elapsed


def run_once(cli, workload: str, cfg: dict, work: Path, tracer=None) -> dict:
    """One CLI run with its output checked; times cover the call only."""
    work.mkdir(parents=True, exist_ok=True)
    cfg_path = work / "config.json"
    out = work / "out"
    shutil.rmtree(out, ignore_errors=True)
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    argv = ["run", str(cfg_path), "--out", str(out)]
    with contextlib.redirect_stdout(sys.stderr):
        cpu0 = time.process_time()
        start = time.perf_counter()
        try:
            if tracer is None:
                code = cli.main(argv)
            else:
                with tracer.span("cli.run"):
                    code = cli.main(argv)
            failure = None
        except Exception:  # a crash is a failed run, not the end of the benchmark
            code, failure = None, traceback.format_exc()
        wall = time.perf_counter() - start
        cpu = time.process_time() - cpu0
    if failure is None:
        failure = check_output(workload, code, out)
    if failure is not None:
        print(f"{workload}: run with seed {cfg['seed']} failed: {failure}", file=sys.stderr)
    shutil.rmtree(out, ignore_errors=True)
    return {"wall_s": wall, "cpu_s": cpu, "seed": cfg["seed"], "failure": failure}


def closed_loop(run, seconds: float) -> list:
    """Call run(i) for i = 0, 1, ... while one more call, at the mean length of
    the calls so far, would end within ``seconds``; at least once."""
    results = []
    start = time.perf_counter()
    while True:
        results.append(run(len(results)))
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(results) > seconds:
            return results


def measure(cli, args, work: Path) -> dict:
    def untraced(i):
        return run_once(cli, args.workload, make_config(args.workload, run_seed(args.seed, i)), work)

    return {"runs": closed_loop(untraced, args.seconds)}


def _passed_walls(runs: list[dict]) -> list[float]:
    return [r["wall_s"] for r in runs if r["failure"] is None]


def measure_traced(cli, args, work: Path) -> dict:
    from tracing import ACCOUNTING_TOLERANCE, Tracer, layer_metrics, traced

    def pair(i):
        cfg = make_config(args.workload, run_seed(args.seed, i))
        tracer = Tracer()
        out = {}
        for mode in (("plain", "traced") if i % 2 == 0 else ("traced", "plain")):
            if mode == "plain":
                out[mode] = run_once(cli, args.workload, cfg, work)
            else:
                with traced(tracer):
                    out[mode] = run_once(cli, args.workload, cfg, work, tracer)
        acc = tracer.accounting()
        acc["relative_gap"] = abs(acc["accounted_s"] - out["traced"]["wall_s"]) / out["traced"]["wall_s"]
        out.update(layers=layer_metrics(tracer), accounting=acc,
                   spans=[s.__dict__ for s in tracer.spans])
        return out

    pairs = closed_loop(pair, args.seconds)
    plain = [p["plain"] for p in pairs]
    traced_runs = [p["traced"] for p in pairs]
    layers = {name: statistics.median(p["layers"][name] for p in pairs)
              for name in pairs[0]["layers"]}
    if _passed_walls(plain) and _passed_walls(traced_runs):
        layers["trace_overhead"] = (statistics.median(_passed_walls(traced_runs))
                                    / statistics.median(_passed_walls(plain)))
    return {
        "runs": plain + traced_runs,
        "layers": layers,
        "accounting": [p["accounting"] for p in pairs],
        "accounting_tolerance": ACCOUNTING_TOLERANCE,
        "spans": pairs[-1]["spans"],
    }


def environment() -> dict:
    import numpy
    import scipy
    from langevin_kit import _rng

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "langevin_kit_threads": _rng.worker_threads(),
        "LANGEVIN_KIT_THREADS": os.environ.get("LANGEVIN_KIT_THREADS"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/worker.py")
    parser.add_argument("mode", choices=("setup", "measure"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", type=Path, help="scratch directory for configs and outputs")
    args = parser.parse_args(argv)

    cli, setup_s = import_and_validate(make_config(args.workload, run_seed(args.seed, 0)))
    result = {"setup_s": setup_s}
    if args.mode == "measure":
        result.update((measure_traced if args.trace else measure)(cli, args, args.work))
        result["environment"] = environment()
        # ru_maxrss is in KiB on Linux.
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
