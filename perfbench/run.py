"""langevin-kit benchmark: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/`` there, nothing is installed. Set-up time is taken as the median of
several fresh interpreters that import ``langevin_kit.cli`` and validate the
workload config. The workload then runs in one more fresh process
(``worker.py``) with ``LANGEVIN_KIT_THREADS`` set to the number of CPUs this
process may use. The last line on stdout is one JSON object: end-to-end
metrics with ``--trace 0``, per-layer metrics from a traced run with
``--trace 1``. Lines before it record the environment and a readable summary.
Metric names and units come from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK = BENCH_DIR / ".work"
SETUP_PROBES = 9
TIME_LIMIT_S = 170.0

sys.path.insert(0, str(BENCH_DIR))
from workloads import WORKLOADS  # noqa: E402


def fail(message: str, code: int) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return code


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def worker(args: list[str], env: dict, deadline: float) -> dict:
    """Run worker.py in a fresh interpreter and return its JSON result."""
    timeout = max(1.0, deadline - time.monotonic())
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "worker.py"), *args],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker.py {' '.join(args)} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(runs: list[dict], setup: list[float], peak_rss_mb: float) -> dict:
    """End-to-end values; run times are medians over the runs that passed
    their output check, so a failed run is never timed as a success."""
    values = {"setup_s": statistics.median(setup), "peak_rss_mb": peak_rss_mb}
    good = [r for r in runs if r["failure"] is None]
    if good:
        values["wall_s"] = statistics.median(r["wall_s"] for r in good)
        values["cpu_s"] = statistics.median(r["cpu_s"] for r in good)
    return values


def report(runs: list[dict], values: dict, wanted: list[dict]) -> dict:
    """The result object: correct only if every run passed and every metric
    in ``wanted`` (BENCHMARK.json entries) has a value."""
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted if m["name"] in values}
    failed = sum(r["failure"] is not None for r in runs)
    return {
        "correct": failed == 0 and len(metrics) == len(wanted),
        "attempted": len(runs),
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    load_at_start = os.getloadavg()
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S

    if args.workload not in WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}", 2)
    if args.seed < 0 or not args.seconds > 0:
        return fail("--seed must be >= 0 and --seconds > 0", 2)
    if not (ROOT / "src" / "langevin_kit" / "cli.py").is_file():
        return fail(f"no langevin-kit source under {ROOT / 'src'}", 2)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ, LANGEVIN_KIT_THREADS=str(nproc))
    env.pop("PYTHONPATH", None)
    work = WORK / f"{args.workload}-{os.getpid()}"
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        setup = [worker(["setup", *common], env, deadline)["setup_s"] for _ in range(SETUP_PROBES)]
        result = worker(
            ["measure", *common, "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--work", str(work)],
            env, deadline,
        )
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        return fail(str(exc), 1)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    setup.append(result["setup_s"])

    environment = dict(
        result["environment"],
        nproc=nproc,
        cpu_model=cpu_model(),
        load_average_at_start=list(load_at_start),
        cpu_pinning="not available: machine settings may not be changed",
        frequency_control="not available: machine settings may not be changed",
    )
    print(json.dumps({"environment": environment}))
    print(json.dumps({"setup_s": setup, "runs": result["runs"]}))

    if args.trace:
        values = result["layers"]
        WORK.mkdir(exist_ok=True)
        trace = {key: result[key] for key in ("accounting", "accounting_tolerance", "spans")}
        trace.update(workload=args.workload, seed=args.seed, environment=environment,
                     layers=values)
        (WORK / f"trace-{args.workload}.json").write_text(json.dumps(trace), encoding="utf-8")
    else:
        values = end_to_end(result["runs"], setup, result["peak_rss_mb"])

    final = report(result["runs"], values, wanted)
    for name, m in final["metrics"].items():
        print(f"{args.workload}  {name:38s} {m['value']:14.6g} {m['unit']}")
    print(f"{args.workload}  {'failed_fraction':38s} {final['failed'] / final['attempted']:14.6g} "
          f"fraction  ({final['failed']} of {final['attempted']} runs failed; times are medians "
          f"of the {final['attempted'] - final['failed']} that passed, setup_s of {len(setup)} "
          "interpreters)")
    print(json.dumps(final))
    return 0 if len(final["metrics"]) == len(wanted) else 1


if __name__ == "__main__":
    sys.exit(main())
