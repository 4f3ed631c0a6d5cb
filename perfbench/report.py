"""Every workload's end-to-end metrics in one table.

    python3 perfbench/report.py [--seed N] [--seconds S]

Runs ``run.py --trace 0`` once per workload, one after the other, and prints
wall_s, cpu_s, setup_s, peak_rss_mb and failed_fraction with their units,
then the environment the last run recorded.
Exits non-zero if any workload failed a run or produced no result.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
from workloads import WORKLOADS  # noqa: E402


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(prog="perfbench/report.py")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args(argv)

    names = [m["name"] for m in spec["end_to_end"]]
    units = [m["unit"] for m in spec["end_to_end"]]
    print(f"{'workload':20s}" + "".join(f"{f'{n} ({u})':>18s}" for n, u in zip(names, units))
          + f"{'failed_fraction':>18s}")
    ok = True
    environment = None
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        )
        lines = proc.stdout.strip().splitlines()
        environment = next((line for line in lines if line.startswith('{"environment"')),
                           environment)
        if proc.returncode != 0 or not lines:
            print(f"{workload:20s} no result (exit {proc.returncode})")
            ok = False
            continue
        result = json.loads(lines[-1])
        metrics = result["metrics"]
        cells = "".join(f"{metrics[n]['value']:18.4f}" if n in metrics else f"{'-':>18s}"
                        for n in names)
        print(f"{workload:20s}{cells}{result['failed'] / result['attempted']:18.4f}")
        ok = ok and result["correct"]
    print(environment)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
