"""The benchmark's workloads: one langevin-kit experiment config each, and the
check its output must pass.

The benchmark seed is written into the config as its ``seed`` field; the
program sees only the generated config file. Reasons for each choice are in
README.md next to this file.
"""

from __future__ import annotations

import copy
import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Callable


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict
    # Smaller monte_carlo budgets for the benchmark's own tests.
    tiny: dict
    # Extra check on results.csv rows beyond the CLI's exit status; returns
    # the reason for a failure, or None.
    check: Callable[[list[dict]], str | None]


def _exit_status_only(rows):
    return None


def _conclusive_x_ratio(rows):
    # Criterion 11's bound for a second-order scheme.
    by_stat = {r["statistic"]: float(r["value"]) for r in rows if r["probe_point"] == "x"}
    if by_stat.get("inconclusive", 1.0) != 0.0:
        return "x bias ratio is inconclusive"
    ratio = by_stat["bias_ratio"]
    if not 2.5 <= ratio <= 6.0:
        return f"x bias_ratio {ratio!r} is outside [2.5, 6]"
    return None


def _every_log_ratio_negative(rows):
    # Criterion 08: the energy weight contracts at every probed state.
    bad = [r["probe_point"] for r in rows
           if r["statistic"] == "log_ratio" and not float(r["value"]) < 0.0]
    return f"log_ratio >= 0 at {', '.join(bad)}" if bad else None


_UNIT_WELL = {"kind": "quadratic", "curvature": 1.0}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="minorization-wide",
            config={
                "experiment": "minorization",
                "d": 1,
                "scheme": {"kind": "EulerMaruyama", "kappa": 1.0, "sigma": 1.0,
                           "gamma_grid": [0.05, 0.025, 0.0125]},
                "potential": _UNIT_WELL,
                "monte_carlo": {"t0": 0.5, "m_radius": 1.0, "pairs": 16, "samples": 100_000},
            },
            tiny={"pairs": 2, "samples": 2_000},
            check=_exit_status_only,
        ),
        Workload(
            name="tv-decay-reference",
            config={
                "experiment": "tv-decay",
                "d": 1,
                "scheme": {"kind": "EulerMaruyama", "kappa": 1.0, "sigma": 1.0, "gamma": 0.05},
                "potential": _UNIT_WELL,
                "monte_carlo": {"varpi": 0.1, "horizon": 12.0, "init": [5.0, 0.0],
                                "samples": 100_000},
            },
            # The 1.01e7-step stationary reference run has no budget knob in the
            # config, so even the tiny run takes tens of seconds.
            tiny={"samples": 20_000},
            check=_exit_status_only,
        ),
        Workload(
            name="order-check-narrow",
            config={
                "experiment": "order-check",
                "d": 1,
                "scheme": {"kind": "SplitCABAC", "kappa": 1.0, "sigma": 1.0, "gamma": 0.5},
                "potential": _UNIT_WELL,
                "monte_carlo": {"gamma_pair": [0.5, 0.25], "samples": 8_000_000},
            },
            tiny={"samples": 25_600},
            check=_conclusive_x_ratio,
        ),
        Workload(
            name="drift-check-wide",
            config={
                "experiment": "drift-check",
                "d": 2,
                "scheme": {"kind": "SplitCABAC", "kappa": 1.0, "sigma": 1.0, "gamma": 0.01},
                "potential": {"kind": "quartic-well"},
                "monte_carlo": {"varpi": 0.1, "radii": [5.0, 10.0, 15.0, 20.0],
                                "samples": 1_000_000},
            },
            tiny={"samples": 2_000},
            check=_every_log_ratio_negative,
        ),
    )
}


def make_config(name: str, seed: int, tiny: bool = False) -> dict:
    """The config file contents for one run of a workload at a config seed."""
    workload = WORKLOADS[name]
    cfg = copy.deepcopy(workload.config)
    cfg["seed"] = seed
    if tiny:
        cfg["monte_carlo"].update(workload.tiny)
    return cfg


def run_seed(bench_seed: int, index: int) -> int:
    """Config seed of the index-th run made under one benchmark seed."""
    return 1000 * bench_seed + index


def check_output(name: str, exit_code: int, out_dir: Path) -> str | None:
    """Why a run's output is wrong, or None when it passes.

    A run passes when the CLI exited 0, which means the experiment's built-in
    checks held, and the workload's own check accepts results.csv.
    """
    if exit_code != 0:
        return f"langevin-kit exited {exit_code}"
    with open(out_dir / "results.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    return WORKLOADS[name].check(rows)
