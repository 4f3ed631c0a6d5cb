"""Experiment runner.

Experiments are data: a single JSON config names the experiment, the scheme,
the potential and the Monte-Carlo budgets, and the command line only picks
the config file and optionally overrides the seed and the output directory.
Each run writes ``results.csv`` (one row per gamma, probe point and
statistic) and ``meta.json`` (the fully resolved config plus a content hash,
seed, wall time and library version). The meta file is itself a valid
config: unknown keys are ignored on load, so re-running it reproduces the
CSV byte for byte.

Exit status: 0 when the experiment ran and every built-in check passed, 1
when a check failed (a non-contracting drift, a rate fit below quality, a
stability ratio above 1, ...), 2 on any config problem.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import numbers
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .convergence import (
    EstimationError,
    TrajectoryConfig,
    _quadratic_curvature,
    fit_geometric_rate,
    minorization_partition,
    minorization_probe,
    simulate_chain,
    solve_poisson,
    stationary_moment_bias,
)
from .core import ContractViolation, DivergedError, ForceModel, State
from .gaussian import covariance_consistency
from .lyapunov import check_energy_ceiling, estimate_drift, log_w_bar
from .potentials import flat_tail_potential, quadratic_potential, quartic_well_potential
from .schemes import (
    SchemeKind,
    SchemeParams,
    as_general_scheme,
    gaussian_perturbation_estimator,
)
from .stability import verify_contraction

__all__ = [
    "ConfigError",
    "make_potential",
    "validate_config",
    "run",
    "main",
    "CSV_SCHEMA",
    "EXPERIMENTS",
]

CSV_SCHEMA = ("gamma", "probe_point", "statistic", "value", "std_error")

EXPERIMENTS = (
    "simulate",
    "covariance-check",
    "drift-check",
    "tv-decay",
    "minorization",
    "poisson",
    "order-check",
    "stability-check",
)

_MC_DEFAULTS = {
    "simulate": {"steps": 100, "ensemble": 1000, "record_every": 10, "init": [0.0, 0.0]},
    "covariance-check": {"t0": 0.5},
    "drift-check": {"varpi": 0.1, "samples": 100_000, "radii": [5.0, 10.0, 15.0, 20.0]},
    "tv-decay": {"samples": 200_000, "horizon": 12.0, "init": [5.0, 0.0]},
    "minorization": {"t0": 0.5, "m_radius": 1.0, "pairs": 16, "samples": 1_000_000},
    "poisson": {
        "truncation_k": 150,
        "samples": 200_000,
        "observable": "x",
        "eval_points": [[-2.0, 0.0], [-1.0, 0.0], [0.0, 0.0], [1.0, 0.0], [2.0, 0.0]],
    },
    "order-check": {"gamma_pair": [0.2, 0.1], "samples": 1_000_000},
    "stability-check": {"k": 20, "lambda": 1.0, "trials": 10_000},
}

# d sizes every state array, and validate itself builds drift-check's probe
# states in R^d: 2^16 coordinates keep those under 20 MB.
_MAX_D = 2**16

# covariance-check sums float64 arrays of floor(t0 / gamma) + 1 entries at
# each gamma; 2^24 entries take 128 MiB per array.
_MAX_COVARIANCE_STEPS = 2**24

# drift-check's memory does not grow with its budget: a state holds one tile
# and one block of pending weights at any sample count, so only its work is
# capped. The work is samples x d at each probed state. One thread takes
# about 50 ns per unit at d = 2^16 (3.1 ms a sample), so 2^32 units take a
# few minutes; the drift-check-wide config (1e6 x 2 x 16) is 3.2e7.
_MAX_DRIFT_WORK = 2**32


class ConfigError(Exception):
    """The config file cannot be turned into a runnable experiment."""


def _finite(value, name) -> float:
    """``value`` as a float; ConfigError unless it is a finite real number."""
    number = math.nan
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:
            pass
    if not math.isfinite(number):
        raise ConfigError(f"{name} must be a finite number, got {value!r}")
    return number


# ---------------------------------------------------------------------------
# Potentials

_POTENTIALS = {
    "quadratic": (quadratic_potential, ("curvature",)),
    "quartic-well": (quartic_well_potential, ("quartic", "quadratic", "box_radius")),
    "flat-tail-counterexample": (flat_tail_potential, ("radius",)),
}


def make_potential(spec: dict) -> ForceModel:
    """The force field a config's ``potential`` object names.

    Only the coefficients the spec gives are passed on, so each default lives
    in its builder's signature.
    """
    kind = spec.get("kind")
    if not isinstance(kind, str) or kind not in _POTENTIALS:
        raise ConfigError(f"potential.kind must be one of {', '.join(_POTENTIALS)}; got {kind!r}")
    build, names = _POTENTIALS[kind]
    coefficients = {
        name: _finite(spec[name], f"potential.{name}") for name in names if name in spec
    }
    try:
        return build(**coefficients)
    except ContractViolation as exc:
        raise ConfigError(f"potential.{exc}")


# ---------------------------------------------------------------------------
# Config validation


def _require_positive(value, name):
    number = _finite(value, name)
    if not number > 0:
        raise ConfigError(f"{name} must be positive, got {value!r}")
    return number


def _require_int(value, name, minimum=1):
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise ConfigError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return value


def validate_config(raw: dict) -> dict:
    """Resolve and validate a raw config dict; unknown keys are dropped.

    Returns the fully resolved config (all defaults materialized). Raises
    ConfigError with a message naming the offending field.
    """
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    experiment = raw.get("experiment")
    if experiment not in EXPERIMENTS:
        raise ConfigError(
            f"experiment must be one of {', '.join(EXPERIMENTS)}; got {experiment!r}"
        )

    scheme_raw = raw.get("scheme")
    if not isinstance(scheme_raw, dict):
        raise ConfigError("scheme must be an object with kind, kappa, sigma and gamma")
    try:
        kind = SchemeKind(scheme_raw.get("kind"))
    except ValueError:
        valid = ", ".join(k.value for k in SchemeKind)
        raise ConfigError(f"scheme.kind must be one of {valid}; got {scheme_raw.get('kind')!r}")
    scheme = {
        "kind": kind.value,
        "kappa": _require_positive(scheme_raw.get("kappa", 1.0), "scheme.kappa"),
        "sigma": _require_positive(scheme_raw.get("sigma", 1.0), "scheme.sigma"),
    }
    if "gamma_grid" in scheme_raw:
        grid = scheme_raw["gamma_grid"]
        if not isinstance(grid, list) or not grid:
            raise ConfigError("scheme.gamma_grid must be a nonempty list")
        scheme["gamma_grid"] = [
            _require_positive(g, f"scheme.gamma_grid[{i}]") for i, g in enumerate(grid)
        ]
    elif "gamma" in scheme_raw:
        scheme["gamma"] = _require_positive(scheme_raw.get("gamma"), "scheme.gamma")
    else:
        raise ConfigError("scheme needs gamma or gamma_grid")
    if kind is SchemeKind.SG_EULER_MARUYAMA:
        scheme["sg_noise_scale"] = _require_positive(
            scheme_raw.get("sg_noise_scale", 1.0), "scheme.sg_noise_scale"
        )

    potential = raw.get("potential", {"kind": "quadratic", "curvature": 1.0})
    if not isinstance(potential, dict):
        raise ConfigError("potential must be an object with a kind tag")
    make_potential(potential)  # raises ConfigError on bad tags/coefficients

    d = _require_int(raw.get("d", 1), "d")
    if d > _MAX_D:
        raise ConfigError(f"d must be at most 2^16 = {_MAX_D}, got {d}")
    seed = raw.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ConfigError(f"seed must be a nonnegative integer, got {seed!r}")

    mc_raw = raw.get("monte_carlo", {})
    if not isinstance(mc_raw, dict):
        raise ConfigError("monte_carlo must be an object")
    mc = dict(_MC_DEFAULTS[experiment])
    for key, value in mc_raw.items():
        if key in mc:
            mc[key] = value
    _validate_mc(experiment, mc, scheme, d)

    output = raw.get("output", "results")
    if not isinstance(output, str) or not output:
        raise ConfigError("output must be a nonempty path string")

    cfg = {
        "experiment": experiment,
        "scheme": scheme,
        "potential": dict(potential),
        "d": d,
        "seed": seed,
        "monte_carlo": mc,
        "output": output,
    }
    _check_schemes(cfg)
    return cfg


def _check_schemes(cfg: dict) -> None:
    """ConfigError unless the scheme builds at every gamma the experiment
    steps with, so that parameters whose derived coefficients overflow or
    leave the family's range are refused before anything runs. For
    drift-check the gamma must also lie below the energy ceiling, and
    order-check needs the quadratic well its moment targets are exact on."""
    experiment = cfg["experiment"]
    gammas = _gammas(cfg)
    if experiment == "covariance-check":
        _check_covariance(cfg, gammas)
        return  # works from kappa and sigma alone, never builds the scheme
    for gamma in gammas:
        try:
            kind, params = _scheme_params(cfg, gamma)
            scheme = as_general_scheme(kind, params)
            if experiment == "drift-check":
                check_energy_ceiling(scheme)
                _check_log_weights(cfg, scheme)
            elif experiment == "order-check":
                _quadratic_curvature(params)
        except ContractViolation as exc:
            raise ConfigError(f"scheme at gamma = {gamma:g}: {exc}")


def _check_covariance(cfg: dict, gammas) -> None:
    """ConfigError unless covariance-check can run: at every gamma, tau =
    exp(-kappa gamma) lies in (0, 1), gamma lies below t0, and the step count
    floor(t0 / gamma) + 1 stays within ``_MAX_COVARIANCE_STEPS``; and the
    O(1) part, the continuous covariance at t0 with its sandwich, evaluates
    without a floating-point error that ``run`` would warn about."""
    t0 = cfg["monte_carlo"]["t0"]
    kappa, sigma = cfg["scheme"]["kappa"], cfg["scheme"]["sigma"]
    for gamma in gammas:
        if gamma >= t0:
            raise ConfigError(f"scheme gammas must lie below monte_carlo.t0 = {t0}")
        tau = math.exp(-kappa * gamma)
        if not 0.0 < tau < 1.0:
            raise ConfigError(
                f"scheme at gamma = {gamma:g}: tau = exp(-kappa gamma) = {tau:g} "
                f"must lie in (0, 1)"
            )
        if t0 / gamma >= _MAX_COVARIANCE_STEPS:
            raise ConfigError(
                f"scheme at gamma = {gamma:g}: monte_carlo.t0 = {t0:g} takes "
                f"floor(t0 / gamma) + 1 steps, more than {_MAX_COVARIANCE_STEPS}"
            )
    try:
        with np.errstate(all="raise", under="ignore"):
            covariance_consistency(t0, [], kappa, sigma)
    except (ArithmeticError, ValueError) as exc:
        raise ConfigError(
            f"the continuous covariance at t0 = {t0:g} or its sandwich does not evaluate: "
            f"{type(exc).__name__}: {exc}"
        )


def _check_log_weights(cfg: dict, scheme) -> None:
    """ConfigError unless varpi * phi, the exponent of the drift weight, is a
    finite float at every state drift-check probes."""
    mc = cfg["monte_carlo"]
    with np.errstate(over="ignore", invalid="ignore"):
        for st in _drift_grid(cfg["d"], mc["radii"]):
            if not math.isfinite(log_w_bar(st.x, st.v, scheme, mc["varpi"])):
                raise ConfigError(
                    f"monte_carlo.varpi = {mc['varpi']:g}: the log-weight varpi * phi "
                    f"overflows at x = {st.x.tolist()}, v = {st.v.tolist()}"
                )


def _validate_mc(experiment, mc, scheme, d):
    pre = "monte_carlo"
    if experiment == "simulate":
        mc["steps"] = _require_int(mc["steps"], f"{pre}.steps")
        mc["ensemble"] = _require_int(mc["ensemble"], f"{pre}.ensemble")
        mc["record_every"] = _require_int(mc["record_every"], f"{pre}.record_every")
        _check_init(mc["init"], pre)
    elif experiment == "covariance-check":
        mc["t0"] = _require_positive(mc["t0"], f"{pre}.t0")
    elif experiment == "drift-check":
        mc["varpi"] = _require_positive(mc["varpi"], f"{pre}.varpi")
        mc["samples"] = _require_int(mc["samples"], f"{pre}.samples", minimum=2)
        radii = mc["radii"]
        if not isinstance(radii, list) or not radii:
            raise ConfigError(f"{pre}.radii must be a nonempty list")
        mc["radii"] = [_require_positive(r, f"{pre}.radii[{i}]") for i, r in enumerate(radii)]
        states = len(_drift_grid(d, mc["radii"]))
        work = mc["samples"] * d * states
        if work > _MAX_DRIFT_WORK:
            raise ConfigError(
                f"{pre}.samples = {mc['samples']} at d = {d} over {states} states "
                f"is {work} sample coordinates of work, more than {_MAX_DRIFT_WORK}"
            )
    elif experiment == "tv-decay":
        mc["samples"] = _require_int(mc["samples"], f"{pre}.samples", minimum=2)
        mc["horizon"] = _require_positive(mc["horizon"], f"{pre}.horizon")
        _check_init(mc["init"], pre)
        if d != 1:
            raise ConfigError("tv-decay supports d = 1 only (scalar reference run)")
        if scheme["kind"] == SchemeKind.SG_EULER_MARUYAMA.value:
            raise ConfigError(
                "tv-decay has no scalar reference run for SgEulerMaruyama "
                "(its estimator draws a sample per step)"
            )
    elif experiment == "minorization":
        mc["t0"] = _require_positive(mc["t0"], f"{pre}.t0")
        mc["m_radius"] = _require_positive(mc["m_radius"], f"{pre}.m_radius")
        try:
            minorization_partition(mc["m_radius"], d)
        except ContractViolation as exc:
            raise ConfigError(str(exc))
        mc["pairs"] = _require_int(mc["pairs"], f"{pre}.pairs")
        mc["samples"] = _require_int(mc["samples"], f"{pre}.samples", minimum=2)
    elif experiment == "poisson":
        mc["truncation_k"] = _require_int(mc["truncation_k"], f"{pre}.truncation_k")
        mc["samples"] = _require_int(mc["samples"], f"{pre}.samples", minimum=2)
        if mc["observable"] not in ("x", "v"):
            raise ConfigError(f"{pre}.observable must be 'x' or 'v'")
        pts = mc["eval_points"]
        if not isinstance(pts, list) or not pts:
            raise ConfigError(f"{pre}.eval_points must be a nonempty list of [x.., v..] rows")
        for i, p in enumerate(pts):
            if not isinstance(p, list) or len(p) != 2 * d:
                raise ConfigError(f"{pre}.eval_points[{i}] must have 2*d = {2 * d} numbers")
            for j, val in enumerate(p):
                _finite(val, f"{pre}.eval_points[{i}][{j}]")
    elif experiment == "order-check":
        pair = mc["gamma_pair"]
        if not isinstance(pair, list) or len(pair) != 2:
            raise ConfigError(f"{pre}.gamma_pair must be [coarse, fine]")
        coarse = _require_positive(pair[0], f"{pre}.gamma_pair[0]")
        fine = _require_positive(pair[1], f"{pre}.gamma_pair[1]")
        if not fine < coarse:
            raise ConfigError(f"{pre}.gamma_pair must satisfy fine < coarse")
        mc["gamma_pair"] = [coarse, fine]
        mc["samples"] = _require_int(mc["samples"], f"{pre}.samples", minimum=2)
        if d != 1:
            raise ConfigError("order-check supports d = 1 only (scalar moment targets)")
    elif experiment == "stability-check":
        mc["k"] = _require_int(mc["k"], f"{pre}.k")
        mc["lambda"] = _require_positive(mc["lambda"], f"{pre}.lambda")
        mc["trials"] = _require_int(mc["trials"], f"{pre}.trials")


def _check_init(init, pre):
    if not isinstance(init, list) or len(init) != 2:
        raise ConfigError(f"{pre}.init must be [x0, v0]")
    for i, val in enumerate(init):
        _finite(val, f"{pre}.init[{i}]")


def _gammas(cfg: dict) -> list[float]:
    """The gammas the experiment steps with: order-check's gamma_pair, the
    gamma grid for minorization and covariance-check, and exactly one gamma
    for every other experiment."""
    if cfg["experiment"] == "order-check":
        return cfg["monte_carlo"]["gamma_pair"]
    scheme = cfg["scheme"]
    grid = scheme["gamma_grid"] if "gamma_grid" in scheme else [scheme["gamma"]]
    if cfg["experiment"] not in ("minorization", "covariance-check") and len(grid) != 1:
        raise ConfigError(f"{cfg['experiment']} needs a single scheme.gamma, got {grid}")
    return grid


def _scheme_params(cfg: dict, gamma: float) -> tuple[SchemeKind, SchemeParams]:
    kind = SchemeKind(cfg["scheme"]["kind"])
    force = make_potential(cfg["potential"])
    sg = None
    if kind is SchemeKind.SG_EULER_MARUYAMA:
        sg = gaussian_perturbation_estimator(force, cfg["scheme"]["sg_noise_scale"], cfg["d"])
    return kind, SchemeParams(
        kappa=cfg["scheme"]["kappa"],
        sigma=cfg["scheme"]["sigma"],
        gamma=gamma,
        force=force,
        sg_estimator=sg,
    )


# ---------------------------------------------------------------------------
# Experiment dispatch: each runner returns (rows, failures)


def _axis_state(d: int, a: float, b: float) -> State:
    x = np.zeros(d)
    v = np.zeros(d)
    x[0] = a
    v[0] = b
    return State(x, v)


def _drift_grid(d: int, radii) -> list[State]:
    """The states drift-check probes: four per radius."""
    return [
        _axis_state(d, a, b)
        for r in radii
        for a, b in ((r, 0.0), (0.0, r), (-r, 0.0), (r / 2.0, r / 2.0))
    ]


def _run_simulate(cfg):
    mc = cfg["monte_carlo"]
    (gamma,) = _gammas(cfg)
    kind, params = _scheme_params(cfg, gamma)
    scheme = as_general_scheme(kind, params)
    d = cfg["d"]
    init = State(np.full(d, float(mc["init"][0])), np.full(d, float(mc["init"][1])))
    config = TrajectoryConfig(
        n_steps=mc["steps"],
        seed=cfg["seed"],
        ensemble=mc["ensemble"],
        record_every=mc["record_every"],
    )
    rows = []
    root_n = math.sqrt(mc["ensemble"])
    # Each recorded state is reduced as it is yielded, so one state is held.
    for step, x, v in simulate_chain(scheme, init, config):
        point = f"t={step * gamma:.10g}"
        for stat, arr in (
            ("mean_x", x[:, 0]),
            ("mean_v", v[:, 0]),
            ("msq_x", np.sum(x**2, axis=1)),
            ("msq_v", np.sum(v**2, axis=1)),
        ):
            rows.append((gamma, point, stat, float(np.mean(arr)), float(np.std(arr) / root_n)))
    return rows, []


def _run_covariance_check(cfg):
    mc = cfg["monte_carlo"]
    grid = _gammas(cfg)
    table = covariance_consistency(
        mc["t0"], np.array(grid), cfg["scheme"]["kappa"], cfg["scheme"]["sigma"]
    )
    point = f"t0={mc['t0']:.10g}"
    rows = [(r.gamma, point, "max_abs_error", r.max_error, 0.0) for r in table.rows]
    failures = []
    for a, b in zip(table.rows, table.rows[1:]):
        if abs(a.gamma / b.gamma - 2.0) < 0.01:
            ratio = a.max_error / b.max_error if b.max_error > 0 else math.inf
            rows.append((b.gamma, point, "halving_ratio", ratio, 0.0))
            if not 1.5 <= ratio <= 2.5:
                failures.append(
                    f"covariance error ratio {ratio:.3g} between gamma={a.gamma:g} "
                    f"and {b.gamma:g} is outside [1.5, 2.5]"
                )
    if min(table.upper_min_eig, table.lower_min_eig) < -1e-9:
        failures.append("continuous covariance violates its sandwich bounds")
    return rows, failures


def _run_drift_check(cfg):
    mc = cfg["monte_carlo"]
    (gamma,) = _gammas(cfg)
    kind, params = _scheme_params(cfg, gamma)
    grid = _drift_grid(cfg["d"], mc["radii"])
    report = estimate_drift(kind, params, mc["varpi"], grid, mc["samples"], seed=cfg["seed"])
    rows = [
        (
            gamma,
            f"x={row.x[0]:.10g};v={row.v[0]:.10g}",
            "log_ratio",
            row.log_ratio,
            row.se_log,
        )
        for row in report.rows
    ]
    rows.append((gamma, "summary", "lambda_hat", report.lambda_hat, 0.0))
    rows.append((gamma, "summary", "k_hat", report.k_hat, 0.0))
    rows.append((gamma, "summary", "b_hat", report.b_hat, 0.0))
    failures = [f"drift: {w}" for w in report.warnings if "contracting" in w]
    return rows, failures


def _run_tv_decay(cfg):
    mc = cfg["monte_carlo"]
    (gamma,) = _gammas(cfg)
    kind, params = _scheme_params(cfg, gamma)
    init = State(np.array([float(mc["init"][0])]), np.array([float(mc["init"][1])]))
    estimate = fit_geometric_rate(
        kind, params, init, mc["horizon"], mc["samples"], seed=cfg["seed"]
    )
    rows = [
        (gamma, f"t={t:.10g}", "tv", float(val), 0.0)
        for t, val in zip(estimate.times, estimate.values)
    ]
    rows.append((gamma, "fit", "rho", estimate.rho, 0.0))
    rows.append((gamma, "fit", "prefactor", estimate.prefactor, 0.0))
    rows.append((gamma, "fit", "r_squared", estimate.r_squared, 0.0))
    failures = []
    if estimate.r_squared <= 0.95:
        failures.append(f"rate fit quality r^2 = {estimate.r_squared:.3f} <= 0.95")
    return rows, failures


def _run_minorization(cfg):
    mc = cfg["monte_carlo"]
    grid = _gammas(cfg)
    kind, params = _scheme_params(cfg, grid[0])
    estimates = minorization_probe(
        kind,
        params,
        mc["t0"],
        mc["m_radius"],
        grid,
        mc["pairs"],
        mc["samples"],
        seed=cfg["seed"],
        d=cfg["d"],
    )
    point = f"t0={mc['t0']:.10g};M={mc['m_radius']:.10g}"
    rows = []
    failures = []
    for est in estimates:
        rows.append((est.gamma, point, "epsilon_hat", est.epsilon, 0.0))
        rows.append((est.gamma, point, "max_tv", est.max_tv, 0.0))
        if est.epsilon <= 0.0:
            failures.append(f"epsilon_hat = 0 at gamma = {est.gamma:g}")
    eps = [e.epsilon for e in estimates]
    if min(eps) > 0 and max(eps) / min(eps) >= 2.0:
        failures.append(
            f"epsilon_hat spread {max(eps) / min(eps):.3g} across the gamma grid exceeds 2"
        )
    return rows, failures


def _run_poisson(cfg):
    mc = cfg["monte_carlo"]
    (gamma,) = _gammas(cfg)
    kind, params = _scheme_params(cfg, gamma)
    column = 0 if mc["observable"] == "x" else 1

    def phi(x, v):
        return (x if column == 0 else v)[:, 0]

    pts = np.array(mc["eval_points"], dtype=np.float64)
    report = solve_poisson(
        kind, params, phi, mc["truncation_k"], pts, mc["samples"], seed=cfg["seed"]
    )
    rows = []
    failures = []
    for j, p in enumerate(report.eval_points):
        point = f"x={p[0]:.10g};v={p[cfg['d']]:.10g}"
        rows.append((gamma, point, "psi_hat", float(report.psi[j]), float(report.psi_se[j])))
        rows.append(
            (gamma, point, "residual", float(report.residual[j]), float(report.residual_se[j]))
        )
        if report.residual[j] > 3.0 * report.residual_se[j]:
            failures.append(
                f"poisson residual {report.residual[j]:.3g} at {point} exceeds "
                f"3 x {report.residual_se[j]:.3g}"
            )
    rows.append((gamma, "summary", "tail_fraction", report.tail_fraction, 0.0))
    for warning in report.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    return rows, failures


def _run_order_check(cfg):
    mc = cfg["monte_carlo"]
    coarse, fine = _gammas(cfg)
    kind, params = _scheme_params(cfg, coarse)
    biases = stationary_moment_bias(kind, params, (coarse, fine), mc["samples"], seed=cfg["seed"])
    rows = []
    for name, est in sorted(biases.items()):
        rows.append((coarse, name, "bias", est.bias_coarse, est.se_coarse))
        rows.append((fine, name, "bias", est.bias_fine, est.se_fine))
        rows.append((coarse, name, "bias_ratio", est.ratio, 0.0))
        rows.append((coarse, name, "inconclusive", float(est.inconclusive), 0.0))
    failures = []
    if all(est.inconclusive for est in biases.values()):
        failures.append("all moment biases are below 3 standard errors; no order signal")
    return rows, failures


def _run_stability_check(cfg):
    mc = cfg["monte_carlo"]
    (gamma,) = _gammas(cfg)
    kind, params = _scheme_params(cfg, gamma)
    report = verify_contraction(
        kind, params, mc["k"], mc["lambda"], mc["trials"], seed=cfg["seed"], d=cfg["d"]
    )
    point = f"k={mc['k']};lambda={mc['lambda']:.10g}"
    rows = [
        (gamma, point, "max_ratio_coupled", report.max_ratio_coupled, 0.0),
        (gamma, point, "max_ratio_position_sum", report.max_ratio_position_sum, 0.0),
        (gamma, point, "max_ratio_velocity_sum", report.max_ratio_velocity_sum, 0.0),
        (gamma, point, "l_gamma", report.constants.l_gamma, 0.0),
        (gamma, point, "m_gamma", report.constants.m_gamma, 0.0),
    ]
    return rows, [f"stability: {w}" for w in report.witnesses]


_RUNNERS = {
    "simulate": _run_simulate,
    "covariance-check": _run_covariance_check,
    "drift-check": _run_drift_check,
    "tv-decay": _run_tv_decay,
    "minorization": _run_minorization,
    "poisson": _run_poisson,
    "order-check": _run_order_check,
    "stability-check": _run_stability_check,
}


# ---------------------------------------------------------------------------
# Files and entry points


def _content_hash(cfg: dict) -> str:
    hashed = {k: v for k, v in cfg.items() if k != "output"}
    return hashlib.sha256(
        json.dumps(hashed, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


def _write_outputs(cfg: dict, rows, out_dir: Path, wall_time: float) -> None:
    with open(out_dir / "results.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_SCHEMA)
        for gamma, point, stat, value, err in rows:
            writer.writerow([repr(float(gamma)), point, stat, repr(float(value)), repr(float(err))])
    meta = dict(cfg)
    meta["content_hash"] = _content_hash(cfg)
    meta["wall_time_s"] = wall_time
    meta["version"] = __version__
    meta["csv_schema"] = list(CSV_SCHEMA)
    with open(out_dir / "meta.json", "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _load_config(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}")


def run(config_path: str, seed: int | None = None, out: str | None = None) -> int:
    """Execute one experiment; returns the process exit status."""
    try:
        cfg = validate_config(_load_config(config_path))
        if seed is not None:
            if seed < 0:
                raise ConfigError("--seed must be nonnegative")
            cfg["seed"] = seed
        if out is not None:
            cfg["output"] = out
        out_dir = Path(cfg["output"])
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
            probe = out_dir / ".write-probe"
            probe.touch()
            probe.unlink()
        except OSError as exc:
            raise ConfigError(f"output directory {out_dir} is not writable: {exc}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    start = time.perf_counter()
    try:
        rows, failures = _RUNNERS[cfg["experiment"]](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ContractViolation as exc:
        print(f"config error: invalid numerics: {exc}", file=sys.stderr)
        return 2
    except DivergedError as exc:
        print(f"invariant failure: {exc}", file=sys.stderr)
        return 1
    except EstimationError as exc:
        print(f"criterion failure: {exc}", file=sys.stderr)
        return 1
    wall_time = time.perf_counter() - start

    _write_outputs(cfg, rows, out_dir, wall_time)
    for failure in failures:
        print(f"criterion failure: {failure}", file=sys.stderr)
    print(f"{cfg['experiment']}: {len(rows)} rows -> {out_dir / 'results.csv'}")
    return 1 if failures else 0


def validate(config_path: str) -> int:
    """Print the resolved config as JSON; the process exit status."""
    try:
        cfg = validate_config(_load_config(config_path))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(cfg, indent=2, sort_keys=True))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="langevin-kit",
        description="Run kinetic Langevin discretization experiments from a JSON config.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="execute an experiment config")
    run_p.add_argument("config", help="path to the JSON config")
    run_p.add_argument("--seed", type=int, default=None, help="override the config seed")
    run_p.add_argument("--out", default=None, help="override the output directory")
    val_p = sub.add_parser("validate", help="check a config without running it")
    val_p.add_argument("config", help="path to the JSON config")

    args = parser.parse_args(argv)
    if args.command == "run":
        return run(args.config, seed=args.seed, out=args.out)
    return validate(args.config)


if __name__ == "__main__":
    sys.exit(main())
