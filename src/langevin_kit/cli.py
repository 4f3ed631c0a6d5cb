"""Experiment runner.

Experiments are data: a single JSON config names the experiment, the scheme,
the potential and the Monte-Carlo budgets, and the command line only picks
the config file and optionally overrides the seed and the output directory.
Each run writes ``results.csv`` (one row per gamma, probe point and
statistic) and ``meta.json`` (the fully resolved config plus a content hash,
seed, wall time and library version). The meta file is itself a valid
config: unknown keys are dropped on load at every level (the top,
``scheme``, ``potential`` and ``monte_carlo``), so re-running it reproduces
the CSV byte for byte.

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

# d sizes every state array, and validate itself builds drift-check's probe
# states in R^d: 2^16 coordinates keep those under 20 MB.
_MAX_D = 2**16

# covariance-check sums float64 arrays of floor(t0 / gamma) + 1 entries at
# each gamma; 2^24 entries take 128 MiB per array.
_MAX_COVARIANCE_STEPS = 2**24

# drift-check's memory does not grow with its budget: a state holds one tile
# and one block of pending pairs at any sample count, so only its work is
# capped. The work is weight evaluations x d at each probed state, with the
# samples rounded up to whole antithetic pairs. One thread of a 2-vCPU Xeon
# takes about 40 ns per unit at d = 2^16 (2.6 ms a sample), so 2^32 units
# take about three minutes; the drift-check-wide config (1e6 x 2 x 16) is
# 3.2e7.
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


def _require_samples(value, name):
    return _require_int(value, name, minimum=2)


def _require_init(value, name):
    if not isinstance(value, list) or len(value) != 2:
        raise ConfigError(f"{name} must be [x0, v0]")
    for i, val in enumerate(value):
        _finite(val, f"{name}[{i}]")
    return value


def _require_radii(value, name):
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{name} must be a nonempty list")
    return [_require_positive(r, f"{name}[{i}]") for i, r in enumerate(value)]


def _require_observable(value, name):
    if value not in ("x", "v"):
        raise ConfigError(f"{name} must be 'x' or 'v'")
    return value


def _require_rows(value, name):
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{name} must be a nonempty list of [x.., v..] rows")
    return value


def _require_gamma_pair(value, name):
    if not isinstance(value, list) or len(value) != 2:
        raise ConfigError(f"{name} must be [coarse, fine]")
    coarse = _require_positive(value[0], f"{name}[0]")
    fine = _require_positive(value[1], f"{name}[1]")
    if not fine < coarse:
        raise ConfigError(f"{name} must satisfy fine < coarse")
    return [coarse, fine]


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
    entry = _TABLE[experiment]

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
    # Only the known keys stay, each with its value as given (an int stays an int).
    names = ("kind", *_POTENTIALS[potential["kind"]][1])
    potential = {name: potential[name] for name in names if name in potential}

    d = _require_int(raw.get("d", 1), "d")
    if d > _MAX_D:
        raise ConfigError(f"d must be at most 2^16 = {_MAX_D}, got {d}")
    seed = raw.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ConfigError(f"seed must be a nonnegative integer, got {seed!r}")
    if seed >= 2**64:
        # The generators key on the seed modulo 2^64: a larger one would
        # repeat a smaller seed's numbers under another content hash.
        raise ConfigError(f"seed must be below 2^64, got {seed}")

    mc_raw = raw.get("monte_carlo", {})
    if not isinstance(mc_raw, dict):
        raise ConfigError("monte_carlo must be an object")
    mc = {
        key: coerce(mc_raw.get(key, default), f"monte_carlo.{key}")
        for key, (default, coerce) in entry.fields.items()
    }
    if entry.scalar_only and d != 1:
        raise ConfigError(f"{experiment} supports d = 1 only ({entry.scalar_only})")
    if entry.cross is not None:
        entry.cross(mc, scheme, d)

    output = raw.get("output", "results")
    if not isinstance(output, str) or not output:
        raise ConfigError("output must be a nonempty path string")

    cfg = {"experiment": experiment, "scheme": scheme, "potential": potential, "d": d,
           "seed": seed, "monte_carlo": mc, "output": output}
    entry.check_schemes(cfg, _gammas(cfg, entry))
    return cfg


def _gammas(cfg: dict, entry) -> list[float]:
    """The gammas an experiment steps with, as its entry declares: the one
    scheme gamma, the scheme's gamma grid, or ``monte_carlo.gamma_pair``.
    Every experiment but a grid one takes exactly one scheme gamma."""
    scheme = cfg["scheme"]
    grid = scheme["gamma_grid"] if "gamma_grid" in scheme else [scheme["gamma"]]
    if entry.gammas != "grid" and len(grid) != 1:
        raise ConfigError(f"{cfg['experiment']} needs a single scheme.gamma, got {grid}")
    return cfg["monte_carlo"]["gamma_pair"] if entry.gammas == "pair" else grid


def _build_schemes(cfg: dict, gammas, check=None) -> None:
    """ConfigError unless the scheme builds at every gamma, so that parameters
    whose derived coefficients overflow or leave the family's range are
    refused before anything runs, and ``check(cfg, params, scheme)`` raises
    no ContractViolation there."""
    for gamma in gammas:
        try:
            kind, params = _scheme_params(cfg, gamma)
            scheme = as_general_scheme(kind, params)
            if check is not None:
                check(cfg, params, scheme)
        except ContractViolation as exc:
            raise ConfigError(f"scheme at gamma = {gamma:g}: {exc}")


def _check_covariance(cfg: dict, gammas) -> None:
    """ConfigError unless covariance-check can run: at every gamma, tau =
    exp(-kappa gamma) lies in (0, 1), gamma lies below t0, and the step count
    floor(t0 / gamma) + 1 stays within ``_MAX_COVARIANCE_STEPS``; and the
    O(1) part, the continuous covariance at t0 with its sandwich, evaluates
    without a floating-point error that ``run`` would warn about. It works
    from kappa and sigma alone and never builds the scheme."""
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


def _check_drift_scheme(cfg: dict, params, scheme) -> None:
    """ContractViolation unless gamma lies below the energy ceiling;
    ConfigError unless varpi * phi, the exponent of the drift weight, is a
    finite float at every state drift-check probes."""
    check_energy_ceiling(scheme)
    mc = cfg["monte_carlo"]
    with np.errstate(over="ignore", invalid="ignore"):
        for st in _drift_grid(cfg["d"], mc["radii"]):
            if not math.isfinite(log_w_bar(st.x, st.v, scheme, mc["varpi"])):
                raise ConfigError(
                    f"monte_carlo.varpi = {mc['varpi']:g}: the log-weight varpi * phi "
                    f"overflows at x = {st.x.tolist()}, v = {st.v.tolist()}"
                )


def _check_drift_work(mc, scheme, d) -> None:
    # The estimator draws antithetic pairs, so an odd count is rounded up.
    states = len(_drift_grid(d, mc["radii"]))
    work = 2 * ((mc["samples"] + 1) // 2) * d * states
    if work > _MAX_DRIFT_WORK:
        raise ConfigError(
            f"monte_carlo.samples = {mc['samples']} at d = {d} over {states} states "
            f"is {work} sample coordinates of work, more than {_MAX_DRIFT_WORK}"
        )


def _check_partition(mc, scheme, d) -> None:
    try:
        minorization_partition(mc["m_radius"], d)
    except ContractViolation as exc:
        raise ConfigError(str(exc))


def _check_eval_points(mc, scheme, d) -> None:
    for i, p in enumerate(mc["eval_points"]):
        if not isinstance(p, list) or len(p) != 2 * d:
            raise ConfigError(f"monte_carlo.eval_points[{i}] must have 2*d = {2 * d} numbers")
        for j, val in enumerate(p):
            _finite(val, f"monte_carlo.eval_points[{i}][{j}]")


def _scheme_params(cfg: dict, gamma: float) -> tuple[SchemeKind, SchemeParams]:
    scheme = cfg["scheme"]
    kind = SchemeKind(scheme["kind"])
    force = make_potential(cfg["potential"])
    sg = None
    if kind is SchemeKind.SG_EULER_MARUYAMA:
        sg = gaussian_perturbation_estimator(force, scheme["sg_noise_scale"], cfg["d"])
    return kind, SchemeParams(
        kappa=scheme["kappa"], sigma=scheme["sigma"], gamma=gamma, force=force, sg_estimator=sg
    )


# ---------------------------------------------------------------------------
# Experiment dispatch: each runner returns (rows, failures)


def _axis_state(d: int, a: float, b: float) -> State:
    x, v = np.zeros(d), np.zeros(d)
    x[0], v[0] = a, b
    return State(x, v)


def _drift_grid(d: int, radii) -> list[State]:
    """The states drift-check probes: four per radius."""
    return [
        _axis_state(d, a, b)
        for r in radii
        for a, b in ((r, 0.0), (0.0, r), (-r, 0.0), (r / 2.0, r / 2.0))
    ]


def _run_simulate(cfg, gammas):
    mc = cfg["monte_carlo"]
    (gamma,) = gammas
    kind, params = _scheme_params(cfg, gamma)
    scheme = as_general_scheme(kind, params)
    d = cfg["d"]
    init = State(np.full(d, float(mc["init"][0])), np.full(d, float(mc["init"][1])))
    config = TrajectoryConfig(
        n_steps=mc["steps"], seed=cfg["seed"], ensemble=mc["ensemble"],
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


def _run_covariance_check(cfg, gammas):
    mc = cfg["monte_carlo"]
    table = covariance_consistency(
        mc["t0"], np.array(gammas), cfg["scheme"]["kappa"], cfg["scheme"]["sigma"]
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


def _run_drift_check(cfg, gammas):
    mc = cfg["monte_carlo"]
    (gamma,) = gammas
    kind, params = _scheme_params(cfg, gamma)
    grid = _drift_grid(cfg["d"], mc["radii"])
    report = estimate_drift(kind, params, mc["varpi"], grid, mc["samples"], seed=cfg["seed"])
    rows = [
        (gamma, f"x={row.x[0]:.10g};v={row.v[0]:.10g}", "log_ratio", row.log_ratio, row.se_log)
        for row in report.rows
    ]
    rows.append((gamma, "summary", "lambda_hat", report.lambda_hat, 0.0))
    rows.append((gamma, "summary", "k_hat", report.k_hat, 0.0))
    rows.append((gamma, "summary", "b_hat", report.b_hat, 0.0))
    failures = [f"drift: {w}" for w in report.warnings if "contracting" in w]
    return rows, failures


def _run_tv_decay(cfg, gammas):
    mc = cfg["monte_carlo"]
    (gamma,) = gammas
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


def _run_minorization(cfg, gammas):
    mc = cfg["monte_carlo"]
    kind, params = _scheme_params(cfg, gammas[0])
    estimates = minorization_probe(
        kind, params, mc["t0"], mc["m_radius"], gammas, mc["pairs"], mc["samples"],
        seed=cfg["seed"], d=cfg["d"],
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


def _run_poisson(cfg, gammas):
    mc = cfg["monte_carlo"]
    (gamma,) = gammas
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


def _run_order_check(cfg, gammas):
    mc = cfg["monte_carlo"]
    coarse, fine = gammas
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


def _run_stability_check(cfg, gammas):
    mc = cfg["monte_carlo"]
    (gamma,) = gammas
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


# ---------------------------------------------------------------------------
# The experiments: each entry is all that validate and run know of one


class _Experiment:
    """What one experiment accepts, checks and runs.

    ``fields`` maps each ``monte_carlo`` field, in the order they resolve, to
    (default, coercer); ``coerce(value, "monte_carlo.<field>")`` raises
    ConfigError. ``gammas`` names what it steps: the "one" scheme gamma, the
    scheme's gamma "grid", or ``monte_carlo.gamma_pair`` ("pair", with one
    scheme gamma that it never steps). ``scalar_only`` says why it supports
    d = 1 only. ``cross(mc, scheme, d)`` checks fields against each other
    and d. ``check_schemes(cfg, gammas)`` refuses gammas it cannot step at.
    ``runner(cfg, gammas)`` returns (rows, failures).
    """

    def __init__(self, fields, runner, *, gammas="one", scalar_only="", cross=None,
                 check_schemes=_build_schemes):
        self.fields, self.runner, self.gammas = fields, runner, gammas
        self.scalar_only, self.cross, self.check_schemes = scalar_only, cross, check_schemes


_TABLE = {
    "simulate": _Experiment(
        {"steps": (100, _require_int), "ensemble": (1000, _require_int),
         "record_every": (10, _require_int), "init": ([0.0, 0.0], _require_init)},
        _run_simulate,
    ),
    "covariance-check": _Experiment(
        {"t0": (0.5, _require_positive)},
        _run_covariance_check, gammas="grid", check_schemes=_check_covariance,
    ),
    "drift-check": _Experiment(
        {"varpi": (0.1, _require_positive), "samples": (100_000, _require_samples),
         "radii": ([5.0, 10.0, 15.0, 20.0], _require_radii)},
        _run_drift_check, cross=_check_drift_work,
        check_schemes=lambda cfg, gammas: _build_schemes(cfg, gammas, _check_drift_scheme),
    ),
    "tv-decay": _Experiment(
        {"samples": (200_000, _require_samples), "horizon": (12.0, _require_positive),
         "init": ([5.0, 0.0], _require_init)},
        _run_tv_decay, scalar_only="the rate partition's 32 cells per axis, 32^(2d) in all",
    ),
    "minorization": _Experiment(
        {"t0": (0.5, _require_positive), "m_radius": (1.0, _require_positive),
         "pairs": (16, _require_int), "samples": (1_000_000, _require_samples)},
        _run_minorization, gammas="grid", cross=_check_partition,
    ),
    "poisson": _Experiment(
        {"truncation_k": (150, _require_int), "samples": (200_000, _require_samples),
         "observable": ("x", _require_observable),
         "eval_points": ([[-2.0, 0.0], [-1.0, 0.0], [0.0, 0.0], [1.0, 0.0], [2.0, 0.0]],
                         _require_rows)},
        _run_poisson, cross=_check_eval_points,
    ),
    "order-check": _Experiment(
        {"gamma_pair": ([0.2, 0.1], _require_gamma_pair),
         "samples": (1_000_000, _require_samples)},
        _run_order_check, gammas="pair", scalar_only="scalar moment targets",
        # the moment targets are exact on a quadratic well only
        check_schemes=lambda cfg, gammas: _build_schemes(
            cfg, gammas, lambda _cfg, params, _scheme: _quadratic_curvature(params)
        ),
    ),
    "stability-check": _Experiment(
        {"k": (20, _require_int), "lambda": (1.0, _require_positive),
         "trials": (10_000, _require_int)},
        _run_stability_check,
    ),
}

EXPERIMENTS = tuple(_TABLE)


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
        raw = _load_config(config_path)
        if isinstance(raw, dict):  # validate_config refuses anything else
            raw.update((k, v) for k, v in (("seed", seed), ("output", out)) if v is not None)
        cfg = validate_config(raw)
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

    entry = _TABLE[cfg["experiment"]]
    start = time.perf_counter()
    try:
        rows, failures = entry.runner(cfg, _gammas(cfg, entry))
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
