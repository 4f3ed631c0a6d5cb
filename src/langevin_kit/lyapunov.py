"""Exponential Lyapunov machinery for the general one-step recursion.

The central object is the step-dependent quadratic-plus-potential energy

    W(x, v) = kappa^2/2 |x|^2 + |v|^2
              + kappa^2 gamma (1 + gamma vartheta) / (1 - tau) <x, v>
              + 2 alpha_U U(x),

together with phi = sqrt(1 + W) and the exponential weight
exp(varpi phi). It is the paper's energy at delta = 1, the exponent every
scheme here embeds with (see ``core``). Every quantity in W is read from the
scheme: kappa, gamma, tau, vartheta, and the potential U of the force it
steps with; the weight alpha_U of the potential is fixed at 1
(``ALPHA_U``). The module evaluates these, derives the constants that
bracket them (lower quadratic constant, admissible timestep ceiling, upper
and Lipschitz constants of phi), verifies the drift-structure conditions on
the scheme's corrections f and g by sampling, and estimates the one-step
geometric drift of the exponential weight by Monte Carlo.

Everything involving the exponential weight is computed in the log domain;
ratios of weights at far-out states stay finite even when the weights
themselves overflow.
"""

from __future__ import annotations

import math
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from . import _rng
from .core import (
    ContractViolation,
    ForceModel,
    GeneralScheme,
    NoiseDraw,
    row_dot,
    step_ensemble,
    validate_d1,
)
from .schemes import (
    SchemeKind,
    SchemeParams,
    as_general_scheme,
    cabac_coefficients,
)

__all__ = [
    "ALPHA_U",
    "DerivedConstants",
    "w_gamma",
    "phi_gamma",
    "log_w_bar",
    "v_cal",
    "v_bar",
    "script_f",
    "derived_constants",
    "check_energy_ceiling",
    "verify_d2",
    "D2Report",
    "estimate_drift",
    "drift_state_bytes",
    "DriftReport",
    "DriftRow",
]

# The weight of the potential in W: the drift condition is stated for 1.
ALPHA_U = 1.0
_OVERFLOW_EXPONENT = 700.0
# Floats per tile in estimate_drift: a tile has max(1, _TILE_FLOATS // d)
# rows, so a (rows, d) float64 intermediate takes 256 KiB in any d and a
# tile's working set stays within an L2 cache (16384 rows at d = 2).
_TILE_FLOATS = 32768


@dataclass(frozen=True)
class DerivedConstants:
    c_w: float
    gamma_bar_w: float
    frak_c_phi: float
    l_phi: float


def derived_constants(
    kappa: float,
    c_kappa: float,
    vartheta_bar: float,
    lipschitz: float,
) -> DerivedConstants:
    """Constants bracketing the energy W and its square root.

    c_w is the quadratic lower constant, gamma_bar_w the timestep ceiling
    below which the lower bound holds (capped by the family ceiling
    1/(kappa + 2 c_kappa / kappa) and by 1), frak_c_phi the upper constant
    with phi <= 1 + frak_c_phi (|x| + |v|), and l_phi the uniform Lipschitz
    bound of phi.
    """
    if kappa <= 0 or c_kappa < 0 or vartheta_bar < 0 or lipschitz < 0:
        raise ContractViolation("constants must be positive (c_kappa, vartheta_bar, L >= 0)")
    c_w = 0.5 * min(kappa**2 / 6.0, 0.25)
    gamma_bar = 1.0 / (kappa + 2.0 * c_kappa / kappa)
    ceiling = c_w / (kappa * vartheta_bar + (1.0 + vartheta_bar) * (2.0 * c_kappa + kappa**2))
    gamma_bar_w = min(1.0, gamma_bar, ceiling)
    frak_c_phi = math.sqrt(
        max(1.0, kappa**2 / 2.0 + ALPHA_U * lipschitz)
        + 0.5 * (1.0 + vartheta_bar) * (kappa**2 + kappa + 2.0 * c_kappa)
    )
    l_phi = (1.0 / math.sqrt(c_w)) * max(
        2.0,
        2.0 * ALPHA_U * lipschitz + kappa**2,
        (1.0 + vartheta_bar) * (kappa**2 + kappa + c_kappa),
    )
    return DerivedConstants(c_w=c_w, gamma_bar_w=gamma_bar_w, frak_c_phi=frak_c_phi, l_phi=l_phi)


def check_energy_ceiling(scheme: GeneralScheme) -> None:
    """ContractViolation unless the scheme's gamma lies below gamma_bar_w.

    The energy W is bounded below by c_w (|x|^2 + |v|^2) only under the
    ceiling, so the drift estimator refuses a larger timestep. The constants
    are those of the scheme's own weight.
    """
    dc = derived_constants(
        scheme.kappa,
        scheme.c_kappa,
        scheme.vartheta_bar,
        _require_potential(scheme).lipschitz,
    )
    if scheme.gamma > dc.gamma_bar_w * (1.0 + 1e-12):
        raise ContractViolation(
            f"gamma = {scheme.gamma:g} exceeds the energy ceiling {dc.gamma_bar_w:g}"
        )


def _require_potential(scheme: GeneralScheme) -> ForceModel:
    if scheme.force.potential is None:
        raise ContractViolation("the scheme's force model must carry the potential U")
    return scheme.force


def _exp_unless_overflow(lg):
    """exp(lg), except that exponents above 700 are returned as-is."""
    if np.ndim(lg) == 0:
        return math.exp(lg) if lg <= _OVERFLOW_EXPONENT else float(lg)
    lg = np.asarray(lg)
    return np.where(lg <= _OVERFLOW_EXPONENT, np.exp(np.minimum(lg, _OVERFLOW_EXPONENT)), lg)


def w_gamma(x, v, scheme: GeneralScheme):
    """The quadratic-plus-potential energy at (x, v); batched over leading axes."""
    potential = _require_potential(scheme).potential
    x = np.asarray(x, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    g_ = scheme.gamma
    cross = scheme.kappa**2 * g_ * (1.0 + g_ * scheme.vartheta) / (1.0 - scheme.tau)
    val = (
        0.5 * scheme.kappa**2 * row_dot(x, x)
        + row_dot(v, v)
        + cross * row_dot(x, v)
        + 2.0 * ALPHA_U * np.asarray(potential(x), dtype=np.float64)
    )
    return float(val) if val.ndim == 0 else val


def phi_gamma(x, v, scheme: GeneralScheme):
    """sqrt(1 + W); the quantity whose exponential is the drift weight."""
    return np.sqrt(1.0 + w_gamma(x, v, scheme))


def log_w_bar(x, v, scheme: GeneralScheme, varpi: float):
    """Logarithm of the exponential weight: varpi * phi, for varpi > 0."""
    if not varpi > 0:
        raise ContractViolation(f"varpi must be positive, got {varpi!r}")
    return varpi * phi_gamma(x, v, scheme)


def v_cal(x, v, force: ForceModel):
    """|x|^2 + |v|^2 + U(x), the scheme-free comparison energy."""
    if force.potential is None:
        raise ContractViolation("a force model carrying the potential U is required")
    x = np.asarray(x, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    val = (
        row_dot(x, x)
        + row_dot(v, v)
        + np.asarray(force.potential(x), dtype=np.float64)
    )
    return float(val) if val.ndim == 0 else val


def v_bar(x, v, varpi: float, force: ForceModel):
    """exp(varpi sqrt(1 + V)), except that exponents above 700 are returned
    as-is, so far-out states give a finite value instead of inf."""
    return _exp_unless_overflow(varpi * np.sqrt(1.0 + v_cal(x, v, force)))


def _grad_sq_over_l2(x: np.ndarray, force: ForceModel) -> np.ndarray:
    if force.lipschitz <= 0:
        raise ContractViolation("the force model must declare a positive Lipschitz constant")
    grad = force.grad_potential(x) if force.grad_potential is not None else -force.b(x)
    return np.sum(np.asarray(grad) ** 2, axis=-1) / force.lipschitz**2


def script_f(x, v, z, w, force: ForceModel):
    """|grad U|^2/L^2 + |v|^2 + |z|^2 + |w|^2 + |x|; the last norm unsquared."""
    x = np.asarray(x, dtype=np.float64)
    val = (
        _grad_sq_over_l2(x, force)
        + np.sum(np.asarray(v, dtype=np.float64) ** 2, axis=-1)
        + np.sum(np.asarray(z, dtype=np.float64) ** 2, axis=-1)
        + np.sum(np.asarray(w, dtype=np.float64) ** 2, axis=-1)
        + np.linalg.norm(x, axis=-1)
    )
    return float(val) if val.ndim == 0 else val


def _radial_confinement_tail(force: ForceModel, rng: np.random.Generator, d: int):
    """Worst direction of <grad U, x> / (|x| + |grad U|^2) on a radius grid.

    Returns (tail_value, witness) with the witness describing the minimizing
    radius once the profile has settled, or None when the tail stays positive.
    """
    radii = np.geomspace(1.0, 1e3, 13)
    dirs = rng.standard_normal((48, d))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    grad_fn = force.grad_potential if force.grad_potential is not None else lambda p: -force.b(p)
    profile = np.empty(radii.size)
    for i, r in enumerate(radii):
        pts = r * dirs
        grad = np.asarray(grad_fn(pts))
        num = np.sum(grad * pts, axis=1)
        den = r + np.sum(grad * grad, axis=1)
        profile[i] = float(np.min(num / den))
    tail = float(np.min(profile[-4:]))
    if tail > 1e-9:
        return tail, None
    bad = int(np.argmin(profile[-4:])) + radii.size - 4
    return tail, (
        f"confinement ratio <grad U, x>/(|x| + |grad U|^2) falls to {tail:.3g} "
        f"at radius {radii[bad]:.3g}"
    )


@dataclass(frozen=True)
class D2GammaFit:
    gamma: float
    vartheta: float
    c_quadratic: float
    c_position_f: float
    c_position_g: float


@dataclass(frozen=True)
class CabacBounds:
    c_bar_grid: float
    g_bar_grid: float
    c_bar_analytic: float
    g_bar_analytic: float
    k_fit: float
    k_bound: float
    ok: bool


@dataclass(frozen=True)
class D2Report:
    kind: SchemeKind
    passed: bool
    alpha_u: float
    zeta_u: float
    delta_u: float
    c_u: float
    confinement_tail: float
    uniform: bool
    per_gamma: list[D2GammaFit] = field(default_factory=list)
    witnesses: list[str] = field(default_factory=list)
    cabac: CabacBounds | None = None


def _d2_samples(rng, n, d, m1, m2, w2_transform):
    scale_x = np.choose(rng.integers(0, 3, n), [1.0, 10.0, 100.0])[:, None]
    scale = np.where(rng.random(n) < 0.5, 1.0, 10.0)[:, None]
    x = rng.standard_normal((n, d)) * scale_x
    v = rng.standard_normal((n, d)) * scale
    z = rng.standard_normal((n, d)) * scale
    w1 = rng.standard_normal((n, m1)) * scale if m1 else np.empty((n, 0))
    w2 = rng.standard_normal((n, m2))
    if w2_transform is not None and m2:
        w2 = w2_transform(w2)
    return x, v, z, w1, w2


def _cabac_cross_check(params: SchemeParams, gamma_grid) -> CabacBounds:
    kappa, sigma = params.kappa, params.sigma
    c_vals, g_vals, k_vals = [], [], []
    for gam in gamma_grid:
        co = cabac_coefficients(float(gam), kappa, sigma)
        c_vals.append(max(abs(co.c1), co.c2, co.c3, co.c4))
        g_vals.append(max(co.g1, co.c2, co.c3, co.c4))
        k_vals.append(abs(co.g1 - 1.0) / float(gam))
    c_bar_analytic = max(kappa / 2.0, 0.5, sigma / 4.0)
    g_bar_analytic = max(1.0, sigma / 4.0)
    k_bound = kappa / 2.0
    slack = 1.0 + 1e-9
    ok = (
        max(c_vals) <= c_bar_analytic * slack
        and max(g_vals) <= g_bar_analytic * slack
        and max(k_vals) <= k_bound * slack
    )
    return CabacBounds(
        c_bar_grid=max(c_vals),
        g_bar_grid=max(g_vals),
        c_bar_analytic=c_bar_analytic,
        g_bar_analytic=g_bar_analytic,
        k_fit=max(k_vals),
        k_bound=k_bound,
        ok=ok,
    )


def verify_d2(
    kind: SchemeKind,
    params: SchemeParams,
    gamma_grid,
    sample_count: int,
    seed: int = 0,
    d: int = 2,
) -> D2Report:
    """Probe the drift-structure inequalities on random samples and a gamma grid.

    For each gamma, draws mixed-scale (x, v, z, w) samples, evaluates the
    corrections f and g in their scaled slots (gamma v and
    gamma^(3/2) sigma_gamma z), and fits the smallest constant making each of
    the three inequalities hold:

      |f|^2 + |g + alpha_U grad U|^2   <= C [1 + gamma^d_U F],
      <x, f> - gamma vartheta <x,v>    <= C [gamma^d_U |x||w1| + 1 + gamma^d_U F],
      <x, g> + zeta_U [|grad U|^2/L^2 + |x|] <= C [1 + gamma^d_U F],

    with F evaluated at (x, v, sqrt(gamma) sigma_gamma z, w), alpha_U = 1
    and U the potential of ``params.force``. The exponent d_U is fitted: the
    largest candidate for which the per-gamma constants do not grow as gamma
    decreases is kept. A radial probe of the confinement ratio supplies
    zeta_U, and reports a witness when the ratio degenerates (potentials
    flattening at infinity).
    """
    gamma_grid = [float(g) for g in gamma_grid]
    if not gamma_grid or sample_count < 1:
        raise ContractViolation("a nonempty gamma grid and sample_count >= 1 are required")
    potential = params.force
    if potential.potential is None or potential.grad_potential is None:
        raise ContractViolation("verify_d2 needs a force model with U and grad U")
    rng = np.random.default_rng(seed)
    validate_d1(potential, rng.standard_normal((128, d)) * 3.0)

    witnesses: list[str] = []
    tail, tail_witness = _radial_confinement_tail(potential, rng, d)
    if tail_witness is not None:
        witnesses.append(tail_witness)
        return D2Report(
            kind=kind,
            passed=False,
            alpha_u=ALPHA_U,
            zeta_u=0.0,
            delta_u=0.0,
            c_u=math.inf,
            confinement_tail=tail,
            uniform=False,
            witnesses=witnesses,
        )
    zeta = tail / 2.0

    grad_fn = potential.grad_potential
    lips = potential.lipschitz
    fits_by_delta: dict[float, list[D2GammaFit]] = {}
    chosen_delta = None
    uniform = False
    for delta_u in (1.0, 0.5, 0.25):
        fits: list[D2GammaFit] = []
        for gam in gamma_grid:
            scheme = as_general_scheme(kind, replace(params, gamma=gam))
            m1, m2 = scheme.noise_spec.dims(d)
            x, v, z, w1, w2 = _d2_samples(
                np.random.default_rng(seed + 1), sample_count, d, m1, m2,
                scheme.noise_spec.w2_transform,
            )
            v_s = gam * v
            z_s = gam**1.5 * scheme.sigma_gamma * z
            f_val, g_val = scheme.corrections(x, v_s, z_s, w1, w2)
            if f_val is None:
                f_val = np.zeros_like(x)
            grad = np.asarray(grad_fn(x))
            w_all = np.concatenate([w1, w2], axis=1)
            f_cal = script_f(x, v, math.sqrt(gam) * scheme.sigma_gamma * z, w_all, potential)
            bracket = 1.0 + gam**delta_u * f_cal
            norm_x = np.linalg.norm(x, axis=1)

            lhs1 = np.sum(f_val**2, axis=1) + np.sum((g_val + ALPHA_U * grad) ** 2, axis=1)
            c1 = float(np.max(lhs1 / bracket))

            lhs2 = np.sum(x * f_val, axis=1) - gam * scheme.vartheta * np.sum(x * v, axis=1)
            den2 = gam**delta_u * norm_x * np.linalg.norm(w1, axis=1) + bracket
            c2 = max(0.0, float(np.max(lhs2 / den2)))

            lhs3 = np.sum(x * g_val, axis=1) + zeta * (
                _grad_sq_over_l2(x, potential) + norm_x
            )
            c3 = max(0.0, float(np.max(lhs3 / bracket)))
            fits.append(D2GammaFit(gam, scheme.vartheta, c1, c2, c3))
        fits_by_delta[delta_u] = fits
        ceu = np.array([max(f.c_quadratic, f.c_position_f, f.c_position_g) for f in fits])
        if len(gamma_grid) >= 3 and np.ptp(np.log(gamma_grid)) > 0:
            slope = np.polyfit(np.log(gamma_grid), np.log(ceu + 1e-300), 1)[0]
            uniform = bool(slope > -0.25)
        else:
            uniform = True
        if uniform:
            chosen_delta = delta_u
            break
    if chosen_delta is None:
        chosen_delta = 0.25
        witnesses.append(
            "fitted constant grows as gamma decreases for every candidate exponent; "
            "no uniform drift-structure constant found"
        )
    fits = fits_by_delta[chosen_delta]
    c_u = max(max(f.c_quadratic, f.c_position_f, f.c_position_g) for f in fits)
    if not math.isfinite(c_u):
        witnesses.append("fitted constant is not finite")

    cabac = None
    if kind is SchemeKind.SPLIT_CABAC:
        cabac = _cabac_cross_check(params, gamma_grid)
        if not cabac.ok:
            witnesses.append("analytic coefficient bounds violated on the gamma grid")

    passed = uniform and math.isfinite(c_u) and not witnesses
    return D2Report(
        kind=kind,
        passed=passed,
        alpha_u=ALPHA_U,
        zeta_u=zeta,
        delta_u=chosen_delta,
        c_u=c_u,
        confinement_tail=tail,
        uniform=uniform,
        per_gamma=fits,
        witnesses=witnesses,
        cabac=cabac,
    )


@dataclass(frozen=True)
class DriftRow:
    x: np.ndarray
    v: np.ndarray
    radius: float
    log_ratio: float
    ratio: float
    se_log: float


@dataclass(frozen=True)
class DriftReport:
    rows: list[DriftRow]
    lambda_hat: float
    k_hat: float
    b_hat: float
    varpi: float
    gamma: float
    warnings: list[str] = field(default_factory=list)


def _log_sum_exp(a: np.ndarray, scratch: np.ndarray) -> float:
    """scipy.special.logsumexp of a 1-d float64 array, bit for bit, on
    ``scratch`` (a float64 array of a's length, overwritten) instead of
    scipy's five full-length temporaries.

    Performs scipy 1.17's operations in its order (the max-shifted sum of
    Blanchard, Higham & Higham, IMA J. Numer. Anal. 2021): the maximum and
    its m ties are split off, the other entries are shifted, exponentiated
    and summed pairwise, and the result is log1p(s / m) + log(m) + max on
    1-element arrays. A non-finite result (an infinite or NaN entry, or
    overflow) is left to scipy, whose direct path handles those cases.
    """
    with np.errstate(invalid="ignore", divide="ignore"):
        a_max = np.max(a, keepdims=True)
        ties = a == a_max
        m = np.array([np.count_nonzero(ties)], dtype=np.float64)
        shifted = np.subtract(a, a_max, out=scratch)
        np.exp(shifted, out=shifted)
        shifted[ties] = 0.0
        s = np.sum(shifted, keepdims=True)
        del ties
        if s[0] != 0.0:
            s /= m
        out = float((np.log1p(s) + np.log(m) + a_max)[0])
    if math.isfinite(out):
        return out
    from scipy.special import logsumexp  # loaded only for this rare fallback

    return float(logsumexp(a))


def _tile_rows(d: int) -> int:
    return max(1, _TILE_FLOATS // d)


def drift_state_bytes(mc: int, d: int) -> int:
    """An upper estimate of the memory ``estimate_drift`` holds for one state
    of R^d at ``mc`` samples; the states in flight at once (one per worker
    thread) each hold this much.

    A worker holds 17 bytes per sample: the float64 log-weights, a float64
    scratch buffer (the log-sum-exp's shifted copy, then the squared
    deviations) and the log-sum-exp's boolean tie mask. A tile holds at most
    16 float64 arrays of max(_TILE_FLOATS, d) entries: the state copies, the
    noise blocks and the step and energy intermediates. The measured
    tracemalloc peak stays below this estimate (18.3 MiB at 1e6 samples in
    d = 2 and d = 8, against an estimate of 20.2 MiB).
    """
    return 17 * mc + 16 * 8 * _tile_rows(d) * d


def estimate_drift(
    kind: SchemeKind,
    params: SchemeParams,
    varpi: float,
    grid,
    mc: int,
    seed: int = 0,
) -> DriftReport:
    """Monte-Carlo one-step drift ratios of the exponential weight.

    For each grid state, estimates E[exp(varpi phi(X1, V1))] over ``mc``
    one-step samples and reports its log-ratio against the starting weight.
    The report fits the smallest radius k_hat beyond which every state
    contracts with 95% confidence, the per-unit-time factor lambda_hat over
    those states, and the additive constant b_hat inside. States use
    independent RNG substreams, so the report is reproducible and does not
    depend on the evaluation order or thread count.

    Each noise block has its own stream: z comes from the state's
    ``default_rng`` and w1, w2 from the two children its seed sequence
    spawns. Every block is drawn tile by tile, and each tile continues its
    block's stream, so the values do not depend on the tile size. Tiles have
    max(1, ``_TILE_FLOATS`` // d) rows; the step and the energy run over one
    tile at a time from a contiguous copy of the state, and the weights are
    reduced in place. A state's working set is one float64 per sample, the
    reduction's temporaries and one tile (see ``drift_state_bytes``), in any
    d; each worker thread reuses its per-sample buffers from state to state.
    A ratio too large for a float is reported as inf, and so is a state
    whose log-weight varpi * phi overflows, with an infinite standard error.
    """
    scheme = as_general_scheme(kind, params)
    check_energy_ceiling(scheme)
    states = list(grid)
    if not states or mc < 2:
        raise ContractViolation("a nonempty state grid and mc >= 2 are required")
    log_starts = [log_w_bar(st.x, st.v, scheme, varpi) for st in states]
    d = states[0].d
    widths = (d, *scheme.noise_spec.dims(d))
    w2_transform = scheme.noise_spec.w2_transform if widths[2] else None
    tile_rows = _tile_rows(d)
    children = np.random.SeedSequence(seed).spawn(len(states))
    # Each worker thread keeps one pair of per-sample buffers for all the
    # states it takes, so their pages are touched once per call, not per state.
    buffers = threading.local()

    def one_state(idx: int) -> DriftRow:
        if not hasattr(buffers, "a"):
            buffers.a, buffers.scratch = np.empty(mc), np.empty(mc)
        a, scratch = buffers.a, buffers.scratch
        st = states[idx]
        radius = float(np.linalg.norm(st.x) + np.linalg.norm(st.v))
        rngs = [np.random.default_rng(s) for s in (children[idx], *children[idx].spawn(2))]
        n_tile = min(mc, tile_rows)
        x_tile = np.tile(st.x, (n_tile, 1))
        v_tile = np.tile(st.v, (n_tile, 1))
        # Every tile reuses them, so the step must not write into them.
        x_tile.flags.writeable = v_tile.flags.writeable = False
        # Step and energy are row-wise, so evaluating them one tile of rows
        # at a time gives the same values as one whole-ensemble pass while
        # the intermediates stay cache-sized.
        for lo in range(0, mc, tile_rows):
            hi = min(lo + tile_rows, mc)
            z, w1, w2 = (rng.standard_normal((hi - lo, w)) for rng, w in zip(rngs, widths))
            if w2_transform is not None:
                w2 = w2_transform(w2)
            x1, v1 = step_ensemble(
                scheme, x_tile[: hi - lo], v_tile[: hi - lo], NoiseDraw(z, w1, w2)
            )
            with np.errstate(over="ignore"):
                a[lo:hi] = log_w_bar(x1, v1, scheme, varpi)
        # Checked once, not per tile: with two worker threads, every numpy
        # call in the tile loop costs more than its own work.
        if not np.isfinite(a).all():
            # varpi * phi left the float range, so the mean weight has no
            # finite logarithm and the state is not contracting.
            return DriftRow(st.x, st.v, radius, math.inf, math.inf, math.inf)
        log_mean = _log_sum_exp(a, scratch) - math.log(mc)
        a -= log_mean
        np.exp(a, out=a)
        # np.std(a, ddof=1): numpy 2's operations in its order, with the
        # squared deviations in scratch.
        np.subtract(a, np.sum(a, keepdims=True) / mc, out=scratch)
        np.square(scratch, out=scratch)
        se_log = float(np.sqrt(np.sum(scratch) / (mc - 1)) / math.sqrt(mc))
        log_ratio = log_mean - log_starts[idx]
        try:
            ratio = math.exp(log_ratio)
        except OverflowError:
            ratio = math.inf
        return DriftRow(st.x, st.v, radius, log_ratio, ratio, se_log)

    n_threads = min(_rng.worker_threads(), len(states))
    with ThreadPoolExecutor(max_workers=n_threads) as pool:
        rows = list(pool.map(one_state, range(len(states))))

    warnings = [
        f"state at radius {row.radius:.3g}: relative standard error {row.se_log:.2g} "
        "exceeds 10% of the estimate"
        for row in rows
        if row.se_log > 0.1
    ]

    radii = sorted({row.radius for row in rows})
    k_hat = math.inf
    for cand in [0.0] + radii:
        outside = [r for r in rows if r.radius > cand]
        if outside and all(r.log_ratio + 1.96 * r.se_log < 0.0 for r in outside):
            k_hat = cand
            break
    if math.isinf(k_hat):
        warnings.append("no radius with uniformly contracting tail found")
        lambda_hat = 1.0
        log_lambda_gamma = 0.0
    else:
        outside = [r for r in rows if r.radius > k_hat]
        log_lambda_gamma = max(r.log_ratio for r in outside)
        lambda_hat = math.exp(log_lambda_gamma / params.gamma)

    b_hat = 0.0
    for row, log_start in zip(rows, log_starts):
        if row.radius > k_hat:
            continue
        lm = row.log_ratio + log_start
        lr = log_lambda_gamma + log_start
        if lm > lr:
            log_diff = lm + math.log1p(-math.exp(lr - lm))
            with np.errstate(over="ignore"):
                b_hat = max(b_hat, float(np.exp(log_diff - math.log(params.gamma))))
    return DriftReport(
        rows=rows,
        lambda_hat=lambda_hat,
        k_hat=k_hat,
        b_hat=b_hat,
        varpi=varpi,
        gamma=params.gamma,
        warnings=warnings,
    )
