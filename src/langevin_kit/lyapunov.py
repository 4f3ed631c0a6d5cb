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
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from . import _rng
from .core import (
    ContractViolation,
    DivergedError,
    ForceModel,
    GeneralScheme,
    NoiseDraw,
    _raise_malloc_thresholds,
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
    "DriftReport",
    "DriftRow",
]

# The weight of the potential in W: the drift condition is stated for 1.
ALPHA_U = 1.0
_OVERFLOW_EXPONENT = 700.0
# Floats per tile in estimate_drift: a tile holds max(1, _TILE_FLOATS // (2d))
# antithetic pairs, twice as many rows, so a (rows, d) float64 intermediate
# takes 256 KiB in any d and a tile's working set stays within an L2 cache
# (8192 pairs, 16384 rows at d = 2).
_TILE_FLOATS = 32768
# Pairs per block in estimate_drift: a block is drawn once and stepped by
# every state, and its log-weights are one merge of a state's running
# summary, so the blocks, not the tiles, fix the noise stream and the order
# of the reduction. At most _FOLD_ROWS pairs, and at most
# _BLOCK_FLOATS // (2d), so that a block's base rows (at most 2d + 2 floats
# a pair) take at most 3 MiB in any d (2 MiB at d = 2). Each block ends in
# a barrier, and on two threads of a 2-vCPU Xeon blocks of 65536 pairs ran
# about 5% faster than blocks of 32768.
_FOLD_ROWS = 65536
_BLOCK_FLOATS = 2**18


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
    rng = _rng.generator(seed)
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
                _rng.generator(seed + 1), sample_count, d, m1, m2,
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


class _WeightFold:
    """A running summary of exp(a) over antithetic pairs of log-weights.

    A pair is the log-weight a+ one step on with a noise row and a- with its
    negation; its mean is (exp(a+) + exp(a-)) / 2. The summary holds the
    shift (the largest log-weight seen), the count of pairs, the mean of the
    pair means taken against the shift and their centred sum of squares M2:
    the online normalizer of Milakov & Gimelshein (2018) combined with the
    pairwise variance update of Chan, Golub & LeVeque (1983). When the shift
    rises, the mean is rescaled by r = exp(old - new) and M2 by r^2.

    Blocks of pairs are merged one at a time, in the order they are added,
    so the summary is fixed by the pairs and the block boundaries.
    """

    def __init__(self):
        self._shift, self._count, self._mean, self._m2 = -math.inf, 0, 0.0, 0.0

    def add(self, block: np.ndarray) -> bool:
        """Merge the next block of pairs: a (2, n) array of log-weights,
        overwritten, with block[0, i] and block[1, i] the two halves of pair
        i. False once a log-weight is not finite: the mean weight then has no
        finite logarithm, and no further block may be added."""
        # np.maximum propagates a NaN, which max() would drop; +inf is a
        # shift too.
        shift = float(np.maximum(block.max(), self._shift))
        if not math.isfinite(shift):
            self._shift = shift
            return False
        # Both halves are exponentiated against the shift and averaged into
        # pair means, whose squares are centred on the block's own mean. No
        # BLAS reduction, so the sums do not depend on the BLAS thread count.
        n = block.shape[1]
        np.subtract(block, shift, out=block)
        np.exp(block, out=block)
        pairs = block[0]
        np.add(pairs, block[1], out=pairs)
        pairs *= 0.5
        mean_b = float(np.sum(pairs)) / n
        np.subtract(pairs, mean_b, out=pairs)
        np.square(pairs, out=pairs)
        m2_b = float(np.sum(pairs))
        if shift > self._shift:
            r = math.exp(self._shift - shift)
            self._mean *= r
            self._m2 *= r * r
            self._shift = shift
        count = self._count
        total = count + n
        frac = n / total
        delta = mean_b - self._mean
        self._mean += delta * frac
        self._m2 += m2_b + delta * delta * count * frac
        self._count = total
        return True

    def finish(self) -> tuple[float, float] | None:
        """The log of the mean of exp(a), and its standard error: the sample
        standard deviation of the pair means over their mean, over
        sqrt(pairs), and inf for a single pair. None when a log-weight is not
        finite."""
        if not math.isfinite(self._shift):
            return None
        log_mean = self._shift + math.log(self._mean)
        count = self._count
        if count < 2:
            return log_mean, math.inf
        se_log = math.sqrt(self._m2 / (count - 1)) / self._mean / math.sqrt(count)
        return log_mean, se_log


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
    The samples are antithetic pairs (Hammersley & Morton, 1956): each noise
    row xi = (z, w1, w2) is stepped once as drawn and once negated, and the
    two weights are averaged, which cancels the first-order term of the
    weight in the noise. An odd ``mc`` rounds up to whole pairs. The
    standard error comes from the pair means.
    The report fits the smallest radius k_hat beyond which every state
    contracts with 95% confidence, the per-unit-time factor lambda_hat over
    those states, and the additive constant b_hat inside.

    The noise belongs to the run, not to a state: every state steps on the
    same rows. The pairs are cut into blocks of min(``_FOLD_ROWS``,
    ``_BLOCK_FLOATS`` // (2d)) pairs (65536 at d <= 2), and block k's base
    rows of z, w1 and w2 come from ``_rng.generator`` at the keys (k,),
    (k, 0) and (k, 1) of the seed. The calling thread draws each block
    once; then one pool task per state steps it tile by tile and folds its
    log-weights into the state's summary (``_WeightFold``), block after
    block in order. Each state's rows are still i.i.d. pairs, so its
    estimand and standard error are those of a stream of its own; only the
    joint law across states changes, as in common random numbers. A state's
    row depends on neither the rest of the grid nor its place in it, nor on
    the tile size or the thread count. A tile holds max(1, ``_TILE_FLOATS``
    // (2d)) pairs: it copies that many base rows of the block, negates them
    into the rows after them, and steps both halves and evaluates their
    energy in one pass from a contiguous copy of the state. The base normals
    are negated before ``w2_transform``, so a transform that is not odd
    keeps its law. The run holds one block of base rows, and each running
    task one tile and one block of log-weights, in any d and at any sample
    count.
    A ratio too large for a float is reported as inf, and so is a state
    whose log-weight varpi * phi overflows, with an infinite standard error.
    A single pair (``mc`` of 2) has an infinite standard error. A step that
    diverges raises DivergedError naming the state it started from.
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
    pairs = (mc + 1) // 2
    tile_pairs = max(1, _TILE_FLOATS // (2 * d))
    block_pairs = max(1, min(_FOLD_ROWS, _BLOCK_FLOATS // (2 * d)))
    # The current block's base rows of z, w1 and w2, which every task reads.
    base = [np.empty((block_pairs, w)) for w in widths]
    folds = [_WeightFold() for _ in states]

    def log_weights(noise, x, v) -> np.ndarray:
        # varpi * phi one step on from each row of (x, v), as a (2, n) array
        # of pairs. The step's arrays are freed on return, so they are not
        # held while the next tile steps.
        n = len(x) // 2
        z, w1, w2 = (tile[: 2 * n] for tile in noise)
        if w2_transform is not None:
            w2 = w2_transform(w2)
        x1, v1 = step_ensemble(scheme, x, v, NoiseDraw(z, w1, w2))
        with np.errstate(over="ignore"):
            return log_w_bar(x1, v1, scheme, varpi).reshape(2, n)

    def fold_block(idx: int, size: int) -> bool:
        # Steps state idx on the block's first `size` pairs and folds them;
        # False once its log-weights leave the float range.
        st = states[idx]
        x_tile = np.tile(st.x, (2 * tile_pairs, 1))
        v_tile = np.tile(st.v, (2 * tile_pairs, 1))
        # Every tile reuses them, so the step must not write into them.
        x_tile.flags.writeable = v_tile.flags.writeable = False
        noise = [np.empty((2 * tile_pairs, w)) for w in widths]
        # Row 0 holds the a+ of each pair and row 1 its a-.
        weights = np.empty((2, block_pairs))
        # Step and energy are row-wise, so evaluating them one tile of rows
        # at a time gives the same values as one whole-block pass while the
        # intermediates stay cache-sized. The block is folded whole, not per
        # tile: with two worker threads, every numpy call costs more than its
        # own work.
        for lo in range(0, size, tile_pairs):
            n = min(tile_pairs, size - lo)
            for tile, block in zip(noise, base):
                tile[:n] = block[lo : lo + n]
                np.negative(block[lo : lo + n], out=tile[n : 2 * n])
            try:
                weights[:, lo : lo + n] = log_weights(noise, x_tile[: 2 * n], v_tile[: 2 * n])
            except DivergedError as exc:
                where = f"the drift state x = {st.x.tolist()}, v = {st.v.tolist()}"
                raise DivergedError(exc.component, start=where) from None
        return folds[idx].add(weights[:, :size])

    live = list(range(len(states)))
    n_threads = min(_rng.worker_threads(), len(states))
    _raise_malloc_thresholds()
    with ThreadPoolExecutor(max_workers=n_threads) as pool:
        for k, start in enumerate(range(0, pairs, block_pairs)):
            size = min(block_pairs, pairs - start)
            for key, block in zip(((), (0,), (1,)), base):
                _rng.generator(seed, k, *key).standard_normal(out=block[:size])
            more = pool.map(fold_block, live, [size] * len(live))
            live = [idx for idx, ok in zip(live, more) if ok]

    rows = []
    for st, fold, log_start in zip(states, folds, log_starts):
        radius = float(np.linalg.norm(st.x) + np.linalg.norm(st.v))
        summary = fold.finish()
        if summary is None:
            # varpi * phi left the float range, so the mean weight has no
            # finite logarithm and the state is not contracting.
            rows.append(DriftRow(st.x, st.v, radius, math.inf, math.inf, math.inf))
            continue
        log_mean, se_log = summary
        log_ratio = log_mean - log_start
        try:
            ratio = math.exp(log_ratio)
        except OverflowError:
            ratio = math.inf
        rows.append(DriftRow(st.x, st.v, radius, log_ratio, ratio, se_log))

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
