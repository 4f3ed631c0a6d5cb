"""Named discretizations, natively and as instances of the general recursion.

Seven schemes: Euler-Maruyama, the Verlet-type BAC splitting, the CAB, ABCBA
and CABAC splittings, the stochastic exponential Euler integrator, and
Euler-Maruyama with a stochastic gradient. Each kind has a native update rule
(``native_step``) and an exact embedding into the general form
(``as_general_scheme``); the two agree pointwise.

The CABAC and exponential Euler schemes drive two correlated Gaussian noises
per step; they are reconstructed inside the step from the independent pair
(z, w1), matching the change of variables used to embed them.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from . import _rng
from .core import (
    ContractViolation,
    ForceModel,
    GeneralScheme,
    NoiseDraw,
    NoiseSpec,
    State,
)
from .gaussian import continuous_covariance, sigma_tilde_sq

__all__ = [
    "SchemeKind",
    "SchemeParams",
    "SgEstimator",
    "gaussian_perturbation_estimator",
    "native_step",
    "as_general_scheme",
    "scalar_step_closure",
    "check_a1_a2",
    "AssumptionReport",
    "cabac_coefficients",
    "CabacCoefficients",
]


class SchemeKind(enum.Enum):
    EULER_MARUYAMA = "EulerMaruyama"
    VERLET_BAC = "VerletBAC"
    SPLIT_CAB = "SplitCAB"
    SPLIT_ABCBA = "SplitABCBA"
    SPLIT_CABAC = "SplitCABAC"
    EXP_EULER = "ExpEuler"
    SG_EULER_MARUYAMA = "SgEulerMaruyama"


@dataclass(frozen=True)
class SgEstimator:
    """Stochastic-gradient estimator: h(x, y) approximates b(x) on average.

    ``m2`` is the width of the per-step sample y, drawn by applying
    ``w2_transform`` to standard normals (identity if None). ``lipschitz``
    bounds the Lipschitz constant of x -> h(x, y) uniformly in y.
    """

    h: Callable[[np.ndarray, np.ndarray], np.ndarray]
    m2: int
    w2_transform: Callable[[np.ndarray], np.ndarray] | None = None
    lipschitz: float = 0.0


def gaussian_perturbation_estimator(force: ForceModel, noise_scale: float, d: int) -> SgEstimator:
    """Unbiased estimator h(x, y) = b(x) + y with y ~ N(0, noise_scale^2 I_d)."""
    return SgEstimator(
        h=lambda x, y: force.b(x) + y,
        m2=d,
        w2_transform=lambda eps: noise_scale * eps,
        lipschitz=force.lipschitz,
    )


@dataclass(frozen=True)
class SchemeParams:
    kappa: float
    sigma: float
    gamma: float
    force: ForceModel
    sg_estimator: SgEstimator | None = None

    def __post_init__(self):
        if not (self.kappa > 0 and self.sigma > 0 and self.gamma > 0):
            raise ContractViolation("kappa, sigma and gamma must be positive")


def _require_sg(p: SchemeParams) -> SgEstimator:
    if p.sg_estimator is None:
        raise ContractViolation("SgEulerMaruyama requires an sg_estimator")
    return p.sg_estimator


def _noise_spec(kind: SchemeKind, p: SchemeParams) -> NoiseSpec:
    if kind in (SchemeKind.SPLIT_CABAC, SchemeKind.EXP_EULER):
        return NoiseSpec(m1="d")
    if kind is SchemeKind.SG_EULER_MARUYAMA:
        est = _require_sg(p)
        return NoiseSpec(m2=est.m2, w2_transform=est.w2_transform)
    return NoiseSpec()


@dataclass(frozen=True)
class CabacCoefficients:
    """Coefficients of the CABAC drift corrections in scaled variables.

    f = c1 v + (gamma/2) b(y) + 2 sqrt(gamma) c4 w and g = g1 b(y), both at
    the one inner point y = x + c2 v + c3 z + gamma^(3/2) c4 w.
    """

    c1: float
    c2: float
    c3: float
    c4: float
    g1: float


def cabac_coefficients(gamma: float, kappa: float, sigma: float) -> CabacCoefficients:
    e = math.exp(-kappa * gamma)
    eh = math.exp(-kappa * gamma / 2.0)
    st_half_sq = sigma_tilde_sq(gamma / 2.0, kappa, sigma)
    c4 = math.sqrt(st_half_sq / (8.0 * (1.0 + e)))
    return CabacCoefficients(
        c1=math.expm1(-kappa * gamma / 2.0) / gamma,
        c2=eh / 2.0,
        c3=eh / (2.0 * (1.0 + e)),
        c4=c4,
        g1=eh,
    )


def native_step(kind: SchemeKind, p: SchemeParams, s: State, noise: NoiseDraw) -> State:
    """One step of the scheme's own printed update rule."""
    _noise_spec(kind, p).check(noise, s.d)
    x, v = _native_arrays(kind, p, s.x, s.v, noise.z, noise.w1, noise.w2)
    return State(x, v)


def _native_arrays(kind, p, x, v, z, w1, w2):
    k_, s_, g_ = p.kappa, p.sigma, p.gamma
    b = p.force.b

    if kind is SchemeKind.EULER_MARUYAMA:
        x_new = x + g_ * v
        v_new = (1.0 - k_ * g_) * v + g_ * b(x) + math.sqrt(g_) * s_ * z
        return x_new, v_new

    if kind is SchemeKind.SG_EULER_MARUYAMA:
        est = _require_sg(p)
        x_new = x + g_ * v
        v_new = (1.0 - k_ * g_) * v + g_ * est.h(x, w2) + math.sqrt(g_) * s_ * z
        return x_new, v_new

    e = math.exp(-k_ * g_)

    if kind is SchemeKind.VERLET_BAC:
        x_new = x + g_ * v + g_**2 * b(x)
        v_new = e * v + g_ * e * b(x) + math.sqrt((1.0 - e**2) / (2.0 * k_)) * s_ * z
        return x_new, v_new

    if kind is SchemeKind.SPLIT_CAB:
        st = math.sqrt(sigma_tilde_sq(g_, k_, s_))
        x_new = x + g_ * e * v + g_**1.5 * st * z
        v_new = e * v + g_ * b(x_new) + math.sqrt(g_) * st * z
        return x_new, v_new

    if kind is SchemeKind.SPLIT_ABCBA:
        st = math.sqrt(sigma_tilde_sq(g_, k_, s_))
        bm = b(x + 0.5 * g_ * v)
        x_new = (
            x
            + 0.5 * g_ * (1.0 + e) * v
            + 0.25 * g_**2 * (1.0 + e) * bm
            + 0.5 * g_**1.5 * st * z
        )
        v_new = e * v + 0.5 * g_ * (1.0 + e) * bm + math.sqrt(g_) * st * z
        return x_new, v_new

    if kind is SchemeKind.SPLIT_CABAC:
        eh = math.exp(-k_ * g_ / 2.0)
        st_half = math.sqrt(sigma_tilde_sq(g_ / 2.0, k_, s_))
        alpha = eh / math.sqrt(1.0 + e)
        xi1 = alpha * z + math.sqrt(1.0 - alpha**2) * w1
        xi2 = math.sqrt(1.0 + e) * z - eh * xi1
        inner = x + 0.5 * g_ * eh * v + g_**1.5 / (2.0 * math.sqrt(2.0)) * st_half * xi1
        ba = b(inner)
        x_new = x + g_ * eh * v + 0.5 * g_**2 * ba + g_**1.5 / math.sqrt(2.0) * st_half * xi1
        v_new = e * v + g_ * eh * ba + math.sqrt(g_ / 2.0) * st_half * (eh * xi1 + xi2)
        return x_new, v_new

    if kind is SchemeKind.EXP_EULER:
        cov = continuous_covariance(g_, k_, s_)
        alpha = cov.s2 / math.sqrt(cov.s1 * cov.s3)
        eta = math.sqrt(cov.s1) * (alpha * z + math.sqrt(1.0 - alpha**2) * w1)
        xi = math.sqrt(cov.s3) * z
        bx = b(x)
        x_new = x + (1.0 - e) / k_ * v + (k_ * g_ + e - 1.0) / k_**2 * bx + eta
        v_new = e * v + (1.0 - e) / k_ * bx + xi
        return x_new, v_new

    raise ContractViolation(f"unknown scheme kind {kind!r}")


def as_general_scheme(kind: SchemeKind, p: SchemeParams) -> GeneralScheme:
    """Exact embedding of the scheme into the general one-step recursion.

    The drift corrections are the printed scaled-slot functions of each
    scheme, written once as a joint (f, g) function that evaluates the force
    at each point it needs exactly once: b(x) for BAC and ExpEuler,
    b(x + v_s/2) for ABCBA, the inner point for CABAC, the predicted
    position for CAB, and b(x) (or the gradient estimator) for the
    Euler-Maruyama pair, whose f vanishes. tau, sigma_gamma and the scalar
    position-noise factor d_scalar are the printed coefficients; every scheme
    embeds at delta = 1 with sigma_gamma at most sigma. The returned object
    also carries the family metadata (c_kappa, d_bound, gamma_bar, vartheta,
    vartheta_bar) and the Lipschitz constant a2_constant of the corrections,
    used by the assumption-checking, stability and Lyapunov layers.

    Raises ContractViolation when a coefficient or the Lipschitz constant
    (which scales with the force's) cannot be evaluated in float64 at the
    given kappa, sigma and gamma (it overflows, divides by an underflowed
    zero, or loses its sign to rounding).
    """
    try:
        return _embed(kind, p)
    except ContractViolation:
        raise
    except (ArithmeticError, ValueError) as exc:
        raise ContractViolation(
            f"{kind.value} coefficients are not representable at kappa = {p.kappa:g}, "
            f"sigma = {p.sigma:g}, gamma = {p.gamma:g} ({exc})"
        ) from exc


def _exp_euler_vartheta(k_: float, g_: float, e: float) -> float:
    """ExpEuler's v-prefactor (1 - h - e) / (kappa gamma^2), h = kappa gamma,
    e = exp(-h).

    The numerator cancels as h -> 0 (relative error about 1e-16 / h^2), so
    below h = 0.1 it is summed from its series instead,
    -kappa sum_j (-h)^j / (j + 2)!, cut after 18 terms (the first term left
    out is below 1e-36 there).
    """
    h = k_ * g_
    if h >= 0.1:
        return (1.0 - h - e) / (k_ * g_**2)
    return -k_ * math.fsum((-h) ** j / math.factorial(j + 2) for j in range(18))


def _embed(kind: SchemeKind, p: SchemeParams) -> GeneralScheme:
    k_, s_, g_ = p.kappa, p.sigma, p.gamma
    b = p.force.b
    lb = p.force.lipschitz
    spec = _noise_spec(kind, p)
    common = dict(gamma=g_, noise_spec=spec, kappa=k_, sigma=s_, force=p.force)

    if kind in (SchemeKind.EULER_MARUYAMA, SchemeKind.SG_EULER_MARUYAMA):
        if kind is SchemeKind.EULER_MARUYAMA:
            a2 = lb

            def corrections(x, vs, zs, w1, w2):
                return None, b(x)

        else:
            est = _require_sg(p)
            a2 = est.lipschitz

            def corrections(x, vs, zs, w1, w2):
                return None, est.h(x, w2)

        return GeneralScheme(
            tau=1.0 - k_ * g_,
            sigma_gamma=s_,
            d_scalar=0.0,
            corrections=corrections,
            c_kappa=k_**2 / 2.0,
            d_bound=0.0,
            gamma_bar=1.0 / (2.0 * k_),
            a2_constant=a2,
            vartheta_bar=0.0,
            vartheta=0.0,
            **common,
        )

    e = math.exp(-k_ * g_)
    st = math.sqrt(sigma_tilde_sq(g_, k_, s_))
    exact_tau = dict(tau=e, c_kappa=0.0, gamma_bar=1.0 / k_)

    if kind is SchemeKind.VERLET_BAC:

        def corrections(x, vs, zs, w1, w2):
            bx = b(x)
            return g_ * bx, e * bx

        return GeneralScheme(
            sigma_gamma=st,
            d_scalar=0.0,
            corrections=corrections,
            d_bound=0.0,
            a2_constant=lb * max(g_, e),
            vartheta_bar=0.0,
            vartheta=0.0,
            **exact_tau,
            **common,
        )

    # Below, vartheta (the v-prefactor of f) is largest in magnitude as
    # gamma -> 0, so vartheta_bar is that limit: kappa for CAB, kappa/2 else.
    # Their e - 1 is taken as expm1(-kappa gamma): the difference cancels as
    # kappa gamma -> 0, and the rounded value would break that bound.
    if kind is SchemeKind.SPLIT_CAB:
        c_v = math.expm1(-k_ * g_) / g_

        def corrections(x, vs, zs, w1, w2):
            return c_v * vs, b(x + e * vs + zs)

        return GeneralScheme(
            sigma_gamma=st,
            d_scalar=1.0,
            corrections=corrections,
            d_bound=1.0,
            a2_constant=max(-c_v, lb * math.sqrt(1.0 + e**2), lb),
            vartheta_bar=k_,
            vartheta=c_v,
            **exact_tau,
            **common,
        )

    if kind is SchemeKind.SPLIT_ABCBA:
        c_v = math.expm1(-k_ * g_) / (2.0 * g_)
        c_fb = 0.25 * g_ * (1.0 + e)
        c_gb = 0.5 * (1.0 + e)
        half = math.sqrt(1.25)  # |(dx, dv/2)| <= sqrt(5)/2 |(dx, dv)|

        def corrections(x, vs, zs, w1, w2):
            bm = b(x + 0.5 * vs)
            return c_v * vs + c_fb * bm, c_gb * bm

        return GeneralScheme(
            sigma_gamma=st,
            d_scalar=0.5,
            corrections=corrections,
            d_bound=0.5,
            a2_constant=max(-c_v + c_fb * lb * half, c_gb * lb * half),
            vartheta_bar=k_ / 2.0,
            vartheta=c_v,
            **exact_tau,
            **common,
        )

    if kind is SchemeKind.SPLIT_CABAC:
        co = cabac_coefficients(g_, k_, s_)
        sigma_gamma = math.sqrt(sigma_tilde_sq(g_ / 2.0, k_, s_) * (1.0 + e) / 2.0)
        w_free = 2.0 * math.sqrt(g_) * co.c4
        w_inner = g_**1.5 * co.c4
        c_fb = 0.5 * g_
        inner = max(math.sqrt(1.0 + co.c2**2), co.c3)

        def corrections(x, vs, zs, w1, w2):
            ba = b(x + co.c2 * vs + co.c3 * zs + w_inner * w1)
            return co.c1 * vs + c_fb * ba + w_free * w1, co.g1 * ba

        return GeneralScheme(
            sigma_gamma=sigma_gamma,
            d_scalar=math.exp(-k_ * g_ / 2.0) / (1.0 + e),
            corrections=corrections,
            d_bound=0.5,
            a2_constant=max(abs(co.c1) + c_fb * lb * inner, co.g1 * lb * inner),
            vartheta_bar=k_ / 2.0,
            vartheta=co.c1,
            **exact_tau,
            **common,
        )

    if kind is SchemeKind.EXP_EULER:
        cov = continuous_covariance(g_, k_, s_)
        alpha = cov.s2 / math.sqrt(cov.s1 * cov.s3)
        d_scalar = cov.s2 / (st * math.sqrt(g_**3 * cov.s3))
        c_v = _exp_euler_vartheta(k_, g_, e)
        c_fb = g_ / k_
        c_gb = (1.0 - e) / (k_ * g_)
        w_coef = math.sqrt(cov.s1 * (1.0 - alpha**2)) / g_

        def corrections(x, vs, zs, w1, w2):
            bx = b(x)
            return c_v * (vs - c_fb * bx) + w_coef * w1, c_gb * bx

        return GeneralScheme(
            sigma_gamma=st,
            d_scalar=d_scalar,
            corrections=corrections,
            d_bound=0.5,
            a2_constant=max(abs(c_v) * math.sqrt(1.0 + (g_ * lb / k_) ** 2), c_gb * lb),
            vartheta_bar=k_ / 2.0,
            vartheta=c_v,
            **exact_tau,
            **common,
        )

    raise ContractViolation(f"unknown scheme kind {kind!r}")


def scalar_step_closure(
    kind: SchemeKind, p: SchemeParams
) -> Callable[[float, float, float, float], tuple[float, float]]:
    """The d = 1 step of ``as_general_scheme`` specialized to plain floats.

    Returns step(x, v, z, w1) -> (x, v). Long single-chain runs are pure
    recursions, so the array machinery dominates the cost at d = 1; this
    closure precomputes the general-form coefficients once and applies the
    recursion to scalars in the order of the array kernel, so it equals
    ``general_step`` at d = 1 bit for bit. The stochastic-gradient variant
    draws its estimator sample per call and is not supported here.
    """
    if kind is SchemeKind.SG_EULER_MARUYAMA:
        raise ContractViolation("no scalar fast path for the stochastic-gradient scheme")
    vec_b = p.force.b

    def b_scalar(xx: float) -> float:
        return float(vec_b(np.array([xx]))[0])

    scheme = as_general_scheme(kind, replace(p, force=replace(p.force, b=b_scalar)))
    corrections = scheme.corrections
    g_, tau, d_scalar = scheme.gamma, scheme.tau, scheme.d_scalar
    scale = g_**1.5 * scheme.sigma_gamma
    v_noise = math.sqrt(g_) * scheme.sigma_gamma

    def step(x, v, z, w1):
        vs = g_ * v
        fx, gx = corrections(x, vs, scale * z, w1, None)
        x_new = x + vs
        if fx is not None:
            x_new = x_new + g_ * fx
        if d_scalar != 0.0:
            x_new = x_new + scale * (d_scalar * z)
        return x_new, tau * v + g_ * gx + v_noise * z

    return step


@dataclass(frozen=True)
class AssumptionReport:
    """Outcome of the consistency and Lipschitz probes for one scheme family."""

    kind: SchemeKind
    passed: bool
    fitted_c_kappa: float
    fitted_sigma_bar: float
    fitted_d_bound: float
    declared_l: float
    worst_ratio: float
    violations: list[str] = field(default_factory=list)


def check_a1_a2(
    kind: SchemeKind, p: SchemeParams, trials: int, seed: int = 0, d: int = 1
) -> AssumptionReport:
    """Probe the consistency conditions on a gamma grid and Lipschitz bounds.

    Fits the smallest empirical (C_kappa, sigma_bar, D-bound) over a gamma
    grid up to the family's gamma_bar, then samples ``trials`` random pairs of
    scaled-slot arguments and compares the drift-correction increments against
    the declared constant with 1% slack. Violations are returned with witness
    coordinates rather than raised.
    """
    violations: list[str] = []
    probe = as_general_scheme(kind, p)
    gammas = np.geomspace(probe.gamma_bar * 1e-3, probe.gamma_bar, 40)
    fitted_ck = 0.0
    fitted_sb = 0.0
    fitted_db = 0.0
    for gam in gammas:
        sch = as_general_scheme(kind, replace(p, gamma=float(gam)))
        gap = abs(sch.tau - math.exp(-p.kappa * gam))
        fitted_ck = max(fitted_ck, gap / gam**2)
        fitted_sb = max(fitted_sb, sch.sigma_gamma)
        fitted_db = max(fitted_db, abs(sch.d_scalar))
        if not 0.0 < sch.tau < 1.0:
            violations.append(f"A1-tau: tau={sch.tau:g} outside (0,1) at gamma={gam:g}")
        if gap > sch.c_kappa * gam**2 + 1e-12:
            violations.append(f"A1-consistency: gap {gap:g} > C_kappa gamma^2 at gamma={gam:g}")
        if sch.sigma_gamma > sch.sigma * (1 + 1e-12):
            violations.append(f"A1-sigma: sigma_gamma {sch.sigma_gamma:g} above sigma")
        if abs(sch.d_scalar) > sch.d_bound * (1 + 1e-12) + 1e-15:
            violations.append(f"A1-D: |d_scalar| {abs(sch.d_scalar):g} above bound")

    declared = probe.a2_constant
    scheme = probe
    m1, m2 = scheme.noise_spec.dims(d)
    rng = _rng.generator(seed)
    worst = 0.0
    witness = ""
    scales = np.where(rng.random(trials) < 0.5, 1.0, 10.0)[:, None]
    pts = {
        name: rng.standard_normal((trials, width)) * scales
        for name, width in (("x", d), ("v", d), ("z", d), ("x2", d), ("v2", d), ("z2", d))
    }
    w1 = rng.standard_normal((trials, m1))
    w2_base = rng.standard_normal((trials, m2))
    w2 = scheme.noise_spec.w2_transform(w2_base) if scheme.noise_spec.w2_transform else w2_base

    fa, ga = scheme.corrections(pts["x"], pts["v"], pts["z"], w1, w2)
    fb, gb = scheme.corrections(pts["x2"], pts["v2"], pts["z2"], w1, w2)
    if fa is None:  # f vanishes identically
        fa = fb = np.zeros_like(pts["x"])
    denom = (
        np.sqrt(
            np.sum((pts["x"] - pts["x2"]) ** 2, axis=1)
            + np.sum((pts["v"] - pts["v2"]) ** 2, axis=1)
        )
        + np.linalg.norm(pts["z"] - pts["z2"], axis=1)
    )
    for name, da in (("f", fa - fb), ("g", ga - gb)):
        ratios = np.linalg.norm(np.atleast_2d(da), axis=1) / denom
        idx = int(np.argmax(ratios))
        if ratios[idx] > worst:
            worst = float(ratios[idx])
            witness = f"{name} at pair {idx}"
    if worst > declared * 1.01 + 1e-12:
        violations.append(
            f"A2-{witness}: ratio {worst:g} exceeds declared {declared:g} (+1% slack)"
        )

    return AssumptionReport(
        kind=kind,
        passed=not violations,
        fitted_c_kappa=fitted_ck,
        fitted_sigma_bar=fitted_sb,
        fitted_d_bound=fitted_db,
        declared_l=declared,
        worst_ratio=worst,
        violations=violations,
    )
