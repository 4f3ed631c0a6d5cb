"""Computable stability constants of the iterated one-step map.

Perturbing the initial condition and the per-step velocity noise of a chain
(while keeping the auxiliary draws fixed) displaces the iterates by at most
a geometric accumulation of the input displacements, measured in the norm
|dx| + lambda |dv|. This module evaluates the closed-form constants of that
bound and of its same-start corollaries, and verifies all three inequalities
empirically on paired trajectories.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import ContractViolation, full_noise_step
from .schemes import SchemeKind, SchemeParams, as_general_scheme

__all__ = [
    "StabilityConstants",
    "stability_constants",
    "verify_contraction",
    "ContractionReport",
]


@dataclass(frozen=True)
class StabilityConstants:
    """Constants of the coupled-trajectory bounds at one (k, gamma, lambda).

    l_gamma and m_gamma are the per-step contraction and noise-injection
    factors; l_x and l_v the same-start trajectory-sum factors.
    """

    l_gamma: float
    m_gamma: float
    l_x: float
    l_v: float


def stability_constants(
    k: int,
    gamma: float,
    lam: float,
    lipschitz: float,
    d_bound: float,
) -> StabilityConstants:
    """Evaluate the closed-form stability constants.

    ``d_bound`` bounds |d_scalar|, the position-noise factor; ``lipschitz``
    is the joint Lipschitz constant of the scaled drift corrections. The
    powers of gamma are those of the general form at delta = 1 (see
    ``core``).
    """
    if k < 1 or gamma <= 0 or lam <= 0:
        raise ContractViolation("k >= 1, gamma > 0 and lam > 0 are required")
    if lipschitz < 0 or d_bound < 0:
        raise ContractViolation("lipschitz >= 0 and d_bound >= 0 are required")
    el = lipschitz
    l_gamma = 1.0 + gamma * (1.0 / lam + (1.0 + lam) * max(1.0, gamma / lam) * el)
    m_gamma = lam + gamma * d_bound + gamma**2.0 * (1.0 + lam) * el
    l_pow = l_gamma**k
    grow = (1.0 + gamma**2.0 * el) ** k
    l_x = gamma * el * m_gamma * l_pow + gamma * (1.0 + gamma * el) * (
        k * gamma * m_gamma * el * grow * l_pow + grow
    )
    l_v = (k - 1) * gamma * m_gamma * grow * l_pow * el + grow
    return StabilityConstants(l_gamma=l_gamma, m_gamma=m_gamma, l_x=l_x, l_v=l_v)


@dataclass(frozen=True)
class ContractionReport:
    max_ratio_coupled: float
    max_ratio_position_sum: float
    max_ratio_velocity_sum: float
    passed: bool
    constants: StabilityConstants
    witnesses: list[str] = field(default_factory=list)


def _ratio(lhs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    out = np.zeros_like(lhs)
    np.divide(lhs, rhs, out=out, where=rhs > 0)
    return out


def verify_contraction(
    kind: SchemeKind,
    params: SchemeParams,
    k: int,
    lam: float,
    trials: int,
    seed: int = 0,
    d: int = 2,
) -> ContractionReport:
    """Check the paired-trajectory displacement bounds by direct simulation.

    Runs ``trials`` coupled pairs for k steps with both the initial condition
    and the velocity noise perturbed (offsets uniform in [-0.1, 0.1] per
    coordinate, auxiliary draws shared), and asserts the coupled bound; a
    second same-start batch checks the position-sum and velocity-sum bounds.
    Ratios of observed left sides to computed right sides are reported; any
    ratio above 1 is a counterexample and is returned as a witness.
    """
    if trials < 1 or k < 1:
        raise ContractViolation("trials >= 1 and k >= 1 are required")
    scheme = as_general_scheme(kind, params)
    el = scheme.a2_constant
    cons = stability_constants(k, params.gamma, lam, el, scheme.d_bound)
    rng = np.random.default_rng(seed)
    m1, m2 = scheme.noise_spec.dims(d)
    g_ = params.gamma
    noise_scale = math.sqrt(g_) * scheme.sigma_gamma
    witnesses: list[str] = []

    def run_pair(perturb_init: bool):
        x = rng.standard_normal((trials, d))
        v = rng.standard_normal((trials, d))
        if perturb_init:
            xp = x + 0.1 * rng.uniform(-1.0, 1.0, (trials, d))
            vp = v + 0.1 * rng.uniform(-1.0, 1.0, (trials, d))
        else:
            xp, vp = x.copy(), v.copy()
        lhs0 = np.linalg.norm(x - xp, axis=1) + lam * np.linalg.norm(v - vp, axis=1)
        geom = np.zeros(trials)
        dz_sum_head = np.zeros(trials)
        dz_last = np.zeros(trials)
        sum_dx = np.zeros(trials)
        sum_dv = np.zeros(trials)
        for step in range(1, k + 1):
            z = noise_scale * rng.standard_normal((trials, d))
            dz = 0.1 * rng.uniform(-1.0, 1.0, (trials, d))
            w1 = rng.standard_normal((trials, m1))
            w2 = rng.standard_normal((trials, m2))
            if scheme.noise_spec.w2_transform is not None and m2:
                w2 = scheme.noise_spec.w2_transform(w2)
            x, v = full_noise_step(scheme, x, v, z, w1, w2)
            xp, vp = full_noise_step(scheme, xp, vp, z + dz, w1, w2)
            ndz = np.linalg.norm(dz, axis=1)
            geom = cons.l_gamma * geom + ndz if step > 1 else ndz
            if step < k:
                dz_sum_head += ndz
            else:
                dz_last = ndz
            sum_dx += np.linalg.norm(x - xp, axis=1)
            sum_dv += np.linalg.norm(v - vp, axis=1)
        lhs_final = np.linalg.norm(x - xp, axis=1) + lam * np.linalg.norm(v - vp, axis=1)
        rhs_final = cons.l_gamma**k * lhs0 + cons.m_gamma * geom
        return lhs_final, rhs_final, sum_dx, sum_dv, dz_sum_head, dz_last

    lhs_c, rhs_c, _, _, _, _ = run_pair(perturb_init=True)
    ratios_c = _ratio(lhs_c, rhs_c)
    max_c = float(np.max(ratios_c))
    if max_c > 1.0:
        j = int(np.argmax(ratios_c))
        witnesses.append(f"coupled bound violated at trial {j}: ratio {max_c:.6g}")

    _, _, sum_dx, sum_dv, dz_head, dz_last = run_pair(perturb_init=False)
    rhs_x = g_ * (scheme.d_bound + g_ * el) * dz_last + (
        k * cons.m_gamma * cons.l_gamma**k + cons.l_x
    ) * dz_head
    rhs_v = (1.0 + g_**2.0 * el) ** k * dz_last + k * cons.l_v * dz_head
    ratios_x = _ratio(sum_dx, rhs_x)
    ratios_v = _ratio(sum_dv, rhs_v)
    max_x = float(np.max(ratios_x))
    max_v = float(np.max(ratios_v))
    if max_x > 1.0:
        j = int(np.argmax(ratios_x))
        witnesses.append(f"position-sum bound violated at trial {j}: ratio {max_x:.6g}")
    if max_v > 1.0:
        j = int(np.argmax(ratios_v))
        witnesses.append(f"velocity-sum bound violated at trial {j}: ratio {max_v:.6g}")

    return ContractionReport(
        max_ratio_coupled=max_c,
        max_ratio_position_sum=max_x,
        max_ratio_velocity_sum=max_v,
        passed=not witnesses,
        constants=cons,
        witnesses=witnesses,
    )
