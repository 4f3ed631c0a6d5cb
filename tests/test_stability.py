"""Closed-form stability constants and the paired-trajectory bounds."""

import math

import numpy as np
import pytest

from langevin_kit.core import ContractViolation
from langevin_kit.schemes import SchemeKind, SchemeParams, gaussian_perturbation_estimator
from langevin_kit.stability import _ratio, stability_constants, verify_contraction

ALL_KINDS = list(SchemeKind)


def test_per_step_constants_hand_values():
    # lambda=1, gamma=0.1, L=1: 1 + 0.1 (1 + 2 max(1, 0.1) 1) = 1.3,
    # and with D=0 the noise factor is 1 + 0 + 0.01 * 2 = 1.02.
    cons = stability_constants(1, 0.1, 1.0, 1.0, 0.0)
    assert cons.l_gamma == pytest.approx(1.3, abs=1e-15)
    assert cons.m_gamma == pytest.approx(1.02, abs=1e-15)
    assert cons.l_gamma >= 1.0
    assert min(cons.l_x, cons.l_v) >= 0.0


def test_constants_input_validation():
    good = dict(k=2, gamma=0.1, lam=1.0, lipschitz=1.0, d_bound=0.5)
    stability_constants(**good)
    for bad in (
        dict(good, k=0),
        dict(good, gamma=0.0),
        dict(good, lam=-1.0),
        dict(good, lipschitz=-0.1),
        dict(good, d_bound=-0.1),
    ):
        with pytest.raises(ContractViolation):
            stability_constants(**bad)


def test_per_step_constants_monotone():
    """l_gamma grows with gamma, with L and with 1/lambda; m_gamma with gamma."""
    gammas = np.linspace(0.01, 0.5, 25)
    l_of_gamma = [stability_constants(1, g, 1.0, 1.0, 0.5).l_gamma for g in gammas]
    m_of_gamma = [stability_constants(1, g, 1.0, 1.0, 0.5).m_gamma for g in gammas]
    assert np.all(np.diff(l_of_gamma) > 0)
    assert np.all(np.diff(m_of_gamma) > 0)
    els = np.linspace(0.0, 4.0, 25)
    l_of_el = [stability_constants(1, 0.1, 1.0, el, 0.5).l_gamma for el in els]
    assert np.all(np.diff(l_of_el) > 0)
    # decreasing in lambda holds below 1/sqrt(L), where the 1/lambda term
    # dominates the (1 + lambda) factor
    lams = np.linspace(0.1, 0.9, 25)
    l_of_lam = [stability_constants(1, 0.1, lam, 1.0, 0.5).l_gamma for lam in lams]
    assert np.all(np.diff(l_of_lam) < 0)


def test_small_step_limit():
    """With k gamma = t0 fixed and gamma down, L_gamma^k approaches its
    continuous-time form exp(t0 (1/lambda + (1+lambda) L)).
    """
    t0, gam, lam, el = 0.2, 1e-4, 1.0, 1.0
    k = round(t0 / gam)
    cons = stability_constants(k, gam, lam, el, 1.0)
    limit_l = math.exp(t0 * (1.0 / lam + (1.0 + lam) * el))
    assert cons.l_gamma**k / limit_l == pytest.approx(1.0, abs=0.01)


def test_ratio_convention_at_zero():
    # untouched pairs leave both sides at zero; the ratio is defined as zero
    out = _ratio(np.array([0.0, 1.0, 2.0]), np.array([0.0, 2.0, 0.0]))
    np.testing.assert_array_equal(out, [0.0, 0.5, 0.0])


def test_contraction_euler_long_run(quadratic):
    params = SchemeParams(kappa=1.0, sigma=1.0, gamma=0.05, force=quadratic)
    report = verify_contraction(SchemeKind.EULER_MARUYAMA, params, 20, 1.0, 10**4, seed=5)
    assert report.passed
    assert not report.witnesses
    assert 0.0 < report.max_ratio_coupled <= 1.0
    assert 0.0 < report.max_ratio_position_sum <= 1.0
    assert 0.0 < report.max_ratio_velocity_sum <= 1.0
    assert report.constants.k == 20


@pytest.mark.parametrize("kind", ALL_KINDS, ids=[k.value for k in ALL_KINDS])
def test_contraction_every_scheme(kind, quadratic):
    est = None
    if kind is SchemeKind.SG_EULER_MARUYAMA:
        est = gaussian_perturbation_estimator(quadratic, 0.5, 2)
    params = SchemeParams(kappa=1.0, sigma=1.0, gamma=0.08, force=quadratic, sg_estimator=est)
    report = verify_contraction(kind, params, 10, 0.7, 500, seed=11)
    assert report.passed
    worst = max(
        report.max_ratio_coupled,
        report.max_ratio_position_sum,
        report.max_ratio_velocity_sum,
    )
    assert worst <= 1.0


def test_contraction_single_step(quadratic):
    params = SchemeParams(kappa=1.0, sigma=1.0, gamma=0.05, force=quadratic)
    report = verify_contraction(SchemeKind.EULER_MARUYAMA, params, 1, 1.0, 200, seed=5)
    assert report.passed
    assert report.max_ratio_coupled <= 1.0


def test_contraction_input_validation(quadratic):
    params = SchemeParams(kappa=1.0, sigma=1.0, gamma=0.05, force=quadratic)
    with pytest.raises(ContractViolation):
        verify_contraction(SchemeKind.EULER_MARUYAMA, params, 0, 1.0, 10)
    with pytest.raises(ContractViolation):
        verify_contraction(SchemeKind.EULER_MARUYAMA, params, 5, 1.0, 0)
