"""Tests for the scheme catalog and its embedding into the general recursion."""

import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import langevin_kit.schemes as schemes
from conftest import counting_force, split_corrections
from langevin_kit.core import (
    ContractViolation,
    NoiseDraw,
    State,
    full_noise_step,
    general_step,
    step_ensemble,
)
from langevin_kit.potentials import quadratic_potential, quartic_well_potential
from langevin_kit.schemes import (
    SchemeKind,
    SchemeParams,
    as_general_scheme,
    cabac_coefficients,
    check_a1_a2,
    gaussian_perturbation_estimator,
    native_step,
    scalar_step_closure,
)

ALL_KINDS = list(SchemeKind)
CLOSURE_KINDS = [k for k in ALL_KINDS if k is not SchemeKind.SG_EULER_MARUYAMA]

# 30-digit evaluations of the coefficient formulas at gamma=0.1, kappa=sigma=1.
SIGMA_TILDE_SQ_01 = 0.906346234610090706650322456905
CABAC_D_01 = 0.499375650380444528759842571556
CABAC_C1_01 = -0.487705754992859909085746802203
CABAC_C3_01 = 0.249687825190222264379921285778
CABAC_C4_01 = 0.24989591572762842025356804762
BAC_TAU_01 = 0.904837418035959573164249059446


def params_for(kind, gamma=0.1, kappa=1.0, sigma=1.0, force=None, noise_scale=0.5, d=2):
    force = force if force is not None else quadratic_potential()
    est = (
        gaussian_perturbation_estimator(force, noise_scale, d)
        if kind is SchemeKind.SG_EULER_MARUYAMA
        else None
    )
    return SchemeParams(kappa, sigma, gamma, force, sg_estimator=est)


def random_noise(scheme, d, rng, n=()):
    m1, m2 = scheme.noise_spec.dims(d)
    shape = n + (d,)
    base = rng.standard_normal(n + (m2,))
    w2 = scheme.noise_spec.w2_transform(base) if scheme.noise_spec.w2_transform else base
    return NoiseDraw(rng.standard_normal(shape), rng.standard_normal(n + (m1,)), w2)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_native_equals_general(kind):
    d = 2
    p = params_for(kind, d=d)
    scheme = as_general_scheme(kind, p)
    rng = np.random.default_rng(10)
    for _ in range(50):
        s = State(rng.standard_normal(d), rng.standard_normal(d))
        noise = random_noise(scheme, d, rng)
        a = native_step(kind, p, s, noise)
        b = general_step(scheme, s, noise)
        npt.assert_allclose(a.x, b.x, rtol=1e-12, atol=1e-12)
        npt.assert_allclose(a.v, b.v, rtol=1e-12, atol=1e-12)


def two_call_step(scheme, x, v, z, w1, w2):
    """The recursion as two separate correction calls with every zero term
    written out: the reference the fused kernel must reproduce bit for bit."""
    g_ = scheme.gamma
    v_s = g_ * v
    z_s = g_**1.5 * scheme.sigma_gamma * z
    fx = scheme.f(x, v_s, z_s, w1, w2)
    gx = scheme.g(x, v_s, z_s, w1, w2)
    x_new = x + g_ * v + g_ * fx + g_**1.5 * scheme.sigma_gamma * (scheme.d_scalar * z)
    v_new = scheme.tau * v + g_ * gx + math.sqrt(g_) * scheme.sigma_gamma * z
    return x_new, v_new


def two_call_full_noise_step(scheme, x, v, z_full, w1, w2):
    g_ = scheme.gamma
    v_s = g_ * v
    z_s = g_ * z_full
    fx = scheme.f(x, v_s, z_s, w1, w2)
    gx = scheme.g(x, v_s, z_s, w1, w2)
    x_new = x + g_ * v + g_ * fx + g_ * (scheme.d_scalar * z_full)
    v_new = scheme.tau * v + g_ * gx + z_full
    return x_new, v_new


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("kind", ALL_KINDS)
def test_fused_step_is_bit_equal_to_two_call_formula(kind, d):
    rng = np.random.default_rng([d, ALL_KINDS.index(kind)])
    for force in (quadratic_potential(1.3), quartic_well_potential()):
        scheme = as_general_scheme(kind, params_for(kind, gamma=0.07, force=force, d=d))
        n = 500
        x, v = rng.standard_normal((2, n, d)) * 3.0
        noise = random_noise(scheme, d, rng, (n,))
        got = step_ensemble(scheme, x, v, noise)
        want = two_call_step(scheme, x, v, noise.z, noise.w1, noise.w2)
        for a, b in zip(got, want):
            assert np.array_equal(a, b)
        z_full = rng.standard_normal((n, d)) * 0.3
        got = full_noise_step(scheme, x, v, z_full, noise.w1, noise.w2)
        want = two_call_full_noise_step(scheme, x, v, z_full, noise.w1, noise.w2)
        for a, b in zip(got, want):
            assert np.array_equal(a, b)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_one_force_evaluation_per_step(kind):
    calls = []

    def counted(fn):
        def wrapper(x, *rest):
            calls.append(x.shape)
            return fn(x, *rest)

        return wrapper

    force = quadratic_potential()
    if kind is SchemeKind.SG_EULER_MARUYAMA:
        # SG-EM's force evaluation is the gradient estimator h.
        p = params_for(kind, force=force)
        p = replace(p, sg_estimator=replace(p.sg_estimator, h=counted(p.sg_estimator.h)))
    else:
        p = params_for(kind, force=replace(force, b=counted(force.b)))
    scheme = as_general_scheme(kind, p)
    rng = np.random.default_rng(3)
    x, v = rng.standard_normal((2, 64, 2))
    step_ensemble(scheme, x, v, random_noise(scheme, 2, rng, (64,)))
    assert calls == [(64, 2)]


@pytest.mark.parametrize("kind", CLOSURE_KINDS)
def test_scalar_closure_matches_native(kind):
    p = params_for(kind, gamma=0.07, kappa=1.3, sigma=0.8, d=1)
    step = scalar_step_closure(kind, p)
    rng = np.random.default_rng(11)
    for _ in range(50):
        x, v, z, w1 = rng.standard_normal(4)
        noise = NoiseDraw(
            np.array([z]),
            np.array([w1]) if as_general_scheme(kind, p).noise_spec.dims(1)[0] else np.empty(0),
        )
        want = native_step(kind, p, State(np.array([x]), np.array([v])), noise)
        got_x, got_v = step(x, v, z, w1)
        npt.assert_allclose([got_x], want.x, rtol=1e-12, atol=1e-14)
        npt.assert_allclose([got_v], want.v, rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("kind", CLOSURE_KINDS)
@pytest.mark.parametrize(
    "force",
    [quadratic_potential(1.3), quartic_well_potential(0.25, 1.0, 10.0)],
    ids=["quadratic", "quartic-well"],
)
def test_scalar_closure_equals_general_step(kind, force):
    """The float step is the d = 1 general step, bit for bit."""
    p = params_for(kind, gamma=0.07, kappa=1.3, sigma=0.8, force=force, d=1)
    scheme = as_general_scheme(kind, p)
    m1 = scheme.noise_spec.dims(1)[0]
    step = scalar_step_closure(kind, p)
    rng = np.random.default_rng(5)
    for _ in range(200):
        x, v, z, w1 = 2.0 * rng.standard_normal(4)
        want = general_step(
            scheme, State(np.array([x]), np.array([v])), NoiseDraw([z], [w1][:m1])
        )
        assert step(x, v, z, w1) == (want.x[0], want.v[0])


def test_scalar_closure_refuses_the_stochastic_gradient_scheme():
    kind = SchemeKind.SG_EULER_MARUYAMA
    with pytest.raises(ContractViolation, match="stochastic-gradient"):
        scalar_step_closure(kind, params_for(kind, d=1))


def test_coefficient_values_at_tenth():
    p = params_for(SchemeKind.VERLET_BAC)
    bac = as_general_scheme(SchemeKind.VERLET_BAC, p)
    npt.assert_allclose(bac.tau, BAC_TAU_01, rtol=1e-15)
    npt.assert_allclose(bac.sigma_gamma**2, SIGMA_TILDE_SQ_01, rtol=1e-14)
    assert bac.d_scalar == 0.0

    em = as_general_scheme(SchemeKind.EULER_MARUYAMA, params_for(SchemeKind.EULER_MARUYAMA))
    assert em.tau == 1.0 - 0.1
    assert em.sigma_gamma == 1.0
    assert em.d_scalar == 0.0

    co = cabac_coefficients(0.1, 1.0, 1.0)
    npt.assert_allclose(co.c1, CABAC_C1_01, rtol=1e-14)
    npt.assert_allclose(co.c3, CABAC_C3_01, rtol=1e-14)
    npt.assert_allclose(co.c4, CABAC_C4_01, rtol=1e-14)
    cabac = as_general_scheme(SchemeKind.SPLIT_CABAC, params_for(SchemeKind.SPLIT_CABAC))
    npt.assert_allclose(cabac.d_scalar, CABAC_D_01, rtol=1e-14)
    # The half-step variance folded with the velocity mix reproduces the
    # full-step Ornstein-Uhlenbeck variance: sigma_gamma = sigma_tilde(gamma).
    npt.assert_allclose(cabac.sigma_gamma**2, SIGMA_TILDE_SQ_01, rtol=1e-14)


def test_vartheta_bar_table():
    def bar(kind):
        return as_general_scheme(kind, params_for(kind, kappa=2.0)).vartheta_bar

    assert bar(SchemeKind.EULER_MARUYAMA) == 0.0
    assert bar(SchemeKind.VERLET_BAC) == 0.0
    assert bar(SchemeKind.SG_EULER_MARUYAMA) == 0.0
    assert bar(SchemeKind.SPLIT_CAB) == 2.0
    assert bar(SchemeKind.SPLIT_ABCBA) == 1.0
    assert bar(SchemeKind.SPLIT_CABAC) == 1.0
    assert bar(SchemeKind.EXP_EULER) == 1.0


# vartheta = -p kappa sum_j (-a h)^j / (j + o)!, h = kappa gamma, as
# kind: (p, a, o).
_VARTHETA_SERIES = {
    SchemeKind.SPLIT_CAB: (Fraction(1), Fraction(1), 1),
    SchemeKind.SPLIT_ABCBA: (Fraction(1, 2), Fraction(1), 1),
    SchemeKind.SPLIT_CABAC: (Fraction(1, 2), Fraction(1, 2), 1),
    SchemeKind.EXP_EULER: (Fraction(1), Fraction(1), 2),
}


@pytest.mark.parametrize("kind", list(_VARTHETA_SERIES), ids=lambda k: k.value)
@pytest.mark.parametrize("kappa", [1.0, 2.5])
def test_vartheta_keeps_its_digits_as_kappa_gamma_vanishes(kind, kappa):
    # The series summed exactly (60 terms leave out less than 1e-80 for
    # h <= 1). Rounded differences lost these digits and made the scheme
    # refuse its own vartheta bound below about gamma = 1e-8.
    p, a, o = _VARTHETA_SERIES[kind]
    for h in np.geomspace(1e-12, 1.0, 61):
        gamma = float(h) / kappa
        x = a * Fraction(kappa) * Fraction(gamma)
        term, series = Fraction(1, math.factorial(o)), Fraction(0)
        for j in range(60):
            series += term
            term *= -x / (j + o + 1)
        want = -p * Fraction(kappa) * series
        got = as_general_scheme(kind, params_for(kind, gamma=gamma, kappa=kappa)).vartheta
        assert abs(Fraction(got) / want - 1) <= 1e-13, gamma


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_vartheta_matches_f_velocity_slope(kind):
    """The recorded vartheta is the explicit v-linear coefficient of f.

    Measured with a flat force so the slope is not contaminated by the
    velocity entering f through the force argument.
    """
    flat = quadratic_potential(0.0)
    p = params_for(kind, gamma=0.12, kappa=0.9, force=flat)
    scheme = as_general_scheme(kind, p)
    d = 2
    m1, m2 = scheme.noise_spec.dims(d)
    x = np.zeros(d)
    z = np.zeros(d)
    w1 = np.zeros(m1)
    w2 = np.zeros(m2)
    dv = np.array([1e-6, 0.0])
    slope = (scheme.f(x, dv, z, w1, w2) - scheme.f(x, -dv, z, w1, w2))[0] / 2e-6
    npt.assert_allclose(slope, scheme.vartheta, rtol=1e-5, atol=1e-9)
    assert abs(scheme.vartheta) <= scheme.vartheta_bar + 1e-12


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_assumption_report_passes(kind):
    rep = check_a1_a2(kind, params_for(kind, d=1), trials=2000, seed=1, d=1)
    assert rep.passed, rep.violations
    assert rep.worst_ratio <= rep.declared_l * 1.01 + 1e-12
    scheme = as_general_scheme(kind, params_for(kind, d=1))
    assert rep.fitted_c_kappa <= scheme.c_kappa + 1e-9
    assert rep.fitted_sigma_bar <= scheme.sigma + 1e-12
    assert rep.fitted_d_bound <= scheme.d_bound + 1e-12


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_assumption_report_reads_f_and_g_from_one_call(monkeypatch, kind):
    force, calls = counting_force(500)
    p = params_for(kind, force=force, d=1)
    rep = check_a1_a2(kind, p, trials=500, seed=2, d=1)
    one_call = calls[0]
    split_corrections(monkeypatch, schemes)
    calls[0] = 0
    assert check_a1_a2(kind, p, trials=500, seed=2, d=1) == rep
    assert one_call > 0 and calls[0] == 2 * one_call


@settings(max_examples=25, deadline=None)
@given(gamma=st.floats(0.01, 0.45), seed=st.integers(0, 2**31))
def test_a2_constant_bounds_random_increments(gamma, seed):
    p = params_for(SchemeKind.SPLIT_CABAC, gamma=gamma, d=1)
    scheme = as_general_scheme(SchemeKind.SPLIT_CABAC, p)
    declared = scheme.a2_constant
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((64, 6)) * 5.0
    w1 = rng.standard_normal((64, 1))
    w2 = np.empty((64, 0))
    fa = scheme.f(a[:, 0:1], a[:, 1:2], a[:, 2:3], w1, w2)
    fb = scheme.f(a[:, 3:4], a[:, 4:5], a[:, 5:6], w1, w2)
    denom = np.sqrt((a[:, 0] - a[:, 3]) ** 2 + (a[:, 1] - a[:, 4]) ** 2) + np.abs(a[:, 2] - a[:, 5])
    assert np.all(np.abs(fa[:, 0] - fb[:, 0]) <= declared * denom * (1 + 1e-9))


def test_gamma_ceiling_enforced():
    # Euler-Maruyama admits gamma only up to 1/(2 kappa).
    with pytest.raises(ContractViolation):
        as_general_scheme(SchemeKind.EULER_MARUYAMA, params_for(SchemeKind.EULER_MARUYAMA, gamma=0.51))
    as_general_scheme(SchemeKind.EULER_MARUYAMA, params_for(SchemeKind.EULER_MARUYAMA, gamma=0.5))
    # Exact-tau schemes go up to 1/kappa.
    as_general_scheme(SchemeKind.VERLET_BAC, params_for(SchemeKind.VERLET_BAC, gamma=1.0))
    with pytest.raises(ContractViolation):
        as_general_scheme(SchemeKind.VERLET_BAC, params_for(SchemeKind.VERLET_BAC, gamma=1.1))


def test_sg_estimator_is_unbiased_and_degenerates_to_em():
    d = 2
    force = quadratic_potential()
    est = gaussian_perturbation_estimator(force, 0.7, d)
    rng = np.random.default_rng(12)
    x = rng.standard_normal(d)
    draws = est.w2_transform(rng.standard_normal((200_000, d)))
    mean_h = est.h(x, draws).mean(axis=0)
    npt.assert_allclose(mean_h, force.b(x), atol=3 * 0.7 / math.sqrt(200_000) * 3)

    p_sg = params_for(SchemeKind.SG_EULER_MARUYAMA, noise_scale=0.0, d=d)
    p_em = params_for(SchemeKind.EULER_MARUYAMA, d=d)
    s = State(rng.standard_normal(d), rng.standard_normal(d))
    z = rng.standard_normal(d)
    sg = native_step(SchemeKind.SG_EULER_MARUYAMA, p_sg, s, NoiseDraw(z, w2=np.zeros(d)))
    em = native_step(SchemeKind.EULER_MARUYAMA, p_em, s, NoiseDraw(z))
    npt.assert_array_equal(sg.x, em.x)
    npt.assert_array_equal(sg.v, em.v)


def test_sg_requires_estimator():
    p = SchemeParams(1.0, 1.0, 0.1, quadratic_potential())
    with pytest.raises(ContractViolation):
        as_general_scheme(SchemeKind.SG_EULER_MARUYAMA, p)


def test_native_noise_width_checks():
    p = params_for(SchemeKind.SPLIT_CABAC)
    s = State(np.zeros(2), np.zeros(2))
    with pytest.raises(ContractViolation):
        native_step(SchemeKind.SPLIT_CABAC, p, s, NoiseDraw(np.zeros(2)))
    with pytest.raises(ContractViolation):
        native_step(SchemeKind.SPLIT_CABAC, p, s, NoiseDraw(np.zeros(3), np.zeros(3)))
    # A wrong-width w1 (CABAC needs d) or w2 (SG-EM needs m2 = d) is refused
    # by the native rule and by the ensemble step alike.
    bad_w1_w2 = {
        SchemeKind.SPLIT_CABAC: (np.zeros(3), np.zeros(0)),
        SchemeKind.SG_EULER_MARUYAMA: (np.zeros(0), np.zeros(1)),
    }
    for kind, (w1, w2) in bad_w1_w2.items():
        p = params_for(kind)
        with pytest.raises(ContractViolation, match="w1|w2"):
            native_step(kind, p, s, NoiseDraw(np.zeros(2), w1, w2))
        batch = NoiseDraw(np.zeros((4, 2)), np.tile(w1, (4, 1)), np.tile(w2, (4, 1)))
        with pytest.raises(ContractViolation, match="w1|w2"):
            step_ensemble(as_general_scheme(kind, p), np.zeros((4, 2)), np.zeros((4, 2)), batch)


def test_scheme_params_validation():
    with pytest.raises(ContractViolation):
        SchemeParams(0.0, 1.0, 0.1, quadratic_potential())
    with pytest.raises(ContractViolation):
        SchemeParams(1.0, -1.0, 0.1, quadratic_potential())
    with pytest.raises(ContractViolation):
        SchemeParams(1.0, 1.0, 0.0, quadratic_potential())


def test_sigma_gamma_decreases_with_gamma():
    kinds = [SchemeKind.VERLET_BAC, SchemeKind.SPLIT_CAB, SchemeKind.SPLIT_ABCBA,
             SchemeKind.SPLIT_CABAC, SchemeKind.EXP_EULER]
    for kind in kinds:
        values = [
            as_general_scheme(kind, params_for(kind, gamma=g)).sigma_gamma
            for g in (0.02, 0.1, 0.5)
        ]
        assert values[0] > values[1] > values[2]
        assert values[0] <= 1.0 + 1e-12  # sigma_bar = sigma


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize(
    "kappa, sigma, gamma",
    [
        (1e308, 1.0, 1e-300),  # kappa**2 overflows, or gamma exceeds 1/kappa
        (1e-10, 1e150, 1e10),  # ExpEuler's D factor becomes inf/inf
        (1e-10, 1e150, 1e-150),  # ExpEuler's covariance loses its sign
    ],
)
def test_unrepresentable_coefficients_are_a_contract_violation(kind, kappa, sigma, gamma):
    force = quadratic_potential()
    est = gaussian_perturbation_estimator(force, 1.0, 1)
    params = SchemeParams(kappa=kappa, sigma=sigma, gamma=gamma, force=force, sg_estimator=est)
    try:
        scheme = as_general_scheme(kind, params)
    except ContractViolation:
        return
    for value in (scheme.tau, scheme.sigma_gamma, scheme.d_scalar, scheme.c_kappa,
                  scheme.vartheta, scheme.a2_constant):
        assert math.isfinite(value)
