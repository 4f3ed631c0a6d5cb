"""Tests for the closed-form Gaussian analytics."""

import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from langevin_kit.gaussian import (
    DET_FLOOR,
    SERIES_SWITCH,
    CovarianceTriple,
    SingularSystemError,
    build_projector,
    continuous_covariance,
    covariance_consistency,
    discrete_covariance,
    sigma_tilde_sq,
    solve_projection_coeffs,
    weight_vectors,
)
from langevin_kit.potentials import quadratic_potential
from langevin_kit.schemes import SchemeKind, SchemeParams, as_general_scheme

# 30-digit evaluations of the closed forms, kappa = sigma = 1.
S1_AT_HALF = 0.0291215988395456864098371849016
S2_AT_HALF = 0.0774090608730877371939623500896
S3_AT_HALF = 0.316060279414278839202238114919
S1_AT_9E7 = 2.4299983597505111520026390677e-19
S1_AT_2E6 = 2.66666266667047286327305490609e-18
SIGMA_TILDE_SQ_01 = 0.906346234610090706650322456905
EXP_EULER_ALPHA_AT_HALF = 0.806861942156072209266457899323
EXP_EULER_D_AT_HALF = 0.489837324807418258555602262982

kgt = dict(k=st.integers(1, 200), gamma=st.floats(1e-3, 1.0), tau=st.floats(0.05, 0.999))


def test_sigma_tilde_closed_form_and_limit():
    npt.assert_allclose(sigma_tilde_sq(0.1, 1.0, 1.0), SIGMA_TILDE_SQ_01, rtol=1e-15)
    assert sigma_tilde_sq(0.0, 2.0, 1.5) == 1.5**2
    # kappa scaling: sigma_tilde_sq(t, kappa) depends on t only through kappa t.
    npt.assert_allclose(sigma_tilde_sq(0.2, 0.5, 1.0), sigma_tilde_sq(0.1, 1.0, 1.0), rtol=1e-15)
    with pytest.raises(ValueError):
        sigma_tilde_sq(-0.1, 1.0, 1.0)


def test_continuous_covariance_frozen_values():
    cov = continuous_covariance(0.5, 1.0, 1.0)
    npt.assert_allclose(cov.s1, S1_AT_HALF, rtol=1e-14)
    npt.assert_allclose(cov.s2, S2_AT_HALF, rtol=1e-14)
    npt.assert_allclose(cov.s3, S3_AT_HALF, rtol=1e-14)
    assert cov.det() > 0
    zero = continuous_covariance(0.0, 1.0, 1.0)
    assert (zero.s1, zero.s2, zero.s3) == (0.0, 0.0, 0.0)


def test_position_entry_series_branch_is_accurate():
    # Tiny times run through the series branch and must still hit the
    # high-precision values; the direct form would lose most digits here.
    npt.assert_allclose(continuous_covariance(9e-7, 1.0, 1.0).s1, S1_AT_9E7, rtol=1e-12)
    npt.assert_allclose(continuous_covariance(2e-6, 1.0, 1.0).s1, S1_AT_2E6, rtol=1e-12)
    # At the switchover both paths are stable and agree to 1e-12 relative.
    u = SERIES_SWITCH
    direct = u - (3.0 - 4.0 * math.exp(-u) + math.exp(-2.0 * u)) / 2.0
    series = continuous_covariance(u * (1.0 - 1e-15), 1.0, 1.0).s1
    npt.assert_allclose(series, direct, rtol=1e-12)


def test_small_time_bracketing_of_covariance_entries():
    # sigma^2 t^3/3 - sigma^2 kappa t^4/3 <= s1 <= sigma^2 t^3/3 + sigma^2 kappa t^4/12,
    # and the analogous brackets for s2, s3, for every t.
    for kappa in (0.5, 1.0, 2.0):
        for sigma in (1.0, 1.7):
            for t in np.linspace(1e-4, 0.1, 80):
                cov = continuous_covariance(t, kappa, sigma)
                s2_ = sigma**2
                assert s2_ * t**3 / 3 - s2_ * kappa * t**4 / 3 <= cov.s1 <= s2_ * t**3 / 3 + s2_ * kappa * t**4 / 12
                assert s2_ * t**2 / 2 - s2_ * kappa * t**3 / 2 <= cov.s2 <= s2_ * t**2 / 2
                assert s2_ * t - s2_ * kappa * t**2 <= cov.s3 <= s2_ * t


def test_weight_vectors_small_case():
    w = weight_vectors(1, 0.1, 0.9)
    npt.assert_allclose(w.g1, [0.1, 0.0], rtol=0, atol=1e-15)
    npt.assert_allclose(w.g2, [0.9, 1.0], rtol=1e-15)
    cov, in_ec = discrete_covariance(1, 0.1, 0.9)
    npt.assert_allclose(cov.s3, 0.181, rtol=1e-13)
    assert in_ec


@settings(max_examples=60, deadline=None)
@given(**kgt)
def test_weight_vector_invariants(k, gamma, tau):
    w = weight_vectors(k, gamma, tau)
    assert w.g1.shape == w.g2.shape == (k + 1,)
    assert w.g1[-1] == 0.0 and w.g2[-1] == 1.0
    assert np.all(np.diff(w.g1) <= 1e-15)  # weights decay toward the newest draw
    assert np.all(np.diff(w.g2) >= 0.0)
    assert np.max(np.abs(w.g1)) <= k * gamma * (1 + 1e-12)


@settings(max_examples=60, deadline=None)
@given(**kgt)
@example(k=1, gamma=1.0, tau=0.999)
@example(k=200, gamma=1.0, tau=0.999)
def test_discrete_covariance_equals_brute_force(k, gamma, tau):
    w = weight_vectors(k, gamma, tau)
    cov, _ = discrete_covariance(k, gamma, tau)
    npt.assert_allclose(cov.s1, gamma * np.dot(w.g1, w.g1), rtol=1e-10, atol=1e-13)
    npt.assert_allclose(cov.s2, gamma * np.dot(w.g1, w.g2), rtol=1e-10, atol=1e-13)
    npt.assert_allclose(cov.s3, gamma * np.dot(w.g2, w.g2), rtol=1e-10, atol=1e-13)


def test_degenerate_aggregate_is_flagged_and_projection_refuses():
    cov, in_ec = discrete_covariance(0, 0.1, 0.9)
    assert (cov.s1, cov.s2) == (0.0, 0.0) and cov.s3 == pytest.approx(0.1)
    assert not in_ec
    with pytest.raises(SingularSystemError):
        solve_projection_coeffs(0, 0.1, 0.9)
    with pytest.raises(ValueError):
        build_projector(1, 0.1, 0.9)  # rank k-1 = 0 has no selector rows
    with pytest.raises(ValueError):
        weight_vectors(3, 0.1, 1.0)
    assert discrete_covariance(1, 0.1, 0.9)[1]


@settings(max_examples=40, deadline=None)
@given(k=st.integers(2, 80), gamma=st.floats(1e-3, 0.8), tau=st.floats(0.1, 0.995))
def test_projection_coefficients_solve_their_system(k, gamma, tau):
    cov, _ = discrete_covariance(k, gamma, tau)
    alpha, beta = solve_projection_coeffs(k, gamma, tau)
    w = weight_vectors(k, gamma, tau)
    npt.assert_allclose(cov.s1 * alpha + cov.s2 * beta, w.g1, rtol=1e-8, atol=1e-10)
    npt.assert_allclose(cov.s2 * alpha + cov.s3 * beta, w.g2, rtol=1e-8, atol=1e-10)


def test_projector_algebra_small_instance():
    k, gamma, tau = 6, 0.2, 0.8
    data = build_projector(k, gamma, tau)
    p = data.projector
    w = weight_vectors(k, gamma, tau)
    npt.assert_allclose(p, p.T, atol=1e-12)
    npt.assert_allclose(p @ p, p, atol=1e-12)
    npt.assert_allclose(p @ w.g1, 0.0, atol=1e-12)
    npt.assert_allclose(p @ w.g2, 0.0, atol=1e-12)
    rank = int(np.sum(np.linalg.svd(p, compute_uv=False) > 1e-10))
    assert rank == k - 1
    assert data.selector.shape == (k - 1, k + 1)


def test_residuals_are_uncorrelated_with_aggregates_analytically():
    # Cov(z_tilde_i, G1) = sqrt(gamma)(g1_i - (alpha_i c1 + beta_i c2)) and
    # likewise with G2; both vanish because (alpha, beta) solve the system.
    for k, gamma, tau in [(4, 0.1, 0.9), (12, 0.05, 0.95), (30, 0.02, 0.7)]:
        cov, _ = discrete_covariance(k, gamma, tau)
        alpha, beta = solve_projection_coeffs(k, gamma, tau)
        w = weight_vectors(k, gamma, tau)
        cross1 = w.g1 - (alpha * cov.s1 + beta * cov.s2)
        cross2 = w.g2 - (alpha * cov.s2 + beta * cov.s3)
        npt.assert_allclose(cross1[: k - 1], 0.0, atol=1e-12)
        npt.assert_allclose(cross2[: k - 1], 0.0, atol=1e-12)


def test_covariance_consistency_errors_halve_down_the_grid():
    table = covariance_consistency(0.5, np.array([0.05, 0.025, 0.0125]), 1.0, 1.0)
    errs = [row.max_error for row in table.rows]
    assert errs[0] > errs[1] > errs[2] > 0
    for a, b in zip(errs, errs[1:]):
        assert 1.5 <= a / b <= 2.5
    assert table.rho_c >= 1.0
    assert table.upper_min_eig >= -1e-12
    assert table.lower_min_eig >= -1e-12
    with pytest.raises(ValueError):
        covariance_consistency(0.5, np.array([0.6]), 1.0, 1.0)


def test_exp_euler_factorization_scalars():
    # The exact one-window noise (eta, xi) factors through independent (z, w1)
    # with correlation alpha = s2 / sqrt(s1 s3); the embedding's D factor is
    # s2 / (sigma_tilde sqrt(gamma^3 s3)).
    cov = continuous_covariance(0.5, 1.0, 1.0)
    alpha = cov.s2 / math.sqrt(cov.s1 * cov.s3)
    npt.assert_allclose(alpha, EXP_EULER_ALPHA_AT_HALF, rtol=1e-13)
    kind = SchemeKind.EXP_EULER
    scheme = as_general_scheme(kind, SchemeParams(1.0, 1.0, 0.5, quadratic_potential()))
    npt.assert_allclose(scheme.d_scalar, EXP_EULER_D_AT_HALF, rtol=1e-13)


def test_covariance_triple_rejects_indefinite_entries():
    with pytest.raises(ValueError):
        CovarianceTriple(1.0, 2.0, 1.0)
    with pytest.raises(ValueError):
        CovarianceTriple(-1.0, 0.0, 1.0)
    assert CovarianceTriple(1.0, 0.5, 1.0).det() == pytest.approx(0.75)
    assert DET_FLOOR == 1e-14
