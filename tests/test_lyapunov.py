"""Energy functions, their bounding constants, and the drift machinery."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import logsumexp

import langevin_kit.lyapunov as lyapunov
from conftest import counting_force, split_corrections
from langevin_kit.core import ContractViolation, ForceModel, NoiseDraw, State, step_ensemble
from langevin_kit.lyapunov import (
    ALPHA_U,
    derived_constants,
    estimate_drift,
    log_w_bar,
    phi_gamma,
    script_f,
    v_bar,
    v_cal,
    verify_d2,
    w_gamma,
)
from langevin_kit.potentials import quadratic_potential, quartic_well_potential
from langevin_kit.schemes import (
    SchemeKind,
    SchemeParams,
    as_general_scheme,
    gaussian_perturbation_estimator,
)

ALL_KINDS = list(SchemeKind)


def scheme_for(kind, gamma, kappa=1.0, sigma=1.0, force=None, d=2):
    force = quadratic_potential() if force is None else force
    est = None
    if kind is SchemeKind.SG_EULER_MARUYAMA:
        est = gaussian_perturbation_estimator(force, 0.5, d)
    params = SchemeParams(kappa=kappa, sigma=sigma, gamma=gamma, force=force, sg_estimator=est)
    return as_general_scheme(kind, params), params


def constants_for(kind, kappa=1.0, lipschitz=1.0):
    scheme, _ = scheme_for(kind, gamma=0.01, kappa=kappa)
    return derived_constants(kappa, scheme.c_kappa, scheme.vartheta_bar, lipschitz)


@pytest.mark.parametrize("varpi", [0.0, -0.1])
def test_nonpositive_varpi_is_refused(varpi):
    scheme, params = scheme_for(SchemeKind.EULER_MARUYAMA, gamma=0.01, d=1)
    with pytest.raises(ContractViolation, match="varpi"):
        estimate_drift(SchemeKind.EULER_MARUYAMA, params, varpi, drift_grid(), mc=100)
    with pytest.raises(ContractViolation, match="varpi"):
        log_w_bar([1.0], [1.0], scheme, varpi)


def test_w_gamma_hand_value_and_origin():
    # EM at kappa=1, gamma=0.1 has cross coefficient 1, so at (1, 1) the
    # energy is 0.5 + 1 + 1 + 2*(1/2) = 3.5.
    scheme, _ = scheme_for(SchemeKind.EULER_MARUYAMA, gamma=0.1, d=1)
    assert w_gamma([1.0], [1.0], scheme) == pytest.approx(3.5, abs=1e-12)
    assert w_gamma([0.0], [0.0], scheme) == 0.0
    # batched call agrees with the scalar one
    xs = np.array([[1.0], [0.0], [-2.0]])
    vs = np.array([[1.0], [0.0], [0.5]])
    batched = w_gamma(xs, vs, scheme)
    singles = [w_gamma(x, v, scheme) for x, v in zip(xs, vs)]
    np.testing.assert_allclose(batched, singles, rtol=1e-14)


def test_w_gamma_requires_potential():
    bare = ForceModel(b=lambda x: -x, lipschitz=1.0)
    params = SchemeParams(kappa=1.0, sigma=1.0, gamma=0.1, force=bare)
    scheme = as_general_scheme(SchemeKind.EULER_MARUYAMA, params)
    with pytest.raises(ContractViolation):
        w_gamma([1.0], [1.0], scheme)


def test_cross_term_vartheta_guard():
    scheme, _ = scheme_for(SchemeKind.EULER_MARUYAMA, gamma=0.1, d=1)
    with pytest.raises(ContractViolation, match="vartheta"):
        replace(scheme, vartheta=0.3, vartheta_bar=0.1)


def test_derived_constants_hand_values():
    dc1 = derived_constants(1.0, 0.5, 0.0, 1.0)
    assert dc1.c_w == pytest.approx(1.0 / 12.0, abs=1e-15)
    # EM at kappa=1: family ceiling 1/2, energy ceiling (1/12)/(0 + 2) = 1/24
    assert dc1.gamma_bar_w == pytest.approx(1.0 / 24.0, abs=1e-15)
    # sqrt(max(1, 1.5) + 0.5 * 3) = sqrt(3)
    assert dc1.frak_c_phi == pytest.approx(math.sqrt(3.0), abs=1e-15)
    assert dc1.l_phi > 0
    dc2 = derived_constants(2.0, 0.0, 0.0, 1.0)
    assert dc2.c_w == pytest.approx(1.0 / 8.0, abs=1e-15)
    with pytest.raises(ContractViolation):
        derived_constants(-1.0, 0.5, 0.0, 1.0)
    with pytest.raises(ContractViolation):
        derived_constants(1.0, 0.5, -0.2, 1.0)


@pytest.mark.parametrize("kind", ALL_KINDS, ids=[k.value for k in ALL_KINDS])
def test_pointwise_energy_bounds(kind):
    """Quadratic lower bound, linear phi upper bound, phi Lipschitz bound.

    All three hold pointwise on 1e5 random states for every scheme's
    (tau, vartheta) once gamma sits below the energy ceiling.
    """
    force = quadratic_potential()
    dc = constants_for(kind)
    scheme, _ = scheme_for(kind, gamma=0.9 * dc.gamma_bar_w)
    rng = np.random.default_rng(0)
    n = 10**5
    xs = rng.standard_normal((n, 2)) * rng.uniform(0.1, 30.0, (n, 1))
    vs = rng.standard_normal((n, 2)) * rng.uniform(0.1, 30.0, (n, 1))

    w = w_gamma(xs, vs, scheme)
    lower = dc.c_w * (np.sum(xs**2, axis=1) + np.sum(vs**2, axis=1)) + 2.0 * force.potential(xs)
    assert np.min(w - lower) > -1e-9

    phi = phi_gamma(xs, vs, scheme)
    cap = 1.0 + dc.frak_c_phi * (np.linalg.norm(xs, axis=1) + np.linalg.norm(vs, axis=1))
    assert np.max(phi - cap) < 1e-9

    xs2 = xs + rng.standard_normal((n, 2))
    vs2 = vs + rng.standard_normal((n, 2))
    phi2 = phi_gamma(xs2, vs2, scheme)
    dist = np.sqrt(np.sum((xs - xs2) ** 2, axis=1) + np.sum((vs - vs2) ** 2, axis=1))
    assert np.max(np.abs(phi - phi2) / dist) <= dc.l_phi


def test_v_bar_origin_and_overflow_guard():
    force = quadratic_potential()
    assert v_bar([0.0], [0.0], 0.25, force) == pytest.approx(math.exp(0.25), rel=1e-14)
    # far out the exponent exceeds 700 and is returned as-is
    far = v_bar([2.0e4], [0.0], 0.25, force)
    assert far == 0.25 * math.sqrt(1.0 + v_cal([2.0e4], [0.0], force))
    assert far > 700.0
    mixed = v_bar([[0.0], [2.0e4]], [[0.0], [0.0]], 0.25, force)
    assert mixed[0] == pytest.approx(math.exp(0.25), rel=1e-14)
    assert mixed[1] == far


def test_v_bar_sandwich_fitted_exponents():
    """exp(varpi1 sqrt(1+V)) <= exp(varpi phi) <= exp(varpi2 sqrt(1+V)).

    The exponents come from the bracketing constants: the lower one from
    the quadratic floor of W, the upper one from the linear cap on phi.
    """
    force = quadratic_potential()
    dc = constants_for(SchemeKind.EULER_MARUYAMA)
    scheme, _ = scheme_for(SchemeKind.EULER_MARUYAMA, gamma=0.02)
    varpi = 0.4
    varpi1 = varpi * math.sqrt(min(1.0, dc.c_w, 2.0 * ALPHA_U))
    varpi2 = varpi * max(math.sqrt(2.0), 2.0 * dc.frak_c_phi)
    rng = np.random.default_rng(4)
    n = 10**5
    xs = rng.standard_normal((n, 2)) * rng.uniform(0.1, 50.0, (n, 1))
    vs = rng.standard_normal((n, 2)) * rng.uniform(0.1, 50.0, (n, 1))
    root_v = np.sqrt(1.0 + v_cal(xs, vs, force))
    mid = log_w_bar(xs, vs, scheme, varpi)
    assert np.all(varpi1 * root_v <= mid + 1e-12)
    assert np.all(mid <= varpi2 * root_v + 1e-12)
    # v_bar shares the overflow convention
    assert v_bar([0.0, 0.0], [0.0, 0.0], varpi, force) == pytest.approx(math.exp(varpi))


def test_script_f_hand_values():
    force = quadratic_potential()
    zero = np.zeros(1)
    assert script_f(zero, zero, zero, zero, force) == 0.0
    # |grad U|^2 + |v|^2 + |z|^2 + |w|^2 + |x| = 4 + 1 + 0 + 0 + 2
    assert script_f([2.0], [1.0], [0.0], [0.0], force) == pytest.approx(7.0, abs=1e-12)
    assert script_f([2.0], [1.0], [3.0], [0.0], force) == pytest.approx(16.0, abs=1e-12)
    with pytest.raises(ContractViolation):
        script_f([1.0], [0.0], [0.0], [0.0], quadratic_potential(0.0))


def test_script_f_noise_average():
    """Averaging out the scaled Gaussian slot adds exactly gamma sigma^2 d."""
    force = quadratic_potential()
    gam, sig, d, n = 0.02, 1.0, 2, 10**6
    x = np.array([1.0, -2.0])
    v = np.array([0.5, 0.3])
    w = np.array([0.2, -0.1])
    z = np.random.default_rng(9).standard_normal((n, d))
    vals = script_f(
        np.broadcast_to(x, (n, d)),
        np.broadcast_to(v, (n, d)),
        math.sqrt(gam) * sig * z,
        np.broadcast_to(w, (n, d)),
        force,
    )
    se = float(np.std(vals, ddof=1) / math.sqrt(n))
    target = script_f(x, v, np.zeros(d), w, force) + gam * sig**2 * d
    assert abs(float(np.mean(vals)) - target) < 3.0 * se


def test_verify_d2_euler_quadratic():
    force = quadratic_potential()
    params = SchemeParams(kappa=1.0, sigma=1.0, gamma=0.04, force=force)
    report = verify_d2(SchemeKind.EULER_MARUYAMA, params, [0.04, 0.02, 0.01], 2000, seed=1)
    assert report.passed
    assert report.delta_u == 1.0
    assert report.alpha_u == 1.0
    assert all(fit.vartheta == 0.0 for fit in report.per_gamma)
    assert 0.0 < report.c_u < 1.0
    assert report.confinement_tail > 0.9
    assert 0.0 < report.zeta_u <= report.confinement_tail
    assert len(report.per_gamma) == 3
    assert not report.witnesses


@pytest.mark.parametrize("kind", [SchemeKind.EULER_MARUYAMA, SchemeKind.SPLIT_CABAC])
def test_verify_d2_reads_f_and_g_from_one_call(monkeypatch, kind):
    force, calls = counting_force(400)
    params = SchemeParams(kappa=1.0, sigma=1.0, gamma=0.04, force=force)
    report = verify_d2(kind, params, [0.04, 0.02, 0.01], 400, seed=3)
    one_call = calls[0]
    split_corrections(monkeypatch, lyapunov)
    calls[0] = 0
    assert verify_d2(kind, params, [0.04, 0.02, 0.01], 400, seed=3) == report
    assert one_call > 0 and calls[0] == 2 * one_call


def test_verify_d2_cabac_quadratic():
    force = quadratic_potential()
    params = SchemeParams(kappa=1.0, sigma=1.0, gamma=0.04, force=force)
    report = verify_d2(SchemeKind.SPLIT_CABAC, params, [0.04, 0.02, 0.01], 2000, seed=1)
    assert report.passed
    assert report.delta_u == 0.5
    assert math.isfinite(report.c_u)
    assert report.cabac is not None and report.cabac.ok


def flat_tail_force(radius: float = 5.0) -> ForceModel:
    """Quadratic well whose potential goes flat beyond the given radius."""
    r2 = radius**2

    def pot(x):
        return 0.5 * np.minimum(np.sum(np.square(x), axis=-1), r2)

    def grad(x):
        inside = np.sum(np.square(x), axis=-1, keepdims=True) <= r2
        return np.where(inside, x, 0.0)

    return ForceModel(
        b=lambda x: -grad(x),
        lipschitz=1.0,
        potential=pot,
        grad_potential=grad,
        label="flat-tail",
    )


def test_verify_d2_flat_tail_witness():
    force = flat_tail_force()
    params = SchemeParams(kappa=1.0, sigma=1.0, gamma=0.04, force=force)
    report = verify_d2(SchemeKind.EULER_MARUYAMA, params, [0.04, 0.02], 500, seed=1)
    assert not report.passed
    assert report.c_u == math.inf
    assert any("confinement ratio" in text for text in report.witnesses)


def test_verify_d2_input_validation():
    force = quadratic_potential()
    params = SchemeParams(kappa=1.0, sigma=1.0, gamma=0.04, force=force)
    with pytest.raises(ContractViolation):
        verify_d2(SchemeKind.EULER_MARUYAMA, params, [], 100)
    with pytest.raises(ContractViolation):
        verify_d2(SchemeKind.EULER_MARUYAMA, params, [0.04], 0)
    bare = ForceModel(b=lambda x: -x, lipschitz=1.0)
    with pytest.raises(ContractViolation):
        verify_d2(
            SchemeKind.EULER_MARUYAMA,
            SchemeParams(kappa=1.0, sigma=1.0, gamma=0.04, force=bare),
            [0.04],
            100,
        )


def drift_grid():
    return [
        State(np.array([a]), np.array([b]))
        for a, b in [(0.0, 0.0), (10.0, 0.0), (0.0, 10.0), (-7.0, 7.0), (12.0, -5.0)]
    ]


def test_drift_contracts_beyond_radius_ten():
    force = quadratic_potential()
    params = SchemeParams(kappa=1.0, sigma=1.0, gamma=0.01, force=force)
    report = estimate_drift(
        SchemeKind.EULER_MARUYAMA, params, 0.1, drift_grid(), mc=10**5, seed=3
    )
    for row in report.rows:
        if row.radius >= 10.0:
            assert row.ratio < 1.0
    assert report.k_hat == 0.0
    assert 0.0 < report.lambda_hat < 1.0
    assert report.b_hat > 0.0
    assert not report.warnings


def test_drift_report_deterministic_and_thread_invariant(monkeypatch):
    force = quadratic_potential()
    params = SchemeParams(kappa=1.0, sigma=1.0, gamma=0.01, force=force)

    def run():
        return estimate_drift(
            SchemeKind.EULER_MARUYAMA, params, 0.1, drift_grid(), mc=2 * 10**4, seed=5
        )

    monkeypatch.setenv("LANGEVIN_KIT_THREADS", "1")
    serial = run()
    repeat = run()
    monkeypatch.setenv("LANGEVIN_KIT_THREADS", "4")
    threaded = run()
    for a, b, c in zip(serial.rows, repeat.rows, threaded.rows):
        assert a.log_ratio == b.log_ratio == c.log_ratio
    assert serial.lambda_hat == threaded.lambda_hat
    assert serial.b_hat == threaded.b_hat


def drift_columns(report):
    """Every number a drift report hands on, as arrays for np.array_equal."""
    return (
        np.array([row.log_ratio for row in report.rows]),
        np.array([row.se_log for row in report.rows]),
        np.array([report.lambda_hat, report.k_hat, report.b_hat]),
    )


def tiled_drift(kind, force, d, seed=11):
    _, params = scheme_for(kind, gamma=0.01, force=force, d=d)
    grid = [
        State(np.full(d, a), np.full(d, b))
        for a, b in [(0.0, 0.0), (6.0, 0.0), (0.0, 6.0), (-4.0, 4.0)]
    ]
    return drift_columns(estimate_drift(kind, params, 0.1, grid, mc=1000, seed=seed))


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize(
    "force", [quadratic_potential(), quartic_well_potential()], ids=["quadratic", "quartic-well"]
)
@pytest.mark.parametrize("kind", [SchemeKind.SPLIT_CABAC, SchemeKind.SG_EULER_MARUYAMA])
def test_drift_report_does_not_depend_on_the_tile_size(monkeypatch, kind, force, d):
    # mc = 1000 rows: tiles of 7 rows leave an uneven last tile of 6; one
    # tile of 4096 rows holds them all. Every noise block is drawn tile by
    # tile: z and w1 for CABAC, z and a transformed w2 for SG-EM.
    monkeypatch.setattr(lyapunov, "_TILE_FLOATS", 7 * d)
    small = tiled_drift(kind, force, d)
    monkeypatch.setattr(lyapunov, "_TILE_FLOATS", 4096 * d)
    whole = tiled_drift(kind, force, d)
    for a, b in zip(small, whole):
        assert np.array_equal(a, b)


def test_tiled_drift_report_does_not_depend_on_the_thread_count(monkeypatch):
    monkeypatch.setattr(lyapunov, "_TILE_FLOATS", 14)
    reports = []
    for threads in ("1", "2"):
        monkeypatch.setenv("LANGEVIN_KIT_THREADS", threads)
        reports.append(tiled_drift(SchemeKind.SPLIT_CABAC, quartic_well_potential(), 2))
    for a, b in zip(*reports):
        assert np.array_equal(a, b)


def one_pass_drift_rows(kind, params, grid, mc, seed, varpi=0.1):
    """(log_ratio, se_log) per state from whole noise blocks and one
    whole-ensemble step, reduced with scipy.special.logsumexp. z comes from
    the state's stream, w1 and w2 from the two children it spawns."""
    scheme = as_general_scheme(kind, params)
    children = np.random.SeedSequence(seed).spawn(len(grid))
    rows = []
    for st, child in zip(grid, children):
        d = st.d
        m1, m2 = scheme.noise_spec.dims(d)
        w1_seed, w2_seed = child.spawn(2)
        z = np.random.default_rng(child).standard_normal((mc, d))
        w1 = np.random.default_rng(w1_seed).standard_normal((mc, m1))
        w2 = np.random.default_rng(w2_seed).standard_normal((mc, m2))
        if scheme.noise_spec.w2_transform is not None and m2:
            w2 = scheme.noise_spec.w2_transform(w2)
        x1, v1 = step_ensemble(
            scheme,
            np.broadcast_to(st.x, (mc, d)),
            np.broadcast_to(st.v, (mc, d)),
            NoiseDraw(z, w1, w2),
        )
        a = varpi * phi_gamma(x1, v1, scheme)
        log_mean = float(logsumexp(a) - math.log(mc))
        se_log = float(np.std(np.exp(a - log_mean), ddof=1) / math.sqrt(mc))
        rows.append((log_mean - varpi * phi_gamma(st.x, st.v, scheme), se_log))
    return rows


@pytest.mark.parametrize("kind", ALL_KINDS, ids=[k.value for k in ALL_KINDS])
def test_tiled_drift_rows_equal_the_one_pass_reference(monkeypatch, kind):
    # Tiles of 7 rows at d = 2 stream every noise block and reduce in place.
    monkeypatch.setattr(lyapunov, "_TILE_FLOATS", 14)
    force = quartic_well_potential()
    _, params = scheme_for(kind, gamma=0.01, force=force, d=2)
    grid = [State(np.full(2, a), np.full(2, b)) for a, b in [(0.0, 0.0), (6.0, 0.0), (-4.0, 4.0)]]
    report = estimate_drift(kind, params, 0.1, grid, mc=1000, seed=11)
    expected = one_pass_drift_rows(kind, params, grid, mc=1000, seed=11)
    assert [(row.log_ratio, row.se_log) for row in report.rows] == expected


@pytest.mark.parametrize("d, bound_mib", [(2, 20), (8, 24)])
def test_drift_state_peak_memory(monkeypatch, d, bound_mib):
    # One state at 1e6 samples: the log-weights and a scratch buffer (16 MB),
    # the log-sum-exp's tie mask (1 MB) and one tile, in any d; measured
    # 18.3 MiB at d = 2 and d = 8. Drawing z whole peaked at 25.6 MiB (d = 2)
    # and 79.7 MiB (d = 8).
    monkeypatch.setenv("LANGEVIN_KIT_THREADS", "1")
    force = quartic_well_potential()
    params = SchemeParams(kappa=1.0, sigma=1.0, gamma=0.01, force=force)
    grid = [State(np.full(d, 5.0), np.zeros(d))]
    estimate_drift(SchemeKind.SPLIT_CABAC, params, 0.1, grid, mc=1000)
    tracemalloc.start()
    try:
        estimate_drift(SchemeKind.SPLIT_CABAC, params, 0.1, grid, mc=10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound_mib * 2**20
    assert peak <= lyapunov.drift_state_bytes(10**6, d)


def lse_cases():
    rng = np.random.default_rng(17)
    ties = rng.standard_normal(1000)
    ties[[3, 400, 999]] = ties.max() + 0.5
    return {
        "n=1": np.array([0.3]),
        "n=2": np.array([-1.25, 2.5]),
        "n=1e6": rng.standard_normal(10**6) * 3.0,
        # log1p(s) ~ s: the result carries every bit of the pairwise sum
        "one-dominant": np.concatenate([[0.0], rng.standard_normal(10**6) - 20.0]),
        "ties": ties,
        "all-tied": np.full(5, -2.0),
        "rounded": np.round(rng.standard_normal(10**4), 1),
        "offset+700": 700.0 + rng.standard_normal(10**5),
        "offset-700": -700.0 + rng.standard_normal(10**5) * 0.01,
        "minus-inf": np.array([-np.inf, 1.0, 1.0]),
        "plus-inf": np.array([np.inf, 1.0]),
        "nan": np.array([np.nan, 1.0]),
        "all-minus-inf": np.full(2, -np.inf),
    }


@pytest.mark.parametrize("name", list(lse_cases()))
def test_log_sum_exp_is_bit_equal_to_scipy(name):
    a = lse_cases()[name]
    before = a.copy()
    got = lyapunov._log_sum_exp(a, np.empty_like(a))
    assert float(logsumexp(a)).hex() == got.hex()
    assert np.array_equal(a, before, equal_nan=True)


def test_drift_gamma_ceiling_and_validation():
    force = quadratic_potential()
    # EM at kappa=1 tolerates at most gamma = 1/24
    params = SchemeParams(kappa=1.0, sigma=1.0, gamma=0.05, force=force)
    with pytest.raises(ContractViolation):
        estimate_drift(SchemeKind.EULER_MARUYAMA, params, 0.1, drift_grid(), mc=100)
    ok = SchemeParams(kappa=1.0, sigma=1.0, gamma=0.01, force=force)
    with pytest.raises(ContractViolation):
        estimate_drift(SchemeKind.EULER_MARUYAMA, ok, 0.1, [], mc=100)
    with pytest.raises(ContractViolation):
        estimate_drift(SchemeKind.EULER_MARUYAMA, ok, 0.1, drift_grid(), mc=1)


def test_drift_precision_warning_on_tiny_budget():
    force = quadratic_potential()
    params = SchemeParams(kappa=1.0, sigma=1.0, gamma=0.04, force=force)
    report = estimate_drift(
        SchemeKind.EULER_MARUYAMA,
        params,
        3.0,
        [State(np.array([30.0]), np.array([0.0]))],
        mc=4,
        seed=2,
    )
    assert any("standard error" in text for text in report.warnings)


def test_drift_ou_v_marginal_matches_quadrature():
    """With no force the one-step weight mean is a 1-d Gaussian integral.

    The position update is deterministic, so the exact ratio follows from
    integrating exp(varpi sqrt(1 + W)) against the Gaussian law of V1.
    """
    free = quadratic_potential(0.0)
    gam, varpi, tau = 0.02, 0.3, 0.98
    params = SchemeParams(kappa=1.0, sigma=1.0, gamma=gam, force=free)
    grid = [State(np.array([0.0]), np.array([2.0])), State(np.array([0.0]), np.array([-1.0]))]
    report = estimate_drift(
        SchemeKind.EULER_MARUYAMA, params, varpi, grid, mc=4 * 10**5, seed=21
    )
    sd = math.sqrt(gam)
    for row in report.rows:
        v0 = row.v[0]
        x1 = gam * v0

        def integrand(u):
            w = 0.5 * x1 * x1 + u * u + x1 * u
            dens = math.exp(-0.5 * ((u - tau * v0) / sd) ** 2) / (sd * math.sqrt(2.0 * math.pi))
            return math.exp(varpi * math.sqrt(1.0 + w)) * dens

        val, _ = quad(integrand, tau * v0 - 10.0 * sd, tau * v0 + 10.0 * sd)
        exact = math.log(val) - varpi * math.sqrt(1.0 + v0 * v0)
        assert abs(row.log_ratio - exact) < 3.0 * row.se_log
