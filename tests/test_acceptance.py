"""End-to-end acceptance checks, one test per shipped guarantee.

Each test is a single pass/fail line under ``pytest -v`` and carries its
own Monte-Carlo budget and frozen seed, so the whole file is deterministic
and reruns byte-identically.  Tolerances are stated inline next to each
assertion; the statistical checks use 3-standard-error windows around
values that are exact by construction (no fitted fudge factors).
"""

import csv
import json
import math

import numpy as np

from langevin_kit.cli import CSV_SCHEMA, main
from langevin_kit.convergence import (
    fit_geometric_rate,
    minorization_probe,
    solve_poisson,
    stationary_moment_bias,
)
from langevin_kit.core import (
    NoiseDraw,
    State,
    aggregate_closed_form,
    general_step,
    step_ensemble,
)
from langevin_kit.gaussian import (
    build_projector,
    continuous_covariance,
    covariance_consistency,
    discrete_covariance,
    weight_vectors,
)
from langevin_kit.lyapunov import estimate_drift
from langevin_kit.potentials import quadratic_potential
from langevin_kit.schemes import (
    SchemeKind,
    SchemeParams,
    as_general_scheme,
    gaussian_perturbation_estimator,
    native_step,
)
from langevin_kit.stability import verify_contraction


def params_for(kind, gamma, kappa=1.0, sigma=1.0, force=None, d=2):
    force = force if force is not None else quadratic_potential()
    est = None
    if kind is SchemeKind.SG_EULER_MARUYAMA:
        est = gaussian_perturbation_estimator(force, 0.5, d)
    return SchemeParams(kappa, sigma, gamma, force, sg_estimator=est)


def random_noise(scheme, d, rng):
    m1, m2 = scheme.noise_spec.dims(d)
    base = rng.standard_normal((m2,))
    w2 = scheme.noise_spec.w2_transform(base) if scheme.noise_spec.w2_transform else base
    return NoiseDraw(rng.standard_normal(d), rng.standard_normal(m1), w2)


def mixed_gap(got, want):
    """Largest |got - want| relative to max(1, |want|), elementwise."""
    return float(np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))))


def test_criterion_01_native_steps_match_general_form():
    # every native update must be an instance of the shared one-step form
    rng = np.random.default_rng(1)
    for kind in SchemeKind:
        p = params_for(kind, gamma=0.1)
        scheme = as_general_scheme(kind, p)
        for _ in range(10**4):
            s = State(rng.standard_normal(2), rng.standard_normal(2))
            noise = random_noise(scheme, 2, rng)
            a = native_step(kind, p, s, noise)
            b = general_step(scheme, s, noise)
            assert mixed_gap(a.x, b.x) <= 1e-12
            assert mixed_gap(a.v, b.v) <= 1e-12


def test_criterion_02_closed_form_aggregation_matches_iteration():
    force = quadratic_potential(0.5)
    rng = np.random.default_rng(2)
    kinds = list(SchemeKind)
    for _ in range(100):
        kind = kinds[rng.integers(len(kinds))]
        kappa = float(rng.uniform(0.3, 2.0))
        first_order = kind in (SchemeKind.EULER_MARUYAMA, SchemeKind.SG_EULER_MARUYAMA)
        bar = 1 / (2 * kappa) if first_order else 1 / kappa
        gamma = float(rng.uniform(0.05, 0.95) * min(bar, 0.3))
        d = int(rng.integers(1, 4))
        k = int(rng.integers(1, 101))
        p = params_for(kind, gamma, kappa, float(rng.uniform(0.5, 1.5)), force, d)
        scheme = as_general_scheme(kind, p)
        init = State(rng.standard_normal(d), rng.standard_normal(d))
        noises = [random_noise(scheme, d, rng) for _ in range(k + 1)]
        state = init
        for noise in noises:
            state = general_step(scheme, state, noise)
        closed = aggregate_closed_form(scheme, init, noises)
        assert mixed_gap(closed.x, state.x) <= 1e-10
        assert mixed_gap(closed.v, state.v) <= 1e-10


def test_criterion_03_noise_weights_and_aggregate_covariance():
    # closed-form weight vectors against the step recursion they summarize
    rng = np.random.default_rng(3)
    for _ in range(1000):
        k = int(rng.integers(0, 201))
        gamma = float(rng.uniform(0.01, 0.9))
        tau = float(rng.uniform(0.05, 0.999))
        w = weight_vectors(k, gamma, tau)
        cx = np.zeros(k + 1)
        cv = np.zeros(k + 1)
        for step in range(k + 1):
            cx = cx + gamma * cv
            cv = tau * cv
            cv[step] += 1.0
        assert mixed_gap(w.g1, cx) <= 1e-12
        assert mixed_gap(w.g2, cv) <= 1e-12

    # sampled covariance of the aggregated pair against the closed form
    k, gamma = 10, 0.05
    tau = math.exp(-gamma)
    w = weight_vectors(k, gamma, tau)
    cov, nondegenerate = discrete_covariance(k, gamma, tau)
    assert nondegenerate
    n = 10**6
    draws = np.random.default_rng(30).standard_normal((n, k + 1))
    big_g1 = math.sqrt(gamma) * (draws @ w.g1)
    big_g2 = math.sqrt(gamma) * (draws @ w.g2)
    v1 = float(np.var(big_g1))
    v2 = float(np.cov(big_g1, big_g2)[0, 1])
    v3 = float(np.var(big_g2))
    assert abs(v1 - cov.s1) <= 3.0 * cov.s1 * math.sqrt(2 / n)
    assert abs(v2 - cov.s2) <= 3.0 * math.sqrt((cov.s1 * cov.s3 + cov.s2**2) / n)
    assert abs(v3 - cov.s3) <= 3.0 * cov.s3 * math.sqrt(2 / n)


def test_criterion_04_covariance_error_halves_with_the_step():
    table = covariance_consistency(0.5, [0.05, 0.025, 0.0125], 1.0, 1.0)
    errors = [row.max_error for row in table.rows]
    for coarse, fine in zip(errors, errors[1:]):
        assert 1.5 <= coarse / fine <= 2.5


def test_criterion_05_residual_projector_algebra():
    # instances drawn from the two tau families the schemes actually use
    rng = np.random.default_rng(5)
    for _ in range(100):
        k = int(rng.integers(2, 201))
        kappa = float(rng.uniform(0.3, 2.0))
        if rng.integers(2):
            gamma = float(rng.uniform(0.02, 1.0)) / (2 * kappa)
            tau = 1 - kappa * gamma
        else:
            gamma = float(rng.uniform(0.02, 1.0)) / kappa
            tau = math.exp(-kappa * gamma)
        data = build_projector(k, gamma, tau)
        proj = data.projector
        w = weight_vectors(k, gamma, tau)
        scale = max(1.0, float(np.max(np.abs(proj))))
        assert float(np.max(np.abs(proj - proj.T))) / scale <= 1e-10
        assert float(np.max(np.abs(proj @ proj - proj))) / scale <= 1e-10
        assert mixed_gap(proj @ w.g1, np.zeros(k + 1)) <= 1e-10
        assert mixed_gap(proj @ w.g2, np.zeros(k + 1)) <= 1e-10
        assert abs(float(np.trace(proj)) - (k - 1)) / (k - 1.0) <= 1e-10
        # analytic cross-covariance of the residual draws with the aggregates
        root = math.sqrt(gamma)
        assert float(np.max(np.abs(root * data.selector @ w.g1))) <= 1e-12
        assert float(np.max(np.abs(root * data.selector @ w.g2))) <= 1e-12


def test_criterion_06_scalar_and_covariance_bounds_on_dense_grids():
    # tau vs exponential, and the derived step-size bounds, both tau families
    roundoff = 1e-12
    for kappa in (0.5, 1.0, 2.0):
        for c_kappa, bar, make_tau in (
            (kappa**2 / 2, 1 / (2 * kappa), lambda g, k=kappa: 1 - k * g),
            (0.0, 1 / kappa, lambda g, k=kappa: math.exp(-k * g)),
        ):
            ells = np.arange(1, 1001)
            for gamma in np.linspace(bar / 200, bar, 120):
                tau = make_tau(gamma)
                gap = np.abs(tau**ells - np.exp(-kappa * gamma * ells))
                bound = c_kappa * ells * gamma**2
                assert float(np.max(gap - bound)) <= roundoff
                assert abs(tau - 1) <= (kappa + c_kappa * gamma) * gamma + roundoff
                assert (
                    abs(gamma / (1 - tau) - 1 / kappa)
                    <= (2 * c_kappa / kappa**2 + 1) * gamma + roundoff
                )

    # small-time covariance brackets on a dense time grid
    times = np.concatenate([np.geomspace(1e-8, 1e-2, 60), np.linspace(1e-2, 3.0, 300)])
    for kappa in (0.5, 1.0, 2.0):
        for sigma in (1.0, 1.7):
            s2 = sigma**2
            for t in times:
                cov = continuous_covariance(t, kappa, sigma)
                assert s2 * t**3 / 3 - s2 * kappa * t**4 / 3 - roundoff <= cov.s1
                assert cov.s1 <= s2 * t**3 / 3 + s2 * kappa * t**4 / 12 + roundoff
                assert s2 * t**2 / 2 - s2 * kappa * t**3 / 2 - roundoff <= cov.s2
                assert cov.s2 <= s2 * t**2 / 2 + roundoff
                assert s2 * t - s2 * kappa * t**2 - roundoff <= cov.s3
                assert cov.s3 <= s2 * t + roundoff

    # the diagonal sandwich certified by the consistency table
    for kappa in (0.5, 1.0, 2.0):
        for t_target in np.linspace(0.1, 1.0, 10):
            table = covariance_consistency(
                t_target, [t_target / 8, t_target / 16], kappa, 1.0
            )
            assert table.upper_min_eig >= -1e-12
            assert table.lower_min_eig >= -1e-12


def test_criterion_07_exact_integrator_matches_the_free_flow():
    kappa = sigma = 1.0
    gamma = 0.5
    free = quadratic_potential(0.0)
    scheme = as_general_scheme(
        SchemeKind.EXP_EULER, params_for(SchemeKind.EXP_EULER, gamma, force=free)
    )
    n = 10**6
    rng = np.random.default_rng(70)
    x0, v0 = 1.0, 0.5
    m1, m2 = scheme.noise_spec.dims(1)
    xs = np.full((n, 1), x0)
    vs = np.full((n, 1), v0)
    noise = NoiseDraw(
        rng.standard_normal((n, 1)), rng.standard_normal((n, m1)), np.empty((n, m2))
    )
    x1, v1 = step_ensemble(scheme, xs, vs, noise)
    cov = continuous_covariance(gamma, kappa, sigma)
    decay = math.exp(-kappa * gamma)
    assert abs(float(x1.mean()) - (x0 + (1 - decay) / kappa * v0)) <= 3 * math.sqrt(cov.s1 / n)
    assert abs(float(v1.mean()) - decay * v0) <= 3 * math.sqrt(cov.s3 / n)
    v_x = float(np.var(x1))
    v_c = float(np.cov(x1[:, 0], v1[:, 0])[0, 1])
    v_v = float(np.var(v1))
    assert abs(v_x - cov.s1) <= 3 * cov.s1 * math.sqrt(2 / n)
    assert abs(v_c - cov.s2) <= 3 * math.sqrt((cov.s1 * cov.s3 + cov.s2**2) / n)
    assert abs(v_v - cov.s3) <= 3 * cov.s3 * math.sqrt(2 / n)

    # two exact steps compose to one exact step of twice the length
    flow = np.array([[1.0, (1 - decay) / kappa], [0.0, decay]])
    decay2 = math.exp(-2 * kappa * gamma)
    flow2 = np.array([[1.0, (1 - decay2) / kappa], [0.0, decay2]])
    assert float(np.max(np.abs(flow @ flow - flow2))) <= 1e-12
    cov2 = continuous_covariance(2 * gamma, kappa, sigma)
    sig = np.array([[cov.s1, cov.s2], [cov.s2, cov.s3]])
    sig2 = np.array([[cov2.s1, cov2.s2], [cov2.s2, cov2.s3]])
    assert mixed_gap(flow @ sig @ flow.T + sig, sig2) <= 1e-12


def test_criterion_08_energy_drift_contracts_far_out():
    force = quadratic_potential()
    grid = [
        State(np.array([a]), np.array([b]))
        for r in (10.0, 15.0, 20.0)
        for a, b in ((r, 0.0), (0.0, r), (-r, 0.0), (r / 2, r / 2))
    ]
    for kind in (SchemeKind.EULER_MARUYAMA, SchemeKind.SPLIT_CABAC):
        per_state = [[] for _ in grid]
        for gamma in (0.02, 0.01, 0.005):
            p = params_for(kind, gamma, force=force, d=1)
            report = estimate_drift(kind, p, force, 0.1, grid, mc=10**5, seed=13)
            for rates, row in zip(per_state, report.rows):
                assert row.ratio < 1.0
                rates.append(row.log_ratio / gamma)
        # the per-unit-time contraction rate is nearly step-independent
        for rates in per_state:
            rates = np.array(rates)
            assert (rates.max() - rates.min()) / abs(rates.mean()) < 0.5


def test_criterion_09_minorization_mass_is_stable_under_halving():
    params = params_for(SchemeKind.EULER_MARUYAMA, 0.05, d=1)
    rows = minorization_probe(
        SchemeKind.EULER_MARUYAMA,
        params,
        0.5,
        1.0,
        [0.05, 0.025, 0.0125],
        pairs=16,
        mc=10**6,
        seed=3,
    )
    overlaps = [row.epsilon for row in rows]
    assert all(eps > 0.0 for eps in overlaps)
    assert max(overlaps) / min(overlaps) < 2.0


def test_criterion_10_fitted_tv_rate_is_step_independent():
    rates = []
    for gamma in (0.05, 0.025):
        params = params_for(SchemeKind.EULER_MARUYAMA, gamma, d=1)
        start = State(np.array([5.0]), np.array([0.0]))
        fit = fit_geometric_rate(
            SchemeKind.EULER_MARUYAMA, params, start, 0.1, 12.0, mc=2 * 10**5, seed=17
        )
        assert fit.r_squared > 0.95
        rates.append(fit.rho)
    assert abs(math.log(rates[0]) - math.log(rates[1])) < 0.2 * abs(math.log(rates[0]))


def test_criterion_11_bias_ratios_separate_first_and_second_order():
    force = quadratic_potential()
    em = stationary_moment_bias(
        SchemeKind.EULER_MARUYAMA,
        params_for(SchemeKind.EULER_MARUYAMA, 0.2, force=force),
        (0.2, 0.1),
        mc=4 * 10**6,
        seed=7,
    )
    assert not em["x"].inconclusive and 1.4 <= em["x"].ratio <= 2.8
    assert not em["v"].inconclusive and 1.4 <= em["v"].ratio <= 2.8

    abcba = stationary_moment_bias(
        SchemeKind.SPLIT_ABCBA,
        params_for(SchemeKind.SPLIT_ABCBA, 0.5, force=force),
        (0.5, 0.25),
        mc=2 * 10**6,
        seed=7,
    )
    assert not abcba["v"].inconclusive and 2.5 <= abcba["v"].ratio <= 6.0

    cabac = stationary_moment_bias(
        SchemeKind.SPLIT_CABAC,
        params_for(SchemeKind.SPLIT_CABAC, 0.5, force=force),
        (0.5, 0.25),
        mc=2 * 10**6,
        seed=7,
    )
    assert not cabac["x"].inconclusive and 2.5 <= cabac["x"].ratio <= 6.0


def test_criterion_12_pathwise_stability_inequalities():
    for kind in SchemeKind:
        params = params_for(kind, 0.1)
        report = verify_contraction(kind, params, k=20, lam=1.0, trials=10**4, seed=5)
        assert report.passed
        assert report.max_ratio_coupled <= 1.0
        assert report.max_ratio_position_sum <= 1.0
        assert report.max_ratio_velocity_sum <= 1.0


def test_criterion_13_poisson_solution_and_residual():
    # velocity observable on the free chain, where the answer is linear
    gamma = 0.1
    params = params_for(SchemeKind.EULER_MARUYAMA, gamma, force=quadratic_potential(0.0), d=1)
    tau = 1.0 - gamma
    points = np.array([[0.0, 2.0], [0.0, 1.0], [0.0, 0.0], [0.0, -1.0], [0.0, -2.0]])
    report = solve_poisson(
        SchemeKind.EULER_MARUYAMA,
        params,
        lambda x, v: v[:, 0],
        150,
        points,
        mc=2 * 10**5,
        seed=11,
    )
    for j, point in enumerate(report.eval_points):
        exact = gamma * point[1] / (1.0 - tau)
        assert abs(report.psi[j] - exact) <= 3.0 * report.psi_se[j]

    # position observable on the quadratic well: no closed form, so the
    # truncation residual itself must vanish within its combined error
    params = params_for(SchemeKind.EULER_MARUYAMA, gamma, d=1)
    points = np.array([[-2.0, 0.0], [-1.0, 1.0], [0.0, 0.0], [1.0, -1.0], [2.0, 0.0]])
    report = solve_poisson(
        SchemeKind.EULER_MARUYAMA,
        params,
        lambda x, v: x[:, 0],
        200,
        points,
        mc=2 * 10**5,
        seed=12,
    )
    assert np.all(report.residual <= 3.0 * report.residual_se)


def test_criterion_14_cli_outputs_are_reproducible(tmp_path):
    cfg = {
        "experiment": "simulate",
        "scheme": {"kind": "EulerMaruyama", "kappa": 1.0, "sigma": 1.0, "gamma": 0.1},
        "potential": {"kind": "quadratic", "curvature": 1.0},
        "seed": 42,
        "d": 1,
        "monte_carlo": {"steps": 40, "ensemble": 200, "record_every": 10},
        "output": str(tmp_path / "first"),
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", str(path)]) == 0
    assert main(["run", str(path), "--out", str(tmp_path / "again")]) == 0
    first = (tmp_path / "first" / "results.csv").read_bytes()
    assert first == (tmp_path / "again" / "results.csv").read_bytes()

    with open(tmp_path / "first" / "results.csv", newline="", encoding="utf-8") as fh:
        assert tuple(next(csv.reader(fh))) == CSV_SCHEMA

    # the recorded metadata is itself a complete, equivalent config
    meta = json.loads((tmp_path / "first" / "meta.json").read_text())
    replay = tmp_path / "replay.json"
    replay.write_text(json.dumps(meta))
    assert main(["run", str(replay), "--out", str(tmp_path / "replayed")]) == 0
    assert first == (tmp_path / "replayed" / "results.csv").read_bytes()
