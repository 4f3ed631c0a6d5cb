"""Total-variation estimation and the four empirical convergence probes."""

import math
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import norm

from langevin_kit.convergence import (
    EstimationError,
    HistogramSpec,
    InsufficientSignalError,
    TvEstimate,
    fit_exponential_decay,
    fit_geometric_rate,
    minorization_partition,
    minorization_probe,
    solve_poisson,
    stationary_moment_bias,
)
import langevin_kit.convergence as convergence
from langevin_kit._rng import NoiseSource
from langevin_kit.core import (
    ContractViolation,
    DivergedError,
    ForceModel,
    NoiseDraw,
    State,
    step_ensemble,
)
from langevin_kit.potentials import quadratic_potential
from langevin_kit.schemes import SchemeKind, SchemeParams, as_general_scheme


def test_histogram_spec_defaults_and_validation():
    spec = HistogramSpec()
    assert spec.bins_per_axis == 64
    assert spec.box == 6.0
    assert len(spec.edges()) == 65
    assert spec.edges()[0] == -6.0 and spec.edges()[-1] == 6.0
    with pytest.raises(ContractViolation):
        HistogramSpec(bins_per_axis=1)
    with pytest.raises(ContractViolation):
        HistogramSpec(box=0.0)


def tv(a, b, bins=HistogramSpec()):
    """Partition TV of two point sets, by the path the probes run."""
    return convergence._tv_from_counts(
        convergence._histogram_counts(a, bins),
        len(a),
        convergence._histogram_counts(b, bins),
        len(b),
    )


def test_tv_identical_and_disjoint():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((5000, 2))
    assert tv(a, a).value == 0.0
    left = np.full((1000, 1), -3.0)
    right = np.full((1000, 1), 3.0)
    assert tv(left, right).value == pytest.approx(2.0)
    # mass beyond the box is lumped into the boundary cells
    assert tv(np.full((100, 1), 7.0), np.full((100, 1), 100.0)).value == 0.0


def test_tv_two_gaussians_matches_analytic():
    rng = np.random.default_rng(6)
    a = rng.standard_normal((10**6, 1))
    b = rng.standard_normal((10**6, 1)) + 1.0
    est = tv(a, b)
    exact = 2.0 * (2.0 * norm.cdf(0.5) - 1.0)
    assert abs(est.value - exact) < 0.02
    assert est.std_error < 0.01


def test_tv_symmetry_and_triangle():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((2 * 10**4, 1))
    b = rng.standard_normal((2 * 10**4, 1)) + 0.5
    c = rng.standard_normal((2 * 10**4, 1)) + 1.0
    ab = tv(a, b).value
    ba = tv(b, a).value
    assert ab == ba
    # the histogram distance is a metric on the empirical laws, so the
    # triangle inequality holds exactly, not just within noise
    assert tv(a, c).value <= ab + tv(b, c).value + 1e-12


@pytest.mark.parametrize(
    "bins", [minorization_partition(1.0, 2), HistogramSpec(bins_per_axis=32, box=6.0)]
)
@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("n", [1, 3000])
def test_histogram_counts_equal_histogramdd_of_the_clipped_samples(bins, m, n):
    rng = np.random.default_rng(10 * m + n)
    samples = rng.normal(0.0, bins.box, (n, m))
    edges = bins.edges()
    samples[::3, 0] = rng.choice(edges[1:-1], size=samples[::3, 0].size)
    samples[1::7, -1] = 1e300
    samples[2::7, -1] = -1e300
    half_cell = bins.box / bins.bins_per_axis
    clipped = np.clip(samples, -bins.box + 0.5 * half_cell, bins.box - 0.5 * half_cell)
    expected, _ = np.histogramdd(clipped, bins=[edges] * m)
    counts = convergence._histogram_counts(samples, bins)
    assert counts.dtype == np.float64
    assert np.array_equal(counts, expected.ravel())


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_histogram_counts_refuse_non_finite_samples(bad):
    samples = np.zeros((10, 2))
    samples[4, 1] = bad
    with pytest.raises(ContractViolation, match="finite"):
        convergence._histogram_counts(samples, HistogramSpec())


def test_tv_input_validation():
    with pytest.raises(ContractViolation):
        TvEstimate(value=2.5, std_error=0.0)


def test_minorization_same_point_overlap():
    # with no force and a vanishing ball the two kernels coincide, so the
    # probe sees full overlap up to histogram noise
    free = quadratic_potential(0.0)
    res = minorization_probe(
        SchemeKind.EULER_MARUYAMA,
        SchemeParams(kappa=1.0, sigma=1.0, gamma=0.1, force=free),
        0.5,
        1e-6,
        [0.1],
        pairs=1,
        mc=4000,
        seed=0,
    )
    assert len(res) == 1
    assert res[0].epsilon > 0.95


def test_minorization_em_quadratic(quadratic):
    params = SchemeParams(kappa=1.0, sigma=1.0, gamma=0.05, force=quadratic)
    grid = [0.05, 0.025]
    res = minorization_probe(
        SchemeKind.EULER_MARUYAMA, params, 0.5, 1.0, grid, pairs=4, mc=2000, seed=0
    )
    eps = [r.epsilon for r in res]
    assert all(e > 0.0 for e in eps)
    assert max(eps) / min(eps) < 2.0
    assert [r.gamma for r in res] == grid
    again = minorization_probe(
        SchemeKind.EULER_MARUYAMA, params, 0.5, 1.0, grid, pairs=4, mc=2000, seed=0
    )
    assert eps == [r.epsilon for r in again]


def test_minorization_validation(quadratic):
    params = SchemeParams(kappa=1.0, sigma=1.0, gamma=0.05, force=quadratic)
    with pytest.raises(ContractViolation):
        minorization_probe(SchemeKind.EULER_MARUYAMA, params, 0.0, 1.0, [0.05], 2, 100)
    with pytest.raises(ContractViolation):
        minorization_probe(SchemeKind.EULER_MARUYAMA, params, 0.5, -1.0, [0.05], 2, 100)
    with pytest.raises(ContractViolation):
        minorization_probe(SchemeKind.EULER_MARUYAMA, params, 0.5, 1.0, [0.05], 0, 100)


def test_minorization_partition_cell_cap(quadratic):
    # 7^(2d) cells against the cap of 2^24 admit d <= 4.
    assert minorization_partition(1.0, 4).bins_per_axis == 5
    for d in (5, 8):
        with pytest.raises(ContractViolation, match="cap of 2"):
            minorization_partition(1.0, d)
    params = SchemeParams(kappa=1.0, sigma=1.0, gamma=0.05, force=quadratic)
    with pytest.raises(ContractViolation, match="cap of 2"):
        minorization_probe(SchemeKind.EULER_MARUYAMA, params, 0.5, 1.0, [0.05], 1, 10, d=8)


def test_minorization_divergence_names_the_pair():
    anti = ForceModel(
        b=lambda x: 4.0 * x,
        lipschitz=4.0,
        potential=lambda x: -2.0 * np.sum(np.square(x), axis=-1),
        grad_potential=lambda x: -4.0 * x,
        label="anti-restoring",
    )
    params = SchemeParams(kappa=1.0, sigma=1.0, gamma=0.1, force=anti)
    with pytest.raises(EstimationError, match=r"pair 0 \(point [01], start"):
        minorization_probe(
            SchemeKind.EULER_MARUYAMA, params, 25.0, 1.0, [0.1], pairs=1, mc=50, seed=0
        )


def test_each_kernel_of_a_pair_is_its_own_single_ensemble_run(quadratic, monkeypatch):
    # Both kernels of a pair run on the pair's noise stream; each one's counts
    # are those of its start run alone on that stream.
    monkeypatch.setenv("LANGEVIN_KIT_THREADS", "1")
    histogram = convergence._histogram_counts
    counted = []

    def recording(samples, bins):
        counted.append(histogram(samples, bins))
        return counted[-1]

    monkeypatch.setattr(convergence, "_histogram_counts", recording)
    kind = SchemeKind.EULER_MARUYAMA
    params = SchemeParams(kappa=1.0, sigma=1.0, gamma=0.05, force=quadratic)
    grid, pairs, mc, seed, d = [0.1, 0.05], 3, 500, 4, 2
    res = minorization_probe(kind, params, 0.5, 1.0, grid, pairs=pairs, mc=mc, seed=seed, d=d)

    starts = convergence._ball_points(np.random.default_rng(seed), 2 * pairs, 2 * d, 1.0)
    seeds = convergence._seed_ints(seed + 1, len(grid) * pairs)
    bins = minorization_partition(1.0, d)
    expected = []
    for gi, gamma in enumerate(grid):
        scheme = as_general_scheme(kind, replace(params, gamma=gamma))
        n_steps = math.ceil(0.5 / gamma) + 1
        pair_tvs = []
        for pair in range(pairs):
            counts = []
            for p in starts[2 * pair : 2 * pair + 2]:
                x, v = np.tile(p[:d], (mc, 1)), np.tile(p[d:], (mc, 1))
                path = convergence._ensemble_path(scheme, [(x, v)], n_steps, seeds[gi * pairs + pair])
                for _, (x, v) in path:
                    pass
                counts.append(histogram(np.hstack([x, v]), bins))
            expected += counts
            pair_tvs.append(convergence._tv_from_counts(counts[0], mc, counts[1], mc).value)
        assert res[gi].max_tv == max(pair_tvs)
    assert len(counted) == len(expected)
    for got, want in zip(counted, expected):
        assert np.array_equal(got, want)


def test_exponential_fit_exact_recovery():
    times = np.linspace(0.25, 3.0, 12)
    prefactor, rho, r_squared = fit_exponential_decay(times, 2.0 * np.exp(-times))
    assert prefactor == pytest.approx(2.0, abs=1e-6)
    assert rho == pytest.approx(math.exp(-1.0), abs=1e-6)
    assert r_squared == 1.0
    with pytest.raises(ContractViolation):
        fit_exponential_decay(times, np.ones(3))
    with pytest.raises(ContractViolation):
        fit_exponential_decay([1.0, 2.0], [1.0, 0.0])


def test_rate_fit_validation(quadratic):
    params = SchemeParams(kappa=1.0, sigma=1.0, gamma=0.05, force=quadratic)
    start = State(np.array([5.0]), np.array([0.0]))
    with pytest.raises(ContractViolation):
        fit_geometric_rate(SchemeKind.EULER_MARUYAMA, params, start, 2.0, 100)
    wide = State(np.array([5.0, 0.0]), np.array([0.0, 0.0]))
    with pytest.raises(ContractViolation):
        fit_geometric_rate(SchemeKind.EULER_MARUYAMA, params, wide, 8.0, 100)
    with pytest.raises(ContractViolation):
        fit_geometric_rate(SchemeKind.EULER_MARUYAMA, params, start, 8.0, 1)


def test_rate_fit_short_reference(quadratic, monkeypatch):
    """Exercise the fit against a shortened stationary reference run.

    The production-length reference (1e7 steps) belongs to the acceptance
    suite; a 4e5-step stand-in keeps the shape of both the successful fit
    and the insufficient-signal failure.
    """
    monkeypatch.setattr(convergence, "_REFERENCE_STEPS", 400_000)
    monkeypatch.setattr(convergence, "_REFERENCE_BURN_IN", 4_000)
    params = SchemeParams(kappa=1.0, sigma=1.0, gamma=0.05, force=quadratic)
    # starting essentially at stationarity leaves nothing above the floor
    near = State(np.array([0.05]), np.array([0.0]))
    with pytest.raises(InsufficientSignalError):
        fit_geometric_rate(SchemeKind.EULER_MARUYAMA, params, near, 3.0, mc=256, seed=4)
    far = State(np.array([5.0]), np.array([0.0]))
    rate = fit_geometric_rate(
        SchemeKind.EULER_MARUYAMA, params, far, 8.0, mc=3 * 10**4, seed=4
    )
    assert 0.0 < rate.rho < 1.0
    assert rate.r_squared > 0.9
    assert rate.prefactor > 0.0
    assert rate.times.shape == rate.values.shape


@pytest.mark.parametrize("kind", [SchemeKind.EULER_MARUYAMA, SchemeKind.SPLIT_CABAC])
def test_reference_counts_do_not_depend_on_the_chunk(quadratic, monkeypatch, kind):
    # The burn-in ends inside the second 4096-step chunk.
    monkeypatch.setattr(convergence, "_REFERENCE_STEPS", 50_000)
    monkeypatch.setattr(convergence, "_REFERENCE_BURN_IN", 5_000)
    params = SchemeParams(kappa=1.0, sigma=1.0, gamma=0.05, force=quadratic)
    bins = HistogramSpec(bins_per_axis=32, box=6.0)
    whole, n_whole = convergence._reference_histogram(kind, params, bins, 11)
    monkeypatch.setattr(convergence, "_REFERENCE_CHUNK", 4096)
    chunked, n_chunked = convergence._reference_histogram(kind, params, bins, 11)
    assert n_whole == n_chunked == 50_000
    assert whole.sum() == 50_000
    assert np.array_equal(chunked, whole)


def test_ensemble_path_yields_every_step_of_the_noise_stream(quadratic):
    # Both batches are driven by the same block at each step.
    scheme = as_general_scheme(
        SchemeKind.SPLIT_CABAC, SchemeParams(kappa=1.0, sigma=1.0, gamma=0.1, force=quadratic)
    )
    batches = [(np.full((5, 2), 1.5), np.zeros((5, 2))), (np.zeros((5, 2)), np.ones((5, 2)))]
    path = list(convergence._ensemble_path(scheme, batches, 3, 9))
    assert [k for k, _, _ in path] == [1, 2, 3]
    src = NoiseSource(9, 5, scheme.noise_spec.width(2))
    for k, *yielded in path:
        noise = NoiseDraw(*scheme.noise_spec.split(src.block_at(k - 1), 2))
        batches = [step_ensemble(scheme, x, v, noise) for x, v in batches]
        for (xk, vk), (x, v) in zip(yielded, batches, strict=True):
            assert np.array_equal(xk, x) and np.array_equal(vk, v)


def test_ensemble_path_releases_the_initial_states(quadratic):
    # Once stepped, a batch's initial state is no longer held by the loop.
    scheme = as_general_scheme(
        SchemeKind.EULER_MARUYAMA, SchemeParams(kappa=1.0, sigma=1.0, gamma=0.1, force=quadratic)
    )
    x, v = np.zeros((8, 1)), np.zeros((8, 1))
    initial = weakref.ref(x)
    path = convergence._ensemble_path(scheme, [(x, v)], 3, 1)
    del x, v
    next(path)
    assert initial() is None


def test_ensemble_path_divergence_names_the_step():
    # Euler-Maruyama is unstable on a stiff well at this step.
    scheme = as_general_scheme(
        SchemeKind.EULER_MARUYAMA,
        SchemeParams(kappa=1.0, sigma=1.0, gamma=0.4, force=quadratic_potential(100.0)),
    )
    x = np.full((4, 1), 1.0)
    v = np.zeros((4, 1))
    src = NoiseSource(3, 4, scheme.noise_spec.width(1))
    diverged_at = None
    for k in range(1, 100):
        z, w1, w2 = scheme.noise_spec.split(src.block_at(k - 1), 1)
        try:
            x, v = step_ensemble(scheme, x, v, NoiseDraw(z, w1, w2))
        except DivergedError:
            diverged_at = k
            break
    assert diverged_at is not None and diverged_at > 1
    path = convergence._ensemble_path(scheme, [(np.full((4, 1), 1.0), np.zeros((4, 1)))], 100, 3)
    with pytest.raises(DivergedError) as err:
        for _ in path:
            pass
    assert err.value.step == diverged_at
    assert err.value.ensemble == 0
    assert f"at step {diverged_at}" in str(err.value)
    # A batch that leaves the range in its first step, behind one that does not.
    batches = [(np.zeros((4, 1)), np.zeros((4, 1))), (np.full((4, 1), 1e11), np.zeros((4, 1)))]
    with pytest.raises(DivergedError) as err:
        next(convergence._ensemble_path(scheme, batches, 100, 3))
    assert (err.value.step, err.value.ensemble) == (1, 1)


def test_rate_fit_holds_one_ensemble_state(quadratic, monkeypatch):
    """The ensemble side of the fit keeps only the current state: 48 epochs
    of 2e5 chains would take about 150 MB if every epoch were kept."""
    stationary = np.random.default_rng(0).normal(0.0, math.sqrt(0.5), (10**6, 2))
    ref_counts = convergence._histogram_counts(stationary, convergence._RATE_BINS)
    monkeypatch.setattr(
        convergence, "_reference_histogram", lambda *args: (ref_counts, 10**6)
    )
    params = SchemeParams(kappa=1.0, sigma=1.0, gamma=0.05, force=quadratic)
    far = State(np.array([5.0]), np.array([0.0]))
    tracemalloc.start()
    try:
        rate = fit_geometric_rate(
            SchemeKind.EULER_MARUYAMA, params, far, 12.0, mc=200_000, seed=4
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0.0 < rate.rho < 1.0
    assert peak <= 32 * 2**20


def test_moment_bias_exact_velocity_law():
    # the exponential integrator samples the OU velocity law exactly, so
    # with no force its bias is statistical noise and flagged as such
    free = quadratic_potential(0.0)
    out = stationary_moment_bias(
        SchemeKind.EXP_EULER,
        SchemeParams(kappa=1.0, sigma=1.0, gamma=0.4, force=free),
        (0.4, 0.2),
        mc=4 * 10**4,
        seed=8,
    )
    assert sorted(out) == ["v"]
    assert out["v"].inconclusive
    assert abs(out["v"].bias_coarse) < 3.0 * out["v"].se_coarse


def test_moment_bias_em_first_order(quadratic):
    out = stationary_moment_bias(
        SchemeKind.EULER_MARUYAMA,
        SchemeParams(kappa=1.0, sigma=1.0, gamma=0.4, force=quadratic),
        (0.4, 0.2),
        mc=2 * 10**5,
        seed=8,
    )
    assert sorted(out) == ["v", "x"]
    for bias in out.values():
        assert not bias.inconclusive
        assert bias.target == pytest.approx(0.5)
        assert bias.bias_coarse > 0.0 and bias.bias_fine > 0.0
        # halving gamma should land the bias ratio in first-order territory
        assert 1.5 < bias.ratio < 4.5


def test_moment_bias_validation(quadratic):
    params = SchemeParams(kappa=1.0, sigma=1.0, gamma=0.4, force=quadratic)
    with pytest.raises(ContractViolation):
        stationary_moment_bias(SchemeKind.EULER_MARUYAMA, params, (0.1, 0.2), 1000)
    with pytest.raises(ContractViolation):
        stationary_moment_bias(SchemeKind.EULER_MARUYAMA, params, (0.2, 0.2), 1000)


def test_poisson_zero_phi(quadratic):
    rep = solve_poisson(
        SchemeKind.EULER_MARUYAMA,
        SchemeParams(kappa=1.0, sigma=1.0, gamma=0.1, force=quadratic),
        lambda x, v: np.zeros(x.shape[0]),
        5,
        np.array([[0.0, 0.0], [1.0, -1.0]]),
        mc=500,
        seed=1,
    )
    np.testing.assert_array_equal(rep.psi, 0.0)
    np.testing.assert_array_equal(rep.residual, 0.0)
    assert rep.tail_fraction == 0.0
    assert not rep.warnings


def test_poisson_ou_velocity_chain():
    """phi = v on the force-free chain has psi(v) = gamma v / (1 - tau)."""
    free = quadratic_potential(0.0)
    gam, tau = 0.1, 0.9
    rep = solve_poisson(
        SchemeKind.EULER_MARUYAMA,
        SchemeParams(kappa=1.0, sigma=1.0, gamma=gam, force=free),
        lambda x, v: v[:, 0],
        80,
        np.array([[0.0, 2.0], [0.0, -1.0]]),
        mc=3 * 10**4,
        seed=2,
    )
    for j, point in enumerate(rep.eval_points):
        exact = gam * point[1] / (1.0 - tau)
        assert abs(rep.psi[j] - exact) < 3.0 * rep.psi_se[j]
        assert rep.residual[j] < 3.0 * rep.residual_se[j]
    assert rep.tail_fraction < 0.05
    assert not rep.warnings


def test_poisson_well_residual_shrinks_with_truncation(quadratic):
    params = SchemeParams(kappa=1.0, sigma=1.0, gamma=0.1, force=quadratic)
    pts = np.array([[2.0, 0.0], [-1.0, 1.0]])

    def run(k, mc=10**4):
        return solve_poisson(
            SchemeKind.EULER_MARUYAMA, params, lambda x, v: x[:, 0], k, pts, mc=mc, seed=3
        )

    short, mid, long = run(20), run(60), run(150)
    assert np.all(short.residual > mid.residual)
    assert np.all(mid.residual > long.residual)
    # at K = 150 the omitted term has decayed below the Monte-Carlo floor
    assert np.all(long.residual < 3.0 * long.residual_se)
    assert not long.warnings
    again = run(150)
    np.testing.assert_array_equal(long.psi, again.psi)


def test_poisson_tail_warning(quadratic):
    rep = solve_poisson(
        SchemeKind.EULER_MARUYAMA,
        SchemeParams(kappa=1.0, sigma=1.0, gamma=0.1, force=quadratic),
        lambda x, v: x[:, 0],
        5,
        np.array([[2.0, 0.0], [-1.0, 1.0]]),
        mc=4000,
        seed=3,
    )
    assert rep.tail_fraction > 0.05
    assert any("increase truncation_k" in w for w in rep.warnings)


def test_poisson_validation(quadratic):
    params = SchemeParams(kappa=1.0, sigma=1.0, gamma=0.1, force=quadratic)
    phi = lambda x, v: x[:, 0]
    pts = np.array([[0.0, 0.0]])
    with pytest.raises(ContractViolation):
        solve_poisson(SchemeKind.EULER_MARUYAMA, params, phi, 0, pts, mc=100)
    with pytest.raises(ContractViolation):
        solve_poisson(SchemeKind.EULER_MARUYAMA, params, phi, 5, pts, mc=1)
    with pytest.raises(ContractViolation):
        solve_poisson(SchemeKind.EULER_MARUYAMA, params, phi, 5, np.array([[0.0, 0.0, 0.0]]), mc=100)
