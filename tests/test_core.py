"""Tests for the general one-step recursion, noise plumbing and trajectories."""

import math
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scipy.special import ndtri

from langevin_kit._rng import NoiseSource, _to_normals, chain_normals, normal_block
from langevin_kit.core import (
    ContractViolation,
    DivergedError,
    ForceModel,
    NoiseDraw,
    NoiseSpec,
    State,
    TrajectoryConfig,
    aggregate_closed_form,
    full_noise_step,
    general_step,
    row_dot,
    simulate_chain,
    step_ensemble,
    validate_d1,
)
from langevin_kit.core import _guard
from langevin_kit.potentials import quadratic_potential
from langevin_kit.schemes import SchemeKind, SchemeParams, as_general_scheme


def em_scheme(gamma=0.1, kappa=1.0, sigma=1.0, force=None):
    force = force if force is not None else quadratic_potential()
    return as_general_scheme(SchemeKind.EULER_MARUYAMA, SchemeParams(kappa, sigma, gamma, force))


def test_state_rejects_bad_shapes():
    with pytest.raises(ContractViolation):
        State(np.array([1.0, 2.0]), np.array([1.0]))
    with pytest.raises(ContractViolation):
        State(np.array([[1.0]]), np.array([[1.0]]))
    with pytest.raises(ContractViolation):
        State(np.array([np.nan]), np.array([0.0]))


def test_general_step_matches_hand_formula():
    # Euler-Maruyama: X' = x + gamma v, V' = (1 - kappa gamma) v + gamma b(x) + sqrt(gamma) sigma z.
    gamma, kappa, sigma = 0.05, 0.8, 1.3
    scheme = em_scheme(gamma, kappa, sigma)
    rng = np.random.default_rng(0)
    x, v, z = rng.normal(size=(3, 2))
    out = general_step(scheme, State(x, v), NoiseDraw(z))
    npt.assert_allclose(out.x, x + gamma * v, rtol=0, atol=0)
    npt.assert_allclose(
        out.v, (1.0 - kappa * gamma) * v + gamma * (-x) + math.sqrt(gamma) * sigma * z,
        rtol=1e-15,
    )


@pytest.mark.parametrize(
    "kind",
    [SchemeKind.EULER_MARUYAMA, SchemeKind.SPLIT_CABAC, SchemeKind.EXP_EULER],
)
def test_full_noise_step_with_scaled_z_equals_general_step(kind, quadratic):
    gamma, kappa, sigma = 0.1, 1.0, 0.9
    scheme = as_general_scheme(kind, SchemeParams(kappa, sigma, gamma, quadratic))
    d = 2
    rng = np.random.default_rng(1)
    x, v = rng.normal(size=(2, d))
    m1, m2 = scheme.noise_spec.dims(d)
    z = rng.normal(size=d)
    w1 = rng.normal(size=m1)
    w2 = rng.normal(size=m2)
    want = general_step(scheme, State(x, v), NoiseDraw(z, w1, w2))
    z_full = math.sqrt(gamma) * scheme.sigma_gamma * z
    got_x, got_v = full_noise_step(scheme, x, v, z_full, w1, w2)
    npt.assert_allclose(got_x, want.x, rtol=1e-14)
    npt.assert_allclose(got_v, want.v, rtol=1e-14)


def test_step_ensemble_rows_equal_single_steps(quadratic):
    scheme = as_general_scheme(
        SchemeKind.SPLIT_ABCBA, SchemeParams(1.0, 1.0, 0.1, quadratic)
    )
    rng = np.random.default_rng(2)
    n, d = 7, 3
    x, v = rng.normal(size=(2, n, d))
    m1, m2 = scheme.noise_spec.dims(d)
    z = rng.normal(size=(n, d))
    w1 = rng.normal(size=(n, m1))
    w2 = rng.normal(size=(n, m2))
    bx, bv = step_ensemble(scheme, x, v, NoiseDraw(z, w1, w2))
    for i in range(n):
        s = general_step(scheme, State(x[i], v[i]), NoiseDraw(z[i], w1[i], w2[i]))
        npt.assert_allclose(bx[i], s.x, rtol=1e-14)
        npt.assert_allclose(bv[i], s.v, rtol=1e-14)


def test_noise_spec_split_and_transform():
    spec = NoiseSpec(m1="d", m2=2, w2_transform=lambda w: 3.0 * w)
    assert spec.dims(4) == (4, 2)
    assert spec.width(4) == 10
    block = np.arange(10.0)
    z, w1, w2 = spec.split(block, 4)
    npt.assert_array_equal(z, block[:4])
    npt.assert_array_equal(w1, block[4:8])
    npt.assert_array_equal(w2, 3.0 * block[8:])


def test_noise_width_mismatch_raises(quadratic):
    scheme = em_scheme()
    state = State(np.zeros(2), np.zeros(2))
    with pytest.raises(ContractViolation):
        general_step(scheme, state, NoiseDraw(np.zeros(3)))
    cabac = as_general_scheme(SchemeKind.SPLIT_CABAC, SchemeParams(1.0, 1.0, 0.1, quadratic))
    with pytest.raises(ContractViolation):
        general_step(cabac, state, NoiseDraw(np.zeros(2)))  # missing w1 block


def test_divergence_guard_raises_with_step_index():
    scheme = em_scheme()
    state = State(np.array([2e12]), np.array([0.0]))
    with pytest.raises(DivergedError):
        general_step(scheme, state, NoiseDraw(np.zeros(1)))
    # An anti-restoring force blows up and reports the offending step.
    unstable = ForceModel(b=lambda x: 4.0 * x, lipschitz=4.0)
    bad = as_general_scheme(SchemeKind.EULER_MARUYAMA, SchemeParams(1.0, 1.0, 0.4, unstable))
    with pytest.raises(DivergedError) as err:
        simulate_chain(bad, State(np.array([1.0]), np.array([0.0])),
                       TrajectoryConfig(n_steps=2000, seed=0))
    assert err.value.step is not None and err.value.step > 1


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1.0000001e12, -2e12])
@pytest.mark.parametrize("component", ["x", "v"])
def test_divergence_guard_limits(bad, component):
    # |value| > 1e12, inf and NaN fail in either component; the limit itself passes.
    ok = np.array([[0.0, 1e12], [-1e12, 3.0]])
    _guard(ok, ok, 4)
    hit = ok.copy()
    hit[1, 0] = bad
    x, v = (hit, ok) if component == "x" else (ok, hit)
    with pytest.raises(DivergedError) as err:
        _guard(x, v, 4)
    assert (err.value.component, err.value.step) == (component, 4)
    _guard(np.empty((0, 2)), np.empty((0, 2)), None)


@pytest.mark.parametrize("d", [1, 2])
def test_row_dot_is_bit_equal_to_sum_for_short_rows(d):
    rng = np.random.default_rng(d)
    # Magnitudes from 1e-300 to 1e300: products that underflow to signed
    # zeros, overflow to infinities and everything between.
    a, b = rng.standard_normal((2, 3, 400, d)) * 10.0 ** rng.uniform(-300, 300, (2, 3, 400, d))
    a[:, :10] = -0.0  # signed zeros must come out as np.sum gives them
    b[:, :5] = -1.0
    pairs = (
        (a[0], b[0]), (a[0], a[0]), (a, b), (a[0, 7], b[0, 7]), (a[0, 3], b[0, 3]),
        (a[0], b[1, 3]), (a[0], b[1, 7]),  # (n, d) against (d,)
    )
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        for aa, bb in pairs:
            got = row_dot(aa, bb)
            for want in (np.sum(aa * bb, axis=-1), np.einsum("...i,...i->...", aa, bb)):
                assert type(got) is type(want)
                assert np.shape(got) == np.shape(want)
                assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def test_row_dot_agrees_with_sum_to_rounding():
    # Relative to sum |a_i b_i|, the scale that bounds any reordering of the sum.
    rng = np.random.default_rng(3)
    for d in range(3, 34):
        a, b = rng.standard_normal((2, 2000, d))
        want = np.sum(a * b, axis=-1)
        scale = np.sum(np.abs(a * b), axis=-1)
        assert np.max(np.abs(row_dot(a, b) - want) / scale) <= 1e-15, d
        assert abs(row_dot(a[0], b[0]) - want[0]) <= 1e-15 * scale[0], d


def test_simulate_chain_is_seed_deterministic():
    scheme = em_scheme()
    init = State(np.array([1.0, -1.0]), np.array([0.5, 0.0]))
    cfg = TrajectoryConfig(n_steps=50, seed=123, ensemble=4, record_every=10)
    a = simulate_chain(scheme, init, cfg)
    b = simulate_chain(scheme, init, cfg)
    npt.assert_array_equal(a.xs, b.xs)
    npt.assert_array_equal(a.vs, b.vs)
    c = simulate_chain(scheme, init, TrajectoryConfig(n_steps=50, seed=124, ensemble=4, record_every=10))
    assert not np.array_equal(a.xs, c.xs)


def test_simulate_chain_recording_grid():
    scheme = em_scheme()
    init = State(np.array([0.0]), np.array([0.0]))
    rec = simulate_chain(scheme, init, TrajectoryConfig(n_steps=5, seed=0, record_every=2))
    npt.assert_array_equal(rec.steps, [0, 2, 4, 5])
    assert rec.xs.shape == (4, 1, 1)
    final = rec.final_state()
    npt.assert_array_equal(final.x, rec.xs[-1, 0])
    dense = simulate_chain(scheme, init, TrajectoryConfig(n_steps=5, seed=0))
    npt.assert_array_equal(dense.xs[-1], rec.xs[-1])
    assert len(list(dense.states())) == 6


def test_noise_blocks_are_positionally_stable():
    blk = normal_block(7, 300, 5, 3)
    assert blk.shape == (5, 3)
    npt.assert_array_equal(blk, normal_block(7, 300, 5, 3))
    # Sequential access through NoiseSource agrees with direct addressing,
    # cached (small) and uncached (large) alike.
    small = NoiseSource(7, 5, 3)
    npt.assert_array_equal(small.block_at(300), blk)
    npt.assert_array_equal(small.block_at(12), normal_block(7, 12, 5, 3))
    wide = NoiseSource(7, 600, 3)
    npt.assert_array_equal(wide.block_at(300), normal_block(7, 300, 600, 3))
    # Step counts that end inside a 256-step key block, at widths 1 to 3.
    for n_steps, width in ((520, 3), (300, 1), (257, 2)):
        rows = chain_normals(7, n_steps, width)
        stacked = [normal_block(7, k, 1, width)[0] for k in range(n_steps)]
        npt.assert_array_equal(rows, np.array(stacked))


@pytest.mark.parametrize("width", [1, 2])
def test_chain_normals_peak_memory(width):
    # The output is the only full-length array: holding the raw words and
    # their concatenation as well peaked at three times its size.
    n_steps = 2**20 + 100
    chain_normals(7, 1000, width)
    tracemalloc.start()
    try:
        chain_normals(7, n_steps, width)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * 8 * n_steps * width


def test_to_normals_in_place_is_bit_equal_to_the_expression():
    # Extreme words (0, 2**64 - 1, the edges of one 2**-53 cell) plus random
    # ones, in the (n, width) shape the noise blocks use.
    edges = [0, 1, 2**11 - 1, 2**11, 2**63 - 1, 2**63, 2**64 - 2**11, 2**64 - 2, 2**64 - 1]
    rand = np.random.default_rng(3).integers(0, 2**64, size=27, dtype=np.uint64, endpoint=False)
    words = np.concatenate([np.array(edges, dtype=np.uint64), rand]).reshape(12, 3)
    expected = ndtri(((words >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53)
    # The top cell (words >= 2**64 - 2**11) rounds to u = 1.0, whose ndtri is
    # +inf; it is clamped to the largest double below 1.
    top = words >= np.uint64(2**64 - 2**11)
    assert int(np.sum(top)) == 3
    expected[top] = ndtri(1.0 - 2.0**-53)
    got = _to_normals(words.copy())
    assert got.shape == (12, 3) and got.dtype == np.float64
    assert np.all(np.isfinite(got))
    npt.assert_array_equal(got, expected)


def test_aggregate_closed_form_matches_iteration(quadratic):
    for kind in (SchemeKind.EULER_MARUYAMA, SchemeKind.VERLET_BAC, SchemeKind.SPLIT_CABAC):
        scheme = as_general_scheme(kind, SchemeParams(1.0, 1.0, 0.08, quadratic))
        d = 2
        m1, m2 = scheme.noise_spec.dims(d)
        rng = np.random.default_rng(3)
        init = State(rng.normal(size=d), rng.normal(size=d))
        noises = [
            NoiseDraw(rng.normal(size=d), rng.normal(size=m1), rng.normal(size=m2))
            for _ in range(12)
        ]
        state = init
        for n in noises:
            state = general_step(scheme, state, n)
        agg = aggregate_closed_form(scheme, init, noises)
        npt.assert_allclose(agg.x, state.x, rtol=1e-12, atol=1e-14)
        npt.assert_allclose(agg.v, state.v, rtol=1e-12, atol=1e-14)


def test_aggregate_closed_form_needs_noise(quadratic):
    scheme = em_scheme()
    with pytest.raises(ContractViolation):
        aggregate_closed_form(scheme, State(np.zeros(1), np.zeros(1)), [])


def test_validate_d1_accepts_quadratic_and_rejects_mismatch():
    force = quadratic_potential(2.0)
    pts = np.random.default_rng(4).normal(size=(32, 3))
    validate_d1(force, pts)
    shifted = quadratic_potential(2.0)
    bad = type(shifted)(
        b=shifted.b,
        lipschitz=shifted.lipschitz,
        potential=lambda x: shifted.potential(x) + 1.0,
        grad_potential=shifted.grad_potential,
    )
    with pytest.raises(ContractViolation):
        validate_d1(bad, pts)
    with pytest.raises(ContractViolation):
        validate_d1(free_force_without_potential(), pts)


def free_force_without_potential():
    f = quadratic_potential(0.0)
    return type(f)(b=f.b, lipschitz=0.0)


@settings(max_examples=30, deadline=None)
@given(
    gamma=st.floats(1e-3, 0.2),
    kappa=st.floats(0.2, 2.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_em_step_is_affine_in_the_noise(gamma, kappa, seed):
    """With f and g independent of z, the step is affine in z with slope sqrt(gamma) sigma."""
    scheme = em_scheme(gamma, kappa, 1.0)
    rng = np.random.default_rng(seed)
    x, v, z1, z2 = rng.normal(size=(4, 2))
    s1 = general_step(scheme, State(x, v), NoiseDraw(z1))
    s2 = general_step(scheme, State(x, v), NoiseDraw(z2))
    npt.assert_allclose(s2.v - s1.v, math.sqrt(gamma) * (z2 - z1), rtol=1e-12, atol=1e-12)
    npt.assert_array_equal(s1.x, s2.x)
