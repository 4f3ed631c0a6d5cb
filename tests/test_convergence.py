"""Total-variation estimation and the four empirical convergence probes."""

import math
import os
import platform
import subprocess
import sys
import threading
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import solve_discrete_lyapunov
from scipy.stats import norm

from langevin_kit.convergence import (
    EstimationError,
    HistogramSpec,
    InsufficientSignalError,
    fit_exponential_decay,
    fit_geometric_rate,
    minorization_partition,
    minorization_probe,
    solve_poisson,
    stationary_moment_bias,
)
import langevin_kit._rng as _rng
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
from langevin_kit.potentials import quadratic_potential, quartic_well_potential
from langevin_kit.schemes import (
    SchemeKind,
    SchemeParams,
    as_general_scheme,
    gaussian_perturbation_estimator,
)


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


@pytest.mark.parametrize(
    "kwargs",
    [
        {"box": math.nan},
        {"box": math.inf},
        {"box": -math.inf},
        {"box": 0.0},
        {"box": -1.0},
        {"bins_per_axis": 2.5},
        {"bins_per_axis": 4.0},
    ],
    ids=["box-nan", "box-inf", "box--inf", "box-0", "box-negative", "bins-2.5", "bins-4.0"],
)
def test_histogram_spec_refuses_a_partition_it_cannot_bin(kwargs):
    # NaN or infinite edges would put every point in one cell, and a
    # non-integer count has no edges at all.
    with pytest.raises(ContractViolation, match="integer bins_per_axis"):
        HistogramSpec(**kwargs)


def counts_of(points, bins):
    """Histogram counts of an (..., m) point set, its first (m + 1) // 2
    coordinates binned as x and the rest as v."""
    half = (points.shape[-1] + 1) // 2
    return convergence._histogram_counts(points[..., :half], points[..., half:], bins)


def tv(a, b, bins=HistogramSpec()):
    """Partition TV of two point sets, by the path the probes run."""
    return convergence._tv_from_counts(counts_of(a, bins), len(a), counts_of(b, bins), len(b))


def test_tv_identical_and_disjoint():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((5000, 2))
    assert tv(a, a) == 0.0
    left = np.full((1000, 1), -3.0)
    right = np.full((1000, 1), 3.0)
    assert tv(left, right) == pytest.approx(2.0)
    # mass beyond the box is lumped into the boundary cells
    assert tv(np.full((100, 1), 7.0), np.full((100, 1), 100.0)) == 0.0


def test_tv_two_gaussians_matches_analytic():
    rng = np.random.default_rng(6)
    a = rng.standard_normal((10**6, 1))
    b = rng.standard_normal((10**6, 1)) + 1.0
    exact = 2.0 * (2.0 * norm.cdf(0.5) - 1.0)
    assert abs(tv(a, b) - exact) < 0.02


def test_tv_symmetry_and_triangle():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((2 * 10**4, 1))
    b = rng.standard_normal((2 * 10**4, 1)) + 0.5
    c = rng.standard_normal((2 * 10**4, 1)) + 1.0
    ab = tv(a, b)
    ba = tv(b, a)
    assert ab == ba
    # the histogram distance is a metric on the empirical laws, so the
    # triangle inequality holds exactly, not just within noise
    assert tv(a, c) <= ab + tv(b, c) + 1e-12


_COARSE_BINS = minorization_partition(1.0, 2)
_FINE_BINS = HistogramSpec(bins_per_axis=32, box=6.0)
_HISTOGRAM_CASES = (
    [(bins, (n, m)) for bins in (_COARSE_BINS, _FINE_BINS) for m in (1, 2, 3, 4) for n in (1, 3000)]
    # Stacked (3, m, d) states at d = 1..3, binned in R^(2d); 32^6 cells at
    # d = 3 would not fit.
    + [(_COARSE_BINS, (3, 1000, 2 * d)) for d in (1, 2, 3)]
    + [(_FINE_BINS, (3, 1000, 2 * d)) for d in (1, 2)]
)


@pytest.mark.parametrize(
    "bins, shape",
    _HISTOGRAM_CASES,
    ids=[f"{b.bins_per_axis}bins-{'x'.join(map(str, s))}" for b, s in _HISTOGRAM_CASES],
)
def test_histogram_counts_equal_histogramdd_of_the_clipped_samples(bins, shape):
    m = shape[-1]
    rng = np.random.default_rng(10 * m + math.prod(shape[:-1]))
    samples = rng.normal(0.0, bins.box, shape)
    points = samples.reshape(-1, m)
    edges = bins.edges()
    points[::3, 0] = rng.choice(edges[1:-1], size=points[::3, 0].size)
    points[1::7, -1] = 1e300
    points[2::7, -1] = -1e300
    half_cell = bins.box / bins.bins_per_axis
    clipped = np.clip(points, -bins.box + 0.5 * half_cell, bins.box - 0.5 * half_cell)
    expected, _ = np.histogramdd(clipped, bins=[edges] * m)
    counts = counts_of(samples, bins)
    assert counts.dtype == np.float64
    assert np.array_equal(counts, expected.ravel())


def _searchsorted_cell_index(x, v, bins):
    """The former binning, the reference for ``_cell_index``: each coordinate
    clipped a quarter cell inside the box, then located by ``searchsorted``."""
    edges = bins.edges()
    half_cell = bins.box / bins.bins_per_axis
    lo, hi = -bins.box + 0.5 * half_cell, bins.box - 0.5 * half_cell
    flat = np.zeros(x.shape[:-1], dtype=np.intp)
    for part in (x, v):
        for j in range(part.shape[-1]):
            flat *= bins.bins_per_axis
            flat += np.searchsorted(edges, np.clip(part[..., j], lo, hi), side="right") - 1
    return flat


def _binning_probes(bins, rng, n_random):
    """Every edge and the former clip bounds with their neighbouring floats,
    the extremes of float64, -0.0 and random points spread past the box."""
    half_cell = bins.box / bins.bins_per_axis
    clip_bounds = [-bins.box + 0.5 * half_cell, bins.box - 0.5 * half_cell]
    marks = np.concatenate([bins.edges(), clip_bounds])
    near = np.concatenate([marks, np.nextafter(marks, -np.inf), np.nextafter(marks, np.inf)])
    top = np.finfo(float).max
    extremes = np.array([1e300, -1e300, top, -top, -0.0, 0.0])
    return np.concatenate([near, extremes, rng.uniform(-1.5 * bins.box, 1.5 * bins.box, n_random)])


# 300 bins take a uint16 accumulator.
_EXACT_BINS = [HistogramSpec(b, box) for b, box in ((5, 2.0), (32, 6.0), (64, 6.0), (300, 3.0))]


@pytest.mark.parametrize("bins", _EXACT_BINS, ids=lambda b: f"{b.bins_per_axis}bins")
@pytest.mark.parametrize("lead, dx, dv", [((), 1, 1), ((), 2, 1), ((3,), 1, 2), ((2,), 2, 2)])
def test_cell_index_equals_the_clipped_searchsorted_binning(bins, lead, dx, dv):
    # Every probe value sits in every coordinate of some point; the rest of
    # the point is random, so each axis and its fold are checked.
    rng = np.random.default_rng(bins.bins_per_axis + 10 * dx + dv)
    probes = _binning_probes(bins, rng, 2000)
    dim = dx + dv
    m = probes.size * dim
    points = rng.uniform(-1.5 * bins.box, 1.5 * bins.box, (*lead, m, dim))
    for j in range(dim):
        points[..., j * probes.size : (j + 1) * probes.size, j] = probes
    x, v = points[..., :dx], points[..., dx:]
    cells = convergence._cell_index(x, v, bins)
    assert cells.shape == (*lead, m)
    assert np.array_equal(cells, _searchsorted_cell_index(x, v, bins))
    assert cells.min() >= 0 and cells.max() == bins.bins_per_axis**dim - 1


@pytest.mark.parametrize("column", [0, 1])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_histogram_counts_refuse_non_finite_samples(bad, column):
    # A bad coordinate is refused in x (column 0) and in v (column 1).
    samples = np.zeros((10, 2))
    samples[4, column] = bad
    with pytest.raises(ContractViolation, match="finite"):
        counts_of(samples, HistogramSpec())


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
    )
    params = SchemeParams(kappa=1.0, sigma=1.0, gamma=0.1, force=anti)
    with pytest.raises(EstimationError, match=r"pair 0 \(point [01], start"):
        minorization_probe(
            SchemeKind.EULER_MARUYAMA, params, 25.0, 1.0, [0.1], pairs=1, mc=50, seed=0
        )


def test_each_kernel_of_a_pair_is_its_own_single_ensemble_run(quadratic, monkeypatch):
    # Every kernel of a gamma runs on the gamma's noise stream; each one's
    # counts are those of its start run alone on that stream, whatever the
    # row blocks (here 5 rows of each of the 6 kernels at d = 2: 100 blocks).
    monkeypatch.setenv("LANGEVIN_KIT_THREADS", "1")
    monkeypatch.setattr(convergence, "_BLOCK_FLOATS", 60)
    tv_from_counts = convergence._tv_from_counts
    compared = []

    def recording(counts_a, n_a, counts_b, n_b):
        compared.append((counts_a.copy(), n_a, counts_b.copy(), n_b))
        return tv_from_counts(counts_a, n_a, counts_b, n_b)

    monkeypatch.setattr(convergence, "_tv_from_counts", recording)
    kind = SchemeKind.EULER_MARUYAMA
    params = SchemeParams(kappa=1.0, sigma=1.0, gamma=0.05, force=quadratic)
    grid, pairs, mc, seed, d = [0.1, 0.05], 3, 500, 4, 2
    res = minorization_probe(kind, params, 0.5, 1.0, grid, pairs=pairs, mc=mc, seed=seed, d=d)

    starts = convergence._ball_points(np.random.default_rng(seed), 2 * pairs, 2 * d, 1.0)
    seeds = [_rng.stream_seed(seed + 1, i) for i in range(len(grid))]
    bins = minorization_partition(1.0, d)
    expected = []
    for gi, gamma in enumerate(grid):
        scheme = as_general_scheme(kind, replace(params, gamma=gamma))
        n_steps = math.ceil(0.5 / gamma) + 1
        counts = []
        for p in starts:
            x, v = np.tile(p[:d], (mc, 1)), np.tile(p[d:], (mc, 1))
            for _, x, v in convergence._ensemble_path(scheme, x, v, n_steps, seeds[gi]):
                pass
            counts.append(convergence._histogram_counts(x, v, bins))
        pair_tvs = []
        for pair in range(pairs):
            expected.append((counts[2 * pair], mc, counts[2 * pair + 1], mc))
            pair_tvs.append(tv_from_counts(*expected[-1]))
        assert res[gi].max_tv == max(pair_tvs)
    assert len(compared) == len(expected) == len(grid) * pairs
    for got, want in zip(compared, expected):
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[2], want[2])
        assert (got[1], got[3]) == (want[1], want[3])


def _probe_at_mc(quadratic, mc, grid=(0.1, 0.05)):
    params = SchemeParams(kappa=1.0, sigma=1.0, gamma=0.05, force=quadratic)
    return minorization_probe(
        SchemeKind.EULER_MARUYAMA, params, 0.5, 1.0, grid, pairs=16, mc=mc, seed=3
    )


def test_minorization_does_not_depend_on_threads_or_blocks(quadratic, monkeypatch):
    # 10000 rows at 4096 rows a block (pairs 16, d = 1) make a ragged last
    # block; a 2^14-float block constant makes 512 rows a block, ragged too.
    monkeypatch.setenv("LANGEVIN_KIT_THREADS", "1")
    serial = _probe_at_mc(quadratic, 10_000)
    monkeypatch.setenv("LANGEVIN_KIT_THREADS", "2")
    assert _probe_at_mc(quadratic, 10_000) == serial
    monkeypatch.setattr(convergence, "_BLOCK_FLOATS", 2**14)
    assert _probe_at_mc(quadratic, 10_000) == serial
    # Groups of 5 pairs (25 cells at d = 1), the last of them 1 pair.
    monkeypatch.setattr(convergence, "_GROUP_FLOATS", 250)
    assert _probe_at_mc(quadratic, 10_000) == serial
    # More workers than cores, switching threads often: a lost update to a
    # gamma's shared counts would change the results.
    monkeypatch.setenv("LANGEVIN_KIT_THREADS", "8")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert _probe_at_mc(quadratic, 10_000) == serial
    finally:
        sys.setswitchinterval(interval)


def test_minorization_divergence_names_the_pair_of_a_later_group(quadratic, monkeypatch):
    # Groups of 2 pairs at d = 1; kernel 1 of the second group is pair 2's
    # point 1.
    monkeypatch.setattr(convergence, "_GROUP_FLOATS", 100)
    pair_tvs = convergence._pair_tvs
    calls = []

    def diverging_second(scheme, starts, *args):
        calls.append(starts)
        if len(calls) == 2:
            raise DivergedError("x", 3, ensemble=1)
        return pair_tvs(scheme, starts, *args)

    monkeypatch.setattr(convergence, "_pair_tvs", diverging_second)
    params = SchemeParams(kappa=1.0, sigma=1.0, gamma=0.1, force=quadratic)
    with pytest.raises(EstimationError, match=r"from pair 2 \(point 1, start") as err:
        minorization_probe(SchemeKind.EULER_MARUYAMA, params, 0.5, 1.0, [0.1], pairs=5, mc=50)
    assert str(calls[1][1]) in str(err.value)


def test_minorization_draws_only_the_steps_it_takes(quadratic, monkeypatch):
    # 64 pairs at d = 1 make row blocks of 1024 rows; mc = 4096 chains of
    # width 1 would take the cached path, but a block's window is narrower
    # than the chains, so each of the 4 blocks draws its 1024 rows of each
    # of the 11 steps the run takes, not every row of a 256-step key block.
    monkeypatch.setenv("LANGEVIN_KIT_THREADS", "1")
    raw = _rng._raw
    words = []

    def counting(bg, seed, key_index, skip, shape):
        words.append(math.prod(shape))
        return raw(bg, seed, key_index, skip, shape)

    monkeypatch.setattr(_rng, "_raw", counting)
    params = SchemeParams(kappa=1.0, sigma=1.0, gamma=0.05, force=quadratic)
    minorization_probe(SchemeKind.EULER_MARUYAMA, params, 0.5, 1.0, [0.05], pairs=64, mc=4096)
    assert convergence._BLOCK_FLOATS // (2 * 64) == 1024
    assert words == [1024] * 44


@pytest.mark.parametrize("n_cells", [10, 10_000])
def test_added_counts_are_the_bincount(n_cells):
    # Fewer cells than entries add a dense bincount, more add unique counts.
    cells = np.random.default_rng(5).integers(0, n_cells, 1000)
    totals = np.full(n_cells, 2.0)
    convergence._add_counts(totals, cells, threading.Lock())
    np.testing.assert_array_equal(totals, 2.0 + np.bincount(cells, minlength=n_cells))


def test_minorization_memory_does_not_grow_with_pairs(quadratic, monkeypatch):
    # At d = 4 a kernel's counts take 5^8 floats (3 MiB); groups of 2 pairs
    # bound what a run holds.
    monkeypatch.setenv("LANGEVIN_KIT_THREADS", "1")
    params = SchemeParams(kappa=1.0, sigma=1.0, gamma=0.1, force=quadratic)
    peaks = []
    for pairs in (5, 20):
        tracemalloc.start()
        try:
            minorization_probe(
                SchemeKind.EULER_MARUYAMA, params, 0.2, 1.0, [0.1], pairs=pairs, mc=100, d=4
            )
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) < 2**20


def test_minorization_memory_does_not_grow_with_mc(quadratic, monkeypatch):
    # Row blocks bound what a run holds. A first untraced run loads what the
    # first Philox normal imports.
    monkeypatch.setenv("LANGEVIN_KIT_THREADS", "1")
    _probe_at_mc(quadratic, 100, grid=(0.1,))
    peaks = []
    for mc in (20_000, 200_000):
        tracemalloc.start()
        try:
            _probe_at_mc(quadratic, mc, grid=(0.1,))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) < 2**20


_MINOR_FAULTS_OF_A_REPEAT = """
import os, resource
os.environ["LANGEVIN_KIT_THREADS"] = "1"
from langevin_kit.convergence import minorization_probe
from langevin_kit.potentials import quadratic_potential
from langevin_kit.schemes import SchemeKind, SchemeParams
params = SchemeParams(kappa=1.0, sigma=1.0, gamma=0.1, force=quadratic_potential())
def probe():
    minorization_probe(SchemeKind.EULER_MARUYAMA, params, 0.5, 1.0, [0.1], 16, 100_000)
probe()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
probe()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc malloc thresholds")
def test_minorization_steps_reuse_their_temporaries_pages():
    # 25 blocks of 6 steps at mc = 1e5 took about 1e5 minor page faults
    # when every step's temporaries went back to the system. A fresh
    # interpreter, so that no earlier test has raised the thresholds.
    src = os.path.dirname(os.path.dirname(convergence.__file__))
    out = subprocess.run(
        [sys.executable, "-c", _MINOR_FAULTS_OF_A_REPEAT],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, check=True,
        timeout=120,
    )
    assert int(out.stdout) < 10_000


_MINOR_FAULTS_OF_AN_ENSEMBLE_REPEAT = """
import os, resource, sys
os.environ["LANGEVIN_KIT_THREADS"] = "1"
import numpy as np
import langevin_kit.convergence as convergence
from langevin_kit.core import State
from langevin_kit.potentials import quadratic_potential
from langevin_kit.schemes import SchemeKind, SchemeParams, as_general_scheme
kind = SchemeKind.EULER_MARUYAMA
params = SchemeParams(kappa=1.0, sigma=1.0, gamma=0.05, force=quadratic_potential())
origin = State(np.zeros(1), np.zeros(1))
# A uniform reference stands in for the 1e7-state stationary reference.
convergence._reference_histogram = lambda *args: (np.ones(32**2), 32**2)
def simulate():
    config = convergence.TrajectoryConfig(n_steps=50, seed=1, ensemble=100_000)
    for _ in convergence.simulate_chain(as_general_scheme(kind, params), origin, config):
        pass
def rate_fit():
    try:
        convergence.fit_geometric_rate(kind, params, origin, 2.5, 100_000)
    except convergence.EstimationError:
        pass
def poisson():
    convergence.solve_poisson(kind, params, lambda x, v: x[:, 0], 49, [[1.0, 0.0]], 100_000)
run = {"simulate": simulate, "rate_fit": rate_fit, "poisson": poisson}[sys.argv[1]]
run()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
run()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc malloc thresholds")
@pytest.mark.parametrize("run", ["simulate", "rate_fit", "poisson"])
def test_ensemble_steps_reuse_their_temporaries_pages(run):
    # 50 steps of 1e5 chains took about 2e4 minor page faults when every
    # step's temporaries went back to the system. A fresh interpreter, so
    # that no earlier test has raised the thresholds.
    src = os.path.dirname(os.path.dirname(convergence.__file__))
    out = subprocess.run(
        [sys.executable, "-c", _MINOR_FAULTS_OF_AN_ENSEMBLE_REPEAT, run],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, check=True,
        timeout=120,
    )
    assert int(out.stdout) < 2_000


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

    The production-length reference (1e7 states) belongs to the acceptance
    suite; a 4e5-state stand-in keeps the shape of both the successful fit
    and the insufficient-signal failure.
    """
    monkeypatch.setattr(convergence, "_REFERENCE_STEPS", 400_000)
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


def test_reference_marginals_match_the_exact_stationary_law(quadratic):
    # EulerMaruyama on the unit quadratic well is the affine recursion
    # (x', v') = M (x, v) + N z, so its stationary law is N(0, Sigma) with
    # Sigma = M Sigma M^T + N N^T. Each marginal of the reference histogram
    # lies within TV 0.01 of it on the rate partition (0.0020 for x and
    # 0.0016 for v at this seed).
    gamma = 0.05
    m = np.array([[1.0, gamma], [-gamma, 1.0 - gamma]])
    n = np.array([[0.0], [math.sqrt(gamma)]])
    sigma = solve_discrete_lyapunov(m, n @ n.T)
    assert sigma[0, 0] == pytest.approx(0.52665, abs=1e-5)
    assert sigma[1, 1] == pytest.approx(0.53947, abs=1e-5)
    params = SchemeParams(kappa=1.0, sigma=1.0, gamma=gamma, force=quadratic)
    bins = convergence._RATE_BINS
    counts, n_ref = convergence._reference_histogram(
        SchemeKind.EULER_MARUYAMA, params, bins, 11
    )
    assert n_ref == counts.sum() == 10_000_000
    counts = counts.reshape(bins.bins_per_axis, bins.bins_per_axis)
    cdf = norm.cdf(bins.edges()[1:-1, None] / np.sqrt(np.diag(sigma)))
    exact = np.diff(cdf, prepend=0.0, append=1.0, axis=0)
    for axis, marginal in enumerate((counts.sum(axis=1), counts.sum(axis=0))):
        assert convergence._tv_from_counts(marginal, n_ref, exact[:, axis], 1.0) < 0.01


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("kind", list(SchemeKind), ids=[k.value for k in SchemeKind])
def test_ensemble_path_yields_every_step_of_the_noise_stream(kind, d):
    # A (3, 5, d) state of three batches stepped together, on rows [2, 7)
    # of a 9-chain stream: each batch of each yielded state is that batch
    # stepped alone with the same rows of each step's block, bit for bit.
    # The quartic well's force reads each row's norm; the stochastic-gradient
    # scheme transforms its w2 columns, and CABAC and ExpEuler read their w1
    # columns.
    force = quartic_well_potential()
    est = None
    if kind is SchemeKind.SG_EULER_MARUYAMA:
        est = gaussian_perturbation_estimator(force, 0.5, d)
    params = SchemeParams(kappa=1.0, sigma=1.0, gamma=0.1, force=force, sg_estimator=est)
    scheme = as_general_scheme(kind, params)
    rng = np.random.default_rng(d)
    x0, v0 = rng.standard_normal((2, 3, 5, d))
    batches = list(zip(x0, v0))
    path = list(convergence._ensemble_path(scheme, x0, v0, 3, 9, lo=2, n_chains=9))
    assert [k for k, *_ in path] == [1, 2, 3]
    src = NoiseSource(9, 9, scheme.noise_spec.width(d), 3)
    for k, xk, vk in path:
        assert xk.shape == vk.shape == (3, 5, d)
        noise = NoiseDraw(*scheme.noise_spec.split(src.block_at(k - 1, 2, 7), d))
        batches = [step_ensemble(scheme, x, v, noise) for x, v in batches]
        for i, (x, v) in enumerate(batches):
            assert np.array_equal(xk[i], x) and np.array_equal(vk[i], v)


@pytest.mark.parametrize("shape", [(8, 1), (2, 8, 1)])
def test_ensemble_path_releases_the_initial_states(quadratic, shape):
    # Once stepped, the initial state, one ensemble or a stacked one, is no
    # longer held by the loop.
    scheme = as_general_scheme(
        SchemeKind.EULER_MARUYAMA, SchemeParams(kappa=1.0, sigma=1.0, gamma=0.1, force=quadratic)
    )
    x, v = np.zeros(shape), np.zeros(shape)
    initial = weakref.ref(x)
    path = convergence._ensemble_path(scheme, x, v, 3, 1)
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
    src = NoiseSource(3, 4, scheme.noise_spec.width(1), 100)
    diverged_at = None
    for k in range(1, 100):
        z, w1, w2 = scheme.noise_spec.split(src.block_at(k - 1), 1)
        try:
            x, v = step_ensemble(scheme, x, v, NoiseDraw(z, w1, w2))
        except DivergedError:
            diverged_at = k
            break
    assert diverged_at is not None and diverged_at > 1
    # One (4, 1) ensemble is batch 0.
    path = convergence._ensemble_path(scheme, np.full((4, 1), 1.0), np.zeros((4, 1)), 100, 3)
    with pytest.raises(DivergedError) as err:
        for _ in path:
            pass
    assert err.value.step == diverged_at
    assert err.value.ensemble == 0
    assert f"at step {diverged_at}" in str(err.value)
    # A (2, 4, 1) state: a batch that leaves the range in its first step,
    # behind one that does not.
    x = np.stack([np.zeros((4, 1)), np.full((4, 1), 1e11)])
    with pytest.raises(DivergedError) as err:
        next(convergence._ensemble_path(scheme, x, np.zeros_like(x), 100, 3))
    assert (err.value.step, err.value.ensemble) == (1, 1)


def test_stacked_divergence_names_the_middle_batch():
    # Three batches of 4 chains at d = 2; only row 2, coordinate 1 of the
    # middle batch leaves the range, through v, in the first step. A batch
    # read along the wrong axis of the (3, 4, 2) state would be named 0 or
    # 2, or none at all.
    scheme = as_general_scheme(
        SchemeKind.EULER_MARUYAMA,
        SchemeParams(kappa=1.0, sigma=1.0, gamma=0.4, force=quadratic_potential(100.0)),
    )
    x, v = np.zeros((3, 4, 2)), np.zeros((3, 4, 2))
    x[1, 2, 1] = 1e11
    with pytest.raises(DivergedError) as err:
        next(convergence._ensemble_path(scheme, x, v, 100, 3))
    assert (err.value.step, err.value.ensemble, err.value.component) == (1, 1, "v")


def test_rate_fit_holds_one_ensemble_state(quadratic, monkeypatch):
    """The ensemble side of the fit keeps only the current state: 48 epochs
    of 2e5 chains would take about 150 MB if every epoch were kept."""
    stationary = np.random.default_rng(0).normal(0.0, math.sqrt(0.5), (10**6, 2))
    ref_counts = counts_of(stationary, convergence._RATE_BINS)
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


def test_moment_bias_standard_errors_cover_the_exact_biases(quadratic):
    # EulerMaruyama on the unit quadratic well is affine, so its exact
    # stationary E[x^2] and E[v^2] at each gamma solve a discrete Lyapunov
    # equation, as in test_reference_marginals_match_the_exact_stationary_law,
    # and the targets are 1/2. Each of the four estimated biases lies within
    # 2 standard errors of its exact value in at least 34 of 40 seeds: 38 is
    # the expected count of an honest 95% interval, and fewer than 34 has
    # probability below 1% for it.
    exact = {}
    for gamma in (0.2, 0.1):
        m = np.array([[1.0, gamma], [-gamma, 1.0 - gamma]])
        n = np.array([[0.0], [math.sqrt(gamma)]])
        exact[gamma] = np.diag(solve_discrete_lyapunov(m, n @ n.T)) - 0.5
    params = SchemeParams(kappa=1.0, sigma=1.0, gamma=0.2, force=quadratic)
    covered = dict.fromkeys(["x coarse", "x fine", "v coarse", "v fine"], 0)
    for seed in range(40):
        out = stationary_moment_bias(
            SchemeKind.EULER_MARUYAMA, params, (0.2, 0.1), mc=256 * 40, seed=seed
        )
        for axis, name in enumerate(("x", "v")):
            b = out[name]
            covered[f"{name} coarse"] += abs(b.bias_coarse - exact[0.2][axis]) <= 2 * b.se_coarse
            covered[f"{name} fine"] += abs(b.bias_fine - exact[0.1][axis]) <= 2 * b.se_fine
    assert min(covered.values()) >= 34, covered


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


def test_poisson_does_not_depend_on_the_thread_count(quadratic, monkeypatch):
    # The points step as one stacked state in row blocks, the pool's tasks:
    # a 2^11-float block constant makes blocks of 682 rows of each of the 3
    # points, so 2000 chains make three blocks, the last one ragged.
    params = SchemeParams(kappa=1.0, sigma=1.0, gamma=0.1, force=quadratic)
    pts = np.array([[2.0, 0.0], [-1.0, 1.0], [0.0, -0.5]])

    def run(threads):
        monkeypatch.setenv("LANGEVIN_KIT_THREADS", threads)
        return solve_poisson(
            SchemeKind.EULER_MARUYAMA, params, lambda x, v: x[:, 0], 20, pts, mc=2000, seed=4
        )

    one_block = run("1")
    monkeypatch.setattr(convergence, "_BLOCK_FLOATS", 2**11)
    for report in (run("1"), run("2")):
        for name in ("psi", "psi_se", "residual", "residual_se", "tail_fraction"):
            assert np.array_equal(getattr(report, name), getattr(one_block, name))


def test_a_poisson_point_does_not_depend_on_the_other_points(quadratic):
    # Every point's chains are rows [0, mc) of the call's one noise stream.
    params = SchemeParams(kappa=1.0, sigma=1.0, gamma=0.1, force=quadratic)

    def run(pts):
        return solve_poisson(
            SchemeKind.EULER_MARUYAMA, params, lambda x, v: x[:, 0], 30, pts, mc=3000, seed=6
        )

    both = run(np.array([[2.0, 0.0], [-1.0, 1.0]]))
    alone = run(np.array([[-1.0, 1.0]]))
    for name in ("psi", "psi_se", "residual", "residual_se"):
        assert getattr(both, name)[1] == getattr(alone, name)[0]


def test_poisson_divergence_names_the_eval_point():
    # The centring run from the origin stays on the quartic well; the chains
    # from x = 50 see a force of -50^3 and leave at once.
    params = SchemeParams(kappa=1.0, sigma=1.0, gamma=0.1, force=quartic_well_potential())
    pts = np.array([[0.0, 0.0], [50.0, 0.0]])
    with pytest.raises(DivergedError, match=r"at step \d+ from eval point \[50\.0, 0\.0\]"):
        solve_poisson(SchemeKind.EULER_MARUYAMA, params, lambda x, v: x[:, 0], 10, pts, mc=100)


def test_poisson_standard_errors_cover_the_exact_ou_solution():
    """phi = v on the force-free chain: E v_k = tau^k v with tau = 1 - gamma,
    so psi(v) = gamma v (1 - tau^(K+1)) / (1 - tau) and the first omitted
    term is tau^(K+1) v. Over 40 seeds, each point's psi and residual lie
    within 2 standard errors of the exact values in at least 34 runs: the
    binomial count at 95% coverage falls below 34 with probability 0.3%.
    On the shared stream the force-free chain's error in psi does not
    depend on v, so the two points' psi errors agree up to rounding."""
    free = quadratic_potential(0.0)
    gam, tau, k = 0.1, 0.9, 40
    params = SchemeParams(kappa=1.0, sigma=1.0, gamma=gam, force=free)
    pts = np.array([[0.0, 2.0], [0.0, -1.0]])
    v = pts[:, 1]
    exact_psi = gam * v * (1.0 - tau ** (k + 1)) / (1.0 - tau)
    exact_residual = np.abs(tau ** (k + 1) * v)
    psi_hits = np.zeros(len(pts), dtype=int)
    residual_hits = np.zeros(len(pts), dtype=int)
    for seed in range(40):
        rep = solve_poisson(
            SchemeKind.EULER_MARUYAMA, params, lambda x, v: v[:, 0], k, pts, mc=1000, seed=seed
        )
        psi_hits += np.abs(rep.psi - exact_psi) <= 2.0 * rep.psi_se
        residual_hits += np.abs(rep.residual - exact_residual) <= 2.0 * rep.residual_se
    assert np.all(psi_hits >= 34), psi_hits
    assert np.all(residual_hits >= 34), residual_hits


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
