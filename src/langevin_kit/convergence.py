"""Ensemble runs and empirical convergence probes for the discretized chains.

Every ensemble run in this module goes through one loop, ``_ensemble_path``:
``simulate_chain`` streams its recorded states from it, and each probe below
consumes its states as they are made. The minorization probe and the
Poisson solver step all their starts on one noise stream, in row blocks of
the chains (``_start_blocks``): a block's starts step as one stacked state,
and each step's noise block broadcasts over them.

Four experiments drive the probes: a minorization check (pairwise kernel
overlap at a fixed physical horizon, stable in gamma), a geometric-rate fit
from the decay of total variation to a stationary reference ensemble, a
weak-order probe through stationary moment biases on quadratic wells, and a
truncated-series solver for the one-step Poisson equation. Total variation
between empirical laws is measured on a fixed histogram partition, so every
reported number is an estimate of a partition functional, reproducible from
the declared binning.
"""

from __future__ import annotations

import math
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Iterator

import numpy as np

from . import _rng
from .core import (
    ContractViolation,
    DivergedError,
    GeneralScheme,
    NoiseDraw,
    State,
    _raise_malloc_thresholds,
    step_ensemble,
)
from .schemes import SchemeKind, SchemeParams, as_general_scheme
from .schemes import scalar_step_closure  # perfbench pin (ROADMAP item 1): unused here

__all__ = [
    "TrajectoryConfig",
    "simulate_chain",
    "HistogramSpec",
    "RateEstimate",
    "MinorizationEstimate",
    "MomentBias",
    "PoissonReport",
    "EstimationError",
    "InsufficientSignalError",
    "minorization_partition",
    "minorization_probe",
    "fit_exponential_decay",
    "fit_geometric_rate",
    "stationary_moment_bias",
    "solve_poisson",
]

# Epochs with TV this close to the maximum 2 sit in the saturation regime
# where log TV is flat; they carry no rate information and are excluded
# alongside the noise plateau.
_TV_CEILING = 1.8

# minorization_partition refuses R^(2d) when 7^(2d) cells (5 per axis and an
# outlier cell at each end) exceed this cap, so d <= 4 runs. The counts take
# 5^(2d) float64 cells: 3 MiB at d = 4.
_MAX_HISTOGRAM_CELLS = 2**24

# Physical time between the epochs at which fit_geometric_rate measures TV.
_EPOCH_DT = 0.25

# The stationary reference of fit_geometric_rate bins _REFERENCE_STEPS states,
# _REFERENCE_STEPS // _REFERENCE_CHAINS from each of its chains.
_REFERENCE_STEPS = 10_000_000
_REFERENCE_CHAINS = 10_000

# Floats of histogram counts per group of minorization_probe: a group holds
# max(1, _GROUP_FLOATS // (2 * 5^(2d))) pairs: 2 at d = 4, 67 at d = 3.
_GROUP_FLOATS = 2**21
# Floats of chain state per row block of _start_blocks: a block holds max(1,
# _BLOCK_FLOATS // (2 g d)) rows of each of the 2 g kernels of a minorization
# group of g pairs, and max(1, _BLOCK_FLOATS // (P d)) of each of P Poisson points.
_BLOCK_FLOATS = 2**17


class EstimationError(RuntimeError):
    """A probe could not produce a meaningful estimate."""


class InsufficientSignalError(EstimationError):
    """Too few epochs above the noise floor to fit a rate."""


@dataclass(frozen=True)
class HistogramSpec:
    """Shared fixed-width binning: per axis, ``bins_per_axis`` cells on
    [-box, box]; mass outside the box is lumped into the boundary cells."""

    bins_per_axis: int = 64
    box: float = 6.0

    def __post_init__(self):
        integer = isinstance(self.bins_per_axis, (int, np.integer))
        if not (integer and self.bins_per_axis >= 2 and np.isfinite(self.box) and self.box > 0):
            raise ContractViolation("integer bins_per_axis >= 2 and finite box > 0 are required")

    def edges(self) -> np.ndarray:
        return np.linspace(-self.box, self.box, self.bins_per_axis + 1)


# The partition of R^2 that fit_geometric_rate measures TV on.
_RATE_BINS = HistogramSpec(bins_per_axis=32, box=6.0)


@dataclass(frozen=True)
class RateEstimate:
    """Fitted geometric decay TV(t) ~ prefactor * rho^t over the usable epochs."""

    rho: float
    prefactor: float
    r_squared: float
    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        if not 0.0 < self.rho < 1.0:
            raise ContractViolation("fitted rate must lie in (0, 1)")
        if not 0.0 <= self.r_squared <= 1.0:
            raise ContractViolation("r_squared lies in [0, 1]")


@dataclass(frozen=True)
class MinorizationEstimate:
    epsilon: float
    gamma: float
    max_tv: float

    def __post_init__(self):
        if not 0.0 <= self.epsilon <= 1.0:
            raise ContractViolation("epsilon lies in [0, 1]")


@dataclass(frozen=True)
class MomentBias:
    """Stationary bias of one squared moment at the coarse and fine timesteps."""

    target: float
    bias_coarse: float
    se_coarse: float
    bias_fine: float
    se_fine: float
    ratio: float
    inconclusive: bool


@dataclass(frozen=True)
class PoissonReport:
    eval_points: np.ndarray
    psi: np.ndarray
    psi_se: np.ndarray
    residual: np.ndarray
    residual_se: np.ndarray
    tail_fraction: float
    warnings: list[str] = field(default_factory=list)


def _parallel_map(fn, items):
    items = list(items)
    workers = min(_rng.worker_threads(), len(items))
    if workers <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def _cell_index(x: np.ndarray, v: np.ndarray, bins: HistogramSpec) -> np.ndarray:
    """Flat cell index of each point (x, v) of a state on the shared
    partition of R^(dx + dv), of shape x.shape[:-1]; x and v have the same
    leading shape, and the point's coordinates are x's last axis, then v's.

    A coordinate's cell is the count of interior edges at or below it (one
    pass per edge: the cost grows with ``bins_per_axis``), so mass outside
    the box counts in a boundary cell. The cells fold row-major into one
    flat index. ContractViolation on a non-finite sample: NaN is below no
    edge and would count in cell 0."""
    if not (np.isfinite(x).all() and np.isfinite(v).all()):
        raise ContractViolation("histogram samples must be finite")
    flat = np.zeros(x.shape[:-1], dtype=np.intp)
    for part in (x, v):
        for j in range(part.shape[-1]):
            cell = np.zeros(flat.shape, dtype=np.min_scalar_type(bins.bins_per_axis))
            for edge in bins.edges()[1:-1]:
                cell += part[..., j] >= edge
            flat *= bins.bins_per_axis
            flat += cell
    return flat


def _histogram_counts(x: np.ndarray, v: np.ndarray, bins: HistogramSpec) -> np.ndarray:
    """Flat cell counts of the points (x, v) of a state on the shared
    partition: the ``bincount`` of its ``_cell_index``, equal to
    ``np.histogramdd`` of the points clipped to inside the box, raveled."""
    n_cells = bins.bins_per_axis ** (x.shape[-1] + v.shape[-1])
    counts = np.bincount(_cell_index(x, v, bins).ravel(), minlength=n_cells)
    return counts.astype(np.float64)


def _add_counts(totals: np.ndarray, cells: np.ndarray, lock: threading.Lock) -> None:
    """Add one count per entry of ``cells`` into the flat ``totals`` under
    ``lock``, at a cost that grows with len(cells), not with totals.size."""
    if totals.size <= cells.size:
        where, counts = slice(None), np.bincount(cells, minlength=totals.size)
    else:
        where, counts = np.unique(cells, return_counts=True)
    with lock:
        totals[where] += counts


def _tv_from_counts(counts_a, n_a, counts_b, n_b) -> float:
    """The total variation of two histograms, sum |p_a - p_b|, in [0, 2]."""
    value = float(np.sum(np.abs(counts_a / n_a - counts_b / n_b)))
    return min(value, 2.0)


def _ensemble_path(scheme, x, v, n_steps, seed, lo=0, n_chains=None):
    """Advance the state (x, v) n_steps on one noise stream, yielding
    (k, x, v) with the state after each step k = 1..n_steps.

    The state is one ensemble of shape (m, d) or a stacked state of shape
    (count, m, d): count batches of m chains each. Its m chain rows are rows
    [lo, lo + m) of the ``n_chains`` chains (by default m) of the
    counter-based stream keyed by ``seed``. Each step draws those rows of
    one noise block and hands ``step_ensemble`` the (m, width) block as it
    is. A batch's path is therefore the one its rows follow in a run of the
    whole stream alone; batches stepped together share their noise, chain
    by chain (the synchronous coupling). The step acts on each chain's row
    alone, so the block broadcasts over the batches, every noise term is
    computed once per chain row, and every batch's values are those of
    stepping it alone. It is the only multi-step loop over an ensemble, and
    raises malloc's thresholds first so that steps reuse their temporaries'
    pages. A consumer reads each yielded state and must not write into it;
    one that consumes the states as they are made holds a single state at a
    time, and the caller's initial state is not held once it is stepped. A
    DivergedError carries the step and the index of the first batch that
    diverges in it, 0 for an (m, d) state.
    """
    _raise_malloc_thresholds()
    m, d = x.shape[-2:]
    spec = scheme.noise_spec
    src = _rng.NoiseSource(seed, m if n_chains is None else n_chains, spec.width(d), n_steps)
    for step in range(n_steps):
        block = src.block_at(step, lo, lo + m)
        try:
            x, v = step_ensemble(scheme, x, v, NoiseDraw(*spec.split(block, d)))
        except DivergedError as exc:
            raise DivergedError(exc.component, step + 1, ensemble=exc.ensemble) from None
        yield step + 1, x, v


@dataclass(frozen=True)
class TrajectoryConfig:
    n_steps: int
    seed: int
    ensemble: int = 1
    record_every: int = 1

    def __post_init__(self):
        if self.n_steps < 1 or self.ensemble < 1 or self.record_every < 1:
            raise ContractViolation("n_steps, ensemble and record_every must be >= 1")


def simulate_chain(
    scheme: GeneralScheme, init: State, config: TrajectoryConfig
) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Run an ensemble of chains from a common initial state.

    Yields (step, x, v), with x and v of shape (ensemble, d), at step 0, at
    every ``record_every`` steps and at the last step. Chains use disjoint
    substreams of the counter-based noise source keyed by the config seed, so
    results do not depend on evaluation order. Iteration raises DivergedError
    (carrying the step index) if any component passes the divergence guard.
    The yielded arrays are the loop's state: a consumer must not write into
    them.
    """
    x = np.tile(init.x, (config.ensemble, 1))
    v = np.tile(init.v, (config.ensemble, 1))
    yield 0, x, v
    for k, x, v in _ensemble_path(scheme, x, v, config.n_steps, config.seed):
        if k % config.record_every == 0 or k == config.n_steps:
            yield k, x, v


def _ball_points(rng: np.random.Generator, n: int, dim: int, radius: float) -> np.ndarray:
    """Uniform draws from the closed ball of the given radius in R^dim."""
    raw = rng.standard_normal((n, dim))
    raw /= np.linalg.norm(raw, axis=1, keepdims=True)
    r = radius * rng.uniform(0.0, 1.0, (n, 1)) ** (1.0 / dim)
    return raw * r


def minorization_partition(m_radius: float, d: int) -> HistogramSpec:
    """The partition minorization_probe bins its kernels on, in R^(2d).

    It uses 5 cells per axis (an odd count, so no cell boundary splits
    antipodal pairs) spanning the ball of radius m_radius plus the noise
    scale. ContractViolation when 7^(2d) cells (5 per axis plus an outlier
    cell at each end) exceed 2^24: d <= 4 runs, d >= 5 is refused.
    """
    bins = HistogramSpec(bins_per_axis=5, box=m_radius + 4.0)
    axis_cells = bins.bins_per_axis + 2
    if 2 * d > math.log(_MAX_HISTOGRAM_CELLS, axis_cells):
        raise ContractViolation(
            f"d = {d}: the minorization histogram in R^{2 * d} needs {axis_cells}^{2 * d} "
            f"cells, above the cap of 2^24 (d <= 4)"
        )
    return bins


def _start_blocks(scheme, starts, n_steps, stream, mc, rows, visit) -> None:
    """Run mc chains from each of the (k, 2d) ``starts`` n_steps on the
    noise stream ``stream``, in row blocks of at most ``rows`` chains: the
    pool's tasks. A block steps rows [lo, lo + m) of every start as one
    (k, m, d) stacked state and calls visit(slice(lo, lo + m), step, x, v)
    at step 0 and after each step; a visit writes only its own columns or
    adds under a lock. A start's chains are those of its run alone on the
    stream, and a DivergedError names the index of the start."""
    d = starts.shape[1] // 2

    def one_block(lo):
        m = min(rows, mc - lo)
        x = np.repeat(starts[:, None, :d], m, axis=1)
        v = np.repeat(starts[:, None, d:], m, axis=1)
        visit(slice(lo, lo + m), 0, x, v)
        for k, x, v in _ensemble_path(scheme, x, v, n_steps, stream, lo, mc):
            visit(slice(lo, lo + m), k, x, v)

    _parallel_map(one_block, range(0, mc, rows))


def _pair_tvs(scheme, starts, n_steps, stream, mc, rows, bins) -> list[float]:
    """The TV between the histograms of starts 2i and 2i + 1, for each pair
    i of the (2k, 2d) ``starts``, of mc chains from each start run n_steps
    on the noise stream ``stream``.

    The starts share the stream chain by chain and run in row blocks of
    ``rows`` chains on ``_start_blocks``; a block adds its final counts into
    the totals with the start's index folded into each chain's cell index.
    Counts are integers in float64, so the totals depend on neither the
    block size nor the thread count. A DivergedError names the start.
    """
    n_cells = bins.bins_per_axis ** starts.shape[1]
    totals = np.zeros(len(starts) * n_cells)
    lock = threading.Lock()

    def count(cols, k, x, v):
        if k == n_steps:
            cells = _cell_index(x, v, bins)
            cells += np.arange(len(starts))[:, None] * n_cells
            _add_counts(totals, cells.ravel(), lock)

    _start_blocks(scheme, starts, n_steps, stream, mc, rows, count)
    totals = totals.reshape(len(starts), n_cells)
    return [_tv_from_counts(p, mc, q, mc) for p, q in zip(totals[::2], totals[1::2])]


def minorization_probe(
    kind: SchemeKind,
    params: SchemeParams,
    t0: float,
    m_radius: float,
    gamma_grid,
    pairs: int,
    mc: int,
    seed: int = 0,
    d: int = 1,
) -> list[MinorizationEstimate]:
    """Pairwise kernel-overlap probe at a fixed physical horizon.

    For each gamma, simulates ceil(t0/gamma) + 1 steps from both points of
    ``pairs`` random initial-condition pairs in the phase-space ball of
    radius ``m_radius`` (mc chains per kernel) and reports
    epsilon_hat = 1 - max_pair TV/2 on a deliberately coarse partition.

    All 2 * pairs kernels of a gamma share one noise stream, seeded per
    gamma: chain i of every kernel sees the same Gaussian increments (the
    synchronous coupling). Each kernel's histogram is still that of mc
    i.i.d. chains from its own start, so the TV estimand is unchanged; only
    the joint law of the histograms differs from independent runs, so a
    standard error that assumes independent histograms would not hold, and
    the probe reports none.

    The pairs of a gamma run in groups of g = max(1, ``_GROUP_FLOATS`` //
    (2 cells)) pairs (2 at d = 4, 67 at d = 3), so that a group's counts
    hold at most that many floats; each group steps in row blocks of max(1,
    ``_BLOCK_FLOATS`` // (2 g d)) chains of each of its 2 g kernels on the
    runner it shares with ``solve_poisson`` (``_pair_tvs``, ``_start_blocks``).
    Every kernel's counts are those of its start run alone on the gamma's
    stream, so the results depend on neither the group nor the block size
    nor the thread count, and the memory held grows with neither mc nor pairs.

    A uniform-in-gamma lower bound on kernel overlap is a necessary
    consequence of minorization at horizon t0; the partition
    (``minorization_partition``) must be coarse for the probe to see it,
    since the finely-binned TV of two kernels started at opposite ends of
    the ball is indistinguishable from 2 at any realistic sample size.
    """
    if t0 <= 0 or m_radius <= 0:
        raise ContractViolation("t0 and m_radius must be positive")
    if pairs < 1 or mc < 1:
        raise ContractViolation("pairs and mc must be >= 1")
    bins = minorization_partition(m_radius, d)
    starts = _ball_points(_rng.generator(seed), 2 * pairs, 2 * d, m_radius)
    gamma_grid = [float(g) for g in gamma_grid]
    gamma_seeds = [_rng.stream_seed(seed + 1, i) for i in range(len(gamma_grid))]
    group = max(1, min(pairs, _GROUP_FLOATS // (2 * bins.bins_per_axis ** (2 * d))))
    rows = max(1, _BLOCK_FLOATS // (2 * group * d))

    results = []
    for gamma, stream in zip(gamma_grid, gamma_seeds):
        scheme = as_general_scheme(kind, replace(params, gamma=gamma))
        n_steps = math.ceil(t0 / gamma) + 1
        tvs = []
        for first in range(0, 2 * pairs, 2 * group):
            kernels = starts[first : first + 2 * group]
            try:
                tvs += _pair_tvs(scheme, kernels, n_steps, stream, mc, rows, bins)
            except DivergedError as exc:
                k = first + exc.ensemble
                raise EstimationError(
                    f"chain diverged at gamma={gamma} from pair {k // 2} "
                    f"(point {k % 2}, start {starts[k]})"
                ) from exc
        max_tv = max(tvs)
        results.append(
            MinorizationEstimate(epsilon=1.0 - max_tv / 2.0, gamma=float(gamma), max_tv=max_tv)
        )
    return results


def fit_exponential_decay(times, values) -> tuple[float, float, float]:
    """Least-squares fit of values ~ A * rho^t; returns (A, rho, r_squared)."""
    t = np.asarray(times, dtype=np.float64)
    y = np.asarray(values, dtype=np.float64)
    if t.shape != y.shape or t.ndim != 1 or t.size < 2:
        raise ContractViolation("need matching 1-d arrays with at least 2 points")
    if np.any(y <= 0):
        raise ContractViolation("exponential fit requires positive values")
    log_y = np.log(y)
    slope, intercept = np.polyfit(t, log_y, 1)
    fitted = slope * t + intercept
    ss_res = float(np.sum((log_y - fitted) ** 2))
    ss_tot = float(np.sum((log_y - np.mean(log_y)) ** 2))
    r_squared = 1.0 if ss_tot == 0.0 else max(0.0, 1.0 - ss_res / ss_tot)
    return math.exp(intercept), math.exp(slope), r_squared


def _stationary_states(scheme, d, n_chains, burn_time, keep, seed):
    """Yield the ``keep`` kept states (x, v) of ``n_chains`` chains that
    start at the origin of R^(2d) and step on the noise stream keyed by
    ``seed``, each as it is made, after a burn-in of ceil(burn_time / gamma)
    steps."""
    burn = math.ceil(burn_time / scheme.gamma)
    x = np.zeros((n_chains, d))
    v = np.zeros((n_chains, d))
    for k, x, v in _ensemble_path(scheme, x, v, burn + keep, seed):
        if k > burn:
            yield x, v


def _reference_histogram(kind, params, bins, seed):
    """(counts, n) of a seed-pinned stationary ensemble on the d = 1
    partition ``bins``: the stationary law's reference histogram.

    ``_REFERENCE_CHAINS`` chains run from the origin
    (``_stationary_states``). After a burn-in of 30 time units, as
    ``solve_poisson``'s centring run, each of the next
    ``_REFERENCE_STEPS // _REFERENCE_CHAINS`` states is binned as it is
    made, so n = chains * kept steps states are counted and none is held.
    """
    scheme = as_general_scheme(kind, params)
    keep = _REFERENCE_STEPS // _REFERENCE_CHAINS
    counts = np.zeros(bins.bins_per_axis**2)
    for x, v in _stationary_states(scheme, 1, _REFERENCE_CHAINS, 30.0, keep, seed):
        counts += _histogram_counts(x, v, bins)
    return counts, _REFERENCE_CHAINS * keep


def fit_geometric_rate(
    kind: SchemeKind,
    params: SchemeParams,
    init: State,
    horizon: float,
    mc: int,
    seed: int = 0,
) -> RateEstimate:
    """Fit the geometric decay rate of TV(law at time t, stationary law).

    An ensemble of mc chains starts from ``init``; its law at each epoch
    (every 0.25 time units up to ``horizon``) is compared against a
    stationary reference on the declared partition: 10^7 states of a
    seed-pinned ensemble of independent chains past a burn-in
    (``_reference_histogram``), on a noise stream of its own. log TV is
    fitted against physical time over the epochs that sit between the
    saturation regime (TV close to 2) and 3x the Monte-Carlo noise floor of
    the estimator. The decay theorem is stated in a weighted norm; the
    fitted distance is plain TV, its lower bound. Every scheme runs, at
    d = 1 only: the partition has 32 cells per axis, 32^(2d) in all.
    """
    if horizon <= 0 or mc < 2:
        raise ContractViolation("horizon > 0 and mc >= 2 are required")
    if init.d != 1:
        raise ContractViolation(
            "the rate partition has 32 cells per axis, 32^(2d) in all: d = 1 only"
        )
    n_epochs = int(horizon / _EPOCH_DT + 1e-9)
    if n_epochs < 10:
        raise ContractViolation("horizon must span at least 10 recorded epochs")
    gamma = params.gamma
    scheme = as_general_scheme(kind, params)
    ref_seed, ens_seed = _rng.stream_seed(seed, 0), _rng.stream_seed(seed, 1)

    ref_counts, n_ref = _reference_histogram(kind, params, _RATE_BINS, ref_seed)
    p_ref = ref_counts / n_ref
    floor = math.sqrt(2.0 / math.pi) * float(
        np.sum(np.sqrt(p_ref * (1.0 - p_ref) * (1.0 / mc + 1.0 / n_ref)))
    )

    times = _EPOCH_DT * np.arange(1, n_epochs + 1)
    steps = np.maximum(1, np.rint(times / gamma).astype(int))
    wanted = set(steps.tolist())
    x = np.tile(init.x, (mc, 1))
    v = np.tile(init.v, (mc, 1))
    # Each wanted epoch is histogrammed when the ensemble reaches it, so only
    # the current state is held.
    tv_by_step = {}
    for k, x, v in _ensemble_path(scheme, x, v, max(wanted), ens_seed):
        if k in wanted:
            counts = _histogram_counts(x, v, _RATE_BINS)
            tv_by_step[k] = _tv_from_counts(counts, mc, ref_counts, n_ref)
    values = np.array([tv_by_step[s] for s in steps])

    usable = (values > 3.0 * floor) & (values < _TV_CEILING)
    if int(np.sum(usable)) < 4:
        raise InsufficientSignalError(
            f"{int(np.sum(usable))} epochs above the noise floor "
            f"({floor:.3g}) and below saturation; need at least 4"
        )
    prefactor, rho, r_squared = fit_exponential_decay(times[usable], values[usable])
    return RateEstimate(
        rho=rho,
        prefactor=prefactor,
        r_squared=r_squared,
        times=times,
        values=values,
    )


def _quadratic_curvature(params: SchemeParams) -> float:
    b = params.force.b
    with np.errstate(over="ignore", invalid="ignore"):
        b1 = float(b(np.array([1.0]))[0])
        b2 = float(b(np.array([2.0]))[0])
    if not (math.isfinite(b1) and math.isfinite(b2)):
        raise ContractViolation(f"the force at x = 1 and 2 must be finite, got {b1:g} and {b2:g}")
    if abs(b2 - 2.0 * b1) > 1e-9 * max(1.0, abs(b1)) or b1 > 0:
        raise ContractViolation("stationary moment targets require a quadratic well")
    return -b1


def _time_averages(scheme, observables, d, n_chains, burn_time, keep, seed):
    """Stationary means of observables from per-chain time averages.

    Over the kept states of ``_stationary_states``, each observable maps
    the (x, v) batch to shape (n_chains,) and is averaged per chain. Returns
    one (mean, standard error) per observable, the error treating the chain
    averages as independent.
    """
    sums = [np.zeros(n_chains) for _ in observables]
    for x, v in _stationary_states(scheme, d, n_chains, burn_time, keep, seed):
        for acc, obs in zip(sums, observables):
            acc += obs(x, v)
    return [
        (float(np.mean(acc / keep)), float(np.std(acc / keep, ddof=1) / math.sqrt(n_chains)))
        for acc in sums
    ]


def stationary_moment_bias(
    kind: SchemeKind,
    params: SchemeParams,
    gamma_pair: tuple[float, float],
    mc: int,
    seed: int = 0,
) -> dict[str, MomentBias]:
    """Ratio of stationary second-moment biases at two timesteps.

    Requires b = -grad U with U quadratic, so the continuous targets are
    exact: E[x^2] = sigma^2 / (2 kappa a) at curvature a, E[v^2] =
    sigma^2 / (2 kappa). A first-order scheme halves its bias when gamma is
    halved; a second-order scheme quarters it. Moments whose bias is below 3
    standard errors at either timestep are flagged inconclusive (their ratio
    is noise); a flat force (a = 0) has no stationary position moment and
    only the velocity entry is reported.
    """
    g_coarse, g_fine = gamma_pair
    if not 0 < g_fine < g_coarse:
        raise ContractViolation("gamma_pair must be (coarse, fine) with 0 < fine < coarse")
    curvature = _quadratic_curvature(params)
    n_chains = 256
    keep = max(1, math.ceil(mc / n_chains))
    second_moments = (lambda x, v: x[:, 0] ** 2, lambda x, v: v[:, 0] ** 2)
    moments = []
    for i, gamma in enumerate(gamma_pair):
        scheme = as_general_scheme(kind, replace(params, gamma=gamma))
        chain_seed = _rng.stream_seed(seed, i)
        averages = _time_averages(scheme, second_moments, 1, n_chains, 20.0, keep, chain_seed)
        moments.append(dict(zip(("x", "v"), averages)))
    coarse, fine = moments

    targets = {"v": params.sigma**2 / (2.0 * params.kappa)}
    if curvature > 0:
        targets["x"] = params.sigma**2 / (2.0 * params.kappa * curvature)
    out = {}
    for name, target in targets.items():
        mean_c, se_c = coarse[name]
        mean_f, se_f = fine[name]
        bias_c = mean_c - target
        bias_f = mean_f - target
        inconclusive = abs(bias_c) < 3.0 * se_c or abs(bias_f) < 3.0 * se_f
        ratio = abs(bias_c) / abs(bias_f) if bias_f != 0.0 else math.inf
        out[name] = MomentBias(
            target=target,
            bias_coarse=bias_c,
            se_coarse=se_c,
            bias_fine=bias_f,
            se_fine=se_f,
            ratio=ratio,
            inconclusive=inconclusive,
        )
    return out


def solve_poisson(
    kind: SchemeKind,
    params: SchemeParams,
    phi,
    truncation_k: int,
    eval_points: np.ndarray,
    mc: int,
    seed: int = 0,
) -> PoissonReport:
    """Truncated-series solution of the one-step Poisson equation.

    psi(p) = gamma * sum_{k=0}^{K} E_p[phi_c(state_k)], with phi_c the input
    centered by its empirically estimated stationary mean. Because each
    series term is the one-step image of the previous one, the residual
    |(psi - R psi)/gamma - phi_c| at an eval point collapses to the magnitude
    of the first omitted term, which the same ensemble estimates by running
    one extra step. ``phi`` maps batched (x, v) arrays of shape (n, d) to
    shape (n,).

    The eval points share one noise stream chain by chain on the runner of
    the minorization probe, ``_start_blocks``: a point's row is that of its
    run alone, and a DivergedError names the point.
    """
    if truncation_k < 1 or mc < 2:
        raise ContractViolation("truncation_k >= 1 and mc >= 2 are required")
    pts = np.atleast_2d(np.asarray(eval_points, dtype=np.float64))
    if pts.shape[1] % 2 != 0:
        raise ContractViolation("eval points live in R^(2d)")
    d = pts.shape[1] // 2
    scheme = as_general_scheme(kind, params)
    gamma = params.gamma
    ref_seed, stream = _rng.stream_seed(seed, 0), _rng.stream_seed(seed, 1)

    # Stationary mean of phi for centering, from an independent ensemble.
    n_ref = 512
    keep = max(64, math.ceil(max(mc, 65536) / n_ref))
    ((mu_hat, se_ref),) = _time_averages(scheme, (phi,), d, n_ref, 30.0, keep, ref_seed)

    sums, last_kept, first_omitted = (np.zeros((len(pts), mc)) for _ in range(3))

    def add_terms(cols, k, x, v):
        term = phi(x.reshape(-1, d), v.reshape(-1, d)).reshape(len(pts), -1) - mu_hat
        if k <= truncation_k:
            sums[:, cols] += term
            last_kept[:, cols] = term
        else:
            first_omitted[:, cols] = term

    rows = max(1, _BLOCK_FLOATS // (len(pts) * d))
    try:
        _start_blocks(scheme, pts, truncation_k + 1, stream, mc, rows, add_terms)
    except DivergedError as exc:
        where = f"eval point {pts[exc.ensemble].tolist()}"
        raise DivergedError(exc.component, exc.step, start=where) from None
    psi = gamma * np.mean(sums, axis=1)
    ens_se = gamma * (np.std(sums, axis=1, ddof=1) / math.sqrt(mc))
    psi_se = np.sqrt(ens_se**2 + (gamma * (truncation_k + 1) * se_ref) ** 2)
    residual = np.abs(np.mean(first_omitted, axis=1))
    residual_se = np.sqrt((np.std(first_omitted, axis=1, ddof=1) / math.sqrt(mc)) ** 2 + se_ref**2)
    last_terms = gamma * np.mean(last_kept, axis=1)
    scale = float(np.max(np.abs(psi)))
    tail = float(np.max(np.abs(last_terms))) / scale if scale > 0 else 0.0
    warnings = []
    if tail > 0.05:
        warnings.append(
            f"truncation tail is {tail:.1%} of psi; increase truncation_k"
        )
    return PoissonReport(
        eval_points=pts,
        psi=psi,
        psi_se=psi_se,
        residual=residual,
        residual_se=residual_se,
        tail_fraction=tail,
        warnings=warnings,
    )
