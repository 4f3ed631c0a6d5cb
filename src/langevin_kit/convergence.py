"""Ensemble runs and empirical convergence probes for the discretized chains.

Every ensemble run in this module goes through one loop, ``_ensemble_path``:
``simulate_chain`` streams its recorded states from it, and each probe below
consumes its states as they are made. The minorization probe steps the two
ensembles of a pair on one noise stream.

Four experiments drive the probes: a minorization check (pairwise kernel
overlap at a fixed physical horizon, stable in gamma), a geometric-rate fit
from the decay of total variation to a long stationary reference run, a
weak-order probe through stationary moment biases on quadratic wells, and a
truncated-series solver for the one-step Poisson equation. Total variation
between empirical laws is measured on a fixed histogram partition, so every
reported number is an estimate of a partition functional, reproducible from
the declared binning.
"""

from __future__ import annotations

import math
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
    step_ensemble,
)
from .schemes import SchemeKind, SchemeParams, as_general_scheme, scalar_step_closure

__all__ = [
    "TrajectoryConfig",
    "simulate_chain",
    "HistogramSpec",
    "TvEstimate",
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

_REFERENCE_STEPS = 10_000_000
_REFERENCE_BURN_IN = 100_000
# Steps of the reference run held and histogrammed at a time.
_REFERENCE_CHUNK = 1 << 20


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
        if self.bins_per_axis < 2 or self.box <= 0:
            raise ContractViolation("bins_per_axis >= 2 and box > 0 are required")

    def edges(self) -> np.ndarray:
        return np.linspace(-self.box, self.box, self.bins_per_axis + 1)


# The partition of R^2 that fit_geometric_rate measures TV on.
_RATE_BINS = HistogramSpec(bins_per_axis=32, box=6.0)


@dataclass(frozen=True)
class TvEstimate:
    value: float
    std_error: float

    def __post_init__(self):
        if not 0.0 <= self.value <= 2.0 + 1e-12:
            raise ContractViolation("total variation lies in [0, 2]")


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


def _histogram_counts(samples: np.ndarray, bins: HistogramSpec) -> np.ndarray:
    """Flat cell counts of a point set in R^m on the shared partition.

    Each coordinate is clipped to inside the box, so mass outside it counts
    in the boundary cell, and located among the edges by ``searchsorted``;
    the per-axis cells fold row-major into one flat index that ``bincount``
    counts. The counts equal ``np.histogramdd`` of the clipped points,
    raveled. ContractViolation on a non-finite sample: a NaN survives the
    clip and would be counted in some cell.
    """
    samples = np.atleast_2d(np.asarray(samples, dtype=np.float64))
    n, m = samples.shape
    if not np.isfinite(samples).all():
        raise ContractViolation("histogram samples must be finite")
    edges = bins.edges()
    half_cell = bins.box / bins.bins_per_axis
    lo, hi = -bins.box + 0.5 * half_cell, bins.box - 0.5 * half_cell
    flat = np.zeros(n, dtype=np.intp)
    for j in range(m):
        flat *= bins.bins_per_axis
        flat += np.searchsorted(edges, np.clip(samples[:, j], lo, hi), side="right") - 1
    return np.bincount(flat, minlength=bins.bins_per_axis**m).astype(np.float64)


def _tv_from_counts(counts_a, n_a, counts_b, n_b) -> TvEstimate:
    pa = counts_a / n_a
    pb = counts_b / n_b
    value = float(np.sum(np.abs(pa - pb)))
    var = np.sum(pa * (1.0 - pa)) / n_a + np.sum(pb * (1.0 - pb)) / n_b
    return TvEstimate(value=min(value, 2.0), std_error=float(math.sqrt(var)))


def _seed_ints(seed: int, n: int) -> list[int]:
    return [int(s.generate_state(1)[0]) for s in np.random.SeedSequence(seed).spawn(n)]


def _ensemble_path(scheme, ensembles, n_steps, seed):
    """Advance equal-size batches of states n_steps on one noise stream,
    yielding (k, (x, v), ...) with every batch's state after each step
    k = 1..n_steps.

    Each step draws one noise block from the counter-based stream keyed by
    ``seed`` and drives every batch with it, one ``step_ensemble`` call per
    batch. A batch's path is therefore the one it would follow alone with the
    same seed; batches stepped together share their noise, chain by chain
    (the synchronous coupling). This is the library's only loop that steps
    an ensemble; ``simulate_chain`` and every probe in this module run on it.
    A consumer reads each yielded state and must not write into it; one that
    consumes the states as they are made holds a single state per batch at a
    time. A DivergedError carries the step and the index of the batch.
    """
    # A new list, so that no reference to the caller's initial states stays
    # here once they are stepped.
    ensembles = list(ensembles)
    n, d = ensembles[0][0].shape
    spec = scheme.noise_spec
    src = _rng.NoiseSource(seed, n, spec.width(d))
    for step in range(n_steps):
        noise = NoiseDraw(*spec.split(src.block_at(step), d))
        for i in range(len(ensembles)):
            try:
                ensembles[i] = step_ensemble(scheme, *ensembles[i], noise)
            except DivergedError as exc:
                raise DivergedError(exc.component, step + 1, ensemble=i) from None
        yield (step + 1, *ensembles)


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
    for k, (x, v) in _ensemble_path(scheme, [(x, v)], config.n_steps, config.seed):
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

    The two ensembles of a pair share one noise stream, seeded per (gamma,
    pair): chain i of both kernels sees the same Gaussian increments (the
    synchronous coupling). Each kernel's histogram is still that of mc
    i.i.d. chains from its own start, so the TV estimand is unchanged; only
    the joint law of the two histograms differs from independent runs. The
    per-pair ``TvEstimate.std_error`` assumes independent histograms, and the
    probe does not report it.

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
    rng = np.random.default_rng(seed)
    starts = _ball_points(rng, 2 * pairs, 2 * d, m_radius)
    gamma_grid = [float(g) for g in gamma_grid]
    all_seeds = _seed_ints(seed + 1, len(gamma_grid) * pairs)

    results = []
    for gi, gamma in enumerate(gamma_grid):
        scheme = as_general_scheme(kind, replace(params, gamma=gamma))
        n_steps = math.ceil(t0 / gamma) + 1
        pair_seeds = all_seeds[gi * pairs : (gi + 1) * pairs]

        def one_pair(pair, gamma=gamma, scheme=scheme, n_steps=n_steps, seeds=pair_seeds):
            ends = starts[2 * pair : 2 * pair + 2]
            ensembles = [(np.tile(p[:d], (mc, 1)), np.tile(p[d:], (mc, 1))) for p in ends]
            try:
                for _, *ensembles in _ensemble_path(scheme, ensembles, n_steps, seeds[pair]):
                    pass
            except DivergedError as exc:
                raise EstimationError(
                    f"chain diverged at gamma={gamma} from pair {pair} "
                    f"(point {exc.ensemble}, start {ends[exc.ensemble]})"
                ) from exc
            counts_p, counts_q = (_histogram_counts(np.hstack(s), bins) for s in ensembles)
            return _tv_from_counts(counts_p, mc, counts_q, mc).value

        max_tv = max(_parallel_map(one_pair, range(pairs)))
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


def _reference_histogram(kind, params, bins, seed):
    """Histogram of a seed-pinned long single-chain run (the stationary law).

    10^7 recorded steps after 10^5 burn-in, driven by the general step
    specialized to floats (``scalar_step_closure``), so only d = 1 chains are
    supported. Each chunk of ``_REFERENCE_CHUNK`` steps is histogrammed as it
    is made and the counts are summed; they are integers in float64, so the
    sum does not depend on the chunk size.
    """
    step = scalar_step_closure(kind, params)
    width = as_general_scheme(kind, params).noise_spec.width(1)
    total = _REFERENCE_BURN_IN + _REFERENCE_STEPS
    counts = np.zeros(bins.bins_per_axis**2)
    x = v = 0.0
    normals = _rng.chain_normals(seed, total, width)
    for lo in range(0, total, _REFERENCE_CHUNK):
        hi = min(lo + _REFERENCE_CHUNK, total)
        zs = normals[lo:hi, 0].tolist()
        ws = normals[lo:hi, 1].tolist() if width == 2 else [0.0] * (hi - lo)
        xs = np.empty(hi - lo)
        vs = np.empty(hi - lo)
        for i, (z, w) in enumerate(zip(zs, ws)):
            x, v = step(x, v, z, w)
            xs[i] = x
            vs[i] = v
        if not (math.isfinite(x) and abs(x) + abs(v) < 1e12):
            raise DivergedError("x", lo)
        first = max(0, _REFERENCE_BURN_IN - lo)  # the first recorded step in the chunk
        if first < hi - lo:
            counts += _histogram_counts(np.column_stack([xs[first:], vs[first:]]), bins)
    return counts, _REFERENCE_STEPS


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
    stationary reference (one long seed-pinned run) on the declared
    partition. log TV is fitted against physical time over the epochs that
    sit between the saturation regime (TV close to 2) and 3x the Monte-Carlo
    noise floor of the estimator. The decay theorem is stated in a
    weighted norm; the fitted distance is plain TV, its lower bound.
    """
    if horizon <= 0 or mc < 2:
        raise ContractViolation("horizon > 0 and mc >= 2 are required")
    if init.d != 1:
        raise ContractViolation("the stationary reference run supports d = 1 only")
    n_epochs = int(horizon / _EPOCH_DT + 1e-9)
    if n_epochs < 10:
        raise ContractViolation("horizon must span at least 10 recorded epochs")
    gamma = params.gamma
    scheme = as_general_scheme(kind, params)
    ref_seed, ens_seed = _seed_ints(seed, 2)

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
    for k, (x, v) in _ensemble_path(scheme, [(x, v)], max(wanted), ens_seed):
        if k in wanted:
            counts = _histogram_counts(np.hstack([x, v]), _RATE_BINS)
            tv_by_step[k] = _tv_from_counts(counts, mc, ref_counts, n_ref).value
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
    b1 = float(b(np.array([1.0]))[0])
    b2 = float(b(np.array([2.0]))[0])
    if abs(b2 - 2.0 * b1) > 1e-9 * max(1.0, abs(b1)) or b1 > 0:
        raise ContractViolation("stationary moment targets require a quadratic well")
    return -b1


def _time_averages(scheme, observables, d, n_chains, burn_time, keep, seed):
    """Stationary means of observables from per-chain time averages.

    ``n_chains`` chains start at the origin of R^(2d), run ceil(burn_time /
    gamma) burn-in steps and then ``keep`` more; each observable maps the
    (x, v) batch to shape (n_chains,) and is averaged over the kept states of
    every chain. Returns one (mean, standard error) per observable, the error
    treating the chain averages as independent.
    """
    burn = math.ceil(burn_time / scheme.gamma)
    x = np.zeros((n_chains, d))
    v = np.zeros((n_chains, d))
    sums = [np.zeros(n_chains) for _ in observables]
    for k, (x, v) in _ensemble_path(scheme, [(x, v)], burn + keep, seed):
        if k > burn:
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
    for gamma, chain_seed in zip(gamma_pair, _seed_ints(seed, 2)):
        scheme = as_general_scheme(kind, replace(params, gamma=gamma))
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
    """
    if truncation_k < 1 or mc < 2:
        raise ContractViolation("truncation_k >= 1 and mc >= 2 are required")
    pts = np.atleast_2d(np.asarray(eval_points, dtype=np.float64))
    if pts.shape[1] % 2 != 0:
        raise ContractViolation("eval points live in R^(2d)")
    d = pts.shape[1] // 2
    scheme = as_general_scheme(kind, params)
    gamma = params.gamma
    seeds = _seed_ints(seed, 1 + pts.shape[0])

    # Stationary mean of phi for centering, from an independent ensemble.
    n_ref = 512
    keep = max(64, math.ceil(max(mc, 65536) / n_ref))
    ((mu_hat, se_ref),) = _time_averages(scheme, (phi,), d, n_ref, 30.0, keep, seeds[0])

    def one_point(j):
        p = pts[j]
        x = np.tile(p[:d], (mc, 1))
        v = np.tile(p[d:], (mc, 1))
        series_sums = phi(x, v) - mu_hat
        for k, (x, v) in _ensemble_path(scheme, [(x, v)], truncation_k + 1, seeds[1 + j]):
            term = phi(x, v) - mu_hat
            if k <= truncation_k:
                series_sums += term
                last_kept = term
        # The loop ends on the first omitted term, k = truncation_k + 1.
        psi = gamma * float(np.mean(series_sums))
        ens_se = gamma * float(np.std(series_sums, ddof=1) / math.sqrt(mc))
        psi_se = math.sqrt(ens_se**2 + (gamma * (truncation_k + 1) * se_ref) ** 2)
        residual = abs(float(np.mean(term)))
        residual_se = math.sqrt(float(np.std(term, ddof=1) / math.sqrt(mc)) ** 2 + se_ref**2)
        return psi, psi_se, residual, residual_se, gamma * float(np.mean(last_kept))

    rows = np.array(_parallel_map(one_point, range(pts.shape[0])))
    psi, psi_se, residual, residual_se, last_terms = rows.T
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
