"""General one-step map for discretized kinetic Langevin dynamics.

The continuous dynamics are dX = V dt, dV = (b(X) - kappa V) dt + sigma dB.
A discretization with timestep gamma is encoded by

    X' = x + gamma v + gamma f(x, gamma v, gamma^(3/2) sigma_g z, w)
         + gamma^(3/2) sigma_g d_scalar z,
    V' = tau v + gamma g(x, gamma v, gamma^(3/2) sigma_g z, w)
         + sqrt(gamma) sigma_g z,

with z a standard d-dimensional Gaussian and w = (w1, w2) auxiliary noise
(w1 Gaussian from higher-order time integration, w2 stochastic-gradient
input). This is the general form of Durmus, Enfroy, Moulines and Stoltz
(arXiv 2107.14542) at exponent delta = 1 and position-noise matrix
D = d_scalar I. The paper allows any delta and any matrix D; no scheme here
uses either, so neither is represented. The drift corrections f and g
always receive the already-scaled velocity and noise arguments. A scheme
supplies them jointly, as one function returning (f, g), so that a step
evaluates the force b once for each distinct point it needs (once per step
for every built-in scheme).

All step functions are vectorized: positions and velocities may carry leading
batch axes (ensemble, d), and the force field must broadcast accordingly.
The module holds the recursion only: ``convergence.simulate_chain`` and the
convergence probes run ensembles through time on one shared loop there.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .gaussian import weight_vectors

__all__ = [
    "DIVERGENCE_LIMIT",
    "ContractViolation",
    "DivergedError",
    "State",
    "ForceModel",
    "NoiseDraw",
    "NoiseSpec",
    "GeneralScheme",
    "general_step",
    "step_ensemble",
    "full_noise_step",
    "aggregate_closed_form",
    "validate_d1",
    "row_dot",
]

DIVERGENCE_LIMIT = 1e12

_A1_SLACK = 1e-9
# Absolute tolerance of validate_d1's checks (relative for b = -grad U).
_D1_TOL = 1e-9


class ContractViolation(ValueError):
    """An argument violates a documented precondition."""


class DivergedError(FloatingPointError):
    """A state component left the admissible range during stepping.

    ``ensemble`` is the index of the diverged ensemble when several are
    stepped together on one noise stream, and ``start`` describes the state
    the diverged step left from.
    """

    def __init__(
        self,
        component: str,
        step: int | None = None,
        ensemble: int | None = None,
        start: str | None = None,
    ):
        self.component = component
        self.step = step
        self.ensemble = ensemble
        where = f" at step {step}" if step is not None else ""
        if start is not None:
            where += f" from {start}"
        super().__init__(
            f"|{component}| exceeded {DIVERGENCE_LIMIT:g} or became non-finite{where}"
        )


def row_dot(a, b) -> np.ndarray:
    """Inner product over the last axis, batched over leading axes.

    Equals np.sum(a * b, axis=-1) bit for bit when the last axis has length 1
    or 2 and to rounding otherwise, without the per-row reduction loop that
    makes the np.sum form slow on tall, narrow (n, d) arrays.

    For length 1 or 2 the columns of p = a * b are added directly,
    ``p[..., 0] + 0.0`` or ``(p[..., 0] + p[..., 1]) + 0.0``, which is several
    times faster than einsum on tall arrays. The ``+ 0.0`` stands for the
    +0.0 that einsum and np.sum start their sums from, so a sum of -0.0 terms
    comes out as +0.0 as it does from them. Longer rows go through einsum:
    a column-by-column sum would not reproduce its summation order.
    """
    d = np.shape(a)[-1:]
    if d == np.shape(b)[-1:] and d in ((1,), (2,)):
        p = np.multiply(a, b)
        if d == (1,):
            return p[..., 0] + 0.0
        s = p[..., 0] + p[..., 1]
        s += 0.0
        return s
    return np.einsum("...i,...i->...", a, b)


def _as_vector(a, name: str) -> np.ndarray:
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise ContractViolation(f"{name} must be a nonempty 1-D array, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ContractViolation(f"{name} must be finite")
    return arr


@dataclass(frozen=True)
class State:
    """Position and velocity in R^d."""

    x: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        x = _as_vector(self.x, "x")
        v = _as_vector(self.v, "v")
        if x.shape != v.shape:
            raise ContractViolation(f"x and v must share a shape, got {x.shape} vs {v.shape}")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "v", v)

    @property
    def d(self) -> int:
        return self.x.shape[0]


@dataclass(frozen=True)
class ForceModel:
    """Force field b, optionally of gradient type b = -grad U.

    :param b: vectorized force, maps arrays of shape (..., d) to (..., d).
    :param lipschitz: declared Lipschitz constant of b (of grad U when present).
    :param potential: optional U, maps (..., d) to (...), with U >= 0, U(0) = 0.
    :param grad_potential: optional grad U; when given, b should equal -grad U.
    """

    b: Callable[[np.ndarray], np.ndarray]
    lipschitz: float
    potential: Callable[[np.ndarray], np.ndarray] | None = None
    grad_potential: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        if self.lipschitz < 0:
            raise ContractViolation("lipschitz must be nonnegative")


def validate_d1(force: ForceModel, points: np.ndarray) -> None:
    """Check the gradient-type conditions at the origin and on sample points.

    Requires U(0) = 0, grad U(0) = 0, U >= 0 at every row of ``points``, and
    b = -grad U there. Raises ContractViolation on the first failure.
    """
    if force.potential is None or force.grad_potential is None:
        raise ContractViolation("force model does not carry a potential and its gradient")
    d = points.shape[-1]
    origin = np.zeros(d)
    if abs(float(force.potential(origin))) > _D1_TOL:
        raise ContractViolation("U(0) must vanish")
    if np.max(np.abs(force.grad_potential(origin))) > _D1_TOL:
        raise ContractViolation("grad U(0) must vanish")
    u = force.potential(points)
    if np.min(u) < -_D1_TOL:
        raise ContractViolation("U must be nonnegative on the sampled points")
    gap = np.max(np.abs(force.b(points) + force.grad_potential(points)))
    if gap > _D1_TOL * (1.0 + np.max(np.abs(force.grad_potential(points)))):
        raise ContractViolation("b must equal -grad U on the sampled points")


@dataclass(frozen=True)
class NoiseDraw:
    """One step of driving noise: Gaussian z plus auxiliary (w1, w2)."""

    z: np.ndarray
    w1: np.ndarray = field(default_factory=lambda: np.empty(0))
    w2: np.ndarray = field(default_factory=lambda: np.empty(0))

    def __post_init__(self):
        object.__setattr__(self, "z", np.asarray(self.z, dtype=np.float64))
        object.__setattr__(self, "w1", np.asarray(self.w1, dtype=np.float64))
        object.__setattr__(self, "w2", np.asarray(self.w2, dtype=np.float64))


@dataclass(frozen=True)
class NoiseSpec:
    """Shape of the auxiliary noise consumed per step.

    ``m1`` and ``m2`` are widths of the Gaussian auxiliary block w1 and the
    gradient-noise block w2; the string "d" means "the state dimension",
    resolved when a state is seen. ``w2_transform`` maps standard-normal base
    draws of width m2 to the distribution the scheme expects (for example a
    scale for Gaussian gradient noise); identity when omitted. It acts row by
    row, so callers may apply it to any block of rows (the drift estimator
    applies it one tile at a time).
    """

    m1: int | str = 0
    m2: int | str = 0
    w2_transform: Callable[[np.ndarray], np.ndarray] | None = None

    def dims(self, d: int) -> tuple[int, int]:
        m1 = d if self.m1 == "d" else int(self.m1)
        m2 = d if self.m2 == "d" else int(self.m2)
        return m1, m2

    def check(self, noise: NoiseDraw, d: int) -> None:
        """ContractViolation unless z, w1 and w2 have widths d, m1 and m2."""
        m1, m2 = self.dims(d)
        for name, arr, width in (("z", noise.z, d), ("w1", noise.w1, m1), ("w2", noise.w2, m2)):
            if arr.shape[-1] != width:
                raise ContractViolation(f"{name} must have width {width}, got {arr.shape[-1]}")

    def width(self, d: int) -> int:
        m1, m2 = self.dims(d)
        return d + m1 + m2

    def split(self, block: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        m1, _ = self.dims(d)
        z = block[..., :d]
        w1 = block[..., d : d + m1]
        w2 = block[..., d + m1 :]
        if self.w2_transform is not None and w2.shape[-1]:
            w2 = self.w2_transform(w2)
        return z, w1, w2


@dataclass(frozen=True)
class GeneralScheme:
    """Coefficients and drift corrections of one discretization at fixed gamma.

    The one-step map (see the module docstring) is

        X' = x + gamma v + gamma f + gamma^(3/2) sigma_gamma d_scalar z,
        V' = tau v + gamma g + sqrt(gamma) sigma_gamma z,

    the paper's general form at delta = 1 and D = d_scalar I; its general
    delta and matrix D are used by no scheme here.

    ``corrections(x, v_scaled, z_scaled, w1, w2)`` returns the pair (f, g) of
    drift corrections, evaluated jointly so that a force value both of them
    need is computed once; f is None when it vanishes identically. Its
    arguments are the already-scaled velocity gamma * v and noise
    gamma^(3/2) * sigma_gamma * Z, and it must broadcast over leading
    axes. ``f`` and ``g`` are the two components as separate functions with
    the same signature (f returning zeros where it vanishes); they are
    derived from ``corrections`` when not given, and the step functions never
    call them.

    The remaining fields record the consistency metadata of the family the
    scheme was drawn from: tau must stay within c_kappa * gamma^2 of
    exp(-kappa gamma), sigma_gamma below sigma, |d_scalar| below d_bound,
    and gamma within (0, gamma_bar]. ``a2_constant`` is a Lipschitz
    constant L of the corrections at this gamma: both
    |f(a) - f(a')| and |g(a) - g(a')| are at most
    L (|(x, v) - (x', v')| + |z - z'|) in the scaled slots. ``vartheta`` is
    the v-prefactor of f in the scaled slots and ``vartheta_bar`` a bound on
    |vartheta| uniform over the family's gammas.
    """

    gamma: float
    tau: float
    sigma_gamma: float
    d_scalar: float
    corrections: Callable[..., tuple[np.ndarray | None, np.ndarray]]
    noise_spec: NoiseSpec
    kappa: float
    sigma: float
    c_kappa: float
    d_bound: float
    gamma_bar: float
    a2_constant: float
    vartheta_bar: float
    vartheta: float
    force: ForceModel
    f: Callable[..., np.ndarray] | None = None
    g: Callable[..., np.ndarray] | None = None

    def __post_init__(self):
        corrections = self.corrections
        if self.f is None:

            def f(x, vs, zs, w1, w2):
                fx = corrections(x, vs, zs, w1, w2)[0]
                return np.zeros_like(x) if fx is None else fx

            object.__setattr__(self, "f", f)
        if self.g is None:

            def g(x, vs, zs, w1, w2):
                return corrections(x, vs, zs, w1, w2)[1]

            object.__setattr__(self, "g", g)
        if not (self.gamma > 0 and self.gamma <= self.gamma_bar * (1 + _A1_SLACK)):
            raise ContractViolation(
                f"gamma must lie in (0, {self.gamma_bar:g}], got {self.gamma:g}"
            )
        if not (0.0 < self.tau < 1.0):
            raise ContractViolation(f"tau must lie in (0, 1), got {self.tau:g}")
        coefficients = (self.sigma_gamma, self.d_scalar, self.c_kappa, self.vartheta,
                        self.a2_constant)
        if not all(math.isfinite(c) for c in coefficients):
            raise ContractViolation(
                "sigma_gamma, d_scalar, c_kappa, vartheta and a2_constant must be finite"
            )
        drift = abs(self.tau - math.exp(-self.kappa * self.gamma))
        if drift > self.c_kappa * self.gamma**2 + _A1_SLACK:
            raise ContractViolation(
                f"|tau - exp(-kappa gamma)| = {drift:g} exceeds c_kappa gamma^2"
            )
        if self.sigma_gamma > self.sigma * (1 + _A1_SLACK):
            raise ContractViolation("sigma_gamma exceeds sigma")
        if abs(self.d_scalar) > self.d_bound * (1 + _A1_SLACK) + _A1_SLACK:
            raise ContractViolation("|d_scalar| exceeds d_bound")
        if abs(self.vartheta) > self.vartheta_bar * (1.0 + 1e-9) + 1e-12:
            raise ContractViolation(
                f"|vartheta| = {abs(self.vartheta):g} exceeds vartheta_bar = {self.vartheta_bar:g}"
            )


def _guard(x: np.ndarray, v: np.ndarray, step: int | None) -> None:
    # max/min instead of max(abs(.)): no temporary array. A NaN propagates
    # through both and fails the comparison, as does an infinity.
    for name, arr in (("x", x), ("v", v)):
        if arr.size and not (
            -DIVERGENCE_LIMIT <= float(arr.min()) and float(arr.max()) <= DIVERGENCE_LIMIT
        ):
            raise DivergedError(name, step)


def _advance(scheme: GeneralScheme, x, v, noise, scale, v_scale, w1, w2, step):
    """The recursion with position noise ``scale * d_scalar * noise``, scaled
    noise slot ``scale * noise`` and velocity noise ``v_scale * noise``.

    Structural zeros cost nothing: a vanishing f or d_scalar adds no term.
    """
    g_ = scheme.gamma
    vs = g_ * v
    fx, gx = scheme.corrections(x, vs, scale * noise, w1, w2)
    # x + g_ v, in the array that holds g_ v; the sums below run in place
    # in the order of the printed recursion, so the bits do not change.
    x_new = vs
    x_new += x
    if fx is not None:
        x_new += g_ * fx
    if scheme.d_scalar != 0.0:
        x_new += scale * (scheme.d_scalar * noise)
    v_new = scheme.tau * v
    v_new += g_ * gx
    # Made last, so it is not held while the corrections run.
    v_new += v_scale * noise
    _guard(x_new, v_new, step)
    return x_new, v_new


def _step_arrays(scheme: GeneralScheme, x, v, z, w1, w2):
    g_ = scheme.gamma
    scale = g_**1.5 * scheme.sigma_gamma
    v_scale = math.sqrt(g_) * scheme.sigma_gamma
    return _advance(scheme, x, v, z, scale, v_scale, w1, w2, None)


def general_step(scheme: GeneralScheme, state: State, noise: NoiseDraw) -> State:
    """Apply one step of the general recursion to a single state."""
    scheme.noise_spec.check(noise, state.d)
    x, v = _step_arrays(scheme, state.x, state.v, noise.z, noise.w1, noise.w2)
    return State(x, v)


def step_ensemble(
    scheme: GeneralScheme, x: np.ndarray, v: np.ndarray, noise: NoiseDraw
) -> tuple[np.ndarray, np.ndarray]:
    """Apply one step to a batch of states of shape (n, d)."""
    scheme.noise_spec.check(noise, x.shape[-1])
    return _step_arrays(scheme, x, v, noise.z, noise.w1, noise.w2)


def full_noise_step(scheme: GeneralScheme, x, v, z_full, w1, w2, step: int | None = None):
    """One step driven by an explicit full-size velocity noise vector.

    ``z_full`` plays the role of sqrt(gamma) sigma_gamma Z; passing exactly
    that value reproduces ``general_step``. Used by perturbation probes that
    shift the noise rather than the Gaussian seed.
    """
    return _advance(scheme, x, v, z_full, scheme.gamma, 1.0, w1, w2, step)


def aggregate_closed_form(scheme: GeneralScheme, init: State, noises: Sequence[NoiseDraw]) -> State:
    """Closed-form state after len(noises) steps.

    Combines the transition-matrix action on the initial state, the
    noise-weight sums applied to the drift corrections along the path, and
    the Gaussian aggregates of the raw draws. The intermediate states feeding
    the drift terms are obtained by forward iteration with
    ``full_noise_step``; the returned state equals iterating ``general_step``
    up to floating-point reordering.
    """
    if not noises:
        raise ContractViolation("at least one noise draw is required")
    k = len(noises) - 1
    g_ = scheme.gamma
    tau = scheme.tau
    d = init.d
    w = weight_vectors(k, g_, tau)
    g1, g2 = w.g1, w.g2

    x_i, v_i = init.x, init.v
    sum_g = np.zeros(d)
    sum_f = np.zeros(d)
    sum_dz = np.zeros(d)
    sum_gv = np.zeros(d)
    for i, draw in enumerate(noises):
        scheme.noise_spec.check(draw, d)
        z_full = math.sqrt(g_) * scheme.sigma_gamma * draw.z
        f_i, gd_i = scheme.corrections(x_i, g_ * v_i, g_ * z_full, draw.w1, draw.w2)
        if i < k:
            sum_g = sum_g + g1[i] * (g_ * gd_i + z_full)
        sum_gv = sum_gv + g2[i] * (g_ * gd_i + z_full)
        if f_i is not None:
            sum_f = sum_f + f_i
        if scheme.d_scalar != 0.0:
            sum_dz = sum_dz + scheme.d_scalar * z_full
        x_i, v_i = full_noise_step(scheme, x_i, v_i, z_full, draw.w1, draw.w2, step=i + 1)

    x_out = (
        init.x
        + g_ * (1.0 - tau ** (k + 1)) / (1.0 - tau) * init.v
        + sum_g
        + g_ * sum_f
        + g_ * sum_dz
    )
    v_out = tau ** (k + 1) * init.v + sum_gv
    return State(x_out, v_out)


@functools.cache
def _raise_malloc_thresholds() -> None:
    """Let threads reuse freed blocks of up to 16 MiB, for the whole process
    and for good, so only the first call acts.

    glibc's malloc serves a block above its mmap threshold (128 KiB at
    start) by mmap; freeing such a block raises the threshold to its size
    and the trim threshold to twice that (mallopt(3), M_MMAP_THRESHOLD).
    When more than the trim threshold lies free at the top of a thread's
    arena, it goes back to the system, so a task whose step frees more than
    that in temporaries faults their pages in again at the next step.
    Allocating and freeing one untouched 16 MiB array raises both
    thresholds. It costs no pages, but from then on every allocation of the
    process between 128 KiB and 16 MiB, whoever makes it, is served from
    arenas that may each keep up to 32 MiB free. Other allocators ignore it.
    ``convergence._ensemble_path`` calls it before its first step, and
    ``lyapunov.estimate_drift`` before its pool starts: a step of 1e5 chains
    and a drift tile each free more than the default trim threshold.
    """
    np.empty(2**21)
