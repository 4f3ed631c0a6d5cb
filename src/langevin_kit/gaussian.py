"""Closed-form Gaussian analytics of the discretized dynamics.

Continuous Ornstein-Uhlenbeck covariances, the noise-weight vectors of the
aggregated multi-step recursion, the discrete aggregated covariance, powers of
the deterministic transition matrix, projection coefficients, the orthogonal
projector onto the complement of the aggregate span, and the
independent-increment decomposition of the raw draws.

Indexing convention (documented once here, reused everywhere): display
formulas index vectors 1-based as i = 1..k+1; arrays in this package are
0-based, entry j corresponding to display index i = j+1. Exponents therefore
read k-j instead of k-i+1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "CovarianceTriple",
    "NoiseWeights",
    "ProjectionData",
    "SingularSystemError",
    "sigma_tilde_sq",
    "continuous_covariance",
    "weight_vectors",
    "discrete_covariance",
    "transition_matrix_power",
    "solve_projection_coeffs",
    "build_projector",
    "decompose_noise",
    "covariance_consistency",
    "DET_FLOOR",
    "SERIES_SWITCH",
]

DET_FLOOR = 1e-14
# The direct form of the position entry loses digits to cancellation for
# kappa*t up to about 0.05; the series converges super-geometrically through
# kappa*t = 0.5, so the branch sits where both sides are exact to 1e-14.
SERIES_SWITCH = 0.5


class SingularSystemError(ValueError):
    """The aggregated covariance is degenerate; projection is undefined."""


@dataclass(frozen=True)
class CovarianceTriple:
    """Entries of a 2x2 covariance block: position s1, cross s2, velocity s3."""

    s1: float
    s2: float
    s3: float

    def __post_init__(self):
        if self.s1 < -1e-12 or self.s3 < -1e-12:
            raise ValueError("diagonal covariance entries must be nonnegative")
        if self.s1 * self.s3 - self.s2**2 < -1e-12 * max(1.0, self.s1 * self.s3):
            raise ValueError("covariance triple has negative determinant")

    def det(self) -> float:
        return self.s1 * self.s3 - self.s2**2

    def as_matrix(self) -> np.ndarray:
        return np.array([[self.s1, self.s2], [self.s2, self.s3]])


@dataclass(frozen=True)
class NoiseWeights:
    """Aggregation weights of the raw Gaussian draws after k+1 steps."""

    g1: np.ndarray
    g2: np.ndarray
    k: int
    gamma: float
    tau: float


@dataclass(frozen=True)
class ProjectionData:
    """Projection coefficients and the orthogonal projector they induce.

    ``projector`` is the (k+1)x(k+1) symmetric idempotent matrix annihilating
    both weight vectors; ``selector`` keeps its first k-1 rows, the linear map
    producing the residual draws that are independent of the aggregates.
    """

    alpha: np.ndarray
    beta: np.ndarray
    projector: np.ndarray
    selector: np.ndarray


def _check_kgt(k: int, gamma: float, tau: float) -> None:
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    if gamma <= 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    if tau == 1.0:
        raise ValueError("tau = 1 makes the weight formulas singular")
    if not 0.0 < tau < 1.0:
        raise ValueError(f"tau must lie in (0, 1), got {tau}")


def sigma_tilde_sq(t: float, kappa: float, sigma: float) -> float:
    """Effective squared noise amplitude sigma^2 (1 - e^(-2 kappa t))/(2 kappa t).

    The t = 0 limit sigma^2 is returned exactly (removable singularity).
    """
    if t < 0:
        raise ValueError(f"t must be nonnegative, got {t}")
    if t == 0.0:
        return sigma**2
    return -(sigma**2) * math.expm1(-2.0 * kappa * t) / (2.0 * kappa * t)


def continuous_covariance(t: float, kappa: float, sigma: float) -> CovarianceTriple:
    """Covariance entries of the exact OU increment over a window of length t.

    s1 is the position-position entry, s2 the cross entry, s3 the
    velocity-velocity entry. The position entry evaluates through a series
    branch for kappa*t below ``SERIES_SWITCH`` (the direct form cancels
    catastrophically at small times); the cross and velocity entries are
    evaluated with expm1 and need no branch.
    """
    if t < 0:
        raise ValueError(f"t must be nonnegative, got {t}")
    if t == 0.0:
        return CovarianceTriple(0.0, 0.0, 0.0)
    u = kappa * t
    em = math.expm1(-u)  # e^-u - 1
    s2 = sigma**2 * em**2 / (2.0 * kappa**2)
    s3 = -(sigma**2) * math.expm1(-2.0 * u) / (2.0 * kappa)
    if u < SERIES_SWITCH:
        h = _h_series_eval(u)
    else:
        h = u - (3.0 - 4.0 * math.exp(-u) + math.exp(-2.0 * u)) / 2.0
    s1 = sigma**2 * h / kappa**3
    return CovarianceTriple(s1, s2, s3)


def _h_series_eval(u: float) -> float:
    """Series of h(u) = u - (3 - 4 e^-u + e^-2u)/2 about 0, summed to convergence.

    Coefficient of u^n is (4(-1)^n - (-2)^n)/(2 n!) for n >= 3, i.e.
    u^3/3 - u^4/4 + 7u^5/60 - u^6/24 + ...
    """
    total = 0.0
    sign = -1.0
    pow2 = -8.0
    fact = 6.0
    u_pow = u**3
    n = 3
    while n < 60:
        term = (4.0 * sign - pow2) / (2.0 * fact) * u_pow
        total += term
        if abs(term) < 1e-18 * abs(total):
            break
        n += 1
        sign = -sign
        pow2 *= -2.0
        fact *= n
        u_pow *= u
    return total


def weight_vectors(k: int, gamma: float, tau: float) -> NoiseWeights:
    """Noise-aggregation weight vectors after k+1 steps.

    Display form (1-based i = 1..k+1): g1[i] = gamma (1 - tau^(k-i+1))/(1 - tau),
    g2[i] = tau^(k-i+1). The last entries are g1 = 0, g2 = 1.
    """
    _check_kgt(k, gamma, tau)
    exponents = np.arange(k, -1, -1, dtype=np.float64)
    tau_pow = tau**exponents
    g2 = tau_pow
    g1 = gamma * (1.0 - tau_pow) / (1.0 - tau)
    return NoiseWeights(g1=g1, g2=g2, k=k, gamma=gamma, tau=tau)


def discrete_covariance(k: int, gamma: float, tau: float) -> tuple[CovarianceTriple, bool]:
    """Covariance entries of the aggregated Gaussian pair after k+1 steps.

    Returns (c1, c2, c3) = (gamma |g1|^2, gamma <g1, g2>, gamma |g2|^2) in
    closed form, plus membership of the nondegeneracy set (determinant above
    an absolute floor of 1e-14; k = 0 is degenerate with c = (0, 0, gamma)).
    """
    _check_kgt(k, gamma, tau)
    s_lin = (1.0 - tau ** (k + 1)) / (1.0 - tau)
    s_quad = (1.0 - tau ** (2 * (k + 1))) / (1.0 - tau**2)
    c1 = gamma**3 / (1.0 - tau) ** 2 * ((k + 1) - 2.0 * s_lin + s_quad)
    c2 = gamma**2 / (1.0 - tau) * (s_lin - s_quad)
    c3 = gamma * s_quad
    triple = CovarianceTriple(max(c1, 0.0), c2, c3)
    in_ec = triple.det() > DET_FLOOR
    return triple, in_ec


def transition_matrix_power(k: int, gamma: float, tau: float, d: int) -> np.ndarray:
    """Deterministic part of the (k+1)-step map, as a 2d x 2d matrix."""
    _check_kgt(k, gamma, tau)
    block = np.array(
        [
            [1.0, gamma * (1.0 - tau ** (k + 1)) / (1.0 - tau)],
            [0.0, tau ** (k + 1)],
        ]
    )
    return np.kron(block, np.eye(d))


def solve_projection_coeffs(k: int, gamma: float, tau: float) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients (alpha, beta) projecting each draw onto the aggregates.

    Solves, for every index j, the 2x2 system
    [[c1, c2], [c2, c3]] (alpha_j, beta_j) = (g1_j, g2_j) through the explicit
    inverse alpha_j = (c3 g1_j - c2 g2_j)/det, beta_j = (c1 g2_j - c2 g1_j)/det.
    """
    cov, in_ec = discrete_covariance(k, gamma, tau)
    if not in_ec:
        raise SingularSystemError(
            f"aggregated covariance is degenerate at k={k} (det={cov.det():.3e})"
        )
    w = weight_vectors(k, gamma, tau)
    det = cov.det()
    alpha = (cov.s3 * w.g1 - cov.s2 * w.g2) / det
    beta = (cov.s1 * w.g2 - cov.s2 * w.g1) / det
    return alpha, beta


def build_projector(k: int, gamma: float, tau: float) -> ProjectionData:
    """Orthogonal projector onto the complement of the weight-vector span.

    P = I_(k+1) - gamma beta g2^T - gamma alpha g1^T is symmetric, idempotent,
    annihilates g1 and g2, and has rank k-1. The selector is its first k-1
    rows.
    """
    if k < 2:
        raise ValueError(f"the projector needs k >= 2, got {k}")
    alpha, beta = solve_projection_coeffs(k, gamma, tau)
    w = weight_vectors(k, gamma, tau)
    p = (
        np.eye(k + 1)
        - gamma * np.outer(beta, w.g2)
        - gamma * np.outer(alpha, w.g1)
    )
    return ProjectionData(alpha=alpha, beta=beta, projector=p, selector=p[: k - 1])


def decompose_noise(
    k: int,
    gamma: float,
    tau: float,
    z_draws: np.ndarray,
    d_gamma: float | np.ndarray = 1.0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Split k+1 raw draws into independent residuals and the three aggregates.

    G1 = sqrt(gamma) sum_{i=0}^{k-1} g1[i+1] Z_{i+1} (the last weight is zero),
    G2 = sqrt(gamma) sum over all k+1 draws of g2-weighted Z,
    G3 = sqrt(gamma) D sum of all draws, and
    z_tilde_i = Z_i - sqrt(gamma) beta_i G2 - sqrt(gamma) alpha_i G1 for the
    first k-1 draws. The residuals are uncorrelated with (G1, G2) by
    construction. ``d_gamma`` supplies D (scalar multiple of the identity or a
    (d, d) matrix) for G3.
    """
    z = np.asarray(z_draws, dtype=np.float64)
    if z.ndim == 1:
        z = z[:, None]
    if z.shape[0] != k + 1:
        raise ValueError(f"expected k+1 = {k + 1} draws, got {z.shape[0]}")
    alpha, beta = solve_projection_coeffs(k, gamma, tau)
    w = weight_vectors(k, gamma, tau)
    root = math.sqrt(gamma)
    g1_sum = root * np.einsum("i,id->d", w.g1[:k], z[:k]) if k > 0 else np.zeros(z.shape[1])
    g2_sum = root * np.einsum("i,id->d", w.g2, z)
    total = z.sum(axis=0)
    if np.isscalar(d_gamma):
        g3 = root * float(d_gamma) * total
    else:
        g3 = root * (np.asarray(d_gamma) @ total)
    z_tilde = (
        z[: k - 1]
        - root * np.outer(beta[: k - 1], g2_sum)
        - root * np.outer(alpha[: k - 1], g1_sum)
    )
    return z_tilde, g1_sum, g2_sum, g3


@dataclass(frozen=True)
class ConsistencyRow:
    gamma: float
    k: int
    max_error: float


@dataclass(frozen=True)
class ConsistencyTable:
    """Discrete-vs-continuous covariance errors plus the sandwich check.

    ``rho_c`` is fitted at t0 so that
    (t0/rho_c) diag(t0^2, 1) <= Sigma(t0) <= t0 rho_c diag(t0^2, 1); the two
    reported eigenvalues are the smallest of the difference matrices and are
    nonnegative (up to roundoff) when the sandwich holds.
    """

    t0: float
    rows: list[ConsistencyRow]
    rho_c: float
    upper_min_eig: float
    lower_min_eig: float


def covariance_consistency(
    t0: float, gamma_grid: np.ndarray, kappa: float, sigma: float
) -> ConsistencyTable:
    """Error of the aggregated covariance against the continuous one at time t0.

    For each gamma the aggregate runs floor(t0/gamma)+1 steps with
    tau = e^(-kappa gamma); the row error is max_i |c_i - Sigma_i(t0)/sigma^2|.
    """
    if t0 <= 0:
        raise ValueError("t0 must be positive")
    cont = continuous_covariance(t0, kappa, sigma)
    targets = np.array([cont.s1, cont.s2, cont.s3]) / sigma**2
    rows = []
    for gamma in np.asarray(gamma_grid, dtype=np.float64):
        if not 0.0 < gamma < t0:
            raise ValueError(f"grid gamma {gamma} outside (0, t0)")
        k = int(math.floor(t0 / gamma))
        tau = math.exp(-kappa * gamma)
        cov, _ = discrete_covariance(k, gamma, tau)
        err = float(np.max(np.abs(np.array([cov.s1, cov.s2, cov.s3]) - targets)))
        rows.append(ConsistencyRow(gamma=float(gamma), k=k, max_error=err))

    sig = cont.as_matrix()
    scale = np.diag([1.0 / t0, 1.0])  # D^(-1/2) for D = diag(t0^2, 1)
    core = scale @ sig @ scale / t0
    eigs = np.linalg.eigvalsh(core)
    rho_c = float(max(eigs[-1], 1.0 / eigs[0]))
    d_mat = np.diag([t0**2, 1.0])
    upper = t0 * rho_c * d_mat - sig
    lower = sig - (t0 / rho_c) * d_mat
    return ConsistencyTable(
        t0=t0,
        rows=rows,
        rho_c=rho_c,
        upper_min_eig=float(np.linalg.eigvalsh(upper)[0]),
        lower_min_eig=float(np.linalg.eigvalsh(lower)[0]),
    )
