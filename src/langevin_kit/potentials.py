"""The built-in force fields.

The drift condition the library probes is proved for confining potentials.
Three fields exercise it: the quadratic well (the exactly solvable
baseline), the quartic well (a gradient that is not globally Lipschitz) and
the flat-tail counterexample, on which the confinement checks must fail.

Each builder raises ContractViolation, with a message that begins with the
argument's name, when a coefficient breaks its precondition.
"""

from __future__ import annotations

import math

import numpy as np

from .core import ContractViolation, ForceModel, row_dot

__all__ = ["quadratic_potential", "quartic_well_potential", "flat_tail_potential"]


def quadratic_potential(curvature: float = 1.0) -> ForceModel:
    """U(x) = curvature |x|^2 / 2; curvature 0 is the free particle."""
    a = float(curvature)
    if not 0.0 <= a < math.inf:
        raise ContractViolation(f"curvature must be finite and nonnegative, got {curvature!r}")
    return ForceModel(
        b=lambda x: -a * x,
        lipschitz=a,
        potential=lambda x: 0.5 * a * row_dot(x, x),
        grad_potential=lambda x: a * x,
    )


def quartic_well_potential(
    quartic: float = 0.25, quadratic: float = 1.0, box_radius: float = 10.0
) -> ForceModel:
    """U(x) = quartic |x|^4 / 4 + quadratic |x|^2 / 2.

    The gradient is not globally Lipschitz; the declared constant is its
    supremum over the ball |x| <= box_radius, which is the honest constant
    for probes confined to that region.
    """
    c4, c2, box_radius = float(quartic), float(quadratic), float(box_radius)
    if not 0.0 < c4 < math.inf:
        raise ContractViolation(f"quartic must be finite and positive, got {quartic!r}")
    if not 0.0 <= c2 < math.inf:
        raise ContractViolation(f"quadratic must be finite and nonnegative, got {quadratic!r}")
    try:
        lipschitz = 3.0 * c4 * box_radius**2 + c2
    except OverflowError:
        lipschitz = math.inf
    if not math.isfinite(lipschitz):
        raise ContractViolation(f"box_radius = {box_radius:g} overflows the Lipschitz constant")

    def grad(x):
        return (c4 * row_dot(x, x)[..., None] + c2) * x

    def potential(x):
        sq = row_dot(x, x)
        return 0.25 * c4 * sq**2 + 0.5 * c2 * sq

    return ForceModel(
        b=lambda x: -grad(x),
        lipschitz=lipschitz,
        potential=potential,
        grad_potential=grad,
    )


def flat_tail_potential(radius: float = 5.0) -> ForceModel:
    """A confining core whose force shuts off beyond 2 * radius.

    U is the quadratic well inside |x| <= radius, then the radial slope ramps
    down as g(r) = r (2R - r)/R (C^1 matching) and vanishes at r = 2R, so the
    potential is constant on the tail. The radial confinement ratio
    <grad U, x> / (|x| + |grad U|^2) is exactly zero at large radius, which is
    what the drift-structure probes are designed to flag.
    """
    big_r = float(radius)
    if not 0.0 < big_r < math.inf:
        raise ContractViolation(f"radius must be finite and positive, got {radius!r}")
    try:
        plateau = 7.0 * big_r**2 / 6.0
    except OverflowError:
        plateau = math.inf
    if not math.isfinite(plateau):
        raise ContractViolation(f"radius = {big_r:g} overflows the plateau 7 radius^2 / 6")

    def slope_over_r(r):
        # U'(r)/r, piecewise: 1 in the core, 2 - r/R on the ramp, 0 outside.
        return np.where(r <= big_r, 1.0, np.where(r <= 2 * big_r, 2.0 - r / big_r, 0.0))

    def grad(x):
        r = np.linalg.norm(x, axis=-1, keepdims=True)
        return slope_over_r(r) * x

    def potential(x):
        r = np.linalg.norm(x, axis=-1)
        core = 0.5 * r**2
        ramp = 0.5 * big_r**2 + r**2 - r**3 / (3 * big_r) - 2 * big_r**2 / 3
        flat = np.full_like(r, plateau)
        return np.where(r <= big_r, core, np.where(r <= 2 * big_r, ramp, flat))

    return ForceModel(
        b=lambda x: -grad(x),
        lipschitz=2.0,
        potential=potential,
        grad_potential=grad,
    )
