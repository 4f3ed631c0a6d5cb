from dataclasses import replace

import numpy as np
import pytest

from langevin_kit.core import ForceModel


def quadratic_force(curvature: float = 1.0) -> ForceModel:
    """Harmonic well U(x) = curvature * |x|^2 / 2 with exact metadata."""
    a = float(curvature)
    return ForceModel(
        b=lambda x: -a * x,
        lipschitz=a,
        potential=lambda x: 0.5 * a * np.sum(np.square(x), axis=-1),
        grad_potential=lambda x: a * x,
        label="quadratic",
    )


def free_force() -> ForceModel:
    return ForceModel(
        b=lambda x: np.zeros_like(x),
        lipschitz=0.0,
        potential=lambda x: np.zeros(np.shape(x)[:-1]),
        grad_potential=lambda x: np.zeros_like(x),
        label="free",
    )


def counting_force(rows):
    """The unit quadratic well; ``calls[0]`` counts its evaluations on
    batches of ``rows`` points."""
    force = quadratic_force()
    calls = [0]

    def b(x):
        calls[0] += np.shape(x)[0] == rows
        return force.b(x)

    return replace(force, b=b), calls


def split_corrections(monkeypatch, module):
    """Build ``module``'s schemes with a corrections that calls f and g
    separately, each evaluating the original corrections once: the two-call
    reference for a probe that reads f and g from one call."""
    build = module.as_general_scheme

    def two_calls(kind, params):
        scheme = build(kind, params)
        return replace(scheme, corrections=lambda *a: (scheme.f(*a), scheme.g(*a)))

    monkeypatch.setattr(module, "as_general_scheme", two_calls)


@pytest.fixture
def quadratic() -> ForceModel:
    return quadratic_force()
