from dataclasses import replace

import numpy as np
import pytest

from langevin_kit.core import ForceModel
from langevin_kit.potentials import quadratic_potential


def counting_force(rows):
    """The unit quadratic well; ``calls[0]`` counts its evaluations on
    batches of ``rows`` points."""
    force = quadratic_potential()
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
    return quadratic_potential()
