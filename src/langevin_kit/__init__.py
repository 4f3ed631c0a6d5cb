"""Discretizations of kinetic Langevin dynamics.

The package is organized around one idea: every common one-step integrator
of the kinetic Langevin equation (Euler-Maruyama, the position/velocity
splittings, the exact-OU exponential integrator, stochastic-gradient
variants) embeds into a single general recursion whose drift corrections are
Lipschitz and whose noise enters through explicit Gaussian aggregates. The
modules follow that structure:

- ``core``: the general recursion and force models.
- ``potentials``: the built-in force fields (quadratic, quartic well, flat tail).
- ``schemes``: the named integrators, their embeddings, assumption checks.
- ``gaussian``: closed-form noise aggregates, covariances, projectors.
- ``lyapunov``: energy functions, drift-structure checks, contraction probes.
- ``stability``: coupled-trajectory displacement constants and checks.
- ``convergence``: the ensemble loop, chain simulation, and the minorization,
  TV-rate, weak-order and Poisson probes.
- ``cli``: the ``langevin-kit`` experiment runner.
"""

from .core import (
    ContractViolation,
    DivergedError,
    ForceModel,
    GeneralScheme,
    NoiseDraw,
    NoiseSpec,
    State,
    aggregate_closed_form,
    full_noise_step,
    general_step,
    step_ensemble,
    validate_d1,
)
from .convergence import TrajectoryConfig, simulate_chain
from .schemes import (
    SchemeKind,
    SchemeParams,
    SgEstimator,
    as_general_scheme,
    check_a1_a2,
    gaussian_perturbation_estimator,
    native_step,
    scalar_step_closure,
)

# The one source of the version: pyproject.toml reads it from here.
__version__ = "0.1.0"

__all__ = [
    "__version__",
    "ContractViolation",
    "DivergedError",
    "ForceModel",
    "GeneralScheme",
    "NoiseDraw",
    "NoiseSpec",
    "State",
    "TrajectoryConfig",
    "aggregate_closed_form",
    "full_noise_step",
    "general_step",
    "simulate_chain",
    "step_ensemble",
    "validate_d1",
    "SchemeKind",
    "SchemeParams",
    "SgEstimator",
    "as_general_scheme",
    "check_a1_a2",
    "gaussian_perturbation_estimator",
    "native_step",
    "scalar_step_closure",
]
