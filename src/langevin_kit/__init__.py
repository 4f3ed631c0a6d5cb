"""Discretizations of kinetic Langevin dynamics.

The package is organized around one idea: every common one-step integrator
of the kinetic Langevin equation (Euler-Maruyama, the position/velocity
splittings, the exact-OU exponential integrator, stochastic-gradient
variants) embeds into a single general recursion whose drift corrections are
Lipschitz and whose noise enters through explicit Gaussian aggregates. The
modules follow that structure:

- ``core``: the general recursion, force models, chain simulation.
- ``potentials``: the built-in force fields (quadratic, quartic well, flat tail).
- ``schemes``: the named integrators, their embeddings, assumption checks.
- ``gaussian``: closed-form noise aggregates, covariances, projectors.
- ``lyapunov``: energy functions, drift-structure checks, contraction probes.
- ``stability``: coupled-trajectory displacement constants and checks.
- ``convergence``: minorization, TV-rate, weak-order and Poisson probes.
- ``cli``: the ``langevin-kit`` experiment runner.
"""

from importlib import metadata

from .core import (
    ContractViolation,
    DivergedError,
    ForceModel,
    GeneralScheme,
    NoiseDraw,
    NoiseSpec,
    State,
    TrajectoryConfig,
    TrajectoryRecord,
    aggregate_closed_form,
    full_noise_step,
    general_step,
    simulate_chain,
    step_ensemble,
    validate_d1,
)
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

try:
    __version__ = metadata.version("langevin-kit")
except metadata.PackageNotFoundError:  # running from a source tree
    __version__ = "0.0.0+unpackaged"

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
    "TrajectoryRecord",
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
