"""Exponential-type integrators for complex Ginzburg-Landau equations.

Semidiscretizations come in two flavors: fourth-order finite differences,
whose linear part is a Kronecker sum advanced by per-direction small matrix
exponentials (Tucker products), and Fourier pseudospectral grids, whose
linear part is diagonal in coefficient space. Time integrators cover
classical explicit Runge-Kutta, Strang and fourth-order splitting with
exact or RK4-approximated nonlinear flows, and Lawson (integrating factor)
schemes of orders two and four.
"""

__version__ = "0.1.0"

from .params import CglParameters
from .flows import NonlinearSpec, DivergenceError
from .spectral import FourierGrid
from .operators import (KroneckerOperator, FourierOperator, BlockOperator,
                        build_fd_operator, build_periodic_operator)
from .integrators import SCHEMES, Problem, IntegrationResult, integrate
from .experiments import (ExperimentConfig, available_presets, make_preset,
                          run_convergence_study, run_preset)

__all__ = [
    "__version__", "CglParameters", "NonlinearSpec", "DivergenceError",
    "FourierGrid", "KroneckerOperator", "FourierOperator", "BlockOperator",
    "build_fd_operator", "build_periodic_operator", "SCHEMES", "Problem",
    "IntegrationResult", "integrate", "ExperimentConfig",
    "available_presets", "make_preset", "run_convergence_study",
    "run_preset",
]
