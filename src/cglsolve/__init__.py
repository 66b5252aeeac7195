"""Exponential-type integrators for complex Ginzburg-Landau equations.

``__all__`` is the public interface; the README describes the method and
how the modules fit.
"""

__version__ = "0.1.0"

from .params import CglParameters
from .flows import NonlinearSpec, DivergenceError
from .spectral import FourierGrid
from .operators import (KroneckerOperator, FourierOperator,
                        build_fd_operator, build_periodic_operator)
from .integrators import SCHEMES, Problem, IntegrationResult, integrate
from .experiments import (ExperimentConfig, available_presets, make_preset,
                          run_convergence_study, run_preset)

__all__ = [
    "__version__", "CglParameters", "NonlinearSpec", "DivergenceError",
    "FourierGrid", "KroneckerOperator", "FourierOperator",
    "build_fd_operator", "build_periodic_operator", "SCHEMES", "Problem",
    "IntegrationResult", "integrate", "ExperimentConfig",
    "available_presets", "make_preset", "run_convergence_study",
    "run_preset",
]
