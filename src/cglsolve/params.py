"""Model coefficients for the complex Ginzburg-Landau family.

The evolution reads

    d/dt u = alpha0 * d/dx1 u + (alpha1 + i beta1) Lap u + alpha2 u
             + (alpha3 + i beta3) |u|^2 u + (alpha4 + i beta4) |u|^4 u
             + alpha5 |v|^2 u

where the advection (alpha0, opposite sign per component) and cross-coupling
(alpha5) terms only act in the two-component system. Each coefficient
must be a finite real, not a bool (else ValueError), and is stored as a
Python float.
"""

import math
import numbers
from dataclasses import dataclass, fields

_SCALARS = {str: ("a string", str), int: ("an integer", numbers.Integral),
            float: ("a finite real", numbers.Real)}


def _check_scalar(name, value, kind):
    """ValueError unless value is a str, an int or a finite real (float),
    never a bool: the library's rule for scalars from outside."""
    what, cls = _SCALARS[kind]
    try:
        ok = (isinstance(value, cls) and not isinstance(value, bool)
              and (kind is not float or math.isfinite(value)))
    except OverflowError:  # an integer beyond the float range
        ok = False
    if not ok:
        raise ValueError(f"{name} must be {what}, got {value!r}")


@dataclass(frozen=True)
class CglParameters:
    alpha1: float
    beta1: float = 0.0
    alpha2: float = 0.0
    alpha3: float = 0.0
    beta3: float = 0.0
    alpha4: float = 0.0
    beta4: float = 0.0
    alpha0: float = 0.0
    alpha5: float = 0.0

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            _check_scalar(f"parameter {f.name}", v, float)
            object.__setattr__(self, f.name, float(v))
        if self.alpha1 <= 0.0:
            raise ValueError("alpha1 must be positive (parabolic diffusion)")

    @property
    def diffusion(self):
        return complex(self.alpha1, self.beta1)

    @property
    def cubic(self):
        return complex(self.alpha3, self.beta3)

    @property
    def quintic(self):
        return complex(self.alpha4, self.beta4)
