"""Model coefficients for the complex Ginzburg-Landau family.

The evolution reads

    d/dt u = alpha0 * d/dx1 u + (alpha1 + i beta1) Lap u + alpha2 u
             + (alpha3 + i beta3) |u|^2 u + (alpha4 + i beta4) |u|^4 u
             + alpha5 |v|^2 u

where the advection (alpha0, opposite sign per component) and cross-coupling
(alpha5) terms only act in the two-component system.
"""

from dataclasses import dataclass, fields


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
            if (not isinstance(v, (int, float)) or isinstance(v, bool)
                    or v != v or abs(v) == float("inf")):
                raise ValueError(f"parameter {f.name} must be a finite real")
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
