"""Closed-form test profiles with exact partial derivatives.

Used as numeric oracles for the symbolic engine: every profile knows its
mixed partials analytically, so eval_numeric results can be checked
against finite differences and order-reconstruction sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .sscalc import MissingBinding, ProfileRef


@dataclass(frozen=True)
class ExpProfile:
    """c * exp(a R + b Z); d_R^m d_Z^n multiplies by a^m b^n."""

    a: float
    b: float
    c: float = 1.0

    def deriv(self, m: int, n: int, R: float, Z: float) -> float:
        return self.c * self.a ** m * self.b ** n * math.exp(self.a * R + self.b * Z)


class ProfileBindings:
    """Maps (field, series_index) -> profile; callable on ProfileRef."""

    def __init__(self, profiles: dict):
        self._profiles = dict(profiles)

    def __call__(self, ref: ProfileRef, R: float, Z: float) -> float:
        key = (ref.field, ref.series_index)
        try:
            p = self._profiles[key]
        except KeyError:
            raise MissingBinding(f"no evaluator for {ref}") from None
        return p.deriv(ref.dR, ref.dZ, R, Z)

    @staticmethod
    def constant(value: float = 1.0, fields=("U", "Omega", "Psi"), kmax: int = 0):
        class _Const:
            def __init__(self, v):
                self.v = v

            def deriv(self, m, n, R, Z):
                return self.v if m == n == 0 else 0.0

        return ProfileBindings(
            {(f, k): _Const(value) for f in fields for k in range(kmax + 1)}
        )


def random_bindings(rng: np.random.Generator, kmax: int = 0,
                    scale: float = 0.6) -> ProfileBindings:
    """Smooth random exp-profiles for every field and series index <= kmax.

    Exponent rates are kept moderate so finite-difference comparisons stay
    well-conditioned.
    """
    profiles = {}
    for f in ("U", "Omega", "Psi"):
        for k in range(kmax + 1):
            a, b = rng.uniform(-scale, scale, size=2)
            c = rng.uniform(0.3, 1.5) * rng.choice([-1.0, 1.0])
            profiles[(f, k)] = ExpProfile(a, b, c)
    return ProfileBindings(profiles)
