"""Computational verification of the profile-triviality arguments.

Covers the characteristics/homogeneity classification of the transport
equations, the cutoff integration-by-parts identity and the harmonic
stream-function endgame; `cylsim.track_blowup` classifies the
self-similar window.
Everything here is a numerical diagnostic, not a proof.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .elliptic import KroneckerSolver
from .gridio import diff1, diff2, trapezoid_2d

SCHEMA = "rigidity/1"


class BoundaryViolation(ValueError):
    """d_Z Psi does not vanish on the R = 0 boundary within tolerance."""


# ---------------------------------------------------------------------------
# grids


@dataclass(frozen=True)
class HalfPlaneGrid:
    """Uniform truncation of the left half-plane {R <= 0}: R runs from
    R_min to the boundary R = 0, which is always the grid's last column."""

    R_min: float = -40.0
    Z_min: float = -40.0
    Z_max: float = 40.0
    nR: int = 401
    nZ: int = 801

    def __post_init__(self):
        if not (self.R_min < 0.0):
            raise ValueError("need R_min < 0")
        if not (self.Z_min < self.Z_max):
            raise ValueError("need Z_min < Z_max")
        if self.nR < 3 or self.nZ < 3:
            raise ValueError("need at least 3 points per axis")

    @property
    def hR(self) -> float:
        return -self.R_min / (self.nR - 1)

    @property
    def hZ(self) -> float:
        return (self.Z_max - self.Z_min) / (self.nZ - 1)

    def axes(self):
        return (
            np.linspace(self.R_min, 0.0, self.nR),
            np.linspace(self.Z_min, self.Z_max, self.nZ),
        )

    def mesh(self):
        R, Z = self.axes()
        return np.meshgrid(R, Z, indexing="ij")


# ---------------------------------------------------------------------------
# homogeneity / triviality classification


def _coefficient(gamma, k: int, field: str):
    """Transport coefficient c of the index-k profile: 1 - gamma/2 - k gamma
    (U) or 1 - k gamma (Omega), exact for a Fraction gamma."""
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    if field == "U":
        return 1 - gamma / 2 - k * gamma
    if field == "Omega":
        return 1 - k * gamma
    raise ValueError(f"no transport coefficient for field {field!r}")


@dataclass(frozen=True)
class TrivialityVerdict:
    case: str  # "nonzero_coefficient" | "zero_coefficient_ray_constant"
    degree: float
    coefficient: float
    conclusion: str  # "trivial_under_decay" | "inconclusive"
    field: str = ""
    k: int = 0
    gamma: float = 0.0

    def to_json(self) -> dict:
        return {"schema": SCHEMA, **asdict(self)}


def classify_triviality(gamma, k: int, field: str,
                        decay_at_infinity: bool = True) -> TrivialityVerdict:
    """Ray classification of c F + gamma Y.grad F = 0 on the half-plane.

    Nonzero c: homogeneous nontrivial solutions blow up along rays either
    at infinity (d > 0) or at the origin (d < 0), so decay plus
    continuity forces F = 0.  Zero c: F is constant along rays and decay
    forces F = 0.  Without the decay hypothesis nothing follows.

    c is zero exactly for a rational gamma and within 1e-12 for a float
    one.  Raises ValueError when c or d has no finite float.
    """
    exact = not isinstance(gamma, float)
    g = Fraction(gamma) if exact else gamma
    c = _coefficient(g, k, field)
    d = -c / g
    try:
        c_f, d_f = float(c), float(d)
    except OverflowError:  # an exact c or d beyond the float range
        c_f = d_f = math.inf
    if not (math.isfinite(c_f) and math.isfinite(d_f)):
        raise ValueError(f"gamma={gamma}, k={k}: the coefficient or the "
                         "degree is not a finite float")
    czero = c == 0 if exact else abs(c) < 1e-12
    case = "zero_coefficient_ray_constant" if czero else "nonzero_coefficient"
    conclusion = "trivial_under_decay" if decay_at_infinity else "inconclusive"
    return TrivialityVerdict(case, d_f, c_f, conclusion, field, k, float(g))


# ---------------------------------------------------------------------------
# cutoff and integration by parts


def smooth_cutoff(t: np.ndarray) -> np.ndarray:
    """Quintic-smoothstep cutoff: 1 on [0,1], 0 on [2,inf), C^2 across."""
    t = np.asarray(t, dtype=float)
    s = np.clip(t - 1.0, 0.0, 1.0)
    return 1.0 - s ** 3 * (10.0 - 15.0 * s + 6.0 * s ** 2)


def smooth_cutoff_deriv(t: np.ndarray) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    s = t - 1.0
    inside = (s > 0.0) & (s < 1.0)
    s = np.clip(s, 0.0, 1.0)
    return np.where(inside, -30.0 * s ** 2 * (1.0 - s) ** 2, 0.0)


@dataclass(frozen=True)
class IbpResult:
    lhs: float
    rhs: float
    boundary_term: float
    cutoff_term: float
    transport_term: float

    def to_json(self) -> dict:
        return {"schema": SCHEMA, **asdict(self)}


def ibp_identity_check(grid: HalfPlaneGrid, U: np.ndarray, dU, dPsi,
                       gamma: float, p: int = 2, rho: float = 10.0,
                       bc_tol: float = 1e-8) -> IbpResult:
    """Cutoff integration-by-parts identity on the half-plane.

    With b = gamma Y + perp-grad Psi and sigma_rho the scaled cutoff,

        2 gamma int U^p sigma_rho
            = - int U^p grad sigma_rho . b  -  int sigma_rho b . grad U^p
              + boundary flux at R = 0,

    which is the divergence theorem for U^p sigma_rho b; the transport
    integral drops exactly when U solves b . grad U = 0, recovering the
    two-sided display used in the triviality proof.  Returns lhs, rhs
    (sum of the two volume integrals) and the R = 0 boundary flux, which
    is zero when d_Z Psi vanishes there.

    U holds the values on grid.mesh(); dU and dPsi are the (d/dR, d/dZ)
    array pairs of U and Psi on the same mesh.  Psi itself enters only
    through its gradient.
    """
    if p < 2 or p % 2:
        raise ValueError("p must be a positive even integer")
    hR, hZ = grid.hR, grid.hZ
    R, Z = grid.mesh()
    rad = np.hypot(R, Z)

    psi_R, psi_Z = dPsi
    bc_resid = float(np.max(np.abs(psi_Z[-1, :])))
    if bc_resid > bc_tol:
        raise BoundaryViolation(
            f"max |d_Z Psi| on R=0 column is {bc_resid:.3e} > {bc_tol:.3e}")

    U_R, U_Z = dU

    sigma = smooth_cutoff(rad / rho)
    with np.errstate(invalid="ignore", divide="ignore"):
        sfac = smooth_cutoff_deriv(rad / rho) / (rho * rad)
    sfac = np.nan_to_num(sfac, nan=0.0, posinf=0.0, neginf=0.0)
    dsig_R = sfac * R
    dsig_Z = sfac * Z
    # every array here is a full grid (2.6 MB on the default one); dropping
    # each once no term needs it keeps about 15 alive at the peak, the
    # caller's five included, instead of 18
    del rad, sfac

    bR = gamma * R - psi_Z
    bZ = gamma * Z + psi_R
    Up = U ** p

    lhs = 2.0 * gamma * trapezoid_2d(Up * sigma, hR, hZ)
    cutoff_term = -trapezoid_2d(Up * (dsig_R * bR + dsig_Z * bZ), hR, hZ)
    del dsig_R, dsig_Z
    gradUp_R = p * U ** (p - 1) * U_R
    gradUp_Z = p * U ** (p - 1) * U_Z
    transport_term = trapezoid_2d(sigma * (bR * gradUp_R + bZ * gradUp_Z), hR, hZ)
    rhs = cutoff_term - transport_term

    # outward normal (1, 0) on the R = 0 column; gamma*R vanishes there
    flux = (Up[-1, :] * sigma[-1, :] * (gamma * R[-1, :] - psi_Z[-1, :]))
    boundary = float(np.trapezoid(flux, dx=hZ))
    return IbpResult(float(lhs), float(rhs), boundary,
                     float(cutoff_term), float(-transport_term))


# ---------------------------------------------------------------------------
# harmonic stream-function endgame


@dataclass(frozen=True)
class PsiEndgameReport:
    a: float
    b: float
    fit_residual: float
    bc_residual: float
    solver_residual: float
    dZ_interior: tuple = ()  # ((half_width, max |d_Z Psi| in the core), ...)

    def to_json(self) -> dict:
        return {"schema": SCHEMA, **asdict(self)}


def _laplace_solve(grid: HalfPlaneGrid, boundary: Callable) -> np.ndarray:
    """Dirichlet Laplace solve on the truncated half-plane: the boundary
    values are lifted into the right-hand side of -Delta on the interior.
    `boundary` is evaluated on the four edges only."""
    hR, hZ = grid.hR, grid.hZ
    r, z = grid.axes()
    psi = np.empty((grid.nR, grid.nZ))
    # the R = R_min and R = 0 rows, then the Z = Z_min and Z = Z_max
    # columns between them; the solve fills the interior
    psi[[0, -1]] = boundary(*np.meshgrid(r[[0, -1]], z, indexing="ij"))
    psi[1:-1, [0, -1]] = boundary(*np.meshgrid(r[1:-1], z[[0, -1]],
                                               indexing="ij"))

    rhs = np.zeros((grid.nR - 2, grid.nZ - 2))
    rhs[0, :] += psi[0, 1:-1] / hR ** 2
    rhs[-1, :] += psi[-1, 1:-1] / hR ** 2
    rhs[:, 0] += psi[1:-1, 0] / hZ ** 2
    rhs[:, -1] += psi[1:-1, -1] / hZ ** 2
    off = np.full(grid.nR - 3, -1.0 / hR ** 2)
    solver = KroneckerSolver(off, np.full(grid.nR - 2, 2.0 / hR ** 2), off,
                             grid.nZ - 2, hZ, "dirichlet")
    psi[1:-1, 1:-1] = solver.solve(rhs)
    return psi


def psi_endgame(omega_is_zero: bool, grid: HalfPlaneGrid,
                far_field: Callable, bc_tol: float = 1e-8,
                radii: Sequence[float] = ()) -> PsiEndgameReport:
    """Solve Laplace Psi = 0 with boundary data and fit Psi ~ a R + b.

    Requires omega_is_zero (the elliptic equation must be homogeneous).
    Boundary data with d_Z != 0 on the R = 0 edge is rejected.  When
    `radii` are given the solve is repeated on proportionally scaled
    truncations and the interior max |d_Z Psi| on a fixed core is
    reported as a decay consistency check.
    """
    if not omega_is_zero:
        raise ValueError("endgame applies only once the vorticity profile is zero")
    r, z = grid.axes()
    edge = np.asarray(far_field(np.zeros_like(z), z), dtype=float)
    bc_residual = float(np.max(np.abs(np.diff(edge) / grid.hZ)))
    if bc_residual > max(bc_tol, 1e-12 * (1 + np.max(np.abs(edge)))):
        raise BoundaryViolation(
            f"far-field data varies along R=0 (max |d_Z| ~ {bc_residual:.3e})")

    psi = _laplace_solve(grid, far_field)
    lap = diff2(psi, grid.hR, 0) + diff2(psi, grid.hZ, 1)
    solver_residual = float(np.max(np.abs(lap[1:-1, 1:-1])))

    # least squares of Psi ~ a R + b over every grid point: R is constant
    # along Z, so the fit of the Z-means on R gives the same a and b
    m = psi.mean(axis=1)
    dr = r - r.mean()
    a = float(dr @ (m - m.mean()) / (dr @ dr))
    b = float(m.mean() - a * r.mean())
    fit_residual = float(np.max(np.abs(psi - (a * r + b)[:, None])))

    decay = []
    for half in radii:
        sub = HalfPlaneGrid(-half, -half, half, grid.nR, grid.nZ)
        psih = _laplace_solve(sub, far_field)
        rh, zh = sub.axes()
        # d_Z on the core |R|, |Z| <= half/4: the core rows, then columns
        dZ = diff1(psih[np.abs(rh) <= half / 4], sub.hZ, 1)
        core = dZ[:, np.abs(zh) <= half / 4]
        decay.append((float(half), float(np.max(np.abs(core)))))
    return PsiEndgameReport(a, b, fit_residual, bc_residual,
                            solver_residual, tuple(decay))
