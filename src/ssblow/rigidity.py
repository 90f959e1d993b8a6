"""Computational verification of the profile-triviality arguments.

Covers the characteristics/homogeneity classification of the transport
equations and the energy-scaling exponents, both in exact Fraction
arithmetic in gamma, then the cutoff integration-by-parts identity and
the harmonic stream-function endgame; `cylsim.track_blowup` classifies
the self-similar window.
The identity and the endgame are numerical diagnostics, not proofs.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .elliptic import KroneckerSolver
from .gridio import diff1, diff2, trapezoid_weights
from .hierarchy import LEADING

SCHEMA = "rigidity/1"

ROWS = 32  # R rows per block of the grid sweeps: 205 kB at the default nZ


class BoundaryViolation(ValueError):
    """The endgame's far-field data varies along the R = 0 boundary."""


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


# ---------------------------------------------------------------------------
# homogeneity / triviality classification


#: the fields whose profiles solve a transport equation
TRANSPORTED = ("U", "Omega")


def profile_degree(gamma, k: int, field: str) -> Fraction:
    """Homogeneity degree (e + k gamma)/gamma of the index-k profile of
    `field`, with tau^e its leading power in hierarchy.LEADING; exact in
    Fraction(gamma).  A U or Omega profile solves c F + gamma Y.grad F = 0
    with c = -(e + k gamma) = -gamma d."""
    g = Fraction(gamma)
    if g <= 0:
        raise ValueError("gamma must be positive")
    e = LEADING[field]
    return (e.base + (e.gamma_coeff + k) * g) / g


@dataclass(frozen=True)
class TrivialityVerdict:
    case: str  # "nonzero_coefficient" | "zero_coefficient_ray_constant"
    degree: float
    coefficient: float
    conclusion: str  # trivial_under_decay, *_by_continuity or inconclusive
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
    forces F = 0.  Without decay, continuity at Y = 0 (on the boundary R = 0)
    forces F = 0 for d < 0 and F constant for d = 0, as F(Y) = |Y|^d F(Y/|Y|);
    d > 0 is open, with the witness |Y|^d Theta(phi).  The k = 0 rows are
    not proved this way: the order-0 equations add the perp-grad Psi_0
    drift, and their argument is the cutoff identity with div b = 2 gamma.

    Raises ValueError when c or d has no finite float.
    """
    if field not in TRANSPORTED:
        raise ValueError(f"no transport coefficient for field {field!r}")
    g = Fraction(gamma)
    d = profile_degree(g, k, field)
    c = -g * d
    try:
        c_f, d_f = float(c), float(d)
    except OverflowError:  # an exact c or d beyond the float range
        raise ValueError(f"gamma={gamma}, k={k}: the coefficient or the "
                         "degree is not a finite float") from None
    case = "zero_coefficient_ray_constant" if c == 0 else "nonzero_coefficient"
    conclusion = ("trivial_under_decay" if decay_at_infinity
                  else "trivial_by_continuity" if d < 0
                  else "constant_by_continuity" if d == 0
                  else "inconclusive")
    return TrivialityVerdict(case, d_f, c_f, conclusion, field, k, float(g))


# ---------------------------------------------------------------------------
# energy-scaling arithmetic

#: blow-up rate reported at high resolution elsewhere; a reference value
#: for the scaling diagnostics only, never a target the desk-scale
#: solver attempts (or claims) to reproduce.
REFERENCE_GAMMA = Fraction(291, 100)

NON_REPRODUCIBILITY_NOTE = (
    "the reference rate gamma ~ 2.91 comes from high-resolution cylinder "
    "computations far beyond desk scale; this toolkit checks the scaling "
    "arithmetic around that value exactly but does not attempt to "
    "reproduce the rate numerically"
)


@dataclass(frozen=True)
class ScalingReport:
    gamma: float
    mean_swirl_exp: float       # twice swirl_pointwise_exp
    mean_gradpsi_exp: float     # twice gradpsi_pointwise_exp
    swirl_pointwise_exp: float  # the degree of U_0
    gradpsi_pointwise_exp: float  # the degree of Psi_0, minus 1
    swirl_decay: str            # "decays" | "borderline" | "does_not_apply"
    bounds: tuple  # ((L, L^swirl_pointwise_exp), ...)
    gradpsi_sublinear: bool = True
    omega_info: str = "no information on the vorticity profile"
    note: str = NON_REPRODUCIBILITY_NOTE

    def to_json(self) -> dict:
        return {
            "schema": SCHEMA,
            "gamma": self.gamma,
            "exponents": {
                "mean_swirl": self.mean_swirl_exp,
                "mean_gradpsi": self.mean_gradpsi_exp,
                "swirl_pointwise": self.swirl_pointwise_exp,
                "gradpsi_pointwise": self.gradpsi_pointwise_exp,
            },
            "swirl_decay": self.swirl_decay,
            "gradpsi_sublinear": self.gradpsi_sublinear,
            "omega_info": self.omega_info,
            "bounds": [list(b) for b in self.bounds],
            "note": self.note,
        }


def energy_scaling(gamma, L_values=()) -> ScalingReport:
    """Exponent bookkeeping of the bounded-energy heuristic.

    The average swirl bound scales like L^(1-2/gamma), suggesting the
    pointwise rate |Y|^(1/2-1/gamma): decay (hence the far-field
    hypothesis) for gamma < 2, borderline at gamma = 2, and no
    information for gamma > 2.  The stream-function gradient is
    sublinear for every positive gamma; nothing follows for the
    vorticity profile.  The exponents are exact in Fraction(gamma) and
    reported as their correctly rounded floats.
    """
    g = Fraction(gamma)
    e_u = profile_degree(g, 0, "U")
    e_psi = profile_degree(g, 0, "Psi") - 1
    decay = ("decays" if e_u < 0 else "borderline" if e_u == 0
             else "does_not_apply")
    try:
        bounds = tuple((float(L), float(L) ** float(e_u)) for L in L_values)
    except OverflowError:
        raise ValueError(f"a bound L^{float(e_u):g}, L in {list(L_values)}, "
                         "is beyond the float range") from None
    return ScalingReport(
        gamma=float(g),
        mean_swirl_exp=float(2 * e_u),
        mean_gradpsi_exp=float(2 * e_psi),
        swirl_pointwise_exp=float(e_u),
        gradpsi_pointwise_exp=float(e_psi),
        swirl_decay=decay,
        bounds=bounds,
    )


# ---------------------------------------------------------------------------
# cutoff and integration by parts


def smooth_cutoff(t: np.ndarray) -> np.ndarray:
    """Quintic-smoothstep cutoff: 1 on [0,1], 0 on [2,inf), C^2 across."""
    s = np.clip(np.asarray(t, dtype=float) - 1.0, 0.0, 1.0)
    return 1.0 - s ** 3 * (10.0 - 15.0 * s + 6.0 * s ** 2)


def smooth_cutoff_deriv(t: np.ndarray) -> np.ndarray:
    s = np.asarray(t, dtype=float) - 1.0
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


def ibp_identity_check(grid: HalfPlaneGrid, fields: Callable, gamma: float,
                       p: int = 2, rho: float = 10.0) -> IbpResult:
    """Cutoff integration-by-parts identity on the half-plane.

    With b = gamma Y + perp-grad Psi and sigma_rho the scaled cutoff,

        2 gamma int U^p sigma_rho
            = - int U^p grad sigma_rho . b  -  int sigma_rho b . grad U^p
              + boundary flux at R = 0,

    which is the divergence theorem for U^p sigma_rho b; the transport
    integral drops exactly when U solves b . grad U = 0, recovering the
    two-sided display used in the triviality proof.  Returns lhs, rhs
    (sum of the two volume integrals) and the R = 0 boundary flux, which
    is zero when d_Z Psi vanishes there: a boundary-condition violation
    shows as a nonzero flux, not as an error.

    fields(R, Z) returns U, its gradient (U_R, U_Z) and the gradient
    (Psi_R, Psi_Z) of Psi as arrays on the mesh R, Z it is given; Psi
    itself enters only through its gradient.
    """
    if p < 2 or p % 2:
        raise ValueError("p must be a positive even integer")
    r, z = grid.axes()
    w1, w2 = trapezoid_weights(grid.nR), trapezoid_weights(grid.nZ)
    # the trapezoid weights are separable, so each integral is a sum over
    # blocks of R rows: no mesh, field or integrand exists on the full grid
    lhs = cutoff_term = transport_term = 0.0
    for i in range(0, grid.nR, ROWS):
        rows = slice(i, i + ROWS)
        Rb, Zb = np.meshgrid(r[rows], z, indexing="ij")
        U, (U_R, U_Z), (psi_R, psi_Z) = fields(Rb, Zb)
        w = w1[rows]
        rad = np.hypot(Rb, Zb)
        sigma = smooth_cutoff(rad / rho)
        with np.errstate(invalid="ignore", divide="ignore"):
            sfac = smooth_cutoff_deriv(rad / rho) / (rho * rad)
        sfac = np.nan_to_num(sfac, nan=0.0, posinf=0.0, neginf=0.0)
        bR = gamma * Rb - psi_Z
        bZ = gamma * Zb + psi_R
        Up = U ** p
        lhs += w @ (Up * sigma) @ w2
        cutoff_term += w @ (Up * (sfac * Rb * bR + sfac * Zb * bZ)) @ w2
        gradUp_R = p * U ** (p - 1) * U_R
        gradUp_Z = p * U ** (p - 1) * U_Z
        transport_term += w @ (sigma * (bR * gradUp_R + bZ * gradUp_Z)) @ w2
    lhs = 2.0 * gamma * (float(lhs) * grid.hR * grid.hZ)
    cutoff_term = -(float(cutoff_term) * grid.hR * grid.hZ)
    transport_term = float(transport_term) * grid.hR * grid.hZ
    rhs = cutoff_term - transport_term

    # outward normal (1, 0) on the R = 0 row, the last block's last;
    # gamma*R vanishes there
    flux = Up[-1] * sigma[-1] * (gamma * Rb[-1] - psi_Z[-1])
    boundary = float(np.trapezoid(flux, dx=grid.hZ))
    return IbpResult(lhs, rhs, boundary, cutoff_term, -transport_term)


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
    psi = np.zeros((grid.nR, grid.nZ))
    # the R = R_min and R = 0 rows, then the Z = Z_min and Z = Z_max
    # columns between them; the solve fills the interior
    psi[[0, -1]] = boundary(*np.meshgrid(r[[0, -1]], z, indexing="ij"))
    psi[1:-1, [0, -1]] = boundary(*np.meshgrid(r[1:-1], z[[0, -1]],
                                               indexing="ij"))

    # the interior holds the right-hand side until the solve overwrites it
    rhs = psi[1:-1, 1:-1]
    rhs[0, :] += psi[0, 1:-1] / hR ** 2
    rhs[-1, :] += psi[-1, 1:-1] / hR ** 2
    rhs[:, 0] += psi[1:-1, 0] / hZ ** 2
    rhs[:, -1] += psi[1:-1, -1] / hZ ** 2
    off = np.full(grid.nR - 3, -1.0 / hR ** 2)
    solver = KroneckerSolver(off, np.full(grid.nR - 2, 2.0 / hR ** 2), off,
                             grid.nZ - 2, hZ, "dirichlet")
    solver.solve(rhs, out=rhs)
    return psi


def psi_endgame(omega_is_zero: bool, grid: HalfPlaneGrid,
                far_field: Callable,
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
    if bc_residual > max(1e-8, 1e-12 * (1 + np.max(np.abs(edge)))):
        raise BoundaryViolation(
            f"far-field data varies along R=0 (max |d_Z| ~ {bc_residual:.3e})")

    psi = _laplace_solve(grid, far_field)
    # least squares of Psi ~ a R + b over every grid point: R is constant
    # along Z, so the fit of the Z-means on R gives the same a and b
    m = psi.mean(axis=1)
    dr = r - r.mean()
    a = float(dr @ (m - m.mean()) / (dr @ dr))
    b = float(m.mean() - a * r.mean())
    fit = a * r + b

    # both residuals over blocks of interior R rows with one row either side
    res = []
    for i in range(1, grid.nR - 1, ROWS):
        rows = slice(i - 1, i + ROWS + 1)
        lap = diff2(psi[rows], grid.hR, 0) + diff2(psi[rows], grid.hZ, 1)
        res.append((np.max(np.abs(lap[1:-1, 1:-1])),
                    np.max(np.abs(psi[rows] - fit[rows, None]))))
    solver_residual, fit_residual = map(float, np.max(res, axis=0))

    del psi
    decay = []
    for half in radii:
        sub = HalfPlaneGrid(-half, -half, half, grid.nR, grid.nZ)
        rh, zh = sub.axes()
        # d_Z on the core |R|, |Z| <= half/4: the core rows, then columns
        dZ = diff1(_laplace_solve(sub, far_field)[np.abs(rh) <= half / 4],
                   sub.hZ, 1)
        core = dZ[:, np.abs(zh) <= half / 4]
        decay.append((float(half), float(np.max(np.abs(core)))))
    return PsiEndgameReport(a, b, fit_residual, bc_residual,
                            solver_residual, tuple(decay))
