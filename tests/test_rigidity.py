"""Triviality classification, the cutoff integration-by-parts identity
and the harmonic endgame."""

import math
from fractions import Fraction

import numpy as np
import pytest

from ssblow import rigidity as rg
from ssblow.gridio import diff1


# -- homogeneity degrees and classification ---------------------------------


def test_homogeneity_degree_examples():
    def degree(gamma, k, field):
        return rg.classify_triviality(gamma, k, field).degree

    assert degree(Fraction(2), 0, "U") == 0
    assert degree(Fraction(1), 0, "Omega") == -1
    assert degree(2.91, 0, "U") == pytest.approx(0.5 - 1 / 2.91)
    assert degree(Fraction(1, 2), 3, "U") == Fraction(3, 2)


def test_classify_zero_coefficient_branch():
    v = rg.classify_triviality(Fraction(2), 0, "U")
    assert v.case == "zero_coefficient_ray_constant"
    assert v.conclusion == "trivial_under_decay"


def test_classify_nonzero_coefficient():
    v = rg.classify_triviality(Fraction(1, 2), 3, "U")
    assert v.case == "nonzero_coefficient"
    assert v.coefficient == pytest.approx(-0.75)
    assert v.conclusion == "trivial_under_decay"


def test_classify_no_decay_inconclusive():
    for gamma in (Fraction(2), 1.3):
        v = rg.classify_triviality(gamma, 1, "Omega", decay_at_infinity=False)
        assert v.conclusion == "inconclusive"


def test_classify_rejects_nonpositive_gamma():
    with pytest.raises(ValueError):
        rg.classify_triviality(Fraction(0), 0, "U")
    with pytest.raises(ValueError):
        rg.classify_triviality(-1.0, 0, "U")


@pytest.mark.parametrize("gamma", [Fraction(10 ** 308), 1e308],
                         ids=["exact", "float"])
def test_classify_rejects_coefficient_beyond_float_range(gamma):
    # gamma and 1/gamma are finite floats; c = 1 - 2 gamma is not
    assert math.isfinite(rg.classify_triviality(gamma, 1, "Omega").coefficient)
    with pytest.raises(ValueError):
        rg.classify_triviality(gamma, 2, "Omega")


def test_classify_degenerate_omega_rates():
    # 1 - k*gamma = 0 at gamma = 1/k routes to the ray-constant branch
    for k in (1, 2, 3):
        v = rg.classify_triviality(Fraction(1, k), k, "Omega")
        assert v.case == "zero_coefficient_ray_constant"


# -- cutoff -----------------------------------------------------------------


def test_smooth_cutoff_shape():
    t = np.linspace(0.0, 3.0, 301)
    s = rg.smooth_cutoff(t)
    assert np.all(s[t <= 1.0] == 1.0)
    assert np.all(s[t >= 2.0] == 0.0)
    assert np.all(np.diff(s) <= 1e-15)
    # derivative consistent with finite differences
    h = 1e-6
    mid = np.linspace(1.05, 1.95, 50)
    fd = (rg.smooth_cutoff(mid + h) - rg.smooth_cutoff(mid - h)) / (2 * h)
    assert np.allclose(rg.smooth_cutoff_deriv(mid), fd, atol=1e-7)


# -- integration by parts ---------------------------------------------------


def compact_bump(grid):
    R, Z = grid.mesh()
    rho2 = ((R + 5.0) ** 2 + Z ** 2) / 9.0
    inside = rho2 < 1.0
    denom = np.where(inside, 1.0 - rho2, 1.0)
    U = np.where(inside, np.exp(-1.0 / denom), 0.0)
    chain = np.where(inside, U / denom ** 2, 0.0)
    dU = (-2.0 * (R + 5.0) / 9.0 * chain, -2.0 * Z / 9.0 * chain)
    return U, dU


def psi_even(grid, eps=0.0):
    # the gradient of Psi = (R^2 + eps Z) exp(-|Y|^2 / 50)
    R, Z = grid.mesh()
    e = np.exp(-(R ** 2 + Z ** 2) / 50.0)
    return (
        (2.0 * R - (R ** 2 + eps * Z) * 2.0 * R / 50.0) * e,
        (-R ** 2 * 2.0 * Z / 50.0 + eps * (1.0 - 2.0 * Z ** 2 / 50.0)) * e,
    )


def zero_gradient(grid):
    return np.zeros((grid.nR, grid.nZ)), np.zeros((grid.nR, grid.nZ))


def test_ibp_compact_support():
    grid = rg.HalfPlaneGrid()
    U, dU = compact_bump(grid)
    res = rg.ibp_identity_check(grid, U, dU, psi_even(grid), 2.0)
    assert res.boundary_term == 0.0
    assert res.cutoff_term == 0.0  # support inside the sigma = 1 plateau
    assert abs(res.lhs - res.rhs) <= 1e-6 * max(abs(res.lhs), 1.0)


def test_ibp_zero_field():
    grid = rg.HalfPlaneGrid(-10.0, -10.0, 10.0, 101, 201)
    zero = np.zeros((grid.nR, grid.nZ))
    res = rg.ibp_identity_check(grid, zero, zero_gradient(grid),
                                zero_gradient(grid), 1.5)
    assert (res.lhs, res.rhs, res.boundary_term) == (0.0, 0.0, 0.0)


def test_ibp_rejects_odd_power():
    grid = rg.HalfPlaneGrid(-10.0, -10.0, 10.0, 51, 101)
    zero = np.zeros((grid.nR, grid.nZ))
    with pytest.raises(ValueError):
        rg.ibp_identity_check(grid, zero, zero_gradient(grid),
                              zero_gradient(grid), 1.5, p=3)


def test_ibp_boundary_violation_raises():
    grid = rg.HalfPlaneGrid(-10.0, -10.0, 10.0, 101, 201)
    R, Z = grid.mesh()
    # Psi = Z: d_Z Psi = 1 on the R = 0 column
    dPsi = (np.zeros_like(R), np.ones_like(Z))
    with pytest.raises(rg.BoundaryViolation):
        rg.ibp_identity_check(grid, np.exp(R), (np.exp(R), np.zeros_like(R)),
                              dPsi, 2.0)


def test_ibp_rho_sweep_constant_on_rays():
    # c = 0 ray solution with decaying trace: rhs -> 0 as rho grows
    grid = rg.HalfPlaneGrid()
    R, Z = grid.mesh()
    rad = np.hypot(R, Z)
    with np.errstate(invalid="ignore"):
        vals = np.where(rad > 0, np.exp(-(Z / np.maximum(rad, 1e-30)) ** 2),
                        1.0)
    dU = (diff1(vals, grid.hR, 0), diff1(vals, grid.hZ, 1))
    lhs = {}
    for rho in (5.0, 10.0, 15.0):
        res = rg.ibp_identity_check(grid, vals, dU, zero_gradient(grid), 2.0,
                                    rho=rho, bc_tol=1e30)
        lhs[rho] = res.lhs
    # lhs grows ~ rho^2 for a non-decaying field: the identity forces the
    # contradiction used against non-decaying ray constants
    assert lhs[10.0] / lhs[5.0] == pytest.approx(4.0, rel=0.3)


def test_ibp_boundary_term_linear_in_epsilon():
    grid = rg.HalfPlaneGrid()
    R, Z = grid.mesh()
    U = np.exp(-((R + 4.0) ** 2 + Z ** 2) / 8.0)
    dU = (-(R + 4.0) / 4.0 * U, -Z / 4.0 * U)
    terms = {}
    for eps in (1e-2, 1e-3):
        res = rg.ibp_identity_check(grid, U, dU, psi_even(grid, eps), 2.0,
                                    bc_tol=10 * eps)
        terms[eps] = res.boundary_term
    assert terms[1e-2] / terms[1e-3] == pytest.approx(10.0, rel=0.2)


# -- harmonic endgame -------------------------------------------------------


def test_psi_endgame_affine():
    grid = rg.HalfPlaneGrid(-10.0, -10.0, 10.0, 81, 161)
    rep = rg.psi_endgame(True, grid, lambda R, Z: 3.0 * R + 7.0)
    assert rep.a == pytest.approx(3.0, abs=1e-8)
    assert rep.b == pytest.approx(7.0, abs=1e-8)
    assert rep.fit_residual <= 1e-8


@pytest.mark.parametrize("far_field", [
    lambda R, Z: 2.0 * R + 1.0,
    # harmonic and not affine, so the fit has a residual
    lambda R, Z: 3.0 * R + 7.0 + R * Z + 0.01 * (R ** 3 - 3.0 * R * Z ** 2),
], ids=["affine", "cubic"])
@pytest.mark.parametrize("grid", [
    rg.HalfPlaneGrid(),
    rg.HalfPlaneGrid(-3.0, -2.0, 5.0, 30, 17),
], ids=["default", "uneven"])
def test_psi_endgame_fit_matches_lstsq(grid, far_field):
    # reference: the least-squares fit over every grid point
    rep = rg.psi_endgame(True, grid, far_field)
    psi = rg._laplace_solve(grid, far_field)
    R, _ = grid.mesh()
    A = np.column_stack([R.ravel(), np.ones(R.size)])
    (a, b), *_ = np.linalg.lstsq(A, psi.ravel(), rcond=None)
    assert abs(rep.a - a) <= 1e-12 * max(1.0, abs(a))
    assert abs(rep.b - b) <= 1e-12 * max(1.0, abs(b))
    assert rep.fit_residual == np.max(np.abs(psi - (rep.a * R + rep.b)))


@pytest.mark.parametrize("grid", [
    rg.HalfPlaneGrid(),
    rg.HalfPlaneGrid(-3.0, -2.0, 5.0, 30, 17),
    rg.HalfPlaneGrid(-1.0, -1.0, 1.0, 3, 3),
    rg.HalfPlaneGrid(-1.0, -1.0, 1.0, 3, 4),
], ids=["default", "uneven", "one-point", "two-point"])
def test_laplace_solve_reproduces_discrete_harmonic(grid):
    # second differences of a quadratic are exact, so this Psi is
    # harmonic for the 5-point stencil as well as in the continuum
    def harmonic(R, Z):
        return R ** 2 - Z ** 2 + 2.0 * R + 1.0

    psi = rg._laplace_solve(grid, harmonic)
    R, Z = grid.mesh()
    want = harmonic(R, Z)
    # relative: |Psi| reaches 1600 on the default grid
    assert np.max(np.abs(psi - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("grid", [
    rg.HalfPlaneGrid(-3.0, -2.0, 5.0, 30, 17),
    rg.HalfPlaneGrid(-1.0, -1.0, 1.0, 3, 4),
], ids=["uneven", "two-point"])
def test_laplace_solve_evaluates_the_far_field_on_the_edges_only(grid):
    given = []

    def far_field(R, Z):
        given.append((np.ravel(R), np.ravel(Z)))
        return 2.0 * R + 1.0

    psi = rg._laplace_solve(grid, far_field)
    R = np.concatenate([g[0] for g in given])
    Z = np.concatenate([g[1] for g in given])
    on_edge = ((R == grid.R_min) | (R == 0.0)
               | (Z == grid.Z_min) | (Z == grid.Z_max))
    assert on_edge.all()
    # each boundary point once
    assert R.size == 2 * grid.nZ + 2 * (grid.nR - 2)
    assert len(set(zip(R, Z))) == R.size
    r, _ = grid.axes()
    assert np.allclose(psi, (2.0 * r + 1.0)[:, None], rtol=0, atol=1e-12)


def test_psi_endgame_rejects_z_dependent_boundary():
    grid = rg.HalfPlaneGrid(-10.0, -10.0, 10.0, 81, 161)
    with pytest.raises(rg.BoundaryViolation):
        rg.psi_endgame(True, grid, lambda R, Z: R ** 2 - Z ** 2)


def test_psi_endgame_requires_zero_vorticity():
    grid = rg.HalfPlaneGrid(-10.0, -10.0, 10.0, 41, 81)
    with pytest.raises(ValueError):
        rg.psi_endgame(False, grid, lambda R, Z: R)


# -- grid guards ------------------------------------------------------------


def test_half_plane_grid_validation():
    for R_min in (0.0, 1.0, math.nan):
        with pytest.raises(ValueError):
            rg.HalfPlaneGrid(R_min=R_min)
    with pytest.raises(ValueError):
        rg.HalfPlaneGrid(Z_min=2.0, Z_max=1.0)
    g = rg.HalfPlaneGrid(-2.0, -1.0, 1.0, 21, 41)
    assert g.hR == pytest.approx(0.1)


@pytest.mark.parametrize("grid", [
    rg.HalfPlaneGrid(),
    rg.HalfPlaneGrid(-3.0, -2.0, 5.0, 30, 17),
    rg.HalfPlaneGrid(-0.7, -1.0, 1.0, 3, 3),
], ids=["default", "uneven", "one-point"])
def test_half_plane_grid_ends_on_the_boundary(grid):
    # psi_endgame checks d_Z Psi at R = 0, so that must be the last column
    R, Z = grid.mesh()
    assert np.all(R[-1] == 0.0) and R[0, 0] == grid.R_min
    last = grid.R_min + (grid.nR - 1) * grid.hR
    assert last == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(TypeError):
        rg.HalfPlaneGrid(R_max=-2.0)
