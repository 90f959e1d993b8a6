"""Triviality classification, the cutoff integration-by-parts identity
and the harmonic endgame."""

import math
import tracemalloc
from dataclasses import asdict
from fractions import Fraction

import numpy as np
import pytest
import sympy as sp

from ssblow import cli, hierarchy as hy, rigidity as rg
from ssblow.gridio import diff2, trapezoid_weights
from ssblow.sscalc import ProfileRef


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


@pytest.mark.parametrize("gamma", [Fraction(2, 5), Fraction(1, 2), Fraction(2)],
                         ids=["2/5", "1/2", "2"])
def test_no_decay_concludes_by_the_sign_of_the_degree(gamma):
    want = {-1: "trivial_by_continuity", 0: "constant_by_continuity",
            1: "inconclusive"}
    signs = set()
    for k in range(6):
        for field, half in (("U", Fraction(1, 2)), ("Omega", 0)):
            d = k + half - 1 / gamma
            sign = (d > 0) - (d < 0)
            signs.add(sign)
            v = rg.classify_triviality(gamma, k, field,
                                       decay_at_infinity=False)
            assert v.conclusion == want[sign], (field, k)
            assert rg.classify_triviality(gamma, k, field).conclusion \
                == "trivial_under_decay"
    assert signs == {-1, 0, 1}


@pytest.mark.parametrize("gamma", [Fraction(2, 5), Fraction(1, 2), Fraction(2)],
                         ids=["2/5", "1/2", "2"])
def test_no_decay_witness_solves_the_transport_equation(gamma):
    # |Y|^d Theta(phi), phi the polar angle, solves c F + gamma Y.grad F = 0
    # for any Theta: the witness that leaves d > 0 open without decay
    R, Z = sp.symbols("R Z", real=True)
    theta = sp.Function("Theta")
    g = sp.Rational(gamma.numerator, gamma.denominator)
    for k in range(4):
        for field in ("U", "Omega"):
            v = rg.classify_triviality(gamma, k, field)
            d = sp.Rational(str(rg.profile_degree(gamma, k, field)))
            c = -g * d
            assert float(d) == v.degree
            F = (R ** 2 + Z ** 2) ** (d / 2) * theta(sp.atan2(Z, R))
            assert sp.simplify(c * F + g * (R * F.diff(R) + Z * F.diff(Z))) \
                == 0, (field, k)


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


@pytest.fixture(scope="module")
def derived_depth12():
    return hy.derive_hierarchy(hy.AnsatzSpec(mode="generalized", depth=12))


def transport_part(eq, field, k, gamma):
    """(c, a_R, a_Z) of the linear terms c F + a_R R d_R F + a_Z Z d_Z F
    of F = field_k in the derived equation eq, evaluated at gamma."""
    def coeff(dR, dZ):
        return sum(t.coeff * gamma ** t.g_pow for t in eq.lhs.terms
                   if t.factors == (ProfileRef(field, k, dR, dZ),)
                   and (t.r_pow, t.z_pow) == (dR, dZ))
    return coeff(0, 0), coeff(1, 0), coeff(0, 1)


@pytest.mark.parametrize("gamma", [Fraction(2, 5), Fraction(1, 2),
                                   Fraction(1), Fraction(2),
                                   Fraction(291, 100), Fraction(4)], ids=str)
def test_verify_coefficients_are_the_derived_ones(derived_depth12, gamma):
    # order 0 of the u and omega equations, then each decoupled index-k
    # system of one generalized derivation, against c = -gamma d
    report = derived_depth12
    systems = {0: [report.orders["u"][0], report.orders["omega"][0]],
               **report.induction}
    assert sorted(systems) == list(range(13))
    for k, eqs in systems.items():
        for eq, field in zip(eqs, rg.TRANSPORTED):
            c = -gamma * rg.profile_degree(gamma, k, field)
            assert transport_part(eq, field, k, gamma) == (c, gamma, gamma), \
                (field, k)
            v = rg.classify_triviality(gamma, k, field)
            assert (v.coefficient, v.degree) == (float(c), float(-c / gamma))


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


def mesh(grid):
    return np.meshgrid(*grid.axes(), indexing="ij")


def compact_bump(R, Z):
    rho2 = ((R + 5.0) ** 2 + Z ** 2) / 9.0
    inside = rho2 < 1.0
    denom = np.where(inside, 1.0 - rho2, 1.0)
    U = np.where(inside, np.exp(-1.0 / denom), 0.0)
    chain = np.where(inside, U / denom ** 2, 0.0)
    dU = (-2.0 * (R + 5.0) / 9.0 * chain, -2.0 * Z / 9.0 * chain)
    return U, dU


def gaussian_bump(R, Z):
    U = np.exp(-((R + 4.0) ** 2 + Z ** 2) / 8.0)
    return U, (-(R + 4.0) / 4.0 * U, -Z / 4.0 * U)


def psi_even(R, Z, eps=0.0):
    # the gradient of Psi = (R^2 + eps Z) exp(-|Y|^2 / 50)
    e = np.exp(-(R ** 2 + Z ** 2) / 50.0)
    return (
        (2.0 * R - (R ** 2 + eps * Z) * 2.0 * R / 50.0) * e,
        (-R ** 2 * 2.0 * Z / 50.0 + eps * (1.0 - 2.0 * Z ** 2 / 50.0)) * e,
    )


def zero_gradient(R, Z):
    return np.zeros_like(R), np.zeros_like(R)


def identity_fields(bump, eps=0.0):
    """The field function of the identity check: a bump U with its
    gradient, and the gradient of psi_even."""
    return lambda R, Z: (*bump(R, Z), psi_even(R, Z, eps))


def zero_fields(R, Z):
    return np.zeros_like(R), zero_gradient(R, Z), zero_gradient(R, Z)


def test_ibp_compact_support():
    grid = rg.HalfPlaneGrid()
    res = rg.ibp_identity_check(grid, identity_fields(compact_bump), 2.0)
    assert res.boundary_term == 0.0
    assert res.cutoff_term == 0.0  # support inside the sigma = 1 plateau
    assert abs(res.lhs - res.rhs) <= 1e-6 * max(abs(res.lhs), 1.0)


def test_ibp_zero_field():
    grid = rg.HalfPlaneGrid(-10.0, -10.0, 10.0, 101, 201)
    res = rg.ibp_identity_check(grid, zero_fields, 1.5)
    assert (res.lhs, res.rhs, res.boundary_term) == (0.0, 0.0, 0.0)


def test_ibp_rejects_odd_power():
    grid = rg.HalfPlaneGrid(-10.0, -10.0, 10.0, 51, 101)
    with pytest.raises(ValueError):
        rg.ibp_identity_check(grid, zero_fields, 1.5, p=3)


def test_ibp_rho_sweep_constant_on_rays():
    # c = 0 ray solution with decaying trace: rhs -> 0 as rho grows
    def ray_constant(R, Z):
        # U = exp(-Z^2 / |Y|^2), 1 at the origin, with its analytic
        # gradient U (2 R Z^2, -2 Z R^2) / |Y|^4 (0 at the origin)
        rad = np.hypot(R, Z)
        safe = np.maximum(rad, 1e-30)
        with np.errstate(invalid="ignore"):
            vals = np.where(rad > 0, np.exp(-(Z / safe) ** 2), 1.0)
        fac = 2.0 * vals / safe ** 4
        dU = (fac * R * Z ** 2, -fac * Z * R ** 2)
        return vals, dU, zero_gradient(R, Z)

    grid = rg.HalfPlaneGrid()
    lhs = {}
    for rho in (5.0, 10.0, 15.0):
        res = rg.ibp_identity_check(grid, ray_constant, 2.0, rho=rho)
        lhs[rho] = res.lhs
    # lhs grows ~ rho^2 for a non-decaying field: the identity forces the
    # contradiction used against non-decaying ray constants
    assert lhs[10.0] / lhs[5.0] == pytest.approx(4.0, rel=0.3)


def test_ibp_boundary_term_linear_in_epsilon():
    grid = rg.HalfPlaneGrid()
    terms = {}
    for eps in (1e-2, 1e-3):
        res = rg.ibp_identity_check(grid, identity_fields(gaussian_bump, eps),
                                    2.0)
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
    R, _ = mesh(grid)
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
    R, Z = mesh(grid)
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
    R, Z = mesh(grid)
    assert np.all(R[-1] == 0.0) and R[0, 0] == grid.R_min
    last = grid.R_min + (grid.nR - 1) * grid.hR
    assert last == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(TypeError):
        rg.HalfPlaneGrid(R_max=-2.0)


# -- the row blocks against full-grid references ------------------------------


def ibp_full_grid(grid, fields, gamma, p=2, rho=10.0):
    """The identity with every field and integrand on the full mesh, as
    computed before the row blocks: the reference for the blocked sums."""
    R, Z = mesh(grid)
    U, (U_R, U_Z), (psi_R, psi_Z) = fields(R, Z)
    w1, w2 = trapezoid_weights(grid.nR), trapezoid_weights(grid.nZ)

    def integral(values):
        return float(w1 @ values @ w2) * grid.hR * grid.hZ

    rad = np.hypot(R, Z)
    sigma = rg.smooth_cutoff(rad / rho)
    with np.errstate(invalid="ignore", divide="ignore"):
        sfac = rg.smooth_cutoff_deriv(rad / rho) / (rho * rad)
    sfac = np.nan_to_num(sfac, nan=0.0, posinf=0.0, neginf=0.0)
    bR, bZ, Up = gamma * R - psi_Z, gamma * Z + psi_R, U ** p
    lhs = 2.0 * gamma * integral(Up * sigma)
    cutoff = -integral(Up * (sfac * R * bR + sfac * Z * bZ))
    transport = integral(sigma * (bR * p * U ** (p - 1) * U_R
                                  + bZ * p * U ** (p - 1) * U_Z))
    flux = Up[-1] * sigma[-1] * (gamma * R[-1] - psi_Z[-1])
    return rg.IbpResult(lhs, cutoff - transport,
                        float(np.trapezoid(flux, dx=grid.hZ)), cutoff,
                        -transport)


@pytest.mark.parametrize("p", [2, 4])
@pytest.mark.parametrize("eps", [0.0, 1.0])
@pytest.mark.parametrize("bump", [compact_bump, gaussian_bump],
                         ids=["compact", "gaussian"])
@pytest.mark.parametrize("grid", [
    rg.HalfPlaneGrid(),
    # a last block of one row, the R = 0 boundary alone
    rg.HalfPlaneGrid(-10.0, -10.0, 10.0, 2 * rg.ROWS + 1, 101),
], ids=["default", "lone-last-row"])
def test_ibp_blocks_match_the_full_grid_sums(grid, bump, eps, p):
    args = (grid, identity_fields(bump, eps), 2.0)
    got = asdict(rg.ibp_identity_check(*args, p=p))
    want = asdict(ibp_full_grid(*args, p=p))
    for name, value in want.items():
        assert abs(got[name] - value) <= 1e-12 * max(abs(value), 1.0), name
    # the flux is one row's sum either way
    assert got["boundary_term"] == want["boundary_term"]


@pytest.mark.parametrize("grid", [
    rg.HalfPlaneGrid(),
    rg.HalfPlaneGrid(-1.0, -1.0, 1.0, 3, 4),
    rg.HalfPlaneGrid(-3.0, -2.0, 5.0, rg.ROWS + 2, 17),
    rg.HalfPlaneGrid(-3.0, -2.0, 5.0, rg.ROWS + 3, 17),
], ids=["default", "two-point", "one-block", "one-row-more"])
def test_psi_endgame_residuals_match_the_full_grid(grid):
    # the blocks take diff2 on each row block, so the maxima keep the bits
    # of the full-grid arrays
    def far_field(R, Z):
        return 3.0 * R + 7.0 + R * Z + 0.01 * (R ** 3 - 3.0 * R * Z ** 2)

    rep = rg.psi_endgame(True, grid, far_field)
    psi = rg._laplace_solve(grid, far_field)
    lap = diff2(psi, grid.hR, 0) + diff2(psi, grid.hZ, 1)
    assert rep.solver_residual == float(np.max(np.abs(lap[1:-1, 1:-1])))
    r, _ = grid.axes()
    assert rep.fit_residual == float(
        np.max(np.abs(psi - (rep.a * r + rep.b)[:, None])))


# -- live-memory guards -------------------------------------------------------

#: one float array on the default 401 x 801 grid, in MB: each guard below
#: allows this much over the live peak measured when it was set
GRID_MB = 401 * 801 * 8 / 1e6


def live_peak_mb(fn):
    """tracemalloc's peak of live allocations while fn runs, in MB."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    base = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    try:
        fn()
        return (tracemalloc.get_traced_memory()[1] - base) / 1e6
    finally:
        if started:
            tracemalloc.stop()


def test_psi_endgame_live_peak():
    # 15.4 MB measured (26.7 MB with the full-grid right-hand side, solve
    # copy and residual arrays)
    peak = live_peak_mb(lambda: rg.psi_endgame(
        True, rg.HalfPlaneGrid(), lambda R, Z: 2.0 * R + 1.0,
        radii=(10.0, 20.0)))
    assert peak <= 15.4 + GRID_MB


@pytest.mark.parametrize("preset", ["compact", "gaussian"])
def test_identity_live_peak(preset, tmp_path):
    # 5.2 MB measured with the fields built one row block at a time (20.9
    # MB with the full-grid mesh and fields, 38.7 MB with full-grid
    # integrands too)
    peak = live_peak_mb(lambda: cli.main(
        ["identity", "--preset", preset, "--out", str(tmp_path)]))
    assert peak <= 5.2 + GRID_MB
