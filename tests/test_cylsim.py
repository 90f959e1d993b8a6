"""Cylinder-slab solver: elliptic solve, velocity reconstruction, time
stepping, blow-up diagnostics, scaling arithmetic, and the 1D demo."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from ssblow import cli, hierarchy
from ssblow import cylsim as cs
from ssblow import rigidity as rg
from ssblow.sscalc import exponent


def manufactured_psi(grid):
    r, z = grid.mesh()
    rm = grid.r_min
    psi = (1.0 - r) ** 2 * (r - rm) ** 2 * np.sin(np.pi * z / grid.z_len)
    return psi


def poisson_error(nr, nz, z_bc="periodic"):
    grid = cs.CylGrid(nr, nz, z_bc=z_bc)
    import sympy as sp
    r, z = sp.symbols("r z")
    rm = grid.r_min
    psi = (1 - r) ** 2 * (r - rm) ** 2 * sp.sin(sp.pi * z / grid.z_len)
    om = -(sp.diff(psi, r, 2) + 3 / r * sp.diff(psi, r)
           + sp.diff(psi, z, 2))
    om_fn = sp.lambdify((r, z), om, "numpy")
    R, Z = grid.mesh()
    got = cs.PoissonSolver(grid).solve(om_fn(R, Z))
    return float(np.max(np.abs(got - manufactured_psi(grid))))


def test_poisson_zero_data():
    grid = cs.CylGrid(17, 16)
    psi = cs.PoissonSolver(grid).solve(np.zeros((17, 16)))
    assert np.array_equal(psi, np.zeros((17, 16)))


@pytest.mark.parametrize("z_bc", ["periodic", "dirichlet"])
def test_poisson_solve_into_out_writes_every_entry(z_bc):
    # the boundary zeros too: a NaN left in the buffer breaks the equality
    grid = cs.CylGrid(17, 16, z_bc=z_bc)
    solver = cs.PoissonSolver(grid)
    om = np.random.default_rng(5).standard_normal((17, 16))
    buf = np.full_like(om, np.nan)
    assert solver.solve(om, out=buf) is buf
    assert np.array_equal(buf, solver.solve(om))


@pytest.mark.parametrize("z_bc", ["periodic", "dirichlet"])
def test_poisson_mms_second_order(z_bc):
    e1 = poisson_error(17, 32, z_bc)
    e2 = poisson_error(33, 64, z_bc)
    order = math.log2(e1 / e2)
    assert order >= 1.9, (e1, e2, order)


def test_poisson_even_symmetry():
    grid = cs.CylGrid(17, 32, z_bc="periodic")
    rng = np.random.default_rng(3)
    prof = rng.standard_normal(17)
    z = grid.z()
    om = prof[:, None] * np.cos(np.pi * z / grid.z_len)[None, :]
    psi = cs.PoissonSolver(grid).solve(om)
    # even data about z = 0 gives an even solution
    flipped = psi[:, np.concatenate(([0], np.arange(grid.nz - 1, 0, -1)))]
    assert np.allclose(psi, flipped, atol=1e-11)


def test_apply_operator_consistent_with_solver():
    grid = cs.CylGrid(21, 24)
    rng = np.random.default_rng(9)
    om = rng.standard_normal((21, 24))
    om[0] = om[-1] = 0.0
    solver = cs.PoissonSolver(grid)
    psi = solver.solve(om)
    assert solver.residual(psi, om) <= 1e-10



def stencil_factors(grid):
    """Radial and axial factors A, Z of -(d_rr + (3/r) d_r + d_zz) on the
    solver's unknowns, (A (x) I + I (x) Z), written row by row from the
    stencil."""
    hr, hz = grid.hr, grid.hz
    r = grid.r()[1:-1]
    m = r.size
    A = np.zeros((m, m))
    for i in range(m):
        A[i, i] = 2.0 / hr ** 2
        if i > 0:
            A[i, i - 1] = -1.0 / hr ** 2 + 3.0 / (2.0 * hr * r[i])
        if i < m - 1:
            A[i, i + 1] = -1.0 / hr ** 2 - 3.0 / (2.0 * hr * r[i])
    n = grid.nz if grid.z_bc == "periodic" else grid.nz - 2
    Z = np.zeros((n, n))
    for j in range(n):
        Z[j, j] = 2.0 / hz ** 2
        for k in (j - 1, j + 1):
            if grid.z_bc == "periodic":
                Z[j, k % n] -= 1.0 / hz ** 2
            elif 0 <= k < n:
                Z[j, k] = -1.0 / hz ** 2
    return A, Z


@pytest.mark.parametrize("z_bc", ["periodic", "dirichlet"])
@pytest.mark.parametrize("r_min", [0.05, 0.5, 0.9])
@pytest.mark.parametrize("nr,nz", [(5, 5), (9, 8), (7, 11)])
def test_poisson_matches_dense_solve(z_bc, r_min, nr, nz):
    grid = cs.CylGrid(nr, nz, r_min=r_min, z_bc=z_bc)
    rng = np.random.default_rng(nr * nz)
    om = rng.standard_normal((nr, nz))
    zs = slice(None) if z_bc == "periodic" else slice(1, -1)
    A, Z = stencil_factors(grid)
    L = np.kron(A, np.eye(len(Z))) + np.kron(np.eye(len(A)), Z)
    want = np.linalg.solve(L, om[1:-1, zs].ravel())
    got = cs.PoissonSolver(grid).solve(om)
    assert np.max(np.abs(got[1:-1, zs].ravel() - want)) \
        <= 1e-12 * np.max(np.abs(want))
    # psi = 0 on both r edges and, for Dirichlet z, on both z ends
    assert np.all(got[[0, -1], :] == 0.0)
    if z_bc == "dirichlet":
        assert np.all(got[:, [0, -1]] == 0.0)


@pytest.mark.parametrize("z_bc", ["periodic", "dirichlet"])
@pytest.mark.parametrize("nr,nz", [(65, 128), (129, 256)])
def test_poisson_residual_against_sparse_lu(z_bc, nr, nz):
    import scipy.sparse as sps
    import scipy.sparse.linalg as spla

    grid = cs.CylGrid(nr, nz, z_bc=z_bc)
    rng = np.random.default_rng(nr)
    om = rng.standard_normal((nr, nz))
    zs = slice(None) if z_bc == "periodic" else slice(1, -1)
    solver = cs.PoissonSolver(grid)
    resid = solver.residual(solver.solve(om), om)
    A, Z = stencil_factors(grid)
    L = sps.kron(sps.csr_matrix(A), sps.eye(len(Z))) \
        + sps.kron(sps.eye(len(A)), sps.csr_matrix(Z))
    lu = spla.splu(L.tocsc())
    ref = np.zeros_like(om)
    ref[1:-1, zs] = lu.solve(om[1:-1, zs].ravel()).reshape(
        om[1:-1, zs].shape)
    resid_lu = solver.residual(ref, om)
    assert resid <= 1e-11 * np.max(np.abs(om))
    assert resid <= 10.0 * resid_lu, (resid, resid_lu)

# -- velocity reconstruction ------------------------------------------------


def test_reconstruct_linear_psi():
    grid = cs.CylGrid(17, 33, z_bc="dirichlet")
    r, z = grid.mesh()
    ur, uz = cs.reconstruct_velocity(z.copy(), grid)
    assert np.allclose(ur, -r, atol=1e-12)
    assert np.allclose(uz, 2.0 * z, atol=1e-12)


def test_reconstruct_constant_psi():
    grid = cs.CylGrid(17, 33, z_bc="dirichlet")
    ur, uz = cs.reconstruct_velocity(np.full((17, 33), 2.5), grid)
    assert np.allclose(ur, 0.0, atol=1e-12)
    assert np.allclose(uz, 5.0, atol=1e-12)


def test_no_penetration_exact():
    grid = cs.CylGrid(17, 32)
    rng = np.random.default_rng(13)
    om = rng.standard_normal((17, 32))
    psi = cs.PoissonSolver(grid).solve(om)
    ur, _ = cs.reconstruct_velocity(psi, grid)
    assert np.all(ur[-1, :] == 0.0)


# -- physical conversion ----------------------------------------------------


def test_convert_physical_elliptic_residual():
    # -(d_rr + (1/r) d_r + d_zz - 1/r^2) psi^theta = omega^theta
    def resid(nr, nz):
        grid = cs.CylGrid(nr, nz, z_bc="dirichlet")
        import sympy as sp
        r, z = sp.symbols("r z")
        rm = grid.r_min
        psi1 = (1 - r) ** 2 * (r - rm) ** 2 * sp.sin(sp.pi * z / grid.z_len)
        om1 = -(sp.diff(psi1, r, 2) + 3 / r * sp.diff(psi1, r)
                + sp.diff(psi1, z, 2))
        R, Z = grid.mesh()
        psi1_g = sp.lambdify((r, z), psi1, "numpy")(R, Z)
        om1_g = sp.lambdify((r, z), om1, "numpy")(R, Z)
        omt, psit = om1_g * grid.r()[:, None], psi1_g * grid.r()[:, None]
        hr, hz = grid.hr, grid.hz
        rr = grid.r()[1:-1, None]
        lap = ((psit[2:, 1:-1] - 2 * psit[1:-1, 1:-1] + psit[:-2, 1:-1])
               / hr ** 2
               + (psit[2:, 1:-1] - psit[:-2, 1:-1]) / (2 * hr) / rr
               + (psit[1:-1, 2:] - 2 * psit[1:-1, 1:-1] + psit[1:-1, :-2])
               / hz ** 2
               - psit[1:-1, 1:-1] / rr ** 2)
        return float(np.max(np.abs(-lap - omt[1:-1, 1:-1])))

    e1, e2 = resid(17, 33), resid(33, 65)
    assert math.log2(e1 / e2) >= 1.9


# -- time stepping ----------------------------------------------------------


def test_zero_state_fixed_point():
    grid = cs.CylGrid(17, 16)
    state = cs.CylState(np.zeros((17, 16)), np.zeros((17, 16)),
                        np.zeros((17, 16)), 0.0)
    out = cs.step(state, 1e-3, solver=cs.PoissonSolver(grid), cfl=0.5)
    assert np.array_equal(out.u1, state.u1)
    assert np.array_equal(out.omega1, state.omega1)
    assert out.t == pytest.approx(1e-3)


def test_cfl_violation_raises():
    grid = cs.CylGrid(17, 16)
    r, z = grid.mesh()
    om = np.sin(np.pi * z / grid.z_len) * (1 - r) * (r - grid.r_min) * 100
    u = np.ones_like(om)
    solver = cs.PoissonSolver(grid)
    state = cs.CylState(u, om, solver.solve(om), 0.0)
    with pytest.raises(cs.CFLViolation):
        cs.step(state, 1.0, solver=solver, cfl=0.5)


def test_step_that_does_not_advance_t_raises():
    # at t = 1 a dt of 1e-20 is below the float spacing: t + dt == t
    grid = cs.CylGrid(9, 9)
    zeros = np.zeros((9, 9))
    state = cs.CylState(zeros, zeros, zeros, 1.0)
    with pytest.raises(cs.NumericalBlowup, match="no longer advances"):
        cs.step(state, 1e-20, solver=cs.PoissonSolver(grid), cfl=0.5)


def test_cfl_check_counts_the_swirl():
    # swirl_bump starts with omega1 = psi1 = 0: no meridional velocity, so
    # only max|u1| bounds the first step
    grid = cs.CylGrid(17, 16)
    u1, om = cli.initial_data("swirl_bump", grid)
    state = cs.CylState(u1, om, np.zeros_like(om), 0.0)
    with pytest.raises(cs.CFLViolation):
        cs.step(state, 0.5, solver=cs.PoissonSolver(grid), cfl=0.5)
    ur, uz = cs.reconstruct_velocity(state.psi1, grid)
    assert cs.max_speed(ur, uz, u1) == np.max(np.abs(u1))


def test_parity_preservation():
    # u1 even, omega1 odd in z stays that way (periodic)
    grid = cs.CylGrid(17, 32)
    r, z = grid.mesh()
    zs = np.pi * z / grid.z_len
    shape = (1 - r) * (r - grid.r_min)
    u = shape * np.cos(zs)
    om = shape * np.sin(zs)
    solver = cs.PoissonSolver(grid)
    state = cs.CylState(u, om, solver.solve(om), 0.0)
    flip = np.concatenate(([0], np.arange(grid.nz - 1, 0, -1)))
    for _ in range(5):
        state = cs.step(state, 1e-3, solver=solver, cfl=0.5)
    assert np.allclose(state.u1, state.u1[:, flip], atol=1e-12)
    assert np.allclose(state.omega1, -state.omega1[:, flip], atol=1e-12)


def test_swirl_integral_drift_refines():
    # periodic z, no forcing: the r^3-weighted swirl integral drift is O(h^2)
    def drift(nr, nz, steps, dt):
        grid = cs.CylGrid(nr, nz)
        r, z = grid.mesh()
        u = np.sin(np.pi * (r - grid.r_min) / (1 - grid.r_min)) \
            * np.cos(np.pi * z / grid.z_len)
        om = 0.3 * np.sin(np.pi * z / grid.z_len) \
            * np.sin(np.pi * (r - grid.r_min) / (1 - grid.r_min))
        solver = cs.PoissonSolver(grid)
        state = cs.CylState(u, om, solver.solve(om), 0.0)
        w = (r ** 3 * state.u1).sum() * grid.hr * grid.hz
        for _ in range(steps):
            state = cs.step(state, dt, solver=solver, cfl=0.5)
        w2 = (r ** 3 * state.u1).sum() * grid.hr * grid.hz
        return abs(w2 - w) / steps / dt

    d1 = drift(17, 32, 8, 2e-3)
    d2 = drift(33, 64, 8, 1e-3)
    assert d2 <= d1 / 2.5


def test_stepper_mms_convergence():
    import sympy as sp
    r, z, t = sp.symbols("r z t")
    rm, zl = 0.5, 1.0
    psi = sp.cos(t) * (1 - r) ** 2 * (r - rm) ** 2 * sp.sin(sp.pi * z / zl)
    u = sp.sin(t + 1) * sp.cos(sp.pi * z / zl) * sp.cos(sp.pi * (r - 0.75))
    om = -(sp.diff(psi, r, 2) + 3 / r * sp.diff(psi, r) + sp.diff(psi, z, 2))
    ur = -r * sp.diff(psi, z)
    uz = 2 * psi + r * sp.diff(psi, r)
    f_u = sp.diff(u, t) + ur * sp.diff(u, r) + uz * sp.diff(u, z) \
        - 2 * u * sp.diff(psi, z)
    f_om = sp.diff(om, t) + ur * sp.diff(om, r) + uz * sp.diff(om, z) \
        - sp.diff(u ** 2, z)
    fns = {name: sp.lambdify((r, z, t), expr, "numpy")
           for name, expr in [("u", u), ("om", om), ("fu", f_u),
                              ("fom", f_om)]}

    def error(nr, nz, dt, nsteps):
        grid = cs.CylGrid(nr, nz)
        R, Z = grid.mesh()
        om0 = fns["om"](R, Z, 0.0)
        solver = cs.PoissonSolver(grid)
        state = cs.CylState(fns["u"](R, Z, 0.0), om0, solver.solve(om0), 0.0)
        forcing = (lambda R, Z, tt: fns["fu"](R, Z, tt),
                   lambda R, Z, tt: fns["fom"](R, Z, tt))
        for _ in range(nsteps):
            state = cs.step(state, dt, forcing=forcing, solver=solver,
                            cfl=0.5)
        return float(np.max(np.abs(state.u1 - fns["u"](R, Z, state.t))))

    e1 = error(17, 32, 2e-3, 25)
    e2 = error(33, 64, 1e-3, 50)
    assert math.log2(e1 / e2) >= 1.9, (e1, e2)



def parity_state(grid, solver):
    r, z = grid.mesh()
    shape = (1 - r) * (r - grid.r_min)
    zs = np.pi * z / grid.z_len
    om = shape * np.sin(zs)
    return cs.CylState(shape * np.cos(zs), om, solver.solve(om), 0.0)


@pytest.mark.parametrize("z_bc", ["periodic", "dirichlet"])
def test_step_reuses_psi1_with_four_solves(z_bc, monkeypatch):
    grid = cs.CylGrid(17, 16, z_bc=z_bc)
    solver = cs.PoissonSolver(grid)
    state = cs.step(parity_state(grid, solver), 1e-3, solver=solver,
                    cfl=0.5)
    fresh = cs.CylState(state.u1, state.omega1, solver.solve(state.omega1),
                        state.t)
    assert np.array_equal(state.psi1, fresh.psi1)

    calls = []
    solve = solver.solve
    monkeypatch.setattr(solver, "solve",
                        lambda om, out=None: calls.append(1)
                        or solve(om, out=out))
    carried = cs.step(state, 1e-3, solver=solver, cfl=0.5)
    assert len(calls) == 4
    resolved = cs.step(fresh, 1e-3, solver=solver, cfl=0.5)
    for name in ("u1", "omega1", "psi1"):
        assert np.array_equal(getattr(carried, name),
                              getattr(resolved, name)), name


@pytest.mark.parametrize("z_bc", ["periodic", "dirichlet"])
def test_step_neither_writes_nor_shares_a_state(z_bc):
    # a step reads its state and returns new arrays; every other field it
    # uses lives in the solver's scratch set, which no state may share
    grid = cs.CylGrid(17, 16, z_bc=z_bc)
    solver = cs.PoissonSolver(grid)
    forcing = (lambda R, Z, t: t * R * np.cos(Z),
               lambda R, Z, t: t * np.sin(Z))
    s0 = parity_state(grid, solver)
    fields = ("u1", "omega1", "psi1")
    before0 = [getattr(s0, name).copy() for name in fields]
    s1 = cs.step(s0, 1e-3, forcing, solver=solver, cfl=0.5)
    before1 = [getattr(s1, name).copy() for name in fields]
    s2 = cs.step(s1, 1e-3, forcing, solver=solver, cfl=0.5)
    for state, before in ((s0, before0), (s1, before1)):
        for name, want in zip(fields, before):
            assert np.array_equal(getattr(state, name), want), name
    arrays = [getattr(s, name) for s in (s0, s1, s2) for name in fields]
    arrays += list(solver.work)
    for i, a in enumerate(arrays):
        for b in arrays[:i]:
            assert not np.shares_memory(a, b)


def live_peak_fields(fn, grid):
    """tracemalloc's peak of live allocations while fn runs, in fields of
    nr * nz doubles."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    base = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    try:
        fn()
        return (tracemalloc.get_traced_memory()[1] - base) \
            / (8 * grid.nr * grid.nz)
    finally:
        if started:
            tracemalloc.stop()


#: each memory bound allows this many fields over the peak measured when
#: it was set
FIELD_MARGIN = 2


@pytest.mark.parametrize("z_bc,measured", [("periodic", 5.1),
                                           ("dirichlet", 5.1)])
def test_step_live_peak(z_bc, measured):
    # after the first step has made the scratch set, a step allocates the
    # new state's three fields and a few temporaries (18.1 fields measured
    # when each stage and rate was a new array)
    grid = cs.CylGrid(65, 128, z_bc=z_bc)
    solver = cs.PoissonSolver(grid)
    state = cs.step(parity_state(grid, solver), 1e-3, solver=solver,
                    cfl=0.5)
    peak = live_peak_fields(
        lambda: cs.step(state, 1e-3, solver=solver, cfl=0.5), grid)
    assert peak <= measured + FIELD_MARGIN


def test_simulate_live_peak(tmp_path):
    # the run holds two states, the scratch set and the solver's tables
    # (21.3 fields measured; 29.3 with the initial fields, the dt velocity
    # and every stage a new array)
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("nr = 65\nnz = 256\nz_bc = dirichlet\nt_end = 0.01\n")
    argv = ["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]
    peak = live_peak_fields(lambda: cli.main(argv), cs.CylGrid(65, 256))
    assert peak <= 21.3 + FIELD_MARGIN


def test_step_forcing_once_per_stage_time():
    grid = cs.CylGrid(17, 16)
    solver = cs.PoissonSolver(grid)
    state = parity_state(grid, solver)
    times = {"u": [], "om": []}

    def force(name):
        def f(R, Z, t):
            times[name].append(t)
            return np.zeros_like(R)
        return f

    t0, dt = 0.25, 1e-3
    state.t = t0
    cs.step(state, dt, forcing=(force("u"), force("om")),
            solver=solver, cfl=0.5)
    for name in ("u", "om"):
        assert sorted(times[name]) == [t0, t0 + 0.5 * dt, t0 + dt], name

# -- oracles: the RHS and RK4 step written out as plain expressions ---------


def formula_rhs(u1, om, psi, grid, forcing_values):
    r = grid.r()[:, None]
    ur = -r * cs.d_z(psi, grid)
    uz = 2.0 * psi + r * cs.d_r(psi, grid)
    du = -ur * cs.d_r(u1, grid) - uz * cs.d_z(u1, grid) \
        + 2.0 * u1 * cs.d_z(psi, grid)
    dom = -ur * cs.d_r(om, grid) - uz * cs.d_z(om, grid) \
        + cs.d_z(u1 ** 2, grid)
    if forcing_values is not None:
        du = du + forcing_values[0]
        dom = dom + forcing_values[1]
    if grid.z_bc == "dirichlet":
        du[:, 0] = du[:, -1] = 0.0
        dom[:, 0] = dom[:, -1] = 0.0
    return du, dom, ur, uz


ORACLE_GRIDS = [(5, 5, "periodic"), (5, 5, "dirichlet"),
                (21, 24, "periodic"), (21, 24, "dirichlet"),
                (65, 128, "periodic"), (65, 128, "dirichlet"),
                (23, 41, "dirichlet")]


def random_fields(grid, seed):
    rng = np.random.default_rng(seed)
    u1, om, f_u, f_om = rng.standard_normal((4, grid.nr, grid.nz))
    return u1, om, cs.PoissonSolver(grid).solve(om), (f_u, f_om)


@pytest.mark.parametrize("nr,nz,z_bc", ORACLE_GRIDS)
def test_rhs_bit_identical_to_formula(nr, nz, z_bc):
    # r_min = 0.3 and z_len = 1.3 make hr and hz no powers of two
    grid = cs.CylGrid(nr, nz, r_min=0.3, z_len=1.3, z_bc=z_bc)
    u1, om, psi, forcing_values = random_fields(grid, nr * nz)
    for fv in (None, forcing_values):
        # out starts as NaN, so the equalities show every entry written
        got = cs._rhs(u1, om, psi, grid, fv,
                      np.full((6, grid.nr, grid.nz), np.nan))
        want = formula_rhs(u1, om, psi, grid, fv)
        for name, g, w in zip(("du", "dom", "ur", "uz"), got, want):
            assert np.array_equal(g, w), (name, fv is None)
    ur, uz = cs.reconstruct_velocity(psi, grid)
    assert np.array_equal(ur, want[2]) and np.array_equal(uz, want[3])


@pytest.mark.parametrize("z_bc", ["periodic", "dirichlet"])
def test_step_bit_identical_to_formula(z_bc):
    grid = cs.CylGrid(23, 41, r_min=0.3, z_len=1.3, z_bc=z_bc)
    solver = cs.PoissonSolver(grid)
    u, om, _, (f_u, f_om) = random_fields(grid, 3)
    state = cs.CylState(1e-2 * u, 1e-2 * om, solver.solve(1e-2 * om), 0.25)
    forcing = (lambda R, Z, t: t * f_u, lambda R, Z, t: t * f_om)
    dt = 1e-3
    for fn in (None, forcing):
        def rhs(u, om, psi, t):
            fv = None if fn is None else (fn[0](0, 0, t), fn[1](0, 0, t))
            return formula_rhs(u, om, psi, grid, fv)[:2]

        u, om, t = state.u1, state.omega1, state.t
        k1u, k1o = rhs(u, om, state.psi1, t)
        u2, om2 = u + 0.5 * dt * k1u, om + 0.5 * dt * k1o
        k2u, k2o = rhs(u2, om2, solver.solve(om2), t + 0.5 * dt)
        u3, om3 = u + 0.5 * dt * k2u, om + 0.5 * dt * k2o
        k3u, k3o = rhs(u3, om3, solver.solve(om3), t + 0.5 * dt)
        u4, om4 = u + dt * k3u, om + dt * k3o
        k4u, k4o = rhs(u4, om4, solver.solve(om4), t + dt)
        u_new = u + dt / 6.0 * (k1u + 2 * k2u + 2 * k3u + k4u)
        om_new = om + dt / 6.0 * (k1o + 2 * k2o + 2 * k3o + k4o)

        got = cs.step(state, dt, forcing=fn, solver=solver, cfl=0.5)
        assert got.t == t + dt
        assert np.array_equal(got.u1, u_new)
        assert np.array_equal(got.omega1, om_new)
        assert np.array_equal(got.psi1, solver.solve(om_new))


# -- blow-up diagnostics ----------------------------------------------------


def synthetic_series(T=1.0, gamma=0.4, n=20, noise=None, rng=None):
    # max|omega1| = tau^-1, delta = tau^gamma and the ansatz's swirl
    # max|u1| = tau^(-1 + gamma/2)
    s = cs.BlowupSeries()
    t = np.linspace(0.2, T - 1e-3, n)
    M = (T - t) ** -1.0
    U = (T - t) ** (-1.0 + gamma / 2)
    d = (T - t) ** gamma
    if noise is not None:
        M = M * (1.0 + noise * rng.standard_normal(n))
        d = d * (1.0 + noise * rng.standard_normal(n))
        M = np.maximum.accumulate(np.abs(M)) + 1e-6 * np.arange(n)
    s.t = list(t)
    s.max_omega1 = list(M)
    s.max_u1 = list(U)
    s.delta = list(np.abs(d))
    s.box = [(0.0, dd, 0.0, dd) for dd in d]
    return s


def test_track_blowup_exact_series():
    fit = cs.track_blowup(synthetic_series())
    assert abs(fit.T_fit - 1.0) <= 1e-6
    assert abs(fit.gamma_fit - 0.4) <= 1e-3
    # a window compared with its own slope would read 0.4 here
    assert fit.window.tag == "shrinks_selfsimilar"
    assert abs(fit.window.ratio_slope) <= 1e-6
    assert fit.window.delta_decays


def swirl_series(u_rate, delta):
    # max|omega1| = tau^-1, max|u1| = tau^-u_rate, window delta(tau)
    s = synthetic_series()
    tau = 1.0 - np.asarray(s.t)
    s.max_u1 = list(tau ** -u_rate)
    s.delta = list(delta(tau))
    return s


@pytest.mark.parametrize("u_rate, delta, tag, slope, decays", [
    # u1 ~ tau^-0.8 implies gamma = 2 (1 - 0.8) = 0.4
    (0.8, lambda tau: tau ** 0.4, "shrinks_selfsimilar", 0.0, True),
    (0.8, lambda tau: np.full_like(tau, 0.3), "wider_than_selfsimilar",
     -0.4, False),
    # u1 ~ tau^-0.6 implies gamma = 0.8, a faster shrink than tau^0.4
    (0.6, lambda tau: tau ** 0.4, "wider_than_selfsimilar", -0.4, True),
], ids=["selfsimilar", "constant-width", "slower-than-swirl"])
def test_track_blowup_window_against_swirl_gamma(u_rate, delta, tag, slope,
                                                 decays):
    fit = cs.track_blowup(swirl_series(u_rate, delta))
    assert fit.window.tag == tag
    assert fit.window.ratio_slope == pytest.approx(slope, abs=1e-6)
    assert fit.window.delta_decays is decays


@pytest.mark.parametrize("field, leading", [
    ("U", (-1, Fraction(1, 3))), ("Omega", (-2, 0))], ids=["U", "Omega"])
def test_track_blowup_reads_its_rates_off_the_ansatz(field, leading,
                                                     monkeypatch):
    # an exact series of a changed LEADING entry: u1 ~ tau^(-1 + gamma/3),
    # which a hard-coded gamma_swirl = 2 (1 + s) would read as 2 gamma/3,
    # or omega1 ~ tau^-2, which a hard-coded rate 1 would misplace T for
    monkeypatch.setitem(hierarchy.LEADING, field, exponent(*leading))
    gamma, T = 0.4, 1.0
    s = synthetic_series(T, gamma)
    tau = T - np.asarray(s.t)
    e = hierarchy.LEADING[field]
    power = list(tau ** float(e.base + e.gamma_coeff * Fraction(gamma)))
    if field == "U":
        s.max_u1 = power
    else:
        s.max_omega1 = power
    fit = cs.track_blowup(s)
    assert fit.rate == -e.base
    assert abs(fit.T_fit - T) <= 1e-6
    assert fit.amplitude == pytest.approx(1.0, rel=1e-6)
    assert fit.window.tag == "shrinks_selfsimilar"
    assert fit.window.ratio_slope == pytest.approx(0.0, abs=1e-6)


def test_track_blowup_window_indeterminate_without_swirl():
    s = swirl_series(0.8, lambda tau: tau ** 0.4)
    s.max_u1[3] = 0.0
    fit = cs.track_blowup(s)
    assert fit.window.tag == "indeterminate"
    assert abs(fit.gamma_fit - 0.4) <= 1e-3


def test_track_blowup_window_indeterminate_with_few_window_samples():
    # the window needs 4 positive finite delta samples; gamma_fit needs 2
    for kept, tag in ((3, "indeterminate"), (4, "shrinks_selfsimilar")):
        s = synthetic_series()
        s.delta = [math.nan] * (20 - kept) + s.delta[20 - kept:]
        fit = cs.track_blowup(s)
        assert fit.window.tag == tag
        assert abs(fit.gamma_fit - 0.4) <= 1e-3


def test_track_blowup_rejects_constant():
    s = synthetic_series()
    s.max_omega1 = [1.0] * len(s.t)
    with pytest.raises(cs.FitRejected):
        cs.track_blowup(s)


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_track_blowup_rejects_non_finite_vorticity(value):
    # a NaN passed the growth check and was reported as a blow-up time
    # beyond the search bracket
    s = synthetic_series()
    s.max_omega1[5 if math.isnan(value) else -1] = value
    with pytest.raises(cs.FitRejected, match="finite"):
        cs.track_blowup(s)


def test_track_blowup_rejects_short():
    s = synthetic_series(n=5)
    with pytest.raises(cs.FitRejected):
        cs.track_blowup(s)


def edge_series():
    # max|omega1| = 1 + 0.001 t grows so slowly that the line through
    # 1/max|omega1| has its root near t = 1000, beyond t_last + 10 span
    s = synthetic_series(n=11)
    s.t = list(np.linspace(0.0, 1.0, 11))
    s.max_omega1 = [1.0 + 1e-3 * t for t in s.t]
    return s


def test_track_blowup_rejects_bracket_edge():
    with pytest.raises(cs.FitRejected, match="beyond"):
        cs.track_blowup(edge_series())


def test_track_blowup_rejects_root_at_last_sample():
    # T - t_last = 1e-8 is below half the float spacing at t = 1e9, so the
    # fitted T rounds to t_last, where log(T - t) is -inf; a bracketed
    # search instead returned its lower end, t_last + 1e-3
    s = synthetic_series(n=6)
    k = np.arange(6.0)
    s.t = list(1e9 + k)
    s.max_omega1 = list(1.0 / (5.0 + 1e-8 - k))
    with pytest.raises(cs.FitRejected, match="no root after t_last"):
        cs.track_blowup(s)


def test_track_blowup_large_sample_times():
    # near t = 1e9 the float spacing (1.2e-7) is coarser than 1e-9; the
    # line is fitted in t - t_last, so T keeps that spacing's accuracy
    s = synthetic_series()
    s.t = [1e9 + t for t in s.t]
    fit = cs.track_blowup(s)
    assert abs(fit.T_fit - (1e9 + 1.0)) <= 1e-6
    assert abs(fit.gamma_fit - 0.4) <= 1e-3


def test_track_blowup_noise_monte_carlo():
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(100):
        s = synthetic_series(n=40, noise=0.01, rng=rng)
        fit = cs.track_blowup(s)
        worst = max(worst, abs(fit.gamma_fit - 0.4) / 0.4)
    assert worst <= 0.05, worst


def test_track_blowup_line_fit_matches_log_residual_minimum():
    # the line fit against a bounded scalar minimum of the log fit's
    # residual Var(log M + a log(T - t)) over (t_last, t_last + 10 span),
    # on the Monte Carlo's 100 noisy series
    from scipy.optimize import minimize_scalar

    rng = np.random.default_rng(101)
    for _ in range(100):
        s = synthetic_series(n=40, noise=0.01, rng=rng)
        fit = cs.track_blowup(s)
        t, log_M = np.asarray(s.t), np.log(s.max_omega1)

        def resid(T):
            return float(np.var(log_M + fit.rate * np.log(T - t)))

        span = t[-1] - t[0]
        oracle = minimize_scalar(resid, method="bounded",
                                 bounds=(t[-1], t[-1] + 10 * span),
                                 options={"xatol": 1e-10})
        assert resid(fit.T_fit) <= 1.001 * oracle.fun
        assert abs(fit.T_fit - oracle.x) <= 1e-5


def test_series_strictly_increasing_times():
    grid = cs.CylGrid(9, 8)
    s = cs.BlowupSeries()
    st = cs.CylState(np.ones((9, 8)), np.ones((9, 8)), np.zeros((9, 8)), 0.5)
    s.append_sample(st, grid)
    with pytest.raises(ValueError):
        s.append_sample(st, grid)


def test_dinf_scale_invariance():
    grid = cs.CylGrid(33, 64)
    r, z = grid.mesh()
    om = np.exp(-((r - 0.75) ** 2 + z ** 2) / 0.01)
    s1, s2 = cs.BlowupSeries(), cs.BlowupSeries()
    s1.append_sample(cs.CylState(om, om, om, 0.0), grid)
    s2.append_sample(cs.CylState(om, 7.0 * om, om, 0.0), grid)
    assert s1.box[0] == s2.box[0]
    assert s1.delta[0] == s2.delta[0]


def test_series_csv_round_trip(tmp_path):
    # series.csv as `ssblow simulate` writes it and `ssblow fit` reads it
    s = synthetic_series(n=8)
    path = tmp_path / "series.csv"
    cli._write_series(path, s)
    header = path.read_text().splitlines()[0]
    assert header == ("t,max_omega1,max_u1,delta,box_rmin,box_rmax,"
                      "box_zmin,box_zmax")
    rows = np.loadtxt(path, delimiter=",", skiprows=1)
    assert rows.shape == (8, 8)
    assert np.allclose(rows[:, 0], s.t)
    back = cli._load_series(path)
    for name in ("t", "max_omega1", "max_u1", "delta", "box"):
        assert getattr(back, name) == getattr(s, name)


# -- energy scaling ---------------------------------------------------------


def test_energy_scaling_gamma_two():
    rep = rg.energy_scaling(2.0, (1.0, 4.0))
    assert rep.mean_swirl_exp == pytest.approx(0.0)
    assert rep.mean_gradpsi_exp == pytest.approx(1.0)
    assert rep.swirl_pointwise_exp == pytest.approx(0.0)
    assert rep.gradpsi_pointwise_exp == pytest.approx(0.5)
    assert rep.swirl_decay == "borderline"
    assert rep.gradpsi_sublinear


def test_energy_scaling_reference_rate():
    rep = rg.energy_scaling(rg.REFERENCE_GAMMA)
    assert rep.swirl_pointwise_exp == pytest.approx(0.5 - 1 / 2.91)
    assert rep.swirl_decay == "does_not_apply"
    assert rep.note == rg.NON_REPRODUCIBILITY_NOTE


def test_energy_scaling_small_gamma_decays():
    rep = rg.energy_scaling(1.0, (2.0,))
    assert rep.swirl_pointwise_exp == pytest.approx(-0.5)
    assert rep.swirl_decay == "decays"
    assert rep.bounds == ((2.0, 2.0 ** -0.5),)
    with pytest.raises(ValueError):
        rg.energy_scaling(0.0)


# -- 1D demo ----------------------------------------------------------------


def test_demo_1d_periodic_bounded():
    rep = cs.demo_1d("periodic", 64, 0.3)
    assert not rep.blowup_suspected
    assert rep.crossing_time is None
    assert np.max(rep.max_ux) < 10.0


@pytest.mark.parametrize("n", [8, 12, 16, 24, 32, 48, 64, 100, 128, 256])
def test_demo_1d_periodic_stability_bound(n):
    # sin data scaled to the bound 4 g0^3 h = 2 on the initial discrete
    # max|u_x| g0: just below it the gradient never rises above its first
    # sample; just above it the data is rejected
    x = np.arange(n) / n
    s = np.sin(2 * np.pi * x)
    g1 = float(np.max(np.abs(np.diff(np.r_[s[-1], s])))) * n
    edge = (0.5 * n) ** (1 / 3) / g1
    rep = cs.demo_1d("periodic", n, 0.05, edge * (1 - 1e-9))
    assert not rep.blowup_suspected
    assert np.max(rep.max_ux) == rep.max_ux[0]
    with pytest.raises(ValueError, match="unstable"):
        cs.demo_1d("periodic", n, 0.05, edge * (1 + 1e-9))


def test_demo_1d_constant_steady_state():
    n = 32
    rep = cs.demo_1d("periodic", n, 0.05, u0=np.full(n, 0.7))
    assert np.max(rep.max_ux) <= 1e-14
    assert not rep.blowup_suspected


def test_demo_1d_dirichlet_blows_up():
    rep = cs.demo_1d("dirichlet", 256, 0.05)
    assert rep.blowup_suspected
    assert rep.crossing_time is not None
    assert np.max(rep.max_ux) > 1e3


def test_demo_1d_rejects_unknown_bc():
    with pytest.raises(ValueError):
        cs.demo_1d("open", 32, 0.1)


def test_demo_csv(tmp_path):
    # demo1d.csv as `ssblow demo-1d` writes it
    rep = cs.demo_1d("periodic", 32, 0.05)
    assert cli.main(["demo-1d", "--n", "32", "--t-end", "0.05",
                     "--out", str(tmp_path)]) == 0
    path = tmp_path / "demo1d.csv"
    rows = np.loadtxt(path, delimiter=",", skiprows=1)
    assert rows.shape[1] == 2
    assert np.array_equal(rows, np.column_stack([rep.times, rep.max_ux]))


def test_demo_1d_restores_error_state_on_exception(monkeypatch):
    before = np.geterr()

    def boom(*args, **kwargs):
        raise RuntimeError("stop inside the time loop")

    monkeypatch.setattr(cs.np, "isfinite", boom)
    with pytest.raises(RuntimeError, match="time loop"):
        cs.demo_1d("periodic", 16, 0.01)
    assert np.geterr() == before


def reference_demo_1d(bc, n, t_end, u0=None, threshold=1e3,
                      sample_every=50):
    """The np.roll / ** 4 formulation of demo_1d's loop, one allocating
    expression per stencil, with the same sampling and stopping rules."""
    amplitude = 0.25 if bc == "periodic" else 2.0
    h = 1.0 / n
    if bc == "periodic":
        u = np.asarray(u0, float).copy()
    else:
        x = np.linspace(0.0, 1.0, n + 1)
        s = 0.05
        u = amplitude * (np.sqrt(x + s) - math.sqrt(s)) \
            / (math.sqrt(1 + s) - math.sqrt(s))
        u[0], u[-1] = 0.0, amplitude
    dt = 0.4 * h * h
    nsteps = int(math.ceil(t_end / dt))
    times, history, crossing, aborted = [], [], None, False
    t, stride = 0.0, sample_every
    with np.errstate(all="ignore"):
        for istep in range(nsteps):
            if bc == "periodic":
                up, um = np.roll(u, -1), np.roll(u, 1)
                ux = (up - um) / (2 * h)
                u = u + dt * ((up - 2 * u + um) / h ** 2 - ux ** 4)
            else:
                uxx = (u[2:] - 2 * u[1:-1] + u[:-2]) / h ** 2
                ux = (u[2:] - u[:-2]) / (2 * h)
                u[1:-1] += dt * (uxx - ux ** 4)
            t += dt
            if istep % stride == 0 or istep == nsteps - 1:
                if not np.all(np.isfinite(u)):
                    aborted = True
                    crossing = t if crossing is None else crossing
                    break
                d = np.diff(u) if bc == "dirichlet" else u - np.roll(u, 1)
                g = float(np.max(np.abs(d))) / h
                if history and g > 1.2 * history[-1]:
                    stride = 1
                times.append(t)
                history.append(g)
                if crossing is None and g >= threshold:
                    crossing = t
                if crossing is not None and g >= 10 * threshold:
                    break
    return np.asarray(times), np.asarray(history), crossing, aborted


@pytest.mark.parametrize("bc,n,t_end", [("periodic", 48, 0.2),
                                        ("dirichlet", 300, 0.05)])
def test_demo_1d_matches_roll_reference(bc, n, t_end):
    # n is not a power of two, so 1/h^2 and 1/(2h) are inexact
    x = np.arange(n) / n
    u0 = 0.15 * np.sin(2 * np.pi * x) + 0.02 * np.cos(6 * np.pi * x) \
        if bc == "periodic" else None
    times, max_ux, crossing, aborted = reference_demo_1d(bc, n, t_end, u0)
    rep = cs.demo_1d(bc, n, t_end, u0=u0)
    assert np.array_equal(rep.times, times)
    assert rep.crossing_time == crossing
    assert rep.aborted == aborted
    assert rep.blowup_suspected == (crossing is not None or aborted)
    assert rep.blowup_suspected == (bc == "dirichlet")
    below = max_ux < 1e3
    assert below.sum() > 10
    np.testing.assert_allclose(rep.max_ux[below], max_ux[below],
                               rtol=1e-12, atol=0)


@pytest.mark.parametrize("kwargs", [
    {"t_end": math.inf}, {"t_end": math.nan}, {"t_end": 0.0},
    {"t_end": -1.0}, {"amplitude": math.nan}, {"amplitude": math.inf},
    {"u0": np.full(32, np.nan)}, {"u0": np.zeros(33)},
    {"bc": "dirichlet", "u0": np.zeros(32)},
    {"bc": "dirichlet", "u0": np.r_[0.0, np.inf, np.zeros(31)]},
    {"n": 1},
], ids=["t_end-inf", "t_end-nan", "t_end-zero", "t_end-negative",
        "amplitude-nan", "amplitude-inf", "u0-nan", "u0-periodic-length",
        "u0-dirichlet-length", "u0-dirichlet-inf", "n-one"])
def test_demo_1d_rejects_bad_input(kwargs):
    args = {"bc": "periodic", "n": 32, "t_end": 0.01, **kwargs}
    with pytest.raises(ValueError):
        cs.demo_1d(**args)


# -- grid guards ------------------------------------------------------------


def test_cyl_grid_validation():
    with pytest.raises(ValueError):
        cs.CylGrid(9, 8, r_min=0.0)
    with pytest.raises(ValueError):
        cs.CylGrid(9, 8, z_bc="open")
    with pytest.raises(ValueError):
        cs.CylGrid(3, 8)
    g = cs.CylGrid(11, 10, r_min=0.5)
    assert g.hr == pytest.approx(0.05)
    assert g.r()[0] == 0.5 and g.r()[-1] == 1.0


@pytest.mark.parametrize("z_len", [0.0, -1.0, math.inf, math.nan])
def test_cyl_grid_rejects_bad_z_len(z_len):
    with pytest.raises(ValueError, match="z_len"):
        cs.CylGrid(9, 8, z_len=z_len)
