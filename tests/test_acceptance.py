"""Acceptance gate: one criterion per test, each emitting a single
PASS/FAIL line with its measured quantities and runtime."""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from ssblow import cylsim as cs
from ssblow import hierarchy as hy
from ssblow import rigidity as rg
from ssblow.sscalc import collect_orders, expr_to_json, lattice_base
from sympy_oracle import exp_profiles, truncation_errors


def report(name, ok, detail):
    line = f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line, flush=True)
    assert ok, line


def verdict(rep, equation, order):
    """The report's verdict on one equation at one order."""
    (v,) = [v for v in rep.verdicts
            if (v.equation, v.order) == (equation, order)]
    return v


def test_acceptance_1_hierarchy_reproduction():
    t0 = time.monotonic()
    single = hy.derive_hierarchy(hy.AnsatzSpec(mode="single", depth=1))
    want_single = {("u", 0): "match", ("u", 1): "match",
                   ("omega", 0): "match", ("omega", 1): "match",
                   ("psi", 0): "match", ("psi", 1): "equivalent_zero_set"}
    ok = all(verdict(single, eq, k).status == s
             for (eq, k), s in want_single.items())
    gen = hy.derive_hierarchy(hy.AnsatzSpec(mode="generalized", depth=1))
    want_gen = {("u", 0): "match", ("u", 1): "match",
                ("omega", 0): "match", ("omega", 1): "match",
                ("psi", 0): "match", ("psi", 1): "mismatch"}
    ok &= all(verdict(gen, eq, k).status == s
              for (eq, k), s in want_gen.items())
    ok &= verdict(gen, "psi", 1).documented
    ok &= verdict(single, "psi", 1).ratio == Fraction(-3)
    dt = time.monotonic() - t0
    ok &= dt < 1.0
    report("1 hierarchy-reproduction", ok,
           f"12 verdicts checked, runtime {dt:.2f}s < 1s")


def test_acceptance_2_numeric_order_collection():
    t0 = time.monotonic()
    rng = np.random.default_rng(2024)
    a = hy.AnsatzSpec(mode="single", depth=1)
    M = 1
    eqs = hy.substitute(a, M)
    taus = np.array([1e-2, 1e-3, 1e-4, 1e-5])
    worst_margin = math.inf
    checked = 0
    for gamma in (0.5, 1.0, 2.0, 3.0):
        profiles = exp_profiles(rng)
        point = (float(rng.uniform(-1.0, -0.3)),
                 float(rng.uniform(0.3, 1.0)))
        for eq in eqs:
            base0 = lattice_base(eq)
            kept = {k: expr_to_json(v.lhs)
                    for k, v in collect_orders(eq).items() if k <= M}
            # against the PDE residual with its 3/r factor exact
            errs = truncation_errors(eq.label, kept, (base0.base,
                                     base0.gamma_coeff), profiles, point,
                                     gamma, taus)
            if max(errs) < 1e-13:
                continue  # truncation exact for this equation
            slope = float(np.polyfit(np.log(taus),
                                     np.log(np.maximum(errs, 1e-300)), 1)[0])
            want = float(base0.base) + float(base0.gamma_coeff) * gamma \
                + (M + 1) * gamma
            worst_margin = min(worst_margin, slope - (want - 0.1))
            checked += 1
    dt = time.monotonic() - t0
    ok = worst_margin >= 0 and checked > 0 and dt < 10.0
    report("2 order-collection-oracle", ok,
           f"{checked} slopes, worst margin {worst_margin:+.3f}, "
           f"runtime {dt:.2f}s < 10s")


def test_acceptance_3_triviality_sweep():
    t0 = time.monotonic()
    gammas = [Fraction(2, 5), Fraction(1, 2), Fraction(1), Fraction(2),
              2.91, Fraction(4)]
    ok = True
    zero_cases = []
    for gamma in gammas:
        for k in range(6):
            for field in ("U", "Omega"):
                v = rg.classify_triviality(gamma, k, field)
                ok &= v.conclusion == "trivial_under_decay"
                if v.case == "zero_coefficient_ray_constant":
                    zero_cases.append((gamma, k, field))
    # the zero-coefficient branch is exactly gamma = 2/(2k+1) for U
    # (gamma = 2 at k = 0) and gamma = 1/k for Omega
    expect = set()
    for gamma in gammas:
        if isinstance(gamma, float):
            continue
        for k in range(6):
            if 1 - gamma / 2 - k * gamma == 0:
                expect.add((gamma, k, "U"))
            if 1 - k * gamma == 0:
                expect.add((gamma, k, "Omega"))
    ok &= set(zero_cases) == expect
    ok &= (Fraction(2), 0, "U") in expect
    ok &= all((Fraction(1, k), k, "Omega") in expect
              for k in (1, 2) if Fraction(1, k) in gammas)
    dt = time.monotonic() - t0
    ok &= dt < 1.0
    report("3 triviality-sweep", ok,
           f"72 verdicts trivial_under_decay, zero-coefficient at "
           f"{sorted(str(c) for c in zero_cases)}, runtime {dt:.2f}s < 1s")


def test_acceptance_4_ibp_identity():
    t0 = time.monotonic()
    grid = rg.HalfPlaneGrid(nR=401, nZ=801)

    def compact(R, Z):
        # compactly supported bump with analytic gradient, inside sigma = 1
        rho2 = ((R + 5.0) ** 2 + Z ** 2) / 9.0
        inside = rho2 < 1.0
        denom = np.where(inside, 1.0 - rho2, 1.0)
        Uv = np.where(inside, np.exp(-1.0 / denom), 0.0)
        chain = np.where(inside, Uv / denom ** 2, 0.0)
        return Uv, (-2.0 * (R + 5.0) / 9.0 * chain, -2.0 * Z / 9.0 * chain)

    def gaussian(R, Z):
        Ug = np.exp(-((R + 4.0) ** 2 + Z ** 2) / 8.0)
        return Ug, (-(R + 4.0) / 4.0 * Ug, -Z / 4.0 * Ug)

    def fields(bump, eps):
        def on_mesh(R, Z):
            # the gradient of Psi = (R^2 + eps Z) exp(-|Y|^2 / 50)
            e = np.exp(-(R ** 2 + Z ** 2) / 50.0)
            grad_psi = ((2.0 * R - (R ** 2 + eps * Z) * 2.0 * R / 50.0) * e,
                        (eps - (R ** 2 + eps * Z) * 2.0 * Z / 50.0) * e)
            return (*bump(R, Z), grad_psi)
        return on_mesh

    res = rg.ibp_identity_check(grid, fields(compact, 0.0), 2.0)
    err = abs(res.lhs - res.rhs)
    tol = 1e-6 * max(abs(res.lhs), 1.0)
    ok = err <= tol and abs(res.boundary_term) <= 1e-8

    # boundary-condition violation: the flux must scale linearly in eps
    flux = {}
    for eps in (1e-2, 1e-3):
        flux[eps] = rg.ibp_identity_check(grid, fields(gaussian, eps),
                                          2.0).boundary_term
    ratio = flux[1e-2] / flux[1e-3]
    ok &= abs(ratio - 10.0) <= 2.0
    dt = time.monotonic() - t0
    ok &= dt < 30.0
    report("4 ibp-identity", ok,
           f"|lhs-rhs|={err:.2e} <= {tol:.2e}, boundary="
           f"{res.boundary_term:.1e} <= 1e-8, eps-ratio {ratio:.2f} in "
           f"[8,12], runtime {dt:.1f}s < 30s")


def test_acceptance_5_solver_convergence():
    import sympy as sp
    t0 = time.monotonic()
    r, z, t = sp.symbols("r z t")
    rm, zl = 0.5, 1.0

    psi_e = (1 - r) ** 2 * (r - rm) ** 2 * sp.sin(sp.pi * z / zl)
    om_e = -(sp.diff(psi_e, r, 2) + 3 / r * sp.diff(psi_e, r)
             + sp.diff(psi_e, z, 2))
    psi_fn = sp.lambdify((r, z), psi_e, "numpy", cse=True)
    om_fn = sp.lambdify((r, z), om_e, "numpy", cse=True)

    def poisson_err(nr, nz):
        grid = cs.CylGrid(nr, nz)
        R, Z = grid.mesh()
        psi = cs.PoissonSolver(grid).solve(om_fn(R, Z))
        return float(np.max(np.abs(psi - psi_fn(R, Z))))

    pe = [poisson_err(nr, nz)
          for nr, nz in ((65, 128), (129, 256), (257, 512))]
    p_orders = [math.log2(pe[i] / pe[i + 1]) for i in range(2)]
    ok = all(o >= 1.9 for o in p_orders)

    # psi = cos(t) psi_e and u = sin(t + 1) V, so omega = cos(t) om_e and
    # the velocity is cos(t) (a_r, a_z); each forcing is then a sum of
    # time factors times spatial fields, evaluated once per grid:
    # f_u = cos(t + 1) V + cos(t) sin(t + 1) (a.grad V - 2 V d_z psi_e)
    # f_om = -sin(t) om_e + cos(t)^2 a.grad om_e - sin(t + 1)^2 d_z(V^2)
    V = sp.cos(sp.pi * z / zl) * sp.cos(sp.pi * (r - 0.75))
    a_r, a_z = -r * sp.diff(psi_e, z), 2 * psi_e + r * sp.diff(psi_e, r)
    spatial = sp.lambdify((r, z), [
        V, om_e,
        a_r * sp.diff(V, r) + a_z * sp.diff(V, z)
        - 2 * V * sp.diff(psi_e, z),
        a_r * sp.diff(om_e, r) + a_z * sp.diff(om_e, z),
        sp.diff(V ** 2, z)], "numpy", cse=True)

    wall_ok = True

    def stepper_err(nr, nz, dt_step, nsteps):
        nonlocal wall_ok
        grid = cs.CylGrid(nr, nz)
        R, Z = grid.mesh()
        Vg, om0, adv_u, adv_om, dz_v2 = spatial(R, Z)
        solver = cs.PoissonSolver(grid)
        state = cs.CylState(math.sin(1.0) * Vg, om0, solver.solve(om0), 0.0)
        forcing = (
            lambda R, Z, tt: math.cos(tt + 1) * Vg
            + math.cos(tt) * math.sin(tt + 1) * adv_u,
            lambda R, Z, tt: -math.sin(tt) * om0
            + math.cos(tt) ** 2 * adv_om - math.sin(tt + 1) ** 2 * dz_v2)
        for _ in range(nsteps):
            state = cs.step(state, dt_step, forcing=forcing,
                            solver=solver, cfl=0.5)
            ur, _ = cs.reconstruct_velocity(state.psi1, grid)
            wall_ok &= bool(np.all(ur[-1, :] == 0.0))
        return float(np.max(np.abs(state.u1 - math.sin(state.t + 1) * Vg)))

    se = [stepper_err(65, 128, 2e-3, 25),
          stepper_err(129, 256, 1e-3, 50),
          stepper_err(257, 512, 5e-4, 100)]
    s_orders = [math.log2(se[i] / se[i + 1]) for i in range(2)]
    ok &= all(o >= 1.9 for o in s_orders)
    ok &= wall_ok
    dt = time.monotonic() - t0
    ok &= dt < 300.0
    report("5 solver-convergence", ok,
           f"poisson orders {p_orders[0]:.2f}/{p_orders[1]:.2f}, stepper "
           f"orders {s_orders[0]:.2f}/{s_orders[1]:.2f} (>= 1.9), "
           f"u^r(r=1) identically 0: {wall_ok}, runtime {dt:.0f}s < 300s")


def test_acceptance_6_blowup_fitting():
    t0 = time.monotonic()
    T, gamma = 1.0, 0.4
    tgrid = np.linspace(0.2, T - 1e-3, 40)

    def series(M, d):
        # the ansatz's swirl, max|u1| = tau^(-1 + gamma/2)
        s = cs.BlowupSeries()
        s.t = list(tgrid)
        s.max_omega1 = list(M)
        s.max_u1 = list((T - tgrid) ** (-1.0 + gamma / 2))
        s.delta = list(d)
        s.box = [(0.0, x, 0.0, x) for x in d]
        return s

    fit = cs.track_blowup(series((T - tgrid) ** -1.0, (T - tgrid) ** gamma))
    T_err = abs(fit.T_fit - T)
    g_err = abs(fit.gamma_fit - gamma)
    window = fit.window
    ok = T_err <= 1e-6 and g_err <= 1e-3
    ok &= window.tag == "shrinks_selfsimilar"
    ok &= abs(window.ratio_slope) <= 1e-6

    rng = np.random.default_rng(606)
    worst = 0.0
    for _ in range(100):
        M = (T - tgrid) ** -1.0 * (1 + 0.01 * rng.standard_normal(40))
        M = np.maximum.accumulate(np.abs(M)) + 1e-6 * np.arange(40)
        d = (T - tgrid) ** gamma * (1 + 0.01 * rng.standard_normal(40))
        f = cs.track_blowup(series(M, np.abs(d)))
        worst = max(worst, abs(f.gamma_fit - gamma) / gamma)
    ok &= worst <= 0.05
    dt = time.monotonic() - t0
    ok &= dt < 10.0
    report("6 blowup-fitting", ok,
           f"T err {T_err:.1e} <= 1e-6, gamma err {g_err:.1e} <= 1e-3, "
           f"window {window.tag} with ratio slope "
           f"{window.ratio_slope:.1e} (|.| <= 1e-6), "
           f"noisy MC worst {worst:.3f} <= 0.05, runtime {dt:.1f}s < 10s")


def test_acceptance_7_demo_1d():
    t0 = time.monotonic()
    maxima = []
    for n in (32, 64, 128):
        rep = cs.demo_1d("periodic", n, 1.0)
        assert not rep.blowup_suspected
        maxima.append(float(np.max(rep.max_ux)))
    spread = max(maxima) / min(maxima)
    ok = spread < 2.0

    crossings = []
    for n in (512, 1024, 2048):
        rep = cs.demo_1d("dirichlet", n, 0.05)
        ok &= rep.blowup_suspected
        ok &= float(np.max(rep.max_ux)) > 1e3
        crossings.append(rep.crossing_time)
    mid = crossings[1]
    ok &= all(abs(c - mid) / mid <= 0.10 for c in crossings)
    dt = time.monotonic() - t0
    ok &= dt < 60.0
    report("7 boundary-demo", ok,
           f"periodic max|u_x| spread {spread:.3f}x < 2x, dirichlet "
           f"crossings {[f'{c:.5f}' for c in crossings]} within 10%, "
           f"runtime {dt:.1f}s < 60s")


def test_acceptance_8_non_reproducibility_statement():
    t0 = time.monotonic()
    note = rg.NON_REPRODUCIBILITY_NOTE
    ok = "2.91" in note and "not" in note.lower()
    rep = rg.energy_scaling(rg.REFERENCE_GAMMA)
    ok &= rep.note == note
    # scaling arithmetic at the reference rate, checked exactly
    ok &= abs(rep.swirl_pointwise_exp - (0.5 - 1.0 / 2.91)) < 1e-15
    ok &= round(rep.swirl_pointwise_exp, 3) == 0.156
    ok &= rep.swirl_decay == "does_not_apply"
    ok &= abs(rep.mean_swirl_exp - (1.0 - 2.0 / 2.91)) < 1e-15
    ok &= abs(rep.mean_gradpsi_exp - (2.0 - 2.0 / 2.91)) < 1e-15
    ok &= abs(rep.gradpsi_pointwise_exp - (1.0 - 1.0 / 2.91)) < 1e-15
    dt = time.monotonic() - t0
    report("8 non-reproducibility-statement", ok,
           f"reference rate 2.91 declared non-target; exponent "
           f"{rep.swirl_pointwise_exp:.3f} = 0.156 verified, "
           f"runtime {dt:.2f}s")
