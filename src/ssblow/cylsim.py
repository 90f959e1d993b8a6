"""Desk-scale solver for the transformed axisymmetric swirl system on a
near-boundary cylinder slab, with self-similar blow-up diagnostics and
the 1D boundary-condition demo.

The slab is r in [r_min, 1] with r_min > 0 (no axis treatment), z in
[-z_len, z_len] with periodic or homogeneous Dirichlet ends.  The
stream function is gauged to zero on r = 1, which enforces u^r = 0 on
the boundary circle exactly.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field as dc_field
from typing import Optional

import numpy as np

from .elliptic import KroneckerSolver
from .gridio import ScalarField2D, diff1, diff2


class CFLViolation(RuntimeError):
    pass


class NumericalBlowup(RuntimeError):
    pass


class FitRejected(ValueError):
    pass


# ---------------------------------------------------------------------------
# grid and state


@dataclass(frozen=True)
class CylGrid:
    nr: int
    nz: int
    r_min: float = 0.5
    z_len: float = 1.0
    z_bc: str = "periodic"  # "periodic" | "dirichlet"

    def __post_init__(self):
        if not (0.0 < self.r_min < 1.0):
            raise ValueError("need 0 < r_min < 1")
        if not (0.0 < self.z_len < math.inf):
            raise ValueError("need a finite z_len > 0")
        if self.z_bc not in ("periodic", "dirichlet"):
            raise ValueError(f"unknown z boundary tag {self.z_bc!r}")
        if self.nr < 5 or self.nz < 5:
            raise ValueError("grid too small")

    @property
    def hr(self) -> float:
        return (1.0 - self.r_min) / (self.nr - 1)

    @property
    def hz(self) -> float:
        if self.z_bc == "periodic":
            return 2.0 * self.z_len / self.nz
        return 2.0 * self.z_len / (self.nz - 1)

    def r(self) -> np.ndarray:
        return np.linspace(self.r_min, 1.0, self.nr)

    def z(self) -> np.ndarray:
        if self.z_bc == "periodic":
            return -self.z_len + self.hz * np.arange(self.nz)
        return np.linspace(-self.z_len, self.z_len, self.nz)

    def mesh(self):
        return np.meshgrid(self.r(), self.z(), indexing="ij")

    def field(self, values: np.ndarray) -> ScalarField2D:
        return ScalarField2D(values, self.hr, self.hz, self.r_min,
                             float(self.z()[0]))


@dataclass
class CylState:
    """Scaled fields at time t.

    Invariant: psi1 == PoissonSolver(grid).solve(omega1).  `step` uses
    psi1 for its first stage without solving again, so a caller that
    builds a state passes the solved stream function (or zeros with zero
    omega1), and `step` returns states that keep the invariant.
    """

    u1: np.ndarray
    omega1: np.ndarray
    psi1: np.ndarray
    t: float = 0.0


# ---------------------------------------------------------------------------
# finite differences


def d_r(f: np.ndarray, grid: CylGrid, out=None) -> np.ndarray:
    return diff1(f, grid.hr, 0, out=out)


def d_z(f: np.ndarray, grid: CylGrid, out=None) -> np.ndarray:
    return diff1(f, grid.hz, 1, grid.z_bc == "periodic", out)


# ---------------------------------------------------------------------------
# elliptic solve


class PoissonSolver:
    """-(d_rr + (3/r) d_r + d_zz) psi = omega1 with psi = 0 on both r edges
    and the configured z treatment, by fast diagonalization."""

    def __init__(self, grid: CylGrid):
        self.grid = grid
        hr = grid.hr
        r = grid.r()[1:-1]
        # -(d_rr + (3/r) d_r) on the Dirichlet interior
        lower = -1.0 / hr ** 2 + 3.0 / (2 * hr * r[1:])
        upper = -1.0 / hr ** 2 - 3.0 / (2 * hr * r[:-1])
        # z unknowns: every column (periodic) or all but the two ends
        self._z = slice(None) if grid.z_bc == "periodic" else slice(1, -1)
        nz = grid.nz if grid.z_bc == "periodic" else grid.nz - 2
        self._solver = KroneckerSolver(lower, np.full(r.size, 2.0 / hr ** 2),
                                       upper, nz, grid.hz, grid.z_bc)

    def solve(self, omega1: np.ndarray, out=None) -> np.ndarray:
        """psi, written into `out` when given (a field that does not
        overlap omega1), boundary zeros included."""
        psi = np.empty_like(omega1) if out is None else out
        psi[[0, -1]] = 0.0
        if self.grid.z_bc == "dirichlet":
            psi[:, [0, -1]] = 0.0
        self._solver.solve(omega1[1:-1, self._z], out=psi[1:-1, self._z])
        return psi

    @functools.cached_property
    def work(self) -> np.ndarray:
        """The nine scratch fields of `step` on this grid, made on the
        first step and overwritten by each later one, so a solver serves
        one step at a time."""
        return np.empty((9, self.grid.nr, self.grid.nz))

    def residual(self, psi: np.ndarray, omega1: np.ndarray) -> float:
        lap = apply_operator(psi, self.grid)
        return float(np.max(np.abs(lap[1:-1, self._z]
                                   - omega1[1:-1, self._z])))


def apply_operator(psi: np.ndarray, grid: CylGrid) -> np.ndarray:
    """-(d_rr + (3/r) d_r + d_zz) psi with the solver's interior stencil.

    Only the interior is defined: the r edges and, for Dirichlet z, the z
    ends hold no operator value.
    """
    r = grid.r()[:, None]
    return -(diff2(psi, grid.hr, 0) + 3.0 / r * d_r(psi, grid)
             + diff2(psi, grid.hz, 1, grid.z_bc == "periodic"))


def reconstruct_velocity(psi1: np.ndarray, grid: CylGrid):
    """u^r = -r d_z psi, u^z = 2 psi + r d_r psi.

    psi is identically zero along r = 1, so u^r vanishes there exactly.
    """
    ur = d_z(psi1, grid)
    return _velocity(psi1, ur, grid, ur, np.empty_like(ur),
                     np.empty_like(ur))


def _velocity(psi1, dz_psi, grid: CylGrid, ur, uz, tmp):
    # the velocity formula of reconstruct_velocity into ur (which may be
    # dz_psi) and uz, from a given d_z psi; tmp is scratch
    r = grid.r()[:, None]
    np.multiply(-r, dz_psi, ur)
    d_r(psi1, grid, uz)
    np.multiply(r, uz, uz)
    np.add(np.multiply(2.0, psi1, tmp), uz, uz)
    return ur, uz


# ---------------------------------------------------------------------------
# time stepping


def max_speed(ur, uz, u1) -> float:
    """max(|u^r|, |u^z|, |u1|): the speed of the CFL bound.  The swirl
    u1 counts, so a start with omega1 = 0 (no meridional flow yet) still
    bounds its step."""
    return max(float(np.max(np.abs(ur))), float(np.max(np.abs(uz))),
               float(np.max(np.abs(u1))))


def _rhs(u1, omega1, psi, grid: CylGrid, forcing_values, out):
    """d_t u1 and d_t omega1 of the transport equations, and the velocity,
    written into the six fields out = (du, dom, ur, uz, w1, w2), of which
    w1 and w2 are scratch; returns du, dom, ur, uz.  No field of out may
    overlap u1, omega1 or psi.

    The products and sums are formed in place, in the order of
    du = (-ur d_r u1 - uz d_z u1) + (2 u1) d_z psi and
    dom = (-ur d_r om - uz d_z om) + d_z(u1^2), so the results carry the
    bits of those expressions; -(ur x) equals (-ur) x exactly.
    """
    du, dom, ur, uz, w1, w2 = out
    dz_psi = d_z(psi, grid, w1)
    _velocity(psi, dz_psi, grid, ur, uz, du)

    def transport(f, a):
        # -ur d_r f - uz d_z f, formed in a and w2
        d_r(f, grid, a)
        b = d_z(f, grid, w2)
        np.multiply(ur, a, a)
        np.negative(a, a)
        np.multiply(uz, b, b)
        return np.subtract(a, b, a)

    transport(u1, du)
    np.multiply(2.0, u1, w2)
    np.multiply(w2, dz_psi, w2)
    np.add(du, w2, du)
    transport(omega1, dom)
    np.add(dom, d_z(np.square(u1, w1), grid, w2), dom)
    if forcing_values is not None:
        f_u, f_om = forcing_values
        np.add(du, f_u, du)
        np.add(dom, f_om, dom)
    if grid.z_bc == "dirichlet":
        du[:, 0] = du[:, -1] = 0.0
        dom[:, 0] = dom[:, -1] = 0.0
    return du, dom, ur, uz


def step(state: CylState, dt: float, forcing=None, *,
         solver: PoissonSolver, cfl: float) -> CylState:
    """One explicit RK4 step with an elliptic re-solve per later substage.

    The step runs on solver.grid.  Stage k1 takes state.psi1 as it is, so
    a step does 4 solves with the caller's solver: three substages and the
    new state's psi1.  The forcing is evaluated once per distinct stage
    time (t, t + dt/2, t + dt).  dt above cfl * h_min / max|u| raises
    CFLViolation, and a dt too small to advance t raises NumericalBlowup.

    The step reads state and never writes it.  The new state's three
    fields are new arrays; the stage fields, their rates and the work
    fields of _rhs live in solver.work.
    """
    u, om = state.u1, state.omega1
    t = state.t
    grid = solver.grid
    if not t + dt > t:
        raise NumericalBlowup(f"dt={dt:.3e} no longer advances t={t:.6g}")
    if forcing is None:
        f0 = f_half = f1 = None
    else:
        R, Zm = grid.mesh()
        f0, f_half, f1 = ([fn(R, Zm, tt) for fn in forcing]
                          for tt in (t, t + 0.5 * dt, t + dt))

    # the stage fields, their stream function, the later stages' rates and
    # _rhs's velocity and scratch
    us, oms, psi_s, ku, ko, *rhs_work = solver.work
    # k1 + 2 k2 + 2 k3 + k4 is summed left to right as each stage's rates
    # arrive, in the arrays that become the new state
    u_new, om_new = np.empty_like(u), np.empty_like(om)

    def stage_fields(c, k_u, k_o):
        np.add(u, np.multiply(c, k_u, us), us)
        np.add(om, np.multiply(c, k_o, oms), oms)

    def stage_rates(f):
        _rhs(us, oms, solver.solve(oms, out=psi_s), grid, f,
             (ku, ko, *rhs_work))

    # a step may overflow; the finiteness check below raises NumericalBlowup
    # for it, so numpy's overflow warnings would only repeat that on stderr
    with np.errstate(over="ignore", invalid="ignore"):
        _, _, ur, uz = _rhs(u, om, state.psi1, grid, f0,
                            (u_new, om_new, *rhs_work))
        vmax = max(max_speed(ur, uz, u), 1e-12)
        if dt > cfl * min(grid.hr, grid.hz) / vmax:
            raise CFLViolation(f"dt={dt:.3e} exceeds {cfl:.2f}*h/max|u| "
                               f"with max|u|={vmax:.3e}")
        stage_fields(0.5 * dt, u_new, om_new)
        stage_rates(f_half)
        for c, f in ((0.5 * dt, f_half), (dt, f1)):
            stage_fields(c, ku, ko)
            # 2 k2, then 2 k3, joins the sums before the next stage's
            # rates overwrite it; doubling is exact
            for acc, k in ((u_new, ku), (om_new, ko)):
                np.add(acc, np.multiply(2.0, k, k), acc)
            stage_rates(f)
        for acc, k, x in ((u_new, ku, u), (om_new, ko, om)):
            np.add(acc, k, acc)
            np.add(x, np.multiply(acc, dt / 6.0, acc), acc)
    if not (np.all(np.isfinite(u_new)) and np.all(np.isfinite(om_new))):
        raise NumericalBlowup(f"non-finite field at t={t:.6g}")
    psi_new = solver.solve(om_new)
    return CylState(u_new, om_new, psi_new, t + dt)


# ---------------------------------------------------------------------------
# blow-up diagnostics


@dataclass
class BlowupSeries:
    t: list = dc_field(default_factory=list)
    max_omega1: list = dc_field(default_factory=list)
    max_u1: list = dc_field(default_factory=list)
    delta: list = dc_field(default_factory=list)
    box: list = dc_field(default_factory=list)  # (rmin, rmax, zmin, zmax)

    def append_sample(self, state: CylState, grid: CylGrid) -> None:
        if self.t and state.t <= self.t[-1]:
            raise ValueError("sample times must be strictly increasing")
        wmax = float(np.max(np.abs(state.omega1)))
        mask = np.abs(state.omega1) >= 0.5 * wmax if wmax > 0 else \
            np.zeros_like(state.omega1, dtype=bool)
        r, z = grid.r(), grid.z()
        if mask.any():
            ri, zi = np.nonzero(mask)
            box = (float(r[ri.min()]), float(r[ri.max()]),
                   float(z[zi.min()]), float(z[zi.max()]))
            delta = max(box[1] - box[0], box[3] - box[2])
        else:
            box = (math.nan,) * 4
            delta = math.nan
        self.t.append(state.t)
        self.max_omega1.append(wmax)
        self.max_u1.append(float(np.max(np.abs(state.u1))))
        self.delta.append(delta)
        self.box.append(box)


@dataclass(frozen=True)
class WindowVerdict:
    tag: str  # "shrinks_selfsimilar" | "wider_than_selfsimilar" | "indeterminate"
    ratio_slope: float = float("nan")
    delta_decays: bool = True


@dataclass(frozen=True)
class BlowupFit:
    T_fit: float
    gamma_fit: float
    amplitude: float
    window: WindowVerdict
    rate: float  # a in max|omega1| ~ amplitude (T-t)^-a


def track_blowup(series: BlowupSeries) -> BlowupFit:
    """Fit max|omega1| ~ C (T-t)^-a and delta ~ c (T-t)^gamma.

    With a read off omega1 ~ (T-t)^-1 in hierarchy.LEADING,
    max|omega1|^(-1/a) = C^(-1/a) (T-t) is a line in t, and T is the root
    of its least-squares fit on relative residuals.  gamma comes
    from log-log regression of the window width.  LEADING's u1 ~
    (T-t)^(base + gamma_coeff gamma) gives the gamma the swirl implies,
    gamma_swirl = (s - base) / gamma_coeff with s the log-log slope of
    max|u1|; delta / (T-t)^gamma_swirl has the slope gamma_fit - gamma_swirl.
    Fewer than 4 positive finite delta samples, or a max|u1| sample that
    is not positive and finite, leave the window indeterminate.  Needs at
    least 6 samples at finite, strictly increasing times with finite,
    strictly growing vorticity, and raises FitRejected when the fit's
    columns overflow or the fitted T is not after t_last or lies beyond
    t_last + 10 span.
    """
    from .hierarchy import LEADING

    t = np.asarray(series.t, dtype=float)
    M = np.asarray(series.max_omega1, dtype=float)
    if t.size < 6:
        raise FitRejected("need at least 6 samples")
    if not (np.all(np.isfinite(t)) and np.all(np.diff(t) > 0)):
        raise FitRejected("sample times must be finite and strictly "
                          "increasing")
    if not np.all(np.isfinite(M)):
        raise FitRejected("vorticity maximum must be finite")
    if np.any(np.diff(M) <= 0) or np.any(M <= 0):
        raise FitRejected("vorticity maximum must grow monotonically")

    rate = -float(LEADING["Omega"].base)  # its gamma part is zero
    # y = M^(-1/a) = C^(-1/a) (T - t) is a line in s = t - t_last, fitted
    # on relative residuals: c0/y + c1 s/y ~ 1, with root s = -c0/c1
    y = M ** (-1.0 / rate)
    s = t - t[-1]
    with np.errstate(all="ignore"):
        A = np.column_stack((1.0 / y, s / y))
    if not np.all(np.isfinite(A)):
        raise FitRejected("the fit's columns 1/y and s/y, y = "
                          "max|omega1|^(-1/a), overflow")
    c0, c1 = np.linalg.lstsq(A, np.ones_like(y), rcond=None)[0]
    T_fit = float(t[-1] - c0 / c1) if c1 < 0 else math.nan
    if not T_fit > t[-1]:
        raise FitRejected("the line through max|omega1|^(-1/a) has no root "
                          "after t_last")
    hi = t[-1] + 10.0 * (t[-1] - t[0])
    if T_fit > hi:
        raise FitRejected(f"blow-up time lies beyond t_last + 10*span = {hi}")
    x = np.log(T_fit - t)
    amp = math.exp(float(np.mean(np.log(M) + rate * x)))

    d = np.asarray(series.delta, dtype=float)
    ok = np.isfinite(d) & (d > 0)
    gamma_fit = float(np.polyfit(x[ok], np.log(d[ok]), 1)[0]) \
        if ok.sum() >= 2 else math.nan
    u = np.asarray(series.max_u1, dtype=float)
    window = WindowVerdict("indeterminate")
    if ok.sum() >= 4 and np.all(np.isfinite(u) & (u > 0)):
        e = LEADING["U"]
        slope = float(np.polyfit(x, np.log(u), 1)[0])
        gamma_swirl = (slope - float(e.base)) / float(e.gamma_coeff)
        ratio_slope = gamma_fit - gamma_swirl
        # log-log slopes within slope_tol of zero count as zero: the ratio
        # diverges below it, and delta ~ (T-t)^gamma_fit decays above it
        slope_tol = 0.05
        tag = "wider_than_selfsimilar" if ratio_slope < -slope_tol \
            else "shrinks_selfsimilar"
        window = WindowVerdict(tag, ratio_slope, gamma_fit > slope_tol)
    return BlowupFit(T_fit, gamma_fit, amp, window, rate)


# ---------------------------------------------------------------------------
# 1D boundary-condition demo


@dataclass
class Demo1DReport:
    bc: str
    n: int
    times: np.ndarray
    max_ux: np.ndarray
    blowup_suspected: bool
    crossing_time: Optional[float]
    aborted: bool
    t_end: float
    amplitude: float


def demo_1d(bc: str, n: int, t_end: Optional[float] = None,
            amplitude: Optional[float] = None) -> Demo1DReport:
    """Explicit integration of u_t = u_xx - u_x^4 on the unit interval.

    Periodic runs stay bounded (the gradient obeys a maximum principle);
    the Dirichlet preset pins u(0)=0 and u(1)=amplitude, which admits no
    steady state once the amplitude exceeds the largest boundary-layer
    profile, so the gradient at x=1 grows without bound.  Dirichlet
    initial data is a smoothed square-root ramp, periodic data
    amplitude*sin(2 pi x).  t_end and amplitude default to 1.0 and 0.25
    (periodic) or 0.05 and 2.0 (Dirichlet), and the report records the
    values the run used.

    The time step is the diffusive limit 0.4 h^2; the centered gradient
    term then needs max|4 u_x^3| <= 2 n to stay stable, which caps the
    periodic amplitude usable at a given resolution.  Periodic data whose
    initial discrete max|u_x| breaks that bound is rejected: a run from it
    would report its numerical instability as blow-up.

    Raises ValueError unless n >= 2, t_end is finite and positive,
    amplitude is finite, and periodic data satisfies 4 max|u_x|^3 h <= 2.
    """
    if bc not in ("periodic", "dirichlet"):
        raise ValueError(f"unknown boundary tag {bc!r}")
    if n < 2:
        raise ValueError(f"need n >= 2 intervals, got {n}")
    periodic = bc == "periodic"
    if t_end is None:
        t_end = 1.0 if periodic else 0.05
    if amplitude is None:
        amplitude = 0.25 if periodic else 2.0
    if not (math.isfinite(t_end) and t_end > 0):
        raise ValueError(f"t_end must be finite and positive, got {t_end}")
    if not math.isfinite(amplitude):
        raise ValueError(f"amplitude must be finite, got {amplitude}")
    h = 1.0 / n

    # w holds the unknowns between two edge cells, so that every point sees
    # its neighbours through the shifted views w[:-2] and w[2:]: periodic
    # edges are ghost copies refreshed after each step, Dirichlet edges are
    # the fixed boundary values u(0) = 0 and u(1) = amplitude
    if periodic:
        w = np.empty(n + 2)
        x = h * np.arange(n)
        w[1:-1] = amplitude * np.sin(2 * np.pi * x)
        w[0], w[-1] = w[-2], w[1]
        nodes = w[:-1]
        # the periodic gradient never exceeds its initial maximum, so the
        # stability bound need only hold at t = 0
        with np.errstate(over="ignore"):
            g0 = float(np.max(np.abs(np.diff(nodes)))) / h
        # 4 g^3 h <= 2 solved for g, since g^3 may overflow
        bound = (0.5 / h) ** (1 / 3)
        if g0 > bound:
            raise ValueError(
                f"periodic data with max|u_x| = {g0:.6g} is unstable at "
                f"n = {n}: the explicit step needs max|u_x| <= {bound:.6g} "
                "(4 max|u_x|^3 h <= 2); raise n or lower the amplitude")
    else:
        x = np.linspace(0.0, 1.0, n + 1)
        s = 0.05
        w = amplitude * (np.sqrt(x + s) - math.sqrt(s)) \
            / (math.sqrt(1 + s) - math.sqrt(s))
        w[0], w[-1] = 0.0, amplitude
        nodes = w
    um, u, up = w[:-2], w[1:-1], w[2:]
    ux4 = np.empty_like(u)
    du = np.empty_like(u)

    dt = 0.4 * h * h
    # for n a power of two these reciprocals are exact and multiplying by
    # them gives the bits of dividing by 2h and h^2; otherwise the results
    # differ by about an ulp, and a multiply costs a fraction of a divide
    inv_two_h, inv_h_sq = 1 / (2 * h), 1 / h ** 2
    nsteps = int(math.ceil(t_end / dt))
    times, history = [], []
    crossing = None
    aborted = False

    t = 0.0
    stride = 50  # steps between samples until growth outruns them
    threshold = 1e3  # max|u_x| of the crossing time; the run stops at 10x
    # the run is allowed to overflow between samples once blow-up starts;
    # the finiteness check below turns that into a clean abort
    with np.errstate(all="ignore"):
        for istep in range(nsteps):
            # du = dt * ((up - 2u + um) / h^2 - ((up - um) / 2h)^4) in the
            # scratch buffers (positional out: the out= keyword costs more
            # per call here); two squares stay within a few ulps of
            # pow(., 4) and cost a fraction of it
            np.subtract(up, um, ux4)
            np.multiply(ux4, inv_two_h, ux4)
            np.square(ux4, ux4)
            np.square(ux4, ux4)
            np.multiply(u, 2.0, du)
            np.subtract(up, du, du)
            np.add(du, um, du)
            np.multiply(du, inv_h_sq, du)
            np.subtract(du, ux4, du)
            np.multiply(du, dt, du)
            np.add(u, du, u)
            if periodic:
                w[0], w[-1] = w[-2], w[1]
            t += dt
            if istep % stride == 0 or istep == nsteps - 1:
                if not np.all(np.isfinite(w)):
                    aborted = True
                    if crossing is None:
                        crossing = t
                    break
                # one-sided differences capture the boundary-layer slope;
                # the periodic ghost w[0] supplies the wrap-around one
                g = float(np.max(np.abs(np.diff(nodes)))) / h
                if history and g > 1.2 * history[-1]:
                    # growth is outrunning the sampling cadence: sample every
                    # step so the threshold crossing is resolved in time
                    stride = 1
                times.append(t)
                history.append(g)
                if crossing is None and g >= threshold:
                    crossing = t
                if crossing is not None and g >= 10 * threshold:
                    break
    return Demo1DReport(
        bc=bc,
        n=n,
        times=np.asarray(times),
        max_ux=np.asarray(history),
        blowup_suspected=crossing is not None or aborted,
        crossing_time=crossing,
        aborted=aborted,
        t_end=t_end,
        amplitude=amplitude,
    )
