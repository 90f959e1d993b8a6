"""Command-line front end.

Every subcommand writes its outputs (JSON reports, CSV plot data, binary
field snapshots) into an output directory together with a run manifest
that records the command, the configuration snapshot, the toolkit
version, the wall time, and the schema version of every file produced.

Exit codes: 0 success, 1 verification mismatch, 2 usage error,
3 numeric failure (an unreadable input file and running out of memory
included).  Failures emit machine-readable JSON on stderr.

The module level imports only the standard library and `sscalc`; each
command checks its arguments, then imports the package modules it calls.
So `derive`, `--help`, `--version` and the usage errors found before a
command computes never load numpy.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys
import time
from dataclasses import asdict, dataclass, field as dc_field
from fractions import Fraction
from pathlib import Path
from typing import Optional

from . import __version__
from .sscalc import CommensurabilityError, json_write

# OpenBLAS reads this on load: idle workers sleep, not spin 2^28 cycles
os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "4")

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3


class UsageError(ValueError):
    """Bad flag or config value (exit code 2)."""


# ---------------------------------------------------------------------------
# run manifest


@dataclass
class RunManifest:
    command: str
    config: dict
    version: str = __version__
    wall_time: float = 0.0
    outputs: list = dc_field(default_factory=list)
    schemas: dict = dc_field(default_factory=dict)

    def add(self, path: Path, schema: Optional[str] = None) -> Path:
        self.outputs.append(str(path))
        if schema is not None:
            self.schemas[path.name] = schema
        return path

    def write(self, out_dir: Path, started: float,
              error: Optional[dict] = None) -> Path:
        """Write manifest.json; a failed run adds its `error` record."""
        self.wall_time = time.monotonic() - started
        payload = asdict(self)
        if error is not None:
            payload["error"] = error
        path = out_dir / "manifest.json"
        _write_json(path, payload)
        return path


def _out_dir(args) -> Path:
    path = Path(args.out)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise UsageError(f"cannot create output directory {args.out!r}: "
                         f"{exc}") from exc
    return path


@contextlib.contextmanager
def _open_output(path: Path):
    """Open path for writing text; if the block (or closing the file)
    raises, remove the partial file and re-raise, so no truncated output
    is left behind."""
    fh = open(path, "w")
    try:
        with fh:
            yield fh
    except BaseException:
        path.unlink(missing_ok=True)
        raise


def _write_json(path: Path, payload) -> None:
    with _open_output(path) as fh:
        json_write(payload, fh.write)
        fh.write("\n")


def _write_csv(path: Path, header: str, rows) -> None:
    with _open_output(path) as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


# ---------------------------------------------------------------------------
# value parsing


def parse_gamma(text: str) -> Fraction:
    """--gamma: 'p/q', an integer or a decimal, read as an exact Fraction
    ('2.91' is 291/100).  It must be positive, and gamma and 1/gamma must
    be finite floats, since the reports give degrees such as k - 1/gamma
    as floats."""
    try:
        # a decimal outside the float range is rejected before Fraction
        # builds its 10**exponent ('1e-999999999' has a billion digits)
        if "/" not in text:
            x = float(text)
            if x == 0 or not math.isfinite(x):
                raise ValueError("zero or outside the float range")
        gamma = Fraction(text)
        finite = math.isfinite(float(gamma)) and gamma > 0 \
            and math.isfinite(float(1 / gamma))
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise UsageError(f"cannot parse --gamma {text!r}: {exc}") from exc
    if not finite:
        raise UsageError(f"--gamma {text!r} must be positive, with gamma "
                         "and 1/gamma finite floats")
    return gamma


def parse_config(path) -> dict:
    """key = value lines; '#' comments; values kept as strings."""
    cfg = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (s.strip() for s in line.split("=", 1))
        if not key:
            raise UsageError(f"{path}:{lineno}: empty key")
        cfg[key] = value
    return cfg


def _cfg_get(cfg: dict, key: str, default):
    """cfg[key] read with the type of its default, or the default."""
    if key not in cfg:
        return default
    try:
        return type(default)(cfg[key])
    except ValueError as exc:
        raise UsageError(f"config key {key!r}: {exc}") from exc


# ---------------------------------------------------------------------------
# initial-data presets (artifact choices; recorded in the manifest)


def initial_data(preset: str, grid: cylsim.CylGrid, amplitude: float = 1.0):
    import numpy as np

    r, z = grid.mesh()
    zs = z / grid.z_len
    if preset == "swirl_bump":
        # swirl concentrated near the outer wall, modulated in z
        bump = np.exp(-((1.0 - r) / (0.25 * (1.0 - grid.r_min))) ** 2)
        u1 = amplitude * bump * np.cos(0.5 * np.pi * zs)
        om = np.zeros_like(u1)
    elif preset == "parity":
        # u1 even, omega1 odd in z: parity is preserved by the dynamics
        sr = np.sin(np.pi * (r - grid.r_min) / (1.0 - grid.r_min))
        u1 = amplitude * sr * np.cos(np.pi * zs)
        om = amplitude * sr * np.sin(np.pi * zs)
    else:
        raise UsageError(f"unknown initial-data preset {preset!r}")
    return u1, om


# ---------------------------------------------------------------------------
# subcommands


def cmd_derive(args) -> int:
    if args.depth < 1:
        raise UsageError("--depth must be >= 1")
    from . import hierarchy

    started = time.monotonic()
    spec = hierarchy.AnsatzSpec(mode=args.mode, depth=args.depth)
    report = hierarchy.derive_hierarchy(spec)
    out = _out_dir(args)
    manifest = RunManifest("derive", {
        "mode": args.mode, "depth": args.depth, "format": args.format})
    ext = "json" if args.format == "json" else "tex"
    path = manifest.add(out / f"hierarchy.{ext}", hierarchy.SCHEMA)
    with _open_output(path) as fh:
        hierarchy.emit(report, args.format, fh.write)
    manifest.write(out, started)
    if not report.all_acceptable:
        bad = [v.to_json() for v in report.verdicts if not v.acceptable]
        print(json.dumps({"error": "hierarchy_mismatch", "verdicts": bad}),
              file=sys.stderr)
        return EXIT_MISMATCH
    for v in report.verdicts:
        print(f"{v.equation} order {v.order}: {v.status}"
              + (" (documented)" if v.documented and v.status != "match"
                 else ""))
    return EXIT_OK


def cmd_verify(args) -> int:
    gamma = parse_gamma(args.gamma)
    if args.kmax < 0:
        raise UsageError("--kmax must be >= 0")
    from . import rigidity

    started = time.monotonic()
    decay = not args.no_decay
    # before the output directory exists: a gamma too large for --kmax
    # raises ValueError here
    rows = [rigidity.classify_triviality(gamma, k, field,
                                         decay_at_infinity=decay)
            for k in range(args.kmax + 1) for field in rigidity.TRANSPORTED]
    out = _out_dir(args)
    # the degree is k plus that of the index-0 profile
    threshold = {field: float(-rigidity.profile_degree(gamma, 0, field))
                 for field in rigidity.TRANSPORTED}
    payload = {
        "schema": rigidity.SCHEMA,
        "gamma": str(gamma),
        "decay_at_infinity": decay,
        "decay_threshold_k": threshold,
        "decay_threshold_note": (
            "nonnegative homogeneity degree for k >= 1/gamma - 1/2"
            f" = {threshold['U']:g} (U) and k >= 1/gamma"
            f" = {threshold['Omega']:g} (Omega); such orders cannot decay"
            " at infinity"),
    }
    if not decay:
        payload["no_decay_note"] = (
            "without decay, continuity at Y = 0 on the boundary R = 0 makes"
            " F = 0 for degree d < 0 and F constant for d = 0; d > 0 is"
            " inconclusive, witness |Y|^d Theta(phi)")
    payload["verdicts"] = [v.to_json() for v in rows]
    manifest = RunManifest("verify", {
        "gamma": str(gamma), "kmax": args.kmax, "decay": decay})
    _write_json(manifest.add(out / "triviality.json", rigidity.SCHEMA),
                payload)
    manifest.write(out, started)
    print(f"{'k':>3} {'field':>6} {'degree':>10} {'coeff':>10} "
          f"{'case':>28} conclusion")
    for v in rows:
        print(f"{v.k:>3} {v.field:>6} {v.degree:>10.4f} "
              f"{v.coefficient:>10.4f} {v.case:>28} {v.conclusion}")
    return EXIT_OK


def _identity_fields(preset: str, R, Z, epsilon: float):
    import numpy as np

    # the gradient of Psi = R^2 e + epsilon Z e, e = exp(-|Y|^2 / 50), the
    # identity's only use of Psi
    e = np.exp(-(R ** 2 + Z ** 2) / 50.0)
    dPsi = (
        (2.0 * R - R ** 2 * 2.0 * R / 50.0 - epsilon * Z * 2.0 * R / 50.0) * e,
        (-R ** 2 * 2.0 * Z / 50.0 + epsilon * (1.0 - 2.0 * Z ** 2 / 50.0)) * e,
    )
    if preset == "compact":
        # compactly supported bump well inside the cutoff plateau
        rho2 = ((R + 5.0) ** 2 + Z ** 2) / 9.0
        inside = rho2 < 1.0
        denom = np.where(inside, 1.0 - rho2, 1.0)
        U = np.where(inside, np.exp(-1.0 / denom), 0.0)
        chain = np.where(inside, U / denom ** 2, 0.0)
        dU = (-2.0 * (R + 5.0) / 9.0 * chain, -2.0 * Z / 9.0 * chain)
    elif preset == "gaussian":
        U = np.exp(-((R + 4.0) ** 2 + Z ** 2) / 8.0)
        dU = (-2.0 * (R + 4.0) / 8.0 * U, -2.0 * Z / 8.0 * U)
    else:
        raise UsageError(f"unknown identity preset {preset!r}")
    return U, dU, dPsi


def cmd_identity(args) -> int:
    gamma = float(parse_gamma(args.gamma))
    if not (math.isfinite(args.rho) and args.rho > 0):
        raise UsageError(f"--rho must be finite and positive, got {args.rho}")
    if not math.isfinite(args.epsilon):
        raise UsageError(f"--epsilon must be finite, got {args.epsilon}")
    import numpy as np
    from . import rigidity

    started = time.monotonic()
    grid = rigidity.HalfPlaneGrid()
    rho_min = 4 * max(grid.hR, grid.hZ)  # the cutoff falls across [rho, 2rho]
    if args.rho < rho_min:
        raise UsageError(f"--rho {args.rho} is under 4 grid cells, {rho_min}")
    # an overflow shows as a non-finite term, rejected below
    with np.errstate(all="ignore"):
        result = rigidity.ibp_identity_check(
            grid,
            lambda R, Z: _identity_fields(args.preset, R, Z, args.epsilon),
            gamma, p=args.p, rho=args.rho)
    if result.lhs == 0:
        raise UsageError(f"U^p sigma vanishes on the grid at --p {args.p}, "
                         f"--rho {args.rho}: the identity holds vacuously")
    payload = {**result.to_json(), "preset": args.preset,
               "epsilon": args.epsilon,
               "abs_error": abs(result.lhs - result.rhs),
               "closure_residual": (result.lhs - result.rhs
                                    - result.boundary_term)}
    bad = [key for key, value in payload.items()
           if isinstance(value, float) and not math.isfinite(value)]
    if bad:
        raise UsageError(f"--gamma {args.gamma} and --epsilon {args.epsilon} "
                         f"overflow the identity: {', '.join(bad)} not finite")
    out = _out_dir(args)
    manifest = RunManifest("identity", {
        "preset": args.preset, "gamma": gamma, "p": args.p,
        "rho": args.rho, "epsilon": args.epsilon})
    _write_json(manifest.add(out / "identity.json", rigidity.SCHEMA), payload)
    manifest.write(out, started)
    print(f"lhs={result.lhs:.12g} rhs={result.rhs:.12g} "
          f"|lhs-rhs|={payload['abs_error']:.3e} "
          f"boundary={result.boundary_term:.3e}")
    return EXIT_OK


#: every key a simulate config may set, in manifest order, with its
#: default; a value is read with the type of its default
SIMULATE_DEFAULTS = {
    "nr": 65, "nz": 128, "r_min": 0.5, "z_len": 1.0, "z_bc": "periodic",
    "t_end": 0.5, "dt": 0.0, "cfl": 0.4, "cadence": 10, "snapshot_every": 0,
    "preset": "swirl_bump", "amplitude": 1.0,
}


def cmd_simulate(args) -> int:
    cfg_raw = parse_config(args.config) if args.config else {}
    unknown = [key for key in cfg_raw if key not in SIMULATE_DEFAULTS]
    if unknown:
        raise UsageError(f"unknown config key {unknown[0]!r}; known keys: "
                         + ", ".join(SIMULATE_DEFAULTS))
    cfg = {key: _cfg_get(cfg_raw, key, default)
           for key, default in SIMULATE_DEFAULTS.items()}
    for key, value in cfg.items():
        if isinstance(value, float) and not math.isfinite(value):
            raise UsageError(f"config key {key!r} must be finite, got {value}")
    t_end, dt_cfg, cfl = cfg["t_end"], cfg["dt"], cfg["cfl"]
    cadence, snapshots = cfg["cadence"], cfg["snapshot_every"]
    if t_end <= 0 or cadence < 1 or cfl <= 0:
        raise UsageError("need t_end > 0, cadence >= 1, cfl > 0")
    if "dt" in cfg_raw and dt_cfg <= 0:
        raise UsageError(f"config key 'dt' must be positive, got {dt_cfg}")
    if snapshots < 0:
        raise UsageError("config key 'snapshot_every' must be >= 0, "
                         f"got {snapshots}")
    # RK4 is stable on the imaginary axis up to |lambda dt| = 2 sqrt(2), and
    # the centred advection terms have |lambda| <= 2 max|u| / h_min
    if not cfl <= math.sqrt(2.0):
        raise UsageError(f"cfl = {cfl} exceeds the RK4 stability bound "
                         "sqrt(2)")
    from . import cylsim

    grid = cylsim.CylGrid(cfg["nr"], cfg["nz"], cfg["r_min"], cfg["z_len"],
                          cfg["z_bc"])
    hmin = min(grid.hr, grid.hz)
    # the run ends within a relative 1e-12 of t_end, so that rounding in t
    # adds no sliver of a step and a tiny t_end still takes its steps
    t_stop = t_end - 1e-12 * t_end
    # no step exceeds dt_max (the automatic step divides by max|u| >= 1e-3);
    # when t_stop + dt_max == t_stop, such steps stop advancing t short of
    # t_stop, so the run would stall (or at best take 2^52 steps)
    dt_max = dt_cfg if dt_cfg > 0 else 0.9 * cfl * hmin / 1e-3
    if t_stop + dt_max == t_stop:
        raise UsageError(f"dt or cfl allows steps of at most {dt_max:.3e}, "
                         f"too small to advance t to t_end = {t_end}: the "
                         "run would stall")
    u1, om = initial_data(cfg["preset"], grid, cfg["amplitude"])

    out = _out_dir(args)
    started = time.monotonic()
    solver = cylsim.PoissonSolver(grid)
    # only the state holds the initial fields, so the first step frees them
    state = cylsim.CylState(u1, om, solver.solve(om), 0.0)
    del u1, om
    series = cylsim.BlowupSeries()
    series.append_sample(state, grid)

    manifest = RunManifest("simulate", {
        **cfg,
        "preset_note": "initial data is an artifact choice, not prescribed",
    })

    def write_fields(suffix: str) -> None:
        for name, vals in (("u1", state.u1), ("omega1", state.omega1),
                           ("psi1", state.psi1)):
            path = manifest.add(out / f"{name}_{suffix}.bin", "grid/bin")
            grid.field(vals).to_binary(path)

    istep = 0
    nsnap = 0
    while state.t < t_stop:
        if dt_cfg > 0:
            dt = dt_cfg
        else:
            # the velocity lives only while its speed is read
            vmax = max(cylsim.max_speed(
                *cylsim.reconstruct_velocity(state.psi1, grid), state.u1),
                1e-3)
            dt = 0.9 * cfl * hmin / vmax
        dt = min(dt, t_end - state.t)
        try:
            state = cylsim.step(state, dt, solver=solver, cfl=cfl)
        except (cylsim.CFLViolation, cylsim.NumericalBlowup) as exc:
            # the snapshots already written and the samples taken so far
            # stay listed, with the reason
            _write_series(manifest.add(out / "series.csv", "series/csv"),
                          series)
            manifest.write(out, started, error={
                "kind": type(exc).__name__, "message": str(exc),
                "step": istep + 1, "t": state.t})
            raise
        istep += 1
        if istep % cadence == 0 or state.t >= t_stop:
            series.append_sample(state, grid)
        if snapshots and istep % snapshots == 0:
            nsnap += 1
            write_fields(f"{nsnap:04d}")
    write_fields("final")
    _write_series(manifest.add(out / "series.csv", "series/csv"), series)
    manifest.write(out, started)
    print(f"simulated to t={state.t:.6g} in {istep} steps; "
          f"max|omega1|={series.max_omega1[-1]:.6g}")
    return EXIT_OK


#: the columns of series.csv, written by simulate and read by fit
SERIES_HEADER = ("t,max_omega1,max_u1,delta,box_rmin,box_rmax,"
                 "box_zmin,box_zmax")


def _write_series(path: Path, s: cylsim.BlowupSeries) -> None:
    _write_csv(path, SERIES_HEADER,
               ((t, w, u, d, *box) for t, w, u, d, box
                in zip(s.t, s.max_omega1, s.max_u1, s.delta, s.box)))


def _load_series(path) -> cylsim.BlowupSeries:
    import numpy as np
    from . import cylsim

    lines = Path(path).read_text().splitlines()[1:]  # below the header
    # loadtxt skips blank lines and '#' comments, and warns if that is all
    if not any(line.split("#", 1)[0].strip() for line in lines):
        raise UsageError(f"{path}: no data rows below the header")
    rows = np.loadtxt(lines, delimiter=",", ndmin=2)
    if rows.shape[1] != 8:
        raise UsageError(f"{path}: expected 8 columns")
    t, max_omega1, max_u1, delta = map(list, rows[:, :4].T)
    return cylsim.BlowupSeries(t, max_omega1, max_u1, delta,
                               [tuple(r) for r in rows[:, 4:8]])


def cmd_fit(args) -> int:
    import numpy as np
    from . import cylsim, rigidity

    started = time.monotonic()
    series = _load_series(args.series)
    fit = cylsim.track_blowup(series)
    out = _out_dir(args)

    def finite(value):
        # NaN and Infinity are not JSON: a value that is not finite is null
        if isinstance(value, float) and not math.isfinite(value):
            return None
        return value

    payload = {
        "schema": rigidity.SCHEMA,
        "T_fit": finite(fit.T_fit),
        "gamma_fit": finite(fit.gamma_fit),
        "amplitude": finite(fit.amplitude),
        "window": {"schema": rigidity.SCHEMA,
                   **{key: finite(value)
                      for key, value in asdict(fit.window).items()}},
    }
    manifest = RunManifest("fit", {"series": str(args.series)})
    _write_json(manifest.add(out / "fit.json", rigidity.SCHEMA), payload)
    ts = np.asarray(series.t)
    _write_csv(manifest.add(out / "fit_curve.csv"), "t,max_omega1,model",
               zip(ts, series.max_omega1,
                   fit.amplitude * (fit.T_fit - ts) ** -fit.rate))
    manifest.write(out, started)
    print(f"T_fit={fit.T_fit:.9g} gamma_fit={fit.gamma_fit:.6g} "
          f"window={fit.window.tag}")
    return EXIT_OK


def cmd_demo_1d(args) -> int:
    if args.n < 8:
        raise UsageError("--n must be >= 8")
    import numpy as np
    from . import cylsim

    started = time.monotonic()
    report = cylsim.demo_1d(args.bc, args.n, args.t_end, args.amplitude)
    out = _out_dir(args)
    manifest = RunManifest("demo-1d", {
        "bc": args.bc, "n": args.n, "t_end": report.t_end,
        "amplitude": report.amplitude})
    # a run that overflows before its first sample has no gradient samples
    max_gradient = float(np.max(report.max_ux)) if len(report.max_ux) \
        else None
    _write_csv(manifest.add(out / "demo1d.csv", "demo1d/csv"), "t,max_ux",
               zip(report.times, report.max_ux))
    _write_json(manifest.add(out / "demo1d.json"), {
        "bc": report.bc, "n": report.n,
        "blowup_suspected": report.blowup_suspected,
        "crossing_time": report.crossing_time,
        "aborted": report.aborted,
        "max_gradient": max_gradient,
    })
    manifest.write(out, started)
    print(f"bc={report.bc} n={report.n} max|u_x|="
          + (f"{max_gradient:.6g}" if max_gradient is not None else "none")
          + f" blowup_suspected={report.blowup_suspected}"
          + (f" crossing_time={report.crossing_time:.6g}"
             if report.crossing_time is not None else ""))
    return EXIT_OK


def cmd_scaling(args) -> int:
    gamma = parse_gamma(args.gamma)
    lengths = tuple(float(s) for s in args.lengths.split(",")) \
        if args.lengths else (1.0, 2.0, 4.0, 8.0)
    if not all(math.isfinite(L) and L > 0 for L in lengths):
        raise UsageError(f"--lengths must be finite and positive, "
                         f"got {args.lengths!r}")
    from . import rigidity

    started = time.monotonic()
    report = rigidity.energy_scaling(gamma, lengths)
    out = _out_dir(args)
    manifest = RunManifest("scaling", {"gamma": report.gamma,
                                       "lengths": lengths})
    _write_json(manifest.add(out / "scaling.json", rigidity.SCHEMA),
                report.to_json())
    _write_csv(manifest.add(out / "scaling_bounds.csv"),
               "L,swirl_pointwise_bound", report.bounds)
    manifest.write(out, started)
    print(f"gamma={report.gamma:g} swirl pointwise exponent="
          f"{report.swirl_pointwise_exp:.3f} ({report.swirl_decay}); "
          f"grad-psi exponent={report.gradpsi_pointwise_exp:.3f} "
          f"(sublinear={report.gradpsi_sublinear})")
    print(report.note)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser / entry point


class _Parser(argparse.ArgumentParser):
    """Its subparsers share the class: argparse errors are UsageErrors."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    # built once per process: nothing it reads can change between calls;
    # the set_defaults below bind the cmd_* functions of the first build,
    # so a later rebinding of cli.cmd_* does not reach main
    p = _Parser(
        prog="ssblow",
        description="order-by-order ansatz derivation, triviality "
                    "verification, and desk-scale cylinder-slab runs")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="subcommand", required=True)

    def common(sp):
        sp.add_argument("--out", default="ssblow_out", help="output directory")

    sp = sub.add_parser("derive", help="derive the order-by-order hierarchy")
    sp.add_argument("--mode", choices=("single", "generalized"),
                    default="single")
    sp.add_argument("--depth", type=int, default=1)
    sp.add_argument("--format", choices=("json", "latex"), default="json")
    common(sp)
    sp.set_defaults(func=cmd_derive)

    sp = sub.add_parser("verify", help="per-order triviality classification")
    sp.add_argument("--gamma", required=True,
                    help="similarity exponent: p/q, an integer or a "
                         "decimal, each read exactly (0.4 is 2/5)")
    sp.add_argument("--kmax", type=int, default=5)
    sp.add_argument("--no-decay", action="store_true",
                    help="drop the decay-at-infinity hypothesis")
    common(sp)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("identity",
                        help="integration-by-parts identity check")
    sp.add_argument("--preset", choices=("compact", "gaussian"),
                    default="compact")
    sp.add_argument("--gamma", default="2")
    sp.add_argument("--p", type=int, default=2)
    sp.add_argument("--rho", type=float, default=10.0)
    sp.add_argument("--epsilon", type=float, default=0.0,
                    help="size of a deliberate boundary-condition violation")
    common(sp)
    sp.set_defaults(func=cmd_identity)

    sp = sub.add_parser("simulate", help="cylinder-slab evolution run")
    sp.add_argument("--config", help="key = value configuration file")
    common(sp)
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("fit", help="blow-up time/exponent fit of a series")
    sp.add_argument("--series", required=True, help="series CSV path")
    common(sp)
    sp.set_defaults(func=cmd_fit)

    sp = sub.add_parser("demo-1d", help="1D boundary-condition demo")
    sp.add_argument("--bc", choices=("periodic", "dirichlet"),
                    default="periodic")
    sp.add_argument("--n", type=int, default=128)
    sp.add_argument("--t-end", type=float, default=None)
    sp.add_argument("--amplitude", type=float, default=None)
    common(sp)
    sp.set_defaults(func=cmd_demo_1d)

    sp = sub.add_parser("scaling", help="energy-scaling exponent report")
    sp.add_argument("--gamma", required=True,
                    help="similarity exponent, read exactly as for verify")
    sp.add_argument("--lengths", default="",
                    help="comma-separated window sizes L")
    common(sp)
    sp.set_defaults(func=cmd_scaling)

    return p


def _numeric_errors() -> tuple:
    """The exceptions main reports with exit code 3.  An except clause
    evaluates its expression only when an exception reaches it, so cylsim
    loads here on the error path alone."""
    from . import cylsim

    return (cylsim.CFLViolation, cylsim.NumericalBlowup, cylsim.FitRejected,
            CommensurabilityError, OSError, MemoryError)


def _fail(kind: str, exc: BaseException, code: int) -> int:
    """Write the failure's one line of JSON on stderr; return its code."""
    print(json.dumps({"error": kind, "message": str(exc)}), file=sys.stderr)
    return code


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # --help and --version
        return exc.code
    except UsageError as exc:
        return _fail("usage", exc, EXIT_USAGE)
    except _numeric_errors() as exc:
        return _fail(type(exc).__name__, exc, EXIT_NUMERIC)
    except ValueError as exc:
        return _fail("usage", exc, EXIT_USAGE)


if __name__ == "__main__":
    sys.exit(main())
