"""The three workloads: seeded inputs, the operations one run repeats, and
the output checks.

Every check compares an output file against a value this module derives
by itself (exact Fraction arithmetic, closed forms, the parameters the
inputs were generated with) or against a value recorded at the seed
commit, with the tolerance stated next to it.  A check returns a list of
failure messages; an empty list means the operation is correct.
"""

from __future__ import annotations

import csv
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import numpy as np

# --- slab workloads ----------------------------------------------------------

#: fixed configuration of each slab workload; the seed adds the cadence
SLAB = {
    "slab-dirichlet": {
        # t_end gives 11 CFL steps, snapshot_every 4 gives 2 snapshots
        "config": {"nr": 385, "nz": 768, "z_bc": "dirichlet",
                   "preset": "parity", "t_end": 0.005, "snapshot_every": 4},
        "cadence": (2, 5),
        "max_omega1": 1.000492353899316,
    },
}

#: final max|omega1| must match the seed commit's value to this relative
#: tolerance; it allows roundoff from a different elliptic solver
MAX_OMEGA_RTOL = 1e-6
#: max |-(d_rr + 3/r d_r + d_zz) psi - omega| on the solver's interior,
#: relative to max|omega1|; direct solves reach 1e-13 to 1e-10
RESIDUAL_RTOL = 1e-8


def slab_inputs(name: str, seed: int, in_dir: Path) -> dict:
    spec = SLAB[name]
    rng = random.Random(seed)
    cfg = dict(spec["config"])
    cfg["cadence"] = rng.randint(*spec["cadence"])
    path = in_dir / "simulate.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in cfg.items()))
    return {"config_path": str(path), "config": cfg}


def _close(got: float, want: float, tol: float) -> bool:
    # False for NaN, so a non-finite output never passes
    return abs(got - want) <= tol


def _read_bin(path: Path) -> np.ndarray:
    # the gridio layout read without gridio: six float64 header values
    # (n1, n2, h1, h2, x1_0, x2_0), then row-major float64 data
    raw = np.fromfile(path, dtype="<f8")
    n1, n2 = int(raw[0]), int(raw[1])
    if raw.size != 6 + n1 * n2:
        raise ValueError(f"{path.name}: size does not match its header")
    return raw[6:].reshape(n1, n2)


def check_slab(name: str, inputs: dict, out_dir: Path, stdout: str) -> list:
    from ssblow import cylsim
    from ssblow.gridio import ScalarField2D

    spec, cfg = SLAB[name], inputs["config"]
    fails = []
    steps = parse_steps(stdout)
    if steps is None:
        return [f"no step count in stdout: {stdout[-200:]!r}"]
    manifest = json.loads((out_dir / "manifest.json").read_text())
    for path in manifest["outputs"]:
        if not Path(path).is_file():
            fails.append(f"manifest lists missing output {path}")
    bins = sorted(out_dir.glob("*.bin"))
    snaps = steps // cfg["snapshot_every"] if cfg.get("snapshot_every") else 0
    if len(bins) != 3 * (snaps + 1):
        fails.append(f"{len(bins)} field files, want {3 * (snaps + 1)}")
    for path in bins:
        if not np.all(np.isfinite(_read_bin(path))):
            fails.append(f"{path.name} has non-finite values")
    with open(out_dir / "series.csv") as fh:
        rows = sum(1 for _ in fh) - 1
    if rows != 1 + math.ceil(steps / cfg["cadence"]):
        fails.append(f"series.csv has {rows} samples for {steps} steps "
                     f"at cadence {cfg['cadence']}")

    grid = cylsim.CylGrid(cfg["nr"], cfg["nz"], z_bc=cfg["z_bc"])
    psi = ScalarField2D.from_binary(out_dir / "psi1_final.bin").values
    om = ScalarField2D.from_binary(out_dir / "omega1_final.bin").values
    ur, _ = cylsim.reconstruct_velocity(psi, grid)
    if np.any(ur[-1, :] != 0.0) or np.any(_read_bin(
            out_dir / "psi1_final.bin")[-1, :] != 0.0):
        fails.append("u^r is not identically zero at r = 1")
    wmax = float(np.max(np.abs(om)))
    lap = cylsim.apply_operator(psi, grid)
    resid = float(np.max(np.abs(lap[1:-1, 1:-1] - om[1:-1, 1:-1])))
    if not resid <= RESIDUAL_RTOL * wmax:
        fails.append(f"elliptic residual {resid:.3e} > "
                     f"{RESIDUAL_RTOL:g} * max|omega1|")
    want = spec["max_omega1"]
    if not _close(wmax, want, MAX_OMEGA_RTOL * want):
        fails.append(f"final max|omega1| {wmax!r}, seed commit {want!r}")
    return fails


def parse_steps(stdout: str):
    # "simulated to t=... in N steps; ..."
    for line in stdout.splitlines():
        if line.startswith("simulated to") and " steps" in line:
            return int(line.split(" in ", 1)[1].split()[0])
    return None


# --- verify-symbolic ---------------------------------------------------------

DEPTHS = range(1, 13)
VERIFY_GAMMAS = ("2/5", "1/2", "1", "2", "291/100", "4")
VERIFY_KMAX = 50
#: generalized collected-term counts at depths 1-4 at the seed commit
GENERALIZED_TERMS = {1: 44, 2: 86, 3: 141, 4: 209}


def symbolic_inputs(seed: int, in_dir: Path) -> dict:
    rng = random.Random(seed)
    scaling = [str(Fraction(rng.randint(1, 60), rng.randint(1, 20)))
               for _ in range(3)]
    ops = []
    for mode in ("single", "generalized"):
        for depth in DEPTHS:
            for fmt in ("json", "latex"):
                ops.append({"name": f"derive-{mode}-d{depth}-{fmt}",
                            "kind": "cli",
                            "argv": ["derive", "--mode", mode, "--depth",
                                     str(depth), "--format", fmt]})
    for g in VERIFY_GAMMAS:
        ops.append({"name": f"verify-{g.replace('/', '_')}", "kind": "cli",
                    "argv": ["verify", "--gamma", g,
                             "--kmax", str(VERIFY_KMAX)]})
    for g in scaling:
        ops.append({"name": f"scaling-{g.replace('/', '_')}", "kind": "cli",
                    "argv": ["scaling", "--gamma", g]})
    (in_dir / "ops.json").write_text(json.dumps(ops, indent=1))
    return {"ops": ops, "scaling_gammas": scaling}


def _want_verdicts(mode: str) -> dict:
    want = {(eq, k): ("match", False, None)
            for eq in ("u", "omega", "psi") for k in (0, 1)}
    if mode == "single":
        want[("psi", 1)] = ("equivalent_zero_set", False, "-3")
    else:
        want[("psi", 1)] = ("mismatch", True, None)
    return want


def _want_orders(mode: str, depth: int) -> dict:
    # a single profile enters u and omega at orders 0 and 1 only (through
    # r = 1 + tau^gamma R); the 1/r expansion of the psi equation and the
    # generalized series reach every order up to the depth
    every = list(range(depth + 1))
    if mode == "single":
        return {"u": [0, 1], "omega": [0, 1], "psi": every}
    return {"u": every, "omega": every, "psi": every}


def _check_derive(argv: list, out_dir: Path) -> list:
    mode, depth, fmt = argv[2], int(argv[4]), argv[6]
    want = _want_verdicts(mode)
    fails = []
    if fmt == "json":
        rep = json.loads((out_dir / "hierarchy.json").read_text())
        got = {(v["equation"], v["order"]):
               (v["status"], v["documented"] and v["status"] != "match",
                v["ratio"] if v["status"] == "equivalent_zero_set" else None)
               for v in rep["verdicts"]}
        if got != want:
            fails.append(f"verdicts {got} != {want}")
        orders = {name: sorted(int(k) for k in by_k)
                  for name, by_k in rep["orders"].items()}
        if orders != _want_orders(mode, depth):
            fails.append(f"orders {orders} != {_want_orders(mode, depth)}")
        terms = sum(len(eq["lhs"]["terms"]) for by_k in rep["orders"].values()
                    for eq in by_k.values())
        if mode == "generalized" and depth in GENERALIZED_TERMS \
                and terms != GENERALIZED_TERMS[depth]:
            fails.append(f"{terms} collected terms, seed commit "
                         f"{GENERALIZED_TERMS[depth]}")
        return fails
    text = (out_dir / "hierarchy.tex").read_text()
    got = {}
    for line in text.splitlines():
        # "% verdict psi[1]: equivalent_zero_set (ratio -3)"
        if line.startswith("% verdict "):
            key, rest = line[len("% verdict "):].split(": ", 1)
            eq, k = key.rstrip("]").split("[")
            status = rest.split(" ", 1)[0]
            ratio = rest.split("(ratio ", 1)[1].rstrip(")") \
                if "(ratio " in rest else None
            got[(eq, int(k))] = (status, ratio)
    want_tex = {k: (s, r) for k, (s, _, r) in want.items()}
    if got != want_tex:
        fails.append(f"latex verdicts {got} != {want_tex}")
    n_eq = text.count("\\begin{equation}")
    # one per collected order, plus three induction equations per index
    want_eq = sum(map(len, _want_orders(mode, depth).values())) \
        + (3 * depth if mode == "generalized" else 0)
    if n_eq != want_eq:
        fails.append(f"{n_eq} equations in latex, want {want_eq}")
    return fails


def _check_verify(argv: list, out_dir: Path) -> list:
    gamma, kmax = Fraction(argv[2]), int(argv[4])
    rep = json.loads((out_dir / "triviality.json").read_text())
    fails = []
    rows = rep["verdicts"]
    if len(rows) != 2 * (kmax + 1):
        fails.append(f"{len(rows)} verdicts, want {2 * (kmax + 1)}")
    zero = set()
    for v in rows:
        k, field = v["k"], v["field"]
        if v["conclusion"] != "trivial_under_decay":
            fails.append(f"k={k} {field}: {v['conclusion']}")
        if v["case"] == "zero_coefficient_ray_constant":
            zero.add((k, field))
        # U: k + 1/2 - 1/gamma, Omega: k - 1/gamma
        d = k - 1 / gamma + (Fraction(1, 2) if field == "U" else 0)
        if not _close(v["degree"], float(d), 1e-12 * max(1.0, abs(d))):
            fails.append(f"k={k} {field}: degree {v['degree']} != {d}")
    # zero coefficient exactly at gamma = 2/(2k+1) for U, 1/k for Omega
    want = {(k, "U") for k in range(kmax + 1)
            if gamma == Fraction(2, 2 * k + 1)}
    want |= {(k, "Omega") for k in range(1, kmax + 1)
             if gamma == Fraction(1, k)}
    if zero != want:
        fails.append(f"zero-coefficient cases {sorted(zero)} "
                     f"!= {sorted(want)}")
    return fails


def _check_scaling(argv: list, out_dir: Path) -> list:
    gamma = Fraction(argv[2])
    rep = json.loads((out_dir / "scaling.json").read_text())
    got = rep["exponents"]["swirl_pointwise"]
    want = float(Fraction(1, 2) - 1 / gamma)
    if not _close(got, want, 1e-12 * max(1.0, abs(want))):
        return [f"swirl exponent {got!r} != 1/2 - 1/gamma = {want!r}"]
    return []


def check_symbolic(op: dict, out_dir: Path, inputs: dict) -> list:
    check = {"derive": _check_derive, "verify": _check_verify,
             "scaling": _check_scaling}[op["argv"][0]]
    return check(op["argv"], out_dir)


# --- verify-numeric ----------------------------------------------------------

#: identity tolerances: |lhs - rhs| <= rtol * max(|lhs|, 1).  The compact
#: bump vanishes near R = 0, so the trapezoid sums are spectrally exact;
#: the gaussian does not, and its O(h^2) quadrature error at h = 0.1 is
#: 8.6e-6 relative (it falls 4x per halving of h).
IDENTITY_RTOL = {"compact": 1e-6, "gaussian": 1e-4}
NOISE = 0.01
NOISY_FITS = 100


def numeric_inputs(seed: int, in_dir: Path) -> dict:
    rng = np.random.default_rng(seed)
    # clean series: max|omega1| = (T - t)^-1, window (T - t)^gamma
    T, gamma = float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.2, 3.0))
    t = np.linspace(0.2 * T, T * (1.0 - 1e-3), 40)
    M, d = (T - t) ** -1.0, (T - t) ** gamma
    series = in_dir / "series.csv"
    with open(series, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "max_omega1", "max_u1", "delta", "box_rmin",
                    "box_rmax", "box_zmin", "box_zmax"])
        for row in zip(t, M, M, d, 0 * d, d, 0 * d, d):
            w.writerow([repr(float(v)) for v in row])
    # noisy series around T = 1, gamma = 0.4 with 1% multiplicative noise
    tn = np.linspace(0.2, 1.0 - 1e-3, 40)
    Mn = (1.0 - tn) ** -1.0 \
        * (1 + NOISE * rng.standard_normal((NOISY_FITS, 40)))
    Mn = np.maximum.accumulate(np.abs(Mn), axis=1) + 1e-6 * np.arange(40)
    dn = np.abs((1.0 - tn) ** 0.4
                * (1 + NOISE * rng.standard_normal((NOISY_FITS, 40))))
    noisy = in_dir / "noisy_series.npz"
    np.savez(noisy, t=tn, max_omega1=Mn, delta=dn)
    ops = [
        {"name": "psi_endgame", "kind": "endgame"},
        {"name": "identity-compact", "kind": "cli",
         "argv": ["identity", "--preset", "compact"]},
        {"name": "identity-gaussian", "kind": "cli",
         "argv": ["identity", "--preset", "gaussian"]},
        {"name": "fit", "kind": "cli",
         "argv": ["fit", "--series", str(series)]},
        {"name": "noisy_fits", "kind": "noisy_fits", "series": str(noisy)},
        {"name": "demo-1d-periodic", "kind": "cli",
         "argv": ["demo-1d", "--bc", "periodic", "--n", "128"]},
        {"name": "demo-1d-dirichlet", "kind": "cli",
         "argv": ["demo-1d", "--bc", "dirichlet", "--n", "2048"]},
    ]
    return {"ops": ops, "T": T, "gamma": gamma, "noisy_gamma": 0.4}


def check_numeric(op: dict, out_dir: Path, inputs: dict) -> list:
    name, fails = op["name"], []
    if name == "psi_endgame":
        rep = json.loads((out_dir / "report.json").read_text())
        if not (_close(rep["a"], 2.0, 1e-8) and _close(rep["b"], 1.0, 1e-8)):
            fails.append(f"endgame a={rep['a']!r} b={rep['b']!r}, want 2, 1")
        if not rep["fit_residual"] <= 1e-8:
            fails.append(f"endgame fit residual {rep['fit_residual']:.3e}")
    elif name.startswith("identity-"):
        rep = json.loads((out_dir / "identity.json").read_text())
        rtol = IDENTITY_RTOL[name.split("-", 1)[1]]
        err = abs(rep["lhs"] - rep["rhs"])
        if not err <= rtol * max(abs(rep["lhs"]), 1.0):
            fails.append(f"|lhs - rhs| = {err:.3e} > {rtol:g} * max(|lhs|, 1)")
        if not abs(rep["boundary_term"]) <= 1e-8:
            fails.append(f"boundary term {rep['boundary_term']:.3e} > 1e-8")
    elif name == "fit":
        rep = json.loads((out_dir / "fit.json").read_text())
        if not _close(rep["T_fit"], inputs["T"], 1e-6):
            fails.append(f"T_fit {rep['T_fit']!r}, want {inputs['T']!r}")
        if not _close(rep["gamma_fit"], inputs["gamma"], 1e-3):
            fails.append(f"gamma_fit {rep['gamma_fit']!r}, "
                         f"want {inputs['gamma']!r}")
    elif name == "noisy_fits":
        rep = json.loads((out_dir / "report.json").read_text())
        g = inputs["noisy_gamma"]
        worst = max(abs(x - g) / g for x in rep["gamma_fit"])
        if len(rep["gamma_fit"]) != NOISY_FITS or not worst <= 0.05:
            fails.append(f"noisy fits: worst gamma error {worst:.3f} > 5%")
    elif name.startswith("demo-1d-"):
        rep = json.loads((out_dir / "demo1d.json").read_text())
        want = name == "demo-1d-dirichlet"
        if rep["blowup_suspected"] is not want:
            fails.append(f"{name}: blowup_suspected="
                         f"{rep['blowup_suspected']}, want {want}")
    return fails
