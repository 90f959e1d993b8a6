"""Command-line front end: manifests, exit codes, config parsing, and
output files."""

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ssblow
from ssblow import __version__
from ssblow import cli, cylsim, rigidity
from ssblow.gridio import ScalarField2D


def run(argv, tmp_path):
    return cli.main([*argv, "--out", str(tmp_path)])


def strict_json(text):
    """json.loads that rejects NaN and Infinity, which are not JSON: every
    JSON file the CLI writes must parse with it."""
    def reject(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(text, parse_constant=reject)


def read_json(path):
    return strict_json(path.read_text())


def read_manifest(tmp_path):
    return read_json(tmp_path / "manifest.json")


# -- parsing helpers --------------------------------------------------------


def test_parse_rational():
    assert cli.parse_gamma("2/5") == Fraction(2, 5)
    assert isinstance(cli.parse_gamma("2/5"), Fraction)
    assert cli.parse_gamma("2.91") == Fraction(291, 100)
    assert cli.parse_gamma("3") == Fraction(3)
    with pytest.raises(cli.UsageError):
        cli.parse_gamma("1/0")
    with pytest.raises(cli.UsageError):
        cli.parse_gamma("abc")


@pytest.mark.parametrize("text", ["1e400", "-1e400", "1" + "0" * 400],
                         ids=["1e400", "-1e400", "integer-10**400"])
def test_parse_rational_rejects_non_finite(text):
    with pytest.raises(cli.UsageError):
        cli.parse_gamma(text)


_SIGNS = st.sampled_from(["", "+", "-"])
_NATURALS = st.integers(min_value=0, max_value=10 ** 30)
_GAMMA_TEXTS = st.one_of(
    st.builds("{}{}/{}".format, _SIGNS, _NATURALS, _NATURALS),
    st.builds("{}{}".format, _SIGNS, _NATURALS),
    # str(Decimal) spells signs, exponents and the special values
    st.builds(lambda sign, digits, exp: str(Decimal((sign, digits, exp))),
              st.integers(0, 1),
              st.lists(st.integers(0, 9), min_size=1, max_size=25)
              .map(tuple),
              st.integers(-400, 400)),
    st.sampled_from(["NaN", "-Infinity", "Infinity", "sNaN", "0", "1e-400",
                     "1/1" + "0" * 400]),
)


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(_GAMMA_TEXTS)
def test_parse_gamma_is_the_exact_fraction_of_its_text(text):
    # --gamma is Fraction(text) when that is positive with gamma and
    # 1/gamma finite floats, and a UsageError otherwise
    try:
        want = Fraction(text)
        valid = want > 0 and math.isfinite(float(want)) \
            and math.isfinite(float(1 / want))
    except (ValueError, ZeroDivisionError, OverflowError):
        valid = False
    if valid:
        got = cli.parse_gamma(text)
        assert type(got) is Fraction and got == want
    else:
        with pytest.raises(cli.UsageError):
            cli.parse_gamma(text)


def test_parse_config(tmp_path):
    p = tmp_path / "cfg.txt"
    p.write_text("# comment\nnr = 33\n\nz_bc = periodic # inline\n")
    assert cli.parse_config(p) == {"nr": "33", "z_bc": "periodic"}
    p.write_text("no equals sign\n")
    with pytest.raises(cli.UsageError):
        cli.parse_config(p)


# -- derive -----------------------------------------------------------------


def test_derive_single(tmp_path, capsys):
    code = run(["derive", "--mode", "single", "--depth", "1"], tmp_path)
    assert code == 0
    out = capsys.readouterr().out
    assert "equivalent_zero_set" in out
    man = read_manifest(tmp_path)
    assert man["command"] == "derive"
    assert man["version"] == __version__
    assert man["wall_time"] >= 0
    for f in man["outputs"]:
        assert (tmp_path / f.split("/")[-1]).exists()
    rep = read_json(tmp_path / "hierarchy.json")
    assert rep["schema"] == "hierarchy/1"


def test_derive_latex(tmp_path):
    assert run(["derive", "--format", "latex"], tmp_path) == 0
    tex = (tmp_path / "hierarchy.tex").read_text()
    assert "\\begin{equation}" in tex


def test_derive_generalized_documents_discrepancy(tmp_path, capsys):
    code = run(["derive", "--mode", "generalized", "--depth", "1"], tmp_path)
    assert code == 0
    assert "documented" in capsys.readouterr().out


def test_derive_depth_zero_usage_error(tmp_path, capsys):
    code = run(["derive", "--depth", "0"], tmp_path)
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "usage"


def test_derive_mismatch_exits_one_with_its_outputs(monkeypatch, tmp_path,
                                                   capsys):
    # a reference the derivation disagrees with: exit 1, one JSON line
    # naming the failing verdict, and the report and manifest still written
    from ssblow import hierarchy
    from ssblow.sscalc import prof

    real = hierarchy.reference_equations

    def perturbed(mode):
        refs = real(mode)
        refs["u", 0] += prof("U")
        return refs

    monkeypatch.setattr(hierarchy, "reference_equations", perturbed)
    assert run(["derive", "--depth", "1"], tmp_path) == 1
    [line] = capsys.readouterr().err.splitlines()
    err = json.loads(line)
    assert err["error"] == "hierarchy_mismatch"
    assert [(v["equation"], v["order"]) for v in err["verdicts"]] == [
        ("u", 0)]
    assert (tmp_path / "hierarchy.json").exists()
    assert (tmp_path / "manifest.json").exists()


@pytest.mark.parametrize("order", ["-1", "1", "2"])
def test_derive_geometric_order_below_depth_leaves_no_output(
        order, tmp_path, capsys):
    # the 1/r expansion follows --depth; there is no flag to set it, so any
    # --geometric-order is a usage error that leaves no output directory
    out = tmp_path / "out"
    flags = ["--depth", "3", "--out", str(out)]
    code = cli.main(["derive", *flags, "--geometric-order", order])
    assert code == 2
    assert "--geometric-order" in capsys.readouterr().err
    assert not out.exists()
    assert cli.main(["derive", *flags, "--geometric-order", "3"]) == 2
    assert not out.exists()
    assert cli.main(["derive", *flags]) == 0
    assert (out / "hierarchy.json").exists()


#: sha256 of the depth-3 derive outputs; a change to the symbolic engine
#: must keep them byte for byte
DERIVE_SHA256 = {
    ("single", "json"):
        "c5af6545720d654eaf5a922c651e428f899b56c053e6947e8ed1b0231b7c2cfa",
    ("generalized", "json"):
        "41d1dda9b1df0e1d24aa90b7d94e78a1620244546f7e0792cb2198fd6d806340",
    ("single", "latex"):
        "48b3c9dea9f6cb178d84416b96883a7b2d8808d21e43e8cc1b6458a3b52879b7",
    ("generalized", "latex"):
        "ecb9835ef54e0729e55aee442ba179acc2513f373f5683c316f181a0bfc29b3a",
}


@pytest.mark.parametrize("mode,fmt", sorted(DERIVE_SHA256))
def test_derive_output_is_pinned(mode, fmt, tmp_path):
    assert run(["derive", "--mode", mode, "--format", fmt, "--depth", "3"],
               tmp_path) == 0
    name = "hierarchy.json" if fmt == "json" else "hierarchy.tex"
    data = (tmp_path / name).read_bytes()
    assert hashlib.sha256(data).hexdigest() == DERIVE_SHA256[mode, fmt]


#: sha256 of the depth-12 generalized derive outputs, of verify reports and
#: of scaling reports; a change to the term algebra or to where the
#: exponents come from must keep them byte for byte
LARGE_OUTPUT_SHA256 = {
    "derive-generalized-d12-json": (
        ["derive", "--mode", "generalized", "--depth", "12"], "hierarchy.json",
        "76315076d27f6953635018ba5957f085cd4b427e3177c262f1c80c10166b53ef"),
    "derive-generalized-d12-latex": (
        ["derive", "--mode", "generalized", "--depth", "12", "--format",
         "latex"], "hierarchy.tex",
        "a2f48971a7ec1314b9f2fe6f3e678a4d66643e32bad310129ee79a9df036d948"),
    "verify-2_5-kmax50": (
        ["verify", "--gamma", "2/5", "--kmax", "50"], "triviality.json",
        "2d82f9e0727567416aede90c2bac9a9ef2c3fe940609adc44cd8e2926f9280ba"),
    "verify-291_100-kmax12": (
        ["verify", "--gamma", "291/100", "--kmax", "12"], "triviality.json",
        "4f1662a86b9782b97c7057073af50f764eba455cd381e07a43f2e0d64430c41c"),
    "verify-291_100-kmax12-no-decay": (
        ["verify", "--gamma", "291/100", "--kmax", "12", "--no-decay"],
        "triviality.json",
        "82a46a1f41e589002b2e8859471e44b3cb22dbdaca2609a87b9869347021b455"),
    "verify-1_2-kmax12": (
        ["verify", "--gamma", "1/2", "--kmax", "12"], "triviality.json",
        "beb936b478eae7ca165a80d9ac23623cb3aad3bdca38b0e8f19213262184fffe"),
    "verify-1_2-kmax12-no-decay": (
        ["verify", "--gamma", "1/2", "--kmax", "12", "--no-decay"],
        "triviality.json",
        "941544455682d13368b46767e73d40cae317c1459edc96a7ea628db583f48a2c"),
    "scaling-2.91": (
        ["scaling", "--gamma", "2.91"], "scaling.json",
        "ff6e1990f8045de4b1de2fd2ded5aadfd9379b74d8dd5a67002f87427d6b97b2"),
    "scaling-2": (
        ["scaling", "--gamma", "2"], "scaling.json",
        "bdd02ee06539c046a278c7a7a608754fa7115424e3aea78ce3d52bef2e0aba36"),
    "scaling-1_2": (
        ["scaling", "--gamma", "1/2"], "scaling.json",
        "1426025b87cc52d3d83e0428bc8049e4aa4e8cebf6b80a5eb47cd3814a11613f"),
}


@pytest.mark.parametrize("name", sorted(LARGE_OUTPUT_SHA256))
def test_large_outputs_are_pinned(name, tmp_path):
    argv, filename, digest = LARGE_OUTPUT_SHA256[name]
    assert run(argv, tmp_path) == 0
    data = (tmp_path / filename).read_bytes()
    assert hashlib.sha256(data).hexdigest() == digest


#: sha256 of identity.json from `ssblow identity --preset P --epsilon E
#: --p N` as the full-grid fields gave it: the per-block fields keep its bits
IDENTITY_SHA256 = {
    ("compact", "0", "2"):
        "758e194684668f9e047212acd3cedd132faf4ce7caff4d79cc4116eb81094790",
    ("compact", "0", "4"):
        "ced15b127b983824335dd8e407769c608e251fb2e5402619ceae078ef14aff44",
    ("compact", "1e-3", "2"):
        "083735e9e6cb81500af316eb14994f5ffa5200a5d182d4bbfe61ba5800749c60",
    ("compact", "1e-3", "4"):
        "b69c8715ff68b37c42cc66cc48f9ff85c64f419821c6bd226442506b13b51c94",
    ("compact", "100", "2"):
        "d7bb3bfd8575c4da7c45472ac60570a7d0b6d5353822c29793f7dfd20325c14a",
    ("compact", "100", "4"):
        "184c574c800fad7dbc71fd0d2c403f6327dd10d4b535f86d973ed547bd5aa72e",
    ("gaussian", "0", "2"):
        "ab7d6636d02ddab41c87c135ed57388acc1929f1c62d7a65e6bc8f7e2924e960",
    ("gaussian", "0", "4"):
        "950ff1f57bdaee25f7c994006dd2736a1ae8aa080f0195572faf2deffdd28a9f",
    ("gaussian", "1e-3", "2"):
        "26240981a1b2f9934d896260c6429fe70a36d02128e938b24052bf45416ca72d",
    ("gaussian", "1e-3", "4"):
        "e815398e7618fa0fa40f52db5d8c8cfd3394cf1b08eaa2d8c766979457a9d7ab",
    ("gaussian", "100", "2"):
        "d2246e57992ea5b8f5b2744deb648218e0de579ec53626ea48d35a64b5371d97",
    ("gaussian", "100", "4"):
        "e5f2363979a0341c570f19398aa9b5b38b44bf10c4f07b7d2e6a6f8b68348610",
}


@pytest.mark.parametrize("case", sorted(IDENTITY_SHA256),
                         ids="-".join)
def test_identity_outputs_are_pinned(case, tmp_path):
    preset, epsilon, p = case
    argv = ["identity", "--preset", preset, "--epsilon", epsilon, "--p", p]
    assert run(argv, tmp_path) == 0
    data = (tmp_path / "identity.json").read_bytes()
    assert hashlib.sha256(data).hexdigest() == IDENTITY_SHA256[case]


# -- verify -----------------------------------------------------------------


def test_verify_exact_gamma(tmp_path):
    code = run(["verify", "--gamma", "2/5", "--kmax", "5"], tmp_path)
    assert code == 0
    payload = read_json(tmp_path / "triviality.json")
    assert payload["schema"] == "rigidity/1"
    # U_2 has degree 2 + 1/2 - 5/2 = 0: U's threshold is k >= 2
    assert payload["decay_threshold_k"] == {"U": 2.0, "Omega": 2.5}
    assert all(v["conclusion"] == "trivial_under_decay"
               for v in payload["verdicts"])
    # U_2 at gamma = 2/5 sits exactly on the zero-coefficient branch
    u2 = [v for v in payload["verdicts"] if v["field"] == "U" and v["k"] == 2]
    assert u2[0]["case"] == "zero_coefficient_ray_constant"
    # each threshold is the correctly rounded 11/3 - 1/2 or 11/3, rounded
    # once
    assert run(["verify", "--gamma", "3/11", "--kmax", "1"], tmp_path) == 0
    payload = read_json(tmp_path / "triviality.json")
    assert payload["decay_threshold_k"] == {"U": float(Fraction(19, 6)),
                                            "Omega": float(Fraction(11, 3))}
    assert payload["decay_threshold_note"].endswith(
        "k >= 1/gamma - 1/2 = 3.16667 (U) and k >= 1/gamma = 3.66667 "
        "(Omega); such orders cannot decay at infinity")


def test_verify_threshold_is_where_the_degree_turns_nonnegative(tmp_path):
    # at gamma = 1/2, Omega_2 has degree 2 - 2 = 0 and U_1 has degree
    # 1 + 1/2 - 2 < 0 < 2 + 1/2 - 2
    assert run(["verify", "--gamma", "1/2", "--kmax", "3"], tmp_path) == 0
    payload = read_json(tmp_path / "triviality.json")
    assert payload["decay_threshold_k"] == {"U": 1.5, "Omega": 2.0}
    degree = {(v["field"], v["k"]): v["degree"] for v in payload["verdicts"]}
    for field, k0 in payload["decay_threshold_k"].items():
        for k in range(4):
            assert (degree[field, k] >= 0) == (k >= k0), (field, k)


@pytest.mark.parametrize("decimal,ratio,u2_case", [
    ("0.4", "2/5", "zero_coefficient_ray_constant"),
    # 1e-13 off 2/5, so c = -2.5e-13 at U_2: small, but not zero
    ("0.4000000000001", "4000000000001/10000000000000",
     "nonzero_coefficient"),
])
def test_verify_decimal_gamma_is_exact(decimal, ratio, u2_case, tmp_path):
    payloads = []
    for i, text in enumerate((decimal, ratio)):
        assert run(["verify", "--gamma", text, "--kmax", "5"],
                   tmp_path / str(i)) == 0
        payloads.append((tmp_path / str(i) / "triviality.json").read_text())
    assert payloads[0] == payloads[1]
    payload = strict_json(payloads[0])
    assert payload["gamma"] == ratio
    by = {(v["field"], v["k"]): v for v in payload["verdicts"]}
    assert by[("U", 2)]["case"] == u2_case


def test_verify_gamma_two(tmp_path):
    code = run(["verify", "--gamma", "2", "--kmax", "3"], tmp_path)
    assert code == 0
    payload = read_json(tmp_path / "triviality.json")
    by = {(v["field"], v["k"]): v for v in payload["verdicts"]}
    assert by[("U", 0)]["case"] == "zero_coefficient_ray_constant"
    for k in (1, 2, 3):
        assert by[("U", k)]["case"] == "nonzero_coefficient"


def test_verify_no_decay_concludes_by_the_sign_of_the_degree(tmp_path):
    # at gamma = 2/5 the degrees are k - 2 (U) and k - 5/2 (Omega)
    argv = ["verify", "--gamma", "2/5", "--kmax", "3"]
    assert run([*argv, "--no-decay"], tmp_path) == 0
    payload = read_json(tmp_path / "triviality.json")
    got = {(v["field"], v["k"]): v["conclusion"] for v in payload["verdicts"]}
    assert got == {
        ("U", 0): "trivial_by_continuity", ("U", 1): "trivial_by_continuity",
        ("U", 2): "constant_by_continuity", ("U", 3): "inconclusive",
        ("Omega", 0): "trivial_by_continuity",
        ("Omega", 1): "trivial_by_continuity",
        ("Omega", 2): "trivial_by_continuity", ("Omega", 3): "inconclusive"}
    assert "witness |Y|^d Theta(phi)" in payload["no_decay_note"]
    assert run(argv, tmp_path / "decay") == 0
    payload = read_json(tmp_path / "decay" / "triviality.json")
    assert "no_decay_note" not in payload


def test_verify_invalid_gamma(tmp_path):
    assert run(["verify", "--gamma", "0"], tmp_path) == 2
    assert run(["verify", "--gamma", "-1/2"], tmp_path) == 2


@pytest.mark.parametrize("command", ["verify", "scaling", "identity"])
def test_non_finite_gamma_is_usage_error(command, tmp_path, capsys):
    assert run([command, "--gamma", "1e400"], tmp_path) == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "usage"
    assert not (tmp_path / "manifest.json").exists()


@pytest.mark.parametrize("command", ["verify", "scaling", "identity"])
def test_gamma_with_overflowing_reciprocal_is_usage_error(command, tmp_path,
                                                          capsys):
    # 1/gamma = 10**400 has no float; verify reports degrees k - 1/gamma
    assert run([command, "--gamma", "1/1" + "0" * 400], tmp_path) == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "usage"
    assert not (tmp_path / "manifest.json").exists()


def test_verify_gamma_too_large_for_kmax_is_usage_error(tmp_path, capsys):
    # gamma = 10**308 and 1/gamma are finite floats, but the coefficient
    # 1 - k gamma is not once k = 2
    out = tmp_path / "out"
    argv = ["verify", "--gamma", "1" + "0" * 308, "--out", str(out)]
    assert cli.main([*argv, "--kmax", "2"]) == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "usage"
    assert not out.exists()
    assert cli.main([*argv, "--kmax", "0"]) == 0
    assert (out / "triviality.json").exists()


# -- identity ---------------------------------------------------------------


def test_identity_compact(tmp_path):
    code = run(["identity", "--preset", "compact"], tmp_path)
    assert code == 0
    payload = read_json(tmp_path / "identity.json")
    assert payload["abs_error"] <= 1e-6 * max(abs(payload["lhs"]), 1.0)
    assert abs(payload["boundary_term"]) <= 1e-8


#: lhs - rhs - boundary_term for gaussian at gamma = 2, as first recorded to
#: two significant digits; the test allows half a unit of the last one
CLOSURE = {"0": -4.3e-4, "1e-3": -4.3e-4, "1": -6.0e-4, "100": -1.7e-2}


@pytest.mark.parametrize("epsilon", sorted(CLOSURE))
def test_identity_closure_residual(epsilon, tmp_path):
    assert run(["identity", "--preset", "gaussian", "--epsilon", epsilon],
               tmp_path) == 0
    payload = read_json(tmp_path / "identity.json")
    keys = list(payload)
    assert keys.index("closure_residual") == keys.index("abs_error") + 1
    closure = payload["closure_residual"]
    assert closure == (payload["lhs"] - payload["rhs"]
                       - payload["boundary_term"])
    want = CLOSURE[epsilon]
    assert abs(closure - want) <= 0.05 * 10 ** math.floor(
        math.log10(abs(want)))


def test_identity_builds_the_mesh_once(monkeypatch, tmp_path):
    # the check builds each R row of the mesh once, one block of
    # rigidity.ROWS rows at a time: no full-grid mesh (2.6 MB) exists
    shapes = []
    meshgrid = np.meshgrid

    def counted(*axes, **kwargs):
        mesh = meshgrid(*axes, **kwargs)
        shapes.append(mesh[0].shape)
        return mesh

    monkeypatch.setattr(np, "meshgrid", counted)
    assert run(["identity", "--preset", "gaussian"], tmp_path) == 0
    grid = rigidity.HalfPlaneGrid()
    assert all(rows <= rigidity.ROWS and cols == grid.nZ
               for rows, cols in shapes)
    assert sum(rows for rows, _ in shapes) == grid.nR


# -- simulate and fit -------------------------------------------------------


def test_simulate_and_fit(tmp_path):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("nr = 17\nnz = 32\nt_end = 0.2\ncadence = 2\n"
                   "preset = parity\namplitude = 0.8\n")
    code = run(["simulate", "--config", str(cfg)], tmp_path)
    assert code == 0
    man = read_manifest(tmp_path)
    assert man["config"]["preset"] == "parity"
    series = np.loadtxt(tmp_path / "series.csv", delimiter=",", skiprows=1)
    assert series.shape[1] == 8
    assert np.all(np.diff(series[:, 0]) > 0)
    assert (tmp_path / "u1_final.bin").exists()

    # synthetic series for the fit command (simulated runs need not blow up)
    sfile = tmp_path / "synthetic.csv"
    write_fit_series(sfile, np.linspace(0.2, 0.99, 12))
    code = run(["fit", "--series", str(sfile)], tmp_path)
    assert code == 0
    fit = read_json(tmp_path / "fit.json")
    assert fit["T_fit"] == pytest.approx(1.0, abs=1e-6)
    assert fit["gamma_fit"] == pytest.approx(0.4, abs=1e-3)
    # the swirl implies gamma = 0.4 as well; a window compared with its own
    # slope would read 0.4 here
    assert fit["window"]["tag"] == "shrinks_selfsimilar"
    assert abs(fit["window"]["ratio_slope"]) <= 1e-6


def write_fit_series(path, t, written_t=None):
    # rows of max|omega1| = tau^-1, max|u1| = tau^-0.8 and delta = tau^0.4
    # with tau = 1 - t, so gamma = 0.4; the t column holds written_t if given
    lines = ["t,max_omega1,max_u1,delta,box_rmin,box_rmax,box_zmin,box_zmax"]
    for ti, wi in zip(t, t if written_t is None else written_t):
        tau = 1.0 - ti
        m, u, d = 1.0 / tau, tau ** -0.8, tau ** 0.4
        lines.append(",".join(repr(float(v))
                              for v in (wi, m, u, d, 0, d, 0, d)))
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("finite_deltas", [0, 3])
def test_fit_writes_null_for_values_that_are_not_finite(finite_deltas,
                                                        tmp_path):
    # with fewer than 4 finite delta samples the window is indeterminate
    # and has no ratio slope, and with none gamma_fit is not finite either:
    # fit.json holds null for each, since NaN is not JSON
    sfile = tmp_path / "series.csv"
    write_fit_series(sfile, np.linspace(0.2, 0.99, 12))
    header, *rows = sfile.read_text().splitlines()
    cells = [row.split(",") for row in rows]
    for row in cells[finite_deltas:]:
        row[3] = "nan"
    sfile.write_text("\n".join([header, *map(",".join, cells)]) + "\n")
    assert run(["fit", "--series", str(sfile)], tmp_path) == 0
    fit = read_json(tmp_path / "fit.json")
    assert fit["T_fit"] == pytest.approx(1.0, abs=1e-6)
    assert fit["window"]["tag"] == "indeterminate"
    assert fit["window"]["ratio_slope"] is None
    if finite_deltas:
        assert fit["gamma_fit"] == pytest.approx(0.4, abs=1e-3)
    else:
        assert fit["gamma_fit"] is None


def test_fit_rejects_flat_series(tmp_path, capsys):
    lines = ["t,max_omega1,max_u1,delta,box_rmin,box_rmax,box_zmin,box_zmax"]
    for ti in np.linspace(0.1, 0.9, 8):
        lines.append(",".join(repr(float(v))
                              for v in (ti, 1.0, 1.0, 0.5, 0, 1, 0, 1)))
    sfile = tmp_path / "flat.csv"
    sfile.write_text("\n".join(lines) + "\n")
    code = run(["fit", "--series", str(sfile)], tmp_path)
    assert code == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "FitRejected"


def test_fit_rejects_blowup_time_beyond_bracket(tmp_path, capsys):
    # max|omega1| = 1 + 0.001 t: the fitted T lies near t = 1000, beyond
    # t_last + 10 span = 11
    lines = ["t,max_omega1,max_u1,delta,box_rmin,box_rmax,box_zmin,box_zmax"]
    for ti in np.linspace(0.0, 1.0, 11):
        lines.append(",".join(repr(float(v)) for v in
                              (ti, 1.0 + 1e-3 * ti, 1.0, 1.0 - 0.5 * ti,
                               0, 1, 0, 1)))
    sfile = tmp_path / "slow.csv"
    sfile.write_text("\n".join(lines) + "\n")
    code = run(["fit", "--series", str(sfile)], tmp_path)
    assert code == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "FitRejected"
    assert not (tmp_path / "fit.json").exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("disorder", ["swapped", "beyond-last", "nan"])
def test_fit_rejects_times_out_of_order(disorder, tmp_path, capsys):
    # swapped times were fitted with exit 0; one time past the last one
    # exited 3 blaming the search bracket, with a numpy warning on stderr
    t = np.linspace(0.2, 0.99, 12)
    written = t.copy()
    if disorder == "swapped":
        written[[4, 5]] = written[[5, 4]]
    else:
        written[5] = 20.0 if disorder == "beyond-last" else np.nan
    sfile = tmp_path / "disordered.csv"
    write_fit_series(sfile, t, written)
    out = tmp_path / "out"
    assert cli.main(["fit", "--series", str(sfile), "--out", str(out)]) == 3
    captured = capsys.readouterr()
    [line] = captured.err.splitlines()
    err = json.loads(line)
    assert err["error"] == "FitRejected"
    assert "strictly increasing" in err["message"]
    assert captured.out == ""
    assert not out.exists()


def test_fit_rejects_series_whose_fit_columns_overflow(tmp_path, capfd):
    # max|omega1| = 1e307 * (1000 / (1000 - t)) peaks at 1e308: finite
    # and growing, but (t - t_last) * max|omega1| is not a float.  The fit
    # exited 2 as a usage error after a numpy warning, and LAPACK wrote
    # its complaints on stdout
    t = np.linspace(0, 900, 10)
    m = 1e307 * (1000 / (1000 - t))
    sfile = tmp_path / "series.csv"
    sfile.write_text(cli.SERIES_HEADER + "\n" + "".join(
        ",".join(repr(float(v)) for v in (ti, mi, mi, 0.1, 0.5, 0.6, 0, 0.1))
        + "\n" for ti, mi in zip(t, m)))
    out = tmp_path / "out"
    assert cli.main(["fit", "--series", str(sfile), "--out", str(out)]) == 3
    captured = capfd.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert json.loads(line)["error"] == "FitRejected"
    assert not out.exists()


def test_simulate_set_up_failure_leaves_no_output(monkeypatch, tmp_path,
                                                  capsys):
    # the solver was built after the output directory: a grid too large
    # for memory left an empty directory with no manifest
    def no_memory(grid):
        raise MemoryError()

    monkeypatch.setattr(cylsim, "PoissonSolver", no_memory)
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("nr = 9\nnz = 9\nt_end = 0.01\n")
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(out)]) == 3
    [line] = capsys.readouterr().err.splitlines()
    assert json.loads(line)["error"] == "MemoryError"
    assert not out.exists()


def test_failed_simulate_writes_manifest_with_error(monkeypatch, tmp_path,
                                                   capsys):
    # step 3 fails: the two snapshot triples already written and the
    # series sampled so far stay listed, with the reason, and stderr and
    # the exit code are those of main
    real_step = cylsim.step
    calls = []

    def failing_step(*args, **kwargs):
        calls.append(1)
        if len(calls) == 3:
            raise cylsim.NumericalBlowup("non-finite field at t=0.002")
        return real_step(*args, **kwargs)

    monkeypatch.setattr(cylsim, "step", failing_step)
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("nr = 9\nnz = 9\nt_end = 0.1\ndt = 0.001\n"
                   "snapshot_every = 1\n")
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(out)]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "NumericalBlowup",
                   "message": "non-finite field at t=0.002"}
    man = read_manifest(out)
    assert sorted(Path(p).name for p in man["outputs"]) == sorted(
        [f"{name}_{i:04d}.bin" for i in (1, 2)
         for name in ("u1", "omega1", "psi1")] + ["series.csv"])
    assert all(Path(p).exists() for p in man["outputs"])
    assert man["error"]["kind"] == "NumericalBlowup"
    assert man["error"]["message"] == err["message"]
    assert man["error"]["step"] == 3
    assert man["error"]["t"] == pytest.approx(0.002)
    # the samples taken before the failure: t = 0 (cadence 10, 2 steps)
    rows = np.loadtxt(out / "series.csv", delimiter=",", skiprows=1,
                      ndmin=2)
    assert rows.shape == (1, 8) and rows[0, 0] == 0.0


def test_cfl_failure_on_first_step_writes_manifest(tmp_path, capsys):
    # swirl_bump has no meridional flow at t = 0; the swirl alone bounds dt
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("nr = 9\nnz = 9\nz_bc = dirichlet\nt_end = 1\n"
                   "dt = 0.5\namplitude = 1e3\nsnapshot_every = 1\n")
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(out)]) == 3
    assert json.loads(capsys.readouterr().err)["error"] == "CFLViolation"
    man = read_manifest(out)
    assert man["outputs"] == [str(out / "series.csv")]
    assert (man["error"]["kind"], man["error"]["step"], man["error"]["t"]) \
        == ("CFLViolation", 1, 0.0)
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json",
                                                     "series.csv"]


def test_simulate_stall_writes_manifest(tmp_path, capsys):
    # at amplitude 1e100 the automatic dt falls below the float spacing of
    # t; the step that would not advance t fails like any other numerical
    # blow-up: exit 3, with the manifest and the series so far
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("nr = 9\nnz = 9\nt_end = 0.01\namplitude = 1e100\n")
    out = tmp_path / "out"
    assert run(["simulate", "--config", str(cfg)], out) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "NumericalBlowup"
    assert "no longer advances" in err["message"]
    man = read_manifest(out)
    assert man["outputs"] == [str(out / "series.csv")]
    assert man["error"]["kind"] == "NumericalBlowup"
    assert man["error"]["step"] > 1 and 0 < man["error"]["t"] < 0.01
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json",
                                                     "series.csv"]
    assert len((out / "series.csv").read_text().splitlines()) > 2


def test_successful_manifest_has_no_error_key(tmp_path):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("nr = 9\nnz = 9\nt_end = 0.01\n")
    assert run(["simulate", "--config", str(cfg)], tmp_path) == 0
    assert "error" not in read_manifest(tmp_path)


def test_simulate_bad_preset(tmp_path):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("preset = vortex_ring\nt_end = 0.1\n")
    assert run(["simulate", "--config", str(cfg)], tmp_path) == 2


@pytest.mark.parametrize("cfl", ["50", "1.5", "nan"])
def test_simulate_rejects_unstable_cfl(cfl, tmp_path, capsys):
    # the automatic dt is 0.9 cfl h / max|u|, which RK4 keeps stable for
    # cfl up to sqrt(2) only
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(f"nr = 9\nnz = 9\nt_end = 0.1\ncfl = {cfl}\n")
    assert run(["simulate", "--config", str(cfg)], tmp_path) == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "usage"
    assert not (tmp_path / "manifest.json").exists()
    cfg.write_text("nr = 9\nnz = 9\nt_end = 0.1\n")
    assert run(["simulate", "--config", str(cfg)], tmp_path) == 0


@pytest.mark.parametrize("setting", ["cfl = 1e-300", "dt = 1e-300"])
def test_simulate_rejects_a_step_that_can_only_stall(setting, tmp_path,
                                                     capsys):
    # no step exceeds the fixed dt, or 0.9 cfl h_min / 1e-3 for the
    # automatic one; a bound that does not change t_stop when added to it
    # made a run that never ended
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(f"nr = 9\nnz = 9\n{setting}\n")
    out = tmp_path / "out"
    assert run(["simulate", "--config", str(cfg)], out) == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "usage" and "stall" in err["message"]
    assert not out.exists()


#: a value for every simulate config key, in the order of the table
EVERY_KEY = {"nr": 9, "nz": 8, "r_min": 0.4, "z_len": 1.5, "z_bc": "dirichlet",
             "t_end": 0.004, "dt": 0.001, "cfl": 0.3, "cadence": 2,
             "snapshot_every": 3, "preset": "parity", "amplitude": 0.5}


def test_simulate_config_sets_every_key_in_table_order(tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in
                           reversed(EVERY_KEY.items())))
    out = tmp_path / "out"
    assert run(["simulate", "--config", str(cfg)], out) == 0
    config = read_manifest(out)["config"]
    assert list(config) == [*EVERY_KEY, "preset_note"]
    assert list(cli.SIMULATE_DEFAULTS) == list(EVERY_KEY)
    for key, value in EVERY_KEY.items():
        assert config[key] == value and type(config[key]) is type(value), key
    assert (out / "u1_0001.bin").exists()

    cfg.write_text("t_ned = 5\n")
    assert run(["simulate", "--config", str(cfg)], out) == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["message"] == ("unknown config key 't_ned'; known keys: "
                              + ", ".join(EVERY_KEY))


@pytest.mark.parametrize("key,value", [("t_end", "nan"), ("t_end", "inf"),
                                       ("dt", "nan"), ("dt", "0"),
                                       ("dt", "-1"), ("amplitude", "nan"),
                                       ("r_min", "nan"), ("z_len", "nan"),
                                       ("z_len", "0"), ("z_len", "-1"),
                                       ("preset", "vortex_ring"),
                                       ("snapshot_every", "-1"),
                                       ("t_ned", "5")])
def test_simulate_bad_config_value_is_usage_error(key, value, tmp_path,
                                                  capsys):
    # t_end = nan ran 0 steps and exited 0, t_end = inf never stopped,
    # dt <= 0 silently took the automatic step, amplitude = nan or
    # z_len <= 0 failed with exit 3 after creating the output, an unknown
    # preset exited 2 leaving an empty output directory, snapshot_every < 0
    # wrote snapshots on every step, and a misspelt key (t_ned) was ignored
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(f"nr = 9\nnz = 9\nt_end = 0.1\n{key} = {value}\n")
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "usage" and key in err["message"]
    assert not out.exists()


# -- demo-1d and scaling ----------------------------------------------------


def test_demo_1d_periodic(tmp_path):
    code = run(["demo-1d", "--bc", "periodic", "--n", "32",
                "--t-end", "0.1"], tmp_path)
    assert code == 0
    payload = read_json(tmp_path / "demo1d.json")
    assert not payload["blowup_suspected"]
    rows = np.loadtxt(tmp_path / "demo1d.csv", delimiter=",", skiprows=1)
    assert rows.shape[1] == 2


@pytest.mark.parametrize("bc,t_end,amplitude", [("periodic", 1.0, 0.25),
                                                ("dirichlet", 0.05, 2.0)])
def test_demo_1d_manifest_records_the_defaults_used(bc, t_end, amplitude,
                                                    tmp_path):
    assert run(["demo-1d", "--bc", bc, "--n", "8"], tmp_path) == 0
    assert read_manifest(tmp_path)["config"] == {
        "bc": bc, "n": 8, "t_end": t_end, "amplitude": amplitude}


@pytest.mark.parametrize("flags", [["--t-end", "inf"], ["--t-end", "-1"],
                                   ["--amplitude", "nan"]],
                         ids=["t_end-inf", "t_end-negative", "amplitude-nan"])
def test_demo_1d_bad_input_is_usage_error(flags, tmp_path, capsys):
    assert run(["demo-1d", "--n", "32", *flags], tmp_path) == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "usage"
    assert "finite" in err["message"]
    assert not (tmp_path / "manifest.json").exists()


def test_unstable_periodic_demo_1d_is_usage_error(tmp_path, capsys):
    # 4 max|u_x|^3 h is 7.75 > 2 here: the run would blow up numerically
    # and report that as blow-up of a problem whose gradient is bounded
    assert run(["demo-1d", "--bc", "periodic", "--n", "128",
                "--amplitude", "1"], tmp_path) == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "usage"
    assert "unstable" in err["message"]
    assert not (tmp_path / "manifest.json").exists()


def test_demo_1d_overflow_before_first_sample(tmp_path, capsys):
    code = run(["demo-1d", "--bc", "dirichlet", "--n", "32",
                "--amplitude", "1e200"], tmp_path)
    assert code == 0
    payload = read_json(tmp_path / "demo1d.json")
    assert payload["aborted"] and payload["blowup_suspected"]
    assert payload["max_gradient"] is None
    assert "max|u_x|=none" in capsys.readouterr().out


def test_scaling_reference_gamma(tmp_path, capsys):
    code = run(["scaling", "--gamma", "2.91"], tmp_path)
    assert code == 0
    out = capsys.readouterr().out
    assert "0.156" in out
    assert "does_not_apply" in out
    payload = read_json(tmp_path / "scaling.json")
    # the correctly rounded 1/2 - 100/291
    assert payload["exponents"]["swirl_pointwise"] == float(
        Fraction(1, 2) - Fraction(100, 291))


@pytest.mark.parametrize("gamma,decision", [
    ("2", "borderline"),
    ("4/2", "borderline"),
    # 1/2 - 1/gamma is 2.5e-18 > 0 here, and 0.0 in floats
    ("2.00000000000000001", "does_not_apply"),
    ("1.99999999999999999", "decays"),
])
def test_scaling_decision_is_exact(gamma, decision, tmp_path):
    assert run(["scaling", "--gamma", gamma], tmp_path) == 0
    payload = read_json(tmp_path / "scaling.json")
    assert payload["swirl_decay"] == decision


@pytest.mark.parametrize("argv,code,error", [
    (["identity", "--p", "3"], 2, "usage"),
    (["identity", "--rho", "nan"], 2, "usage"),
    (["identity", "--rho", "0"], 2, "usage"),
    (["identity", "--rho", "-5"], 2, "usage"),
    (["identity", "--epsilon", "nan"], 2, "usage"),
    (["demo-1d", "--n", "32", "--t-end", "nan"], 2, "usage"),
    (["demo-1d", "--n", "32", "--amplitude", "inf"], 2, "usage"),
    # the cutoff inside one cell, or U^p underflowing: lhs = rhs = 0 (or
    # an unresolved cutoff) read as a passing identity
    (["identity", "--rho", "1e-300"], 2, "usage"),
    (["identity", "--rho", "0.05"], 2, "usage"),
    (["identity", "--p", "1000000"], 2, "usage"),
    (["identity", "--preset", "gaussian", "--rho", "1e-300"], 2, "usage"),
    (["fit", "--series", "missing.csv"], 3, "FileNotFoundError"),
    # a directory as an input file exited 1 with a traceback
    (["fit", "--series", "."], 3, "IsADirectoryError"),
    (["simulate", "--config", "."], 3, "IsADirectoryError"),
    # the amplitude rate is the ansatz's, not an option: any --rate,
    # finite or not, is an unknown argument
    (["fit", "--series", "missing.csv", "--rate", "1"], 2, "usage"),
    (["fit", "--series", "missing.csv", "--rate", "nan"], 2, "usage"),
    (["fit", "--series", "missing.csv", "--rate", "inf"], 2, "usage"),
    (["fit", "--series", "missing.csv", "--rate", "-1"], 2, "usage"),
    (["fit", "--series", "missing.csv", "--rate", "0"], 2, "usage"),
    (["scaling", "--gamma", "4", "--lengths", "1,-1"], 2, "usage"),
    (["scaling", "--gamma", "4", "--lengths", "1,nan"], 2, "usage"),
    (["scaling", "--gamma", "4", "--lengths", "abc"], 2, "usage"),
], ids=lambda v: "_".join(v) if isinstance(v, list) else str(v))
def test_failing_command_leaves_no_output(argv, code, error, monkeypatch,
                                          tmp_path, capsys):
    # each of these exited 0 with NaN in its JSON, crashed with a
    # traceback, or failed after creating an empty output directory
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "out"
    assert cli.main([*argv, "--out", str(out)]) == code
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == error
    assert not out.exists()


class _ArrayMemoryError(MemoryError):
    """Stands in for numpy's subclass, raised by a too-large np.empty."""


@pytest.mark.parametrize("exc,kind", [
    (MemoryError(), "MemoryError"),
    (_ArrayMemoryError("Unable to allocate 745. GiB for an array"),
     "_ArrayMemoryError"),
])
def test_out_of_memory_is_one_line_numeric_error(exc, kind, monkeypatch,
                                                 tmp_path, capsys):
    # demo-1d --n 100000000000 exited 1 with a traceback; the allocation
    # is faked, since a real one can wake the host's OOM killer
    def no_memory(*args):
        raise exc

    monkeypatch.setattr(cylsim, "demo_1d", no_memory)
    out = tmp_path / "out"
    assert cli.main(["demo-1d", "--n", "100000000000",
                     "--out", str(out)]) == 3
    [line] = capsys.readouterr().err.splitlines()
    assert json.loads(line)["error"] == kind
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    # L^(1/2 - 1000) overflows at L = 1e-300
    ["scaling", "--gamma", "1/1000", "--lengths", "1e-300"],
    # the mean exponent 1 - 2/gamma overflows, though gamma and 1/gamma
    # are finite
    ["scaling", "--gamma", "1e-308"],
    ["scaling", "--gamma", "6e-309"],
    # the identity's terms overflow to inf and then to NaN
    ["identity", "--epsilon", "1e308"],
    ["identity", "--gamma", "1e307"],
], ids="_".join)
def test_overflowing_input_is_one_line_usage_error(argv, tmp_path):
    # each exited 1 with a traceback or 0 with NaN in its JSON; a fresh
    # process shows any warning numpy would print on stderr
    env = {**os.environ,
           "PYTHONPATH": str(Path(ssblow.__file__).resolve().parents[1])}
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "ssblow.cli", *argv, "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
    [line] = proc.stderr.splitlines()
    assert json.loads(line)["error"] == "usage"
    assert not out.exists()


@pytest.mark.parametrize("body", ["", "\n# a comment\n"],
                         ids=["header-only", "comment-only"])
def test_header_only_series_is_one_line_usage_error(body, tmp_path):
    # numpy's "input contained no data" warning went to stderr ahead of an
    # "expected 8 columns" error; a fresh process shows any such warning
    sfile = tmp_path / "series.csv"
    sfile.write_text(cli.SERIES_HEADER + "\n" + body)
    env = {**os.environ,
           "PYTHONPATH": str(Path(ssblow.__file__).resolve().parents[1])}
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "ssblow.cli", "fit", "--series", str(sfile),
         "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    [line] = proc.stderr.splitlines()
    err = json.loads(line)
    assert err["error"] == "usage"
    assert "no data rows" in err["message"]
    assert not out.exists()


# -- global CLI behavior ----------------------------------------------------


def test_help_lists_flags(capsys):
    assert cli.main(["--help"]) == 0
    out = capsys.readouterr().out
    for cmd in ("derive", "verify", "identity", "simulate", "fit",
                "demo-1d", "scaling"):
        assert cmd in out
    assert cli.main(["derive", "--help"]) == 0
    out = capsys.readouterr().out
    for flag in ("--mode", "--depth", "--format", "--out"):
        assert flag in out


def usage_line(capsys) -> dict:
    # argparse printed only its usage text, with no JSON
    captured = capsys.readouterr()
    [line] = captured.err.splitlines()
    assert captured.out == ""
    err = json.loads(line)
    assert err["error"] == "usage"
    return err


def test_unknown_flag_is_error(capsys):
    assert cli.main(["derive", "--bogus"]) == 2
    assert "--bogus" in usage_line(capsys)["message"]


def test_missing_subcommand_is_error(capsys):
    assert cli.main([]) == 2
    usage_line(capsys)


@pytest.mark.parametrize("argv", [
    ["verify", "--kmax", "x", "--gamma", "1"],
    ["verify"],
    ["fit", "--series", "S", "--rate", "1"],
], ids="_".join)
def test_argparse_errors_are_one_json_line(argv, capsys):
    assert cli.main(argv) == 2
    assert usage_line(capsys)["message"].startswith("ssblow")


def test_help_and_version_exit_zero(capsys):
    assert cli.main(["--help"]) == 0
    assert cli.main(["fit", "--help"]) == 0
    assert "--rate" not in capsys.readouterr().out
    assert cli.main(["--version"]) == 0
    assert capsys.readouterr().out.strip() == __version__


def test_out_dir_env_override(monkeypatch, tmp_path):
    # --out is the only source of the output directory
    env_dir, out = tmp_path / "env_dir", tmp_path / "out"
    monkeypatch.setenv("SSBLOW_OUT_DIR", str(env_dir))
    assert cli.main(["scaling", "--gamma", "1", "--out", str(out)]) == 0
    assert (out / "manifest.json").exists()
    assert not env_dir.exists()


def test_out_dir_under_a_regular_file_is_usage_error(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert cli.main(["scaling", "--gamma", "2",
                     "--out", str(blocker / "sub")]) == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "usage"
    assert blocker.read_text() == ""


def test_manifest_lists_real_files(tmp_path):
    run(["verify", "--gamma", "1", "--kmax", "1"], tmp_path)
    man = read_manifest(tmp_path)
    import pathlib
    for f in man["outputs"]:
        assert pathlib.Path(f).exists()
    for name, schema in man["schemas"].items():
        assert schema == "rigidity/1"


def test_deterministic_reruns(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for d in (a, b):
        assert cli.main(["derive", "--mode", "generalized",
                         "--depth", "2", "--out", str(d)]) == 0
    assert (a / "hierarchy.json").read_text() == \
        (b / "hierarchy.json").read_text()


def test_import_leaves_scipy_linalg_unloaded():
    # scipy.linalg costs more to import than the symbolic commands take
    # to run, and the package never needs it
    env = {**os.environ,
           "PYTHONPATH": str(Path(ssblow.__file__).resolve().parents[1])}
    probe = "import sys, ssblow.cli; sys.exit('scipy.linalg' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", probe], env=env,
                          timeout=60).returncode == 0


@pytest.mark.parametrize("argv,code", [
    ([], None),
    (["--version"], 0),
    (["--help"], 0),
    (["derive", "--mode", "nope"], 2),
    (["derive", "--depth", "0"], 2),
    (["verify", "--gamma", "abc"], 2),
    (["identity", "--rho", "0"], 2),
    (["demo-1d", "--n", "4"], 2),
    (["scaling", "--gamma", "-1"], 2),
    # exact parsing would build 10**999999999 for each of these
    (["verify", "--gamma", "1e-999999999"], 2),
    (["verify", "--gamma", "1e999999999"], 2),
    (["scaling", "--gamma", "0e-999999999"], 2),
    *[(["derive", "--mode", mode, "--depth", "2", "--format", fmt], 0)
      for mode in ("single", "generalized") for fmt in ("json", "latex")],
], ids=["import", "version", "help", "bad-choice", "depth-0",
        "verify-gamma", "identity-rho", "demo-1d-n", "scaling-gamma",
        "gamma-1e-999999999", "gamma-1e999999999", "gamma-0e-999999999",
        "single-json", "single-latex", "generalized-json",
        "generalized-latex"])
def test_derive_and_usage_errors_leave_numpy_unloaded(argv, code, tmp_path):
    # derive is pure-Python algebra and a usage error computes nothing:
    # numpy costs about half of a fresh process's start-up, so neither
    # they nor the import may load it
    env = {**os.environ,
           "PYTHONPATH": str(Path(ssblow.__file__).resolve().parents[1])}
    probe = ("import sys\n"
             "from ssblow import cli\n"
             "code = cli.main(sys.argv[1:]) if sys.argv[1:] else None\n"
             "print('numpy' in sys.modules, code, file=sys.stderr)\n")
    out = ["--out", str(tmp_path / "out")] if argv else []
    proc = subprocess.run([sys.executable, "-c", probe, *argv, *out],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines()[-1] == f"False {code}"


def test_fresh_failing_simulate_reports_numeric_error(tmp_path):
    # the numeric exception classes are looked up only on the error path;
    # a fresh process still maps them to exit 3 and one line of JSON
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("nr = 9\nnz = 9\nz_bc = dirichlet\nt_end = 1\n"
                   "dt = 0.5\namplitude = 1e3\n")
    env = {**os.environ,
           "PYTHONPATH": str(Path(ssblow.__file__).resolve().parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "ssblow.cli", "simulate", "--config",
         str(cfg), "--out", str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 3
    assert proc.stdout == ""
    [line] = proc.stderr.splitlines()
    assert json.loads(line)["error"] == "CFLViolation"


def test_fresh_overflowing_simulate_writes_one_stderr_line(tmp_path):
    # the fields overflow inside the first step; the step's own
    # finiteness check reports that, and numpy adds no warning lines
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("nr = 9\nnz = 9\nt_end = 0.01\namplitude = 1e200\n")
    env = {**os.environ,
           "PYTHONPATH": str(Path(ssblow.__file__).resolve().parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "ssblow.cli", "simulate", "--config",
         str(cfg), "--out", str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 3
    [line] = proc.stderr.splitlines()
    assert json.loads(line)["error"] == "NumericalBlowup"


@pytest.mark.parametrize("t_end", [1e-14, 1e-300])
def test_simulate_below_the_old_absolute_tolerance_takes_a_step(
        t_end, tmp_path, capsys):
    # the run stops within a relative 1e-12 of t_end, so a t_end below
    # 1e-12 still steps to t_end instead of writing the t = 0 fields
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(f"nr = 9\nnz = 9\nt_end = {t_end!r}\n")
    assert run(["simulate", "--config", str(cfg)], tmp_path) == 0
    assert "in 1 steps" in capsys.readouterr().out
    rows = np.loadtxt(tmp_path / "series.csv", delimiter=",", skiprows=1,
                      ndmin=2)
    assert rows[:, 0].tolist() == [0.0, t_end]
    # swirl_bump starts with omega1 = 0, which one step makes nonzero
    final = ScalarField2D.from_binary(tmp_path / "omega1_final.bin")
    assert np.any(final.values != 0.0)


def test_simulate_and_endgame_leave_scipy_unloaded(tmp_path):
    # the elliptic solver is numpy only: a Dirichlet run and the Laplace
    # endgame, its two callers, load no part of scipy
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("nr = 9\nnz = 9\nz_bc = dirichlet\nt_end = 0.01\n")
    env = {**os.environ,
           "PYTHONPATH": str(Path(ssblow.__file__).resolve().parents[1])}
    argv = ["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")]
    probe = (
        "import sys\n"
        "from ssblow import cli, rigidity\n"
        f"assert cli.main({argv!r}) == 0\n"
        "grid = rigidity.HalfPlaneGrid(-4.0, -4.0, 4.0, 21, 41)\n"
        "rep = rigidity.psi_endgame(True, grid, lambda R, Z: 2 * R + 1)\n"
        "assert abs(rep.a - 2) < 1e-8, rep\n"
        "sys.exit(any(m == 'scipy' or m.startswith('scipy.')\n"
        "             for m in sys.modules))\n")
    assert subprocess.run([sys.executable, "-c", probe], env=env,
                          timeout=60).returncode == 0


def test_simulate_leaves_hierarchy_unloaded(tmp_path):
    # track_blowup imports hierarchy where it fits; a simulate run, which
    # only samples the series, loads no symbolic module beyond sscalc
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("nr = 9\nnz = 8\nt_end = 0.01\n")
    env = {**os.environ,
           "PYTHONPATH": str(Path(ssblow.__file__).resolve().parents[1])}
    argv = ["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")]
    probe = ("import sys\n"
             "from ssblow import cli\n"
             f"assert cli.main({argv!r}) == 0\n"
             "sys.exit('ssblow.hierarchy' in sys.modules)\n")
    assert subprocess.run([sys.executable, "-c", probe], env=env,
                          timeout=60).returncode == 0


def env_without_blas_timeout():
    # importing ssblow.cli set the variable in this process too
    env = {key: value for key, value in os.environ.items()
           if key != "OPENBLAS_THREAD_TIMEOUT"}
    env["PYTHONPATH"] = str(Path(ssblow.__file__).resolve().parents[1])
    return env


def test_cli_import_parks_idle_blas_workers():
    # idle OpenBLAS workers sleep at once instead of spinning between calls:
    # the import sets their timeout before any command loads numpy, and
    # keeps a value the caller exported
    env = env_without_blas_timeout()
    probe = ("import os, sys\n"
             "import ssblow.cli\n"
             "print(os.environ['OPENBLAS_THREAD_TIMEOUT'],"
             " 'numpy' in sys.modules)\n")
    for preset, want in ((None, "4 False"), ("28", "28 False")):
        child = env if preset is None else \
            {**env, "OPENBLAS_THREAD_TIMEOUT": preset}
        proc = subprocess.run([sys.executable, "-c", probe], env=child,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == want


def test_parked_blas_workers_keep_simulate_outputs(tmp_path):
    # both BLAS threads still split each modal-transform product, so a
    # Dirichlet run writes the same bytes whether idle workers sleep at
    # once or spin for the old 2^28 cycles
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("nr = 65\nnz = 128\nz_bc = dirichlet\npreset = parity\n"
                   "t_end = 0.01\nsnapshot_every = 2\n")
    env = env_without_blas_timeout()
    outs = []
    for preset in (None, "28"):
        out = tmp_path / f"out{preset}"
        child = env if preset is None else \
            {**env, "OPENBLAS_THREAD_TIMEOUT": preset}
        proc = subprocess.run(
            [sys.executable, "-m", "ssblow.cli", "simulate", "--config",
             str(cfg), "--out", str(out)],
            env=child, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outs.append(out)
    names = sorted(p.name for p in outs[0].glob("*.bin"))
    assert "omega1_final.bin" in names and len(names) > 3
    for name in names + ["series.csv"]:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_simulate_defaults_are_the_grid_defaults():
    # perfbench's slab check rebuilds the grid as CylGrid(nr, nz, z_bc=...)
    # and so relies on simulate's other grid defaults being CylGrid's
    grid_defaults = {f.name: f.default for f in dataclasses.fields(
        cylsim.CylGrid) if f.default is not dataclasses.MISSING}
    assert grid_defaults == {key: cli.SIMULATE_DEFAULTS[key]
                             for key in ("r_min", "z_len", "z_bc")}


def test_one_process_runs_match_fresh_runs(monkeypatch, tmp_path, capsys):
    # main builds its parser once per process; later calls parse against
    # the same parser and must behave as a fresh process does
    calls = (["verify", "--gamma", "abc"],
             ["derive", "--mode", "generalized", "--depth", "2"],
             ["verify", "--gamma", "2/5", "--kmax", "3"])
    env = {**os.environ,
           "PYTHONPATH": str(Path(ssblow.__file__).resolve().parents[1])}
    fresh, inproc = tmp_path / "fresh", tmp_path / "inproc"
    for d in (fresh, inproc):
        d.mkdir()
    fresh_codes, inproc_codes = [], []
    for i, argv in enumerate(calls):
        full = [*argv, "--out", f"run{i}"]
        fresh_codes.append(subprocess.run(
            [sys.executable, "-m", "ssblow.cli", *full], env=env, cwd=fresh,
            capture_output=True, timeout=60).returncode)
        monkeypatch.chdir(inproc)
        inproc_codes.append(cli.main(full))
    assert fresh_codes == inproc_codes == [2, 0, 0]
    assert cli.build_parser() is cli.build_parser()

    def outputs(root):
        files = {}
        for path in sorted(root.rglob("*")):
            if path.is_file():
                data = path.read_bytes()
                if path.name == "manifest.json":
                    man = strict_json(data)
                    man.pop("wall_time")
                    data = man
                files[str(path.relative_to(root))] = data
        return files

    want = outputs(fresh)
    assert sorted({Path(name).parts[0] for name in want}) == ["run1", "run2"]
    assert outputs(inproc) == want


# -- the README's CLI contract, over generated inputs ------------------------


def _flag(name, values):
    """[] or [name, value]: the flag left out or given one of values."""
    return st.one_of(st.just([]), values.map(lambda v: [name, v]))


def _command(name, *flags):
    """argv of the subcommand with each flag drawn from its strategy."""
    return st.builds(lambda *drawn: [name, *sum(drawn, [])], *flags)


# valid values are drawn on their own as often as anything else, so that
# runs which reach the computation are common
_CONTRACT_GAMMAS = st.one_of(
    st.sampled_from(["2/5", "2.91", "1/2", "2", "1e-300", "1e300", "1e-308",
                     "6e-309"]),
    st.builds("{}/{}".format, st.integers(1, 50), st.integers(1, 50)),
    _GAMMA_TEXTS,
    st.sampled_from(["inf", "nan", "-inf", "1e-999999999", "1/0", "junk",
                     "", "2/-3"]))
_VALID_LENGTHS = ["1", "2.5", "0.5", "1e-300", "1e300"]
_CONTRACT_LENGTHS = st.one_of(
    st.lists(st.sampled_from(_VALID_LENGTHS), min_size=1, max_size=4),
    st.lists(st.sampled_from([*_VALID_LENGTHS, "0", "-1", "-1e-300", "inf",
                              "nan", "junk", ""]), max_size=4),
).map(",".join)
_CONTRACT_ARGV = st.one_of(
    _command("derive",
             _flag("--depth", st.sampled_from(["-1", "0", "1", "2", "3",
                                               "x"])),
             _flag("--mode", st.sampled_from(["single", "generalized",
                                              "bogus"])),
             _flag("--format", st.sampled_from(["json", "latex", "xml"]))),
    _command("verify",
             _flag("--gamma", _CONTRACT_GAMMAS),
             _flag("--kmax", st.one_of(st.integers(-3, 6).map(str),
                                       st.just("x"))),
             st.sampled_from([[], ["--no-decay"]])),
    _command("scaling",
             _flag("--gamma", _CONTRACT_GAMMAS),
             _flag("--lengths", _CONTRACT_LENGTHS)),
)


def run_contract(argv, tmp):
    """Run argv in process with its output directory under tmp, check the
    README's contract and return the exit code and that directory: exit
    0, 1, 2 or 3; a failure is one JSON line on stderr with no traceback;
    a usage error leaves no output directory; a success writes nothing on
    stderr; a manifest lists only files that exist, and every JSON file
    written is JSON."""
    out = Path(tmp) / "out"
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(stderr):
        code = cli.main([*argv, "--out", str(out)])
    err = stderr.getvalue()
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err
    if code != 0:
        [line] = err.splitlines()
        assert isinstance(strict_json(line)["error"], str)
    if code == 2:
        assert not out.exists()
    if code == 0:
        assert err == ""
    if out.exists():
        listed = read_manifest(out)["outputs"]
        assert all(Path(f).is_file() for f in listed)
        for path in out.glob("*.json"):
            read_json(path)
    return code, out


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(_CONTRACT_ARGV)
def test_cli_contract_for_derive_verify_and_scaling(argv):
    with tempfile.TemporaryDirectory() as tmp:
        run_contract(argv, tmp)


def _line(key, values):
    """[] or ["key = value"]: a config key left out or given a value."""
    return st.one_of(st.just([]), values.map(lambda v: [f"{key} = {v}"]))


def _fault(*faults):
    """[] or one of faults: the valid draws fail at most one check."""
    return st.one_of(st.just([]), st.sampled_from(faults))


@st.composite
def _fit_series(draw):
    """series.csv text: rows of max|omega1| = big / tau, max|u1| =
    big tau^-0.8 and delta = tau^0.4 at t = span (1 - tau), then cells
    replaced by special values and rows repeated.  At span 1000 and big
    1e306, (t - t_last) max|omega1| is beyond the float range."""
    n = draw(st.sampled_from([0, 1, 5, 6, 9, 12]))
    span = draw(st.sampled_from([1.0, 1e3]))
    big = draw(st.sampled_from([1.0, 1e306]))
    cells = []
    for x in np.linspace(0.2, 0.99, n):
        tau = 1.0 - x
        d = tau ** 0.4
        cells.append([repr(float(v)) for v in
                      (span * x, big / tau, big * tau ** -0.8, d, 0, d, 0, d)])
    if cells:
        rows, columns = st.integers(0, n - 1), st.integers(0, 7)
        for _ in range(draw(st.integers(0, 2))):
            cells[draw(rows)][draw(columns)] = draw(st.sampled_from(
                ["nan", "inf", "-inf", "-1", "0", "1e308", "1.7e308",
                 "junk"]))
        for _ in range(draw(st.integers(0, 1))):
            i = draw(rows)
            cells.insert(i, list(cells[i]))
    return "\n".join([cli.SERIES_HEADER, *map(",".join, cells)]) + "\n"


@st.composite
def _simulate_config(draw):
    """A 9x9 simulate config of valid values, then perhaps one fault
    line, which overrides an earlier one.  t_end and a valid dt are
    scaled by 1/max(1, |amplitude|), since the automatic step shrinks as
    the amplitude grows: a run takes at most about 50 steps.  Amplitude
    1e200 overflows on the first step."""
    amplitude = draw(st.sampled_from(
        [None, "0", "1", "-2.5", "100", "1e4", "1e6", "1e200"]))
    scale = max(1.0, abs(float(amplitude or 1)))
    lines = ["nr = 9", "nz = 9", "t_end = " + draw(st.sampled_from(
        [1e-3, 0.1, 1.0]).map(lambda f: repr(f / scale)))]
    for key, values in (
            ("z_bc", st.sampled_from(["periodic", "dirichlet"])),
            ("dt", st.sampled_from([repr(0.01 / scale), "0.5"])),
            ("cfl", st.sampled_from(["0.4", "1"])),
            ("cadence", st.sampled_from(["1", "3"])),
            ("snapshot_every", st.sampled_from(["0", "1", "7"])),
            ("preset", st.sampled_from(["swirl_bump", "parity"]))):
        lines += draw(_line(key, values))
    if amplitude is not None:
        lines.append(f"amplitude = {amplitude}")
    lines += draw(_fault(*([line] for line in (
        "t_ned = 5", "no equals sign", "nr = 4", "nz = junk", "r_min = 1.5",
        "z_len = -1", "z_bc = open", "t_end = 0", "t_end = nan", "dt = -1",
        "dt = 1e-300", "cfl = 1.5", "cfl = 1e-300", "cadence = 0",
        "snapshot_every = -1", "preset = vortex_ring", "amplitude = inf",
        "amplitude = junk"))))
    return "\n".join(lines) + "\n"


#: (argv, name of the input file that ends argv or None, its text)
_CONTRACT_RUNS = st.one_of(
    _command(
        "identity",
        _flag("--preset", st.sampled_from(["compact", "gaussian"])),
        _flag("--gamma", st.sampled_from(["2", "1/2", "2.91", "1e-300"])),
        _flag("--p", st.sampled_from(["2", "4"])),
        _flag("--rho", st.sampled_from(["10", "5", "0.4", "1e300"])),
        _flag("--epsilon", st.sampled_from(["0", "1", "-100"])),
        _fault(["--preset", "bogus"], ["--gamma", "1e307"],
               ["--gamma", "0"], ["--p", "3"], ["--p", "-2"],
               ["--p", "1000000"], ["--rho", "0.05"], ["--rho", "1e-300"],
               ["--rho", "-5"], ["--rho", "nan"], ["--epsilon", "1e308"],
               ["--epsilon", "inf"], ["--epsilon", "junk"]),
    ).map(lambda argv: (argv, None, None)),
    _command(
        "demo-1d",
        _flag("--bc", st.sampled_from(["periodic", "dirichlet"])),
        st.integers(8, 64).map(lambda n: ["--n", str(n)]),
        st.sampled_from(["0.001", "0.02", "1e-300"]).map(
            lambda t: ["--t-end", t]),
        _flag("--amplitude", st.sampled_from(["0", "0.25", "1", "2", "-3",
                                              "1e6", "1e200"])),
        _fault(["--bc", "open"], ["--n", "7"], ["--n", "-1"],
               ["--n", "junk"], ["--t-end", "0"], ["--t-end", "-1"],
               ["--t-end", "nan"], ["--t-end", "inf"],
               ["--amplitude", "nan"], ["--amplitude", "inf"]),
    ).map(lambda argv: (argv, None, None)),
    _fit_series().map(lambda text: (["fit", "--series"], "series.csv", text)),
    _simulate_config().map(
        lambda text: (["simulate", "--config"], "config.txt", text)),
)


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(_CONTRACT_RUNS)
def test_cli_contract_for_identity_fit_demo_1d_and_simulate(case):
    argv, name, text = case
    with tempfile.TemporaryDirectory() as tmp:
        if name is not None:
            path = Path(tmp) / name
            path.write_text(text)
            argv = [*argv, str(path)]
        code, out = run_contract(argv, tmp)
        if code != 0 and out.exists():
            # only a simulate run that fails mid-way leaves its outputs,
            # with the reason and the samples taken so far
            assert argv[0] == "simulate" and code == 3
            manifest = read_manifest(out)
            assert "error" in manifest
            assert str(out / "series.csv") in manifest["outputs"]
