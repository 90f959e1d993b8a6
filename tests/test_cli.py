"""Command-line front end: manifests, exit codes, config parsing, and
output files."""

import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import ssblow
from ssblow import __version__
from ssblow import cli, cylsim


def run(argv, monkeypatch, tmp_path, capsys=None):
    monkeypatch.setenv("SSBLOW_OUT_DIR", str(tmp_path))
    return cli.main(argv)


def read_manifest(tmp_path):
    return json.loads((tmp_path / "manifest.json").read_text())


# -- parsing helpers --------------------------------------------------------


def test_parse_rational():
    assert cli.parse_rational("2/5") == Fraction(2, 5)
    assert isinstance(cli.parse_rational("2/5"), Fraction)
    assert cli.parse_rational("2.91") == pytest.approx(2.91)
    assert cli.parse_rational("3") == Fraction(3)
    with pytest.raises(cli.UsageError):
        cli.parse_rational("1/0")
    with pytest.raises(cli.UsageError):
        cli.parse_rational("abc")


@pytest.mark.parametrize("text", ["1e400", "-1e400", "1" + "0" * 400],
                         ids=["1e400", "-1e400", "integer-10**400"])
def test_parse_rational_rejects_non_finite(text):
    with pytest.raises(cli.UsageError):
        cli.parse_rational(text)


def test_parse_config(tmp_path):
    p = tmp_path / "cfg.txt"
    p.write_text("# comment\nnr = 33\n\nz_bc = periodic # inline\n")
    assert cli.parse_config(p) == {"nr": "33", "z_bc": "periodic"}
    p.write_text("no equals sign\n")
    with pytest.raises(cli.UsageError):
        cli.parse_config(p)


# -- derive -----------------------------------------------------------------


def test_derive_single(monkeypatch, tmp_path, capsys):
    code = run(["derive", "--mode", "single", "--depth", "1"],
               monkeypatch, tmp_path)
    assert code == 0
    out = capsys.readouterr().out
    assert "equivalent_zero_set" in out
    man = read_manifest(tmp_path)
    assert man["command"] == "derive"
    assert man["version"] == __version__
    assert man["wall_time"] >= 0
    for f in man["outputs"]:
        assert (tmp_path / f.split("/")[-1]).exists()
    rep = json.loads((tmp_path / "hierarchy.json").read_text())
    assert rep["schema"] == "hierarchy/1"


def test_derive_latex(monkeypatch, tmp_path):
    assert run(["derive", "--format", "latex"], monkeypatch, tmp_path) == 0
    tex = (tmp_path / "hierarchy.tex").read_text()
    assert "\\begin{equation}" in tex


def test_derive_generalized_documents_discrepancy(monkeypatch, tmp_path,
                                                  capsys):
    code = run(["derive", "--mode", "generalized", "--depth", "1"],
               monkeypatch, tmp_path)
    assert code == 0
    assert "documented" in capsys.readouterr().out


def test_derive_depth_zero_usage_error(monkeypatch, tmp_path, capsys):
    code = run(["derive", "--depth", "0"], monkeypatch, tmp_path)
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "usage"


@pytest.mark.parametrize("order", ["-1", "1", "2"])
def test_derive_geometric_order_below_depth_leaves_no_output(
        order, monkeypatch, tmp_path, capsys):
    # the 1/r expansion follows --depth; there is no flag to set it, so any
    # --geometric-order is a usage error that leaves no output directory
    out = tmp_path / "out"
    monkeypatch.setenv("SSBLOW_OUT_DIR", str(out))
    code = cli.main(["derive", "--depth", "3", "--geometric-order", order])
    assert code == 2
    assert "--geometric-order" in capsys.readouterr().err
    assert not out.exists()
    assert cli.main(["derive", "--depth", "3", "--geometric-order", "3"]) == 2
    assert not out.exists()
    assert cli.main(["derive", "--depth", "3"]) == 0
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
def test_derive_output_is_pinned(mode, fmt, monkeypatch, tmp_path, capsys):
    assert run(["derive", "--mode", mode, "--format", fmt, "--depth", "3"],
               monkeypatch, tmp_path) == 0
    name = "hierarchy.json" if fmt == "json" else "hierarchy.tex"
    data = (tmp_path / name).read_bytes()
    assert hashlib.sha256(data).hexdigest() == DERIVE_SHA256[mode, fmt]


#: sha256 of the depth-12 generalized derive outputs and of a kmax-50
#: verify report; a change to the term algebra must keep them byte for byte
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
        "87455454f123e3005c8f278f4183e057e775b350d67faedd0abaa9380b674078"),
}


@pytest.mark.parametrize("name", sorted(LARGE_OUTPUT_SHA256))
def test_large_outputs_are_pinned(name, monkeypatch, tmp_path, capsys):
    argv, filename, digest = LARGE_OUTPUT_SHA256[name]
    assert run(argv, monkeypatch, tmp_path) == 0
    data = (tmp_path / filename).read_bytes()
    assert hashlib.sha256(data).hexdigest() == digest


# -- verify -----------------------------------------------------------------


def test_verify_exact_gamma(monkeypatch, tmp_path, capsys):
    code = run(["verify", "--gamma", "2/5", "--kmax", "5"],
               monkeypatch, tmp_path)
    assert code == 0
    payload = json.loads((tmp_path / "triviality.json").read_text())
    assert payload["schema"] == "rigidity/1"
    assert payload["decay_threshold_k"] == pytest.approx(2.5)
    assert all(v["conclusion"] == "trivial_under_decay"
               for v in payload["verdicts"])
    # U_2 at gamma = 2/5 sits exactly on the zero-coefficient branch
    u2 = [v for v in payload["verdicts"] if v["field"] == "U" and v["k"] == 2]
    assert u2[0]["case"] == "zero_coefficient_ray_constant"


def test_verify_gamma_two(monkeypatch, tmp_path):
    code = run(["verify", "--gamma", "2", "--kmax", "3"],
               monkeypatch, tmp_path)
    assert code == 0
    payload = json.loads((tmp_path / "triviality.json").read_text())
    by = {(v["field"], v["k"]): v for v in payload["verdicts"]}
    assert by[("U", 0)]["case"] == "zero_coefficient_ray_constant"
    for k in (1, 2, 3):
        assert by[("U", k)]["case"] == "nonzero_coefficient"


def test_verify_invalid_gamma(monkeypatch, tmp_path, capsys):
    assert run(["verify", "--gamma", "0"], monkeypatch, tmp_path) == 2
    assert run(["verify", "--gamma", "-1/2"], monkeypatch, tmp_path) == 2


@pytest.mark.parametrize("command", ["verify", "scaling", "identity"])
def test_non_finite_gamma_is_usage_error(command, monkeypatch, tmp_path,
                                         capsys):
    assert run([command, "--gamma", "1e400"], monkeypatch, tmp_path) == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "usage"
    assert not (tmp_path / "manifest.json").exists()


@pytest.mark.parametrize("command", ["verify", "scaling", "identity"])
def test_gamma_with_overflowing_reciprocal_is_usage_error(
        command, monkeypatch, tmp_path, capsys):
    # 1/gamma = 10**400 has no float; verify reports degrees k - 1/gamma
    assert run([command, "--gamma", "1/1" + "0" * 400],
               monkeypatch, tmp_path) == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "usage"
    assert not (tmp_path / "manifest.json").exists()


def test_verify_gamma_too_large_for_kmax_is_usage_error(monkeypatch, tmp_path,
                                                       capsys):
    # gamma = 10**308 and 1/gamma are finite floats, but the coefficient
    # 1 - k gamma is not once k = 2
    out = tmp_path / "out"
    monkeypatch.setenv("SSBLOW_OUT_DIR", str(out))
    gamma = "1" + "0" * 308
    assert cli.main(["verify", "--gamma", gamma, "--kmax", "2"]) == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "usage"
    assert not out.exists()
    assert cli.main(["verify", "--gamma", gamma, "--kmax", "0"]) == 0
    assert (out / "triviality.json").exists()


# -- identity ---------------------------------------------------------------


def test_identity_compact(monkeypatch, tmp_path):
    code = run(["identity", "--preset", "compact"], monkeypatch, tmp_path)
    assert code == 0
    payload = json.loads((tmp_path / "identity.json").read_text())
    assert payload["abs_error"] <= 1e-6 * max(abs(payload["lhs"]), 1.0)
    assert abs(payload["boundary_term"]) <= 1e-8


# -- simulate and fit -------------------------------------------------------


def test_simulate_and_fit(monkeypatch, tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("nr = 17\nnz = 32\nt_end = 0.2\ncadence = 2\n"
                   "preset = parity\namplitude = 0.8\n")
    code = run(["simulate", "--config", str(cfg)], monkeypatch, tmp_path)
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
    code = run(["fit", "--series", str(sfile)], monkeypatch, tmp_path)
    assert code == 0
    fit = json.loads((tmp_path / "fit.json").read_text())
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


def test_fit_rejects_flat_series(monkeypatch, tmp_path, capsys):
    lines = ["t,max_omega1,max_u1,delta,box_rmin,box_rmax,box_zmin,box_zmax"]
    for ti in np.linspace(0.1, 0.9, 8):
        lines.append(",".join(repr(float(v))
                              for v in (ti, 1.0, 1.0, 0.5, 0, 1, 0, 1)))
    sfile = tmp_path / "flat.csv"
    sfile.write_text("\n".join(lines) + "\n")
    code = run(["fit", "--series", str(sfile)], monkeypatch, tmp_path)
    assert code == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "FitRejected"


def test_fit_rejects_blowup_time_beyond_bracket(monkeypatch, tmp_path,
                                               capsys):
    # max|omega1| = 1 + 0.001 t: the fitted T would sit on the far edge of
    # the search bracket, t_last + 10 span = 11
    lines = ["t,max_omega1,max_u1,delta,box_rmin,box_rmax,box_zmin,box_zmax"]
    for ti in np.linspace(0.0, 1.0, 11):
        lines.append(",".join(repr(float(v)) for v in
                              (ti, 1.0 + 1e-3 * ti, 1.0, 1.0 - 0.5 * ti,
                               0, 1, 0, 1)))
    sfile = tmp_path / "slow.csv"
    sfile.write_text("\n".join(lines) + "\n")
    code = run(["fit", "--series", str(sfile)], monkeypatch, tmp_path)
    assert code == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "FitRejected"
    assert not (tmp_path / "fit.json").exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("disorder", ["swapped", "beyond-last", "nan"])
def test_fit_rejects_times_out_of_order(disorder, monkeypatch, tmp_path,
                                        capsys):
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
    monkeypatch.setenv("SSBLOW_OUT_DIR", str(out))
    assert cli.main(["fit", "--series", str(sfile)]) == 3
    captured = capsys.readouterr()
    [line] = captured.err.splitlines()
    err = json.loads(line)
    assert err["error"] == "FitRejected"
    assert "strictly increasing" in err["message"]
    assert captured.out == ""
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
    monkeypatch.setenv("SSBLOW_OUT_DIR", str(out))
    assert cli.main(["simulate", "--config", str(cfg)]) == 3
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


def test_cfl_failure_on_first_step_writes_manifest(monkeypatch, tmp_path,
                                                   capsys):
    # swirl_bump has no meridional flow at t = 0; the swirl alone bounds dt
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("nr = 9\nnz = 9\nz_bc = dirichlet\nt_end = 1\n"
                   "dt = 0.5\namplitude = 1e3\nsnapshot_every = 1\n")
    out = tmp_path / "out"
    monkeypatch.setenv("SSBLOW_OUT_DIR", str(out))
    assert cli.main(["simulate", "--config", str(cfg)]) == 3
    assert json.loads(capsys.readouterr().err)["error"] == "CFLViolation"
    man = read_manifest(out)
    assert man["outputs"] == [str(out / "series.csv")]
    assert (man["error"]["kind"], man["error"]["step"], man["error"]["t"]) \
        == ("CFLViolation", 1, 0.0)
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json",
                                                     "series.csv"]


def test_successful_manifest_has_no_error_key(monkeypatch, tmp_path):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("nr = 9\nnz = 9\nt_end = 0.01\n")
    assert run(["simulate", "--config", str(cfg)], monkeypatch, tmp_path) == 0
    assert "error" not in read_manifest(tmp_path)


def test_simulate_bad_preset(monkeypatch, tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("preset = vortex_ring\nt_end = 0.1\n")
    assert run(["simulate", "--config", str(cfg)], monkeypatch, tmp_path) == 2


@pytest.mark.parametrize("cfl", ["50", "1.5", "nan"])
def test_simulate_rejects_unstable_cfl(cfl, monkeypatch, tmp_path, capsys):
    # the automatic dt is 0.9 cfl h / max|u|, which RK4 keeps stable for
    # cfl up to sqrt(2) only
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(f"nr = 9\nnz = 9\nt_end = 0.1\ncfl = {cfl}\n")
    assert run(["simulate", "--config", str(cfg)], monkeypatch, tmp_path) == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "usage"
    assert not (tmp_path / "manifest.json").exists()
    cfg.write_text("nr = 9\nnz = 9\nt_end = 0.1\n")
    assert run(["simulate", "--config", str(cfg)], monkeypatch, tmp_path) == 0


@pytest.mark.parametrize("key,value", [("t_end", "nan"), ("t_end", "inf"),
                                       ("dt", "nan"), ("dt", "0"),
                                       ("dt", "-1"), ("amplitude", "nan"),
                                       ("r_min", "nan"), ("z_len", "nan"),
                                       ("z_len", "0"), ("z_len", "-1"),
                                       ("preset", "vortex_ring"),
                                       ("snapshot_every", "-1"),
                                       ("t_ned", "5")])
def test_simulate_bad_config_value_is_usage_error(key, value, monkeypatch,
                                                  tmp_path, capsys):
    # t_end = nan ran 0 steps and exited 0, t_end = inf never stopped,
    # dt <= 0 silently took the automatic step, amplitude = nan or
    # z_len <= 0 failed with exit 3 after creating the output, an unknown
    # preset exited 2 leaving an empty output directory, snapshot_every < 0
    # wrote snapshots on every step, and a misspelt key (t_ned) was ignored
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(f"nr = 9\nnz = 9\nt_end = 0.1\n{key} = {value}\n")
    out = tmp_path / "out"
    monkeypatch.setenv("SSBLOW_OUT_DIR", str(out))
    assert cli.main(["simulate", "--config", str(cfg)]) == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "usage" and key in err["message"]
    assert not out.exists()


# -- demo-1d and scaling ----------------------------------------------------


def test_demo_1d_periodic(monkeypatch, tmp_path, capsys):
    code = run(["demo-1d", "--bc", "periodic", "--n", "32",
                "--t-end", "0.1"], monkeypatch, tmp_path)
    assert code == 0
    payload = json.loads((tmp_path / "demo1d.json").read_text())
    assert not payload["blowup_suspected"]
    rows = np.loadtxt(tmp_path / "demo1d.csv", delimiter=",", skiprows=1)
    assert rows.shape[1] == 2


@pytest.mark.parametrize("flags", [["--t-end", "inf"], ["--t-end", "-1"],
                                   ["--amplitude", "nan"]],
                         ids=["t_end-inf", "t_end-negative", "amplitude-nan"])
def test_demo_1d_bad_input_is_usage_error(flags, monkeypatch, tmp_path,
                                          capsys):
    assert run(["demo-1d", "--n", "32", *flags], monkeypatch, tmp_path) == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "usage"
    assert "finite" in err["message"]
    assert not (tmp_path / "manifest.json").exists()


def test_demo_1d_overflow_before_first_sample(monkeypatch, tmp_path,
                                              capsys):
    code = run(["demo-1d", "--bc", "dirichlet", "--n", "32",
                "--amplitude", "1e200"], monkeypatch, tmp_path)
    assert code == 0
    payload = json.loads((tmp_path / "demo1d.json").read_text())
    assert payload["aborted"] and payload["blowup_suspected"]
    assert payload["max_gradient"] is None
    assert "max|u_x|=none" in capsys.readouterr().out


def test_scaling_reference_gamma(monkeypatch, tmp_path, capsys):
    code = run(["scaling", "--gamma", "2.91"], monkeypatch, tmp_path)
    assert code == 0
    out = capsys.readouterr().out
    assert "0.156" in out
    assert "does_not_apply" in out
    payload = json.loads((tmp_path / "scaling.json").read_text())
    assert payload["exponents"]["swirl_pointwise"] == pytest.approx(
        0.5 - 1 / 2.91)


@pytest.mark.parametrize("argv,code,error", [
    (["identity", "--p", "3"], 2, "usage"),
    (["identity", "--rho", "nan"], 2, "usage"),
    (["identity", "--rho", "0"], 2, "usage"),
    (["identity", "--rho", "-5"], 2, "usage"),
    (["identity", "--epsilon", "nan"], 2, "usage"),
    (["demo-1d", "--n", "32", "--t-end", "nan"], 2, "usage"),
    (["demo-1d", "--n", "32", "--amplitude", "inf"], 2, "usage"),
    (["fit", "--series", "missing.csv"], 3, "FileNotFoundError"),
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
    monkeypatch.setenv("SSBLOW_OUT_DIR", str(out))
    assert cli.main(argv) == code
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == error
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


def test_unknown_flag_is_error(capsys):
    assert cli.main(["derive", "--bogus"]) == 2


def test_missing_subcommand_is_error(capsys):
    assert cli.main([]) == 2


def test_out_dir_env_override(monkeypatch, tmp_path):
    target = tmp_path / "env_dir"
    monkeypatch.setenv("SSBLOW_OUT_DIR", str(target))
    assert cli.main(["scaling", "--gamma", "1", "--out", "ignored"]) == 0
    assert (target / "manifest.json").exists()


def test_out_dir_under_a_regular_file_is_usage_error(monkeypatch, tmp_path,
                                                    capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    monkeypatch.delenv("SSBLOW_OUT_DIR", raising=False)
    assert cli.main(["scaling", "--gamma", "2",
                     "--out", str(blocker / "sub")]) == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "usage"
    assert blocker.read_text() == ""


def test_manifest_lists_real_files(monkeypatch, tmp_path):
    run(["verify", "--gamma", "1", "--kmax", "1"], monkeypatch, tmp_path)
    man = read_manifest(tmp_path)
    import pathlib
    for f in man["outputs"]:
        assert pathlib.Path(f).exists()
    for name, schema in man["schemas"].items():
        assert schema == "rigidity/1"


def test_deterministic_reruns(monkeypatch, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for d in (a, b):
        monkeypatch.setenv("SSBLOW_OUT_DIR", str(d))
        assert cli.main(["derive", "--mode", "generalized",
                         "--depth", "2"]) == 0
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
    *[(["derive", "--mode", mode, "--depth", "2", "--format", fmt], 0)
      for mode in ("single", "generalized") for fmt in ("json", "latex")],
], ids=["import", "version", "help", "bad-choice", "depth-0",
        "verify-gamma", "identity-rho", "demo-1d-n", "scaling-gamma",
        "single-json", "single-latex", "generalized-json",
        "generalized-latex"])
def test_derive_and_usage_errors_leave_numpy_unloaded(argv, code, tmp_path):
    # derive is pure-Python algebra and a usage error computes nothing:
    # numpy costs about half of a fresh process's start-up, so neither
    # they nor the import may load it
    env = {**os.environ,
           "PYTHONPATH": str(Path(ssblow.__file__).resolve().parents[1]),
           "SSBLOW_OUT_DIR": str(tmp_path / "out")}
    probe = ("import sys\n"
             "from ssblow import cli\n"
             "code = cli.main(sys.argv[1:]) if sys.argv[1:] else None\n"
             "print('numpy' in sys.modules, code, file=sys.stderr)\n")
    proc = subprocess.run([sys.executable, "-c", probe, *argv], env=env,
                          capture_output=True, text=True, timeout=60)
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


def test_simulate_and_endgame_leave_scipy_unloaded(tmp_path):
    # the elliptic solver is numpy only: a Dirichlet run and the Laplace
    # endgame, its two callers, load no part of scipy
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("nr = 9\nnz = 9\nz_bc = dirichlet\nt_end = 0.01\n")
    env = {**os.environ,
           "PYTHONPATH": str(Path(ssblow.__file__).resolve().parents[1]),
           "SSBLOW_OUT_DIR": str(tmp_path / "out")}
    probe = (
        "import sys\n"
        "from ssblow import cli, rigidity\n"
        f"assert cli.main(['simulate', '--config', {str(cfg)!r}]) == 0\n"
        "grid = rigidity.HalfPlaneGrid(-4.0, -4.0, 4.0, 21, 41)\n"
        "rep = rigidity.psi_endgame(True, grid, lambda R, Z: 2 * R + 1)\n"
        "assert abs(rep.a - 2) < 1e-8, rep\n"
        "sys.exit(any(m == 'scipy' or m.startswith('scipy.')\n"
        "             for m in sys.modules))\n")
    assert subprocess.run([sys.executable, "-c", probe], env=env,
                          timeout=60).returncode == 0


def test_one_process_runs_match_fresh_runs(monkeypatch, tmp_path, capsys):
    # main builds its parser once per process; later calls parse against
    # the same parser and must behave as a fresh process does
    calls = (["verify", "--gamma", "abc"],
             ["derive", "--mode", "generalized", "--depth", "2"],
             ["verify", "--gamma", "2/5", "--kmax", "3"])
    env = {**os.environ,
           "PYTHONPATH": str(Path(ssblow.__file__).resolve().parents[1])}
    env.pop("SSBLOW_OUT_DIR", None)
    monkeypatch.delenv("SSBLOW_OUT_DIR", raising=False)
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
                    man = json.loads(data)
                    man.pop("wall_time")
                    data = man
                files[str(path.relative_to(root))] = data
        return files

    want = outputs(fresh)
    assert sorted({Path(name).parts[0] for name in want}) == ["run1", "run2"]
    assert outputs(inproc) == want
