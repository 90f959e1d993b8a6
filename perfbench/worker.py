"""Child process of the benchmark: runs passes of operations in one
interpreter, optionally traced, and writes what it measured as JSON.

    python3 perfbench/worker.py SPEC.json

SPEC holds `ops` (a list of operations), `seconds` (keep starting passes
until this much operation time has been measured; at least one pass),
`trace`, `kind` (the tracer's expectation key), `work_dir` and `result`.
An operation is one of

    {"name": ..., "kind": "cli", "argv": [...]}
                                          ssblow.cli.main(argv + --out DIR)
    {"name": ..., "kind": "endgame"}      rigidity.psi_endgame
    {"name": ..., "kind": "noisy_fits", "series": PATH}
                                          cylsim.track_blowup on each series

Every operation gets a new, empty output directory.  Only the operation
itself is timed; loading inputs and writing reports happen outside it.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from pathlib import Path


def _cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _far_field(R, Z):
    # Psi = 2R + 1: harmonic, and constant along the R = 0 edge
    return 2.0 * R + 1.0


def _load_noisy(path):
    import numpy as np
    from ssblow import cylsim

    data = np.load(path)
    out = []
    for M, d in zip(data["max_omega1"], data["delta"]):
        s = cylsim.BlowupSeries()
        s.t = list(data["t"])
        s.max_omega1 = list(M)
        s.max_u1 = list(M)
        s.delta = list(d)
        s.box = [(0.0, x, 0.0, x) for x in d]
        out.append(s)
    return out


def _run_op(op, out_dir: Path, inputs: dict):
    """Run one operation; returns (exit code, report to write or None)."""
    from ssblow import cli, cylsim, rigidity

    if op["kind"] == "cli":
        return cli.main(op["argv"] + ["--out", str(out_dir)]), None
    if op["kind"] == "endgame":
        rep = rigidity.psi_endgame(True, rigidity.HalfPlaneGrid(), _far_field,
                                   radii=(10.0, 20.0))
        return 0, rep.to_json()
    if op["kind"] == "noisy_fits":
        fits = [cylsim.track_blowup(s) for s in inputs[op["series"]]]
        return 0, {"gamma_fit": [f.gamma_fit for f in fits],
                   "T_fit": [f.T_fit for f in fits]}
    raise ValueError(f"unknown operation kind {op['kind']!r}")


#: exit status of a traced run whose tracer failed; the benchmark aborts
EXIT_TRACE = 70


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    t0 = time.perf_counter()
    import ssblow.cli  # noqa: F401  (timed: the program's import cost)
    import_s = time.perf_counter() - t0

    tracer = None
    if spec["trace"]:
        from tracer import Tracer, check_expected
        tracer = Tracer()
        tracer.install()

    inputs = {op["series"]: _load_noisy(op["series"])
              for op in spec["ops"] if op["kind"] == "noisy_fits"}
    work = Path(spec["work_dir"])
    passes = []
    measured = 0.0
    while not passes or measured < spec["seconds"]:
        p = len(passes)
        ops = []
        for i, op in enumerate(spec["ops"]):
            out_dir = work / f"p{p:03d}" / f"{i:02d}_{op['name']}"
            c0 = _cpu()
            w0 = time.perf_counter()
            try:
                code, report = _run_op(op, out_dir, inputs)
            except Exception:
                # a failed operation is counted, not fatal to the run
                traceback.print_exc()
                code, report = -1, None
            latency = time.perf_counter() - w0
            cpu = _cpu() - c0
            if report is not None:
                out_dir.mkdir(parents=True)
                (out_dir / "report.json").write_text(json.dumps(report))
            ops.append({"name": op["name"], "dir": str(out_dir),
                        "exit": code, "latency_s": latency, "cpu_s": cpu})
        record = {"ops": ops, "wall_s": sum(o["latency_s"] for o in ops),
                  "cpu_s": sum(o["cpu_s"] for o in ops)}
        if tracer is not None:
            summary = tracer.summary()
            check_expected(summary, spec["kind"])
            record["trace"] = summary
            tracer.reset()
        measured += record["wall_s"]
        passes.append(record)
    Path(spec["result"]).write_text(json.dumps(
        {"import_s": import_s, "passes": passes}))
    return 0


if __name__ == "__main__":
    from tracer import TraceError  # the script's directory is on sys.path
    try:
        sys.exit(main(sys.argv[1]))
    except TraceError as exc:
        print(f"trace error: {exc}", file=sys.stderr)
        sys.exit(EXIT_TRACE)
