"""ssblow benchmark: one workload, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the program is imported from
./src).  The run generates its inputs from --seed, repeats the workload's
operation for S seconds of measured time, checks every output, prints a
table of all metrics and, as the last line of stdout, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
with --trace 1 its per-layer metrics.  The full record, with machine and
run metadata, is written to --out (default
.bench_work/results/<workload>-seed<N>-trace<T>.json).

Load is a closed loop: one client, operations one after another.  Every
operation writes into a new, empty output directory under .bench_work/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    # at most 2 BLAS/OpenMP threads in this process and every child; set
    # before numpy loads its BLAS
    os.environ[_var] = "2"

import numpy as np  # noqa: E402

# perfbench/ is on sys.path as the script's directory
import tracer  # noqa: E402
import workloads as wl  # noqa: E402
from worker import EXIT_TRACE  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
# relative, so that results files name no absolute path; every process
# runs with the checkout root as its working directory
WORK = Path(".bench_work")
CHILD_TIMEOUT_S = 150.0
# set-up processes per run: at least SETUP_RUNS, and more until
# SETUP_SECONDS have been measured, so that a cheap set-up gets more samples
SETUP_RUNS = 7
SETUP_SECONDS = 5.0

SETUP_SLAB = ("import sys, ssblow.cli\n"
              "from ssblow import cylsim\n"
              "grid = cylsim.CylGrid(int(sys.argv[1]), int(sys.argv[2]),"
              " z_bc=sys.argv[3])\n"
              "cylsim.PoissonSolver(grid)\n")
SETUP_IMPORT = "import ssblow.cli\n"


class BenchError(RuntimeError):
    pass


# --- processes ---------------------------------------------------------------

def run_process(cmd: list, log: Path) -> dict:
    """Run cmd to completion; wall time, CPU time and peak RSS from wait4."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(log, "wb") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=fh, stderr=subprocess.STDOUT,
                                env=env, cwd=ROOT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"exit": proc.returncode, "wall_s": wall,
            "cpu_s": ru.ru_utime + ru.ru_stime,
            "rss_mb": ru.ru_maxrss / 1024.0}


def run_worker(spec: dict, tag: str, work: Path) -> tuple:
    """Run worker.py with spec; returns (process record, worker result)."""
    spec = dict(spec, work_dir=str(work / tag),
                result=str(work / f"{tag}.result.json"))
    spec_path = work / f"{tag}.spec.json"
    spec_path.write_text(json.dumps(spec))
    log = work / f"{tag}.log"
    proc = run_process([sys.executable, str(HERE / "worker.py"),
                        str(spec_path)], log)
    if proc["exit"] == EXIT_TRACE:
        raise BenchError(log.read_text().strip().splitlines()[-1])
    if proc["exit"] != 0:
        raise BenchError(f"worker {tag} exited {proc['exit']}: "
                         + log.read_text()[-2000:])
    return proc, json.loads(Path(spec["result"]).read_text())


def setup_times(code: str, args: list, work: Path) -> list:
    out = []
    while len(out) < SETUP_RUNS or sum(out) < SETUP_SECONDS:
        i = len(out)
        proc = run_process([sys.executable, "-c", code, *args],
                           work / f"setup{i}.log")
        if proc["exit"] != 0:
            raise BenchError("set-up failed: "
                             + (work / f"setup{i}.log").read_text()[-2000:])
        out.append(proc["wall_s"])
    return out


# --- workloads ---------------------------------------------------------------

def run_slab(name: str, inputs: dict, seconds: float, trace: bool,
             work: Path) -> dict:
    """Each operation is one fresh `ssblow simulate` process.  Traced runs
    alternate untraced and traced processes."""
    cfg = inputs["config"]
    setup = [] if trace else setup_times(
        SETUP_SLAB, [str(cfg["nr"]), str(cfg["nz"]), cfg["z_bc"]], work)
    ops, failures = [], []
    measured = 0.0
    while not ops or measured < seconds \
            or (trace and not any(o["traced"] for o in ops)):
        i = len(ops)
        traced = trace and i % 2 == 1
        tag = f"op{i:03d}"
        log = work / f"{tag}.log"
        if traced:
            proc, res = run_worker(
                {"ops": [{"name": "simulate", "kind": "cli",
                          "argv": ["simulate", "--config",
                                   inputs["config_path"]]}],
                 "seconds": 0.0, "trace": True,
                 "kind": "slab"}, tag, work)
            record = res["passes"][0]
            out_dir = Path(record["ops"][0]["dir"])
            code = record["ops"][0]["exit"]
            extra = {"trace": record["trace"], "import_s": res["import_s"]}
        else:
            out_dir = work / tag
            proc = run_process([sys.executable, "-m", "ssblow.cli", "simulate",
                                "--config", inputs["config_path"],
                                "--out", str(out_dir)], log)
            code = proc["exit"]
            extra = {}
        stdout = log.read_text()
        fails = [f"exit code {code}"] if code != 0 else \
            checked(wl.check_slab, name, inputs, out_dir, stdout)
        failures += [f"{tag}: {f}" for f in fails]
        ops.append({**proc, **extra, "traced": traced, "ok": not fails,
                    "steps": wl.parse_steps(stdout)})
        measured += proc["wall_s"]
        shutil.rmtree(out_dir, ignore_errors=True)
    return {"setup": setup, "ops": ops, "failures": failures}


def run_verify(name: str, inputs: dict, seconds: float, trace: bool,
               work: Path) -> dict:
    """One worker process runs passes over the workload's operations.
    Traced runs give half the time to an untraced and half to a traced
    worker."""
    setup = [] if trace else setup_times(SETUP_IMPORT, [], work)
    spec = {"ops": inputs["ops"], "kind": name}
    workers = [(False, seconds / 2 if trace else seconds)]
    if trace:
        workers.append((True, seconds / 2))
    runs, failures = [], []
    check = wl.check_symbolic if name == "verify-symbolic" \
        else wl.check_numeric
    for traced, budget in workers:
        tag = "traced" if traced else "plain"
        proc, res = run_worker(dict(spec, seconds=budget, trace=traced),
                               tag, work)
        for p, record in enumerate(res["passes"]):
            for op_spec, op in zip(inputs["ops"], record["ops"]):
                fails = [f"exit code {op['exit']}"] if op["exit"] != 0 else \
                    checked(check, op_spec, Path(op["dir"]), inputs)
                op["ok"] = not fails
                failures += [f"{tag} pass {p} {op['name']}: {f}"
                             for f in fails]
        runs.append({**proc, "traced": traced, **res})
        shutil.rmtree(work / tag, ignore_errors=True)
    return {"setup": setup, "runs": runs, "failures": failures}


def checked(check, *args) -> list:
    """Run an output check; output it cannot read is a failed check."""
    try:
        return check(*args)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]


# --- metrics -----------------------------------------------------------------

def timing(values: list, unit: str) -> dict:
    """Median with its sample count, plus the highest of p50/p90/p99/p99.9
    that has at least ten samples beyond it."""
    out = {"value": statistics.median(values), "unit": unit, "n": len(values),
           "samples": values}
    for p in (99.9, 99.0, 90.0, 50.0):
        if len(values) * (1 - p / 100) >= 10:
            out[f"p{p:g}"] = float(np.percentile(values, p))
            break
    return out


def end_to_end(kind: str, res: dict, inputs: dict) -> tuple:
    if kind == "slab":
        ops = res["ops"]
        walls = [o["wall_s"] for o in ops]
        cpus = [o["cpu_s"] for o in ops]
        rss = [o["rss_mb"] for o in ops]
    else:
        run = res["runs"][0]
        passes = run["passes"]
        walls = [p["wall_s"] for p in passes]
        cpus = [p["cpu_s"] for p in passes]
        rss = [run["rss_mb"]]
        lat = [o["latency_s"] for p in passes for o in p["ops"]]
    m = {
        "setup_s": timing(res["setup"], "s"),
        "wall_s": timing(walls, "s"),
        "cpu_s": timing(cpus, "s"),
        "peak_rss_mb": {"value": statistics.median(rss), "unit": "MB",
                        "n": len(rss)},
    }
    # defined on some workloads only, so reported but not in BENCHMARK.json
    extra = {}
    if kind == "slab":
        cfg = inputs["config"]
        steps = statistics.median(o["steps"] or 0 for o in ops)
        extra["cell_steps_per_s"] = {
            "value": cfg["nr"] * cfg["nz"] * steps / m["wall_s"]["value"],
            "unit": "1/s", "steps": steps}
    else:
        extra["ops_per_s"] = {"value": len(lat) / sum(walls), "unit": "1/s",
                              "n": len(lat)}
        extra["op_s.p50"] = timing(lat, "s")
        if len(lat) >= 100:
            extra["op_s.p90"] = {"value": float(np.percentile(lat, 90)),
                                 "unit": "s", "n": len(lat)}
    return m, extra


def per_layer(kind: str, res: dict) -> dict:
    if kind == "slab":
        traced = [o for o in res["ops"] if o["traced"]]
        plain = [o["wall_s"] for o in res["ops"] if not o["traced"]]
        summaries = [o["trace"] for o in traced]
        imports = [o["import_s"] for o in traced]
        traced_walls = [o["wall_s"] for o in traced]
    else:
        plain_run, traced_run = res["runs"]
        plain = [p["wall_s"] for p in plain_run["passes"]]
        summaries = [p["trace"] for p in traced_run["passes"]]
        imports = [traced_run["import_s"]]
        traced_walls = [p["wall_s"] for p in traced_run["passes"]]
    per_pass = [tracer.layer_metrics(s) for s in summaries]
    m = {"cli.import_s": {"value": statistics.median(imports), "unit": "s"}}
    for name, (unit, _) in tracer.LAYER_METRICS.items():
        m[name] = {"value": statistics.median(p[name] for p in per_pass),
                   "unit": unit}
    m["trace_overhead"] = {
        "value": statistics.median(traced_walls) / statistics.median(plain)
        - 1.0, "unit": "ratio"}
    return m


# --- metadata ----------------------------------------------------------------

def git_commit():
    """HEAD of the checkout, read from .git without running git (which
    would search parent directories); None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def metadata() -> dict:
    import scipy
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "git_commit": git_commit(),
        "platform": platform.platform(),
    }


# --- entry point -------------------------------------------------------------

def make_inputs(name: str, seed: int, in_dir: Path) -> dict:
    if name.startswith("slab-"):
        return wl.slab_inputs(name, seed, in_dir)
    if name == "verify-symbolic":
        return wl.symbolic_inputs(seed, in_dir)
    return wl.numeric_inputs(seed, in_dir)


def run(args, bench: dict) -> dict:
    kind = "slab" if args.workload.startswith("slab-") else args.workload
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    (work / "inputs").mkdir(parents=True)
    load_start = os.getloadavg()
    started = time.time()
    inputs = make_inputs(args.workload, args.seed, work / "inputs")
    runner = run_slab if kind == "slab" else run_verify
    res = runner(args.workload, inputs, args.seconds, bool(args.trace), work)
    if args.trace:
        metrics, extra = per_layer(kind, res), {}
    else:
        metrics, extra = end_to_end(kind, res, inputs)
    if kind == "slab":
        attempted = len(res["ops"])
        failed = sum(not o["ok"] for o in res["ops"])
    else:
        ops = [o for r in res["runs"] for p in r["passes"] for o in p["ops"]]
        attempted, failed = len(ops), sum(not o["ok"] for o in ops)
    extra["fail_frac"] = {"value": failed / attempted, "unit": "fraction",
                          "attempted": attempted}
    return {
        "workload": args.workload,
        "why": next(w["why"] for w in bench["workloads"]
                    if w["name"] == args.workload),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "started_unix": started,
        "load_avg_start": load_start,
        "load_avg_end": os.getloadavg(),
        "machine": metadata(),
        "inputs": {k: v for k, v in inputs.items() if k != "ops"},
        "metrics": metrics,
        "extra_metrics": extra,
        "failures": res["failures"][:50],
        "result": {"correct": failed == 0, "attempted": attempted,
                   "failed": failed,
                   "metrics": {k: {"value": v["value"], "unit": v["unit"]}
                               for k, v in metrics.items()}},
    }


def print_table(record: dict) -> None:
    print(f"workload {record['workload']}  seed {record['seed']}  "
          f"trace {record['trace']}  commit {record['machine']['git_commit']}")
    for name, m in {**record["metrics"], **record["extra_metrics"]}.items():
        detail = "  ".join(f"{k}={v:.6g}" if isinstance(v, float)
                           else f"{k}={v}" for k, v in m.items()
                           if k not in ("value", "unit", "samples"))
        print(f"  {name:40s} {m['value']:>14.6g} {m['unit']:12s} {detail}")
    for f in record["failures"]:
        print(f"  FAILED {f}")


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=[w["name"] for w in bench["workloads"]])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="results file (default under .bench_work)")
    args = p.parse_args(argv)
    if not (SRC / "ssblow" / "cli.py").is_file():
        print(f"no program source at {SRC}/ssblow; run from the root of an "
              "ssblow checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        record = run(args, bench)
    except BenchError as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1
    want = [m["name"] for m in
            bench["per_layer" if args.trace else "end_to_end"]]
    got = list(record["result"]["metrics"])
    if sorted(want) != sorted(got):
        print(f"metrics {got} do not match BENCHMARK.json {want}",
              file=sys.stderr)
        return 1
    out = Path(args.out) if args.out else WORK / "results" / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1) + "\n")
    print_table(record)
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
