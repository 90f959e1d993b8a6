"""Run every workload untraced and traced at seed 1 and write the
results, with their machine and run metadata, to one file.

    python3 perfbench/baseline.py [--out perfbench/baseline.json]

Run from the root of a source checkout.  Each run's table and result
line are printed as run.py prints them; the file holds the full records.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SEED = 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--out", default=str(HERE / "baseline.json"))
    args = p.parse_args(argv)
    bench = json.loads(Path("BENCHMARK.json").read_text())
    records = []
    for trace in (0, 1):
        for name in (w["name"] for w in bench["workloads"]):
            out = Path(".bench_work", "results",
                       f"baseline-{name}-trace{trace}.json")
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", str(SEED),
                 "--seconds", str(bench["run_seconds"]),
                 "--trace", str(trace), "--out", str(out)])
            if proc.returncode != 0:
                print(f"{name} trace {trace} exited {proc.returncode}",
                      file=sys.stderr)
                return 1
            records.append(json.loads(out.read_text()))
    Path(args.out).write_text(json.dumps(
        {"seed": SEED, "run_seconds": bench["run_seconds"],
         "runs": records}, indent=1) + "\n")
    return 0 if all(r["result"]["correct"] for r in records) else 1


if __name__ == "__main__":
    sys.exit(main())
