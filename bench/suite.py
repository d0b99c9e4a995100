"""Run every workload, each in a fresh interpreter, and print a table.

    python3 bench/suite.py                    # end-to-end metrics
    python3 bench/suite.py --trace 1          # per-layer metrics and overhead

``--seconds`` defaults to ``run_seconds`` of ``BENCHMARK.json``, the run
length of the reference figures in ``bench/README.md``.

Each workload runs as ``bench/run.py --workload <name> ...`` in its own
process, one after the other, so no two compete for the cores.  The
results, with the machine facts (nproc, Python, numpy and scipy versions,
git SHA when the tree is a git checkout), are also written to
``bench/results/suite-trace<0|1>-seed<n>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from importlib import metadata
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
# One run length for the suite and the benchmark's own runs.
RUN_SECONDS = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]


def machine() -> dict:
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=HERE, capture_output=True,
                             text=True, timeout=30, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": metadata.version("numpy"), "scipy": metadata.version("scipy"),
            "git_sha": sha}


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"{name}: exit {done.returncode}\n{done.stderr}")
    if done.stderr:
        sys.stderr.write(done.stderr)
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    results = {name: run_workload(name, args.seed, args.seconds, args.trace)
               for name in workloads.WORKLOADS}
    names = list(results)
    first = results[names[0]]["metrics"]
    width = max(len(m) for m in first) + 8
    print(f"{'metric':<{width}}" + "".join(f"{n:>14}" for n in names))
    for metric, cell in first.items():
        label = f"{metric} ({cell['unit']})"
        print(f"{label:<{width}}" + "".join(
            f"{results[n]['metrics'][metric]['value']:>14.6g}" for n in names))
    for key in ("attempted", "failed", "correct"):
        print(f"{key:<{width}}" + "".join(f"{str(results[n][key]):>14}" for n in names))

    out = HERE / "results" / f"suite-trace{args.trace}-seed{args.seed}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"machine": machine(), "seed": args.seed,
                               "seconds": args.seconds, "trace": args.trace,
                               "workloads": results}, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return 0 if all(r["correct"] and r["failed"] == 0 for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
