"""Run one benchmark workload through ``cocval.cli.main`` in this process.

    python3 bench/run.py --workload sweep_var --seed 1 --seconds 15 --trace 0

Run from the root of a source tree: the program is imported from
``src/cocval`` next to this directory, never from an installed copy, and
the run fails with exit code 2 when that source is missing.

The run repeats whole rounds of the workload's commands while the next
round still ends within ``--seconds`` (at least MIN_ROUNDS rounds), checks the outputs against independent
references (``workloads``, ``oracles``), and prints one JSON object as the
last line of standard output.  With ``--trace 0`` it reports the
end-to-end metrics: ``setup_s``, the median over SETUP_SAMPLES fresh
interpreters, started between rounds, of the time to import ``cocval.cli``; ``run_s``, the median
wall time of one round; ``peak_rss_mb``, the process's peak resident
memory.  With ``--trace 1`` untraced and traced (``tracer``) rounds take
turns, and it reports the per-layer metrics as medians over the traced
rounds, the process CPU time of an untraced round, and the tracing
overhead: the median traced round minus the median untraced round.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = Path(__file__).resolve().parent / "results"

MIN_ROUNDS = 3
SETUP_SAMPLES = 11
SETUP_CODE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
              "t = time.perf_counter(); import cocval.cli; "
              "print(time.perf_counter() - t)")


def import_program():
    """Import ``cocval.cli`` from this tree's ``src``, or exit with 2."""
    if not (SRC / "cocval" / "cli.py").is_file():
        print(f"error: no program source at {SRC / 'cocval'}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import cocval.cli

    if Path(cocval.cli.__file__).resolve().parent != (SRC / "cocval").resolve():
        print(f"error: cocval was imported from {cocval.cli.__file__}", file=sys.stderr)
        raise SystemExit(2)
    return cocval.cli


def setup_sample() -> float:
    """Time to import cocval.cli in a fresh interpreter."""
    done = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)],
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def run_op(cli, op):
    """One command: (wall s, cpu s, Output)."""
    stdout, stderr = io.StringIO(), io.StringIO()
    wall0, cpu0 = time.perf_counter(), time.process_time()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(list(op.argv))
    except Exception:  # a crash is a failed operation, not the end of the run
        code = None
        traceback.print_exc(file=stderr)
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    if code != 0:
        sys.stderr.write(f"{op.name}: exit {code}\n{stderr.getvalue()}")
    text = op.out.read_text(encoding="utf-8") if op.out and op.out.is_file() else None
    if op.out:
        op.out.unlink(missing_ok=True)
    return wall, cpu, workloads.Output(code, stdout.getvalue(), text)


class Runner:
    """Whole rounds of one workload's commands; the first round's outputs
    are kept for the checks, later rounds must reproduce them exactly."""

    def __init__(self, cli, ops) -> None:
        self.cli, self.ops = cli, ops
        self.first = None        # outputs of the first round
        self.mismatched = [0] * len(ops)
        self.walls: list[float] = []
        self.cpus: list[float] = []

    def round(self) -> None:
        wall = cpu = 0.0
        outputs = []
        for op in self.ops:
            w, c, out = run_op(self.cli, op)
            wall += w
            cpu += c
            outputs.append(out)
        if self.first is None:
            self.first = outputs
        else:
            for i, (out, ref) in enumerate(zip(outputs, self.first)):
                if out != ref:
                    self.mismatched[i] += 1
                    sys.stderr.write(f"{self.ops[i].name}: output differs from round 1\n")
        self.walls.append(wall)
        self.cpus.append(cpu)

    def verdict(self) -> tuple[bool, int, int]:
        """(correct, attempted, failed).

        An operation fails in a round when it did not exit 0, when its
        output breaks a check, or when it differs from round 1.  Wrong
        output makes the run incorrect; a bare error exit does not.
        """
        rounds = len(self.walls)
        failed, correct = 0, True
        for i, (op, out) in enumerate(zip(self.ops, self.first)):
            if out.code != 0:
                problems = [f"exit code {out.code}"]
            else:
                try:
                    problems = op.check(out)
                except Exception:  # unreadable output is a failed check
                    problems = [traceback.format_exc()]
            for problem in problems:
                sys.stderr.write(f"{op.name}: {problem}\n")
            if problems:
                failed += rounds
                correct = correct and out.code != 0
            else:
                failed += self.mismatched[i]
                correct = correct and self.mismatched[i] == 0
        return correct, rounds * len(self.ops), failed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    # One thread drives each workload; keep numerical libraries to one too.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    cli = import_program()
    RESULTS.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RESULTS))
    try:
        ops = workloads.build(args.workload, args.seed, workdir)
        runner = Runner(cli, ops)
        if args.trace == 0:
            setup = [setup_sample()]
            start = time.perf_counter()

            def step() -> None:
                # Spread the set-up samples over the run, so that one slow
                # spell of the machine does not hold all of them.
                runner.round()
                if (len(setup) < SETUP_SAMPLES and time.perf_counter() - start
                        >= len(setup) * args.seconds / SETUP_SAMPLES):
                    setup.append(setup_sample())

            repeat(step, args.seconds, MIN_ROUNDS)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            while len(setup) < SETUP_SAMPLES:
                setup.append(setup_sample())
            metrics = {
                "setup_s": {"value": statistics.median(setup), "unit": "s"},
                "run_s": {"value": statistics.median(runner.walls), "unit": "s"},
                "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            }
        else:
            metrics = traced_metrics(runner, args.seconds)
        correct, attempted, failed = runner.verdict()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def repeat(step, seconds: float, min_steps: int) -> None:
    """Call ``step`` until the next call would end after ``seconds``,
    judged by the median duration of the calls so far."""
    start = time.perf_counter()
    took: list[float] = []
    while len(took) < min_steps or (time.perf_counter() - start
                                    + statistics.median(took) <= seconds):
        t0 = time.perf_counter()
        step()
        took.append(time.perf_counter() - t0)


def traced_metrics(runner: Runner, seconds: float) -> dict:
    """Untraced and traced rounds in turn; per-layer medians over the
    traced rounds, and the overhead as the difference of the medians."""
    spans = tracer.Tracer()
    layers: list[dict] = []

    def pair() -> None:
        runner.round()
        spans.install()
        try:
            runner.round()
        finally:
            spans.uninstall()
        layers.append(tracer.layer_metrics(spans.take()))

    repeat(pair, seconds, 2)
    untraced_run_s = statistics.median(runner.walls[0::2])
    traced_run_s = statistics.median(runner.walls[1::2])
    metrics = {name: {"value": statistics.median(r[name][0] for r in layers), "unit": unit}
               for name, (_, unit) in layers[0].items()}
    metrics["cpu_s"] = {"value": statistics.median(runner.cpus[0::2]), "unit": "s"}
    metrics["trace.untraced_run_s"] = {"value": untraced_run_s, "unit": "s"}
    metrics["trace.run_s"] = {"value": traced_run_s, "unit": "s"}
    metrics["trace.overhead_s"] = {"value": traced_run_s - untraced_run_s, "unit": "s"}
    return metrics


if __name__ == "__main__":
    sys.exit(main())
