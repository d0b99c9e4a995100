"""The four workloads: command lines for ``cocval.cli.main`` and the
checks on what each command prints or writes.

Every check compares against ``oracles``, which computes its reference
values with scipy alone; no check compares against saved output.  The
oracles are imported inside the checks, after the timed rounds, so that
scipy.stats and scipy.optimize do not count in a workload's peak RSS.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

WORKLOADS = ("sweep_var", "sweep_es", "value_mc", "closed_form")

ETA = 0.06  # the command line's default, used by every preset
LOGNORMAL_CLAIM = {"kind": "lognormal", "mean": 1.0, "sd": 0.3}
LOGNORMAL_ASSET = {"kind": "lognormal", "mean": 1.05, "sd": 0.2}
DEFAULT_ASSET = {"kind": "degenerate", "value": 1.0}

# Monte Carlo figures run on this grid: 11 weights keep one round near
# 2 s at the default 1e6 scenarios, so a run holds several rounds.
SWEEP_GRID_STEP = 0.1
# Rows of a Monte Carlo sweep checked against the quadrature oracles.
CHECK_WEIGHTS = (0.0, 0.5, 1.0)
# A Monte Carlo estimate passes when it lies within K_SE of its own
# reported standard errors of the reference.  Over 12 seeds and 10
# markets the largest |z| seen was 3.0.
K_SE = 5.0
# Tolerance for a figure reported without a standard error: a closed
# form or a quadrature, compared with an independent quadrature.
CLOSED_REL_TOL = 1e-9
# The normal-model rows against their defining equations.
GAUSSIAN_REL_TOL = 1e-12

# (name, claim, asset or None for the default, w or None for the
# default 0, risk measure, alpha); each gets its own scenario seed.
VALUE_MC = (
    ("lognormal_var", LOGNORMAL_CLAIM, LOGNORMAL_ASSET, 0.5, "var", 0.005),
    ("lognormal_es", LOGNORMAL_CLAIM, LOGNORMAL_ASSET, 0.5, "es", 0.01),
    ("pareto_2", {"kind": "pareto", "mean": 1.0, "beta": 2.0}, LOGNORMAL_ASSET, 0.5, "var", 0.005),
    ("pareto_1.1", {"kind": "pareto", "mean": 1.0, "beta": 1.1}, LOGNORMAL_ASSET, 0.5, "var",
     0.005),
    # Z = S can be <= 0 here: P(Z <= 0) = 2.3e-4.
    ("lognormal_normal_asset", LOGNORMAL_CLAIM, {"kind": "normal", "mean": 1.05, "sd": 0.3},
     1.0, "var", 0.005),
    ("normal_default_asset", {"kind": "normal", "mean": 1.0, "sd": 0.3}, None, None, "var",
     0.005),
)

# Normal-model figures: (preset, claim sd); asset N(1.05, 0.2), VaR 0.005.
GAUSSIAN_FIGURES = (("fig1b", 0.3), ("fig2b", 0.4))
GAUSSIAN_GRID_STEP = 0.001

# The worked heavy-tail table of the paper, rounded as printed there:
# beta -> (r0, llo, v0, v0_upper).
PAPER_PARETO_TABLE = {2.0: ("7.071", "0.0334", "1.310", "1.344"),
                      1.1: ("11.23", "0.53", "1.05", "1.58")}


@dataclass(frozen=True)
class Output:
    code: int | None   # None when main raised
    stdout: str
    file_text: str | None


@dataclass(frozen=True)
class Op:
    name: str
    argv: tuple[str, ...]
    out: Path | None                     # the file the command writes
    # problems in the output of a command that exited 0; empty when right
    check: Callable[[Output], list[str]]


def _json(spec: dict) -> str:
    return json.dumps(spec, separators=(",", ":"))


def _close(value: float, ref: float, rel: float) -> bool:
    return abs(value - ref) <= rel * max(abs(ref), 1e-300)


# --- checks ----------------------------------------------------------------

def _check_estimate(label: str, value: float, se: float | None, ref: float) -> list[str]:
    if se is None:
        if not _close(value, ref, CLOSED_REL_TOL):
            return [f"{label} = {value!r}, reference {ref!r} (no standard error)"]
        return []
    if not (se > 0.0 and abs(value - ref) <= K_SE * se):
        return [f"{label} = {value!r}, reference {ref!r}, se {se!r}: "
                f"z = {(value - ref) / se if se else math.inf:.2f}"]
    return []


def _check_valuation(label: str, rec: dict, claim: dict, asset: dict, w: float,
                     kind: str, alpha: float) -> list[str]:
    """r0 against the root of the defining equation, v0 against the
    premium at the reported r0, each within K_SE of its own standard
    error (or CLOSED_REL_TOL when the figure carries none)."""
    import oracles

    market = oracles.Market(oracles.law_from_spec(claim), oracles.law_from_spec(asset), w)
    root = (oracles.var_root if kind == "var" else oracles.es_root)(market, alpha)
    problems = _check_estimate(f"{label} r0", rec["r0"], rec["r0_se"], root)
    premium = oracles.premium(market, rec["r0"], ETA)
    problems += _check_estimate(f"{label} v0", rec["v0"], rec["v0_se"], premium)
    return problems


def _parse_sweep(text: str) -> tuple[list[dict], dict]:
    body = [line for line in text.splitlines() if not line.startswith("#")]
    summary = {}
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(",")
            summary[key] = float(value) if value else None
    rows = [{k: (float(v) if v != "" else None) for k, v in row.items()}
            for row in csv.DictReader(io.StringIO("\n".join(body)))]
    return rows, summary


def _check_sweep_rows(rows: list[dict], step: float) -> list[str]:
    """The grid, full rows, and v0 = r0 - c0 to CSV precision."""
    count = round(1.0 / step) + 1
    if len(rows) != count:
        return [f"{len(rows)} rows, expected {count}"]
    problems = []
    for i, row in enumerate(rows):
        if abs(row["w"] - i * step) > 1e-12:
            problems.append(f"row {i}: w = {row['w']!r}")
        if row["r0"] is None or row["c0"] is None or row["v0"] is None:
            problems.append(f"row {i}: empty r0, c0 or v0")
            continue
        # each cell carries 15 significant digits
        if abs(row["v0"] - (row["r0"] - row["c0"])) > 2e-14 * abs(row["r0"]):
            problems.append(f"row {i}: v0 != r0 - c0")
    return problems


def _check_mc_sweep(out: Output, claim: dict, asset: dict, kind: str,
                    alpha: float) -> list[str]:
    rows, summary = _parse_sweep(out.file_text or "")
    problems = _check_sweep_rows(rows, SWEEP_GRID_STEP)
    if problems:
        return problems
    for w in CHECK_WEIGHTS:
        row = rows[round(w / SWEEP_GRID_STEP)]
        problems += _check_valuation(f"w={w}", row, claim, asset, w, kind, alpha)
    r0s = [row["r0"] for row in rows]
    if summary.get("w_star") != rows[r0s.index(min(r0s))]["w"]:
        problems.append(f"w_star = {summary.get('w_star')!r} is not the argmin of r0")
    return problems


def _check_value(out: Output, claim: dict, asset: dict, w: float, kind: str,
                 alpha: float, seed: int | None) -> list[str]:
    rec = json.loads(out.stdout)
    problems = []
    if rec["w"] != w or rec["risk_measure"] != kind or rec["alpha"] != alpha:
        problems.append(f"echoed inputs differ: {rec['w']}, {rec['risk_measure']}, {rec['alpha']}")
    if seed is not None and rec["seed"] != seed:
        problems.append(f"echoed seed {rec['seed']} != {seed}")
    if rec["v0"] != rec["r0"] - rec["c0"]:
        problems.append("v0 != r0 - c0")
    return problems + _check_valuation("value", rec, claim, asset, w, kind, alpha)


def _check_gaussian_figure(out: Output, nu: float) -> list[str]:
    """Every row against the normal model's defining equations; w_star and
    w_hat against minimize_scalar and brentq on the same equations."""
    import oracles

    rows, summary = _parse_sweep(out.file_text or "")
    problems = _check_sweep_rows(rows, GAUSSIAN_GRID_STEP)
    if problems:
        return problems
    for row in rows:
        ref = oracles.gaussian_row(1.0, nu, 1.05, 0.2, row["w"], "var", 0.005, ETA)
        for key in ("r0", "c0", "v0", "v0_upper", "v0_lower", "llo"):
            if not _close(row[key], ref[key], GAUSSIAN_REL_TOL):
                problems.append(f"w={row['w']}: {key} = {row[key]!r}, reference {ref[key]!r}")
    w_min, w_hat = oracles.gaussian_decision_weights(1.0, nu, 1.05, 0.2, "var", 0.005)
    if abs(summary["w_star"] - w_min) > GAUSSIAN_GRID_STEP + 1e-12:
        problems.append(f"w_star = {summary['w_star']!r}, minimizer {w_min!r}")
    # The paper's closed-form threshold presumes gamma > nu * multiplier;
    # otherwise the figure leaves it empty.
    if 1.0 > nu * oracles.gaussian_multiplier("var", 0.005):
        if summary["w_hat_closed"] is None or not _close(summary["w_hat_closed"], w_hat,
                                                         CLOSED_REL_TOL):
            problems.append(f"w_hat_closed = {summary['w_hat_closed']!r}, crossing {w_hat!r}")
    elif summary["w_hat_closed"] is not None:
        problems.append(f"w_hat_closed = {summary['w_hat_closed']!r} outside its domain")
    if abs(summary["w_hat_numeric"] - w_hat) > GAUSSIAN_GRID_STEP:
        problems.append(f"w_hat_numeric = {summary['w_hat_numeric']!r}, crossing {w_hat!r}")
    return problems


def _check_pareto_example(out: Output) -> list[str]:
    """The printed table against the paper's rounded figures and against
    the quadrature root and premium at w = 0."""
    import oracles

    problems = []
    lines = out.stdout.splitlines()[1:]
    if len(lines) != 2:
        return [f"expected two table rows, got {len(lines)}"]
    for line in lines:
        beta, r0, llo, upper, v0 = (float(cell) for cell in line.split())
        for value, printed in zip((r0, llo, v0, upper), PAPER_PARETO_TABLE[beta]):
            decimals = len(printed.partition(".")[2])
            if abs(value - float(printed)) > 0.5 * 10.0 ** -decimals + 1e-12:
                problems.append(f"beta {beta}: {value} does not round to the paper's {printed}")
        market = oracles.Market(oracles.law_from_spec({"kind": "pareto", "mean": 1.0,
                                                       "beta": beta}),
                                oracles.law_from_spec(DEFAULT_ASSET), 0.0)
        root = oracles.var_root(market, 0.005)
        v0_ref = oracles.premium(market, root, ETA)
        upper_ref = (market.claim.mean + ETA * root) / (1.0 + ETA)
        for key, value, ref in (("r0", r0, root), ("v0", v0, v0_ref),
                                ("v0_upper", upper, upper_ref),
                                ("llo", llo, upper_ref - v0_ref)):
            if abs(value - ref) > 5.1e-7:  # printed with six decimals
                problems.append(f"beta {beta}: {key} = {value}, reference {ref!r}")
    return problems


# --- the workloads -----------------------------------------------------------

def _mc_sweep(figure: str, kind: str, alpha: float, seed: int, workdir: Path) -> list[Op]:
    out = workdir / f"{figure}.csv"
    argv = ("figure", figure, "--grid-step", repr(SWEEP_GRID_STEP), "--seed", str(seed),
            "--out", str(out))
    check = partial(_check_mc_sweep, claim=LOGNORMAL_CLAIM, asset=LOGNORMAL_ASSET,
                    kind=kind, alpha=alpha)
    return [Op(figure, argv, out, check)]


def _value_mc(seed: int) -> list[Op]:
    ops = []
    for i, (name, claim, asset, w, kind, alpha) in enumerate(VALUE_MC):
        op_seed = 10 * seed + i
        argv = ["value", "--claim", _json(claim), "--risk-measure", kind,
                "--alpha", repr(alpha), "--eta", repr(ETA), "--seed", str(op_seed)]
        if asset is not None:
            argv += ["--asset", _json(asset)]
        if w is not None:
            argv += ["--w", repr(w)]
        check = partial(_check_value, claim=claim, asset=asset or DEFAULT_ASSET, w=w or 0.0,
                        kind=kind, alpha=alpha, seed=op_seed)
        ops.append(Op(name, tuple(argv), None, check))
    return ops


def _closed_form(workdir: Path) -> list[Op]:
    ops = []
    for figure, nu in GAUSSIAN_FIGURES:
        out = workdir / f"{figure}.csv"
        ops.append(Op(figure, ("figure", figure, "--out", str(out)), out,
                      partial(_check_gaussian_figure, nu=nu)))
    pareto = {"kind": "pareto", "mean": 1.0, "sd": 0.3}
    for name, claim, w in (("lognormal_pair_w1", LOGNORMAL_CLAIM, 1.0),
                           ("lognormal_riskless", LOGNORMAL_CLAIM, 0.0),
                           ("pareto_riskless", pareto, 0.0)):
        argv = ("value", "--claim", _json(claim), "--asset", _json(LOGNORMAL_ASSET),
                "--w", repr(w), "--eta", repr(ETA))
        ops.append(Op(name, argv, None,
                      partial(_check_value, claim=claim, asset=LOGNORMAL_ASSET, w=w,
                              kind="var", alpha=0.005, seed=None)))
    ops.append(Op("pareto_example", ("pareto-example",), None, _check_pareto_example))
    return ops


def build(workload: str, seed: int, workdir: Path) -> list[Op]:
    """The operations of one round.  Only the Monte Carlo workloads use
    the seed, and only as the commands' ``--seed``."""
    if workload == "sweep_var":
        return _mc_sweep("fig3b", "var", 0.005, seed, workdir)
    if workload == "sweep_es":
        return _mc_sweep("fig8b", "es", 0.01, seed, workdir)
    if workload == "value_mc":
        return _value_mc(seed)
    if workload == "closed_form":
        return _closed_form(workdir)
    raise ValueError(f"unknown workload {workload!r}")
