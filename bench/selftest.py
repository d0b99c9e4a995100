"""Fast self-test of the benchmark's oracles (a few seconds).

    python3 bench/selftest.py

Checks that the scalar laws agree with scipy.stats, that the independent
quadrature roots and premiums agree with the program's closed forms where
both exist (about 1e-9 relative), that the normal-model references agree
with the program's closed forms (1e-12), that the Monte Carlo checks pass
at a small scenario count, and that they reject an answer moved by ten
standard errors.  Exits 1 on the first failure.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
from pathlib import Path

from scipy import integrate

import oracles
import workloads

SRC = Path(__file__).resolve().parent.parent / "src"
SMALL_N = "20000"


def expect(label: str, ok: bool, detail: str = "") -> None:
    print(f"{'PASS' if ok else 'FAIL'} {label} {detail}".rstrip())
    if not ok:
        raise SystemExit(1)


def rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


def check_laws() -> None:
    for spec in (workloads.LOGNORMAL_CLAIM, {"kind": "normal", "mean": 1.0, "sd": 0.3},
                 {"kind": "pareto", "mean": 1.0, "beta": 1.1},
                 {"kind": "pareto", "mean": 1.0, "sd": 0.3}):
        law = oracles.law_from_spec(spec)
        frozen = law.frozen
        worst = 0.0
        for t in (0.5, 0.95, 1.3, 2.2):
            worst = max(worst, rel(law.sf(t), float(frozen.sf(t))))
            excess, _ = integrate.quad(lambda u: float(frozen.sf(u)), t, math.inf,
                                       epsabs=1e-13, epsrel=1e-11)
            worst = max(worst, rel(law.stop_loss(t), excess))
        expect(f"law {spec}: sf and stop-loss against scipy.stats", worst < 1e-9,
               f"(max rel {worst:.1e})")


def check_closed_forms() -> None:
    sys.path.insert(0, str(SRC))
    from cocval import distributions, valuation

    eta, alpha = workloads.ETA, 0.005
    riskless = oracles.law_from_spec(workloads.DEFAULT_ASSET)
    for spec in (workloads.LOGNORMAL_CLAIM, {"kind": "pareto", "mean": 1.0, "sd": 0.3}):
        market = oracles.Market(oracles.law_from_spec(spec), riskless, 0.0)
        root = oracles.var_root(market, alpha)
        prog = valuation.value_riskless_var(distributions.distribution_from_config(spec),
                                            alpha, eta)
        err = max(rel(root, prog.r0), rel(oracles.premium(market, root, eta), prog.v0))
        expect(f"w = 0 root and premium vs value_riskless_var, {spec['kind']}", err < 1e-9,
               f"(max rel {err:.1e})")
    for beta in (2.0, 1.1, 4.5):
        market = oracles.Market(oracles.Law("pareto", (beta - 1.0) / beta, beta), riskless, 0.0)
        root = oracles.var_root(market, alpha)
        prog = valuation.pareto_riskless_valuation(beta, 1.0, alpha, eta)
        err = max(rel(root, prog.r0), rel(oracles.premium(market, root, eta), prog.v0))
        expect(f"w = 0 root and premium vs pareto_riskless_valuation, beta {beta}",
               err < 1e-9, f"(max rel {err:.1e})")

    claim = oracles.law_from_spec(workloads.LOGNORMAL_CLAIM)
    asset = oracles.law_from_spec(workloads.LOGNORMAL_ASSET)
    market = oracles.Market(claim, asset, 1.0)
    root = oracles.var_root(market, alpha)
    prog = valuation.value_lognormal_var(claim.a, claim.b, asset.a, asset.b, alpha, eta)
    err = max(rel(root, prog.r0), rel(oracles.premium(market, prog.r0, eta), prog.v0))
    expect("w = 1 quadrature root and premium vs value_lognormal_var", err < 1e-9,
           f"(max rel {err:.1e})")

    # ES at w = 0: the analytic lognormal form against the general
    # VaR-plus-stop-loss route.
    riskless_market = oracles.Market(claim, riskless, 0.0)
    t = oracles.var_root(riskless_market, 0.01)
    general = t + claim.stop_loss(t) / 0.01
    err = rel(oracles.es_root(riskless_market, 0.01), general)
    expect("lognormal ES at w = 0: analytic vs VaR plus stop-loss", err < 1e-9,
           f"(rel {err:.1e})")

    worst = 0.0
    for kind in ("var", "es"):
        value = valuation.value_gaussian_var if kind == "var" else valuation.value_gaussian_es
        for w in (0.0, 0.3, 1.0):
            ref = oracles.gaussian_row(1.0, 0.3, 1.05, 0.2, w, kind, alpha, eta)
            prog = value(1.0, 0.3, w * 1.05 + 1.0 - w, w * 0.2, alpha, eta)
            for key in ("r0", "c0", "v0", "v0_upper", "llo"):
                worst = max(worst, rel(getattr(prog, key), ref[key]))
    expect("normal model vs value_gaussian_var / _es", worst < 1e-12, f"(max rel {worst:.1e})")


def check_mc_small_n() -> None:
    from cocval import cli

    for op in workloads.build("value_mc", 1, Path(".")):
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = cli.main([*op.argv, "--mc-n", SMALL_N])
        out = workloads.Output(code, stdout.getvalue(), None)
        problems = op.check(out)
        expect(f"value_mc {op.name} at n = {SMALL_N}", not problems, "; ".join(problems))

        rec = json.loads(out.stdout)
        rec["r0"] += 10.0 * rec["r0_se"]
        rec["v0"] = rec["r0"] - rec["c0"]
        moved = workloads.Output(code, json.dumps(rec), None)
        expect(f"value_mc {op.name}: r0 moved by 10 se is rejected", bool(op.check(moved)))


def main() -> int:
    check_laws()
    check_closed_forms()
    check_mc_small_n()
    return 0


if __name__ == "__main__":
    sys.exit(main())
