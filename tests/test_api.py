"""Every exported name resolves, the value types keep the record
contract, and the command line imports lightly: numpy loads with the
first Monte Carlo draw, never before, no run loads scipy, and the
import loads none of the heavy standard-library conveniences."""

import importlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cocval
from cocval import (Degenerate, Lognormal, MarketSpec, Normal, ParetoTypeI, RiskMeasure,
                    SolveReport, SweepResult, ValuationResult)
from cocval.capital_solver import LossSummary, _Candidates
from cocval.cli import RunConfig

MODULES = ("cocval", "cocval.distributions", "cocval.risk_measures", "cocval.market",
           "cocval.montecarlo", "cocval.capital_solver", "cocval.valuation", "cocval.analysis",
           "cocval.cli")


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


def _fresh(code: str, cwd=None, flags=()) -> str:
    """Standard output of ``code`` run in a fresh interpreter on this
    source, with the interpreter's command-line ``flags``."""
    src = str(Path(cocval.__file__).resolve().parent.parent)
    done = subprocess.run([sys.executable, *flags, "-c", code], capture_output=True, text=True,
                          timeout=120, check=True, cwd=cwd,
                          env={**os.environ, "PYTHONPATH": src})
    return done.stdout.strip()


SUMMARY = LossSummary(1000, -0.2, 0.09, 0.01, 0.5, 0.4)
ROW = dict(r0=1.5, c0=0.4, v0=1.1, llo=0.02, v0_upper=1.12, v0_lower=0.9,
           r0_method="empirical_root", valuation_method="mc", residual=0.0, iterations=2,
           r0_se=0.01, c0_se=0.002, v0_se=0.002, llo_se=0.001)

# Each record type: its fields in the order of the former dataclass, a
# valid change to them, and a change its checks refuse (None: it has none).
RECORDS = [
    (Normal, dict(mean=1.0, sd=0.3), dict(mean=2.0), dict(sd=-1.0)),
    (Lognormal, dict(mu_log=0.1, sd_log=0.4), dict(sd_log=0.5), dict(sd_log=0.0)),
    (ParetoTypeI, dict(x_m=0.5, beta=2.0), dict(x_m=0.6), dict(beta=1.0)),
    (Degenerate, dict(value=1.0), dict(value=2.0), None),
    (MarketSpec, dict(claim=Normal(1.0, 0.3), asset=Normal(1.05, 0.2), w=0.25, eta=0.06),
     dict(w=0.5), dict(w=2.0)),
    (SolveReport, dict(r0=1.5, residual=0.0, iterations=2, std_error=0.01, losses=SUMMARY),
     dict(iterations=3), None),
    (RiskMeasure, dict(kind="var", alpha=0.005), dict(kind="es"), dict(alpha=0.5)),
    (ValuationResult, ROW, dict(llo_se=None), dict(r0=math.inf)),
    (SweepResult, dict(grid=(0.0, 1.0), rows=(None, None), w_star=None, w_hat_numeric=None,
                       w_hat_closed=0.3), dict(w_star=0.0), None),
    (RunConfig, dict(claim={"kind": "normal", "mean": 1.0, "sd": 0.3}, asset=None,
                     risk_measure={"kind": "es", "alpha": 0.01}, eta=0.06, w=0.5,
                     grid_step=0.1, mc_n=1000, seed=3, out="run.csv"), dict(seed=4), None),
    (LossSummary, dict(n=1000, mean=-0.2, var=0.09, p_mean=0.01, p_ss=0.5, pl_sum=0.4),
     dict(n=999), None),
    (_Candidates, dict(n=1000, alpha=0.005, k=5, m=32, x=np.arange(3.0), s=np.ones(3),
                       x_mean=1.0, s_mean=1.05, x_var=0.09, s_var=0.04, xs_cov=0.0,
                       zero_risk=None), dict(k=6), None),
]
# fields left out of equality, hash and repr
HIDDEN = {SolveReport: ("losses",), _Candidates: ("x", "s")}


@pytest.mark.parametrize("cls, fields, change, bad", RECORDS,
                         ids=[cls.__name__ for cls, *_ in RECORDS])
def test_record_contract(cls, fields, change, bad):
    a, b = cls(*fields.values()), cls(**fields)
    # positional and keyword construction, the fields in their old order
    for record in (a, b):
        assert tuple(vars(record)) == tuple(fields)
        assert all(vars(record)[name] is value for name, value in fields.items())
    shown = [name for name in fields if name not in HIDDEN.get(cls, ())]
    assert repr(a) == f"{cls.__name__}({', '.join(f'{n}={fields[n]!r}' for n in shown)})"
    # equality over the shown fields, for the same type only
    assert a == b and not a != b
    assert a.__eq__(object()) is NotImplemented
    changed = a.replace(**change)
    assert type(changed) is cls and changed != a
    assert vars(changed) == vars(a) | change
    for name in HIDDEN.get(cls, ()):
        assert a.replace(**{name: None}) == a
    if bad is not None:  # replace checks the new value as __init__ does
        with pytest.raises(ValueError):
            a.replace(**bad)
    name, value = next(iter(change.items()))
    if cls is RunConfig:  # the command line fills it in field by field
        setattr(a, name, value)
        assert a == changed
        with pytest.raises(TypeError):
            hash(a)
        return
    assert hash(a) == hash(b)
    for attempt in (lambda: setattr(a, name, value), lambda: delattr(a, name),
                    lambda: setattr(a, "extra", value)):
        with pytest.raises(AttributeError):
            attempt()
    assert vars(a) == vars(b)


def test_record_repr_text():
    # the dataclass format; a solve report leaves its losses out
    assert repr(Normal(1.0, 0.3)) == "Normal(mean=1.0, sd=0.3)"
    assert repr(SolveReport(1.5, 0.0, 0, losses=SUMMARY)) == (
        "SolveReport(r0=1.5, residual=0.0, iterations=0, std_error=None)")
    assert repr(MarketSpec(Degenerate(1.0), Degenerate(1.0), 0.0, 0.06)) == (
        "MarketSpec(claim=Degenerate(value=1.0), asset=Degenerate(value=1.0), w=0.0, "
        "eta=0.06)")


# whether any part of numpy or scipy is loaded
_SCIPY_LOADED = "any(m.partition('.')[0] in ('numpy', 'scipy') for m in sys.modules)"


# Modules that importing the command line must not load: numpy and scipy,
# which only the arrays of a Monte Carlo run need, and standard-library
# conveniences that cost more to import than the package itself.
_HEAVY = ("numpy", "scipy", "dataclasses", "inspect", "statistics", "typing")


@pytest.mark.parametrize("flags", [(), ("-S",)], ids=["site", "no-site"])
def test_cli_import_loads_no_heavy_module(flags):
    # against the modules loaded before the import, since a site hook may
    # preload some of them; and no numpy or scipy at all
    code = ("import sys\n"
            "before = set(sys.modules)\n"
            "import cocval.cli\n"
            "new = {m.partition('.')[0] for m in set(sys.modules) - before}\n"
            f"print(sorted(new & set({_HEAVY!r})), {_SCIPY_LOADED})")
    assert _fresh(code, flags=flags) == "[] False"


def test_market_imports_only_what_every_route_shares():
    # the package's __init__ imports every module, so a bare package
    # stands in for it: then cocval.market loads no peer beyond its own
    code = ("import importlib.util, sys, types\n"
            "pkg = types.ModuleType('cocval')\n"
            "pkg.__path__ = importlib.util.find_spec('cocval').submodule_search_locations\n"
            "sys.modules['cocval'] = pkg\n"
            "import cocval.market\n"
            "print(sorted(m for m in sys.modules if m.startswith('cocval.')),"
            " cocval.market.__all__)")
    assert _fresh(code) == ("['cocval._record', 'cocval.distributions', 'cocval.market'] "
                            "['MarketSpec', 'SolveReport', 'NoSolutionError', 'check_grid', "
                            "'check_memory']")


GAUSSIAN_CLAIM_ASSET = ["--claim", '{"kind":"normal","mean":1,"sd":0.3}',
                        "--asset", '{"kind":"normal","mean":1.05,"sd":0.2}']
GAUSSIAN_MARKET = [*GAUSSIAN_CLAIM_ASSET, "--w", "0.5"]
LOGNORMAL_CLAIM = ["--claim", '{"kind":"lognormal","mean":1,"sd":0.3}']


@pytest.mark.parametrize("argv", [
    ["figure", "fig1b", "--grid-step", "0.1"],
    ["figure", "fig2b"],
    ["sweep", *GAUSSIAN_CLAIM_ASSET, "--risk-measure", "es", "--alpha", "0.01"],
    ["pareto-example"],
    ["value", *GAUSSIAN_MARKET],
    ["value", "--claim", '{"kind":"pareto","mean":1,"beta":2}'],
    ["value", *LOGNORMAL_CLAIM],
    ["value", *LOGNORMAL_CLAIM, "--asset", '{"kind":"lognormal","mean":1.05,"sd":0.2}',
     "--w", "1"],
], ids=["figure-fig1b", "figure-fig2b", "sweep-normal", "pareto-example", "value-normal",
        "value-pareto-riskless", "value-lognormal-riskless", "value-lognormal-pair"])
def test_closed_form_commands_never_load_scipy(argv, tmp_path):
    # closed forms need only scalar functions, which the standard library
    # provides: the capped expectation of the risk-less and the lognormal
    # pair routes is a stop-loss transform or Margrabe's formula, and a
    # normal-model grid is a tuple of floats
    code = ("import contextlib, io, sys\n"
            "from cocval.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    exit_code = main({argv!r})\n"
            f"print(exit_code, {_SCIPY_LOADED})")
    assert _fresh(code, cwd=tmp_path) == "0 False"


@pytest.mark.parametrize("argv", [
    ["value", *LOGNORMAL_CLAIM, "--asset", '{"kind":"lognormal","mean":1.05,"sd":0.2}',
     "--w", "0.5", "--mc-n", "262144"],
    ["figure", "fig8b", "--grid-step", "0.1", "--mc-n", "262144"],
    ["figure", "fig15b", "--grid-step", "0.1", "--mc-n", "262144"],
], ids=["value-lognormal-mc", "figure-es", "figure-pareto"])
def test_monte_carlo_runs_load_numpy_and_no_scipy(argv, tmp_path):
    # 2^18 draws split over the sampler's pool when more than one CPU is
    # usable, so the quantiles run on pool threads; numpy comes with the
    # run, not with the command line, and the normal quantile is numpy's
    code = ("import contextlib, io, sys\n"
            "from cocval.cli import main\n"
            "before = 'numpy' in sys.modules\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    exit_code = main({argv!r})\n"
            "from cocval import montecarlo\n"
            "split = montecarlo._pool is not None or montecarlo._usable_cpus() == 1\n"
            "scipy = any(m.partition('.')[0] == 'scipy' for m in sys.modules)\n"
            "print(exit_code, before, 'numpy' in sys.modules, scipy, split)")
    assert _fresh(code, cwd=tmp_path) == "0 False True False True"
