"""Every exported name resolves, and the command line imports lightly:
numpy loads with the first Monte Carlo draw, never before, and no run
loads scipy."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cocval

MODULES = ("cocval", "cocval.distributions", "cocval.risk_measures", "cocval.market",
           "cocval.montecarlo", "cocval.capital_solver", "cocval.valuation", "cocval.analysis",
           "cocval.cli")


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


def _fresh(code: str, cwd=None) -> str:
    """Standard output of ``code`` run in a fresh interpreter on this source."""
    src = str(Path(cocval.__file__).resolve().parent.parent)
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, check=True, cwd=cwd,
                          env={**os.environ, "PYTHONPATH": src})
    return done.stdout.strip()


# whether any part of numpy or scipy is loaded
_SCIPY_LOADED = "any(m.partition('.')[0] in ('numpy', 'scipy') for m in sys.modules)"


def test_cli_import_defers_quadrature():
    # importing the command line must pull in neither numpy nor any part
    # of scipy: only the arrays of a Monte Carlo run load them
    assert _fresh(f"import sys, cocval.cli; print({_SCIPY_LOADED})") == "False"


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
