"""Every exported name resolves, and the command line imports lightly."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cocval

MODULES = ("cocval", "cocval.distributions", "cocval.risk_measures", "cocval.montecarlo",
           "cocval.capital_solver", "cocval.valuation", "cocval.analysis", "cocval.cli")


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


_SCIPY_LOADED = "any(m == 'scipy' or m.startswith('scipy.') for m in sys.modules)"


def test_cli_import_defers_quadrature():
    # importing the command line must not pull in scipy.integrate, nor any
    # other part of scipy: only the array normal quantile of Monte Carlo
    # transforms loads it
    assert _fresh(f"import sys, cocval.cli; print({_SCIPY_LOADED})") == "False"


GAUSSIAN_MARKET = ["--claim", '{"kind":"normal","mean":1,"sd":0.3}',
                   "--asset", '{"kind":"normal","mean":1.05,"sd":0.2}', "--w", "0.5"]
LOGNORMAL_CLAIM = ["--claim", '{"kind":"lognormal","mean":1,"sd":0.3}']


@pytest.mark.parametrize("argv", [
    ["figure", "fig1b", "--grid-step", "0.1"],
    ["pareto-example"],
    ["value", *GAUSSIAN_MARKET],
    ["value", "--claim", '{"kind":"pareto","mean":1,"beta":2}'],
    ["value", *LOGNORMAL_CLAIM],
    ["value", *LOGNORMAL_CLAIM, "--asset", '{"kind":"lognormal","mean":1.05,"sd":0.2}',
     "--w", "1"],
], ids=["figure-fig1b", "pareto-example", "value-normal", "value-pareto-riskless",
        "value-lognormal-riskless", "value-lognormal-pair"])
def test_closed_form_commands_never_load_scipy(argv, tmp_path):
    # closed forms need only scalar normal functions, which the standard
    # library provides: the capped expectation of the risk-less and the
    # lognormal pair routes is a stop-loss transform or Margrabe's formula
    code = ("import contextlib, io, sys\n"
            "from cocval.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    exit_code = main({argv!r})\n"
            f"print(exit_code, {_SCIPY_LOADED})")
    assert _fresh(code, cwd=tmp_path) == "0 False"


def test_monte_carlo_value_loads_ndtri_on_first_draw():
    # 2^18 draws split over the sampler's pool when more than one CPU is
    # usable, so the first import of scipy's ndtri runs on a pool thread
    argv = ["value", "--claim", '{"kind":"lognormal","mean":1,"sd":0.3}',
            "--asset", '{"kind":"lognormal","mean":1.05,"sd":0.2}', "--w", "0.5",
            "--mc-n", "262144"]
    code = ("import contextlib, io, json, sys\n"
            "from cocval import montecarlo\n"
            "from cocval.cli import main\n"
            "before = 'scipy.special' in sys.modules\n"
            "out = io.StringIO()\n"
            "with contextlib.redirect_stdout(out):\n"
            f"    exit_code = main({argv!r})\n"
            "split = montecarlo._pool is not None or montecarlo._usable_cpus() == 1\n"
            "print(exit_code, before, 'scipy.special' in sys.modules, split,\n"
            "      json.loads(out.getvalue())['r0_method'])")
    assert _fresh(code) == "0 False True True empirical_root"
