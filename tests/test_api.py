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


def test_cli_import_defers_quadrature():
    # Monte Carlo and normal-model commands never integrate, so importing
    # the command line must not pull in scipy.integrate
    src = str(Path(cocval.__file__).resolve().parent.parent)
    code = "import sys, cocval.cli; print('scipy.integrate' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, check=True, env={**os.environ, "PYTHONPATH": src})
    assert done.stdout.strip() == "False"
