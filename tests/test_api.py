"""Every exported name resolves."""

import importlib

import pytest

MODULES = ("cocval", "cocval.distributions", "cocval.risk_measures", "cocval.montecarlo",
           "cocval.capital_solver", "cocval.valuation", "cocval.analysis", "cocval.cli")


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []
