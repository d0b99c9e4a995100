"""Generated command lines: every input either runs to finite output or
ends with exit code 2 (usage) or 3 (no acceptable capital), with a
message and never a traceback.

Each parameter of every family, in every parameter form, and w, alpha
and eta are drawn from plausible values and from 0, negative, huge and
nan ones, and seeds from negative ones too, which must exit 2 with a
message that names ``--seed``; so must a sample size below 1 with one
that names ``--mc-n``.  The runs go through ``cli.main`` in this
process, on at most 1e4 scenarios and grid steps of at least 0.01.
"""

import contextlib
import io
import json
import math

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from cocval.cli import EXIT_NO_SOLUTION, EXIT_OK, EXIT_USAGE, FIGURE_PRESETS, main
from cocval.distributions import _FORMS

# 0, negative, huge and nan; every parameter and w, alpha and eta draw
# from these as well as from their plausible range
HOSTILE = (0.0, -1.0, -1e-300, 1e300, -1e300, math.nan)

PLAUSIBLE = {
    "mean": (0.5, 1.5), "sd": (0.05, 0.6), "mu_log": (-0.3, 0.3), "sd_log": (0.05, 0.6),
    "x_m": (0.3, 1.0), "beta": (1.05, 4.0), "value": (0.9, 1.1),
    "w": (0.0, 1.0), "alpha": (0.001, 0.05), "eta": (0.01, 0.2),
}

MC_N = (1000, 10_000)
# a sample size from MC_N, or one below 1 that must exit 2
MC_N_FLAG = st.one_of(st.sampled_from(MC_N), st.integers(-2 ** 32, 0)).map(
    lambda n: ["--mc-n", str(n)])
GRID_STEPS = (1.0, 0.5, 0.25, 0.1, 0.01, 0.3, 2.0, math.nan)


def number(name: str):
    lo, hi = PLAUSIBLE[name]
    return st.one_of(st.floats(lo, hi), st.sampled_from(HOSTILE))


def family(kind: str):
    # every parameter form the family accepts
    return st.sampled_from(list(_FORMS[kind])).flatmap(
        lambda names: st.fixed_dictionaries({k: number(k) for k in names}).map(
            lambda params: {"kind": kind, **params}))


DISTRIBUTIONS = st.one_of(*(family(kind) for kind in _FORMS))


def flag(name: str, values):
    # the flag with a drawn value, or nothing
    return st.one_of(st.just([]), values.map(lambda v: [f"--{name.replace('_', '-')}", repr(v)]))


def measure_flags():
    return st.tuples(flag("alpha", number("alpha")), flag("eta", number("eta")),
                     st.sampled_from([[], ["--risk-measure", "var"], ["--risk-measure", "es"]]),
                     MC_N_FLAG,
                     st.integers(-2 ** 32, 2 ** 32).map(lambda s: ["--seed", str(s)]),
                     ).map(lambda parts: sum(parts, []))


def market_flags():
    asset = DISTRIBUTIONS.map(lambda d: ["--asset", json.dumps(d)])
    return st.tuples(DISTRIBUTIONS.map(lambda d: ["--claim", json.dumps(d)]),
                     st.one_of(st.just([]), asset)).map(lambda parts: sum(parts, []))


GRID = st.sampled_from(GRID_STEPS).map(lambda step: ["--grid-step", repr(step)])

COMMANDS = {
    "value": st.tuples(st.just(["value"]), market_flags(), flag("w", number("w")),
                       measure_flags()),
    "sweep": st.tuples(st.just(["sweep"]), market_flags(), GRID, measure_flags()),
    "figure": st.tuples(st.sampled_from(sorted(FIGURE_PRESETS)).map(lambda f: ["figure", f]),
                        GRID, measure_flags()),
    "pareto-example": st.tuples(st.just(["pareto-example"]), flag("mean", number("mean")),
                                flag("alpha", number("alpha")), flag("eta", number("eta")),
                                st.one_of(st.just([]), MC_N_FLAG)),
}


def finite_cells(text: str, sep: str | None) -> list[str]:
    # the cells of a table that do not parse as a finite number
    bad = []
    for line in text.splitlines():
        for cell in line.lstrip("# ").split(sep):
            try:
                value = float(cell)
            except ValueError:
                continue  # a header, a label or an empty cell
            if not math.isfinite(value):
                bad.append(line)
    return bad


def run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    return tmp_path_factory.mktemp("inputs") / "out.csv"


# numpy warns as a huge input overflows its arrays; what such a run
# prints and returns is checked below
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("command", list(COMMANDS))
def test_every_input_runs_or_exits_with_a_message(command, csv_path):
    @settings(max_examples=200, deadline=None, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(COMMANDS[command].map(lambda parts: sum(parts, [])))
    def check(argv):
        csv_path.unlink(missing_ok=True)
        if command in ("sweep", "figure"):
            argv = [*argv, "--out", str(csv_path)]
        code, out, err = run(argv)
        assert code in (EXIT_OK, EXIT_USAGE, EXIT_NO_SOLUTION), (argv, code, err)
        assert "Traceback" not in err, (argv, err)
        if "--seed" in argv and int(argv[argv.index("--seed") + 1]) < 0:
            assert code == EXIT_USAGE and "--seed" in err, (argv, code, err)
        elif "--mc-n" in argv and int(argv[argv.index("--mc-n") + 1]) < 1:
            assert code == EXIT_USAGE and "--mc-n" in err, (argv, code, err)
        if code != EXIT_OK:
            assert err.strip() and out == "", (argv, out, err)
            return
        if command == "value":
            record = json.loads(out)
            bad = [k for k, v in record.items()
                   if isinstance(v, float) and not math.isfinite(v)]
        elif command == "pareto-example":
            bad = finite_cells(out, None)
        else:
            bad = finite_cells(csv_path.read_text(encoding="utf-8"), ",")
            bad += finite_cells(out.replace(" = ", ","), ",")
        assert bad == [], (argv, bad)

    check()
