"""Per-layer spans recorded from outside the program.

``Tracer.install`` replaces each public function of the seven cocval
modules, and the few methods the per-layer metrics name, with a timing
wrapper.  A function imported by name into another module (``cli`` and
``analysis`` import ``solve_r0_numeric``, ``mc_valuation``, ``sweep`` and
``generate_scenarios`` that way) is replaced in every module that holds
it, so each call is seen wherever it is looked up.  Spans stay in memory;
``take`` returns and clears them.  Nothing inside ``src/cocval`` changes.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

LAYERS = ("cli", "analysis", "capital_solver", "valuation", "risk_measures",
          "montecarlo", "distributions")

# Methods traced besides the modules' public functions: span name ->
# (module, classes, method).
METHODS = {
    "distributions.sample": ("distributions",
                             ("Normal", "Lognormal", "ParetoTypeI", "Degenerate"), "sample"),
    "risk_measures.empirical": ("risk_measures", ("RiskMeasure",), "empirical"),
    "analysis.write_csv": ("analysis", ("SweepResult",), "write_csv"),
}

# The closed-form and quadrature entry points of the valuation layer.
CLOSED_FORM = ("value_gaussian_var", "value_gaussian_es", "value_lognormal_var",
               "value_riskless_var", "pareto_riskless_valuation")


class Tracer:
    """Call counts, inclusive time and self time per span name.

    Self time is a span's duration minus the durations of the traced
    spans it called.  A call to a span that is already open (a function
    calling itself) is folded into the open one.
    """

    def __init__(self) -> None:
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self._stack: list[list] = []      # open spans: [name, start, child_s]
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        stack, stats, clock = self._stack, self.stats, time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            for frame in stack:
                if frame[0] == name:
                    return fn(*args, **kwargs)
            frame = [name, clock(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - frame[1]
                stack.pop()
                rec = stats.setdefault(name, [0, 0.0, 0.0])
                rec[0] += 1
                rec[1] += duration
                rec[2] += duration - frame[2]
                if stack:
                    stack[-1][2] += duration

        return span

    def _replace(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"cocval.{layer}") for layer in LAYERS}
        wrappers: dict[int, object] = {}
        for layer, module in modules.items():
            for attr in module.__all__:
                obj = getattr(module, attr)
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    wrappers[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
        holders = [importlib.import_module("cocval"), *modules.values()]
        for holder in holders:
            for attr, value in list(vars(holder).items()):
                if id(value) in wrappers:
                    self._replace(holder, attr, wrappers[id(value)])
        for name, (layer, classes, method) in METHODS.items():
            for cls_name in classes:
                cls = getattr(modules[layer], cls_name)
                self._replace(cls, method, self._wrap(name, cls.__dict__[method]))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    def take(self) -> dict[str, list]:
        """The spans recorded since the last call, then a clean slate."""
        taken = {name: list(rec) for name, rec in self.stats.items()}
        self.stats.clear()
        return taken


def layer_metrics(stats: dict[str, list]) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of one round, as name -> (value, unit).

    A layer the round never entered reads 0.
    """
    def calls(name: str) -> int:
        return stats.get(name, (0, 0.0, 0.0))[0]

    def total(name: str) -> float:
        return stats.get(name, (0, 0.0, 0.0))[1]

    def self_time(name: str) -> float:
        return stats.get(name, (0, 0.0, 0.0))[2]

    solve = "capital_solver.solve_r0_numeric"
    out: dict[str, tuple[float, str]] = {
        f"{solve}.s": (total(solve), "s"),
        f"{solve}.self_s": (self_time(solve), "s"),
        f"{solve}.calls": (calls(solve), "count"),
        "capital_solver.evals_per_solve": (
            calls("risk_measures.empirical") / calls(solve) if calls(solve) else 0.0, "count"),
    }
    for name in ("risk_measures.empirical", "distributions.sample",
                 "distributions.standard_normal_quantile", "montecarlo.generate_scenarios",
                 "valuation.mc_valuation", "valuation.capped_expectation_quadrature"):
        out[f"{name}.s"] = (total(name), "s")
        out[f"{name}.calls"] = (calls(name), "count")
    out["valuation.closed_form.s"] = (sum(total(f"valuation.{n}") for n in CLOSED_FORM), "s")
    out["valuation.closed_form.calls"] = (sum(calls(f"valuation.{n}") for n in CLOSED_FORM),
                                          "count")
    out["analysis.sweep.s"] = (total("analysis.sweep"), "s")
    out["analysis.sweep.self_s"] = (self_time("analysis.sweep"), "s")
    out["analysis.write_csv.s"] = (total("analysis.write_csv"), "s")
    out["cli.main.s"] = (total("cli.main"), "s")
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (
            sum(rec[2] for name, rec in stats.items() if name.startswith(layer + ".")), "s")
    return out
