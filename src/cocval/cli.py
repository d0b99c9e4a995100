"""Command-line front end: single valuations, mix sweeps, figure-style
dataset presets and the worked Pareto table.

A run's configuration is layered, each layer over the last: the JSON
file of --config, a figure's preset, the flags, and $COC_SEED for a
seed neither a flag nor the file gives.  --dump-config writes what
runs.  Exit codes: 0 success, 2 usage or configuration error, 3 no
acceptable capital level.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys

from ._record import Record
from .analysis import DEFAULT_GRID_STEP, _csv_line, sweep, w_grid
from .distributions import distribution_from_config
from .market import MarketSpec, NoSolutionError
from .risk_measures import RiskMeasure
from .valuation import pareto_riskless_valuation, value_market

__all__ = ["main", "console_entry", "RunConfig", "FIGURE_PRESETS"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NO_SOLUTION = 3

DEFAULT_ALPHA = 0.005
DEFAULT_ETA = 0.06
DEFAULT_MC_N = 1_000_000
DEFAULT_SEED = 1
SEED_ENV_VAR = "COC_SEED"


class UsageError(Exception):
    """Configuration problem; maps to exit code 2."""


class RunConfig(Record):
    """Resolved run description; serializes to the --config JSON schema.

    Unlike the value types it is mutable: flags and presets fill it in
    field by field.  ``risk_measure`` None stands for VaR at
    ``DEFAULT_ALPHA``.
    """

    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(self, claim: dict | None = None, asset: dict | None = None,
                 risk_measure: dict | None = None, eta: float = DEFAULT_ETA, w: float = 0.0,
                 grid_step: float = DEFAULT_GRID_STEP, mc_n: int = DEFAULT_MC_N,
                 seed: int = DEFAULT_SEED, out: str | None = None) -> None:
        if risk_measure is None:
            risk_measure = {"kind": "var", "alpha": DEFAULT_ALPHA}
        self._store(claim, asset, risk_measure, eta, w, grid_step, mc_n, seed, out)

    @classmethod
    def from_dict(cls, data: dict) -> RunConfig:
        """The config of a --config file's object, each value checked
        against, or coerced to, the type of its key.

        Raises:
            UsageError: an unknown key, or a value of the wrong type; the
                message names the key.
        """
        unknown = set(data) - set(cls._fields)
        if unknown:
            raise UsageError(f"unknown config keys: {sorted(unknown)}")
        return cls(**{key: _checked(key, value) for key, value in data.items()})


# Scalar config keys and the types they are coerced to.
_FIELD_TYPES = {"eta": float, "w": float, "grid_step": float, "mc_n": int, "seed": int}
# The other config keys: the types their values must have, as a message names them.
_FIELD_KINDS = {"claim": ((dict, type(None)), "an object or null"),
                "asset": ((dict, type(None)), "an object or null"),
                "risk_measure": (dict, "an object"),
                "out": ((str, type(None)), "a path string or null")}


def _checked(key: str, value):
    if key in _FIELD_TYPES:
        return _coerce(key, value, _FIELD_TYPES[key])
    kinds, named = _FIELD_KINDS[key]
    if not isinstance(value, kinds):
        raise UsageError(f"config key {key!r} must be {named}, got {value!r}")
    return value


def _coerce(key: str, value, kind: type):
    try:
        if isinstance(value, bool):  # JSON true and false are no numbers
            raise TypeError
        converted = kind(value)
        if kind is int and converted != float(value):  # a fraction truncated
            raise ValueError
    except (TypeError, ValueError, OverflowError):
        raise UsageError(f"config key {key!r} must be {kind.__name__}, got {value!r}") from None
    return converted


def _json_text(obj, newline: str = "\n") -> str:
    """``json.dumps(obj, indent=2)``, built from a ``json.dumps`` call per
    key and leaf: those use the C encoder, while the indenting one is pure
    Python and leaves reference cycles behind on every call."""
    inner = newline + "  "
    if isinstance(obj, dict) and obj:
        items, ends = [f"{json.dumps(key)}: {_json_text(value, inner)}"
                       for key, value in obj.items()], "{}"
    elif isinstance(obj, (list, tuple)) and obj:
        items, ends = [_json_text(value, inner) for value in obj], "[]"
    else:
        return json.dumps(obj)
    return ends[0] + inner + ("," + inner).join(items) + newline + ends[1]


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise UsageError("config file must hold a JSON object")
    return data


@contextlib.contextmanager
def _writing(path: str):
    """Turn an ``OSError`` raised while writing ``path`` into a usage error."""
    try:
        yield
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc}") from exc


def _parse_inline_distribution(text: str, flag: str) -> dict:
    try:
        spec = json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError(f"{flag} must be a JSON object: {exc}") from exc
    if not isinstance(spec, dict):
        raise UsageError(f"{flag} must be a JSON object")
    return spec


def _resolve(args: argparse.Namespace, preset: dict | None = None) -> RunConfig:
    file_data = _load_config(args.config)
    cfg = RunConfig.from_dict(file_data)
    if preset is not None:
        # a copy of the measure: presets never change, aliases share theirs
        cfg.claim, cfg.asset = preset["claim"], preset["asset"]
        cfg.risk_measure = dict(preset["risk_measure"])
    if args.claim is not None:
        cfg.claim = _parse_inline_distribution(args.claim, "--claim")
    if args.asset is not None:
        cfg.asset = _parse_inline_distribution(args.asset, "--asset")
    if args.risk_measure is not None or args.alpha is not None:
        cfg.risk_measure = {
            "kind": args.risk_measure or cfg.risk_measure.get("kind", "var"),
            "alpha": args.alpha if args.alpha is not None
            else cfg.risk_measure.get("alpha", DEFAULT_ALPHA)}
    for flag in ("eta", "w", "grid_step", "out", "mc_n", "seed"):
        value = getattr(args, flag)
        if value is not None:
            setattr(cfg, flag, value)
    if args.seed is None and "seed" not in file_data and os.environ.get(SEED_ENV_VAR):
        try:
            cfg.seed = int(os.environ[SEED_ENV_VAR])
        except ValueError as exc:
            raise UsageError(f"{SEED_ENV_VAR} must be an integer") from exc
    if cfg.seed < 0:
        raise UsageError(f"--seed must be a nonnegative integer, got {cfg.seed}")
    if cfg.mc_n < 1:
        raise UsageError(f"--mc-n must be a positive integer, got {cfg.mc_n}")
    if args.dump_config:
        with _writing(args.dump_config), open(args.dump_config, "w", encoding="utf-8") as handle:
            handle.write(_json_text(vars(cfg)) + "\n")
    return cfg


def _build_market(cfg: RunConfig, w: float) -> MarketSpec:
    if cfg.claim is None:
        raise UsageError("a claim distribution is required (config key 'claim' or --claim)")
    asset_spec = cfg.asset if cfg.asset is not None else {"kind": "degenerate", "value": 1.0}
    try:
        claim = distribution_from_config(cfg.claim)
        asset = distribution_from_config(asset_spec)
        return MarketSpec(claim=claim, asset=asset, w=w, eta=cfg.eta)
    except (ValueError, TypeError) as exc:
        raise UsageError(str(exc)) from exc


def _build_risk_measure(cfg: RunConfig) -> RiskMeasure:
    try:
        return RiskMeasure.from_config(cfg.risk_measure)
    except (ValueError, TypeError) as exc:
        raise UsageError(str(exc)) from exc


def _write_csv(path: str, header, rows) -> None:
    with _writing(path), open(path, "w", encoding="utf-8") as handle:
        for line in (header, *rows):
            handle.write(_csv_line(line) + "\n")


def cmd_value(args: argparse.Namespace) -> int:
    cfg = _resolve(args)
    market = _build_market(cfg, cfg.w)
    rm = _build_risk_measure(cfg)
    try:
        result = value_market(market, rm, mc_n=cfg.mc_n, seed=cfg.seed)
    except NoSolutionError as exc:
        print(f"no solution: {exc}", file=sys.stderr)
        return EXIT_NO_SOLUTION
    record = result.to_record(w=market.w, risk_measure=rm.kind, alpha=rm.alpha,
                              eta=market.eta, mc_n=cfg.mc_n, seed=cfg.seed)
    print(_json_text(record))
    if cfg.out:
        _write_csv(cfg.out, record, [record.values()])
    return EXIT_OK


def _run_sweep(cfg: RunConfig, default_out: str) -> int:
    market = _build_market(cfg, 0.0)
    rm = _build_risk_measure(cfg)
    result = sweep(market, rm, w_grid(cfg.grid_step), mc_n=cfg.mc_n, seed=cfg.seed)
    out = cfg.out or default_out
    with _writing(out):
        result.write_csv(out)
    print(f"wrote {out}")
    for key in ("w_star", "w_hat_numeric", "w_hat_closed"):
        print(f"{key} = {_csv_line([getattr(result, key)])}")
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    return _run_sweep(_resolve(args), "sweep.csv")


def _gaussian_preset(sigma: float, nu: float = 0.3, alpha: float = DEFAULT_ALPHA) -> dict:
    return {
        "claim": {"kind": "normal", "mean": 1.0, "sd": nu},
        "asset": {"kind": "normal", "mean": 1.05, "sd": sigma},
        "risk_measure": {"kind": "var", "alpha": alpha},
    }


def _lognormal_preset(sd_s: float, sd_x: float = 0.3, mean_s: float = 1.05,
                      kind: str = "var", alpha: float = DEFAULT_ALPHA) -> dict:
    return {
        "claim": {"kind": "lognormal", "mean": 1.0, "sd": sd_x},
        "asset": {"kind": "lognormal", "mean": mean_s, "sd": sd_s},
        "risk_measure": {"kind": kind, "alpha": alpha},
    }


def _pareto_preset(sd_x: float | None, sd_s: float = 0.2,
                   beta: float | None = None) -> dict:
    claim = ({"kind": "pareto", "mean": 1.0, "sd": sd_x} if beta is None
             else {"kind": "pareto", "mean": 1.0, "beta": beta})
    return {
        "claim": claim,
        "asset": {"kind": "lognormal", "mean": 1.05, "sd": sd_s},
        "risk_measure": {"kind": "var", "alpha": DEFAULT_ALPHA},
    }


FIGURE_PRESETS: dict[str, dict] = {
    # Normal claim and asset, closed forms, volatility panels.
    "fig1a": _gaussian_preset(sigma=0.1),
    "fig1b": _gaussian_preset(sigma=0.2),
    "fig1c": _gaussian_preset(sigma=0.3),
    # Normal model, claim-spread panels.
    "fig2a": _gaussian_preset(sigma=0.2, nu=0.2),
    "fig2b": _gaussian_preset(sigma=0.2, nu=0.4),
    "fig2c": _gaussian_preset(sigma=0.2, nu=0.6),
    # Lognormal model, asset-spread panels.
    "fig3a": _lognormal_preset(sd_s=0.1),
    "fig3b": _lognormal_preset(sd_s=0.2),
    "fig3c": _lognormal_preset(sd_s=0.3),
    # Lognormal model, claim-spread panels.
    "fig4a": _lognormal_preset(sd_s=0.2, sd_x=0.2),
    "fig4b": _lognormal_preset(sd_s=0.2, sd_x=0.4),
    "fig4c": _lognormal_preset(sd_s=0.2, sd_x=0.6),
    # Lognormal model with a 2% expected asset return.
    "fig9a": _lognormal_preset(sd_s=0.1, mean_s=1.02),
    "fig9b": _lognormal_preset(sd_s=0.2, mean_s=1.02),
    "fig9c": _lognormal_preset(sd_s=0.3, mean_s=1.02),
    "fig10a": _lognormal_preset(sd_s=0.2, sd_x=0.2, mean_s=1.02),
    "fig10b": _lognormal_preset(sd_s=0.2, sd_x=0.4, mean_s=1.02),
    "fig10c": _lognormal_preset(sd_s=0.2, sd_x=0.6, mean_s=1.02),
    # Pareto claim matched to the lognormal moments, lognormal asset.
    "fig11a": _pareto_preset(sd_x=0.3, sd_s=0.1),
    "fig11b": _pareto_preset(sd_x=0.3, sd_s=0.2),
    "fig11c": _pareto_preset(sd_x=0.3, sd_s=0.3),
    "fig12a": _pareto_preset(sd_x=0.2),
    "fig12b": _pareto_preset(sd_x=0.4),
    "fig12c": _pareto_preset(sd_x=0.6),
    # Heavy Pareto tails with infinite variance.
    "fig15a": _pareto_preset(sd_x=None, beta=2.0),
    "fig15b": _pareto_preset(sd_x=None, beta=1.1),
    # Expected-shortfall variants of the lognormal panels.
    "fig8a": _lognormal_preset(sd_s=0.1, kind="es", alpha=0.01),
    "fig8b": _lognormal_preset(sd_s=0.2, kind="es", alpha=0.01),
    "fig8c": _lognormal_preset(sd_s=0.3, kind="es", alpha=0.01),
    "fig7ba": _lognormal_preset(sd_s=0.2, sd_x=0.2, kind="es", alpha=0.01),
    "fig7bb": _lognormal_preset(sd_s=0.2, sd_x=0.4, kind="es", alpha=0.01),
    "fig7bc": _lognormal_preset(sd_s=0.2, sd_x=0.6, kind="es", alpha=0.01),
}
# Premium-bound views share the sweep data of fig3 / fig4.
FIGURE_PRESETS.update({f"fig{view}{panel}": FIGURE_PRESETS[f"fig{data}{panel}"]
                       for view, data in ((5, 3), (6, 4)) for panel in "abc"})


def cmd_figure(args: argparse.Namespace) -> int:
    preset = FIGURE_PRESETS.get(args.figure_id)
    if preset is None:
        raise UsageError(f"unknown figure id {args.figure_id!r}; "
                         f"known: {', '.join(sorted(FIGURE_PRESETS))}")
    return _run_sweep(_resolve(args, preset), f"{args.figure_id}.csv")


def cmd_pareto_example(args: argparse.Namespace) -> int:
    cfg = _resolve(args)
    rm = _build_risk_measure(cfg)
    if rm.kind != "var":
        raise UsageError("the worked Pareto table is defined for the VaR criterion")
    mean = float(args.mean)
    rows = []
    for beta in (2.0, 1.1):
        res = pareto_riskless_valuation(beta, mean, rm.alpha, cfg.eta)
        rows.append((beta, res.r0, res.llo, res.v0_upper, res.v0))
    print(f"{'beta':>6} {'r0':>12} {'llo':>12} {'v0_upper':>12} {'v0':>12}")
    for beta, r0, llo, upper, v0 in rows:
        print(f"{beta:>6.2f} {r0:>12.6f} {llo:>12.6f} {upper:>12.6f} {v0:>12.6f}")
    if cfg.out:
        _write_csv(cfg.out, ("beta", "r0", "llo", "v0_upper", "v0"), rows)
    return EXIT_OK


def _add_command(commands, name: str, func, help: str) -> argparse.ArgumentParser:
    """A subcommand that runs ``func`` and takes the flags every command shares."""
    sub = commands.add_parser(name, help=help)
    sub.set_defaults(func=func)
    sub.add_argument("--config", help="JSON config file; flags override its values")
    sub.add_argument("--alpha", type=float, help="tail level of the risk measure")
    sub.add_argument("--eta", type=float, help="cost-of-capital rate")
    sub.add_argument("--risk-measure", choices=("var", "es"), dest="risk_measure")
    sub.add_argument("--mc-n", type=int, dest="mc_n", help="Monte Carlo sample size")
    sub.add_argument("--seed", type=int,
                     help=f"scenario seed; falls back to ${SEED_ENV_VAR}")
    sub.add_argument("--out", help="output file path")
    sub.add_argument("--dump-config", dest="dump_config",
                     help="write the resolved config JSON to this path")
    return sub


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cocval",
        description="Cost-of-capital valuation of an insurance run-off "
                    "with a risky buffer investment.")
    # the config flags that only some commands take read None on the others
    parser.set_defaults(claim=None, asset=None, w=None, grid_step=None)
    commands = parser.add_subparsers(dest="command", required=True)
    p_value = _add_command(commands, "value", cmd_value, "value one market configuration")
    p_sweep = _add_command(commands, "sweep", cmd_sweep, "sweep the risky-asset weight")
    for sub in (p_value, p_sweep):
        sub.add_argument("--claim", help="claim distribution as inline JSON")
        sub.add_argument("--asset", help="asset distribution as inline JSON")
    p_value.add_argument("--w", type=float, help="risky-asset weight in [0, 1]")
    p_figure = _add_command(commands, "figure", cmd_figure, "reproduce a preset sweep dataset")
    p_figure.add_argument("figure_id", help="preset id, e.g. fig1b")
    for sub in (p_sweep, p_figure):
        sub.add_argument("--grid-step", type=float, dest="grid_step")
    p_pareto = _add_command(commands, "pareto-example", cmd_pareto_example,
                            "worked heavy-tail table for two tail indices")
    p_pareto.add_argument("--mean", type=float, default=1.0,
                          help="expected claim; every entry scales with it")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # One parser per process, which parsing does not change.  Every build
    # leaves about 360 objects in reference cycles; freed by the cyclic
    # collector at a moment that depends on allocation counts, they split
    # the heap space the scenario arrays of the next Monte Carlo run
    # would reuse, and a process calling main in a loop grew its peak
    # memory by 6 MB in about half of its runs.
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_USAGE
    try:
        return args.func(args)
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OverflowError as exc:  # math on parameters too large for a float
        print(f"error: the inputs overflow ({exc})", file=sys.stderr)
        return EXIT_USAGE


def console_entry() -> None:
    try:
        code = main()
        sys.stdout.flush()  # a closed pipe fails here, inside the try
    except BrokenPipeError:
        # point stdout at devnull so the flush at exit cannot fail again,
        # and exit 1 as Python does on EPIPE
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)


if __name__ == "__main__":
    console_entry()
