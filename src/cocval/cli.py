"""Command-line front end: single valuations, mix sweeps, figure-style
dataset presets and the worked Pareto table.

Configuration lives in a JSON file selected with --config; flags
override file values.  Exit codes: 0 success, 2 usage or configuration
error, 3 no acceptable capital level.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import sys

from .analysis import DEFAULT_GRID_STEP, sweep, w_grid
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


@dataclasses.dataclass
class RunConfig:
    """Resolved run description; serializes to the --config JSON schema."""

    claim: dict | None = None
    asset: dict | None = None
    risk_measure: dict = dataclasses.field(
        default_factory=lambda: {"kind": "var", "alpha": DEFAULT_ALPHA})
    eta: float = DEFAULT_ETA
    w: float = 0.0
    grid_step: float = DEFAULT_GRID_STEP
    mc_n: int = DEFAULT_MC_N
    seed: int = DEFAULT_SEED
    out: str | None = None

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), indent=2)

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise UsageError(f"unknown config keys: {sorted(unknown)}")
        merged = cls()
        for key, value in data.items():
            if key in _FIELD_TYPES:
                value = _coerce(key, value, _FIELD_TYPES[key])
            setattr(merged, key, value)
        return merged


# Scalar config keys and the types they are coerced to.
_FIELD_TYPES = {"eta": float, "w": float, "grid_step": float, "mc_n": int, "seed": int}


def _coerce(key: str, value, kind: type):
    try:
        converted = kind(value)
        if kind is int and converted != float(value):  # a fraction truncated
            raise ValueError
    except (TypeError, ValueError, OverflowError):
        raise UsageError(f"config key {key!r} must be {kind.__name__}, got {value!r}") from None
    return converted


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


def _resolve(args: argparse.Namespace) -> RunConfig:
    file_data = _load_config(getattr(args, "config", None))
    cfg = RunConfig.from_dict(file_data)
    if getattr(args, "claim", None) is not None:
        cfg.claim = _parse_inline_distribution(args.claim, "--claim")
    if getattr(args, "asset", None) is not None:
        cfg.asset = _parse_inline_distribution(args.asset, "--asset")
    if getattr(args, "risk_measure", None) is not None:
        cfg.risk_measure = {"kind": args.risk_measure,
                            "alpha": cfg.risk_measure.get("alpha", DEFAULT_ALPHA)}
    if getattr(args, "alpha", None) is not None:
        cfg.risk_measure = {"kind": cfg.risk_measure.get("kind", "var"),
                            "alpha": args.alpha}
    for flag in ("eta", "w", "grid_step", "out"):
        value = getattr(args, flag, None)
        if value is not None:
            setattr(cfg, flag, value)
    if getattr(args, "mc_n", None) is not None:
        cfg.mc_n = args.mc_n
    if getattr(args, "seed", None) is not None:
        cfg.seed = args.seed
    elif "seed" not in file_data and os.environ.get(SEED_ENV_VAR):
        try:
            cfg.seed = int(os.environ[SEED_ENV_VAR])
        except ValueError as exc:
            raise UsageError(f"{SEED_ENV_VAR} must be an integer") from exc
    if getattr(args, "dump_config", None):
        with _writing(args.dump_config), open(args.dump_config, "w", encoding="utf-8") as handle:
            handle.write(cfg.to_json() + "\n")
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


def _fmt(value) -> str:
    return "" if value is None else format(float(value), ".15g")


def _write_value_csv(path: str, record: dict) -> None:
    keys = list(record)
    with _writing(path), open(path, "w", encoding="utf-8") as handle:
        handle.write(",".join(keys) + "\n")
        handle.write(",".join(
            _fmt(record[k]) if isinstance(record[k], (int, float)) or record[k] is None
            else str(record[k]) for k in keys) + "\n")


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
    print(json.dumps(record, indent=2))
    if cfg.out:
        _write_value_csv(cfg.out, record)
    return EXIT_OK


def _run_sweep(cfg: RunConfig, default_out: str) -> int:
    market = _build_market(cfg, 0.0)
    rm = _build_risk_measure(cfg)
    try:
        grid = w_grid(cfg.grid_step)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    result = sweep(market, rm, grid, mc_n=cfg.mc_n, seed=cfg.seed)
    out = cfg.out or default_out
    with _writing(out):
        result.write_csv(out)
    print(f"wrote {out}")
    print(f"w_star = {_fmt(result.w_star)}")
    print(f"w_hat_numeric = {_fmt(result.w_hat_numeric)}")
    print(f"w_hat_closed = {_fmt(result.w_hat_closed)}")
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
    cfg = _resolve(args)
    cfg.claim = preset["claim"]
    cfg.asset = preset["asset"]
    # preset fixes the measure; explicit flags override field by field
    cfg.risk_measure = {
        "kind": args.risk_measure or preset["risk_measure"]["kind"],
        "alpha": args.alpha if args.alpha is not None else preset["risk_measure"]["alpha"],
    }
    return _run_sweep(cfg, f"{args.figure_id}.csv")


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
    header = f"{'beta':>6} {'r0':>12} {'llo':>12} {'v0_upper':>12} {'v0':>12}"
    print(header)
    for beta, r0, llo, upper, v0 in rows:
        print(f"{beta:>6.2f} {r0:>12.6f} {llo:>12.6f} {upper:>12.6f} {v0:>12.6f}")
    if cfg.out:
        with _writing(cfg.out), open(cfg.out, "w", encoding="utf-8") as handle:
            handle.write("beta,r0,llo,v0_upper,v0\n")
            for beta, r0, llo, upper, v0 in rows:
                handle.write(",".join(_fmt(v) for v in (beta, r0, llo, upper, v0)) + "\n")
    return EXIT_OK


def _add_common_flags(sub: argparse.ArgumentParser) -> None:
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cocval",
        description="Cost-of-capital valuation of an insurance run-off "
                    "with a risky buffer investment.")
    commands = parser.add_subparsers(dest="command", required=True)

    p_value = commands.add_parser("value", help="value one market configuration")
    _add_common_flags(p_value)
    p_value.add_argument("--claim", help="claim distribution as inline JSON")
    p_value.add_argument("--asset", help="asset distribution as inline JSON")
    p_value.add_argument("--w", type=float, help="risky-asset weight in [0, 1]")
    p_value.set_defaults(func=cmd_value)

    p_sweep = commands.add_parser("sweep", help="sweep the risky-asset weight")
    _add_common_flags(p_sweep)
    p_sweep.add_argument("--claim", help="claim distribution as inline JSON")
    p_sweep.add_argument("--asset", help="asset distribution as inline JSON")
    p_sweep.add_argument("--grid-step", type=float, dest="grid_step")
    p_sweep.set_defaults(func=cmd_sweep)

    p_figure = commands.add_parser("figure", help="reproduce a preset sweep dataset")
    p_figure.add_argument("figure_id", help="preset id, e.g. fig1b")
    _add_common_flags(p_figure)
    p_figure.add_argument("--grid-step", type=float, dest="grid_step")
    p_figure.set_defaults(func=cmd_figure)

    p_pareto = commands.add_parser("pareto-example",
                                   help="worked heavy-tail table for two tail indices")
    _add_common_flags(p_pareto)
    p_pareto.add_argument("--mean", type=float, default=1.0,
                          help="expected claim; every entry scales with it")
    p_pareto.set_defaults(func=cmd_pareto_example)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_USAGE
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OverflowError as exc:  # math on parameters too large for a float
        print(f"error: the inputs overflow ({exc})", file=sys.stderr)
        return EXIT_USAGE


def console_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_entry()
