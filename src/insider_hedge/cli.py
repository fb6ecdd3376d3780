"""Batch front end: table runs, single hedges, and the tree verification suite's report.

Subcommands
-----------
price            closed-form call price for the configured market
hedge            one signal, one epsilon or alpha target
table-point      capital-fraction table over point-signal levels x epsilons
                 (both conditioning modes are emitted side by side)
table-indicator  same table for interval-indicator signals (exact interval sampler)
oracle           exact verification suite on the reference and random trees
                 (tree_oracle.run_oracle_suite)
version          print the package version

Configuration is a flat key/value text file (see SETTINGS);
command-line flags override file keys, and the INSIDER_HEDGE_CONFIG
environment variable supplies a default config path.  Each command
reads only the keys it uses, so a bad value of another key cannot
refuse it.  Reruns with the same config and seed write byte-identical
output files: all sampling uses block-deterministic streams and cells
are assembled in grid order.  --workers is accepted and has no effect.

The numeric modules are imported inside the code that samples or
prices, so `oracle` and `version` load neither numpy nor scipy, and
tree_oracle inside run_oracle_suite, so the Monte Carlo commands do not
compile the oracle.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, fields
from functools import cache
from typing import TYPE_CHECKING

from . import __version__

if TYPE_CHECKING:
    from .model_core import ModelParams
    from .np_solver import HedgePlan
    from .tree_oracle import OracleReport

__all__ = [
    "RunConfig",
    "CellResult",
    "run_table_point",
    "run_table_indicator",
    "write_cells",
    "render_cells",
    "main",
]

ENV_CONFIG = "INSIDER_HEDGE_CONFIG"

DEFAULT_LEVELS = tuple(float(x) for x in range(105, 116))
DEFAULT_INTERVALS = ((109.0, 111.0), (108.0, 112.0), (107.0, 113.0), (112.0, 114.0), (106.0, 108.0))
DEFAULT_EPSILONS = (0.01, 0.05, 0.10, 0.15, 0.20, 0.25)
# the values of insider_signal.ConditioningMode, spelled out so the parser needs no numpy
MODE_NAMES = ("bridge_exact", "paper_shift")
# the mode of interval cells and hedges: an old label, kept for output-format compatibility
INTERVAL_MODE = "rejection"
# the market of the published tables: ModelParams' fields, each with its flag and config key
MARKET_DEFAULTS = {"mu": 0.08, "sigma": 0.25, "s0": 100.0, "strike": 110.0,
                   "t_expiry": 0.25, "delta": 0.02}


@dataclass(frozen=True)
class RunConfig:
    """One table run: market, signal grid, epsilon grid, sampling budget.

    Every setting is checked here, before any draw.  A command leaves
    each setting it has no flag for at its default here, and every
    default passes, so a bad value of a key that a command never reads
    cannot refuse it.  signal_kind and workers are read by no command:
    every stream is filled block by block in one loop.
    """

    model: ModelParams
    signal_kind: str = "point"
    levels: tuple = DEFAULT_LEVELS
    intervals: tuple = DEFAULT_INTERVALS
    epsilons: tuple = DEFAULT_EPSILONS
    n_paths: int = 1_000_000
    seed: int = 0
    output: str | None = None
    fmt: str = "csv"
    workers: int = 1

    def __post_init__(self) -> None:
        if self.n_paths < 1000:
            raise ValueError(f"n_paths must be >= 1000, got {self.n_paths}")
        # SeedSequence splits a larger seed into 32-bit words, so its streams can
        # coincide with blocks of a smaller seed's (2 + 2 * 2**32 reads seed 2's)
        if not 0 <= self.seed < 2**32:
            raise ValueError(f"seed must be in [0, 2**32), got {self.seed}")
        if self.signal_kind not in ("point", "interval"):
            raise ValueError(f"signal_kind must be point or interval, got {self.signal_kind}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if not self.epsilons:
            raise ValueError("empty epsilon grid")
        if any(not 0.0 <= e <= 1.0 for e in self.epsilons):
            raise ValueError("epsilons must lie in [0,1]")
        if self.fmt not in ("csv", "json"):
            raise ValueError(f"format must be csv or json, got {self.fmt}")
        if not self.levels:
            raise ValueError("empty level grid")
        if not self.intervals:
            raise ValueError("empty interval grid")


@dataclass(frozen=True)
class CellResult:
    """One (signal, epsilon) cell of a table run."""

    signal: str
    epsilon: float
    alpha: float
    alpha_stderr: float
    success_prob: float
    k: float
    n_paths: int
    mode: str
    flags: str


# the table columns, one per CellResult field in its order, and whether each is a float
_COLUMNS = tuple((f.name, f.type == "float") for f in fields(CellResult))
CSV_HEADER = ",".join(name for name, _ in _COLUMNS)


def run_oracle_suite(seed: int, instance_count: int) -> OracleReport:
    """tree_oracle.run_oracle_suite, imported here so no other command compiles the oracle."""
    from .tree_oracle import run_oracle_suite as run
    return run(seed, instance_count)


def _plan_row(view, epsilons) -> list[HedgePlan]:
    """One plan per epsilon on one sorted view of D."""
    from .np_solver import make_hedge_plan
    return [make_hedge_plan(view, epsilon=epsilon) for epsilon in epsilons]


def _cell(descriptor: str, epsilon: float, plan: HedgePlan, n_paths: int, mode: str) -> CellResult:
    """One table cell, and the one place its flags are set.

    In this order: atom_gap when the plan names an atom gap, and
    below_se_floor when alpha is below twice its standard error.
    """
    flags = [flag for flag, on in (("atom_gap", plan.atom_gap),
                                   ("below_se_floor", plan.alpha < 2.0 * plan.mc_stderr_alpha))
             if on]
    return CellResult(signal=descriptor, epsilon=epsilon, alpha=plan.alpha,
                      alpha_stderr=plan.mc_stderr_alpha, success_prob=plan.success_prob,
                      k=plan.k, n_paths=n_paths, mode=mode, flags="|".join(flags))


def run_table_point(config: RunConfig) -> list[CellResult]:
    """Point-signal table: one row per (level, epsilon, conditioning mode).

    Levels are stock prices of the post-expiry price, converted to
    Brownian space internally.  The table draws and sorts one stream of
    n_paths normals, keyed by the seed as in hedge, and maps the same
    normals to every level in both conditioning modes (common random
    numbers): each cell equals the hedge command with its settings,
    while the errors of all rows, of either mode, are correlated.
    """
    from .insider_signal import draw_point, point_signal_from_price
    from .measure_engine import build_batch
    # every signal is built first, so that a bad level is refused before any draw
    signals = [[point_signal_from_price(level, config.model, mode) for mode in MODE_NAMES]
               for level in config.levels]
    draws = draw_point(config.n_paths, config.seed)
    cells: list[CellResult] = []
    for level, pair in zip(config.levels, signals):
        # each view of D is released once its row is planned: one is alive at a time
        rows = [_plan_row(build_batch(signal, draws, config.model), config.epsilons)
                for signal in pair]
        for epsilon, *plans in zip(config.epsilons, *rows):
            for signal, plan in zip(pair, plans):
                cells.append(_cell(f"S={level:g}", epsilon, plan, config.n_paths,
                                   signal.mode.value))
    return cells


def run_table_indicator(config: RunConfig) -> list[CellResult]:
    """Indicator-signal table: one row per (interval, epsilon), observed G=1.

    Intervals are stock-price ranges for the post-expiry price.  The
    table draws n_paths uniforms and bridge normals once, from the seed
    as hedge does, and the exact interval sampler maps them to each
    interval (common random numbers, as in run_table_point).  An
    interval whose conditioning event has probability 0 raises
    ValueError before anything is drawn, which ends the run.  The mode
    column reads INTERVAL_MODE.
    """
    from .insider_signal import draw_interval, indicator_prob, interval_signal_from_prices
    from .measure_engine import build_batch
    signals = [interval_signal_from_prices(lo, hi, config.model, observed=1)
               for lo, hi in config.intervals]
    # as in hedge, a signal of probability 0 is refused before the 2n draws are filled
    for signal in signals:
        indicator_prob(signal, config.model)
    draws = draw_interval(config.n_paths, config.seed)
    cells: list[CellResult] = []
    for (lo, hi), signal in zip(config.intervals, signals):
        descriptor = f"S=[{lo:g}..{hi:g}]"
        # as in run_table_point, the view of D is released once its row is planned
        row = _plan_row(build_batch(signal, draws, config.model), config.epsilons)
        for epsilon, plan in zip(config.epsilons, row):
            cells.append(_cell(descriptor, epsilon, plan, config.n_paths, INTERVAL_MODE))
    return cells


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _fmt_num(x: float) -> str:
    return f"{x:.6g}"


def _json_num(x: float):
    if not math.isfinite(x):
        return "inf" if math.isinf(x) else "nan"
    return float(f"{x:.6g}")


def _values(cell: CellResult, num, other=lambda v: v) -> list:
    """The cell's column values in order: each float through num, each other through other."""
    return [(num if is_float else other)(getattr(cell, name)) for name, is_float in _COLUMNS]


def write_cells(cells: list[CellResult], path: str, fmt: str) -> None:
    """CSV or JSON table of the cells."""
    if fmt == "csv":
        lines = [CSV_HEADER, *(",".join(_values(c, _fmt_num, str)) for c in cells)]
        text = "\n".join(lines) + "\n"
    else:
        rows = [{name: value for (name, _), value in zip(_COLUMNS, _values(c, _json_num))}
                for c in cells]
        text = json.dumps(rows, indent=2, allow_nan=False) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def render_cells(cells: list[CellResult]) -> str:
    """Aligned human-readable table.

    Cells flagged below_se_floor are printed with the "<" sentinel at
    twice their standard error (mirroring the source tables' "<0.01"
    style); the machine outputs always keep the numeric value plus a flag.
    """
    header = f"{'signal':>16} {'eps':>5} {'mode':>13} {'alpha':>10} {'stderr':>9} {'success':>8} flags"
    lines = [header]
    for c in cells:
        if "below_se_floor" in c.flags.split("|"):
            alpha_txt = f"<{2.0 * c.alpha_stderr:.2g}"
        else:
            alpha_txt = f"{c.alpha:.4f}"
        lines.append(
            f"{c.signal:>16} {_fmt_num(c.epsilon):>5} {c.mode:>13} {alpha_txt:>10} "
            f"{c.alpha_stderr:>9.2g} {c.success_prob:>8.4f} {c.flags}"
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# configuration plumbing
# ---------------------------------------------------------------------------

def parse_config_file(path: str) -> dict:
    """Flat 'key = value' config in UTF-8, a BOM allowed; '#' starts a comment."""
    options: dict = {}
    with open(path, encoding="utf-8-sig") as fh:
        for i, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise ValueError(f"{path}:{i}: expected 'key = value', got {raw!r}")
            key = key.strip()
            if key in options:
                raise ValueError(f"{path}:{i}: duplicate key {key!r}")
            options[key] = value.strip()
    unknown = set(options) - {key for key, _ in SETTINGS.values()}
    if unknown:
        raise ValueError(f"{path}: unknown config keys {sorted(unknown)}")
    return options


def _parse_floats(text: str) -> tuple:
    return tuple(float(tok) for tok in text.replace(";", ",").split(",") if tok.strip())


def _parse_mode(text: str) -> str:
    if text not in MODE_NAMES:
        raise ValueError(f"mode must be {' or '.join(MODE_NAMES)}, got {text!r}")
    return text


def _parse_intervals(text: str) -> tuple:
    out = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        lo, sep, hi = tok.partition(":")
        if not sep:
            raise ValueError(f"interval {tok!r} must look like LO:HI")
        out.append((float(lo), float(hi)))
    return tuple(out)


# every setting a config file can hold: flag dest -> (config key, parser of its value)
SETTINGS = {
    **{name: (name, float) for name in MARKET_DEFAULTS},
    "levels": ("signal.levels", _parse_floats),
    "intervals": ("signal.intervals", _parse_intervals),
    "epsilons": ("epsilons", _parse_floats),
    "mode": ("mode", _parse_mode),
    "n_paths": ("n_paths", int),
    "seed": ("seed", int),
    "output": ("output", str),
    "fmt": ("format", str),
}


def _config_lookup(args: argparse.Namespace):
    """pick(dest, fallback): the flag args.dest when given, else the value of its
    SETTINGS key in the config file (--config, or $INSIDER_HEDGE_CONFIG) parsed, else
    the fallback.  A command without the flag reads no key, so a bad value of a key
    that a command never uses cannot refuse it."""
    path = args.config or os.environ.get(ENV_CONFIG)
    opts = parse_config_file(path) if path else {}

    def pick(dest, fallback):
        if not hasattr(args, dest):
            return fallback
        if getattr(args, dest) is not None:
            return getattr(args, dest)
        key, parse = SETTINGS[dest]
        if key not in opts:
            return fallback
        try:
            return parse(opts[key])
        except ValueError as exc:
            raise ValueError(f"{path}: {key}: {exc}") from exc

    return pick


def _build_model(pick) -> ModelParams:
    from .model_core import ModelParams
    return ModelParams(**{name: pick(name, default) for name, default in MARKET_DEFAULTS.items()})


def build_config(args: argparse.Namespace, pick=None) -> RunConfig:
    """File options first, command-line flags override, and each setting falls back to
    RunConfig's own default; pick defaults to args' lookup."""
    pick = pick or _config_lookup(args)
    return RunConfig(model=_build_model(pick), workers=getattr(args, "workers", 1),
                     **{f.name: pick(f.name, f.default)
                        for f in fields(RunConfig) if f.name in SETTINGS})


def _add_model_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="config file path (default: $INSIDER_HEDGE_CONFIG)")
    for name in MARKET_DEFAULTS:
        sub.add_argument("--" + name.replace("_", "-"), type=float)


def _add_sampling_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--seed", type=int)
    sub.add_argument("--n-paths", type=int)
    sub.add_argument("--workers", type=int, default=1,
                     help="accepted and checked to be >= 1; has no effect")


def _add_table_flags(sub: argparse.ArgumentParser) -> None:
    _add_sampling_flags(sub)
    sub.add_argument("--epsilons", type=_parse_floats)
    sub.add_argument("--output", help="write the table here (csv or json)")
    sub.add_argument("--format", dest="fmt", choices=("csv", "json"))


@cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and reused by every later one."""
    parser = argparse.ArgumentParser(
        prog="insider-hedge",
        description="Quantile hedging with advance information: tables, single "
                    "hedges and the exact tree verification suite.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    p_price = commands.add_parser("price", help="closed-form call price")
    _add_model_flags(p_price)

    p_hedge = commands.add_parser("hedge", help="solve one signal for one target")
    _add_model_flags(p_hedge)
    _add_sampling_flags(p_hedge)
    signal = p_hedge.add_mutually_exclusive_group(required=True)
    signal.add_argument("--level", type=float, help="point signal: stock level of S_{T+delta}")
    signal.add_argument("--interval", type=str,
                        help="indicator signal: stock interval LO:HI for S_{T+delta}")
    p_hedge.add_argument("--observed", type=int, choices=(0, 1),
                         help="with --interval: observed indicator value (default 1)")
    p_hedge.add_argument("--mode", choices=MODE_NAMES,
                         help="with --level: conditioning mode (default bridge_exact)")
    target = p_hedge.add_mutually_exclusive_group(required=True)
    target.add_argument("--epsilon", type=float)
    target.add_argument("--alpha", type=float)

    p_tp = commands.add_parser("table-point", help="point-signal table, both modes")
    _add_model_flags(p_tp)
    _add_table_flags(p_tp)
    p_tp.add_argument("--levels", type=_parse_floats)

    p_ti = commands.add_parser("table-indicator", help="interval-signal table")
    _add_model_flags(p_ti)
    _add_table_flags(p_ti)
    p_ti.add_argument("--intervals", type=_parse_intervals)

    p_or = commands.add_parser("oracle", help="exact tree verification suite")
    p_or.add_argument("--seed", type=int, default=0)
    p_or.add_argument("--instances", type=int, default=100)

    commands.add_parser("version", help="print the package version")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    try:
        return _run(parser, args)
    except (ValueError, OSError, MemoryError) as exc:
        # bad inputs, unreadable or unwritable files and samples too large to allocate
        # end in one line, not a traceback
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


def _run(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    if args.command == "version":
        print(__version__)
        return 0

    if args.command == "oracle":
        report = run_oracle_suite(args.seed, args.instances)
        print("\n".join(report.lines))
        return 0 if report.passed else 1

    from .insider_signal import (
        draw_interval,
        draw_point,
        indicator_prob,
        interval_signal_from_prices,
        point_signal_from_price,
    )
    from .measure_engine import build_batch
    from .model_core import bs_call_price
    from .np_solver import make_hedge_plan

    if args.command == "price":
        # the market is all price reads, so no other key can refuse it
        print(_fmt_num(bs_call_price(_build_model(_config_lookup(args)))))
        return 0

    if args.command == "hedge":
        pick = _config_lookup(args)
        config = build_config(args, pick)
        if args.interval is not None and args.mode is not None:
            parser.error("--mode applies to --level only")
        if args.level is not None and args.observed is not None:
            parser.error("--observed applies to --interval only")
        if args.level is not None:
            signal = point_signal_from_price(args.level, config.model, pick("mode", MODE_NAMES[0]))
            mode, draw = signal.mode.value, draw_point
        else:
            intervals = _parse_intervals(args.interval)
            if len(intervals) != 1:
                raise ValueError(f"--interval takes one LO:HI, got {args.interval!r}")
            (lo, hi), = intervals
            observed = 1 if args.observed is None else args.observed
            signal = interval_signal_from_prices(lo, hi, config.model, observed=observed)
            # a signal of probability 0 is refused before its 2n draws are filled
            indicator_prob(signal, config.model)
            mode, draw = INTERVAL_MODE, draw_interval
        # no reference to the draws is kept here, so build_batch can free them early
        view = build_batch(signal, draw(config.n_paths, config.seed), config.model)
        plan = make_hedge_plan(view, epsilon=args.epsilon, alpha=args.alpha)
        if plan.atom_gap:
            print(f"warning: {plan.atom_gap}", file=sys.stderr)
        for name in ("k", "alpha", "success_prob", "initial_capital",
                     "mc_stderr_alpha", "mc_stderr_success"):
            print(f"{name} = {_fmt_num(getattr(plan, name))}")
        print(f"knockout_payoff = {plan.knockout_payoff}")
        print(f"signal = {signal.describe()}")
        print(f"mode = {mode}")
        return 0

    config = build_config(args)
    cells = (run_table_point if args.command == "table-point" else run_table_indicator)(config)
    if config.output:
        write_cells(cells, config.output, config.fmt)
        print(f"wrote {len(cells)} cells to {config.output}", file=sys.stderr)
    print(render_cells(cells))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
