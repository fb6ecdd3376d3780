"""Batch front end: table runs, single hedges, and the tree verification suite.

Subcommands
-----------
price            closed-form call price for the configured market
hedge            one signal, one epsilon or alpha target
table-point      capital-fraction table over point-signal levels x epsilons
                 (both conditioning modes are emitted side by side)
table-indicator  same table for interval-indicator signals (exact interval sampler)
oracle           exact verification suite on the reference and random trees
version          print the package version

Configuration is a flat key/value text file (see DEFAULT_CONFIG_KEYS);
command-line flags override file keys, and the INSIDER_HEDGE_CONFIG
environment variable supplies a default config path.  Reruns with the
same config and seed write byte-identical output files regardless of
the worker count: all sampling uses block-deterministic streams and
cells are assembled in grid order.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, partial

from . import __version__
from .insider_signal import (
    ConditioningMode,
    draw_interval,
    draw_point,
    indicator_prob,
    interval_signal_from_prices,
    point_signal_from_price,
)
from .measure_engine import build_batch
from .model_core import ModelParams, bs_call_price
from .np_solver import HedgePlan, make_hedge_plan
from .rng import derive_seed
from .tree_oracle import (
    achievable_levels,
    build_atom_table,
    exact_quantile_hedge,
    exhaustive_optimality_check,
    perturb_atom,
    random_market,
    reference_market,
    verify_theorems,
)

__all__ = [
    "RunConfig",
    "CellResult",
    "run_table_point",
    "run_table_indicator",
    "run_oracle_suite",
    "write_cells",
    "render_cells",
    "main",
]

ENV_CONFIG = "INSIDER_HEDGE_CONFIG"
CSV_HEADER = "signal,epsilon,alpha,alpha_stderr,success_prob,k,n_paths,mode,flags"

DEFAULT_LEVELS = tuple(float(x) for x in range(105, 116))
DEFAULT_INTERVALS = ((109.0, 111.0), (108.0, 112.0), (107.0, 113.0), (112.0, 114.0), (106.0, 108.0))
DEFAULT_EPSILONS = (0.01, 0.05, 0.10, 0.15, 0.20, 0.25)

DEFAULT_CONFIG_KEYS = (
    "mu", "sigma", "s0", "strike", "t_expiry", "delta",
    "signal.levels", "signal.intervals",
    "epsilons", "mode", "n_paths", "seed", "output", "format",
)


@dataclass(frozen=True)
class RunConfig:
    """One table run: market, signal grid, epsilon grid, sampling budget.

    Each table checks what only the tables read when it runs, before
    any draw: run_table_point the levels, run_table_indicator the
    intervals, and both the epsilons and the format.  signal_kind is
    read by no command.
    """

    model: ModelParams
    signal_kind: str = "point"
    levels: tuple = DEFAULT_LEVELS
    intervals: tuple = DEFAULT_INTERVALS
    epsilons: tuple = DEFAULT_EPSILONS
    mode: ConditioningMode = ConditioningMode.BRIDGE_EXACT
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


def _check_epsilons_and_format(config: RunConfig) -> None:
    """Refuse a bad epsilon grid or output format: only the tables read them."""
    if not config.epsilons:
        raise ValueError("empty epsilon grid")
    if any(not 0.0 <= e <= 1.0 for e in config.epsilons):
        raise ValueError("epsilons must lie in [0,1]")
    if config.fmt not in ("csv", "json"):
        raise ValueError(f"format must be csv or json, got {config.fmt}")


def _plan_row(view, epsilons) -> list[HedgePlan]:
    """One plan per epsilon on one sorted view of D."""
    return [make_hedge_plan(view, epsilon=epsilon) for epsilon in epsilons]


def _cell(descriptor: str, epsilon: float, plan: HedgePlan, n_paths: int, mode: str,
          mode_disagree: bool = False) -> CellResult:
    """One table cell, and the one place its flags are set.

    In this order: atom_gap when the plan names an atom gap,
    below_se_floor when alpha is below twice its standard error, and
    mode_disagree as run_table_point found it.
    """
    flags = [flag for flag, on in (("atom_gap", plan.atom_gap),
                                   ("below_se_floor", plan.alpha < 2.0 * plan.mc_stderr_alpha),
                                   ("mode_disagree", mode_disagree)) if on]
    return CellResult(
        signal=descriptor,
        epsilon=epsilon,
        alpha=plan.alpha,
        alpha_stderr=plan.mc_stderr_alpha,
        success_prob=plan.success_prob,
        k=plan.k,
        n_paths=n_paths,
        mode=mode,
        flags="|".join(flags),
    )


def run_table_point(config: RunConfig) -> list[CellResult]:
    """Point-signal table: one row per (level, epsilon, conditioning mode).

    Levels are stock prices of the post-expiry price, converted to
    Brownian space internally.  Each conditioning mode draws one stream
    of n_paths normals, from its own derived seed and stream tag, and
    maps it to every level (common random numbers): each cell keeps its
    sampling law, while the errors of one mode's rows are correlated
    across levels.  The two modes stay independent, so their
    disagreement is visible in the output: cells where the two modes
    differ by more than 3 combined standard errors carry the
    mode_disagree flag.
    """
    _check_epsilons_and_format(config)
    if not config.levels:
        raise ValueError("empty level grid")
    modes = (ConditioningMode.BRIDGE_EXACT, ConditioningMode.PAPER_SHIFT)
    signals = [point_signal_from_price(level, config.model) for level in config.levels]
    rows = []
    for j, mode in enumerate(modes):
        draws = draw_point(mode, config.n_paths, derive_seed(config.seed, j),
                           workers=config.workers)
        # each view of D is released once its row is planned: one is alive at a time
        rows.append([_plan_row(build_batch(signal, draws, config.model), config.epsilons)
                     for signal in signals])
    cells: list[CellResult] = []
    for level, bridge_row, shift_row in zip(config.levels, *rows):
        for epsilon, b_plan, s_plan in zip(config.epsilons, bridge_row, shift_row):
            band = 3.0 * math.hypot(b_plan.mc_stderr_alpha, s_plan.mc_stderr_alpha)
            disagree = abs(b_plan.alpha - s_plan.alpha) > band
            for mode, plan in zip(modes, (b_plan, s_plan)):
                cells.append(_cell(f"S={level:g}", epsilon, plan, config.n_paths,
                                   mode.value, disagree))
    return cells


def run_table_indicator(config: RunConfig) -> list[CellResult]:
    """Indicator-signal table: one row per (interval, epsilon), observed G=1.

    Intervals are stock-price ranges for the post-expiry price.  The
    table draws n_paths uniforms and bridge normals once, from one
    derived seed, and the exact interval sampler maps them to each
    interval (common random numbers, as in run_table_point).  An
    interval whose conditioning event has probability 0 raises
    ValueError before anything is drawn, which ends the run.  The mode
    column keeps the label "rejection" for output-format compatibility.
    """
    _check_epsilons_and_format(config)
    if not config.intervals:
        raise ValueError("empty interval grid")
    signals = [interval_signal_from_prices(lo, hi, config.model, observed=1)
               for lo, hi in config.intervals]
    # as in hedge, a signal of probability 0 is refused before the 2n draws are filled
    for signal in signals:
        indicator_prob(signal, config.model)
    draws = draw_interval(config.n_paths, derive_seed(config.seed), workers=config.workers)
    cells: list[CellResult] = []
    for (lo, hi), signal in zip(config.intervals, signals):
        descriptor = f"S=[{lo:g}..{hi:g}]"
        # as in run_table_point, the view of D is released once its row is planned
        row = _plan_row(build_batch(signal, draws, config.model), config.epsilons)
        for epsilon, plan in zip(config.epsilons, row):
            cells.append(_cell(descriptor, epsilon, plan, config.n_paths, "rejection"))
    return cells


# ---------------------------------------------------------------------------
# tree verification suite
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OracleReport:
    passed: bool
    lines: tuple


def _check_instance(name: str, market) -> tuple[bool, str]:
    table = build_atom_table(market)
    report = verify_theorems(table)
    if not report.passed:
        return False, f"{name}: FAIL {report.failures[0]}"
    n_levels = 0
    for g in market.signal_values:
        n_levels += len(achievable_levels(table, g))
        failures = exhaustive_optimality_check(table, g)
        if failures:
            return False, f"{name}: FAIL {failures[0]}"
    return True, f"{name}: ok ({report.n_checks} identities, {n_levels} exhaustive levels)"


def run_oracle_suite(seed: int, instance_count: int) -> OracleReport:
    """Reference market, negative control, and seeded random instances.

    Passes only when every identity holds exactly, every achievable
    level is solved optimally (verified by subset enumeration), the
    known threshold non-existence case is flagged rather than
    mis-solved, and the deliberately corrupted table is rejected.
    Instance i is random_market(seed + i), so seed must be >= 0.
    """
    if seed < 0:
        raise ValueError(f"oracle seed must be >= 0, got {seed} (a negative seed "
                         "repeats the instances of its absolute value)")
    if instance_count < 1:
        raise ValueError("instance_count must be >= 1")
    lines: list[str] = []
    passed = True

    ref = reference_market()
    ok, line = _check_instance("reference", ref)
    passed &= ok
    lines.append(line)

    table = build_atom_table(ref)
    flagged = exact_quantile_hedge(table, 1, epsilon=Fraction(1, 4))
    if flagged.exact:
        passed = False
        lines.append("reference: FAIL epsilon=1/4 should have no exact threshold")
    else:
        lines.append("reference: non-existence case flagged (epsilon=1/4, conservative "
                     f"success={flagged.success_prob})")

    mutated = perturb_atom(table)
    if verify_theorems(mutated).passed:
        passed = False
        lines.append("negative-control: FAIL mutation not detected")
    else:
        lines.append("negative-control: mutation detected")

    for i in range(instance_count):
        ok, line = _check_instance(f"instance {i:03d}", random_market(seed + i))
        passed &= ok
        lines.append(line)

    lines.append(f"oracle suite: {'PASS' if passed else 'FAIL'} "
                 f"({instance_count} random instances)")
    return OracleReport(passed=passed, lines=tuple(lines))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _fmt_num(x: float) -> str:
    return f"{x:.6g}"


def _json_num(x: float):
    if not math.isfinite(x):
        return "inf" if math.isinf(x) else "nan"
    return float(f"{x:.6g}")


def write_cells(cells: list[CellResult], path: str, fmt: str) -> None:
    """CSV or JSON table of the cells."""
    if fmt == "csv":
        lines = [CSV_HEADER]
        for c in cells:
            lines.append(",".join([
                c.signal, _fmt_num(c.epsilon), _fmt_num(c.alpha), _fmt_num(c.alpha_stderr),
                _fmt_num(c.success_prob), _fmt_num(c.k), str(c.n_paths), c.mode, c.flags,
            ]))
        text = "\n".join(lines) + "\n"
    else:
        rows = [{
            "signal": c.signal,
            "epsilon": _json_num(c.epsilon),
            "alpha": _json_num(c.alpha),
            "alpha_stderr": _json_num(c.alpha_stderr),
            "success_prob": _json_num(c.success_prob),
            "k": _json_num(c.k),
            "n_paths": c.n_paths,
            "mode": c.mode,
            "flags": c.flags,
        } for c in cells]
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
            f"{c.signal:>16} {c.epsilon:>5.2f} {c.mode:>13} {alpha_txt:>10} "
            f"{c.alpha_stderr:>9.2g} {c.success_prob:>8.4f} {c.flags}"
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# configuration plumbing
# ---------------------------------------------------------------------------

def parse_config_file(path: str) -> dict:
    """Flat key/value config; '#' starts a comment, '=' separates."""
    options: dict = {}
    with open(path, encoding="utf-8") as fh:
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
    unknown = set(options) - set(DEFAULT_CONFIG_KEYS)
    if unknown:
        raise ValueError(f"{path}: unknown config keys {sorted(unknown)}")
    return options


def _parse_floats(text: str) -> tuple:
    return tuple(float(tok) for tok in text.replace(";", ",").split(",") if tok.strip())


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


def _config_lookup(args: argparse.Namespace):
    """pick(flag, key, cast, fallback): the flag when given, else the value of key in the
    config file (--config, or $INSIDER_HEDGE_CONFIG) cast, else the fallback."""
    path = args.config or os.environ.get(ENV_CONFIG)
    opts = parse_config_file(path) if path else {}

    def pick(flag, key, cast, fallback):
        if flag is not None:
            return flag
        if key in opts:
            return cast(opts[key])
        return fallback

    return pick


def _build_model(args: argparse.Namespace, pick) -> ModelParams:
    return ModelParams(
        mu=pick(args.mu, "mu", float, 0.08),
        sigma=pick(args.sigma, "sigma", float, 0.25),
        s0=pick(args.s0, "s0", float, 100.0),
        strike=pick(args.strike, "strike", float, 110.0),
        t_expiry=pick(args.t_expiry, "t_expiry", float, 0.25),
        delta=pick(args.delta, "delta", float, 0.02),
    )


def build_config(args: argparse.Namespace) -> RunConfig:
    """File options first, command-line flags override."""
    pick = _config_lookup(args)
    return RunConfig(
        model=_build_model(args, pick),
        levels=pick(getattr(args, "levels", None), "signal.levels", _parse_floats, DEFAULT_LEVELS),
        intervals=pick(getattr(args, "intervals", None), "signal.intervals",
                       _parse_intervals, DEFAULT_INTERVALS),
        epsilons=pick(getattr(args, "epsilons", None), "epsilons", _parse_floats,
                      DEFAULT_EPSILONS),
        mode=ConditioningMode(pick(getattr(args, "mode", None), "mode", str, "bridge_exact")),
        n_paths=pick(getattr(args, "n_paths", None), "n_paths", int, 1_000_000),
        seed=pick(args.seed, "seed", int, 0),
        output=pick(getattr(args, "output", None), "output", str, None),
        fmt=pick(getattr(args, "fmt", None), "format", str, "csv"),
        workers=getattr(args, "workers", 1),
    )


def _add_model_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="config file path (default: $INSIDER_HEDGE_CONFIG)")
    sub.add_argument("--mu", type=float)
    sub.add_argument("--sigma", type=float)
    sub.add_argument("--s0", type=float)
    sub.add_argument("--strike", type=float)
    sub.add_argument("--t-expiry", dest="t_expiry", type=float)
    sub.add_argument("--delta", type=float)
    sub.add_argument("--seed", type=int)


def _add_sampling_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--n-paths", dest="n_paths", type=int)
    sub.add_argument("--workers", type=int, default=1)


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
    p_hedge.add_argument("--level", type=float, help="point signal: stock level of S_{T+delta}")
    p_hedge.add_argument("--interval", type=str,
                         help="indicator signal: stock interval LO:HI for S_{T+delta}")
    p_hedge.add_argument("--observed", type=int, choices=(0, 1),
                         help="with --interval: observed indicator value (default 1)")
    p_hedge.add_argument("--mode", choices=[m.value for m in ConditioningMode],
                         help="with --level: conditioning mode (default bridge_exact)")
    p_hedge.add_argument("--epsilon", type=float)
    p_hedge.add_argument("--alpha", type=float)

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
    except (ValueError, OSError) as exc:
        # bad inputs and unreadable or unwritable files end in one line, not a traceback
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _run(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    if args.command == "version":
        print(__version__)
        return 0

    if args.command == "oracle":
        report = run_oracle_suite(args.seed, args.instances)
        print("\n".join(report.lines))
        return 0 if report.passed else 1

    if args.command == "price":
        # the market is all price reads, so no other key can refuse it
        print(_fmt_num(bs_call_price(_build_model(args, _config_lookup(args)))))
        return 0

    if args.command == "hedge":
        config = build_config(args)
        if (args.level is None) == (args.interval is None):
            parser.error("pass exactly one of --level / --interval")
        if args.interval is not None and args.mode is not None:
            parser.error("--mode applies to --level only")
        if args.level is not None and args.observed is not None:
            parser.error("--observed applies to --interval only")
        if (args.epsilon is None) == (args.alpha is None):
            parser.error("pass exactly one of --epsilon / --alpha")
        if args.level is not None:
            signal = point_signal_from_price(args.level, config.model)
            mode = config.mode
            draw = partial(draw_point, mode)
        else:
            intervals = _parse_intervals(args.interval)
            if len(intervals) != 1:
                raise ValueError(f"--interval takes one LO:HI, got {args.interval!r}")
            (lo, hi), = intervals
            observed = 1 if args.observed is None else args.observed
            signal = interval_signal_from_prices(lo, hi, config.model, observed=observed)
            # a signal of probability 0 is refused before its 2n draws are filled
            indicator_prob(signal, config.model)
            mode = None
            draw = draw_interval
        # no reference to the draws is kept here, so build_batch can free them early
        view = build_batch(signal, draw(config.n_paths, config.seed, workers=config.workers),
                           config.model)
        plan = make_hedge_plan(view, epsilon=args.epsilon, alpha=args.alpha)
        if plan.atom_gap:
            print(f"warning: {plan.atom_gap}", file=sys.stderr)
        for name in ("k", "alpha", "success_prob", "initial_capital",
                     "mc_stderr_alpha", "mc_stderr_success"):
            print(f"{name} = {_fmt_num(getattr(plan, name))}")
        print(f"knockout_payoff = {plan.knockout_payoff}")
        print(f"signal = {signal.describe()}")
        print(f"mode = {mode.value if mode else 'rejection'}")
        return 0

    config = build_config(args)
    if args.command == "table-point":
        cells = run_table_point(config)
    else:
        cells = run_table_indicator(config)
    if config.output:
        write_cells(cells, config.output, config.fmt)
        print(f"wrote {len(cells)} cells to {config.output}", file=sys.stderr)
    print(render_cells(cells))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
