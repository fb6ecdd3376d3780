"""One workload in one fresh, single-threaded process (started by run.py).

    python3 perfbench/workload.py --workload NAME --seed N --seconds S --trace 0|1
                                  [--smoke] [--setup-only]

The process imports the package from ./src, builds the workload's inputs
from the seed, prints "ready" (the parent times set-up up to this line),
then runs whole passes of the workload until the time budget is spent.
The last stdout line is one JSON object for the parent.

Every request is timed and then scaled to a nominal host speed (see
HostClock).  Untraced (--trace 0): the outputs of every pass must be
byte-identical to the first.  Traced (--trace 1): the first half of the
budget runs untraced passes, the second half traced ones; the traced
outputs must be byte-identical to the untraced ones.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path.cwd()
OUT = ROOT / "perfbench" / "out"
HERE = Path(__file__).resolve().parent

sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import insider_hedge  # noqa: E402
from insider_hedge import cli  # noqa: E402
from insider_hedge.model_core import ModelParams  # noqa: E402

from tracing import FLAGS, LAYER_METRICS, Tracer, combine_passes  # noqa: E402

WORKLOADS = ("point-table", "indicator-table", "tree-oracle", "single-hedge")

# the market behind the published tables
MODEL = ModelParams(mu=0.08, sigma=0.25, s0=100.0, strike=110.0, t_expiry=0.25, delta=0.02)
N_PATHS = 1_000_000
SMOKE_N_PATHS = 2_000

# The oracle's instances are the suite's own seeded set (`oracle --seed 0`), the
# same for every workload seed: per-instance cost is heavy-tailed (the top 1% of
# instances take about a quarter of the time), so a seed-dependent set would make
# wall_s differ by 30-40% between seeds.
ORACLE_SEED = 0
ORACLE_INSTANCES = 100
SMOKE_ORACLE_INSTANCES = 5

# single-hedge: each deck of 10 requests holds every kind in fixed shares,
# shuffled by the seed, so latency percentiles do not depend on the mix drawn
HEDGE_DECK = (("point", "epsilon"),) * 3 + (("point", "alpha"),) * 3 + \
             (("interval", "epsilon"),) * 2 + (("interval", "alpha"),) * 2
HEDGE_DECKS = 5
SMOKE_HEDGE_DECKS = 1
HEDGE_ALPHAS = (0.05, 0.10, 0.15, 0.20, 0.25, 0.30)
# at least 100 latency samples, so p90 has 10 beyond it
HEDGE_MIN_REQUESTS = 100


class Response(NamedTuple):
    output: bytes          # what a user of the CLI would receive
    checks: int            # correctness checks made on this response
    problems: list         # failed checks
    counts: dict           # cli.* per-layer counts
    table_csv: str | None  # CSV table, checked against the published tables by run.py


class PassResult(NamedTuple):
    raw: list              # seconds per request, as measured
    kernel_at: list        # per request, the index of the kernel run just before it
    responses: list


class HostClock:
    """Scales request times to a nominal host speed.

    The host shares its cores, and its speed drifts by up to 40% over
    tens of seconds.  After every request the calibration process
    (calibrate.py, pinned to the same CPU) runs one part of a fixed
    kernel, the part that resembles the workload: "python" for the exact
    oracle, "numpy" for the Monte Carlo workloads.  A request is scaled by
    NOMINAL_S over the median of the four kernel runs around it (two
    before, two after), so slow and fast phases of the host cancel and one
    noisy kernel run does not move a request.
    """

    NOMINAL_S = {"python": 0.050, "numpy": 0.080}

    def __init__(self, part: str) -> None:
        self.part = part
        self.kernel_s: list[float] = []
        self._proc = subprocess.Popen([sys.executable, str(HERE / "calibrate.py")],
                                      stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run_part(self, part: str) -> float:
        self._proc.stdin.write(part + "\n")
        self._proc.stdin.flush()
        return float(self._proc.stdout.readline())

    def measure(self) -> int:
        """Run the workload's kernel part once; return the index of the reading."""
        self.kernel_s.append(self.run_part(self.part))
        return len(self.kernel_s) - 1

    def scaled(self, seconds: float, kernel_at: int) -> float:
        around = self.kernel_s[max(kernel_at - 1, 0):kernel_at + 3]
        return seconds * self.NOMINAL_S[self.part] / statistics.median(around)

    def close(self) -> None:
        self._proc.stdin.close()
        self._proc.wait()


def _flag_counts(cells) -> dict:
    counts = {f"cli.flags.{flag}": 0 for flag in FLAGS}
    for cell in cells:
        for flag in filter(None, cell.flags.split("|")):
            counts[f"cli.flags.{flag}"] += 1
    return {"cli.cells": len(cells), **counts}


def table_workload(name: str, seed: int, smoke: bool):
    """One request: the table, written as CSV and rendered, as `table-*` does."""
    n_paths = SMOKE_N_PATHS if smoke else N_PATHS
    if name == "point-table":
        config = cli.RunConfig(model=MODEL, n_paths=n_paths, seed=seed, workers=1)
        run_table = cli.run_table_point
        size = {"levels": len(config.levels), "epsilons": len(config.epsilons),
                "modes": 2, "batches": 2 * len(config.levels)}
    else:
        config = cli.RunConfig(model=MODEL, signal_kind="interval", n_paths=n_paths,
                               seed=seed, workers=1)
        run_table = cli.run_table_indicator
        size = {"intervals": len(config.intervals), "epsilons": len(config.epsilons),
                "observed": 1, "batches": len(config.intervals)}
    size["n_paths"] = n_paths
    path = OUT / f"{name}-seed{seed}.csv"

    def request(call) -> Response:
        cells = call("cli.run", run_table, config)
        call("cli.serialize", cli.write_cells, cells, str(path), "csv")
        text = call("cli.serialize", cli.render_cells, cells)
        csv = path.read_bytes()
        output = csv + text.encode()
        counts = {"cli.bytes_out": len(output), **_flag_counts(cells)}
        return Response(output, 0, [], counts, csv.decode())

    return [request], size


def oracle_workload(smoke: bool):
    """One request: the verification suite and its report, as `oracle` does."""
    instances = SMOKE_ORACLE_INSTANCES if smoke else ORACLE_INSTANCES
    size = {"instances": instances, "suite_seed": ORACLE_SEED}

    def request(call) -> Response:
        report = call("cli.run", cli.run_oracle_suite, ORACLE_SEED, instances)
        output = call("cli.serialize", "\n".join, report.lines).encode()
        # every line but the closing summary is one check
        checks = report.lines[:-1]
        problems = [line for line in checks if "FAIL" in line]
        if not report.passed:
            problems.append(report.lines[-1])
        counts = {"cli.bytes_out": len(output), **_flag_counts([])}
        return Response(output, len(checks), problems, counts, None)

    return [request], size


def hedge_requests(seed: int, decks: int, n_paths: int) -> list:
    """(argv, signal kind, target kind, target value) per request, from the seed."""
    rng = random.Random(seed)
    requests = []
    for _ in range(decks):
        deck = list(HEDGE_DECK)
        rng.shuffle(deck)
        for signal, target in deck:
            argv = ["hedge", "--seed", str(rng.randrange(2**31)), "--n-paths", str(n_paths),
                    "--workers", "1"]
            if signal == "point":
                argv += ["--level", f"{rng.choice(cli.DEFAULT_LEVELS):g}",
                         "--mode", rng.choice(("bridge_exact", "paper_shift"))]
            else:
                lo, hi = rng.choice(cli.DEFAULT_INTERVALS)
                argv += ["--interval", f"{lo:g}:{hi:g}", "--observed", "0"]
            value = rng.choice(cli.DEFAULT_EPSILONS if target == "epsilon" else HEDGE_ALPHAS)
            argv += [f"--{target}", f"{value:g}"]
            requests.append((argv, signal, target, value))
    return requests


def check_response(argv, target: str, value: float, status: int, stdout: str) -> str | None:
    """Duality of one hedge response; None when it holds."""
    fields = dict(line.split(" = ", 1) for line in stdout.splitlines() if " = " in line)
    if status != 0 or "alpha" not in fields or "success_prob" not in fields:
        return f"{' '.join(argv)}: exit {status}, output {stdout!r}"
    if target == "epsilon" and not float(fields["success_prob"]) >= 1.0 - value - 1e-12:
        return f"{' '.join(argv)}: success_prob {fields['success_prob']} < {1.0 - value:g}"
    if target == "alpha" and not float(fields["alpha"]) <= value + 1e-12:
        return f"{' '.join(argv)}: alpha {fields['alpha']} > budget {value:g}"
    return None


def hedge_workload(seed: int, smoke: bool):
    """One request per `hedge` command line, run in process through cli.main."""
    n_paths = SMOKE_N_PATHS if smoke else N_PATHS
    specs = hedge_requests(seed, SMOKE_HEDGE_DECKS if smoke else HEDGE_DECKS, n_paths)
    kinds = [f"{signal}-{target}" for _, signal, target, _ in specs]
    size = {"requests_per_pass": len(specs), "n_paths": n_paths,
            "share": {k: kinds.count(k) / len(kinds) for k in sorted(set(kinds))}}

    def make_request(argv, target, value):
        def request(call) -> Response:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                status = call("cli.run", cli.main, argv)
            problem = check_response(argv, target, value, status, out.getvalue())
            output = out.getvalue().encode()
            counts = {"cli.bytes_out": len(output), **_flag_counts([])}
            return Response(output, 1, [problem] if problem else [], counts, None)
        return request

    return [make_request(argv, target, value) for argv, _, target, value in specs], size


def prepare(name: str, seed: int, smoke: bool):
    if name in ("point-table", "indicator-table"):
        return table_workload(name, seed, smoke)
    if name == "tree-oracle":
        return oracle_workload(smoke)
    return hedge_workload(seed, smoke)


def untraced_call(name: str, fn, *args):
    return fn(*args)


def run_pass(requests: list, call, clock: HostClock) -> PassResult:
    raw, kernel_at, responses = [], [], []
    for request in requests:
        t0 = time.perf_counter()
        responses.append(request(call))
        raw.append(time.perf_counter() - t0)
        kernel_at.append(clock.measure() - 1)
    return PassResult(raw, kernel_at, responses)


def latencies(result: PassResult, clock: HostClock) -> list:
    """Scaled seconds per request of one pass."""
    return [clock.scaled(s, j) for s, j in zip(result.raw, result.kernel_at)]


def run_passes(requests: list, call, clock: HostClock, budget: float, min_passes: int,
               before_pass=None) -> list:
    """Whole passes until the next one would overrun the budget."""
    passes = []
    start = time.perf_counter()
    while True:
        if before_pass:
            before_pass(len(passes))
        t0 = time.perf_counter()
        passes.append(run_pass(requests, call, clock))
        elapsed = time.perf_counter() - start
        if len(passes) >= min_passes and elapsed + (time.perf_counter() - t0) > budget:
            return passes


def merged(result: PassResult) -> Response:
    """The pass's responses as one: outputs joined, checks and counts summed."""
    counts: dict = {}
    for r in result.responses:
        for name, value in r.counts.items():
            counts[name] = counts.get(name, 0) + value
    return Response(
        output=b"\n".join(r.output for r in result.responses),
        checks=sum(r.checks for r in result.responses),
        problems=[p for r in result.responses for p in r.problems],
        counts=counts,
        table_csv=result.responses[0].table_csv,
    )


def measure(args, requests: list, size: dict, clock: HostClock):
    """Untraced passes, then (when tracing) traced ones, each within its budget."""
    OUT.mkdir(parents=True, exist_ok=True)
    min_passes = 2
    if args.workload == "single-hedge" and not args.smoke:
        min_passes = max(2, math.ceil(HEDGE_MIN_REQUESTS / len(requests)))
    budget = args.seconds
    if args.trace:
        budget /= 2
        min_passes = 1
    passes = run_passes(requests, untraced_call, clock, budget, min_passes)
    if not args.trace:
        return passes, [], None
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_passes(requests, tracer.call, clock, budget, 1, tracer.begin_pass)
    finally:
        tracer.uninstall()
    return passes, traced, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    if not Path(insider_hedge.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"insider_hedge imported from {insider_hedge.__file__}, not ./src", file=sys.stderr)
        return 2
    requests, size = prepare(args.workload, args.seed, args.smoke)
    print("ready", flush=True)
    # the calibration process inherits the pinning
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    clock = HostClock("python" if args.workload == "tree-oracle" else "numpy")
    try:
        # the parent scales set-up time by the whole kernel, run right after it
        kernels = [sum(map(clock.run_part, HostClock.NOMINAL_S)) for _ in range(3)]
        print(json.dumps({"calibration_s": statistics.median(kernels),
                          "nominal_s": sum(HostClock.NOMINAL_S.values())}), flush=True)
        if args.setup_only:
            return 0
        clock.measure()
        passes, traced, tracer = measure(args, requests, size, clock)
    finally:
        clock.close()

    walls = [sum(latencies(p, clock)) for p in passes]
    first = merged(passes[0])
    problems = list(first.problems)
    attempted = first.checks
    for i, result in enumerate(passes[1:] + traced, start=1):
        attempted += 1
        if merged(result).output != first.output:
            problems.append(f"pass {i} output differs from pass 0")

    record = {
        "size": size,
        "versions": {"insider_hedge": insider_hedge.__version__,
                     "numpy": np.__version__,
                     "scipy": sys.modules["scipy"].__version__},
        "pass_s": walls,
        "raw_pass_s": [sum(p.raw) for p in passes],
        "request_s": [lat for p in passes for lat in latencies(p, clock)],
        "calibration_s": clock.kernel_s,
        "attempted": attempted,
        "problems": problems,
        "table_csv": first.table_csv,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer:
        per_pass = [tracer.pass_metrics(i, merged(p).counts) for i, p in enumerate(traced)]
        layers, count_problems = combine_passes(per_pass)
        problems.extend(count_problems)
        traced_walls = [sum(latencies(p, clock)) for p in traced]
        layers["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(walls)
        record["layers"] = {name: {"value": layers[name], "unit": unit}
                            for unit, name in LAYER_METRICS}
        record["traced_pass_s"] = traced_walls
        record["probes_missing"] = tracer.missing
        record["spans_file"] = str(OUT.relative_to(ROOT) / f"spans-{args.workload}-seed{args.seed}.jsonl")
        tracer.write_jsonl(ROOT / record["spans_file"],
                           {"workload": args.workload, "seed": args.seed, "size": size})
    print(json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
