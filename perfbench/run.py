"""Benchmark entry point: one workload, one seed, one result line.

Run from the repository root:

    python3 perfbench/run.py --workload point-table --seed 0 --seconds 20 --trace 0

Workloads: point-table, indicator-table, tree-oracle, single-hedge (see
perfbench/README.md for what each exercises and which metrics each layer
should move).  `--trace 0` reports the end-to-end metrics, `--trace 1`
the per-layer metrics of a traced run; `--smoke` shrinks every input for
the benchmark's own tests.

The workload runs in a fresh single-threaded child (workload.py).
Set-up time is measured from process start to the child's "ready" line,
in SETUP_SAMPLES fresh processes, and reported as the median.  Table
outputs are checked against the published tables with the acceptance
rule of tests/test_acceptance.py.  The last stdout line is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

A record with the header (commit, machine, versions, seed, sizes) and
every sample goes to perfbench/out/ and, prefixed by "# ", to stdout.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("point-table", "indicator-table", "tree-oracle", "single-hedge")
SETUP_SAMPLES = 5
# every child still running this long after the start is stopped and the run fails
DEADLINE_S = 170.0

# acceptance rule of tests/test_acceptance.py, criteria 1 and 2: cells printed
# >= CHECKED_FROM must lie within BAND; cells printed as "<0.01" (point) and
# "<0.001" (indicator) must stay below their floor
BAND = 0.02
CHECKED_FROM = 0.05
POINT_FLOOR = 0.02
INDICATOR_FLOOR = 0.005


def load_published(root: Path):
    """The published tables, as the acceptance tests hold them."""
    sys.path[:0] = [str(root / "src"), str(root / "tests")]
    import test_acceptance
    return test_acceptance


def table_failures(workload: str, csv_text: str, published) -> tuple[int, list]:
    """(cells checked, failures) of one table against the published values."""
    rows = [line.split(",") for line in csv_text.splitlines()[1:]]
    alpha = {(r[0], float(r[1]), r[7]): float(r[2]) for r in rows}
    checked, failures = 0, []

    def check(keys, printed, floor):
        nonlocal checked
        if printed is not None and printed < CHECKED_FROM:
            return
        checked += 1
        for key in keys:
            got = alpha.get(key)
            if got is None:
                failures.append(f"{key}: missing")
            elif printed is None and not got < floor:
                failures.append(f"{key}: {got} >= {floor}")
            elif printed is not None and not abs(got - printed) <= BAND:
                failures.append(f"{key}: {got} vs published {printed}")

    if workload == "point-table":
        for eps, row in published.TABLE_POINT.items():
            for level, printed in zip(published.LEVELS, row):
                signal = f"S={level:g}"
                # the bridge mode reproduces the table; on "<0.01" cells both modes stay small
                modes = ("bridge_exact",) if printed is not None else ("bridge_exact", "paper_shift")
                check([(signal, eps, mode) for mode in modes], printed, POINT_FLOOR)
    else:
        for (lo, hi), row in published.TABLE_INDICATOR.items():
            for eps, printed in zip(published.EPSILONS, row):
                check([(f"S=[{lo:g}..{hi:g}]", eps, "rejection")], printed, INDICATOR_FLOOR)
    return checked, failures


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout's own .git, if it has one (read, never searched upwards)."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def source_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "insider_hedge").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(args, extra: list, timeout: float) -> tuple[float, str]:
    """Start workload.py; return (its set-up seconds, its last stdout line).

    Set-up runs from process start to the child's "ready" line, scaled to
    the nominal host speed by the calibration kernel the child runs next.
    """
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), *(["--smoke"] if args.smoke else []), *extra]
    t0 = time.perf_counter()
    # its own process group, so that a stop also reaches its calibration process
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=child_env(),
                            start_new_session=True)
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest, _ = proc.communicate(timeout=timeout)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    lines = rest.splitlines()
    if proc.returncode != 0 or ready.strip() != "ready" or not lines:
        raise RuntimeError(f"workload process failed (exit {proc.returncode})")
    speed = json.loads(lines[0])
    return setup_s * speed["nominal_s"] / speed["calibration_s"], lines[-1]


def percentile(values: list, q: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="insider-hedge benchmark: one workload run")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the harness tests")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "insider_hedge" / "__init__.py").is_file():
        print("error: run from the repository root (src/insider_hedge not found)", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    setup = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            setup.append(run_child(args, ["--setup-only"], deadline - time.monotonic())[0])
    setup_s, line = run_child(args, [], deadline - time.monotonic())
    setup.append(setup_s)
    child = json.loads(line)

    problems = list(child["problems"])
    attempted = child["attempted"]
    table_checked = None
    if child["table_csv"] is not None and not args.smoke:
        # the acceptance band is statistical and holds only at full size
        checked, failures = table_failures(args.workload, child["table_csv"],
                                           load_published(root))
        attempted += checked
        problems += failures
        table_checked = checked

    header = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "workers": 1,
        "size": child["size"],
        "git_commit": git_commit(root),
        "source_sha256": source_digest(root),
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        **child["versions"],
    }
    requests_ms = [s * 1e3 for s in child["request_s"]]
    if args.trace:
        metrics = child["layers"]
    else:
        metrics = {
            "wall_s": {"value": statistics.median(child["pass_s"]), "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": child["peak_rss_mb"], "unit": "MB"},
            "request_ms.p50": {"value": statistics.median(requests_ms), "unit": "ms"},
            "request_ms.p90": {"value": percentile(requests_ms, 90), "unit": "ms"},
        }
    samples = {
        "pass_s": child["pass_s"],
        "raw_pass_s": child["raw_pass_s"],
        "calibration_s": child["calibration_s"],
        "request_count": len(requests_ms),
        "requests_beyond_p90": sum(1 for ms in requests_ms if ms > percentile(requests_ms, 90)),
        "setup_s": setup,
        "published_cells_checked": table_checked,
        **{k: child[k] for k in ("traced_pass_s", "probes_missing", "spans_file") if k in child},
    }
    result = {"correct": not problems, "attempted": attempted, "failed": len(problems),
              "metrics": metrics}
    record = {"header": header, "samples": samples, "problems": problems, "result": result}

    out = root / "perfbench" / "out"
    out.mkdir(parents=True, exist_ok=True)
    name = f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out / name).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for problem in problems[:10]:
        print(f"check failed: {problem}", file=sys.stderr)
    print("# " + json.dumps({"header": header, "samples": samples}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
