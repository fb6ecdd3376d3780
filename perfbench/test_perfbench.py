"""Tests of the benchmark harness itself, in smoke mode (tiny inputs).

    python3 -m pytest perfbench -q

They keep the harness from rotting: every workload must run end to end,
report exactly the metrics BENCHMARK.json names, pass its own checks,
and repeat its exact per-layer counts.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
from tracing import COUNT_METRICS, Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def smoke(workload, trace, seed=5):
    proc = bench("--workload", workload, "--seed", str(seed), "--seconds", "1",
                 "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def published():
    return run.load_published(ROOT)


def published_csv(published, alpha_of=lambda key, printed: printed or 0.0):
    lines = [",".join(["signal", "epsilon", "alpha", "x", "x", "x", "x", "mode", "flags"])]
    for eps, row in published.TABLE_POINT.items():
        for level, printed in zip(published.LEVELS, row):
            for mode in ("bridge_exact", "paper_shift"):
                key = (f"S={level:g}", eps, mode)
                lines.append(f"{key[0]},{eps:g},{alpha_of(key, printed):g},0,0,0,0,{mode},")
    for (lo, hi), row in published.TABLE_INDICATOR.items():
        for eps, printed in zip(published.EPSILONS, row):
            key = (f"S=[{lo:g}..{hi:g}]", eps, "rejection")
            lines.append(f"{key[0]},{eps:g},{alpha_of(key, printed):g},0,0,0,0,rejection,")
    return "\n".join(lines) + "\n"


def test_published_values_pass_the_table_rule(published):
    csv = published_csv(published)
    assert run.table_failures("point-table", csv, published) == (56, [])
    assert run.table_failures("indicator-table", csv, published) == (21, [])


def test_table_rule_counts_each_failing_cell(published):
    off = {("S=110", 0.01, "bridge_exact"): 0.285,         # published 0.27: inside the band
           ("S=112", 0.01, "bridge_exact"): 0.40,          # published 0.37 -> 0.03 off
           ("S=105", 0.05, "paper_shift"): 0.03,           # "<0.01" cell above 0.02
           ("S=[106..108]", 0.2, "rejection"): 0.006}      # "<0.001" cell above 0.005

    def alpha_of(key, printed):
        return off.get(key, printed or 0.0)

    csv = published_csv(published, alpha_of)
    checked, failures = run.table_failures("point-table", csv, published)
    assert checked == 56 and len(failures) == 2
    checked, failures = run.table_failures("indicator-table", csv, published)
    assert checked == 21 and len(failures) == 1


def test_self_time_subtracts_child_spans():
    tracer = Tracer()
    tracer.spans = [
        ["cli.run", 0.0, 10.0, -1, 0, {}],
        ["measure_engine.build_batch", 1.0, 5.0, 0, 0, {"bytes": 80}],
        ["insider_signal.sample", 2.0, 3.0, 1, 0, {"draws": 10}],
        ["rng", 2.1, 2.6, 2, 0, {"normals": 40, "rows": 20}],
        ["model_core", 3.5, 4.0, 1, 0, {}],
    ]
    m = tracer.pass_metrics(0, {})
    assert m["cli.self_s"] == pytest.approx(6.0)
    assert m["measure_engine.build_s"] == pytest.approx(4.0)
    assert m["measure_engine.assemble_s"] == pytest.approx(2.5)
    assert m["insider_signal.sample_s"] == pytest.approx(0.5)
    assert m["insider_signal.proposed"] == 20
    assert m["insider_signal.accept_ratio"] == pytest.approx(0.5)
    assert m["rng.normals_per_s"] == pytest.approx(80.0)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_reports_every_metric(workload):
    untraced = smoke(workload, 0)
    assert untraced["correct"] and untraced["failed"] == 0 and untraced["attempted"] >= 1
    assert set(untraced["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in untraced["metrics"].values())

    traced = [smoke(workload, 1) for _ in range(2)]
    assert all(t["correct"] for t in traced)
    assert set(traced[0]["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for name in COUNT_METRICS:
        assert traced[0]["metrics"][name] == traced[1]["metrics"][name], name


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", WORKLOADS[0], "--seed", "0", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
