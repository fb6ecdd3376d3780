"""Golden outputs: the tables, three hedges and the oracle report, byte for byte.

The digests are SHA-256 of the CSV that write_cells writes for both
default-grid tables at n = 20000, seed 0, of the hedge command's
stdout for a point epsilon hedge, a shift-mode point alpha hedge and a
G = 0 interval alpha hedge, and of the oracle suite's report lines
(seed 0, 100 instances) joined by newlines.  A refactor must leave
them unchanged.  A change that moves sampled numbers on purpose
updates them and says so in CHANGES.md.
"""
import hashlib
from dataclasses import replace

import pytest

from insider_hedge.cli import (
    RunConfig,
    main,
    run_oracle_suite,
    run_table_indicator,
    run_table_point,
    write_cells,
)

TABLE_DIGESTS = {
    "point": "25a54814683861844a9e9361e95aa89bbd6396552cb6e94300136b080ae6f97d",
    "indicator": "0ffd4180abeb7ff592bfa7a385549ddca47abfaed20929e2cdff2b01fd5361e6",
}

HEDGE_DIGESTS = {
    ("--level", "110", "--epsilon", "0.1"):
        "74d2e3da9b504043bdc0282e3cc5715db6d75864c35c475861b33e8e7e05af59",
    ("--level", "112", "--mode", "paper_shift", "--alpha", "0.2"):
        "2945d7ef9bbf22895b00821832b641ed4ab338971a34c0fbdb340633f8c72c34",
    ("--interval", "109:111", "--observed", "0", "--alpha", "0.2"):
        "fe4562bfef38770c6ccd37d5c4cbecdfa8e510b34f7f594e6e5ce5513ab6867d",
}

ORACLE_DIGEST = "a49008d1d97419f87336016278fd21b0c83a892e5bd5dd1c314d36b271f7c7f5"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("kind", sorted(TABLE_DIGESTS))
def test_table_csv(kind, params, tmp_path):
    config = RunConfig(model=params, n_paths=20_000, seed=0)
    if kind == "point":
        cells = run_table_point(config)
    else:
        cells = run_table_indicator(replace(config, signal_kind="interval"))
    path = tmp_path / f"{kind}.csv"
    write_cells(cells, str(path), "csv")
    assert _sha256(path.read_bytes()) == TABLE_DIGESTS[kind]


@pytest.mark.parametrize("args", sorted(HEDGE_DIGESTS))
def test_hedge_stdout(args, capsys):
    assert main(["hedge", *args, "--n-paths", "20000", "--seed", "0"]) == 0
    assert _sha256(capsys.readouterr().out.encode()) == HEDGE_DIGESTS[args]


def test_oracle_report():
    report = run_oracle_suite(0, 100)
    assert report.passed
    assert _sha256("\n".join(report.lines).encode()) == ORACLE_DIGEST
