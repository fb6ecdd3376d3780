"""Golden outputs: the tables, three hedges and the oracle report, byte for byte.

The digests are SHA-256 of the CSV that write_cells writes for both
default-grid tables at n = 20000 and n = 200000, seed 0, of the CSV and
the JSON of both tables at the default n = 10^6, seeds 0 and 1, of the
hedge command's stdout for a point epsilon hedge, a shift-mode point
alpha hedge, a G = 0 interval alpha hedge, a G = 1 epsilon hedge on the
interval that lies furthest below the strike and a shift-mode epsilon
hedge at a high level at n = 20000, of two hedges at n = 200000, a G = 0
interval alpha hedge and a shift-mode epsilon hedge, whose draws span
several random-stream blocks, of two G = 0 interval hedges at the default
n = 10^6, of the oracle suite's report lines (seed 0, 100 instances, and
seed 7, 30 instances) joined by newlines, and of the bridge_exact cells'
numeric columns of the point table at n = 20000 and n = 10^6, seed 0,
each value as its repr (so bit for bit), one line per cell.  A refactor
must leave them unchanged.  A change that moves sampled numbers on
purpose updates them and says so in CHANGES.md.
"""
import hashlib
from dataclasses import replace

import pytest

from insider_hedge import __version__, cli
from insider_hedge.cli import (
    RunConfig,
    main,
    run_oracle_suite,
    run_table_indicator,
    run_table_point,
    write_cells,
)

TABLE_DIGESTS = {
    "point": "8da9d823e2fb28a8a1178a9fb31b4d92343e7cf734d554ddc10b61a18e4aa19e",
    "indicator": "d2c46f9044f39e742913878e3859b17d8af450ffcd50364a8ba945de66a39193",
}

# n = 200000: more than three blocks of rng.BLOCK_SIZE draws
MULTI_BLOCK_TABLE_DIGESTS = {
    "point": "f127c2ef9e19f903068407ac189f98a8fdf07cb6dfe96fc79c0a7e1faf5dcc09",
    "indicator": "a1fbb2a6b1148b4ed667087ea09b829d682aca4429470d49df48cb11785cacef",
}

# n = 10^6, the default sample size: (table, seed) -> digests of the CSV and the JSON
FULL_SIZE_TABLE_DIGESTS = {
    ("point", 0): ("abe94286031271134088723c520b72a4de282530f09bc5b2ab4d843e4fff1295",
                   "2f6ffa549c8e1c2f217d29a3e6c056a8d63831e4038b7be94b8259832eb1827b"),
    ("point", 1): ("727ccb8d8d1332f965274f89fca38c6ce91d28d33917b5c788b5e15c830bdc66",
                   "13e2438a01b95f4e262dbcb66d05cdb12a88f56f08f203b314326395219a7c26"),
    ("indicator", 0): ("dcc1768af10de1dae5de1b49e08f95650033b84413a48a7992efbc5cdb35427f",
                       "673f0847522b3aeb2638dab028a822ae6838f924956a4260f82ea78b86f681be"),
    ("indicator", 1): ("d48128731333b2e6776d10d3922af0c53f10a56026842c08354450bd3803d867",
                       "575c2b0bf6973d83a2fec5084b65f08f4f7db99781e4988d2ef3aec9213caba0"),
}

# bridge_exact cells of the default point table, seed 0: n -> digest of their
# signal, epsilon, alpha, alpha_stderr, success_prob and k (the flags column is left out)
BRIDGE_ROW_DIGESTS = {
    20_000: "dba6387b12482e564f27047d2ea3c09dd487943460d5a31aa020a634dc696e9e",
    1_000_000: "ba078a151ac4da088119e9e487a8f31fd08fcdbb649e21d003b8e86f18a534c0",
}
BRIDGE_COLUMNS = ("epsilon", "alpha", "alpha_stderr", "success_prob", "k")

HEDGE_DIGESTS = {
    ("--level", "110", "--epsilon", "0.1"):
        "0f3ac2636273d0e0d14acfbee81519e73b78083faf9a758f209348d8ec4a0800",
    ("--level", "112", "--mode", "paper_shift", "--alpha", "0.2"):
        "4f2e3ac2689f3900d357aa18968946773687666f5196839cde89d70090b30a03",
    ("--interval", "109:111", "--observed", "0", "--alpha", "0.2"):
        "78f9de18a7db05ce0e25fae97b01248c85ee4de5e650441d84b4cbce12b4368e",
    ("--interval", "106:108", "--epsilon", "0.1"):
        "0611058469154314e2f2cc1f51753e06a348d084a3319a48ea6a7e51a1dff7a8",
    ("--level", "114", "--mode", "paper_shift", "--epsilon", "0.05"):
        "3ce8388f7a1a23e9fdba0b3f7075d9761eecd1e75f4178e803a9590a051c6c3d",
}

MULTI_BLOCK_HEDGE_DIGESTS = {
    ("--interval", "112:114", "--observed", "0", "--alpha", "0.2"):
        "62f40f925c4f653f408aa7251fbccf56e0f4fb5e9a162bffa41909164f6606b3",
    ("--level", "115", "--mode", "paper_shift", "--epsilon", "0.01"):
        "e4788ed7c8961aa2b4d38afb57158edadd979fdbfffc893b60cb7b688e3a9e81",
}

# n = 10^6: G = 0 hedges whose draws span 16 random-stream blocks and every bin of the
# uniform that bounds their W_T
FULL_SIZE_HEDGE_DIGESTS = {
    ("--interval", "106:108", "--observed", "0", "--epsilon", "0.1"):
        "1d260eedd282c6dc28a1ea6cfeafc202ecaac18985b7721c9528e1483e93329d",
    ("--interval", "112:114", "--observed", "0", "--alpha", "0.2"):
        "b012724173ead342eafb82c919e6a24689a0443d70b9ac616a67660ac32d8bf1",
}

ORACLE_DIGEST = "a49008d1d97419f87336016278fd21b0c83a892e5bd5dd1c314d36b271f7c7f5"

# a second instance set: seeds 7..36
ORACLE_SEED7_DIGEST = "96290550f27d3170042c963f2acc17853280f1aff48b122e8452c8a412b53d49"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def table_digests(kind, params, n_paths, tmp_path, seed=0, fmts=("csv",)) -> tuple:
    """Digests of the table's files, one per format in fmts."""
    config = RunConfig(model=params, n_paths=n_paths, seed=seed)
    if kind == "point":
        cells = run_table_point(config)
    else:
        cells = run_table_indicator(replace(config, signal_kind="interval"))
    digests = []
    for fmt in fmts:
        path = tmp_path / f"{kind}.{fmt}"
        write_cells(cells, str(path), fmt)
        digests.append(_sha256(path.read_bytes()))
    return tuple(digests)


def table_digest(kind, params, n_paths, tmp_path) -> str:
    return table_digests(kind, params, n_paths, tmp_path)[0]


def hedge_digest(args, n_paths, capsys) -> str:
    assert main(["hedge", *args, "--n-paths", str(n_paths), "--seed", "0"]) == 0
    return _sha256(capsys.readouterr().out.encode())


@pytest.mark.parametrize("kind", sorted(TABLE_DIGESTS))
def test_table_csv(kind, params, tmp_path):
    assert table_digest(kind, params, 20_000, tmp_path) == TABLE_DIGESTS[kind]


@pytest.mark.parametrize("kind", sorted(MULTI_BLOCK_TABLE_DIGESTS))
def test_table_csv_multi_block(kind, params, tmp_path):
    assert table_digest(kind, params, 200_000, tmp_path) == MULTI_BLOCK_TABLE_DIGESTS[kind]


@pytest.mark.parametrize("kind, seed", sorted(FULL_SIZE_TABLE_DIGESTS))
def test_table_csv_and_json_full_size(kind, seed, params, tmp_path):
    digests = table_digests(kind, params, 1_000_000, tmp_path, seed, ("csv", "json"))
    assert digests == FULL_SIZE_TABLE_DIGESTS[kind, seed]


@pytest.mark.parametrize("n_paths", sorted(BRIDGE_ROW_DIGESTS))
def test_point_table_bridge_rows(n_paths, params):
    cells = run_table_point(RunConfig(model=params, n_paths=n_paths, seed=0))
    rows = [",".join([c.signal, *(repr(getattr(c, name)) for name in BRIDGE_COLUMNS)])
            for c in cells if c.mode == "bridge_exact"]
    assert len(rows) == 66
    assert _sha256("\n".join(rows).encode()) == BRIDGE_ROW_DIGESTS[n_paths]


@pytest.mark.parametrize("args", sorted(HEDGE_DIGESTS))
def test_hedge_stdout(args, capsys):
    assert hedge_digest(args, 20_000, capsys) == HEDGE_DIGESTS[args]


@pytest.mark.parametrize("args", sorted(MULTI_BLOCK_HEDGE_DIGESTS))
def test_hedge_stdout_multi_block(args, capsys):
    assert hedge_digest(args, 200_000, capsys) == MULTI_BLOCK_HEDGE_DIGESTS[args]


@pytest.mark.parametrize("args", sorted(FULL_SIZE_HEDGE_DIGESTS))
def test_hedge_stdout_full_size(args, capsys):
    assert hedge_digest(args, 1_000_000, capsys) == FULL_SIZE_HEDGE_DIGESTS[args]


def test_hedge_stdout_after_other_calls_in_process(capsys):
    """main reuses one parser per process; no earlier call may leak into a later one."""
    parser = cli._parser()
    # refused by argparse after it has read a mode, a seed and a sample size
    with pytest.raises(SystemExit) as exc:
        main(["hedge", "--level", "110", "--mode", "paper_shift", "--seed", "5",
              "--n-paths", "3000", "--epsilon", "0.2", "--epsilons", "0.3"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert main(["hedge", "--level", "110", "--epsilon", "1.5"]) == 1
    out, err = capsys.readouterr()
    [line] = err.splitlines()
    assert line.startswith("error: ") and out == ""
    args = ("--level", "110", "--epsilon", "0.1")
    assert main(["hedge", *args, "--n-paths", "20000", "--seed", "0"]) == 0
    assert _sha256(capsys.readouterr().out.encode()) == HEDGE_DIGESTS[args]
    assert main(["version"]) == 0
    assert capsys.readouterr().out == f"{__version__}\n"
    assert cli._parser() is parser


def oracle_digest(seed, instances) -> str:
    report = run_oracle_suite(seed, instances)
    assert report.passed
    return _sha256("\n".join(report.lines).encode())


def test_oracle_report():
    assert oracle_digest(0, 100) == ORACLE_DIGEST


def test_oracle_report_seed7():
    assert oracle_digest(7, 30) == ORACLE_SEED7_DIGEST
