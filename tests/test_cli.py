import argparse
import contextlib
import dataclasses
import io
import json
import math
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from insider_hedge import cli, insider_signal, measure_engine
from insider_hedge.cli import (
    CSV_HEADER,
    CellResult,
    RunConfig,
    build_config,
    main,
    parse_config_file,
    run_oracle_suite,
    run_table_indicator,
    run_table_point,
    write_cells,
)
from insider_hedge.model_core import ModelParams


def run_cli(*argv):
    proc = subprocess.run(
        [sys.executable, "-m", "insider_hedge.cli", *argv],
        capture_output=True, text=True,
    )
    return proc


@pytest.fixture()
def small_config(params):
    return RunConfig(model=params, levels=(110.0,), intervals=((109.0, 111.0),),
                     epsilons=(0.1, 0.25), n_paths=2000, seed=7)


SAMPLING_COMMANDS = (["hedge", "--level", "110", "--epsilon", "0.1"],
                     ["table-point"], ["table-indicator"])

# the commands of the key tests below, and for each bad key line the commands that
# read it and the error they print
KEY_READERS = {
    "hedge-level": ["hedge", "--level", "110", "--epsilon", "0.1"],
    "hedge-interval": ["hedge", "--interval", "109:111", "--epsilon", "0.1"],
    "table-point": ["table-point"],
    "table-indicator": ["table-indicator"],
}
# the flags that each command reads from its arguments alone, never from a config file
FLAGS_READ_FROM_ARGS_ONLY = {"help", "config", "workers", "level", "interval", "observed",
                             "epsilon", "alpha", "instances"}
READ_BY = {
    "signal.levels = abc": (("table-point",),
                            "signal.levels: could not convert string to float: 'abc'"),
    "signal.intervals = 1-2": (("table-indicator",),
                               "signal.intervals: interval '1-2' must look like LO:HI"),
    "epsilons = x": (("table-point", "table-indicator"),
                     "epsilons: could not convert string to float: 'x'"),
    "mode = nope": (("hedge-level",),
                    "mode: mode must be bridge_exact or paper_shift, got 'nope'"),
}


class TestConfigFile:
    def test_parse_and_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# table run\n"
            "mu = 0.05\n"
            "sigma = 0.3\n"
            "signal.levels = 108, 110\n"
            "epsilons = 0.1, 0.2\n"
            "n_paths = 5000\n"
            "seed = 3\n"
        )
        opts = parse_config_file(str(cfg))
        assert opts["mu"] == "0.05" and opts["signal.levels"] == "108, 110"

        # the flag overrides the file; table-point has the flags of the keys it reads
        ns = cli._parser().parse_args(["table-point", "--config", str(cfg), "--mu", "0.08"])
        config = build_config(ns)
        assert config.model.mu == 0.08
        assert config.model.sigma == 0.3
        assert config.levels == (108.0, 110.0)
        assert config.epsilons == (0.1, 0.2)
        assert config.n_paths == 5000
        assert config.seed == 3

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("volatility = 0.3\n")
        with pytest.raises(ValueError, match="unknown config keys"):
            parse_config_file(str(cfg))

    def test_duplicate_key_rejected(self, tmp_path):
        # the second value would otherwise win without a word
        cfg = tmp_path / "dup.cfg"
        cfg.write_text("mu = 0.08\nsigma = 0.3\n mu = 0.5\n")
        with pytest.raises(ValueError, match=r"dup\.cfg:3: duplicate key 'mu'"):
            parse_config_file(str(cfg))

    def test_line_without_equals_rejected(self, tmp_path):
        cfg = tmp_path / "bare.cfg"
        cfg.write_text("mu 0.08\n")
        with pytest.raises(ValueError, match=r"bare\.cfg:1: expected 'key = value', got"):
            parse_config_file(str(cfg))

    def test_byte_order_mark_is_dropped(self, tmp_path, capsys):
        # Windows Notepad starts a UTF-8 file with a byte-order mark
        cfg = tmp_path / "bom.cfg"
        cfg.write_bytes("\ufeffstrike = 0\r\nsigma = 0.3\r\n".encode("utf-8"))
        assert parse_config_file(str(cfg)) == {"strike": "0", "sigma": "0.3"}
        assert main(["price", "--config", str(cfg)]) == 0
        assert capsys.readouterr() == ("100\n", "")

    def test_settings_and_flags_agree(self, monkeypatch, capsys):
        # every setting has a flag on some command, every flag that can read a config
        # key is a setting, and the market flags are ModelParams' fields
        [commands] = [action for action in cli._parser()._actions
                      if isinstance(action, argparse._SubParsersAction)]
        dests = {action.dest for sub in commands.choices.values() for action in sub._actions}
        assert dests - FLAGS_READ_FROM_ARGS_ONLY == set(cli.SETTINGS)
        assert set(cli.MARKET_DEFAULTS) == {f.name for f in dataclasses.fields(ModelParams)}
        assert len({key for key, _ in cli.SETTINGS.values()}) == len(cli.SETTINGS)
        # with no flag and no file, each setting is RunConfig's own default
        monkeypatch.delenv("INSIDER_HEDGE_CONFIG", raising=False)
        for command in ("table-point", "table-indicator"):
            config = build_config(cli._parser().parse_args([command]))
            assert config == RunConfig(model=ModelParams(**cli.MARKET_DEFAULTS))
        # price samples nothing, so it takes no seed
        with pytest.raises(SystemExit) as exc:
            main(["price", "--seed", "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err

    def test_signal_kind_is_not_a_config_key(self, tmp_path):
        # an empty level grid must fail, whatever the file says about the signal kind
        cfg = tmp_path / "kind.cfg"
        cfg.write_text("signal.kind = interval\nsignal.levels =\n")
        proc = run_cli("table-point", "--config", str(cfg), "--n-paths", "2000")
        assert proc.returncode == 1
        [line] = proc.stderr.splitlines()
        assert line.startswith("error: ") and "signal.kind" in line
        assert proc.stdout == ""

    def test_empty_level_grid_fails_only_the_point_table(self, tmp_path, capsys):
        # the levels are read by table-point alone, so no other command refuses them
        cfg = tmp_path / "levels.cfg"
        cfg.write_text("signal.levels =\n")
        for argv in (["price"],
                     ["hedge", "--interval", "109:111", "--epsilon", "0.1", "--n-paths", "2000"],
                     ["table-indicator", "--n-paths", "2000"]):
            assert main([*argv, "--config", str(cfg)]) == 0, argv
            out, err = capsys.readouterr()
            assert out and err == "", argv
        assert main(["table-point", "--config", str(cfg), "--n-paths", "2000"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.splitlines() == ["error: empty level grid"]

    def test_env_var_supplies_default(self, tmp_path, monkeypatch):
        cfg = tmp_path / "env.cfg"
        cfg.write_text("sigma = 0.4\n")
        monkeypatch.setenv("INSIDER_HEDGE_CONFIG", str(cfg))
        config = build_config(_namespace())
        assert config.model.sigma == 0.4

    def test_validation(self, params, monkeypatch):
        with pytest.raises(ValueError, match="n_paths"):
            RunConfig(model=params, n_paths=10)
        for workers in (0, -2):
            with pytest.raises(ValueError, match="workers"):
                RunConfig(model=params, workers=workers)
        # the epsilons and the format are refused before any draw
        monkeypatch.setattr(insider_signal, "draw_point", _no_draw)
        monkeypatch.setattr(insider_signal, "draw_interval", _no_draw)
        for run in (run_table_point, run_table_indicator):
            with pytest.raises(ValueError, match="epsilons must lie in"):
                run(RunConfig(model=params, epsilons=(1.5,)))
            with pytest.raises(ValueError, match="empty epsilon grid"):
                run(RunConfig(model=params, epsilons=()))
            with pytest.raises(ValueError, match="format must be csv or json, got xml"):
                run(RunConfig(model=params, fmt="xml"))

    @pytest.mark.parametrize("key", ["epsilons = 2", "epsilons =", "format = xml"])
    @pytest.mark.parametrize("argv", [
        ["price"],
        ["hedge", "--level", "110", "--epsilon", "0.1", "--n-paths", "2000"],
    ], ids=["price", "hedge"])
    def test_table_keys_do_not_fail_other_commands(self, tmp_path, capsys, argv, key):
        # the epsilon grid and the format are read by the tables alone
        cfg = tmp_path / "table.cfg"
        cfg.write_text(key + "\n")
        assert main([*argv, "--config", str(cfg)]) == 0
        out, err = capsys.readouterr()
        assert out and err == ""

    @pytest.mark.parametrize("key, error, refusing", [
        ("n_paths = 10", "n_paths must be >= 1000, got 10", SAMPLING_COMMANDS),
        ("seed = 4294967296", "seed must be in [0, 2**32), got 4294967296", SAMPLING_COMMANDS),
        ("mode = nope", "{cfg}: mode: mode must be bridge_exact or paper_shift, got 'nope'",
         SAMPLING_COMMANDS[:1]),
        ("n_paths = 1e6", "{cfg}: n_paths: invalid literal for int() with base 10: '1e6'",
         SAMPLING_COMMANDS),
    ])
    def test_sampling_keys_fail_only_the_commands_that_sample(self, tmp_path, capsys,
                                                             monkeypatch, key, error, refusing):
        # price reads only the market; the commands that read these keys refuse the bad
        # values before any draw
        cfg = tmp_path / "sampling.cfg"
        cfg.write_text(key + "\n")
        assert main(["price", "--config", str(cfg)]) == 0
        out, err = capsys.readouterr()
        assert out == "1.68093\n" and err == ""
        monkeypatch.setattr(insider_signal, "draw_point", _no_draw)
        monkeypatch.setattr(insider_signal, "draw_interval", _no_draw)
        for argv in refusing:
            assert main([*argv, "--config", str(cfg)]) == 1, argv
            out, err = capsys.readouterr()
            assert out == "" and err.splitlines() == [f"error: {error.format(cfg=cfg)}"], argv

    @pytest.mark.parametrize("command", sorted(KEY_READERS))
    @pytest.mark.parametrize("key", sorted(READ_BY))
    def test_each_command_reads_only_its_own_keys(self, tmp_path, capsys, command, key):
        # a bad value refuses the commands that read its key, and no other
        cfg = tmp_path / "one.cfg"
        cfg.write_text(key + "\n")
        readers, error = READ_BY[key]
        status = main([*KEY_READERS[command], "--config", str(cfg), "--n-paths", "2000"])
        out, err = capsys.readouterr()
        if command in readers:
            assert (status, out, err) == (1, "", f"error: {cfg}: {error}\n")
        else:
            assert status == 0 and out and err == "", err


def _no_draw(*args, **kwargs):
    raise AssertionError("drew before refusing the configuration")


def _namespace(**kwargs):
    import argparse

    defaults = dict(config=None, mu=None, sigma=None, s0=None, strike=None,
                    t_expiry=None, delta=None, seed=None)
    defaults.update(kwargs)
    return argparse.Namespace(**defaults)


class TestTables:
    def test_point_table_shape_and_modes(self, small_config):
        cells = run_table_point(small_config)
        # one level x two epsilons x two modes
        assert len(cells) == 4
        assert {c.mode for c in cells} == {"bridge_exact", "paper_shift"}
        assert all(c.signal == "S=110" for c in cells)
        assert all(0.0 <= c.alpha <= 1.0 for c in cells)
        assert all(c.alpha_stderr >= 0.0 for c in cells)

    def test_point_table_monotone_in_epsilon(self, params):
        config = RunConfig(model=params, levels=(110.0, 113.0),
                           epsilons=(0.05, 0.1, 0.2), n_paths=20_000, seed=1)
        cells = run_table_point(config)
        for mode in ("bridge_exact", "paper_shift"):
            for level in ("S=110", "S=113"):
                col = [c.alpha for c in cells if c.mode == mode and c.signal == level]
                assert col == sorted(col, reverse=True)

    def test_no_cell_carries_a_mode_disagree_flag(self, params):
        # the modes share one stream, so their cells are compared by their alpha columns;
        # at n = 50k they are far apart at eps = 0.01, and no flag names that
        config = RunConfig(model=params, levels=(110.0,), epsilons=(0.01,),
                           n_paths=50_000, seed=2)
        bridge, shift = run_table_point(config)
        assert (bridge.mode, shift.mode) == cli.MODE_NAMES
        assert shift.alpha - bridge.alpha > 0.1
        assert not any("mode_disagree" in c.flags for c in (bridge, shift))

    @pytest.mark.parametrize("kind", ["point", "indicator"])
    def test_each_cell_is_the_hedge_with_its_settings(self, params, capsys, kind):
        # a table keys its streams by (seed, stream tag) as hedge does, so one hedge
        # command reproduces any of its cells
        config = RunConfig(model=params, levels=(106.0, 110.0, 114.0),
                           intervals=((109.0, 111.0), (106.0, 108.0)),
                           epsilons=(0.01, 0.1, 0.25), n_paths=20_000, seed=3)
        if kind == "point":
            cells = run_table_point(config)
            hedges = [(["--level", f"{level:g}", "--mode", mode], epsilon)
                      for level in config.levels for epsilon in config.epsilons
                      for mode in cli.MODE_NAMES]
        else:
            cells = run_table_indicator(config)
            hedges = [(["--interval", f"{lo:g}:{hi:g}"], epsilon)
                      for lo, hi in config.intervals for epsilon in config.epsilons]
        assert len(cells) == len(hedges)
        for cell, (signal, epsilon) in zip(cells, hedges):
            assert main(["hedge", *signal, "--epsilon", str(epsilon),
                         "--n-paths", "20000", "--seed", "3"]) == 0
            printed = dict(line.split(" = ", 1) for line in capsys.readouterr().out.splitlines())
            assert (cell.epsilon, cell.mode) == (epsilon, printed["mode"])
            for name, value in (("k", cell.k), ("alpha", cell.alpha),
                                ("success_prob", cell.success_prob),
                                ("mc_stderr_alpha", cell.alpha_stderr)):
                assert printed[name] == f"{value:.6g}", (cell, name)

    def test_indicator_table(self, small_config):
        cells = run_table_indicator(small_config)
        assert len(cells) == 2
        assert all(c.mode == "rejection" for c in cells)
        assert all(c.signal == "S=[109..111]" for c in cells)

    def test_indicator_table_refuses_a_null_interval_before_drawing(self, monkeypatch, capsys,
                                                                    tmp_path):
        # P(G = 1) of [0.001..0.002] is 0 in float: the run ends in one line
        def no_draws(*args, **kwargs):
            raise AssertionError("draw_interval ran for a table with a null interval")

        monkeypatch.setattr(insider_signal, "draw_interval", no_draws)
        out = tmp_path / "t.csv"
        assert main(["table-indicator", "--intervals", "109:111,0.001:0.002",
                     "--n-paths", "2000", "--output", str(out)]) == 1
        stdout, stderr = capsys.readouterr()
        [line] = stderr.splitlines()
        assert line.startswith("error: P(G=1) = 0 ") and "probability 0" in line
        assert stdout == "" and not out.exists()

    def test_deterministic_across_runs_and_workers(self, small_config):
        from dataclasses import replace

        base = run_table_point(small_config)
        again = run_table_point(small_config)
        threaded = run_table_point(replace(small_config, workers=4))
        strip = lambda cs: [(c.signal, c.epsilon, c.alpha, c.alpha_stderr, c.success_prob,
                             c.k, c.mode, c.flags) for c in cs]
        assert strip(base) == strip(again) == strip(threaded)


class TestSharedDraws:
    """Each table draws its random streams once and maps them to every row."""

    @staticmethod
    def count_fills(monkeypatch) -> dict:
        counts = {"normal": 0, "uniform": 0}
        for name, kind in (("standard_normal_stream", "normal"), ("uniform_stream", "uniform")):
            def counted(*args, _fill=getattr(insider_signal, name), _kind=kind, **kwargs):
                counts[_kind] += 1
                return _fill(*args, **kwargs)
            monkeypatch.setattr(insider_signal, name, counted)
        return counts

    def test_point_table_fills_one_stream_for_both_modes(self, params, monkeypatch):
        counts = self.count_fills(monkeypatch)
        config = RunConfig(model=params, levels=(105.0, 110.0, 115.0), epsilons=(0.1, 0.25),
                           n_paths=2000, seed=3)
        assert len(run_table_point(config)) == 12
        assert counts == {"normal": 1, "uniform": 0}

    def test_point_table_draws_once_for_signals_that_own_their_mode(self, params, monkeypatch):
        # the conditioning mode lives on the signal, not on the draws: one draw_point call
        # serves both modes, an unknown mode is refused by name, and a bad level is
        # refused before any draw, wherever it stands in the grid; a mode's value names it
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return draw(*args, **kwargs)

        draw = insider_signal.draw_point
        monkeypatch.setattr(insider_signal, "draw_point", counted)
        config = RunConfig(model=params, levels=(105.0, 110.0, 115.0), epsilons=(0.1,),
                           n_paths=2000, seed=3)
        assert len(run_table_point(config)) == 6
        assert calls == [(2000, 3)]
        for mode in insider_signal.ConditioningMode:
            assert insider_signal.PointValue(0.3, mode.value).mode is mode
        with pytest.raises(ValueError, match="'bogus' is not a valid ConditioningMode"):
            insider_signal.PointValue(0.3, "bogus")
        monkeypatch.setattr(insider_signal, "draw_point", _no_draw)
        with pytest.raises(ValueError, match="stock level must be positive"):
            run_table_point(dataclasses.replace(config, levels=(110.0, -1.0)))

    @pytest.mark.parametrize("middle", [(108.0, 112.0), (500.0, 501.0)])
    def test_indicator_table_fills_each_stream_once(self, params, monkeypatch, middle):
        # a rare interval ([500..501], P(G = 1) far below 1e-4) maps the same draws
        counts = self.count_fills(monkeypatch)
        config = RunConfig(model=params, signal_kind="interval",
                           intervals=((109.0, 111.0), middle, (112.0, 114.0)),
                           epsilons=(0.1, 0.25), n_paths=2000, seed=3)
        cells = run_table_indicator(config)
        assert counts == {"normal": 1, "uniform": 1}
        assert len(cells) == 6 and all(math.isfinite(c.alpha) for c in cells)

    def test_point_table_sorts_and_gathers_no_d(self, params, monkeypatch):
        # point W_T comes out ascending: D is a suffix, already sorted
        calls = {"sort": 0, "flatnonzero": 0}
        for name in calls:
            def counted(*args, _fill=getattr(np, name), _name=name, **kwargs):
                calls[_name] += 1
                return _fill(*args, **kwargs)
            monkeypatch.setattr(np, name, counted)
        assert len(run_table_point(RunConfig(model=params, n_paths=20_000, seed=3))) == 132
        assert calls == {"sort": 0, "flatnonzero": 0}
        # interval W_T is not ordered: each chunk of each of the five rows gathers the
        # draws that can reach the strike, then those in the money; each row sorts its D
        # in place, in its own buffer, which np.sort does not count
        run_table_indicator(RunConfig(model=params, n_paths=20_000, seed=3))
        chunks = -(-20_000 // measure_engine._CHUNK)
        assert calls == {"sort": 0, "flatnonzero": 5 * 2 * chunks}

    def test_point_table_tests_the_money_by_one_reduction(self, params, monkeypatch):
        # every point block of the default table is in the money whole, which its least H
        # shows: no block counts or gathers its draws in the money
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return count(*args, **kwargs)

        count = np.count_nonzero
        monkeypatch.setattr(np, "count_nonzero", counted)
        assert len(run_table_point(RunConfig(model=params, n_paths=20_000, seed=3))) == 132
        assert calls == []

    def test_rows_do_not_depend_on_the_rest_of_the_grid(self, params):
        common = dict(model=params, n_paths=2000, seed=17)
        alone = run_table_point(RunConfig(levels=(110.0,), **common))
        full = run_table_point(RunConfig(**common))
        assert alone == [c for c in full if c.signal == "S=110"]
        alone = run_table_indicator(RunConfig(intervals=((109.0, 111.0),), **common))
        full = run_table_indicator(RunConfig(**common))
        assert alone == [c for c in full if c.signal == "S=[109..111]"]


class TestOutputs:
    def test_csv_format(self, small_config, tmp_path):
        cells = run_table_indicator(small_config)
        out = tmp_path / "table.csv"
        write_cells(cells, str(out), "csv")
        lines = out.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + len(cells)
        first = lines[1].split(",")
        assert len(first) == 9
        assert first[0] == "S=[109..111]"

    def test_json_format(self, small_config, tmp_path):
        cells = run_table_indicator(small_config)
        out = tmp_path / "table.json"
        write_cells(cells, str(out), "json")
        rows = json.loads(out.read_text())
        assert len(rows) == len(cells)
        assert set(rows[0]) == {"signal", "epsilon", "alpha", "alpha_stderr",
                                "success_prob", "k", "n_paths", "mode", "flags"}
        # six significant digits
        assert rows[0]["alpha"] == float(f"{cells[0].alpha:.6g}")

    def test_non_finite_numbers(self, tmp_path):
        # an infinite threshold writes "inf" and a NaN "nan", in CSV and in strict JSON
        inf, nan = math.inf, math.nan
        cells = [CellResult(signal="S=110", epsilon=0.0, alpha=1.0, alpha_stderr=0.0,
                            success_prob=1.0, k=inf, n_paths=1000, mode="bridge_exact",
                            flags=""),
                 CellResult(signal="S=[109..111]", epsilon=0.1, alpha=nan, alpha_stderr=nan,
                            success_prob=nan, k=nan, n_paths=1000, mode="rejection",
                            flags="atom_gap")]
        write_cells(cells, str(tmp_path / "t.csv"), "csv")
        assert (tmp_path / "t.csv").read_text().splitlines()[1:] == [
            "S=110,0,1,0,1,inf,1000,bridge_exact,",
            "S=[109..111],0.1,nan,nan,nan,nan,1000,rejection,atom_gap",
        ]
        write_cells(cells, str(tmp_path / "t.json"), "json")
        rows = json.loads((tmp_path / "t.json").read_text())
        assert [(r["k"], r["alpha"], r["alpha_stderr"], r["success_prob"]) for r in rows] == [
            ("inf", 1.0, 0.0, 1.0), ("nan", "nan", "nan", "nan")]

    def test_runtime_not_serialized(self, small_config, tmp_path):
        cells = run_table_indicator(small_config)
        out = tmp_path / "t.csv"
        write_cells(cells, str(out), "csv")
        assert "runtime" not in out.read_text()

    def test_below_floor_sentinel_in_rendering(self, params):
        from insider_hedge.cli import CellResult, render_cells

        tiny = CellResult(signal="S=105", epsilon=0.25, alpha=0.0005, alpha_stderr=0.0004,
                          success_prob=0.75, k=0.01, n_paths=1000, mode="bridge_exact",
                          flags="below_se_floor")
        normal = CellResult(signal="S=110", epsilon=0.01, alpha=0.27, alpha_stderr=0.001,
                            success_prob=0.99, k=3.0, n_paths=1000, mode="bridge_exact",
                            flags="")
        text = render_cells([tiny, normal])
        assert "<0.0008" in text       # 2 * stderr sentinel, mirroring "<0.01" style
        assert "0.2700" in text

    def test_epsilon_labels_tell_grid_values_apart(self):
        # two decimals printed 0.005 and 0.01 both as 0.01, and 0.125 and 0.12 as 0.12
        from insider_hedge.cli import CellResult, render_cells

        epsilons = (0.005, 0.01, 0.125, 0.12)
        cells = [CellResult(signal="S=110", epsilon=e, alpha=0.2, alpha_stderr=0.001,
                            success_prob=1.0 - e, k=3.0, n_paths=1000, mode="bridge_exact",
                            flags="") for e in epsilons]
        rows = render_cells(cells).splitlines()[1:]
        assert [row.split()[1] for row in rows] == ["0.005", "0.01", "0.125", "0.12"]


class TestOracleSuite:
    def test_small_suite_passes(self):
        report = run_oracle_suite(seed=0, instance_count=5)
        assert report.passed
        assert any("negative-control: mutation detected" in ln for ln in report.lines)
        assert any("non-existence case flagged" in ln for ln in report.lines)

    @pytest.mark.parametrize("target, failure", [
        ("alpha", "budget optimality at g=0, alpha=0"),
        ("epsilon", "shortfall optimality at g=0, 1-eps=1"),
    ])
    def test_suboptimal_solver_fails_the_suite(self, short_solver, capsys, target, failure):
        short_solver(target)
        report = run_oracle_suite(seed=0, instance_count=2)
        assert report.passed is False
        assert report.lines[0] == f"reference: FAIL {failure}"
        assert report.lines[-1] == "oracle suite: FAIL (2 random instances)"
        assert main(["oracle", "--instances", "2"]) == 1
        assert "reference: FAIL" in capsys.readouterr().out

    def test_negative_seed_is_one_error_line(self, capsys):
        # random.Random(-3) seeds like Random(3): seed -3 would recheck seeds 3, 2 and 1
        with pytest.raises(ValueError, match="oracle seed must be >= 0, got -1"):
            run_oracle_suite(seed=-1, instance_count=5)
        assert main(["oracle", "--seed", "-3", "--instances", "3"]) == 1
        out, err = capsys.readouterr()
        [line] = err.splitlines()
        assert line.startswith("error: oracle seed must be >= 0, got -3") and out == ""


class TestCommandLine:
    def test_mode_names_are_the_conditioning_modes(self):
        # the parser spells the modes out so that it needs no numpy
        assert cli.MODE_NAMES == tuple(m.value for m in insider_signal.ConditioningMode)

    def test_version(self):
        proc = run_cli("version")
        assert proc.returncode == 0
        assert proc.stdout.strip() == "0.1.0"

    def test_price(self):
        proc = run_cli("price")
        assert proc.returncode == 0
        assert proc.stdout.strip() == "1.68093"

    def test_price_with_flags(self):
        proc = run_cli("price", "--strike", "0")
        assert proc.stdout.strip() == "100"

    def test_hedge_point(self):
        proc = run_cli("hedge", "--level", "110", "--epsilon", "0.1",
                       "--n-paths", "5000", "--seed", "1")
        assert proc.returncode == 0
        assert "alpha = " in proc.stdout
        assert "knockout_payoff = H*1{D <= " in proc.stdout
        assert "mode = bridge_exact" in proc.stdout

    def test_hedge_interval_alpha_target(self):
        proc = run_cli("hedge", "--interval", "109:111", "--alpha", "0.1",
                       "--n-paths", "5000", "--seed", "1")
        assert proc.returncode == 0
        assert "mode = rejection" in proc.stdout
        # without --observed the interval signal is observed to hold
        assert "signal = interval:[0.292061,0.36479]:G=1" in proc.stdout

    def test_hedge_atom_gap_is_one_warning_line(self):
        proc = run_cli("hedge", "--level", "105", "--epsilon", "0.1",
                       "--n-paths", "200000", "--seed", "3")
        assert proc.returncode == 0
        [line] = proc.stderr.splitlines()
        assert line.startswith("warning: atom at k=0: success probability")
        assert "cli.py" not in line and "make_hedge_plan" not in line
        assert "success_prob = " in proc.stdout

    @pytest.mark.parametrize("alpha", ["0", "1e-300"])
    def test_hedge_alpha_target_without_atom_writes_no_warning(self, alpha):
        # the next D above k = 0 costs more than the budget: no atom is in the way
        proc = run_cli("hedge", "--level", "300", "--alpha", alpha,
                       "--n-paths", "20000", "--seed", "3")
        assert proc.returncode == 0
        assert proc.stderr == ""
        assert "k = 0\n" in proc.stdout

    def test_hedge_rejects_nonpositive_workers(self):
        for workers in ("0", "-2"):
            proc = run_cli("hedge", "--level", "110", "--epsilon", "0.1",
                           "--n-paths", "2000", "--workers", workers)
            assert proc.returncode != 0
            assert f"workers must be >= 1, got {workers}" in proc.stderr
            assert "alpha = " not in proc.stdout

    @pytest.mark.parametrize("argv, message", [
        (("hedge", "--level", "110", "--epsilon", "0.1", "--workers", "0"),
         "workers must be >= 1, got 0"),
        (("hedge", "--level", "110", "--epsilon", "0.1", "--n-paths", "10"),
         "n_paths must be >= 1000, got 10"),
        (("hedge", "--interval", "109", "--epsilon", "0.1"), "'109' must look like LO:HI"),
        (("hedge", "--level", "110", "--epsilon", "1.5"), "epsilon must be in [0,1], got 1.5"),
        (("table-point", "--epsilons", "1.5"), "epsilons must lie in [0,1]"),
        # the call price underflows to 0 while the far level puts every draw in the money
        (("hedge", "--level", "1e6", "--strike", "1e5", "--epsilon", "0.1", "--n-paths", "2000"),
         "the call price at strike 100000 is 0"),
        # a config file that cannot be read, and an output file that cannot be written
        (("price", "--config", "{tmp}/missing.cfg"), "No such file or directory"),
        (("price", "--config", "{tmp}"), "Is a directory"),
        (("table-point", "--levels", "110", "--epsilons", "0.1", "--n-paths", "2000",
          "--output", "{tmp}/missing/t.csv"), "No such file or directory"),
    ])
    def test_bad_input_is_one_error_line(self, tmp_path, argv, message):
        proc = run_cli(*(a.format(tmp=tmp_path) for a in argv))
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        [line] = proc.stderr.splitlines()
        assert line.startswith("error: ") and message in line
        assert proc.stdout == ""

    @pytest.mark.parametrize("argv", [("hedge", "--level", "1e6", "--epsilon", "0.1"),
                                      ("table-point", "--levels", "1e6")])
    def test_far_out_level_prints_no_numpy_warning(self, argv):
        proc = run_cli(*argv, "--n-paths", "2000")
        assert proc.returncode == 0
        assert "RuntimeWarning" not in proc.stderr and "Traceback" not in proc.stderr

    @pytest.mark.parametrize("argv, observed", [
        (("--interval", "0.001:0.002"), 1),
        (("--interval", "1e-9:1e9", "--observed", "0"), 0),
    ])
    def test_hedge_refuses_null_interval_before_drawing(self, monkeypatch, capsys, argv,
                                                        observed):
        # P(G = observed) is 0 in float
        def no_draws(*args, **kwargs):
            raise AssertionError("draw_interval ran for a signal of probability 0")

        monkeypatch.setattr(insider_signal, "draw_interval", no_draws)
        assert main(["hedge", *argv, "--epsilon", "0.1"]) == 1
        out, err = capsys.readouterr()
        [line] = err.splitlines()
        assert line.startswith(f"error: P(G={observed}) = 0 ") and "probability 0" in line
        assert out == ""

    def test_hedge_solves_a_rare_interval(self, capsys):
        # P(G = 1) of [180..190] is far below 1e-4 but positive
        assert main(["hedge", "--interval", "180:190", "--epsilon", "0.1",
                     "--n-paths", "20000"]) == 0
        out, err = capsys.readouterr()
        fields = dict(line.split(" = ", 1) for line in out.splitlines())
        assert 0.0 < float(fields["alpha"]) < 1.0 and math.isfinite(float(fields["k"]))
        assert float(fields["success_prob"]) >= 0.9 and err == ""

    @pytest.mark.parametrize("argv", [("hedge", "--level", "110", "--epsilon", "0.1"),
                                      ("table-point", "--levels", "110", "--epsilons", "0.1")])
    def test_seed_range(self, monkeypatch, capsys, argv):
        argv = [*argv, "--n-paths", "2000", "--seed"]
        assert main([*argv, str(2**32 - 1)]) == 0
        capsys.readouterr()

        def no_draws(*args, **kwargs):
            raise AssertionError("draw_point ran for a refused seed")

        monkeypatch.setattr(insider_signal, "draw_point", no_draws)
        for seed in (2**32, -1):
            assert main([*argv, str(seed)]) == 1
            out, err = capsys.readouterr()
            assert err.splitlines() == [f"error: seed must be in [0, 2**32), got {seed}"]
            assert out == ""

    def test_hedge_requires_one_signal(self):
        proc = run_cli("hedge", "--epsilon", "0.1")
        assert proc.returncode != 0

    @pytest.mark.parametrize("argv, message", [
        (("--level", "110", "--epsilon", "0.1", "--output", "{out}", "--format", "json",
          "--epsilons", "0.3"),
         "unrecognized arguments: --output {out} --format json --epsilons 0.3"),
        (("--interval", "109:111", "--epsilon", "0.1", "--mode", "paper_shift"),
         "--mode applies to --level only"),
        (("--level", "110", "--epsilon", "0.1", "--observed", "1"),
         "--observed applies to --interval only"),
    ])
    def test_hedge_refuses_flags_it_would_ignore(self, capsys, tmp_path, argv, message):
        out = tmp_path / "x.csv"
        with pytest.raises(SystemExit) as exc:
            main(["hedge", *(a.format(out=out) for a in argv)])
        assert exc.value.code == 2
        stdout, stderr = capsys.readouterr()
        assert stderr.splitlines()[-1] == f"insider-hedge: error: {message.format(out=out)}"
        assert stdout == "" and not out.exists()

    def test_table_point_byte_identical(self, tmp_path):
        args = ("table-point", "--levels", "110", "--epsilons", "0.1,0.25",
                "--n-paths", "2000", "--seed", "5")
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        p1 = run_cli(*args, "--output", str(out1))
        p2 = run_cli(*args, "--output", str(out2), "--workers", "3")
        assert p1.returncode == 0 and p2.returncode == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert p1.stdout == p2.stdout

    def test_oracle_command(self):
        proc = run_cli("oracle", "--instances", "3", "--seed", "1")
        assert proc.returncode == 0
        assert "oracle suite: PASS" in proc.stdout


def run_main(argv) -> tuple[int, str, str]:
    """cli.main in process, with numpy RuntimeWarnings raised: (status, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error", RuntimeWarning)
        status = main(argv)
    return status, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv", [
    ["hedge", "--level", "110", "--epsilon", "0.1"],
    ["hedge", "--interval", "109:111", "--alpha", "0.2"],
    ["table-point"],
    ["table-indicator"],
])
def test_sample_too_large_to_allocate_is_one_error_line(argv):
    # numpy refuses 8 * 10^15 bytes before touching any memory
    status, out, err = run_main([*argv, "--n-paths", str(10**15)])
    assert status == 1 and out == ""
    [line] = err.splitlines()
    assert line.startswith("error: Unable to allocate")


@pytest.mark.parametrize("argv", [
    ["price", "--sigma", "1e160"],
    ["price", "--t-expiry", "1e300", "--sigma", "1e10"],
    ["hedge", "--level", "110", "--epsilon", "0.1", "--n-paths", "2000", "--sigma", "1e160"],
    ["table-point", "--n-paths", "1000", "--sigma", "1e300"],
    ["hedge", "--level", "110", "--epsilon", "0.1", "--n-paths", "2000", "--mu", "1e154"],
])
def test_overflowing_market_is_one_error_line(argv):
    # sigma^2 or theta^2 times T + delta beyond the float range would end in an
    # OverflowError traceback or in a NaN D
    status, out, err = run_main(argv)
    assert status == 1 and out == ""
    [line] = err.splitlines()
    assert line.startswith("error: ") and line.endswith("overflows the float range")


@pytest.mark.parametrize("argv, message", [
    (["table-indicator", "--intervals", ","], "empty interval grid"),
    (["hedge", "--interval", "100:105,106:108", "--epsilon", "0.1"],
     "--interval takes one LO:HI, got '100:105,106:108'"),
    (["hedge", "--interval", "100:inf", "--epsilon", "0.1"], "interval endpoints must be finite"),
    (["hedge", "--level", "110", "--alpha", "1.5"], "alpha must be in [0,1], got 1.5"),
    (["oracle", "--instances", "0"], "instance_count must be >= 1"),
])
def test_refusal_is_one_error_line(argv, message):
    # in process, unlike test_bad_input_is_one_error_line, so coverage counts these refusals
    assert run_main(argv) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("argv, message", [
    (["hedge", "--level", "5e-324", "--epsilon", "0.1"], "g_w must be finite"),
    (["hedge", "--interval", "5e-324:1", "--epsilon", "0.1"], "interval endpoints must be finite"),
    (["table-point", "--levels", "5e-324"], "g_w must be finite"),
])
def test_level_whose_ratio_to_s0_underflows_is_one_error_line(argv, message):
    # log(level / s0) of a ratio that underflows to 0 is -inf: refused by name, with
    # no numpy divide-by-zero warning before the error line
    assert run_main([*argv, "--n-paths", "2000"]) == (1, "", f"error: {message}\n")


def log_uniform(lo: float, hi: float):
    return st.floats(min_value=math.log10(lo), max_value=math.log10(hi)).map(lambda x: 10.0**x)


# mu, sigma, s0, t_expiry, delta of the market behind the published tables
PUBLISHED_MARKET = (0.08, 0.25, 100.0, 0.25, 0.02)
# random markets for the hedge input tests: mu, sigma, s0, t_expiry, delta
MARKETS = (st.one_of(st.just(0.0), st.floats(min_value=-2.0, max_value=2.0)),
           log_uniform(1e-3, 10.0), log_uniform(1e-3, 1e4),
           log_uniform(1e-4, 30.0), log_uniform(1e-5, 10.0))


class TestIntervalHedgeInputs:
    """Every interval hedge input is solved or refused in one line, whatever P(G = observed)."""

    @settings(max_examples=150, deadline=None)
    # P(G = observed) about 1, far below 1e-4, and 0 in float for both G
    @example(1e-9, 1e9, 1, 110.0, "epsilon", 0.1, 0, *PUBLISHED_MARKET)
    @example(180.0, 190.0, 1, 110.0, "epsilon", 0.1, 0, *PUBLISHED_MARKET)
    @example(0.001, 0.002, 1, 110.0, "alpha", 0.2, 0, *PUBLISHED_MARKET)
    @example(1e-9, 1e9, 0, 110.0, "alpha", 0.2, 0, *PUBLISHED_MARKET)
    # a strike whose ratio to s0 underflows to 0
    @example(1.0, 2.0, 0, 5e-324, "epsilon", 0.0, 0, *PUBLISHED_MARKET)
    # delta far below the float spacing of T, so that T + delta rounds to T
    @example(109.0, 111.0 / 109.0, 1, 110.0, "epsilon", 0.1, 0, *PUBLISHED_MARKET[:4], 1e-300)
    @example(109.0, 111.0 / 109.0, 0, 110.0, "alpha", 0.2, 0, *PUBLISHED_MARKET[:4], 1e-300)
    # the least positive delta: T * delta underflows, so the bridge's s is 0
    @example(109.0, 111.0 / 109.0, 1, 110.0, "epsilon", 0.1, 0, *PUBLISHED_MARKET[:4], 5e-324)
    @example(109.0, 111.0 / 109.0, 0, 110.0, "epsilon", 0.1, 0, *PUBLISHED_MARKET[:4], 5e-324)
    @given(st.floats(min_value=-9.0, max_value=4.0).map(lambda x: 10.0**x),
           st.floats(min_value=-4.0, max_value=12.0).map(lambda y: 1.0 + 10.0**y),
           st.sampled_from([0, 1]),
           st.one_of(st.sampled_from([0.0, 110.0]), st.floats(min_value=0.0, max_value=1e4)),
           st.sampled_from(["epsilon", "alpha"]), st.floats(min_value=0.0, max_value=1.0),
           st.integers(min_value=0, max_value=2**32 - 1),
           *MARKETS)
    def test_solved_or_one_error_line(self, lo, ratio, observed, strike, target, value, seed,
                                      mu, sigma, s0, t_expiry, delta):
        argv = ["hedge", f"--mu={mu!r}", f"--sigma={sigma!r}", f"--s0={s0!r}",
                f"--t-expiry={t_expiry!r}", f"--delta={delta!r}",
                "--interval", f"{lo!r}:{lo * ratio!r}", "--observed", str(observed),
                "--strike", repr(strike), f"--{target}", repr(value),
                "--n-paths", "1000", "--seed", str(seed)]
        status, out, err = run_main(argv)
        assert "Traceback" not in err, argv
        if status == 1:
            [line] = err.splitlines()
            assert line.startswith("error: ") and out == "", argv
            return
        assert status == 0, argv
        fields = dict(line.split(" = ", 1) for line in out.splitlines())
        alpha, success = float(fields["alpha"]), float(fields["success_prob"])
        assert 0.0 <= alpha <= 1.0 and 0.0 <= success <= 1.0, argv
        if target == "epsilon":
            assert success >= 1.0 - value - 1e-6, argv
        else:
            assert alpha <= value + 1e-6, argv


class TestPointHedgeInputs:
    """Every point hedge input is solved or refused in one line, however far out D lies."""

    @settings(max_examples=150, deadline=None)
    # Z_T alone overflows, where the one exponent of Z_T / p_T^G does not
    @example(0.8686130534700429, 0.034348411566694374, 828.428416567369, 0.0,
             0.0763759843737762, 3.486669137949987e-05, 0.0010243877474175982,
             "bridge_exact", "epsilon", 0.9748208831185561, 31)
    # D itself exceeds the float range in the shift recipe
    @example(0.26338208918985906, 0.0030798744728391812, 57.150377159395035, 0.0,
             0.0005585073151377548, 6.292917248984516, 35.046858060215754,
             "paper_shift", "alpha", 0.1283116287622934, 17)
    # the least positive delta: T * delta underflows, so the bridge's s is 0
    @example(0.08, 0.25, 100.0, 110.0, 0.25, 5e-324, 110.0, "bridge_exact", "epsilon", 0.1, 0)
    @given(*MARKETS[:3], st.one_of(st.just(0.0), log_uniform(1e-3, 1e5)),
           *MARKETS[3:], log_uniform(1e-3, 1e6),
           st.sampled_from(["bridge_exact", "paper_shift"]),
           st.sampled_from(["epsilon", "alpha"]), st.floats(min_value=0.0, max_value=1.0),
           st.integers(min_value=0, max_value=2**32 - 1))
    def test_solved_or_one_error_line(self, mu, sigma, s0, strike, t_expiry, delta, level,
                                      mode, target, value, seed):
        argv = ["hedge", f"--mu={mu!r}", f"--sigma={sigma!r}", f"--s0={s0!r}",
                f"--strike={strike!r}", f"--t-expiry={t_expiry!r}", f"--delta={delta!r}",
                f"--level={level!r}", "--mode", mode, f"--{target}", repr(value),
                "--n-paths", "2000", "--seed", str(seed)]
        status, out, err = run_main(argv)
        if status == 1:
            [line] = err.splitlines()
            assert line.startswith("error: ") and out == "", argv
            return
        assert status == 0, argv
        fields = dict(line.split(" = ", 1) for line in out.splitlines())
        alpha, success = float(fields["alpha"]), float(fields["success_prob"])
        assert 0.0 <= alpha <= 1.0 and 0.0 <= success <= 1.0, argv
        if target == "epsilon":
            assert success >= 1.0 - value - 1e-6, argv
        else:
            assert alpha <= value + 1e-6, argv


class TestPointHedgeEdges:
    """Point hedges at the float edges of D's constants: solved, or refused by name."""

    CALL_PRICE_ZERO = ("error: the call price at strike 11500 is 0, so D = H / E_QG[H] "
                       "is undefined on the draws in the money")

    @pytest.mark.parametrize("flags, refusal", [
        # E_QG[H] = 6.8e-297, near underflow, with draws in the money
        (["--strike=1e4", "--level=1.5e4"], None),
        (["--strike=1e4", "--level=1.1e4"], None),
        # E_QG[H] underflows to 0 with draws in the money
        (["--strike=11500", "--level=1.5e4"], CALL_PRICE_ZERO),
        # delta near the float floor: W_T rounds to one value, S_T is one price
        (["--level=110", "--delta=1e-300"], None),
        (["--level=110", "--delta=1e-300", "--strike=0"], None),
        # levels far out on either side: every D is 0, by the strike or by underflow
        (["--level=1e300"], None),
        (["--level=1e-300"], None),
        (["--level=1e-300", "--strike=0"], None),
    ])
    @pytest.mark.parametrize("target", [["--epsilon", "0.1"], ["--alpha", "0.2"]])
    @pytest.mark.parametrize("mode", ["bridge_exact", "paper_shift"])
    def test_solved_or_refused_by_name(self, flags, refusal, target, mode):
        argv = ["hedge", *flags, "--mode", mode, *target, "--n-paths", "2000"]
        status, out, err = run_main(argv)
        if refusal:
            assert (status, out, err) == (1, "", refusal + "\n")
            return
        assert status == 0, err
        fields = dict(line.split(" = ", 1) for line in out.splitlines())
        alpha, success = float(fields["alpha"]), float(fields["success_prob"])
        assert 0.0 <= alpha <= 1.0 and 0.0 <= success <= 1.0
        if target[0] == "--epsilon":
            assert success >= 0.9
        else:
            assert alpha <= 0.2
