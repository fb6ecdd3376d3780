import json
import subprocess
import sys

import pytest

from insider_hedge.cli import (
    CSV_HEADER,
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

        ns = _namespace(config=str(cfg), mu=0.08)  # flag overrides the file
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

    def test_env_var_supplies_default(self, tmp_path, monkeypatch):
        cfg = tmp_path / "env.cfg"
        cfg.write_text("sigma = 0.4\n")
        monkeypatch.setenv("INSIDER_HEDGE_CONFIG", str(cfg))
        config = build_config(_namespace())
        assert config.model.sigma == 0.4

    def test_validation(self, params):
        with pytest.raises(ValueError, match="n_paths"):
            RunConfig(model=params, n_paths=10)
        with pytest.raises(ValueError, match="epsilon"):
            RunConfig(model=params, epsilons=(1.5,))
        with pytest.raises(ValueError, match="format"):
            RunConfig(model=params, fmt="xml")
        for workers in (0, -2):
            with pytest.raises(ValueError, match="workers"):
                RunConfig(model=params, workers=workers)


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

    def test_modes_disagree_flag_present(self, params):
        # at n = 50k the two conditioning modes are far apart at eps = 0.01
        config = RunConfig(model=params, levels=(110.0,), epsilons=(0.01,),
                           n_paths=50_000, seed=2)
        cells = run_table_point(config)
        assert all("mode_disagree" in c.flags for c in cells)

    def test_indicator_table(self, small_config):
        cells = run_table_indicator(small_config)
        assert len(cells) == 2
        assert all(c.mode == "rejection" for c in cells)
        assert all(c.signal == "S=[109..111]" for c in cells)

    def test_indicator_table_reports_floor_violation_per_cell(self, params, tmp_path):
        import math

        from insider_hedge.cli import write_cells

        # an interval so far out of the money that conditioning is hopeless
        config = RunConfig(model=params, signal_kind="interval",
                           intervals=((109.0, 111.0), (500.0, 501.0)),
                           epsilons=(0.1, 0.25), n_paths=2000, seed=7)
        cells = run_table_indicator(config)
        assert len(cells) == 4
        bad = [c for c in cells if c.signal == "S=[500..501]"]
        assert len(bad) == 2
        assert all(c.flags == "acceptance_floor" and math.isnan(c.alpha) for c in bad)
        good = [c for c in cells if c.signal == "S=[109..111]"]
        assert all(math.isfinite(c.alpha) for c in good)
        # both serialization formats cope with the NaN cells
        write_cells(cells, str(tmp_path / "t.csv"), "csv")
        write_cells(cells, str(tmp_path / "t.json"), "json")
        rows = json.loads((tmp_path / "t.json").read_text())
        assert rows[-1]["alpha"] == "nan"

    def test_deterministic_across_runs_and_workers(self, small_config):
        from dataclasses import replace

        base = run_table_point(small_config)
        again = run_table_point(small_config)
        threaded = run_table_point(replace(small_config, workers=4))
        strip = lambda cs: [(c.signal, c.epsilon, c.alpha, c.alpha_stderr, c.success_prob,
                             c.k, c.mode, c.flags) for c in cs]
        assert strip(base) == strip(again) == strip(threaded)


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


class TestOracleSuite:
    def test_small_suite_passes(self):
        report = run_oracle_suite(seed=0, instance_count=5)
        assert report.passed
        assert any("negative-control: mutation detected" in ln for ln in report.lines)
        assert any("non-existence case flagged" in ln for ln in report.lines)


class TestCommandLine:
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
    ])
    def test_bad_input_is_one_error_line(self, argv, message):
        proc = run_cli(*argv)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        [line] = proc.stderr.splitlines()
        assert line.startswith("error: ") and message in line
        assert proc.stdout == ""

    def test_hedge_requires_one_signal(self):
        proc = run_cli("hedge", "--epsilon", "0.1")
        assert proc.returncode != 0

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
