"""Tests for the command-line interface: subcommands, exit codes, config file."""

import json
import os
import re
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from secmimo import grassmann, harness
from secmimo.cli import cli_main
from secmimo.errors import ConfigError, InvalidInputError, NumericalError
from secmimo.harness import (
    CSV_HEADER,
    SCENARIOS,
    ResultRow,
    read_csv,
    write_csv,
)
from secmimo.verification import SUITES


def _run_args(tmp_path, *extra):
    out = tmp_path / "result.csv"
    return [
        "run",
        "--scenario",
        "slope",
        "--nr",
        "2",
        "--trials",
        "2",
        "--seed",
        "7",
        "--snr-min",
        "10",
        "--snr-max",
        "30",
        "--snr-step",
        "10",
        "--out",
        str(out),
        *extra,
    ], out


class TestRun:
    def test_creates_csv(self, tmp_path, capsys):
        args, out = _run_args(tmp_path)
        assert cli_main(args) == 0
        assert out.exists()
        text = out.read_text()
        assert text.splitlines()[0] == CSV_HEADER
        assert len(text.splitlines()) == 4
        assert "wrote" in capsys.readouterr().out

    def test_stdout_when_no_out(self, capsys):
        code = cli_main(
            [
                "run",
                "--scenario",
                "slope",
                "--nr",
                "2",
                "--trials",
                "1",
                "--seed",
                "1",
                "--snr-min",
                "10",
                "--snr-max",
                "30",
                "--snr-step",
                "10",
            ]
        )
        assert code == 0
        captured = capsys.readouterr().out
        assert captured.splitlines()[0] == CSV_HEADER

    def test_deterministic_reruns(self, tmp_path):
        args1, out1 = _run_args(tmp_path)
        cli_main(args1)
        first = out1.read_bytes()
        cli_main(args1)
        assert out1.read_bytes() == first

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(
            json.dumps(
                {
                    "scenario": "slope",
                    "nr": [2],
                    "trials": 1,
                    "seed": 3,
                    "snr_min": 10,
                    "snr_max": 30,
                    "snr_step": 10,
                }
            )
        )
        out = tmp_path / "from_config.csv"
        assert cli_main(["run", "--config", str(cfg_file), "--out", str(out)]) == 0
        assert out.exists()
        # flag overrides the file value
        out2 = tmp_path / "override.csv"
        assert (
            cli_main(
                ["run", "--config", str(cfg_file), "--seed", "4", "--out", str(out2)]
            )
            == 0
        )
        assert out.read_bytes() != out2.read_bytes()

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"bogus": 1}))
        assert cli_main(["run", "--config", str(cfg_file)]) == 1
        assert "bogus" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "bad",
        [
            {"trials": "ten"},
            {"seed": True},
            {"nr": [2, "3"]},
            {"nr": []},
            {"rho": "half"},
            {"out": 5},
            {"nf": [30, 1.5]},
            {"nf": True},
        ],
    )
    def test_config_value_of_wrong_type(self, tmp_path, capsys, bad):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(bad))
        assert cli_main(["run", "--config", str(cfg_file)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error") and len(err.splitlines()) == 1
        assert repr(next(iter(bad))) in err

    @pytest.mark.parametrize(
        "extra",
        [["--epsilon", "nan"], ["--epsilon", "inf"], ["--snr-max", "inf"], ["--snr-step", "nan"]],
    )
    def test_non_finite_number_is_config_error(self, capsys, extra):
        assert cli_main(["run", "--nr", "2", "--trials", "1", *extra]) == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error") and len(err.splitlines()) == 1

    def test_repeated_curve_is_config_error(self, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"nr": [2, 2], "trials": 1}))
        flags = ["run", "--nr", "2", "--nr", "2", "--trials", "1"]
        for args in (flags, ["run", "--config", str(cfg_file)]):
            assert cli_main(args) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("configuration error") and "distinct" in captured.err
            assert len(captured.err.splitlines()) == 1

    def test_every_run_flag_is_a_config_key(self, tmp_path, capsys):
        """Each flag `run --help` lists but --config may also come from the config file."""
        assert cli_main(["run", "--help"]) == 0
        flags = set(re.findall(r"--([a-z][a-z-]*)", capsys.readouterr().out)) - {"help", "config"}
        values = {"scenario": "custom", "nr": [2], "out": str(tmp_path / "x.csv")}
        for flag in sorted(flags):
            key = flag.replace("-", "_")
            cfg_file = tmp_path / f"{key}.json"
            cfg_file.write_text(json.dumps({key: values.get(key, 1)}))
            cli_main(["run", "--config", str(cfg_file), "--trials", "1", "--snr-max", "10"])
            err = capsys.readouterr().err
            assert "unknown config keys" not in err and "must hold" not in err, (key, err)

    def test_non_finite_epsilon_in_config_file(self, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text('{"nr": 2, "trials": 1, "epsilon": NaN}')
        assert cli_main(["run", "--config", str(cfg_file)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error") and "epsilon" in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "args",
        [["run", "--nr", "2", "--trials", "1", "--seed", "-1"], ["verify", "--seed", "-1"]],
    )
    def test_negative_seed_is_config_error(self, capsys, args):
        assert cli_main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error") and "seed" in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("trials", ["-1", "0"])
    def test_verify_trials_below_one_is_config_error(self, capsys, trials):
        assert cli_main(["verify", "--trials", trials]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("configuration error") and "trials" in captured.err
        assert len(captured.err.splitlines()) == 1

    @pytest.mark.parametrize(
        "settings",
        [
            {"snr_max": 1e308, "snr_step": 1e-10},
            {"nr": 2, "epsilon": 1e308},
            {"snr_max": 4000.0, "snr_step": 1000.0},
            {"snr_min": -4000.0, "snr_step": 500.0},
        ],
        ids=["snr-count", "bit-budget", "power", "power-underflow"],
    )
    def test_overflowing_grid_is_config_error(self, tmp_path, capsys, settings):
        """An SNR grid, power or bit budget past the float range, or a power that underflows
        to 0, exits 1, by flag or file."""
        flags = [f"--{key.replace('_', '-')}={value}" for key, value in settings.items()]
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(settings))
        for args in (flags, ["--config", str(cfg_file)]):
            assert cli_main(["run", "--trials", "1", *args]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("configuration error") and "finite" in captured.err
            assert len(captured.err.splitlines()) == 1

    @pytest.mark.parametrize("grid", [["--snr-max", "1e300"], ["--snr-step", "1e-300"]])
    def test_huge_snr_grid_is_config_error(self, grid):
        """A grid of 1e299 or more points exits 1 before it is built, in 1.5 GB of address space."""
        limit = 3 << 29  # 1.5 GiB
        src = Path(__file__).resolve().parents[1] / "src"
        path = os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])
        done = subprocess.run(
            [sys.executable, "-m", "secmimo.cli", "run", "--nr", "2", "--trials", "1", *grid],
            env=dict(os.environ, PYTHONPATH=path),
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert (done.returncode, done.stdout) == (1, "")
        assert done.stderr.startswith("configuration error") and "SNR grid" in done.stderr
        assert len(done.stderr.splitlines()) == 1

    @pytest.mark.parametrize("snr_max", ["1e300", str(harness.MAX_SNR_POINTS)])
    def test_snr_grid_past_the_point_cap_is_config_error(self, capsys, snr_max):
        """A 1 dB grid of more than MAX_SNR_POINTS points exits 1 with one line, in-process."""
        grid = ["--snr-min", "0", "--snr-max", snr_max, "--snr-step", "1"]
        assert cli_main(["run", "--nr", "2", "--trials", "1", *grid]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and len(captured.err.splitlines()) == 1
        assert captured.err.startswith(
            f"configuration error: an SNR grid holds at most {harness.MAX_SNR_POINTS} points"
        )

    def test_unreadable_config_file_is_config_error(self, tmp_path, capsys):
        """A --config path that cannot be read, here a directory, exits 1 with one line."""
        assert cli_main(["run", "--config", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: cannot read config file {tmp_path}: ")
        assert len(err.splitlines()) == 1

    def test_negative_seed_in_config_file(self, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"nr": 2, "trials": 1, "seed": -1}))
        assert cli_main(["run", "--config", str(cfg_file)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error") and "seed" in err
        assert len(err.splitlines()) == 1

    def test_invalid_antenna_count_is_config_error(self, capsys):
        assert cli_main(["run", "--nr", "1", "--trials", "1"]) == 1
        assert "configuration error" in capsys.readouterr().err

    def test_slope_rejects_fixed_bits(self, capsys):
        args = ["run", "--scenario", "slope", "--nr", "2", "--nf", "30", "--trials", "1"]
        assert cli_main(args) == 1
        assert "epsilon" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "settings",
        [
            {"scenario": "slope", "nf": 20},
            {"scenario": "gap_vs_bits", "epsilon": 4},
            {"scenario": "custom", "nf": 12, "epsilon": 5},
        ],
    )
    def test_unused_bit_schedule_is_config_error(self, tmp_path, capsys, settings):
        """A bit-schedule setting the scenario would ignore fails, as a flag and from the file."""
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({**settings, "trials": 1}))
        flags = ["run", "--trials", "1"]
        for key, value in settings.items():
            flags += [f"--{key}", str(value)]
        for args in (flags, ["run", "--config", str(cfg_file)]):
            assert cli_main(args) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("configuration error")
            assert len(captured.err.splitlines()) == 1

    @pytest.mark.parametrize(
        "scenario, bits, code",
        [
            ("saturation", ["--epsilon", "0.5"], 1),
            *((s, ["--nf", "30", "--epsilon", "0.5"], 1) for s in SCENARIOS),
            ("custom", ["--nf", "12"], 0),
            ("custom", ["--epsilon", "0.5"], 0),
            ("saturation", ["--nf", "0"], 1),
            ("custom", ["--nf", "30", "--nf", "0"], 1),
            ("custom", ["--nf", "10", "--nf", "40"], 0),
        ],
    )
    def test_bit_flag_contract(self, capsys, scenario, bits, code):
        """Exit 1 with one line for a bit flag the scenario does not take, both flags, or a
        budget below 1."""
        args = ["run", "--scenario", scenario, "--trials", "1", "--snr-max", "10", *bits]
        assert cli_main(args) == code
        err = capsys.readouterr().err
        assert len(err.splitlines()) == (0 if code == 0 else 1)
        if "--epsilon" in bits and "--nf" in bits:
            assert "exclude each other" in err

    def test_budget_grid_by_flag_and_file(self, tmp_path, capsys):
        """Repeated --nf flags, or a list under the nf key, set gap_vs_bits's budget grid."""
        by_flags, by_file = tmp_path / "flags.csv", tmp_path / "file.csv"
        args = ["run", "--scenario", "gap_vs_bits", "--trials", "2", "--out"]
        assert cli_main([*args, str(by_flags), "--nf", "10", "--nf", "40"]) == 0
        assert capsys.readouterr() == (f"wrote 6 rows to {by_flags}\n", "")
        assert [r.nf_bits for r in read_csv(str(by_flags))] == [10, 40] * 3
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"nf": [10, 40]}))
        assert cli_main([*args, str(by_file), "--config", str(cfg_file)]) == 0
        assert by_file.read_bytes() == by_flags.read_bytes()

    def test_one_budget_is_the_saturation_default(self, capsys):
        """`saturation --nf 30` writes what `saturation` alone writes."""
        args = ["run", "--scenario", "saturation", "--trials", "2", "--snr-max", "20"]
        outputs = []
        for extra in ([], ["--nf", "30"]):
            assert cli_main([*args, *extra]) == 0
            outputs.append(capsys.readouterr())
        assert outputs[0] == outputs[1] and outputs[0].err == ""

    def test_bad_out_path(self, tmp_path, capsys):
        args, _ = _run_args(tmp_path)
        args[args.index("--out") + 1] = str(tmp_path / "no_dir" / "x.csv")
        assert cli_main(args) == 1

    def test_bad_flag_value(self, capsys):
        assert cli_main(["run", "--trials", "lots"]) == 1
        assert "usage" in capsys.readouterr().err.lower()


class TestExitCodes:
    @pytest.mark.parametrize(
        "stage, error, code",
        [
            ("run_experiment", NumericalError, 2),
            ("run_experiment", InvalidInputError, 2),
            ("run_experiment", np.linalg.LinAlgError, 2),
            ("run_experiment", ConfigError, 1),
            ("scenario_config", InvalidInputError, 1),
        ],
    )
    def test_error_class_maps_to_exit_code(self, monkeypatch, capsys, stage, error, code):
        """Each error class maps to its exit code with one line, from the run or the config."""
        from secmimo import cli

        def boom(*args, **kwargs):
            raise error("synthetic failure")

        monkeypatch.setattr(cli, stage, boom)
        assert cli_main(["run", "--scenario", "slope", "--nr", "2", "--trials", "1"]) == code
        label = "numeric failure" if code == 2 else "configuration error"
        assert capsys.readouterr().err == f"{label}: synthetic failure\n"

    def test_degenerate_draw_names_its_trial(self, tmp_path, capsys, degenerate_trials):
        degenerate_trials(3, 6, {4})
        args, out = _run_args(tmp_path)
        args[args.index("--nr") + 1] = "3"
        args[args.index("--trials") + 1] = "6"
        assert cli_main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("numeric failure: curve 0, trial 4, seed 7: ")
        assert len(err.splitlines()) == 1
        assert not out.exists()


class TestUsageErrors:
    def test_unknown_flag(self, capsys):
        assert cli_main(["run", "--does-not-exist"]) == 1
        assert "usage" in capsys.readouterr().err.lower()

    def test_missing_subcommand(self, capsys):
        assert cli_main([]) == 1

    def test_unknown_subcommand(self, capsys):
        assert cli_main(["frob"]) == 1

    def test_help_exits_zero(self, capsys):
        assert cli_main(["--help"]) == 0
        assert "secmimo" in capsys.readouterr().out


class TestVerify:
    def test_suites_imported_only_by_verify(self):
        """A fresh `import secmimo.cli` leaves the suites unloaded; `verify` loads and runs."""
        code = (
            "import sys, secmimo.cli as cli; "
            "print('secmimo.verification' in sys.modules); "
            "status = cli.cli_main(['verify', '--trials', '1', '--seed', '2']); "
            "print('secmimo.verification' in sys.modules, status in (0, 2))"
        )
        src = Path(__file__).resolve().parents[1] / "src"
        path = os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])
        env = dict(os.environ, PYTHONPATH=path)
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
        )
        lines = done.stdout.splitlines()
        assert lines[0] == "False"
        assert any(line.startswith("[") for line in lines[1:-1])
        assert lines[-1] == "True True"

    def test_small_verify_passes(self, capsys):
        assert cli_main(["verify", "--trials", "12", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "[PASS]" in out
        assert "suites passed" in out
        assert "[FAIL]" not in out

    @staticmethod
    def _verify(capsys):
        """`verify --trials 20 --seed 1`: its exit code, suite lines by name, and summary line."""
        code = cli_main(["verify", "--trials", "20", "--seed", "1"])
        *lines, summary = capsys.readouterr().out.splitlines()
        return code, {line.split(":")[0].split("] ")[1]: line for line in lines}, summary

    def test_degenerate_draw_fails_its_suite(self, capsys, degenerate_trials):
        """All ten suites report, each under its own name; those that draw the trial fail."""
        _, passing, _ = self._verify(capsys)
        degenerate_trials(2, 4, {3})
        code, lines, summary = self._verify(capsys)
        assert code == 2 and summary.endswith(" suite(s) FAILED")
        assert list(lines) == list(passing) == list(SUITES)
        assert lines["orthogonality"].startswith(
            "[FAIL] orthogonality: 0/20 (curve 0, trial 3, seed 1: rank-deficient input to qr_tall"
        )

    def test_quantizer_miss_fails_perturb_accuracy(self, capsys, monkeypatch):
        """A quantizer step that misses its distance is perturb-accuracy's FAIL, not a crash,
        and its line prints the two distances apart."""
        _, passing, _ = self._verify(capsys)
        monkeypatch.setattr(grassmann, "PERTURB_TOL", 1e-20)
        code, lines, _ = self._verify(capsys)
        assert code == 2 and list(lines) == list(passing) == list(SUITES)
        line = lines["perturb-accuracy"]
        assert line.startswith(
            "[FAIL] perturb-accuracy: 0/20 (curve 0, trial 0, seed 9: reached chordal distance "
        )
        reached, target = re.search(r"distance (\S+), not (\S+) \(miss ", line).groups()
        assert float(reached) != float(target)
        assert line.endswith(" > tolerance 1e-20))")


def _line_rows(n_r, snrs):
    """Rows of curve (2 n_r, n_r, 1, n_r) at `snrs`, both rates 2 log2 P + 3."""
    rows = []
    for snr in snrs:
        log2p = snr * np.log2(10.0) / 10.0
        rows.append(
            ResultRow(
                "custom", 2 * n_r, n_r, 1, n_r, snr, 10, 2 * log2p + 3, 2 * log2p + 3, 0, 0, 5
            )
        )
    return rows


class TestSlopes:
    def test_synthetic_line(self, tmp_path, capsys):
        path = tmp_path / "line.csv"
        write_csv(_line_rows(2, (10.0, 20.0, 30.0, 40.0)), str(path))
        assert cli_main(["slopes", str(path)]) == 0
        out = capsys.readouterr().out
        assert "2.000" in out
        assert "n_r=2" in out

    def test_short_curve_beside_a_sweep(self, tmp_path, capsys):
        """A curve of two SNRs has no slope, and the 4-SNR curve beside it keeps its fit."""
        path = tmp_path / "mixed.csv"
        write_csv(_line_rows(2, (10.0, 20.0, 30.0, 40.0)) + _line_rows(3, (10.0, 20.0)), str(path))
        assert cli_main(["slopes", str(path)]) == 0
        captured = capsys.readouterr()
        assert captured.out.splitlines() == [
            "n_t=4 n_r=2 n_j=1 n_e=2 perfect_slope=2.000 quantized_slope=2.000"
        ]
        assert captured.err == ""

    def test_no_curve_of_three_snrs(self, tmp_path, capsys):
        """Curves of one SNR and of two (one of them repeated) leave nothing to fit."""
        path = tmp_path / "short.csv"
        write_csv(_line_rows(2, (10.0,)) + _line_rows(3, (10.0, 20.0, 20.0)), str(path))
        assert cli_main(["slopes", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and len(captured.err.splitlines()) == 1
        assert captured.err.startswith("configuration error")

    @pytest.mark.parametrize(
        "flags, curves",
        [(["--scenario", "slope"], 3), (["--scenario", "gap_vs_bits", "--nf", "10"], 1)],
        ids=["slope", "gap_vs_bits-nf10"],
    )
    def test_run_prints_what_slopes_fits(self, tmp_path, capsys, flags, curves):
        """`run --out` prints the slope lines that `slopes` fits from the file it wrote."""
        path = tmp_path / "rows.csv"
        assert cli_main(["run", *flags, "--trials", "2", "--seed", "3", "--out", str(path)]) == 0
        run_fits = capsys.readouterr().out.splitlines()[1:]
        assert len(run_fits) == curves
        assert cli_main(["slopes", str(path)]) == 0
        assert capsys.readouterr().out.splitlines() == run_fits

    def test_missing_file(self, capsys):
        assert cli_main(["slopes", "/nonexistent/file.csv"]) == 1

    def test_empty_file(self, tmp_path, capsys):
        path = tmp_path / "empty.csv"
        path.write_text(CSV_HEADER + "\n")
        assert cli_main(["slopes", str(path)]) == 1

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_field(self, tmp_path, capsys, value):
        path = tmp_path / "bad.csv"
        path.write_text(
            CSV_HEADER + f"\ncustom,4,2,1,2,{value},10,1,1,0,0,5\ncustom,4,2,1,2,10,10,1,1,0,0,5\n"
        )
        assert cli_main(["slopes", str(path)]) == 1
        err = capsys.readouterr().err
        assert f"{path}, line 2" in err and len(err.splitlines()) == 1

    def test_non_numeric_field(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text(CSV_HEADER + "\ncustom,4,2,1,x,10,10,1,1,0,0,5\n")
        assert cli_main(["slopes", str(path)]) == 1
        err = capsys.readouterr().err
        assert f"{path}, line 2" in err and len(err.splitlines()) == 1

    @pytest.mark.parametrize("tail", [",99", ","], ids=["extra-field", "trailing-comma"])
    def test_long_row(self, tmp_path, capsys, tail):
        """A row with more fields than the header is a one-line error naming its line."""
        rows = [f"custom,4,2,1,2,{snr},10,{snr},1,0,0,3" for snr in (10, 20, 30, 40)]
        rows[0] += tail
        path = tmp_path / "long.csv"
        path.write_text("\n".join([CSV_HEADER, *rows]) + "\n")
        assert cli_main(["slopes", str(path)]) == 1
        err = capsys.readouterr().err
        assert f"{path}, line 2" in err and len(err.splitlines()) == 1

    def test_bit_grid_rows_have_no_slope(self, tmp_path, capsys):
        gap = tmp_path / "gap.csv"
        args = ["run", "--scenario", "gap_vs_bits", "--trials", "1", "--out", str(gap)]
        assert cli_main(args) == 0
        capsys.readouterr()
        assert cli_main(["slopes", str(gap)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and len(captured.err.splitlines()) == 1
        assert captured.err.startswith("configuration error")

    def test_mixed_file_fits_only_snr_sweeps(self, tmp_path, capsys):
        """`slopes` on saturation rows plus gap_vs_bits rows of another curve prints what
        `run` printed for the saturation rows alone. Grid rows of the saturation curve
        itself put several budgets at its SNRs, so that file has no slope and exits 1."""
        sat = tmp_path / "sat.csv"
        common = ["--trials", "1", "--seed", "3", "--out"]
        sweep = ["--scenario", "saturation", "--snr-max", "30"]
        assert cli_main(["run", *sweep, *common, str(sat)]) == 0
        run_fits = capsys.readouterr().out.splitlines()[1:]
        assert [line[:12] for line in run_fits] == ["n_t=6 n_r=3 "]
        for n_r, code in (("2", 0), ("3", 1)):
            gap, mixed = tmp_path / f"gap{n_r}.csv", tmp_path / f"mixed{n_r}.csv"
            args = ["run", "--scenario", "gap_vs_bits", "--nr", n_r, *common, str(gap)]
            assert cli_main(args) == 0
            capsys.readouterr()
            mixed.write_text(sat.read_text() + "".join(gap.read_text().splitlines(True)[1:]))
            assert cli_main(["slopes", str(mixed)]) == code
            captured = capsys.readouterr()
            assert captured.out.splitlines() == (run_fits if code == 0 else [])
            assert len(captured.err.splitlines()) == code

    def test_unknown_scenario_row(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text(CSV_HEADER + "\njammer,4,2,1,2,10,10,1,1,0,0,5\n")
        assert cli_main(["slopes", str(path)]) == 1
        err = capsys.readouterr().err
        assert f"{path}, line 2: unknown scenario" in err and len(err.splitlines()) == 1
        assert "Traceback" not in err
