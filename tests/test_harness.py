"""Tests for the Monte Carlo harness: configs, determinism, CSV round-trips."""

import csv

import numpy as np
import pytest

from secmimo import harness
from secmimo.errors import ConfigError, DegenerateChannelError
from secmimo.grassmann import FeedbackSchedule, GrassmannPoint, perturb_quantize
from secmimo.harness import (
    CSV_HEADER,
    ExperimentConfig,
    ExperimentResult,
    ResultRow,
    _curve_points,
    _curve_trials,
    fitted_slopes_from_rows,
    read_csv,
    render_csv,
    run_experiment,
    scenario_config,
    write_csv,
)
from secmimo.rates import secrecy_rate_perfect_G, secrecy_rate_quantized_G
from secmimo.transceiver import (
    AntennaConfig,
    PowerPolicy,
    leakage_power,
    rx_postfilter,
    sample_channels,
    tx_precoders_perfect,
    tx_precoders_quantized,
)


def _small_cfg(**over):
    defaults = dict(trials=3, seed=7, snr_min=10.0, snr_max=30.0, snr_step=10.0)
    defaults.update(over)
    return scenario_config("slope", [2], **defaults)


class TestConfig:
    def test_slope_defaults(self):
        cfg = scenario_config("slope")
        assert cfg.rho == 0.5
        assert cfg.trials == 500
        assert cfg.schedule == FeedbackSchedule.scaled(0.0)
        assert [a.n_r for a in cfg.antenna_configs] == [2, 3, 4]
        for a in cfg.antenna_configs:
            assert a.n_t == 2 * a.n_r and a.n_j == 1 and a.n_e == a.n_r

    def test_saturation_defaults(self):
        cfg = scenario_config("saturation")
        assert cfg.schedule == FeedbackSchedule.fixed(30)
        assert [a.n_r for a in cfg.antenna_configs] == [3]

    def test_gap_defaults(self):
        cfg = scenario_config("gap_vs_bits")
        assert cfg.snr_min == 10.0 and cfg.snr_max == 30.0
        assert cfg.nf_grid == tuple(range(10, 101, 10))

    def test_unknown_scenario(self):
        with pytest.raises(ConfigError):
            scenario_config("nope")

    def test_validation_rejects_bad_antennas(self):
        cfg = ExperimentConfig(
            scenario="slope",
            antenna_configs=(AntennaConfig(5, 2, 1, 2),),
            schedule=FeedbackSchedule.scaled(0.0),
        )
        with pytest.raises(ConfigError):
            cfg.validate()

    def test_validation_rejects_wrong_schedule(self):
        cfg = scenario_config("slope", [2])
        bad = ExperimentConfig(
            scenario="slope",
            antenna_configs=cfg.antenna_configs,
            schedule=FeedbackSchedule.fixed(30),
        )
        with pytest.raises(ConfigError):
            bad.validate()

    def test_validation_rejects_bad_grid(self):
        with pytest.raises(ConfigError):
            _small_cfg(snr_min=30.0, snr_max=10.0).validate()
        with pytest.raises(ConfigError):
            _small_cfg(snr_step=-5.0).validate()
        with pytest.raises(ConfigError):
            _small_cfg(trials=0).validate()

    def test_validation_rejects_narrow_ambient(self):
        cfg = ExperimentConfig(
            scenario="custom",
            antenna_configs=(AntennaConfig(5, 3, 1, 2),),
            schedule=FeedbackSchedule.fixed(12),
        )
        with pytest.raises(ConfigError, match="n_t >= 2 n_r"):
            cfg.validate()

    def test_custom_scenario_free_antennas(self):
        cfg = ExperimentConfig(
            scenario="custom",
            antenna_configs=(AntennaConfig(6, 2, 1, 2),),
            schedule=FeedbackSchedule.fixed(12),
            trials=1,
        )
        cfg.validate()


class TestPoints:
    def test_scaled_bits_follow_power(self):
        cfg = _small_cfg()
        pts = _curve_points(cfg, cfg.antenna_configs[0])
        assert pts == [(10.0, 14), (20.0, 27), (30.0, 40)]

    def test_zero_db_clamps_to_one_bit(self):
        cfg = scenario_config("slope", [2], snr_min=0.0, snr_max=10.0, snr_step=5.0)
        pts = _curve_points(cfg, cfg.antenna_configs[0])
        assert pts[0] == (0.0, 1)

    def test_gap_grid_is_cartesian(self):
        cfg = scenario_config("gap_vs_bits", trials=1, nf_grid=(10, 20))
        pts = _curve_points(cfg, cfg.antenna_configs[0])
        assert pts == [(10.0, 10), (10.0, 20), (20.0, 10), (20.0, 20), (30.0, 10), (30.0, 20)]


def _reference_trial(cfg, curve, trial):
    """One trial through the scalar public kernels, one operating point at a time."""
    acfg = cfg.antenna_configs[curve]
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(curve, trial)))
    channels = sample_channels(acfg, rng)
    filters = rx_postfilter(channels.Hd, channels.Hj, rng=rng)
    prec_p = tx_precoders_perfect(channels.Hd)
    f_true = GrassmannPoint(filters.F)
    points = _curve_points(cfg, acfg)
    out = np.empty((len(points), 5))
    for i, (snr_db, nf) in enumerate(points):
        policy = PowerPolicy.from_snr_db(snr_db, rho=cfg.rho)
        prec_q = tx_precoders_quantized(perturb_quantize(f_true, nf, rng))
        r_p = secrecy_rate_perfect_G(channels, prec_p, filters, policy, acfg)
        r_q = secrecy_rate_quantized_G(channels, prec_q, filters, policy, acfg, nf)
        leak = leakage_power(filters, channels.Hd, prec_q.W2, policy)
        out[i] = (r_p.clipped, r_q.clipped, r_p.raw, r_q.raw, leak)
    return out


def _engine_trials(cfg, curve):
    return _curve_trials(cfg, curve, _curve_points(cfg, cfg.antenna_configs[curve]))


class TestDeterminism:
    def test_rerun_identical(self):
        cfg = _small_cfg()
        r1 = run_experiment(cfg)
        r2 = run_experiment(cfg)
        assert render_csv(r1) == render_csv(r2)
        assert r1.rows == r2.rows

    def test_block_size_invariance(self, monkeypatch):
        """Blocks of 1, 8 and a whole curve give the same bits, per trial and in the CSV."""
        cfg = _small_cfg(trials=11)
        texts, per_trial = [], []
        for block in (1, 8, cfg.trials):
            monkeypatch.setattr(harness, "TRIAL_BLOCK", block)
            texts.append(render_csv(run_experiment(cfg)))
            per_trial.append(_engine_trials(cfg, 0))
        assert len(set(texts)) == 1
        for arr in per_trial[1:]:
            np.testing.assert_array_equal(arr, per_trial[0])

    def test_trial_streams_injective(self):
        """Trial t consumes the same stream regardless of the trial count."""
        cfg1 = _small_cfg(trials=1)
        cfg3 = _small_cfg(trials=3)
        direct = np.stack([_reference_trial(cfg3, 0, t) for t in range(3)]).mean(axis=0)
        r3 = run_experiment(cfg3)
        got = np.array([[row.r_perfect_mean, row.r_quantized_mean] for row in r3.rows])
        np.testing.assert_allclose(got[:, 0], direct[:, 0], rtol=0, atol=0)
        np.testing.assert_allclose(got[:, 1], direct[:, 1], rtol=0, atol=0)

        r1 = run_experiment(cfg1)
        got1 = np.array([row.r_perfect_mean for row in r1.rows])
        np.testing.assert_array_equal(got1, _reference_trial(cfg1, 0, 0)[:, 0])


class TestEngineOracle:
    """The stacked engine against the scalar kernels, trial by trial, bit for bit."""

    @pytest.mark.parametrize(
        "cfg",
        [
            scenario_config("slope", [2, 3, 4], trials=10, seed=3),
            scenario_config("gap_vs_bits", trials=10, seed=4),
            # the second budget drives the target to 0: that point draws nothing
            scenario_config("gap_vs_bits", trials=3, seed=5, nf_grid=(10, 40000)),
            ExperimentConfig(
                scenario="custom",
                antenna_configs=(AntennaConfig(7, 3, 0, 2),),
                schedule=FeedbackSchedule.scaled(0.25),
                snr_min=0.0,
                snr_max=40.0,
                snr_step=10.0,
                trials=10,
                seed=6,
            ),
        ],
        ids=["slope", "gap_vs_bits", "zero_target", "custom_no_jammer"],
    )
    def test_matches_scalar_kernels(self, cfg):
        for curve in range(len(cfg.antenna_configs)):
            engine = _engine_trials(cfg, curve)
            reference = np.stack([_reference_trial(cfg, curve, t) for t in range(cfg.trials)])
            np.testing.assert_array_equal(engine, reference)


class TestReplayableFailure:
    def test_names_first_failing_trial(self, degenerate_trials):
        cfg = _small_cfg(trials=11)
        degenerate_trials(2, 4, {9, 10})
        with pytest.raises(DegenerateChannelError, match="^curve 0, trial 9, seed 7: rank"):
            run_experiment(cfg)


class TestCsv:
    def _fake_result(self):
        rows = [
            ResultRow("slope", 6, 3, 1, 3, 20.0, 30, 2.5, 2.0, 0.5, 0.1, 10),
            ResultRow("slope", 4, 2, 1, 2, 30.0, 40, 1.23456789, 1.0, 0.2, 0.05, 10),
            ResultRow("slope", 4, 2, 1, 2, 10.0, 14, 0.5, 0.25, 0.25, 0.01, 10),
        ]
        return ExperimentResult(rows=rows, slopes={})

    def test_header_exact(self, tmp_path):
        path = tmp_path / "out.csv"
        write_csv(ExperimentResult(rows=[], slopes={}), str(path))
        assert path.read_text() == CSV_HEADER + "\n"

    def test_sorted_by_nr_then_snr(self, tmp_path):
        path = tmp_path / "out.csv"
        write_csv(self._fake_result(), str(path))
        lines = path.read_text().strip().splitlines()
        keys = [(int(l.split(",")[2]), float(l.split(",")[5])) for l in lines[1:]]
        assert keys == sorted(keys)

    def test_round_trip_9_digits(self, tmp_path):
        path = tmp_path / "out.csv"
        write_csv(self._fake_result(), str(path))
        with open(path) as fh:
            rec = list(csv.DictReader(fh))[1]
        # parsing and re-formatting at 9 significant digits is lossless
        assert format(float(rec["r_perfect_mean"]), ".9g") == rec["r_perfect_mean"]
        assert float(rec["r_perfect_mean"]) == pytest.approx(1.23456789, abs=1e-9)

    def test_read_csv_round_trip(self, tmp_path):
        path = tmp_path / "out.csv"
        result = self._fake_result()
        write_csv(result, str(path))
        back = read_csv(str(path))
        assert sorted(back, key=lambda r: (r.n_r, r.snr_db)) == sorted(
            result.rows, key=lambda r: (r.n_r, r.snr_db)
        )

    def test_write_failure_reports_path(self):
        with pytest.raises(ConfigError, match="missing-dir"):
            write_csv(ExperimentResult(rows=[], slopes={}), "/missing-dir/x.csv")

    def test_read_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "foreign.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ConfigError):
            read_csv(str(path))


class TestSlopesFromRows:
    def test_synthetic_line(self):
        rows = []
        for snr in (10.0, 20.0, 30.0, 40.0):
            log2p = snr * np.log2(10.0) / 10.0
            rows.append(
                ResultRow("custom", 4, 2, 1, 2, snr, 10, 2 * log2p + 3, log2p, 0, 0, 5)
            )
        fits = fitted_slopes_from_rows(rows, window=(10.0, 40.0))
        assert fits[(4, 2, 1, 2)]["perfect"] == pytest.approx(2.0, abs=1e-12)
        assert fits[(4, 2, 1, 2)]["quantized"] == pytest.approx(1.0, abs=1e-12)


class TestExperimentOutputs:
    def test_row_metadata(self):
        cfg = _small_cfg(trials=2)
        res = run_experiment(cfg)
        assert len(res.rows) == 3
        for row in res.rows:
            assert row.scenario == "slope"
            assert row.trials == 2
            assert (row.n_t, row.n_r, row.n_j, row.n_e) == (4, 2, 1, 2)
            assert row.r_perfect_mean >= 0 and row.r_quantized_mean >= 0
            assert row.leakage_mean >= 0

    def test_slopes_skipped_for_short_sweep(self):
        cfg = scenario_config(
            "slope", [2], trials=1, snr_min=20.0, snr_max=60.0, snr_step=40.0
        )
        res = run_experiment(cfg)
        assert res.slopes == {}

    def test_gap_scenario_rows(self):
        cfg = scenario_config("gap_vs_bits", trials=2, seed=1, nf_grid=(10, 30))
        res = run_experiment(cfg)
        assert len(res.rows) == 6
        assert res.slopes == {}
        # within one SNR, more bits means smaller mean gap
        by_snr = {}
        for r in res.rows:
            by_snr.setdefault(r.snr_db, {})[r.nf_bits] = r.gap_mean
        for gaps in by_snr.values():
            assert gaps[30] < gaps[10]
