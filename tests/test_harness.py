"""Tests for the Monte Carlo harness: configs, determinism, CSV round-trips."""

import csv
import functools
import re
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secmimo import harness
from secmimo.errors import ConfigError, NumericalError
from secmimo.cli import build_parser
from secmimo.grassmann import ZERO_DISTANCE, perturb_gram, quantization_target
from secmimo.harness import (
    BIT_SOURCES,
    CSV_HEADER,
    SCENARIO_TABLE,
    SCENARIOS,
    ExperimentConfig,
    ResultRow,
    _curve_points,
    fitted_slopes_from_rows,
    read_csv,
    render_csv,
    run_experiment,
    scenario_config,
    write_csv,
)
from secmimo.linalg import (
    complex_gaussian,
    haar_columns,
    random_gaussian_matrix,
    random_truncated_unitary,
)
from secmimo.rates import (
    fit_slope,
    grams_rate,
    precoder_grams,
    step_grams,
    trial_couplings,
)
from secmimo.transceiver import (
    AntennaConfig,
    PowerPolicy,
    rx_postfilter,
    sample_channels,
    sample_trials,
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
        assert (cfg.epsilon, cfg.nf_grid) == (0.0, None)
        assert [a.n_r for a in cfg.antenna_configs] == [2, 3, 4]
        for a in cfg.antenna_configs:
            assert a.n_t == 2 * a.n_r and a.n_j == 1 and a.n_e == a.n_r

    def test_saturation_defaults(self):
        cfg = scenario_config("saturation")
        assert (cfg.epsilon, cfg.nf_grid) == (None, (30,))
        assert [a.n_r for a in cfg.antenna_configs] == [3]

    def test_gap_defaults(self):
        cfg = scenario_config("gap_vs_bits")
        assert cfg.snr_min == 10.0 and cfg.snr_max == 30.0
        assert cfg.nf_grid == tuple(range(10, 101, 10))

    def test_unknown_scenario(self):
        with pytest.raises(ConfigError):
            scenario_config("nope")
        with pytest.raises(ConfigError, match="unknown scenario"):
            scenario_config(["slope"])

    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_any_scenario_takes_any_valid_curve(self, scenario):
        """Curves off the (2 n_r, n_r, 1, n_r) shape validate and run in every scenario."""
        curves = (AntennaConfig(5, 2, 1, 2), AntennaConfig(6, 2, 1, 2))
        cfg = replace(scenario_config(scenario, trials=1, snr_max=20.0), antenna_configs=curves)
        rows = run_experiment(cfg)
        assert len(rows) == sum(len(points) for points, _, _ in cfg.validate())
        assert {(r.n_t, r.n_r, r.n_j, r.n_e) for r in rows} == {(5, 2, 1, 2), (6, 2, 1, 2)}

    def test_validation_rejects_wrong_schedule(self):
        cfg = scenario_config("slope", [2])
        bad = ExperimentConfig(
            scenario="slope",
            antenna_configs=cfg.antenna_configs,
            nf_grid=(30,),
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

    def test_underflowing_power_is_config_error(self):
        """A grid whose lowest power underflows to 0 fails validate; a subnormal one passes."""
        with pytest.raises(ConfigError, match="positive and finite"):
            scenario_config("slope", [2], snr_min=-4000.0, snr_step=500.0).validate()
        points = scenario_config("slope", [2], snr_min=-3230.0, snr_step=500.0).validate()[0][0]
        assert 0.0 < points[0][2] < 1e-300

    @pytest.mark.parametrize("scenario", ["slope", "saturation", "gap_vs_bits", "custom"])
    @pytest.mark.parametrize("n_r_list", [[], ()])
    def test_empty_curve_list_is_rejected(self, scenario, n_r_list):
        """An empty list is no curves at all, not a request for the default curves."""
        cfg = scenario_config(scenario, n_r_list)
        assert cfg.antenna_configs == ()
        with pytest.raises(ConfigError, match="at least one antenna configuration"):
            cfg.validate()

    def test_validation_rejects_repeated_curve(self):
        cfg = scenario_config("slope", [2, 3, 2], trials=1)
        with pytest.raises(ConfigError, match="distinct"):
            cfg.validate()

    def test_table_lists_every_scenario(self):
        assert SCENARIOS == tuple(SCENARIO_TABLE)
        assert SCENARIOS == ("slope", "saturation", "gap_vs_bits", "custom")
        for scenario, row in SCENARIO_TABLE.items():
            cfg = scenario_config(scenario, trials=1)
            assert [a.n_r for a in cfg.antenna_configs] == list(row.n_rs)
            assert set(row.sources) <= set(BIT_SOURCES)
            assert [k for k in BIT_SOURCES if k in row.defaults][0] in row.sources
            cfg.validate()

    @pytest.mark.parametrize(
        "cfg",
        [
            scenario_config("gap_vs_bits", epsilon=4.0, trials=1),
            scenario_config("slope", [2], nf_grid=(5,), trials=1),
            scenario_config("saturation", epsilon=0.0, trials=1),
        ],
        ids=["gap-scaled", "slope-grid", "saturation-scaled"],
    )
    def test_unaccepted_bit_source_is_rejected(self, cfg):
        """A bit source the scenario would not use fails, where the parent ran without it."""
        with pytest.raises(ConfigError, match="takes its bits from"):
            run_experiment(cfg)

    @pytest.mark.parametrize(
        "cfg",
        [
            scenario_config("gap_vs_bits", nf_grid=(20,), trials=1),
            scenario_config("custom", nf_grid=(5,), trials=1),
            scenario_config("custom", nf_grid=(40, 5), trials=1),
            scenario_config("saturation", nf_grid=(10, 30), trials=1),
        ],
        ids=["gap-fixed", "custom-grid", "custom-two", "saturation-two"],
    )
    def test_fixed_budgets_are_one_grid(self, cfg):
        """Every scenario with fixed bits takes any budget grid, one budget included,
        and sweeps it in order at every SNR."""
        points, _, _ = cfg.validate()[0]
        assert [nf for _, nf, _ in points] == list(cfg.nf_grid) * (len(points) // len(cfg.nf_grid))

    @pytest.mark.parametrize(
        "bits",
        [
            dict(epsilon=0.0, nf_grid=(10, 20)),
            {},
            dict(epsilon=0.0, nf_grid=(12,)),
        ],
        ids=["scaled-and-grid", "none", "scaled-and-fixed"],
    )
    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_exactly_one_bit_source(self, scenario, bits):
        cfg = ExperimentConfig(
            scenario=scenario, antenna_configs=(AntennaConfig(4, 2, 1, 2),), trials=1, **bits
        )
        with pytest.raises(ConfigError, match="takes its bits from") as info:
            cfg.validate()
        assert ("exclude each other" in str(info.value)) == (len(bits) > 1)

    def test_bit_override_replaces_default_source(self):
        cfg = scenario_config("custom", nf_grid=(12,))
        assert (cfg.epsilon, cfg.nf_grid) == (None, (12,))
        cfg = scenario_config("gap_vs_bits", nf_grid=(10, 20))
        assert cfg.nf_grid == (10, 20) and (cfg.snr_min, cfg.snr_max) == (10.0, 30.0)
        cfg = scenario_config("saturation", epsilon=0.5)
        assert (cfg.epsilon, cfg.nf_grid) == (0.5, None)

    @pytest.mark.parametrize("grid", [(), (10, 0), (-5,)])
    def test_validation_rejects_bad_bit_grid(self, grid):
        with pytest.raises(ConfigError, match="nf_grid"):
            scenario_config("gap_vs_bits", nf_grid=grid, trials=1).validate()

    @pytest.mark.parametrize(
        "scenario, bits",
        [
            ("gap_vs_bits", dict(nf_grid=(10.7, 20))),
            ("gap_vs_bits", dict(nf_grid=(True, 20))),
            ("gap_vs_bits", dict(nf_grid=(10, 20.0))),
            ("custom", dict(nf_grid=(12.9,))),
            ("custom", dict(nf_grid=(True,))),
            ("saturation", dict(nf_grid=(30.0,))),
            ("saturation", dict(nf_grid=(0,))),
            ("saturation", dict(nf_grid=(-3,))),
        ],
        ids=["grid-float", "grid-bool", "grid-integral-float", "nf-float", "nf-bool",
             "nf-integral-float", "nf-zero", "nf-negative"],
    )
    def test_bit_budgets_must_be_integers(self, scenario, bits):
        """A float or bool budget fails instead of being truncated, as is a budget below 1,
        in a grid of several budgets or of one (nf-*, what one `--nf` gives)."""
        with pytest.raises(ConfigError, match="^nf_grid needs integer bit budgets"):
            scenario_config(scenario, trials=1, **bits).validate()

    def test_numpy_integer_budgets_accepted(self):
        plain = scenario_config("gap_vs_bits", trials=1, seed=2, nf_grid=(10, 20))
        numpy = replace(plain, nf_grid=(np.int64(10), np.int32(20)))
        assert render_csv(run_experiment(numpy)) == render_csv(run_experiment(plain))
        cfg = scenario_config("saturation", trials=1, nf_grid=(np.int64(30),))
        default = scenario_config("saturation", trials=1)
        assert [c[0] for c in cfg.validate()] == [c[0] for c in default.validate()]

    def test_run_flags_are_config_fields(self):
        """Every `run` flag but --nr, --nf, --out and --config sets the config field of its
        name; --nf fills nf_grid."""
        flags = set(build_parser().parse_args(["run"]).config_keys) - {"nr", "out"}
        assert flags - {"nf"} == {f.name for f in fields(ExperimentConfig)} - {
            "antenna_configs",
            "nf_grid",
        }
        assert set(BIT_SOURCES) - flags == {"nf_grid"} and "nf" in flags


# The JSON kinds each ExperimentConfig field admits: a float field also takes
# an integer, and a field that defaults to None takes null.
_ADMITTED_KINDS = {
    "scenario": {"string"},
    "antenna_configs": {"array"},
    "snr_min": {"number", "integer"},
    "snr_max": {"number", "integer"},
    "snr_step": {"number", "integer"},
    "trials": {"integer"},
    "seed": {"integer"},
    "rho": {"number", "integer"},
    "epsilon": {"number", "integer", "null"},
    "nf_grid": {"array", "null"},
}
_JSON_KINDS = {
    "null": st.none(),
    "boolean": st.booleans(),
    "integer": st.integers(),
    "number": st.floats(),
    "string": st.text(max_size=4),
    "array": st.lists(st.integers(), max_size=3),
    "object": st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
}


@st.composite
def _wrong_kind(draw):
    """A field and a value of a JSON kind the field does not admit."""
    field = draw(st.sampled_from(sorted(_ADMITTED_KINDS)))
    kind = draw(st.sampled_from(sorted(_JSON_KINDS.keys() - _ADMITTED_KINDS[field])))
    return field, draw(_JSON_KINDS[kind])


class TestConfigTypes:
    """validate checks every field's type, with a ConfigError naming the field."""

    @pytest.mark.parametrize(
        "field, value, kind",
        [
            ("epsilon", "0.5", "a number"),
            ("trials", "3", "an integer"),
            ("rho", "0.5", "a number"),
            ("snr_step", "5", "a number"),
            ("seed", 1.5, "an integer"),
            ("trials", 2.5, "an integer"),
            ("trials", True, "an integer"),
            ("scenario", ["slope"], "a string"),
        ],
        ids=["epsilon-str", "trials-str", "rho-str", "snr_step-str", "seed-float",
             "trials-float", "trials-bool", "scenario-list"],
    )
    def test_wrong_type_is_config_error(self, field, value, kind):
        cfg = replace(scenario_config("slope", [2], trials=1), **{field: value})
        message = f"^'{field}' must be {kind}, got {re.escape(repr(value))}$"
        with pytest.raises(ConfigError, match=message):
            cfg.validate()

    def test_numpy_integers_accepted(self):
        plain = scenario_config("slope", [2], trials=2, seed=3, snr_max=20.0)
        numpy = replace(plain, trials=np.int64(2), seed=np.int32(3))
        assert render_csv(run_experiment(numpy)) == render_csv(run_experiment(plain))

    def test_kind_table_covers_every_field(self):
        assert set(_ADMITTED_KINDS) == {f.name for f in fields(ExperimentConfig)}

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(scenario=st.sampled_from(["slope", "saturation", "gap_vs_bits"]), change=_wrong_kind())
    def test_wrong_json_kind_is_config_error(self, scenario, change):
        """Any one field of a valid config given a value of a kind it does not admit."""
        field, value = change
        cfg = replace(scenario_config(scenario, [2], trials=1), **{field: value})
        with pytest.raises(ConfigError):
            cfg.validate()


class TestPoints:
    def test_scaled_bits_follow_power(self):
        cfg = _small_cfg()
        pts = _curve_points(cfg, cfg.antenna_configs[0])
        assert pts == [(10.0, 14, 10.0), (20.0, 27, 100.0), (30.0, 40, 1000.0)]

    def test_zero_db_clamps_to_one_bit(self):
        cfg = scenario_config("slope", [2], snr_min=0.0, snr_max=10.0, snr_step=5.0)
        pts = _curve_points(cfg, cfg.antenna_configs[0])
        assert pts[0] == (0.0, 1, 1.0)

    def test_fixed_ignores_power(self):
        """A one-budget grid gives 30 bits at every SNR."""
        cfg = scenario_config("custom", [2], nf_grid=(30,))
        pts = _curve_points(cfg, cfg.antenna_configs[0])
        assert pts == [(5.0 * i, 30, 10.0 ** (5.0 * i / 10.0)) for i in range(13)]

    def test_gap_grid_is_cartesian(self):
        cfg = scenario_config("gap_vs_bits", trials=1, nf_grid=(10, 20))
        pts = _curve_points(cfg, cfg.antenna_configs[0])
        pairs = [(10.0, 10), (10.0, 20), (20.0, 10), (20.0, 20), (30.0, 10), (30.0, 20)]
        assert pts == [(snr, nf, 10.0 ** (snr / 10.0)) for snr, nf in pairs]


def _trial_points(cfg, curve, trial):
    """One trial's scalar draws: channels, B and filters, then (policy, target, z) per point.

    The scalar samplers draw what the engine's stacked samplers draw: the
    channels, then B, then one direction per point with a positive target.
    """
    acfg = cfg.antenna_configs[curve]
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(curve, trial)))
    channels = sample_channels(acfg, rng)
    b = random_truncated_unitary(acfg.n_t, acfg.d_s, rng)
    filters = rx_postfilter(channels.Hd, channels.Hj, b)
    points = []
    for _, nf, power in _curve_points(cfg, acfg):
        target = quantization_target(nf, acfg)
        z = np.zeros((acfg.n_t, acfg.n_r), dtype=complex)
        if target >= ZERO_DISTANCE:
            z = random_gaussian_matrix(acfg.n_t, acfg.n_r, rng)
        points.append((PowerPolicy(P=power, rho=cfg.rho, config=acfg), target, z))
    return acfg, channels, filters, points


def _reference_trial(cfg, curve, trial):
    """One trial through the engine's kernels called on 2-D matrices, one point at a time.

    Each point rates, with grams_rate at its power, the perfect-CSI Gram set
    (that of the step to distance 0) and the Gram set of its perturb_gram step.
    """
    acfg, channels, filters, points = _trial_points(cfg, curve, trial)
    couplings = trial_couplings(channels, filters)
    perfect = step_grams(couplings, perturb_gram(filters.F, np.zeros_like(filters.F), 0.0))
    out = np.empty((len(points), 5))
    for i, (policy, target, z) in enumerate(points):
        step = perturb_gram(filters.F, z, target)
        r_p = grams_rate(perfect, policy)
        r_q = grams_rate(step_grams(couplings, step), policy)
        out[i] = (r_p.clipped, r_q.clipped, r_p.raw, r_q.raw, r_q.leakage)
    return out


def _explicit_trial(cfg, curve, trial):
    """One trial through explicit precoders and precoder_grams: tx_precoders_perfect
    at the curve's power vector, and tx_precoders_quantized at each point."""
    acfg, channels, filters, points = _trial_points(cfg, curve, trial)
    powers = np.array([policy.P for policy, _, _ in points])
    powers = PowerPolicy(P=powers, rho=cfg.rho, config=acfg)
    r_p = grams_rate(precoder_grams(channels, tx_precoders_perfect(channels.Hd), filters), powers)
    out = np.empty((len(points), 5))
    for i, (policy, target, z) in enumerate(points):
        prec_q = tx_precoders_quantized(filters.F, z, target)
        r_q = grams_rate(precoder_grams(channels, prec_q, filters), policy)
        out[i] = (r_p.clipped[i], r_q.clipped, r_p.raw[i], r_q.raw, r_q.leakage)
    return out


def _engine_trials(cfg, curve):
    """Per-trial outputs of one curve, from the _map_trials call that run_experiment makes."""
    _, policy, targets = cfg.validate()[curve]
    measure = functools.partial(harness._run_trials, policy, targets)
    return harness._map_trials(measure, cfg.seed, curve, range(cfg.trials))


class TestDeterminism:
    def test_rerun_identical(self):
        cfg = _small_cfg()
        r1 = run_experiment(cfg)
        r2 = run_experiment(cfg)
        assert render_csv(r1) == render_csv(r2)
        assert r1 == r2

    def test_block_size_invariance(self, monkeypatch):
        """Blocks of 1, 8 and a whole curve give the same bits, per trial and in the CSV."""
        cfg = _small_cfg(trials=11)
        n_points = len(_curve_points(cfg, cfg.antenna_configs[0]))
        texts, per_trial = [], []
        for block in (1, 8, cfg.trials):
            monkeypatch.setattr(harness, "BLOCK_POINTS", block * n_points)
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
        got = np.array([[row.r_perfect_mean, row.r_quantized_mean] for row in r3])
        np.testing.assert_allclose(got[:, 0], direct[:, 0], rtol=0, atol=0)
        np.testing.assert_allclose(got[:, 1], direct[:, 1], rtol=0, atol=0)

        r1 = run_experiment(cfg1)
        got1 = np.array([row.r_perfect_mean for row in r1])
        np.testing.assert_array_equal(got1, _reference_trial(cfg1, 0, 0)[:, 0])


_ORACLE_CONFIGS = [
    scenario_config("slope", [2, 3, 4], trials=10, seed=3),
    scenario_config("gap_vs_bits", trials=10, seed=4),
    # the second budget drives the target to 0: that point draws nothing
    scenario_config("gap_vs_bits", trials=3, seed=5, nf_grid=(10, 40000)),
    ExperimentConfig(
        scenario="custom",
        antenna_configs=(AntennaConfig(7, 3, 0, 2),),
        epsilon=0.25,
        snr_min=0.0,
        snr_max=40.0,
        snr_step=10.0,
        trials=10,
        seed=6,
    ),
    # n_t < 2 n_r: the quantizer's steps have r = n_t - n_r = 2 < n_r singular values
    ExperimentConfig(
        scenario="custom",
        antenna_configs=(AntennaConfig(5, 3, 1, 2),),
        epsilon=0.0,
        snr_min=0.0,
        snr_max=40.0,
        snr_step=10.0,
        trials=10,
        seed=9,
    ),
]
_ORACLE_IDS = ["slope", "gap_vs_bits", "zero_target", "custom_no_jammer", "custom_narrow"]


class TestEngineOracle:
    """The stacked engine against its kernels on 2-D matrices, trial by trial, bit for bit."""

    @pytest.mark.parametrize("cfg", _ORACLE_CONFIGS, ids=_ORACLE_IDS)
    def test_matches_scalar_kernels(self, cfg):
        for curve in range(len(cfg.antenna_configs)):
            engine = _engine_trials(cfg, curve)
            reference = np.stack([_reference_trial(cfg, curve, t) for t in range(cfg.trials)])
            np.testing.assert_array_equal(engine, reference)

    @pytest.mark.parametrize(
        "cfg",
        _ORACLE_CONFIGS + [scenario_config("slope", [2, 3, 4], trials=10, seed=8, rho=0.3)],
        ids=_ORACLE_IDS + ["slope_rho_0.3"],
    )
    def test_matches_explicit_precoders(self, cfg):
        """The Gram route against explicit precoders, within 1e-10 max(1, |ref|)."""
        for curve in range(len(cfg.antenna_configs)):
            engine = _engine_trials(cfg, curve)
            explicit = np.stack([_explicit_trial(cfg, curve, t) for t in range(cfg.trials)])
            assert np.all(np.abs(engine - explicit) <= 1e-10 * np.maximum(1.0, np.abs(explicit)))

    @pytest.mark.parametrize(
        "cfg, n_zero",
        [
            (_ORACLE_CONFIGS[2], 3),
            (scenario_config("saturation", nf_grid=(2000,), trials=3), 13),
            (scenario_config("slope", epsilon=5.0, trials=3), 2),  # 55 and 60 dB
        ],
        ids=["zero_target", "saturation_nf2000", "slope_epsilon5"],
    )
    def test_zero_target_has_no_gap(self, cfg, n_zero):
        """At each point whose target is below ZERO_DISTANCE, every trial's quantized
        rates equal its perfect ones bit for bit, and the row's gap_mean is +0.0."""
        for curve, (points, policy, _) in enumerate(cfg.validate()):
            zero = quantization_target([nf for _, nf, _ in points], policy.config) < ZERO_DISTANCE
            assert np.count_nonzero(zero) == n_zero
            engine = _engine_trials(cfg, curve)[:, zero]
            np.testing.assert_array_equal(engine[..., [1, 3]], engine[..., [0, 2]])
        gaps = [
            r.gap_mean
            for r in run_experiment(cfg)
            if quantization_target(r.nf_bits, AntennaConfig(r.n_t, r.n_r, r.n_j, r.n_e))
            < ZERO_DISTANCE
        ]
        assert len(gaps) == n_zero * len(cfg.antenna_configs)
        assert all(g == 0.0 and not np.signbit(g) for g in gaps)


class TestBlockLinearAlgebra:
    def test_no_per_point_svd(self, monkeypatch):
        """Every SVD and QR of a slope block is per trial, shape (T, 1, ...), never per point."""
        shapes = {"svd": [], "qr": []}

        def spy(name):
            factor = getattr(np.linalg, name)

            def spied(a, *args, **kwargs):
                shapes[name].append(np.shape(a))
                return factor(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, spied)

        spy("svd")
        spy("qr")
        cfg = scenario_config("slope", [2, 3, 4], trials=4, seed=3)
        for curve, acfg in enumerate(cfg.antenna_configs):
            assert len(_curve_points(cfg, acfg)) > 1
            _engine_trials(cfg, curve)
        for name, seen in shapes.items():
            assert seen, name
            assert all(len(shape) == 4 and shape[:2] == (4, 1) for shape in seen), (name, seen)

    def test_per_trial_work_once_per_chunk(self, monkeypatch):
        """Filters and trial couplings run once per chunk, the two rates once per block."""
        calls = {}

        def counted(name):
            original = getattr(harness, name)

            def spy(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return original(*args, **kwargs)

            monkeypatch.setattr(harness, name, spy)

        per_trial = ("rx_postfilter", "trial_couplings")
        # one zero-distance step per chunk for the perfect-CSI Grams, one step per block
        for name in per_trial + ("grams_rate", "perturb_gram", "step_grams"):
            counted(name)
        cfg = scenario_config("gap_vs_bits", trials=20, seed=2)
        _engine_trials(cfg, 0)
        steps = dict.fromkeys(("perturb_gram", "step_grams"), 1 + 3)
        assert calls == dict.fromkeys(per_trial, 1) | {"grams_rate": 2 * 3} | steps
        calls.clear()
        monkeypatch.setattr(harness, "BLOCK_POINTS", 8)
        _engine_trials(cfg, 0)
        steps = dict.fromkeys(("perturb_gram", "step_grams"), 3 + 20)
        assert calls == dict.fromkeys(per_trial, 3) | {"grams_rate": 2 * 20} | steps


class TestReceiverDesignInvariance:
    """The rates do not depend on the receiver design matrix B; the leakage does.

    G is an invertible d_s x d_s filter that cannot change an information
    rate, so the rates never read G; the leakage is the AN power after it.
    """

    @pytest.mark.parametrize(
        "acfg", [AntennaConfig(8, 4, 1, 4), AntennaConfig(5, 3, 1, 2)], ids=["8414", "5312"]
    )
    def test_redrawn_b_keeps_every_rate(self, monkeypatch, acfg):
        # targets 0.9, 0.3 and 0.01, each at three powers
        targets = np.repeat([0.9, 0.3, 0.01], 3)
        policy = PowerPolicy(P=np.tile([1e1, 1e3, 1e6], 3), rho=0.5, config=acfg)

        def chunk():
            rngs = [harness._trial_rng(31, 0, t) for t in range(40)]
            return harness._run_trials(policy, targets, rngs)

        base = chunk()
        other = np.random.default_rng(32)

        def other_b(config, rngs):
            channels, b = sample_trials(config, rngs)
            parts = other.standard_normal((*b.shape[:-2], 2, *b.shape[-2:]))
            return channels, haar_columns(complex_gaussian(parts))

        monkeypatch.setattr(harness, "sample_trials", other_b)
        redrawn = chunk()
        np.testing.assert_array_equal(redrawn[..., :4], base[..., :4])
        leak, leak_again = base[..., 4], redrawn[..., 4]
        assert np.any(np.abs(leak_again - leak) > 0.01 * leak)


class TestReplayableFailure:
    def test_names_first_failing_trial(self, degenerate_trials):
        cfg = _small_cfg(trials=11)
        degenerate_trials(2, 4, {9, 10})
        with pytest.raises(NumericalError, match="^curve 0, trial 9, seed 7: rank"):
            run_experiment(cfg)


class TestCsv:
    def _fake_rows(self):
        return [
            ResultRow("slope", 6, 3, 1, 3, 20.0, 30, 2.5, 2.0, 0.5, 0.1, 10),
            ResultRow("slope", 4, 2, 1, 2, 30.0, 40, 1.23456789, 1.0, 0.2, 0.05, 10),
            ResultRow("slope", 4, 2, 1, 2, 10.0, 14, 0.5, 0.25, 0.25, 0.01, 10),
        ]

    def test_header_exact(self, tmp_path):
        path = tmp_path / "out.csv"
        write_csv([], str(path))
        assert path.read_text() == CSV_HEADER + "\n"

    def test_text_exact(self):
        assert CSV_HEADER == (
            "scenario,n_t,n_r,n_j,n_e,snr_db,nf_bits,"
            "r_perfect_mean,r_quantized_mean,gap_mean,leakage_mean,trials"
        )
        rows = self._fake_rows()
        # a JSON config gives an int snr_db; it renders like the float
        rows.append(ResultRow("slope", 4, 2, 1, 2, 20, 20, 2 / 3, 1e-12, -0.125, 0.0, 10))
        assert render_csv(rows) == (
            CSV_HEADER + "\n"
            "slope,4,2,1,2,10,14,0.5,0.25,0.25,0.01,10\n"
            "slope,4,2,1,2,20,20,0.666666667,1e-12,-0.125,0,10\n"
            "slope,4,2,1,2,30,40,1.23456789,1,0.2,0.05,10\n"
            "slope,6,3,1,3,20,30,2.5,2,0.5,0.1,10\n"
        )

    def test_negative_zero_written_as_zero(self):
        """A float cell holding -0.0 reads 0."""
        rows = [ResultRow("slope", 4, 2, 1, 2, -3230.0, 1, 0.0, 0.0, -0.0, 0.0, 2)]
        assert np.signbit(rows[0].gap_mean)
        assert render_csv(rows).splitlines()[1] == "slope,4,2,1,2,-3230,1,0,0,0,0,2"

    def test_sorted_by_nr_then_snr(self, tmp_path):
        path = tmp_path / "out.csv"
        write_csv(self._fake_rows(), str(path))
        lines = path.read_text().strip().splitlines()
        keys = [(int(l.split(",")[2]), float(l.split(",")[5])) for l in lines[1:]]
        assert keys == sorted(keys)

    def test_round_trip_9_digits(self, tmp_path):
        path = tmp_path / "out.csv"
        write_csv(self._fake_rows(), str(path))
        with open(path) as fh:
            rec = list(csv.DictReader(fh))[1]
        # parsing and re-formatting at 9 significant digits is lossless
        assert format(float(rec["r_perfect_mean"]), ".9g") == rec["r_perfect_mean"]
        assert float(rec["r_perfect_mean"]) == pytest.approx(1.23456789, abs=1e-9)

    def test_read_csv_round_trip(self, tmp_path):
        path = tmp_path / "out.csv"
        rows = self._fake_rows()
        write_csv(rows, str(path))
        back = read_csv(str(path))
        assert sorted(back, key=lambda r: (r.n_r, r.snr_db)) == sorted(
            rows, key=lambda r: (r.n_r, r.snr_db)
        )

    def test_failed_render_keeps_earlier_file(self, tmp_path, monkeypatch):
        path = tmp_path / "out.csv"
        write_csv(self._fake_rows(), str(path))
        before = path.read_bytes()

        def broken(rows):
            raise RuntimeError("render failed")

        monkeypatch.setattr(harness, "render_csv", broken)
        with pytest.raises(RuntimeError):
            write_csv([], str(path))
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]

    def test_failed_replace_leaves_no_partial_file(self, tmp_path):
        target = tmp_path / "taken"
        target.mkdir()
        with pytest.raises(ConfigError, match="taken"):
            write_csv(self._fake_rows(), str(target))
        assert [p.name for p in tmp_path.iterdir()] == ["taken"]
        assert list(target.iterdir()) == []

    def test_write_failure_reports_path(self):
        with pytest.raises(ConfigError, match="missing-dir"):
            write_csv([], "/missing-dir/x.csv")

    def test_read_rejects_unknown_scenario(self, tmp_path):
        path = tmp_path / "unknown.csv"
        write_csv(self._fake_rows(), str(path))
        lines = path.read_text().splitlines()
        lines[2] = lines[2].replace("slope", "jammer", 1)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ConfigError, match=r"line 3: unknown scenario 'jammer'"):
            read_csv(str(path))

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
        fits = fitted_slopes_from_rows(rows)
        assert fits[(4, 2, 1, 2)]["perfect"] == pytest.approx(2.0, abs=1e-12)
        assert fits[(4, 2, 1, 2)]["quantized"] == pytest.approx(1.0, abs=1e-12)

    def test_two_budgets_at_one_snr_have_no_slope(self):
        """A curve is left out when it holds two budgets at one SNR, whatever its scenario;
        rows of one budget at one SNR average (here exactly, as the values are exact)."""
        line = [
            ResultRow("gap_vs_bits", 4, 2, 1, 2, snr, 10, snr / 4, snr / 8, 0, 0, 5)
            for snr in (10.0, 20.0, 30.0)
        ]
        fits = fitted_slopes_from_rows(line)
        assert list(fits) == [(4, 2, 1, 2)]
        assert fits[(4, 2, 1, 2)]["perfect"] == pytest.approx(10 / (4 * np.log2(10)), rel=1e-12)
        low, high = (replace(line[1], r_perfect_mean=line[1].r_perfect_mean + d) for d in (-1, 1))
        assert fitted_slopes_from_rows([line[0], low, line[2], high]) == fits
        other = [replace(r, n_t=6, n_r=3, n_e=3) for r in line]
        two = line + [replace(line[1], nf_bits=20)]
        assert fitted_slopes_from_rows(two) == {}
        assert list(fitted_slopes_from_rows(two + other)) == [(6, 3, 1, 3)]


    def test_bitwise_equal_to_row_loop(self):
        """Array grouping averages duplicates and fits exactly as the per-row loop did."""

        def mean(vals):
            return sum(vals) / len(vals)

        def row_loop(rows):
            curves: dict = {}
            for r in rows:
                curves.setdefault((r.n_t, r.n_r, r.n_j, r.n_e), []).append(r)
            out = {}
            for key, items in sorted(curves.items()):
                by_snr: dict = {}
                for r in items:
                    by_snr.setdefault(r.snr_db, []).append(r)
                snrs = np.array(sorted(by_snr))
                perf = np.array([mean([r.r_perfect_mean for r in by_snr[s]]) for s in snrs])
                quant = np.array([mean([r.r_quantized_mean for r in by_snr[s]]) for s in snrs])
                out[key] = {
                    "perfect": fit_slope(snrs, perf),
                    "quantized": fit_slope(snrs, quant),
                }
            return out

        rows = run_experiment(scenario_config("slope", [2, 3, 4], trials=2, seed=9))
        assert fitted_slopes_from_rows(rows) == row_loop(rows)
        # one to eight distinct values per (curve, SNR), rows in shuffled order;
        # both sum each group in row order, so the averages must agree bitwise
        copies = [
            replace(r, r_perfect_mean=r.r_perfect_mean * (1 + 0.1 * j), r_quantized_mean=0.3 * j)
            for i, r in enumerate(rows)
            for j in range(i % 8)
        ]
        pool = rows + copies
        mixed = [pool[i] for i in np.random.default_rng(0).permutation(len(pool))]
        assert fitted_slopes_from_rows(mixed) == row_loop(mixed)
        assert fitted_slopes_from_rows([]) == {}


class TestSlopeParity:
    """Every curve of an SNR sweep, one budget per SNR, has a slope fitted from its rows."""

    @pytest.mark.parametrize(
        "scenario, n_rs, sweep",
        [
            ("slope", None, {}),
            ("saturation", None, {}),
            # the top 20 dB holds two points, so the fit widens to the sweep
            ("slope", [2], dict(snr_min=0.0, snr_max=60.0, snr_step=15.0)),
            # one fixed budget at each of 10, 20 and 30 dB
            ("gap_vs_bits", None, dict(nf_grid=(40,))),
        ],
        ids=["slope", "saturation", "widened", "one-budget-grid"],
    )
    def test_run_matches_rows(self, scenario, n_rs, sweep):
        rows = run_experiment(scenario_config(scenario, n_rs, trials=2, seed=5, **sweep))
        assert len(fitted_slopes_from_rows(rows)) == len({(r.n_r, r.n_t) for r in rows})

    def test_gap_vs_bits(self):
        """A bit-grid sweep has no slope."""
        rows = run_experiment(scenario_config("gap_vs_bits", trials=2, seed=5))
        assert fitted_slopes_from_rows(rows) == {}

    def test_mixed_rows_fit_only_snr_sweeps(self):
        """Grid rows of another curve leave a sweep's slope unchanged; grid rows of the same
        curve put several budgets at its SNRs, so that curve has no slope."""
        sweep = scenario_config("saturation", trials=2, seed=5, snr_max=30.0)
        slope = run_experiment(sweep)
        fits = fitted_slopes_from_rows(slope)
        assert list(fits) == [(6, 3, 1, 3)]
        for n_r, expected in ((2, fits), (3, {})):
            gap = run_experiment(scenario_config("gap_vs_bits", [n_r], trials=2, seed=5))
            assert fitted_slopes_from_rows(gap + slope) == expected


class TestExperimentOutputs:
    def test_row_metadata(self):
        cfg = _small_cfg(trials=2)
        rows = run_experiment(cfg)
        assert len(rows) == 3
        for row in rows:
            assert row.scenario == "slope"
            assert row.trials == 2
            assert (row.n_t, row.n_r, row.n_j, row.n_e) == (4, 2, 1, 2)
            assert row.r_perfect_mean >= 0 and row.r_quantized_mean >= 0
            assert row.leakage_mean >= 0

    def test_slopes_skipped_for_short_sweep(self):
        cfg = scenario_config(
            "slope", [2], trials=1, snr_min=20.0, snr_max=60.0, snr_step=40.0
        )
        assert fitted_slopes_from_rows(run_experiment(cfg)) == {}

    def test_gap_scenario_rows(self):
        cfg = scenario_config("gap_vs_bits", trials=2, seed=1, nf_grid=(10, 30))
        rows = run_experiment(cfg)
        assert len(rows) == 6
        assert fitted_slopes_from_rows(rows) == {}
        # within one SNR, more bits means smaller mean gap
        by_snr = {}
        for r in rows:
            by_snr.setdefault(r.snr_db, {})[r.nf_bits] = r.gap_mean
        for gaps in by_snr.values():
            assert gaps[30] < gaps[10]
