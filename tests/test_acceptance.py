"""Acceptance suite: end-to-end criteria at their stated tolerances.

Each criterion prints one PASS/FAIL line (visible with `pytest -s`); the
assertions carry the same conditions. Criteria 1-5 run the three headline
experiments at desk scale; 6-8 are exactness/inequality sweeps; 9 pins the
determinism contract.
Criterion 10 holds the n_r = 4 gap slope near 0, tightly enough to catch a bit law 3% short.
Criterion 11 holds the decay of the mean gap and leakage at P^(-epsilon), as tightly.

Each criterion has a negative control, a `test_criterion_N_catches_*` test that patches the
program and sees the criterion's own condition fail, or a stated exemption (:data:`EXEMPT`).
"""

import functools
import math

import numpy as np
import pytest

from secmimo import harness
from secmimo.grassmann import quantization_target
from secmimo.harness import fitted_slopes_from_rows, render_csv, run_experiment, scenario_config
from secmimo.rates import fit_slope
from secmimo.transceiver import AntennaConfig, PowerPolicy, leakage_bound
from secmimo.verification import SUITES, run_suite

ACCEPT_SEED = 20240901

# Criterion -> name of its negative control, filled by @_catches.
CATCHES = {}

# Criteria with no negative control here, and why.
EXEMPT = {
    2: "no plausible patch fails it: a 20%-short bit law and a doubled channel variance both "
    "keep its 60 dB gap under 0.25 bits",
    # each wraps verify suites, whose mutation tests are in test_verification.py
    5: ("leakage-bounded-in-P",),
    6: ("orthogonality",),
    7: ("oracle-equivalence",),
    8: ("lemma-variational", "lemma-sandwich", "beta-remainder", "eve-rate-limit"),
}


def _catches(criterion: int):
    """Register the decorated test as `criterion`'s negative control."""

    def register(test):
        CATCHES[criterion] = test.__name__
        return test

    return register


def _short_law(factor, power, epsilon, acfg):
    """A bit law `factor` of the paper's: ceil(factor (1 + epsilon) k (n_t - k) log2 P)."""
    if power <= 1.0:
        return 1
    return math.ceil(factor * (1.0 + epsilon) * acfg.k * (acfg.n_t - acfg.k) * math.log2(power))


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")


@pytest.fixture(scope="module")
def slope_result():
    cfg = scenario_config("slope", [2, 3, 4], trials=500, seed=ACCEPT_SEED)
    return run_experiment(cfg)


def _sdof_slopes(rows) -> tuple[bool, str]:
    """Whether both slopes of every curve lie within 0.15 of n_r - n_j, and the slopes."""
    ok = True
    details = []
    for n_r, d_s in ((2, 1), (3, 2), (4, 3)):
        fit = fitted_slopes_from_rows(rows)[(2 * n_r, n_r, 1, n_r)]
        details.append(
            f"n_r={n_r}: perfect {fit['perfect']:.3f}, quantized {fit['quantized']:.3f} "
            f"(target {d_s})"
        )
        ok = ok and abs(fit["perfect"] - d_s) <= 0.15 and abs(fit["quantized"] - d_s) <= 0.15
    return ok, "; ".join(details)


def test_criterion_1_sdof_slopes(slope_result):
    """Slopes of both mean curves within 0.15 of n_r - n_j over 40-60 dB."""
    ok, detail = _sdof_slopes(slope_result)
    _report("criterion-1 sdof-slopes", ok, detail)
    assert ok


@_catches(1)
def test_criterion_1_catches_a_short_bit_law(monkeypatch):
    """A bit law 20% short of the paper's, quantized slopes near 0.8 d_s, fails criterion 1."""
    monkeypatch.setattr(harness, "feedback_bits", functools.partial(_short_law, 0.8))
    cfg = scenario_config("slope", [2, 3, 4], trials=500, seed=ACCEPT_SEED)
    ok, detail = _sdof_slopes(run_experiment(cfg))
    assert not ok, f"a 20%-short bit law kept the slopes at {detail}"


def test_criterion_2_vanishing_gap():
    """With the 1.5x bit law, the raw gap shrinks and is under 0.25 bits at 60 dB."""
    cfg = scenario_config(
        "slope",
        [2],
        trials=200,
        seed=ACCEPT_SEED + 1,
        epsilon=0.5,
        snr_min=20.0,
        snr_max=60.0,
        snr_step=10.0,
    )
    rows = run_experiment(cfg)
    gaps = {row.snr_db: row.gap_mean for row in rows}
    ok = gaps[60.0] < gaps[20.0] and gaps[60.0] < 0.25
    _report(
        "criterion-2 vanishing-gap",
        ok,
        f"gap(20dB)={gaps[20.0]:.4f}, gap(60dB)={gaps[60.0]:.4f} (< 0.25)",
    )
    assert ok


def _saturation() -> tuple[bool, dict]:
    """Whether the fixed-30-bit curve saturates with its perfect slope near 2, and its slopes."""
    cfg = scenario_config("saturation", trials=200, seed=ACCEPT_SEED + 2)
    fit = fitted_slopes_from_rows(run_experiment(cfg))[(6, 3, 1, 3)]
    return fit["quantized"] < 0.3 and abs(fit["perfect"] - 2.0) <= 0.15, fit


def test_criterion_3_saturation():
    """Fixed 30 bits: quantized slope < 0.3 while perfect stays near 2."""
    ok, fit = _saturation()
    _report(
        "criterion-3 saturation",
        ok,
        f"quantized slope {fit['quantized']:.3f} (< 0.3), perfect {fit['perfect']:.3f} (2 +- 0.15)",
    )
    assert ok


@_catches(3)
def test_criterion_3_catches_targets_at_zero(monkeypatch):
    """Quantizer targets forced to 0, so the fixed budget costs nothing, fail criterion 3."""
    monkeypatch.setattr(harness, "quantization_target", lambda n_f, acfg: np.zeros(len(n_f)))
    ok, fit = _saturation()
    assert not ok, f"targets at 0 kept the slopes at {fit}"


def _gap_vs_bits() -> tuple[bool, dict]:
    """Whether every SNR's mean gap falls strictly in bits and is below 0.1 at 90 bits and
    10 dB, and the gaps by SNR and bits."""
    cfg = scenario_config(
        "gap_vs_bits",
        trials=200,
        seed=ACCEPT_SEED + 3,
        nf_grid=(10, 30, 50, 70, 90),
    )
    by_snr: dict = {}
    for row in run_experiment(cfg):
        by_snr.setdefault(row.snr_db, {})[row.nf_bits] = row.gap_mean
    ok = True
    for snr, gaps in sorted(by_snr.items()):
        seq = [gaps[nf] for nf in (10, 30, 50, 70, 90)]
        ok = ok and all(b < a for a, b in zip(seq, seq[1:]))
    return ok and by_snr[10.0][90] < 0.1, by_snr


def test_criterion_4_gap_vs_bits():
    """Mean gap strictly decreasing in bits; below 0.1 at 90 bits and 10 dB."""
    ok, by_snr = _gap_vs_bits()
    _report(
        "criterion-4 gap-vs-bits",
        ok,
        f"gap@10dB: " + ", ".join(f"{nf}b={by_snr[10.0][nf]:.3f}" for nf in (10, 30, 50, 70, 90)),
    )
    assert ok


@_catches(4)
def test_criterion_4_catches_a_budget_ignored(monkeypatch):
    """Every target at the 30-bit one, so the gap cannot fall with the budget, fails criterion 4."""

    def at_30_bits(n_f, acfg):
        return quantization_target(np.full(len(n_f), 30), acfg)

    monkeypatch.setattr(harness, "quantization_target", at_30_bits)
    ok, by_snr = _gap_vs_bits()
    assert not ok, f"a budget ignored kept the gaps at {by_snr}"


def test_criterion_5_leakage_boundedness():
    """Leakage stays power-independent under the matched schedule; exact constant."""
    suite = run_suite("leakage-bounded-in-P", 200, ACCEPT_SEED + 4)
    constant = 8 * 0.5 / (2 * 0.5 ** (2 / 8))
    bound = leakage_bound(PowerPolicy(P=2.0**10, rho=0.5, config=AntennaConfig(4, 2, 1, 2)), 40)
    exact = abs(bound - constant) < 1e-12 and abs(constant - 2.3784) < 5e-5
    ok = suite.passed and exact
    _report(
        "criterion-5 leakage-bounded",
        ok,
        f"{suite.detail}; analytic constant {bound:.6f} (= {constant:.6f} ~ 2.3784)",
    )
    assert ok


def test_criterion_6_orthogonality_invariants():
    """All nulling/orthogonality norms below 1e-10 on 1000 trials, zero failures."""
    suite = run_suite("orthogonality", 1000, ACCEPT_SEED + 5)
    _report(
        "criterion-6 orthogonality",
        suite.passed,
        f"{suite.total - suite.failures}/{suite.total} trials clean, {suite.detail}",
    )
    assert suite.failures == 0


def test_criterion_7_oracle_equivalence():
    """Closed-form rate terms match the MI oracle within 1e-8 on 500 instances."""
    suite = run_suite("oracle-equivalence", 500, ACCEPT_SEED + 6)
    _report(
        "criterion-7 oracle-equivalence",
        suite.passed,
        f"{suite.total - suite.failures}/{suite.total} instances, {suite.detail}",
    )
    assert suite.failures == 0


def test_criterion_8_lemma_suite():
    """Variational maximizer, perturbation sandwich, beta behavior, Eve limit."""
    outcomes = [
        run_suite("lemma-variational", 100, ACCEPT_SEED + 7),
        run_suite("lemma-sandwich", 1000, ACCEPT_SEED + 8),
        run_suite("beta-remainder", 200, ACCEPT_SEED + 9),
        run_suite("eve-rate-limit", 100, ACCEPT_SEED + 10),
    ]
    ok = all(s.passed for s in outcomes)
    detail = "; ".join(
        f"{s.name} {s.total - s.failures}/{s.total}" + (f" ({s.detail})" if s.detail else "")
        for s in outcomes
    )
    _report("criterion-8 lemma-suite", ok, detail)
    assert ok


def _blocks_agree(monkeypatch) -> tuple[bool, list, list]:
    """Whether blocks of 1, 8 and 16 trials and a rerun give byte-identical CSVs and
    bitwise-equal per-trial arrays, and the CSVs and arrays in that order."""
    cfg = scenario_config(
        "slope",
        [2],
        trials=16,
        seed=ACCEPT_SEED + 11,
        snr_min=10.0,
        snr_max=40.0,
        snr_step=10.0,
    )
    points = harness._curve_points(cfg, cfg.antenna_configs[0])
    texts, per_trial = [], []
    for block in (1, 8, cfg.trials):
        monkeypatch.setattr(harness, "BLOCK_POINTS", block * len(points))
        texts.append(render_csv(run_experiment(cfg)))
        per_trial.append(harness._curve_trials(cfg, 0, points))
    texts.append(render_csv(run_experiment(cfg)))
    ok = len(set(texts)) == 1 and all(np.array_equal(arr, per_trial[0]) for arr in per_trial)
    return ok, texts, per_trial


def test_criterion_9_determinism(monkeypatch):
    """Identical seed and config give byte-identical CSV and bitwise-equal
    per-trial arrays for blocks of 1, 8 and a whole curve, and on a rerun."""
    ok, texts, per_trial = _blocks_agree(monkeypatch)
    _report(
        "criterion-9 determinism",
        ok,
        f"{len(texts[0].encode())} bytes and {per_trial[0].size} per-trial values identical "
        "across blocks of 1/8/16 trials and a rerun",
    )
    assert ok


@_catches(9)
def test_criterion_9_catches_a_generator_per_curve(monkeypatch):
    """One generator shared by a curve's trials, reseeded at trial 0, fails criterion 9: its
    draws follow the chunking, so blocks of 1 and 8 trials write different CSVs."""
    shared = {}

    def shared_rng(seed, curve, trial):
        if trial == 0:
            shared[seed, curve] = np.random.default_rng([seed, curve])
        return shared[seed, curve]

    monkeypatch.setattr(harness, "_trial_rng", shared_rng)
    ok, texts, _ = _blocks_agree(monkeypatch)
    assert not ok and texts[0] != texts[1]


def _gap_slope(rows) -> float:
    """Slope of the n_r = 4 curve's mean raw gap (perfect - quantized) over 40-60 dB."""
    rows = [row for row in rows if row.n_r == 4]
    return fit_slope([r.snr_db for r in rows], [r.gap_mean for r in rows], (40.0, 60.0))


def test_criterion_10_paired_gap_slope(slope_result):
    """At epsilon = 0 the n_r = 4 gap slope is at most 0.03 in absolute value over 40-60 dB."""
    slope = _gap_slope(slope_result)
    ok = abs(slope) <= 0.03
    _report("criterion-10 paired-gap-slope", ok, f"n_r=4: gap slope {slope:.4f} (|.| <= 0.03)")
    assert ok


@_catches(10)
def test_criterion_10_catches_a_short_bit_law(monkeypatch):
    """A bit law 3% short of the paper's fails criterion 10."""
    monkeypatch.setattr(harness, "feedback_bits", functools.partial(_short_law, 0.97))
    slope = _gap_slope(run_experiment(scenario_config("slope", [4], trials=500, seed=ACCEPT_SEED)))
    assert abs(slope) > 0.03, f"a 3%-short bit law kept the gap slope at {slope:.4f}"


def _decay_slopes() -> dict:
    """Each curve's slopes of log2(gap_mean) and log2(leakage_mean) against log2 P over
    40-80 dB at epsilon = 0.5, keyed (n_r, column); NaN where a mean is not positive."""
    cfg = scenario_config(
        "slope",
        [2, 3, 4],
        trials=200,
        seed=ACCEPT_SEED + 12,
        epsilon=0.5,
        snr_min=40.0,
        snr_max=80.0,
        snr_step=5.0,
    )
    result = run_experiment(cfg)
    slopes = {}
    for n_r in (2, 3, 4):
        rows = [row for row in result if row.n_r == n_r]
        for column in ("gap_mean", "leakage_mean"):
            means = np.array([getattr(row, column) for row in rows])
            slopes[(n_r, column)] = (
                fit_slope([row.snr_db for row in rows], np.log2(means), (40.0, 80.0))
                if means.min() > 0.0
                else math.nan
            )
    return slopes


def _decays_at_half(slopes: dict) -> bool:
    return all(abs(slope + 0.5) <= 0.025 for slope in slopes.values())


def test_criterion_11_loss_decays_like_p_to_minus_epsilon():
    """At epsilon = 0.5, the mean gap and the mean leakage of every curve decay like P^(-1/2):
    each log2 slope against log2 P over 40-80 dB lies within 0.025 of -0.5."""
    slopes = _decay_slopes()
    ok = _decays_at_half(slopes)
    detail = "; ".join(f"n_r={n_r} {column} {slope:.4f}" for (n_r, column), slope in slopes.items())
    _report("criterion-11 loss-decay", ok, f"{detail} (within 0.025 of -0.5)")
    assert ok


@_catches(11)
def test_criterion_11_catches_a_short_bit_law(monkeypatch):
    """A bit law 3% short of the paper's, an exponent near -0.455, fails criterion 11."""
    monkeypatch.setattr(harness, "feedback_bits", functools.partial(_short_law, 0.97))
    slopes = _decay_slopes()
    assert not _decays_at_half(slopes), f"a 3%-short bit law kept the decay slopes at {slopes}"


def test_every_criterion_has_a_negative_control():
    """Criteria 1-11 each have a registered `catches` test or an exemption, not both; an
    exemption by wrapped suites names entries of SUITES, each of which test_verification.py
    holds to a mutation test."""
    tests = [name for name in globals() if name.startswith("test_criterion_")]
    criteria = {int(name.split("_")[2]) for name in tests}
    assert criteria == set(range(1, 12))
    assert CATCHES.keys() | EXEMPT.keys() == criteria and not CATCHES.keys() & EXEMPT.keys()
    for criterion, name in CATCHES.items():
        assert name.startswith(f"test_criterion_{criterion}_catches_") and name in globals()
    for reason in EXEMPT.values():
        assert isinstance(reason, str) or set(reason) <= SUITES.keys(), reason
