"""Acceptance suite: end-to-end criteria at their stated tolerances.

Each criterion prints one PASS/FAIL line (visible with `pytest -s`); the
assertions carry the same conditions. Criteria 1-5 run the three headline
experiments at desk scale; 6-8 are exactness/inequality sweeps; 9 pins the
determinism contract.
Criterion 10 holds the n_r = 4 gap slope near 0, tightly enough to catch a bit law 3% short.
Criterion 11 holds the decay of the mean gap and leakage at P^(-epsilon), as tightly.
"""

import math

import numpy as np
import pytest

from secmimo import harness
from secmimo.harness import fitted_slopes_from_rows, render_csv, run_experiment, scenario_config
from secmimo.rates import fit_slope
from secmimo.transceiver import AntennaConfig, PowerPolicy, leakage_bound
from secmimo.verification import run_suite

ACCEPT_SEED = 20240901


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")


@pytest.fixture(scope="module")
def slope_result():
    cfg = scenario_config("slope", [2, 3, 4], trials=500, seed=ACCEPT_SEED)
    return run_experiment(cfg)


def test_criterion_1_sdof_slopes(slope_result):
    """Slopes of both mean curves within 0.15 of n_r - n_j over 40-60 dB."""
    ok = True
    details = []
    for n_r, d_s in ((2, 1), (3, 2), (4, 3)):
        fit = fitted_slopes_from_rows(slope_result)[(2 * n_r, n_r, 1, n_r)]
        details.append(
            f"n_r={n_r}: perfect {fit['perfect']:.3f}, quantized {fit['quantized']:.3f} "
            f"(target {d_s})"
        )
        ok = ok and abs(fit["perfect"] - d_s) <= 0.15 and abs(fit["quantized"] - d_s) <= 0.15
    _report("criterion-1 sdof-slopes", ok, "; ".join(details))
    assert ok


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


def test_criterion_3_saturation():
    """Fixed 30 bits: quantized slope < 0.3 while perfect stays near 2."""
    cfg = scenario_config("saturation", trials=200, seed=ACCEPT_SEED + 2)
    fit = fitted_slopes_from_rows(run_experiment(cfg))[(6, 3, 1, 3)]
    ok = fit["quantized"] < 0.3 and abs(fit["perfect"] - 2.0) <= 0.15
    _report(
        "criterion-3 saturation",
        ok,
        f"quantized slope {fit['quantized']:.3f} (< 0.3), perfect {fit['perfect']:.3f} (2 +- 0.15)",
    )
    assert ok


def test_criterion_4_gap_vs_bits():
    """Mean gap strictly decreasing in bits; below 0.1 at 90 bits and 10 dB."""
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
    ok = ok and by_snr[10.0][90] < 0.1
    _report(
        "criterion-4 gap-vs-bits",
        ok,
        f"gap@10dB: " + ", ".join(f"{nf}b={by_snr[10.0][nf]:.3f}" for nf in (10, 30, 50, 70, 90)),
    )
    assert ok


def test_criterion_5_leakage_boundedness():
    """Leakage stays power-independent under the matched schedule; exact constant."""
    suite = run_suite("leakage-bounded-in-P", 200, ACCEPT_SEED + 4)
    constant = 8 * 0.5 / (2 * 0.5 ** (2 / 8))
    bound = leakage_bound(PowerPolicy(P=2.0**10, rho=0.5), 40, AntennaConfig(4, 2, 1, 2))
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


def test_criterion_9_determinism(monkeypatch):
    """Identical seed and config give byte-identical CSV and bitwise-equal
    per-trial arrays for blocks of 1, 8 and a whole curve, and on a rerun."""
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
    rerun = render_csv(run_experiment(cfg))
    ok = texts[0] == texts[1] == texts[2] == rerun and all(
        np.array_equal(arr, per_trial[0]) for arr in per_trial[1:]
    )
    _report(
        "criterion-9 determinism",
        ok,
        f"{len(texts[0].encode())} bytes and {per_trial[0].size} per-trial values identical "
        "across blocks of 1/8/16 trials and a rerun",
    )
    assert ok


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


def _short_law(power, epsilon, n_t, n_r):
    """A bit law 3% short of the paper's: ceil(0.97 (1 + epsilon) n_r (n_t - n_r) log2 P)."""
    if power <= 1.0:
        return 1
    return math.ceil(0.97 * (1.0 + epsilon) * n_r * (n_t - n_r) * math.log2(power))


def test_criterion_10_catches_a_short_bit_law(monkeypatch):
    """A bit law 3% short of the paper's fails criterion 10."""
    monkeypatch.setattr(harness, "feedback_bits", _short_law)
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


def test_criterion_11_catches_a_short_bit_law(monkeypatch):
    """A bit law 3% short of the paper's, an exponent near -0.455, fails criterion 11."""
    monkeypatch.setattr(harness, "feedback_bits", _short_law)
    slopes = _decay_slopes()
    assert not _decays_at_half(slopes), f"a 3%-short bit law kept the decay slopes at {slopes}"
