"""Regression tests for the verification suites at reduced instance counts."""

import math

import numpy as np
import pytest

from secmimo import harness, verification
from secmimo.grassmann import quantization_target
from secmimo.linalg import (
    adjoint,
    hermitian_part,
    random_gaussian_matrix,
    random_truncated_unitary,
)
from secmimo.transceiver import rx_postfilter, sample_channels, tx_precoders_quantized
from secmimo.verification import (
    SLOPE_CONFIGS,
    SMALL_CONFIGS,
    _per_trial,
    beta_suite,
    chordal_metric_suite,
    eve_limit_suite,
    leakage_bound_suite,
    leakage_bounded_in_power_suite,
    lemma_sandwich_suite,
    lemma_variational_suite,
    oracle_equivalence_suite,
    orthogonality_suite,
    perturb_accuracy_suite,
    run_verification,
)


@pytest.mark.parametrize(
    "suite,kwargs",
    [
        (orthogonality_suite, {"trials": 60}),
        (oracle_equivalence_suite, {"trials": 60}),
        (lemma_variational_suite, {"trials": 40}),
        (lemma_sandwich_suite, {"trials": 100}),
        (beta_suite, {"trials": 40}),
        (eve_limit_suite, {"trials": 30}),
        (leakage_bound_suite, {"trials": 1000}),
        (leakage_bounded_in_power_suite, {"trials": 60}),
        (perturb_accuracy_suite, {"trials": 60}),
        (chordal_metric_suite, {"trials": 200}),
    ],
)
def test_suite_passes(suite, kwargs):
    outcome = suite(**kwargs)
    assert outcome.passed, f"{outcome.name}: {outcome.failures}/{outcome.total} ({outcome.detail})"


def test_run_verification_returns_all_suites():
    outcomes = run_verification(trials=10, seed=1)
    assert len(outcomes) == 10
    assert all(o.passed for o in outcomes)
    names = {o.name for o in outcomes}
    assert "orthogonality" in names and "oracle-equivalence" in names


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize(
    "acfg",
    list(dict.fromkeys(SMALL_CONFIGS + SLOPE_CONFIGS)),
    ids=lambda c: f"{c.n_t}-{c.n_r}-{c.n_j}-{c.n_e}",
)
def test_trial_draws_match_scalar_reference(acfg, seed, monkeypatch):
    """Trial t of a suite chunk draws what it draws alone and what the scalar calls give.

    On its own generator: channels bitwise as sample_channels draws them, G
    as rx_postfilter builds it from them and random_truncated_unitary's B,
    the direction as
    random_gaussian_matrix, then the uniforms; W1 bitwise the W1 of
    tx_precoders_quantized on that direction and W2 its complement.
    """
    n_t, n_r = acfg.n_t, acfg.n_r
    target = quantization_target(20, n_t, n_r)

    def draws():
        """Each chunk's draws of trials 0, 1 and 2, in order."""
        chunks = []

        def keep(*chunk):
            chunks.append(chunk)
            return np.zeros(len(chunk[-1]))

        _per_trial(keep, 3, seed, (acfg,), uniforms=2)
        return chunks

    ((_, channels, filters, z, u),) = draws()
    monkeypatch.setattr(harness, "BLOCK_POINTS", 1)
    alone = draws()
    prec_q = tx_precoders_quantized(filters.F, z, target)
    for t in range(3):
        _, ch1, filters1, z1, u1 = alone[t]
        for stacked, single in ((channels, ch1), (filters, filters1)):
            for name, m in vars(stacked).items():
                np.testing.assert_array_equal(m[t], getattr(single, name)[0], err_msg=name)
        np.testing.assert_array_equal(z[t], z1[0])
        np.testing.assert_array_equal(u[t], u1[0])

        rng = harness._trial_rng(seed, 0, t)
        ref = sample_channels(acfg, rng)
        b = random_truncated_unitary(n_t, acfg.d_s, rng)
        for name in ("Hd", "He", "Hj"):
            np.testing.assert_array_equal(getattr(channels, name)[t, 0], getattr(ref, name))
        ref_filters = rx_postfilter(ref.Hd, ref.Hj, b)
        np.testing.assert_array_equal(filters.G[t, 0], ref_filters.G)
        ref_z = random_gaussian_matrix(n_t, n_r, rng)
        np.testing.assert_array_equal(z[t, 0], ref_z)
        np.testing.assert_array_equal(u[t], rng.random(2))
        ref_w1 = tx_precoders_quantized(ref_filters.F, ref_z, target).W1
        np.testing.assert_array_equal(prec_q.W1[t, 0], ref_w1)
        assert np.linalg.norm(adjoint(ref_w1) @ prec_q.W2[t, 0]) <= 1e-12


def test_lemma_variational_draws_match_per_matrix_loop():
    """The suite's one standard-normal call draws, bit for bit, a loop of one call per matrix.

    Trial t's E and then its three S' come from the suite seed's generator,
    one random_gaussian_matrix(3, 3) each, as M M* + I.
    """
    stacked = verification._random_pd(3, np.random.default_rng(3), (5, 4))
    rng = np.random.default_rng(3)
    for t, j in np.ndindex(5, 4):
        m = random_gaussian_matrix(3, 3, rng)
        np.testing.assert_array_equal(stacked[t, j], hermitian_part(m @ m.conj().T) + np.eye(3))


_TRIAL_SUITES = [
    orthogonality_suite,
    oracle_equivalence_suite,
    beta_suite,
    eve_limit_suite,
    leakage_bound_suite,
    leakage_bounded_in_power_suite,
    perturb_accuracy_suite,
]


@pytest.mark.parametrize("suite", _TRIAL_SUITES, ids=lambda s: s.__name__)
def test_suite_result_independent_of_chunk_size(suite, monkeypatch):
    """Chunks of 1, 7 or 240 trials give the same SuiteResult, detail included."""
    results = []
    for block in (1, 7, 240):
        monkeypatch.setattr(harness, "BLOCK_POINTS", block)
        results.append(suite(trials=25, seed=11))
    assert results[0] == results[1] == results[2]


@pytest.mark.parametrize("verify_seed", [5, 11, 22, 42, 44, 49, 53, 54])
def test_leakage_bounded_in_power_at_noisy_seeds(verify_seed):
    """Verify seeds at which one direction per power put P = 1e6 over the 5% margin."""
    outcome = leakage_bounded_in_power_suite(trials=200, seed=verify_seed + 7)
    assert outcome.passed, outcome.detail


@pytest.mark.parametrize("verify_seed", [5, 11, 22, 42])
def test_leakage_bounded_in_power_detects_under_scaled_bits(verify_seed, monkeypatch):
    """With ceil(0.97 n_r (n_t - n_r) log2 P) bits, leakage grows with P and the suite fails."""

    def under_scaled(acfg, powers):
        half_dim = acfg.n_r * (acfg.n_t - acfg.n_r)
        bits = [math.ceil(0.97 * half_dim * math.log2(p)) for p in powers]
        return np.array([quantization_target(nf, acfg.n_t, acfg.n_r) for nf in bits])

    monkeypatch.setattr(verification, "_matched_targets", under_scaled)
    outcome = leakage_bounded_in_power_suite(trials=200, seed=verify_seed + 7)
    assert not outcome.passed, outcome.detail


@pytest.mark.parametrize("suite_seed", [9, 117])
def test_eve_limit_at_near_singular_seeds(suite_seed):
    """Draws with a nearly singular He W2 stay inside their sandwich intervals.

    Suite seed 9 (verify seed 4) broke the old fixed 1e-3 tolerance with
    |term - limit| = 2.8e-3 on one-generator streams; on per-trial streams
    suite seed 117 has a trial at 6.3e-3.
    """
    outcome = eve_limit_suite(trials=200, seed=suite_seed)
    assert outcome.passed, outcome.detail


def test_eve_limit_detects_shifted_limit(monkeypatch):
    """A limit off by 1e-6 leaves every trial's interval."""
    limit = verification.eve_rate_limit
    monkeypatch.setattr(verification, "eve_rate_limit", lambda *args: limit(*args) + 1e-6)
    outcome = eve_limit_suite(trials=30, seed=6)
    assert outcome.failures == outcome.total, outcome.detail


def test_lemma_sandwich_counts_every_size_stack(monkeypatch):
    """A difference just above its upper bound fails every trial, whatever its size."""
    check = verification.logdet_perturbation_check

    def above_upper(a, delta):
        _, upper, lower = check(a, delta)
        return upper + 1e-6, upper, lower

    monkeypatch.setattr(verification, "logdet_perturbation_check", above_upper)
    outcome = lemma_sandwich_suite(trials=50, seed=4)
    assert outcome.failures == outcome.total == 50


def test_chordal_metric_counts_every_shape_stack(monkeypatch):
    """A distance offset by 1e-6 breaks representative invariance on every trial."""
    distance = verification.chordal_distance
    monkeypatch.setattr(verification, "chordal_distance", lambda a, b: distance(a, b) + 1e-6)
    outcome = chordal_metric_suite(trials=50, seed=10)
    assert outcome.failures == outcome.total == 50


def test_oracle_equivalence_runs_the_engine_route(monkeypatch):
    """The engine's E2 E2* scaled by 1 + 1e-6 in step_grams fails every trial."""
    step_grams = verification.step_grams

    def skewed(couplings, step):
        grams = step_grams(couplings, step)
        return grams._replace(e2=grams.e2 * (1.0 + 1e-6))

    monkeypatch.setattr(verification, "step_grams", skewed)
    outcome = oracle_equivalence_suite(trials=100, seed=2)
    assert outcome.failures == outcome.total == 100, outcome.detail
