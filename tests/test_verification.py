"""Regression tests for the verification suites at reduced instance counts."""

import numpy as np
import pytest

from secmimo.grassmann import perturb_basis, quantization_target
from secmimo.linalg import adjoint, random_gaussian_matrix, random_truncated_unitary
from secmimo.transceiver import rx_postfilter, sample_channels
from secmimo.verification import (
    SLOPE_CONFIGS,
    SMALL_CONFIGS,
    _quantized,
    _trial_matrices,
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
def test_trial_draws_match_scalar_reference(acfg, seed):
    """The suites' engine-built trial consumes and yields what the scalar calls would.

    Channels and B bitwise as sample_channels then random_truncated_unitary
    draw them; W1 bitwise the leading columns of perturb_basis on a
    random_gaussian_matrix direction, one per target; W2 its complement;
    and the generator left in the same state.
    """
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    channels, filters, _, prec_q = _trial_matrices(acfg, 20, rng)
    extra = _quantized(acfg, filters.F, np.array([0.3, 0.05]), rng)

    ref_channels = sample_channels(acfg, ref)
    b = random_truncated_unitary(acfg.n_t, acfg.d_s, ref)
    for name in ("Hd", "He", "Hj"):
        np.testing.assert_array_equal(getattr(channels, name), getattr(ref_channels, name))
    np.testing.assert_array_equal(filters.B, b)
    f = rx_postfilter(ref_channels.Hd, ref_channels.Hj, b).F
    n_t, n_r = acfg.n_t, acfg.n_r
    for w1, w2, target in (
        (prec_q.W1, prec_q.W2, quantization_target(20, n_t, n_r)),
        (extra.W1[0], extra.W2[0], 0.3),
        (extra.W1[1], extra.W2[1], 0.05),
    ):
        ref_w1 = perturb_basis(f, random_gaussian_matrix(n_t, n_r, ref), target)[:, :n_r]
        np.testing.assert_array_equal(w1, ref_w1)
        assert np.linalg.norm(adjoint(ref_w1) @ w2) <= 1e-12
    np.testing.assert_array_equal(rng.standard_normal(8), ref.standard_normal(8))
