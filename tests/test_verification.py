"""Regression tests for the verification suites at reduced instance counts."""

import math

import numpy as np
import pytest

from secmimo import harness, verification
from secmimo.errors import ConfigError
from secmimo.grassmann import quantization_target
from secmimo.linalg import (
    adjoint,
    hermitian_part,
    random_gaussian_matrix,
    random_truncated_unitary,
)
from secmimo.transceiver import Precoders, rx_postfilter, sample_channels, tx_precoders_quantized
from secmimo.verification import (
    SLOPE_CONFIGS,
    SMALL_CONFIGS,
    SUITES,
    _per_trial,
    run_suite,
    run_verification,
)

# Each suite's test id: the name of its function.
_suite_id = {name: suite.__name__.lstrip("_") for name, (suite, _) in SUITES.items()}

# The test that patches the program so that each suite must FAIL, by suite name.
_MUTATION_TESTS = {}


def _mutates(name):
    """Register the decorated test as suite `name`'s mutation test."""

    def register(test):
        _MUTATION_TESTS[name] = test.__name__
        return test

    return register


@pytest.mark.parametrize(
    "name,kwargs",
    # suite k at seed k + 1, as `verify --seed 1` runs it
    [
        (name, {"trials": trials, "seed": k + 1})
        for k, (name, trials) in enumerate(
            zip(SUITES, (60, 60, 40, 100, 40, 30, 1000, 60, 60, 200), strict=True)
        )
    ],
    ids=lambda value: _suite_id.get(value) if isinstance(value, str) else None,
)
def test_suite_passes(name, kwargs):
    outcome = run_suite(name, **kwargs)
    assert outcome.passed, f"{outcome.name}: {outcome.failures}/{outcome.total} ({outcome.detail})"


def test_run_verification_returns_all_suites():
    outcomes = run_verification(trials=10, seed=1)
    assert [o.name for o in outcomes] == list(SUITES)
    assert all(o.passed for o in outcomes)


@pytest.mark.parametrize(
    "args, message",
    [((0,), "trials must be >= 1, got 0"), ((5, -1), "seed must be >= 0, got -1")],
)
def test_run_verification_checks_its_inputs(args, message):
    """Too few trials or a negative seed is a ConfigError before any suite runs."""
    with pytest.raises(ConfigError, match=f"^{message}$"):
        run_verification(*args)


def test_every_suite_has_a_mutation_test():
    """Each entry of SUITES, and nothing else, has a test below that makes it FAIL."""
    assert _MUTATION_TESTS.keys() == SUITES.keys(), _MUTATION_TESTS


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


@pytest.mark.parametrize("name", SUITES, ids=_suite_id.get)
def test_suite_result_independent_of_chunk_size(name, monkeypatch):
    """Chunks of 1, 7 or 240 trials give the same SuiteResult, detail included."""
    results = []
    for block in (1, 7, 240):
        monkeypatch.setattr(harness, "BLOCK_POINTS", block)
        results.append(run_suite(name, 25, 11))
    assert results[0] == results[1] == results[2]


@pytest.mark.parametrize("verify_seed", [5, 11, 22, 42, 44, 49, 53, 54])
def test_leakage_bounded_in_power_at_noisy_seeds(verify_seed):
    """Verify seeds at which one direction per power put P = 1e6 over the 5% margin."""
    outcome = run_suite("leakage-bounded-in-P", 200, verify_seed + 7)
    assert outcome.passed, outcome.detail


@_mutates("leakage-bounded-in-P")
@pytest.mark.parametrize("verify_seed", [5, 11, 22, 42])
def test_leakage_bounded_in_power_detects_under_scaled_bits(verify_seed, monkeypatch):
    """With ceil(0.97 n_r (n_t - n_r) log2 P) bits, leakage grows with P and the suite fails."""

    def under_scaled(acfg, powers):
        half_dim = acfg.n_r * (acfg.n_t - acfg.n_r)
        bits = [math.ceil(0.97 * half_dim * math.log2(p)) for p in powers]
        return np.array([quantization_target(nf, acfg.n_t, acfg.n_r) for nf in bits])

    monkeypatch.setattr(verification, "_matched_targets", under_scaled)
    outcome = run_suite("leakage-bounded-in-P", 200, verify_seed + 7)
    assert not outcome.passed, outcome.detail


@pytest.mark.parametrize("suite_seed", [9, 117])
def test_eve_limit_at_near_singular_seeds(suite_seed):
    """Draws with a nearly singular He W2 stay inside their sandwich intervals.

    Suite seed 9 (verify seed 4) broke the old fixed 1e-3 tolerance with
    |term - limit| = 2.8e-3 on one-generator streams; on per-trial streams
    suite seed 117 has a trial at 6.3e-3.
    """
    outcome = run_suite("eve-rate-limit", 200, suite_seed)
    assert outcome.passed, outcome.detail


@_mutates("eve-rate-limit")
def test_eve_limit_detects_shifted_limit(monkeypatch):
    """A limit off by 1e-6 leaves every trial's interval."""
    limit = verification.eve_rate_limit
    monkeypatch.setattr(verification, "eve_rate_limit", lambda *args: limit(*args) + 1e-6)
    outcome = run_suite("eve-rate-limit", 30, 6)
    assert outcome.failures == outcome.total, outcome.detail


@_mutates("lemma-sandwich")
def test_lemma_sandwich_counts_every_size_stack(monkeypatch):
    """A difference just above its upper bound fails every trial, whatever its size."""
    check = verification.logdet_perturbation_check

    def above_upper(a, delta):
        _, upper, lower = check(a, delta)
        return upper + 1e-6, upper, lower

    monkeypatch.setattr(verification, "logdet_perturbation_check", above_upper)
    outcome = run_suite("lemma-sandwich", 50, 4)
    assert outcome.failures == outcome.total == 50


@_mutates("chordal-metric")
def test_chordal_metric_counts_every_shape_stack(monkeypatch):
    """A distance offset by 1e-6 breaks representative invariance on every trial."""
    distance = verification.chordal_distance
    monkeypatch.setattr(verification, "chordal_distance", lambda a, b: distance(a, b) + 1e-6)
    outcome = run_suite("chordal-metric", 50, 10)
    assert outcome.failures == outcome.total == 50


@_mutates("oracle-equivalence")
def test_oracle_equivalence_runs_the_engine_route(monkeypatch):
    """The engine's E2 E2* scaled by 1 + 1e-6 in step_grams fails every trial."""
    step_grams = verification.step_grams

    def skewed(couplings, step):
        grams = step_grams(couplings, step)
        return grams._replace(e2=grams.e2 * (1.0 + 1e-6))

    monkeypatch.setattr(verification, "step_grams", skewed)
    outcome = run_suite("oracle-equivalence", 100, 2)
    assert outcome.failures == outcome.total == 100, outcome.detail


@_mutates("orthogonality")
def test_orthogonality_detects_a_rotated_perfect_precoder(monkeypatch):
    """Perfect precoders rolled by one column stay unitary, but W2 no longer nulls Hd."""
    perfect = verification.tx_precoders_perfect

    def rolled(hd):
        prec = perfect(hd)
        n_r = prec.W1.shape[-1]
        w = np.roll(np.concatenate((prec.W1, prec.W2), axis=-1), 1, axis=-1)
        return Precoders(W1=w[..., :n_r], W2=w[..., n_r:])

    monkeypatch.setattr(verification, "tx_precoders_perfect", rolled)
    outcome = run_suite("orthogonality", 30, 1)
    assert outcome.failures == outcome.total == 30, outcome.detail


@_mutates("lemma-variational")
def test_lemma_variational_detects_shifted_objective(monkeypatch):
    """An objective 1e-6 high misses ln det(E^-1) at its maximizer on every trial."""
    objective = verification.logdet_variational_objective
    monkeypatch.setattr(
        verification, "logdet_variational_objective", lambda s, e: objective(s, e) + 1e-6
    )
    outcome = run_suite("lemma-variational", 50, 3)
    assert outcome.failures == outcome.total == 50


@_mutates("beta-remainder")
def test_beta_remainder_detects_swapped_powers(monkeypatch):
    """beta(P) read at the swapped powers grows from P = 1e3 to 1e6 on most trials.

    A small negative shift does not fail the suite: beta sits well above 0.
    """
    beta = verification.beta_P
    monkeypatch.setattr(verification, "beta_P", lambda *args: beta(*args)[..., ::-1])
    outcome = run_suite("beta-remainder", 40, 5)
    assert (outcome.failures, outcome.detail) == (36, "negative 0, not decayed 40")


@_mutates("leakage-bound")
def test_leakage_bound_detects_a_tenfold_smaller_bound(monkeypatch):
    """A bound 10x too small is exceeded far past the 1% of violations tolerated."""
    bound = verification.leakage_bound
    monkeypatch.setattr(verification, "leakage_bound", lambda *args: bound(*args) / 10.0)
    outcome = run_suite("leakage-bound", 200, 7)
    assert outcome.failures > 100, outcome.detail


@_mutates("perturb-accuracy")
def test_perturb_accuracy_detects_a_quantizer_past_its_target(monkeypatch):
    """A quantizer step that lands 1e-5 past its target misses it on every trial."""
    step = verification.perturb_gram
    monkeypatch.setattr(verification, "perturb_gram", lambda f, z, t: step(f, z, t + 1e-5))
    outcome = run_suite("perturb-accuracy", 30, 9)
    assert outcome.failures == outcome.total == 30, outcome.detail
