"""Numerical verification suites behind the `verify` CLI subcommand.

Each suite samples random instances and counts violations of one invariant
or inequality family: precoder/nuller orthogonality, the engine's rates
against the generic mutual-information oracle, the log-det variational and
perturbation inequalities, leakage bounds and their power-independence, the
perturbation quantizer's distance accuracy, and the chordal metric axioms.

:data:`SUITES` declares each suite once. :func:`run_suite` checks the inputs, names
the result and makes a numerical failure its suite's FAIL, so the CLI reports every suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import harness
from .errors import ConfigError, SecMimoError
from .grassmann import (
    PERTURB_TOL,
    chordal_distance,
    feedback_bits,
    perturb_gram,
    quantization_target,
)
from .linalg import (
    LOG2_E,
    ORTHO_TOL,
    adjoint,
    complex_gaussian,
    gaussian_mi,
    haar_columns,
    hermitian_part,
    logdet_pd,
)
from .rates import (
    _per_matrix,
    beta_P,
    eve_rate_limit,
    grams_rate,
    logdet_perturbation_check,
    logdet_variational_objective,
    step_grams,
    trial_couplings,
)
from .transceiver import (
    AntennaConfig,
    PowerPolicy,
    leakage_bound,
    rx_postfilter,
    sample_directions,
    sample_trials,
    tx_precoders_perfect,
    tx_precoders_quantized,
)

# Small systems used for randomized instance checks.
SMALL_CONFIGS = (
    AntennaConfig(3, 2, 1, 1),
    AntennaConfig(4, 2, 1, 2),
    AntennaConfig(4, 3, 1, 1),
    AntennaConfig(6, 3, 1, 3),
)

# The slope scenario's default curves, (2 n_r, n_r, 1, n_r) for n_r = 2, 3, 4.
SLOPE_CONFIGS = harness.scenario_config("slope").antenna_configs


@dataclass(frozen=True)
class SuiteResult:
    """Outcome of one verification suite."""

    name: str
    total: int
    failures: int
    detail: str

    @property
    def passed(self) -> bool:
        return self.failures == 0


def _per_trial(measure, trials: int, seed: int, configs, uniforms: int = 0) -> np.ndarray:
    """``measure(acfg, channels, filters, z, u)`` of trials 0 .. trials - 1, config by config.

    Trial t, on ``configs[t % len(configs)]``, is trial t of curve 0 in
    :func:`harness._map_trials`. It draws as the engine does, one direction,
    matrices of leading shape (trials, 1), then `uniforms` U(0, 1) numbers.
    """

    def config_trials(c: int, acfg: AntennaConfig) -> np.ndarray:
        def measured(rngs):
            channels, b = sample_trials(acfg, rngs)
            z = sample_directions(acfg, rngs, [True])
            u = np.array([rng.random(uniforms) for rng in rngs])
            return measure(acfg, channels, rx_postfilter(channels.Hd, channels.Hj, B=b), z, u)

        return harness._map_trials(measured, seed, 0, range(c, trials, len(configs)))

    return np.concatenate([config_trials(c, acfg) for c, acfg in enumerate(configs[:trials])])


_targets = np.vectorize(quantization_target, otypes=[float])  # one per bit budget


def _grams(channels, filters, z=None, targets=0.0):
    """A chunk's Gram set as the engine builds it; perfect CSI when `z` is None."""
    z = np.zeros_like(filters.F) if z is None else z
    step = perturb_gram(filters.F, z, targets)
    return step_grams(trial_couplings(channels, filters), step)


def _orthogonality_suite(trials: int, seed: int) -> tuple[int, str]:
    """Nulling and orthogonality invariants of every sampled trial.

    Checks, each below 1e-10: jammer annihilation ||V* Hj||, perfect-CSI
    artificial-noise nulling ||Hd W2||, and precoder orthogonality
    ||W1* W2|| of both precoders; with quantized feedback W1 is the fed-back
    subspace, so that last norm is the nulling against it.
    """

    def worst_norm(acfg, channels, filters, z, _):
        prec_p = tx_precoders_perfect(channels.Hd)
        prec_q = tx_precoders_quantized(filters.F, z, quantization_target(20, acfg.n_t, acfg.n_r))
        products = (
            adjoint(filters.V) @ channels.Hj,
            channels.Hd @ prec_p.W2,
            adjoint(prec_p.W1) @ prec_p.W2,
            adjoint(prec_q.W1) @ prec_q.W2,
        )
        return np.max([np.linalg.norm(m, axis=(-2, -1)) for m in products], axis=0)

    worst = _per_trial(worst_norm, trials, seed, SLOPE_CONFIGS)
    failures = int(np.count_nonzero(~(worst < ORTHO_TOL)))
    return failures, f"worst norm {worst.max():.3e}"


def _oracle_equivalence_suite(trials: int, seed: int) -> tuple[int, str]:
    """The engine's rate terms against the Gaussian mutual-information oracle.

    Each trial draws its bit budget in [4, 30), P in [1, 1e4] and rho in
    [0.2, 0.8]. :func:`grams_rate` rates the perfect and the quantized Gram
    sets, as in `run`; the oracle takes explicit precoders. Both terms
    compare directly at unit noise, the receiver's after the jammer nuller
    V with no whitening by G, which cannot change mutual information.
    Failure threshold 1e-8 per term.
    """

    def max_diff(acfg, channels, filters, z, u):
        targets = _targets(4 + (26 * u[:, :1]).astype(int), acfg.n_t, acfg.n_r)
        prec_q = tx_precoders_quantized(filters.F, z, targets)
        policy = PowerPolicy(P=10.0 ** (4.0 * u[:, 1:2]), rho=0.2 + 0.6 * u[:, 2:])
        an = _per_matrix(policy.an_cov_scale(acfg.n_t, acfg.n_r))
        vh = adjoint(filters.V) @ channels.Hd
        signal_cov = _per_matrix(policy.rho * (1.0 / acfg.n_r) * policy.P) * np.eye(acfg.n_r)
        r_p = grams_rate(_grams(channels, filters), policy, acfg)
        r_q = grams_rate(_grams(channels, filters, z, targets), policy, acfg)
        diffs = []
        for rate, prec in (r_p, tx_precoders_perfect(channels.Hd)), (r_q, prec_q):
            for h, term in (vh, rate.t_plus), (channels.He, rate.t_minus):
                leak = h @ prec.W2
                mi = gaussian_mi(h @ prec.W1, signal_cov, an * (leak @ adjoint(leak)))
                diffs.append(np.abs(term - mi))
        return np.max(diffs, axis=0)

    worst = _per_trial(max_diff, trials, seed, SMALL_CONFIGS, uniforms=3)
    failures = int(np.count_nonzero(~(worst <= 1e-8)))
    return failures, f"max diff {worst.max():.3e}"


def _random_pd(n: int, rng: np.random.Generator, shape=()) -> np.ndarray:
    """M M* + I for complex Gaussian n x n M, a `shape` stack of them in one draw.

    The stack holds, bit for bit, what one draw per matrix gives in turn.
    """
    m = complex_gaussian(rng.standard_normal((*shape, 2, n, n)))
    return hermitian_part(m @ adjoint(m)) + np.eye(n)


def _lemma_variational_suite(trials: int, seed: int) -> tuple[int, str]:
    """Variational form of the log-determinant: maximizer and strictness.

    For random positive definite E, the objective at S = E^{-1} must equal
    ln det(E^{-1}) to 1e-9, and random positive definite S' must score
    strictly lower. Each trial draws E, then three S'.
    """
    draws = _random_pd(3, np.random.default_rng(seed), (trials, 4))
    e, others = draws[:, 0], draws[:, 1:]
    target = -logdet_pd(e) / LOG2_E
    at_opt = logdet_variational_objective(np.linalg.inv(e), e)
    lower = logdet_variational_objective(others, e[:, np.newaxis]) < target[:, np.newaxis]
    ok = (np.abs(at_opt - target) < 1e-9) & np.all(lower, axis=1)
    return int(np.count_nonzero(~ok)), ""


def _lemma_sandwich_suite(trials: int, seed: int) -> tuple[int, str]:
    """Perturbation sandwich: trace bounds around the log-det difference.

    Random positive definite A with Hermitian Delta (shrunk until A + Delta
    stays positive definite); requires lower - 1e-9 <= lhs <= upper + 1e-9.
    Each trial draws its size n in [2, 5); the trials of one size are one stack.
    """
    rng = np.random.default_rng(seed)
    sizes, counts = np.unique(rng.integers(2, 5, trials), return_counts=True)
    failures = 0
    for n, count in zip(sizes.tolist(), counts.tolist()):
        a = _random_pd(n, rng, (count,))
        delta = hermitian_part(complex_gaussian(rng.standard_normal((count, 2, n, n))))
        for _ in range(60):  # halve each Delta at most 60 times
            low = np.linalg.eigvalsh(hermitian_part(a + delta))[:, 0] <= 1e-8
            if not low.any():
                break
            delta[low] *= 0.5
        lhs, upper, lower = logdet_perturbation_check(a, delta)
        failures += int(np.count_nonzero(~((lower - 1e-9 <= lhs) & (lhs <= upper + 1e-9))))
    return failures, ""


def _matched_targets(acfg: AntennaConfig, powers) -> np.ndarray:
    """Quantizer target at each power under the power-matched bit schedule."""
    bits = [feedback_bits(p, 0.0, acfg.n_t, acfg.n_r) for p in powers]
    return _targets(bits, acfg.n_t, acfg.n_r)


def _beta_suite(trials: int, seed: int) -> tuple[int, str]:
    """Gap remainder term: nonnegative everywhere, decaying under scaling.

    beta(P) must be >= -1e-12 at P in {1e3, 1e6} with the power-matched bit
    schedule, and must shrink from P = 1e3 to P = 1e6 on at least 90% of
    trials; each trial quantizes one direction at both powers' targets.
    """
    acfg = AntennaConfig(4, 2, 1, 2)
    policy = PowerPolicy(P=np.array([1e3, 1e6]), rho=0.5)
    targets = _matched_targets(acfg, policy.P)

    def remainder(acfg, channels, filters, z, _):
        return beta_P(_grams(channels, filters, z, targets), policy, acfg)

    beta = _per_trial(remainder, trials, seed, (acfg,))
    neg = int(np.count_nonzero(~np.all(beta >= -1e-12, axis=1)))
    not_decayed = int(np.count_nonzero(~(beta[:, 1] < beta[:, 0])))
    failures = neg + max(0, not_decayed - int(0.1 * trials))
    return failures, f"negative {neg}, not decayed {not_decayed}"


def _eve_limit_suite(trials: int, seed: int) -> tuple[int, str]:
    """The engine's perfect-CSI eavesdropper term at P = 1e9 against its limit.

    With B = E2 E2*, X = B + coef E1 E1* and d = 1 / an (unit noise), the
    :func:`~secmimo.rates.logdet_perturbation_check` bounds of (X, d I) and
    (B, d I) put term - limit in [lower_X - upper_B, upper_X - lower_B] log2 e;
    a trial fails when it lies outside by more than 1e-9.
    """
    policy = PowerPolicy(P=1e9, rho=0.5)

    def excursion(acfg, channels, filters, z, _):
        grams = _grams(channels, filters)
        term = grams_rate(grams, policy, acfg).t_minus
        diff = term - eve_rate_limit(grams, policy, acfg)
        coef = policy.rho * (acfg.n_t - acfg.n_r) / ((1.0 - policy.rho) * acfg.n_r)
        d = 1.0 / policy.an_cov_scale(acfg.n_t, acfg.n_r)
        shift = np.broadcast_to(d * np.eye(acfg.n_e), grams.e2.shape)
        (_, upper_x, lower_x), (_, upper_b, lower_b) = (
            logdet_perturbation_check(m, shift) for m in (grams.e2 + coef * grams.e1, grams.e2)
        )
        low, high = (lower_x - upper_b) * LOG2_E, (upper_x - lower_b) * LOG2_E
        return np.maximum(low - diff, diff - high)

    worst = _per_trial(excursion, trials, seed, SLOPE_CONFIGS)
    failures = int(np.count_nonzero(~(worst <= 1e-9)))
    return failures, f"worst excursion {max(worst.max(), 0.0):.3e}"


def _leakage_bound_suite(trials: int, seed: int) -> tuple[int, str]:
    """Leakage power against its worst-case bound at the bound's distance.

    Each trial draws a bit budget in [10, 60) and P in [1, 1e5], and
    quantizes at exactly that budget's worst-case distance; the
    closed-form leakage must not exceed the analytic bound (up to 1%
    tolerated violations, reported rather than hidden).
    """

    def over(acfg, channels, filters, z, u):
        nf = 10 + (50 * u[:, :1]).astype(int)
        policy = PowerPolicy(P=10.0 ** (5.0 * u[:, 1:]), rho=0.5)
        grams = _grams(channels, filters, z, _targets(nf, acfg.n_t, acfg.n_r))
        leak = grams_rate(grams, policy, acfg).leakage
        return leak > leakage_bound(policy, nf, acfg) * (1.0 + 1e-9)

    violations = int(np.count_nonzero(_per_trial(over, trials, seed, SLOPE_CONFIGS, uniforms=2)))
    failures = max(0, violations - int(0.01 * trials))
    return failures, f"violations {violations}"


def _leakage_bounded_in_power_suite(trials: int, seed: int) -> tuple[int, str]:
    """Power-independence of leakage under the matched bit schedule.

    Mean leakage over P in {1e3, 1e4, 1e5, 1e6} must peak within 5% of the
    peak over the first two grid points. Each trial quantizes one direction
    at all four powers' targets (common random numbers), so the means
    differ by the schedule's effect and not by independent draws.
    """
    acfg = AntennaConfig(4, 2, 1, 2)
    policy = PowerPolicy(P=np.array([1e3, 1e4, 1e5, 1e6]), rho=0.5)
    targets = _matched_targets(acfg, policy.P)

    def leakage(acfg, channels, filters, z, _):
        return grams_rate(_grams(channels, filters, z, targets), policy, acfg).leakage

    means = _per_trial(leakage, trials, seed, (acfg,)).mean(axis=0)
    ok = means.max() <= 1.05 * means[:2].max()
    return int(not ok), "means " + ", ".join(f"{m:.4f}" for m in means)


def _perturb_accuracy_suite(trials: int, seed: int) -> tuple[int, str]:
    """The quantized subspace sits at its target distance to 1e-6 every call.

    Each trial quantizes its receiver subspace F at the target of a bit
    budget drawn in [1, 80). The worse error counts: the engine step's
    sqrt(tr J), or the chordal distance of the explicit W1 (the oracle).
    """

    def error(acfg, _, filters, z, u):
        target = _targets(1 + (79 * u).astype(int), acfg.n_t, acfg.n_r)
        j = perturb_gram(filters.F, z, target)[3]
        w1 = tx_precoders_quantized(filters.F, z, target).W1
        achieved = np.sqrt(np.einsum("...ii->...", j).real), chordal_distance(filters.F, w1)
        return np.max(np.abs(np.subtract(achieved, target)), axis=0)

    worst = _per_trial(error, trials, seed, SLOPE_CONFIGS, uniforms=1)
    failures = int(np.count_nonzero(~(worst <= PERTURB_TOL)))
    return failures, f"worst error {worst.max():.3e}"


def _chordal_metric_suite(trials: int, seed: int) -> tuple[int, str]:
    """Metric axioms of the chordal distance on random subspace triples.

    Symmetry and triangle inequality to 1e-9 plus invariance under a random
    right-unitary change of representative to 1e-10. Each trial draws n_r in
    [1, 4) and n_t - n_r in [1, 4); the trials of one shape are one stack.
    """
    rng = np.random.default_rng(seed)
    k, gap = rng.integers(1, 4, (2, trials))
    shapes, counts = np.unique(np.stack([k + gap, k], axis=1), axis=0, return_counts=True)
    failures = 0
    for (n_t, n_r), count in zip(shapes.tolist(), counts.tolist()):
        a, b, c = haar_columns(complex_gaussian(rng.standard_normal((3, count, 2, n_t, n_r))))
        q = haar_columns(complex_gaussian(rng.standard_normal((count, 2, n_r, n_r))))
        d_ab = chordal_distance(a, b)
        ok = (
            (np.abs(d_ab - chordal_distance(b, a)) <= 1e-9)
            & (d_ab <= chordal_distance(a, c) + chordal_distance(c, b) + 1e-9)
            & (chordal_distance(a @ q, a) <= 1e-10)
        )
        failures += int(np.count_nonzero(~ok))
    return failures, ""


# Each suite, in `verify`'s order: (trials, seed) -> (failures, detail), and its trial cap or None.
SUITES = {
    "orthogonality": (_orthogonality_suite, None),
    "oracle-equivalence": (_oracle_equivalence_suite, None),
    "lemma-variational": (_lemma_variational_suite, 200),
    "lemma-sandwich": (_lemma_sandwich_suite, None),
    "beta-remainder": (_beta_suite, 200),
    "eve-rate-limit": (_eve_limit_suite, 200),
    "leakage-bound": (_leakage_bound_suite, None),
    "leakage-bounded-in-P": (_leakage_bounded_in_power_suite, 200),
    "perturb-accuracy": (_perturb_accuracy_suite, None),
    "chordal-metric": (_chordal_metric_suite, None),
}


def run_suite(name: str, trials: int, seed: int) -> SuiteResult:
    """Suite `name` of :data:`SUITES` on `trials` instances from `seed`. A negative seed or no
    trials is a ConfigError; a numerical failure fails every trial, its message the detail."""
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    if trials < 1:
        raise ConfigError(f"trials must be >= 1, got {trials}")
    try:
        failures, detail = SUITES[name][0](trials, seed)
    except (SecMimoError, np.linalg.LinAlgError) as exc:
        failures, detail = trials, str(exc)
    return SuiteResult(name, trials, failures, detail)


def run_verification(trials: int = 100, seed: int = 1) -> list[SuiteResult]:
    """Every suite of :data:`SUITES`, suite k on min(trials, its cap) instances at seed + k."""
    return [
        run_suite(name, min(trials, cap or trials), seed + k)
        for k, (name, (_, cap)) in enumerate(SUITES.items())
    ]
