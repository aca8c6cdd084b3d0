"""Numerical verification suites behind the `verify` CLI subcommand.

Each suite samples random instances and counts violations of one invariant
or inequality family: precoder/nuller orthogonality, closed-form rates
against the generic mutual-information oracle, the log-det variational and
perturbation inequalities, leakage bounds and their power-independence, the
perturbation quantizer's distance accuracy, and the chordal metric axioms.

Suites return counts instead of raising so the CLI can report all of them;
the test suite asserts on the same outcomes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grassmann import (
    FeedbackSchedule,
    GrassmannPoint,
    chordal_distance,
    feedback_bits,
    perturb_quantize,
    perturb_to_distance,
    quantization_target,
)
from .linalg import (
    LOG2_E,
    gaussian_mi,
    hermitian_part,
    logdet_pd,
    random_gaussian_matrix,
    random_truncated_unitary,
)
from .rates import (
    beta_P,
    eve_rate_limit,
    logdet_perturbation_check,
    logdet_variational_objective,
    secrecy_rate_G,
)
from .transceiver import (
    AntennaConfig,
    PowerPolicy,
    leakage_bound,
    leakage_power,
    rx_postfilter,
    sample_channels,
    tx_precoders_perfect,
    tx_precoders_quantized,
)

NULLING_TOL = 1e-10

# Small systems used for randomized instance checks.
SMALL_CONFIGS = (
    AntennaConfig(3, 2, 1, 1),
    AntennaConfig(4, 2, 1, 2),
    AntennaConfig(4, 3, 1, 1),
    AntennaConfig(6, 3, 1, 3),
)

SLOPE_CONFIGS = (
    AntennaConfig(4, 2, 1, 2),
    AntennaConfig(6, 3, 1, 3),
    AntennaConfig(8, 4, 1, 4),
)


@dataclass(frozen=True)
class SuiteResult:
    """Outcome of one verification suite."""

    name: str
    total: int
    failures: int
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.failures == 0


def _trial_matrices(acfg: AntennaConfig, nf: int, rng: np.random.Generator):
    channels = sample_channels(acfg, rng)
    filters = rx_postfilter(channels.Hd, channels.Hj, rng=rng)
    prec_p = tx_precoders_perfect(channels.Hd)
    # quantize at the worst-case distance for nf bits; going through
    # perturb_to_distance keeps narrow ambients (n_t < 2 n_r) usable here
    target = quantization_target(nf, acfg.n_t, acfg.n_r)
    fhat = perturb_to_distance(GrassmannPoint(filters.F), target, rng)
    prec_q = tx_precoders_quantized(fhat)
    return channels, filters, prec_p, fhat, prec_q


def orthogonality_suite(trials: int = 1000, seed: int = 1) -> SuiteResult:
    """Nulling and orthogonality invariants of every sampled trial.

    Checks, each below 1e-10: jammer annihilation ||V* Hj||, perfect-CSI
    artificial-noise nulling ||Hd W2||, quantized nulling against the fed
    back subspace ||Fhat* W2Q||, and precoder orthogonality ||W1* W2|| in
    both modes.
    """
    rng = np.random.default_rng(seed)
    failures = 0
    worst = 0.0
    for t in range(trials):
        acfg = SLOPE_CONFIGS[t % len(SLOPE_CONFIGS)]
        channels, filters, prec_p, fhat, prec_q = _trial_matrices(acfg, nf=20, rng=rng)
        norms = (
            np.linalg.norm(filters.V.conj().T @ channels.Hj),
            np.linalg.norm(channels.Hd @ prec_p.W2),
            np.linalg.norm(fhat.matrix.conj().T @ prec_q.W2),
            np.linalg.norm(prec_p.W1.conj().T @ prec_p.W2),
            np.linalg.norm(prec_q.W1.conj().T @ prec_q.W2),
        )
        worst = max(worst, max(norms))
        if max(norms) >= NULLING_TOL:
            failures += 1
    return SuiteResult("orthogonality", trials, failures, f"worst norm {worst:.3e}")


def oracle_equivalence_suite(trials: int = 500, seed: int = 2) -> SuiteResult:
    """Closed-form rate terms against the Gaussian mutual-information oracle.

    The post-filtered terms are compared after whitening by the invertible
    G, under which mutual information is invariant; the eavesdropper terms
    compare directly. Failure threshold 1e-8 per term.
    """
    rng = np.random.default_rng(seed)
    failures = 0
    worst = 0.0
    for t in range(trials):
        acfg = SMALL_CONFIGS[t % len(SMALL_CONFIGS)]
        nf = int(rng.integers(4, 30))
        channels, filters, prec_p, _, prec_q = _trial_matrices(acfg, nf=nf, rng=rng)
        policy = PowerPolicy(
            P=float(10.0 ** rng.uniform(0.0, 4.0)), rho=float(rng.uniform(0.2, 0.8))
        )
        kxs = policy.kxs(acfg.n_r) * policy.P
        an = policy.an_cov_scale(acfg.n_t, acfg.n_r)
        vh = filters.V.conj().T @ channels.Hd
        r_p = secrecy_rate_G(channels, prec_p, filters, policy, acfg)
        r_q = secrecy_rate_G(channels, prec_q, filters, policy, acfg)
        signal_cov = policy.rho * kxs * np.eye(acfg.n_r)
        mi_plus_p = gaussian_mi(vh @ prec_p.W1, signal_cov, None, policy.sigma2)
        lq = vh @ prec_q.W2
        mi_plus_q = gaussian_mi(
            vh @ prec_q.W1, signal_cov, an * (lq @ lq.conj().T), policy.sigma2
        )
        diffs = []
        for prec, terms in ((prec_p, r_p), (prec_q, r_q)):
            e2 = channels.He @ prec.W2
            mi_minus = gaussian_mi(
                channels.He @ prec.W1,
                signal_cov,
                an * (e2 @ e2.conj().T),
                policy.sigma2_eve,
            )
            diffs.append(abs(terms.t_minus - mi_minus))
        diffs.append(abs(r_p.t_plus - mi_plus_p))
        diffs.append(abs(r_q.t_plus - mi_plus_q))
        worst = max(worst, max(diffs))
        if max(diffs) > 1e-8:
            failures += 1
    return SuiteResult("oracle-equivalence", trials, failures, f"max diff {worst:.3e}")


def _random_pd(n: int, rng: np.random.Generator) -> np.ndarray:
    m = random_gaussian_matrix(n, n, rng)
    return hermitian_part(m @ m.conj().T) + np.eye(n)


def lemma_variational_suite(trials: int = 100, seed: int = 3) -> SuiteResult:
    """Variational form of the log-determinant: maximizer and strictness.

    For random positive definite E, the objective at S = E^{-1} must equal
    ln det(E^{-1}) to 1e-9, and random positive definite S' must score
    strictly lower.
    """
    rng = np.random.default_rng(seed)
    failures = 0
    for _ in range(trials):
        e = _random_pd(3, rng)
        target = -logdet_pd(e) / LOG2_E
        at_opt = logdet_variational_objective(np.linalg.inv(e), e)
        ok = abs(at_opt - target) < 1e-9
        for _ in range(3):
            other = _random_pd(3, rng)
            ok = ok and (logdet_variational_objective(other, e) < target)
        if not ok:
            failures += 1
    return SuiteResult("lemma-variational", trials, failures)


def lemma_sandwich_suite(trials: int = 1000, seed: int = 4) -> SuiteResult:
    """Perturbation sandwich: trace bounds around the log-det difference.

    Random positive definite A with Hermitian Delta (shrunk until A + Delta
    stays positive definite); requires lower - 1e-9 <= lhs <= upper + 1e-9.
    """
    rng = np.random.default_rng(seed)
    failures = 0
    for _ in range(trials):
        n = int(rng.integers(2, 5))
        a = _random_pd(n, rng)
        delta = hermitian_part(random_gaussian_matrix(n, n, rng))
        for _ in range(60):
            if np.linalg.eigvalsh(hermitian_part(a + delta))[0] > 1e-8:
                break
            delta = 0.5 * delta
        lhs, upper, lower = logdet_perturbation_check(a, delta)
        if not (lower - 1e-9 <= lhs <= upper + 1e-9):
            failures += 1
    return SuiteResult("lemma-sandwich", trials, failures)


def beta_suite(trials: int = 200, seed: int = 5) -> SuiteResult:
    """Gap remainder term: nonnegative everywhere, decaying under scaling.

    beta(P) must be >= -1e-12 at P in {1e3, 1e6} with the power-matched bit
    schedule, and must shrink from P = 1e3 to P = 1e6 on at least 90% of
    trials.
    """
    rng = np.random.default_rng(seed)
    acfg = AntennaConfig(4, 2, 1, 2)
    schedule = FeedbackSchedule.scaled(0.0)
    neg = 0
    not_decayed = 0
    for _ in range(trials):
        channels = sample_channels(acfg, rng)
        filters = rx_postfilter(channels.Hd, channels.Hj, rng=rng)
        f_true = GrassmannPoint(filters.F)
        betas = {}
        for power in (1e3, 1e6):
            nf = feedback_bits(power, schedule, acfg.n_t, acfg.n_r)
            prec_q = tx_precoders_quantized(perturb_quantize(f_true, nf, rng))
            policy = PowerPolicy(P=power, rho=0.5)
            betas[power] = beta_P(channels, filters, prec_q, policy, acfg)
        if min(betas.values()) < -1e-12:
            neg += 1
        if not betas[1e6] < betas[1e3]:
            not_decayed += 1
    failures = neg + max(0, not_decayed - int(0.1 * trials))
    return SuiteResult(
        "beta-remainder", trials, failures, f"negative {neg}, not decayed {not_decayed}"
    )


def eve_limit_suite(trials: int = 100, seed: int = 6) -> SuiteResult:
    """Eavesdropper term at P = 1e9 against its closed-form limit (1e-3)."""
    rng = np.random.default_rng(seed)
    failures = 0
    worst = 0.0
    for t in range(trials):
        acfg = SLOPE_CONFIGS[t % len(SLOPE_CONFIGS)]
        channels = sample_channels(acfg, rng)
        filters = rx_postfilter(channels.Hd, channels.Hj, rng=rng)
        prec_p = tx_precoders_perfect(channels.Hd)
        policy = PowerPolicy(P=1e9, rho=0.5)
        term = secrecy_rate_G(channels, prec_p, filters, policy, acfg).t_minus
        limit = eve_rate_limit(channels, prec_p, policy, acfg)
        diff = abs(term - limit)
        worst = max(worst, diff)
        if diff >= 1e-3:
            failures += 1
    return SuiteResult("eve-rate-limit", trials, failures, f"max diff {worst:.3e}")


def leakage_bound_suite(trials: int = 1000, seed: int = 7) -> SuiteResult:
    """Leakage power against its worst-case bound at the bound's distance.

    Quantizes at exactly the worst-case distance for a random bit budget;
    the closed-form leakage must not exceed the analytic bound (up to 1%
    tolerated violations, reported rather than hidden).
    """
    rng = np.random.default_rng(seed)
    violations = 0
    for t in range(trials):
        acfg = SLOPE_CONFIGS[t % len(SLOPE_CONFIGS)]
        channels = sample_channels(acfg, rng)
        filters = rx_postfilter(channels.Hd, channels.Hj, rng=rng)
        nf = int(rng.integers(10, 60))
        delta = quantization_target(nf, acfg.n_t, acfg.n_r)
        fhat = perturb_to_distance(GrassmannPoint(filters.F), delta, rng)
        prec_q = tx_precoders_quantized(fhat)
        policy = PowerPolicy(P=float(10.0 ** rng.uniform(0.0, 5.0)), rho=0.5)
        leak = leakage_power(filters, channels.Hd, prec_q.W2, policy)
        bound = leakage_bound(policy, nf, acfg)
        if leak > bound * (1.0 + 1e-9):
            violations += 1
    failures = max(0, violations - int(0.01 * trials))
    return SuiteResult("leakage-bound", trials, failures, f"violations {violations}")


def leakage_bounded_in_power_suite(trials: int = 200, seed: int = 8) -> SuiteResult:
    """Power-independence of leakage under the matched bit schedule.

    Mean leakage over P in {1e3, 1e4, 1e5, 1e6} must peak within 5% of the
    peak over the first two grid points.
    """
    rng = np.random.default_rng(seed)
    acfg = AntennaConfig(4, 2, 1, 2)
    schedule = FeedbackSchedule.scaled(0.0)
    powers = (1e3, 1e4, 1e5, 1e6)
    sums = np.zeros(len(powers))
    for _ in range(trials):
        channels = sample_channels(acfg, rng)
        filters = rx_postfilter(channels.Hd, channels.Hj, rng=rng)
        f_true = GrassmannPoint(filters.F)
        for i, power in enumerate(powers):
            nf = feedback_bits(power, schedule, acfg.n_t, acfg.n_r)
            prec_q = tx_precoders_quantized(perturb_quantize(f_true, nf, rng))
            policy = PowerPolicy(P=power, rho=0.5)
            sums[i] += leakage_power(filters, channels.Hd, prec_q.W2, policy)
    means = sums / trials
    ok = means.max() <= 1.05 * means[:2].max()
    detail = "means " + ", ".join(f"{m:.4f}" for m in means)
    return SuiteResult("leakage-bounded-in-P", trials, 0 if ok else 1, detail)


def perturb_accuracy_suite(trials: int = 200, seed: int = 9) -> SuiteResult:
    """Perturbation quantizer hits its target distance to 1e-6 every call."""
    rng = np.random.default_rng(seed)
    failures = 0
    worst = 0.0
    for t in range(trials):
        n_r = 2 + t % 3
        n_t = 2 * n_r
        f = GrassmannPoint(random_truncated_unitary(n_t, n_r, rng))
        nf = int(rng.integers(1, 80))
        target = quantization_target(nf, n_t, n_r)
        fhat = perturb_quantize(f, nf, rng)
        err = abs(chordal_distance(f, fhat) - target)
        worst = max(worst, err)
        if err > 1e-6:
            failures += 1
    return SuiteResult("perturb-accuracy", trials, failures, f"worst error {worst:.3e}")


def chordal_metric_suite(trials: int = 1000, seed: int = 10) -> SuiteResult:
    """Metric axioms of the chordal distance on random subspace triples.

    Symmetry and triangle inequality to 1e-9 plus invariance under a random
    right-unitary change of representative to 1e-10.
    """
    rng = np.random.default_rng(seed)
    failures = 0
    for _ in range(trials):
        n_r = int(rng.integers(1, 4))
        n_t = n_r + int(rng.integers(1, 4))
        a, b, c = (random_truncated_unitary(n_t, n_r, rng) for _ in range(3))
        d_ab = chordal_distance(a, b)
        d_ba = chordal_distance(b, a)
        d_ac = chordal_distance(a, c)
        d_cb = chordal_distance(c, b)
        q = random_truncated_unitary(n_r, n_r, rng)
        ok = (
            abs(d_ab - d_ba) <= 1e-9
            and d_ab <= d_ac + d_cb + 1e-9
            and chordal_distance(a @ q, a) <= 1e-10
        )
        if not ok:
            failures += 1
    return SuiteResult("chordal-metric", trials, failures)


def run_verification(trials: int = 100, seed: int = 1) -> list[SuiteResult]:
    """Run every suite with `trials` instances each (seed offsets fixed)."""
    return [
        orthogonality_suite(trials, seed),
        oracle_equivalence_suite(trials, seed + 1),
        lemma_variational_suite(min(trials, 200), seed + 2),
        lemma_sandwich_suite(trials, seed + 3),
        beta_suite(min(trials, 200), seed + 4),
        eve_limit_suite(min(trials, 200), seed + 5),
        leakage_bound_suite(trials, seed + 6),
        leakage_bounded_in_power_suite(min(trials, 200), seed + 7),
        perturb_accuracy_suite(trials, seed + 8),
        chordal_metric_suite(trials, seed + 9),
    ]
