"""Secrecy-rate formulas, high-SNR slope estimation and inequality checks.

All rates are in bits (base-2 logs). Achievable secrecy rate is the mutual
information to the legitimate receiver minus the mutual information to the
eavesdropper, floored at zero; the raw (unfloored) difference is kept
alongside because quantization-gap analysis subtracts rates before any
flooring.

Every closed-form term here is a difference of log-determinants of
explicitly formed Hermitian matrices; each matrix is symmetrized before
factorization to kill round-off asymmetry. The generic Gaussian
mutual-information oracle in :mod:`secmimo.linalg` provides an independent
route to the same values.

The post-filtered rates and the eavesdropper term also take stacks of
matrices and a policy whose P is an array over the stack (see
:mod:`secmimo.transceiver`); every field of the result is then an array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .linalg import LOG2_E, adjoint, as_matrix, as_stack, hermitian_part, logdet_pd, svd
from .transceiver import (
    AntennaConfig,
    ChannelSet,
    PowerPolicy,
    Precoders,
    ReceiverFilters,
    rx_nuller,
)


@dataclass(frozen=True)
class SecrecyRate:
    """One secrecy-rate evaluation: floored value, raw value, both terms."""

    clipped: float
    raw: float
    t_plus: float
    t_minus: float


@dataclass(frozen=True)
class RateSample:
    """Per-operating-point record produced by the Monte Carlo harness."""

    P: float
    snr_db: float
    r_perfect: float
    r_quantized: float
    r_perfect_raw: float
    r_quantized_raw: float
    gap: float  # raw perfect minus raw quantized
    leakage: float
    nf_bits: int


@dataclass(frozen=True)
class SdofEstimate:
    """Least-squares slope of rate against log2(P) over an SNR window."""

    slope: float
    intercept: float
    fit_window: tuple[float, float]


def _logdet_ratio(numer: np.ndarray, denom: np.ndarray) -> float:
    return logdet_pd(hermitian_part(numer)) - logdet_pd(hermitian_part(denom))


def _per_matrix(x) -> np.ndarray:
    # a scalar, or one value per element of a stack, as a factor per matrix
    return np.asarray(x)[..., np.newaxis, np.newaxis]


def _clip(raw):
    return np.where(raw > 0.0, raw, 0.0)[()]


def _eve_term(
    he: np.ndarray,
    w1: np.ndarray,
    w2: np.ndarray,
    policy: PowerPolicy,
    config: AntennaConfig,
) -> float:
    """Eavesdropper information rate for precoders (w1, w2).

    log-det ratio of the Eve covariance with and without the information
    signal; the artificial noise term sits in both determinants.
    """
    kxs = _per_matrix(policy.kxs(config.n_r) * policy.P)
    an = _per_matrix(policy.an_cov_scale(config.n_t, config.n_r))
    e1 = he @ w1
    e2 = he @ w2
    eye = np.eye(config.n_e)
    base = an * (e2 @ adjoint(e2)) + policy.sigma2_eve * eye
    return _logdet_ratio(policy.rho * kxs * (e1 @ adjoint(e1)) + base, base)


def secrecy_rate_perfect_basic(
    channels: ChannelSet, policy: PowerPolicy, config: AntennaConfig
) -> SecrecyRate:
    """Secrecy rate with perfect CSI and SVD-aligned precoding, no G filter.

    The receiver applies only the jammer nuller V; the effective direct
    channel is V* U(Hd) Sigma1(Hd) because the information precoder absorbs
    the right singular vectors.
    """
    hd = as_matrix(channels.Hd, "Hd")
    dec = svd(hd)
    n_r = config.n_r
    v1 = dec.V[:, :n_r]
    v0 = dec.V[:, n_r:]
    v = rx_nuller(channels.Hj)
    h_eff = v.conj().T @ dec.U @ np.diag(dec.singular_values)
    kxs = policy.kxs(n_r) * policy.P
    t_plus = _logdet_ratio(
        np.eye(v.shape[1]) + (policy.rho * kxs / policy.sigma2) * (h_eff @ h_eff.conj().T),
        np.eye(v.shape[1]),
    )
    t_minus = _eve_term(as_matrix(channels.He, "He"), v1, v0, policy, config)
    raw = t_plus - t_minus
    return SecrecyRate(clipped=_clip(raw), raw=raw, t_plus=t_plus, t_minus=t_minus)


def secrecy_rate_perfect_G(
    channels: ChannelSet,
    precoders: Precoders,
    filters: ReceiverFilters,
    policy: PowerPolicy,
    config: AntennaConfig,
) -> SecrecyRate:
    """Secrecy rate with perfect CSI under the two-stage receiver.

    Positive term: log-det ratio of the post-filtered receive covariance
    rho G* V* Hd W1 Kxs W1* Hd* V G + sigma^2 G* G against the noise floor
    sigma^2 G* G. Negative term: the eavesdropper rate.
    """
    hd = as_stack(channels.Hd, "Hd")
    g = filters.G
    gvh = adjoint(g) @ adjoint(filters.V) @ hd
    kxs = _per_matrix(policy.kxs(config.n_r) * policy.P)
    s1 = gvh @ precoders.W1
    noise = policy.sigma2 * (adjoint(g) @ g)
    t_plus = _logdet_ratio(policy.rho * kxs * (s1 @ adjoint(s1)) + noise, noise)
    t_minus = _eve_term(
        as_stack(channels.He, "He"), precoders.W1, precoders.W2, policy, config
    )
    raw = t_plus - t_minus
    return SecrecyRate(clipped=_clip(raw), raw=raw, t_plus=t_plus, t_minus=t_minus)


def secrecy_rate_quantized_G(
    channels: ChannelSet,
    precoders: Precoders,
    filters: ReceiverFilters,
    policy: PowerPolicy,
    config: AntennaConfig,
    nf_bits: int | None = None,
) -> SecrecyRate:
    """Secrecy rate when the transmitter only has the quantized subspace.

    Same structure as the perfect-CSI rate, but artificial noise leaks into
    the receive covariance: the leakage Gram matrix sits inside both the
    numerator and the denominator of the positive term. `nf_bits` is carried
    only for diagnostics.
    """
    hd = as_stack(channels.Hd, "Hd")
    g = filters.G
    gvh = adjoint(g) @ adjoint(filters.V) @ hd
    kxs = _per_matrix(policy.kxs(config.n_r) * policy.P)
    an = _per_matrix(policy.an_cov_scale(config.n_t, config.n_r))
    s1 = gvh @ precoders.W1
    s2 = gvh @ precoders.W2
    leak = an * (s2 @ adjoint(s2))
    noise = policy.sigma2 * (adjoint(g) @ g)
    t_plus = _logdet_ratio(
        policy.rho * kxs * (s1 @ adjoint(s1)) + leak + noise, leak + noise
    )
    t_minus = _eve_term(
        as_stack(channels.He, "He"), precoders.W1, precoders.W2, policy, config
    )
    raw = t_plus - t_minus
    return SecrecyRate(clipped=_clip(raw), raw=raw, t_plus=t_plus, t_minus=t_minus)


def eve_rate_limit(
    channels: ChannelSet,
    precoders: Precoders,
    policy: PowerPolicy,
    config: AntennaConfig,
) -> float:
    """High-power limit of the eavesdropper rate term (bits).

    As P grows, the Eve term converges to
    log2 det(I + rho/(1-rho) * (n_t - n_r)/n_r * A B^{-1}) with
    A = He W1 W1* He* and B = He W2 W2* He*, which exists because
    n_e <= n_t - n_r keeps B invertible. Assumes the default
    information covariance P/n_r I.
    """
    he = as_matrix(channels.He, "He")
    e1 = he @ precoders.W1
    e2 = he @ precoders.W2
    coef = policy.rho * (config.n_t - config.n_r) / ((1.0 - policy.rho) * config.n_r)
    gram_an = e2 @ e2.conj().T
    return _logdet_ratio(gram_an + coef * (e1 @ e1.conj().T), gram_an)


def beta_P(
    channels: ChannelSet,
    filters: ReceiverFilters,
    precoders: Precoders,
    policy: PowerPolicy,
    config: AntennaConfig,
) -> float:
    """Remainder term of the quantization gap analysis (bits).

    Difference of the post-filtered log-determinant with and without the
    leakage Gram matrix, evaluated at information covariance P I (the
    diagnostic normalization, not the rate policy). Nonnegative for every P
    because the leakage matrix is positive semidefinite; converges to zero
    under the power-matched bit schedule.
    """
    hd = as_matrix(channels.Hd, "Hd")
    g = filters.G
    gvh = g.conj().T @ filters.V.conj().T @ hd
    s1 = gvh @ precoders.W1
    s2 = gvh @ precoders.W2
    m1 = policy.rho * policy.P * (s1 @ s1.conj().T)
    m2 = policy.an_cov_scale(config.n_t, config.n_r) * (s2 @ s2.conj().T)
    noise = policy.sigma2 * (g.conj().T @ g)
    return _logdet_ratio(m1 + m2 + noise, m1 + noise)


def logdet_perturbation_check(A, Delta) -> tuple[float, float, float]:
    """Sandwich bounds for a log-determinant perturbation (natural log).

    For positive definite A and A + Delta returns the triple
    (ln det(A + Delta) - ln det A, tr(A^{-1} Delta), tr(Delta (A+Delta)^{-1}));
    the first entry always lies between the third and the second.
    """
    a = as_matrix(A, "A")
    delta = as_matrix(Delta, "Delta")
    if a.shape != delta.shape:
        raise InvalidInputError(f"shape mismatch: {a.shape} vs {delta.shape}")
    lhs = (logdet_pd(hermitian_part(a + delta)) - logdet_pd(hermitian_part(a))) / LOG2_E
    upper = float(np.real(np.trace(np.linalg.solve(a, delta))))
    lower = float(np.real(np.trace(np.linalg.solve(a + delta, delta))))
    return lhs, upper, lower


def logdet_variational_objective(S, E) -> float:
    """Objective -tr(S E) + ln det S + n of the log-det variational form.

    Over positive semidefinite S this is maximized at S = E^{-1} with value
    ln det(E^{-1}); used to spot-check the variational representation that
    underlies the perturbation bounds.
    """
    s = as_matrix(S, "S")
    e = as_matrix(E, "E")
    n = s.shape[0]
    return (
        -float(np.real(np.trace(s @ e)))
        + logdet_pd(hermitian_part(s)) / LOG2_E
        + n
    )


def fit_slope(
    snr_db: np.ndarray, rates: np.ndarray, window: tuple[float, float] | None = None
) -> SdofEstimate:
    """Least-squares slope of rate (bits) against log2(P) over an SNR window.

    `window` is an inclusive (snr_lo, snr_hi) range in dB; None selects the
    top 20 dB of the sweep, since the slope is a large-P limit and low-SNR
    points bias it.
    """
    snr = np.asarray(snr_db, dtype=float)
    vals = np.asarray(rates, dtype=float)
    if snr.shape != vals.shape or snr.ndim != 1:
        raise InvalidInputError("snr_db and rates must be 1-D arrays of equal length")
    if window is None:
        window = (float(snr.max()) - 20.0, float(snr.max()))
    lo, hi = window
    mask = (snr >= lo - 1e-9) & (snr <= hi + 1e-9)
    if int(mask.sum()) < 3:
        raise InvalidInputError(
            f"need at least 3 samples in window [{lo}, {hi}] dB, got {int(mask.sum())}"
        )
    log2_p = snr[mask] * (math.log2(10.0) / 10.0)
    slope, intercept = np.polyfit(log2_p, vals[mask], 1)
    return SdofEstimate(slope=float(slope), intercept=float(intercept), fit_window=(lo, hi))


def sdof_fit(
    samples,
    window: tuple[float, float] | None = None,
    which: str = "r_perfect",
) -> SdofEstimate:
    """Secure-degrees-of-freedom estimate from a list of rate samples.

    Fits the selected rate field of each :class:`RateSample` against
    log2(P); the slope approximates the number of securable streams.
    """
    samples = list(samples)
    snr = np.array([s.snr_db for s in samples], dtype=float)
    vals = np.array([getattr(s, which) for s in samples], dtype=float)
    return fit_slope(snr, vals, window)
