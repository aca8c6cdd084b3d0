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

One kernel, :func:`grams_rate`, rates every two-stage Gram set, perfect
CSI or quantized, from two Cholesky log-det ratios per element. Every rate
takes stacks of matrices and a policy whose P and rho are arrays over the
stack (see :mod:`secmimo.transceiver`); the result's fields are then arrays.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .linalg import (
    LOG2_E,
    _logdet_hermitian,
    adjoint,
    as_stack,
    hermitian_part,
    left_nullspace_basis,
    logdet_pd,
)
from .transceiver import (
    AntennaConfig,
    ChannelSet,
    PowerPolicy,
    Precoders,
    ReceiverFilters,
)


@dataclass(frozen=True)
class SecrecyRate:
    """One secrecy-rate evaluation: floored value, raw value, both terms.

    `leakage` is the mean artificial-noise power reaching the post-filtered
    receiver, (1-rho) P/(n_t - n_r) ||G* V* Hd W2||_F^2, for the rates that
    use the two-stage receiver, and None otherwise.
    """

    clipped: float
    raw: float
    t_plus: float
    t_minus: float
    leakage: float | None = None


# What a two-stage secrecy rate depends on: s1 = S1 S1* and s2 = S2 S2* for
# S_i = V* Hd W_i, e1 = E1 E1* and e2 = E2 E2* for E_i = He W_i, and G G*
# of the post-filter G, which only the leakage reads.
RateGrams = namedtuple("RateGrams", "s1 s2 e1 e2 gg")

# What a trial's Gram sets share: A = V* C* (V* Hd = A F*, as Hd* = F C),
# He, He F, He He* and G G*.
TrialCouplings = namedtuple("TrialCouplings", "A He HeF HeHe GG")


def _logdet_ratio(numer: np.ndarray, denom: np.ndarray) -> float:
    # One call factors both; each matrix of a stack factors as it would alone.
    pair = as_stack(hermitian_part(np.stack(np.broadcast_arrays(numer, denom))), "Cholesky input")
    logdets = _logdet_hermitian(pair)
    return logdets[0] - logdets[1]


def _per_matrix(x) -> np.ndarray:
    # a scalar, or one value per element of a stack, as a factor per matrix
    return np.asarray(x)[..., np.newaxis, np.newaxis]


def _clip(raw):
    return np.where(raw > 0.0, raw, 0.0)[()]


def _term(x1, x2, policy: PowerPolicy, config: AntennaConfig):
    """Information rate at a unit noise floor from the Grams X1 X1* and X2 X2*.

    log-det ratio of the receive covariance with and without the information
    signal X1; the artificial noise through X2 sits in both determinants.
    """
    signal = _per_matrix(policy.signal_scale(config.n_r))
    an = _per_matrix(policy.an_cov_scale(config.n_t, config.n_r))
    base = an * x2 + np.eye(x1.shape[-1])
    return _logdet_ratio(signal * x1 + base, base)


def secrecy_rate_perfect_basic(
    channels: ChannelSet, policy: PowerPolicy, config: AntennaConfig
) -> SecrecyRate:
    """Secrecy rate with perfect CSI and SVD-aligned precoding, no G filter.

    The receiver applies only the jammer nuller V; the effective direct
    channel is V* U(Hd) Sigma1(Hd) because the information precoder absorbs
    the right singular vectors.
    """
    u, s, vh = np.linalg.svd(as_stack(channels.Hd, "Hd"), full_matrices=True)
    v = left_nullspace_basis(channels.Hj)
    t_plus = _term(_gram(adjoint(v) @ (u * s[..., np.newaxis, :])), 0.0, policy, config)
    he = as_stack(channels.He, "He") @ adjoint(vh)  # signal on the first n_r columns, AN after
    t_minus = _term(_gram(he[..., : config.n_r]), _gram(he[..., config.n_r :]), policy, config)
    raw = t_plus - t_minus
    return SecrecyRate(clipped=_clip(raw), raw=raw, t_plus=t_plus, t_minus=t_minus)


def _gram(s: np.ndarray) -> np.ndarray:
    return s @ adjoint(s)


def _precoder_grams(channels, precoders, filters) -> RateGrams:
    # S2 is zero to round-off when W2 spans the nullspace of Hd
    vh = adjoint(filters.V) @ as_stack(channels.Hd, "Hd")
    he = as_stack(channels.He, "He")
    e1, e2 = _gram(he @ precoders.W1), _gram(he @ precoders.W2)
    return RateGrams(_gram(vh @ precoders.W1), _gram(vh @ precoders.W2), e1, e2, _gram(filters.G))


def trial_couplings(channels: ChannelSet, filters: ReceiverFilters) -> TrialCouplings:
    """A trial's TrialCouplings, from its channels and receive filters."""
    he = as_stack(channels.He, "He")
    a = adjoint(filters.V) @ adjoint(filters.C)
    return TrialCouplings(a, he, he @ filters.F, _gram(he), _gram(filters.G))


def step_grams(couplings: TrialCouplings, step) -> RateGrams:
    """The Gram set of the precoders at a :func:`~secmimo.grassmann.perturb_gram` step.

    For the step (Z, eps, K, J) and Y = He F + eps He Z: S1 S1* = A K A*,
    S2 S2* = A J A*, E1 E1* = Y K Y* and E2 E2* = He He* - E1 E1*, since
    W1 W1* = (F + eps Z) K (F + eps Z)* and W2 W2* = I - W1 W1*. The step
    to distance 0 (K = I, J = 0, Y = He F) gives the Gram set of perfect
    precoders.
    """
    c = couplings
    z, eps, k, j = step
    y = c.HeF + eps[..., np.newaxis, np.newaxis] * (c.He @ z)
    a_star = adjoint(c.A)
    s2, e1 = c.A @ j @ a_star, y @ k @ adjoint(y)
    return RateGrams(c.A @ k @ a_star, s2, e1, c.HeHe - e1, c.GG)


def grams_rate(grams: RateGrams, policy: PowerPolicy, config: AntennaConfig) -> SecrecyRate:
    """Two-stage secrecy rate of a Gram set: one log-det ratio per term and element.

    Both terms take one formula at unit noise: the positive term from
    S1 S1* and S2 S2* after the jammer nuller V, the negative term, the
    eavesdropper's, from E1 E1* and E2 E2*. The invertible post-filter G
    cannot change the receiver's information rate, so neither term reads
    it. The result's `leakage` is (1-rho) P/(n_t - n_r) tr(G G* S2 S2*),
    the artificial-noise power after G. `policy.P` and `policy.rho`
    broadcast against the stack's leading shape, so a stack of shape
    (T, 1) and P powers give (T, P) arrays.
    """
    t_plus = _term(grams.s1, grams.s2, policy, config)
    t_minus = _term(grams.e1, grams.e2, policy, config)
    raw = t_plus - t_minus
    an = policy.an_cov_scale(config.n_t, config.n_r)
    leakage = (an * np.einsum("...ii->...", grams.gg @ grams.s2).real)[()]
    return SecrecyRate(_clip(raw), raw, t_plus, t_minus, leakage)


def secrecy_rate_G(
    channels: ChannelSet,
    precoders: Precoders,
    filters: ReceiverFilters,
    policy: PowerPolicy,
    config: AntennaConfig,
) -> SecrecyRate:
    """Secrecy rate under the two-stage receiver, for explicit perfect or quantized precoders.

    :func:`grams_rate` of their Gram set, and the oracle for the engine's
    Gram route. L is zero to round-off for perfect precoders, whose W2 spans
    the nullspace of Hd.
    """
    return grams_rate(_precoder_grams(channels, precoders, filters), policy, config)


def eve_rate_limit(grams: RateGrams, policy: PowerPolicy, config: AntennaConfig) -> float:
    """High-power limit of the eavesdropper rate term (bits), from a Gram set.

    As P grows, the Eve term converges to
    log2 det(I + rho/(1-rho) * (n_t - n_r)/n_r * A B^{-1}) with
    A = E1 E1* and B = E2 E2*, which exists because n_e <= n_t - n_r keeps
    B invertible. The information covariance is P/n_r I, as in every rate
    here. Stacks give one limit per element.
    """
    coef = policy.rho * (config.n_t - config.n_r) / ((1.0 - policy.rho) * config.n_r)
    return _logdet_ratio(grams.e2 + _per_matrix(coef) * grams.e1, grams.e2)


def beta_P(grams: RateGrams, policy: PowerPolicy, config: AntennaConfig) -> float:
    """Remainder term of the quantization gap analysis (bits), from a Gram set.

    Difference of the receiver's log-determinant at unit noise with and
    without the leakage Gram matrix, evaluated at information covariance
    P I (the diagnostic normalization, not the rate policy); G cancels, as
    in the rates. Nonnegative for every P because the leakage matrix is
    positive semidefinite; converges to zero under the power-matched bit
    schedule.
    """
    m1 = _per_matrix(policy.rho * policy.P) * grams.s1 + np.eye(grams.s1.shape[-1])
    leak = _per_matrix(policy.an_cov_scale(config.n_t, config.n_r)) * grams.s2
    return _logdet_ratio(m1 + leak, m1)


def logdet_perturbation_check(A, Delta) -> tuple[float, float, float]:
    """Sandwich bounds for a log-determinant perturbation (natural log).

    For positive definite A and A + Delta returns the triple
    (ln det(A + Delta) - ln det A, tr(A^{-1} Delta), tr(Delta (A+Delta)^{-1}));
    the first entry always lies between the third and the second. Stacks
    of equal shape give one triple of arrays, element by element.
    """
    a = as_stack(A, "A")
    delta = as_stack(Delta, "Delta")
    if a.shape != delta.shape:
        raise InvalidInputError(f"shape mismatch: {a.shape} vs {delta.shape}")
    lhs = (logdet_pd(hermitian_part(a + delta)) - logdet_pd(hermitian_part(a))) / LOG2_E
    upper = np.einsum("...ii->...", np.linalg.solve(a, delta)).real[()]
    lower = np.einsum("...ii->...", np.linalg.solve(a + delta, delta)).real[()]
    return lhs, upper, lower


def logdet_variational_objective(S, E) -> float:
    """Objective -tr(S E) + ln det S + n of the log-det variational form.

    Over positive semidefinite S this is maximized at S = E^{-1} with value
    ln det(E^{-1}); used to spot-check the variational representation that
    underlies the perturbation bounds. Stacks of S and E broadcast together
    and give one objective per element.
    """
    s = as_stack(S, "S")
    e = as_stack(E, "E")
    n = s.shape[-1]
    return (
        -np.einsum("...ii->...", s @ e).real
        + logdet_pd(hermitian_part(s)) / LOG2_E
        + n
    )[()]


def fit_slope(
    snr_db: np.ndarray, rates: np.ndarray, window: tuple[float, float] | None = None
) -> float:
    """Least-squares slope of rate (bits) against log2(P) over an SNR window.

    `window` is an inclusive (snr_lo, snr_hi) range in dB. None selects the
    top 20 dB of the sweep, since the slope is a large-P limit and low-SNR
    points bias it, widened to the whole sweep when that holds fewer than
    three points.
    """
    snr = np.asarray(snr_db, dtype=float)
    vals = np.asarray(rates, dtype=float)
    if snr.shape != vals.shape or snr.ndim != 1:
        raise InvalidInputError("snr_db and rates must be 1-D arrays of equal length")
    default = window is None
    if default:
        window = (float(snr.max()) - 20.0, float(snr.max()))
    lo, hi = window
    mask = (snr >= lo - 1e-9) & (snr <= hi + 1e-9)
    if default and mask.sum() < 3:
        lo, mask = float(snr.min()), np.ones_like(mask)
    if int(mask.sum()) < 3:
        raise InvalidInputError(
            f"need at least 3 samples in window [{lo}, {hi}] dB, got {int(mask.sum())}"
        )
    log2_p = snr[mask] * (math.log2(10.0) / 10.0)
    return float(np.polyfit(log2_p, vals[mask], 1)[0])
