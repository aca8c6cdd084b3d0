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
matrices and a policy whose P and rho are arrays over the stack (see
:mod:`secmimo.transceiver`); every field of the result is then an array.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, NotPositiveDefiniteError
from .linalg import (
    LOG2_E,
    _cholesky,
    _logdet_hermitian,
    adjoint,
    as_matrix,
    as_stack,
    frobenius_sq,
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


@dataclass(frozen=True)
class SdofEstimate:
    """Least-squares slope of rate against log2(P) over an SNR window."""

    slope: float
    intercept: float
    fit_window: tuple[float, float]


# What a two-stage secrecy rate depends on: s1 = S1 S1* and s2 = S2 S2* for
# S_i = G* V* Hd W_i, e1 = E1 E1* and e2 = E2 E2* for E_i = He W_i, the noise
# floor sigma^2 G* G and frob2 = ||S2||_F^2.
RateGrams = namedtuple("RateGrams", "s1 s2 e1 e2 noise frob2")

# What a trial's Gram sets share: A = G* V* C* (G* V* Hd = A F*, as Hd* = F C),
# He, He F, He He* and the noise floor sigma^2 G* G.
TrialCouplings = namedtuple("TrialCouplings", "A He HeF HeHe noise")


def _logdet_ratio(numer: np.ndarray, denom: np.ndarray) -> float:
    # One call factors both; each matrix of a stack factors as it would alone.
    logdets = _logdet_hermitian(hermitian_part(np.stack(np.broadcast_arrays(numer, denom))))
    return logdets[0] - logdets[1]


def _per_matrix(x) -> np.ndarray:
    # a scalar, or one value per element of a stack, as a factor per matrix
    return np.asarray(x)[..., np.newaxis, np.newaxis]


def _clip(raw):
    return np.where(raw > 0.0, raw, 0.0)[()]


def _eve_term(e1: np.ndarray, e2: np.ndarray, policy: PowerPolicy, config: AntennaConfig):
    """Eavesdropper information rate from the Grams E1 E1* and E2 E2*.

    log-det ratio of the Eve covariance with and without the information
    signal; the artificial noise term sits in both determinants.
    """
    signal = _per_matrix(policy.rho) * _per_matrix((1.0 / config.n_r) * policy.P)
    an = _per_matrix(policy.an_cov_scale(config.n_t, config.n_r))
    base = an * e2 + policy.sigma2_eve * np.eye(config.n_e)
    return _logdet_ratio(signal * e1 + base, base)


def secrecy_rate_perfect_basic(
    channels: ChannelSet, policy: PowerPolicy, config: AntennaConfig
) -> SecrecyRate:
    """Secrecy rate with perfect CSI and SVD-aligned precoding, no G filter.

    The receiver applies only the jammer nuller V; the effective direct
    channel is V* U(Hd) Sigma1(Hd) because the information precoder absorbs
    the right singular vectors.
    """
    hd = as_matrix(channels.Hd, "Hd")
    u, s, vh = np.linalg.svd(hd, full_matrices=True)
    n_r = config.n_r
    v1 = adjoint(vh[:n_r])
    v0 = adjoint(vh[n_r:])
    v = left_nullspace_basis(channels.Hj)
    h_eff = v.conj().T @ u @ np.diag(s)
    per_stream = (1.0 / n_r) * policy.P
    t_plus = _logdet_ratio(
        np.eye(v.shape[1]) + (policy.rho * per_stream / policy.sigma2) * (h_eff @ h_eff.conj().T),
        np.eye(v.shape[1]),
    )
    he = as_matrix(channels.He, "He")
    t_minus = _eve_term(_gram(he @ v1), _gram(he @ v0), policy, config)
    raw = t_plus - t_minus
    return SecrecyRate(clipped=_clip(raw), raw=raw, t_plus=t_plus, t_minus=t_minus)


def _gram(s: np.ndarray) -> np.ndarray:
    return s @ adjoint(s)


def _precoder_grams(channels, precoders, filters, policy) -> RateGrams:
    # S2 is zero to round-off when W2 spans the nullspace of Hd
    g = filters.G
    gvh = adjoint(g) @ adjoint(filters.V) @ as_stack(channels.Hd, "Hd")
    s2 = gvh @ precoders.W2
    he = as_stack(channels.He, "He")
    e1, e2 = _gram(he @ precoders.W1), _gram(he @ precoders.W2)
    noise = policy.sigma2 * (adjoint(g) @ g)
    return RateGrams(_gram(gvh @ precoders.W1), _gram(s2), e1, e2, noise, frobenius_sq(s2))


def trial_couplings(
    channels: ChannelSet, filters: ReceiverFilters, policy: PowerPolicy
) -> TrialCouplings:
    """A trial's TrialCouplings, from its channels and receive filters."""
    g_star, he = adjoint(filters.G), as_stack(channels.He, "He")
    a = g_star @ adjoint(filters.V) @ adjoint(filters.C)
    return TrialCouplings(a, he, he @ filters.F, _gram(he), policy.sigma2 * (g_star @ filters.G))


def step_grams(couplings: TrialCouplings, step) -> RateGrams:
    """The Gram set of the precoders at a :func:`~secmimo.grassmann.perturb_gram` step.

    For the step (Z, eps, K, J) and Y = He F + eps He Z: S1 S1* = A K A*,
    S2 S2* = A J A*, ||S2||_F^2 = tr(A J A*), E1 E1* = Y K Y* and E2 E2* =
    He He* - E1 E1*, since W1 W1* = (F + eps Z) K (F + eps Z)* and W2 W2* =
    I - W1 W1*. The step to distance 0 (K = I, J = 0, Y = He F) gives the
    Gram set of perfect precoders.
    """
    c = couplings
    z, eps, k, j = step
    y = c.HeF + eps[..., np.newaxis, np.newaxis] * (c.He @ z)
    a_star = adjoint(c.A)
    s2, e1 = c.A @ j @ a_star, y @ k @ adjoint(y)
    frob2 = np.einsum("...ii->...", s2).real
    return RateGrams(c.A @ k @ a_star, s2, e1, c.HeHe - e1, c.noise, frob2)


def grams_rate(grams: RateGrams, policy: PowerPolicy, config: AntennaConfig) -> SecrecyRate:
    """Two-stage secrecy rate of a Gram set: one log-det ratio per term and element.

    Positive term: the receive covariance rho P/n_r S1 S1* + L + sigma^2 G* G
    against L + sigma^2 G* G, with the leakage Gram L = (1-rho) P/(n_t - n_r)
    S2 S2*. Negative term: the eavesdropper's, from E1 E1* and E2 E2* with
    white noise sigma_e^2. The result's `leakage` is tr L.
    """
    signal = _per_matrix(policy.rho) * _per_matrix((1.0 / config.n_r) * policy.P)
    leak = _per_matrix(policy.an_cov_scale(config.n_t, config.n_r)) * grams.s2
    t_plus = _logdet_ratio(signal * grams.s1 + leak + grams.noise, leak + grams.noise)
    t_minus = _eve_term(grams.e1, grams.e2, policy, config)
    return _two_stage_rate(t_plus, t_minus, grams.frob2, policy, config)


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
    return grams_rate(_precoder_grams(channels, precoders, filters, policy), policy, config)


def _two_stage_rate(t_plus, t_minus, frob2, policy: PowerPolicy, config) -> SecrecyRate:
    raw = t_plus - t_minus
    return SecrecyRate(
        clipped=_clip(raw),
        raw=raw,
        t_plus=t_plus,
        t_minus=t_minus,
        leakage=(policy.an_cov_scale(config.n_t, config.n_r) * frob2)[()],
    )


def _sweep_ratio(power, numer, denom, floor=None):
    """log2 det(N + P numer) - log2 det(N + P denom) at every power P at once.

    With the floor N = C C* (the identity when None), each determinant is
    det N det(I + P K) for the whitened K = C^{-1} M C^{-*}, so the ratio is
    sum_i log2(1 + P lambda_i) - sum_i log2(1 + P nu_i) over the
    eigenvalues of the two K. Every matrix must be finite, and N and each
    N + P M positive definite; each matrix is symmetrized with hermitian_part.
    """
    pair = as_stack(hermitian_part(np.stack(np.broadcast_arrays(numer, denom))), "sweep input")
    if floor is not None:
        inv_c = np.linalg.inv(_cholesky(hermitian_part(floor)))
        pair = inv_c @ pair @ adjoint(inv_c)
    lam, nu = np.linalg.eigvalsh(pair)
    p = np.asarray(power)[..., np.newaxis]
    x, y = p * lam, p * nu
    if not (np.all(x > -1.0) and np.all(y > -1.0)):
        low = float(np.min(1.0 + np.minimum(x, y)))
        raise NotPositiveDefiniteError(
            f"matrix is not positive definite (min whitened eigenvalue {low:.6e})",
            min_eigenvalue=low,
        )
    return (np.sum(np.log1p(x), axis=-1) - np.sum(np.log1p(y), axis=-1)) * LOG2_E


def grams_rate_sweep(grams: RateGrams, policy: PowerPolicy, config: AntennaConfig) -> SecrecyRate:
    """:func:`grams_rate` for a Gram set held fixed over a vector of powers.

    With N = sigma^2 G* G = C C*, c1 = rho / n_r and c2 = (1-rho)/(n_t - n_r),
    the positive term at power P is

        t+(P) = sum_i log2(1 + P lambda_i) - sum_i log2(1 + P nu_i),

    lambda and nu the eigenvalues of C^{-1} (c1 S + c2 L) C^{-*} and of
    C^{-1} (c2 L) C^{-*}, where S = S1 S1* and L = S2 S2*. The eavesdropper
    term is the same with (c1 E1 + c2 E2) / sigma_e^2 and c2 E2 / sigma_e^2,
    from E1 E1* and E2 E2*. One eigen-solve per element serves every power.
    `policy.P` broadcasts against the stack's leading shape as in
    :func:`grams_rate`, so a stack of shape (T, 1) and P powers give
    (T, P) arrays.
    """
    c1 = _per_matrix(policy.rho * (1.0 / config.n_r))
    c2 = _per_matrix((1.0 - policy.rho) / (config.n_t - config.n_r))
    leak = c2 * grams.s2
    t_plus = _sweep_ratio(policy.P, c1 * grams.s1 + leak, leak, floor=grams.noise)
    eve_leak = c2 * grams.e2
    t_minus = _sweep_ratio(
        policy.P, (c1 * grams.e1 + eve_leak) / policy.sigma2_eve, eve_leak / policy.sigma2_eve
    )
    return _two_stage_rate(t_plus, t_minus, grams.frob2, policy, config)


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

    Difference of the post-filtered log-determinant with and without the
    leakage Gram matrix, evaluated at information covariance P I (the
    diagnostic normalization, not the rate policy). Nonnegative for every P
    because the leakage matrix is positive semidefinite; converges to zero
    under the power-matched bit schedule.
    """
    m1 = _per_matrix(policy.rho * policy.P) * grams.s1
    leak = _per_matrix(policy.an_cov_scale(config.n_t, config.n_r)) * grams.s2
    return _logdet_ratio(m1 + leak + grams.noise, m1 + grams.noise)


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
) -> SdofEstimate:
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
    slope, intercept = np.polyfit(log2_p, vals[mask], 1)
    return SdofEstimate(slope=float(slope), intercept=float(intercept), fit_window=(lo, hi))
