"""System-model construction for one transmission trial.

Samples the three channels (transmitter-to-receiver, transmitter-to-
eavesdropper, jammer-to-receiver), builds the transmit precoders that split
power between the information signal and artificial noise, the receive-side
jammer nuller and post-processing filter, and the worst-case bound on the
artificial-noise leakage that appears when the transmitter only has
quantized knowledge of the direct channel.

Conventions: the information precoder W1 is n_t x n_r, the artificial-noise
precoder W2 is n_t x (n_t - n_r), both with orthonormal columns and mutually
orthogonal. With perfect knowledge W2 spans the nullspace of the direct
channel, so the receiver sees no artificial noise at all.

Every matrix may also be a stack of matrices along leading axes, one trial
(or trial and operating point) per index; the builders here and the rate
kernels apply to each element and broadcast trial-level stacks of shape
``(T, 1, ...)`` against point-level stacks of shape ``(T, P, ...)``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, NumericalError
from .grassmann import ZERO_DISTANCE, _check_reached, _error_bounds, _perturb_step
from .linalg import (
    ORTHO_TOL,
    RANK_RTOL,
    adjoint,
    as_stack,
    complex_gaussian,
    first_flagged,
    haar_columns,
    hermitian_part,
    left_nullspace_basis,
    orthonormality_error,
    qr_tall,
    random_gaussian_matrix,
)


@dataclass(frozen=True)
class AntennaConfig:
    """Antenna counts of the four terminals plus the derived dimensions.

    Validity requires integer counts (no bools) up to the largest float, with
    n_t > n_r > n_j >= 0 (nullspaces for artificial noise and jammer nulling
    both exist) and n_e <= n_t - k (Eve cannot escape the artificial noise).
    """

    n_t: int
    n_r: int
    n_j: int
    n_e: int

    def __post_init__(self):
        counts = (self.n_t, self.n_r, self.n_j, self.n_e)
        if not all(isinstance(n, (int, np.integer)) and not isinstance(n, bool) for n in counts):
            raise InvalidInputError(f"antenna counts must be integers, got {counts}")
        if max(counts) > sys.float_info.max:
            raise InvalidInputError(f"antenna counts must be <= {sys.float_info.max:.4g}")
        if not (self.n_t > self.n_r > self.n_j >= 0):
            raise InvalidInputError(f"need n_t > n_r > n_j >= 0, got {counts[:3]}")
        if not (1 <= self.n_e <= self.n_t - self.k):
            raise InvalidInputError(f"need 1 <= n_e <= n_t - k, got {counts} with k = {self.k}")

    @property
    def k(self) -> int:
        """Fed-back dimension, a point of G(n_t, k), and the stream count: n_r."""
        return self.n_r

    @property
    def d_s(self) -> int:
        """Number of securable data streams, n_r - n_j."""
        return self.n_r - self.n_j


@dataclass(frozen=True)
class PowerPolicy:
    """Transmit power split for one operating point of `config`, at unit noise at both receivers.

    `rho` is the fraction of the power budget P on the k information
    streams; the rest drives artificial noise in the other n_t - k
    dimensions. P and rho may also be arrays over a stack's leading axes,
    one value per element.
    """

    P: float
    rho: float
    config: AntennaConfig

    def __post_init__(self):
        # each check is written so that NaN fails it, and names the first bad value
        p, rho = np.asarray(self.P), np.asarray(self.rho)
        for bad, value, need in (
            (~((p > 0) & (p < math.inf)), p, "transmit power must be positive and finite"),
            (~((rho > 0.0) & (rho < 1.0)), rho, "rho must lie in (0, 1)"),
        ):
            if np.any(bad):
                raise InvalidInputError(f"{need}, got {first_flagged(value, bad)}")
        if not isinstance(self.config, AntennaConfig):
            raise InvalidInputError(f"config must be an AntennaConfig, got {self.config!r}")

    @property
    def signal_scale(self) -> float:
        """Information covariance scale rho P / k, per stream."""
        return self.rho * ((1.0 / self.config.k) * self.P)

    @property
    def an_cov_scale(self) -> float:
        """Artificial-noise covariance scale (1 - rho) P / (n_t - k), per dimension."""
        return (1.0 - self.rho) * self.P / (self.config.n_t - self.config.k)


@dataclass(frozen=True)
class ChannelSet:
    """The three channel matrices of one trial (fixed during transmission)."""

    Hd: np.ndarray  # n_r x n_t, transmitter to receiver
    He: np.ndarray  # n_e x n_t, transmitter to eavesdropper
    Hj: np.ndarray  # n_r x n_j, jammer to receiver (zero columns if no jammer)


@dataclass(frozen=True)
class Precoders:
    """Transmit precoders: W1 for data, W2 for artificial noise."""

    W1: np.ndarray
    W2: np.ndarray

    def __post_init__(self):
        w1 = as_stack(self.W1, "W1")
        w2 = as_stack(self.W2, "W2")
        if w1.shape[:-1] != w2.shape[:-1]:
            raise InvalidInputError(
                f"W1 and W2 need the same rows and stack, got {w1.shape}, {w2.shape}"
            )
        # ||[W1 W2]* [W1 W2] - I||_F bounds ||W1* W1 - I||_F, ||W2* W2 - I||_F
        # and ||W1* W2||_F at once; written so that NaN fails it
        if not np.all(orthonormality_error(np.concatenate((w1, w2), axis=-1)) <= ORTHO_TOL):
            raise InvalidInputError(
                "W1 and W2 are not orthonormal columns of one unitary to 1e-10"
            )


@dataclass(frozen=True)
class ReceiverFilters:
    """Receive-side matrices: jammer nuller V, post-filter G and its factors.

    F and C are the orthonormal/triangular factors of the conjugated direct
    channel, and G satisfies G* = B* F C V (V* C* C V)^{-1} for the tall
    truncated-unitary design matrix B.
    """

    V: np.ndarray  # n_r x d_s
    G: np.ndarray  # d_s x d_s
    F: np.ndarray  # n_t x n_r
    C: np.ndarray  # n_r x n_r


def sample_channels(config: AntennaConfig, rng: np.random.Generator) -> ChannelSet:
    """Draw one i.i.d. CN(0,1) channel realization for every link."""
    hd = random_gaussian_matrix(config.n_r, config.n_t, rng)
    he = random_gaussian_matrix(config.n_e, config.n_t, rng)
    if config.n_j == 0:
        hj = np.zeros((config.n_r, 0), dtype=np.complex128)
    else:
        hj = random_gaussian_matrix(config.n_r, config.n_j, rng)
    return ChannelSet(Hd=hd, He=he, Hj=hj)


def sample_trials(config: AntennaConfig, rngs) -> tuple[ChannelSet, np.ndarray]:
    """Channels and receiver design matrix B of a block of trials: each trial's first draw.

    Trial i draws from ``rngs[i]`` with one standard-normal call, in the
    order of :func:`sample_channels`, then ``random_truncated_unitary(n_t,
    d_s)`` for B. A generator's consecutive draws concatenate, so each trial
    gets exactly what those calls made one after another return. Every
    array has leading shape ``(len(rngs), 1)``.
    """
    n_t, n_r, trials = config.n_t, config.n_r, len(rngs)
    shapes = [(n_r, n_t), (config.n_e, n_t), (n_r, config.n_j), (n_t, config.d_s)]
    sizes = [2 * m * n for m, n in shapes]
    normals = np.stack([rng.standard_normal(sum(sizes)) for rng in rngs])
    parts = np.split(normals, np.cumsum(sizes)[:-1], axis=1)
    hd, he, hj, b = (
        complex_gaussian(part.reshape(trials, 1, 2, m, n))
        for part, (m, n) in zip(parts, shapes)
    )
    return ChannelSet(Hd=hd, He=he, Hj=hj), haar_columns(b)


def sample_directions(config: AntennaConfig, rngs, directions) -> np.ndarray:
    """Quantizer directions of a block of trials: each trial's second draw.

    Trial i draws from ``rngs[i]``, after :func:`sample_trials`, one n_t x
    k Gaussian direction per operating point flagged in `directions`, as
    that many ``random_gaussian_matrix(n_t, k)`` calls would. The result
    has shape ``(len(rngs), len(directions), n_t, k)``, zero at the
    unflagged points.
    """
    n_t, k = config.n_t, config.k
    flagged = np.asarray(directions, dtype=bool)
    n_z = int(flagged.sum())
    normals = np.stack([rng.standard_normal(2 * n_z * n_t * k) for rng in rngs])
    drawn = complex_gaussian(normals.reshape(len(rngs), n_z, 2, n_t, k))
    if n_z == flagged.size:
        return drawn
    z = np.zeros((len(rngs), flagged.size, n_t, k), dtype=np.complex128)
    z[:, flagged] = drawn
    return z


def tx_precoders_perfect(Hd) -> Precoders:
    """Precoders from the direct channel's SVD (perfect transmitter CSI).

    W2 spans the nullspace of Hd so artificial noise vanishes at the
    receiver; W1 spans the orthogonal complement (the row space).
    """
    hd = as_stack(Hd, "Hd")
    n_r, n_t = hd.shape[-2:]
    if n_t <= n_r:
        raise InvalidInputError(f"need n_t > n_r for an artificial-noise nullspace, got {hd.shape}")
    _, s, vh = np.linalg.svd(hd, full_matrices=True)
    if np.any(s[..., -1] < RANK_RTOL * s[..., 0]):
        raise NumericalError("rank-deficient direct channel")
    v = adjoint(vh)
    return Precoders(W1=v[..., :, :n_r], W2=v[..., :, n_r:])


def tx_precoders_quantized(F, z, distance) -> Precoders:
    """Precoders from the quantized feedback of the receiver's subspace F.

    The quantized subspace sits at the chordal `distance` from F along the
    Gaussian direction `z`; W1 spans it and W2, its orthogonal complement,
    only approximately nulls the true channel. One complete QR of F + eps Z
    gives both. The achieved distance ||W2* F||_F must match to
    PERTURB_TOL; a miss (a rank-deficient Z) raises NumericalError. The
    stacks of F ``(..., n_t, n_r)``, directions `z` and targets `distance`
    broadcast together (else InvalidInputError), and an element whose
    target is below ZERO_DISTANCE keeps F as W1.
    """
    f = np.asarray(F, dtype=np.complex128)
    n_r = f.shape[-1]
    z, _, t, target = _perturb_step(f, z, distance)
    # a zero target has eps = 0, so its W2 completes F itself
    q = np.linalg.qr(f + np.sqrt(t)[..., np.newaxis, np.newaxis] * z, mode="complete").Q
    zero = (target < ZERO_DISTANCE)[..., np.newaxis, np.newaxis]
    if np.any(zero):
        q[..., :n_r] = np.where(zero, f, q[..., :n_r])
    _check_reached(np.linalg.norm(adjoint(q[..., n_r:]) @ f, axis=(-2, -1)), target)
    return Precoders(W1=q[..., :n_r], W2=q[..., n_r:])


def rx_postfilter(Hd, Hj, B) -> ReceiverFilters:
    """Two-stage receive filter: jammer nulling then channel-matched mixing.

    Factors the conjugated direct channel as Hd* = F C, nulls the jammer
    with V, and builds G* = B* F C V (V* C* C V)^{-1} for a tall
    truncated-unitary B (the design matrix :func:`sample_trials` draws).
    """
    hd = as_stack(Hd, "Hd")
    n_r, n_t = hd.shape[-2:]
    f, c = qr_tall(adjoint(hd))
    v = left_nullspace_basis(Hj)
    d_s = v.shape[-1]
    b = as_stack(B, "B")
    if b.shape[-2:] != (n_t, d_s):
        raise InvalidInputError(f"B must be {n_t}x{d_s}, got {b.shape}")
    if np.any(orthonormality_error(b) > ORTHO_TOL):
        raise InvalidInputError("B columns are not orthonormal")
    cv = c @ v
    gram = adjoint(cv) @ cv  # V* C* C V, Hermitian PD almost surely
    eigs = np.linalg.eigvalsh(hermitian_part(gram))
    singular = eigs[..., 0] < 1e-12 * np.maximum(1.0, eigs[..., -1])
    if np.any(singular):
        raise NumericalError(
            "V* C* C V is numerically singular "
            f"(min eigenvalue {first_flagged(eigs[..., 0], singular):.3e})"
        )
    # G* = (B* F C V) gram^{-1}; right-solve via the Hermitian of gram.
    g_star = adjoint(np.linalg.solve(gram, adjoint(adjoint(b) @ f @ cv)))
    g = adjoint(g_star)
    gg_eigs = np.linalg.eigvalsh(hermitian_part(adjoint(g) @ g))
    if np.any(gg_eigs[..., 0] < 1e-12 * np.maximum(1.0, gg_eigs[..., -1])):
        raise NumericalError("G* G is not positive definite")
    return ReceiverFilters(V=v, G=g, F=f, C=c)


def leakage_bound(policy: PowerPolicy, n_f) -> float:
    """Worst-case leakage power for a sphere-packing codebook with n_f bits.

    2 (1-rho) P / (n_t - k) * delta(n_f)^2 with delta the error bound on
    G(n_t, k) (higher-order factor dropped), independent of P under the
    power-matched bit schedule. Arrays of n_f and P broadcast together.
    """
    return 2.0 * policy.an_cov_scale * _error_bounds(n_f, policy.config.n_t, policy.config.k) ** 2
