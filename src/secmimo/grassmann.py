"""Subspace quantization on the Grassmann manifold G(n_t, k).

A point of the manifold is a k-dimensional subspace of complex n_t-space,
represented by a tall matrix with orthonormal columns. Representatives are
unique only up to a right-unitary factor, so subspace equality is always
tested through the chordal distance, never entrywise.

Two quantizers live here: the exhaustive minimum-distance search against an
explicit codebook (tractable for small bit budgets, used as the oracle), and
a random-perturbation surrogate that constructs a neighbor at exactly the
worst-case distance the sphere-packing bound (Dai, Liu & Rider, IEEE Trans.
IT 2008) predicts for a given bit budget, finding the step size by Newton's
method and checking the distance once. Experiments use the surrogate because
packing-based codebooks are infeasible beyond a few tens of bits. The bit
law and the target read the fed-back G(n_t, k) from an `AntennaConfig` by
attribute: `transceiver` imports this module, so this one cannot import it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, NumericalError
from .linalg import (
    ORTHO_TOL,
    adjoint,
    as_stack,
    complex_gaussian,
    first_flagged,
    haar_columns,
    orthonormality_error,
)

# Largest bit budget for which an explicit codebook is still generated and
# scanned exhaustively. Beyond this, the engine places the quantized
# subspace at quantization_target with perturb_gram.
MAX_EXHAUSTIVE_BITS = 20

# Achieved-vs-target distance tolerance of the perturbation quantizer.
PERTURB_TOL = 1e-6

# Target clamp just inside the manifold diameter: the bound exceeds it at
# tiny bit budgets, and the step t that _perturb_step solves for grows without bound near it.
_DIAMETER_CLAMP = 0.999

# Targets below this leave the point where it is and draw no direction.
ZERO_DISTANCE = 1e-15


@dataclass(frozen=True)
class Codebook:
    """Ordered quantization codebook shared by transmitter and receiver.

    `points` is one ``(size, n_t, n_r)`` stack of representatives: finite,
    tall, with orthonormal columns, and between 1 and 2^bits of them.
    """

    points: np.ndarray
    bits: int

    def __post_init__(self):
        points = as_stack(self.points, "subspace representative")
        n_t, n_r = points.shape[-2:]
        if n_t < n_r:
            raise InvalidInputError(f"representative must be tall, got {n_t}x{n_r}")
        if np.any(orthonormality_error(points) > ORTHO_TOL):
            raise InvalidInputError("representative columns are not orthonormal to 1e-10")
        if points.ndim != 3 or not 1 <= len(points) <= 2**self.bits:
            raise InvalidInputError(
                f"codebook must stack between 1 and 2^{self.bits} points, got {points.shape}"
            )
        object.__setattr__(self, "points", points)

    @property
    def ambient(self) -> tuple[int, int]:
        return self.points.shape[1:]

    def __len__(self) -> int:
        return len(self.points)


def chordal_distance(a, b):
    """Chordal distance (1/sqrt(2)) * ||A A* - B B*||_F between two subspaces.

    Symmetric, zero iff the column spaces coincide, invariant under
    right-unitary changes of representative, and bounded by
    sqrt(min(n_r, n_t - n_r)). Stacks of representatives broadcast over
    their leading axes and give an array of distances.
    """
    s = np.asarray(a, dtype=np.complex128)
    f = np.asarray(b, dtype=np.complex128)
    if s.shape[-2:] != f.shape[-2:]:
        raise InvalidInputError(f"subspace shapes differ: {s.shape} vs {f.shape}")
    diff = s @ adjoint(s) - f @ adjoint(f)
    return (np.linalg.norm(diff, axis=(-2, -1)) / math.sqrt(2.0))[()]


def quant_error_bound(n_f: int, n_t: int, n_r: int) -> float:
    """Worst-case quantization distance for a sphere-packing codebook.

    delta = 2 / (c * 2^n_f)^(1/N) with N = 2 n_r (n_t - n_r); the vanishing
    higher-order factor is dropped. Monotone decreasing in n_f. The
    coefficient c of the metric-ball volume on G(n_t, n_r) is evaluated in
    log space so large antenna counts do not overflow the factorials.
    """
    if n_t <= n_r or n_r < 1:
        raise InvalidInputError(f"need n_t > n_r >= 1, got ({n_t}, {n_r})")
    if not n_f >= 1:  # so that NaN fails it
        raise InvalidInputError(f"bit budget must be >= 1, got {n_f}")
    n_dim = 2 * n_r * (n_t - n_r)
    # c = [1 / (n_r (n_t - n_r))!] * prod_{i=1..n_r} (n_t - i)! / (n_r - i)!
    log_c = -math.lgamma(n_r * (n_t - n_r) + 1)
    for i in range(1, n_r + 1):
        log_c += math.lgamma(n_t - i + 1) - math.lgamma(n_r - i + 1)
    exponent = -(log_c + n_f * math.log(2.0)) / n_dim
    # exp() underflows to 0.0 for huge bit budgets, which is the right limit
    return 2.0 * math.exp(exponent) if exponent > -700 else 0.0


# quant_error_bound per budget in `math`; numpy's exp differs in the last bit on some budgets.
_error_bounds = np.vectorize(quant_error_bound, otypes=[float])


def codebook_generate(n_t: int, n_r: int, n_f: int, rng: np.random.Generator) -> Codebook:
    """Random codebook of 2^n_f independent Haar-distributed subspaces.

    A stand-in for Grassmannian sphere packing in the exhaustive-search
    regime; guarded to n_f <= 20 because the codebook is materialized.
    """
    if not n_f >= 1:  # so that NaN fails it
        raise InvalidInputError(f"bit budget must be >= 1, got {n_f}")
    if n_f > MAX_EXHAUSTIVE_BITS:
        raise InvalidInputError(
            f"2^{n_f} codewords is beyond the exhaustive regime "
            f"(max {MAX_EXHAUSTIVE_BITS} bits); perturb at quantization_target instead"
        )
    size = 2**n_f
    # Batched Haar draws: all real parts first, then all imaginary parts.
    parts = rng.standard_normal(size=(2, size, n_t, n_r))
    return Codebook(points=haar_columns(complex_gaussian(np.moveaxis(parts, 0, 1))), bits=n_f)


def quantize(point, book: Codebook) -> tuple[np.ndarray, int, float]:
    """Exhaustive minimum-chordal-distance quantization against a codebook.

    Returns the winning codeword, its index, and the achieved distance.
    Ties break toward the lowest index. The scan uses the Gram-norm identity
    d^2 = n_r - ||S* F||_F^2, which orders codewords identically to the
    projector-difference definition.
    """
    f = np.asarray(point, dtype=np.complex128)
    if f.shape != book.ambient:
        raise InvalidInputError(
            f"point shape {f.shape} does not match codebook ambient {book.ambient}"
        )
    cross = np.einsum("kij,il->kjl", book.points.conj(), f)
    d_sq = f.shape[1] - np.sum(np.abs(cross) ** 2, axis=(1, 2))
    idx = int(np.argmin(d_sq))
    best = book.points[idx]
    return best, idx, chordal_distance(best, f)


def quantization_target(n_f, config):
    """Per budget in `n_f`, quant_error_bound on `config`'s G(n_t, k), clamped in the diameter."""
    n_t, k = config.n_t, config.k
    return np.minimum(_error_bounds(n_f, n_t, k), _DIAMETER_CLAMP * math.sqrt(min(k, n_t - k)))[()]


def _check_target(distance, r: int) -> None:
    bad = ~((np.asarray(distance) >= 0) & (np.asarray(distance) < math.sqrt(r)))  # NaN fails
    if np.any(bad):
        raise InvalidInputError(
            f"target distance {first_flagged(distance, bad)} outside [0, sqrt(min(k, n_t - k)))"
        )


def _top_squared_singular_values(gram: np.ndarray, r: int) -> np.ndarray:
    """The r largest sigma_i(Z)^2, descending, as eigenvalues of each Gram Z* Z."""
    return np.linalg.eigvalsh(gram)[..., ::-1][..., :r]


def _perturb_step(f: np.ndarray, z, distance):
    """The quantizer's step (Z, M, t, target): Z projected off span(F), M = Z* Z.

    span(F + eps Z) has principal angles tan(theta_i) = eps sigma_i(Z), so
    for t = eps^2, d(t)^2 = sum_i t sigma_i^2 / (1 + t sigma_i^2) over the
    r = min(n_r, n_t - n_r) largest sigma_i. Newton's method on the concave
    1 / (r - d(t)^2) climbs from t = 0 to the target, for each element to
    its own stopping rule; t = 0 below ZERO_DISTANCE. The stacks of `f`, `z`
    and `distance` broadcast together (else InvalidInputError) to the shape
    of t.
    """
    n_t, n_r = f.shape[-2:]
    r = min(n_r, n_t - n_r)
    _check_target(distance, r)
    try:
        shape = np.broadcast_shapes(f.shape[:-2], np.shape(z)[:-2], np.shape(distance))
    except ValueError:
        stacks = f.shape[:-2], np.shape(z)[:-2], np.shape(distance)
        raise InvalidInputError(
            f"point, direction and target stacks {stacks} do not broadcast"
        ) from None
    z = z - f @ (adjoint(f) @ z)
    m = adjoint(z) @ z
    target = np.broadcast_to(distance, shape)
    d2 = (target * target).reshape(-1)
    s2 = np.broadcast_to(_top_squared_singular_values(m, r), shape + (r,)).reshape(-1, r)
    t = np.zeros(d2.shape)
    live = np.flatnonzero((target.reshape(-1) >= ZERO_DISTANCE) & (s2[:, 0] > 0.0))
    # A full-rank Z took at most 11 steps per element on the perfbench runs
    # at seeds 0-31: 7, 11 and 9 on slope's (4, 2, 1, 2), (6, 3, 1, 3) and
    # (8, 4, 1, 4), 8 on gap_vs_bits. On a rank-deficient Z that cannot
    # reach the target the steps diverge, or turn negative on the round-off
    # of a zero sigma_i: an element stops before t < 0 or t sigma_1^2 > 1e16.
    for _ in range(64):
        if live.size == 0:
            break
        tl, sl, dl = t[live, np.newaxis], s2[live], d2[live]
        a = 1.0 + tl * sl
        g = np.sum(tl * sl / a, axis=-1)
        # Newton step on 1 / (r - g), written so that r - d2 never cancels
        # against r - g at tiny targets.
        step = (dl - g) * (r - g) / ((r - dl) * np.sum(sl / (a * a), axis=-1))
        new = t[live] + step
        ok = (new >= 0.0) & (new * sl[:, 0] < 1e16)
        t[live[ok]] = new[ok]
        live = live[ok & ~(step <= 1e-15 * new)]
    return z, m, t.reshape(shape), target


def _check_reached(achieved, target) -> None:
    miss = ~(np.abs(achieved - target) <= PERTURB_TOL)
    if np.any(miss):
        got, want = first_flagged(np.stack(np.broadcast_arrays(achieved, target), -1), miss)
        raise NumericalError(
            f"reached chordal distance {float(got)!r}, not {float(want)!r} "
            f"(miss {abs(got - want):.3e} > tolerance {PERTURB_TOL:.0e})"
        )


def perturb_gram(point, z, distance):
    """The quantizer's step as (Z, eps, K, J), n_r x n_r Grams and no QR.

    F* Z = 0, so the reduced QR of F + eps Z has R* R = I + t M. Then W1 W1* =
    (F + eps Z) K (F + eps Z)* with K = (I + t M)^{-1}, and F* W2 W2* F =
    J = t M K, formed so that tiny targets do not cancel in I - K. The
    achieved distance sqrt(tr J) must match to PERTURB_TOL, as in
    :func:`~secmimo.transceiver.tx_precoders_quantized`'s complete QR.
    """
    f = np.asarray(point, dtype=np.complex128)
    z, m, t, target = _perturb_step(f, z, distance)
    tm = t[..., np.newaxis, np.newaxis] * m
    k = np.linalg.inv(np.eye(f.shape[-1]) + tm)
    j = tm @ k
    _check_reached(np.sqrt(np.einsum("...ii->...", j).real), target)
    return z, np.sqrt(t), k, j


def feedback_bits(power: float, epsilon: float, config) -> int:
    """Bit budget n_f = ceil((1 + epsilon) k (n_t - k) log2 P) of the power-scaled law.

    Rounding up keeps the sufficiency direction of the scaling law. The law
    yields no bits at 0 < P <= 1; the quantizer still needs one, which at
    these powers is maximal quantization error anyway.
    """
    # each check is written so that NaN fails it
    if not 0 <= epsilon < math.inf:
        raise InvalidInputError(f"epsilon must be finite and >= 0, got {epsilon}")
    if not 0 < power < math.inf:
        raise InvalidInputError(f"transmit power must be positive and finite, got {power}")
    if power <= 1.0:
        return 1
    return math.ceil((1.0 + epsilon) * (config.k * (config.n_t - config.k)) * math.log2(power))
