"""Subspace quantization on the Grassmann manifold G(n_t, n_r).

A point of the manifold is an n_r-dimensional subspace of complex n_t-space,
represented by a tall matrix with orthonormal columns. Representatives are
unique only up to a right-unitary factor, so subspace equality is always
tested through the chordal distance, never entrywise.

Two quantizers live here: the exhaustive minimum-distance search against an
explicit codebook (tractable for small bit budgets, used as the oracle), and
a random-perturbation surrogate that constructs a neighbor at exactly the
worst-case distance the sphere-packing bound (Dai, Liu & Rider, IEEE Trans.
IT 2008) predicts for a given bit budget, finding the step size by Newton's
method and checking the distance once. Experiments use the surrogate because
packing-based codebooks are infeasible beyond a few tens of bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    CodebookTooLargeError,
    InvalidInputError,
    PerturbationError,
    ShapeError,
)
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
class GrassmannPoint:
    """Subspace representative: a tall matrix with orthonormal columns.

    The matrix may also be a stack of representatives, ``(..., n_t, n_r)``,
    one point per leading index.
    """

    matrix: np.ndarray

    def __post_init__(self):
        mat = as_stack(self.matrix, "subspace representative")
        n_t, n_r = mat.shape[-2:]
        if n_t < n_r:
            raise ShapeError(f"representative must be tall, got {n_t}x{n_r}")
        if np.any(orthonormality_error(mat) > ORTHO_TOL):
            raise InvalidInputError("representative columns are not orthonormal to 1e-10")
        object.__setattr__(self, "matrix", mat)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.matrix.shape


def _rep(point) -> np.ndarray:
    """Accept a GrassmannPoint or a bare orthonormal ndarray."""
    if isinstance(point, GrassmannPoint):
        return point.matrix
    return np.asarray(point, dtype=np.complex128)


@dataclass(frozen=True)
class Codebook:
    """Ordered quantization codebook shared by transmitter and receiver.

    `points` is one ``(size, n_t, n_r)`` stack of representatives, validated
    once as a stacked :class:`GrassmannPoint`.
    """

    points: np.ndarray
    bits: int

    def __post_init__(self):
        points = GrassmannPoint(self.points).matrix
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
    s = _rep(a)
    f = _rep(b)
    if s.shape[-2:] != f.shape[-2:]:
        raise ShapeError(f"subspace shapes differ: {s.shape} vs {f.shape}")
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
    if n_f < 1:
        raise InvalidInputError(f"bit budget must be >= 1, got {n_f}")
    n_dim = 2 * n_r * (n_t - n_r)
    # c = [1 / (n_r (n_t - n_r))!] * prod_{i=1..n_r} (n_t - i)! / (n_r - i)!
    log_c = -math.lgamma(n_r * (n_t - n_r) + 1)
    for i in range(1, n_r + 1):
        log_c += math.lgamma(n_t - i + 1) - math.lgamma(n_r - i + 1)
    exponent = -(log_c + n_f * math.log(2.0)) / n_dim
    # exp() underflows to 0.0 for huge bit budgets, which is the right limit
    return 2.0 * math.exp(exponent) if exponent > -700 else 0.0


def codebook_generate(n_t: int, n_r: int, n_f: int, rng: np.random.Generator) -> Codebook:
    """Random codebook of 2^n_f independent Haar-distributed subspaces.

    A stand-in for Grassmannian sphere packing in the exhaustive-search
    regime; guarded to n_f <= 20 because the codebook is materialized.
    """
    if n_f < 1:
        raise InvalidInputError(f"bit budget must be >= 1, got {n_f}")
    if n_f > MAX_EXHAUSTIVE_BITS:
        raise CodebookTooLargeError(
            f"2^{n_f} codewords is beyond the exhaustive regime "
            f"(max {MAX_EXHAUSTIVE_BITS} bits); perturb at quantization_target instead"
        )
    size = 2**n_f
    # Batched Haar draws: all real parts first, then all imaginary parts.
    parts = rng.standard_normal(size=(2, size, n_t, n_r))
    return Codebook(points=haar_columns(complex_gaussian(np.moveaxis(parts, 0, 1))), bits=n_f)


def quantize(point, book: Codebook) -> tuple[GrassmannPoint, int, float]:
    """Exhaustive minimum-chordal-distance quantization against a codebook.

    Returns the winning codeword, its index, and the achieved distance.
    Ties break toward the lowest index. The scan uses the Gram-norm identity
    d^2 = n_r - ||S* F||_F^2, which orders codewords identically to the
    projector-difference definition.
    """
    f = _rep(point)
    if f.shape != book.ambient:
        raise ShapeError(f"point shape {f.shape} does not match codebook ambient {book.ambient}")
    cross = np.einsum("kij,il->kjl", book.points.conj(), f)
    d_sq = f.shape[1] - np.sum(np.abs(cross) ** 2, axis=(1, 2))
    idx = int(np.argmin(d_sq))
    best = GrassmannPoint(book.points[idx])
    return best, idx, chordal_distance(best, f)


def quantization_target(n_f: int, n_t: int, n_r: int) -> float:
    """Perturbation quantizer's distance: quant_error_bound clamped inside the diameter."""
    bound = quant_error_bound(n_f, n_t, n_r)  # checks the counts before the sqrt
    return min(bound, _DIAMETER_CLAMP * math.sqrt(min(n_r, n_t - n_r)))


def _check_target(distance, r: int) -> None:
    if np.any((np.asarray(distance) < 0) | (np.asarray(distance) >= math.sqrt(r))):
        raise InvalidInputError(
            f"target distance {distance} outside [0, sqrt(min(n_r, n_t - n_r)))"
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
    and `distance` broadcast together (else ShapeError) to the shape of t.
    """
    n_t, n_r = f.shape[-2:]
    r = min(n_r, n_t - n_r)
    _check_target(distance, r)
    try:
        shape = np.broadcast_shapes(f.shape[:-2], np.shape(z)[:-2], np.shape(distance))
    except ValueError:
        stacks = f.shape[:-2], np.shape(z)[:-2], np.shape(distance)
        raise ShapeError(f"point, direction and target stacks {stacks} do not broadcast") from None
    z = z - f @ (adjoint(f) @ z)
    m = adjoint(z) @ z
    target = np.broadcast_to(distance, shape)
    d2 = (target * target).reshape(-1)
    s2 = np.broadcast_to(_top_squared_singular_values(m, r), shape + (r,)).reshape(-1, r)
    t = np.zeros(d2.shape)
    live = np.flatnonzero((target.reshape(-1) >= ZERO_DISTANCE) & (s2[:, 0] > 0.0))
    # At most 8 steps on a full-rank Z. On a rank-deficient Z that cannot
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
        raise PerturbationError(f"reached chordal distance {got:.6g}, not {want:.6g}")


def perturb_basis(point, z, distance) -> np.ndarray:
    """Unitary [W1 W2] whose leading columns W1 sit at a chordal distance from `point`.

    One complete QR of F + eps Z gives W1 (its first n_r columns) and the
    orthogonal complement W2. The achieved distance ||W2* F||_F must match
    to PERTURB_TOL; a miss (a rank-deficient Z) raises PerturbationError.
    The stacks of `point` ``(..., n_t, n_r)``, directions `z` and targets
    `distance` broadcast together (else ShapeError) to the result's, and an
    element whose target is below ZERO_DISTANCE keeps the point as W1.
    """
    f = _rep(point)
    n_r = f.shape[-1]
    z, _, t, target = _perturb_step(f, z, distance)
    # a zero target has eps = 0, so its W2 completes F itself
    q = np.linalg.qr(f + np.sqrt(t)[..., np.newaxis, np.newaxis] * z, mode="complete").Q
    zero = (target < ZERO_DISTANCE)[..., np.newaxis, np.newaxis]
    if np.any(zero):
        q[..., :n_r] = np.where(zero, f, q[..., :n_r])
    _check_reached(np.linalg.norm(adjoint(q[..., n_r:]) @ f, axis=(-2, -1)), target)
    return q


def perturb_gram(point, z, distance):
    """:func:`perturb_basis`'s step as (Z, eps, K, J), n_r x n_r Grams and no QR.

    F* Z = 0, so the reduced QR of F + eps Z has R* R = I + t M. Then W1 W1* =
    (F + eps Z) K (F + eps Z)* with K = (I + t M)^{-1}, and F* W2 W2* F =
    J = t M K, formed so that tiny targets do not cancel in I - K. The
    achieved distance sqrt(tr J) is checked as in :func:`perturb_basis`.
    """
    f = _rep(point)
    z, m, t, target = _perturb_step(f, z, distance)
    tm = t[..., np.newaxis, np.newaxis] * m
    k = np.linalg.inv(np.eye(f.shape[-1]) + tm)
    j = tm @ k
    _check_reached(np.sqrt(np.einsum("...ii->...", j).real), target)
    return z, np.sqrt(t), k, j


def feedback_bits(power: float, epsilon: float, n_t: int, n_r: int) -> int:
    """Bit budget n_f = ceil((1 + epsilon) n_r (n_t - n_r) log2 P) of the power-scaled law.

    Rounding up keeps the sufficiency direction of the scaling law. The law
    yields no bits at P <= 1; the quantizer still needs one, which at these
    powers is maximal quantization error anyway.
    """
    if not 0 <= epsilon < math.inf:
        raise InvalidInputError(f"epsilon must be finite and >= 0, got {epsilon}")
    if power <= 1.0:
        return 1
    half_dim = n_r * (n_t - n_r)
    return math.ceil((1.0 + epsilon) * half_dim * math.log2(power))
