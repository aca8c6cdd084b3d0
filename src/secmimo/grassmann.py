"""Subspace quantization on the Grassmann manifold G(n_t, n_r).

A point of the manifold is an n_r-dimensional subspace of complex n_t-space,
represented by a tall matrix with orthonormal columns. Representatives are
unique only up to a right-unitary factor, so subspace equality is always
tested through the chordal distance, never entrywise.

Two quantizers live here: the exhaustive minimum-distance search against an
explicit codebook (tractable for small bit budgets, used as the oracle), and
a random-perturbation surrogate that constructs a neighbor at exactly the
worst-case distance the sphere-packing bound (Dai, Liu & Rider, IEEE Trans.
IT 2008) predicts for a given bit budget, solving a closed form for the step
size and checking the distance once. Experiments use the surrogate because
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
    random_gaussian_matrix,
    random_truncated_unitary,
)

# Largest bit budget for which an explicit codebook is still generated and
# scanned exhaustively. Beyond this use perturb_quantize.
MAX_EXHAUSTIVE_BITS = 20

# Achieved-vs-target distance tolerance of the perturbation quantizer.
PERTURB_TOL = 1e-6

# Target clamp just inside the manifold diameter: the bound exceeds it at
# tiny bit budgets, and the closed-form root diverges near it.
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
    """Ordered quantization codebook shared by transmitter and receiver."""

    points: tuple
    bits: int
    ambient: tuple[int, int]

    def __post_init__(self):
        if not 1 <= len(self.points) <= 2**self.bits:
            raise InvalidInputError(
                f"codebook must hold between 1 and 2^{self.bits} points, got {len(self.points)}"
            )
        for p in self.points:
            if _rep(p).shape != self.ambient:
                raise ShapeError("codebook points must share the ambient shape")

    def __len__(self) -> int:
        return len(self.points)


@dataclass(frozen=True)
class FeedbackSchedule:
    """How the feedback bit budget is chosen: a fixed count or power-scaled."""

    mode: str
    fixed_bits: int | None = None
    epsilon: float | None = None

    def __post_init__(self):
        if self.mode == "fixed":
            if self.fixed_bits is None or self.fixed_bits < 1:
                raise InvalidInputError("fixed schedule needs fixed_bits >= 1")
        elif self.mode == "scaled":
            if self.epsilon is None or not 0 <= self.epsilon < math.inf:
                raise InvalidInputError(
                    f"scaled schedule needs a finite epsilon >= 0, got {self.epsilon}"
                )
        else:
            raise InvalidInputError(f"unknown schedule mode {self.mode!r}")

    @classmethod
    def fixed(cls, bits: int) -> "FeedbackSchedule":
        return cls(mode="fixed", fixed_bits=int(bits))

    @classmethod
    def scaled(cls, epsilon: float = 0.0) -> "FeedbackSchedule":
        return cls(mode="scaled", epsilon=float(epsilon))


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


def _log_ball_volume_coefficient(n_t: int, n_r: int) -> float:
    # log of  [1 / (n_r (n_t - n_r))!] * prod_{i=1..n_r} (n_t - i)! / (n_r - i)!
    log_c = -math.lgamma(n_r * (n_t - n_r) + 1)
    for i in range(1, n_r + 1):
        log_c += math.lgamma(n_t - i + 1) - math.lgamma(n_r - i + 1)
    return log_c


def ball_volume_coefficient(n_t: int, n_r: int) -> float:
    """Coefficient of the metric-ball volume on G(n_t, n_r).

    Evaluated in log space so large antenna counts do not overflow the
    intermediate factorials.
    """
    if n_t <= n_r or n_r < 1:
        raise InvalidInputError(f"need n_t > n_r >= 1, got ({n_t}, {n_r})")
    return math.exp(_log_ball_volume_coefficient(n_t, n_r))


def quant_error_bound(n_f: int, n_t: int, n_r: int) -> float:
    """Worst-case quantization distance for a sphere-packing codebook.

    delta = 2 / (c * 2^n_f)^(1/N) with N = 2 n_r (n_t - n_r); the vanishing
    higher-order factor is dropped. Monotone decreasing in n_f.
    """
    if n_f < 1:
        raise InvalidInputError(f"bit budget must be >= 1, got {n_f}")
    n_dim = 2 * n_r * (n_t - n_r)
    log_c = _log_ball_volume_coefficient(n_t, n_r)
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
            f"(max {MAX_EXHAUSTIVE_BITS} bits); use perturb_quantize instead"
        )
    size = 2**n_f
    # Batched Haar draws: all real parts first, then all imaginary parts.
    parts = rng.standard_normal(size=(2, size, n_t, n_r))
    q = haar_columns(complex_gaussian(np.moveaxis(parts, 0, 1)))
    points = tuple(GrassmannPoint(q[i]) for i in range(size))
    return Codebook(points=points, bits=n_f, ambient=(n_t, n_r))


def quantize(point, book: Codebook) -> tuple[GrassmannPoint, int, float]:
    """Exhaustive minimum-chordal-distance quantization against a codebook.

    Returns the winning codeword, its index, and the achieved distance.
    Ties break toward the lowest index. The scan uses the Gram-norm identity
    d^2 = n_r - ||S* F||_F^2, which orders codewords identically to the
    projector-difference definition.
    """
    f = _rep(point)
    if len(book) == 0:
        raise InvalidInputError("cannot quantize against an empty codebook")
    if f.shape != book.ambient:
        raise ShapeError(f"point shape {f.shape} does not match codebook ambient {book.ambient}")
    stack = np.stack([_rep(p) for p in book.points])
    cross = np.einsum("kij,il->kjl", stack.conj(), f)
    d_sq = f.shape[1] - np.sum(np.abs(cross) ** 2, axis=(1, 2))
    idx = int(np.argmin(d_sq))
    best = book.points[idx]
    return best, idx, chordal_distance(best, f)


def quantization_target(n_f: int, n_t: int, n_r: int) -> float:
    """Distance perturb_quantize realizes: quant_error_bound clamped inside the diameter."""
    diameter = math.sqrt(min(n_r, n_t - n_r))
    return min(quant_error_bound(n_f, n_t, n_r), _DIAMETER_CLAMP * diameter)


def _check_target(distance, r: int) -> None:
    if np.any((np.asarray(distance) < 0) | (np.asarray(distance) >= math.sqrt(r))):
        raise InvalidInputError(
            f"target distance {distance} outside [0, sqrt(min(n_r, n_t - n_r)))"
        )


def _top_squared_singular_values(z: np.ndarray, r: int) -> np.ndarray:
    """The r largest sigma_i(Z)^2 of each n_t x n_r matrix of `z`, descending.

    They are the eigenvalues of the n_r x n_r Gram matrix Z* Z, which is
    cheaper to factor than Z itself.
    """
    return np.linalg.eigvalsh(adjoint(z) @ z)[..., ::-1][..., :r]


def perturb_basis(point, z, distance) -> np.ndarray:
    """Unitary [W1 W2] whose leading columns W1 sit at a chordal distance from `point`.

    With Z projected off span(F), span(F + eps Z) has principal angles
    tan(theta_i) = eps sigma_i(Z), so for t = eps^2

        d(t)^2 = sum_i t sigma_i^2 / (1 + t sigma_i^2)

    over the r = min(n_r, n_t - n_r) largest sigma_i. Newton's method on the
    concave 1 / (r - d(t)^2) climbs from t = 0 to the target, and one
    complete QR of F + eps Z gives W1 (its first n_r columns) and the
    orthogonal complement W2 (the rest). The achieved distance is
    ||W2* F||_F, since both equal sqrt(sum_i sin^2 theta_i); it must match
    to PERTURB_TOL, and a miss (a rank-deficient Z, a measure-zero event)
    raises PerturbationError.

    Broadcasts over stacks: `point` is ``(..., n_t, n_r)``, `z` holds one
    n_t x n_r direction per element and `distance` one target per element;
    the result is ``(..., n_t, n_t)``. An element whose target is below
    ZERO_DISTANCE keeps the point itself as W1 and ignores its direction.
    Each element runs Newton's method to its own stopping rule, so an
    element's result does not depend on the stack.
    """
    f = _rep(point)
    n_t, n_r = f.shape[-2:]
    r = min(n_r, n_t - n_r)
    _check_target(distance, r)
    z = z - f @ (adjoint(f) @ z)
    s2 = _top_squared_singular_values(z, r)
    target = np.broadcast_to(distance, s2.shape[:-1])
    d2 = (target * target).reshape(-1)
    s2 = s2.reshape(-1, r)
    t = np.zeros(d2.shape)
    live = np.flatnonzero(target.reshape(-1) >= ZERO_DISTANCE)
    # Converges in at most 8 steps on a full-rank Z; the cap only ends the
    # loop when a rank-deficient Z cannot reach the target.
    for _ in range(64):
        if live.size == 0:
            break
        tl, sl, dl = t[live, np.newaxis], s2[live], d2[live]
        a = 1.0 + tl * sl
        g = np.sum(tl * sl / a, axis=-1)
        # Newton step on 1 / (r - g), written so that r - d2 never cancels
        # against r - g at tiny targets.
        step = (dl - g) * (r - g) / ((r - dl) * np.sum(sl / (a * a), axis=-1))
        t[live] += step
        live = live[~(step <= 1e-15 * t[live])]
    eps = np.sqrt(t).reshape(target.shape)[..., np.newaxis, np.newaxis]
    # a zero target has eps = 0, so its W2 completes F itself
    q = np.linalg.qr(f + eps * z, mode="complete").Q
    zero = (target < ZERO_DISTANCE)[..., np.newaxis, np.newaxis]
    if np.any(zero):
        q[..., :n_r] = np.where(zero, f, q[..., :n_r])
    achieved = np.linalg.norm(adjoint(q[..., n_r:]) @ f, axis=(-2, -1))
    miss = ~(np.abs(achieved - target) <= PERTURB_TOL)
    if np.any(miss):
        got, want = first_flagged(np.stack(np.broadcast_arrays(achieved, target), -1), miss)
        raise PerturbationError(f"reached chordal distance {got:.6g}, not {want:.6g}")
    return q


def perturb_along(point, z, distance) -> GrassmannPoint:
    """Move `point` along the Gaussian direction `z` to a chordal distance.

    The leading n_r columns of :func:`perturb_basis`, with the same
    broadcasting and the same checks.
    """
    f = _rep(point)
    return GrassmannPoint(perturb_basis(f, z, distance)[..., : f.shape[-1]])


def perturb_to_distance(point, distance: float, rng: np.random.Generator) -> GrassmannPoint:
    """Construct a subspace at a prescribed chordal distance from `point`.

    A positive target draws one n_t x n_r Gaussian direction and moves
    along it in closed form (:func:`perturb_along`); a target below
    ZERO_DISTANCE returns the point and draws nothing.
    """
    f = _rep(point)
    n_t, n_r = f.shape
    _check_target(distance, min(n_r, n_t - n_r))
    if distance < ZERO_DISTANCE:
        return GrassmannPoint(f.copy())
    return perturb_along(f, random_gaussian_matrix(n_t, n_r, rng), distance)


def perturb_quantize(point, n_f: int, rng: np.random.Generator) -> GrassmannPoint:
    """Random-perturbation surrogate for quantization with n_f bits.

    Returns a subspace whose distance from `point` equals
    quantization_target(n_f, n_t, n_r). Requires n_t >= 2 n_r so the
    perturbation approximation is valid.
    """
    f = _rep(point)
    n_t, n_r = f.shape
    if n_t < 2 * n_r:
        raise ShapeError(f"perturbation quantizer needs n_t >= 2 n_r, got ({n_t}, {n_r})")
    return perturb_to_distance(f, quantization_target(n_f, n_t, n_r), rng)


def feedback_bits(power: float, schedule: FeedbackSchedule, n_t: int, n_r: int) -> int:
    """Bit budget for a transmit power under the given schedule.

    Scaled mode implements n_f = ceil((1 + eps) * n_r (n_t - n_r) * log2 P);
    rounding up keeps the sufficiency direction of the scaling law. Fixed
    mode ignores the power.
    """
    if schedule.mode == "fixed":
        return int(schedule.fixed_bits)
    if power <= 1.0:
        raise InvalidInputError(
            f"scaled schedule needs P > 1 for a positive bit budget, got P={power}"
        )
    half_dim = n_r * (n_t - n_r)
    return math.ceil((1.0 + schedule.epsilon) * half_dim * math.log2(power))


def haar_point(n_t: int, n_r: int, rng: np.random.Generator) -> GrassmannPoint:
    """Haar-random point of G(n_t, n_r)."""
    return GrassmannPoint(random_truncated_unitary(n_t, n_r, rng))
