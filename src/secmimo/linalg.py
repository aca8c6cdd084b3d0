"""Dense complex linear-algebra kernel.

Decompositions, subspace bases, log-determinants (base 2), random matrix
ensembles and a generic Gaussian mutual-information evaluator. All rate
formulas elsewhere in the package are cross-validated against
:func:`gaussian_mi`, so this module deliberately keeps two independent
routes to the same quantities.

Matrices are plain ``numpy`` arrays with complex128 entries. Every function
is a pure function of its arguments; random ensembles take an explicit
``numpy.random.Generator``. The decompositions, bases and log-determinants
also take stacks of matrices, shape ``(..., m, n)``, and apply to each
matrix of the stack; a stack fails a check when any of its matrices does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, NumericalError

# Relative singular-value cutoff for rank decisions. Channels are full rank
# almost surely; this guards sampled degenerate inputs.
RANK_RTOL = 1e-12

# Orthonormality / annihilation tolerance used by the invariant checks
# (double precision, matrices at most ~8x8).
ORTHO_TOL = 1e-10

LOG2_E = math.log2(math.e)


def as_stack(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite complex128 matrix or stack of matrices ``(..., m, n)``.

    Parameters
    ----------
    a : array_like
        Input matrix, or stack of matrices along the leading axes.
    name : str
        Label used in error messages.

    Returns
    -------
    numpy.ndarray
        The validated complex128 array.
    """
    arr = np.asarray(a, dtype=np.complex128)
    if arr.ndim < 2:
        raise InvalidInputError(
            f"{name} must be a matrix or a stack of matrices, got ndim={arr.ndim}"
        )
    if arr.shape[-2] < 1 or arr.shape[-1] < 1:
        raise InvalidInputError(f"{name} must have at least one row and column, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InvalidInputError(f"{name} contains non-finite entries")
    return arr


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite 2-D complex128 array; :func:`as_stack` for one matrix."""
    arr = as_stack(a, name)
    if arr.ndim != 2:
        raise InvalidInputError(f"{name} must be 2-D, got ndim={arr.ndim}")
    return arr


def adjoint(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix of a stack."""
    return np.swapaxes(a.conj(), -1, -2)


def hermitian_part(a: np.ndarray) -> np.ndarray:
    """Return (A + A*)/2, killing round-off asymmetry before factorizations."""
    return 0.5 * (a + adjoint(a))


def orthonormality_error(a: np.ndarray):
    """||A* A - I||_F of a matrix, or of each matrix of a stack."""
    return np.linalg.norm(adjoint(a) @ a - np.eye(a.shape[-1]), axis=(-2, -1))


def first_flagged(values, flags):
    """``values`` at the first true entry of ``flags``, in C order.

    Stacked checks use it to report one offending value. ``flags`` has the
    stack's leading shape, ``values`` that shape or that shape followed by
    more axes; at least one flag must be set.
    """
    return np.asarray(values)[np.asarray(flags)][0]


@dataclass(frozen=True)
class QrTallResult:
    """Thin QR ``A = F @ C`` with orthonormal F (m x k) and invertible upper-triangular C."""

    F: np.ndarray
    C: np.ndarray


def qr_tall(a) -> QrTallResult:
    """QR factorization of a tall full-column-rank matrix.

    Returns F with orthonormal columns spanning Col(A) and invertible
    upper-triangular C with ``A = F @ C``.

    Raises
    ------
    InvalidInputError
        If the input has fewer rows than columns.
    NumericalError
        If the smallest singular value is below ``RANK_RTOL`` times the largest.
    """
    arr = as_stack(a, "qr input")
    m, k = arr.shape[-2:]
    if m < k:
        raise InvalidInputError(f"qr_tall needs a tall matrix, got {m}x{k}")
    s = np.linalg.svd(arr, compute_uv=False)
    deficient = s[..., -1] < RANK_RTOL * s[..., 0]
    if np.any(deficient):
        low, high = first_flagged(s[..., [-1, 0]], deficient)
        raise NumericalError(
            f"rank-deficient input to qr_tall (sigma_min/sigma_max = {low / high:.3e})"
        )
    f, c = np.linalg.qr(arr)
    # Fix the LAPACK sign ambiguity: make diag(C) positive real so the
    # factorization is a deterministic function of the input.
    d = np.diagonal(c, axis1=-2, axis2=-1).copy()
    d[d == 0] = 1.0
    phases = d / np.abs(d)
    return QrTallResult(
        F=f * phases[..., np.newaxis, :], C=phases.conj()[..., :, np.newaxis] * c
    )


def left_nullspace_basis(a) -> np.ndarray:
    """Orthonormal basis of the left nullspace of a tall full-column-rank matrix.

    For A of shape (p, q) with p > q this is the U_0 block of the SVD:
    ``result.conj().T @ A ~ 0``. A zero-column input yields the identity
    (the whole space annihilates nothing).
    """
    arr = np.asarray(a, dtype=np.complex128)
    if arr.ndim < 2:
        raise InvalidInputError(
            f"left_nullspace input must be a matrix or a stack of matrices, got ndim={arr.ndim}"
        )
    p, q = arr.shape[-2:]
    if p < 1:
        raise InvalidInputError("left_nullspace input must have at least one row")
    if q == 0:
        return np.broadcast_to(np.eye(p, dtype=np.complex128), arr.shape[:-1] + (p,))
    if not np.all(np.isfinite(arr)):
        raise InvalidInputError("left_nullspace input contains non-finite entries")
    if p <= q:
        raise InvalidInputError(f"no left nullspace for shape {p}x{q} (need p > q)")
    u, s, _ = np.linalg.svd(arr, full_matrices=True)
    if np.any(s[..., -1] < RANK_RTOL * s[..., 0]):
        raise NumericalError("rank-deficient input to left_nullspace_basis")
    return u[..., :, q:]


def _cholesky(arr: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of a finite stack known to be Hermitian (callers check with
    :func:`as_stack`); a failure's NumericalError names the smallest eigenvalue."""
    try:
        return np.linalg.cholesky(arr)
    except np.linalg.LinAlgError:
        low = float(np.min(np.linalg.eigvalsh(hermitian_part(arr))[..., 0]))
        raise NumericalError(
            f"matrix is not positive definite (min eigenvalue {low:.6e})"
        ) from None


def _logdet_hermitian(arr: np.ndarray):
    """:func:`logdet_pd` of a finite stack known to be Hermitian, such as
    :func:`hermitian_part`'s output (Hermitian bit for bit)."""
    diag = np.diagonal(_cholesky(arr), axis1=-2, axis2=-1).real
    return (2.0 * np.sum(np.log2(diag), axis=-1))[()]


def logdet_pd(a):
    """log2-determinant of a Hermitian positive-definite matrix.

    Computed via Cholesky factorization, never through a raw determinant.
    A float for one matrix, an array over the leading axes for a stack.
    Raises InvalidInputError if an entry is not finite or a matrix is not
    Hermitian to ``1e-10 * max(1, ||A||_F)``, and NumericalError
    if the factorization fails.
    """
    arr = as_stack(a, "Cholesky input")
    n, m = arr.shape[-2:]
    if n != m:
        raise InvalidInputError(f"Cholesky input must be square, got {n}x{m}")
    scale = np.maximum(1.0, np.linalg.norm(arr, axis=(-2, -1)))
    if np.any(np.linalg.norm(arr - adjoint(arr), axis=(-2, -1)) > 1e-10 * scale):
        raise InvalidInputError("Cholesky input is not Hermitian to tolerance 1e-10")
    return _logdet_hermitian(arr)


def random_gaussian_matrix(m: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """m x n matrix with i.i.d. CN(0, 1) entries.

    Real and imaginary parts are independent N(0, 1/2), so each entry has
    unit mean square magnitude.
    """
    if m < 1 or n < 1:
        raise InvalidInputError(f"matrix dimensions must be positive, got ({m}, {n})")
    return complex_gaussian(rng.standard_normal(size=(2, m, n)))


def complex_gaussian(parts: np.ndarray) -> np.ndarray:
    """CN(0, 1) matrices from standard normals of shape ``(..., 2, m, n)``.

    ``parts[..., 0, :, :]`` holds the real parts and ``parts[..., 1, :, :]``
    the imaginary parts, each scaled to variance 1/2.
    """
    return (parts[..., 0, :, :] + 1j * parts[..., 1, :, :]) / math.sqrt(2.0)


def haar_columns(z: np.ndarray) -> np.ndarray:
    """Orthonormal columns from a complex Gaussian matrix, or from each of a stack.

    QR with the R-diagonal phases absorbed into Q, which makes the column
    span Haar distributed on the Grassmannian.
    """
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1).copy()
    d[d == 0] = 1.0  # measure-zero guard
    return q * (d / np.abs(d)).conj()[..., np.newaxis, :]


def random_truncated_unitary(m: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random m x k matrix with orthonormal columns (see :func:`haar_columns`)."""
    if m < k:
        raise InvalidInputError(f"need m >= k for a truncated unitary, got ({m}, {k})")
    return haar_columns(random_gaussian_matrix(m, k, rng))


def gaussian_mi(channel, signal_cov, interference_cov=None) -> float:
    """Mutual information (bits) of ``y = H x + z + n`` with Gaussian inputs.

    ``x ~ CN(0, K)``, interference ``z ~ CN(0, S_int)`` independent of x, and
    unit white noise ``n ~ CN(0, I)``. Returns::

        log2 det(H K H* + S_int + I) - log2 det(S_int + I)

    This is the generic oracle used to cross-check every closed-form rate
    term in :mod:`secmimo.rates`. Stacks of H, K and S_int broadcast
    together and give one value per element; a stack fails a check when
    any of its elements does.

    Parameters
    ----------
    channel : array_like
        H of shape (p, q).
    signal_cov : array_like
        Positive-definite K of shape (q, q).
    interference_cov : array_like or None
        Positive-semidefinite S_int of shape (p, p); None means zero.
    """
    h = as_stack(channel, "channel")
    k = as_stack(signal_cov, "signal covariance")
    p, q = h.shape[-2:]
    if k.shape[-2:] != (q, q):
        raise InvalidInputError(f"signal covariance must be {q}x{q}, got {k.shape}")
    if interference_cov is None:
        s_int = np.zeros((p, p), dtype=np.complex128)
    else:
        s_int = as_stack(interference_cov, "interference covariance")
        if s_int.shape[-2:] != (p, p):
            raise InvalidInputError(f"interference covariance must be {p}x{p}, got {s_int.shape}")
        w = np.linalg.eigvalsh(hermitian_part(s_int))
        negative = w[..., 0] < -1e-10 * np.maximum(1.0, w[..., -1])
        if np.any(negative):
            low = float(first_flagged(w[..., 0], negative))
            raise NumericalError(f"interference covariance has negative eigenvalue {low:.3e}")
    k_eigs = np.linalg.eigvalsh(hermitian_part(k))
    if np.any(k_eigs[..., 0] <= 0):
        low = float(np.min(k_eigs[..., 0]))
        raise NumericalError(f"signal covariance must be PD (min eigenvalue {low:.3e})")
    denom = hermitian_part(s_int) + np.eye(p)
    numer = hermitian_part(h @ k @ adjoint(h)) + denom
    return logdet_pd(numer) - logdet_pd(denom)
