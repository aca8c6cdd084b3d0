"""Tests for the dense complex linear-algebra kernel."""

import numpy as np
import pytest

from secmimo.errors import InvalidInputError, NumericalError
from secmimo.linalg import (
    adjoint,
    as_matrix,
    complex_gaussian,
    gaussian_mi,
    haar_columns,
    hermitian_part,
    left_nullspace_basis,
    logdet_pd,
    orthonormality_error,
    qr_tall,
    random_gaussian_matrix,
    random_truncated_unitary,
)


class TestQrTall:
    def test_already_orthonormal(self):
        a = np.vstack([np.eye(2), np.zeros((2, 2))])
        dec = qr_tall(a)
        np.testing.assert_allclose(dec.F, a, atol=1e-12)
        np.testing.assert_allclose(dec.C, np.eye(2), atol=1e-12)

    def test_scaling_case(self):
        a = np.array([[2.0], [0.0]])
        dec = qr_tall(a)
        np.testing.assert_allclose(dec.F, [[1.0], [0.0]], atol=1e-12)
        np.testing.assert_allclose(dec.C, [[2.0]], atol=1e-12)

    def test_residual_random(self):
        rng = np.random.default_rng(4)
        hd = random_gaussian_matrix(2, 4, rng)
        dec = qr_tall(hd.conj().T)
        err = np.linalg.norm(dec.F @ dec.C - hd.conj().T) / np.linalg.norm(hd)
        assert err < 1e-9
        assert np.linalg.norm(dec.F.conj().T @ dec.F - np.eye(2)) < 1e-10
        assert abs(np.linalg.det(dec.C)) > 0
        # upper triangular with positive real diagonal (fixed convention)
        assert np.allclose(np.tril(dec.C, -1), 0, atol=1e-12)
        assert np.all(np.real(np.diag(dec.C)) > 0)

    def test_rank_deficient_rejected(self):
        col = np.arange(1.0, 5.0).reshape(4, 1)
        with pytest.raises(NumericalError):
            qr_tall(np.hstack([col, 2 * col]))

    def test_wide_rejected(self):
        with pytest.raises(InvalidInputError):
            qr_tall(np.ones((2, 3)))


class TestNullspaces:
    def test_no_nullspace(self):
        with pytest.raises(InvalidInputError):
            left_nullspace_basis(np.eye(3))

    def test_left_hand_cases(self):
        u = left_nullspace_basis(np.array([[1.0], [0.0]]))
        assert np.linalg.norm(u @ u.conj().T - np.diag([0.0, 1.0])) < 1e-10
        u = left_nullspace_basis(np.vstack([np.eye(2), np.zeros((1, 2))]))
        assert np.linalg.norm(u @ u.conj().T - np.diag([0.0, 0.0, 1.0])) < 1e-10

    def test_left_random(self):
        rng = np.random.default_rng(6)
        a = random_gaussian_matrix(4, 1, rng)
        u = left_nullspace_basis(a)
        assert u.shape == (4, 3)
        assert np.linalg.norm(u.conj().T @ u - np.eye(3)) < 1e-10
        assert np.linalg.norm(u.conj().T @ a) < 1e-10

    def test_left_zero_columns_identity(self):
        u = left_nullspace_basis(np.zeros((3, 0)))
        np.testing.assert_array_equal(u, np.eye(3))


def test_decomposition_reconstruction_sweep():
    """Residual below 1e-9 relative on 1000 random instances."""
    rng = np.random.default_rng(7)
    for _ in range(1000):
        m = int(rng.integers(1, 7))
        n = int(rng.integers(1, 7))
        a = random_gaussian_matrix(m, n, rng)
        if m >= n:
            q = qr_tall(a)
            assert np.linalg.norm(q.F @ q.C - a) <= 1e-9 * max(1, np.linalg.norm(a))


def test_nullspace_annihilation_sweep():
    """Orthonormality and annihilation below 1e-10 on random full-rank inputs."""
    rng = np.random.default_rng(8)
    for _ in range(300):
        p = int(rng.integers(1, 4))
        q = p + int(rng.integers(1, 4))
        a = random_gaussian_matrix(p, q, rng)
        u = left_nullspace_basis(a.conj().T)
        assert np.linalg.norm(u.conj().T @ u - np.eye(q - p)) < 1e-10
        assert np.linalg.norm(u.conj().T @ a.conj().T) < 1e-10


class TestLogdet:
    def test_identity(self):
        assert logdet_pd(np.eye(3)) == pytest.approx(0.0, abs=1e-12)

    def test_diag(self):
        assert logdet_pd(np.diag([2.0, 2.0])) == pytest.approx(2.0, abs=1e-12)

    def test_eigenvalue_oracle(self):
        rng = np.random.default_rng(9)
        m = random_gaussian_matrix(3, 3, rng)
        a = hermitian_part(m @ m.conj().T) + np.eye(3)
        expected = float(np.sum(np.log2(np.linalg.eigvalsh(a))))
        assert logdet_pd(a) == pytest.approx(expected, abs=1e-9)

    def test_scaling_property(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            n = int(rng.integers(1, 5))
            m = random_gaussian_matrix(n, n, rng)
            a = hermitian_part(m @ m.conj().T) + np.eye(n)
            c = float(rng.uniform(0.1, 10.0))
            assert logdet_pd(c * a) == pytest.approx(
                n * np.log2(c) + logdet_pd(a), abs=1e-9
            )

    def test_not_pd_carries_eigenvalue(self):
        with pytest.raises(NumericalError, match=r"\(min eigenvalue -2\.000000e\+00\)$"):
            logdet_pd(np.diag([1.0, -2.0]))

    def test_non_hermitian_rejected(self):
        with pytest.raises(InvalidInputError):
            logdet_pd(np.array([[1.0, 1.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, bad):
        a = np.eye(2)
        a[1, 0] = bad
        with pytest.raises(InvalidInputError, match="^Cholesky input contains non-finite entries$"):
            logdet_pd(a)

    @pytest.mark.parametrize(
        "shape", [(2, 3), (3,), (0, 0)], ids=["non-square", "one-dimensional", "empty"]
    )
    def test_bad_shape_rejected(self, shape):
        with pytest.raises(InvalidInputError, match="^Cholesky input must "):
            logdet_pd(np.ones(shape))


class TestRandomEnsembles:
    def test_gaussian_deterministic(self):
        a = random_gaussian_matrix(2, 2, np.random.default_rng(77))
        b = random_gaussian_matrix(2, 2, np.random.default_rng(77))
        np.testing.assert_array_equal(a, b)

    def test_gaussian_unit_power(self):
        z = random_gaussian_matrix(1000, 1, np.random.default_rng(11))
        assert np.mean(np.abs(z) ** 2) == pytest.approx(1.0, abs=0.15)

    def test_gaussian_finite(self):
        z = random_gaussian_matrix(3, 4, np.random.default_rng(12))
        assert np.all(np.isfinite(z))

    def test_truncated_unitary_square(self):
        q = random_truncated_unitary(3, 3, np.random.default_rng(13))
        assert abs(abs(np.linalg.det(q)) - 1.0) < 1e-9
        assert np.linalg.norm(q.conj().T @ q - np.eye(3)) < 1e-10

    def test_truncated_unitary_seeded(self):
        a = random_truncated_unitary(4, 2, np.random.default_rng(14))
        b = random_truncated_unitary(4, 2, np.random.default_rng(14))
        np.testing.assert_array_equal(a, b)

    def test_independent_draws_distinct(self):
        rng = np.random.default_rng(15)
        a = random_truncated_unitary(6, 3, rng)
        b = random_truncated_unitary(6, 3, rng)
        diff = a @ a.conj().T - b @ b.conj().T
        assert np.linalg.norm(diff) / np.sqrt(2) > 1e-6

    def test_bad_shape(self):
        with pytest.raises(InvalidInputError):
            random_truncated_unitary(2, 3, np.random.default_rng(0))
        with pytest.raises(InvalidInputError):
            random_gaussian_matrix(0, 2, np.random.default_rng(0))


class TestGaussianMi:
    def test_scalar_awgn(self):
        assert gaussian_mi(np.eye(1), np.eye(1), None) == pytest.approx(1.0, abs=1e-12)

    def test_zero_channel(self):
        assert gaussian_mi(np.zeros((2, 3)), np.eye(3), None) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_matches_direct_logdet(self):
        rng = np.random.default_rng(16)
        h = random_gaussian_matrix(2, 3, rng)
        k = 2.0 * np.eye(3)
        m = random_gaussian_matrix(2, 2, rng)
        s_int = hermitian_part(m @ m.conj().T)
        direct = logdet_pd(
            hermitian_part(h @ k @ h.conj().T) + s_int + np.eye(2)
        ) - logdet_pd(s_int + np.eye(2))
        assert gaussian_mi(h, k, s_int) == pytest.approx(direct, abs=1e-9)

    def test_nonnegative_and_monotone(self):
        rng = np.random.default_rng(17)
        h = random_gaussian_matrix(3, 2, rng)
        prev = 0.0
        for scale in (0.1, 1.0, 10.0, 100.0):
            mi = gaussian_mi(h, scale * np.eye(2), None)
            assert mi >= prev - 1e-12
            prev = mi

    def test_non_psd_interference_rejected(self):
        with pytest.raises(NumericalError):
            gaussian_mi(np.eye(2), np.eye(2), np.diag([1.0, -1.0]))

    def test_shape_mismatch(self):
        with pytest.raises(InvalidInputError):
            gaussian_mi(np.eye(2), np.eye(3), None)

    @staticmethod
    def _stack(rng):
        """Three (channel, signal covariance, interference covariance) triples, stacked."""
        h = complex_gaussian(rng.standard_normal((3, 2, 2, 3)))
        mk = complex_gaussian(rng.standard_normal((3, 2, 3, 3)))
        ms = complex_gaussian(rng.standard_normal((3, 2, 2, 2)))
        k = hermitian_part(mk @ adjoint(mk)) + 0.5 * np.eye(3)
        return h, k, hermitian_part(ms @ adjoint(ms))

    def test_stack_matches_each_matrix(self):
        h, k, s_int = self._stack(np.random.default_rng(18))
        got = gaussian_mi(h, k, s_int)
        assert got.shape == (3,)
        for i in range(3):
            assert got[i] == gaussian_mi(h[i], k[i], s_int[i])
        np.testing.assert_array_equal(
            gaussian_mi(h, k[0]), [gaussian_mi(x, k[0]) for x in h]
        )

    @pytest.mark.parametrize(
        "arg, index, value, error",
        [
            (0, (1, 0, 0), np.nan, InvalidInputError),
            (1, (2, 1, 1), np.inf, InvalidInputError),
            (2, (0, 0, 1), np.nan, InvalidInputError),
            (1, 1, -np.eye(3), NumericalError),
            (2, 2, np.diag([1.0, -1.0]), NumericalError),
        ],
        ids=["channel-nan", "signal-inf", "interference-nan", "signal-not-pd", "interference-neg"],
    )
    def test_one_bad_element_fails_the_stack(self, arg, index, value, error):
        args = list(self._stack(np.random.default_rng(19)))
        args[arg][index] = value
        with pytest.raises(error):
            gaussian_mi(*args)

    def test_stack_shape_mismatch(self):
        h, k, s_int = self._stack(np.random.default_rng(21))
        for args in ((h, k[:, :2, :2], s_int), (h, k, s_int[:, :1, :1])):
            with pytest.raises(InvalidInputError):
                gaussian_mi(*args)


def test_as_matrix_guards():
    with pytest.raises(InvalidInputError):
        as_matrix(np.ones(3))
    with pytest.raises(InvalidInputError):
        as_matrix(np.array([[np.nan, 0.0], [0.0, 1.0]]))


class TestStacks:
    """A stack of matrices gives, matrix by matrix, the bits of the 2-D call."""

    @staticmethod
    def _stack(rng, shape):
        return np.stack([random_gaussian_matrix(*shape, rng) for _ in range(6)]).reshape(
            2, 3, *shape
        )

    @pytest.mark.parametrize(
        "kernel, shape",
        [
            (lambda a: orthonormality_error(a), (5, 3)),
            (lambda a: qr_tall(a).F, (5, 3)),
            (lambda a: qr_tall(a).C, (5, 3)),
            (haar_columns, (5, 2)),
            (left_nullspace_basis, (5, 2)),
            (lambda a: logdet_pd(hermitian_part(a @ adjoint(a)) + np.eye(4)), (4, 4)),
        ],
    )
    def test_matches_each_matrix(self, kernel, shape):
        stack = self._stack(np.random.default_rng(21), shape)
        got = kernel(stack)
        for idx in np.ndindex(2, 3):
            np.testing.assert_array_equal(got[idx], kernel(stack[idx]))

    def test_one_bad_matrix_fails_the_stack(self):
        stack = self._stack(np.random.default_rng(22), (5, 3))
        stack[1, 2, :, 2] = stack[1, 2, :, 0]
        with pytest.raises(NumericalError, match="sigma_min/sigma_max"):
            qr_tall(stack)
        grams = np.stack([np.eye(2), np.diag([1.0, -2.0])])
        with pytest.raises(NumericalError, match=r"\(min eigenvalue -2\.000000e\+00\)$"):
            logdet_pd(grams)
