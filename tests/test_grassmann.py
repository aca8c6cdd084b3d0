"""Tests for Grassmannian quantization: metric, codebooks, bounds, schedules."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secmimo import grassmann
from secmimo.errors import (
    CodebookTooLargeError,
    InvalidInputError,
    PerturbationError,
    ShapeError,
)
from secmimo.grassmann import (
    Codebook,
    FeedbackSchedule,
    GrassmannPoint,
    ball_volume_coefficient,
    chordal_distance,
    codebook_generate,
    feedback_bits,
    haar_point,
    perturb_along,
    perturb_basis,
    perturb_quantize,
    perturb_to_distance,
    quant_error_bound,
    quantize,
)
from secmimo.linalg import (
    adjoint,
    complex_gaussian,
    haar_columns,
    orthonormality_error,
    random_gaussian_matrix,
    random_truncated_unitary,
)

# delta(40; 4, 2) = 2 * 2^(-39/8), frozen from the closed form
DELTA_40_4_2 = 0.0681567332915786


class TestChordalDistance:
    def test_zero_for_same_point(self):
        f = haar_point(4, 2, np.random.default_rng(0))
        assert chordal_distance(f, f) == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_subspaces(self):
        s = np.vstack([np.eye(2), np.zeros((2, 2))])
        f = np.vstack([np.zeros((2, 2)), np.eye(2)])
        assert chordal_distance(s, f) == pytest.approx(math.sqrt(2), abs=1e-12)

    def test_hand_value(self):
        s = np.array([[1.0], [0.0]], dtype=complex)
        f = np.array([[1.0], [1.0]], dtype=complex) / math.sqrt(2)
        assert chordal_distance(s, f) == pytest.approx(1 / math.sqrt(2), abs=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            chordal_distance(np.eye(3)[:, :1], np.eye(4)[:, :1])

    def test_metric_properties_sweep(self):
        """Symmetry and triangle inequality on 1000 random triples."""
        rng = np.random.default_rng(1)
        for _ in range(1000):
            n_r = int(rng.integers(1, 4))
            n_t = n_r + int(rng.integers(1, 4))
            a, b, c = (random_truncated_unitary(n_t, n_r, rng) for _ in range(3))
            assert abs(chordal_distance(a, b) - chordal_distance(b, a)) <= 1e-9
            assert chordal_distance(a, b) <= (
                chordal_distance(a, c) + chordal_distance(c, b) + 1e-9
            )
            assert chordal_distance(a, b) <= math.sqrt(min(n_r, n_t - n_r)) + 1e-9

    def test_right_unitary_invariance(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            f = random_truncated_unitary(5, 2, rng)
            q = random_truncated_unitary(2, 2, rng)
            assert chordal_distance(f @ q, f) < 1e-10


class TestBallVolumeCoefficient:
    @pytest.mark.parametrize(
        "n_t,n_r,expected",
        [(2, 1, 1.0), (4, 2, 0.5), (6, 3, 1.0 / 42.0)],
    )
    def test_values(self, n_t, n_r, expected):
        assert ball_volume_coefficient(n_t, n_r) == pytest.approx(expected, rel=1e-12)

    def test_factorial_oracle(self):
        # independent evaluation straight from the factorial product
        for n_t, n_r in [(3, 1), (5, 2), (8, 4), (10, 3)]:
            c = 1.0 / math.factorial(n_r * (n_t - n_r))
            for i in range(1, n_r + 1):
                c *= math.factorial(n_t - i) / math.factorial(n_r - i)
            assert ball_volume_coefficient(n_t, n_r) == pytest.approx(c, rel=1e-10)

    def test_invalid(self):
        with pytest.raises(InvalidInputError):
            ball_volume_coefficient(2, 2)


class TestQuantErrorBound:
    def test_frozen_value(self):
        assert quant_error_bound(40, 4, 2) == pytest.approx(DELTA_40_4_2, abs=1e-12)

    def test_monotone_to_zero(self):
        values = [quant_error_bound(nf, 4, 2) for nf in (1, 10, 100, 1000, 10**6)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert values[-1] < 1e-30

    def test_algebraic_identity(self):
        # delta(n_f) * (c 2^n_f)^(1/N) == 2
        c = ball_volume_coefficient(4, 2)
        for nf in (5, 13, 40):
            delta = quant_error_bound(nf, 4, 2)
            assert delta * (c * 2.0**nf) ** (1 / 8) == pytest.approx(2.0, rel=1e-12)

    def test_invalid_bits(self):
        with pytest.raises(InvalidInputError):
            quant_error_bound(0, 4, 2)


class TestCodebook:
    def test_one_bit(self):
        book = codebook_generate(4, 2, 1, np.random.default_rng(3))
        assert len(book) == 2
        for p in book.points:
            gram = p.matrix.conj().T @ p.matrix
            assert np.linalg.norm(gram - np.eye(2)) < 1e-10

    def test_seeded_reproducible(self):
        b1 = codebook_generate(4, 2, 8, np.random.default_rng(4))
        b2 = codebook_generate(4, 2, 8, np.random.default_rng(4))
        for p1, p2 in zip(b1.points, b2.points):
            np.testing.assert_array_equal(p1.matrix, p2.matrix)

    def test_min_pairwise_distance_positive(self):
        book = codebook_generate(4, 2, 10, np.random.default_rng(5))
        stack = np.stack([p.matrix for p in book.points])
        gram = np.einsum("aij,bik->abjk", stack.conj(), stack)
        d_sq = 2.0 - np.sum(np.abs(gram) ** 2, axis=(2, 3))
        np.fill_diagonal(d_sq, np.inf)
        assert d_sq.min() > 0

    def test_too_large_rejected(self):
        with pytest.raises(CodebookTooLargeError):
            codebook_generate(4, 2, 21, np.random.default_rng(6))

    def test_codebook_validation(self):
        p = haar_point(4, 2, np.random.default_rng(7))
        with pytest.raises(InvalidInputError):
            Codebook(points=(p,) * 3, bits=1, ambient=(4, 2))


class TestQuantize:
    def test_exact_member(self):
        rng = np.random.default_rng(8)
        book = codebook_generate(4, 2, 3, rng)
        f = book.points[5]
        best, idx, dist = quantize(f, book)
        assert idx == 5
        assert dist == pytest.approx(0.0, abs=1e-9)

    def test_coordinate_book(self):
        e1 = np.array([[1.0], [0.0]], dtype=complex)
        e2 = np.array([[0.0], [1.0]], dtype=complex)
        book = Codebook(
            points=(GrassmannPoint(e1), GrassmannPoint(e2)), bits=1, ambient=(2, 1)
        )
        _, idx, dist = quantize(GrassmannPoint(e1), book)
        assert idx == 0 and dist == pytest.approx(0.0, abs=1e-12)
        _, idx, _ = quantize(GrassmannPoint(e2), book)
        assert idx == 1

    def test_brute_force_oracle(self):
        """Scan result equals an independent full scan over chordal_distance."""
        rng = np.random.default_rng(9)
        book = codebook_generate(4, 2, 8, rng)
        for _ in range(20):
            f = haar_point(4, 2, rng)
            _, idx, dist = quantize(f, book)
            oracle = [chordal_distance(p, f) for p in book.points]
            assert idx == int(np.argmin(oracle))
            assert dist == pytest.approx(min(oracle), abs=1e-10)
            assert all(dist <= d + 1e-12 for d in oracle)

    def test_shape_mismatch(self):
        book = codebook_generate(4, 2, 2, np.random.default_rng(10))
        with pytest.raises(ShapeError):
            quantize(haar_point(6, 3, np.random.default_rng(11)), book)

    def test_mean_distance_decreases_with_bits(self):
        """Empirical mean distance is monotone in the bit budget (200 draws)."""
        rng = np.random.default_rng(12)
        books = {nf: codebook_generate(4, 2, nf, rng) for nf in (4, 8, 12)}
        draws = [haar_point(4, 2, rng) for _ in range(200)]
        means = []
        for nf in (4, 8, 12):
            means.append(np.mean([quantize(f, books[nf])[2] for f in draws]))
        assert means[0] > means[1] > means[2]


class TestPerturbQuantize:
    def test_matches_error_bound(self):
        rng = np.random.default_rng(13)
        f = haar_point(4, 2, rng)
        fhat = perturb_quantize(f, 40, rng)
        assert chordal_distance(f, fhat) == pytest.approx(DELTA_40_4_2, abs=1e-6)

    def test_huge_budget_returns_same_subspace(self):
        rng = np.random.default_rng(14)
        f = haar_point(4, 2, rng)
        fhat = perturb_quantize(f, 10**6, rng)
        assert chordal_distance(f, fhat) < 1e-4

    def test_output_orthonormal(self):
        rng = np.random.default_rng(15)
        for _ in range(20):
            f = haar_point(6, 3, rng)
            fhat = perturb_quantize(f, int(rng.integers(1, 60)), rng)
            gram = fhat.matrix.conj().T @ fhat.matrix
            assert np.linalg.norm(gram - np.eye(3)) < 1e-10

    def test_accuracy_sweep(self):
        """Achieved distance equals the target within 1e-6 on every call."""
        rng = np.random.default_rng(16)
        for _ in range(100):
            n_r = int(rng.integers(1, 4))
            n_t = 2 * n_r + int(rng.integers(0, 3))
            f = haar_point(n_t, n_r, rng)
            nf = int(rng.integers(1, 100))
            target = min(
                quant_error_bound(nf, n_t, n_r),
                0.999 * math.sqrt(min(n_r, n_t - n_r)),
            )
            fhat = perturb_quantize(f, nf, rng)
            assert abs(chordal_distance(f, fhat) - target) <= 1e-6

    def test_narrow_ambient_rejected(self):
        rng = np.random.default_rng(17)
        with pytest.raises(ShapeError):
            perturb_quantize(haar_point(5, 3, rng), 10, rng)

    def test_seeded_deterministic(self):
        f = haar_point(4, 2, np.random.default_rng(18))
        a = perturb_quantize(f, 25, np.random.default_rng(19))
        b = perturb_quantize(f, 25, np.random.default_rng(19))
        np.testing.assert_array_equal(a.matrix, b.matrix)


class TestPerturbToDistance:
    def test_zero_distance(self):
        rng = np.random.default_rng(20)
        f = haar_point(4, 2, rng)
        fhat = perturb_to_distance(f, 0.0, rng)
        assert chordal_distance(f, fhat) == 0.0

    def test_beyond_diameter_rejected(self):
        rng = np.random.default_rng(21)
        f = haar_point(4, 2, rng)
        with pytest.raises(InvalidInputError):
            perturb_to_distance(f, math.sqrt(2), rng)

    def test_near_diameter_reachable(self):
        rng = np.random.default_rng(22)
        f = haar_point(4, 2, rng)
        target = 0.999 * math.sqrt(2)
        fhat = perturb_to_distance(f, target, rng)
        assert abs(chordal_distance(f, fhat) - target) <= 1e-6

    @settings(deadline=None, derandomize=True)
    @given(
        dims=st.integers(1, 4).flatmap(
            lambda n_r: st.tuples(st.just(n_r), st.integers(n_r + 1, 2 * n_r + 3))
        ),
        fraction=st.floats(1e-6, 0.999999),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_hits_target_to_round_off(self, dims, fraction, seed):
        """Exact hit across ambients, narrow ones (n_t < 2 n_r) included."""
        n_r, n_t = dims
        rng = np.random.default_rng(seed)
        f = haar_point(n_t, n_r, rng)
        target = fraction * math.sqrt(min(n_r, n_t - n_r))
        fhat = perturb_to_distance(f, target, rng)
        assert abs(chordal_distance(f, fhat) - target) <= 1e-12

    @settings(deadline=None, derandomize=True)
    @given(
        dims=st.integers(1, 4).flatmap(
            lambda n_r: st.tuples(st.just(n_r), st.integers(2 * n_r, 2 * n_r + 3))
        ),
        stack=st.sampled_from([(), (3,), (2, 3)]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_step_spectrum_matches_svd(self, dims, stack, seed):
        """The quantizer's sigma_i(Z)^2 from eigvalsh(Z* Z) against the SVD oracle.

        The Gram route is backward stable, so its error is bounded relative to
        the largest value of each matrix; a small value of an ill-conditioned
        direction can carry more relative error than that (6.8e-12 was seen).
        """
        n_r, n_t = dims
        parts = np.random.default_rng(seed).standard_normal((2,) + stack + (2, n_t, n_r))
        f, z = haar_columns(complex_gaussian(parts[0])), complex_gaussian(parts[1])
        z = z - f @ (adjoint(f) @ z)  # as perturb_along projects it
        s2 = grassmann._top_squared_singular_values(z, n_r)
        oracle = np.linalg.svd(z, compute_uv=False) ** 2
        assert s2.shape == oracle.shape
        assert np.all(np.abs(s2 - oracle) <= 1e-12 * oracle[..., :1])

    def test_one_gaussian_draw_per_call(self):
        f = haar_point(6, 2, np.random.default_rng(23))
        rng, twin = np.random.default_rng(24), np.random.default_rng(24)
        perturb_to_distance(f, 0.7, rng)
        random_gaussian_matrix(6, 2, twin)
        np.testing.assert_array_equal(rng.standard_normal(4), twin.standard_normal(4))

    def test_stack_matches_each_element(self):
        """Each element of a stack gets its 2-D result; a zero target keeps the point."""
        rng = np.random.default_rng(26)
        f = haar_point(6, 3, rng).matrix
        z = np.stack([random_gaussian_matrix(6, 3, rng) for _ in range(4)])
        targets = np.array([0.0, 1e-9, 0.5, 1.7])
        stacked = perturb_along(f, z, targets).matrix
        for i in range(4):
            np.testing.assert_array_equal(stacked[i], perturb_along(f, z[i], targets[i]).matrix)
        np.testing.assert_array_equal(stacked[0], f)
        np.testing.assert_allclose(chordal_distance(f, stacked), targets, rtol=0, atol=1e-12)

    def test_rank_deficient_direction_fails_final_check(self, monkeypatch):
        """A rank-one direction cannot pass distance 1 on G(6, 3)."""

        def rank_one(m, n, rng):
            return np.outer(rng.standard_normal(m), rng.standard_normal(n)).astype(complex)

        monkeypatch.setattr(grassmann, "random_gaussian_matrix", rank_one)
        rng = np.random.default_rng(25)
        f = haar_point(6, 3, rng)
        assert chordal_distance(f, perturb_to_distance(f, 0.9, rng)) == pytest.approx(0.9)
        with pytest.raises(PerturbationError):
            perturb_to_distance(f, 1.5, rng)


class TestPerturbBasis:
    @settings(deadline=None, derandomize=True)
    @given(
        dims=st.integers(1, 4).flatmap(
            lambda n_r: st.tuples(st.just(n_r), st.integers(n_r + 1, 2 * n_r + 3))
        ),
        fraction=st.floats(0.0, 0.999999),
        stack=st.sampled_from([(), (3,), (2, 3)]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_complement_distance_is_chordal_distance(self, dims, fraction, stack, seed):
        """||W2* F||_F equals the chordal distance of W1 from F, per element of a stack."""
        n_r, n_t = dims
        parts = np.random.default_rng(seed).standard_normal((2,) + stack + (2, n_t, n_r))
        f, z = haar_columns(complex_gaussian(parts[0])), complex_gaussian(parts[1])
        target = fraction * math.sqrt(min(n_r, n_t - n_r))
        q = perturb_basis(f, z, target)
        assert q.shape == stack + (n_t, n_t)
        assert np.all(orthonormality_error(q) <= 1e-12)
        by_complement = np.linalg.norm(adjoint(q[..., n_r:]) @ f, axis=(-2, -1))
        by_projectors = chordal_distance(f, q[..., :n_r])
        assert np.all(np.abs(by_complement - by_projectors) <= 1e-12)
        assert np.all(np.abs(by_projectors - target) <= 1e-12)

    def test_zero_target_keeps_the_point_and_completes_it(self):
        rng = np.random.default_rng(27)
        f = haar_point(6, 2, rng).matrix
        z = np.stack([random_gaussian_matrix(6, 2, rng) for _ in range(2)])
        q = perturb_basis(f, z, np.array([0.0, 0.4]))
        np.testing.assert_array_equal(q[0, :, :2], f)
        assert np.linalg.norm(adjoint(q[0, :, 2:]) @ f) <= 1e-15
        np.testing.assert_array_equal(perturb_along(f, z, np.array([0.0, 0.4])).matrix, q[..., :2])


class TestFeedbackBits:
    def test_scaled_examples(self):
        assert feedback_bits(2**10, FeedbackSchedule.scaled(0.0), 4, 2) == 40
        assert feedback_bits(2**10, FeedbackSchedule.scaled(0.5), 4, 2) == 60

    def test_fixed_ignores_power(self):
        sched = FeedbackSchedule.fixed(30)
        for p in (2.0, 1e3, 1e9):
            assert feedback_bits(p, sched, 4, 2) == 30

    def test_rounds_up(self):
        # 4 * log2(1000) = 39.86... -> 40
        assert feedback_bits(1e3, FeedbackSchedule.scaled(0.0), 4, 2) == 40

    def test_low_power_rejected(self):
        with pytest.raises(InvalidInputError):
            feedback_bits(1.0, FeedbackSchedule.scaled(0.0), 4, 2)

    def test_schedule_validation(self):
        with pytest.raises(InvalidInputError):
            FeedbackSchedule(mode="fixed")
        with pytest.raises(InvalidInputError):
            FeedbackSchedule(mode="scaled", epsilon=-0.1)
        with pytest.raises(InvalidInputError):
            FeedbackSchedule(mode="other")


def test_grassmann_point_validation():
    with pytest.raises(InvalidInputError):
        GrassmannPoint(np.ones((4, 2)))
    with pytest.raises(ShapeError):
        GrassmannPoint(np.eye(3)[:2, :])
