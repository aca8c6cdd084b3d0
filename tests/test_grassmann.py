"""Tests for Grassmannian quantization: metric, codebooks, bounds, the bit law."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secmimo import grassmann
from secmimo.errors import ConfigError, InvalidInputError, NumericalError
from secmimo.grassmann import (
    Codebook,
    chordal_distance,
    codebook_generate,
    feedback_bits,
    perturb_gram,
    quant_error_bound,
    quantization_target,
    quantize,
)
from secmimo.harness import scenario_config
from secmimo.linalg import (
    adjoint,
    complex_gaussian,
    haar_columns,
    orthonormality_error,
    random_gaussian_matrix,
    random_truncated_unitary,
)
from secmimo.transceiver import AntennaConfig, sample_directions, tx_precoders_quantized

# delta(40; 4, 2) = 2 * 2^(-39/8), frozen from the closed form
DELTA_40_4_2 = 0.0681567332915786
CFG_4_2 = AntennaConfig(4, 2, 1, 2)


def _unitary(f, z, distance):
    """[W1 W2] of the quantized precoders, as one unitary."""
    prec = tx_precoders_quantized(f, z, distance)
    return np.concatenate((prec.W1, prec.W2), axis=-1)


class TestChordalDistance:
    def test_zero_for_same_point(self):
        f = random_truncated_unitary(4, 2, np.random.default_rng(0))
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
        with pytest.raises(InvalidInputError):
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


def _coefficient(n_t, n_r):
    """Metric-ball volume coefficient c of G(n_t, n_r), straight from its factorial product."""
    c = 1.0 / math.factorial(n_r * (n_t - n_r))
    for i in range(1, n_r + 1):
        c *= math.factorial(n_t - i) / math.factorial(n_r - i)
    return c


def _coefficient_of_bound(n_t, n_r, nf=1):
    """c recovered from quant_error_bound through delta = 2 (c 2^n_f)^(-1/N)."""
    return (2.0 / quant_error_bound(nf, n_t, n_r)) ** (2 * n_r * (n_t - n_r)) / 2.0**nf


class TestBallVolumeCoefficient:
    @pytest.mark.parametrize(
        "n_t,n_r,expected",
        [(2, 1, 1.0), (4, 2, 0.5), (6, 3, 1.0 / 42.0)],
    )
    def test_values(self, n_t, n_r, expected):
        assert _coefficient_of_bound(n_t, n_r) == pytest.approx(expected, rel=1e-12)

    def test_factorial_oracle(self):
        for n_t, n_r in [(3, 1), (5, 2), (8, 4), (10, 3)]:
            assert _coefficient_of_bound(n_t, n_r) == pytest.approx(
                _coefficient(n_t, n_r), rel=1e-10
            )

    def test_invalid(self):
        with pytest.raises(InvalidInputError):
            quant_error_bound(10, 2, 2)


class TestQuantErrorBound:
    def test_frozen_value(self):
        assert quant_error_bound(40, 4, 2) == pytest.approx(DELTA_40_4_2, abs=1e-12)

    def test_monotone_to_zero(self):
        values = [quant_error_bound(nf, 4, 2) for nf in (1, 10, 100, 1000, 10**6)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert values[-1] < 1e-30

    def test_algebraic_identity(self):
        # delta(n_f) * (c 2^n_f)^(1/N) == 2
        c = _coefficient(4, 2)
        for nf in (5, 13, 40):
            delta = quant_error_bound(nf, 4, 2)
            assert delta * (c * 2.0**nf) ** (1 / 8) == pytest.approx(2.0, rel=1e-12)

    def test_invalid_bits(self):
        """A budget below 1, NaN included, gets no distance; NaN once gave 0.0, a perfect
        quantizer. In an array, the first bad budget is named."""
        for n_f in (0, -3, math.nan):
            with pytest.raises(InvalidInputError, match="bit budget must be >= 1"):
                quant_error_bound(n_f, 4, 2)
            with pytest.raises(InvalidInputError, match=f"must be >= 1, got {float(n_f)}$"):
                quantization_target(np.array([5.0, n_f, -7.0]), CFG_4_2)

    @pytest.mark.parametrize("n_t,n_r", [(2, 2), (2, 3), (3, 0)])
    @pytest.mark.parametrize("distance", [quant_error_bound, quantization_target])
    def test_invalid_antenna_counts(self, distance, n_t, n_r):
        """n_t > n_r >= 1 is checked before any arithmetic on the counts: by
        quant_error_bound itself, and by the AntennaConfig that quantization_target and
        feedback_bits read them from."""
        with pytest.raises(InvalidInputError, match="need n_t > n_r"):
            if distance is quant_error_bound:
                distance(5, n_t, n_r)
            else:
                distance(5, AntennaConfig(n_t, n_r, 0, 1))

    @pytest.mark.parametrize("bad", [2.0, -1.0, math.nan])
    def test_stacked_target_error_names_the_first_bad_value(self, bad):
        """Targets outside [0, sqrt(min(k, n_t - k))), NaN included (it once ended in a
        NumericalError), get a one-line message that names the first bad one, not the whole
        array."""
        rng = np.random.default_rng(21)
        f = random_truncated_unitary(4, 2, rng)
        targets = np.full((10, 5), 0.5)
        targets[3, 1], targets[7, 2] = bad, 2.0
        for build in (perturb_gram, tx_precoders_quantized):
            with pytest.raises(InvalidInputError, match=f"target distance {bad} outside") as caught:
                build(f, random_gaussian_matrix(4, 2, rng), targets)
            assert "\n" not in str(caught.value)
            assert "sqrt(min(k, n_t - k))" in str(caught.value)

    def test_target_is_one_route_for_one_budget_or_many(self):
        """quantization_target of an array of budgets is, bit for bit, that of each budget,
        quant_error_bound clamped inside the diameter of G(n_t, k)."""
        for acfg in (AntennaConfig(3, 1, 0, 1), CFG_4_2, AntennaConfig(7, 4, 1, 3)):
            budgets = np.array([[1, 2, 5], [40, 333, 10**6]])
            targets = quantization_target(budgets, acfg)
            assert targets.shape == budgets.shape
            clamp = 0.999 * math.sqrt(min(acfg.k, acfg.n_t - acfg.k))
            for nf, target in zip(budgets.flat, targets.flat):
                assert target == quantization_target(int(nf), acfg)
                assert target == min(quant_error_bound(int(nf), acfg.n_t, acfg.k), clamp)


class TestCodebook:
    def test_one_bit(self):
        book = codebook_generate(4, 2, 1, np.random.default_rng(3))
        assert len(book) == 2
        assert book.points.shape == (2, 4, 2) and book.ambient == (4, 2)
        for p in book.points:
            assert np.linalg.norm(p.conj().T @ p - np.eye(2)) < 1e-10

    def test_seeded_reproducible(self):
        b1 = codebook_generate(4, 2, 8, np.random.default_rng(4))
        b2 = codebook_generate(4, 2, 8, np.random.default_rng(4))
        np.testing.assert_array_equal(b1.points, b2.points)

    def test_min_pairwise_distance_positive(self):
        book = codebook_generate(4, 2, 10, np.random.default_rng(5))
        gram = np.einsum("aij,bik->abjk", book.points.conj(), book.points)
        d_sq = 2.0 - np.sum(np.abs(gram) ** 2, axis=(2, 3))
        np.fill_diagonal(d_sq, np.inf)
        assert d_sq.min() > 0

    def test_too_large_rejected(self):
        with pytest.raises(InvalidInputError):
            codebook_generate(4, 2, 21, np.random.default_rng(6))

    def test_no_bits_rejected(self):
        with pytest.raises(InvalidInputError, match="bit budget must be >= 1, got 0"):
            codebook_generate(4, 2, 0, np.random.default_rng(6))
        with pytest.raises(InvalidInputError, match="bit budget must be >= 1, got nan"):
            codebook_generate(4, 2, math.nan, np.random.default_rng(6))

    def test_codebook_validation(self):
        p = random_truncated_unitary(4, 2, np.random.default_rng(7))
        with pytest.raises(InvalidInputError):
            Codebook(points=np.stack([p] * 3), bits=1)
        with pytest.raises(InvalidInputError):
            Codebook(points=p, bits=1)  # one point, not a stack of them
        with pytest.raises(InvalidInputError):
            Codebook(points=np.stack([p, 2 * p]), bits=1)


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
        book = Codebook(points=np.stack([e1, e2]), bits=1)
        best, idx, dist = quantize(e1, book)
        np.testing.assert_array_equal(best, e1)
        assert idx == 0 and dist == pytest.approx(0.0, abs=1e-12)
        _, idx, _ = quantize(e2, book)
        assert idx == 1

    def test_brute_force_oracle(self):
        """Scan result equals an independent full scan over chordal_distance."""
        rng = np.random.default_rng(9)
        book = codebook_generate(4, 2, 8, rng)
        for _ in range(20):
            f = random_truncated_unitary(4, 2, rng)
            _, idx, dist = quantize(f, book)
            oracle = [chordal_distance(p, f) for p in book.points]
            assert idx == int(np.argmin(oracle))
            assert dist == pytest.approx(min(oracle), abs=1e-10)
            assert all(dist <= d + 1e-12 for d in oracle)

    def test_shape_mismatch(self):
        book = codebook_generate(4, 2, 2, np.random.default_rng(10))
        with pytest.raises(InvalidInputError):
            quantize(random_truncated_unitary(6, 3, np.random.default_rng(11)), book)

    def test_mean_distance_decreases_with_bits(self):
        """Empirical mean distance is monotone in the bit budget (200 draws)."""
        rng = np.random.default_rng(12)
        books = {nf: codebook_generate(4, 2, nf, rng) for nf in (4, 8, 12)}
        draws = [random_truncated_unitary(4, 2, rng) for _ in range(200)]
        means = []
        for nf in (4, 8, 12):
            means.append(np.mean([quantize(f, books[nf])[2] for f in draws]))
        assert means[0] > means[1] > means[2]


def _quantized_w1(f, nf, rng):
    """W1 of the quantized precoders for n_f bits, on one direction drawn from rng."""
    n_t, k = f.shape
    z = random_gaussian_matrix(n_t, k, rng)
    return tx_precoders_quantized(f, z, quantization_target(nf, AntennaConfig(n_t, k, 0, 1))).W1


class TestPerturbQuantize:
    """Quantization with n_f bits: precoders at quantization_target(n_f)."""

    def test_matches_error_bound(self):
        rng = np.random.default_rng(13)
        f = random_truncated_unitary(4, 2, rng)
        assert chordal_distance(f, _quantized_w1(f, 40, rng)) == pytest.approx(
            DELTA_40_4_2, abs=1e-6
        )

    def test_huge_budget_returns_same_subspace(self):
        rng = np.random.default_rng(14)
        f = random_truncated_unitary(4, 2, rng)
        assert chordal_distance(f, _quantized_w1(f, 10**6, rng)) < 1e-4

    def test_output_orthonormal(self):
        rng = np.random.default_rng(15)
        for _ in range(20):
            w1 = _quantized_w1(random_truncated_unitary(6, 3, rng), int(rng.integers(1, 60)), rng)
            assert np.linalg.norm(w1.conj().T @ w1 - np.eye(3)) < 1e-10

    def test_accuracy_sweep(self):
        """Achieved distance equals the target within 1e-6 on every call."""
        rng = np.random.default_rng(16)
        for _ in range(100):
            n_r = int(rng.integers(1, 4))
            n_t = 2 * n_r + int(rng.integers(0, 3))
            f = random_truncated_unitary(n_t, n_r, rng)
            nf = int(rng.integers(1, 100))
            target = min(
                quant_error_bound(nf, n_t, n_r),
                0.999 * math.sqrt(min(n_r, n_t - n_r)),
            )
            assert abs(chordal_distance(f, _quantized_w1(f, nf, rng)) - target) <= 1e-6

    def test_seeded_deterministic(self):
        """The engine's direction draw and builder repeat on the same seed."""
        cfg = AntennaConfig(4, 2, 1, 2)
        f = random_truncated_unitary(4, 2, np.random.default_rng(18))
        target = quantization_target(25, cfg)
        a, b = (
            tx_precoders_quantized(
                f, sample_directions(cfg, [np.random.default_rng(19)], [True]), target
            )
            for _ in range(2)
        )
        np.testing.assert_array_equal(a.W1, b.W1)
        np.testing.assert_array_equal(a.W2, b.W2)


class TestPerturbToDistance:
    """tx_precoders_quantized placing W1 at a prescribed chordal distance."""

    def test_zero_distance(self):
        rng = np.random.default_rng(20)
        f = random_truncated_unitary(4, 2, rng)
        q = _unitary(f, random_gaussian_matrix(4, 2, rng), 0.0)
        assert chordal_distance(f, q[:, :2]) == 0.0

    def test_beyond_diameter_rejected(self):
        rng = np.random.default_rng(21)
        f = random_truncated_unitary(4, 2, rng)
        with pytest.raises(InvalidInputError):
            _unitary(f, random_gaussian_matrix(4, 2, rng), math.sqrt(2))

    def test_near_diameter_reachable(self):
        rng = np.random.default_rng(22)
        f = random_truncated_unitary(4, 2, rng)
        target = 0.999 * math.sqrt(2)
        q = _unitary(f, random_gaussian_matrix(4, 2, rng), target)
        assert abs(chordal_distance(f, q[:, :2]) - target) <= 1e-6

    @settings(deadline=None, derandomize=True)
    @given(
        dims=st.integers(1, 4).flatmap(
            lambda n_r: st.tuples(st.just(n_r), st.integers(n_r + 1, 2 * n_r + 3))
        ),
        fraction=st.floats(1e-6, 0.999999),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_hits_target_to_round_off(self, dims, fraction, seed):
        """The quantized precoders hit it across ambients, narrow ones (n_t < 2 n_r) included."""
        n_r, n_t = dims
        rng = np.random.default_rng(seed)
        f = random_truncated_unitary(n_t, n_r, rng)
        target = fraction * math.sqrt(min(n_r, n_t - n_r))
        w1 = tx_precoders_quantized(f, random_gaussian_matrix(n_t, n_r, rng), target).W1
        assert abs(chordal_distance(f, w1) - target) <= 1e-12

    @settings(deadline=None, derandomize=True)
    @given(
        dims=st.integers(1, 4).flatmap(
            lambda n_r: st.tuples(st.just(n_r), st.integers(n_r + 1, 2 * n_r + 3))
        ),
        stack=st.sampled_from([(), (3,), (2, 3)]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_step_spectrum_matches_svd(self, dims, stack, seed):
        """The quantizer's r = min(n_r, n_t - n_r) largest sigma_i(Z)^2, from eigvalsh(Z* Z),
        against the SVD oracle; below n_t = 2 n_r the projected Z has rank r < n_r.

        The Gram route is backward stable, so its error is bounded relative to
        the largest value of each matrix; a small value of an ill-conditioned
        direction can carry more relative error than that (6.8e-12 was seen).
        """
        n_r, n_t = dims
        r = min(n_r, n_t - n_r)
        parts = np.random.default_rng(seed).standard_normal((2,) + stack + (2, n_t, n_r))
        f, z = haar_columns(complex_gaussian(parts[0])), complex_gaussian(parts[1])
        z = z - f @ (adjoint(f) @ z)  # as _perturb_step projects it
        s2 = grassmann._top_squared_singular_values(adjoint(z) @ z, r)
        oracle = np.linalg.svd(z, compute_uv=False)[..., :r] ** 2
        assert s2.shape == oracle.shape
        assert np.all(np.abs(s2 - oracle) <= 1e-12 * oracle[..., :1])

    def test_one_gaussian_draw_per_call(self):
        """A flagged point's direction is one random_gaussian_matrix draw, and nothing more."""
        rng, twin = np.random.default_rng(24), np.random.default_rng(24)
        z = sample_directions(AntennaConfig(6, 2, 1, 2), [rng], [True])
        np.testing.assert_array_equal(z[0, 0], random_gaussian_matrix(6, 2, twin))
        np.testing.assert_array_equal(rng.standard_normal(4), twin.standard_normal(4))

    def test_stack_matches_each_element(self):
        """Each element of a stack gets its 2-D result; a zero target keeps the point."""
        rng = np.random.default_rng(26)
        f = random_truncated_unitary(6, 3, rng)
        z = np.stack([random_gaussian_matrix(6, 3, rng) for _ in range(4)])
        targets = np.array([0.0, 1e-9, 0.5, 1.7])
        stacked = _unitary(f, z, targets)
        for i in range(4):
            np.testing.assert_array_equal(stacked[i], _unitary(f, z[i], targets[i]))
        np.testing.assert_array_equal(stacked[0, :, :3], f)
        np.testing.assert_allclose(
            chordal_distance(f, stacked[..., :3]), targets, rtol=0, atol=1e-12
        )

    @pytest.mark.filterwarnings("error")
    def test_rank_deficient_direction_fails_final_check(self):
        """A rank-one direction cannot pass distance 1 on G(6, 3), and fails without a warning."""
        rng = np.random.default_rng(25)
        f = random_truncated_unitary(6, 3, rng)
        z = np.outer(rng.standard_normal(6), rng.standard_normal(3)).astype(complex)
        assert chordal_distance(f, _unitary(f, z, 0.9)[:, :3]) == pytest.approx(0.9)
        _, _, _, j = perturb_gram(f, z, 0.9)
        assert math.sqrt(np.trace(j).real) == pytest.approx(0.9)
        for build in (tx_precoders_quantized, perturb_gram):
            with pytest.raises(NumericalError):
                build(f, z, 1.5)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("rank", [0, 1, 2])
    def test_unreachable_targets_fail_without_warning(self, rank):
        """Directions of rank below n_r miss a target beyond sqrt(rank), on both routes."""
        rng = np.random.default_rng(28)
        f = random_truncated_unitary(8, 3, rng)
        z = np.zeros((8, 3), dtype=complex)
        if rank:
            z = random_gaussian_matrix(8, rank, rng) @ random_gaussian_matrix(rank, 3, rng)
        for target in (math.sqrt(rank) + 0.1, 1.7):
            for build in (tx_precoders_quantized, perturb_gram):
                with pytest.raises(NumericalError):
                    build(f, z, target)


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
        q = _unitary(f, z, target)
        assert q.shape == stack + (n_t, n_t)
        assert np.all(orthonormality_error(q) <= 1e-12)
        by_complement = np.linalg.norm(adjoint(q[..., n_r:]) @ f, axis=(-2, -1))
        by_projectors = chordal_distance(f, q[..., :n_r])
        assert np.all(np.abs(by_complement - by_projectors) <= 1e-12)
        assert np.all(np.abs(by_projectors - target) <= 1e-12)

    @settings(deadline=None, derandomize=True)
    @given(
        dims=st.integers(1, 4).flatmap(
            lambda n_r: st.tuples(st.just(n_r), st.integers(2 * n_r, 2 * n_r + 3))
        ),
        log_fraction=st.floats(-12.0, math.log10(0.999)),
        stack=st.sampled_from([(), (3,)]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_gram_step_matches_basis(self, dims, log_fraction, stack, seed):
        """perturb_gram's K and J against the quantized precoders [W1 W2]; J keeps tiny
        targets exact."""
        n_r, n_t = dims
        parts = np.random.default_rng(seed).standard_normal((2,) + stack + (2, n_t, n_r))
        f, z = haar_columns(complex_gaussian(parts[0])), complex_gaussian(parts[1])
        target = 10.0**log_fraction * math.sqrt(min(n_r, n_t - n_r))
        q = _unitary(f, z, target)
        z_perp, eps, k, j = perturb_gram(f, z, target)
        w2f = adjoint(q[..., n_r:]) @ f
        np.testing.assert_allclose(j, adjoint(w2f) @ w2f, rtol=0, atol=1e-12)
        y = f + eps[..., np.newaxis, np.newaxis] * z_perp
        w1 = q[..., :n_r]
        np.testing.assert_allclose(y @ k @ adjoint(y), w1 @ adjoint(w1), rtol=0, atol=1e-12)
        # tr J = d^2 to relative round-off, even where I - K would cancel
        achieved = np.sqrt(np.trace(j, axis1=-2, axis2=-1).real)
        assert np.all(np.abs(achieved - target) <= 1e-12 * target)

    def test_zero_target_keeps_the_point_and_completes_it(self):
        rng = np.random.default_rng(27)
        f = random_truncated_unitary(6, 2, rng)
        z = np.stack([random_gaussian_matrix(6, 2, rng) for _ in range(2)])
        q = _unitary(f, z, np.array([0.0, 0.4]))
        np.testing.assert_array_equal(q[0, :, :2], f)
        assert np.linalg.norm(adjoint(q[0, :, 2:]) @ f) <= 1e-15


    @pytest.mark.parametrize("z_shape", [(6, 2), (1, 6, 2)])
    def test_one_direction_broadcasts_over_targets(self, z_shape):
        """One direction and two targets give two precoder pairs, each as if built alone."""
        rng = np.random.default_rng(29)
        f = random_truncated_unitary(6, 2, rng)
        z = random_gaussian_matrix(6, 2, rng)
        targets = np.array([0.1, 0.2])
        prec = tx_precoders_quantized(f, z.reshape(z_shape), targets)
        assert prec.W1.shape == (2, 6, 2) and prec.W2.shape == (2, 6, 4)
        np.testing.assert_allclose(chordal_distance(f, prec.W1), targets, rtol=0, atol=1e-12)
        _, eps, k, j = perturb_gram(f, z.reshape(z_shape), targets)
        assert eps.shape == (2,) and k.shape == j.shape == (2, 2, 2)
        for i, target in enumerate(targets):
            np.testing.assert_array_equal(prec.W1[i], tx_precoders_quantized(f, z, target).W1)
            np.testing.assert_array_equal(j[i], perturb_gram(f, z, target)[3])

    def test_stacks_that_do_not_broadcast_raise_shape_error(self):
        rng = np.random.default_rng(30)
        f = random_truncated_unitary(6, 2, rng)
        z = np.stack([random_gaussian_matrix(6, 2, rng) for _ in range(3)])
        for build in (tx_precoders_quantized, perturb_gram):
            with pytest.raises(InvalidInputError, match="do not broadcast"):
                build(f, z, np.array([0.1, 0.2]))
            with pytest.raises(InvalidInputError, match="do not broadcast"):
                build(np.stack([f, f]), z, 0.1)


class TestFeedbackBits:
    def test_law_on_valid_configs(self):
        """On every valid config the law reads G(n_t, k) from the config: ceil((1 + epsilon)
        k (n_t - k) log2 P) bits above P = 1, and never fewer than 1. Counts that once gave
        a negative budget, (2, 3) among them, make no config."""
        configs = [
            AntennaConfig(n_t, n_r, n_j, n_e)
            for n_t in range(2, 9)
            for n_r in range(1, n_t)
            for n_j in range(n_r)
            for n_e in range(1, n_t - n_r + 1)
        ]
        for acfg in configs:
            for power in (0.5, 1.0, 1.0 + 1e-9, 2.0, 1e3, 2.0**10, 1e9):
                for epsilon in (0.0, 0.5):
                    bits = feedback_bits(power, epsilon, acfg)
                    law = (1.0 + epsilon) * acfg.k * (acfg.n_t - acfg.k) * math.log2(power)
                    assert bits == max(1, math.ceil(law)) >= 1
        for n_t, n_r in (2, 2), (3, 0), (2, 3):
            with pytest.raises(InvalidInputError, match="need n_t > n_r > n_j >= 0"):
                AntennaConfig(n_t, n_r, 0, 1)

    def test_scaled_examples(self):
        assert feedback_bits(2**10, 0.0, CFG_4_2) == 40
        assert feedback_bits(2**10, 0.5, CFG_4_2) == 60

    def test_rounds_up(self):
        # 4 * log2(1000) = 39.86... -> 40
        assert feedback_bits(1e3, 0.0, CFG_4_2) == 40

    def test_low_power_gives_one_bit(self):
        """The law yields no bits at P <= 1; the quantizer still gets one."""
        for p in (1.0, 0.5, 1e-3):
            assert feedback_bits(p, 0.0, CFG_4_2) == 1
            assert feedback_bits(p, 3.0, CFG_4_2) == 1
        assert feedback_bits(1.0 + 1e-9, 0.0, CFG_4_2) == 1

    def test_schedule_validation(self):
        """The scaled law needs a finite epsilon >= 0, in feedback_bits and in validate, and
        feedback_bits a positive finite power; validate's SNR grid cannot reach any other."""
        for epsilon in (-0.1, math.inf, math.nan):
            for p in (0.5, 1e3):
                with pytest.raises(InvalidInputError, match="epsilon"):
                    feedback_bits(p, epsilon, CFG_4_2)
            with pytest.raises(ConfigError, match="epsilon"):
                scenario_config("slope", [2], epsilon=epsilon, trials=1).validate()
        for power in (math.nan, math.inf, -math.inf, -5.0, 0.0):
            with pytest.raises(InvalidInputError, match="transmit power must be positive"):
                feedback_bits(power, 0.0, CFG_4_2)
        for snr_min in (-4000.0, 4000.0):  # a power of 0.0, then of inf
            with pytest.raises(ConfigError, match="finite"):
                scenario_config("slope", [2], snr_min=snr_min, snr_max=snr_min + 10).validate()


def test_grassmann_point_validation():
    # Each codebook point must be a tall matrix with orthonormal columns.
    with pytest.raises(InvalidInputError, match="not orthonormal"):
        Codebook(points=np.ones((1, 4, 2)), bits=1)
    with pytest.raises(InvalidInputError, match="must be tall"):
        Codebook(points=np.eye(3)[np.newaxis, :2, :], bits=1)
