"""Tests for channel sampling, precoders, receive filters and leakage."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secmimo.errors import InvalidInputError, NumericalError
from secmimo.grassmann import chordal_distance, quant_error_bound
from secmimo.linalg import (
    complex_gaussian,
    haar_columns,
    left_nullspace_basis,
    qr_tall,
    random_gaussian_matrix,
    random_truncated_unitary,
)
from secmimo.rates import secrecy_rate_G
from secmimo.transceiver import (
    AntennaConfig,
    ChannelSet,
    PowerPolicy,
    Precoders,
    ReceiverFilters,
    leakage_bound,
    rx_postfilter,
    sample_channels,
    sample_directions,
    sample_trials,
    tx_precoders_perfect,
    tx_precoders_quantized,
)


class TestAntennaConfig:
    def test_derived_dimensions(self):
        cfg = AntennaConfig(6, 3, 1, 3)
        assert cfg.d_s == 2

    @pytest.mark.parametrize(
        "bad",
        [(2, 2, 1, 1), (4, 2, 2, 1), (4, 2, 1, 3), (4, 2, 1, 0), (3, 1, 0, 3),
         # a float, bool, string or None count fails here, not later inside numpy
         (4.0, 2, 1, 2), (4, 2, True, 2), ("4", 2, 1, 2), (4, 2, 1, 2.0), (4, None, 1, 2)],
    )
    def test_invalid_counts(self, bad):
        with pytest.raises(InvalidInputError):
            AntennaConfig(*bad)

    def test_no_jammer_allowed(self):
        cfg = AntennaConfig(2, 1, 0, 1)
        assert cfg.d_s == 1

    def test_numpy_integer_counts_accepted(self):
        cfg = AntennaConfig(np.int64(4), np.int32(2), np.int8(1), np.uint16(2))
        assert cfg == AntennaConfig(4, 2, 1, 2) and cfg.d_s == 1


class TestPowerPolicy:
    def test_validation(self):
        """Every field out of range, NaN and infinity included, in scalars and arrays."""
        bad = [
            {"P": -1.0},
            {"P": np.nan},
            {"P": np.array([1.0, np.nan])},
            {"P": np.inf},
            {"rho": 1.0},
            {"rho": np.nan},
            {"rho": np.array([[0.5], [np.nan]])},
            {"rho": np.array([0.2, 0.0])},
        ]
        for fields in bad:
            with pytest.raises(InvalidInputError):
                PowerPolicy(**{"P": 1.0, "rho": 0.5, **fields})
        policy = PowerPolicy(P=np.array([1.0, 1e9]), rho=np.array([[0.2], [0.8]]))
        assert policy.an_cov_scale(4, 2).shape == (2, 2)

    def test_scales(self):
        """rho P / n_r and (1 - rho) P / (n_t - n_r), broadcast over arrays of P and rho."""
        policy = PowerPolicy(P=np.array([8.0, 800.0]), rho=np.array([[0.25], [0.5]]))
        np.testing.assert_array_equal(policy.signal_scale(2), [[1.0, 100.0], [2.0, 200.0]])
        an = [[6.0 / 3, 600.0 / 3], [4.0 / 3, 400.0 / 3]]
        np.testing.assert_array_equal(policy.an_cov_scale(5, 2), an)


class TestSampleChannels:
    def test_seeded_reproducible(self):
        cfg = AntennaConfig(4, 2, 1, 2)
        a = sample_channels(cfg, np.random.default_rng(1))
        b = sample_channels(cfg, np.random.default_rng(1))
        np.testing.assert_array_equal(a.Hd, b.Hd)
        np.testing.assert_array_equal(a.He, b.He)
        np.testing.assert_array_equal(a.Hj, b.Hj)

    def test_shapes(self):
        cfg = AntennaConfig(6, 3, 2, 3)
        ch = sample_channels(cfg, np.random.default_rng(2))
        assert ch.Hd.shape == (3, 6)
        assert ch.He.shape == (3, 6)
        assert ch.Hj.shape == (3, 2)

    def test_no_jammer_gives_empty_columns(self):
        cfg = AntennaConfig(2, 1, 0, 1)
        ch = sample_channels(cfg, np.random.default_rng(3))
        assert ch.Hj.shape == (1, 0)

    def test_full_rank_sweep(self):
        cfg = AntennaConfig(4, 2, 1, 2)
        rng = np.random.default_rng(4)
        for _ in range(1000):
            ch = sample_channels(cfg, rng)
            s = np.linalg.svd(ch.Hd, compute_uv=False)
            assert s[-1] > 0


class TestTxPrecoders:
    def test_perfect_coordinate_channel(self):
        hd = np.hstack([np.eye(2), np.zeros((2, 2))])
        prec = tx_precoders_perfect(hd)
        proj1 = prec.W1 @ prec.W1.conj().T
        np.testing.assert_allclose(proj1, np.diag([1.0, 1.0, 0.0, 0.0]), atol=1e-10)
        assert np.linalg.norm(hd @ prec.W2) < 1e-12

    def test_perfect_invariants_random(self):
        rng = np.random.default_rng(8)
        hd = random_gaussian_matrix(2, 4, rng)
        prec = tx_precoders_perfect(hd)
        assert np.linalg.norm(prec.W1.conj().T @ prec.W2) < 1e-10
        assert np.linalg.norm(hd @ prec.W2) < 1e-10
        assert np.linalg.matrix_rank(hd @ prec.W1) == 2

    def test_perfect_rank_deficient(self):
        row = np.ones((1, 4), dtype=complex)
        with pytest.raises(NumericalError):
            tx_precoders_perfect(np.vstack([row, row]))

    @pytest.mark.parametrize("shape", [(3, 3), (3, 2)])
    def test_perfect_needs_a_nullspace(self, shape):
        """n_t <= n_r leaves no nullspace for the artificial noise."""
        with pytest.raises(InvalidInputError, match="need n_t > n_r"):
            tx_precoders_perfect(np.ones(shape))

    def test_quantized_zero_error_nulls_channel(self):
        rng = np.random.default_rng(9)
        hd = random_gaussian_matrix(2, 4, rng)
        f, _ = qr_tall(hd.conj().T)
        prec = tx_precoders_quantized(f, random_gaussian_matrix(4, 2, rng), 0.0)
        np.testing.assert_array_equal(prec.W1, f)
        assert np.linalg.norm(hd @ prec.W2) < 1e-9

    def test_quantized_coordinate_case(self):
        f = np.vstack([np.eye(2), np.zeros((2, 2))]).astype(complex)
        prec = tx_precoders_quantized(f, np.ones((4, 2)), 0.0)
        proj2 = prec.W2 @ prec.W2.conj().T
        np.testing.assert_allclose(proj2, np.diag([0.0, 0.0, 1.0, 1.0]), atol=1e-10)

    def test_quantized_invariants_random(self):
        """W1 at the target distance from F, W2 its complement, narrow ambients included."""
        rng = np.random.default_rng(10)
        for n_t, n_r in ((6, 3), (3, 2), (4, 3)):
            f = random_truncated_unitary(n_t, n_r, rng)
            prec = tx_precoders_quantized(f, random_gaussian_matrix(n_t, n_r, rng), 0.3)
            assert chordal_distance(f, prec.W1) == pytest.approx(0.3, abs=1e-12)
            assert np.linalg.norm(prec.W1.conj().T @ prec.W2) < 1e-10
            assert np.linalg.norm(prec.W1.conj().T @ prec.W1 - np.eye(n_r)) < 1e-10

    @settings(deadline=None, derandomize=True)
    @given(
        dims=st.integers(1, 4).flatmap(
            lambda n_r: st.tuples(st.just(n_r), st.integers(2 * n_r, 2 * n_r + 3))
        ),
        stack=st.sampled_from([(), (3,), (2, 3)]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_quantized_w2_spans_nullspace_oracle(self, dims, stack, seed):
        """The QR-completed W2 spans the nullspace of W1*, per matrix of a stack."""
        n_r, n_t = dims
        parts = np.random.default_rng(seed).standard_normal((2,) + stack + (2, n_t, n_r))
        f, z = haar_columns(complex_gaussian(parts[0])), complex_gaussian(parts[1])
        prec = tx_precoders_quantized(f, z, 0.5)
        assert prec.W1.shape == stack + (n_t, n_r)
        assert prec.W2.shape == stack + (n_t, n_t - n_r)
        assert np.all(chordal_distance(prec.W2, left_nullspace_basis(prec.W1)) <= 1e-12)

    def test_precoders_validation(self):
        with pytest.raises(InvalidInputError):
            Precoders(W1=np.ones((4, 2)), W2=np.ones((4, 2)))

    @pytest.mark.parametrize(
        "fault", ["w1_not_orthonormal", "w2_not_orthonormal", "not_orthogonal", "nan"]
    )
    def test_precoders_reject_each_fault(self, fault):
        """The one Gram test catches each of the three old checks' faults, and NaN."""
        w = random_truncated_unitary(5, 5, np.random.default_rng(28))
        w1, w2 = w[:, :2].copy(), w[:, 2:].copy()
        Precoders(W1=w1, W2=w2)
        if fault == "w1_not_orthonormal":
            w1[:, 0] *= 1.0 + 1e-9
        elif fault == "w2_not_orthonormal":
            w2[:, 2] = w2[:, 1]
        elif fault == "not_orthogonal":
            w2[:, 0] = w1[:, 0]
        else:
            w2[3, 1] = np.nan
        with pytest.raises(InvalidInputError):
            Precoders(W1=w1, W2=w2)

    def test_precoders_reject_mismatched_stacks(self):
        w = random_truncated_unitary(4, 4, np.random.default_rng(29))
        with pytest.raises(InvalidInputError):
            Precoders(W1=w[:, :2], W2=np.stack([w[:, 2:]] * 3))


class TestRxPostfilter:
    def test_hand_case_identity(self):
        hd = np.hstack([np.eye(2), np.zeros((2, 2))]).astype(complex)
        b = np.vstack([np.eye(2), np.zeros((2, 2))]).astype(complex)
        filters = rx_postfilter(hd, np.zeros((2, 0)), B=b)
        np.testing.assert_allclose(filters.G, np.eye(2), atol=1e-10)
        np.testing.assert_allclose(filters.V, np.eye(2), atol=1e-12)

    def test_constant_gram_identity(self):
        """G* V* C* C V G equals B* M Lambda M* B for the projector eigensplit."""
        rng = np.random.default_rng(12)
        for _ in range(20):
            cfg = AntennaConfig(6, 3, 1, 3)
            ch = sample_channels(cfg, rng)
            b = random_truncated_unitary(6, 2, rng)
            filters = rx_postfilter(ch.Hd, ch.Hj, b)
            v, g, f, c = filters.V, filters.G, filters.F, filters.C
            lhs = g.conj().T @ v.conj().T @ c.conj().T @ c @ v @ g
            cv = c @ v
            proj = cv @ np.linalg.solve(cv.conj().T @ cv, cv.conj().T)
            lam, u = np.linalg.eigh(0.5 * (proj + proj.conj().T))
            m = f @ u
            rhs = b.conj().T @ m @ np.diag(lam) @ m.conj().T @ b
            assert np.linalg.norm(lhs - rhs) < 1e-8

    def test_scalar_stream(self):
        rng = np.random.default_rng(13)
        cfg = AntennaConfig(4, 2, 1, 2)
        ch = sample_channels(cfg, rng)
        filters = rx_postfilter(ch.Hd, ch.Hj, random_truncated_unitary(4, 1, rng))
        assert filters.G.shape == (1, 1)
        assert abs(filters.G[0, 0]) > 0

    def test_rejects_bad_b(self):
        rng = np.random.default_rng(14)
        cfg = AntennaConfig(4, 2, 1, 2)
        ch = sample_channels(cfg, rng)
        with pytest.raises(InvalidInputError):
            rx_postfilter(ch.Hd, ch.Hj, B=np.eye(4))
        with pytest.raises(InvalidInputError):
            rx_postfilter(ch.Hd, ch.Hj, B=np.ones((4, 1)))

    def test_b_orthogonal_to_channel_is_not_positive_definite(self):
        """B from the complement of span(F) has B* F = 0, so G = 0."""
        rng = np.random.default_rng(17)
        cfg = AntennaConfig(4, 2, 1, 2)
        ch = sample_channels(cfg, rng)
        f = rx_postfilter(ch.Hd, ch.Hj, random_truncated_unitary(4, 1, rng)).F
        b = np.linalg.qr(f, mode="complete").Q[:, cfg.n_r : cfg.n_r + cfg.d_s]
        with pytest.raises(NumericalError, match="G\\* G is not positive definite"):
            rx_postfilter(ch.Hd, ch.Hj, B=b)

    def test_jammer_annihilated(self):
        rng = np.random.default_rng(15)
        cfg = AntennaConfig(6, 3, 2, 3)
        ch = sample_channels(cfg, rng)
        filters = rx_postfilter(ch.Hd, ch.Hj, random_truncated_unitary(6, 1, rng))
        assert np.linalg.norm(filters.V.conj().T @ ch.Hj) < 1e-10

    def test_jammer_as_large_as_receiver(self):
        """A hand-built Hj with n_j >= n_r leaves nothing to null into."""
        rng = np.random.default_rng(16)
        hd = random_gaussian_matrix(2, 4, rng)
        with pytest.raises(InvalidInputError):
            rx_postfilter(hd, random_gaussian_matrix(2, 2, rng), random_truncated_unitary(4, 1, rng))


class TestLeakage:
    def _trial(self, seed, nf=30):
        rng = np.random.default_rng(seed)
        cfg = AntennaConfig(4, 2, 1, 2)
        ch = sample_channels(cfg, rng)
        filters = rx_postfilter(ch.Hd, ch.Hj, random_truncated_unitary(4, 1, rng))
        z = random_gaussian_matrix(4, 2, rng)
        prec_q = tx_precoders_quantized(filters.F, z, quant_error_bound(nf, 4, 2))
        return cfg, ch, filters, prec_q

    def test_perfect_csi_leaks_nothing(self):
        rng = np.random.default_rng(16)
        cfg = AntennaConfig(4, 2, 1, 2)
        ch = sample_channels(cfg, rng)
        filters = rx_postfilter(ch.Hd, ch.Hj, random_truncated_unitary(4, 1, rng))
        prec = tx_precoders_perfect(ch.Hd)
        policy = PowerPolicy(P=100.0, rho=0.5)
        assert secrecy_rate_G(ch, prec, filters, policy, cfg).leakage < 1e-18

    @pytest.mark.parametrize("n_r", [2, 3, 4])
    def test_stack_matches_each_matrix_bitwise(self, n_r):
        """A (trials, points) stack rounds each leakage value like its 2-D call."""
        cfg = AntennaConfig(2 * n_r, n_r, 1, n_r)
        rngs = [np.random.default_rng((20, t)) for t in range(8)]
        targets = np.linspace(0.01, 0.9, 13)
        ch, b = sample_trials(cfg, rngs)
        z = sample_directions(cfg, rngs, targets > 0)
        filters = rx_postfilter(ch.Hd, ch.Hj, B=b)
        prec = tx_precoders_quantized(filters.F, z, targets)
        powers = 10.0 ** np.arange(13)
        stacked = secrecy_rate_G(ch, prec, filters, PowerPolicy(P=powers, rho=0.5), cfg).leakage
        for t in range(8):
            trial = ReceiverFilters(**{name: m[t, 0] for name, m in vars(filters).items()})
            ch_t = ChannelSet(**{name: m[t, 0] for name, m in vars(ch).items()})
            for p in range(13):
                prec_p = Precoders(W1=prec.W1[t, p], W2=prec.W2[t, p])
                policy = PowerPolicy(P=powers[p], rho=0.5)
                assert stacked[t, p] == secrecy_rate_G(ch_t, prec_p, trial, policy, cfg).leakage

    def test_monte_carlo_cross_check(self):
        """Empirical mean of ||e_L||^2 over 1e5 Gaussian draws within 2%."""
        cfg, ch, filters, prec_q = self._trial(17)
        policy = PowerPolicy(P=50.0, rho=0.4)
        closed = secrecy_rate_G(ch, prec_q, filters, policy, cfg).leakage
        rng = np.random.default_rng(170)
        n_an = cfg.n_t - cfg.n_r
        coupling = np.sqrt(1 - policy.rho) * (
            filters.G.conj().T @ filters.V.conj().T @ ch.Hd @ prec_q.W2
        )
        x = random_gaussian_matrix(n_an, 10**5, rng) * np.sqrt(policy.P / n_an)
        empirical = float(np.mean(np.sum(np.abs(coupling @ x) ** 2, axis=0)))
        assert empirical == pytest.approx(closed, rel=0.02)

    def test_linear_in_power(self):
        cfg, ch, filters, prec_q = self._trial(18)
        l1 = secrecy_rate_G(ch, prec_q, filters, PowerPolicy(P=10.0, rho=0.5), cfg).leakage
        l2 = secrecy_rate_G(ch, prec_q, filters, PowerPolicy(P=20.0, rho=0.5), cfg).leakage
        assert l2 == pytest.approx(2 * l1, rel=1e-12)

    def test_vanishes_with_distance(self):
        """Leakage decreases to zero along a shrinking distance sequence."""
        rng = np.random.default_rng(19)
        cfg = AntennaConfig(4, 2, 1, 2)
        ch = sample_channels(cfg, rng)
        filters = rx_postfilter(ch.Hd, ch.Hj, random_truncated_unitary(4, 1, rng))
        policy = PowerPolicy(P=100.0, rho=0.5)
        prev = np.inf
        for dist in (0.5, 0.1, 0.01, 1e-3, 1e-4):
            prec_q = tx_precoders_quantized(filters.F, random_gaussian_matrix(4, 2, rng), dist)
            leak = secrecy_rate_G(ch, prec_q, filters, policy, cfg).leakage
            assert leak < prev
            prev = leak
        assert prev < 1e-6

    def test_bound_value_at_matched_bits(self):
        """At P = 2^10, the matched 40-bit budget gives the P-free constant."""
        cfg = AntennaConfig(4, 2, 1, 2)
        policy = PowerPolicy(P=2.0**10, rho=0.5)
        bound = leakage_bound(policy, 40, cfg)
        constant = 8 * (1 - policy.rho) / ((cfg.n_t - cfg.n_r) * 0.5 ** (2 / 8))
        assert bound == pytest.approx(constant, rel=1e-12)
        assert bound == pytest.approx(2.378414230005442, rel=1e-12)

    def test_bound_vanishes_as_rho_to_one(self):
        cfg = AntennaConfig(4, 2, 1, 2)
        assert leakage_bound(PowerPolicy(P=10.0, rho=0.999999), 20, cfg) < 1e-5

    def test_leakage_below_bound(self):
        """Closed-form leakage never exceeds the analytic bound at the bound's distance."""
        for seed in range(30):
            cfg, ch, filters, prec_q = self._trial(100 + seed, nf=25)
            policy = PowerPolicy(P=float(10 ** (1 + seed % 4)), rho=0.5)
            leak = secrecy_rate_G(ch, prec_q, filters, policy, cfg).leakage
            assert leak <= leakage_bound(policy, 25, cfg) * (1 + 1e-9)
