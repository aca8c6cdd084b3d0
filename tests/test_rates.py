"""Tests for the secrecy-rate formulas, slope fits and inequality checks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secmimo.errors import InvalidInputError
from secmimo.grassmann import feedback_bits, perturb_gram, quantization_target
from secmimo.linalg import (
    LOG2_E,
    adjoint,
    complex_gaussian,
    gaussian_mi,
    hermitian_part,
    logdet_pd,
    random_gaussian_matrix,
    random_truncated_unitary,
)
from secmimo.rates import (
    SecrecyRate,
    _precoder_grams,
    beta_P,
    eve_rate_limit,
    fit_slope,
    grams_rate,
    logdet_perturbation_check,
    logdet_variational_objective,
    secrecy_rate_G,
    secrecy_rate_perfect_basic,
    step_grams,
    trial_couplings,
)
from secmimo.transceiver import (
    AntennaConfig,
    ChannelSet,
    PowerPolicy,
    rx_postfilter,
    sample_channels,
    sample_directions,
    sample_trials,
    tx_precoders_perfect,
    tx_precoders_quantized,
)


def _channels_and_filters(cfg, rng):
    """The channels, then B, then the receive filters built on them."""
    ch = sample_channels(cfg, rng)
    return ch, rx_postfilter(ch.Hd, ch.Hj, random_truncated_unitary(cfg.n_t, cfg.d_s, rng))


def _quantized(cfg, filters, nf, rng):
    """Quantized precoders for nf bits, on one direction drawn from rng."""
    z = random_gaussian_matrix(cfg.n_t, cfg.n_r, rng)
    return tx_precoders_quantized(filters.F, z, quantization_target(nf, cfg.n_t, cfg.n_r))


def _random_trial(seed, cfg=None, nf=30):
    rng = np.random.default_rng(seed)
    cfg = cfg or AntennaConfig(4, 2, 1, 2)
    ch, filters = _channels_and_filters(cfg, rng)
    prec_p = tx_precoders_perfect(ch.Hd)
    return cfg, ch, filters, prec_p, _quantized(cfg, filters, nf, rng)


class TestPerfectBasic:
    def test_hand_case_one_bit(self):
        """Aligned scalar system at P = 2 carries exactly one secret bit."""
        cfg = AntennaConfig(2, 1, 0, 1)
        ch = ChannelSet(
            Hd=np.array([[1.0, 0.0]], dtype=complex),
            He=np.array([[0.0, 1.0]], dtype=complex),
            Hj=np.zeros((1, 0), dtype=complex),
        )
        policy = PowerPolicy(P=2.0, rho=0.5)
        rate = secrecy_rate_perfect_basic(ch, policy, cfg)
        assert rate.clipped == pytest.approx(1.0, abs=1e-12)
        assert rate.t_minus == pytest.approx(0.0, abs=1e-12)

    def test_vanishes_with_rho(self):
        cfg, ch, _, _, _ = _random_trial(1)
        rate = secrecy_rate_perfect_basic(ch, PowerPolicy(P=100.0, rho=1e-9), cfg)
        assert abs(rate.raw) < 1e-6

    def test_matches_mi_oracle(self):
        """One trial against gaussian_mi; a stack of five gives each trial's 2-D call bit for bit."""
        rng = np.random.default_rng(2)
        cfg = AntennaConfig(4, 2, 1, 2)
        ch = sample_channels(cfg, rng)
        policy = PowerPolicy(P=37.0, rho=0.6)
        rate = secrecy_rate_perfect_basic(ch, policy, cfg)
        from secmimo.linalg import left_nullspace_basis

        u, s, vh = np.linalg.svd(ch.Hd)
        v = left_nullspace_basis(ch.Hj)
        h_eff = v.conj().T @ u @ np.diag(s)
        per_stream = policy.P / 2
        an = policy.an_cov_scale(4, 2)
        he_s = ch.He @ vh[:2].conj().T
        he_an = ch.He @ vh[2:].conj().T
        mi_rx = gaussian_mi(h_eff, policy.rho * per_stream * np.eye(2), None)
        mi_eve = gaussian_mi(
            he_s,
            policy.rho * per_stream * np.eye(2),
            an * (he_an @ he_an.conj().T),
        )
        assert rate.raw == pytest.approx(mi_rx - mi_eve, abs=1e-9)
        cfg = AntennaConfig(6, 3, 1, 3)
        stacked, _ = sample_trials(cfg, [np.random.default_rng((2, t)) for t in range(5)])
        rates = secrecy_rate_perfect_basic(stacked, policy, cfg)
        for t in range(5):
            alone = secrecy_rate_perfect_basic(_trial(stacked, t), policy, cfg)
            for name in ("clipped", "raw", "t_plus", "t_minus"):
                np.testing.assert_array_equal(getattr(rates, name)[t, 0], getattr(alone, name))


class TestPerfectG:
    def test_scalar_case_matches_basic(self):
        """With d_s = n_r = 1 the G filter is a scalar and cancels."""
        rng = np.random.default_rng(3)
        cfg = AntennaConfig(2, 1, 0, 1)
        ch, filters = _channels_and_filters(cfg, rng)
        prec = tx_precoders_perfect(ch.Hd)
        policy = PowerPolicy(P=25.0, rho=0.5)
        with_g = secrecy_rate_G(ch, prec, filters, policy, cfg)
        basic = secrecy_rate_perfect_basic(ch, policy, cfg)
        assert with_g.raw == pytest.approx(basic.raw, abs=1e-9)

    def test_t_plus_vanishes_with_rho(self):
        cfg, ch, filters, prec_p, _ = _random_trial(4)
        rate = secrecy_rate_G(
            ch, prec_p, filters, PowerPolicy(P=100.0, rho=1e-12), cfg
        )
        assert rate.t_plus < 1e-6

    def test_high_snr_slope_is_ds(self):
        """Raw-rate slope over P = 2^20..2^30 approximates d_s within 0.05."""
        for seed in (5, 6):
            cfg, ch, filters, prec_p, _ = _random_trial(seed, AntennaConfig(6, 3, 1, 3))
            snrs, rates = [], []
            for k in range(20, 31):
                policy = PowerPolicy(P=2.0**k, rho=0.5)
                snrs.append(10.0 * math.log10(policy.P))
                rates.append(secrecy_rate_G(ch, prec_p, filters, policy, cfg).raw)
            slope = fit_slope(np.array(snrs), np.array(rates), window=(min(snrs), max(snrs)))
            assert slope == pytest.approx(cfg.d_s, abs=0.05)

    def test_t_plus_monotone_in_power(self):
        cfg, ch, filters, prec_p, _ = _random_trial(7)
        values = [
            secrecy_rate_G(ch, prec_p, filters, PowerPolicy(P=p, rho=0.5), cfg).t_plus
            for p in (1.0, 10.0, 100.0, 1000.0)
        ]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_clipping(self):
        cfg, ch, filters, prec_p, _ = _random_trial(8)
        rate = secrecy_rate_G(ch, prec_p, filters, PowerPolicy(P=1e-6, rho=0.5), cfg)
        assert rate.clipped == max(rate.raw, 0.0)


class TestQuantizedG:
    def test_zero_quantization_error_matches_perfect_formula(self):
        """Feeding back the exact subspace reproduces the perfect-CSI rate."""
        rng = np.random.default_rng(9)
        cfg = AntennaConfig(4, 2, 1, 2)
        ch, filters = _channels_and_filters(cfg, rng)
        prec_q = tx_precoders_quantized(filters.F, np.zeros((4, 2)), 0.0)
        policy = PowerPolicy(P=200.0, rho=0.5)
        quantized = secrecy_rate_G(ch, prec_q, filters, policy, cfg)
        perfect = secrecy_rate_G(ch, tx_precoders_perfect(ch.Hd), filters, policy, cfg)
        assert quantized.raw == pytest.approx(perfect.raw, abs=1e-9)

    def test_quantized_below_perfect_at_high_snr(self):
        """Raw quantized rate at or below raw perfect rate on >= 95% of trials."""
        epsilon = 0.0
        ok = 0
        trials = 60
        for seed in range(trials):
            rng = np.random.default_rng(1000 + seed)
            cfg = AntennaConfig(4, 2, 1, 2)
            ch, filters = _channels_and_filters(cfg, rng)
            prec_p = tx_precoders_perfect(ch.Hd)
            good = True
            for snr in (40.0, 50.0, 60.0):
                policy = PowerPolicy(P=10.0 ** (snr / 10.0), rho=0.5)
                prec_q = _quantized(cfg, filters, feedback_bits(policy.P, epsilon, 4, 2), rng)
                r_p = secrecy_rate_G(ch, prec_p, filters, policy, cfg)
                r_q = secrecy_rate_G(ch, prec_q, filters, policy, cfg)
                good = good and (r_q.raw <= r_p.raw + 1e-6)
            ok += good
        assert ok >= 0.95 * trials

    def test_fixed_bits_saturate(self):
        """With 30 bits fixed, the mean rate flattens between 50 and 60 dB."""
        cfg = AntennaConfig(6, 3, 1, 3)
        deltas = []
        for seed in range(60):
            rng = np.random.default_rng(2000 + seed)
            ch, filters = _channels_and_filters(cfg, rng)
            values = {}
            for snr in (50.0, 60.0):
                policy = PowerPolicy(P=10.0 ** (snr / 10.0), rho=0.5)
                prec_q = _quantized(cfg, filters, 30, rng)
                values[snr] = secrecy_rate_G(ch, prec_q, filters, policy, cfg).clipped
            deltas.append(values[60.0] - values[50.0])
        assert float(np.mean(deltas)) < 0.5

    def test_gap_nonincreasing_with_margin_schedule(self):
        """Mean raw gap is nonincreasing over 20..60 dB under the 1.5x bit law."""
        epsilon = 0.5
        cfg = AntennaConfig(4, 2, 1, 2)
        snrs = (20.0, 30.0, 40.0, 50.0, 60.0)
        gaps = np.zeros(len(snrs))
        trials = 200
        for seed in range(trials):
            rng = np.random.default_rng(3000 + seed)
            ch, filters = _channels_and_filters(cfg, rng)
            prec_p = tx_precoders_perfect(ch.Hd)
            for i, snr in enumerate(snrs):
                policy = PowerPolicy(P=10.0 ** (snr / 10.0), rho=0.5)
                prec_q = _quantized(cfg, filters, feedback_bits(policy.P, epsilon, 4, 2), rng)
                r_p = secrecy_rate_G(ch, prec_p, filters, policy, cfg)
                r_q = secrecy_rate_G(ch, prec_q, filters, policy, cfg)
                gaps[i] += r_p.raw - r_q.raw
        gaps /= trials
        assert all(b <= a + 1e-12 for a, b in zip(gaps, gaps[1:]))


def _sweep_case(shape, seed, mode, fraction=0.5):
    """One trial's channels, filters, quantizer direction and target, and its precoders.

    The perfect mode has the zero direction and target 0.
    """
    cfg = AntennaConfig(*shape)
    rng = np.random.default_rng(seed)
    ch, filters = _channels_and_filters(cfg, rng)
    if mode == "perfect":
        return cfg, ch, filters, np.zeros_like(filters.F), 0.0, tx_precoders_perfect(ch.Hd)
    target = fraction * math.sqrt(min(cfg.n_r, cfg.n_t - cfg.n_r))
    z = random_gaussian_matrix(cfg.n_t, cfg.n_r, rng)
    return cfg, ch, filters, z, target, tx_precoders_quantized(filters.F, z, target)


def _step_grams(ch, filters, z, target):
    """The Gram set of the quantizer step, the engine's route."""
    return step_grams(trial_couplings(ch, filters), perturb_gram(filters.F, z, target))


def _gram_rate(ch, filters, z, target, policy, cfg):
    """grams_rate of the Gram set of the quantizer step."""
    return grams_rate(_step_grams(ch, filters, z, target), policy, cfg)


def _trial(stacked, t):
    """Trial t of a (T, 1) stack of channels, filters, precoders or Grams, as 2-D matrices."""
    if isinstance(stacked, tuple):
        return type(stacked)._make(m[t, 0] for m in stacked)
    return type(stacked)(**{name: m[t, 0] for name, m in vars(stacked).items()})


def _close(value, ref):
    return np.all(np.abs(value - ref) <= 1e-10 * np.maximum(1.0, np.abs(ref)))


_SWEEP_SHAPES = st.sampled_from([(4, 2, 1, 2), (6, 3, 1, 3), (8, 4, 1, 4), (7, 3, 0, 2)])


class TestSecrecyRateSweep:
    """grams_rate over a vector of powers, as the engine rates perfect and quantized CSI,
    against explicit precoders and gaussian_mi."""

    @settings(deadline=None, derandomize=True)
    @given(
        shape=_SWEEP_SHAPES,
        seed=st.integers(0, 2**32 - 1),
        mode=st.sampled_from(["perfect", "quantized"]),
        fraction=st.floats(0.0, 0.99),
        log_powers=st.lists(st.floats(0.0, 9.0), min_size=1, max_size=6),
    )
    def test_matches_pointwise_kernel(self, shape, seed, mode, fraction, log_powers):
        """A (1, 1) Gram stack over P powers gives (1, P) arrays; each power against
        secrecy_rate_G at that power, to 1e-10."""
        cfg, ch, filters, z, target, prec = _sweep_case(shape, seed, mode, fraction)
        powers = 10.0 ** np.array(log_powers)
        grams = _step_grams(ch, filters, z, target)
        stack = grams._make(m[np.newaxis, np.newaxis] for m in grams)
        sweep = grams_rate(stack, PowerPolicy(P=powers, rho=0.5), cfg)
        assert sweep.raw.shape == (1, len(powers))
        for i, power in enumerate(powers):
            point = secrecy_rate_G(ch, prec, filters, PowerPolicy(P=power, rho=0.5), cfg)
            for name in ("t_plus", "t_minus", "raw", "leakage"):
                assert _close(getattr(sweep, name)[0, i], getattr(point, name)), name
            assert sweep.clipped[0, i] == max(sweep.raw[0, i], 0.0)

    @settings(deadline=None, derandomize=True)
    @given(
        shape=_SWEEP_SHAPES,
        seed=st.integers(0, 2**32 - 1),
        mode=st.sampled_from(["perfect", "quantized"]),
        log_power=st.floats(0.0, 9.0),
        rho=st.floats(0.1, 0.9),
    )
    def test_matches_gaussian_mi(self, shape, seed, mode, log_power, rho):
        """Both terms against the generic oracle at unit noise; G drops out of the receiver's MI."""
        cfg, ch, filters, z, target, prec = _sweep_case(shape, seed, mode)
        policy = PowerPolicy(P=10.0**log_power, rho=rho)
        rate = _gram_rate(ch, filters, z, target, policy, cfg)
        signal_cov = rho * policy.P / cfg.n_r * np.eye(cfg.n_r)
        an = policy.an_cov_scale(cfg.n_t, cfg.n_r)
        vh = filters.V.conj().T @ ch.Hd
        leak, e2 = vh @ prec.W2, ch.He @ prec.W2
        mi_plus = gaussian_mi(vh @ prec.W1, signal_cov, an * (leak @ leak.conj().T))
        mi_minus = gaussian_mi(ch.He @ prec.W1, signal_cov, an * (e2 @ e2.conj().T))
        assert rate.t_plus == pytest.approx(mi_plus, rel=1e-9, abs=1e-9)
        assert rate.t_minus == pytest.approx(mi_minus, rel=1e-9, abs=1e-9)

    @settings(deadline=None, derandomize=True)
    @given(
        shape=_SWEEP_SHAPES,
        seed=st.integers(0, 2**32 - 1),
        mode=st.sampled_from(["perfect", "quantized"]),
    )
    def test_low_snr_absolute_error(self, shape, seed, mode):
        """At -100 dB, where a rate is about 1e-10 bits, each term's absolute error
        against the sum of log1p over its generalized eigenvalues is a few ulps of 1;
        both terms sit on a unit noise floor."""
        cfg, ch, filters, z, target, _ = _sweep_case(shape, seed, mode)
        policy = PowerPolicy(P=1e-10, rho=0.5)
        grams = _step_grams(ch, filters, z, target)
        rate = grams_rate(grams, policy, cfg)
        signal, an = policy.signal_scale(cfg.n_r), policy.an_cov_scale(cfg.n_t, cfg.n_r)

        def log1p_reference(extra, floor):
            inv = np.linalg.inv(np.linalg.cholesky(floor))
            lam = np.linalg.eigvalsh(hermitian_part(inv @ extra @ adjoint(inv)))
            return np.sum(np.log1p(lam)) / math.log(2.0)

        eps = np.finfo(float).eps
        t_plus = log1p_reference(signal * grams.s1, an * grams.s2 + np.eye(cfg.d_s))
        t_minus = log1p_reference(signal * grams.e1, an * grams.e2 + np.eye(cfg.n_e))
        assert abs(rate.t_plus - t_plus) <= 16 * eps
        assert abs(rate.t_minus - t_minus) <= 16 * eps

    def test_stack_broadcasts_like_pointwise_kernel(self):
        """A (T, 1) stack and P powers give (T, P) arrays, element by element."""
        cfg = AntennaConfig(6, 3, 1, 3)
        rngs = [np.random.default_rng((31, t)) for t in range(4)]
        ch, b = sample_trials(cfg, rngs)
        filters = rx_postfilter(ch.Hd, ch.Hj, B=b)
        policy = PowerPolicy(P=10.0 ** np.arange(0.0, 7.0), rho=0.5)
        sweep = _gram_rate(ch, filters, np.zeros_like(filters.F), 0.0, policy, cfg)
        assert sweep.raw.shape == (4, 7)
        for t in range(4):
            ch_t, filters_t = _trial(ch, t), _trial(filters, t)
            alone = _gram_rate(ch_t, filters_t, np.zeros_like(filters_t.F), 0.0, policy, cfg)
            np.testing.assert_array_equal(sweep.raw[t], alone.raw)

    def test_non_finite_matrix_rejected(self):
        cfg, ch, filters, z, target, _ = _sweep_case((4, 2, 1, 2), 41, "perfect")
        policy = PowerPolicy(P=10.0, rho=0.5)
        he = ch.He.copy()
        he[0, 0] = np.nan
        with pytest.raises(InvalidInputError):
            _gram_rate(ChannelSet(Hd=ch.Hd, He=he, Hj=ch.Hj), filters, z, target, policy, cfg)
        grams = _step_grams(ch, filters, z, target)
        with pytest.raises(InvalidInputError):
            grams_rate(grams._replace(e1=np.full_like(grams.e1, np.nan)), policy, cfg)


def _fields(result):
    """The arrays of a SecrecyRate, or a kernel's one array, as a tuple."""
    return tuple(vars(result).values()) if isinstance(result, SecrecyRate) else (result,)


# each kernel of a trial's config, channels, filters, precoders and Grams at a policy
_RHO_KERNELS = {
    "grams_rate": lambda c, ch, f, w, g, pol: grams_rate(g, pol, c),
    "secrecy_rate_G": lambda c, ch, f, w, g, pol: secrecy_rate_G(ch, w, f, pol, c),
    # grams_rate over a vector of powers, the engine's power sweep
    "grams_rate_sweep": lambda c, ch, f, w, g, pol: grams_rate(g, pol, c),
    "eve_rate_limit": lambda c, ch, f, w, g, pol: eve_rate_limit(g, pol, c),
    "beta_P": lambda c, ch, f, w, g, pol: beta_P(g, pol, c),
}


class TestRhoStack:
    @pytest.fixture(scope="class")
    def case(self):
        """Five trials' quantized precoders and their Gram set, each at its own target and rho."""
        cfg = AntennaConfig(6, 3, 1, 3)
        rngs = [np.random.default_rng((43, t)) for t in range(5)]
        ch, b = sample_trials(cfg, rngs)
        filters = rx_postfilter(ch.Hd, ch.Hj, B=b)
        z = sample_directions(cfg, rngs, [True])
        targets = np.linspace(0.1, 1.2, 5)[:, np.newaxis]
        prec = tx_precoders_quantized(filters.F, z, targets)
        couplings = trial_couplings(ch, filters)
        grams = step_grams(couplings, perturb_gram(filters.F, z, targets))
        return cfg, (ch, filters, prec, grams), np.linspace(0.2, 0.8, 5)[:, np.newaxis]

    @pytest.mark.parametrize("name", _RHO_KERNELS)
    def test_stack_matches_per_matrix_calls(self, case, name):
        """A (T, 1) rho stack gives, bit for bit, each trial's result at its scalar rho."""
        cfg, stacks, rho = case
        kernel = _RHO_KERNELS[name]
        power = np.array([1.0, 1e3, 1e9]) if name == "grams_rate_sweep" else 1e4
        stacked = _fields(kernel(cfg, *stacks, PowerPolicy(P=power, rho=rho)))
        for t in range(len(rho)):
            alone = _fields(
                kernel(cfg, *(_trial(s, t) for s in stacks), PowerPolicy(P=power, rho=rho[t, 0]))
            )
            for got, want in zip(stacked, alone):
                np.testing.assert_array_equal(got[t], np.reshape(want, got[t].shape))


class TestStepGrams:
    def test_leakage_keeps_tiny_targets(self):
        """tr(G G* A J A*) against the explicit precoders' leakage, at targets down to 1e-7.

        The explicit route loses about 1e-16 / target of relative accuracy, and
        A (I - K) A* would lose 1e-16 / target^2.
        """
        cfg = AntennaConfig(6, 3, 1, 3)
        rng = np.random.default_rng(42)
        ch, filters = _channels_and_filters(cfg, rng)
        z = random_gaussian_matrix(cfg.n_t, cfg.n_r, rng)
        targets = np.array([1e-7, 1e-4, 0.5, 1.5])
        policy = PowerPolicy(P=np.full(targets.shape, 1e6), rho=0.5)
        step = perturb_gram(filters.F, z, targets)
        grams = step_grams(trial_couplings(ch, filters), step)
        rate = grams_rate(grams, policy, cfg)
        prec = tx_precoders_quantized(filters.F, z, targets)
        np.testing.assert_allclose(
            rate.leakage, secrecy_rate_G(ch, prec, filters, policy, cfg).leakage, rtol=1e-6, atol=0
        )

    @pytest.mark.parametrize(
        "shape", [(4, 2, 1, 2), (6, 3, 1, 3), (8, 4, 1, 4), (7, 3, 0, 2), (5, 3, 1, 2)]
    )
    def test_leakage_is_explicit_formula(self, shape):
        """grams_rate's leakage is an_cov_scale ||G* V* Hd W2||_F^2 to 1e-10 relative.

        W2 is tx_precoders_quantized's on the same direction and target. Each
        of 50 trials meets every budget in {4, 12, 30, 60} at every P in
        {1, 1e2, 1e4, 1e6}.
        """
        cfg = AntennaConfig(*shape)
        rngs = [np.random.default_rng([5, t]) for t in range(50)]
        ch, b = sample_trials(cfg, rngs)
        filters = rx_postfilter(ch.Hd, ch.Hj, b)
        budgets = np.repeat([4, 12, 30, 60], 4)
        targets = np.array([quantization_target(nf, cfg.n_t, cfg.n_r) for nf in budgets])
        policy = PowerPolicy(P=np.tile([1.0, 1e2, 1e4, 1e6], 4), rho=0.5)
        z = sample_directions(cfg, rngs, np.ones(targets.size, bool))
        leakage = _gram_rate(ch, filters, z, targets, policy, cfg).leakage
        w2 = tx_precoders_quantized(filters.F, z, targets).W2
        s = adjoint(filters.G) @ adjoint(filters.V) @ ch.Hd @ w2
        explicit = policy.an_cov_scale(cfg.n_t, cfg.n_r) * np.linalg.norm(s, axis=(-2, -1)) ** 2
        np.testing.assert_allclose(leakage, explicit, rtol=1e-10, atol=0)


class TestEveRateLimit:
    def test_vanishes_with_rho(self):
        cfg, ch, filters, prec_p, _ = _random_trial(10)
        policy = PowerPolicy(P=10.0, rho=1e-12)
        limit = eve_rate_limit(_precoder_grams(ch, prec_p, filters), policy, cfg)
        assert limit < 1e-9

    def test_t_minus_converges(self):
        """The Eve term converges to the closed-form limit along P = 1e3, 1e6, 1e9."""
        cfg, ch, filters, prec_p, _ = _random_trial(11)
        policy9 = PowerPolicy(P=1e9, rho=0.5)
        limit = eve_rate_limit(_precoder_grams(ch, prec_p, filters), policy9, cfg)
        diffs = []
        for p in (1e3, 1e6, 1e9):
            t_minus = secrecy_rate_G(
                ch, prec_p, filters, PowerPolicy(P=p, rho=0.5), cfg
            ).t_minus
            diffs.append(abs(t_minus - limit))
        assert diffs[0] > diffs[1] > diffs[2]
        assert diffs[2] < 1e-3

    def test_zero_when_eve_misses_signal(self):
        """An eavesdropper confined to the artificial-noise span learns nothing."""
        rng = np.random.default_rng(12)
        cfg = AntennaConfig(4, 2, 1, 2)
        ch, filters = _channels_and_filters(cfg, rng)
        prec = tx_precoders_perfect(ch.Hd)
        he = prec.W2[:, :2].conj().T  # rows orthogonal to W1's span
        ch2 = ChannelSet(Hd=ch.Hd, He=he, Hj=ch.Hj)
        policy = PowerPolicy(P=10.0, rho=0.5)
        limit = eve_rate_limit(_precoder_grams(ch2, prec, filters), policy, cfg)
        assert limit == pytest.approx(0.0, abs=1e-9)

    def test_stack_matches_per_matrix_calls(self):
        cfg = AntennaConfig(6, 3, 1, 3)
        ch, b = sample_trials(cfg, [np.random.default_rng((40, t)) for t in range(5)])
        filters = rx_postfilter(ch.Hd, ch.Hj, B=b)
        prec = tx_precoders_perfect(ch.Hd)
        policy = PowerPolicy(P=1e9, rho=0.3)
        limits = eve_rate_limit(_precoder_grams(ch, prec, filters), policy, cfg)
        assert limits.shape == (5, 1)
        for t in range(5):
            grams = _precoder_grams(*(_trial(m, t) for m in (ch, prec, filters)))
            assert limits[t, 0] == eve_rate_limit(grams, policy, cfg)


class TestBetaP:
    def test_zero_quantization_error(self):
        rng = np.random.default_rng(13)
        cfg = AntennaConfig(4, 2, 1, 2)
        ch, filters = _channels_and_filters(cfg, rng)
        prec_q = tx_precoders_quantized(filters.F, np.zeros((4, 2)), 0.0)
        policy = PowerPolicy(P=1e3, rho=0.5)
        grams = _precoder_grams(ch, prec_q, filters)
        assert beta_P(grams, policy, cfg) == pytest.approx(0.0, abs=1e-9)

    def test_nonnegative_sweep(self):
        for seed in range(50):
            cfg, ch, filters, _, prec_q = _random_trial(4000 + seed, nf=int(10 + seed % 30))
            policy = PowerPolicy(P=float(10 ** (1 + seed % 5)), rho=0.5)
            assert beta_P(_precoder_grams(ch, prec_q, filters), policy, cfg) >= -1e-12


class TestLogdetPerturbation:
    def test_zero_delta(self):
        lhs, upper, lower = logdet_perturbation_check(np.eye(3), np.zeros((3, 3)))
        assert lhs == upper == lower == 0.0

    def test_hand_case(self):
        lhs, upper, lower = logdet_perturbation_check(np.eye(2), np.eye(2))
        assert lhs == pytest.approx(2 * math.log(2), abs=1e-12)
        assert upper == pytest.approx(2.0, abs=1e-12)
        assert lower == pytest.approx(1.0, abs=1e-12)

    def test_sandwich_sweep(self):
        """Bounds hold with 1e-9 slack on 1000 random positive definite pairs."""
        rng = np.random.default_rng(14)
        for _ in range(1000):
            n = int(rng.integers(2, 5))
            m = random_gaussian_matrix(n, n, rng)
            a = hermitian_part(m @ m.conj().T) + np.eye(n)
            delta = hermitian_part(random_gaussian_matrix(n, n, rng))
            while np.linalg.eigvalsh(hermitian_part(a + delta))[0] <= 1e-8:
                delta = 0.5 * delta
            lhs, upper, lower = logdet_perturbation_check(a, delta)
            assert lower - 1e-9 <= lhs <= upper + 1e-9

    def test_stack_matches_per_matrix_calls(self):
        rng = np.random.default_rng(16)
        m = complex_gaussian(rng.standard_normal((4, 2, 2, 3, 3)))
        a = hermitian_part(m[:, 0] @ adjoint(m[:, 0])) + np.eye(3)
        delta = 0.1 * hermitian_part(m[:, 1])
        stacked = logdet_perturbation_check(a, delta)
        assert all(np.shape(x) == (4,) for x in stacked)
        for k in range(4):
            alone = logdet_perturbation_check(a[k], delta[k])
            np.testing.assert_allclose([x[k] for x in stacked], alone, rtol=1e-14, atol=1e-15)

    def test_stack_shape_mismatch_rejected(self):
        with pytest.raises(InvalidInputError):
            logdet_perturbation_check(np.stack([np.eye(2)] * 3), np.eye(2))


class TestVariationalObjective:
    def test_maximizer_attains_logdet(self):
        rng = np.random.default_rng(15)
        for _ in range(100):
            m = random_gaussian_matrix(3, 3, rng)
            e = hermitian_part(m @ m.conj().T) + np.eye(3)
            target = -logdet_pd(e) / LOG2_E
            assert logdet_variational_objective(np.linalg.inv(e), e) == pytest.approx(
                target, abs=1e-9
            )
            for _ in range(3):
                m2 = random_gaussian_matrix(3, 3, rng)
                s_other = hermitian_part(m2 @ m2.conj().T) + np.eye(3)
                assert logdet_variational_objective(s_other, e) < target

    def test_stack_matches_per_matrix_calls(self):
        """S and E stacks broadcast; each element is the 2-D call's value."""
        rng = np.random.default_rng(44)
        m = complex_gaussian(rng.standard_normal((4, 3, 2, 3, 3)))
        pd = hermitian_part(m @ adjoint(m)) + np.eye(3)
        s_stack, e = pd[:, 1:], pd[:, :1]
        stacked = logdet_variational_objective(s_stack, e)
        assert stacked.shape == (4, 2)
        for k, j in np.ndindex(4, 2):
            assert stacked[k, j] == logdet_variational_objective(s_stack[k, j], e[k, 0])


class TestSdofFit:
    """The high-SNR slope fit of rate against log2(P) behind the SDoF estimates."""

    SNRS = np.array([10.0, 20.0, 30.0, 40.0, 50.0])

    def _rates(self, fn):
        return np.array([fn(snr * math.log2(10.0) / 10.0) for snr in self.SNRS])

    def test_exact_line(self):
        slope = fit_slope(self.SNRS, self._rates(lambda x: 2.0 * x + 3.0), window=(10.0, 50.0))
        assert slope == pytest.approx(2.0, abs=1e-12)

    def test_constant(self):
        slope = fit_slope(self.SNRS, self._rates(lambda x: 4.5), window=(10.0, 50.0))
        assert slope == pytest.approx(0.0, abs=1e-12)

    def test_default_window_is_top_20db(self):
        # flat below 30 dB: only the points at 30, 40 and 50 dB lie on a slope-1 line
        rates = self._rates(lambda x: 1.0 * x)
        rates[:2] = 0.0
        assert fit_slope(self.SNRS, rates) == pytest.approx(1.0, abs=1e-12)

    def test_default_window_widens_to_sweep(self):
        snrs = np.array([0.0, 15.0, 30.0, 45.0, 60.0])
        # the bump is orthogonal to every line over the five points, so only a fit
        # over the whole sweep has slope 1
        rates = snrs * (math.log2(10.0) / 10.0) + 0.1 * np.array([2.0, -1.0, -2.0, -1.0, 2.0])
        assert fit_slope(snrs, rates) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize(
        "snr_db, rates",
        [(SNRS, SNRS[:4]), (SNRS[np.newaxis], SNRS[np.newaxis])],
        ids=["unequal", "2-D"],
    )
    def test_shape_rejected(self, snr_db, rates):
        with pytest.raises(InvalidInputError, match="1-D arrays of equal length"):
            fit_slope(snr_db, rates)

    def test_too_few_points(self):
        with pytest.raises(InvalidInputError):
            fit_slope(self.SNRS, self._rates(lambda x: x), window=(45.0, 50.0))
