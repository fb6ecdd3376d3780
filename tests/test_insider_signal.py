import dataclasses
import math

import mpmath
import numpy as np
import pytest
from scipy import stats

from insider_hedge.insider_signal import (
    ConditioningMode,
    IntervalIndicator,
    PointValue,
    SignalDraws,
    _normal_mass,
    density_indicator,
    draw_interval,
    draw_point,
    indicator_prob,
    interval_signal_from_prices,
    point_map,
    point_signal_from_price,
    sample_indicator_conditional,
)
from insider_hedge.model_core import ModelParams, rn_density
from insider_hedge.rng import (
    BLOCK_SIZE,
    STREAM_INTERVAL_BRIDGE,
    STREAM_INTERVAL_SIGNAL,
    STREAM_POINT,
    standard_normal_stream,
    uniform_stream,
)

G_110 = 0.328590719217  # Brownian value of stock level 110 at T + delta

# frozen from a 40-digit evaluation of the CDF-ratio at t = T for the
# W-image of the stock interval [109, 111]
P1_AT_ZERO = 0.317354709181
P0_AT_ZERO = 1.03269555238


def interval_draws(n, seed) -> SignalDraws:
    """The n interval draws of the seed whole, read-only, from rng's whole streams: 1 - u
    of the uniform stream and the bridge normals, the reference for draw_interval's
    blocks."""
    u = 1.0 - uniform_stream((seed, STREAM_INTERVAL_SIGNAL), n)
    z = standard_normal_stream((seed, STREAM_INTERVAL_BRIDGE), n)
    u.flags.writeable = z.flags.writeable = False
    return SignalDraws(z, u)


def density_point_at(g, w_t, t, p):
    """The paper's p_t^g of the point signal at 0 <= t <= T, a reference for the package's
    horizon densities:

        sqrt((T+d)/r) * exp(-(g - W_t)^2/(2r) + g^2/(2(T+d))),  r = d + (T - t),

    where the remaining variance r is delta exactly at t = T."""
    rem, td = p.delta + (p.t_expiry - t), p.t_signal
    return np.sqrt(td / rem) * np.exp(-((g - w_t) ** 2) / (2.0 * rem) + g * g / (2.0 * td))


def sample_point_conditional(signal, draws, p):
    """W_T given W_{T+delta} = signal.g_w under signal.mode, one per normal in draws.z:
    the reference for the point blocks of build_batch, which never form W_T.

    W_T = c + s*z with point_map's (c, s).  s >= 0 and rounding is monotone, so
    draw_point's ascending normals give W_T in nondecreasing order in either mode."""
    c, s = point_map(signal, p)
    w_t = draws.z * s
    w_t += c
    return w_t


def density_indicator_at(w_t, t, spec, p):
    """The paper's p_t^G of the indicator signal at 0 <= t <= T, a reference for
    density_indicator: P(G = spec.observed | W_t) / P(G = spec.observed) from the
    package's tail-safe normal masses, with remaining variance delta + (T - t)."""
    rem_sd = math.sqrt(p.delta + (p.t_expiry - t))
    num = _normal_mass((spec.a_w - w_t) / rem_sd, (spec.b_w - w_t) / rem_sd, spec.observed)
    return num / indicator_prob(spec, p)


def qg_density_indicator(w_t, spec, p):
    """dQ_G/dP = Z_T / p_T^G at the horizon for the indicator signal, a reference for
    the interval D of build_batch, composed from the package's rn_density and
    density_indicator."""
    return rn_density(w_t, p) / density_indicator(w_t, spec, p, indicator_prob(spec, p))


class TestSignalSpecs:
    def test_point_conversion(self, params):
        sig = point_signal_from_price(110.0, params)
        assert isinstance(sig, PointValue)
        assert sig.g_w == pytest.approx(G_110, abs=1e-9)

    def test_interval_conversion_and_prob(self, params):
        sig = interval_signal_from_prices(109.0, 111.0, params)
        assert sig.a_w == pytest.approx(0.292060785, abs=1e-6)
        assert sig.b_w == pytest.approx(0.364790061, abs=1e-6)
        assert indicator_prob(sig, params) == pytest.approx(0.0457062569, abs=1e-8)
        flipped = interval_signal_from_prices(109.0, 111.0, params, observed=0)
        assert indicator_prob(flipped, params) == pytest.approx(1.0 - 0.0457062569, abs=1e-8)

    def test_invalid_specs(self, params):
        with pytest.raises(ValueError):
            IntervalIndicator(0.3, 0.3)
        with pytest.raises(ValueError):
            IntervalIndicator(0.5, 0.3)
        with pytest.raises(ValueError):
            IntervalIndicator(0.1, 0.3, observed=2)
        with pytest.raises(ValueError):
            PointValue(math.nan)
        with pytest.raises(ValueError):
            point_signal_from_price(-5.0, params)


class TestDensityPoint:
    def test_time_zero_is_one(self, params):
        for z in (-1.0, 0.0, 0.7, 3.0):
            assert density_point_at(z, 0.0, 0.0, params) == pytest.approx(1.0, abs=1e-15)

    def test_value_at_horizon(self, params):
        # sqrt((T+d)/d) = sqrt(13.5) when z = w = 0
        got = density_point_at(0.0, 0.0, params.t_expiry, params)
        assert got == pytest.approx(3.67423461417, abs=1e-5)

    def test_unit_mean_over_brownian_marginal(self, params):
        # E_P[p_t^z(W_t)] = 1 for every fixed z and t <= T; the
        # integrand is bounded in L2 here so the 4-SE band applies
        rng = np.random.default_rng(21)
        for t in (0.05, 0.1, 0.15, 0.25):
            w = rng.normal(0.0, math.sqrt(t), 1_000_000)
            vals = density_point_at(0.3, w, t, params)
            se = vals.std(ddof=1) / 1000.0
            assert abs(vals.mean() - 1.0) <= 4.0 * se, f"t={t}"

    def test_bayes_identity_against_conditional_density(self, params):
        # phi(w; 0, T) * p_T^z(w) equals the N(zT/(T+d), Td/(T+d)) density
        t, td = params.t_expiry, params.t_signal
        z = 0.4
        w = np.linspace(-1.5, 1.5, 41)
        lhs = (np.exp(-(w**2) / (2 * t)) / math.sqrt(2 * math.pi * t)
               * density_point_at(z, w, t, params))
        m, v = z * t / td, t * params.delta / td
        rhs = np.exp(-((w - m) ** 2) / (2 * v)) / math.sqrt(2 * math.pi * v)
        assert np.allclose(lhs, rhs, rtol=1e-12)


class TestDensityIndicator:
    def test_time_zero_is_one(self, params):
        sig = interval_signal_from_prices(109.0, 111.0, params)
        for observed in (1, 0):
            spec = dataclasses.replace(sig, observed=observed)
            assert density_indicator_at(0.0, 0.0, spec, params) == pytest.approx(1.0, abs=1e-15)

    def test_total_probability_identity(self, params):
        sig = interval_signal_from_prices(109.0, 111.0, params)
        zero = dataclasses.replace(sig, observed=0)
        p1 = indicator_prob(sig, params)
        rng = np.random.default_rng(3)
        cases = [(0.1, 0.2)] + [(rng.uniform(0, params.t_expiry), rng.normal(0, 0.5))
                                for _ in range(50)]
        for t, w in cases:
            total = (p1 * density_indicator_at(w, t, sig, params)
                     + (1.0 - p1) * density_indicator_at(w, t, zero, params))
            assert abs(total - 1.0) <= 1e-12
        for w in np.linspace(-1.0, 1.0, 21):
            total = (p1 * density_indicator(w, sig, params, p1)
                     + (1.0 - p1) * density_indicator(w, zero, params,
                                                      indicator_prob(zero, params)))
            assert abs(total - 1.0) <= 1e-12

    def test_reference_at_horizon_is_the_package_density(self, params):
        # at t = T the remaining variance delta + (T - T) is delta itself
        w = np.random.default_rng(4).normal(0.3, 0.2, 1000)
        for lo, hi in ((109.0, 111.0), (112.0, 114.0)):
            for observed in (1, 0):
                sig = interval_signal_from_prices(lo, hi, params, observed=observed)
                assert np.array_equal(density_indicator(w, sig, params,
                                                        indicator_prob(sig, params)),
                                      density_indicator_at(w, params.t_expiry, sig, params))

    def test_frozen_values_at_horizon(self, params):
        sig = interval_signal_from_prices(109.0, 111.0, params)
        zero = dataclasses.replace(sig, observed=0)
        got1 = density_indicator(0.0, sig, params, indicator_prob(sig, params))
        got0 = density_indicator(0.0, zero, params, indicator_prob(zero, params))
        assert got1 > 0.0
        assert got1 == pytest.approx(P1_AT_ZERO, abs=1e-6)
        assert got0 == pytest.approx(P0_AT_ZERO, abs=1e-6)

    def test_wide_interval_is_unit(self, params):
        sig = IntervalIndicator(-50.0, 50.0, observed=1)
        for w in (-0.5, 0.0, 1.0):
            assert density_indicator_at(w, 0.2, sig, params) == pytest.approx(1.0, abs=1e-12)
            got = density_indicator(w, sig, params, indicator_prob(sig, params))
            assert got == pytest.approx(1.0, abs=1e-12)

    def test_tail_masses_against_high_precision(self, params):
        # far-out normal masses where 1 - Phi or Phi(b) - Phi(a) would cancel in
        # doubles; 200 working digits keep over 40 correct digits in the plain
        # differences down to 1e-119
        mpf, ncdf = mpmath.mpf, mpmath.ncdf

        def mass(lo, hi, observed):
            inside = ncdf(hi) - ncdf(lo)
            return inside if observed == 1 else 1 - inside

        def prob(sig, p):
            sd = mpmath.sqrt(mpf(p.t_signal))
            return mass(mpf(sig.a_w) / sd, mpf(sig.b_w) / sd, sig.observed)

        def density(w, t, sig, p):
            # remaining variance delta + (T - t), in exact arithmetic
            rem = mpmath.sqrt(mpf(p.delta) + (mpf(p.t_expiry) - mpf(t)))
            a, b = mpf(sig.a_w), mpf(sig.b_w)
            return mass((a - w) / rem, (b - w) / rem, sig.observed) / prob(sig, p)

        narrow = IntervalIndicator(3.0, 3.01)
        table_sig = interval_signal_from_prices(109.0, 111.0, params)
        wide_zero = IntervalIndicator(-5.0, 5.0, observed=0)
        # delta far below the float spacing of T, so that T + delta rounds to T
        tiny = dataclasses.replace(params, delta=1e-20)
        assert tiny.t_signal == tiny.t_expiry
        tiny_sig = interval_signal_from_prices(109.0, 111.0, tiny)
        near_edge = tiny_sig.a_w + 1e-10
        with mpmath.workdps(200):
            cases = [
                (indicator_prob(narrow, params), prob(narrow, params)),
                (density_indicator(-3.0, table_sig, params, indicator_prob(table_sig, params)),
                 density(mpf(-3.0), params.t_expiry, table_sig, params)),
                (density_indicator_at(0.0, 0.2, wide_zero, params),
                 density(mpf(0.0), 0.2, wide_zero, params)),
                (density_indicator(near_edge, tiny_sig, tiny, indicator_prob(tiny_sig, tiny)),
                 density(mpf(near_edge), tiny.t_expiry, tiny_sig, tiny)),
            ]
            errors = [float(abs(got - want) / want) for got, want in cases]
        assert all(e <= 1e-12 for e in errors), errors
        qg = qg_density_indicator(near_edge, tiny_sig, tiny)
        assert math.isfinite(qg) and qg > 0.0


class TestPointSampler:
    def test_bridge_moments(self, params):
        n = 400_000
        sig = PointValue(G_110, ConditioningMode.BRIDGE_EXACT)
        w = sample_point_conditional(sig, draw_point(n, seed=4), params)
        mean, var = 0.304250665942, 0.0185185185185
        assert abs(w.mean() - mean) <= 4.0 * math.sqrt(var / n)
        assert abs(w.var(ddof=1) - var) <= 4.0 * var * math.sqrt(2.0 / n)

    def test_shift_moments(self, params):
        n = 400_000
        sig = PointValue(G_110, ConditioningMode.PAPER_SHIFT)
        w = sample_point_conditional(sig, draw_point(n, seed=4), params)
        assert abs(w.mean() - G_110) <= 4.0 * math.sqrt(params.delta / n)
        assert abs(w.var(ddof=1) - params.delta) <= 4.0 * params.delta * math.sqrt(2.0 / n)

    def test_small_delta_pins_both_modes(self):
        p = ModelParams(mu=0.08, sigma=0.25, s0=100.0, strike=110.0,
                        t_expiry=0.25, delta=1e-12)
        for mode in ConditioningMode:
            w = sample_point_conditional(PointValue(0.7, mode), draw_point(5_000, seed=1), p)
            assert np.max(np.abs(w - 0.7)) <= 1e-4

    def test_deterministic_across_reruns(self, params):
        for mode in ConditioningMode:
            sig = PointValue(G_110, mode)
            a = sample_point_conditional(sig, draw_point(150_000, seed=8), params)
            b = sample_point_conditional(sig, draw_point(150_000, seed=8), params)
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("n", [1, 2, 5000])
    @pytest.mark.parametrize("strike", [0.0, 100000.0])
    @pytest.mark.parametrize("level", [105.0, 115.0])
    def test_w_t_is_ascending(self, params, level, strike, n):
        # sorted normals: both modes map them by an increasing affine map
        p = dataclasses.replace(params, strike=strike)
        for mode in ConditioningMode:
            sig = point_signal_from_price(level, p, mode)
            w = sample_point_conditional(sig, draw_point(n, seed=6), p)
            assert w.size == n and np.all(w[1:] >= w[:-1])

    @pytest.mark.parametrize("n", [1, 2**16 - 1, 2**16 + 1, 3 * 2**16 + 7])
    @pytest.mark.parametrize("strike", [0.0, 110.0, 1e5])
    def test_shift_is_g_plus_sorted_normals(self, params, strike, n):
        # g - N(0, delta) in law, taken bit for bit as g + sqrt(delta) * the sorted stream
        p = dataclasses.replace(params, strike=strike)
        g_w, seed = G_110, 17
        sig = PointValue(g_w, ConditioningMode.PAPER_SHIFT)
        w = sample_point_conditional(sig, draw_point(n, seed), p)
        stream = np.sort(standard_normal_stream((seed, STREAM_POINT), n))
        assert np.array_equal(w, g_w + math.sqrt(p.delta) * stream)


class TestIndicatorSampler:
    def test_truncated_law_and_bridge_moments(self, params):
        # W_{T+d} against its truncated normal law (KS), its support, and the
        # bridge residual W_T - W_{T+d} T/(T+d) ~ N(0, T d/(T+d)) at 4 SE
        td = params.t_signal
        sd = math.sqrt(td)
        var = params.t_expiry * params.delta / td
        cases = [
            (interval_signal_from_prices(109.0, 111.0, params), 6),
            (interval_signal_from_prices(109.0, 111.0, params, observed=0), 7),
            # upper tail, P(G) about 1e-4
            (IntervalIndicator(3.7 * sd, 4.5 * sd), 8),
            # far tails: P(G = 1) about 1e-12, and P(G = 0) about 3e-12
            (IntervalIndicator(7.0 * sd, 7.5 * sd), 10),
            (IntervalIndicator(-7.0 * sd, 7.0 * sd, observed=0), 11),
            # below zero: inverted without reflection
            (IntervalIndicator(-0.4, -0.1), 9),
        ]
        n = 100_000
        for sig, seed in cases:
            lo, hi = sig.a_w / sd, sig.b_w / sd
            prob = indicator_prob(sig, params)
            if sig.observed == 1:
                law = stats.truncnorm(lo, hi).cdf
            else:
                # CDF of N(0, 1) restricted to the complement of [lo, hi]
                def law(x, lo=lo, hi=hi, prob=prob):
                    below = stats.norm.cdf(np.minimum(x, lo))
                    above = np.maximum(stats.norm.sf(hi) - stats.norm.sf(x), 0.0)
                    return (below + above) / prob

            pair = sample_indicator_conditional(sig, interval_draws(n, seed), params, prob)
            assert len(pair.w_t) == n
            inside = (pair.w_tdelta >= sig.a_w) & (pair.w_tdelta <= sig.b_w)
            assert np.all(inside) if sig.observed == 1 else not np.any(inside)
            assert stats.kstest(pair.w_tdelta / sd, law).pvalue > 1e-3, sig
            resid = pair.w_t - pair.w_tdelta * params.t_expiry / td
            assert abs(resid.mean()) <= 4.0 * math.sqrt(var / n), sig
            assert abs(resid.var(ddof=1) - var) <= 4.0 * var * math.sqrt(2.0 / n), sig

    def test_observed_zero_keeps_complement(self, params):
        sig = interval_signal_from_prices(109.0, 111.0, params, observed=0)
        pair = sample_indicator_conditional(sig, interval_draws(50_000, seed=2), params,
                                            indicator_prob(sig, params))
        assert np.all((pair.w_tdelta < sig.a_w) | (pair.w_tdelta > sig.b_w))

    def test_sure_event_recovers_unconditional_law(self, params):
        sig = IntervalIndicator(-60.0, 60.0, observed=1)
        n = 300_000
        pair = sample_indicator_conditional(sig, interval_draws(n, seed=12), params,
                                            indicator_prob(sig, params))
        td = params.t_signal
        assert abs(pair.w_tdelta.var(ddof=1) - td) <= 4.0 * td * math.sqrt(2.0 / n)

    def test_rare_event_sampled_and_null_event_refused(self, params):
        # any P(G = observed) > 0 is sampled, however small; a mass of 0 is refused
        rare = IntervalIndicator(5.0, 5.01, observed=1)
        mass = indicator_prob(rare, params)
        assert 0.0 < mass < 1e-4
        pair = sample_indicator_conditional(rare, interval_draws(100, seed=1), params, mass)
        assert np.all(np.isfinite(pair.w_t))
        assert np.all((pair.w_tdelta >= rare.a_w) & (pair.w_tdelta <= rare.b_w))
        for null in (IntervalIndicator(50.0, 51.0), IntervalIndicator(-50.0, 50.0, observed=0)):
            with pytest.raises(ValueError, match=r"P\(G=\d\) = 0 .* probability 0"):
                indicator_prob(null, params)

    def test_deterministic_across_reruns(self, params):
        sig = interval_signal_from_prices(109.0, 111.0, params)
        mass = indicator_prob(sig, params)
        a = sample_indicator_conditional(sig, interval_draws(150_000, seed=5), params, mass)
        b = sample_indicator_conditional(sig, interval_draws(150_000, seed=5), params, mass)
        assert np.array_equal(a.w_t, b.w_t)
        assert np.array_equal(a.w_tdelta, b.w_tdelta)


class TestDraws:
    def test_stream_keys(self):
        # a seeded hedge draws the same streams as before sampling was split; point
        # draws hold the point stream sorted, interval draws hold theirs in stream order
        n, seed = 70_000, 13
        assert np.array_equal(draw_point(n, seed).z,
                              np.sort(standard_normal_stream((seed, STREAM_POINT), n)))
        whole = interval_draws(n, seed)
        lo = 0
        for block in draw_interval(n, seed):
            assert block.z.size == block.u.size == min(BLOCK_SIZE, n - lo)
            assert np.array_equal(block.z, whole.z[lo:lo + block.z.size])
            assert np.array_equal(block.u, whole.u[lo:lo + block.u.size])
            lo += block.z.size
        assert lo == n

    def test_interval_blocks_reuse_two_read_only_buffers(self):
        blocks = draw_interval(3 * BLOCK_SIZE, seed=13)
        first = next(blocks)
        z0, u0 = first.z.copy(), first.u.copy()
        second = next(blocks)
        for old, new in zip(first, second):
            assert np.shares_memory(old, new) and not new.flags.writeable
        assert not np.array_equal(second.z, z0) and not np.array_equal(second.u, u0)
        assert not np.shares_memory(second.z, second.u)

    def test_samplers_leave_shared_draws_unchanged(self, params):
        point = draw_point(5_000, seed=3)
        interval = next(draw_interval(5_000, seed=3))
        before = [a.copy() for a in (point.z, interval.z, interval.u)]
        for mode in ConditioningMode:
            sample_point_conditional(PointValue(G_110, mode), point, params)
        for observed in (1, 0):
            sig = interval_signal_from_prices(109.0, 111.0, params, observed=observed)
            sample_indicator_conditional(sig, interval, params, indicator_prob(sig, params))
        after = (point.z, interval.z, interval.u)
        assert all(np.array_equal(a, b) for a, b in zip(before, after))
        assert not any(a.flags.writeable for a in after)

    def test_mismatched_draws_fail_by_name(self, params):
        # build_interval_batches refuses point draws (test_measure_engine)
        sig = interval_signal_from_prices(109.0, 111.0, params)
        with pytest.raises(ValueError, match="needs draw_interval draws"):
            sample_indicator_conditional(sig, draw_point(100, seed=1), params,
                                         indicator_prob(sig, params))
