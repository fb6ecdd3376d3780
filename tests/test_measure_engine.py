import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from insider_hedge import insider_signal, measure_engine
from insider_hedge.insider_signal import (
    ConditioningMode,
    IntervalIndicator,
    SignalDraws,
    density_indicator,
    draw_interval,
    draw_point,
    indicator_prob,
    interval_signal_from_prices,
    point_signal_from_price,
    sample_indicator_conditional,
)
from insider_hedge.measure_engine import build_batch
from insider_hedge.model_core import (
    ModelParams,
    brownian_from_price,
    bs_call_price,
    price_from_brownian,
    rn_density,
)
from insider_hedge.np_solver import _STRIDE
from insider_hedge.rng import BLOCK_SIZE
from test_insider_signal import density_point_at, qg_density_indicator, sample_point_conditional

G_110 = 0.328590719217

# capped conditional means E[min(D, 10) | G], frozen from dense-grid
# quadrature of the conditional laws (4e6 points, truncation < 1e-12).
# D itself has infinite variance under these laws, so the plain sample
# mean admits no valid standard-error band; min(D, 10) does.
CAPPED_TARGETS = {
    ("point", "bridge_exact", 110.0): 0.364299,
    ("point", "paper_shift", 110.0): 0.552892,
    ("interval", 1): 0.368306,
    ("interval", 0): 0.985354,
}


def seeded_draws(signal, n, seed):
    """The draws the hedge command makes for the signal."""
    if isinstance(signal, IntervalIndicator):
        return draw_interval(n, seed)
    return draw_point(n, seed)


def seeded_batch(signal, n, p, seed):
    """build_batch on draws from `seed`, made as the hedge command makes them."""
    return build_batch(signal, seeded_draws(signal, n, seed), p)


def qg_density_point(w_t, g_w, p):
    """dQ_G/dP = Z_T / p_T^g at the horizon for the point signal, as one exponent, a
    reference for the package's point D: rn_density / p_T^g with its square completed,

        sqrt(d/(T+d)) * exp((W_T - g - theta*d)^2/(2d) - theta*g - theta^2 (T+d)/2
                            - g^2/(2(T+d))),

    since Z_T and the paper's p_T^g can each overflow where their ratio does not."""
    th, d, td = p.theta, p.delta, p.t_signal
    x = w_t - (g_w + th * d)
    x = x * x / (2.0 * d) + (-th * g_w - 0.5 * th * th * td - g_w * g_w / (2.0 * td))
    return np.exp(x) * math.sqrt(d / td)


def composed_point_d(signal, draws, p) -> np.ndarray:
    """Point D of every draw, zeros included, in draw order, composed from W_T: the
    sampler's W_T, price_from_brownian's S_T and the reference qg_density_point."""
    w_t = sample_point_conditional(signal, draws, p)
    h = np.maximum(price_from_brownian(w_t, p.t_expiry, p) - p.strike, 0.0)
    itm = h > 0.0
    d = np.zeros(h.size)
    d[itm] = h[itm] * qg_density_point(w_t[itm], signal.g_w, p) / bs_call_price(p)
    return d


def independent_d(signal, draws, p) -> np.ndarray:
    """D of every draw, zeros included, in draw order: H * dQ_G/dP / E_QG[H] where
    H > 0, else 0.  For a point signal S_T and dQ_G/dP / E_QG[H] are the two exponents
    of the normals whose constants measure_engine folds (s0 and 1/E_QG[H] included),
    evaluated on the whole sample at once; for an interval signal dQ_G/dP is
    Z_T / p_T^G from the public model and signal functions."""
    if isinstance(signal, IntervalIndicator):
        mass = indicator_prob(signal, p)
        w_t = sample_indicator_conditional(signal, draws, p, mass).w_t
        p_g = density_indicator(w_t, signal, p, mass)
        h = np.maximum(price_from_brownian(w_t, p.t_expiry, p) - p.strike, 0.0)
    else:
        # the folded constant is +inf, not ln 0, where E_QG[H] is 0
        ex = measure_engine._point_exponents(signal, p, bs_call_price(p))
        h = np.maximum(np.exp(draws.z * ex.a + ex.b) - p.strike, 0.0)
    # out of the money, D = 0 without dividing: E_QG[H] itself is 0 for a far strike
    itm = h > 0.0
    d = np.zeros(h.size)
    if isinstance(signal, IntervalIndicator):
        d[itm] = h[itm] * (rn_density(w_t[itm], p) / p_g[itm]) / bs_call_price(p)
    else:
        d[itm] = h[itm] * np.exp((draws.z[itm] * ex.u - ex.v) ** 2 + ex.r)
    return d


def full_sample(view) -> np.ndarray:
    """The sorted sample of D the view stands for: its n - len(d) zeros, then d."""
    return np.concatenate([np.zeros(view.n - view.d.size), view.d])


def capped_se(d: np.ndarray, cap: float = 10.0) -> float:
    y = np.minimum(d, cap)
    return y.std(ddof=1) / math.sqrt(len(y))


def reference_sums(d, probes) -> list[tuple[float, float]]:
    """Sums of D and D^2 through d[i], for each i in probes, as SortedD defines them on
    its sorted positive D: a Python loop walks d stride by stride, sums each stride and
    its squares with np.sum and carries the marks in Python floats; d[i] adds the np.sum
    of its stride through d[i] to the mark before it."""
    d = np.asarray(d, dtype=float)
    marks, total, total_sq = [], 0.0, 0.0
    for start in range(0, d.size, _STRIDE):
        marks.append((total, total_sq))
        stride = d[start:start + _STRIDE]
        total += float(np.sum(stride))
        total_sq += float(np.sum(stride * stride))
    out = []
    for i in probes:
        seg = d[i - i % _STRIDE:i + 1]
        total, total_sq = marks[i // _STRIDE]
        out.append((total + float(np.sum(seg)), total_sq + float(np.sum(seg * seg))))
    return out


def assert_sorted_view_of(view, d: np.ndarray) -> None:
    """The view, padded with its implicit zeros, is the sorted sample d, and its
    sums of D and D^2 on either side of every mark and through the last value are
    reference_sums of the positive part of the full sorted sample, bit for bit."""
    assert view.n == d.size
    zeros = view.n - view.d.size
    full = np.sort(d)
    assert np.array_equal(np.concatenate([np.zeros(zeros), view.d]), full)
    probes = {i for j in range(view.marks.shape[0]) for i in (j * _STRIDE - 1, j * _STRIDE)}
    probes = sorted(i for i in probes | {view.d.size - 1} if 0 <= i < view.d.size)
    assert [view.sums(i) for i in probes] == reference_sums(full[zeros:], probes)


def assert_same_view(a, b) -> None:
    assert (a.n, a.e_qg_h) == (b.n, b.e_qg_h)
    for name in ("d", "marks"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


class TestQgDensityPoint:
    def test_frozen_value(self, params):
        # sqrt(0.02/0.27) * exp(-0.0128)
        assert qg_density_point(0.0, 0.0, params) == pytest.approx(0.268704009205, abs=1e-5)

    def test_matches_density_ratio(self, params):
        rng = np.random.default_rng(17)
        w = rng.normal(0.0, 0.5, 1000)
        g = rng.normal(0.0, 0.5, 1000)
        closed = qg_density_point(w, g, params)
        ratio = rn_density(w, params) / density_point_at(g, w, params.t_expiry, params)
        assert np.allclose(closed, ratio, rtol=1e-10)

    def test_positive(self, params):
        # pairs drawn from the joint law of (W_T, W_{T+delta})
        rng = np.random.default_rng(18)
        w = rng.normal(0.0, math.sqrt(params.t_expiry), 10_000)
        g = w + rng.normal(0.0, math.sqrt(params.delta), 10_000)
        vals = qg_density_point(w, g, params)
        assert np.all(vals > 0.0) and np.all(np.isfinite(vals))


class TestQgDensityIndicator:
    def test_wide_interval_reduces_to_rn_density(self, params):
        sig = IntervalIndicator(-50.0, 50.0, observed=1)
        w = np.linspace(-2.0, 2.0, 101)
        assert np.allclose(qg_density_indicator(w, sig, params), rn_density(w, params),
                           rtol=1e-12)

    def test_positive(self, params):
        sig = interval_signal_from_prices(109.0, 111.0, params)
        rng = np.random.default_rng(19)
        w = rng.normal(0.3, 0.2, 10_000)
        vals = qg_density_indicator(w, sig, params)
        assert np.all(vals > 0.0) and np.all(np.isfinite(vals))


def rounding_bound(sig, draws, p):
    """S_T of the composition and of the folded form, each draw's bound on
    |D_fused - D_old| / D_old, and the bound on S_T's relative rounding.

    Each form rounds the exponent of S_T and of dQ_G/dP to a few ulps of the terms
    summed in it, and exp turns an absolute error in an exponent into the same
    relative error.  Bound the terms of S_T's exponent by s_terms and those of
    dQ_G/dP's by q_terms, whose square term carries the rounding of W_T - g - theta*d
    (or of g + theta*d - c) divided by d; 2^-44 leaves a factor of 64 over 16 ulps.
    H = S_T - K multiplies S_T's relative error by S_T/H: the cancellation of a
    draw just in the money, alike in both forms."""
    g, z = sig.g_w, draws.z
    c, s = insider_signal.point_map(sig, p)
    old_s = price_from_brownian(sample_point_conditional(sig, draws, p), p.t_expiry, p)
    ex = measure_engine._point_exponents(sig, p, bs_call_price(p))
    new_s = np.exp(z * ex.a + ex.b)
    span = abs(c) + s * np.abs(z)
    s_terms = 1.0 + p.sigma * span + abs(p.mu - 0.5 * p.sigma**2) * p.t_expiry
    q_terms = (1.0 + (span + abs(g) + abs(p.theta) * p.delta) ** 2 / p.delta
               + abs(p.theta * g) + p.theta**2 * p.t_signal + g * g / p.t_signal
               + abs(math.log(p.delta / p.t_signal)))
    rel = 2.0**-44 * (old_s / (old_s - p.strike) * s_terms + q_terms)
    return old_s, new_s, rel, 2.0**-44 * s_terms


LOG_MAX = math.log(np.finfo(float).max)


def hand_made_point_draws(sig, p, peak: bool, fan: bool) -> SignalDraws:
    """Ascending normals: with `peak` 61 evenly within 3 of the normal where dQ_G/dP
    peaks, and with `fan` the 20 either side of the strike's, 5e-9 apart, whose S_T are
    further from K than the rounding of either form."""
    z = []
    if peak:
        ex = measure_engine._point_exponents(sig, p, 1.0)
        z.append(ex.v / ex.u + np.linspace(-3.0, 3.0, 61))
    if fan:
        z.append(strike_normal(sig, p) + 5e-9 * np.r_[-20:0, 1:21])
    return SignalDraws(np.sort(np.concatenate(z)))


def assert_near_the_composition(sig, draws, p) -> None:
    """build_batch solves the draws, in order and shuffled alike, and each D is within
    rounding_bound of composed_point_d; the positive D lie far enough apart that both
    forms sort them alike."""
    view = build_batch(sig, draws, p)
    shuffled = np.random.default_rng(5).permutation(draws.z)
    assert_same_view(build_batch(sig, draws._replace(z=shuffled), p), view)
    old = composed_point_d(sig, draws, p)
    rel = rounding_bound(sig, draws, p)[2]
    pos = old > 0.0
    order = np.argsort(old[pos])
    old, rel = old[pos][order], rel[pos][order]
    assert np.all(np.diff(old) > 1e-9 * old[1:])
    assert view.n == draws.z.size and view.d.size == old.size
    assert np.all(np.isfinite(view.d))
    assert np.all(np.abs(view.d - old) <= rel * old)


class TestFusedPointD:
    """The package's point D, two exponents of the normals, against the composition it
    replaced: the sampler's W_T, price_from_brownian and the reference qg_density_point."""

    @pytest.mark.parametrize("market, level", [
        ({}, 105.0), ({}, 110.0), ({}, 115.0),
        ({"delta": 1e-5}, 110.0), ({"sigma": 0.6, "t_expiry": 1.0}, 110.0),
    ])
    @pytest.mark.parametrize("mode", list(ConditioningMode))
    def test_within_the_rounding_of_both_forms(self, params, mode, market, level):
        p = dataclasses.replace(params, **market)
        sig = point_signal_from_price(level, p, mode)
        draws = draw_point(200_000, seed=3)
        old_s, new_s, rel, s_rel = rounding_bound(sig, draws, p)
        old, new = composed_point_d(sig, draws, p), independent_d(sig, draws, p)
        both = (old_s > p.strike) & (new_s > p.strike)
        assert both.sum() > 10_000
        assert np.all(np.abs(new - old)[both] <= rel[both] * old[both])
        # a draw that only one form puts in the money has S_T within its rounding of K
        one = (old_s > p.strike) != (new_s > p.strike)
        assert np.all(np.abs(old_s - p.strike)[one] <= (s_rel * old_s)[one])
        assert np.all((old == 0.0) & (new == 0.0) | both | one)
        assert_sorted_view_of(build_batch(sig, draws, p), new)

    @pytest.mark.parametrize("mode", list(ConditioningMode))
    def test_exponent_above_the_float_range(self, params, mode):
        # s0 = 0.01, strike 1e-150 (E_QG[H] = 0.01) and a level tuned so that just in the
        # money the folded exponent of dQ_G/dP / E_QG[H] is ln(max float) + 1: exp
        # overflows there, while H < 1e-158 keeps D, and D^2, in the float range; the
        # exponent without -ln E_QG[H] stays below ln(max float)
        p = dataclasses.replace(params, s0=0.01, strike=1e-150)
        sig = point_signal_from_price(4.6353373e-119, p, mode)
        draws = hand_made_point_draws(sig, p, peak=False, fan=True)
        ex = measure_engine._point_exponents(sig, p, bs_call_price(p))
        h = np.exp(draws.z * ex.a + ex.b) - p.strike
        x = (draws.z * ex.u - ex.v) ** 2 + ex.r
        itm = h > 0.0
        assert itm.sum() == 20 and np.all(x[itm] > LOG_MAX) and np.all(h[itm] < 1e-158)
        assert np.all(x[itm] + math.log(bs_call_price(p)) < LOG_MAX)
        assert_near_the_composition(sig, draws, p)

    @pytest.mark.parametrize("mode", list(ConditioningMode))
    def test_call_price_near_underflow(self, params, mode):
        # strike 10700, E_QG[H] = 1.3e-305: the fold adds -ln E_QG[H] = 702 to r, which
        # takes the exponent of these draws from about -680, near the bottom of the normal
        # range, to about 20
        p = dataclasses.replace(params, strike=10700.0)
        assert 0.0 < bs_call_price(p) < 1e-300
        sig = point_signal_from_price(1.2e4, p, mode)
        draws = hand_made_point_draws(sig, p, peak=True, fan=True)
        assert_near_the_composition(sig, draws, p)

    @pytest.mark.parametrize("mode", list(ConditioningMode))
    def test_folded_constant_below_the_float_range(self, params, mode):
        # s0 = strike = 1e20, E_QG[H] = 5.0e18, level 1.3e22: the fold takes
        # ln E_QG[H] = 43 from r and puts it below the normal range, where it was not, so
        # exp of the exponent alone would keep one bit of D or none
        p = dataclasses.replace(params, s0=1e20, strike=1e20)
        sig = point_signal_from_price(1.3e22, p, mode)
        draws = hand_made_point_draws(sig, p, peak=True, fan=False)
        r = measure_engine._point_exponents(sig, p, bs_call_price(p)).r
        assert r < measure_engine._LOG_TINY < r + math.log(bs_call_price(p))
        assert_near_the_composition(sig, draws, p)


def mpmath_point_d(signal, draws, p) -> list:
    """D of every draw in 50 digits, from W_T = c + s*z: H * Z_T / p_T^g / E_QG[H], with
    the paper's p_T^g and the Black-Scholes price in mpmath, none of them folded."""
    import mpmath

    with mpmath.workdps(50):
        mu, sig, s0, k = (mpmath.mpf(x) for x in (p.mu, p.sigma, p.s0, p.strike))
        t, d, g = mpmath.mpf(p.t_expiry), mpmath.mpf(p.delta), mpmath.mpf(signal.g_w)
        th, c, s = mu / sig, *(mpmath.mpf(x) for x in insider_signal.point_map(signal, p))
        d1 = (mpmath.log(s0 / k) + sig * sig * t / 2) / (sig * mpmath.sqrt(t))
        e_qg_h = s0 * mpmath.ncdf(d1) - k * mpmath.ncdf(d1 - sig * mpmath.sqrt(t))
        out = []
        for z in draws.z:
            w = c + s * mpmath.mpf(z)
            h = s0 * mpmath.exp(sig * w + (mu - sig * sig / 2) * t) - k
            p_g = mpmath.sqrt((t + d) / d) * mpmath.exp(-(g - w) ** 2 / (2 * d)
                                                         + g * g / (2 * (t + d)))
            out.append(max(h, 0) * mpmath.exp(-th * w - th * th * t / 2) / p_g / e_qg_h)
        return out


class TestPointDNearCallPriceUnderflow:
    """At strike 1e4 and level 1.5e4, E_QG[H] = 6.8e-297 and dQ_G/dP alone underflows on
    most paper_shift draws, while every D is a normal float in [1e-25, 1e-22]."""

    def test_d_keeps_its_bits_and_the_plan_its_target(self, params):
        from insider_hedge.np_solver import make_hedge_plan

        p = dataclasses.replace(params, strike=1e4)
        sig = point_signal_from_price(1.5e4, p, ConditioningMode.PAPER_SHIFT)
        draws = draw_point(2000, 0)
        view = build_batch(sig, draws, p)
        ref = np.sort(np.array(mpmath_point_d(sig, draws, p), dtype=float))
        assert ref.min() > 1e-26 and view.d.size == 2000
        np.testing.assert_allclose(view.d, ref, rtol=1e-9, atol=0.0)
        plan = make_hedge_plan(view, epsilon=0.1)
        assert plan.success_prob == pytest.approx(0.9) and plan.atom_gap == ""


class TestBuildBatchPoint:
    @pytest.fixture(params=["bridge_exact", "paper_shift"])
    def mode(self, request):
        return ConditioningMode(request.param)

    @pytest.fixture()
    def signal(self, mode, params):
        return point_signal_from_price(110.0, params, mode)

    @pytest.fixture()
    def draws(self):
        return draw_point(200_000, seed=42)

    @pytest.fixture()
    def batch(self, signal, draws, params):
        return build_batch(signal, draws, params)

    def test_per_sample_identities(self, batch, signal, draws, params):
        d = independent_d(signal, draws, params)
        assert np.all(d >= 0.0)
        assert_sorted_view_of(batch, d)

    def test_normalizer_is_closed_form(self, batch, params):
        assert batch.e_qg_h == bs_call_price(params)

    def test_capped_unit_mass_against_quadrature(self, batch, mode):
        target = CAPPED_TARGETS[("point", mode.value, 110.0)]
        d = full_sample(batch)
        got = np.minimum(d, 10.0).mean()
        assert abs(got - target) <= 4.0 * capped_se(d) + 1e-6

    def test_zero_atom_matches_conditional_otm_probability(self, batch, signal, draws, params):
        frac = (batch.n - batch.d.size) / batch.n
        s_t = price_from_brownian(sample_point_conditional(signal, draws, params),
                                  params.t_expiry, params)
        assert frac == np.mean(s_t <= params.strike)
        # independent draw of the same conditional law, different seed
        other = seeded_batch(signal, 200_000, params, seed=43)
        other_frac = (other.n - other.d.size) / other.n
        se = 2.0 * math.sqrt(0.25 / 200_000)
        assert abs(frac - other_frac) <= 4.0 * se

    def test_single_sample_deterministic(self, params):
        sig = point_signal_from_price(110.0, params)
        one = seeded_batch(sig, 1, params, seed=11)
        two = seeded_batch(sig, 1, params, seed=11)
        assert_same_view(one, two)
        assert_sorted_view_of(one, independent_d(sig, draw_point(1, 11), params))


class TestSortedPointDraws:
    """Point W_T comes out ascending; the view must not depend on that shortcut."""

    @pytest.mark.parametrize("n", [1, 5000])
    @pytest.mark.parametrize("strike", [0.0, 110.0, 100000.0])
    @pytest.mark.parametrize("level", [105.0, 115.0])
    @pytest.mark.parametrize("mode", list(ConditioningMode))
    def test_view_matches_independent_d(self, params, mode, level, strike, n):
        p = dataclasses.replace(params, strike=strike)
        sig = point_signal_from_price(level, p, mode)
        draws = draw_point(n, seed=29)
        assert_sorted_view_of(build_batch(sig, draws, p), independent_d(sig, draws, p))

    def test_unsorted_hand_made_draws_give_the_same_view(self, params):
        # W_T out of order: the draws below the strike's window are checked, then gathered
        sig = point_signal_from_price(110.0, params)
        sorted_draws = draw_point(5000, seed=29)
        shuffled = np.random.default_rng(3).permutation(sorted_draws.z)
        for z in (shuffled, sorted_draws.z[::-1]):
            view = build_batch(sig, sorted_draws._replace(z=z), params)
            assert_same_view(view, build_batch(sig, sorted_draws, params))
            assert_sorted_view_of(view, independent_d(sig, sorted_draws, params))

    def test_payoff_out_of_order_falls_back_to_the_gather(self, params, monkeypatch):
        # should rounding ever break the payoff's order, the in-the-money draws are gathered:
        # here a payoff knocked out on a set of normals leaves holes in the suffix
        sig = point_signal_from_price(110.0, params)
        draws = draw_point(5000, seed=29)

        def knocked_out(z):
            return np.floor(z * 1e6) % 7 == 0

        def holed_payoff(z, ex, p, out):
            h = payoff(z, ex, p, out)
            h[knocked_out(z)] = -p.strike
            return h

        payoff = measure_engine._point_payoff
        monkeypatch.setattr(measure_engine, "_point_payoff", holed_payoff)
        d = independent_d(sig, draws, params)
        d[knocked_out(draws.z)] = 0.0
        assert_sorted_view_of(build_batch(sig, draws, params), d)

    def test_far_out_level_overflows_quietly_to_zero_d(self, params):
        # the exact D at S = 1e6 is below 1e-300: every D underflows to 0 and no warning escapes
        for mode in ConditioningMode:
            sig = point_signal_from_price(1e6, params, mode)
            view = build_batch(sig, draw_point(2000, seed=1), params)
            assert view.n == 2000 and view.d.size == 0


def strike_normal(sig, p) -> float:
    """The normal that puts a point signal's W_T on the strike's Brownian level in its mode."""
    w_k = brownian_from_price(p.strike, p.t_expiry, p)
    td = p.t_signal
    if sig.mode is ConditioningMode.BRIDGE_EXACT:
        return (w_k - sig.g_w * p.t_expiry / td) / math.sqrt(p.t_expiry * p.delta / td)
    return (w_k - sig.g_w) / math.sqrt(p.delta)


def strike_fan(z_strike: float) -> np.ndarray:
    """Ascending normals around z_strike: 64 ulps either side, then steps of 5e-9 out to
    1e-7, which passes the strike window's lower edge (about 3e-8 below in the
    default market)."""
    ulps = z_strike + np.arange(-64, 65) * np.spacing(z_strike)
    return np.unique(np.concatenate([ulps, z_strike + np.linspace(-1e-7, 1e-7, 41)]))


class TestPointPrune:
    """Only the slice of sorted normals that can reach the strike is sampled."""

    @pytest.mark.parametrize("mode", list(ConditioningMode))
    def test_hand_made_draws_at_the_strike(self, params, mode):
        # the normals that put W_T on the strike's Brownian level, as the sampler maps them
        sig = point_signal_from_price(110.0, params, mode)
        draws = SignalDraws(strike_fan(strike_normal(sig, params)))
        view = build_batch(sig, draws, params)
        assert 0 < view.d.size < view.n
        assert_sorted_view_of(view, independent_d(sig, draws, params))

    @pytest.mark.parametrize("mode", list(ConditioningMode))
    def test_unsorted_hand_made_draws_in_each_mode(self, params, mode):
        # normals out of order: the slice left out is checked, then every draw is gathered
        sig = point_signal_from_price(110.0, params, mode)
        sorted_draws = draw_point(5000, seed=29)
        shuffled = np.random.default_rng(4).permutation(sorted_draws.z)
        for z in (shuffled, sorted_draws.z[::-1]):
            draws = sorted_draws._replace(z=z)
            assert_sorted_view_of(build_batch(sig, draws, params),
                                  independent_d(sig, draws, params))


class TestIntervalPrune:
    """Only the interval draws that can reach the strike are sampled; the view must not show it."""

    @pytest.mark.parametrize("strike", [0.0, 1e-300, 110.0, 1e5])
    @pytest.mark.parametrize("prices", [(112.0, 114.0), (106.0, 108.0)])
    @pytest.mark.parametrize("observed", [1, 0])
    def test_view_matches_independent_d(self, params, observed, prices, strike):
        # one interval above the default strike of 110 and one below it
        p = dataclasses.replace(params, strike=strike)
        sig = interval_signal_from_prices(*prices, p, observed=observed)
        draws = draw_interval(20_000, seed=31)
        assert_sorted_view_of(build_batch(sig, draws, p), independent_d(sig, draws, p))

    @pytest.mark.parametrize("observed", [1, 0])
    def test_far_strike_samples_only_the_switch_bin(self, params, monkeypatch, observed):
        # no draw reaches S_T = 1e5: every draw is left out, bar the G = 0 draws in the
        # bin of u that holds the switch from below the interval to above it, which has
        # no bound; either signal first maps the bins' edges; the view is all zeros
        p = dataclasses.replace(params, strike=1e5)
        sig = interval_signal_from_prices(109.0, 111.0, p, observed=observed)
        draws = draw_interval(20_000, seed=31)
        bins = measure_engine._BINS
        zero = dataclasses.replace(sig, observed=0)
        switch = int(ndtr(sig.a_w / math.sqrt(p.t_signal)) / indicator_prob(zero, p) * bins)
        in_switch_bin = np.count_nonzero(np.floor(draws.u * bins) == switch)
        assert 0 < in_switch_bin < 20_000 / 100
        view, sampled = counted_build(sig, draws, p, monkeypatch)
        assert view.n == 20_000 and view.d.size == 0
        assert sampled[0] == bins + 1
        assert sum(sampled[1:]) == (0 if observed else in_switch_bin)

    @pytest.mark.parametrize("observed", [1, 0])
    def test_signal_probability_once_per_batch(self, params, monkeypatch, observed):
        # the sampler and the density of every block take P(G = observed) from build_batch
        calls = []

        def counted(spec, p):
            calls.append(spec)
            return prob(spec, p)

        prob = insider_signal.indicator_prob
        for module in (insider_signal, measure_engine):
            monkeypatch.setattr(module, "indicator_prob", counted)
        sig = interval_signal_from_prices(109.0, 111.0, params, observed=observed)
        view = build_batch(sig, draw_interval(3 * BLOCK_SIZE + 7, seed=3), params)
        assert view.d.size and calls == [sig]

    @pytest.mark.parametrize("observed", [1, 0])
    def test_maps_few_more_draws_than_finish_in_the_money(self, params, monkeypatch, observed):
        # the per-bin bound: the bins' edges, the G = 0 switch bin and the bins' slack
        # beyond the draws in the money (a bound per branch mapped about twice as many
        # for G = 0, and one cut at b about 1.24 times as many for G = 1)
        sig = interval_signal_from_prices(109.0, 111.0, params, observed=observed)
        n = 2**18
        view, sampled = counted_build(sig, draw_interval(n, seed=0), params, monkeypatch)
        assert 0 < view.d.size < sum(sampled) <= 1.1 * view.d.size + n / 64

    @settings(max_examples=100, deadline=None)
    # P(G = observed) is 0 in float for these two
    @example(0.001, 0.001, 110.0, 0, 1, 0.08, 0.25, 100.0, 0.25, 0.02)
    @example(1e-9, 1e9, 110.0, 0, 0, 0.08, 0.25, 100.0, 0.25, 0.02)
    @given(st.floats(min_value=1.0, max_value=2000.0), st.floats(min_value=0.001, max_value=300.0),
           st.one_of(st.sampled_from([0.0, 1e-300, 1e5]),
                     st.floats(min_value=60.0, max_value=160.0)),
           st.integers(min_value=0, max_value=2**32 - 1), st.sampled_from([0, 1]),
           st.floats(min_value=-0.5, max_value=0.5), st.floats(min_value=0.05, max_value=1.0),
           st.floats(min_value=50.0, max_value=200.0), st.floats(min_value=0.01, max_value=2.0),
           st.one_of(st.sampled_from([5e-324, 1e-12]), st.floats(min_value=1e-4, max_value=0.5)))
    def test_random_intervals_strikes_and_seeds(self, lo, width, strike, seed, observed, mu,
                                                sigma, s0, t_expiry, delta):
        p = ModelParams(mu=mu, sigma=sigma, s0=s0, strike=strike, t_expiry=t_expiry,
                        delta=delta)
        sig = interval_signal_from_prices(lo, lo + width, p, observed=observed)
        draws = draw_interval(500, seed)
        sd = math.sqrt(p.t_signal)
        if not insider_signal._normal_mass(sig.a_w / sd, sig.b_w / sd, observed) > 0.0:
            with pytest.raises(ValueError, match="probability 0"):
                build_batch(sig, draws, p)
            return
        assert_sorted_view_of(build_batch(sig, draws, p), independent_d(sig, draws, p))

    @pytest.mark.parametrize("observed, prices", [(1, (106.0, 108.0)), (1, (100.0, 104.0)),
                                                  (0, (106.0, 108.0)), (0, (100.0, 104.0))])
    def test_hand_made_draws_at_the_bound(self, params, observed, prices):
        # uniforms on every edge of the bins of u and one ulp either side, the smallest
        # uniform and, for G = 0, uniforms about Phi(lo) / mass, where G = 0 switches from
        # below the interval to above it; for each, normals about the one that puts W_T on
        # the strike's Brownian level from its W_{T+delta}
        sig = interval_signal_from_prices(*prices, params, observed=observed)
        edges = np.arange(1, measure_engine._BINS + 1) / measure_engine._BINS
        u = [edges, np.nextafter(edges, 0.0), np.nextafter(edges[:-1], 1.0), [2.0**-53]]
        if observed == 0:
            switch = float(ndtr(sig.a_w / math.sqrt(params.t_signal)) / indicator_prob(sig, params))
            u.append(switch + np.arange(-4, 5) * np.spacing(switch))
        u = np.concatenate(u)
        w_td = sample_indicator_conditional(sig, SignalDraws(np.zeros(u.size), u), params,
                                            indicator_prob(sig, params)).w_tdelta
        td = params.t_signal
        w_k = brownian_from_price(params.strike, params.t_expiry, params)
        z_k = (w_k - w_td * params.t_expiry / td) / math.sqrt(params.t_expiry * params.delta / td)
        fans = [strike_fan(z) for z in z_k]
        draws = SignalDraws(np.concatenate(fans), np.repeat(u, [f.size for f in fans]))
        view = build_batch(sig, draws, params)
        assert 0 < view.d.size < view.n
        assert_sorted_view_of(view, independent_d(sig, draws, params))


def counted_build(sig, draws, p, monkeypatch):
    """build_batch's view, and the number of draws of each sample_indicator_conditional call."""
    sampled = []

    def counted(*args, **kwargs):
        pair = sample(*args, **kwargs)
        sampled.append(pair.w_t.size)
        return pair

    sample = measure_engine.sample_indicator_conditional
    monkeypatch.setattr(measure_engine, "sample_indicator_conditional", counted)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        view = build_batch(sig, draws, p)
    monkeypatch.undo()
    return view, sampled


BLOCK_EDGE_SIZES = [BLOCK_SIZE - 1, BLOCK_SIZE, BLOCK_SIZE + 1, 3 * BLOCK_SIZE + 7]


class TestBlocks:
    """build_batch maps the draws in blocks of rng.BLOCK_SIZE; the view must not show where."""

    @pytest.mark.parametrize("n", BLOCK_EDGE_SIZES)
    @pytest.mark.parametrize("strike", [0.0, 110.0])
    @pytest.mark.parametrize("mode", list(ConditioningMode))
    def test_point_view_matches_independent_d(self, params, mode, strike, n):
        # at strike 0 every draw is mapped, at 110 the slice that can reach the strike
        p = dataclasses.replace(params, strike=strike)
        sig = point_signal_from_price(112.0, p, mode)
        draws = draw_point(n, seed=37)
        assert_sorted_view_of(build_batch(sig, draws, p), independent_d(sig, draws, p))

    @pytest.mark.parametrize("n", BLOCK_EDGE_SIZES)
    @pytest.mark.parametrize("strike", [0.0, 110.0])
    @pytest.mark.parametrize("observed", [1, 0])
    def test_interval_view_matches_independent_d(self, params, observed, strike, n):
        p = dataclasses.replace(params, strike=strike)
        sig = interval_signal_from_prices(109.0, 111.0, p, observed=observed)
        draws = draw_interval(n, seed=37)
        assert_sorted_view_of(build_batch(sig, draws, p), independent_d(sig, draws, p))

    @pytest.mark.parametrize("mode, far, blocks", [
        # bridge mode: the slice starts at the first block edge and runs to the end
        (ConditioningMode.BRIDGE_EXACT, BLOCK_SIZE, [BLOCK_SIZE, BLOCK_SIZE, 7]),
        # shift mode: the slice starts 7 past the first block edge and fills two blocks
        (ConditioningMode.PAPER_SHIFT, BLOCK_SIZE + 7, [BLOCK_SIZE, BLOCK_SIZE]),
    ])
    def test_point_slice_on_a_block_edge(self, params, monkeypatch, mode, far, blocks):
        # sorted hand-made normals: `far` of them well out of the money, the rest in it
        sig = point_signal_from_price(110.0, params, mode)
        z_k = strike_normal(sig, params)
        rng = np.random.default_rng(8)
        z = np.concatenate([z_k - (1.0 + rng.random(far)),
                            z_k + (1e-6 + rng.random(3 * BLOCK_SIZE + 7 - far))])
        draws = SignalDraws(np.sort(z))
        sampled = []

        def counted(z, ex, p, out):
            sampled.append(z.size)
            return payoff(z, ex, p, out)

        payoff = measure_engine._point_payoff
        monkeypatch.setattr(measure_engine, "_point_payoff", counted)
        view = build_batch(sig, draws, params)
        assert sampled == blocks
        assert view.d.size == sum(blocks)
        monkeypatch.undo()
        assert_sorted_view_of(view, independent_d(sig, draws, params))


class TestBlockMemory:
    """One build_batch holds no more than its view, one n-sized buffer and two blocks."""

    ALLOWANCE = 2 * BLOCK_SIZE * 8

    @pytest.mark.parametrize("kind", ["bridge_exact", "paper_shift", 0, 1])
    @pytest.mark.parametrize("strike", [0.0, 110.0])
    def test_peak_traced_memory(self, params, kind, strike):
        # at strike 0 every draw is in the money, which makes the largest view
        n = 4 * BLOCK_SIZE
        p = dataclasses.replace(params, strike=strike)
        if kind in (0, 1):
            sig = interval_signal_from_prices(112.0, 114.0, p, observed=kind)
            draws = draw_interval(n, seed=5)
        else:
            sig = point_signal_from_price(110.0, p, kind)
            draws = draw_point(n, seed=5)
        # a first call leaves whatever numpy and scipy allocate once out of the count
        build_batch(sig, draws, p)
        tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            view = build_batch(sig, draws, p)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak <= view.d.nbytes + view.marks.nbytes + 8 * n + self.ALLOWANCE


class TestBuildBatchIndicator:
    @pytest.fixture(params=[1, 0])
    def signal(self, request, params):
        return interval_signal_from_prices(109.0, 111.0, params, observed=request.param)

    @pytest.fixture()
    def draws(self):
        return draw_interval(200_000, seed=42)

    @pytest.fixture()
    def batch(self, signal, draws, params):
        return build_batch(signal, draws, params)

    def test_per_sample_identities(self, batch, signal, draws, params):
        assert_sorted_view_of(batch, independent_d(signal, draws, params))

    def test_capped_unit_mass_against_quadrature(self, batch, signal):
        target = CAPPED_TARGETS[("interval", signal.observed)]
        d = full_sample(batch)
        got = np.minimum(d, 10.0).mean()
        assert abs(got - target) <= 4.0 * capped_se(d) + 1e-6


class TestBatchValidation:
    def test_rejects_bad_n(self, params):
        sig = point_signal_from_price(110.0, params)
        with pytest.raises(ValueError):
            draw_point(0, seed=1)
        with pytest.raises(ValueError):
            draw_interval(0, seed=1)
        with pytest.raises(ValueError):
            build_batch(sig, SignalDraws(np.empty(0)), params)

    def test_rejects_unknown_signal(self, params):
        with pytest.raises(TypeError):
            seeded_batch("not a signal", 10, params, seed=1)

    def test_rejects_a_zero_call_price_with_draws_in_the_money(self, params):
        # at strike 1e5 the call price underflows to 0, and the level 1e6 puts every
        # draw in the money: D = H / E_QG[H] has no value, and no numpy warning escapes
        p = dataclasses.replace(params, strike=1e5)
        assert bs_call_price(p) == 0.0
        for mode in ConditioningMode:
            sig = point_signal_from_price(1e6, p, mode)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match="call price at strike 100000 is 0"):
                    build_batch(sig, draw_point(2000, seed=1), p)

    def test_rejects_mismatched_draws(self, params):
        point = point_signal_from_price(110.0, params)
        interval = interval_signal_from_prices(109.0, 111.0, params)
        # build_batch tells the draws' kind by their uniforms before any work, so the
        # refusal does not depend on the strike, which sets the draw-space cuts
        for strike in (110.0, 0.0):
            p = dataclasses.replace(params, strike=strike)
            with pytest.raises(ValueError, match="needs draw_interval draws"):
                build_batch(interval, draw_point(100, seed=1), p)
            with pytest.raises(ValueError, match="needs draw_point draws"):
                build_batch(point, draw_interval(100, seed=1), p)
