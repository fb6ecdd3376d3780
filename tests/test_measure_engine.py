import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from insider_hedge import (
    ConditioningMode,
    IntervalIndicator,
    ModelParams,
    SignalDraws,
    brownian_from_price,
    bs_call_price,
    build_batch,
    density_indicator,
    density_point,
    draw_interval,
    draw_point,
    indicator_prob,
    insider_signal,
    interval_signal_from_prices,
    measure_engine,
    point_signal_from_price,
    price_from_brownian,
    qg_density_indicator,
    qg_density_point,
    rn_density,
    sample_indicator_conditional,
    sample_point_conditional,
)
from insider_hedge.np_solver import _STRIDE
from insider_hedge.rng import BLOCK_SIZE

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


def seeded_draws(signal, mode, n, seed, workers=1):
    """The draws the hedge command makes for the signal; `mode` picks the point stream."""
    if isinstance(signal, IntervalIndicator):
        return draw_interval(n, seed, workers=workers)
    return draw_point(mode or ConditioningMode.BRIDGE_EXACT, n, seed, workers=workers)


def seeded_batch(signal, mode, n, p, seed, workers=1):
    """build_batch on draws from `seed`, made as the hedge command makes them."""
    return build_batch(signal, seeded_draws(signal, mode, n, seed, workers), p)


def independent_d(signal, draws, p) -> np.ndarray:
    """D of every draw, zeros included, in draw order, from the public model and
    signal functions: H * dQ_G/dP / E_QG[H] where H > 0, else 0, with dQ_G/dP
    from qg_density_point for a point signal and Z_T / p_T^G for an interval."""
    if isinstance(signal, IntervalIndicator):
        w_t = sample_indicator_conditional(signal, draws, p).w_t
        p_g = density_indicator(signal.observed, w_t, p.t_expiry, signal, p)
    else:
        w_t = sample_point_conditional(signal.g_w, draws, p)
    h = np.maximum(price_from_brownian(w_t, p.t_expiry, p) - p.strike, 0.0)
    # out of the money, D = 0 without dividing: E_QG[H] itself is 0 for a far strike
    itm = h > 0.0
    if isinstance(signal, IntervalIndicator):
        qg = rn_density(w_t[itm], p) / p_g[itm]
    else:
        qg = qg_density_point(w_t[itm], signal.g_w, p)
    d = np.zeros(h.size)
    d[itm] = h[itm] * qg / bs_call_price(p)
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
        ratio = rn_density(w, params) / density_point(g, w, params.t_expiry, params)
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


class TestBuildBatchPoint:
    @pytest.fixture(params=["bridge_exact", "paper_shift"])
    def mode(self, request):
        return ConditioningMode(request.param)

    @pytest.fixture()
    def draws(self, mode):
        return draw_point(mode, 200_000, seed=42)

    @pytest.fixture()
    def batch(self, draws, params):
        return build_batch(point_signal_from_price(110.0, params), draws, params)

    def test_per_sample_identities(self, batch, draws, params):
        d = independent_d(point_signal_from_price(110.0, params), draws, params)
        assert np.all(d >= 0.0)
        assert_sorted_view_of(batch, d)

    def test_normalizer_is_closed_form(self, batch, params):
        assert batch.e_qg_h == bs_call_price(params)

    def test_capped_unit_mass_against_quadrature(self, batch, mode):
        target = CAPPED_TARGETS[("point", mode.value, 110.0)]
        d = full_sample(batch)
        got = np.minimum(d, 10.0).mean()
        assert abs(got - target) <= 4.0 * capped_se(d) + 1e-6

    def test_zero_atom_matches_conditional_otm_probability(self, batch, draws, mode, params):
        sig = point_signal_from_price(110.0, params)
        frac = (batch.n - batch.d.size) / batch.n
        s_t = price_from_brownian(sample_point_conditional(sig.g_w, draws, params),
                                  params.t_expiry, params)
        assert frac == np.mean(s_t <= params.strike)
        # independent draw of the same conditional law, different seed
        other = seeded_batch(sig, mode, 200_000, params, seed=43)
        other_frac = (other.n - other.d.size) / other.n
        se = 2.0 * math.sqrt(0.25 / 200_000)
        assert abs(frac - other_frac) <= 4.0 * se

    def test_single_sample_deterministic(self, params):
        sig = point_signal_from_price(110.0, params)
        one = seeded_batch(sig, "bridge_exact", 1, params, seed=11)
        two = seeded_batch(sig, "bridge_exact", 1, params, seed=11)
        assert_same_view(one, two)
        assert_sorted_view_of(one, independent_d(sig, draw_point("bridge_exact", 1, 11), params))


class TestSortedPointDraws:
    """Point W_T comes out ascending; the view must not depend on that shortcut."""

    @pytest.mark.parametrize("n", [1, 5000])
    @pytest.mark.parametrize("strike", [0.0, 110.0, 100000.0])
    @pytest.mark.parametrize("level", [105.0, 115.0])
    @pytest.mark.parametrize("mode", list(ConditioningMode))
    def test_view_matches_independent_d(self, params, mode, level, strike, n):
        p = dataclasses.replace(params, strike=strike)
        sig = point_signal_from_price(level, p)
        draws = draw_point(mode, n, seed=29)
        assert_sorted_view_of(build_batch(sig, draws, p), independent_d(sig, draws, p))

    def test_unsorted_hand_made_draws_give_the_same_view(self, params):
        # W_T out of order: the draws below the strike's window are checked, then gathered
        sig = point_signal_from_price(110.0, params)
        sorted_draws = draw_point("bridge_exact", 5000, seed=29)
        shuffled = np.random.default_rng(3).permutation(sorted_draws.z)
        for z in (shuffled, sorted_draws.z[::-1]):
            view = build_batch(sig, sorted_draws._replace(z=z), params)
            assert_same_view(view, build_batch(sig, sorted_draws, params))
            assert_sorted_view_of(view, independent_d(sig, sorted_draws, params))

    def test_payoff_out_of_order_falls_back_to_the_gather(self, params, monkeypatch):
        # should rounding ever break the payoff's order, the in-the-money draws are gathered:
        # here a payoff knocked out on a set of W_T values leaves holes in the suffix
        sig = point_signal_from_price(110.0, params)
        draws = draw_point("bridge_exact", 5000, seed=29)

        def knocked_out(w):
            return np.floor(w * 1e6) % 7 == 0

        def holed_price(w, t, p, out=None):
            s = price_from_brownian(w, t, p, out=out)
            s[knocked_out(w)] = 0.0
            return s

        monkeypatch.setattr(measure_engine, "price_from_brownian", holed_price)
        d = independent_d(sig, draws, params)
        d[knocked_out(sample_point_conditional(sig.g_w, draws, params))] = 0.0
        assert_sorted_view_of(build_batch(sig, draws, params), d)

    def test_far_out_level_overflows_quietly_to_zero_d(self, params):
        # the exact D at S = 1e6 is below 1e-300: every D underflows to 0 and no warning escapes
        sig = point_signal_from_price(1e6, params)
        for mode in ConditioningMode:
            view = build_batch(sig, draw_point(mode, 2000, seed=1), params)
            assert view.n == 2000 and view.d.size == 0


def strike_normal(sig, mode, p) -> float:
    """The normal that puts a point signal's W_T on the strike's Brownian level in `mode`."""
    w_k = brownian_from_price(p.strike, p.t_expiry, p)
    td = p.t_signal
    if mode is ConditioningMode.BRIDGE_EXACT:
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
        sig = point_signal_from_price(110.0, params)
        draws = SignalDraws(strike_fan(strike_normal(sig, mode, params)), mode=mode)
        view = build_batch(sig, draws, params)
        assert 0 < view.d.size < view.n
        assert_sorted_view_of(view, independent_d(sig, draws, params))

    @pytest.mark.parametrize("mode", list(ConditioningMode))
    def test_unsorted_hand_made_draws_in_each_mode(self, params, mode):
        # normals out of order: the slice left out is checked, then every draw is gathered
        sig = point_signal_from_price(110.0, params)
        sorted_draws = draw_point(mode, 5000, seed=29)
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
    def test_far_strike_samples_no_draw_below_the_interval(self, params, monkeypatch, observed):
        # no draw reaches S_T = 1e5: every draw is left out, bar the G = 0 draws above
        # the interval, whose W_{T+delta} has no bound; the view is all zeros
        p = dataclasses.replace(params, strike=1e5)
        sig = interval_signal_from_prices(109.0, 111.0, p, observed=observed)
        draws = draw_interval(20_000, seed=31)
        above = np.count_nonzero(
            sample_indicator_conditional(sig, draws, p).w_tdelta > 0.5 * (sig.a_w + sig.b_w))
        sampled = []

        def counted(spec, d, q):
            sampled.append(d.z.size)
            return sample_indicator_conditional(spec, d, q)

        monkeypatch.setattr(measure_engine, "sample_indicator_conditional", counted)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            view = build_batch(sig, draws, p)
        assert view.n == 20_000 and view.d.size == 0
        assert sampled == [0 if observed else above]

    @settings(max_examples=100, deadline=None)
    # P(G = observed) is 0 in float for these two
    @example(0.001, 0.001, 110.0, 0, 1)
    @example(1e-9, 1e9, 110.0, 0, 0)
    @given(st.floats(min_value=1.0, max_value=2000.0), st.floats(min_value=0.001, max_value=300.0),
           st.one_of(st.sampled_from([0.0, 1e-300, 1e5]),
                     st.floats(min_value=60.0, max_value=160.0)),
           st.integers(min_value=0, max_value=2**32 - 1), st.sampled_from([0, 1]))
    def test_random_intervals_strikes_and_seeds(self, lo, width, strike, seed, observed):
        p = ModelParams(mu=0.08, sigma=0.25, s0=100.0, strike=strike, t_expiry=0.25, delta=0.02)
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
        # uniforms that give the largest W_{T+delta} the bound allows: the ends of (0, 1]
        # for G = 1, the uniforms about Phi(lo) / mass, last below the interval, for G = 0;
        # normals then put W_T on the strike's Brownian level from there
        sig = interval_signal_from_prices(*prices, params, observed=observed)
        if observed == 1:
            u = np.array([2.0**-53, 0.5, 1.0])
        else:
            sd = math.sqrt(params.t_signal)
            u = float(ndtr(sig.a_w / sd) / indicator_prob(sig, params))
            u = u + np.arange(-4, 5) * np.spacing(u)
        w_td = sample_indicator_conditional(sig, SignalDraws(np.zeros(u.size), u), params).w_tdelta
        below_b = w_td <= sig.b_w
        assert below_b.any() and (observed or not below_b.all())
        top = int(np.argmax(np.where(below_b, w_td, -np.inf)))
        td = params.t_signal
        w_k = brownian_from_price(params.strike, params.t_expiry, params)
        z_k = (w_k - w_td[top] * params.t_expiry / td) / math.sqrt(
            params.t_expiry * params.delta / td)
        z = strike_fan(z_k)
        # each normal with the top uniform, and with every other uniform of the fan
        draws = SignalDraws(np.repeat(z, u.size), np.tile(u, z.size))
        view = build_batch(sig, draws, params)
        assert 0 < view.d.size < view.n
        assert_sorted_view_of(view, independent_d(sig, draws, params))


BLOCK_EDGE_SIZES = [BLOCK_SIZE - 1, BLOCK_SIZE, BLOCK_SIZE + 1, 3 * BLOCK_SIZE + 7]


class TestBlocks:
    """build_batch maps the draws in blocks of rng.BLOCK_SIZE; the view must not show where."""

    @pytest.mark.parametrize("n", BLOCK_EDGE_SIZES)
    @pytest.mark.parametrize("strike", [0.0, 110.0])
    @pytest.mark.parametrize("mode", list(ConditioningMode))
    def test_point_view_matches_independent_d(self, params, mode, strike, n):
        # at strike 0 every draw is mapped, at 110 the slice that can reach the strike
        p = dataclasses.replace(params, strike=strike)
        sig = point_signal_from_price(112.0, p)
        draws = draw_point(mode, n, seed=37)
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
        sig = point_signal_from_price(110.0, params)
        z_k = strike_normal(sig, mode, params)
        rng = np.random.default_rng(8)
        z = np.concatenate([z_k - (1.0 + rng.random(far)),
                            z_k + (1e-6 + rng.random(3 * BLOCK_SIZE + 7 - far))])
        draws = SignalDraws(np.sort(z), mode=mode)
        sampled = []

        def counted(g_w, d, q, out=None):
            sampled.append(d.z.size)
            return sample_point_conditional(g_w, d, q, out=out)

        monkeypatch.setattr(measure_engine, "sample_point_conditional", counted)
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
            sig = point_signal_from_price(110.0, p)
            draws = draw_point(kind, n, seed=5)
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
        view_bytes = view.d.nbytes + view.marks.nbytes
        if kind in (0, 1):
            # an interval block holds up to seven blocks of temporaries, more than the
            # allowance, so interval batches keep the bound of a view of 24 bytes per value
            view_bytes = 3 * view.d.nbytes
        assert peak <= view_bytes + 8 * n + self.ALLOWANCE


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

    def test_worker_invariance(self, batch, signal, params):
        assert_same_view(batch, seeded_batch(signal, None, 200_000, params, seed=42, workers=4))


class TestBatchValidation:
    def test_rejects_bad_n(self, params):
        sig = point_signal_from_price(110.0, params)
        with pytest.raises(ValueError):
            draw_point("bridge_exact", 0, seed=1)
        with pytest.raises(ValueError):
            draw_interval(0, seed=1)
        with pytest.raises(ValueError):
            build_batch(sig, SignalDraws(np.empty(0), mode=ConditioningMode.BRIDGE_EXACT), params)

    def test_rejects_unknown_signal(self, params):
        with pytest.raises(TypeError):
            seeded_batch("not a signal", None, 10, params, seed=1)

    def test_rejects_a_zero_call_price_with_draws_in_the_money(self, params):
        # at strike 1e5 the call price underflows to 0, and the level 1e6 puts every
        # draw in the money: D = H / E_QG[H] has no value, and no numpy warning escapes
        p = dataclasses.replace(params, strike=1e5)
        assert bs_call_price(p) == 0.0
        sig = point_signal_from_price(1e6, p)
        for mode in ConditioningMode:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match="call price at strike 100000 is 0"):
                    build_batch(sig, draw_point(mode, 2000, seed=1), p)

    def test_rejects_mismatched_draws(self, params):
        point = point_signal_from_price(110.0, params)
        interval = interval_signal_from_prices(109.0, 111.0, params)
        with pytest.raises(ValueError, match="needs draw_interval draws"):
            build_batch(interval, draw_point("bridge_exact", 100, seed=1), params)
        # at strike 0 no draw-space cut runs, so the sampler itself refuses the draws
        for strike in (110.0, 0.0):
            p = dataclasses.replace(params, strike=strike)
            with pytest.raises(ValueError, match="needs draw_point draws"):
                build_batch(point, draw_interval(100, seed=1), p)
