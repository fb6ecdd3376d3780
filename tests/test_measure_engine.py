import math

import numpy as np
import pytest

from insider_hedge import (
    ConditioningMode,
    IntervalIndicator,
    bs_call_price,
    build_batch,
    density_point,
    interval_signal_from_prices,
    payoff_call,
    point_signal_from_price,
    price_from_brownian,
    qg_density_indicator,
    qg_density_point,
    rn_density,
)

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


def capped_se(d: np.ndarray, cap: float = 10.0) -> float:
    y = np.minimum(d, cap)
    return y.std(ddof=1) / math.sqrt(len(y))


def assert_sorted_view_of(batch) -> None:
    """The batch's sorted view, padded with its implicit zeros, is the full
    sorted sample of D with its prefix sums of D and D^2, bit for bit."""
    view = batch.sorted_d
    assert view.n == batch.w_t.size
    zeros = np.zeros(view.n - view.d.size)
    full = np.sort(batch.d_star)
    assert np.array_equal(np.concatenate([zeros, view.d]), full)
    assert np.array_equal(np.concatenate([zeros, view.prefix]), np.cumsum(full))
    assert np.array_equal(np.concatenate([zeros, view.prefix_sq]), np.cumsum(full * full))


class TestPayoff:
    @pytest.mark.parametrize("s,k,expected", [(100.0, 110.0, 0.0), (110.0, 110.0, 0.0),
                                              (125.3, 110.0, 15.3)])
    def test_call(self, s, k, expected):
        assert payoff_call(s, k) == pytest.approx(expected, abs=1e-12)


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
    def batch(self, request, params):
        sig = point_signal_from_price(110.0, params)
        return build_batch(sig, ConditioningMode(request.param), 200_000, params, seed=42)

    def test_per_sample_identities(self, batch, params):
        assert np.array_equal(batch.qg_density, batch.z_f / batch.p_g)
        expected_d = np.where(batch.h > 0.0, batch.h * batch.qg_density / batch.e_qg_h, 0.0)
        assert np.array_equal(batch.d_star, expected_d)
        assert np.array_equal(batch.s_t, price_from_brownian(batch.w_t, params.t_expiry, params))
        assert np.all(batch.d_star >= 0.0)
        assert np.array_equal(batch.d_star == 0.0, batch.h == 0.0)
        assert_sorted_view_of(batch)

    def test_normalizer_is_closed_form(self, batch, params):
        assert batch.e_qg_h == bs_call_price(params)

    def test_capped_unit_mass_against_quadrature(self, batch, params):
        key = ("point", batch.mode.value, 110.0)
        target = CAPPED_TARGETS[key]
        got = np.minimum(batch.d_star, 10.0).mean()
        assert abs(got - target) <= 4.0 * capped_se(batch.d_star) + 1e-6

    def test_zero_atom_matches_conditional_otm_probability(self, batch, params):
        frac = np.mean(batch.d_star == 0.0)
        assert frac == np.mean(batch.s_t <= params.strike)
        # independent draw of the same conditional law, different seed
        sig = point_signal_from_price(110.0, params)
        other = build_batch(sig, batch.mode, 200_000, params, seed=43)
        other_frac = np.mean(other.s_t <= params.strike)
        se = 2.0 * math.sqrt(0.25 / 200_000)
        assert abs(frac - other_frac) <= 4.0 * se

    def test_single_sample_deterministic(self, params):
        sig = point_signal_from_price(110.0, params)
        one = build_batch(sig, "bridge_exact", 1, params, seed=11)
        two = build_batch(sig, "bridge_exact", 1, params, seed=11)
        for name in ("w_t", "s_t", "h", "z_f", "p_g", "qg_density", "d_star"):
            assert np.array_equal(getattr(one, name), getattr(two, name)), name


class TestBuildBatchIndicator:
    @pytest.fixture(params=[1, 0])
    def batch(self, request, params):
        sig = interval_signal_from_prices(109.0, 111.0, params, observed=request.param)
        return build_batch(sig, None, 200_000, params, seed=42)

    def test_per_sample_identities(self, batch):
        assert np.array_equal(batch.qg_density, batch.z_f / batch.p_g)
        expected_d = np.where(batch.h > 0.0, batch.h * batch.qg_density / batch.e_qg_h, 0.0)
        assert np.array_equal(batch.d_star, expected_d)
        assert_sorted_view_of(batch)

    def test_capped_unit_mass_against_quadrature(self, batch):
        target = CAPPED_TARGETS[("interval", batch.signal.observed)]
        got = np.minimum(batch.d_star, 10.0).mean()
        assert abs(got - target) <= 4.0 * capped_se(batch.d_star) + 1e-6

    def test_worker_invariance(self, batch, params):
        again = build_batch(batch.signal, None, 200_000, params, seed=42, workers=4)
        assert np.array_equal(batch.d_star, again.d_star)


class TestBatchValidation:
    def test_rejects_bad_n(self, params):
        sig = point_signal_from_price(110.0, params)
        with pytest.raises(ValueError):
            build_batch(sig, "bridge_exact", 0, params, seed=1)

    def test_rejects_unknown_signal(self, params):
        with pytest.raises(TypeError):
            build_batch("not a signal", None, 10, params, seed=1)
