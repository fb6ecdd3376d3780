import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import ndtr

from insider_hedge.model_core import (
    ModelParams,
    brownian_from_price,
    bs_call_price,
    price_from_brownian,
    rn_density,
)

# frozen from a 30-digit erfc evaluation (mpmath)
PHI_TABLE = [
    (-5.0, 2.8665157187919391e-7),
    (-2.0, 0.022750131948179207),
    (-1.0, 0.15865525393145705),
    (-0.7, 0.24196365222307303),
    (-0.5, 0.3085375387259869),
    (0.3, 0.61791142218895264),
    (1.7, 0.95543453724145696),
    (3.2, 0.99931286206208415),
    (4.5, 0.99999660232687527),
]

# frozen from a 40-digit closed-form evaluation
BS_CALL_REF = 1.68092773478


class TestNormalCdf:
    """scipy's ndtr is the normal CDF behind the call price and the interval masses."""

    def test_zero_is_half(self):
        assert ndtr(0.0) == 0.5

    @pytest.mark.parametrize("x,expected", PHI_TABLE)
    def test_high_precision_values(self, x, expected):
        assert abs(ndtr(x) - expected) <= 1e-12

    @pytest.mark.parametrize("x", [0.3, 1.1, 2.5])
    def test_symmetry(self, x):
        assert abs(ndtr(x) - (1.0 - ndtr(-x))) <= 1e-12

    def test_monotone_and_symmetric_on_grid(self):
        x = np.linspace(-8.0, 8.0, 1000)
        phi = ndtr(x)
        assert np.all(np.diff(phi) >= 0.0)
        assert np.all(np.abs(phi + ndtr(-x) - 1.0) <= 1e-12)
        assert np.all((phi > 0.0) & (phi < 1.0))


class TestPriceTransforms:
    def test_initial_condition(self, params):
        assert price_from_brownian(0.0, 0.0, params) == params.s0

    def test_level_110_at_signal_time(self, params):
        # (ln(110/100) - (0.08 - 0.03125) * 0.27) / 0.25
        w = brownian_from_price(110.0, params.t_signal, params)
        assert abs(w - 0.328590719217) <= 1e-5

    @pytest.mark.parametrize("w", [-1.0, 0.0, 2.0])
    def test_round_trip(self, w, params):
        for t in (0.0, 0.25, 0.27):
            back = brownian_from_price(price_from_brownian(w, t, params), t, params)
            assert back == pytest.approx(w, rel=1e-12, abs=1e-12)

    def test_array_peaks_at_one_result(self, params):
        # exp runs in place in the result, so no second block-sized array is made
        w = np.linspace(-3.0, 3.0, 1 << 16)
        drift = (params.mu - 0.5 * params.sigma**2) * params.t_expiry
        # a first call leaves whatever numpy allocates once out of the count
        price_from_brownian(w, params.t_expiry, params)
        tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            s = price_from_brownian(w, params.t_expiry, params)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not tracing:
                tracemalloc.stop()
        assert s.nbytes <= peak < 2 * s.nbytes
        assert np.array_equal(s, np.exp(w * params.sigma + drift) * params.s0)


class TestRnDensity:
    def test_at_horizon(self, params):
        # exp(-theta^2 T / 2) with theta = 0.32
        assert abs(rn_density(0.0, params) - 0.98728157159) <= 1e-6

    def test_positive(self, params):
        w = np.linspace(-20, 20, 1001)
        assert np.all(rn_density(w, params) > 0.0)

    def test_unit_mean_mc(self, params):
        # E_P[Z_T] = 1; Z has finite variance so the 4-SE band is valid
        rng = np.random.default_rng(123)
        w = rng.normal(0.0, math.sqrt(params.t_expiry), 1_000_000)
        z = rn_density(w, params)
        se = z.std(ddof=1) / 1000.0
        assert abs(z.mean() - 1.0) <= 4.0 * se


class TestCallPrice:
    def test_reference_value(self, params):
        assert abs(bs_call_price(params) - BS_CALL_REF) <= 1e-9
        assert abs(bs_call_price(params) - 1.6817) <= 1e-3

    def test_zero_strike_gives_spot(self, params):
        assert bs_call_price(replace(params, strike=0.0)) == params.s0

    def test_monotonicity_grids(self, params):
        spots = [80.0, 90.0, 100.0, 110.0, 130.0]
        prices = [bs_call_price(replace(params, s0=s)) for s in spots]
        assert prices == sorted(prices)
        vols = [0.05, 0.15, 0.25, 0.4, 0.8]
        prices = [bs_call_price(replace(params, sigma=v)) for v in vols]
        assert prices == sorted(prices)
        strikes = [60.0, 90.0, 110.0, 140.0]
        prices = [bs_call_price(replace(params, strike=k)) for k in strikes]
        assert prices == sorted(prices, reverse=True)

    def test_against_tilted_mc(self, params):
        # (1/n) sum (S_T - K)^+ Z_T over physical draws estimates the price
        rng = np.random.default_rng(7)
        w = rng.normal(0.0, math.sqrt(params.t_expiry), 1_000_000)
        payoff = np.maximum(price_from_brownian(w, params.t_expiry, params) - params.strike, 0.0)
        est = payoff * rn_density(w, params)
        se = est.std(ddof=1) / 1000.0
        assert abs(est.mean() - bs_call_price(params)) <= 4.0 * se


class TestModelParams:
    @pytest.mark.parametrize("field,value", [
        ("sigma", 0.0), ("sigma", -0.1), ("s0", 0.0), ("strike", -1.0),
        ("t_expiry", 0.0), ("delta", 0.0), ("mu", math.inf),
    ])
    def test_invalid_rejected(self, field, value, params):
        kwargs = dict(mu=params.mu, sigma=params.sigma, s0=params.s0,
                      strike=params.strike, t_expiry=params.t_expiry, delta=params.delta)
        kwargs[field] = value
        with pytest.raises(ValueError):
            ModelParams(**kwargs)

    def test_theta(self, params):
        assert params.theta == pytest.approx(0.32)
        assert params.t_signal == pytest.approx(0.27)
