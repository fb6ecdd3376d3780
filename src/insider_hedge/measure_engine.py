"""The payoff-tilted density D of each conditional draw, sorted for the solvers.

For each conditional draw of W_T, D combines the payoff H = (S_T - K)^+,
the risk-neutral density Z_T, the signal density p_T^G and the insider
measure density dQ_G/dP = Z_T / p_T^G:

    D = dQ*/dP = H / E_QG[H] * dQ_G/dP.

E_QG[H] equals the plain Black-Scholes price (the insider measure agrees
with the risk-neutral one on F_T), so the normalizer is closed form and
adds no Monte Carlo noise.  D is the single quantity the threshold
solvers consume: success probabilities are plain means of 1{D <= k} and
capital fractions are means of D * 1{D <= k}.  So build_batch returns
only the solvers' sorted view of D (np_solver.SortedD), which carries
the normalizer; the draws of W_T are dropped once D is computed.

Every out-of-the-money draw (H = 0) has D = 0, an atom of mass
P_G(S_T <= K) that lies in every success set.  D is therefore computed
on the in-the-money draws only, and the sorted view counts the zeros
instead of storing them.

Point samples of W_T come out ascending (see draw_point), so their
in-the-money draws are a suffix found by one searchsorted, and their D
is usually sorted already.  Interval samples depend on two draws each;
their in-the-money draws are gathered by index.
"""
from __future__ import annotations

import numpy as np

from .insider_signal import (
    IntervalIndicator,
    PointValue,
    SignalDraws,
    SignalSpec,
    density_indicator,
    density_point,
    sample_indicator_conditional,
    sample_point_conditional,
)
from .model_core import (
    ModelParams,
    bs_call_price,
    brownian_from_price,
    price_from_brownian,
    rn_density,
)
from .np_solver import SortedD

__all__ = [
    "qg_density_point",
    "qg_density_indicator",
    "build_batch",
]


def qg_density_point(w_t, g_w, p: ModelParams):
    """dQ_G/dP at the horizon for the point signal, closed form:

        sqrt(d/(T+d)) * exp(-theta*W_T - theta^2 T/2
                            + (g - W_T)^2/(2d) - g^2/(2(T+d)))

    Algebraically identical to rn_density / density_point.
    """
    th = p.theta
    t, d, td = p.t_expiry, p.delta, p.t_signal
    return np.sqrt(d / td) * np.exp(
        -th * w_t - 0.5 * th * th * t + (g_w - w_t) ** 2 / (2.0 * d) - g_w * g_w / (2.0 * td)
    )


def qg_density_indicator(w_t, spec: IntervalIndicator, p: ModelParams):
    """dQ_G/dP at the horizon for the indicator signal: Z_T / p_T^G."""
    return rn_density(w_t, p) / density_indicator(spec.observed, w_t, p.t_expiry, spec, p)


def _itm_payoff(w_t, p: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """H = S_T - K and W_T on the draws with H > 0, gathered by index."""
    h = price_from_brownian(w_t, p.t_expiry, p)
    h -= p.strike
    itm = np.flatnonzero(h > 0.0)
    # the full-sample payoff goes before W_T is gathered, which keeps peak RSS down
    h = h[itm]
    return h, w_t[itm]


# relative gap below the strike at which the payoff of an ascending W_T is first
# evaluated: far wider than the rounding of price_from_brownian and
# brownian_from_price, so every draw below it has S_T < K in floating point too
_STRIKE_GAP = 1e-9


def _itm_payoff_ascending(w_t, p: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """_itm_payoff for an ascending W_T, whose in-the-money draws are a suffix.

    The payoff is evaluated only from just below the strike's Brownian
    level on (on all draws at strike 0, whose level is -inf).  The draws
    with H > 0 are the same as _itm_payoff's, element for element, for
    any W_T: draws below the window that are not all below that level
    (W_T not ascending), or a window that is not a suffix of H > 0, go
    to _itm_payoff.
    """
    if p.strike > 0.0:
        w_lo = brownian_from_price(p.strike * (1.0 - _STRIKE_GAP), p.t_expiry, p)
        start = int(np.searchsorted(w_t, w_lo))
        if start and w_t[:start].max() >= w_lo:
            return _itm_payoff(w_t, p)
        w_t = w_t[start:]
    h = price_from_brownian(w_t, p.t_expiry, p)
    h -= p.strike
    first = h.size - int(np.count_nonzero(h > 0.0))
    if not (h[first:] > 0.0).all():
        return _itm_payoff(w_t, p)
    # slice only past draws out of the money, so that h usually stays the owner of a
    # D-sized buffer, which SortedD then keeps without a copy
    return (h[first:], w_t[first:]) if first else (h, w_t)


def _itm_d(signal: SignalSpec, w_t, p: ModelParams, e_qg_h: float) -> np.ndarray:
    """D on the draws with H > 0, in draw order; the one definition of D.

    D = H * (Z_T / p_T^G) / E_QG[H] in that operation order, elementwise,
    so each value equals the one the full-sample formula gives; every
    other draw has D = 0 exactly.  A point sample's W_T is ascending, so
    its in-the-money draws are a suffix; an interval sample's are
    gathered by index.  Only D-sized arrays stay alive once they are
    found, which keeps peak RSS down.
    """
    if isinstance(signal, PointValue):
        h, w_t = _itm_payoff_ascending(w_t, p)
        # p_T^G overflows to inf only at a far-out level (S = 1e6 in the default market,
        # where the exact D is below 1e-300); D then comes out 0, an expected result
        with np.errstate(over="ignore"):
            p_g = density_point(signal.g_w, w_t, p.t_expiry, p)
    else:
        h, w_t = _itm_payoff(w_t, p)
        p_g = density_indicator(signal.observed, w_t, p.t_expiry, spec=signal, p=p)
    qg = rn_density(w_t, p)
    qg /= p_g
    h *= qg
    h /= e_qg_h
    return h


def build_batch(signal: SignalSpec, draws: SignalDraws, p: ModelParams) -> SortedD:
    """Map the draws to conditional samples for the signal and sort their densities D.

    `draws` come from draw_point for a PointValue signal, whose mode
    they carry, and from draw_interval for an IntervalIndicator; draws
    of the other kind raise ValueError.  The draws are only read, so one
    set can serve many signals.  Point draws are sorted, so a point
    signal's W_T is ascending: its in-the-money draws are read as a
    suffix, and its D usually needs no sort.
    """
    n = draws.z.size
    if isinstance(signal, PointValue):
        w_t = sample_point_conditional(signal.g_w, draws, p)
    elif isinstance(signal, IntervalIndicator):
        w_t = sample_indicator_conditional(signal, draws, p).w_t
    else:
        raise TypeError(f"unsupported signal {signal!r}")
    # a caller that kept no reference (the one-signal case) frees the draws here,
    # before D is computed, and W_T goes before D is sorted: both keep peak RSS down
    del draws
    e_qg_h = bs_call_price(p)
    d = _itm_d(signal, w_t, p, e_qg_h)
    del w_t
    return SortedD.from_sample(d, e_qg_h, n)
