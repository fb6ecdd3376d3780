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
from .model_core import ModelParams, bs_call_price, price_from_brownian, rn_density
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


def _itm_d(signal: SignalSpec, w_t, p: ModelParams, e_qg_h: float) -> np.ndarray:
    """D on the draws with H > 0, in draw order; the one definition of D.

    D = H * (Z_T / p_T^G) / E_QG[H] in that operation order, elementwise,
    so each value equals the one the full-sample formula gives; every
    other draw has D = 0 exactly.
    """
    h = price_from_brownian(w_t, p.t_expiry, p)
    h -= p.strike
    itm = np.flatnonzero(h > 0.0)
    h = h[itm]
    w_t = w_t[itm]
    # only D-sized arrays stay alive from here on, which keeps peak RSS down
    del itm
    if isinstance(signal, PointValue):
        p_g = density_point(signal.g_w, w_t, p.t_expiry, p)
    else:
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
    set can serve many signals.
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
