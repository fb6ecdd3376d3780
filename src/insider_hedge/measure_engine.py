"""Per-draw payoff and Radon-Nikodym densities for the hedging problem.

For each conditional draw of W_T the batch derives the payoff
H = (S_T - K)^+, the risk-neutral density Z_T, the signal density p_T^G,
the insider measure density dQ_G/dP = Z_T / p_T^G and the payoff-tilted
density

    D = dQ*/dP = H / E_QG[H] * dQ_G/dP.

E_QG[H] equals the plain Black-Scholes price (the insider measure agrees
with the risk-neutral one on F_T), so the normalizer is closed form and
adds no Monte Carlo noise.  D is the single quantity the threshold
solvers consume: success probabilities are plain means of 1{D <= k} and
capital fractions are means of D * 1{D <= k}.  So the batch stores only
W_T and the solvers' sorted view of D, and recomputes the rest from W_T.

Every out-of-the-money draw (H = 0) has D = 0, an atom of mass
P_G(S_T <= K) that lies in every success set.  D is therefore computed
on the in-the-money draws only, and the sorted view counts the zeros
instead of storing them.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .insider_signal import (
    ConditioningMode,
    IntervalIndicator,
    PointValue,
    SignalSpec,
    density_indicator,
    density_point,
    sample_indicator_conditional,
    sample_point_conditional,
)
from .model_core import ModelParams, bs_call_price, price_from_brownian, rn_density
from .np_solver import SortedD

__all__ = [
    "ConditionalBatch",
    "payoff_call",
    "qg_density_point",
    "qg_density_indicator",
    "build_batch",
]


def payoff_call(s_t, strike):
    """Vanilla call payoff (s - K)^+."""
    return np.maximum(s_t - strike, 0.0)


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


def _signal_density(signal: SignalSpec, w_t, p: ModelParams):
    """p_T^G at the draws of W_T for the observed signal."""
    if isinstance(signal, PointValue):
        return density_point(signal.g_w, w_t, p.t_expiry, p)
    return density_indicator(signal.observed, w_t, p.t_expiry, spec=signal, p=p)


def _columns(signal: SignalSpec, w_t, p: ModelParams) -> dict[str, np.ndarray]:
    """The per-draw columns other than D, from the draws of W_T."""
    p_g = _signal_density(signal, w_t, p)
    s_t = price_from_brownian(w_t, p.t_expiry, p)
    h = payoff_call(s_t, p.strike)
    z_f = rn_density(w_t, p)
    return dict(s_t=s_t, h=h, z_f=z_f, p_g=p_g, qg_density=z_f / p_g)


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
    p_g = _signal_density(signal, w_t, p)
    qg = rn_density(w_t, p)
    qg /= p_g
    h *= qg
    h /= e_qg_h
    return h


@dataclass(frozen=True)
class ConditionalBatch:
    """Conditional draws of W_T, the sorted view of D and the normalizer.

    The columns s_t, h, z_f, p_g, qg_density and d_star are recomputed
    from w_t on every read.  Invariants (held exactly, by construction):
      qg_density == z_f / p_g
      d_star == h * qg_density / e_qg_h, with d_star == 0 iff h == 0
      s_t == price_from_brownian(w_t, t_expiry)
      sorted_d == SortedD.from_sample(d_star), built once in build_batch
        from the positive D only: the zero atom, len(w_t) - len(sorted_d.d)
        draws, is a count, and sorted_d.n == len(w_t)
    """

    signal: SignalSpec
    mode: ConditioningMode | None
    params: ModelParams
    w_t: np.ndarray
    sorted_d: SortedD
    e_qg_h: float

    def _derive(self, name: str) -> np.ndarray:
        return _columns(self.signal, self.w_t, self.params)[name]

    s_t = property(lambda self: self._derive("s_t"))
    h = property(lambda self: self._derive("h"))
    z_f = property(lambda self: self._derive("z_f"))
    p_g = property(lambda self: self._derive("p_g"))
    qg_density = property(lambda self: self._derive("qg_density"))

    @property
    def d_star(self) -> np.ndarray:
        d_star = np.zeros(self.w_t.size)
        d_star[self.h > 0.0] = _itm_d(self.signal, self.w_t, self.params, self.e_qg_h)
        return d_star


def build_batch(signal: SignalSpec, mode: ConditioningMode | None, n: int,
                p: ModelParams, seed: int, workers: int = 1) -> ConditionalBatch:
    """Draw n conditional samples for the signal and sort their densities D.

    For a PointValue signal `mode` selects the conditional sampler; for
    an IntervalIndicator it is ignored (the exact interval sampler is used).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if isinstance(signal, PointValue):
        mode = ConditioningMode(mode) if mode is not None else ConditioningMode.BRIDGE_EXACT
        w_t = sample_point_conditional(signal.g_w, n, mode, p, seed, workers=workers)
    elif isinstance(signal, IntervalIndicator):
        mode = None
        w_t = sample_indicator_conditional(signal, n, p, seed, workers=workers).w_t
    else:
        raise TypeError(f"unsupported signal {signal!r}")
    e_qg_h = bs_call_price(p)
    d = _itm_d(signal, w_t, p, e_qg_h)
    return ConditionalBatch(signal=signal, mode=mode, params=p, w_t=w_t,
                            sorted_d=SortedD.from_sample(d, n), e_qg_h=e_qg_h)
