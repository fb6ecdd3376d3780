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


def _columns(signal: SignalSpec, w_t, p: ModelParams, e_qg_h: float) -> dict[str, np.ndarray]:
    """All per-draw columns from the draws of W_T; their one definition."""
    t = p.t_expiry
    if isinstance(signal, PointValue):
        p_g = density_point(signal.g_w, w_t, t, p)
    else:
        p_g = density_indicator(signal.observed, w_t, t, spec=signal, p=p)
    s_t = price_from_brownian(w_t, t, p)
    h = payoff_call(s_t, p.strike)
    z_f = rn_density(w_t, p)
    qg = z_f / p_g
    # explicit zero where H == 0 keeps the point mass at D == 0 exact
    d_star = np.where(h > 0.0, h * qg / e_qg_h, 0.0)
    return dict(s_t=s_t, h=h, z_f=z_f, p_g=p_g, qg_density=qg, d_star=d_star)


@dataclass(frozen=True)
class ConditionalBatch:
    """Conditional draws of W_T, the sorted view of D and the normalizer.

    The columns s_t, h, z_f, p_g, qg_density and d_star are recomputed
    from w_t on every read.  Invariants (held exactly, by construction):
      qg_density == z_f / p_g
      d_star == h * qg_density / e_qg_h, with d_star == 0 iff h == 0
      s_t == price_from_brownian(w_t, t_expiry)
      sorted_d is SortedD.from_sample(d_star), built once in build_batch
    """

    signal: SignalSpec
    mode: ConditioningMode | None
    params: ModelParams
    w_t: np.ndarray
    sorted_d: SortedD
    e_qg_h: float

    def _derive(self, name: str) -> np.ndarray:
        return _columns(self.signal, self.w_t, self.params, self.e_qg_h)[name]

    s_t = property(lambda self: self._derive("s_t"))
    h = property(lambda self: self._derive("h"))
    z_f = property(lambda self: self._derive("z_f"))
    p_g = property(lambda self: self._derive("p_g"))
    qg_density = property(lambda self: self._derive("qg_density"))
    d_star = property(lambda self: self._derive("d_star"))


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
    d_star = _columns(signal, w_t, p, e_qg_h)["d_star"]
    return ConditionalBatch(signal=signal, mode=mode, params=p, w_t=w_t,
                            sorted_d=SortedD.from_sample(d_star), e_qg_h=e_qg_h)
