"""Per-draw payoff and Radon-Nikodym densities for the hedging problem.

For each conditional draw of W_T the batch stores the payoff
H = (S_T - K)^+, the risk-neutral density Z_T, the signal density p_T^G,
the insider measure density dQ_G/dP = Z_T / p_T^G and the payoff-tilted
density

    D = dQ*/dP = H / E_QG[H] * dQ_G/dP.

E_QG[H] equals the plain Black-Scholes price (the insider measure agrees
with the risk-neutral one on F_T), so the normalizer is closed form and
adds no Monte Carlo noise.  D is the single quantity the threshold
solvers consume: success probabilities are plain means of 1{D <= k} and
capital fractions are means of D * 1{D <= k}.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

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

__all__ = [
    "ConditionalSample",
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


class ConditionalSample(NamedTuple):
    """One conditional Monte Carlo draw with all densities attached."""

    w_t: float
    s_t: float
    h: float
    z_f: float
    p_g: float
    qg_density: float
    d_star: float


@dataclass(frozen=True)
class ConditionalBatch:
    """Conditional draws stored column-wise, plus the closed-form normalizer.

    Invariants (held exactly, by construction):
      qg_density == z_f / p_g
      d_star == h * qg_density / e_qg_h, with d_star == 0 iff h == 0
      s_t == price_from_brownian(w_t, t_expiry)
    """

    signal: SignalSpec
    mode: ConditioningMode | None
    w_t: np.ndarray
    s_t: np.ndarray
    h: np.ndarray
    z_f: np.ndarray
    p_g: np.ndarray
    qg_density: np.ndarray
    d_star: np.ndarray
    e_qg_h: float
    seed: int
    n: int

    def sample(self, i: int) -> ConditionalSample:
        return ConditionalSample(
            float(self.w_t[i]), float(self.s_t[i]), float(self.h[i]),
            float(self.z_f[i]), float(self.p_g[i]),
            float(self.qg_density[i]), float(self.d_star[i]),
        )


def build_batch(signal: SignalSpec, mode: ConditioningMode | None, n: int,
                p: ModelParams, seed: int, workers: int = 1) -> ConditionalBatch:
    """Draw n conditional samples for the signal and populate all densities.

    For a PointValue signal `mode` selects the conditional sampler; for
    an IntervalIndicator it is ignored (the exact interval sampler is used).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    t = p.t_expiry
    if isinstance(signal, PointValue):
        mode = ConditioningMode(mode) if mode is not None else ConditioningMode.BRIDGE_EXACT
        w_t = sample_point_conditional(signal.g_w, n, mode, p, seed, workers=workers)
        p_g = density_point(signal.g_w, w_t, t, p)
    elif isinstance(signal, IntervalIndicator):
        mode = None
        pair = sample_indicator_conditional(signal, n, p, seed, workers=workers)
        w_t = pair.w_t
        p_g = density_indicator(signal.observed, w_t, t, spec=signal, p=p)
    else:
        raise TypeError(f"unsupported signal {signal!r}")

    s_t = price_from_brownian(w_t, t, p)
    h = payoff_call(s_t, p.strike)
    z_f = rn_density(w_t, p)
    qg = z_f / p_g
    e_qg_h = bs_call_price(p)
    # explicit zero where H == 0 keeps the point mass at D == 0 exact
    d_star = np.where(h > 0.0, h * qg / e_qg_h, 0.0)
    return ConditionalBatch(
        signal=signal, mode=mode, w_t=w_t, s_t=s_t, h=h, z_f=z_f, p_g=p_g,
        qg_density=qg, d_star=d_star, e_qg_h=e_qg_h, seed=seed, n=n,
    )
