"""Advance-information signals and conditional simulation under P.

Two signal kinds are supported, both read off the Brownian value at
time T + delta:

  * PointValue        -- the exact value W_{T+delta} = g is known at t=0;
  * IntervalIndicator -- only 1{W_{T+delta} in [a, b]} is known.

For the interval signal the module evaluates the signal density at the
hedge horizon,

    p_T^G = P(G = observed | F_T) / P(G = observed),

which measure_engine divides into Z_T; the point signal's p_T^g is
folded into measure_engine's exponent of the normals.  For both kinds
it maps normals to W_T under the law of W_T given the realized signal.
For the point signal two sampling modes exist: the exact Gaussian
conditioning

    W_T | W_{T+delta} = g  ~  N(g T/(T+delta), T delta/(T+delta))

and a shift recipe that draws W_T = g - N(0, delta), in law
g + sqrt(delta) z.  The shift recipe is NOT the exact conditional law;
it is kept as a selectable mode so the two can be compared cell by cell
(see the CLI report).  Interval conditioning uses an exact interval
sampler: W_{T+delta} by inverse CDF from its normal law restricted to
[a, b] (or to the complement), then W_T from the same Gaussian bridge.

Sampling is split in two steps: draw_point / draw_interval fill the
random streams, and point_map / sample_indicator_conditional map those
draws to W_T for one signal.  The draws carry only random numbers: a
point signal carries its conditioning mode, so a table draws once and
maps the same draws for each of its signals, of either mode.  Given the
signal, W_T = c + s*z with s >= 0 for one normal z in either point mode
and in the bridge; point_map and bridge_map give (c, s), and
measure_engine inverts the same map; for a point signal it computes D
from the normals and (c, s) without forming W_T.  Point draws are
sorted ascending, so every point sample of W_T comes out in ascending
order.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Union

import numpy as np
from scipy.special import ndtr, ndtri

from .model_core import BrownianPair, ModelParams, brownian_from_price
from .rng import (
    STREAM_INTERVAL_BRIDGE,
    STREAM_INTERVAL_SIGNAL,
    STREAM_POINT,
    standard_normal_stream,
    uniform_stream,
)

__all__ = [
    "ConditioningMode",
    "PointValue",
    "IntervalIndicator",
    "SignalSpec",
    "point_signal_from_price",
    "interval_signal_from_prices",
    "density_indicator",
    "indicator_prob",
    "SignalDraws",
    "draw_point",
    "draw_interval",
    "bridge_map",
    "point_map",
    "sample_indicator_conditional",
]


class ConditioningMode(str, Enum):
    """How point-signal conditional draws of W_T are produced."""

    BRIDGE_EXACT = "bridge_exact"
    PAPER_SHIFT = "paper_shift"


@dataclass(frozen=True)
class PointValue:
    """Signal G = W_{T+delta} with realized value g_w (sqrt-year units), and the
    conditioning mode that gives W_T its law given G (see point_map)."""

    g_w: float
    mode: ConditioningMode = ConditioningMode.BRIDGE_EXACT

    def __post_init__(self) -> None:
        if not math.isfinite(self.g_w):
            raise ValueError("g_w must be finite")
        # a mode's value names it too; an unknown one raises ValueError naming it
        object.__setattr__(self, "mode", ConditioningMode(self.mode))

    def describe(self) -> str:
        return f"point:g_w={self.g_w:.6g}"


@dataclass(frozen=True)
class IntervalIndicator:
    """Signal G = 1{W_{T+delta} in [a_w, b_w]} with observed value 0 or 1."""

    a_w: float
    b_w: float
    observed: int = 1

    def __post_init__(self) -> None:
        if not (math.isfinite(self.a_w) and math.isfinite(self.b_w)):
            raise ValueError("interval endpoints must be finite")
        if not self.a_w < self.b_w:
            raise ValueError(f"empty interval: need a_w < b_w, got [{self.a_w}, {self.b_w}]")
        if self.observed not in (0, 1):
            raise ValueError(f"observed must be 0 or 1, got {self.observed}")

    def describe(self) -> str:
        return f"interval:[{self.a_w:.6g},{self.b_w:.6g}]:G={self.observed}"


SignalSpec = Union[PointValue, IntervalIndicator]


def point_signal_from_price(level: float, p: ModelParams,
                            mode: ConditioningMode = ConditioningMode.BRIDGE_EXACT) -> PointValue:
    """Point signal from a stock level of S_{T+delta} (table convention)."""
    if level <= 0:
        raise ValueError("stock level must be positive")
    return PointValue(float(brownian_from_price(level, p.t_signal, p)), mode)


def interval_signal_from_prices(lo: float, hi: float, p: ModelParams,
                                observed: int = 1) -> IntervalIndicator:
    """Indicator signal from a stock-price interval for S_{T+delta}."""
    if not 0 < lo < hi:
        raise ValueError(f"need 0 < lo < hi, got [{lo}, {hi}]")
    return IntervalIndicator(
        float(brownian_from_price(lo, p.t_signal, p)),
        float(brownian_from_price(hi, p.t_signal, p)),
        observed,
    )


# ---------------------------------------------------------------------------
# signal probability and horizon density
# ---------------------------------------------------------------------------

def _normal_mass(lo, hi, observed: int):
    """P(lo <= Z <= hi) (observed 1) or P(Z outside [lo, hi]) (observed 0), Z ~ N(0, 1).

    Both are built from lower-tail CDF values, so far-out intervals
    neither cancel to 0 nor round to 1: the inside mass is taken on
    whichever of [lo, hi] and its reflection [-hi, -lo] lies lower.
    Float arrays lo and hi are overwritten, and the mass comes back in
    lo's buffer; scalars give a 0-d array.
    """
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    if observed == 0:
        ndtr(lo, out=lo)
        np.negative(hi, out=hi)
        lo += ndtr(hi, out=hi)
        return lo
    # min(hi, -lo) and min(lo, -hi) = -max(hi, -lo)
    np.negative(lo, out=lo)
    top = np.maximum(hi, lo, out=np.empty_like(lo))
    np.minimum(hi, lo, out=lo)
    np.negative(top, out=top)
    ndtr(lo, out=lo)
    lo -= ndtr(top, out=top)
    return lo


def indicator_prob(spec: IntervalIndicator, p: ModelParams) -> float:
    """P(G = spec.observed) for the indicator signal (closed form).

    Conditioning on G = spec.observed needs this probability to be
    positive, so a mass that is 0 in float raises ValueError.  Callers
    run it before drawing, so a refused signal costs no draws.
    """
    sd = math.sqrt(p.t_signal)
    mass = float(_normal_mass(spec.a_w / sd, spec.b_w / sd, spec.observed))
    if not mass > 0.0:
        raise ValueError(f"P(G={spec.observed}) = {mass:g} for {spec.describe()}: "
                         "cannot condition on a signal value of probability 0")
    return mass


def density_indicator(w_t, spec: IntervalIndicator, p: ModelParams, mass: float, out=None):
    """p_T^G for the indicator signal: P(G = spec.observed | W_T = w_t) / P(G = spec.observed).

    Given W_T, W_{T+delta} is N(W_T, delta), so the remaining standard
    deviation is sqrt(delta) itself, positive for every delta > 0 even
    where T + delta rounds to T.  The denominator `mass` is
    P(G = spec.observed), from indicator_prob.  With `out`, a float
    array like w_t, the density is computed there and the array w_t is
    overwritten.
    """
    rem_sd = math.sqrt(p.delta)
    lo = np.subtract(spec.a_w, w_t, out=out)
    lo /= rem_sd
    hi = np.subtract(spec.b_w, w_t, out=None if out is None else w_t)
    hi /= rem_sd
    num = _normal_mass(lo, hi, spec.observed)
    num /= mass
    return num


# ---------------------------------------------------------------------------
# conditional samplers
# ---------------------------------------------------------------------------

def bridge_map(w_td, p: ModelParams):
    """(c, s) with W_T = c + s*z, z standard normal, given W_{T+delta} = w_td:
    the bridge N(w_td T/(T+d), T d/(T+d)), s >= 0 (0 where T d underflows)."""
    td = p.t_signal
    return w_td * p.t_expiry / td, math.sqrt(p.t_expiry * p.delta / td)


class SignalDraws(NamedTuple):
    """Random input of a conditional sampler, drawn before it meets a signal.

    z holds standard normals: the bridge or shift noise of W_T.  Point
    draws hold them in ascending order, so that a point signal's W_T
    comes out ascending in either mode; interval draws hold them in
    stream order, aligned with u.  u holds uniforms on (0, 1] that place
    W_{T+delta} for interval signals, and is None for point signals.
    The draws depend on neither the signal's value nor its mode, so one
    set serves every level, mode or interval of a table.  The arrays are
    read-only: the samplers map them to W_T in new arrays, or in arrays
    their caller owns.
    """

    z: np.ndarray
    u: np.ndarray | None = None


def _read_only(draws: SignalDraws) -> SignalDraws:
    # shared draws must come out of every sampler unchanged
    for a in (draws.z, draws.u):
        if a is not None:
            a.flags.writeable = False
    return draws


def draw_point(n: int, seed: int) -> SignalDraws:
    """n standard normals of the point stream (seed, rng.STREAM_POINT), sorted ascending.

    Both conditioning modes map these normals, so under one seed the two
    modes' estimates are correlated, not independent.  The normals are
    sorted once here, so that every signal's W_T, S_T and D come out
    sorted too, in either mode (see point_map); the draws are iid, so
    their order carries no information.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    z = standard_normal_stream((seed, STREAM_POINT), n)
    z.sort()
    return _read_only(SignalDraws(z))


def draw_interval(n: int, seed: int) -> SignalDraws:
    """n uniforms on (0, 1] and n bridge normals for the interval sampler."""
    if n < 1:
        raise ValueError("n must be >= 1")
    u = uniform_stream((seed, STREAM_INTERVAL_SIGNAL), n)
    # on (0, 1]: a zero would map to an infinite quantile
    np.subtract(1.0, u, out=u)
    z = standard_normal_stream((seed, STREAM_INTERVAL_BRIDGE), n)
    return _read_only(SignalDraws(z, u))


def point_map(signal: PointValue, p: ModelParams) -> tuple[float, float]:
    """(c, s), s >= 0, with W_T = c + s*z for a standard normal z given W_{T+delta} = g_w.

    bridge_exact is the exact conditional law N(g T/(T+d), T d/(T+d))
    (bridge_map); paper_shift is g - N(0, delta), which has the law of
    g + sqrt(delta) z, so it is (g, sqrt(delta)) on the same normals.
    """
    if signal.mode is ConditioningMode.BRIDGE_EXACT:
        return bridge_map(signal.g_w, p)
    return signal.g_w, math.sqrt(p.delta)


def sample_indicator_conditional(spec: IntervalIndicator, draws: SignalDraws, p: ModelParams,
                                 mass: float, out=None) -> BrownianPair:
    """Exact draws of (W_T, W_{T+delta}) given G = spec.observed, from draw_interval's draws.

    W_{T+delta} / sqrt(T+d) is the inverse CDF at draws.u of the standard
    normal restricted to [a, b] / sqrt(T+d) (G = 1) or to its complement
    (G = 0); W_T then follows the Gaussian bridge with noise draws.z.
    Each draw maps on its own, so any subset of draw_interval's draws,
    taken by index from both arrays alike, gives the same values on it.
    `mass` is P(G = spec.observed), from indicator_prob.  `out`, a pair
    of float arrays as long as the draws, receives W_T and W_{T+delta};
    it may be (draws.z, draws.u) itself, which the draws then give up.
    Fails before any work on draw_point's draws.
    """
    if draws.u is None:
        raise ValueError("an interval signal needs draw_interval draws, which carry uniforms")
    sd = math.sqrt(p.t_signal)
    lo, hi = spec.a_w / sd, spec.b_w / sd
    w_t, w_td = (None, None) if out is None else out
    w_td = np.multiply(draws.u, mass, out=w_td)
    if spec.observed == 1:
        # invert on the lower of [lo, hi] and its reflection, as in _normal_mass
        w_td += ndtr(min(lo, -hi))
        ndtri(w_td, out=w_td)
        w_td *= -sd if lo + hi > 0 else sd
        # rounding at the endpoints may step outside [a, b], or reach inf at u = 1
        np.clip(w_td, spec.a_w, spec.b_w, out=w_td)
    else:
        # below the interval for u * mass <= Phi(lo), else above it
        below = ndtr(lo)
        upper = w_td > below
        w_td -= below * upper
        ndtri(w_td, out=w_td)
        w_td *= np.where(upper, -sd, sd)
    c, s = bridge_map(w_td, p)
    w_t = np.multiply(draws.z, s, out=w_t)
    w_t += c
    return BrownianPair(w_t, w_td)
