"""The payoff-tilted density D of each conditional draw, sorted for the solvers.

For each conditional draw of W_T, D combines the payoff H = (S_T - K)^+,
the risk-neutral density Z_T, the signal density p_T^G and the insider
measure density dQ_G/dP = Z_T / p_T^G:

    D = dQ*/dP = H / E_QG[H] * dQ_G/dP.

E_QG[H] equals the plain Black-Scholes price (the insider measure agrees
with the risk-neutral one on F_T), so the normalizer is closed form and
adds no Monte Carlo noise.  D is the single quantity the threshold
solvers consume, so build_batch returns only the solvers' sorted view
of D (np_solver.SortedD), which carries the normalizer.

Every out-of-the-money draw (H = 0) has D = 0, an atom of mass
P_G(S_T <= K) that lies in every success set, which the sorted view
counts instead of storing.  D is computed on the in-the-money draws
only, and draws that cannot reach a window just below the strike are
left out in draw space, by cuts that invert insider_signal's point_map
and bridge_map.  build_batch walks the other draws in blocks of
rng.BLOCK_SIZE and writes each block's D straight into one buffer,
which the sorted view keeps when it comes out full and sorted.

A point signal's W_T = c + s*z is affine in draw_point's ascending
normals z, so S_T and dQ_G/dP are two exponents of z whose constants
are folded once per signal: no W_T is formed, and a block takes two
reused block buffers.  dQ_G/dP is one exp of Z_T / p_T^g's combined
exponent, since Z_T alone overflows on well-posed inputs; a D beyond the
float range comes out inf, which the sorted view refuses by name, and
one that underflows comes out 0.  A point block whose exponent falls
below the normal range (E_QG[H] near underflow) takes ln H - ln E_QG[H]
into it before the exp, so that D keeps its bits.  The draws that can
reach the strike are a suffix of the normals, as are the in-the-money
draws of each block, so D is usually sorted already.  An interval draw
is kept when the bridge from the largest W_{T+delta} its branch allows
reaches the window; each block gathers its kept draws and then its
in-the-money ones by index, and maps them to W_T.
"""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np
from scipy.special import ndtr, ndtri

from .insider_signal import (
    IntervalIndicator,
    PointValue,
    SignalDraws,
    SignalSpec,
    bridge_map,
    density_indicator,
    indicator_prob,
    point_map,
    sample_indicator_conditional,
)
from .model_core import (
    ModelParams,
    bs_call_price,
    brownian_from_price,
    price_from_brownian,
    rn_density,
)
from .np_solver import SortedD
from .rng import BLOCK_SIZE

__all__ = [
    "qg_density_indicator",
    "build_batch",
]


def qg_density_indicator(w_t, spec: IntervalIndicator, p: ModelParams):
    """dQ_G/dP at the horizon for the indicator signal: Z_T / p_T^G, divided in place."""
    qg = rn_density(w_t, p)
    qg /= density_indicator(w_t, spec, p)
    return qg


def _itm_payoff(w_t, p: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """H = S_T - K and W_T on the draws with H > 0, gathered by index."""
    h = price_from_brownian(w_t, p.t_expiry, p)
    h -= p.strike
    itm = np.flatnonzero(h > 0.0)
    return h[itm], w_t[itm]


class _PointExponents(NamedTuple):
    """S_T = s0 * exp(a*z + b) and dQ_G/dP = exp((u*z - v)^2 + r) on a point signal's normals z."""

    a: float
    b: float
    u: float
    v: float
    r: float


def _point_exponents(signal: PointValue, draws: SignalDraws, p: ModelParams) -> _PointExponents:
    """The constants of a point signal's two exponents of draws.z.

    W_T = c + s*z (point_map) gives a = sigma*s and b = sigma*c +
    (mu - sigma^2/2) T.  dQ_G/dP = Z_T / p_T^g, with the paper's
    p_T^g = sqrt((T+d)/d) exp(-(g - W_T)^2/(2d) + g^2/(2(T+d))), has the
    exponent Q*(z - z0)^2 + r with its square completed: Q = s^2/(2d),
    z0 = (g + theta*d - c)/s and r = -theta*g - theta^2 (T+d)/2 -
    g^2/(2(T+d)) + ln sqrt(d/(T+d)).  The square is held as (u*z - v)^2,
    u = sqrt(Q) and v = u*z0, so that no constant divides by s, which is
    0 where T*d underflows.
    """
    c, s = point_map(signal.g_w, draws, p)
    g, th, d, td = signal.g_w, p.theta, p.delta, p.t_signal
    root = math.sqrt(2.0 * d)
    return _PointExponents(
        p.sigma * s, p.sigma * c + (p.mu - 0.5 * p.sigma**2) * p.t_expiry,
        s / root, (g + th * d - c) / root,
        -th * g - 0.5 * th * th * td - g * g / (2.0 * td) + 0.5 * (math.log(d) - math.log(td)))


def _point_payoff(z, ex: _PointExponents, p: ModelParams, out) -> np.ndarray:
    """H = S_T - K = s0 * exp(a*z + b) - K for the normals z, computed in `out`."""
    h = np.multiply(z, ex.a, out=out)
    h += ex.b
    h = np.exp(h, out=h)
    h *= p.s0
    h -= p.strike
    return h


# relative gap below the strike from which draws are sampled: far wider than the
# rounding of S_T and of brownian_from_price, so every draw whose W_T is below
# the gap's Brownian level has S_T < K in floating point too
_STRIKE_GAP = 1e-9
# the log of the least normal float, below which exp loses bits
_LOG_TINY = math.log(np.finfo(float).tiny)
# relative margin by which a draw-space cut is moved outward: far wider than the
# rounding of the affine map it inverts and of the ndtri value it repeats
_CUT_MARGIN = 1e-12


def _strike_floor(p: ModelParams) -> float:
    """The Brownian level below which W_T is out of the money in floating point.

    The gap holds only for normal floats: a gapped strike or price ratio
    that is subnormal, 0 or infinite gives -inf, so no draw is left out.
    """
    level = p.strike * (1.0 - _STRIKE_GAP)
    ratio = level / p.s0
    tiny = np.finfo(float).tiny
    if not (level >= tiny and tiny <= ratio < math.inf):
        return -math.inf
    return float(brownian_from_price(level, p.t_expiry, p))


def _z_cut(c: float, s: float, w_lo: float) -> float:
    """The normal z at which c + s*z reaches w_lo, s >= 0, moved down by a margin.

    Every z below the cut has c + s*z < w_lo in floating point; an
    infinite c gives an infinite cut.  s is 0 where T*delta underflows,
    and then every draw has W_T = c: the cut is -inf when c reaches
    w_lo and +inf otherwise.
    """
    if s == 0.0:
        return -math.inf if c >= w_lo else math.inf
    z = (w_lo - c) / s
    if math.isfinite(z):
        z -= _CUT_MARGIN * (1.0 + (abs(w_lo) + abs(c)) / s)
    return z


def _point_start(signal: PointValue, draws: SignalDraws, p: ModelParams) -> int:
    """The start of the suffix of draws.z whose W_T can reach the strike window.

    W_T is an increasing affine map of each normal (point_map), so for
    draw_point's ascending normals these draws are a suffix.  Normals
    left out of the suffix that would still reach the window (normals
    not sorted) give the whole of draws.z.
    """
    z = draws.z
    cut = _z_cut(*point_map(signal.g_w, draws, p), _strike_floor(p))
    start = int(np.searchsorted(z, cut))
    return 0 if start and z[:start].max() >= cut else start


def _interval_candidates(draws: SignalDraws, mass: float, z_cut: float,
                         below: float | None) -> SignalDraws:
    """The draws with z >= z_cut or, when below is set, u * mass > below, gathered by index."""
    keep = draws.z >= z_cut
    if below is not None:
        keep |= draws.u * mass > below
    idx = np.flatnonzero(keep)
    return SignalDraws(draws.z[idx], draws.u[idx])


def _interval_blocks(signal: IntervalIndicator, draws: SignalDraws, p: ModelParams):
    """The interval draws whose W_T can reach the strike window, one block at a time.

    Each draw's W_T is at most the bridge from the largest W_{T+delta}
    its branch allows: b for G = 1, where the sampler clips to [a, b];
    sd * ndtri(Phi(lo)), about a, on the G = 0 branch below the
    interval, where u * mass <= Phi(lo); the G = 0 branch above the
    interval has no bound.  The bound repeats the sampler's own float
    operations, so a draw is left out only if its W_T, as sampled,
    stays below the window.  indicator_prob refuses a signal of
    probability 0 before the first block.
    """
    z, u = draws.z, draws.u
    # draws without uniforms go to the sampler whole, which refuses them
    prune = p.strike > 0.0 and u is not None
    if prune:
        mass = indicator_prob(signal, p)
        w_lo = _strike_floor(p)
        if signal.observed == 1:
            z_cut, below = _z_cut(*bridge_map(signal.b_w, p), w_lo), None
        else:
            sd = math.sqrt(p.t_signal)
            below = ndtr(signal.a_w / sd)
            z_cut = _z_cut(*bridge_map(float(ndtri(below) * sd), p), w_lo)
    for i in range(0, z.size, BLOCK_SIZE):
        block = SignalDraws(z[i:i + BLOCK_SIZE], None if u is None else u[i:i + BLOCK_SIZE])
        yield _interval_candidates(block, mass, z_cut, below) if prune else block


def _write_d(signal: SignalSpec, block, p: ModelParams, e_qg_h: float, out: np.ndarray,
             m: int, ex: _PointExponents | None, work: np.ndarray | None) -> int:
    """Write D of one block's in-the-money draws into out[m:]; return the end written.

    The one definition of D: D = H * dQ_G/dP / E_QG[H] in that operation
    order, elementwise, so each value equals the one the full-sample
    formula gives; every other draw has D = 0 exactly.  For a point
    signal the block is a slice of its normals, `ex` holds its exponents,
    and H and dQ_G/dP are computed in the two rows of `work`, each at
    least a block long.  Its in-the-money draws are read as a suffix, and
    gathered by index when the positive H are not one (normals out of
    order, or rounding).  A point block whose dQ_G/dP would leave the
    normal range takes D = exp(exponent + ln H - ln E_QG[H]) instead.  For
    an interval signal `ex` and `work` are None and the block holds
    draw_interval's draws.
    """
    if ex is not None:
        h = _point_payoff(block, ex, p, work[0, :block.size])
        itm = h > 0.0
        first = h.size - int(np.count_nonzero(itm))
        itm = slice(first, None) if itm[first:].all() else np.flatnonzero(itm)
        h, z = h[itm], block[itm]
    else:
        h, w_t = _itm_payoff(sample_indicator_conditional(signal, block, p).w_t, p)
    if not h.size:
        return m
    if not e_qg_h > 0.0:
        raise ValueError(f"the call price at strike {p.strike:g} is {e_qg_h:g}, so "
                         f"D = H / E_QG[H] is undefined on the draws in the money")
    d = out[m:m + h.size]
    # a D beyond the float range comes out inf, which SortedD.from_sample refuses by
    # name; one that underflows comes out 0 (far-out levels, where the exact D is tiny)
    with np.errstate(over="ignore"):
        if ex is not None:
            qg = np.multiply(z, ex.u, out=work[1, :h.size])
            qg -= ex.v
            qg *= qg
            qg += ex.r
            # the exponent is never below r, so only a signal whose r lies below the
            # normal range can give a subnormal dQ_G/dP; such a block takes H and
            # E_QG[H] into the exponent before the exp
            if ex.r < _LOG_TINY and qg.min() < _LOG_TINY:
                qg += np.log(h, out=h)
                qg -= math.log(e_qg_h)
                np.exp(qg, out=d)
                return m + h.size
            np.exp(qg, out=qg)
        else:
            qg = qg_density_indicator(w_t, signal, p)
        np.multiply(h, qg, out=d)
        d /= e_qg_h
    return m + h.size


def build_batch(signal: SignalSpec, draws: SignalDraws, p: ModelParams) -> SortedD:
    """Map the draws to conditional samples for the signal and sort their densities D.

    `draws` come from draw_point for a PointValue signal, whose mode
    they carry, and from draw_interval for an IntervalIndicator; draws
    of the other kind raise ValueError.  The draws are only read, so one
    set can serve many signals.  Only the draws that can reach the
    strike window are sampled; the others count towards D's zero atom.
    Point draws are sorted, so those draws are one suffix and a point
    signal's S_T is ascending: its in-the-money draws are read as a
    suffix, and its D usually needs no sort.  Interval draws are kept
    by a bound on W_T from each draw's branch and gathered by index.

    The draws are mapped in blocks of rng.BLOCK_SIZE, and each block
    writes its D into one buffer, as long as the point suffix or, for an
    interval signal, as the sample.  The view keeps that buffer when it
    comes out full and sorted, the usual point case.  A call price
    E_QG[H] that underflows to 0 while a draw finishes in the money
    leaves D undefined and raises ValueError.
    """
    n = draws.z.size
    if isinstance(signal, PointValue):
        lo = _point_start(signal, draws, p)
        ex = _point_exponents(signal, draws, p)
        # `for z in (draws.z,)` binds the normals in the generator, not in this frame
        blocks = (z[i:i + BLOCK_SIZE] for z in (draws.z,) for i in range(lo, n, BLOCK_SIZE))
    elif isinstance(signal, IntervalIndicator):
        lo, ex = 0, None
        blocks = _interval_blocks(signal, draws, p)
    else:
        raise TypeError(f"unsupported signal {signal!r}")
    # the blocks hold the only other reference, so a caller that kept none (the
    # one-signal case) frees the draws after the last block, before D is sorted
    del draws
    e_qg_h = bs_call_price(p)
    d = np.empty(n - lo)
    # H and dQ_G/dP of a point block, reused by every block; allocated after d,
    # which the view keeps, so that freeing them leaves no hole below it in the heap
    work = np.empty((2, min(BLOCK_SIZE, n - lo))) if ex is not None else None
    m = 0
    for block in blocks:
        m = _write_d(signal, block, p, e_qg_h, d, m, ex, work)
        # gathered interval draws go before the next block is gathered and D is sorted
        del block
    # the point block buffers go before D is sorted
    del work
    return SortedD.from_sample(d if m == d.size else d[:m], e_qg_h, n)
