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
instead of storing them.  Draws that cannot reach the strike are not
even mapped to W_T: build_batch decides in draw space which draws can
reach a window just below the strike, and feeds only those to the
samplers.

build_batch walks those draws in blocks of rng.BLOCK_SIZE.  Each block
is sampled, priced, cut to its in-the-money draws and turned into D,
which goes straight into one buffer sized to the draws that can reach
the strike; no temporary is longer than a block.  When that buffer
comes out full and sorted, the sorted view keeps it as its array of D.
A point block is computed in place, in three block buffers that
build_batch allocates once and drops before D is sorted: W_T, H, and
dQ_G/dP as one exp of the combined exponent of Z_T / p_T^G
(qg_density_point), since Z_T alone overflows on well-posed inputs.  A
D beyond the float range comes out inf, which the sorted view refuses
by name; one that underflows comes out 0.

Point samples of W_T are an increasing affine map of draw_point's
ascending normals, in either mode, so the draws that can reach the
strike are a suffix of them, found by one searchsorted, and its blocks
come in the order of ascending W_T: the in-the-money draws of each
block are a suffix of it, and D is usually sorted already.  Interval
samples depend on two draws each: a draw is kept when the bridge from
the largest W_{T+delta} its branch allows reaches the window, and each
block gathers its kept draws and then its in-the-money ones by index.
The draw-space cuts invert insider_signal's point_map and bridge_map.
"""
from __future__ import annotations

import math

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
from .rng import BLOCK_SIZE

__all__ = [
    "qg_density_point",
    "qg_density_indicator",
    "build_batch",
]


def qg_density_point(w_t, g_w, p: ModelParams, out=None):
    """dQ_G/dP = Z_T / p_T^G at the horizon for the point signal, as one exponent:

        sqrt(d/(T+d)) * exp(-theta*W_T - theta^2 T/2
                            + (g - W_T)^2/(2d) - g^2/(2(T+d)))

    Algebraically identical to rn_density / p_T^g with the paper's

        p_T^g = sqrt((T+d)/d) * exp(-(g - W_T)^2/(2d) + g^2/(2(T+d))),

    whose two factors can each overflow where their ratio does not.  The
    exponent is evaluated with its square completed,

        (W_T - g - theta*d)^2/(2d) - theta*g - theta^2 (T+d)/2 - g^2/(2(T+d)),

    so that it is built in one array, written into `out` when given.
    """
    th, d, td = p.theta, p.delta, p.t_signal
    x = np.subtract(w_t, g_w + th * d, out=out)
    x *= x
    x /= 2.0 * d
    x += -th * g_w - 0.5 * th * th * td - g_w * g_w / (2.0 * td)
    x = np.exp(x, out=out)
    x *= math.sqrt(d / td)
    return x


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


def _itm_payoff_ascending(w_t, p: ModelParams, out) -> tuple[np.ndarray, np.ndarray]:
    """_itm_payoff for an ascending W_T, whose in-the-money draws are a suffix.

    H is computed in `out`.  The draws with H > 0 are the same as
    _itm_payoff's, element for element, for any W_T: a payoff whose
    positive values are not a suffix goes to _itm_payoff.
    """
    h = price_from_brownian(w_t, p.t_expiry, p, out=out)
    h -= p.strike
    itm = h > 0.0
    first = h.size - int(np.count_nonzero(itm))
    if not itm[first:].all():
        return _itm_payoff(w_t, p)
    return h[first:], w_t[first:]


# relative gap below the strike from which draws are sampled: far wider than the
# rounding of price_from_brownian and brownian_from_price, so every draw whose W_T
# is below the gap's Brownian level has S_T < K in floating point too
_STRIKE_GAP = 1e-9
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
    """The normal z at which c + s*z reaches w_lo, s > 0, moved down by a margin.

    Every z below the cut has c + s*z < w_lo in floating point; an
    infinite c gives an infinite cut.
    """
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
    if p.strike > 0.0:
        cut = _z_cut(*point_map(signal.g_w, draws, p), _strike_floor(p))
        start = int(np.searchsorted(z, cut))
        if not (start and z[:start].max() >= cut):
            return start
    return 0


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


def _write_d(signal: SignalSpec, draws: SignalDraws, p: ModelParams, e_qg_h: float,
             out: np.ndarray, m: int, work: np.ndarray | None) -> int:
    """Map one block of draws to W_T and write D of its in-the-money draws into out[m:].

    The one definition of D: D = H * dQ_G/dP / E_QG[H] in that operation
    order, elementwise, with dQ_G/dP from qg_density_point for a point
    signal and qg_density_indicator for an interval signal, so each value
    equals the one the full-sample formula gives; every other draw has
    D = 0 exactly.  A point block is computed in place in the rows of
    `work`, each at least a block long: W_T, H and dQ_G/dP.  Returns the
    end of the values written.
    """
    point = isinstance(signal, PointValue)
    if point:
        w_t, h, qg = work[:, :draws.z.size]
        h, w_t = _itm_payoff_ascending(
            sample_point_conditional(signal.g_w, draws, p, out=w_t), p, h)
    else:
        h, w_t = _itm_payoff(sample_indicator_conditional(signal, draws, p).w_t, p)
    if not h.size:
        return m
    if not e_qg_h > 0.0:
        raise ValueError(f"the call price at strike {p.strike:g} is {e_qg_h:g}, so "
                         f"D = H / E_QG[H] is undefined on the draws in the money")
    d = out[m:m + h.size]
    # a D beyond the float range comes out inf, which SortedD.from_sample refuses by
    # name; one that underflows comes out 0 (far-out levels, where the exact D is tiny)
    with np.errstate(over="ignore"):
        if point:
            qg = qg_density_point(w_t, signal.g_w, p, out=qg[:h.size])
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
    signal's W_T is ascending: its in-the-money draws are read as a
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
        # `for whole in (draws,)` binds the draws in the generator, not in this frame
        blocks = (whole._replace(z=whole.z[i:i + BLOCK_SIZE])
                  for whole in (draws,) for i in range(lo, n, BLOCK_SIZE))
    elif isinstance(signal, IntervalIndicator):
        lo = 0
        blocks = _interval_blocks(signal, draws, p)
    else:
        raise TypeError(f"unsupported signal {signal!r}")
    # the blocks hold the only other reference, so a caller that kept none (the
    # one-signal case) frees the draws after the last block, before D is sorted
    del draws
    e_qg_h = bs_call_price(p)
    d = np.empty(n - lo)
    # W_T, H and dQ_G/dP of a point block, reused by every block; allocated after d,
    # which the view keeps, so that freeing them leaves no hole below it in the heap
    work = np.empty((3, min(BLOCK_SIZE, n - lo))) if isinstance(signal, PointValue) else None
    m = 0
    for block in blocks:
        m = _write_d(signal, block, p, e_qg_h, d, m, work)
        # gathered interval draws go before the next block is gathered and D is sorted
        del block
    # the point block buffers go before D is sorted
    del work
    return SortedD.from_sample(d if m == d.size else d[:m], e_qg_h, n)
