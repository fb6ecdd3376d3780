"""The payoff-tilted density D of each conditional draw, sorted for the solvers.

For each conditional draw of W_T, D combines the payoff H = (S_T - K)^+,
the risk-neutral density Z_T, the signal density p_T^G and the insider
measure density dQ_G/dP = Z_T / p_T^G:

    D = dQ*/dP = H / E_QG[H] * dQ_G/dP.

E_QG[H] equals the plain Black-Scholes price (the insider measure agrees
with the risk-neutral one on F_T), so the normalizer is closed form and
adds no Monte Carlo noise.  D is the single quantity the threshold
solvers consume, so build_batch (a point signal) and
build_interval_batches (interval signals) return only the solvers'
sorted view of D (np_solver.SortedD), which carries the normalizer.

Every out-of-the-money draw (H = 0) has D = 0, an atom of mass
P_G(S_T <= K) that lies in every success set, which the sorted view
counts instead of storing.  D is computed on the in-the-money draws
only, and draws that cannot reach a window just below the strike are
left out in draw space, by cuts that invert insider_signal's point_map
and bridge_map.  The other draws are walked in blocks, and each block's
D goes straight into one buffer per signal, which the sorted view
keeps.  A block works in buffers allocated once per call.

A point signal's W_T = c + s*z is affine in draw_point's ascending
normals z, so S_T and dQ_G/dP / E_QG[H] are two exponents of z whose
constants are folded once per signal, ln s0 into the first and
-ln E_QG[H] into the second: no W_T is formed, and a block of
rng.BLOCK_SIZE normals takes two reused buffers.  dQ_G/dP is one exp of
Z_T / p_T^g's combined exponent, since Z_T alone overflows on
well-posed inputs; a D beyond the float range comes out inf, which the
sorted view refuses by name, and one that underflows comes out 0.  A
point block whose second exponent leaves the normal float range (below
it only where the folded constant does, above it where exp overflows)
takes ln H into it before the exp, so that D keeps its bits.  The draws
that can reach the strike are a suffix of the normals, as are the
in-the-money draws of each block, so D is usually sorted already.

An interval draw is kept when the bridge from the largest W_{T+delta}
its uniform allows reaches the window, by one cut per bin of the
uniform for either observed value.  Interval draws arrive block by
block (insider_signal.draw_interval), and each block is mapped to every
interval signal of the call before the next is drawn, so no more than
one block of draws is alive.  A block is walked in chunks: a chunk's
bins of u are found once for all its signals, and for each signal the
chunk gathers its kept draws once into three reused rows, where they
are mapped to W_T, H and D; each signal's D is sorted in its own buffer.
"""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np
from scipy.special import ndtr

from .insider_signal import (
    IntervalIndicator,
    PointValue,
    SignalDraws,
    bridge_map,
    density_indicator,
    indicator_prob,
    point_map,
    sample_indicator_conditional,
)
from .model_core import (
    BrownianPair,
    ModelParams,
    bs_call_price,
    brownian_from_price,
    price_from_brownian,
    rn_density,
)
from .np_solver import SortedD
from .rng import BLOCK_SIZE

__all__ = ["build_batch", "build_interval_batches"]


class _PointExponents(NamedTuple):
    """S_T = exp(a*z + b) and dQ_G/dP / E_QG[H] = exp((u*z - v)^2 + r) on a point signal's z."""

    a: float
    b: float
    u: float
    v: float
    r: float


def _point_exponents(signal: PointValue, p: ModelParams, e_qg_h: float) -> _PointExponents:
    """The constants of a point signal's two exponents of its normals z.

    W_T = c + s*z (point_map) gives a = sigma*s and b = sigma*c +
    (mu - sigma^2/2) T + ln s0.  dQ_G/dP = Z_T / p_T^g, with the paper's
    p_T^g = sqrt((T+d)/d) exp(-(g - W_T)^2/(2d) + g^2/(2(T+d))), has the
    exponent Q*(z - z0)^2 + r0 with its square completed: Q = s^2/(2d),
    z0 = (g + theta*d - c)/s and r0 = -theta*g - theta^2 (T+d)/2 -
    g^2/(2(T+d)) + ln sqrt(d/(T+d)), and r = r0 - ln E_QG[H].  The square
    is held as (u*z - v)^2, u = sqrt(Q) and v = u*z0, so that no constant
    divides by s, which is 0 where T*d underflows.  r is +inf where
    E_QG[H] is 0, which no draw in the money reaches (_d_slot refuses it).
    """
    c, s = point_map(signal, p)
    g, th, d, td = signal.g_w, p.theta, p.delta, p.t_signal
    root = math.sqrt(2.0 * d)
    r = -th * g - 0.5 * th * th * td - g * g / (2.0 * td) + 0.5 * (math.log(d) - math.log(td))
    return _PointExponents(
        p.sigma * s, p.sigma * c + (p.mu - 0.5 * p.sigma**2) * p.t_expiry + math.log(p.s0),
        s / root, (g + th * d - c) / root,
        r - math.log(e_qg_h) if e_qg_h > 0.0 else math.inf)


def _point_payoff(z, ex: _PointExponents, p: ModelParams, out) -> np.ndarray:
    """H = S_T - K = exp(a*z + b) - K for the normals z, computed in `out`."""
    h = np.multiply(z, ex.a, out=out)
    h += ex.b
    h = np.exp(h, out=h)
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
# bins of the uniform for the bound on W_T, a power of two so that u * _BINS is exact
_BINS = 1 << 9
# interval draws mapped per chunk: its three work rows, and the temporaries of its
# sampler and density, stay well within the two blocks that a point block takes
_CHUNK = 1 << 15


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


def _z_cut(c, s: float, w_lo: float) -> np.ndarray:
    """The normal z at which c + s*z reaches w_lo, s >= 0, moved down by a margin.

    c is a float or an array, and the cut has its shape.  Every z below
    the cut has c + s*z < w_lo in floating point; an infinite c, or a
    quotient beyond the float range, gives an infinite cut, and a w_lo
    of -inf the cut -inf.  s is 0 where T*delta underflows, and then
    every draw has W_T = c: the cut is -inf when c reaches w_lo and
    +inf otherwise.
    """
    if s == 0.0 or w_lo == -math.inf:
        return np.where(np.greater_equal(c, w_lo), -math.inf, math.inf)
    with np.errstate(over="ignore"):
        z = np.asarray(np.subtract(w_lo, c) / s)
        margin = _CUT_MARGIN * (1.0 + (abs(w_lo) + np.abs(c)) / s)
        np.subtract(z, margin, out=z, where=np.isfinite(z))
    return z


def _point_start(signal: PointValue, draws: SignalDraws, p: ModelParams) -> int:
    """The start of the suffix of draws.z whose W_T can reach the strike window.

    W_T is an increasing affine map of each normal (point_map), so for
    draw_point's ascending normals these draws are a suffix.  Normals
    left out of the suffix that would still reach the window (normals
    not sorted) give the whole of draws.z.
    """
    z = draws.z
    cut = _z_cut(*point_map(signal, p), _strike_floor(p))
    start = int(np.searchsorted(z, cut))
    return 0 if start and z[:start].max() >= cut else start


def _interval_cuts(signal: IntervalIndicator, mass: float, p: ModelParams) -> np.ndarray:
    """Per bin of u, the normal below which an interval draw's W_T stays below the strike window.

    W_T is at most the bridge from the largest W_{T+delta} the draw's
    uniform u allows.  u's range (0, 1] has _BINS equal bins: W_{T+delta}
    is monotone in u for G = 1, and below and above the interval for
    G = 0, so in a bin it is largest at an edge.  The sampler maps the
    edges, so the bound repeats its float operations, its clip included.
    The G = 0 bin that holds the switch between the branches has cut -inf.
    """
    edges = np.arange(_BINS + 1) / _BINS
    w_td = sample_indicator_conditional(
        signal, SignalDraws(np.zeros(edges.size), edges), p, mass).w_tdelta
    cuts = _z_cut(*bridge_map(np.maximum(w_td[:-1], w_td[1:]), p), _strike_floor(p))
    if signal.observed == 0:
        # the sampler's own branch test: u * mass above Phi(lo) lies above the interval
        upper = edges * mass > ndtr(signal.a_w / math.sqrt(p.t_signal))
        cuts[upper[:-1] != upper[1:]] = -math.inf
    return cuts


def _kept(chunk: SignalDraws, bins: np.ndarray, cuts: np.ndarray, work: np.ndarray,
          flags: np.ndarray) -> SignalDraws:
    """The draws of a chunk whose normal reaches the cut of their bin, gathered into work[1:].

    `bins` holds the bin of each draw's u, u * _BINS truncated, and
    u = 1 falls in the last bin.
    """
    z, u = chunk.z, chunk.u
    cuts = np.take(cuts, bins, out=work[1, :u.size], mode="clip")
    keep = np.flatnonzero(np.greater_equal(z, cuts, out=flags[:z.size]))
    return SignalDraws(np.take(z, keep, out=work[1, :keep.size], mode="clip"),
                       np.take(u, keep, out=work[2, :keep.size], mode="clip"))


def _d_slot(out: np.ndarray, m: int, size: int, e_qg_h: float, p: ModelParams) -> np.ndarray:
    """out[m:m + size], which takes the D of `size` draws in the money; E_QG[H] must be positive."""
    if not e_qg_h > 0.0:
        raise ValueError(f"the call price at strike {p.strike:g} is {e_qg_h:g}, so "
                         f"D = H / E_QG[H] is undefined on the draws in the money")
    return out[m:m + size]


def _write_interval_d(signal: IntervalIndicator, kept: SignalDraws, p: ModelParams, mass: float,
                      e_qg_h: float, out: np.ndarray, m: int, work: np.ndarray,
                      flags: np.ndarray) -> int:
    """Write D of the kept draws that finish in the money into out[m:]; return the end written.

    The sampler maps the kept draws to W_T in place (work[1], see _kept),
    H goes to work[0], and the in-the-money H go straight to `out`, which
    becomes D = H * (Z_T / p_T^G) / E_QG[H] in the full-sample formula's
    operation order, with Z_T and p_T^G in the rows that are free.
    """
    k = kept.z.size
    w_t = sample_indicator_conditional(signal, kept, p, mass, out=BrownianPair(kept.z, kept.u)).w_t
    h = price_from_brownian(w_t, p.t_expiry, p, out=work[0, :k])
    h -= p.strike
    itm = np.flatnonzero(np.greater(h, 0.0, out=flags[:k]))
    if not itm.size:
        return m
    d = np.take(h, itm, out=_d_slot(out, m, itm.size, e_qg_h, p), mode="clip")
    w_t = np.take(w_t, itm, out=work[2, :itm.size], mode="clip")
    # a D beyond the float range comes out inf, which SortedD.from_sample refuses by name
    with np.errstate(over="ignore"):
        qg = rn_density(w_t, p, out=work[0, :itm.size])
        qg /= density_indicator(w_t, signal, p, mass, out=work[1, :itm.size])
        d *= qg
        d /= e_qg_h
    return m + itm.size


def _exp_fits(x: np.ndarray, out: np.ndarray) -> bool:
    """exp(x) into `out`; False when some value overflows, which leaves `out` to be rewritten."""
    try:
        with np.errstate(over="raise"):
            np.exp(x, out=out)
    except FloatingPointError:
        return False
    return True


def _write_point_d(z, ex: _PointExponents, p: ModelParams, e_qg_h: float, out: np.ndarray,
                   m: int, work: np.ndarray) -> int:
    """Write D of one point block's in-the-money draws into out[m:]; return the end written.

    D = H * exp((u*z - v)^2 + r), elementwise, where the constants of
    `ex` hold s0 and 1/E_QG[H] (see _point_exponents); every other draw
    has D = 0 exactly.  The block z is a slice of the signal's normals,
    and H and the exponent are computed in the two rows of `work`, each
    at least a block long.  A block whose least H is positive is in the
    money whole, the usual case; any other block's in-the-money draws are
    read as a suffix, and gathered by index when the positive H are not
    one (normals out of order, or rounding).  A block whose exponent
    leaves the normal range, below it (r under the range) or above it
    (exp overflows: H < 1 can still give a finite D), takes
    D = exp(exponent + ln H) instead.
    """
    h = _point_payoff(z, ex, p, work[0, :z.size])
    if not h.min() > 0.0:
        itm = h > 0.0
        first = h.size - int(np.count_nonzero(itm))
        itm = slice(first, None) if itm[first:].all() else np.flatnonzero(itm)
        h, z = h[itm], z[itm]
        if not h.size:
            return m
    d = _d_slot(out, m, h.size, e_qg_h, p)
    # a D beyond the float range comes out inf, which SortedD.from_sample refuses by
    # name; one that underflows comes out 0 (far-out levels, where the exact D is tiny)
    with np.errstate(over="ignore"):
        x = np.multiply(z, ex.u, out=work[1, :h.size])
        x -= ex.v
        x *= x
        x += ex.r
        # the exponent is never below r, so only a signal whose r lies below the
        # normal range can give a subnormal exp
        if not (ex.r < _LOG_TINY and x.min() < _LOG_TINY) and _exp_fits(x, d):
            d *= h
        else:
            x += np.log(h, out=h)
            np.exp(x, out=d)
    return m + h.size


def build_batch(signal: PointValue, draws: SignalDraws, p: ModelParams) -> SortedD:
    """Map draw_point's draws to conditional samples for a point signal and sort their D.

    The signal carries its conditioning mode.  The draws are only read,
    so one set can serve many signals, of either point mode; draws that
    carry uniforms raise ValueError before any work, and an interval
    signal, which build_interval_batches takes, raises TypeError.  Only
    the draws that can reach the strike window are sampled, and the
    others count towards D's zero atom.  Point draws are sorted, so
    those draws are one suffix and the signal's S_T is ascending: its
    in-the-money draws are read as a suffix, and its D usually needs no
    sort.  Each block writes its D into one buffer, as long as the
    suffix, which the view keeps when it comes out full and sorted, the
    usual case.  A call price E_QG[H] that underflows to 0 while a draw
    finishes in the money leaves D undefined and raises ValueError.
    """
    if not isinstance(signal, PointValue):
        raise TypeError(f"build_batch takes a point signal, got {signal!r}; "
                        "interval signals go to build_interval_batches")
    if draws.u is not None:
        raise ValueError("a point signal needs draw_point draws, which carry no uniforms")
    n = draws.z.size
    e_qg_h = bs_call_price(p)
    lo = _point_start(signal, draws, p)
    ex = _point_exponents(signal, p, e_qg_h)
    # `for z in (draws.z,)` binds the normals in the generator, not in this frame: the
    # blocks hold the only other reference, so a caller that kept none frees the draws
    # after the last block
    blocks = (z[i:i + BLOCK_SIZE] for z in (draws.z,) for i in range(lo, n, BLOCK_SIZE))
    del draws
    d = np.empty(n - lo)
    # H and dQ_G/dP of a block, reused by every block; allocated after d, which the
    # view keeps, so that freeing them leaves no hole below it in the heap
    work = np.empty((2, min(BLOCK_SIZE, n - lo)))
    m = 0
    for block in blocks:
        m = _write_point_d(block, ex, p, e_qg_h, d, m, work)
    del work
    return SortedD.from_sample(d if m == d.size else d[:m], e_qg_h, n)


def build_interval_batches(signals, blocks, n: int, p: ModelParams) -> list[SortedD]:
    """The sorted view of D of each interval signal, all mapped from the same n draws.

    `blocks` yields the interval draws in order, block by block, as
    insider_signal.draw_interval does, or holds hand-made draws as one
    block.  Each block is only read, and is mapped to every signal
    before the next is asked for, so draw_interval can fill the next
    block into the same buffers; the views equal those of one signal at
    a time, bit for bit.  The blocks must hold n draws in all, else
    ValueError.  A chunk of each block finds its draws' bins of u once,
    and for each signal keeps the draws whose bound on W_T reaches the
    strike window; the others count towards D's zero atom.

    Each signal writes its D into its own buffer of n, which is sorted
    in place and then gives back its unused tail, so the view keeps it.
    P(G = observed) = 0 raises ValueError before the first block is
    asked for, and so does a signal that is not an IntervalIndicator
    (TypeError); a call price E_QG[H] that underflows to 0 while a draw
    finishes in the money leaves D undefined and raises ValueError.
    """
    for signal in signals:
        if not isinstance(signal, IntervalIndicator):
            raise TypeError(f"build_interval_batches takes interval signals, got {signal!r}")
    e_qg_h = bs_call_price(p)
    masses = [indicator_prob(signal, p) for signal in signals]
    cuts = [_interval_cuts(signal, mass, p) for signal, mass in zip(signals, masses)]
    ds = [np.empty(n) for _ in signals]
    ends = [0] * len(ds)
    # a chunk's bins of u, and for each signal its kept draws, then their W_T, H, Z_T and
    # p_T^G, in three rows; allocated after the buffers of D, which the views keep
    bins = np.empty(min(_CHUNK, n), dtype=np.intp)
    work = np.empty((3, bins.size))
    flags = np.empty(bins.size, dtype=bool)
    seen = 0
    for block in blocks:
        if block.u is None:
            raise ValueError("an interval signal needs draw_interval draws, which carry uniforms")
        seen += block.z.size
        if seen > n:
            raise ValueError(f"the blocks hold more than n = {n} draws")
        for i in range(0, block.z.size, _CHUNK):
            chunk = SignalDraws(block.z[i:i + _CHUNK], block.u[i:i + _CHUNK])
            chunk_bins = np.multiply(chunk.u, _BINS, out=bins[:chunk.u.size], casting="unsafe")
            for j, signal in enumerate(signals):
                ends[j] = _write_interval_d(signal, _kept(chunk, chunk_bins, cuts[j], work, flags),
                                            p, masses[j], e_qg_h, ds[j], ends[j], work, flags)
    if seen != n:
        raise ValueError(f"the blocks hold {seen} draws, not n = {n}")
    del work, flags, bins
    views = []
    for d, m in zip(ds, ends):
        # no other array refers to d, so it can give back its tail in place
        d[:m].sort()
        d.resize(m, refcheck=False)
        views.append(SortedD.from_sample(d, e_qg_h, n))
    return views
