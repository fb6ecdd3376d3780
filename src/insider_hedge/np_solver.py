"""Threshold solvers for the two quantile-hedging problems.

On the sorted tilted densities D_i of a conditional sample (a `SortedD`),
the solvers locate the level k of the optimal success set {D <= k} and evaluate

    success probability = (1/n) sum 1{D_i <= k}
    capital fraction    = (1/n) sum D_i 1{D_i <= k}   (clamped to [0,1])

Problem "epsilon" fixes the shortfall probability and minimizes the
fraction; problem "alpha" fixes the fraction and maximizes the success
probability.  Conventions on a finite sample:

  * epsilon target: k is the order statistic at rank ceil((1-eps) n),
    so the success constraint holds with the conservative inequality
    even when D has atoms (tied values always enter together);
  * alpha target: k is the largest order statistic whose grouped prefix
    mean of D stays within the budget, so the attained budget never
    exceeds the target.

All solvers read the same view of D and its running sums, so the
epsilon -> k -> alpha -> k round trip reproduces the original threshold
bit for bit.  The running sums need no chain through every value: each
stride of 4096 values is summed by numpy's pairwise reduction, and only
the stride sums are added in sequence, one mark per stride.  Every
out-of-the-money draw has D = 0, which lies in every success set
{D <= k}; the view keeps only the positive D and counts this zero atom,
so ranks and counts on the full sample are offsets into the positive
part.  Atoms of D can make an exact hit of either target
impossible; the solvers then return the conservative level, and the
plan says so in its atom_gap field, next to the attained value.
"""
from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "SortedD",
    "HedgePlan",
    "solve_k_for_epsilon",
    "alpha_from_k",
    "success_prob_from_k",
    "solve_k_for_alpha",
    "make_hedge_plan",
]


class AlphaEstimate(NamedTuple):
    alpha: float
    stderr: float


class SuccessEstimate(NamedTuple):
    prob: float
    stderr: float


class BudgetThreshold(NamedTuple):
    k: float
    attained_alpha: float


@dataclass(frozen=True)
class HedgePlan:
    """Solved hedge: threshold, capital fraction and success probability.

    Exactly one of epsilon_target / alpha_target is set.  The knockout
    payoff H*1{D <= k} is what the reduced-capital strategy replicates;
    initial_capital = alpha * E_QG[H].  atom_gap is empty when the target
    was reached; otherwise it names the atom of D in the way and the
    attained level ("atom at k=..." or "atom above k=...").
    """

    k: float
    alpha: float
    success_prob: float
    initial_capital: float
    mc_stderr_alpha: float
    mc_stderr_success: float
    knockout_payoff: str
    epsilon_target: float | None = None
    alpha_target: float | None = None
    atom_gap: str = ""

    def __post_init__(self) -> None:
        if (self.epsilon_target is None) == (self.alpha_target is None):
            raise ValueError("exactly one of epsilon_target / alpha_target must be set")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha out of [0,1]: {self.alpha}")
        if not 0.0 <= self.success_prob <= 1.0:
            raise ValueError(f"success_prob out of [0,1]: {self.success_prob}")


_STRIDE = 4096  # values between two marks, each stride summed pairwise
_PASS = 1 << 15  # values squared per pass of from_sample, a multiple of _STRIDE


@dataclass(frozen=True)
class SortedD:
    """Sorted positive D, marks of their running sums, sample size n, normalizer E_QG[H].

    The other n - len(d) draws of the sample have D = 0; they are not
    stored and sit before d in sorted order.  marks[j] holds the sums of
    D and of D^2 before d[j * _STRIDE]: marks[j + 1] is marks[j] plus
    numpy's pairwise sums of the j-th stride of 4096 values and of their
    squares, so only the marks are added in sequence.  sums(i) continues
    from the last mark the same way.  Since adding zeros is exact, these
    are also the running sums of the full sorted sample.
    """

    d: np.ndarray
    marks: np.ndarray
    n: int
    e_qg_h: float

    @classmethod
    def from_sample(cls, d_star, e_qg_h: float, n: int | None = None) -> SortedD:
        """Sort a sample of D once for all threshold solves on it.

        d_star holds every nonzero D of a sample of size n, which
        defaults to len(d_star); the remaining draws are zeros.  A sample
        that is already nondecreasing (a point signal's D, see
        measure_engine) is checked in one pass and not sorted again.
        The view owns a buffer of its positive D only: an unsorted
        sample is sorted into a new array, a slice of a larger buffer is
        copied, and an owned sorted float array is kept without a copy.
        build_batch hands over its buffer of D that way when the buffer
        comes out full and sorted, and build_interval_batches each
        signal's buffer once it is sorted, so D is never held twice.  The view's
        arrays are read-only, the kept input included.  A negative or NaN
        D, or sums of D or D^2 beyond the float range, raise ValueError.
        The strides are summed in passes of 2^15 values, their squares
        through one reused float buffer.
        """
        d = np.asarray(d_star, dtype=float)
        if not (d[1:] >= d[:-1]).all():
            # a NaN fails the comparison; the sort moves it last, where the check below sees it
            d = np.sort(d)
        n = d.size if n is None else n
        if n < 1:
            raise ValueError("empty batch")
        if n < d.size:
            raise ValueError(f"sample size {n} below the {d.size} values given")
        if d.size and (d[0] < 0.0 or np.isnan(d[-1])):
            raise ValueError(f"D must be nonnegative and not NaN, got range [{d[0]}, {d[-1]}]")
        zeros = int(np.searchsorted(d, 0.0, side="right"))
        if zeros or d.base is not None:
            d = d[zeros:].copy()
        strided = d[:d.size - d.size % _STRIDE]
        marks = np.zeros((strided.size // _STRIDE + 1, 2))
        sq = np.empty(_PASS)
        # a sum beyond the float range comes out inf, which the check below refuses
        with np.errstate(over="ignore"):
            for start in range(0, strided.size, _PASS):
                seg = strided[start:start + _PASS]
                rows = marks[start // _STRIDE + 1:][:seg.size // _STRIDE]
                seg.reshape(-1, _STRIDE).sum(axis=1, out=rows[:, 0])
                np.multiply(seg, seg, out=sq[:seg.size])
                sq[:seg.size].reshape(-1, _STRIDE).sum(axis=1, out=rows[:, 1])
            np.cumsum(marks, axis=0, out=marks)
            view = cls(d, marks, n, e_qg_h)
            # D >= 0, so the sums through the last value bound every other
            total = view.sums(d.size - 1) if d.size else (0.0, 0.0)
        if not np.isfinite(total).all():
            raise ValueError(f"the sums of D and D^2 over the sample are {total[0]:g} and "
                             f"{total[1]:g}: D exceeds the float range")
        for a in (view.d, view.marks):
            a.flags.writeable = False
        return view

    def count(self, k: float) -> int:
        """Number of draws with D <= k, for k >= 0."""
        return self.n - self.d.size + int(np.searchsorted(self.d, k, side="right"))

    def sums(self, i: int) -> tuple[float, float]:
        """Sums of D and of D^2 through d[i]: the last mark plus the pairwise sums of
        its stride through d[i], which at a stride end is the next mark bit for bit."""
        if not 0 <= i < self.d.size:
            raise IndexError(f"index {i} outside the {self.d.size} positive values")
        seg = self.d[i - i % _STRIDE:i + 1]
        total, total_sq = self.marks[i // _STRIDE]
        return float(total + np.sum(seg)), float(total_sq + np.sum(seg * seg))


def _epsilon_rank(n: int, epsilon: float) -> int:
    """ceil((1-eps) n), computed as n - floor(eps n) without float-noise rank slips."""
    return n - int(math.floor(epsilon * n + 1e-9))


def solve_k_for_epsilon(view: SortedD, epsilon: float) -> float:
    """Empirical threshold with P(D <= k) >= 1 - epsilon on the sample.

    Returns the order statistic at rank ceil((1-eps) n); rank 0 (eps = 1)
    and ranks inside the zero atom give k = 0.
    """
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError(f"epsilon must be in [0,1], got {epsilon}")
    d, n = view.d, view.n
    # rank within the positive part, past the n - len(d) zeros
    rank = _epsilon_rank(n, epsilon) - (n - d.size)
    if rank <= 0:
        return 0.0
    return float(d[rank - 1])


def success_prob_from_k(view: SortedD, k: float) -> SuccessEstimate:
    """Sample success probability P(D <= k) with its binomial stderr."""
    if not k >= 0:
        raise ValueError("k must be nonnegative")
    n = view.n
    p = view.count(k) / n
    return SuccessEstimate(p, math.sqrt(p * (1.0 - p) / n))


def alpha_from_k(view: SortedD, k: float) -> AlphaEstimate:
    """Capital fraction E[D 1{D <= k}] on the sample, clamped to [0,1]."""
    if not k >= 0:
        raise ValueError("k must be nonnegative")
    n = view.n
    idx = int(np.searchsorted(view.d, k, side="right")) - 1
    if idx < 0:
        # only zeros (or nothing) lie below k: no capital, no spread
        return AlphaEstimate(0.0, 0.0)
    total, total_sq = view.sums(idx)
    mean = total / n
    if n > 1:
        var = max(total_sq / n - mean * mean, 0.0) * n / (n - 1)
    else:
        var = 0.0
    return AlphaEstimate(min(max(mean, 0.0), 1.0), math.sqrt(var / n))


def solve_k_for_alpha(view: SortedD, alpha: float) -> BudgetThreshold:
    """Largest threshold whose capital fraction stays within the budget.

    Groups tied values of the sorted sample and returns the largest
    group end k = d_(m) with (1/n) sum_{i<=m} d_(i) <= alpha, together
    with that attained budget.  The zero atom costs nothing, so with no
    affordable positive group the zero-capital plan (k = 0) is returned.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0,1], got {alpha}")
    d, n = view.d, view.n
    # sums / n are nondecreasing: bisect the marks, then the indices of the stride that
    # follows the last affordable mark
    j = bisect.bisect_right(view.marks[:, 0], alpha, key=lambda s: s / n) - 1
    stride = range(j * _STRIDE, min((j + 1) * _STRIDE, d.size))
    m = j * _STRIDE + bisect.bisect_right(stride, alpha, key=lambda i: view.sums(i)[0] / n) - 1
    if 0 <= m < d.size - 1 and d[m + 1] == d[m]:
        # a tie group straddles the budget: stop at the end of the previous group
        m = int(np.searchsorted(d, d[m], side="left")) - 1
    if m < 0:
        return BudgetThreshold(0.0, 0.0)
    return BudgetThreshold(float(d[m]), view.sums(m)[0] / n)


def make_hedge_plan(view: SortedD, *, epsilon: float | None = None,
                    alpha: float | None = None) -> HedgePlan:
    """Solve for the given target and package the result.

    When an atom of D makes the attained level differ from the target by
    more than the sample granularity, the plan's atom_gap says how.
    """
    if (epsilon is None) == (alpha is None):
        raise ValueError("pass exactly one of epsilon= / alpha=")
    atom_gap = ""
    if epsilon is not None:
        k = solve_k_for_epsilon(view, epsilon)
        # a tie group extending past the requested rank means the target
        # success level is not attainable exactly
        count, rank = view.count(k), _epsilon_rank(view.n, epsilon)
        if rank >= 1 and count > rank:
            atom_gap = (f"atom at k={k:.6g}: success probability {count / view.n:.6g} "
                        f"attained for target {1.0 - epsilon:.6g}")
    else:
        k, attained = solve_k_for_alpha(view, alpha)
        # the solver stopped short of a value it could afford on its own: the tie
        # group of the next value above k straddles the budget
        nxt = int(np.searchsorted(view.d, k, side="right"))
        if nxt < view.d.size and view.sums(nxt)[0] / view.n <= alpha:
            atom_gap = (f"atom above k={k:.6g}: budget {attained:.6g} attained "
                        f"for target {alpha:.6g}")
    succ = success_prob_from_k(view, k)
    a = alpha_from_k(view, k)
    return HedgePlan(
        k=k,
        alpha=a.alpha,
        success_prob=succ.prob,
        initial_capital=a.alpha * view.e_qg_h,
        mc_stderr_alpha=a.stderr,
        mc_stderr_success=succ.stderr,
        knockout_payoff=f"H*1{{D <= {k:.6g}}}",
        epsilon_target=epsilon,
        alpha_target=alpha,
        atom_gap=atom_gap,
    )
