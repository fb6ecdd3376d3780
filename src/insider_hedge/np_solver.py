"""Threshold solvers for the two quantile-hedging problems.

Working on a conditional batch with tilted densities D_i, the solvers
locate the level k of the optimal success set {D <= k} and evaluate

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

All solvers read the batch's sorted view of D and its prefix sums
(`batch.sorted_d`, a `SortedD`), so the epsilon -> k -> alpha -> k round
trip reproduces the original threshold bit for bit.  Every out-of-the-
money draw has D = 0, which lies in every success set {D <= k}; the view
keeps only the positive D and counts this zero atom, so ranks and counts
on the full sample are offsets into the positive part.  Atoms of D can make
an exact hit of either target impossible; the solvers then return the
conservative level and report the attained value next to the target (a
warning, never an error).
"""
from __future__ import annotations

import bisect
import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "SortedD",
    "HedgePlan",
    "AtomGapWarning",
    "solve_k_for_epsilon",
    "alpha_from_k",
    "success_prob_from_k",
    "solve_k_for_alpha",
    "make_hedge_plan",
]


class AtomGapWarning(UserWarning):
    """An atom of D prevented hitting the requested level exactly."""


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
    initial_capital = alpha * E_QG[H].
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

    def __post_init__(self) -> None:
        if (self.epsilon_target is None) == (self.alpha_target is None):
            raise ValueError("exactly one of epsilon_target / alpha_target must be set")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha out of [0,1]: {self.alpha}")
        if not 0.0 <= self.success_prob <= 1.0:
            raise ValueError(f"success_prob out of [0,1]: {self.success_prob}")


class SortedD(NamedTuple):
    """Sorted positive tilted densities D, prefix sums of D and D^2, sample size n.

    The other n - len(d) draws of the sample have D = 0; they are not
    stored and sit before d in sorted order.  Since adding zeros is
    exact, prefix[j] is also the prefix sum of the full sorted sample up
    to its order statistic d[j].
    """

    d: np.ndarray
    prefix: np.ndarray
    prefix_sq: np.ndarray
    n: int

    @classmethod
    def from_sample(cls, d_star, n: int | None = None) -> SortedD:
        """Sort a sample of D once for all threshold solves on it.

        d_star holds every nonzero D of a sample of size n, which
        defaults to len(d_star); the remaining draws are zeros.
        """
        d = np.sort(np.asarray(d_star, dtype=float))
        n = d.size if n is None else n
        if n < 1:
            raise ValueError("empty batch")
        if n < d.size:
            raise ValueError(f"sample size {n} below the {d.size} values given")
        if d.size and (d[0] < 0.0 or np.isnan(d[-1])):
            raise ValueError(f"D must be nonnegative and not NaN, got range [{d[0]}, {d[-1]}]")
        zeros = int(np.searchsorted(d, 0.0, side="right"))
        if zeros:
            d = d[zeros:].copy()
        prefix_sq = d * d
        np.cumsum(prefix_sq, out=prefix_sq)
        return cls(d, np.cumsum(d), prefix_sq, n)

    def count(self, k: float) -> int:
        """Number of draws with D <= k, for k >= 0."""
        return self.n - self.d.size + int(np.searchsorted(self.d, k, side="right"))


def _epsilon_rank(n: int, epsilon: float) -> int:
    """ceil((1-eps) n), computed as n - floor(eps n) without float-noise rank slips."""
    return n - int(math.floor(epsilon * n + 1e-9))


def solve_k_for_epsilon(batch, epsilon: float) -> float:
    """Empirical threshold with P(D <= k) >= 1 - epsilon on the sample.

    Returns the order statistic at rank ceil((1-eps) n); rank 0 (eps = 1)
    and ranks inside the zero atom give k = 0.
    """
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError(f"epsilon must be in [0,1], got {epsilon}")
    d, _, _, n = batch.sorted_d
    # rank within the positive part, past the n - len(d) zeros
    rank = _epsilon_rank(n, epsilon) - (n - d.size)
    if rank <= 0:
        return 0.0
    return float(d[rank - 1])


def success_prob_from_k(batch, k: float) -> SuccessEstimate:
    """Sample success probability P(D <= k) with its binomial stderr."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    sorted_d = batch.sorted_d
    n = sorted_d.n
    p = sorted_d.count(k) / n
    return SuccessEstimate(p, math.sqrt(p * (1.0 - p) / n))


def alpha_from_k(batch, k: float) -> AlphaEstimate:
    """Capital fraction E[D 1{D <= k}] on the sample, clamped to [0,1]."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    d, prefix, prefix_sq, n = batch.sorted_d
    idx = int(np.searchsorted(d, k, side="right")) - 1
    if idx < 0:
        # only zeros (or nothing) lie below k: no capital, no spread
        return AlphaEstimate(0.0, 0.0)
    mean = prefix[idx] / n
    if n > 1:
        var = max(prefix_sq[idx] / n - mean * mean, 0.0) * n / (n - 1)
    else:
        var = 0.0
    return AlphaEstimate(min(max(float(mean), 0.0), 1.0), math.sqrt(var / n))


def solve_k_for_alpha(batch, alpha: float) -> BudgetThreshold:
    """Largest threshold whose capital fraction stays within the budget.

    Groups tied values of the sorted sample and returns the largest
    group end k = d_(m) with (1/n) sum_{i<=m} d_(i) <= alpha, together
    with that attained budget.  The zero atom costs nothing, so with no
    affordable positive group the zero-capital plan (k = 0) is returned.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0,1], got {alpha}")
    d, prefix, _, n = batch.sorted_d
    # prefix / n is nondecreasing for D >= 0: bisect for the last affordable index
    m = bisect.bisect_right(prefix, alpha, key=lambda s: s / n) - 1
    if 0 <= m < d.size - 1 and d[m + 1] == d[m]:
        # a tie group straddles the budget: stop at the end of the previous group
        m = int(np.searchsorted(d, d[m], side="left")) - 1
    if m < 0:
        return BudgetThreshold(0.0, 0.0)
    return BudgetThreshold(float(d[m]), float(prefix[m] / n))


def make_hedge_plan(batch, *, epsilon: float | None = None,
                    alpha: float | None = None) -> HedgePlan:
    """Solve for the given target and package the result.

    Warns with AtomGapWarning when an atom of D makes the attained level
    differ from the target by more than the sample granularity.
    """
    if (epsilon is None) == (alpha is None):
        raise ValueError("pass exactly one of epsilon= / alpha=")
    sorted_d = batch.sorted_d
    if epsilon is not None:
        k = solve_k_for_epsilon(batch, epsilon)
        succ = success_prob_from_k(batch, k)
        a = alpha_from_k(batch, k)
        # a tie group extending past the requested rank means the target
        # success level is not attainable exactly
        rank = _epsilon_rank(sorted_d.n, epsilon)
        if rank >= 1 and sorted_d.count(k) > rank:
            warnings.warn(
                f"atom at k={k:.6g}: success probability {succ.prob:.6g} attained "
                f"for target {1.0 - epsilon:.6g}",
                AtomGapWarning,
                stacklevel=2,
            )
    else:
        k, attained = solve_k_for_alpha(batch, alpha)
        succ = success_prob_from_k(batch, k)
        a = alpha_from_k(batch, k)
        # on an atom-free sample the unattained budget is below the next
        # order statistic's contribution; a larger gap means a tie group
        # straddles the target (the next order statistic above k >= 0 is
        # always positive)
        d = sorted_d.d
        nxt = int(np.searchsorted(d, k, side="right"))
        if nxt < d.size and alpha - attained >= float(d[nxt]) / sorted_d.n - 1e-15:
            warnings.warn(
                f"atom above k={k:.6g}: budget {attained:.6g} attained "
                f"for target {alpha:.6g}",
                AtomGapWarning,
                stacklevel=2,
            )
    return HedgePlan(
        k=k,
        alpha=a.alpha,
        success_prob=succ.prob,
        initial_capital=a.alpha * batch.e_qg_h,
        mc_stderr_alpha=a.stderr,
        mc_stderr_success=succ.stderr,
        knockout_payoff=f"H*1{{D <= {k:.6g}}}",
        epsilon_target=epsilon,
        alpha_target=alpha,
    )
