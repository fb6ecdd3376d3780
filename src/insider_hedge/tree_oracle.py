"""Exact finite-market laboratory: binomial tree with a finite-valued signal.

Everything the continuous model estimates by Monte Carlo is computed here
by enumeration, in rational arithmetic, so the change-of-measure
identities and the optimality of threshold success sets can be verified
exactly:

  * the insider measure density z/p per atom and its marginals,
  * independence of the horizon sigma-algebra and the signal under it,
  * the martingale property of z/p and of the price on the enlarged tree,
  * unit conditional mass of the tilted density D,
  * threshold optimality of both problems (budget and shortfall) at
    every achievable level, against one brute-force enumeration of the
    success sets per signal value.

Paths are tuples of moves (1 = up, 0 = down).  A market with `periods`
steps carries the signal on time-N paths, keyed by the number of
terminal ups, and the payoff on time-T nodes, T = hedge_horizon <= N.
Inputs are exact (ints or Fractions), every quantity is a Fraction at
every depth, and so each identity is checked with exact equality.

Each exact quantity is computed once.  The tree recombines: price,
probabilities, z and P(G = g | node) depend on a path prefix only
through its (ups, steps), so a market tabulates them once per node, the
price, P, Q_F and z tables up to the horizon (nothing reads them beyond
it) and the signal law by one backward recursion from the last period.
The equivalence condition is checked on the terminal labels before any
rational arithmetic.  An AtomTable derives each signal value's
conditional law of D and its threshold candidates once, from its own
atoms, and the solvers read them.

The brute-force check sums subsets in integers: each law's conditional
probabilities and costs are scaled by the lcm of their denominators, so
every subset sum is an int and every comparison in the enumeration is
an int comparison.  Scaling by a positive integer keeps order and
equality, so the check stays exact.

run_oracle_suite runs every check on the reference market, on a
corrupted copy of its table (which must fail) and on seeded random
markets; the `oracle` command prints its report.  The module imports
only the standard library.
"""
from __future__ import annotations

import bisect
import itertools
import math
import random
from collections import Counter
from dataclasses import dataclass, field, replace
from fractions import Fraction
from operator import itemgetter
from typing import Mapping

__all__ = [
    "TreeMarket",
    "TreeAtom",
    "AtomTable",
    "TheoremReport",
    "ExactHedge",
    "build_atom_table",
    "verify_theorems",
    "perturb_atom",
    "conditional_law",
    "achievable_levels",
    "exact_quantile_hedge",
    "exhaustive_optimality_check",
    "random_market",
    "reference_market",
    "OracleReport",
    "run_oracle_suite",
]

ENUM_ATOM_LIMIT = 24

Path = tuple  # tuple of 0/1 moves


def _rat(x) -> Fraction:
    """Exact rational from an int or a Fraction; any other input raises TypeError."""
    if not isinstance(x, (int, Fraction)):
        raise TypeError(f"market inputs must be ints or Fractions, got {x!r}")
    return Fraction(x)


def _paths(length: int):
    return itertools.product((0, 1), repeat=length)


class TreeMarket:
    """Multi-period binomial market with advance information.

    Parameters
    ----------
    periods : total tree depth N.
    hedge_horizon : trading horizon T as a period index, 1 <= T <= N.
    u, d : up/down factors with 0 < d < 1 < u (zero rate, so the
        risk-neutral up probability q = (1-d)/(u-d) lies in (0,1)).
    p_up : physical up probability in (0,1).
    s0 : initial price (> 0).
    payoff : map {ups at horizon -> nonnegative value}, one entry for
        each of 0..hedge_horizon ups and no other.
    signal : map {terminal ups -> label}, one entry for each of
        0..periods ups and no other; labels form the finite value set
        of the signal.  The market keeps it as the tuple `labels`,
        labels[j] for j terminal ups, and its sorted value set as
        `signal_values`.

    u, d, p_up, s0 and the payoff values are exact: ints or Fractions.
    Anything else (a float, a string) raises TypeError.

    Construction fails when some signal value has zero conditional
    probability at a node before the horizon: the theory requires the
    conditional law of the signal to stay equivalent to its prior, and
    the offending node is named in the error.
    """

    def __init__(self, periods: int, hedge_horizon: int, u, d, p_up, s0,
                 payoff: Mapping, signal: Mapping) -> None:
        if periods < 1:
            raise ValueError("periods must be >= 1")
        if not 1 <= hedge_horizon <= periods:
            raise ValueError(f"hedge_horizon must be in [1, {periods}]")
        self.periods = int(periods)
        self.hedge_horizon = int(hedge_horizon)
        self.u = _rat(u)
        self.d = _rat(d)
        self.p_up = _rat(p_up)
        self.s0 = _rat(s0)
        if not 0 < self.d < 1 < self.u:
            raise ValueError(f"need 0 < d < 1 < u, got d={self.d}, u={self.u}")
        if not 0 < self.p_up < 1:
            raise ValueError(f"p_up must be in (0,1), got {self.p_up}")
        if self.s0 <= 0:
            raise ValueError("s0 must be positive")

        self.payoff = {int(j): _rat(v) for j, v in payoff.items()}
        for j in range(self.hedge_horizon + 1):
            if j not in self.payoff:
                raise ValueError(f"payoff missing node with {j} ups at the horizon")
            if self.payoff[j] < 0:
                raise ValueError(f"payoff must be nonnegative, got {self.payoff[j]} at {j} ups")
        stray = [j for j in payoff if j not in range(self.hedge_horizon + 1)]
        if stray:
            raise ValueError(f"payoff key {stray[0]!r} is not a horizon ups count "
                             f"0..{self.hedge_horizon}")

        self.labels = self._normalize_signal(signal)
        self.signal_values = tuple(sorted(set(self.labels)))
        refusal = self._check_equivalence(self.labels, self.periods, self.hedge_horizon)
        if refusal:
            raise ValueError(refusal)

        # every node quantity depends on the node only through (ups, steps)
        self.q = (1 - self.d) / (self.u - self.d)  # risk-neutral up probability
        self._price = self._node_table(self.u, self.d, self.s0)
        self._prob = self._node_table(self.p_up, 1 - self.p_up)
        self._qf_prob = self._node_table(self.q, 1 - self.q)
        self._rn_density = self._node_table(self.q / self.p_up, (1 - self.q) / (1 - self.p_up))
        self._cond = self._conditional_signal_probs()

    def _node_table(self, up: Fraction, down: Fraction, root: Fraction = Fraction(1)) -> dict:
        """{(ups, steps): root * up^ups * down^(steps - ups)} for steps 0..hedge_horizon.

        Built forward one step at a time, one product per node.  Every
        reader of a node table stops at the horizon, so the nodes past it
        are not built.
        """
        table = {(0, 0): root}
        for t in range(1, self.hedge_horizon + 1):
            table[0, t] = table[0, t - 1] * down
            for j in range(1, t + 1):
                table[j, t] = table[j - 1, t - 1] * up
        return table

    def price(self, prefix: Path) -> Fraction:
        return self._price[sum(prefix), len(prefix)]

    def prob(self, prefix: Path) -> Fraction:
        return self._prob[sum(prefix), len(prefix)]

    def qf_prob(self, prefix: Path) -> Fraction:
        return self._qf_prob[sum(prefix), len(prefix)]

    def cond_signal_prob(self, prefix: Path, g) -> Fraction:
        """P(G = g | the first len(prefix) moves equal prefix)."""
        return self._cond[sum(prefix), len(prefix)].get(g, Fraction(0))

    def signal_prob(self, g) -> Fraction:
        return self.cond_signal_prob((), g)

    def rn_density(self, prefix: Path) -> Fraction:
        """Risk-neutral density z on the node: (q/p)^j ((1-q)/(1-p))^(t-j), j ups in t steps."""
        return self._rn_density[sum(prefix), len(prefix)]

    def signal_density(self, prefix: Path, g) -> Fraction:
        """Signal density P(G=g | node) / P(G=g)."""
        return self.cond_signal_prob(prefix, g) / self.signal_prob(g)

    def _normalize_signal(self, signal: Mapping) -> tuple:
        """The labels of terminal ups 0..periods, in that order."""
        missing = [j for j in range(self.periods + 1) if j not in signal]
        if missing:
            raise ValueError(f"signal missing terminal ups {missing}")
        stray = [j for j in signal if j not in range(self.periods + 1)]
        if stray:
            raise ValueError(f"signal key {stray[0]!r} is not a terminal ups count "
                             f"0..{self.periods}")
        return tuple(signal[j] for j in range(self.periods + 1))

    def _conditional_signal_probs(self) -> dict:
        """{(ups, steps): {g: P(G=g | node)}}, by backward recursion over the nodes.

        The signal depends on a path only through its terminal ups, so
        every prefix with j ups in t steps has the same conditional law.
        """
        n, up, down = self.periods, self.p_up, 1 - self.p_up
        cond: dict = {(j, n): {g: Fraction(1)} for j, g in enumerate(self.labels)}
        for t in range(n - 1, -1, -1):
            for j in range(t + 1):
                merged = {g: up * pr for g, pr in cond[j + 1, t + 1].items()}
                for g, pr in cond[j, t + 1].items():
                    merged[g] = merged[g] + down * pr if g in merged else down * pr
                cond[j, t] = merged
        return cond

    @staticmethod
    def _check_equivalence(labels: tuple, periods: int, hedge_horizon: int) -> str:
        """Why a signal value has zero probability at a node before the horizon, or ""
        when none has.

        With 0 < p_up < 1, P(G=g | node) = 0 exactly when no terminal ups
        count the node can reach is labelled g, so this reads the labels
        only and takes no arithmetic.  The reason names the first such
        node in _paths order: at the earliest time t, the node with the
        fewest ups j, whose first path is t - j downs then j ups.
        """
        values = sorted(set(labels))
        for t in range(hedge_horizon + 1):
            for j in range(t + 1):
                reachable = set(labels[j:j + periods - t + 1])
                missing = [g for g in values if g not in reachable]
                if missing:
                    word = "d" * (t - j) + "u" * j or "(root)"
                    return (f"signal value {missing[0]!r} unreachable from node {word} at time "
                            f"{t}: conditional signal law not equivalent to the prior")
        return ""


@dataclass(frozen=True)
class TreeAtom:
    """One (horizon node, signal value) atom with all exact densities."""

    prefix: Path
    g: object
    prob: Fraction          # P(prefix and G=g)
    z_f: Fraction           # risk-neutral density on the node
    p_g: Fraction           # signal density P(G=g|node)/P(G=g)
    qg_density: Fraction    # z_f / p_g
    h: Fraction             # payoff on the node
    d_star: Fraction        # h * qg_density / E_QG[H]


@dataclass(frozen=True)
class AtomTable:
    """Horizon atoms of a market, with each signal value's law of D derived once.

    The conditional law of D and its threshold candidates, per signal
    value, are derived from `atoms` whenever a table is made, so a table
    made by `dataclasses.replace` carries its own.
    """

    market: TreeMarket
    atoms: tuple
    e_qg_h: Fraction
    _laws: dict = field(init=False, repr=False, compare=False)
    _candidates: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        by_g: dict = {}
        for a in self.atoms:
            by_g.setdefault(a.g, []).append(a)
        laws = {}
        for g, atoms in by_g.items():
            pg = sum(a.prob for a in atoms)
            laws[g] = tuple(sorted(((a.prefix, a.d_star, a.prob / pg) for a in atoms),
                                   key=lambda item: item[1]))
        object.__setattr__(self, "_laws", laws)
        object.__setattr__(self, "_candidates",
                           {g: _threshold_candidates(law) for g, law in laws.items()})


def build_atom_table(m: TreeMarket) -> AtomTable:
    """Exact per-atom densities for the market.

    z is TreeMarket.rn_density on the horizon node, p_g its
    signal_density; D = h z / (p_g E_QG[H]).
    """
    e_qf_h = sum(m.qf_prob(prefix) * m.payoff[sum(prefix)] for prefix in _paths(m.hedge_horizon))
    if e_qf_h <= 0:
        raise ValueError("payoff has zero risk-neutral expectation; D is undefined")
    atoms = []
    for prefix in _paths(m.hedge_horizon):
        z = m.rn_density(prefix)
        h = m.payoff[sum(prefix)]
        for g in m.signal_values:
            p_g = m.signal_density(prefix, g)
            qg = z / p_g
            atoms.append(TreeAtom(
                prefix=prefix, g=g,
                prob=m.prob(prefix) * m.cond_signal_prob(prefix, g),
                z_f=z, p_g=p_g, qg_density=qg, h=h,
                d_star=h * qg / e_qf_h,
            ))
    total_p = sum(a.prob for a in atoms)
    total_qg = sum(a.prob * a.qg_density for a in atoms)
    if not (total_p == 1 and total_qg == 1):
        raise AssertionError(f"atom masses do not normalize: P={total_p}, Q_G={total_qg}")
    return AtomTable(market=m, atoms=tuple(atoms), e_qg_h=e_qf_h)


def _insider_mass(table: AtomTable) -> dict:
    """Insider-measure mass of every enlarged atom (prefix, g) up to the horizon.

    Horizon atoms carry prob * qg_density; earlier ones sum their two
    children, from the horizon back to the root.
    """
    m = table.market
    mass = {(a.prefix, a.g): a.prob * a.qg_density for a in table.atoms}
    for t in range(m.hedge_horizon - 1, -1, -1):
        for prefix in _paths(t):
            for g in m.signal_values:
                mass[(prefix, g)] = mass[(prefix + (1,), g)] + mass[(prefix + (0,), g)]
    return mass


@dataclass(frozen=True)
class TheoremReport:
    passed: bool
    n_checks: int
    failures: tuple


def verify_theorems(table: AtomTable) -> TheoremReport:
    """Machine-check the change-of-measure identities on the table.

    (a) horizon nodes and signal are independent under the insider measure;
    (b) its marginals are the risk-neutral law on nodes and the prior on
        signal values;
    (c) z/p is a martingale under P on the enlarged tree (all one-step
        conditional expectations up to the horizon);
    (d) the price is a martingale under the insider measure on the
        enlarged tree, so every nonnegative horizon target is
        replicable there;
    (e) the tilted density D has unit conditional mass given each signal
        value.

    Every check is an exact equality; the report lists every violated
    identity with the offending atom.
    """
    m = table.market
    th = m.hedge_horizon
    failures = []
    n_checks = 0

    mass = _insider_mass(table)
    qg_node = {prefix: sum(mass[(prefix, g)] for g in m.signal_values) for prefix in _paths(th)}
    qg_sig = {g: mass[((), g)] for g in m.signal_values}

    # (a) product form of the insider measure on atoms
    for a in table.atoms:
        n_checks += 1
        if mass[(a.prefix, a.g)] != qg_node[a.prefix] * qg_sig[a.g]:
            failures.append(f"(a) independence fails at atom ({a.prefix}, {a.g!r})")

    # (b) marginals
    for prefix in _paths(th):
        n_checks += 1
        if qg_node[prefix] != m.qf_prob(prefix):
            failures.append(f"(b) node marginal differs from risk-neutral law at {prefix}")
    for g in m.signal_values:
        n_checks += 1
        if qg_sig[g] != m.signal_prob(g):
            failures.append(f"(b) signal marginal differs from prior at {g!r}")

    # (c) z/p martingale under P on the enlarged tree; z/p is a node value, tabulated once
    z_over_p = {(j, t, g): m.rn_density(node) / m.signal_density(node, g)
                for t in range(th + 1) for j in range(t + 1)
                for node in [(1,) * j + (0,) * (t - j)] for g in m.signal_values}

    for t in range(th):
        for prefix in _paths(t):
            for g in m.signal_values:
                n_checks += 1
                cond_here = m.cond_signal_prob(prefix, g)
                expect = sum(
                    pm * m.cond_signal_prob(prefix + (mv,), g) / cond_here
                    * z_over_p[sum(prefix) + mv, t + 1, g]
                    for mv, pm in ((1, m.p_up), (0, 1 - m.p_up))
                )
                if expect != z_over_p[sum(prefix), t, g]:
                    failures.append(f"(c) z/p not a martingale at ({prefix}, {g!r})")

    # (d) price martingale under the insider measure on the enlarged tree
    for t in range(th):
        for prefix in _paths(t):
            for g in m.signal_values:
                n_checks += 1
                expect = sum(
                    mass[(prefix + (mv,), g)] * m.price(prefix + (mv,)) for mv in (0, 1)
                ) / mass[(prefix, g)]
                if expect != m.price(prefix):
                    failures.append(f"(d) price not a QG-martingale at ({prefix}, {g!r})")

    # (e) unit conditional mass of D
    for g in m.signal_values:
        n_checks += 1
        pg = sum(a.prob for a in table.atoms if a.g == g)
        mean_d = sum(a.prob * a.d_star for a in table.atoms if a.g == g) / pg
        if mean_d != 1:
            failures.append(f"(e) E[D | G={g!r}] = {mean_d} != 1")

    return TheoremReport(passed=not failures, n_checks=n_checks, failures=tuple(failures))


def perturb_atom(table: AtomTable) -> AtomTable:
    """Negative control: the first atom's insider density nudged by a factor 1 + 10^-6."""
    first, *rest = table.atoms
    nudged = replace(first, qg_density=first.qg_density * (1 + Fraction(1, 10**6)))
    return replace(table, atoms=(nudged, *rest))


# ---------------------------------------------------------------------------
# exact threshold solving and brute-force optimality
# ---------------------------------------------------------------------------

def _of_signal_value(by_g: dict, g):
    try:
        return by_g[g]
    except (KeyError, TypeError):
        raise ValueError(f"unknown signal value {g!r}") from None


def conditional_law(table: AtomTable, g) -> tuple:
    """((prefix, d_star, P(prefix | G=g)), ...), sorted by d_star."""
    return _of_signal_value(table._laws, g)


def _threshold_candidates(law) -> tuple:
    """(k, P(D<=k), E[D 1{D<=k}]) at k = 0 and at each distinct value of D."""
    zero = Fraction(0)
    cands = [(zero, zero, zero)]
    cum_p, cum_cost = zero, zero
    for i, (_, d, pc) in enumerate(law):
        cum_p = cum_p + pc
        cum_cost = cum_cost + pc * d
        last_of_group = i + 1 == len(law) or law[i + 1][1] != d
        if last_of_group:
            if d == 0:
                cands[0] = (zero, cum_p, cum_cost)
            else:
                cands.append((d, cum_p, cum_cost))
    return tuple(cands)


def achievable_levels(table: AtomTable, g):
    """Exactly attainable (success probability, capital fraction) pairs."""
    return [(cp, cc) for _, cp, cc in _of_signal_value(table._candidates, g)]


@dataclass(frozen=True)
class ExactHedge:
    """Threshold solution on the exact conditional law.

    `exact` is False when atoms of D prevent hitting the target level;
    the fields then hold the conservative attainable solution.
    """

    k: object
    alpha: object
    success_prob: object
    exact: bool


def exact_quantile_hedge(table: AtomTable, g, *, epsilon=None, alpha=None) -> ExactHedge:
    """Solve either problem exactly on the conditional law of D given G=g.

    The law and the target are rational, so every comparison with the
    target is exact.  A float target raises TypeError: no float stands
    exactly for a level such as 9/13, and its binary value lies to one
    side of it.
    """
    if (epsilon is None) == (alpha is None):
        raise ValueError("pass exactly one of epsilon= / alpha=")
    target = alpha if epsilon is None else epsilon
    if not isinstance(target, (int, Fraction)):
        raise TypeError(f"target must be an int or a Fraction, got {target!r}")
    cands = _of_signal_value(table._candidates, g)
    # both columns are nondecreasing in k, so one bisection finds the candidate
    if epsilon is not None:
        if not 0 <= epsilon <= 1:
            raise ValueError("epsilon must be in [0,1]")
        # the first candidate with P(D<=k) >= 1 - epsilon
        i = bisect.bisect_left(cands, 1 - epsilon, key=itemgetter(1))
        sel = cands[min(i, len(cands) - 1)]
    else:
        if not 0 <= alpha <= 1:
            raise ValueError("alpha must be in [0,1]")
        # the last candidate with E[D 1{D<=k}] <= alpha, else the first
        i = bisect.bisect_right(cands, alpha, key=itemgetter(2))
        sel = cands[max(i - 1, 0)]
    k, cum_p, cum_cost = sel
    hit = (cum_p == 1 - epsilon) if epsilon is not None else (cum_cost == alpha)
    return ExactHedge(k=k, alpha=cum_cost, success_prob=cum_p, exact=bool(hit))


def _scaled(values) -> tuple:
    """(the values times the lcm of their denominators, as ints; that lcm)."""
    scale = math.lcm(*(v.denominator for v in values))
    return tuple(v.numerator * (scale // v.denominator) for v in values), scale


def _subset_sums(atoms) -> list:
    """(success, cost) of every subset of the (success, cost) int pairs, up to interchange.

    Atoms with equal pairs are interchangeable (the paths of one node
    always are), so a subset is listed once per count it takes of each
    pair: one running list, grown group by group.
    """
    sums = [(0, 0)]
    for (p_atom, c_atom), count in Counter(atoms).items():
        sums = [(p_a + j * p_atom, cost + j * c_atom)
                for p_a, cost in sums for j in range(count + 1)]
    return sums


def exhaustive_optimality_check(table: AtomTable, g) -> tuple:
    """Brute-force both problems at every achievable level of g.

    Enumerates every subset of g's conditional horizon atoms once, up to
    the interchange of atoms with equal success and cost.  At
    each achievable level (P, alpha) no set affordable at the budget
    alpha may beat the solver's success probability, and the cheapest
    set with success probability >= P must cost the solver's capital
    fraction at epsilon = 1 - P.  Between levels non-threshold sets can
    win, so only achievable levels (the theorem's existence hypothesis)
    are checked.  Returns the failures, each naming g, the side and the
    level; empty when every level passes.

    Success probabilities are summed in units of 1/p_scale and costs in
    units of 1/c_scale, each the lcm of its column's denominators, so
    every subset sum is an int.  A rational bound is rounded toward the
    side that keeps each int comparison equal to the rational one.
    """
    law = conditional_law(table, g)
    if len(law) > ENUM_ATOM_LIMIT:
        raise ValueError(f"{len(law)} conditional atoms exceed the enumeration bound "
                         f"{ENUM_ATOM_LIMIT}")
    probs, p_scale = _scaled([pc for _, _, pc in law])
    costs, c_scale = _scaled([pc * d for _, d, pc in law])
    levels = achievable_levels(table, g)
    # p >= level iff p >= ceil(level); cost <= budget iff cost <= floor(budget);
    # p > best iff p > floor(best)
    bounds = [(math.ceil(level * p_scale), math.floor(budget * c_scale),
               math.floor(exact_quantile_hedge(table, g, alpha=budget).success_prob * p_scale))
              for level, budget in levels]
    beaten = [False] * len(levels)
    cheapest = [None] * len(levels)
    for p_a, cost in _subset_sums(tuple(zip(probs, costs))):
        for i, (level, budget, best) in enumerate(bounds):
            if cost <= budget and p_a > best:
                beaten[i] = True
            if p_a >= level and (cheapest[i] is None or cost < cheapest[i]):
                cheapest[i] = cost
    failures = []
    for (level, budget), over_budget, cost in zip(levels, beaten, cheapest):
        if over_budget:
            failures.append(f"budget optimality at g={g!r}, alpha={budget}")
        if cost != exact_quantile_hedge(table, g, epsilon=1 - level).alpha * c_scale:
            failures.append(f"shortfall optimality at g={g!r}, 1-eps={level}")
    return tuple(failures)


# ---------------------------------------------------------------------------
# random and reference instances
# ---------------------------------------------------------------------------

def random_market(seed: int) -> TreeMarket:
    """Seeded random instance for the verification suite.

    u in (1.1, 3) with d = 1/u, physical up probability in (0.2, 0.8),
    2-4 periods, horizon strictly inside, signal 1{terminal price in B}
    with B resampled until the equivalence condition holds, and a call
    payoff struck strictly inside the horizon price range.  A negative
    seed raises ValueError: random.Random seeds -s exactly as s.
    """
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed} (a negative seed "
                         "repeats the market of its absolute value)")
    rng = random.Random(seed)
    for _ in range(500):
        ups = rng.randint(111, 299)
        p_up = rng.randint(21, 79)
        n = rng.choice((2, 3, 4))
        th = rng.randint(1, n - 1)
        labels = tuple(rng.randint(0, 1) for _ in range(n + 1))
        if len(set(labels)) < 2:
            continue
        # the th + 1 horizon prices u^(2j - th) rise with j: the strike sits in pair i
        i = rng.randrange(th)
        # a refused signal costs no Fraction arithmetic
        if TreeMarket._check_equivalence(labels, n, th):
            continue
        u = Fraction(ups, 100)
        strike = (u ** (2 * i - th) + u ** (2 * i + 2 - th)) / 2
        payoff = {j: max(u ** (2 * j - th) - strike, Fraction(0)) for j in range(th + 1)}
        return TreeMarket(
            periods=n, hedge_horizon=th, u=u, d=1 / u, p_up=Fraction(p_up, 100), s0=1,
            payoff=payoff, signal=dict(enumerate(labels)),
        )
    raise RuntimeError(f"no valid market found for seed {seed}")


def reference_market() -> TreeMarket:
    """Two-period market used as the worked example throughout the tests.

    u=2, d=1/2, p_up=3/5, s0=1, horizon 1, payoff (S_1 - 1)^+, signal
    1{S_2 = 1}.
    """
    return TreeMarket(
        periods=2, hedge_horizon=1, u=2, d=Fraction(1, 2), p_up=Fraction(3, 5), s0=1,
        payoff={0: 0, 1: 1},
        signal={0: 0, 1: 1, 2: 0},  # terminal ups -> 1{S_2 == 1}
    )


# ---------------------------------------------------------------------------
# verification suite
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OracleReport:
    passed: bool
    lines: tuple


def _check_instance(name: str, market: TreeMarket) -> tuple[bool, str]:
    table = build_atom_table(market)
    report = verify_theorems(table)
    if not report.passed:
        return False, f"{name}: FAIL {report.failures[0]}"
    n_levels = 0
    for g in market.signal_values:
        n_levels += len(achievable_levels(table, g))
        failures = exhaustive_optimality_check(table, g)
        if failures:
            return False, f"{name}: FAIL {failures[0]}"
    return True, f"{name}: ok ({report.n_checks} identities, {n_levels} exhaustive levels)"


def run_oracle_suite(seed: int, instance_count: int) -> OracleReport:
    """Reference market, negative control, and seeded random instances.

    Passes only when every identity holds exactly, every achievable
    level is solved optimally (verified by subset enumeration), the
    known threshold non-existence case is flagged rather than
    mis-solved, and the deliberately corrupted table is rejected.
    Instance i is random_market(seed + i), so seed must be >= 0.
    """
    if seed < 0:
        raise ValueError(f"oracle seed must be >= 0, got {seed} (a negative seed "
                         "repeats the instances of its absolute value)")
    if instance_count < 1:
        raise ValueError("instance_count must be >= 1")
    lines: list[str] = []
    passed = True

    ref = reference_market()
    ok, line = _check_instance("reference", ref)
    passed &= ok
    lines.append(line)

    table = build_atom_table(ref)
    flagged = exact_quantile_hedge(table, 1, epsilon=Fraction(1, 4))
    if flagged.exact:
        passed = False
        lines.append("reference: FAIL epsilon=1/4 should have no exact threshold")
    else:
        lines.append("reference: non-existence case flagged (epsilon=1/4, conservative "
                     f"success={flagged.success_prob})")

    mutated = perturb_atom(table)
    if verify_theorems(mutated).passed:
        passed = False
        lines.append("negative-control: FAIL mutation not detected")
    else:
        lines.append("negative-control: mutation detected")

    for i in range(instance_count):
        ok, line = _check_instance(f"instance {i:03d}", random_market(seed + i))
        passed &= ok
        lines.append(line)

    lines.append(f"oracle suite: {'PASS' if passed else 'FAIL'} "
                 f"({instance_count} random instances)")
    return OracleReport(passed=passed, lines=tuple(lines))
