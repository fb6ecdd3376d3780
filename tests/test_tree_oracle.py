import itertools
from dataclasses import replace
from fractions import Fraction as F

import pytest

from insider_hedge import (
    TreeMarket,
    build_atom_table,
    exact_quantile_hedge,
    exhaustive_optimality_check,
    random_market,
    reference_market,
    verify_theorems,
)
from insider_hedge import tree_oracle
from insider_hedge.tree_oracle import achievable_levels, conditional_law, perturb_atom


def brute_force_reference_atoms():
    """Independent enumeration of the worked market over its four paths.

    u=2 d=1/2 p=3/5 s0=1, horizon 1, payoff (S_1-1)^+, G = 1{S_2=1}.
    Everything recomputed from the definitions, without the tree module.
    """
    p_up, q = F(3, 5), F(1, 3)
    paths = list(itertools.product((0, 1), repeat=2))
    prob = {pth: (p_up if pth[0] else 1 - p_up) * (p_up if pth[1] else 1 - p_up)
            for pth in paths}
    s2 = {pth: F(2) ** (2 * sum(pth) - 2) for pth in paths}
    g = {pth: int(s2[pth] == 1) for pth in paths}
    pg = {v: sum(prob[pth] for pth in paths if g[pth] == v) for v in (0, 1)}
    atoms = {}
    for first in (0, 1):
        z = (q / p_up) if first else ((1 - q) / (1 - p_up))
        h = F(1) if first else F(0)
        for v in (0, 1):
            joint = sum(prob[pth] for pth in paths if pth[0] == first and g[pth] == v)
            p_cond = joint / (p_up if first else 1 - p_up)
            p_dens = p_cond / pg[v]
            atoms[((first,), v)] = dict(prob=joint, z=z, p=p_dens, qg=z / p_dens, h=h)
    e_h = q * 1  # E_QF[(S_1 - 1)^+]
    for a in atoms.values():
        a["d"] = a["h"] * a["qg"] / e_h
    return atoms, e_h


class TestReferenceMarket:
    def test_atoms_match_independent_enumeration(self):
        table = build_atom_table(reference_market())
        want, e_h = brute_force_reference_atoms()
        assert table.e_qg_h == e_h == F(1, 3)
        assert len(table.atoms) == 4
        for a in table.atoms:
            w = want[(a.prefix, a.g)]
            assert (a.prob, a.z_f, a.p_g, a.qg_density, a.h, a.d_star) == (
                w["prob"], w["z"], w["p"], w["qg"], w["h"], w["d"])

    def test_frozen_values(self):
        table = build_atom_table(reference_market())
        by_key = {(a.prefix, a.g): a for a in table.atoms}
        assert by_key[((1,), 1)].z_f == F(5, 9)
        assert by_key[((0,), 1)].z_f == F(5, 3)
        assert by_key[((1,), 1)].p_g == F(5, 6)
        assert by_key[((0,), 1)].p_g == F(5, 4)
        assert by_key[((1,), 0)].p_g == F(15, 13)
        assert by_key[((0,), 0)].p_g == F(10, 13)
        qg_atoms = {k: a.prob * a.qg_density for k, a in by_key.items()}
        assert qg_atoms[((1,), 1)] == F(4, 25)       # 0.16
        assert qg_atoms[((1,), 0)] == F(13, 75)      # 0.173333
        assert qg_atoms[((0,), 1)] == F(8, 25)       # 0.32
        assert qg_atoms[((0,), 0)] == F(26, 75)      # 0.346667
        assert sum(qg_atoms.values()) == 1

    def test_conditional_laws_of_d(self):
        table = build_atom_table(reference_market())
        law1 = conditional_law(table, 1)
        assert [(d, pc) for _, d, pc in law1] == [(F(0), F(1, 2)), (F(2), F(1, 2))]
        law0 = conditional_law(table, 0)
        assert [(d, pc) for _, d, pc in law0] == [(F(0), F(4, 13)), (F(13, 9), F(9, 13))]
        # unit conditional mass, exactly
        assert sum(d * pc for _, d, pc in law1) == 1
        assert sum(d * pc for _, d, pc in law0) == 1


class TestVerifyTheorems:
    def test_reference_passes(self):
        report = verify_theorems(build_atom_table(reference_market()))
        assert report.passed, report.failures
        assert report.n_checks >= 14

    def test_constant_signal_reduces_to_risk_neutral(self):
        m = TreeMarket(periods=1, hedge_horizon=1, u=2, d=F(1, 2), p_up=F(3, 5), s0=1,
                       payoff={0: 0, 1: 1}, signal={0: 7, 1: 7})
        table = build_atom_table(m)
        for a in table.atoms:
            assert a.p_g == 1
            assert a.qg_density == a.z_f
        assert verify_theorems(table).passed

    def test_physical_equals_risk_neutral(self):
        # p_up = q makes z identically one
        m = TreeMarket(periods=2, hedge_horizon=1, u=2, d=F(1, 2), p_up=F(1, 3), s0=1,
                       payoff={0: 0, 1: 1}, signal={0: 0, 1: 1, 2: 0})
        table = build_atom_table(m)
        assert all(a.z_f == 1 for a in table.atoms)
        assert verify_theorems(table).passed

    def test_negative_control_detected(self):
        table = build_atom_table(reference_market())
        mutated = perturb_atom(table)
        report = verify_theorems(mutated)
        assert not report.passed
        assert any("(a)" in f or "(b)" in f for f in report.failures)

    @pytest.mark.parametrize("identity", ["(c)", "(d)", "(e)"])
    def test_each_broken_identity_is_named_alone(self, monkeypatch, identity):
        market = reference_market()
        table = build_atom_table(market)
        nudge = 1 + F(1, 10**6)
        if identity == "(e)":
            # atom 2 is ((1,), 0), in the money; atoms 0 and 1 have D = 0
            atoms = list(table.atoms)
            atoms[2] = replace(atoms[2], d_star=atoms[2].d_star * nudge)
            table = replace(table, atoms=tuple(atoms))
        else:
            # (c) reads the node density, (d) the price; the root value only
            name = "rn_density" if identity == "(c)" else "price"
            exact = getattr(market, name)
            monkeypatch.setattr(market, name,
                                lambda prefix: exact(prefix) * (nudge if prefix == () else 1))
        failures = verify_theorems(table).failures
        assert failures and all(f.startswith(identity) for f in failures), failures
        if identity != "(e)":
            assert all(" at ((), " in f for f in failures), failures

    def test_random_instances_pass(self):
        for seed in range(20):
            table = build_atom_table(random_market(seed))
            report = verify_theorems(table)
            assert report.passed, f"seed {seed}: {report.failures}"


def thirteen_period_market():
    # deeper than any market the suite draws: every value must still be a Fraction
    return TreeMarket(periods=13, hedge_horizon=4, u=F(3, 2), d=F(2, 3), p_up=F(11, 20), s0=1,
                      payoff={j: max(F(3, 2) ** (2 * j - 4) - 1, F(0)) for j in range(5)},
                      signal={j: j % 3 for j in range(14)})


class TestRationalArithmetic:
    @pytest.mark.parametrize("market", [*(random_market(seed) for seed in range(20)),
                                        thirteen_period_market()],
                             ids=[*(f"random{seed}" for seed in range(20)), "periods13"])
    def test_every_value_is_a_fraction(self, market):
        table = build_atom_table(market)
        assert type(table.e_qg_h) is F
        for a in table.atoms:
            assert all(type(v) is F for v in (a.prob, a.z_f, a.p_g, a.qg_density, a.h, a.d_star))
        report = verify_theorems(table)
        assert report.passed, report.failures


REFERENCE_INPUTS = dict(periods=2, hedge_horizon=1, u=2, d=F(1, 2), p_up=F(3, 5), s0=1,
                        payoff={0: 0, 1: 1}, signal={0: 0, 1: 1, 2: 0})


class TestMarketInputs:
    @pytest.mark.parametrize("field, value", [("u", 2.0), ("p_up", "3/5"),
                                              ("payoff", {0: 0, 1: 0.5})])
    def test_inexact_input_rejected(self, field, value):
        with pytest.raises(TypeError, match="ints or Fractions"):
            TreeMarket(**{**REFERENCE_INPUTS, field: value})

    @pytest.mark.parametrize("field, value, message", [
        ("payoff", {0: 0, 1: 1, 7: 5, -1: 3}, "payoff key 7 is not a horizon ups count 0..1"),
        ("signal", {0: 0, 1: 1, 2: 0, 9: 1}, "signal key 9 is not a terminal ups count 0..2"),
    ])
    def test_stray_key_rejected(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            TreeMarket(**{**REFERENCE_INPUTS, field: value})

    def test_path_keyed_signal_rejected(self):
        # signals are keyed by the number of terminal ups only
        signal = {path: int(sum(path) == 1) for path in itertools.product((0, 1), repeat=2)}
        with pytest.raises(ValueError, match=r"signal missing terminal ups \[0, 1, 2\]"):
            TreeMarket(**{**REFERENCE_INPUTS, "signal": signal})


class TestEquivalenceValidation:
    def test_revealing_signal_rejected(self):
        # 1{S_2 >= 2} is settled by the first move on the down branch
        with pytest.raises(ValueError, match="node d at time 1"):
            TreeMarket(periods=2, hedge_horizon=1, u=2, d=F(1, 2), p_up=F(3, 5), s0=1,
                       payoff={0: 0, 1: 1}, signal={0: 0, 1: 0, 2: 1})

    def test_signal_at_horizon_rejected(self):
        # hedge_horizon == periods means the signal is horizon-measurable
        with pytest.raises(ValueError, match="not equivalent"):
            TreeMarket(periods=2, hedge_horizon=2, u=2, d=F(1, 2), p_up=F(3, 5), s0=1,
                       payoff={0: 0, 1: 0, 2: 3}, signal={0: 0, 1: 1, 2: 0})

    def test_constant_signal_at_horizon_allowed(self):
        m = TreeMarket(periods=1, hedge_horizon=1, u=2, d=F(1, 2), p_up=F(1, 2), s0=1,
                       payoff={0: 0, 1: 1}, signal={0: 0, 1: 0})
        assert build_atom_table(m) is not None

    def test_zero_payoff_rejected(self):
        m = TreeMarket(periods=2, hedge_horizon=1, u=2, d=F(1, 2), p_up=F(3, 5), s0=1,
                       payoff={0: 0, 1: 0}, signal={0: 0, 1: 1, 2: 0})
        with pytest.raises(ValueError, match="zero risk-neutral expectation"):
            build_atom_table(m)


def brute_cond_signal_prob(periods, p_up, labels, prefix, g) -> F:
    """P(G = g | prefix): the sum over every terminal path through prefix labelled g."""
    rest = periods - len(prefix)
    total = F(0)
    for suffix in itertools.product((0, 1), repeat=rest):
        if labels[sum(prefix) + sum(suffix)] == g:
            total += p_up ** sum(suffix) * (1 - p_up) ** (rest - sum(suffix))
    return total


def parity_market():
    return TreeMarket(periods=6, hedge_horizon=3, u=2, d=F(1, 2), p_up=F(2, 7), s0=1,
                      payoff={j: j for j in range(4)}, signal={j: j % 2 for j in range(7)})


def first_unreachable(periods, horizon, p_up, labels):
    """(word, t, g) of the first zero P(G = g | node), scanning nodes in _paths order."""
    values = sorted(set(labels.values()))
    for t in range(horizon + 1):
        for prefix in itertools.product((0, 1), repeat=t):
            for g in values:
                if brute_cond_signal_prob(periods, p_up, labels, prefix, g) == 0:
                    word = "".join("u" if m else "d" for m in prefix) or "(root)"
                    return word, t, g
    return None


class TestSignalRecursion:
    def test_matches_sum_over_terminal_paths(self):
        markets = [*(random_market(seed) for seed in range(100)), reference_market(),
                   parity_market()]
        for m in markets:
            for t in range(m.periods + 1):
                for prefix in itertools.product((0, 1), repeat=t):
                    for g in m.signal_values:
                        want = brute_cond_signal_prob(m.periods, m.p_up, m.labels, prefix, g)
                        assert m.cond_signal_prob(prefix, g) == want, (m.periods, prefix, g)

    def test_refuses_exactly_the_zero_sums_at_the_first_node(self):
        # every signal on up to 3 values for periods 1..3, on 2 values for periods 4
        p_up = F(3, 5)
        refused = 0
        for periods, n_values in ((1, 3), (2, 3), (3, 3), (4, 2)):
            for values in itertools.product(range(n_values), repeat=periods + 1):
                labels = dict(enumerate(values))
                for horizon in range(1, periods + 1):
                    inputs = dict(periods=periods, hedge_horizon=horizon, u=2, d=F(1, 2),
                                  p_up=p_up, s0=1, payoff={j: j for j in range(horizon + 1)},
                                  signal=labels)
                    first = first_unreachable(periods, horizon, p_up, labels)
                    if first is None:
                        TreeMarket(**inputs)
                        continue
                    refused += 1
                    word, t, g = first
                    with pytest.raises(ValueError) as exc:
                        TreeMarket(**inputs)
                    assert str(exc.value) == (
                        f"signal value {g!r} unreachable from node {word} at time {t}: "
                        "conditional signal law not equivalent to the prior")
        assert refused > 100


class TestDerivedLaws:
    @pytest.fixture()
    def table(self):
        return build_atom_table(reference_market())

    def test_replaced_atoms_carry_their_own_law(self, table):
        # atom 2 is ((1,), 0), the only in-the-money atom given G = 0
        nudge = 1 + F(1, 10**6)
        atoms = list(table.atoms)
        atoms[2] = replace(atoms[2], d_star=atoms[2].d_star * nudge)
        nudged = replace(table, atoms=tuple(atoms))
        assert [(d, pc) for _, d, pc in conditional_law(nudged, 0)] == [
            (F(0), F(4, 13)), (F(13, 9) * nudge, F(9, 13))]
        assert achievable_levels(nudged, 0) == [(F(4, 13), 0), (1, nudge)]
        assert exact_quantile_hedge(nudged, 0, epsilon=0).alpha == nudge
        assert conditional_law(nudged, 1) == conditional_law(table, 1)
        # the original table keeps its own law
        assert achievable_levels(table, 0) == [(F(4, 13), 0), (1, 1)]
        assert conditional_law(perturb_atom(nudged), 0) == conditional_law(nudged, 0)

    def test_stored_law_is_immutable(self, table):
        law = conditional_law(table, 1)
        with pytest.raises(TypeError):
            law[0] = ((1,), F(5), F(1))
        with pytest.raises(AttributeError):
            law.append(((1,), F(5), F(1)))
        achievable_levels(table, 1).append((F(0), F(0)))
        assert conditional_law(table, 1) == (((0,), F(0), F(1, 2)), ((1,), F(2), F(1, 2)))
        assert achievable_levels(table, 1) == [(F(1, 2), 0), (1, 1)]

    @pytest.mark.parametrize("g", [2, "1", None, []])
    def test_unknown_signal_value(self, table, g):
        for call in (conditional_law, achievable_levels, exhaustive_optimality_check,
                     lambda t, v: exact_quantile_hedge(t, v, epsilon=F(1, 2))):
            with pytest.raises(ValueError, match="unknown signal value"):
                call(table, g)


class TestWorkDoneOnce:
    def test_random_market_runs_the_recursion_once(self, monkeypatch):
        checks, builds, recursions = [], [], []
        check = TreeMarket._check_equivalence
        build = TreeMarket.__init__
        recursion = TreeMarket._conditional_signal_probs
        monkeypatch.setattr(TreeMarket, "_check_equivalence",
                            staticmethod(lambda *args: checks.append(args) or check(*args)))
        monkeypatch.setattr(TreeMarket, "__init__",
                            lambda m, **kw: builds.append(m) or build(m, **kw))
        monkeypatch.setattr(TreeMarket, "_conditional_signal_probs",
                            lambda m: recursions.append(m) or recursion(m))
        for seed in range(100):
            market = random_market(seed)
            assert builds == recursions == [market], seed
            builds.clear()
            recursions.clear()
        # a refused signal is caught on its labels, before any market is built: more
        # signals were checked than the 100 built markets checked again
        assert len(checks) > 300

    def test_market_enumerates_no_path(self, monkeypatch):
        # the signal is kept per terminal ups count, so 30 periods cost no 2^30 paths
        def no_paths(length):
            raise AssertionError(f"enumerated the paths of length {length}")

        monkeypatch.setattr(tree_oracle, "_paths", no_paths)
        m = TreeMarket(periods=30, hedge_horizon=2, u=2, d=F(1, 2), p_up=F(1, 2), s0=1,
                       payoff={0: 0, 1: 0, 2: 3}, signal={j: j % 2 for j in range(31)})
        assert m.labels == (0, 1) * 15 + (0,)
        assert m.signal_values == (0, 1)
        assert m.signal_prob(1) == F(1, 2)

    def test_candidates_built_once_per_signal_value(self, monkeypatch):
        calls = []
        candidates = tree_oracle._threshold_candidates
        monkeypatch.setattr(tree_oracle, "_threshold_candidates",
                            lambda law: calls.append(law) or candidates(law))
        for seed in range(100):
            table = build_atom_table(random_market(seed))
            assert verify_theorems(table).passed
            for g in table.market.signal_values:
                conditional_law(table, g)
                achievable_levels(table, g)
                exact_quantile_hedge(table, g, epsilon=F(1, 10))
                exact_quantile_hedge(table, g, alpha=F(1, 2))
                assert exhaustive_optimality_check(table, g) == ()
            assert len(calls) == len(table.market.signal_values), seed
            calls.clear()


class TestExactQuantileHedge:
    @pytest.fixture()
    def table(self):
        return build_atom_table(reference_market())

    def test_half_epsilon_given_one(self, table):
        sol = exact_quantile_hedge(table, 1, epsilon=F(1, 2))
        assert sol.exact
        assert sol.k == 0 and sol.alpha == 0
        assert sol.success_prob == F(1, 2)

    def test_quarter_epsilon_flagged(self, table):
        sol = exact_quantile_hedge(table, 1, epsilon=F(1, 4))
        assert not sol.exact
        assert sol.success_prob == 1 and sol.alpha == 1

    def test_zero_epsilon_is_perfect_hedge(self, table):
        for g in (0, 1):
            sol = exact_quantile_hedge(table, g, epsilon=0)
            assert sol.exact and sol.alpha == 1 and sol.success_prob == 1

    def test_given_zero_success_at_zero_cost(self, table):
        sol = exact_quantile_hedge(table, 0, alpha=0)
        assert sol.exact
        assert sol.k == 0 and sol.alpha == 0
        assert sol.success_prob == F(4, 13)

    def test_attainable_rational_level_is_hit(self, table):
        # 9/13 = 1 - P(success) of the zero-capital plan given G = 0
        sol = exact_quantile_hedge(table, 0, epsilon=F(9, 13))
        assert sol.exact
        assert sol.k == 0 and sol.alpha == 0
        assert sol.success_prob == F(4, 13)

    @pytest.mark.parametrize("target", [{"epsilon": 9 / 13}, {"alpha": 0.5}])
    def test_float_target_rejected(self, table, target):
        # no float equals 9/13, and its binary value would miss the attainable level
        with pytest.raises(TypeError, match="int or a Fraction"):
            exact_quantile_hedge(table, 0, **target)

    def test_requires_single_target(self, table):
        with pytest.raises(ValueError):
            exact_quantile_hedge(table, 1)
        with pytest.raises(ValueError):
            exact_quantile_hedge(table, 1, epsilon=F(1, 2), alpha=F(1, 2))


class TestExhaustiveChecks:
    def test_reference_both_sides_at_every_level(self):
        table = build_atom_table(reference_market())
        # the budgets 0 and 1 are the achievable levels of both signal values
        assert achievable_levels(table, 1) == [(F(1, 2), 0), (1, 1)]
        assert achievable_levels(table, 0) == [(F(4, 13), 0), (1, 1)]
        for g in (0, 1):
            assert exhaustive_optimality_check(table, g) == ()

    def test_random_instances_all_achievable_levels(self):
        for seed in range(10):
            table = build_atom_table(random_market(seed))
            for g in table.market.signal_values:
                assert achievable_levels(table, g)
                assert exhaustive_optimality_check(table, g) == (), (seed, g)

    @pytest.mark.parametrize("target, failures", [
        ("alpha", ("budget optimality at g=1, alpha=0", "budget optimality at g=1, alpha=1")),
        # at the level 1/2 the empty set and the threshold set both cost 0
        ("epsilon", ("shortfall optimality at g=1, 1-eps=1",)),
    ])
    def test_solver_one_candidate_short_is_caught(self, short_solver, target, failures):
        # given G=1 the levels are (1/2, 0) and (1, 1); only the mutated side fails
        table = build_atom_table(reference_market())
        short_solver(target)
        assert exhaustive_optimality_check(table, 1) == failures

    def test_atom_limit_enforced(self):
        # 2^5 = 32 horizon atoms; the parity signal keeps every node alive
        m = TreeMarket(periods=10, hedge_horizon=5, u=2, d=F(1, 2), p_up=F(1, 2), s0=1,
                       payoff={j: max(F(2) ** (2 * j - 5) - 1, F(0)) for j in range(6)},
                       signal={j: j % 2 for j in range(11)})
        table = build_atom_table(m)
        with pytest.raises(ValueError, match="enumeration bound"):
            exhaustive_optimality_check(table, 1)


def fraction_optimality_check(table, g) -> tuple:
    """Independent reference for exhaustive_optimality_check: every subset summed in Fractions.

    The enumeration the module ran before it summed subsets in integers.
    It solves through tree_oracle.exact_quantile_hedge, so a patched
    solver reaches it as it reaches the module's check.
    """
    solve = tree_oracle.exact_quantile_hedge
    law = conditional_law(table, g)
    levels = achievable_levels(table, g)
    best = [solve(table, g, alpha=budget).success_prob for _, budget in levels]
    beaten = [False] * len(levels)
    cheapest = [None] * len(levels)
    for subset in itertools.product((0, 1), repeat=len(law)):
        chosen = [(d, pc) for bit, (_, d, pc) in zip(subset, law) if bit]
        p_a = sum((pc for _, pc in chosen), F(0))
        cost = sum((pc * d for d, pc in chosen), F(0))
        for i, (level, budget) in enumerate(levels):
            if cost <= budget and p_a > best[i]:
                beaten[i] = True
            if p_a >= level and (cheapest[i] is None or cost < cheapest[i]):
                cheapest[i] = cost
    failures = []
    for (level, budget), over_budget, cost in zip(levels, beaten, cheapest):
        if over_budget:
            failures.append(f"budget optimality at g={g!r}, alpha={budget}")
        if cost != solve(table, g, epsilon=1 - level).alpha:
            failures.append(f"shortfall optimality at g={g!r}, 1-eps={level}")
    return tuple(failures)


SUITE_MARKETS = pytest.mark.parametrize(
    "market", [reference_market, *(lambda seed=seed: random_market(seed) for seed in range(100))],
    ids=["reference", *(f"random{seed}" for seed in range(100))])


def near_tie_table():
    """Three atoms given G = 0 where a non-threshold set costs 1/10^20 over a budget.

    The threshold set {D <= 1/2} has success 1/4 at cost 1/8.  The set of
    the second atom alone has success 1/4 + 1/10^20 at cost 1/8 + 1/10^20:
    it is over that budget, by less than a float resolves.  E[D | G = 0] = 1.
    """
    tiny = F(1, 10**20)
    law = ((F(1, 2), F(1, 4)),
           ((F(1, 8) + tiny) / (F(1, 4) + tiny), F(1, 4) + tiny),
           ((F(3, 4) - tiny) / (F(1, 2) - tiny), F(1, 2) - tiny))
    base = build_atom_table(reference_market())
    atoms = tuple(replace(base.atoms[0], prefix=(i,), g=0, prob=pc, d_star=d)
                  for i, (d, pc) in enumerate(law))
    return replace(base, atoms=atoms)


class TestIntegerEnumeration:
    @SUITE_MARKETS
    def test_matches_fraction_reference(self, market):
        table = build_atom_table(market())
        for g in table.market.signal_values:
            assert exhaustive_optimality_check(table, g) == fraction_optimality_check(table, g)

    @pytest.mark.parametrize("target", ["alpha", "epsilon"])
    @SUITE_MARKETS
    def test_matches_fraction_reference_under_short_solver(self, short_solver, market, target):
        table = build_atom_table(market())
        short_solver(target)
        caught = 0
        for g in table.market.signal_values:
            failures = exhaustive_optimality_check(table, g)
            assert failures == fraction_optimality_check(table, g)
            caught += len(failures)
        assert caught

    def test_cost_gap_of_one_in_ten_to_the_twenty(self):
        table = near_tie_table()
        (_, d1, p1), (_, d2, p2), _ = conditional_law(table, 0)
        budget, over = p1 * d1, p2 * d2
        assert over - budget == F(1, 10**20) and p2 > p1
        # in floats the set over budget would tie with it and beat the solver
        assert float(over) == float(budget)
        assert sum(d * pc for _, d, pc in conditional_law(table, 0)) == 1
        assert achievable_levels(table, 0)[1] == (F(1, 4), budget)
        assert exhaustive_optimality_check(table, 0) == fraction_optimality_check(table, 0) == ()


def linear_scan(table, g, *, epsilon=None, alpha=None):
    """The solver's selection as a scan over every threshold candidate."""
    cands = tree_oracle._threshold_candidates(conditional_law(table, g))
    if epsilon is not None:
        sel = next((c for c in cands if c[1] >= 1 - epsilon), cands[-1])
    else:
        affordable = [c for c in cands if c[2] <= alpha]
        sel = affordable[-1] if affordable else cands[0]
    k, cum_p, cum_cost = sel
    hit = (cum_p == 1 - epsilon) if epsilon is not None else (cum_cost == alpha)
    return tree_oracle.ExactHedge(k=k, alpha=cum_cost, success_prob=cum_p, exact=hit)


class TestBisectedSolver:
    @SUITE_MARKETS
    def test_matches_linear_scan_around_every_candidate(self, market):
        table = build_atom_table(market())
        step = F(1, 10**9)
        for g in table.market.signal_values:
            for _, cum_p, cum_cost in tree_oracle._threshold_candidates(conditional_law(table, g)):
                for name, value in (("epsilon", 1 - cum_p), ("alpha", cum_cost)):
                    for target in (value - step, value, value + step, 0, 1):
                        if not 0 <= target <= 1:
                            continue
                        assert (exact_quantile_hedge(table, g, **{name: target})
                                == linear_scan(table, g, **{name: target})), (g, name, target)


class TestRandomMarket:
    def test_negative_seed_rejected(self):
        # random.Random(-5) seeds like Random(5)
        with pytest.raises(ValueError, match="seed must be >= 0, got -5"):
            random_market(-5)

    def test_deterministic(self):
        a = random_market(123)
        b = random_market(123)
        fields = ("periods", "hedge_horizon", "u", "d", "p_up", "s0", "payoff", "labels")
        assert [getattr(a, f) for f in fields] == [getattr(b, f) for f in fields]

    def test_valid_parameters(self):
        for seed in range(30):
            m = random_market(seed)
            assert 0 < m.d < 1 < m.u
            assert F(11, 10) < m.u < 3
            assert m.d == 1 / m.u
            assert F(1, 5) < m.p_up < F(4, 5)
            assert m.periods in (2, 3, 4)
            assert 1 <= m.hedge_horizon <= m.periods - 1
            assert len(m.labels) == m.periods + 1 and len(set(m.labels)) == 2
