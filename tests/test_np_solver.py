import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from insider_hedge import (
    AtomGapWarning,
    ConditionalBatch,
    PointValue,
    alpha_from_k,
    build_batch,
    interval_signal_from_prices,
    make_hedge_plan,
    point_signal_from_price,
    solve_k_for_alpha,
    solve_k_for_epsilon,
    success_prob_from_k,
)
from insider_hedge.np_solver import SortedD

INF = float("inf")


def synthetic_batch(d, e_qg_h: float = 1.0) -> ConditionalBatch:
    """Batch with prescribed tilted densities D for the solvers.

    Only the sorted view of D and the normalizer are meaningful: there
    are no draws, so the columns derived from w_t cannot be read.
    """
    d = np.asarray(d, dtype=float)
    return ConditionalBatch(
        signal=PointValue(0.0), mode=None, params=None, w_t=np.zeros(d.size),
        sorted_d=SortedD.from_sample(d), e_qg_h=e_qg_h,
    )


# the two conditional laws of D on the worked two-period tree market,
# represented as equal-weight samples
TREE_G1 = synthetic_batch([0.0, 0.0, 2.0, 2.0])
TREE_G0 = synthetic_batch([0.0] * 4 + [13.0 / 9.0] * 9)


class TestSolveKForEpsilon:
    def test_full_coverage_gives_max(self):
        b = synthetic_batch([0.1, 0.7, 0.3])
        assert solve_k_for_epsilon(b, 0.0) == 0.7

    def test_no_coverage_gives_zero(self):
        b = synthetic_batch([0.1, 0.7, 0.3])
        assert solve_k_for_epsilon(b, 1.0) == 0.0

    def test_tree_law_half(self):
        assert solve_k_for_epsilon(TREE_G1, 0.5) == 0.0

    def test_rank_has_no_float_noise(self):
        # 0.9 * 10^6 is not exact in binary; the rank must still be 900000
        d = np.arange(1, 1_000_001, dtype=float)
        b = synthetic_batch(d / d.sum() * 9e5)  # keeps values distinct
        k = solve_k_for_epsilon(b, 0.1)
        assert np.searchsorted(b.sorted_d.d, k, side="right") == 900_000

    def test_bad_epsilon(self):
        with pytest.raises(ValueError):
            solve_k_for_epsilon(TREE_G1, 1.5)


class TestAlphaFromK:
    def test_infinite_threshold_is_sample_mean(self):
        d = [0.2, 0.4, 0.9]
        est = alpha_from_k(synthetic_batch(d), INF)
        assert est.alpha == pytest.approx(np.mean(d), abs=1e-15)

    def test_zero_threshold_is_free(self):
        est = alpha_from_k(TREE_G1, 0.0)
        assert est.alpha == 0.0
        assert success_prob_from_k(TREE_G1, 0.0).prob == 0.5

    def test_clamped_to_unit(self):
        est = alpha_from_k(synthetic_batch([3.0, 5.0]), INF)
        assert est.alpha == 1.0

    def test_stderr_matches_direct_formula(self):
        rng = np.random.default_rng(0)
        d = rng.exponential(size=1000)
        b = synthetic_batch(d)
        k = 1.0
        est = alpha_from_k(b, k)
        y = np.where(d <= k, d, 0.0)
        assert est.alpha == pytest.approx(y.mean(), rel=1e-12)
        assert est.stderr == pytest.approx(y.std(ddof=1) / math.sqrt(1000), rel=1e-9)


class TestSuccessProbFromK:
    def test_trivial_levels(self):
        b = synthetic_batch([0.5, 1.5, 2.5])
        assert success_prob_from_k(b, INF).prob == 1.0
        assert success_prob_from_k(b, 0.0).prob == 0.0

    def test_tree_law_zero_threshold(self):
        assert success_prob_from_k(TREE_G0, 0.0).prob == pytest.approx(4.0 / 13.0)

    def test_stderr_is_binomial(self):
        b = synthetic_batch([0.0, 1.0, 1.0, 2.0])
        est = success_prob_from_k(b, 1.0)
        assert est.prob == 0.75
        assert est.stderr == pytest.approx(math.sqrt(0.75 * 0.25 / 4))


class TestSolveKForAlpha:
    def test_full_budget(self):
        b = synthetic_batch([0.1, 0.2, 0.3])
        k, attained = solve_k_for_alpha(b, 1.0)
        assert k == 0.3
        assert success_prob_from_k(b, k).prob == 1.0

    def test_zero_budget_tops_the_zero_atom(self):
        k, attained = solve_k_for_alpha(TREE_G1, 0.0)
        assert k == 0.0 and attained == 0.0
        assert success_prob_from_k(TREE_G1, k).prob == 0.5

    def test_zero_budget_without_zero_atom(self):
        b = synthetic_batch([0.5, 0.9])
        k, attained = solve_k_for_alpha(b, 0.0)
        assert k == 0.0 and attained == 0.0
        assert success_prob_from_k(b, k).prob == 0.0

    def test_ties_enter_together(self):
        # four equal values, each contributing 0.25: a budget of 0.6
        # affords only the zero atom since the tie group costs 1.0
        b = synthetic_batch([0.0, 1.0, 1.0, 1.0, 1.0])
        k, attained = solve_k_for_alpha(b, 0.6)
        assert k == 0.0 and attained == 0.0
        k, attained = solve_k_for_alpha(b, 0.8)
        assert k == 1.0 and attained == pytest.approx(0.8)

    def test_attained_never_exceeds_target(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            d = rng.exponential(size=200)
            d *= 0.9 / d.mean()
            b = synthetic_batch(d)
            target = rng.uniform(0, 1)
            _, attained = solve_k_for_alpha(b, target)
            assert attained <= target + 1e-15


class TestDuality:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(min_value=1e-3, max_value=1e3), min_size=2, max_size=60,
                    unique=True),
           st.floats(min_value=0.0, max_value=1.0))
    def test_round_trip_atom_free(self, values, epsilon):
        d = np.asarray(values)
        d *= 0.9 / d.mean()  # keep all prefix fractions clear of the clamp
        b = synthetic_batch(d)
        k1 = solve_k_for_epsilon(b, epsilon)
        a1 = alpha_from_k(b, k1).alpha
        k2, _ = solve_k_for_alpha(b, a1)
        assert k2 == k1

    def test_round_trip_on_random_batches(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            d = rng.exponential(size=rng.integers(2, 400))
            d *= 0.9 / d.mean()
            b = synthetic_batch(d)
            eps = float(rng.uniform(0, 1))
            k1 = solve_k_for_epsilon(b, eps)
            k2, _ = solve_k_for_alpha(b, alpha_from_k(b, k1).alpha)
            assert k2 == k1

    def test_monotone_in_targets(self):
        rng = np.random.default_rng(13)
        d = rng.exponential(size=5000)
        d *= 0.9 / d.mean()
        b = synthetic_batch(d)
        grid = np.linspace(0.0, 1.0, 21)
        alphas = [make_hedge_plan(b, epsilon=e).alpha for e in grid]
        assert all(a >= b_ for a, b_ in zip(alphas, alphas[1:]))
        succ = [make_hedge_plan(b, alpha=a).success_prob for a in grid]
        assert all(s <= s_ for s, s_ in zip(succ, succ[1:]))

    def test_coherence_bound(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            d = rng.exponential(size=300)
            b = synthetic_batch(d)
            eps = float(rng.uniform(0, 1))
            k = solve_k_for_epsilon(b, eps)
            assert success_prob_from_k(b, k).prob >= 1.0 - eps - 1.0 / 300

    def test_threshold_maps_are_monotone_in_k(self):
        rng = np.random.default_rng(19)
        d = rng.exponential(size=1000)
        b = synthetic_batch(d)
        ks = np.quantile(d, np.linspace(0, 1, 11))
        alphas = [alpha_from_k(b, k).alpha for k in ks]
        probs = [success_prob_from_k(b, k).prob for k in ks]
        assert alphas == sorted(alphas)
        assert probs == sorted(probs)


class TestMakeHedgePlan:
    def test_epsilon_plan_fields(self):
        b = synthetic_batch([0.0, 0.2, 0.5, 1.1], e_qg_h=2.5)
        plan = make_hedge_plan(b, epsilon=0.25)
        assert plan.epsilon_target == 0.25 and plan.alpha_target is None
        assert plan.k == 0.5
        assert plan.alpha == pytest.approx(0.7 / 4)
        assert plan.success_prob == 0.75
        assert plan.initial_capital == pytest.approx(plan.alpha * 2.5)
        assert plan.knockout_payoff == "H*1{D <= 0.5}"

    def test_alpha_plan_fields(self):
        b = synthetic_batch([0.0, 0.2, 0.5, 1.1])
        plan = make_hedge_plan(b, alpha=0.2)
        assert plan.alpha_target == 0.2 and plan.epsilon_target is None
        assert plan.k == 0.5
        assert plan.alpha == pytest.approx(0.7 / 4)

    def test_atom_gap_warns_not_errors(self):
        with pytest.warns(AtomGapWarning):
            plan = make_hedge_plan(TREE_G1, epsilon=0.25)
        # conservative side: attained success exceeds the 0.75 target
        assert plan.success_prob == 1.0
        assert plan.alpha == 1.0

    def test_no_warning_when_target_attainable(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", AtomGapWarning)
            plan = make_hedge_plan(TREE_G1, epsilon=0.5)
        assert plan.k == 0.0 and plan.alpha == 0.0 and plan.success_prob == 0.5

    def test_requires_exactly_one_target(self):
        with pytest.raises(ValueError):
            make_hedge_plan(TREE_G1)
        with pytest.raises(ValueError):
            make_hedge_plan(TREE_G1, epsilon=0.1, alpha=0.1)


def _held_bytes(batch) -> int:
    """Bytes of the ndarray buffers a batch keeps alive (a view counts its base)."""
    buffers = {}
    for value in vars(batch).values():
        for a in value if isinstance(value, tuple) else (value,):
            if isinstance(a, np.ndarray):
                while isinstance(a.base, np.ndarray):
                    a = a.base
                buffers[id(a)] = a.nbytes
    return sum(buffers.values())


class TestBatchState:
    @pytest.fixture(params=["point", "interval"])
    def batch(self, request, params):
        if request.param == "point":
            sig = point_signal_from_price(110.0, params)
        else:
            sig = interval_signal_from_prices(109.0, 111.0, params, observed=0)
        return build_batch(sig, None, 10**5, params, seed=5)

    def test_planning_does_not_mutate_the_batch(self, batch):
        before = dict(vars(batch))
        make_hedge_plan(batch, epsilon=0.1)
        make_hedge_plan(batch, alpha=0.1)
        after = vars(batch)
        assert after.keys() == before.keys()
        assert all(after[name] is value for name, value in before.items())

    def test_batch_holds_draws_and_sorted_view_only(self, batch):
        # w_t plus sorted D and its two prefix sums, 8 bytes each per draw
        make_hedge_plan(batch, epsilon=0.1)
        assert _held_bytes(batch) <= 32 * 10**5


class TestSortedView:
    def test_zero_atom_is_a_count(self):
        view = SortedD.from_sample([0.0, 0.7, 0.0, 0.2, 0.7])
        assert view.n == 5 and list(view.d) == [0.2, 0.7, 0.7]
        assert list(view.prefix) == list(np.cumsum([0.2, 0.7, 0.7]))
        assert view.count(0.0) == 2 and view.count(0.7) == 5

    def test_positives_with_sample_size(self):
        view = SortedD.from_sample([0.7, 0.2], 4)
        assert view.n == 4 and list(view.d) == [0.2, 0.7]
        assert SortedD.from_sample([], 3).count(0.0) == 3

    @pytest.mark.parametrize("bad", [[0.1, -1e-300, 0.2], [0.0, float("nan"), 1.0], [-INF]])
    def test_rejects_negative_or_nan(self, bad):
        with pytest.raises(ValueError, match="nonnegative and not NaN"):
            SortedD.from_sample(bad)

    def test_rejects_bad_sample_size(self):
        with pytest.raises(ValueError, match="empty batch"):
            SortedD.from_sample([])
        with pytest.raises(ValueError, match="below"):
            SortedD.from_sample([0.1, 0.2], 1)


def _solutions(batch, targets) -> list[str]:
    """Every solver output on the batch at each target, as exact reprs."""
    out = []
    for target in targets:
        k_eps = solve_k_for_epsilon(batch, target)
        k_alpha = solve_k_for_alpha(batch, target)
        out.append(repr((k_eps, k_alpha, alpha_from_k(batch, k_eps),
                         success_prob_from_k(batch, k_eps), alpha_from_k(batch, k_alpha.k),
                         success_prob_from_k(batch, k_alpha.k))))
        for kind in ("epsilon", "alpha"):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", AtomGapWarning)
                plan = make_hedge_plan(batch, **{kind: target})
            gap = [w.category is AtomGapWarning for w in caught]
            out.append(repr((plan, gap)))
    return out


def _brute_force_alpha(d, alpha: float) -> tuple[float, float]:
    """Scan every tie-group end of the full sorted sample for the last affordable one."""
    d = np.sort(np.asarray(d, dtype=float))
    n = d.size
    prefix = np.cumsum(d)
    best = (0.0, 0.0)
    for m in range(n):
        if (m == n - 1 or d[m + 1] > d[m]) and prefix[m] / n <= alpha:
            best = (float(d[m]), float(prefix[m] / n))
    return best


# nonnegative samples with many zeros and ties
TIE_HEAVY = st.lists(
    st.one_of(st.just(0.0), st.sampled_from([0.125, 0.5, 1.0, 3.0]),
              st.floats(min_value=1e-6, max_value=10.0)),
    min_size=1, max_size=60,
)
TARGETS = st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=4)


class TestZeroAtomEquivalence:
    @settings(max_examples=300, deadline=None)
    @given(TIE_HEAVY, TARGETS)
    def test_positive_view_solves_like_full_sample(self, values, targets):
        d = np.asarray(values)
        full = synthetic_batch(d, e_qg_h=1.7)
        positives = dataclasses.replace(full, sorted_d=SortedD.from_sample(d[d > 0], d.size))
        targets = [0.0, 1.0, *targets]
        assert _solutions(positives, targets) == _solutions(full, targets)

    @settings(max_examples=300, deadline=None)
    @given(TIE_HEAVY, TARGETS)
    def test_alpha_bisection_matches_group_scan(self, values, targets):
        b = synthetic_batch(values)
        for alpha in (0.0, 1.0, *targets):
            assert tuple(solve_k_for_alpha(b, alpha)) == _brute_force_alpha(values, alpha)

    def test_alpha_bisection_on_large_tie_groups(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            values = rng.choice([0.0, 0.25, 0.5, 0.75, 2.0], size=int(rng.integers(1, 500)))
            b = synthetic_batch(values)
            for alpha in rng.uniform(0.0, 1.0, size=5):
                assert tuple(solve_k_for_alpha(b, alpha)) == _brute_force_alpha(values, alpha)

    @pytest.mark.parametrize("strike, zeros", [(100000.0, "all"), (0.0, "none")])
    @pytest.mark.parametrize("n", [1, 5000])
    def test_edge_batches(self, params, strike, zeros, n):
        p = dataclasses.replace(params, strike=strike)
        batch = build_batch(point_signal_from_price(110.0, p), None, n, p, seed=3)
        view = batch.sorted_d
        assert view.n == n
        assert view.d.size == (0 if zeros == "all" else n)
        full = dataclasses.replace(batch, sorted_d=SortedD.from_sample(batch.d_star))
        targets = [0.0, 0.01, 0.1, 0.5, 1.0]
        assert _solutions(batch, targets) == _solutions(full, targets)
        if zeros == "all":
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", AtomGapWarning)
                plan = make_hedge_plan(batch, epsilon=0.1)
            assert (plan.k, plan.alpha, plan.success_prob) == (0.0, 0.0, 1.0)
