import bisect
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from insider_hedge.insider_signal import interval_signal_from_prices, point_signal_from_price
from insider_hedge.np_solver import (
    _PASS,
    _STRIDE,
    SortedD,
    alpha_from_k,
    make_hedge_plan,
    solve_k_for_alpha,
    solve_k_for_epsilon,
    success_prob_from_k,
)

from test_measure_engine import independent_d, reference_sums, seeded_batch, seeded_draws

INF = float("inf")


def synthetic_batch(d, e_qg_h: float = 1.0) -> SortedD:
    """The solvers' sorted view of prescribed tilted densities D."""
    return SortedD.from_sample(d, e_qg_h)


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
        assert np.searchsorted(b.d, k, side="right") == 900_000

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

    @pytest.mark.parametrize("k", [-1.0, -1e-300, float("nan")])
    def test_refuses_negative_or_nan_threshold(self, k):
        b = synthetic_batch([0.0, 0.5, 1.0, 2.0])
        with pytest.raises(ValueError, match="k must be nonnegative"):
            alpha_from_k(b, k)
        with pytest.raises(ValueError, match="k must be nonnegative"):
            success_prob_from_k(b, k)

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
        plan = make_hedge_plan(TREE_G1, epsilon=0.25)
        assert plan.atom_gap == "atom at k=2: success probability 1 attained for target 0.75"
        # conservative side: attained success exceeds the 0.75 target
        assert plan.success_prob == 1.0
        assert plan.alpha == 1.0

    def test_no_warning_when_target_attainable(self):
        plan = make_hedge_plan(TREE_G1, epsilon=0.5)
        assert plan.atom_gap == ""
        assert plan.k == 0.0 and plan.alpha == 0.0 and plan.success_prob == 0.5

    @pytest.mark.parametrize("alpha", [0.0, 1e-300])
    def test_no_alpha_gap_without_an_atom(self, alpha):
        # the next value's share 5e-21 is above the budget, with no atom in the way
        plan = make_hedge_plan(synthetic_batch([1e-20, 0.5]), alpha=alpha)
        assert (plan.k, plan.alpha) == (0.0, 0.0)
        assert plan.atom_gap == ""

    def test_alpha_gap_on_a_tie_group_straddling_the_budget(self):
        # 0.2 + 0.5 fits the budget 0.3 * 3; the tie group of 0.5 as a whole does not
        plan = make_hedge_plan(synthetic_batch([0.2, 0.5, 0.5]), alpha=0.3)
        assert plan.k == 0.2
        assert plan.atom_gap == "atom above k=0.2: budget 0.0666667 attained for target 0.3"

    def test_requires_exactly_one_target(self):
        with pytest.raises(ValueError):
            make_hedge_plan(TREE_G1)
        with pytest.raises(ValueError):
            make_hedge_plan(TREE_G1, epsilon=0.1, alpha=0.1)


def _held_bytes(view) -> int:
    """Bytes of the ndarray buffers a view keeps alive (a slice counts its base)."""
    buffers = {}
    for a in vars(view).values():
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
        return seeded_batch(sig, 10**5, params, seed=5)

    def test_planning_does_not_mutate_the_batch(self, batch):
        before = dict(vars(batch))
        make_hedge_plan(batch, epsilon=0.1)
        make_hedge_plan(batch, alpha=0.1)
        after = vars(batch)
        assert after.keys() == before.keys()
        assert all(after[name] is value for name, value in before.items())

    def test_batch_holds_draws_and_sorted_view_only(self, batch):
        # sorted D, 8 bytes per draw, and the marks of its running sums: no draws are kept
        make_hedge_plan(batch, epsilon=0.1)
        assert _held_bytes(batch) <= 8 * 10**5 + batch.marks.nbytes


class TestSortedView:
    def test_zero_atom_is_a_count(self):
        view = SortedD.from_sample([0.0, 0.7, 0.0, 0.2, 0.7], 1.0)
        assert view.n == 5 and list(view.d) == [0.2, 0.7, 0.7]
        assert [view.sums(i) for i in range(3)] == reference_sums([0.2, 0.7, 0.7], range(3))
        assert view.count(0.0) == 2 and view.count(0.7) == 5

    def test_positives_with_sample_size(self):
        view = SortedD.from_sample([0.7, 0.2], 1.0, 4)
        assert view.n == 4 and list(view.d) == [0.2, 0.7]
        assert SortedD.from_sample([], 1.0, 3).count(0.0) == 3

    @pytest.mark.parametrize("bad", [[0.1, -1e-300, 0.2], [0.0, float("nan"), 1.0], [-INF]])
    def test_rejects_negative_or_nan(self, bad):
        with pytest.raises(ValueError, match="nonnegative and not NaN"):
            SortedD.from_sample(bad, 1.0)

    @pytest.mark.parametrize("bad", [[0.5, INF], [1e200, 1e200], [0.0, 1e308, 1e308],
                                     [1.0] * (3 * _STRIDE) + [1e155], [1.0] * _PASS + [1e155]])
    def test_rejects_sums_beyond_the_float_range(self, bad):
        # an infinite D, D^2 past the float range, and a sum of D past it, each with no
        # numpy warning; in the fourth, only the stride after the last mark overflows,
        # and in the last, only D^2 in the second pass of from_sample
        with pytest.raises(ValueError, match="exceeds the float range"):
            SortedD.from_sample(bad, 1.0)

    def test_rejects_bad_sample_size(self):
        with pytest.raises(ValueError, match="empty batch"):
            SortedD.from_sample([], 1.0)
        with pytest.raises(ValueError, match="below"):
            SortedD.from_sample([0.1, 0.2], 1.0, 1)


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
            # the plan's repr holds its atom_gap message
            out.append(repr(make_hedge_plan(batch, **{kind: target})))
    return out


def _brute_force_alpha(d, alpha: float) -> tuple[float, float]:
    """Scan every tie-group end of the full sorted sample for the last affordable one,
    with the reference sums of its positive part (the zeros add nothing)."""
    d = np.sort(np.asarray(d, dtype=float))
    n, zeros = d.size, int(np.count_nonzero(d == 0.0))
    prefix = [0.0] * zeros + [s for s, _ in reference_sums(d[zeros:], range(n - zeros))]
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


def _scan_at(d, k: float) -> tuple[int, float]:
    """#{D <= k}, counted over the full sample, and the clamped capital fraction
    E[D 1{D <= k}], from the reference sums of its positive part."""
    d = np.sort(np.asarray(d, dtype=float))
    count = sum(1 for x in d if x <= k)
    positive = d[d > 0.0]
    below = count - (d.size - positive.size)
    total = reference_sums(positive, [below - 1])[0][0] if below else 0.0
    return count, min(total / d.size, 1.0)


def _brute_force_epsilon(d, epsilon: float) -> float:
    """The order statistic of the full sorted sample at the smallest rank that leaves
    at most eps n failures (up to float noise in eps n); rank 0 gives k = 0."""
    d = np.sort(np.asarray(d, dtype=float))
    n = d.size
    rank = min(r for r in range(n + 1) if n - r <= epsilon * n + 1e-9)
    return float(d[rank - 1]) if rank else 0.0


# sizes on either side of one mark stride, of one pass of from_sample and of two,
# and several passes
MARK_SIZES = [1, 4095, 4096, 4097, 32767, 32768, 32769, 65535, 65536, 65537, 3 * 65536 + 5]


def _reference_alpha(view, alpha: float) -> tuple[float, float]:
    """solve_k_for_alpha as one bisect over all indices of the view's positive D, keyed
    by their reference sums."""
    d, n = view.d, view.n

    def spent(i: int) -> float:
        return reference_sums(d, [i])[0][0] / n

    m = bisect.bisect_right(range(d.size), alpha, key=spent) - 1
    if 0 <= m < d.size - 1 and d[m + 1] == d[m]:
        m = int(np.searchsorted(d, d[m], side="left")) - 1
    return (0.0, 0.0) if m < 0 else (float(d[m]), spent(m))


def _mark_budgets(view) -> list[float]:
    """Each mark's running sum of D over n, and one ULP either side of it, within [0, 1]."""
    budgets = set()
    for s in view.marks[:, 0] / view.n:
        budgets.update(np.nextafter(s, [-INF, INF]).tolist() + [float(s)])
    return sorted(b for b in budgets if 0.0 <= b <= 1.0)


class TestRunningSums:
    @pytest.mark.parametrize("size", MARK_SIZES)
    def test_sums_equal_stride_reference_bit_for_bit(self, size):
        d = np.sort(np.random.default_rng(size).exponential(size=size))
        view = SortedD.from_sample(d, 1.0, size + 3)
        marked = np.arange(view.marks.shape[0]) * _STRIDE
        assert view.marks.shape == (size // _STRIDE + 1, 2)
        assert view.marks[1:].tolist() == [list(s) for s in reference_sums(d, marked[1:] - 1)]
        assert view.marks[0].tolist() == [0.0, 0.0]
        if size <= _STRIDE + 1:
            probes = range(size)
        else:
            # every sum through 4098 values takes about 0.1 s, through 2e5 values 5 s:
            # past one stride, probe both sides of every mark and a random sample
            rng = np.random.default_rng(size + 1)
            probes = {*(marked - 1), *marked, *marked + 1, size - 1,
                      *rng.integers(0, size, 500).tolist()}
            probes = sorted(i for i in probes if 0 <= i < size)
        assert [view.sums(i) for i in probes] == reference_sums(d, probes)

    def test_sums_refuse_an_index_outside_d(self):
        view = SortedD.from_sample([0.0, 0.5, 1.0], 1.0)
        for i in (-1, 2):
            with pytest.raises(IndexError):
                view.sums(i)

    @pytest.mark.parametrize("size", MARK_SIZES)
    @pytest.mark.parametrize("ties", [False, True])
    def test_alpha_bisection_matches_one_reference_bisect(self, size, ties):
        rng = np.random.default_rng(size)
        if ties:
            # tie groups of a few thousand values straddle the marks
            d = np.sort(rng.choice([0.25, 0.5, 1.0, 1.5, 3.0], size=size))
        else:
            d = np.sort(rng.exponential(size=size))
        d *= 0.9 / d.mean()
        view = SortedD.from_sample(d, 1.0, size + 7)
        for alpha in _mark_budgets(view) + [0.0, 1.0, *rng.uniform(0.0, 1.0, 5).tolist()]:
            assert tuple(solve_k_for_alpha(view, alpha)) == _reference_alpha(view, alpha), alpha

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.one_of(st.sampled_from([0.125, 0.5, 1.0, 3.0]),
                                        st.floats(min_value=1e-6, max_value=10.0)),
                              st.integers(min_value=1, max_value=5000)),
                    min_size=1, max_size=6),
           st.integers(min_value=0, max_value=3000), TARGETS)
    def test_tie_groups_across_marks(self, groups, zeros, targets):
        values, counts = zip(*groups)
        d = np.sort(np.repeat(values, counts))
        view = SortedD.from_sample(d, 1.0, d.size + zeros)
        probes = [0, d.size - 1, *range(_STRIDE - 1, d.size, _STRIDE)]
        assert [view.sums(i) for i in probes] == reference_sums(d, probes)
        for alpha in _mark_budgets(view) + [0.0, 1.0, *targets]:
            assert tuple(solve_k_for_alpha(view, alpha)) == _reference_alpha(view, alpha)

    def test_from_sample_holds_no_temporary_as_long_as_d(self):
        # an owned sorted array is kept, so the marks, the pass buffer of squares and the
        # squares of one stride, which sums reads, are all it adds
        d = np.sort(np.random.default_rng(29).exponential(size=300_000))
        SortedD.from_sample(d.copy(), 1.0)
        tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            view = SortedD.from_sample(d, 1.0)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not tracing:
                tracemalloc.stop()
        assert view.d is d
        assert peak <= (_PASS + 2 * _STRIDE) * 8 + view.marks.nbytes

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(MARK_SIZES), st.integers(min_value=0, max_value=5000),
           st.lists(st.one_of(st.floats(min_value=5e-324, max_value=2.2e-308),
                              st.floats(min_value=1e-300, max_value=1e150)),
                    min_size=1, max_size=5),
           st.floats(min_value=0.0, max_value=1.0), st.integers(min_value=-300, max_value=150),
           st.integers(min_value=0, max_value=450), st.integers(min_value=0, max_value=2**32 - 1))
    def test_sums_nondecreasing_within_strides_and_across_marks(self, size, zeros, atoms, tied,
                                                                 low, span, seed):
        # size positive values: a share `tied` from a few atoms (ties, subnormals), the rest
        # log-uniform on [10^low, 10^(low + span)] within [1e-300, 1e150]; then the zeros
        rng = np.random.default_rng(seed)
        spread = 10.0 ** rng.uniform(low, min(low + span, 150), size)
        d = np.where(rng.random(size) < tied, rng.choice(atoms, size), spread)
        view = SortedD.from_sample(np.sort(np.concatenate([np.zeros(zeros), d])), 1.0)
        assert view.d.size == size
        # every value of the first, the last and a random stride, and both sides of each mark
        last = (size - 1) // _STRIDE
        strides = {0, last, int(rng.integers(0, last + 1))}
        probes = {i for j in strides for i in range(j * _STRIDE, min((j + 1) * _STRIDE, size))}
        probes |= {i for j in range(1, view.marks.shape[0]) for i in (j * _STRIDE - 1, j * _STRIDE)}
        sums = [view.sums(i) for i in sorted(i for i in probes if i < size)]
        for before, after in zip(sums, sums[1:]):
            assert before[0] <= after[0] and before[1] <= after[1]

    @pytest.mark.parametrize("size", MARK_SIZES)
    def test_stride_ends_equal_the_next_mark(self, size):
        # heavy-tailed values with ties, so that each stride's pairwise sums round
        rng = np.random.default_rng(size + 2)
        d = np.sort(np.round(rng.lognormal(0.0, 3.0, size), 1) + 0.1)
        view = SortedD.from_sample(d, 1.0)
        for j in range(1, view.marks.shape[0]):
            assert view.sums(j * _STRIDE - 1) == tuple(view.marks[j]), j

    @pytest.mark.parametrize("size", MARK_SIZES)
    def test_sums_within_the_pairwise_error_bound(self, size):
        # |sums(i) - fsum| <= (14 + i / 4096) 2^-52 fsum, for D and D^2: pairwise sums within
        # a stride, then one addition per mark.  One np.cumsum chain over the same values
        # breaks this bound on the sizes past 2^16 - 1.
        rng = np.random.default_rng(size + 3)
        d = np.sort(rng.exponential(size=size))
        view = SortedD.from_sample(d, 1.0)
        chain = np.stack([np.cumsum(d), np.cumsum(d * d)], 1)
        probes = {*range(_STRIDE - 1, size, _STRIDE), size - 1, *rng.integers(0, size, 30).tolist()}
        worst, chain_worst = 0.0, 0.0
        for i in sorted(probes):
            exact = np.array([math.fsum(d[:i + 1]), math.fsum(d[:i + 1] ** 2)])
            bound = (14 + i / _STRIDE) * 2.0**-52 * exact
            worst = max(worst, *(np.abs(np.array(view.sums(i)) - exact) / bound))
            chain_worst = max(chain_worst, *(np.abs(chain[i] - exact) / bound))
        assert worst <= 1.0
        if size >= (1 << 16) - 1:
            assert chain_worst > 1.0


class TestSortedInput:
    @settings(max_examples=300, deadline=None)
    @given(TIE_HEAVY, st.randoms(use_true_random=False))
    def test_input_order_does_not_change_the_view(self, values, rnd):
        # a sorted input skips the sort, the others take it: all give the same bits
        shuffled = list(values)
        rnd.shuffle(shuffled)
        ordered = np.sort(np.asarray(values))
        inputs = [ordered, ordered[::-1], np.asarray(shuffled), ordered[ordered > 0]]
        views = [SortedD.from_sample(d, 1.3, len(values)) for d in inputs]
        for view in views[1:]:
            for name in ("d", "marks"):
                assert getattr(view, name).tobytes() == getattr(views[0], name).tobytes()
            assert view.n == views[0].n

    @pytest.mark.parametrize("bad", [[float("nan")], [0.5, float("nan")], [-2.0, -1.0, 0.5],
                                     [-INF, 0.0, 1.0]])
    def test_sorted_input_rejects_negative_or_nan(self, bad):
        with pytest.raises(ValueError, match="nonnegative and not NaN"):
            SortedD.from_sample(np.asarray(bad), 1.0)

    def test_view_owns_its_positive_values(self):
        # a sorted slice of a larger buffer is copied, so the view holds only its own values
        base = np.linspace(0.0, 1.0, 1001)
        view = SortedD.from_sample(base[500:], 1.0)
        assert view.d.size == 501 and _held_bytes(view) == 8 * 501 + view.marks.nbytes
        # a sorted input kept without a copy cannot change the view afterwards
        owned = np.array([0.1, 0.5, 1.0])
        view = SortedD.from_sample(owned, 1.0)
        assert not any(a.flags.writeable for a in (view.d, view.marks))
        with pytest.raises(ValueError):
            owned[0] = 5.0
        assert view.d[0] == 0.1


class TestZeroAtomEquivalence:
    @settings(max_examples=300, deadline=None)
    @given(TIE_HEAVY, TARGETS)
    def test_positive_view_solves_like_full_sample(self, values, targets):
        # the view stores the positive D only; its k, #{D <= k} and alpha must equal a
        # scan of the full sorted sample, zeros included
        d = np.asarray(values)
        n = d.size
        view = SortedD.from_sample(d[d > 0], 1.7, n)
        for target in (0.0, 1.0, *targets):
            k_eps = solve_k_for_epsilon(view, target)
            assert k_eps == _brute_force_epsilon(d, target)
            k_alpha = solve_k_for_alpha(view, target)
            assert tuple(k_alpha) == _brute_force_alpha(d, target)
            for k in (k_eps, k_alpha.k):
                count, alpha = _scan_at(d, k)
                assert view.count(k) == count
                assert success_prob_from_k(view, k).prob == count / n
                assert alpha_from_k(view, k).alpha == alpha

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
        sig = point_signal_from_price(110.0, p)
        batch = seeded_batch(sig, n, p, seed=3)
        assert batch.n == n
        assert batch.d.size == (0 if zeros == "all" else n)
        d = independent_d(sig, seeded_draws(sig, n, seed=3), p)
        full = SortedD.from_sample(d, batch.e_qg_h)
        targets = [0.0, 0.01, 0.1, 0.5, 1.0]
        assert _solutions(batch, targets) == _solutions(full, targets)
        if zeros == "all":
            plan = make_hedge_plan(batch, epsilon=0.1)
            assert (plan.k, plan.alpha, plan.success_prob) == (0.0, 0.0, 1.0)
