"""Quantile hedging with advance information in a zero-rate Black-Scholes market.

The package computes, for an agent who knows the post-expiry price (or a
range for it) already at time zero, how much of the perfect-hedge cost
can be saved when a prescribed shortfall probability is tolerated, and
conversely the best success probability a given budget buys.  A finite
binomial-tree oracle verifies the underlying change-of-measure identities
exactly.
"""
from .insider_signal import (
    ConditioningMode,
    IntervalIndicator,
    PointValue,
    SignalDraws,
    SignalSpec,
    density_indicator,
    density_point,
    draw_interval,
    draw_point,
    indicator_prob,
    interval_signal_from_prices,
    point_signal_from_price,
    sample_indicator_conditional,
    sample_point_conditional,
)
from .measure_engine import (
    build_batch,
    qg_density_indicator,
    qg_density_point,
)
from .model_core import (
    BrownianPair,
    ModelParams,
    brownian_from_price,
    bs_call_price,
    price_from_brownian,
    rn_density,
)
from .np_solver import (
    HedgePlan,
    SortedD,
    alpha_from_k,
    make_hedge_plan,
    solve_k_for_alpha,
    solve_k_for_epsilon,
    success_prob_from_k,
)
from .tree_oracle import (
    AtomTable,
    ExactHedge,
    TheoremReport,
    TreeMarket,
    build_atom_table,
    exact_quantile_hedge,
    exhaustive_optimality_check,
    random_market,
    reference_market,
    verify_theorems,
)

__version__ = "0.1.0"
