"""Quantile hedging with advance information in a zero-rate Black-Scholes market.

The package computes, for an agent who knows the post-expiry price (or a
range for it) already at time zero, how much of the perfect-hedge cost
can be saved when a prescribed shortfall probability is tolerated, and
conversely the best success probability a given budget buys.  A finite
binomial-tree oracle verifies the underlying change-of-measure identities
exactly.

The package root re-exports nothing: import from its modules
(model_core, insider_signal, measure_engine, np_solver, rng,
tree_oracle, cli).  tree_oracle and the `oracle` and `version` commands
import neither numpy nor scipy.
"""
__version__ = "0.1.0"
