from dataclasses import replace

import pytest

from insider_hedge import tree_oracle
from insider_hedge.model_core import ModelParams


@pytest.fixture()
def params() -> ModelParams:
    """Market used throughout: the one behind the published tables."""
    return ModelParams(mu=0.08, sigma=0.25, s0=100.0, strike=110.0, t_expiry=0.25, delta=0.02)


@pytest.fixture()
def short_solver(monkeypatch):
    """Make tree_oracle.exact_quantile_hedge answer one threshold candidate short.

    Call it with "alpha" or "epsilon": solves for that target then return
    the threshold candidate before the solver's own, where the one before
    the first is the empty success set (k = None, success and cost 0);
    solves for the other target are left alone.
    """
    solve = tree_oracle.exact_quantile_hedge

    def install(target: str) -> None:
        def short(table, g, **kwargs):
            sol = solve(table, g, **kwargs)
            if target not in kwargs:
                return sol
            cands = [(None, 0, 0),
                     *tree_oracle._threshold_candidates(tree_oracle.conditional_law(table, g))]
            i = next(i for i, (k, _, _) in enumerate(cands) if k == sol.k)
            k, success_prob, alpha = cands[i - 1]
            return replace(sol, k=k, alpha=alpha, success_prob=success_prob)

        monkeypatch.setattr(tree_oracle, "exact_quantile_hedge", short)

    return install
