"""Lattice-limit oracle: the bridge-mode point cells as limits of Cox-Ross-Rubinstein markets.

The Monte Carlo engine and the closed form of the point cells share
their derivation: the closed-form signal density p_T^G, the Gaussian
bridge, Girsanov's Z_T and E_QG[H] as the Black-Scholes price.  A
binomial lattice uses none of them.  It needs only binomial
probabilities and the discrete density z = dQ/dP, as the tree oracle
does, and it converges to the continuous market as the step count
grows.

The lattice takes N steps of dt = T/N to the horizon and M = N*delta/T
more to the signal time, with u = exp(sigma*sqrt(dt)), d = 1/u, the
physical up probability p = (exp(mu*dt) - d)/(u - d) and the
risk-neutral q = (1 - d)/(u - d) (zero rate).  At horizon node j,
D(j) = H(j) z(j) P(G) / P(G | j) / E, with E = sum_j Q(j) H(j), and the
success set fills conditional mass 1 - epsilon with the smallest D,
splitting the boundary atom, so the limit has no atom gaps.  A point
level lies between two terminal nodes, and P(G | j) interpolates their
M-step binomial probabilities linearly in log price.  Everything is
computed in log space: P(G | j) vanishes on most nodes, where D in
floats would overflow.

closed_form_alpha is the limit itself for the bridge cells, as scalar
functions of the market: the exact Black-Scholes capital fraction, with
math.erfc for the normal CDF.
"""
import math
from functools import cache
from statistics import NormalDist

import numpy as np
import pytest
from scipy.special import gammaln

MU, SIGMA, S0, STRIKE, T_EXPIRY, DELTA = 0.08, 0.25, 100.0, 110.0, 0.25, 0.02
EPSILONS = (0.01, 0.05, 0.10, 0.15, 0.20, 0.25)

# the closed form of the bridge cells (ROADMAP item 1), to the digits given there
CLOSED_FORM = {
    110.0: (0.26814, 0.14078, 0.08388, 0.05208, 0.03146, 0.01752),
    115.0: (0.50983, 0.37488, 0.30121, 0.25229, 0.21448, 0.18318),
}
# S = 106 at six significant digits: from eps = 0.15 on, the zero atom alone fills 1 - eps
CLOSED_FORM_106 = (0.0891348, 0.0148823, 3.70015e-4, 0.0, 0.0, 0.0)
# bounds fixed before the first run: the lattice against the closed form at N = 20000,
# and two step counts against each other (S = 106 converges slower and is left out)
CLOSED_FORM_TOL = 2e-4
STEP_COUNT_TOL = 5e-4


def norm_cdf(x: float) -> float:
    """Phi(x) through math.erfc, accurate in the lower tail."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def closed_form_alpha(level: float, epsilon: float) -> float:
    """The capital fraction of the bridge cell (level, epsilon), exact in Black-Scholes.

    Given the signal S_{T+delta} = level, W_T ~ N(g T/(T+d), T d/(T+d)), and D is
    increasing in W_T at the default levels, so the success set is {W_T <= w*} with
    w* the conditional 1 - epsilon quantile.  D f_cond = H z phi_T / C, where z phi_T
    is the N(-theta T, T) density, so alpha over [w_K, w*] of W_T is

        (s0 [Phi(q_b - sigma sqrt(T)) - Phi(q_a - sigma sqrt(T))]
         - K [Phi(q_b) - Phi(q_a)]) / C,   q = (w + theta T)/sqrt(T),

    with C the Black-Scholes call price.  A cell whose w* lies at or below the
    strike's w_K is filled by the zero atom alone and costs 0.
    """
    drift = MU - 0.5 * SIGMA**2
    t_signal, root_t = T_EXPIRY + DELTA, math.sqrt(T_EXPIRY)
    g = (math.log(level / S0) - drift * t_signal) / SIGMA
    mean, sd = g * T_EXPIRY / t_signal, math.sqrt(T_EXPIRY * DELTA / t_signal)
    w_star = mean + sd * NormalDist().inv_cdf(1.0 - epsilon)
    w_k = (math.log(STRIKE / S0) - drift * T_EXPIRY) / SIGMA
    if w_star <= w_k:
        return 0.0
    theta, vol = MU / SIGMA, SIGMA * root_t
    q_a, q_b = ((w + theta * T_EXPIRY) / root_t for w in (w_k, w_star))
    d1 = math.log(S0 / STRIKE) / vol + 0.5 * vol
    call = S0 * norm_cdf(d1) - STRIKE * norm_cdf(d1 - vol)
    stock = S0 * (norm_cdf(q_b - vol) - norm_cdf(q_a - vol))
    cash = STRIKE * (norm_cdf(q_b) - norm_cdf(q_a))
    return (stock - cash) / call


def log_binomial(n: int, k: np.ndarray, log_p: float, log_1mp: float) -> np.ndarray:
    """ln of the binomial probability of k ups in n steps of up probability p."""
    return gammaln(n + 1) - gammaln(k + 1) - gammaln(n - k + 1) + k * log_p + (n - k) * log_1mp


@cache
def lattice_alphas(level: float, n_steps: int) -> tuple:
    """The capital fraction of each default epsilon for the point signal S_{T+delta} = level."""
    m_steps = n_steps * DELTA / T_EXPIRY
    assert m_steps == int(m_steps), "the post-horizon steps take the horizon's step size"
    m_steps = int(m_steps)
    log_u = SIGMA * math.sqrt(T_EXPIRY / n_steps)
    u, d = math.exp(log_u), math.exp(-log_u)
    p = (math.exp(MU * T_EXPIRY / n_steps) - d) / (u - d)
    q = (1.0 - d) / (u - d)
    j = np.arange(n_steps + 1, dtype=float)
    log_pj = log_binomial(n_steps, j, math.log(p), math.log1p(-p))
    log_qj = log_binomial(n_steps, j, math.log(q), math.log1p(-q))
    h = np.maximum(S0 * np.exp((2.0 * j - n_steps) * log_u) - STRIKE, 0.0)

    # terminal node J of n + m steps has log price (2J - n - m) ln u; the level lies at
    # J = lo + w, and P(G | j) takes weight 1 - w on lo - j post-horizon ups and w on
    # one more
    x = (math.log(level / S0) / log_u + n_steps + m_steps) / 2.0
    lo = math.floor(x)
    log_g_given_j = np.full(j.shape, -np.inf)
    for ups, weight in ((lo - j, 1.0 - x + lo), (lo + 1 - j, x - lo)):
        inside = (ups >= 0) & (ups <= m_steps)
        if weight > 0.0:
            log_g_given_j[inside] = np.logaddexp(
                log_g_given_j[inside],
                math.log(weight) + log_binomial(m_steps, ups[inside], math.log(p), math.log1p(-p)))

    # the atoms G can reach: their conditional mass, and their cost Q(j) H(j) / E
    reach = np.isfinite(log_g_given_j)
    log_joint = log_pj[reach] + log_g_given_j[reach]
    log_pg = np.logaddexp.reduce(log_joint)
    mass = np.exp(log_joint - log_pg)
    e = float(np.sum(np.exp(log_qj) * h))
    h, log_qj, log_pj = h[reach], log_qj[reach], log_pj[reach]
    cost = np.exp(log_qj) * h / e
    # ln D, with D = 0 (ln D = -inf) out of the money
    itm = h > 0.0
    log_d = np.full(h.shape, -np.inf)
    log_d[itm] = (np.log(h[itm]) + log_qj[itm] - log_pj[itm] + log_pg
                  - log_g_given_j[reach][itm] - math.log(e))

    order = np.argsort(log_d, kind="stable")
    mass, cost = mass[order], cost[order]
    cum_mass, cum_cost = np.cumsum(mass), np.cumsum(cost)
    alphas = []
    for epsilon in EPSILONS:
        # the atom at which the mass reaches 1 - epsilon enters by the missing fraction
        b = int(np.searchsorted(cum_mass, 1.0 - epsilon))
        filled_mass, filled_cost = (cum_mass[b - 1], cum_cost[b - 1]) if b else (0.0, 0.0)
        alphas.append(float(filled_cost + (1.0 - epsilon - filled_mass) / mass[b] * cost[b]))
    return tuple(alphas)


@pytest.mark.parametrize("level", sorted(CLOSED_FORM))
def test_lattice_reaches_the_closed_form(level):
    lattice = lattice_alphas(level, 20_000)
    assert max(abs(a - b) for a, b in zip(lattice, CLOSED_FORM[level])) <= CLOSED_FORM_TOL


@pytest.mark.parametrize("level", sorted(CLOSED_FORM))
def test_step_counts_agree(level):
    coarse, fine = lattice_alphas(level, 10_000), lattice_alphas(level, 20_000)
    assert max(abs(a - b) for a, b in zip(coarse, fine)) <= STEP_COUNT_TOL


@pytest.mark.parametrize("level", sorted(CLOSED_FORM))
def test_capital_fraction_falls_with_epsilon(level):
    alphas = lattice_alphas(level, 20_000)
    assert all(0.0 < b < a < 1.0 for a, b in zip(alphas, alphas[1:]))


@pytest.mark.parametrize("level", sorted(CLOSED_FORM))
def test_closed_form_gives_its_digits(level):
    assert tuple(round(closed_form_alpha(level, e), 5) for e in EPSILONS) == CLOSED_FORM[level]


def test_closed_form_at_106():
    alphas = [closed_form_alpha(106.0, e) for e in EPSILONS]
    assert [float(f"{a:.6g}") for a in alphas] == list(CLOSED_FORM_106)
