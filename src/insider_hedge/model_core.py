"""Black-Scholes market primitives with zero interest rate.

Price dynamics under the physical measure P:

    dS_t = sigma * S_t dW_t + mu * S_t dt,   S_t = S0 * exp(sigma*W_t + (mu - sigma^2/2) t)

The market price of risk is theta = mu / sigma and the risk-neutral
density at the horizon is Z_T = exp(-theta*W_T - theta^2 T / 2).  The
interest rate is hard-wired to zero, so no discounting appears anywhere
and the perfect-hedge cost of a claim is its plain risk-neutral
expectation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.special import ndtr

__all__ = [
    "ModelParams",
    "BrownianPair",
    "price_from_brownian",
    "brownian_from_price",
    "rn_density",
    "bs_call_price",
]


@dataclass(frozen=True)
class ModelParams:
    """Market and claim parameters.

    mu, sigma  : drift and volatility per year (sigma > 0)
    s0         : initial stock price (> 0)
    strike     : call strike (>= 0)
    t_expiry   : hedge horizon T in years (> 0)
    delta      : lead time of the advance information in years (> 0)
    """

    mu: float
    sigma: float
    s0: float
    strike: float
    t_expiry: float
    delta: float

    def __post_init__(self) -> None:
        if not all(math.isfinite(v) for v in
                   (self.mu, self.sigma, self.s0, self.strike, self.t_expiry, self.delta)):
            raise ValueError("all parameters must be finite")
        if self.sigma <= 0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")
        if self.s0 <= 0:
            raise ValueError(f"s0 must be positive, got {self.s0}")
        if self.strike < 0:
            raise ValueError(f"strike must be nonnegative, got {self.strike}")
        if self.t_expiry <= 0:
            raise ValueError(f"t_expiry must be positive, got {self.t_expiry}")
        if self.delta <= 0:
            raise ValueError(f"delta must be positive, got {self.delta}")
        # sigma^2 and theta^2 times a time enter every price and density exponent: past
        # the float range they end in an OverflowError or a NaN D, not a named error
        for name, rate in (("sigma", self.sigma), ("theta", self.theta)):
            if not math.isfinite(rate * rate * self.t_signal):
                raise ValueError(f"{name}^2 * (t_expiry + delta) overflows the float range")

    @property
    def theta(self) -> float:
        """Market price of risk mu / sigma."""
        return self.mu / self.sigma

    @property
    def t_signal(self) -> float:
        """Time T + delta at which the advance information is revealed."""
        return self.t_expiry + self.delta


class BrownianPair(NamedTuple):
    """Brownian values at the hedge horizon and at the signal time.

    Fields hold scalars or aligned arrays; w_tdelta - w_t is the
    independent N(0, delta) increment.
    """

    w_t: np.ndarray
    w_tdelta: np.ndarray


def price_from_brownian(w, t, p: ModelParams, out=None):
    """Stock level at time t for Brownian value w, computed in one new array or in `out`."""
    s = np.multiply(w, p.sigma, out=out)
    s += (p.mu - 0.5 * p.sigma**2) * t
    # in place, except for a scalar w, whose numpy scalar has no buffer to write
    s = np.exp(s, out=s) if isinstance(s, np.ndarray) else np.exp(s)
    s *= p.s0
    return s


def brownian_from_price(s, t, p: ModelParams):
    """Inverse of price_from_brownian: the Brownian value implying level s at time t.

    A level whose ratio to s0 underflows to 0 gives -inf, which the
    signal types refuse by name.
    """
    with np.errstate(divide="ignore"):
        return (np.log(s / p.s0) - (p.mu - 0.5 * p.sigma**2) * t) / p.sigma


def rn_density(w, p: ModelParams, out=None):
    """Density dQ_F/dP restricted to the horizon T, evaluated at W_T = w.

    Z_T = exp(-theta*w - theta^2 T/2), strictly positive for finite
    inputs, computed in a new array or in `out`.
    """
    th = p.theta
    z = np.multiply(w, -th, out=out)
    z -= 0.5 * th * th * p.t_expiry
    return np.exp(z, out=z) if isinstance(z, np.ndarray) else np.exp(z)


def bs_call_price(p: ModelParams) -> float:
    """Zero-rate Black-Scholes call price S0*Phi(d1) - K*Phi(d2).

    ModelParams keeps sigma and T positive; a zero strike returns the
    spot, where d1 would be infinite.
    """
    if p.strike == 0.0:
        return p.s0
    sig_sqrt_t = p.sigma * math.sqrt(p.t_expiry)
    d1 = (math.log(p.s0 / p.strike) + 0.5 * sig_sqrt_t**2) / sig_sqrt_t
    d2 = d1 - sig_sqrt_t
    return float(p.s0 * ndtr(d1) - p.strike * ndtr(d2))
