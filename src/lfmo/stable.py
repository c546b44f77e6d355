"""alpha-stable laws: parameters, tail constants, and exact sampling.

A stable law is described by ``(alpha, sigma, beta, mu)`` with
characteristic function

    E exp(i u X) = exp(-sigma^alpha |u|^alpha
                       (1 - i beta sign(u) tan(pi alpha / 2)) + i mu u)

for ``alpha != 1``, and

    E exp(i u X) = exp(-sigma |u| (1 + i beta (2/pi) sign(u) log|u|) + i mu u)

for ``alpha == 1``.

Useful closed-form special cases, used as test oracles:

* ``alpha = 2``:  Stable(2, sigma, beta, mu) = Normal(mu, 2 sigma^2); beta
  drops out of the characteristic function.  The implied normal scale is
  encoded once, in :func:`normal_scale_at_alpha2`.
* ``alpha = 1, beta = 0``: Cauchy with scale sigma.
* ``alpha = 1/2, beta = 1, mu = 0``: Levy distribution with scale sigma,
  CDF ``erfc(sqrt(sigma / (2 x)))``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gamma as _gamma


@dataclass(frozen=True)
class StableParams:
    """Stable-law parameters.

    alpha : stability index in (0, 2]
    sigma : scale, > 0
    beta  : skewness in [-1, 1]
    mu    : location
    """

    alpha: float
    sigma: float
    beta: float
    mu: float

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha <= 2.0:
            raise ValueError(f"alpha must lie in (0, 2], got {self.alpha}")
        if not self.sigma > 0.0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")
        if not -1.0 <= self.beta <= 1.0:
            raise ValueError(f"beta must lie in [-1, 1], got {self.beta}")


def c_alpha(alpha: float) -> float:
    """Tail-to-scale constant linking P(X > t) ~ A t^-alpha to the stable scale.

    Returns ``(1 - alpha) / (Gamma(2 - alpha) cos(pi alpha / 2))`` for
    ``alpha != 1`` and ``2 / pi`` at ``alpha = 1``; the expression is
    continuous across the removable singularity at 1.
    """
    if not 0.0 < alpha < 2.0:
        raise ValueError(f"c_alpha requires alpha in (0, 2), got {alpha}")
    if alpha == 1.0:
        return 2.0 / math.pi
    value = (1.0 - alpha) / (_gamma(2.0 - alpha) * math.cos(math.pi * alpha / 2.0))
    return float(value)


def normal_scale_at_alpha2(sigma: float) -> float:
    """Standard deviation of the normal law Stable(2, sigma, *, 0) implies."""
    return math.sqrt(2.0) * sigma


def _standard_stable(alpha: float, beta: float, rng: np.random.Generator,
                     size: int) -> np.ndarray:
    """Draw Stable(alpha, 1, beta, 0) variates by the Chambers-Mallows-Stuck
    transform (Weron's formulation of the exact method)."""
    v = (rng.random(size) - 0.5) * math.pi
    w = rng.exponential(size=size)
    if alpha == 2.0:
        # beta vanishes from the characteristic function
        return 2.0 * np.sin(v) * np.sqrt(w)
    if alpha == 1.0:
        if beta == 0.0:
            return np.tan(v)
        bv = math.pi / 2.0 + beta * v
        return (2.0 / math.pi) * (
            bv * np.tan(v) - beta * np.log((math.pi / 2.0) * w * np.cos(v) / bv)
        )
    tan_half = math.tan(math.pi * alpha / 2.0)
    b0 = math.atan(beta * tan_half) / alpha
    s0 = (1.0 + (beta * tan_half) ** 2) ** (1.0 / (2.0 * alpha))
    return (
        s0
        * np.sin(alpha * (v + b0))
        / np.cos(v) ** (1.0 / alpha)
        * (np.cos(v - alpha * (v + b0)) / w) ** ((1.0 - alpha) / alpha)
    )


def sample_stable(params: StableParams, rng: np.random.Generator,
                  count: int) -> np.ndarray:
    """Draw ``count`` iid variates, shape (count,)."""
    if count < 1:
        raise ValueError("count must be >= 1")
    alpha, sigma, beta, mu = params.alpha, params.sigma, params.beta, params.mu
    z = _standard_stable(alpha, beta, rng, count)
    if alpha == 1.0 and beta != 0.0:
        # scaling a skewed Cauchy-index law shifts location by
        # (2/pi) beta sigma log sigma; undo it so mu stays the location
        shift = (2.0 / math.pi) * beta * sigma * math.log(sigma)
        return sigma * z + shift + mu
    return sigma * z + mu
