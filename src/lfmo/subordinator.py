"""Levy subordinator models and exact first-passage path sampling.

Two path models are supported: a compound Poisson process (CPP) with
positive jumps, and a deterministic linear drift.  Both are nondecreasing
with S_0 = 0.  Everything downstream is expressed through the Laplace
exponent ``psi(x) = -log E exp(-x S_1)`` and through exact simulation of
level-crossing times; no time discretization is involved anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Union

import numpy as np
from scipy.integrate import quad

from .errors import BudgetExceededError, UnsupportedRegimeError

# jump-count cap per simulated path
DEFAULT_JUMP_BUDGET = 10 ** 9

# absolute tolerance of the Pareto Laplace-transform quadrature; tighter
# than strictly needed so that alternating-sum consumers (shock rates at
# n = 6 amplify psi errors by roughly 3^n) still meet 1e-8 identities
PARETO_QUAD_ABS_TOL = 1e-13


def _require_positive(name: str, value: float) -> None:
    if not value > 0.0:
        raise ValueError(f"{name} must be positive, got {value}")
    if value == math.inf:
        raise ValueError(f"{name} must be finite, got {value}")


@dataclass(frozen=True)
class ParetoSteps:
    """Pareto jump sizes with survival t^(-alpha) for t >= 1 (scale fixed at 1)."""

    alpha: float

    def __post_init__(self) -> None:
        _require_positive("Pareto exponent", self.alpha)

    def mean(self) -> float:
        return self.alpha / (self.alpha - 1.0) if self.alpha > 1.0 else math.inf

    def second_moment(self) -> float:
        return self.alpha / (self.alpha - 2.0) if self.alpha > 2.0 else math.inf

    def laplace(self, x: float) -> float:
        return _pareto_laplace(self.alpha, float(x))

    def sample(self, rng: np.random.Generator, size=None):
        # 1 - U lies in (0, 1], so the inverse survival never overflows
        return (1.0 - rng.random(size)) ** (-1.0 / self.alpha)


@dataclass(frozen=True)
class ConstantSteps:
    """Deterministic jump size."""

    size: float

    def __post_init__(self) -> None:
        _require_positive("step size", self.size)

    def mean(self) -> float:
        return self.size

    def second_moment(self) -> float:
        return self.size ** 2

    def laplace(self, x: float) -> float:
        return math.exp(-x * self.size)

    def sample(self, rng: np.random.Generator, size=None):
        if size is None:
            return self.size
        return np.full(size, self.size)


@dataclass(frozen=True)
class ExponentialSteps:
    """Exponential jump sizes with the given rate."""

    rate: float

    def __post_init__(self) -> None:
        _require_positive("rate", self.rate)

    def mean(self) -> float:
        return 1.0 / self.rate

    def second_moment(self) -> float:
        return 2.0 / self.rate ** 2

    def laplace(self, x: float) -> float:
        return self.rate / (self.rate + x)

    def sample(self, rng: np.random.Generator, size=None):
        return rng.exponential(1.0 / self.rate, size)


StepDistribution = Union[ParetoSteps, ConstantSteps, ExponentialSteps]


@dataclass(frozen=True)
class CompoundPoisson:
    """Compound Poisson subordinator: rate ``lam`` per unit time, iid steps."""

    lam: float
    step: StepDistribution

    def __post_init__(self) -> None:
        _require_positive("Poisson rate", self.lam)


@dataclass(frozen=True)
class LinearDrift:
    """Deterministic subordinator S_t = slope * t (the zero-variance case)."""

    slope: float

    def __post_init__(self) -> None:
        _require_positive("drift slope", self.slope)


SubordinatorModel = Union[CompoundPoisson, LinearDrift]


@dataclass(frozen=True)
class HeavyTail:
    """P(S_1 > t) ~ coefficient * t^(-alpha) with alpha in (0, 2), infinite variance."""

    alpha: float
    coefficient: float


@dataclass(frozen=True)
class FiniteVariance:
    """0 < Var(S_1) < infinity."""

    variance: float


@dataclass(frozen=True)
class Deterministic:
    """Var(S_1) = 0: pure drift."""

    slope: float


TailRegime = Union[HeavyTail, FiniteVariance, Deterministic]


@lru_cache(maxsize=4096)
def _pareto_laplace(alpha: float, x: float) -> float:
    """E exp(-x J) for Pareto(alpha) jumps, by adaptive quadrature on [1, inf)."""
    if x == 0.0:
        return 1.0

    def integrand(u: float) -> float:
        return alpha * math.exp(-x * u) * u ** (-alpha - 1.0)

    value, _ = quad(integrand, 1.0, np.inf, epsabs=PARETO_QUAD_ABS_TOL,
                    epsrel=1e-12, limit=400)
    return float(value)


def laplace_exponent(model: SubordinatorModel, x: float) -> float:
    """psi(x) = -log E exp(-x S_1); psi(0) = 0 exactly."""
    if x < 0.0:
        raise ValueError(f"Laplace exponent requires x >= 0, got {x}")
    if x == 0.0:
        return 0.0
    if isinstance(model, LinearDrift):
        return model.slope * x
    return model.lam * (1.0 - model.step.laplace(x))


def moments(model: SubordinatorModel) -> tuple[float, float]:
    """(E S_1, Var S_1); infinities are returned as ``math.inf``."""
    if isinstance(model, LinearDrift):
        return model.slope, 0.0
    m1 = model.step.mean()
    m2 = model.step.second_moment()
    mean = model.lam * m1 if math.isfinite(m1) else math.inf
    var = model.lam * m2 if math.isfinite(m2) else math.inf
    return mean, var


def classify_regime(model: SubordinatorModel) -> TailRegime:
    """Sort a model into the tail regime that fixes its extreme-value limit.

    A CPP with Pareto(a) steps and a < 2 has a regularly varying tail with
    P(S_1 > t) ~ lam * t^(-a) (one-jump dominance for subexponential step
    laws), hence infinite variance.  Any step law with a finite second
    moment lands in the finite-variance regime.  The boundary a = 2 is
    covered by neither and is rejected.
    """
    if isinstance(model, LinearDrift):
        return Deterministic(model.slope)
    step = model.step
    if isinstance(step, ParetoSteps):
        if step.alpha == 2.0:
            raise UnsupportedRegimeError(
                "Pareto exponent exactly 2 sits on the boundary between the "
                "heavy-tail and finite-variance regimes and is not supported"
            )
        if step.alpha < 2.0:
            return HeavyTail(alpha=step.alpha, coefficient=model.lam)
    _, var = moments(model)
    return FiniteVariance(variance=var)


def sample_increments(model: SubordinatorModel, t: float,
                      rng: np.random.Generator, count: int) -> np.ndarray:
    """Draw ``count`` iid copies of S_t."""
    if t < 0.0:
        raise ValueError(f"time must be >= 0, got {t}")
    if isinstance(model, LinearDrift):
        return np.full(count, model.slope * t)
    n_jumps = rng.poisson(model.lam * t, count)
    total = int(n_jumps.sum())
    if total == 0:
        return np.zeros(count)
    flat = np.asarray(model.step.sample(rng, total), dtype=float)
    csum = np.concatenate(([0.0], np.cumsum(flat)))
    ends = np.cumsum(n_jumps)
    return csum[ends] - csum[ends - n_jumps]


def crossing_times_batch(model: SubordinatorModel, levels: np.ndarray,
                         rng: np.random.Generator,
                         max_jumps: int = DEFAULT_JUMP_BUDGET) -> np.ndarray:
    """First-passage times tau(level) = inf{t >= 0 : S_t >= level}.

    ``levels`` has shape (paths, k) with nonnegative, nondecreasing rows;
    each row is crossed by its own independent path, so each output row is
    nondecreasing and tau(0) = 0.  CPP paths are simulated exactly, jump by
    jump, in adaptively sized chunks.
    """
    levels = np.asarray(levels, dtype=float)
    if levels.ndim != 2:
        raise ValueError("levels must have shape (paths, k)")
    if not np.all(levels >= 0.0):
        raise ValueError("levels must be >= 0")
    if np.any(np.diff(levels, axis=1) < 0.0):
        raise ValueError("levels must be nondecreasing")
    if isinstance(model, LinearDrift):
        return levels / model.slope

    n_rows = levels.shape[0]
    out = np.zeros_like(levels)
    block = 65536
    for start in range(0, n_rows, block):
        stop = min(start + block, n_rows)
        out[start:stop] = _crossing_block(model, levels[start:stop], rng, max_jumps)
    return out


def _crossing_block(model: CompoundPoisson, levels: np.ndarray,
                    rng: np.random.Generator, max_jumps: int) -> np.ndarray:
    n_rows, k = levels.shape
    times = np.zeros((n_rows, k))
    found = levels <= 0.0  # tau(0) = 0 since S_0 = 0
    target = levels[:, -1]
    active = np.nonzero(~found[:, -1])[0]
    t_carry = np.zeros(n_rows)
    s_carry = np.zeros(n_rows)
    jumps_used = 0
    chunk = 64
    while active.size:
        n_active = active.size
        chunk = min(max(chunk, (3_000_000 // max(n_active, 1)) or 1), 8192)
        gaps = rng.exponential(1.0 / model.lam, (n_active, chunk))
        jumps = np.asarray(model.step.sample(rng, (n_active, chunk)), dtype=float)
        tt = np.cumsum(gaps, axis=1)
        tt += t_carry[active, None]
        ss = np.cumsum(jumps, axis=1)
        ss += s_carry[active, None]
        for j in range(k):
            open_local = np.nonzero(~found[active, j])[0]
            if open_local.size == 0:
                continue
            rows = active[open_local]
            idx = np.sum(ss[open_local] < levels[rows, j, None], axis=1)
            hit = idx < chunk
            hit_rows = rows[hit]
            times[hit_rows, j] = tt[open_local[hit], idx[hit]]
            found[hit_rows, j] = True
        t_carry[active] = tt[:, -1]
        s_carry[active] = ss[:, -1]
        jumps_used += chunk
        if jumps_used > max_jumps:
            raise BudgetExceededError(
                f"path did not cross level {np.max(target[active]):g} within "
                f"{max_jumps} jumps"
            )
        active = active[~found[active, -1]]
        chunk = min(chunk * 2, 8192)
    return times
