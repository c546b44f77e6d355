"""Levy subordinator models and exact first-passage path sampling.

Each family is one class that owns its behaviour.  ``CompoundPoisson`` and
``LinearDrift`` give the Laplace exponent ``psi(x) = -log E exp(-x S_1)``,
the moments of S_1, iid increments and exact level-crossing times (there is
no time discretization anywhere); the step laws give 1 - E exp(-x J) (the
Laplace exponent of a unit-rate CPP), moments, draws and tail index.  A
compound Poisson path is crossed by counting its jumps, then timing them,
as ``CompoundPoisson._crossing_block`` states.  Every class has a JSON
``kind`` and ``to_json``/``from_json``; :func:`parse_subordinator` finds
the class through one registry.
Each method checks its own arguments: ``psi`` refuses an x that is not
>= 0 (the models' ``psi`` through their step's), ``increments`` a time
or count out of range (and a compound Poisson time past the jump
budget), and ``first_passage`` malformed levels.  The
module functions ``laplace_exponent``, ``sample_increments`` and
``crossing_times_batch`` only forward to those methods; they are kept
for the benchmark replay in ``bench/``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import ClassVar, Union

import numpy as np

from .errors import (BudgetExceededError, _field, _json_object, _number,
                     _require_int, _require_levels, _require_positive)

# jump-count cap per simulated path
DEFAULT_JUMP_BUDGET = 10 ** 9

# open paths from which first passage sums a chunk by one vector add per
# jump across the paths; below it ``cumsum`` down the columns is faster
# than a loop of about 1 us per row (measured on a 2-core Xeon, numpy 2.4)
_ROW_ADD_WIDTH = 256

# rows per first-passage block: a call holds its output and one block's
# working set
_BLOCK = 65536

# values per first-passage slab: 1 MiB of float64, so that a slab's draw,
# sum and compare passes stay in cache (2^15 to 2^18 timed about the same)
_SLAB = 1 << 17

# absolute tolerance of the Pareto Laplace-transform quadrature; tighter
# than strictly needed so that alternating-sum consumers (shock rates at
# n = 6 amplify psi errors by roughly 3^n) still meet 1e-8 identities
PARETO_QUAD_ABS_TOL = 1e-13


@dataclass(frozen=True)
class ParetoSteps:
    """Pareto jump sizes with survival t^(-alpha) for t >= 1 (scale fixed at 1)."""

    kind: ClassVar[str] = "pareto"
    alpha: float

    def __post_init__(self) -> None:
        _require_positive("Pareto exponent", self.alpha)

    def mean(self) -> float:
        return self.alpha / (self.alpha - 1.0) if self.alpha > 1.0 else math.inf

    def second_moment(self) -> float:
        return self.alpha / (self.alpha - 2.0) if self.alpha > 2.0 else math.inf

    def tail_index(self) -> float:
        """alpha: P(J > t) = t^(-alpha), so E J^q is infinite for q >= alpha."""
        return self.alpha

    def psi(self, x: float) -> float:
        """1 - E exp(-x J) by quadrature; it cancels below x ~ 1e-4
        (ROADMAP item 1b)."""
        if not x >= 0.0:
            raise ValueError(f"Laplace exponent requires x >= 0, got {x}")
        return 1.0 - _pareto_laplace(self.alpha, float(x))

    def sample(self, rng: np.random.Generator, size) -> np.ndarray:
        """J = exp(-ln(1 - U) / alpha), in place on the uniforms: one log
        and one exp cost less than ``(1 - U) ** (-1 / alpha)``, and J is
        within about (|ln J| + 4) ulp of that form.  1 - U lies in (0, 1];
        at a small alpha, J can pass the float range, and such a jump is
        honestly inf."""
        # 1 / alpha passes the float range at a subnormal alpha; capped, it
        # still maps U = 0 to J = 1 where inf would give 0 * inf = nan
        scale = -min(1.0 / self.alpha, sys.float_info.max)
        u = rng.random(size)
        with np.errstate(over="ignore"):
            np.subtract(1.0, u, out=u)
            np.log(u, out=u)
            u *= scale
            np.exp(u, out=u)
        return u

    def to_json(self) -> dict:
        return {"kind": self.kind, "alpha": self.alpha}

    @classmethod
    def from_json(cls, spec: dict) -> "ParetoSteps":
        return cls(_field(spec, "alpha", "step", _number))


@dataclass(frozen=True)
class ConstantSteps:
    """Deterministic jump size."""

    kind: ClassVar[str] = "constant"
    size: float

    def __post_init__(self) -> None:
        _require_positive("step size", self.size)

    def mean(self) -> float:
        return self.size

    def second_moment(self) -> float:
        try:
            return self.size ** 2
        except OverflowError:
            return math.inf

    def tail_index(self) -> float:
        """inf: every moment of J is finite."""
        return math.inf

    def psi(self, x: float) -> float:
        if not x >= 0.0:
            raise ValueError(f"Laplace exponent requires x >= 0, got {x}")
        return -math.expm1(-(x * self.size))  # psi(0) = +0.0 for an int 0

    def sample(self, rng: np.random.Generator, size) -> np.ndarray:
        return np.full(size, self.size)

    def to_json(self) -> dict:
        return {"kind": self.kind, "size": self.size}

    @classmethod
    def from_json(cls, spec: dict) -> "ConstantSteps":
        return cls(_field(spec, "size", "step", _number))


@dataclass(frozen=True)
class ExponentialSteps:
    """Exponential jump sizes with the given rate."""

    kind: ClassVar[str] = "exponential"
    rate: float

    def __post_init__(self) -> None:
        _require_positive("rate", self.rate)

    def mean(self) -> float:
        return 1.0 / self.rate

    def second_moment(self) -> float:
        try:
            return 2.0 / self.rate ** 2
        except ZeroDivisionError:  # rate^2 underflows where 2/rate^2 overflows
            return math.inf

    def tail_index(self) -> float:
        """inf: every moment of J is finite."""
        return math.inf

    def psi(self, x: float) -> float:
        """x / (rate + x), or 1 / (1 + rate / x) where rate + x overflows
        (x = inf gives 1)."""
        if not x >= 0.0:
            raise ValueError(f"Laplace exponent requires x >= 0, got {x}")
        total = self.rate + x
        return x / total if total < math.inf else 1.0 / (1.0 + self.rate / x)

    def sample(self, rng: np.random.Generator, size) -> np.ndarray:
        return rng.exponential(1.0 / self.rate, size)

    def to_json(self) -> dict:
        return {"kind": self.kind, "rate": self.rate}

    @classmethod
    def from_json(cls, spec: dict) -> "ExponentialSteps":
        return cls(_field(spec, "rate", "step", _number))


StepDistribution = Union[ParetoSteps, ConstantSteps, ExponentialSteps]


@dataclass(frozen=True)
class CompoundPoisson:
    """Compound Poisson subordinator: rate ``lam`` per unit time, iid steps."""

    kind: ClassVar[str] = "cpp"
    lam: float
    step: StepDistribution

    def __post_init__(self) -> None:
        _require_positive("Poisson rate", self.lam)

    def psi(self, x: float) -> float:
        """Laplace exponent lam * (1 - E exp(-x J)) at x >= 0 (the step
        refuses any other x)."""
        return self.lam * self.step.psi(x)

    def moments(self) -> tuple[float, float]:
        """(E S_1, Var S_1); infinities are returned as ``math.inf``."""
        return self.lam * self.step.mean(), self.lam * self.step.second_moment()

    def increments(self, t: float, rng: np.random.Generator,
                   count: int) -> np.ndarray:
        """``count`` iid copies of S_t, shape (count,), at a finite time
        t >= 0; ``count`` is an int >= 1.  A time whose mean jump count
        lam * t passes ``DEFAULT_JUMP_BUDGET``, read at call time, raises
        :class:`BudgetExceededError` before anything is drawn."""
        if not 0.0 <= t < math.inf:
            raise ValueError(f"time must be >= 0 and finite, got {t}")
        count = _require_int("count", count, 1)
        if self.lam * t > DEFAULT_JUMP_BUDGET:
            raise BudgetExceededError(
                f"increments at t = {t:g} expect lam * t = {self.lam * t:g} "
                f"jumps per path, beyond {DEFAULT_JUMP_BUDGET}")
        n_jumps = rng.poisson(self.lam * t, count)
        flat = np.asarray(self.step.sample(rng, int(n_jumps.sum())),
                          dtype=float)
        # each path sums its own jumps: a difference of one running sum
        # over all paths would lose every path after a huge jump
        has = n_jumps > 0
        out = np.zeros(count)
        out[has] = np.add.reduceat(flat, (np.cumsum(n_jumps) - n_jumps)[has])
        return out

    def first_passage(self, levels: np.ndarray,
                      rng: np.random.Generator) -> np.ndarray:
        """First-passage times tau(level) = inf{t >= 0 : S_t >= level}.

        ``levels`` has shape (paths, k) with finite, nonnegative,
        nondecreasing rows, or a ``ValueError`` names the fault; each row
        is crossed by its own independent path, so each output row is
        nondecreasing and tau(0) = 0.  Exact in distribution: each path
        counts the jumps it needs to reach each level, then takes the
        arrival times of those jumps from Gamma draws (see
        :meth:`_crossing_block`).  A row still below its last level after
        ``DEFAULT_JUMP_BUDGET`` jumps raises :class:`BudgetExceededError`.
        The output is allocated once, and each block of ``_BLOCK`` rows
        fills its slice in place, so the call holds the output and one
        block's working set.  The module function
        :func:`crossing_times_batch` only forwards here; it is kept for
        ``bench/``.
        """
        levels = _require_levels(levels)
        out = np.empty(levels.shape)
        for start in range(0, levels.shape[0], _BLOCK):
            rows = slice(start, start + _BLOCK)
            self._crossing_block(levels[rows], rng, out[rows])
        return out

    def _crossing_block(self, levels: np.ndarray, rng: np.random.Generator,
                        out: np.ndarray) -> None:
        """Count, then time.  N_j, the index of the first jump with
        S >= level j, is one plus the number of partial sums below level
        j (0 for a level <= 0, since S_0 = 0).  Only jump sizes are drawn,
        in chunks, and each chunk adds its sums below each level to that
        level's tally; a path stays open while every sum drawn so far is
        below its last level.  The jump times of a CPP are independent of
        its sizes, so the N-th jump arrives at a Gamma(N, 1/lam) time, and
        the times of N_1 <= N_2 <= ... are cumulative sums of independent
        Gamma(N_j - N_{j-1}) increments.  The first chunk is sized from the
        levels and E J, and it doubles for the paths still open; no chunk
        passes ``DEFAULT_JUMP_BUDGET``, read at call time.

        A chunk is a (chunk, open paths) array of jumps, so row i holds
        jump i of every open path (the step law fills it row by row).  It
        is drawn and summed in slabs of ``_SLAB // open paths`` rows (at
        least one), which lay end to end into the same array, draw for
        draw.  The sum carried from the previous slab or chunk is added to
        a slab's row 0, and the partial sums run down the rows: one vector
        add per row across the paths, or ``cumsum`` down the columns for a
        block narrower than ``_ROW_ADD_WIDTH``, with the same bits.  So
        every sum is the one an unsplit chunk gives.  Each slab's
        comparison with each level is summed as uint8 into the chunk's
        uint16 tally (a slab, and a chunk, has at most 8192 rows).

        The tallies are float64, which holds every count up to the budget
        exactly, so that their in-place differences serve as the Gamma
        shapes without a copy; the times are drawn, summed and scaled in
        ``out``.  The open paths' levels are gathered as one C-ordered
        (k, open) copy, so that each level's compare runs over contiguous
        memory.
        """
        below = np.zeros(levels.shape)
        active = np.nonzero(levels[:, -1] > 0.0)[0]
        carry = 0.0
        jumps_used = 0
        mean = self.step.mean()
        chunk = 16
        if active.size and math.isfinite(mean):
            chunk = min(1.2 * float(np.median(levels[active, -1])) / mean + 8,
                        8192)
        while active.size:
            if jumps_used >= DEFAULT_JUMP_BUDGET:
                raise BudgetExceededError(
                    f"path did not cross level {np.max(levels[active, -1]):g} "
                    f"within {DEFAULT_JUMP_BUDGET} jumps"
                )
            chunk = min(int(chunk), 3_000_000 // active.size, 8192,
                        DEFAULT_JUMP_BUDGET - jumps_used)
            open_levels = levels.T.take(active, axis=1)
            tally = np.zeros(open_levels.shape, dtype=np.uint16)
            slab = max(1, _SLAB // active.size)
            for start in range(0, chunk, slab):
                ss = np.asarray(self.step.sample(
                    rng, (min(slab, chunk - start), active.size)), dtype=float)
                ss[0] += carry
                if active.size < _ROW_ADD_WIDTH:
                    np.cumsum(ss, axis=0, out=ss)
                else:
                    for prev, row in zip(ss, ss[1:]):
                        np.add(prev, row, out=row)
                for count, level in zip(tally, open_levels):
                    count += (ss < level).view(np.uint8).sum(axis=0,
                                                             dtype=np.uint16)
                carry = ss[-1]
            below[active] += tally.T
            jumps_used += chunk
            still = below[active, -1] == jumps_used
            active, carry = active[still], carry[still]
            chunk *= 2
        below += levels > 0.0
        for j in range(below.shape[1] - 1, 0, -1):
            below[:, j] -= below[:, j - 1]
        rng.standard_gamma(below, out=out)
        np.cumsum(out, axis=1, out=out)
        out /= self.lam

    def to_json(self) -> dict:
        return {"kind": self.kind, "lambda": self.lam,
                "step": self.step.to_json()}

    @classmethod
    def from_json(cls, spec: dict) -> "CompoundPoisson":
        step_spec = _json_object(_field(spec, "step", "cpp"), "cpp step")
        step = _from_json(step_spec, "step")
        return cls(_field(spec, "lambda", "cpp", _number), step)


@dataclass(frozen=True)
class LinearDrift:
    """Deterministic subordinator S_t = slope * t (the zero-variance case)."""

    kind: ClassVar[str] = "drift"
    slope: float

    def __post_init__(self) -> None:
        _require_positive("drift slope", self.slope)

    def psi(self, x: float) -> float:
        if not x >= 0.0:
            raise ValueError(f"Laplace exponent requires x >= 0, got {x}")
        return self.slope * x

    def moments(self) -> tuple[float, float]:
        return self.slope, 0.0

    def increments(self, t: float, rng: np.random.Generator,
                   count: int) -> np.ndarray:
        if not 0.0 <= t < math.inf:
            raise ValueError(f"time must be >= 0 and finite, got {t}")
        count = _require_int("count", count, 1)
        return np.full(count, self.slope * t)

    def first_passage(self, levels: np.ndarray,
                      rng: np.random.Generator) -> np.ndarray:
        """Crossing times level / slope of levels checked as in
        :meth:`CompoundPoisson.first_passage`; draws nothing."""
        return _require_levels(levels) / self.slope

    def to_json(self) -> dict:
        return {"kind": self.kind, "c": self.slope}

    @classmethod
    def from_json(cls, spec: dict) -> "LinearDrift":
        return cls(_field(spec, "c", "drift", _number))


SubordinatorModel = Union[CompoundPoisson, LinearDrift]

# JSON kind -> class, per block: a model fills "subordinator", and a cpp's
# "step" holds a step law
_KINDS = {
    "subordinator": {cls.kind: cls for cls in (LinearDrift, CompoundPoisson)},
    "step": {cls.kind: cls
             for cls in (ParetoSteps, ConstantSteps, ExponentialSteps)},
}


def _from_json(spec: dict, role: str):
    """Build the class registered for ``role`` under ``spec["kind"]``."""
    kind = spec.get("kind")
    cls = _KINDS[role].get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ValueError(f"unknown {role} kind {kind!r}")
    # the fields a family writes are the ones it reads
    model = cls.from_json(spec)
    _json_object(spec, f"{kind} {role}", model.to_json())
    return model


def parse_subordinator(spec: dict) -> SubordinatorModel:
    """Parse the JSON subordinator block shared by the CLI and configs.

    Malformed input raises a ValueError naming the bad field.
    """
    return _from_json(_json_object(spec, "subordinator"), "subordinator")


@lru_cache(maxsize=4096)
def _pareto_laplace(alpha: float, x: float) -> float:
    """E exp(-x J) for Pareto(alpha) jumps, by adaptive quadrature on [1, inf)."""
    if x == 0.0:
        return 1.0
    from scipy.integrate import quad  # 0.3 s to import, so only when needed

    def integrand(u: float) -> float:
        return alpha * math.exp(-x * u) * u ** (-alpha - 1.0)

    value, _ = quad(integrand, 1.0, np.inf, epsabs=PARETO_QUAD_ABS_TOL,
                    epsrel=1e-12, limit=400)
    return float(value)


def laplace_exponent(model: SubordinatorModel, x: float) -> float:
    """``model.psi(x)``: psi(x) = -log E exp(-x S_1) at x >= 0."""
    return model.psi(x)


def sample_increments(model: SubordinatorModel, t: float,
                      rng: np.random.Generator, count: int) -> np.ndarray:
    """``model.increments(t, rng, count)``: ``count`` iid copies of S_t."""
    return model.increments(t, rng, count)


def crossing_times_batch(model: SubordinatorModel, levels: np.ndarray,
                         rng: np.random.Generator) -> np.ndarray:
    """``model.first_passage(levels, rng)``: first-passage times of the
    rows of ``levels``, one path per row."""
    return model.first_passage(levels, rng)
