"""The Levy-frailty Marshall-Olkin distribution itself.

A system of ``n`` exchangeable lifetimes is built from one nondecreasing
subordinator path and ``n`` iid unit-exponential triggers: component ``i``
dies the first time the path upcrosses trigger ``i``.  This module holds
the exact samplers (full vector, and top-k order statistics at every
``n``); the exact finite-``n`` alternating sums for order-statistic tails,
the mean of the last failure, and the shock rates that map the
construction onto the classic exponential-shock model, each one Python
int rounded once to the nearest float (:func:`_nearest`) off mpmath's
global context, so safe from threads and in ``mp.workdps`` (a tail's
terms below a floor set by ``n`` are zero, all of them together far below
the least float); and the conditional-binomial Monte Carlo oracle that
cross-checks them all.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Callable, Union

import numpy as np
from mpmath.libmp import dps_to_prec, from_man_exp, mpf_exp, round_nearest
from scipy.special import betainc

from .errors import (InvalidDimensionError, PrecisionLossError, _require_int,
                     _require_positive)
from .subordinator import SubordinatorModel

_LN10 = math.log(10.0)
_PREC = dps_to_prec(60)  # 203 bits


@dataclass(frozen=True)
class ExactN:
    """Exact integer dimension (a Python or numpy int, not a bool)."""

    n: int

    def __post_init__(self) -> None:
        _require_int("dimension", self.n, 1)

    def log_remaining(self, k_top: int) -> list[float]:
        """log(n - j) for j = 0..k_top-1; k_top > n raises."""
        if k_top > self.n:
            raise InvalidDimensionError(
                f"k_top = {k_top} exceeds the dimension n = {self.n}")
        return [math.log(self.n - j) for j in range(k_top)]


@dataclass(frozen=True)
class LogScaleN:
    """Dimension given as log10(n), for astronomically large systems.

    ``n`` need not be an integer.  Order-statistic sampling accepts this
    form and is exact at every ``n``; exact finite-n formulas require
    :class:`ExactN`.
    """

    log10_n: float

    def __post_init__(self) -> None:
        _require_positive("log10_n", self.log10_n)

    def log_remaining(self, k_top: int) -> list[float]:
        """log(n - j) = ln n + log1p(-j/n) for j = 0..k_top-1; k_top > n
        raises.  j/n = j e^(-ln n) underflows to 0 only where it is far
        below the resolution of ln n."""
        if math.log10(k_top) > self.log10_n:
            raise InvalidDimensionError(
                f"k_top = {k_top} exceeds the dimension n = 10^{self.log10_n}")
        ln_n = _LN10 * self.log10_n
        return [ln_n + math.log1p(-j * math.exp(-ln_n)) for j in range(k_top)]


Dimension = Union[ExactN, LogScaleN]


@dataclass(frozen=True)
class LfmoModel:
    """A dimension paired with the driving subordinator."""

    dimension: Dimension
    subordinator: SubordinatorModel


def _log1mexp(m: np.ndarray) -> np.ndarray:
    """log(1 - exp(-m)) for m > 0, stable on both ends."""
    m = np.asarray(m, dtype=float)
    small = m < math.log(2.0)
    with np.errstate(divide="ignore"):
        return np.where(
            small,
            np.log(-np.expm1(-np.where(small, m, 1.0))),
            np.log1p(-np.exp(-np.where(small, 1.0, m))),
        )


def _log_one_minus_uroot(log_u: np.ndarray, log_k: float) -> np.ndarray:
    """log(1 - U^(1/k)) given log U, stable down to k ~ exp(700+)."""
    log_neg_w = np.log(-log_u) - log_k
    tiny = log_neg_w < -30.0
    w = -np.exp(np.where(tiny, 0.0, log_neg_w))
    with np.errstate(divide="ignore"):
        direct = np.log(-np.expm1(np.where(tiny, -1.0, w)))
    return np.where(tiny, log_neg_w, direct)


def _top_triggers(dimension: Dimension, k_top: int, rng: np.random.Generator,
                  count: int) -> np.ndarray:
    """Top k_top order statistics of n iid Exp(1) triggers, ascending, as
    a path crosses them.

    Exact at every dimension.  The maximum comes from its inverse CDF,
    -log(1 - U^(1/n)); each further rank is the maximum of the n - j
    remaining points, which conditionally are iid Exp(1) truncated below
    the previous rank, so it is drawn by exact inversion of that
    truncated-max law.  All arithmetic runs in log space, so the recursion
    survives dimensions as large as 10^400.  Row j of the one uniform draw
    serves rank j, so the stream is that of k_top draws of ``count``.
    """
    k_top = _require_int("k_top", k_top, 1)
    log_ks = dimension.log_remaining(k_top)
    log_u = np.log(np.clip(rng.random((k_top, count)), 1e-300, 1.0 - 1e-16))
    out = np.empty((count, k_top))
    level = -_log_one_minus_uroot(log_u[0], log_ks[0])
    out[:, -1] = level
    for j in range(1, k_top):
        term = _log_one_minus_uroot(log_u[j], log_ks[j]) + _log1mexp(level)
        level = -np.logaddexp(-level, term)
        out[:, -1 - j] = level
    return out


def sample_upper_order_statistics(model: LfmoModel, k_top: int,
                                  rng: np.random.Generator,
                                  count: int) -> np.ndarray:
    """Sample the k_top largest lifetimes, largest first, shape
    (count, k_top).  All ranks of a draw share one subordinator path, so
    each row is nonincreasing.
    """
    count = _require_int("count", count, 1)
    levels = _top_triggers(model.dimension, k_top, rng, count)
    return model.subordinator.first_passage(levels, rng)[:, ::-1]


def sample_vector(model: LfmoModel, rng: np.random.Generator,
                  count: int) -> np.ndarray:
    """Sample ``count`` full lifetime vectors in component order, shape
    (count, n).

    Requires an exact dimension.  Triggers are sorted, crossed on one
    shared path, and the crossing times are put back in the components'
    original order.  The triggers are sorted in place and the times
    scattered back into that buffer, so besides the output the call
    holds only the crossing times, the permutation in the narrowest
    unsigned dtype, and first passage's one-block working set.
    """
    if not isinstance(model.dimension, ExactN):
        raise InvalidDimensionError(
            "full-vector sampling needs an exact dimension"
        )
    n = model.dimension.n
    count = _require_int("count", count, 1)
    triggers = rng.exponential(size=(count, n))
    order = np.argsort(triggers, axis=1).astype(np.min_scalar_type(n - 1))
    triggers.sort(axis=1)
    times = model.subordinator.first_passage(triggers, rng)
    np.put_along_axis(triggers, order, times, axis=1)
    return triggers


PsiFunction = Callable[[float], float]


def _psi_values(psi: PsiFunction, n: int, m: int) -> tuple[int, int, list]:
    """n and m as Python ints, and psi(k) for the last m indices k =
    n-m+1..n, once each.  n and m must be ints (not bools) with 1 <= m <= n
    <= 30 (until ROADMAP item 1c computes the bound that lifts the cap).
    One pass over the values refuses the smallest k whose psi(k) is
    negative or not a finite float (say, an overflow) with ``ValueError``.

    The exact formulas' main error enters here (each sum is exact and
    rounded once; a tail's 60-digit terms add the only other rounding):
    float psi(k) carries 1-ulp errors that the alternating weights (up to
    2.8e12 at n = 30) amplify.  At n = 30, over m = 1..30 and t in {0.25,
    0.5, 1, 2, 4}, a tail probability is off by up to 1.59e-5 on
    CPP(1, Exp(2)), 4.9e-5 on CPP(1, Pareto(2.5)) (6.8e-5 at exponent 0.5,
    4.4e-5 at 4) and 8.2e-5 on a drift of slope 0.37, where 19 of the 150
    cells raise :class:`PrecisionLossError`; a shock rate is off by up to
    9.2e-9 on CPP(1, Exp(2)), and the drift's zero rates come out near
    -2.6e-9 (ROADMAP item 1).  The formulas' bands catch only gross failure.
    """
    n = _require_int("n", n, 1)
    if n > 30:
        raise ValueError(f"exact formulas are limited to n <= 30 (got n = {n})")
    m = _require_int("m", m, 1, n)
    values = list(map(psi, range(n - m + 1, n + 1)))
    for k, value in enumerate(values, start=n - m + 1):
        if not 0.0 <= value <= sys.float_info.max:
            raise ValueError(f"psi({k}) = {value} is " + (
                "negative" if value < 0.0 else "not finite"))
    return n, m, values


# A term is a pair (man, exp) standing for man 2^exp, always finite: a raw
# libmp (sign, man, exp, bc) value with its sign on man, or a float's
# integer ratio.  Zero is man = 0.


def _pair(x: tuple) -> tuple:
    """The (man, exp) term of a finite raw libmp value."""
    sign, man, exp, _ = x
    return -man if sign else man, exp


def _float_pair(x: float) -> tuple:
    """The exact (man, exp) term of a finite float: its integer ratio."""
    man, den = float(x).as_integer_ratio()
    return man, 1 - den.bit_length()


def _nearest(num: int, den: int) -> float:
    """num / den (den > 0) rounded once to the nearest float, ties to even,
    by CPython's correctly rounded int division; +-inf beyond the range."""
    try:
        return num / den
    except OverflowError:
        return -math.inf if num < 0 else math.inf


def _dot(weights, terms) -> float:
    """sum_k weights[k] man_k 2^exp_k for int weights and (man, exp) terms,
    added in one pass into one int at the least exponent of a nonzero term
    so far (shifting the sum when a smaller one comes), and rounded once
    (:func:`_nearest`).  Zero terms are skipped.  The callers keep the
    exponents close: a shock rate's terms are floats, and a tail's kept
    terms lie within about 1,400 bits of 1 (see
    :func:`exact_tail_probability`)."""
    acc = 0
    low = None
    for w, (man, exp) in zip(weights, terms):
        if not man:
            continue
        if low is None:
            low = exp
        elif exp < low:
            acc <<= low - exp
            low = exp
        acc += w * man << exp - low
    # acc 2^low, rounded once; a low beyond the float range's reach is
    # clamped, the sum staying a signed 0 or inf
    if low is None or low >= 0:
        return _nearest(acc << min(low or 0, 1025), 1)
    return _nearest(acc, 1 << min(-low, 1075 + acc.bit_length()))


@lru_cache(maxsize=1024)
def _exp_term(psi_k: float, t: float) -> tuple:
    """e^(-psi_k t) as a (man, exp) term, ``mp.exp(-mp.mpf(psi_k) * t)`` at
    60 digits, of the exact product of the two floats' integer ratios for a
    finite t, once per (psi_k, t): keyed on values, not on the psi
    callable, so exponents that agree on psi(k) share the term, and 1024
    small entries hold an m-sweep at n = 30 over a few dozen times."""
    (a, e), (c, f) = _float_pair(psi_k), _float_pair(t)
    return _pair(mpf_exp(from_man_exp(-a * c, e + f), _PREC, round_nearest))


@lru_cache(maxsize=1024)
def _tail_weights(n: int, m: int) -> tuple:
    """Exact signed int weights (-1)^(k-n+m-1) C(n,k) C(k-1,n-m), k =
    n-m+1..n.  At m = n they are the mean's (-1)^(k-1) C(n,k)."""
    return tuple((-1) ** (k - n + m - 1) * math.comb(n, k)
                 * math.comb(k - 1, n - m) for k in range(n - m + 1, n + 1))


def exact_tail_probability(n: int, m: int, t: float,
                           psi: PsiFunction) -> float:
    """P(T_{m:n} > t), evaluated from the exact alternating binomial sum.

    Each term e^(-psi(k) t) is rounded once at 60 digits and cached as a
    signed (man, exp) pair per (psi(k), t) value pair in a bounded
    per-process cache; its sum with the cached exact weights is one int,
    rounded once (:func:`_dot`).  A term with psi(k) t > (1140 + 2n) ln 2
    is zero: the weights' absolute sum is below 4^n, so all such terms
    together are below 2^-1140, 66 bits under the least subnormal, and no
    kept term lies more than about 1,400 bits below 1.  But ``psi`` is
    evaluated in floating point, so at n = 30 the result can be off in its
    5th digit (see :func:`_psi_values`).  A result outside [0, 1] by more than 1e-9
    raises :class:`PrecisionLossError`; inside that band it is clamped.
    ``n`` and ``m`` must be ints (not bools), and a psi(k) that is negative
    or not finite raises ``ValueError``, here and in the other exact
    formulas.
    """
    if not t >= 0.0:
        raise ValueError(f"t must be >= 0, got {t}")
    n, m, psi_k = _psi_values(psi, n, m)
    if t > sys.float_info.max:  # inf, or an int beyond the float range
        return 0.0
    # |w_k| <= C(n,k) C(k-1,n-m) <= C(n,k) 2^(k-1): sum_k |w_k| < 4^n
    floor = (1140 + 2 * n) * math.log(2.0)
    value = _dot(_tail_weights(n, m), [(0, 0) if p * t > floor
                                       else _exp_term(p, t) for p in psi_k])
    if not -1e-9 <= value <= 1.0 + 1e-9:
        raise PrecisionLossError(
            f"tail probability evaluated to {value}, beyond the guaranteed "
            f"error band around [0, 1] (n = {n}, m = {m}, t = {t})"
        )
    return min(max(value, 0.0), 1.0)


def mean_last_order_statistic(n: int, psi: PsiFunction) -> float:
    """E T_{n:n} = sum_k C(n,k) (-1)^(k-1) / psi(k), exact given float
    psi(k) = a_k / b_k: the rational sum_k w_k b_k / a_k rounded once
    (:func:`_nearest`); see :func:`_psi_values` for psi's error.

    Each psi(k) must be positive and finite, and so must the mean: one
    beyond the float range (psi(1) = 1e-320, say) is refused.
    """
    n, _, psi_k = _psi_values(psi, n, n)
    if 0.0 in psi_k:
        k = psi_k.index(0.0) + 1
        raise ValueError(f"psi({k}) = {psi_k[k - 1]} must be positive")
    ratios = [float(p).as_integer_ratio() for p in psi_k]  # a_k / b_k
    den = math.prod(a for a, _ in ratios)
    value = _nearest(sum(w * b * (den // a) for w, (a, b)
                         in zip(_tail_weights(n, n), ratios)), den)
    if not math.isfinite(value):
        raise ValueError(f"mean of the last order statistic = {value} is not "
                         f"finite (beyond the float range)")
    if value <= 0.0:
        raise PrecisionLossError(
            f"mean of the last order statistic evaluated to {value} <= 0"
        )
    return value


def shock_rates(n: int, psi: PsiFunction) -> np.ndarray:
    """Exponential shock rates, indexed by subset size 1..n.

    rate[v-1] applies to every one of the C(n, v) subsets of size v in the
    equivalent exchangeable shock model.  Rates are alternating sums of
    psi, rate[v-1] = -sum_j (-1)^j C(v,j) psi(n-v+j), j = 0..v, with psi(0)
    = 0 (the alternating differences of psi increments, summed by parts),
    and are nonnegative for any true Laplace exponent.  Each rate is one
    exact sum of the float psi values rounded once (:func:`_dot`), so exact
    given them, but they carry an error that the weights (up to C(n, n/2))
    amplify (see :func:`_psi_values`).  Negative values down to -1e-9 are
    clamped to zero, anything worse raises :class:`PrecisionLossError`.
    """
    n, _, psi_k = _psi_values(psi, n, n)
    terms = [(0, 0)] + [_float_pair(p) for p in psi_k]
    rates = np.array([_dot((-1,) + _tail_weights(v, v), terms[n - v:])
                      for v in range(1, n + 1)])
    bad = ~(rates >= -1e-9)
    if np.any(bad):
        raise PrecisionLossError(
            f"shock rates {rates[bad]} are negative beyond round-off"
        )
    return np.where(rates < 0.0, 0.0, rates)


def tail_probability_mc(model: SubordinatorModel, n: int, m: int, t: float,
                        rng: np.random.Generator,
                        count: int = 10 ** 5) -> tuple[float, float]:
    """Conditional-binomial Monte Carlo estimate of P(T_{m:n} > t).

    Conditional on the path, the lifetimes are iid with survival
    exp(-S_t), so P(T_{m:n} > t | S) = P(Bin(n, exp(-S_t)) > n - m).
    Averaging that over sampled paths gives an estimator whose only error
    is Monte Carlo noise; returns (estimate, standard error).  This is the
    independent arbiter for :func:`exact_tail_probability` (int n and m).
    """
    n = _require_int("n", n, 1)
    m, count = _require_int("m", m, 1, n), _require_int("count", count, 1)
    s_t = model.increments(t, rng, count)
    p_alive = np.exp(-s_t)
    probs = betainc(n - m + 1.0, m, p_alive)  # P(Bin(n, p_alive) > n - m)
    estimate = float(np.mean(probs))
    se = float(np.std(probs, ddof=1) / math.sqrt(count)) if count > 1 else 0.0
    return estimate, se


def sample_exchangeable_mo(n: int, rates_by_size: np.ndarray,
                           rng: np.random.Generator,
                           count: int) -> np.ndarray:
    """Simulate ``count`` lifetime vectors, shape (count, n), of the
    general exponential-shock model with size-dependent rates.

    Every nonempty subset V of {1..n} carries an independent exponential
    shock with rate ``rates_by_size[|V| - 1]``; component i dies at the
    earliest shock covering it.  Used to check, by simulation, that the
    construction with rates from :func:`shock_rates` matches the
    subordinator-trigger construction in distribution.  Exponential in n,
    so meant for small systems: n must be an int in [1, 16], ``count`` an
    int >= 1, and the n rates >= 0 and finite.
    """
    n = _require_int("n (subset enumeration needs a small n)", n, 1, 16)
    count = _require_int("count", count, 1)
    rates_by_size = np.asarray(rates_by_size, dtype=float)
    if rates_by_size.shape != (n,):
        raise ValueError("need one rate per subset size 1..n")
    if not np.all((rates_by_size >= 0.0) & (rates_by_size < np.inf)):
        raise ValueError(
            f"rates must be >= 0 and finite, got {rates_by_size.tolist()}")
    lifetimes = np.full((count, n), np.inf)
    for size in range(1, n + 1):
        rate = rates_by_size[size - 1]
        if rate == 0.0:
            continue
        for subset in combinations(range(n), size):
            shock = rng.exponential(1.0 / rate, count)
            for i in subset:
                np.minimum(lifetimes[:, i], shock, out=lifetimes[:, i])
    return lifetimes
