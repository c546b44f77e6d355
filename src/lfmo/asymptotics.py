"""Limit laws for the upper order statistics as the dimension explodes.

For a system driven by a subordinator with E S_1 finite, the last failures
concentrate at log(n) / E S_1 and fluctuate on the (log n)^(1/alpha) scale
around it; the fluctuation law is normal (:class:`NormalLaw`) when Var S_1
is finite and a totally left-skewed stable law (:class:`StableLaw`) when
the tail index alpha lies in (1, 2).  When E S_1 is infinite (alpha < 1)
there is no concentration: the last failures live on the (log n)^alpha
scale and converge to an inverse power of a positive stable variable
(:class:`InverseStableLaw`).  The boundaries alpha = 1 (finite against
infinite mean) and alpha = 2 (finite against infinite variance) are
refused: their normalizations need a logarithmic correction (at alpha = 1,
S_t ~ t log t) that is not implemented.  A pure drift S_t = c t has iid
Exp(c) lifetimes, and c T_{n:n} - log n tends to the standard Gumbel law
(:class:`GumbelLaw`): the zero-variance control.

This module builds the limit law of every subordinator model, applies the
normalizations, samples the limit laws, and exposes the binomial machinery
(f_n, g_n, the zoom-out statistic, and the supporting lemma checks) as
plain testable functions.

Note on the heavy-tail scale: the published statement of the second regime
shows a (log n)^(1/alpha) divisor, but every step of its derivation (and
the growth S_t ~ t^(1/alpha)) operates on the (log n)^alpha scale; the two
disagree for alpha != 1.  The implementation follows the derivation and
keeps the exponent configurable so the discrepancy can be demonstrated
empirically rather than silently reconciled.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, fields

import numpy as np
from scipy.special import betainc, ndtr

from .errors import UnsupportedRegimeError, _require_int, _require_positive
from .stable import StableParams, c_alpha, sample_stable
from .subordinator import SubordinatorModel


class LimitKind(enum.Enum):
    PART1_STABLE = "part1_stable"
    PART1_NORMAL = "part1_normal"
    PART2_INVERSE_STABLE = "part2_inverse_stable"
    GUMBEL = "gumbel"


class LimitLaw:
    """Base of the four limit laws, one frozen dataclass per regime.

    Each law carries its :class:`LimitKind` as the class attribute
    ``kind``; ``alpha``, ``sigma`` and ``mean_s1`` are None where its
    regime has no such parameter, and every field must be positive and
    finite.  ``normalize(x, log_n)`` maps raw order statistics, as a
    float array, to the law's scale (``log_n`` positive and finite),
    ``sample(rng, count)`` draws ``count`` variates (an int >= 1), and
    ``cdf`` is the analytic CDF, or None for the two stable laws, which are
    compared with a reference population instead.  Both methods check
    their arguments here and hand the work to the regime's ``_normalize``
    and ``_sample``; the module functions :func:`normalize` and
    :func:`sample_limit` only forward to them, for ``bench/``.
    """

    cdf = None

    def normalize(self, x, log_n: float) -> np.ndarray:
        _require_positive("log_n", log_n)
        return self._normalize(np.asarray(x, dtype=float), log_n)

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        return self._sample(rng, _require_int("count", count, 1))

    def __post_init__(self) -> None:
        for field in fields(self):
            _require_positive(field.name, getattr(self, field.name))

    def _normalization(self) -> dict:
        power = "1" if self.alpha is None else f"(log n)^{1.0 / self.alpha:g}"
        return {"center": f"log(n) / {self.mean_s1:.12g}",
                "scale": f"{power} / {self.mean_s1:.12g}"}

    def to_json(self) -> dict:
        """The law's parameters and, as formulas in n, its normalization:
        the ``lfmo limit`` payload, with the same keys for every kind."""
        tail_to_scale = (None if self.alpha is None or self.alpha >= 2.0
                         else c_alpha(self.alpha))
        return {"kind": self.kind.value, "alpha": self.alpha,
                "sigma": self.sigma, "c_alpha": tail_to_scale,
                "mean_s1": self.mean_s1,
                "normalization": self._normalization()}


@dataclass(frozen=True)
class GumbelLaw(LimitLaw):
    """Standard Gumbel law of ``mean_s1 * x - log n``, for a drift of rate
    ``mean_s1``."""

    kind = LimitKind.GUMBEL
    alpha = sigma = None
    mean_s1: float

    def _normalize(self, x: np.ndarray, log_n: float) -> np.ndarray:
        return self.mean_s1 * x - log_n

    def _sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        return rng.gumbel(0.0, 1.0, count)

    def cdf(self, x):
        return np.exp(-np.exp(-np.asarray(x)))


@dataclass(frozen=True)
class NormalLaw(LimitLaw):
    """Normal(0, sigma^2) law of
    ``(x - log n / mean_s1) / ((log n)^(1/2) / mean_s1)``."""

    kind = LimitKind.PART1_NORMAL
    alpha = 2.0
    sigma: float
    mean_s1: float

    def _normalize(self, x: np.ndarray, log_n: float) -> np.ndarray:
        return ((x - log_n / self.mean_s1)
                / (log_n ** (1.0 / self.alpha) / self.mean_s1))

    def _sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        return rng.normal(0.0, self.sigma, count)

    def cdf(self, x):
        return ndtr(np.asarray(x, dtype=float) / self.sigma)


@dataclass(frozen=True)
class StableLaw(LimitLaw):
    """Totally left-skewed Stable(alpha, sigma, -1, 0) law of
    ``(x - log n / mean_s1) / ((log n)^(1/alpha) / mean_s1)``."""

    kind = LimitKind.PART1_STABLE
    alpha: float
    sigma: float
    mean_s1: float
    _normalize = NormalLaw._normalize

    def _sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        return sample_stable(StableParams(self.alpha, self.sigma, -1.0, 0.0),
                             rng, count)


@dataclass(frozen=True)
class InverseStableLaw(LimitLaw):
    """Law of Sigma^(-alpha), Sigma ~ Stable(alpha, sigma, 1, 0) positive,
    for ``x / (log n)^scaling_exponent``, with no centering."""

    kind = LimitKind.PART2_INVERSE_STABLE
    mean_s1 = None
    alpha: float
    sigma: float
    scaling_exponent: float

    def _normalization(self) -> dict:
        return {"center": 0.0, "scale": f"(log n)^{self.scaling_exponent:g}"}

    def _normalize(self, x: np.ndarray, log_n: float) -> np.ndarray:
        return x / log_n ** self.scaling_exponent

    def _sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        return sample_stable(StableParams(self.alpha, self.sigma, 1.0, 0.0),
                             rng, count) ** -self.alpha


def limit_law_for(model: SubordinatorModel,
                  part2_scaling_exponent: float | None = None) -> LimitLaw:
    """Build the limit law and normalization for a subordinator model.

    A pure drift (``kind == "drift"``) gives the Gumbel law with the
    normalization ``c x - log n``.  Otherwise the steps' tail index a
    decides: a > 2 gives the normal law; Pareto(a) steps with a < 2 have
    P(S_1 > t) ~ lam * t^(-a) (one-jump dominance for subexponential step
    laws), hence the stable law for a in (1, 2) and the inverse-stable law
    for a < 1.  The boundaries a = 1 and a = 2 raise
    :class:`UnsupportedRegimeError`.  A constant outside the
    float range (Var S_1 that overflows to inf or underflows to 0), a
    scaling exponent that is not positive and finite, or one given for a
    model outside the inverse-stable regime, raises a ValueError naming it.
    """
    if part2_scaling_exponent is not None:
        _require_positive("part2 scaling exponent", part2_scaling_exponent)
    mean, var = model.moments()
    if model.kind == "drift":
        law = GumbelLaw(mean)
    elif (a := model.step.tail_index()) in (1.0, 2.0):
        raise UnsupportedRegimeError(
            f"Pareto exponent {a:g} is a regime boundary (1: finite against "
            "infinite mean, 2: finite against infinite variance); its "
            "normalization needs a logarithmic correction that is not "
            "implemented")
    elif a > 2.0:
        if not 0.0 < var < math.inf:
            raise ValueError(f"Var S_1 of {model} leaves the float range")
        law = NormalLaw(math.sqrt(var / mean), mean)
    elif a > 1.0:
        law = StableLaw(a, _stable_scale(model.lam / (c_alpha(a) * mean), a),
                        mean)
    else:
        law = InverseStableLaw(a, _stable_scale(model.lam / c_alpha(a), a),
                               a if part2_scaling_exponent is None
                               else float(part2_scaling_exponent))
    if (part2_scaling_exponent is not None
            and law.kind is not LimitKind.PART2_INVERSE_STABLE):
        raise ValueError("a part2 scaling exponent applies only to the "
                         "part2_inverse_stable regime, not to "
                         f"{law.kind.value}")
    return law


def _stable_scale(ratio: float, a: float) -> float:
    """sigma = ratio^(1/a), or a ValueError when it leaves the float range."""
    try:
        return ratio ** (1.0 / a)
    except OverflowError:
        raise ValueError(f"limit-law scale sigma = {ratio:.6g}^(1/{a:g}) "
                         "exceeds the float range") from None


def normalize(samples, log_n: float, law: LimitLaw) -> np.ndarray:
    """``law.normalize(samples, log_n)`` (see :class:`LimitLaw`)."""
    return law.normalize(samples, log_n)


def sample_limit(law: LimitLaw, rng: np.random.Generator,
                 count: int) -> np.ndarray:
    """``law.sample(rng, count)``: ``count`` variates, shape (count,)."""
    return law.sample(rng, count)


def sample_limit_with_stats(law: LimitLaw, rng: np.random.Generator,
                            count: int) -> tuple[np.ndarray, int]:
    """``law.sample(rng, count)`` and its count of rejected draws, always
    0; kept for the benchmark replay until ROADMAP items 3/10 drop it."""
    return law.sample(rng, count), 0


def _binomial_cdf(k: float, n: float, p) -> np.ndarray | float:
    """P(Bin(n, p) <= k) through the regularized incomplete beta function."""
    result = betainc(n - k, k + 1.0, 1.0 - np.clip(p, 0.0, 1.0))
    return result if result.ndim else float(result)


def f_n(x, n: int, m: int, alpha: float):
    """P(Bin(n, e^{-x (log n)^(1/alpha)} / n) <= n - m), the regime-1 kernel.

    Below the branch point x = -(log n)^(1 - 1/alpha) the success
    probability saturates at 1.  Vectorized in x; n and m are ints with
    1 <= m <= n, and alpha is positive and finite.
    """
    n = _require_int("n", n, 1)
    m = _require_int("m", m, 1, n)
    _require_positive("alpha", alpha)
    x = np.asarray(x, dtype=float)
    ln_n = math.log(n)
    root = ln_n ** (1.0 / alpha)
    with np.errstate(over="ignore"):
        p = np.where(x >= -ln_n / root,
                     np.exp(np.minimum(-x * root, ln_n)) / n,
                     1.0)
    return _binomial_cdf(n - m, n, p)


def g_n(x, n: int, m: int):
    """P(Bin(n, n^{-x}) <= n - m), the regime-2 kernel; p = 1 for x < 0.
    Vectorized in x; n and m are ints with 1 <= m <= n."""
    n = _require_int("n", n, 1)
    m = _require_int("m", m, 1, n)
    x = np.asarray(x, dtype=float)
    ln_n = math.log(n)
    p = np.where(x >= 0.0, np.exp(-np.maximum(x, 0.0) * ln_n), 1.0)
    return _binomial_cdf(n - m, n, p)


def _require_part1(law: LimitLaw, what: str) -> None:
    """Refuse, in one line, a law outside regime 1 (no sigma or no E S_1)."""
    if law.sigma is None or law.mean_s1 is None:
        raise ValueError(f"{what} applies to the regime-1 laws, not to "
                         f"{law.kind.value}")


def u_n(t: float, log_n: float, mean_s1: float, alpha: float) -> float:
    """Time horizon (log n + t (log n)^(1/alpha)) / E S_1 of the zoom-out,
    for a finite ``t`` and positive, finite ``log_n``, ``mean_s1`` and
    ``alpha``; a horizon outside [0, inf) is refused."""
    for name, value in (("log_n", log_n), ("mean_s1", mean_s1),
                        ("alpha", alpha)):
        _require_positive(name, value)
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, got {t}")
    value = (log_n + t * log_n ** (1.0 / alpha)) / mean_s1
    if not 0.0 <= value < math.inf:
        raise ValueError(
            f"u_n = {value} is outside [0, inf); t = {t} is outside the "
            f"admissible range"
        )
    return value


def zoom_out_statistic(s_value, u_n_value: float, t: float, law: LimitLaw,
                       log_n: float):
    """Centered-and-scaled path value whose limit is the stable/normal variate.

    Takes S evaluated at the horizon u_n and returns
    ((S - u_n E S_1) / (sigma (u_n E S_1)^(1/alpha))) times the finite-n
    correction factor (1 + t (log n)^(-(alpha-1)/alpha))^(1/alpha), for a
    horizon ``u_n_value`` in [0, inf), a finite ``t`` and a positive,
    finite ``log_n``.
    """
    _require_part1(law, "the zoom-out statistic")
    _require_positive("log_n", log_n)
    if not 0.0 <= u_n_value < math.inf:
        raise ValueError(f"u_n must be >= 0 and finite, got {u_n_value}")
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, got {t}")
    s_value = np.asarray(s_value, dtype=float)
    a = law.alpha
    horizon = u_n_value * law.mean_s1
    core = (s_value - horizon) / (law.sigma * horizon ** (1.0 / a))
    correction = (1.0 + t * log_n ** (-(a - 1.0) / a)) ** (1.0 / a)
    return core * correction


@dataclass(frozen=True)
class LemmaCheck:
    name: str
    passed: bool
    values: tuple[float, ...]


@dataclass(frozen=True)
class LemmaSuiteReport:
    checks: tuple[LemmaCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _binomial_normal_ks(n: int, p: float) -> float:
    """Sup distance between the CDF of (Bin(n,p) - np) / sqrt(np) and Phi."""
    mean = n * p
    spread = math.sqrt(mean)
    k_hi = min(n, int(mean + 15.0 * spread) + 1)
    k = np.arange(0, k_hi + 1)
    cdf = betainc(n - k, k + 1.0, 1.0 - p)  # P(Bin(n, p) <= k); 1 at k = n
    phi = ndtr((k - mean) / spread)
    left = np.concatenate(([0.0], cdf[:-1]))
    return float(max(np.max(np.abs(cdf - phi)), np.max(np.abs(phi - left))))


def lemma_suite() -> LemmaSuiteReport:
    """Finite-n proxies for the supporting limit lemmas, as pass/fail checks.

    (i) (1 + q/n)^n / e^q -> 1 for q = o(sqrt n): the deviation at
    q = n^0.4 shrinks along n and obeys the q^2/n leading-order bound;
    (ii) the standardized Bin(n, 1/sqrt n) CDF approaches the normal CDF;
    (iii) P(Bin(n, p_n) <= 0) -> 1 when n p_n -> 0, at the 1 - 1/n rate for
    p_n = n^-2; (iv) P(Bin(n, p_n) <= k_n) -> 0 when the standardized
    threshold (k_n - n p_n) / sqrt(n p_n) drifts to -infinity.
    """
    checks = []

    ns1 = (10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6)
    devs = []
    for n in ns1:
        q = n ** 0.4
        devs.append(abs(math.expm1(n * math.log1p(q / n) - q)))
    bound_n = 10 ** 4
    bound_ok = devs[1] < bound_n ** -0.2
    passed1 = all(b < a for a, b in zip(devs, devs[1:])) and bound_ok
    checks.append(LemmaCheck("exponential_expansion_ratio", passed1, tuple(devs)))

    ns2 = (10 ** 2, 10 ** 3, 10 ** 4, 10 ** 5)
    distances = [_binomial_normal_ks(n, n ** -0.5) for n in ns2]
    passed2 = all(b < a for a, b in zip(distances, distances[1:]))
    checks.append(LemmaCheck("binomial_normal_distance", passed2, tuple(distances)))

    ns3 = (10 ** 2, 10 ** 3, 10 ** 4)
    probs3 = [float(_binomial_cdf(0, n, n ** -2.0)) for n in ns3]
    passed3 = all(p >= 1.0 - 1.0 / n for p, n in zip(probs3, ns3))
    checks.append(LemmaCheck("vanishing_mean_mass_at_zero", passed3, tuple(probs3)))

    probs4 = []
    for n in ns2:
        p = n ** -0.5
        mean = n * p
        k = max(0, math.floor(mean - math.log(n) * math.sqrt(mean)))
        probs4.append(float(_binomial_cdf(k, n, p)))
    passed4 = all(b < a for a, b in zip(probs4, probs4[1:]))
    checks.append(LemmaCheck("drifting_threshold_tail", passed4, tuple(probs4)))

    return LemmaSuiteReport(tuple(checks))
