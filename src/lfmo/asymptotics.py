"""Limit laws for the upper order statistics as the dimension explodes.

For a system driven by a subordinator with E S_1 finite, the last failures
concentrate at log(n) / E S_1 and fluctuate on the (log n)^(1/alpha) scale
around it; the fluctuation law is normal when Var S_1 is finite and a
totally left-skewed stable law when the tail index alpha lies in (1, 2).
When E S_1 is infinite (alpha < 1) there is no concentration: the last
failures live on the (log n)^alpha scale and converge to an inverse power
of a positive stable variable.  The boundaries alpha = 1 (finite against
infinite mean) and alpha = 2 (finite against infinite variance) are
refused: their normalizations need a logarithmic correction (at alpha = 1,
S_t ~ t log t) that is not implemented.  A pure drift S_t = c t has iid
Exp(c) lifetimes, and c T_{n:n} - log n tends to the standard Gumbel law:
the zero-variance control.

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
from dataclasses import dataclass

import numpy as np
from scipy.special import betainc, ndtr

from .errors import UnsupportedRegimeError
from .stable import StableParams, c_alpha, sample_stable
from .subordinator import SubordinatorModel


class LimitKind(enum.Enum):
    PART1_STABLE = "part1_stable"
    PART1_NORMAL = "part1_normal"
    PART2_INVERSE_STABLE = "part2_inverse_stable"
    GUMBEL = "gumbel"


@dataclass(frozen=True)
class LimitLaw:
    """A limit distribution together with its normalization transform.

    For the concentrating regimes the transform is
    ``(x - log n / mean_s1) / ((log n)^(1/alpha) / mean_s1)``; for the
    non-concentrating regime it is ``x / (log n)^scaling_exponent`` with no
    centering; for the Gumbel law of a drift (no ``alpha`` or ``sigma``) it
    is ``mean_s1 * x - log n``.
    """

    kind: LimitKind
    alpha: float | None
    sigma: float | None
    mean_s1: float | None = None
    scaling_exponent: float | None = None

    def stable_params(self) -> StableParams | None:
        """Stable parameters of the limit variate (of Sigma, in regime 2)."""
        if self.kind is LimitKind.PART1_STABLE:
            return StableParams(self.alpha, self.sigma, -1.0, 0.0)
        if self.kind is LimitKind.PART2_INVERSE_STABLE:
            return StableParams(self.alpha, self.sigma, 1.0, 0.0)
        return None

    @property
    def has_cdf(self) -> bool:
        """Whether :meth:`cdf` is analytic; the stable laws are compared with
        a reference population instead."""
        return self.kind in (LimitKind.PART1_NORMAL, LimitKind.GUMBEL)

    def cdf(self, x):
        """Analytic CDF where one exists (:attr:`has_cdf`), else None."""
        if self.kind is LimitKind.PART1_NORMAL:
            return ndtr(np.asarray(x, dtype=float) / self.sigma)
        if self.kind is LimitKind.GUMBEL:
            return np.exp(-np.exp(-np.asarray(x)))
        return None

    def to_json(self) -> dict:
        """The law's parameters and, as formulas in n, its normalization:
        the ``lfmo limit`` payload, with the same keys for every kind."""
        if self.kind is LimitKind.PART2_INVERSE_STABLE:
            normalization = {"center": 0.0,
                             "scale": f"(log n)^{self.scaling_exponent:g}"}
        else:
            power = ("1" if self.alpha is None
                     else f"(log n)^{1.0 / self.alpha:g}")
            normalization = {"center": f"log(n) / {self.mean_s1:.12g}",
                             "scale": f"{power} / {self.mean_s1:.12g}"}
        return {
            "kind": self.kind.value,
            "alpha": self.alpha,
            "sigma": self.sigma,
            "c_alpha": (None if self.alpha is None or self.alpha >= 2.0
                        else c_alpha(self.alpha)),
            "mean_s1": self.mean_s1,
            "normalization": normalization,
        }


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
    _check_scaling_exponent(part2_scaling_exponent)
    mean, var = model.moments()
    if model.kind == "drift":
        law = LimitLaw(LimitKind.GUMBEL, alpha=None, sigma=None, mean_s1=mean)
    elif (a := model.step.tail_index()) in (1.0, 2.0):
        raise UnsupportedRegimeError(
            f"Pareto exponent {a:g} is a regime boundary (1: finite against "
            "infinite mean, 2: finite against infinite variance); its "
            "normalization needs a logarithmic correction that is not "
            "implemented")
    elif a > 2.0:
        if not 0.0 < var < math.inf:
            raise ValueError(f"Var S_1 of {model} leaves the float range")
        law = LimitLaw(LimitKind.PART1_NORMAL, alpha=2.0,
                       sigma=math.sqrt(var / mean), mean_s1=mean)
    elif a > 1.0:
        sigma = _stable_scale(model.lam / (c_alpha(a) * mean), a)
        law = LimitLaw(LimitKind.PART1_STABLE, alpha=a, sigma=sigma,
                       mean_s1=mean)
    else:
        sigma = _stable_scale(model.lam / c_alpha(a), a)
        exponent = (a if part2_scaling_exponent is None
                    else float(part2_scaling_exponent))
        law = LimitLaw(LimitKind.PART2_INVERSE_STABLE, alpha=a, sigma=sigma,
                       scaling_exponent=exponent)
    if (part2_scaling_exponent is not None
            and law.kind is not LimitKind.PART2_INVERSE_STABLE):
        raise ValueError("a part2 scaling exponent applies only to the "
                         "part2_inverse_stable regime, not to "
                         f"{law.kind.value}")
    return law


def _check_scaling_exponent(exponent: float | None) -> None:
    """Refuse a part-2 scaling exponent that is not positive and finite
    (None, the default, stands for the tail index)."""
    if exponent is not None and not 0.0 < exponent < math.inf:
        raise ValueError("part2 scaling exponent must be positive and "
                         f"finite, got {exponent}")


def _stable_scale(ratio: float, a: float) -> float:
    """sigma = ratio^(1/a), or a ValueError when it leaves the float range."""
    try:
        return ratio ** (1.0 / a)
    except OverflowError:
        raise ValueError(f"limit-law scale sigma = {ratio:.6g}^(1/{a:g}) "
                         "exceeds the float range") from None


def normalize(samples, log_n: float, law: LimitLaw) -> np.ndarray:
    """Apply the normalization of ``law`` (see :class:`LimitLaw`)
    elementwise."""
    if not log_n > 0.0:
        raise ValueError(f"log_n must be > 0, got {log_n}")
    samples = np.asarray(samples, dtype=float)
    if law.kind is LimitKind.GUMBEL:
        return law.mean_s1 * samples - log_n
    if law.kind is LimitKind.PART2_INVERSE_STABLE:
        return samples / log_n ** law.scaling_exponent
    return ((samples - log_n / law.mean_s1)
            / (log_n ** (1.0 / law.alpha) / law.mean_s1))


def sample_limit(law: LimitLaw, rng: np.random.Generator,
                 count: int) -> np.ndarray:
    """Draw ``count`` variates of the limit law, shape (count,); the
    inverse-stable law is Sigma^(-alpha) with Sigma positive stable."""
    if count < 1:
        raise ValueError("count must be >= 1")
    if law.kind is LimitKind.PART1_NORMAL:
        return rng.normal(0.0, law.sigma, count)
    if law.kind is LimitKind.GUMBEL:
        return rng.gumbel(0.0, 1.0, count)
    draws = sample_stable(law.stable_params(), rng, count)
    if law.kind is LimitKind.PART1_STABLE:
        return draws
    return draws ** -law.alpha


def sample_limit_with_stats(law: LimitLaw, rng: np.random.Generator,
                            count: int) -> tuple[np.ndarray, int]:
    """:func:`sample_limit` and its count of rejected draws, always 0; kept
    for the benchmark replay until ROADMAP items 3/10 drop it."""
    return sample_limit(law, rng, count), 0


def _binomial_cdf(k: float, n: float, p) -> np.ndarray | float:
    """P(Bin(n, p) <= k) through the regularized incomplete beta function."""
    result = betainc(n - k, k + 1.0, 1.0 - np.clip(p, 0.0, 1.0))
    return result if result.ndim else float(result)


def f_n(x, n: int, m: int, alpha: float):
    """P(Bin(n, e^{-x (log n)^(1/alpha)} / n) <= n - m), the regime-1 kernel.

    Below the branch point x = -(log n)^(1 - 1/alpha) the success
    probability saturates at 1.  Vectorized in x.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not 1 <= m <= n:
        raise ValueError(f"m must lie in [1, n], got {m}")
    x = np.asarray(x, dtype=float)
    ln_n = math.log(n)
    root = ln_n ** (1.0 / alpha)
    with np.errstate(over="ignore"):
        p = np.where(x >= -ln_n / root,
                     np.exp(np.minimum(-x * root, ln_n)) / n,
                     1.0)
    return _binomial_cdf(n - m, n, p)


def g_n(x, n: int, m: int):
    """P(Bin(n, n^{-x}) <= n - m), the regime-2 kernel; p = 1 for x < 0."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not 1 <= m <= n:
        raise ValueError(f"m must lie in [1, n], got {m}")
    x = np.asarray(x, dtype=float)
    ln_n = math.log(n)
    p = np.where(x >= 0.0, np.exp(-np.maximum(x, 0.0) * ln_n), 1.0)
    return _binomial_cdf(n - m, n, p)


def _require_part1(law: LimitLaw, what: str) -> None:
    """Refuse, in one line, a law outside regime 1 (no alpha or no E S_1)."""
    if law.kind not in (LimitKind.PART1_NORMAL, LimitKind.PART1_STABLE):
        raise ValueError(f"{what} applies to the regime-1 laws, not to "
                         f"{law.kind.value}")


def u_n(t: float, log_n: float, mean_s1: float, alpha: float) -> float:
    """Time horizon (log n + t (log n)^(1/alpha)) / E S_1 of the zoom-out."""
    value = (log_n + t * log_n ** (1.0 / alpha)) / mean_s1
    if value < 0.0:
        raise ValueError(
            f"u_n = {value} < 0; t = {t} is below the admissible range"
        )
    return value


def zoom_out_statistic(s_value, u_n_value: float, t: float, law: LimitLaw,
                       log_n: float):
    """Centered-and-scaled path value whose limit is the stable/normal variate.

    Takes S evaluated at the horizon u_n and returns
    ((S - u_n E S_1) / (sigma (u_n E S_1)^(1/alpha))) times the finite-n
    correction factor (1 + t (log n)^(-(alpha-1)/alpha))^(1/alpha).
    """
    _require_part1(law, "the zoom-out statistic")
    if u_n_value < 0.0:
        raise ValueError(f"u_n must be >= 0, got {u_n_value}")
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
