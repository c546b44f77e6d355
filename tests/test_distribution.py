import hashlib
import math
import random
import sys
import tracemalloc
from fractions import Fraction
from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp
from mpmath.libmp import from_float, mpf_exp, mpf_mul, mpf_neg, round_nearest

from lfmo import (
    CompoundPoisson,
    ConstantSteps,
    ExactN,
    ExponentialSteps,
    GumbelLaw,
    InvalidDimensionError,
    LfmoModel,
    LinearDrift,
    LogScaleN,
    NormalLaw,
    ParetoSteps,
    PrecisionLossError,
    crossing_times_batch,
    decomposition_check,
    exact_tail_probability,
    gumbel_switch_error_bound,
    ks_critical_value,
    laplace_exponent,
    mean_last_order_statistic,
    mo_equivalence_check,
    sample_exchangeable_mo,
    sample_increments,
    sample_upper_order_statistics,
    sample_vector,
    shock_rates,
    tail_probability_mc,
)

from lfmo.distribution import _PREC, _dot, _exp_term, _pair
from lfmo.montecarlo import resolve_workers

from conftest import ks_one_sample_p, ks_two_sample_p

CPP25 = CompoundPoisson(1.0, ParetoSteps(2.5))
CPP4 = CompoundPoisson(1.0, ParetoSteps(4.0))
DRIFT1 = LinearDrift(1.0)


def psi_of(model):
    return lambda x: laplace_exponent(model, x)


def gap_reference_top(model, k_top, rng, count):
    """Top k_top lifetimes by the definition: the same trigger law, then a
    CPP path simulated jump by jump, an Exp(lam) gap and a step per jump."""
    levels = sample_upper_order_statistics(
        LfmoModel(model.dimension, DRIFT1), k_top, rng, count=count)
    cpp = model.subordinator
    times = np.full(levels.shape, np.nan)
    t, s = np.zeros(count), np.zeros(count)
    rows = np.arange(count)
    while rows.size:
        t[rows] += rng.exponential(1.0 / cpp.lam, rows.size)
        s[rows] += cpp.step.sample(rng, rows.size)
        crossed = (s[rows, None] >= levels[rows]) & np.isnan(times[rows])
        r, j = np.nonzero(crossed)
        times[rows[r], j] = t[rows[r]]
        rows = rows[np.isnan(times[rows, 0])]
    return times


class TestSampleVector:
    def test_single_component_drift_is_exponential(self, rng):
        model = LfmoModel(ExactN(1), DRIFT1)
        draws = sample_vector(model, rng, count=10 ** 5)[:, 0]
        assert ks_one_sample_p(draws, lambda t: 1.0 - np.exp(-t)) > 0.01

    def test_marginals_are_exponential_psi1(self, rng):
        model = LfmoModel(ExactN(3), CPP25)
        psi1 = laplace_exponent(CPP25, 1.0)
        draws = sample_vector(model, rng, count=10 ** 5)
        for coord in range(3):
            p = ks_one_sample_p(draws[:, coord],
                                lambda t: 1.0 - np.exp(-psi1 * t))
            assert p > 0.01

    def test_minimum_is_exponential_psi_n(self, rng):
        model = LfmoModel(ExactN(5), CPP25)
        psi5 = laplace_exponent(CPP25, 5.0)
        draws = sample_vector(model, rng, count=10 ** 5).min(axis=1)
        assert ks_one_sample_p(draws, lambda t: 1.0 - np.exp(-psi5 * t)) > 0.01

    def test_sorted_vector_matches_top_k_sampler_per_rank(self, rng):
        # two routes to the full order-statistic vector at n = 5
        n = 5
        model = LfmoModel(ExactN(n), CPP25)
        from_vector = np.sort(sample_vector(model, rng, count=10 ** 5),
                              axis=1)[:, ::-1]
        from_top = sample_upper_order_statistics(model, n, rng, count=10 ** 5)
        for rank in range(n):
            assert ks_two_sample_p(from_vector[:, rank],
                                   from_top[:, rank]) > 0.01

    def test_log_scale_rejected(self, rng):
        with pytest.raises(InvalidDimensionError):
            sample_vector(LfmoModel(LogScaleN(20.0), CPP25), rng, count=1)

    def test_single_draw_shape(self, rng):
        model = LfmoModel(ExactN(4), CPP25)
        assert sample_vector(model, rng, count=1).shape == (1, 4)

    @pytest.mark.parametrize("n, count, step, digest", [
        (30, 70_000, ParetoSteps(2.5),
         "1cd3fa6eefb0f22b871386e75089fd4c7ab93f5cd22d0acf4fb7171d4db44662"),
        (30, 70_000, ExponentialSteps(2.0),
         "54a0baca31b6649cdb5dbf72bc218093d73c71cccc1fa72daeb8af32d00cc41f"),
        (3, 150_000, ParetoSteps(2.5),
         "817c3f04481ab6a1999c7fb3040454b025f80bf84aea7133c07dba07aad53e56"),
    ], ids=["n30-pareto", "n30-exponential", "n3-pareto"])
    def test_bytes_across_the_block_boundary(self, n, count, step, digest):
        # first passage crosses 65,536 rows per block, so each draw spans
        # two or three blocks
        model = LfmoModel(ExactN(n), CompoundPoisson(1.0, step))
        out = sample_vector(model, np.random.default_rng(5), count)
        assert hashlib.sha256(out.tobytes()).hexdigest() == digest

    def test_peak_memory_is_output_sized(self):
        # the output, the crossing times, a one-byte permutation and one
        # block: about 2.5 times the output, where a sorted copy, a fresh
        # output and an int64 permutation took 5.3 times
        model = LfmoModel(ExactN(3), CPP25)
        tracemalloc.start()
        try:
            out = sample_vector(model, np.random.default_rng(11), 10 ** 6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * out.nbytes
        assert hashlib.sha256(out.tobytes()).hexdigest() == (
            "960884d244594e0d69a8444e6942a18bb74feaa80adda1ee9777f5c04beaa4de")


class TestUpperOrderStatistics:
    def test_drift_last_failure_has_max_exponential_law(self, rng):
        n = 1000
        model = LfmoModel(ExactN(n), DRIFT1)
        draws = sample_upper_order_statistics(model, 1, rng, count=10 ** 5)
        cdf = lambda t: (1.0 - np.exp(-np.asarray(t))) ** n
        assert ks_one_sample_p(draws[:, 0], cdf) > 0.01

    def test_rows_nonincreasing(self, rng):
        for dim in (ExactN(50), LogScaleN(15.0)):
            model = LfmoModel(dim, CPP25)
            draws = sample_upper_order_statistics(model, 3, rng, count=5000)
            assert np.all(np.diff(draws, axis=1) <= 0.0)

    def test_cross_regime_equivalence(self, rng):
        # the same dimension given exactly and on the log scale; the lower
        # ranks take log(n - j) as ln n + log1p(-j/n) on the log scale
        exact = sample_upper_order_statistics(
            LfmoModel(ExactN(10 ** 6), CPP25), 3, rng, count=10 ** 5)
        log_scale = sample_upper_order_statistics(
            LfmoModel(LogScaleN(6.0), CPP25), 3, rng, count=10 ** 5)
        for rank in range(3):
            assert ks_two_sample_p(exact[:, rank], log_scale[:, rank]) > 0.01

    @pytest.mark.parametrize("alpha", [2.5, 0.5])
    @pytest.mark.parametrize("log10_n", [10.0, 160.0])
    def test_matches_jump_by_jump_reference(self, alpha, log10_n, rng):
        model = LfmoModel(LogScaleN(log10_n),
                          CompoundPoisson(1.0, ParetoSteps(alpha)))
        draws = sample_upper_order_statistics(model, 3, rng, count=20_000)
        reference = gap_reference_top(model, 3, rng, 20_000)
        for rank in range(3):
            assert ks_two_sample_p(draws[:, rank], reference[:, rank]) > 0.01

    @pytest.mark.parametrize("alpha", [2.5, 0.5])
    @pytest.mark.parametrize("log10_n", [10.0, 160.0])
    def test_positive_gaps_between_last_failures_are_exponential(
            self, alpha, log10_n):
        # the gap between the (j+1)-th and (j+2)-th largest lifetimes is,
        # where positive, Exp(psi(j + 1)) at every n (ROADMAP item 13): a
        # Renyi spacing, a memoryless overshoot, then e^(-t psi(j + 1)).
        # A wrong carried sum or Gamma timing in first passage fails it
        model = LfmoModel(LogScaleN(log10_n),
                          CompoundPoisson(1.0, ParetoSteps(alpha)))
        draws = sample_upper_order_statistics(
            model, 3, np.random.default_rng(31), count=10 ** 5)
        for j in range(2):
            gaps = draws[:, j] - draws[:, j + 1]
            rate = laplace_exponent(model.subordinator, j + 1.0)
            assert ks_one_sample_p(
                gaps[gaps > 0.0],
                lambda t: -np.expm1(-rate * np.asarray(t))) > 0.01

    def test_k_top_validation(self, rng):
        model = LfmoModel(ExactN(3), CPP25)
        with pytest.raises(InvalidDimensionError):
            sample_upper_order_statistics(model, 4, rng, count=1)
        with pytest.raises(InvalidDimensionError):
            # n = 10^0.3 ~ 1.995 < 2
            sample_upper_order_statistics(
                LfmoModel(LogScaleN(0.3), CPP25), 2, rng, count=1)
        with pytest.raises(ValueError):
            sample_upper_order_statistics(model, 0, rng, count=1)

    def test_triggers_positive_even_at_tiny_n(self, rng):
        model = LfmoModel(ExactN(2), DRIFT1)
        draws = sample_upper_order_statistics(model, 2, rng, count=20_000)
        assert np.all(draws > 0.0)


class TestExactTail:
    def test_first_order_statistic_single_term(self):
        # m = 1 collapses to exp(-psi(n) t)
        value = exact_tail_probability(4, 1, 0.5, psi_of(DRIFT1))
        assert value == pytest.approx(math.exp(-2.0), abs=1e-12)

    def test_t_zero_is_one_exactly(self):
        psi = psi_of(CPP25)
        for n in (1, 3, 7, 12, 30):
            for m in (1, (n + 1) // 2, n):
                assert exact_tail_probability(n, m, 0.0, psi) == 1.0

    def test_monotone_in_t_and_m(self):
        psi = psi_of(CPP25)
        grid = np.linspace(0.0, 3.0, 13)
        for m in (1, 3, 5):
            values = [exact_tail_probability(5, m, float(t), psi) for t in grid]
            assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))
        for t in (0.3, 1.0):
            by_m = [exact_tail_probability(5, m, t, psi) for m in range(1, 6)]
            assert all(b >= a - 1e-12 for a, b in zip(by_m, by_m[1:]))

    def test_against_conditional_mc_oracle(self, rng):
        psi = psi_of(CPP25)
        for t in (0.5, 1.0, 2.0):
            exact = exact_tail_probability(5, 5, t, psi)
            est, se = tail_probability_mc(CPP25, 5, 5, t, rng, count=10 ** 6)
            assert abs(exact - est) <= 3.0 * se

    def test_domain_errors(self):
        psi = psi_of(DRIFT1)
        with pytest.raises(ValueError):
            exact_tail_probability(5, 0, 1.0, psi)
        with pytest.raises(ValueError):
            exact_tail_probability(5, 6, 1.0, psi)
        with pytest.raises(ValueError):
            exact_tail_probability(5, 2, -0.5, psi)
        with pytest.raises(ValueError):
            exact_tail_probability(31, 2, 0.5, psi)

    def test_precision_loss_detected(self):
        # a positive but non-monotone "psi" is not a Laplace exponent and
        # drives the alternating sum far outside [0, 1]
        bogus = lambda k: 2.0 if k % 2 else 1.0
        with pytest.raises(PrecisionLossError):
            exact_tail_probability(10, 5, 2.0, bogus)

    def test_both_ends_of_t_at_n30(self):
        # t = inf lies beyond the float range, where every tail is 0
        for model in (CPP25, DRIFT1):
            psi = psi_of(model)
            for m in range(1, 31):
                assert exact_tail_probability(30, m, 0.0, psi) == 1.0
                assert exact_tail_probability(30, m, math.inf, psi) == 0.0

    def test_t_beyond_the_float_range_is_zero(self):
        # an int t past float max, and t = inf where psi(3) = 0 (whose term
        # e^(-0 inf) has no value), both give the limit 0
        psi = lambda k: float(k)
        assert exact_tail_probability(3, 1, 10 ** 400, psi) == 0.0
        zero_at_3 = lambda k: 0.0 if k == 3 else float(k)
        for m in (1, 2, 3):
            assert exact_tail_probability(3, m, math.inf, zero_at_3) == 0.0


class TestMeanLast:
    def test_harmonic_identity_for_unit_drift(self):
        psi = psi_of(DRIFT1)
        for n in (1, 2, 3, 10, 30):
            harmonic = sum(1.0 / k for k in range(1, n + 1))
            assert mean_last_order_statistic(n, psi) == \
                pytest.approx(harmonic, abs=1e-10)

    def test_n_one_is_inverse_psi(self):
        psi = psi_of(CPP25)
        assert mean_last_order_statistic(1, psi) == \
            pytest.approx(1.0 / psi(1), abs=1e-12)

    def test_matches_mc_mean(self, rng):
        model = LfmoModel(ExactN(4), CPP25)
        exact = mean_last_order_statistic(4, psi_of(CPP25))
        draws = sample_upper_order_statistics(model, 1, rng, count=10 ** 5)[:, 0]
        se = draws.std(ddof=1) / math.sqrt(draws.size)
        assert abs(draws.mean() - exact) < 4.0 * se

    def test_invalid_psi_rejected(self):
        with pytest.raises(ValueError):
            mean_last_order_statistic(3, lambda k: 0.0)

    @pytest.mark.parametrize("model", [
        LinearDrift(1e-320), CompoundPoisson(1e-310, ExponentialSteps(1.0))],
        ids=["drift", "cpp"])
    def test_mean_beyond_float_range_refused(self, model):
        # psi(k) is positive and finite, but H_3 / psi(1) ~ 1.8e320 is not
        with pytest.raises(ValueError, match="inf is not finite"):
            mean_last_order_statistic(3, psi_of(model))

    @pytest.mark.parametrize("model", [
        CPP25, CompoundPoisson(1.0, ExponentialSteps(2.0)), DRIFT1,
        LinearDrift(0.37)], ids=["cpp-pareto2.5", "cpp-exp2", "drift-1",
                                 "drift-0.37"])
    @pytest.mark.parametrize("n", [1, 3, 12, 30])
    def test_exact_given_float_psi(self, model, n):
        # the one rounding is that of the exact rational sum of w_k / psi(k)
        psi = psi_of(model)
        exact = sum((-1) ** (k - 1) * math.comb(n, k) / Fraction(psi(k))
                    for k in range(1, n + 1))
        assert mean_last_order_statistic(n, psi).hex() == float(exact).hex()

    def test_subnormal_mean_rounds_once(self):
        # 1 / 7e307 lies below the least normal float, where rounding at
        # 203 bits and then again to a subnormal lands one ulp low
        assert mean_last_order_statistic(1, lambda k: 7e307) == 1 / 7e307
        assert mean_last_order_statistic(3, lambda k: 7e307) == 1 / 7e307

    def test_negative_mean_is_precision_loss(self):
        # psi(1) = 1, psi(2) = 0.4 is no Laplace exponent: 2/1 - 1/0.4 < 0
        with pytest.raises(PrecisionLossError, match="evaluated to -0.49.* <= 0"):
            mean_last_order_statistic(2, {1: 1.0, 2: 0.4}.__getitem__)


class TestShockRates:
    def test_n_one_is_psi_one(self):
        psi = psi_of(CPP25)
        rates = shock_rates(1, psi)
        assert rates[0] == pytest.approx(psi(1), abs=1e-12)

    def test_marginal_and_total_rate_identities(self):
        # sum_v C(n-1, v-1) rate_v = psi(1): total rate hitting one component
        # sum_v C(n, v) rate_v = psi(n): total shock rate
        for model in (CPP25, CompoundPoisson(2.0, ParetoSteps(4.0)), DRIFT1):
            psi = psi_of(model)
            n = 6
            rates = shock_rates(n, psi)
            assert np.all(rates >= 0.0)
            marginal = sum(math.comb(n - 1, v - 1) * rates[v - 1]
                           for v in range(1, n + 1))
            total = sum(math.comb(n, v) * rates[v - 1] for v in range(1, n + 1))
            assert marginal == pytest.approx(psi(1), abs=1e-8)
            assert total == pytest.approx(psi(n), abs=1e-8)

    def test_drift_puts_all_mass_on_singletons(self):
        # psi linear: increments are constant, higher differences vanish
        rates = shock_rates(4, psi_of(LinearDrift(2.0)))
        assert rates[0] == pytest.approx(2.0, abs=1e-12)
        assert np.allclose(rates[1:], 0.0, atol=1e-12)

    def test_zero_rate_sizes_draw_nothing(self):
        # rates [1, 0, 0]: each component dies at its own unit shock, and
        # the subset sizes of rate 0 take nothing from the stream
        rng, replay = np.random.default_rng(4), np.random.default_rng(4)
        draws = sample_exchangeable_mo(3, [1.0, 0.0, 0.0], rng, 1000)
        assert np.array_equal(draws, np.column_stack(
            [replay.exponential(1.0, 1000) for _ in range(3)]))
        assert rng.bit_generator.state == replay.bit_generator.state

    def test_shock_model_keeps_its_bytes(self):
        draws = sample_exchangeable_mo(3, shock_rates(3, CPP25.psi),
                                       np.random.default_rng(5), 10 ** 5)
        assert hashlib.sha256(draws.tobytes()).hexdigest() == (
            "a91451d1183700c4712f690aa1c9db7ef7aef7ef9689fcaf6349d17187a96a4f")

    def test_shock_model_matches_path_model(self, rng):
        # joint survival on a grid, both constructions, n = 3
        n, count = 3, 10 ** 5
        rates = shock_rates(n, psi_of(CPP25))
        mo = sample_exchangeable_mo(n, rates, rng, count)
        lf = sample_vector(LfmoModel(ExactN(n), CPP25), rng, count)
        for point in ((0.25, 0.25, 0.25), (0.5, 1.0, 0.25), (1.5, 1.5, 1.5)):
            p_mo = np.all(mo > np.asarray(point), axis=1).mean()
            p_lf = np.all(lf > np.asarray(point), axis=1).mean()
            se = math.sqrt((p_mo * (1 - p_mo) + p_lf * (1 - p_lf)) / count)
            assert abs(p_mo - p_lf) <= 3.0 * max(se, 1e-6)


# --- the cached exact formulas against plain 60-digit per-term loops ------

EXACT_T = (0.05, 0.1, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0)


def reference_tail(n, m, t, psi):
    with mp.workdps(60):
        total = mp.mpf(0)
        for k in range(n - m + 1, n + 1):
            weight = math.comb(n, k) * math.comb(k - 1, n - m)
            sign = -1 if (k - n + m - 1) % 2 else 1
            total += sign * weight * mp.e ** (-mp.mpf(psi(k)) * t)
        return min(max(float(total), 0.0), 1.0)


def reference_mean(n, psi):
    with mp.workdps(60):
        total = mp.mpf(0)
        for k in range(1, n + 1):
            total += (-1) ** (k - 1) * math.comb(n, k) / mp.mpf(psi(k))
        return float(total)


def reference_rates(n, psi):
    values = [0.0] + [float(psi(k)) for k in range(1, n + 1)]
    rates = []
    with mp.workdps(60):
        for v in range(1, n + 1):
            total = mp.mpf(0)
            for i in range(v):
                inc = mp.mpf(values[n - v + i + 1]) - mp.mpf(values[n - v + i])
                total += (-1) ** i * math.comb(v - 1, i) * inc
            rates.append(float(total))
    return np.maximum(np.array(rates), 0.0)


@pytest.mark.parametrize("call, message", [
    (lambda rng: ExactN(0), "dimension must be >= 1"),
    (lambda rng: sample_upper_order_statistics(
        LfmoModel(ExactN(3), CPP25), 1, rng, count=0), "count must be >= 1"),
    (lambda rng: sample_vector(LfmoModel(ExactN(3), CPP25), rng, count=0),
     "count must be >= 1"),
    (lambda rng: mean_last_order_statistic(0, psi_of(DRIFT1)),
     "n must be >= 1"),
    (lambda rng: tail_probability_mc(CPP25, 3, 4, 1.0, rng),
     "m must lie in"),
    (lambda rng: sample_exchangeable_mo(3, [1.0, 2.0], rng, 5),
     "one rate per subset size"),
    (lambda rng: sample_exchangeable_mo(17, np.ones(17), rng, 5),
     "small n"),
    (lambda rng: sample_increments(CPP25, -1.0, rng, 5), "time must be >= 0"),
    (lambda rng: sample_increments(DRIFT1, math.nan, rng, 2),
     "time must be >= 0"),
    (lambda rng: laplace_exponent(CPP25, math.nan),
     "Laplace exponent requires x >= 0"),
    (lambda rng: ExactN(2.5), "dimension must be an integer"),
    (lambda rng: ExactN(True), "dimension must be an integer"),
    (lambda rng: crossing_times_batch(CPP25, np.zeros((3, 0)), rng),
     r"levels must have shape \(paths, k\) with k >= 1"),
    (lambda rng: tail_probability_mc(CPP25, 3, 1, 1.0, rng, count=0),
     "count must be >= 1"),
    (lambda rng: decomposition_check(CPP4, 10 ** 3, 0.0, rng, path_count=1),
     "path_count must be >= 2"),
    (lambda rng: decomposition_check(CPP4, 10 ** 3, 0.0, rng,
                                     direct_count=0),
     "direct_count must be >= 1"),
    (lambda rng: mo_equivalence_check(CPP25, rng, count=1),
     "count must be >= 2"),
    (lambda rng: ks_critical_value(0), "n_effective must be positive"),
    (lambda rng: ks_critical_value(math.inf), "n_effective must be positive"),
    (lambda rng: ks_critical_value(100, 0.0), r"level must lie in \(0, 1\)"),
    (lambda rng: ks_critical_value(100, 1.0), r"level must lie in \(0, 1\)"),
    (lambda rng: ks_critical_value(100, 1.5), r"level must lie in \(0, 1\)"),
    (lambda rng: ks_critical_value(100, math.nan),
     r"level must lie in \(0, 1\)"),
    (lambda rng: decomposition_check(CPP4, 1, 0.0, rng), "n must be >= 2"),
    (lambda rng: decomposition_check(CPP4, 1e3, 0.0, rng),
     "n must be an integer"),
    (lambda rng: tail_probability_mc(CPP25, 3.5, 1, 1.0, rng),
     "n must be an integer"),
    (lambda rng: tail_probability_mc(CPP25, 3, 1.5, 1.0, rng),
     "m must be an integer"),
    (lambda rng: sample_exchangeable_mo(2, [1.0, -0.5], rng, 5),
     "rates must be >= 0 and finite"),
    (lambda rng: sample_exchangeable_mo(2, [math.nan, 1.0], rng, 5),
     "rates must be >= 0 and finite"),
    (lambda rng: sample_exchangeable_mo(2, [1.0, math.inf], rng, 5),
     "rates must be >= 0 and finite"),
    (lambda rng: sample_increments(CPP25, math.inf, rng, 2),
     "time must be >= 0 and finite"),
    (lambda rng: sample_increments(DRIFT1, math.inf, rng, 2),
     "time must be >= 0 and finite"),
    (lambda rng: sample_upper_order_statistics(
        LfmoModel(ExactN(3), CPP25), 1, rng, count=2.5),
     "count must be an integer"),
    (lambda rng: sample_upper_order_statistics(
        LfmoModel(ExactN(3), CPP25), 1, rng, count=True),
     "count must be an integer"),
    (lambda rng: sample_upper_order_statistics(
        LfmoModel(ExactN(3), CPP25), 1.5, rng, count=2),
     "k_top must be an integer"),
    (lambda rng: sample_vector(LfmoModel(ExactN(3), CPP25), rng, count=2.5),
     "count must be an integer"),
    (lambda rng: sample_vector(LfmoModel(ExactN(3), CPP25), rng, count=True),
     "count must be an integer"),
    (lambda rng: sample_exchangeable_mo(3, [1.0, 0.0, 0.0], rng, 0),
     "count must be >= 1"),
    (lambda rng: sample_exchangeable_mo(3, [1.0, 0.0, 0.0], rng, 2.5),
     "count must be an integer"),
    (lambda rng: sample_exchangeable_mo(3, [1.0, 0.0, 0.0], rng, True),
     "count must be an integer"),
    (lambda rng: sample_increments(CPP25, 1.0, rng, 0), "count must be >= 1"),
    (lambda rng: sample_increments(CPP25, 1.0, rng, 2.5),
     "count must be an integer"),
    (lambda rng: sample_increments(CPP25, 1.0, rng, True),
     "count must be an integer"),
    (lambda rng: tail_probability_mc(CPP25, 3, 1, 1.0, rng, count=2.5),
     "count must be an integer"),
    (lambda rng: tail_probability_mc(CPP25, 3, 1, 1.0, rng, count=True),
     "count must be an integer"),
    (lambda rng: decomposition_check(CPP4, 10 ** 3, 0.0, rng,
                                     path_count=2.5),
     "path_count must be an integer"),
    (lambda rng: mo_equivalence_check(CPP25, rng, count=2.5),
     "count must be an integer"),
    (lambda rng: gumbel_switch_error_bound(math.nan), "n must lie in"),
    (lambda rng: resolve_workers(2.5), "worker count must be an integer"),
    (lambda rng: LogScaleN(True), "log10_n must be positive and finite"),
    # each method checks its own arguments, with its module function's
    # message
    (lambda rng: DRIFT1.psi(-1.0), "Laplace exponent requires x >= 0"),
    (lambda rng: ConstantSteps(1.0).psi(-1.0),
     "Laplace exponent requires x >= 0"),
    (lambda rng: ExponentialSteps(2.0).psi(-1.0),
     "Laplace exponent requires x >= 0"),
    (lambda rng: DRIFT1.first_passage([[-1.0, 2.0]], rng),
     "levels must be >= 0"),
    (lambda rng: CPP25.first_passage([[math.nan]], rng),
     "levels must be finite"),
    (lambda rng: CPP25.first_passage([[3.0, 1.0]], rng),
     "levels must be nondecreasing"),
    (lambda rng: CPP25.increments(1.0, rng, 2.5), "count must be an integer"),
    (lambda rng: NormalLaw(1.0, 1.0).normalize([1.0], -1.0),
     "log_n must be positive and finite"),
    (lambda rng: GumbelLaw(1.0).normalize([1.0], math.nan),
     "log_n must be positive and finite"),
    (lambda rng: NormalLaw(1.0, 1.0).sample(rng, 0), "count must be >= 1"),
], ids=["exact-n-zero", "top-count-zero", "vector-count-zero",
        "mean-last-n-zero", "mc-m-above-n", "shock-model-rate-shape",
        "shock-model-n-17", "increments-negative-t", "increments-nan-t",
        "laplace-nan", "exact-n-fraction", "exact-n-bool", "no-levels",
        "mc-count-zero", "decomposition-one-path",
        "decomposition-no-direct-draws", "mo-equivalence-one-draw",
        "ks-critical-zero", "ks-critical-inf", "ks-level-zero",
        "ks-level-one", "ks-level-above-one", "ks-level-nan",
        "decomposition-n-one", "decomposition-n-float", "mc-n-fraction",
        "mc-m-fraction", "shock-model-negative-rate", "shock-model-nan-rate",
        "shock-model-inf-rate", "increments-cpp-inf-t",
        "increments-drift-inf-t", "top-count-fraction", "top-count-bool",
        "top-k-fraction", "vector-count-fraction", "vector-count-bool",
        "shock-model-count-zero", "shock-model-count-fraction",
        "shock-model-count-bool", "increments-count-zero",
        "increments-count-fraction", "increments-count-bool",
        "mc-count-fraction", "mc-count-bool", "decomposition-paths-fraction",
        "mo-equivalence-count-fraction", "gumbel-bound-nan",
        "workers-fraction", "log-scale-n-bool", "drift-psi-negative",
        "constant-psi-negative", "exponential-psi-negative",
        "drift-passage-negative-level", "cpp-passage-nan-level",
        "cpp-passage-decreasing-levels", "cpp-increments-count-fraction",
        "normal-normalize-negative-log-n", "gumbel-normalize-nan-log-n",
        "normal-sample-count-zero"])
def test_count_and_range_checks(call, message, rng):
    with pytest.raises(ValueError, match=message):
        call(rng)


def test_exact_n_takes_numpy_integers(rng):
    draws = sample_vector(LfmoModel(ExactN(np.int64(3)), CPP25), rng, count=2)
    assert draws.shape == (2, 3)


FORMULAS = [
    lambda psi: exact_tail_probability(3, 3, 0.0, psi),
    lambda psi: mean_last_order_statistic(3, psi),
    lambda psi: shock_rates(3, psi),
]
FORMULA_IDS = ["tail", "mean-last", "shock-rates"]


@pytest.mark.parametrize("bad", [math.inf, math.nan])
@pytest.mark.parametrize("formula", FORMULAS, ids=FORMULA_IDS)
def test_non_finite_psi_is_refused(formula, bad):
    # an overflowing psi(k), as in a drift with c = 1e308, gives nan
    # probabilities and rates and a wrong mean unless it is refused
    psi = lambda k: bad if k == 2 else float(k)
    with pytest.raises(ValueError, match=r"psi\(2\) = .* is not finite"):
        formula(psi)


@pytest.mark.parametrize("formula", FORMULAS, ids=FORMULA_IDS)
def test_negative_psi_is_refused_at_its_smallest_k(formula):
    # no Laplace exponent is negative; unrefused, a negative psi would
    # surface as a misleading PrecisionLossError, or as rates
    psi = lambda k: float(k) if k < 2 else -float(k)
    with pytest.raises(ValueError, match=r"psi\(2\) = -2.0 is negative"):
        formula(psi)


@pytest.mark.parametrize("call, name", [
    (lambda psi: exact_tail_probability(True, 1, 1.0, psi), "n"),
    (lambda psi: exact_tail_probability(3.0, 1, 1.0, psi), "n"),
    (lambda psi: exact_tail_probability(3, True, 1.0, psi), "m"),
    (lambda psi: exact_tail_probability(3, 2.0, 1.0, psi), "m"),
    (lambda psi: mean_last_order_statistic(True, psi), "n"),
    (lambda psi: shock_rates(2.0, psi), "n"),
], ids=["tail-n-bool", "tail-n-float", "tail-m-bool", "tail-m-float",
        "mean-last-n-bool", "shock-rates-n-float"])
def test_exact_formulas_take_only_integer_dimensions(call, name):
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        call(psi_of(DRIFT1))


def test_exact_formulas_take_numpy_integers():
    psi = psi_of(CPP25)
    n, m = np.int64(5), np.int32(3)
    assert exact_tail_probability(n, m, 0.5, psi) == \
        exact_tail_probability(5, 3, 0.5, psi)
    assert mean_last_order_statistic(n, psi) == \
        mean_last_order_statistic(5, psi)
    assert np.array_equal(shock_rates(n, psi), shock_rates(5, psi))


class TestCachedFormulasMatchReference:
    @pytest.mark.parametrize("alpha", [0.45, 1.0, 1.7, 2.5, 3.9])
    def test_pareto_tails_and_mean_bit_identical(self, alpha):
        n = 30
        psi = psi_of(CompoundPoisson(1.0, ParetoSteps(alpha)))
        for m in range(1, n + 1):
            for t in EXACT_T:
                assert exact_tail_probability(n, m, t, psi) == \
                    reference_tail(n, m, t, psi)
        assert mean_last_order_statistic(n, psi) == reference_mean(n, psi)

    def test_drift_tails_at_t8_keep_relative_accuracy(self):
        # tails down to ~1e-104: an absolute-error shortcut would flush them
        n, t = 30, 8.0
        psi = psi_of(DRIFT1)
        p = math.exp(-t)
        for m in range(1, n + 1):
            value = exact_tail_probability(n, m, t, psi)
            closed = math.fsum(math.comb(n, j) * p ** j * (1 - p) ** (n - j)
                               for j in range(n - m + 1, n + 1))
            assert value == reference_tail(n, m, t, psi)
            assert value > 0.0
            assert value == pytest.approx(closed, rel=1e-12)

    def test_cache_keys_on_values_not_callables(self):
        n = 12
        psi_a = psi_of(CPP25)
        psi_b = psi_of(CompoundPoisson(2.0, ParetoSteps(0.7)))
        psi_a_again = lambda k: laplace_exponent(CPP25, k)
        for m in range(1, n + 1):
            for t in EXACT_T:
                a = exact_tail_probability(n, m, t, psi_a)
                b = exact_tail_probability(n, m, t, psi_b)
                assert a == reference_tail(n, m, t, psi_a)
                assert b == reference_tail(n, m, t, psi_b)
                assert exact_tail_probability(n, m, t, psi_a_again) == a

    @pytest.mark.parametrize("n", [3, 6, 30])
    def test_shock_rates_bit_identical(self, n):
        for model in (CPP25, CompoundPoisson(1.0, ParetoSteps(0.5)), DRIFT1):
            psi = psi_of(model)
            assert np.array_equal(shock_rates(n, psi),
                                  reference_rates(n, psi))


# --- the int dot-product kernel behind all three formulas -----------------

def random_term(rng, spread):
    """A (man, exp) term with a 203-bit mantissa: positive, negative or
    zero, exponent within ``spread`` bits."""
    if rng.random() < 0.1:
        return (0, 0)
    man = rng.getrandbits(_PREC) | 1 << (_PREC - 1)
    return (-man if rng.random() < 0.5 else man,
            -rng.randrange(spread) - _PREC)


def fdot(weights, values):
    """mp.fdot at 60 digits of raw libmp values or (man, exp) terms."""
    with mp.workdps(60):
        return float(mp.fdot(weights, [mp.mpf(x) for x in values]))


class TestDotKernel:
    def test_matches_fdot_bit_for_bit(self):
        rng = random.Random(1)
        for _ in range(400):
            size = rng.randrange(1, 31)
            weights = [rng.randrange(-2 ** 42, 2 ** 42) for _ in range(size)]
            terms = [random_term(rng, 300) for _ in range(size)]
            want = fdot(weights, terms)
            got = _dot(weights, terms)
            assert got.hex() == want.hex()

    def test_exact_beyond_twice_prec(self):
        # fdot's mpf_sum drops a term more than 2 prec bits below its
        # running sum, so [x, tiny, -x] gives 0; the int kernel keeps it
        def exact(weights, terms):
            return float(sum(w * man * Fraction(2) ** exp
                             for w, (man, exp) in zip(weights, terms)))

        tiny = random_term(random.Random(0), 1)
        big = (3, 1000)
        assert _dot([1, 1, -1], [big, tiny, big]) == \
            exact([1, 1, -1], [big, tiny, big]) != 0.0
        assert fdot([1, 1, -1], [big, tiny, big]) == 0
        rng = random.Random(2)
        for _ in range(200):
            size = rng.randrange(2, 31)
            weights = [rng.randrange(-2 ** 42, 2 ** 42) for _ in range(size)]
            terms = [random_term(rng, 20 * _PREC) for _ in range(size)]
            big = random_term(rng, 1)
            # the two largest terms cancel, so the small ones decide
            assert _dot(weights + [5, -5], terms + [big, big]) == \
                exact(weights + [5, -5], terms + [big, big])

    def test_zero_terms_add_nothing_at_any_exponent(self):
        # a zero term never shifts, even beside positive exponents
        assert _dot([7, 2], [(0, 0), (3, 1000)]) == 6.0 * 2.0 ** 1000
        assert _dot([7, 2], [(0, 0), (0, 0)]) == 0.0

    @pytest.mark.parametrize("model, pin", [
        (DRIFT1, (30, 30, 400.0, 5.7455087901420169e-173)),
        (LinearDrift(0.37), None),
        (CompoundPoisson(1.0, ExponentialSteps(2.0)), (30, 2, 800.0, 0.0)),
        (CPP25, None),
    ], ids=["drift-1", "drift-0.37", "cpp-exp2", "cpp-pareto2.5"])
    def test_far_t_tails_are_the_exact_sum_rounded_once(self, model, pin):
        # the sum of every 60-digit term, also those below the floor that
        # the formula zeroes, rounded once and clamped as the formula does
        psi = psi_of(model)
        for n in (3, 30):
            for m in range(1, n + 1):
                ks = range(n - m + 1, n + 1)
                weights = [(-1) ** (k - n + m - 1) * math.comb(n, k)
                           * math.comb(k - 1, n - m) for k in ks]
                for t in (50.0, 400.0, 800.0, 1000.0):
                    exact = sum(w * man * Fraction(2) ** exp for w, (man, exp)
                                in zip(weights, (_exp_term(psi(k), t)
                                                 for k in ks)))
                    want = min(max(float(exact), 0.0), 1.0)
                    assert exact_tail_probability(n, m, t, psi).hex() == \
                        want.hex(), (n, m, t)
        if pin:  # a cell whose terms lie far below the least float, and a
            # 0 (terms at 2^-1079.7 and 2^-1082.0) that a floor cutting
            # between its two terms, at 2^-1080, would give as 5e-324
            n, m, t, want = pin
            assert exact_tail_probability(n, m, t, psi).hex() == want.hex()

    def test_rounds_once_to_nearest(self):
        # mantissas whose rounding at 203 bits would land on, next to or
        # across a tie at 53 bits, where libmp's double rounding shows, as
        # well as short ones; normal, subnormal and overflowing results
        rng = random.Random(4)
        low = _PREC - 53

        def near_half(bits):
            half = 1 << (bits - 1)
            return rng.choice([rng.getrandbits(bits), half - 1, half, half + 1])

        for _ in range(4000):
            if rng.random() < 0.2:
                man = rng.getrandbits(rng.randrange(1, _PREC + 1)) | 1
            else:
                cut = rng.randrange(2, 80)
                head = (rng.getrandbits(53) | 1 << 52) << low | near_half(low)
                man = head << cut | near_half(cut)
            man = -man if rng.random() < 0.5 else man
            top = rng.choice([rng.randrange(-1000, 1000),
                              rng.randrange(-1080, -1020),
                              rng.randrange(1015, 1030)])
            exp = top - man.bit_length()
            try:
                want = float(man * Fraction(2) ** exp)
            except OverflowError:
                want = math.inf if man > 0 else -math.inf
            assert _dot([1], [(man, exp)]).hex() == want.hex()

    def test_signed_zero_and_infinity_far_out(self):
        # exponents whose power of two no int could hold
        assert _dot([1], [(0, 5)]).hex() == "0x0.0p+0"
        assert _dot([1], [(-3, -2 ** 70)]).hex() == "-0x0.0p+0"
        assert _dot([1], [(3, -2 ** 70)]).hex() == "0x0.0p+0"
        assert _dot([-1], [(1, 2 ** 70)]) == -math.inf
        assert _dot([1], [(1, -1075)]) == 0.0  # a tie rounds to even
        assert _dot([1], [(3, -1076)]) == 5e-324

    def test_exp_term_is_60_digit_mp_exp(self):
        rng = random.Random(3)
        for _ in range(300):
            p, t = rng.uniform(0.0, 60.0), rng.choice(EXACT_T + (60.0,))
            with mp.workdps(60):
                want = mp.exp(-mp.mpf(p) * t)._mpf_
            assert _exp_term(p, t) == _pair(want)

    def test_formulas_ignore_the_callers_precision(self):
        psi = psi_of(CPP25)
        n = 12
        values = ([exact_tail_probability(n, m, t, psi)
                   for m in range(1, n + 1) for t in EXACT_T],
                  mean_last_order_statistic(n, psi),
                  shock_rates(n, psi).tolist())
        _exp_term.cache_clear()
        with mp.workdps(15):
            assert ([exact_tail_probability(n, m, t, psi)
                     for m in range(1, n + 1) for t in EXACT_T],
                    mean_last_order_statistic(n, psi),
                    shock_rates(n, psi).tolist()) == values
            assert mp.prec == 53
        assert mp.prec == 53


PSI_VALUES = st.one_of(
    st.floats(min_value=0.0, max_value=1e300),
    st.floats(min_value=0.0, max_value=1e-300),
    st.sampled_from([0.0, 5e-324, 2.0 ** -1022, 1.0, 1e300,
                     sys.float_info.max]),
    st.integers(min_value=0, max_value=2 ** 80),
)
T_VALUES = st.one_of(st.floats(min_value=0.0, max_value=1e3),
                     st.sampled_from([0.0, 5e-324, 1.0, 1e300]))


@settings(max_examples=300, deadline=None)
@given(PSI_VALUES, T_VALUES)
def test_exp_term_matches_libmps_float_product(p, t):
    # the cached term is the 60-digit exp of libmp's exact float product,
    # which the two integer ratios give, as a (man, exp) pair
    argument = mpf_mul(mpf_neg(from_float(p)), from_float(t))
    assert _exp_term(p, t) == _pair(mpf_exp(argument, _PREC, round_nearest))


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="float psi(k): the weights amplify its 1-ulp errors "
                          "(ROADMAP item 1a; Pareto, item 1b)")
@pytest.mark.parametrize("model, psi_mp", [
    (CompoundPoisson(1.0, ExponentialSteps(2.0)),
     lambda k: mp.mpf(k) / (2 + k)),
    # mp.mpf(0.37) is the exact value of the float slope
    (LinearDrift(0.37), lambda k: mp.mpf(0.37) * k),
    # E exp(-k J) = alpha E_{alpha+1}(k); cached, as each k recurs per cell
    (CPP25, cache(lambda k: 1 - 2.5 * mp.expint(3.5, k))),
], ids=["cpp-exp2", "drift-0.37", "cpp-pareto2.5"])
def test_n30_tails_match_80_digit_truth(model, psi_mp):
    # every cell must be evaluated (no PrecisionLossError) to within 1e-13
    # of the alternating sum over closed-form psi at 80 digits
    n = 30
    worst, refused = 0.0, []
    for m in range(1, n + 1):
        for t in (0.25, 0.5, 1.0, 2.0, 4.0):
            try:
                value = exact_tail_probability(n, m, t, model.psi)
            except PrecisionLossError:
                refused.append((m, t))
                continue
            with mp.workdps(80):
                truth = mp.fsum(
                    (-1) ** (k - n + m - 1) * math.comb(n, k)
                    * math.comb(k - 1, n - m) * mp.exp(-psi_mp(k) * t)
                    for k in range(n - m + 1, n + 1))
                worst = max(worst, float(abs(mp.mpf(value) - truth)))
    assert not refused, f"{len(refused)} cells refused, first {refused[0]}"
    assert worst <= 1e-13


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="float psi(k): the weights amplify its 1-ulp errors "
                          "into negative rates (ROADMAP item 1a)")
@pytest.mark.parametrize("model, psi_mp", [
    # the rates of a drift are exactly [0.37, 0, ..., 0]
    (LinearDrift(0.37), lambda k: mp.mpf(0.37) * k),
    (CompoundPoisson(0.7, ConstantSteps(0.4)),
     lambda k: mp.mpf(0.7) * -mp.expm1(-mp.mpf(0.4) * k)),
], ids=["drift-0.37", "cpp-constant0.4"])
def test_n30_shock_rates_match_80_digit_truth(model, psi_mp):
    # no PrecisionLossError, and every rate within 1e-12 of the alternating
    # differences of closed-form psi at 80 digits
    n = 30
    refused = None
    try:
        rates = shock_rates(n, model.psi)
    except PrecisionLossError as exc:
        refused = exc
    assert refused is None, f"refused: {refused}"
    with mp.workdps(80):
        psi = [mp.mpf(0)] + [psi_mp(k) for k in range(1, n + 1)]
        truth = [mp.fsum((-1) ** i * math.comb(v - 1, i)
                         * (psi[n - v + i + 1] - psi[n - v + i])
                         for i in range(v))
                 for v in range(1, n + 1)]
        worst = max(float(abs(mp.mpf(r) - t)) for r, t in zip(rates, truth))
    assert worst <= 1e-12


@pytest.mark.parametrize("n", [1, 3, 12, 30])
@pytest.mark.parametrize("model, refused_at_30", [
    (CompoundPoisson(1.0, ExponentialSteps(2.0)), False),
    (CompoundPoisson(0.7, ConstantSteps(0.4)), True),
    (LinearDrift(0.37), True),
    (CPP25, False),
], ids=["cpp-exp2", "cpp-constant0.4", "drift-0.37", "cpp-pareto2.5"])
def test_shock_rates_are_the_exact_sums_of_float_psi(model, refused_at_30, n):
    # each rate is the alternating difference of the float psi increments,
    # summed exactly and rounded once, clamped at 0; where that sum is
    # below -1e-9 (the drift and constant steps at n = 30, ROADMAP item
    # 1a) the rates are refused
    psi = [Fraction(0)] + [Fraction(model.psi(k)) for k in range(1, n + 1)]
    exact = [sum((-1) ** i * math.comb(v - 1, i)
                 * (psi[n - v + i + 1] - psi[n - v + i]) for i in range(v))
             for v in range(1, n + 1)]
    refused = refused_at_30 and n == 30
    assert refused == (min(exact) < Fraction(-1, 10 ** 9))
    if refused:
        with pytest.raises(PrecisionLossError):
            shock_rates(n, model.psi)
    else:
        assert shock_rates(n, model.psi).tolist() == \
            [max(float(r), 0.0) for r in exact]


@settings(max_examples=25, deadline=None, derandomize=True)
@given(alpha=st.floats(0.3, 4.0, exclude_min=True, exclude_max=True)
       .filter(lambda a: a != 2.0),
       n=st.integers(1, 30), data=st.data())
def test_exact_tail_is_a_probability_monotone_in_t_and_m(alpha, n, data):
    m = data.draw(st.integers(1, n), label="m")
    t1, t2 = sorted(data.draw(st.floats(0.0, 8.0), label=f"t{i}")
                    for i in (1, 2))
    psi = psi_of(CompoundPoisson(1.0, ParetoSteps(alpha)))
    early = exact_tail_probability(n, m, t1, psi)
    late = exact_tail_probability(n, m, t2, psi)
    assert 0.0 <= late <= early <= 1.0
    if m < n:
        assert early <= exact_tail_probability(n, m + 1, t1, psi)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(alpha=st.floats(0.3, 4.0, exclude_min=True, exclude_max=True)
       .filter(lambda a: a != 2.0),
       n=st.integers(1, 12))
def test_shock_rates_are_nonnegative_and_keep_both_identities(alpha, n):
    # n stops at 12: at n = 30 the alternating sums lose more digits than
    # the float psi values have and raise PrecisionLossError, a known defect
    model = CompoundPoisson(1.0, ParetoSteps(alpha))
    rates = shock_rates(n, model.psi)
    assert np.all(rates >= 0.0)
    marginal = sum(math.comb(n - 1, v - 1) * rates[v - 1]
                   for v in range(1, n + 1))
    total = sum(math.comb(n, v) * rates[v - 1] for v in range(1, n + 1))
    assert marginal == pytest.approx(model.psi(1), rel=1e-12)
    assert total == pytest.approx(model.psi(n), rel=1e-12)


STEPS = st.one_of(
    st.floats(0.3, 4.0, exclude_min=True, exclude_max=True)
    .filter(lambda a: a != 2.0).map(ParetoSteps),
    st.floats(0.1, 10.0).map(ExponentialSteps),
    st.floats(0.1, 10.0).map(ConstantSteps),
)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(step=STEPS, k_top=st.integers(1, 4), data=st.data())
def test_top_order_statistic_rows_never_increase(step, k_top, data):
    dimension = data.draw(st.one_of(
        st.integers(k_top, 10 ** 6).map(ExactN),
        st.floats(1.0, 300.0).map(LogScaleN)), label="dimension")
    seed = data.draw(st.integers(0, 2 ** 32 - 1), label="seed")
    rows = sample_upper_order_statistics(
        LfmoModel(dimension, CompoundPoisson(1.0, step)), k_top,
        np.random.default_rng(seed), count=200)
    assert rows.shape == (200, k_top)
    assert np.all(rows > 0.0)
    assert np.all(np.diff(rows, axis=1) <= 0.0)


class TestConditionalOracle:
    def test_drift_oracle_is_deterministic(self, rng):
        from scipy.stats import binom
        est, se = tail_probability_mc(DRIFT1, 5, 3, 0.7, rng, count=100)
        assert se < 1e-15  # constant conditional probability, no MC noise
        assert est == pytest.approx(float(binom.sf(2, 5, math.exp(-0.7))),
                                    abs=1e-12)
