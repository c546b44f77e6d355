import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp
from scipy.special import gammainc, gammaincc
from scipy.stats import poisson, skellam

from lfmo import (
    BudgetExceededError,
    CompoundPoisson,
    ConstantSteps,
    ExponentialSteps,
    LimitKind,
    LinearDrift,
    ParetoSteps,
    UnsupportedRegimeError,
    crossing_times_batch,
    laplace_exponent,
    limit_law_for,
    parse_subordinator,
    sample_increments,
    tail_probability_mc,
)
import lfmo.subordinator
from lfmo.subordinator import _KINDS, _ROW_ADD_WIDTH

from conftest import ks_one_sample_p

CPP25 = CompoundPoisson(1.0, ParetoSteps(2.5))


class TestLaplaceExponent:
    def test_drift_linear(self):
        assert laplace_exponent(LinearDrift(1.0), 3.0) == pytest.approx(3.0)

    def test_zero_is_exact(self):
        for model in (LinearDrift(2.0), CPP25,
                      CompoundPoisson(0.5, ConstantSteps(2.0))):
            assert laplace_exponent(model, 0.0) == 0.0
        for step in (ParetoSteps(2.5), ConstantSteps(2.0),
                     ExponentialSteps(2.0)):
            assert step.psi(0.0) == 0.0

    def test_constant_step_closed_form(self):
        model = CompoundPoisson(2.0, ConstantSteps(1.0))
        assert laplace_exponent(model, 1.0) == pytest.approx(
            2.0 * (1.0 - math.exp(-1.0)), abs=1e-12)

    def test_exponential_step_closed_form(self):
        model = CompoundPoisson(3.0, ExponentialSteps(2.0))
        assert laplace_exponent(model, 4.0) == pytest.approx(
            3.0 * (1.0 - 2.0 / 6.0), abs=1e-12)

    def test_exponential_step_where_rate_plus_x_overflows(self):
        # x / (rate + x) would read nan at x = inf and 0 at rate = x = 1e308
        assert laplace_exponent(
            CompoundPoisson(1.0, ExponentialSteps(2.0)), math.inf) == 1.0
        assert laplace_exponent(
            CompoundPoisson(1.0, ExponentialSteps(1e308)), 1e308) == 0.5

    @pytest.mark.parametrize("step, one_minus_laplace", [
        (ExponentialSteps(1e6), lambda x: x / (1e6 + x)),
        (ExponentialSteps(2.0), lambda x: x / (2 + x)),
        (ConstantSteps(1e-6), lambda x: -mp.expm1(-x * mp.mpf(1e-6))),
        (ConstantSteps(2.0), lambda x: -mp.expm1(-2 * x)),
    ], ids=["exp-1e6", "exp-2", "constant-1e-6", "constant-2"])
    def test_closed_forms_keep_their_digits_at_small_x(
            self, step, one_minus_laplace):
        # 1 - E exp(-x J) taken as a difference from 1 cancels at small x:
        # psi(1e-10) on Exp(1e6) used to read 1.11e-16 against 1e-16
        model = CompoundPoisson(1.0, step)
        with mp.workdps(50):
            for x in (1e-300, 1e-10, 1e-6, 1.0, 30.0):
                truth = one_minus_laplace(mp.mpf(x))
                error = abs(mp.mpf(laplace_exponent(model, x)) - truth)
                assert error <= 4.5e-16 * truth, x

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="quadrature of 1 - E exp(-x J) cancels below "
                              "x ~ 1e-4 (ROADMAP item 1b)")
    def test_pareto_at_small_x(self):
        # psi / lam = -expm1(-x) + x E_alpha(x) (Abramowitz & Stegun
        # 5.1.14), a sum of two nonnegative terms; about 1.77e-4 here
        x, a = 1e-8, 0.5
        with mp.workdps(50):
            truth = float(-mp.expm1(-x) + x * mp.expint(a, x))
        value = laplace_exponent(CompoundPoisson(1.0, ParetoSteps(a)), x)
        assert value > 0.0
        assert value == pytest.approx(truth, rel=1e-12, abs=0.0)

    def test_pareto_against_independent_trapezoid(self):
        # second, independent quadrature of E exp(-x J)
        x, a = 1.0, 2.5
        u = np.linspace(1.0, 60.0, 2 ** 23 + 1)
        trapezoid = np.trapezoid(a * np.exp(-x * u) * u ** (-a - 1.0), u)
        expected = 1.0 * (1.0 - trapezoid)
        assert laplace_exponent(CompoundPoisson(1.0, ParetoSteps(a)), x) == \
            pytest.approx(expected, abs=1e-8)

    def test_negative_argument_rejected(self):
        with pytest.raises(ValueError):
            laplace_exponent(CPP25, -0.1)

    def test_nondecreasing_and_concave_on_grid(self):
        grid = np.arange(0.0, 20.5, 0.5)
        for model in (CPP25, CompoundPoisson(1.0, ParetoSteps(0.5)),
                      CompoundPoisson(2.0, ExponentialSteps(1.5)),
                      LinearDrift(0.7)):
            values = np.array([laplace_exponent(model, float(x)) for x in grid])
            assert np.all(np.diff(values) >= -1e-8)
            assert np.all(np.diff(values, 2) <= 1e-8)


class TestMoments:
    def test_drift(self):
        assert LinearDrift(2.0).moments() == (2.0, 0.0)

    def test_pareto_four(self):
        mean, var = CompoundPoisson(1.0, ParetoSteps(4.0)).moments()
        assert mean == pytest.approx(4.0 / 3.0, abs=1e-12)
        assert var == pytest.approx(2.0, abs=1e-12)

    def test_pareto_two_and_a_half(self):
        mean, var = CPP25.moments()
        assert mean == pytest.approx(5.0 / 3.0, abs=1e-12)
        assert var == pytest.approx(5.0, abs=1e-12)

    def test_heavy_pareto_is_infinite(self):
        mean, var = CompoundPoisson(1.0, ParetoSteps(0.5)).moments()
        assert mean == math.inf and var == math.inf
        mean, var = CompoundPoisson(1.0, ParetoSteps(1.5)).moments()
        assert math.isfinite(mean) and var == math.inf

    def test_mc_mean_agreement(self, rng):
        # finite-mean models: MC mean of S_1 within 4 standard errors
        for model in (CPP25, CompoundPoisson(2.0, ExponentialSteps(1.0))):
            mean, var = model.moments()
            s = sample_increments(model, 1.0, rng, 10 ** 5)
            se = math.sqrt(var / 10 ** 5)
            assert abs(s.mean() - mean) < 4.0 * se


class TestClassifyRegime:
    """The regime limit_law_for reads from the model."""

    def test_finite_variance(self):
        law = limit_law_for(CPP25)
        assert law.kind is LimitKind.PART1_NORMAL
        assert law.sigma ** 2 == pytest.approx(5.0 / (5.0 / 3.0))  # var / mean
        law = limit_law_for(CompoundPoisson(2.0, ExponentialSteps(1.0)))
        assert law.kind is LimitKind.PART1_NORMAL
        assert law.sigma ** 2 == pytest.approx(4.0 / 2.0)

    def test_heavy_tail(self):
        law = limit_law_for(CompoundPoisson(3.0, ParetoSteps(0.5)))
        assert law.kind is LimitKind.PART2_INVERSE_STABLE
        assert law.alpha == 0.5
        # sigma = (coefficient / c_alpha)^(1/alpha) with coefficient lam
        one = limit_law_for(CompoundPoisson(1.0, ParetoSteps(0.5)))
        assert law.sigma == pytest.approx(one.sigma * 3.0 ** 2, rel=1e-12)

    def test_drift(self):
        law = limit_law_for(LinearDrift(2.0))
        assert law.kind is LimitKind.GUMBEL
        assert law.mean_s1 == 2.0

    def test_boundary_rejected(self):
        for alpha in (1.0, 2.0):
            with pytest.raises(UnsupportedRegimeError,
                               match="regime boundary"):
                limit_law_for(CompoundPoisson(1.0, ParetoSteps(alpha)))

    def test_tail_coefficient_via_mc(self, rng):
        # one-jump dominance: P(S_1 > t) * t^alpha approaches lam
        model = CompoundPoisson(1.0, ParetoSteps(0.5))
        s = sample_increments(model, 1.0, rng, 10 ** 6)
        ratios = [(s > t).mean() * t ** 0.5 for t in (10.0, 100.0, 1000.0)]
        assert abs(ratios[0] - 1.0) < 0.1
        assert abs(ratios[1] - 1.0) < 0.04
        assert abs(ratios[2] - 1.0) < 0.04


class TestCrossingTimes:
    def test_drift_exact(self, rng):
        out = crossing_times_batch(LinearDrift(2.0), [[0.0, 1.0, 4.0]], rng)
        assert np.allclose(out, [[0.0, 0.5, 2.0]])

    def test_level_zero_is_zero(self, rng):
        for model in (LinearDrift(1.0), CPP25):
            assert crossing_times_batch(model, [[0.0]], rng)[0, 0] == 0.0

    def test_single_constant_jump_crossing_is_exponential(self, rng):
        # one unit jump crosses any level in (0, 1]: tau ~ Exp(1)
        model = CompoundPoisson(1.0, ConstantSteps(1.0))
        levels = np.full((10 ** 5, 1), 0.5)
        taus = crossing_times_batch(model, levels, rng)[:, 0]
        assert ks_one_sample_p(taus, lambda t: 1.0 - np.exp(-t)) > 0.01

    def test_output_nondecreasing(self, rng):
        levels = np.sort(rng.exponential(size=(2000, 4)), axis=1)
        taus = crossing_times_batch(CPP25, levels, rng)
        assert np.all(np.diff(taus, axis=1) >= 0.0)

    def test_randomized_trigger_marginal(self, rng):
        # tau(eps) with eps ~ Exp(1) is Exp(psi(1)); this is the model's
        # marginal lifetime law
        psi1 = laplace_exponent(CPP25, 1.0)
        levels = np.sort(rng.exponential(size=(10 ** 5, 1)), axis=1)
        taus = crossing_times_batch(CPP25, levels, rng)[:, 0]
        assert ks_one_sample_p(taus, lambda t: 1.0 - np.exp(-psi1 * t)) > 0.01

    def test_validation(self, rng):
        with pytest.raises(ValueError, match="nondecreasing"):
            crossing_times_batch(CPP25, [[0.5, 1.0], [1.0, 0.5]], rng)
        with pytest.raises(ValueError, match=">= 0"):
            crossing_times_batch(CPP25, [[-1.0]], rng)
        with pytest.raises(ValueError, match="shape"):
            crossing_times_batch(CPP25, [1.0, 2.0], rng)
        with pytest.raises(ValueError, match="step size must be positive"):
            CompoundPoisson(1.0, ConstantSteps(True))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_level_rejected_before_any_draw(self, rng, bad):
        # an infinite level used to exhaust the whole jump budget first
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="levels must be finite"):
            crossing_times_batch(CPP25, [[1.0, bad]], rng)
        assert rng.bit_generator.state == state

    def test_budget_exceeded(self, rng, monkeypatch):
        monkeypatch.setattr(lfmo.subordinator, "DEFAULT_JUMP_BUDGET", 1000)
        with pytest.raises(BudgetExceededError):
            crossing_times_batch(CompoundPoisson(1.0, ConstantSteps(1.0)),
                                 [[10.0 ** 7]], rng)

    def test_budget_counts_only_the_jumps_a_path_needs(self, rng,
                                                       monkeypatch):
        # a Pareto step is >= 1, so level 1 is crossed at the first jump
        monkeypatch.setattr(lfmo.subordinator, "DEFAULT_JUMP_BUDGET", 100)
        out = crossing_times_batch(CPP25, [[1.0]], rng)
        assert out.shape == (1, 1) and out[0, 0] > 0.0
        # unit steps reach 1000 at jump 1000 (S >= level), 1000.5 at 1001
        monkeypatch.setattr(lfmo.subordinator, "DEFAULT_JUMP_BUDGET", 1000)
        unit = CompoundPoisson(1.0, ConstantSteps(1.0))
        crossing_times_batch(unit, [[1000.0]], rng)
        with pytest.raises(BudgetExceededError, match="1000.5"):
            crossing_times_batch(unit, [[1000.5]], rng)

    def test_increments_refuse_a_time_past_the_budget(self, rng,
                                                      monkeypatch):
        # lam t = 1e20 used to reach numpy's unnamed "lam value too large"
        state = rng.bit_generator.state
        with pytest.raises(BudgetExceededError, match=r"t = 1e\+20"):
            CPP25.increments(1e20, rng, 2)
        with pytest.raises(BudgetExceededError, match=r"t = 1e\+20"):
            tail_probability_mc(CPP25, 3, 1, 1e20, rng, count=2)
        assert rng.bit_generator.state == state
        # the budget is read at call time, and lam t equal to it is drawn
        monkeypatch.setattr(lfmo.subordinator, "DEFAULT_JUMP_BUDGET", 100)
        half = CompoundPoisson(0.5, ParetoSteps(2.5))
        assert half.increments(200.0, rng, 2).shape == (2,)
        with pytest.raises(BudgetExceededError, match="t = 201"):
            half.increments(201.0, rng, 2)

    def test_exponential_steps_match_closed_form(self, rng):
        # P(tau <= t) = P(S_t >= L) = sum_k Pois(k; lam t) P(Gamma(k, r) >= L)
        lam, rate, level = 2.0, 1.5, 3.0
        model = CompoundPoisson(lam, ExponentialSteps(rate))
        taus = crossing_times_batch(model, np.full((10 ** 5, 1), level),
                                    rng)[:, 0]
        k_max = int(lam * taus.max() + 10.0 * math.sqrt(lam * taus.max()) + 30)

        def cdf(t):
            t = np.asarray(t, dtype=float)
            return sum(poisson.pmf(k, lam * t) * gammaincc(k, rate * level)
                       for k in range(1, k_max + 1))

        assert ks_one_sample_p(taus, cdf) > 0.01

    def test_unit_steps_cross_at_gamma_arrival_times(self, rng):
        # levels 0.5, 1.5, 2.5 need jumps 1, 2, 3: tau_j ~ Gamma(j + 1, lam)
        # and the gaps between crossings are Exp(lam)
        lam = 1.7
        model = CompoundPoisson(lam, ConstantSteps(1.0))
        levels = np.tile([0.5, 1.5, 2.5], (10 ** 5, 1))
        taus = crossing_times_batch(model, levels, rng)
        for j in range(3):
            assert ks_one_sample_p(
                taus[:, j], lambda t, a=j + 1: gammainc(a, lam * t)) > 0.01
        for gaps in np.diff(taus, axis=1).T:
            assert ks_one_sample_p(gaps, lambda t: -np.expm1(-lam * t)) > 0.01

    def test_count_past_65535_jumps_does_not_wrap(self):
        # unit steps reach 70000.5 at jump 70,001 and draw nothing but the
        # Gamma; the crossing round starts at 65,536 jumps, so a count
        # kept in uint16 would wrap there
        model = CompoundPoisson(1.0, ConstantSteps(1.0))
        tau = crossing_times_batch(model, [[70000.5]],
                                   np.random.default_rng(5))[0, 0]
        assert tau == np.random.default_rng(5).standard_gamma(70001.0)

    def test_exponential_steps_over_many_rounds_match_poisson_gamma(
            self, monkeypatch):
        # Exp(rate) steps are the gaps of a rate-`rate` Poisson process, so
        # N - 1 ~ Poisson(rate L) and tau ~ Gamma(N, 1/lam) given N; then
        # P(tau <= t) = P(Pois(lam t) - Pois(rate L) > 0), a Skellam tail.
        # N ~ 301 against chunks capped at 45 jumps (3e6 draws over 65536
        # paths), so the first block takes 8 rounds, each on carried sums;
        # the budget only makes a broken carry fail instead of running on
        monkeypatch.setattr(lfmo.subordinator, "DEFAULT_JUMP_BUDGET", 10 ** 4)
        lam, rate, level = 1.7, 2.0, 150.0
        model = CompoundPoisson(lam, ExponentialSteps(rate))
        taus = crossing_times_batch(model, np.full((10 ** 5, 1), level),
                                    np.random.default_rng(0))[:, 0]
        assert ks_one_sample_p(
            taus, lambda t: skellam.sf(0, lam * np.asarray(t), rate * level)
        ) > 0.01
        se = taus.std(ddof=1) / math.sqrt(taus.size)
        assert abs(taus.mean() - (1.0 + rate * level) / lam) < 3.0 * se

    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("width", [_ROW_ADD_WIDTH // 8, _ROW_ADD_WIDTH - 1,
                                       3 * _ROW_ADD_WIDTH])
    def test_counts_and_times_replay_the_row_per_jump_layout(self, k, width):
        rng = np.random.default_rng(width + k)
        levels = np.sort(rng.exponential(20.0, size=(width, k)), axis=1)
        levels[0] = 0.0
        levels[1, 0] = 0.0
        expected, rounds = replay_crossing(CPP25, levels,
                                           np.random.default_rng(17))
        taus = crossing_times_batch(CPP25, levels, np.random.default_rng(17))
        assert max(rounds) >= 2
        assert np.array_equal(taus, expected)

    @pytest.mark.parametrize("slab", [1, 3000])
    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("width", [_ROW_ADD_WIDTH - 1,
                                       3 * _ROW_ADD_WIDTH])
    def test_slabs_split_a_round_bit_for_bit(self, k, width, slab,
                                             monkeypatch):
        # one row per slab, or slabs of 11 or 3 rows that split the first
        # rounds (18 to 29 rows) unevenly; the replay draws rounds whole
        monkeypatch.setattr(lfmo.subordinator, "_SLAB", slab)
        rng = np.random.default_rng(width + k)
        levels = np.sort(rng.exponential(20.0, size=(width, k)), axis=1)
        expected, rounds = replay_crossing(CPP25, levels,
                                           np.random.default_rng(17))
        taus = crossing_times_batch(CPP25, levels, np.random.default_rng(17))
        assert max(rounds) >= 2
        assert np.array_equal(taus, expected)

    def test_counts_and_times_replay_the_row_blocks(self):
        # two row blocks, each with its own first chunk (8 jumps: most
        # levels are below one Pareto step) and a few paths that need four
        # rounds; the second block starts on the stream the first left
        rng = np.random.default_rng(23)
        levels = np.sort(rng.uniform(0.0, 0.5, size=(70_000, 2)), axis=1)
        levels[[0, 65_535, 65_536, 69_999]] = [[0.0, 0.0], [30.0, 200.0],
                                               [150.0, 180.0], [0.2, 90.0]]
        expected, rounds = replay_crossing(CPP25, levels,
                                           np.random.default_rng(5))
        taus = crossing_times_batch(CPP25, levels, np.random.default_rng(5))
        assert rounds[65_535] >= 2 and rounds[65_536] >= 2
        assert np.array_equal(taus, expected)


def replay_crossing(model, levels, rng):
    """Scalar replay of first passage's documented draw layout.

    The rows are crossed in blocks of 65,536, each counted and then timed
    before the next block starts.  Each round of a block draws a (chunk,
    open paths) array from ``model.step``, so row i is jump i of every open
    path; a path adds its jumps one by one onto the sum carried from
    earlier rounds, and the count of level j is the index of the first
    jump with S >= level j (the rest of a round cannot change a path that
    has reached its last level).  The chunk policy is the library's: 1.2
    median(last level of the block) / E J + 8 at first, then doubling,
    capped at 8192, at 3e6 draws per round and at the jump budget.  Times
    are scalar Gamma draws per row.  Returns (times, rounds per path).
    """
    n_rows, k = levels.shape
    counts = np.zeros((n_rows, k), dtype=np.int64)
    times = np.zeros((n_rows, k))
    sums = [0.0] * n_rows
    rounds = [0] * n_rows
    for start in range(0, n_rows, 65536):
        block = range(start, min(start + 65536, n_rows))
        open_rows = [i for i in block if levels[i, -1] > 0.0]
        chunk = min(1.2 * float(np.median(levels[open_rows, -1]))
                    / model.step.mean() + 8, 8192)
        used = 0
        while open_rows:
            chunk = min(int(chunk), 3_000_000 // len(open_rows), 8192,
                        lfmo.subordinator.DEFAULT_JUMP_BUDGET - used)
            draws = model.step.sample(rng, (chunk, len(open_rows)))
            for col, row in enumerate(open_rows):
                rounds[row] += 1
                for i in range(chunk):
                    sums[row] += float(draws[i, col])
                    for j in range(k):
                        if (counts[row, j] == 0 and levels[row, j] > 0.0
                                and sums[row] >= levels[row, j]):
                            counts[row, j] = used + i + 1
                    if counts[row, -1]:
                        break
            used += chunk
            open_rows = [row for row in open_rows if counts[row, -1] == 0]
            chunk *= 2
        for row in block:
            total, previous = 0.0, 0
            for j in range(k):
                total += rng.standard_gamma(float(counts[row, j] - previous))
                previous = counts[row, j]
                times[row, j] = total / model.lam
    return times, rounds


class TestSampleIncrements:
    def test_drift_deterministic(self, rng):
        s = sample_increments(LinearDrift(1.5), 2.0, rng, 10)
        assert np.all(s == 3.0)

    def test_cpp_mean(self, rng):
        model = CompoundPoisson(2.0, ConstantSteps(1.0))
        s = sample_increments(model, 3.0, rng, 10 ** 5)
        # S_3 ~ Poisson(6)
        assert abs(s.mean() - 6.0) < 4.0 * math.sqrt(6.0 / 10 ** 5)

    @pytest.mark.parametrize("alpha, t", [(0.1, 1.0), (0.5, 1.0), (4.0, 1.0),
                                          (2.5, 0.0)],
                             ids=["0.1", "0.5", "4.0", "no-jumps"])
    def test_cpp_paths_sum_their_own_jumps(self, alpha, t):
        # replay the draws from a second generator with the same seed and
        # sum each path's jumps exactly: a huge heavy-tailed jump in one
        # path must not swamp the paths after it; at t = 0 no path jumps
        model = CompoundPoisson(1.0, ParetoSteps(alpha))
        count = 10 ** 5
        first = np.random.default_rng(1)
        s = sample_increments(model, t, first, count)
        rng = np.random.default_rng(1)
        n_jumps = rng.poisson(t, count)
        jumps = model.step.sample(rng, int(n_jumps.sum()))
        ends = np.cumsum(n_jumps)
        exact = np.array([math.fsum(jumps[end - k:end])
                          for end, k in zip(ends, n_jumps)])
        np.testing.assert_allclose(s, exact, rtol=1e-13, atol=0.0)
        assert np.all(s[n_jumps > 0] > 0.0)
        assert np.all(s[n_jumps == 0] == 0.0)
        assert first.bit_generator.state == rng.bit_generator.state

    def test_cpp_jump_beyond_float_range_is_inf_without_warning(self):
        # at alpha = 0.01 about one jump in 1200 passes 1.8e308
        model = CompoundPoisson(1.0, ParetoSteps(0.01))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s = sample_increments(model, 1.0, np.random.default_rng(1),
                                  10 ** 4)
        assert not np.isnan(s).any()
        assert np.isinf(s).sum() >= 2
        assert np.isfinite(s).sum() > 9000

    @pytest.mark.parametrize("alpha", [0.01, 0.5, 2.5, 4.0])
    def test_pareto_draw_is_the_inverse_survival_of_its_uniforms(self,
                                                                 alpha):
        # J = exp(-ln(1 - U) / alpha) is (1 - U) ** (-1 / alpha) within
        # (|ln J| + 5) ulp, with its infs in the same places
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            jumps = ParetoSteps(alpha).sample(np.random.default_rng(9),
                                              10 ** 5)
        u = np.random.default_rng(9).random(10 ** 5)
        with np.errstate(over="ignore"):
            power = (1.0 - u) ** (-1.0 / alpha)
        assert np.array_equal(np.isinf(jumps), np.isinf(power))
        finite = np.isfinite(power)
        bound = (np.abs(np.log(power[finite])) + 5.0) * 2.0 ** -52
        assert np.all(np.abs(jumps[finite] - power[finite])
                      <= bound * power[finite])

    def test_pareto_draw_maps_u_zero_to_one_at_a_subnormal_alpha(self):
        # 1 / alpha overflows at alpha = 5e-324: U = 0 must still give
        # J = 1 (not 0 * inf = nan), any other U an inf, with no warning
        class Uniforms:
            def random(self, size):
                return np.array([0.0, 0.5])

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            jumps = ParetoSteps(5e-324).sample(Uniforms(), 2)
        assert jumps.tolist() == [1.0, math.inf]

    def test_step_validation(self):
        with pytest.raises(ValueError):
            ParetoSteps(0.0)
        with pytest.raises(ValueError):
            ConstantSteps(-1.0)
        with pytest.raises(ValueError):
            ExponentialSteps(0.0)
        with pytest.raises(ValueError):
            CompoundPoisson(0.0, ConstantSteps(1.0))
        with pytest.raises(ValueError):
            LinearDrift(0.0)

    @pytest.mark.parametrize("make", [
        ParetoSteps, ConstantSteps, ExponentialSteps, LinearDrift,
        lambda v: CompoundPoisson(v, ConstantSteps(1.0)),
    ])
    def test_non_finite_parameters_rejected(self, make):
        for value in (math.inf, math.nan):
            with pytest.raises(ValueError):
                make(value)


CLASSES = {**_KINDS["subordinator"], **_KINDS["step"]}


def models_of_kind(kind: str):
    positive = st.floats(1e-300, 1e300)
    if CLASSES[kind] is CompoundPoisson:
        steps = st.sampled_from(sorted(_KINDS["step"])).flatmap(models_of_kind)
        return st.builds(CompoundPoisson, positive, steps)
    return st.builds(CLASSES[kind], positive)


_KEYS = ["kind", "c", "lambda", "step", "alpha", "size", "rate"]
_SCALARS = (st.none() | st.booleans() | st.integers() | st.floats()
            | st.text(max_size=4) | st.sampled_from(sorted(CLASSES)))
ARBITRARY_JSON = st.recursive(
    _SCALARS,
    lambda children: (
        st.lists(children, max_size=3)
        | st.dictionaries(st.sampled_from(_KEYS) | st.text(max_size=3),
                          children, max_size=4)
        | st.fixed_dictionaries(
            {"kind": st.sampled_from(sorted(CLASSES))},
            optional={key: children for key in _KEYS[1:]})),
    max_leaves=12)


@st.composite
def damaged_specs(draw):
    """A valid model's JSON with one field of it, or of its step, deleted
    or replaced by arbitrary JSON."""
    spec = draw(st.sampled_from(sorted(_KINDS["subordinator"]))
                .flatmap(models_of_kind)).to_json()
    block = spec["step"] if "step" in spec and draw(st.booleans()) else spec
    key = draw(st.sampled_from(sorted(block)))
    if draw(st.booleans()):
        del block[key]
    else:
        block[key] = draw(ARBITRARY_JSON)
    return spec


class TestJson:
    @pytest.mark.parametrize("kind", sorted(CLASSES))
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_round_trip_every_kind(self, kind, data):
        model = data.draw(models_of_kind(kind))
        spec = json.loads(json.dumps(model.to_json()))
        assert spec["kind"] == kind
        assert CLASSES[kind].from_json(spec) == model

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(spec=ARBITRARY_JSON | damaged_specs())
    def test_arbitrary_json_gives_a_model_or_a_value_error(self, spec):
        try:
            model = parse_subordinator(spec)
        except ValueError:
            return
        assert parse_subordinator(model.to_json()) == model
