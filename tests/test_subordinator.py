import math

import numpy as np
import pytest

from lfmo import (
    BudgetExceededError,
    CompoundPoisson,
    ConstantSteps,
    Deterministic,
    ExponentialSteps,
    FiniteVariance,
    HeavyTail,
    LinearDrift,
    ParetoSteps,
    UnsupportedRegimeError,
    classify_regime,
    crossing_times_batch,
    laplace_exponent,
    moments,
    sample_increments,
)

from conftest import ks_one_sample_p

CPP25 = CompoundPoisson(1.0, ParetoSteps(2.5))


class TestLaplaceExponent:
    def test_drift_linear(self):
        assert laplace_exponent(LinearDrift(1.0), 3.0) == pytest.approx(3.0)

    def test_zero_is_exact(self):
        for model in (LinearDrift(2.0), CPP25,
                      CompoundPoisson(0.5, ConstantSteps(2.0))):
            assert laplace_exponent(model, 0.0) == 0.0

    def test_constant_step_closed_form(self):
        model = CompoundPoisson(2.0, ConstantSteps(1.0))
        assert laplace_exponent(model, 1.0) == pytest.approx(
            2.0 * (1.0 - math.exp(-1.0)), abs=1e-12)

    def test_exponential_step_closed_form(self):
        model = CompoundPoisson(3.0, ExponentialSteps(2.0))
        assert laplace_exponent(model, 4.0) == pytest.approx(
            3.0 * (1.0 - 2.0 / 6.0), abs=1e-12)

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
        assert moments(LinearDrift(2.0)) == (2.0, 0.0)

    def test_pareto_four(self):
        mean, var = moments(CompoundPoisson(1.0, ParetoSteps(4.0)))
        assert mean == pytest.approx(4.0 / 3.0, abs=1e-12)
        assert var == pytest.approx(2.0, abs=1e-12)

    def test_pareto_two_and_a_half(self):
        mean, var = moments(CPP25)
        assert mean == pytest.approx(5.0 / 3.0, abs=1e-12)
        assert var == pytest.approx(5.0, abs=1e-12)

    def test_heavy_pareto_is_infinite(self):
        mean, var = moments(CompoundPoisson(1.0, ParetoSteps(0.5)))
        assert mean == math.inf and var == math.inf
        mean, var = moments(CompoundPoisson(1.0, ParetoSteps(1.5)))
        assert math.isfinite(mean) and var == math.inf

    def test_mc_mean_agreement(self, rng):
        # finite-mean models: MC mean of S_1 within 4 standard errors
        for model in (CPP25, CompoundPoisson(2.0, ExponentialSteps(1.0))):
            mean, var = moments(model)
            s = sample_increments(model, 1.0, rng, 10 ** 5)
            se = math.sqrt(var / 10 ** 5)
            assert abs(s.mean() - mean) < 4.0 * se


class TestClassifyRegime:
    def test_finite_variance(self):
        regime = classify_regime(CPP25)
        assert isinstance(regime, FiniteVariance)
        assert regime.variance == pytest.approx(5.0)

    def test_heavy_tail(self):
        regime = classify_regime(CompoundPoisson(1.0, ParetoSteps(0.5)))
        assert regime == HeavyTail(alpha=0.5, coefficient=1.0)

    def test_drift(self):
        assert classify_regime(LinearDrift(2.0)) == Deterministic(2.0)

    def test_boundary_rejected(self):
        with pytest.raises(UnsupportedRegimeError):
            classify_regime(CompoundPoisson(1.0, ParetoSteps(2.0)))

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

    def test_budget_exceeded(self, rng):
        with pytest.raises(BudgetExceededError):
            crossing_times_batch(CompoundPoisson(1.0, ConstantSteps(1.0)),
                                 [[10.0 ** 7]], rng, max_jumps=1000)


class TestSampleIncrements:
    def test_drift_deterministic(self, rng):
        s = sample_increments(LinearDrift(1.5), 2.0, rng, 10)
        assert np.all(s == 3.0)

    def test_cpp_mean(self, rng):
        model = CompoundPoisson(2.0, ConstantSteps(1.0))
        s = sample_increments(model, 3.0, rng, 10 ** 5)
        # S_3 ~ Poisson(6)
        assert abs(s.mean() - 6.0) < 4.0 * math.sqrt(6.0 / 10 ** 5)

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
