import math

import numpy as np
import pytest
from scipy.special import erf
from scipy.stats import skew

from lfmo import (
    CompoundPoisson,
    GumbelLaw,
    InverseStableLaw,
    LimitKind,
    LimitLaw,
    LinearDrift,
    NormalLaw,
    ParetoSteps,
    StableLaw,
    StableParams,
    UnsupportedRegimeError,
    f_n,
    g_n,
    lemma_suite,
    limit_law_for,
    normalize,
    sample_limit_with_stats,
    sample_stable,
    u_n,
    zoom_out_statistic,
)

from conftest import ks_one_sample_p, ks_two_sample_p

EULER_GAMMA = 0.5772156649015329


class TestLimitLawFor:
    def test_finite_variance_pareto4(self):
        law = limit_law_for(CompoundPoisson(1.0, ParetoSteps(4.0)))
        assert law.kind is LimitKind.PART1_NORMAL
        assert law.alpha == 2.0
        assert law.sigma == pytest.approx(math.sqrt(1.5), abs=1e-9)

    def test_finite_variance_pareto25(self):
        law = limit_law_for(CompoundPoisson(1.0, ParetoSteps(2.5)))
        assert law.sigma == pytest.approx(math.sqrt(3.0), abs=1e-9)

    def test_heavy_tail_below_one(self):
        law = limit_law_for(CompoundPoisson(1.0, ParetoSteps(0.5)))
        assert law.kind is LimitKind.PART2_INVERSE_STABLE
        assert law.alpha == 0.5
        assert law.sigma == pytest.approx(math.pi / 2.0, abs=1e-9)
        assert law.scaling_exponent == 0.5

    def test_heavy_tail_between_one_and_two(self):
        law = limit_law_for(CompoundPoisson(1.0, ParetoSteps(1.5)))
        assert law.kind is LimitKind.PART1_STABLE
        # the law draws Stable(alpha, sigma, -1, 0): totally left-skewed
        params = StableParams(law.alpha, law.sigma, -1.0, 0.0)
        assert np.array_equal(
            law.sample(np.random.default_rng(5), 1000),
            sample_stable(params, np.random.default_rng(5), 1000))

    def test_sigmas_positive_and_finite(self):
        for a in (0.3, 0.5, 1.2, 1.8, 2.5, 4.0):
            law = limit_law_for(CompoundPoisson(1.3, ParetoSteps(a)))
            assert 0.0 < law.sigma < math.inf

    @pytest.mark.parametrize("c", [1.0, 0.37])
    def test_drift_is_gumbel(self, c):
        law = limit_law_for(LinearDrift(c))
        assert law.kind is LimitKind.GUMBEL
        assert law.mean_s1 == c
        assert law.alpha is None and law.sigma is None

    def test_scaling_exponent_override(self):
        law = limit_law_for(CompoundPoisson(1.0, ParetoSteps(0.5)),
                            part2_scaling_exponent=2.0)
        assert law.scaling_exponent == 2.0
        for bad in (math.nan, math.inf, 0.0, -1.0):
            with pytest.raises(ValueError, match="positive and finite"):
                limit_law_for(CompoundPoisson(1.0, ParetoSteps(0.5)),
                              part2_scaling_exponent=bad)


class TestNormalize:
    def test_centered_point_maps_to_zero(self):
        law = limit_law_for(CompoundPoisson(1.0, ParetoSteps(4.0)))
        ln_n = 23.0
        out = normalize([ln_n / law.mean_s1], ln_n, law)
        assert out[0] == pytest.approx(0.0, abs=1e-12)

    def test_part2_scale_alpha_one(self):
        law = InverseStableLaw(alpha=1.0, sigma=1.0, scaling_exponent=1.0)
        ln_n = 9.0
        assert normalize([ln_n], ln_n, law)[0] == pytest.approx(1.0)

    def test_log_n_must_be_positive(self):
        law = limit_law_for(CompoundPoisson(1.0, ParetoSteps(4.0)))
        with pytest.raises(ValueError):
            normalize([1.0], 0.0, law)

    # every regime against its closed form, bit for bit, on a fixed grid
    X = np.linspace(0.0, 60.0, 2401)
    LOG_NS = (9.0, math.log(10.0) * 10, math.log(10.0) * 160)

    @pytest.mark.parametrize("c", [1.0, 0.37])
    def test_gumbel_is_c_x_minus_log_n(self, c):
        law = limit_law_for(LinearDrift(c))
        for log_n in self.LOG_NS:
            assert np.array_equal(normalize(self.X, log_n, law),
                                  c * self.X - log_n)

    @pytest.mark.parametrize("a", [4.0, 2.5, 1.5, 1.2])
    def test_part1_centres_and_scales_by_mean_s1(self, a):
        law = limit_law_for(CompoundPoisson(1.3, ParetoSteps(a)))
        mean_s1, alpha = law.mean_s1, law.alpha
        for log_n in self.LOG_NS:
            want = ((self.X - log_n / mean_s1)
                    / (log_n ** (1 / alpha) / mean_s1))
            assert np.array_equal(normalize(self.X, log_n, law), want)

    @pytest.mark.parametrize("exponent", [None, 0.5, 2.0])
    def test_inverse_stable_divides_by_a_power_of_log_n(self, exponent):
        law = limit_law_for(CompoundPoisson(3.0, ParetoSteps(0.5)), exponent)
        e = 0.5 if exponent is None else exponent
        for log_n in self.LOG_NS:
            assert np.array_equal(normalize(self.X, log_n, law),
                                  self.X / log_n ** e)


class TestLawClasses:
    # each regime's class with every field positive and finite
    LAWS = [
        (GumbelLaw, {"mean_s1": 0.5}),
        (NormalLaw, {"sigma": 1.2, "mean_s1": 1.5}),
        (StableLaw, {"alpha": 1.5, "sigma": 0.9, "mean_s1": 3.0}),
        (InverseStableLaw, {"alpha": 0.5, "sigma": 14.1,
                            "scaling_exponent": 0.5}),
    ]

    @pytest.mark.parametrize("cls, fields", LAWS)
    def test_every_field_must_be_positive_and_finite(self, cls, fields):
        assert isinstance(cls(**fields), LimitLaw)
        for name in fields:
            for bad in (-1.0, 0.0, math.nan, math.inf, True):
                with pytest.raises(ValueError,
                                   match=f"^{name} must be positive and "):
                    cls(**{**fields, name: bad})

    @pytest.mark.parametrize("cls, fields", LAWS)
    def test_every_field_is_required(self, cls, fields):
        for name in fields:
            with pytest.raises(TypeError, match=f"missing .* '{name}'"):
                cls(**{k: v for k, v in fields.items() if k != name})

    def test_parameters_outside_the_regime_are_none(self):
        gumbel, normal, stable, inverse = (
            cls(**fields) for cls, fields in self.LAWS)
        assert gumbel.alpha is None and gumbel.sigma is None
        assert normal.alpha == 2.0
        assert inverse.mean_s1 is None
        assert stable.cdf is None and inverse.cdf is None
        assert [law.kind for law in (gumbel, normal, stable, inverse)] == [
            LimitKind.GUMBEL, LimitKind.PART1_NORMAL, LimitKind.PART1_STABLE,
            LimitKind.PART2_INVERSE_STABLE]

    @pytest.mark.parametrize("model, cls", [
        (LinearDrift(0.5), GumbelLaw),
        (CompoundPoisson(1.0, ParetoSteps(4.0)), NormalLaw),
        (CompoundPoisson(1.0, ParetoSteps(1.5)), StableLaw),
        (CompoundPoisson(3.0, ParetoSteps(0.5)), InverseStableLaw),
    ])
    def test_limit_law_for_builds_the_class_of_the_regime(self, model, cls):
        assert type(limit_law_for(model)) is cls


class TestSampleLimit:
    def test_normal_regime_ks(self, rng):
        law = limit_law_for(CompoundPoisson(1.0, ParetoSteps(4.0)))
        x = law.sample(rng, count=10 ** 5)
        from scipy.special import ndtr
        assert ks_one_sample_p(x, lambda v: ndtr(v / law.sigma)) > 0.01

    def test_gumbel_law_ks(self, rng):
        law = limit_law_for(LinearDrift(0.37))
        x = law.sample(rng, count=10 ** 5)
        assert ks_one_sample_p(x, law.cdf) > 0.01

    def test_inverse_stable_strictly_positive(self, rng):
        law = limit_law_for(CompoundPoisson(1.0, ParetoSteps(0.5)))
        x = law.sample(rng, count=10 ** 5)
        assert np.all(x > 0.0)

    def test_inverse_stable_closed_form_alpha_half(self, rng):
        # 1/sqrt(Levy(sigma)) is half-normal: CDF erf(y sqrt(sigma / 2))
        law = limit_law_for(CompoundPoisson(1.0, ParetoSteps(0.5)))
        x = law.sample(rng, count=10 ** 5)
        sigma = law.sigma
        cdf = lambda y: erf(np.maximum(y, 0.0) * math.sqrt(sigma / 2.0))
        assert ks_one_sample_p(x, cdf) > 0.01

    def test_inverse_stable_matches_transformed_reference(self, rng):
        # direct transform of seeded positive-stable reference draws
        law = limit_law_for(CompoundPoisson(1.0, ParetoSteps(0.5)))
        x = law.sample(rng, count=10 ** 5)
        ref = sample_stable(StableParams(law.alpha, law.sigma, 1.0, 0.0),
                            np.random.default_rng(123), 10 ** 5)
        assert ks_two_sample_p(x, ref ** (-law.alpha)) > 0.01

    def test_left_skew_in_stable_regime(self, rng):
        law = StableLaw(alpha=1.5, sigma=1.0, mean_s1=1.0)
        x = law.sample(rng, count=10 ** 5)
        assert skew(x) < 0.0

    def test_alpha_one_is_refused(self, rng):
        # S_t ~ t log t at alpha = 1, so T_{n:n} / log n does not tend to
        # 1 / Sigma; the exponents on either side keep their laws
        with pytest.raises(UnsupportedRegimeError, match="regime boundary"):
            limit_law_for(CompoundPoisson(1.0, ParetoSteps(1.0)))
        below = limit_law_for(CompoundPoisson(1.0, ParetoSteps(0.999)))
        above = limit_law_for(CompoundPoisson(1.0, ParetoSteps(1.001)))
        assert below.kind is LimitKind.PART2_INVERSE_STABLE
        assert above.kind is LimitKind.PART1_STABLE
        x, rejected = sample_limit_with_stats(below, rng, 10 ** 4)
        assert np.all(x > 0.0) and rejected == 0


class TestBinomialKernels:
    def test_fn_large_x_oracle(self):
        # direct (1 - p)^n evaluation of the zero-successes probability
        n, alpha, x = 10 ** 6, 2.0, 1.0
        p = math.exp(-x * math.log(n) ** (1.0 / alpha)) / n
        expected = math.exp(n * math.log1p(-p))
        assert f_n(x, n, n, alpha) == pytest.approx(expected, rel=1e-9)
        assert f_n(x, n, n, alpha) > 0.97

    def test_fn_below_branch_cut(self):
        n = 100
        cut = -math.log(n) ** 0.5
        assert f_n(cut - 0.1, n, n, 2.0) == 0.0
        assert f_n(cut - 0.1, n, 1, 2.0) == 0.0

    def test_fn_monotone_and_bounded(self):
        xs = np.linspace(-3.0, 3.0, 61)
        values = np.asarray(f_n(xs, 10 ** 4, 10 ** 4, 2.0))
        assert np.all(values >= 0.0) and np.all(values <= 1.0)
        assert np.all(np.diff(values) >= -1e-12)

    def test_fn_pointwise_limits(self):
        # f_n -> 1 for x > 0 and -> 0 for x < 0, monotonically along n
        ns = (10 ** 2, 10 ** 3, 10 ** 4, 10 ** 5)
        up = [float(f_n(0.5, n, n, 2.0)) for n in ns]
        down = [float(f_n(-0.5, n, n, 2.0)) for n in ns]
        assert all(b > a for a, b in zip(up, up[1:]))
        assert all(b < a for a, b in zip(down, down[1:]))

    def test_gn_poisson_example(self):
        # P(Bin(1e4, 1e-8) = 0) ~ exp(-1e-4)
        assert g_n(2.0, 10 ** 4, 10 ** 4) == \
            pytest.approx(math.exp(-1e-4), rel=1e-7)

    def test_gn_interior_vanishes(self):
        assert g_n(0.5, 10 ** 6, 10 ** 6) < 0.01

    def test_gn_negative_x(self):
        assert g_n(-0.5, 100, 100) == 0.0
        assert g_n(-0.5, 100, 1) == 0.0

    def test_gn_pointwise_limits(self):
        ns = (10 ** 2, 10 ** 3, 10 ** 4, 10 ** 5)
        up = [float(g_n(1.5, n, n)) for n in ns]
        down = [float(g_n(0.5, n, n)) for n in ns]
        assert all(b > a for a, b in zip(up, up[1:]))
        assert all(b < a for a, b in zip(down, down[1:]))

    def test_kernel_validation(self):
        with pytest.raises(ValueError):
            f_n(0.0, 10, 11, 2.0)
        with pytest.raises(ValueError):
            g_n(0.0, 10, 0)


NORMAL_LAW = limit_law_for(CompoundPoisson(1.0, ParetoSteps(4.0)))


@pytest.mark.parametrize("call, message", [
    (lambda: f_n(0.0, 0, 1, 2.0), "n must be >= 1"),
    (lambda: g_n(0.0, 0, 1), "n must be >= 1"),
    (lambda: zoom_out_statistic(1.0, -1.0, 0.0, NORMAL_LAW, 5.0),
     "u_n must be >= 0"),
    (lambda: sample_limit_with_stats(NORMAL_LAW, np.random.default_rng(1), 0),
     "count must be >= 1"),
    (lambda: NORMAL_LAW.sample(np.random.default_rng(1), 2.5),
     "count must be an integer"),
    (lambda: NORMAL_LAW.sample(np.random.default_rng(1), True),
     "count must be an integer"),
    (lambda: sample_stable(StableParams(1.5, 1.0, 0.0, 0.0),
                           np.random.default_rng(1), 2.5),
     "count must be an integer"),
    (lambda: sample_stable(StableParams(1.5, 1.0, 0.0, 0.0),
                           np.random.default_rng(1), True),
     "count must be an integer"),
    (lambda: f_n(0.0, 2.5, 1, 2.0), "n must be an integer"),
    (lambda: g_n(0.0, 3, 1.5), "m must be an integer"),
    (lambda: normalize([1.0, 2.0], math.inf, NORMAL_LAW),
     "log_n must be positive and finite"),
    (lambda: u_n(0.0, math.nan, 1.0, 2.0), "log_n must be positive and finite"),
    (lambda: u_n(0.0, 4.0, 0.0, 2.0), "mean_s1 must be positive and finite"),
    (lambda: u_n(0.0, 4.0, 1.0, 0.0), "alpha must be positive and finite"),
    (lambda: f_n(0.0, 10, 10, math.nan), "alpha must be positive and finite"),
    (lambda: u_n(math.nan, 4.0, 1.0, 2.0), "t must be finite"),
    (lambda: u_n(math.inf, 4.0, 1.0, 2.0), "t must be finite"),
    (lambda: zoom_out_statistic(1.0, math.nan, 0.0, NORMAL_LAW, 5.0),
     "u_n must be >= 0 and finite"),
    (lambda: zoom_out_statistic(1.0, 1.0, math.nan, NORMAL_LAW, 5.0),
     "t must be finite"),
    (lambda: zoom_out_statistic(1.0, math.inf, 0.0, NORMAL_LAW, 5.0),
     "u_n must be >= 0 and finite"),
], ids=["f-n-zero", "g-n-zero", "zoom-out-negative-horizon",
        "limit-count-zero", "limit-count-fraction", "limit-count-bool",
        "stable-count-fraction", "stable-count-bool", "f-n-fraction",
        "g-n-m-fraction", "normalize-inf-log-n", "u-n-nan-log-n",
        "u-n-zero-mean", "u-n-zero-alpha", "f-n-nan-alpha", "u-n-nan-t",
        "u-n-inf-t", "zoom-out-nan-horizon", "zoom-out-nan-t",
        "zoom-out-inf-horizon"])
def test_count_and_range_checks(call, message):
    with pytest.raises(ValueError, match=message):
        call()


class TestZoomOut:
    def test_un_at_t_zero(self):
        law = limit_law_for(CompoundPoisson(1.0, ParetoSteps(4.0)))
        ln_n = 10.0
        assert u_n(0.0, ln_n, law.mean_s1, law.alpha) == \
            pytest.approx(ln_n / law.mean_s1)

    def test_un_domain(self):
        with pytest.raises(ValueError):
            u_n(-10.0, 4.0, 1.0, 2.0)

    def test_centered_path_is_zero(self):
        law = limit_law_for(CompoundPoisson(1.0, ParetoSteps(4.0)))
        ln_n = 12.0
        t = 0.4
        horizon = u_n(t, ln_n, law.mean_s1, law.alpha)
        out = zoom_out_statistic(horizon * law.mean_s1, horizon, t, law, ln_n)
        assert float(out) == pytest.approx(0.0, abs=1e-12)

    def test_part2_law_rejected(self):
        law = limit_law_for(CompoundPoisson(1.0, ParetoSteps(0.5)))
        with pytest.raises(ValueError):
            zoom_out_statistic(1.0, 1.0, 0.0, law, 5.0)


class TestGumbelNormalize:
    def test_center_maps_to_zero(self):
        law = limit_law_for(LinearDrift(2.0))
        assert normalize([5.0], 10.0, law)[0] == pytest.approx(0.0)

    def test_linearity_in_rate(self):
        x = np.asarray([0.3, 1.7, 9.9])
        ln_n = 6.0
        doubled = normalize(x, ln_n, limit_law_for(LinearDrift(2.0)))
        base = normalize(x, ln_n, limit_law_for(LinearDrift(1.0)))
        assert np.allclose(doubled, 2.0 * base + ln_n)

    def test_is_rate_times_value_minus_log_n(self):
        # c x - log n exactly, not (x - log n / c) / (1 / c), which differs
        # in the last bits at c != 1
        x = np.random.default_rng(5).exponential(3.0, 1000)
        ln_n = 17.3
        out = normalize(x, ln_n, limit_law_for(LinearDrift(0.37)))
        assert np.array_equal(out, 0.37 * x - ln_n)

    def test_drift_last_failure_is_gumbel(self, rng):
        from lfmo import ExactN, LfmoModel, sample_upper_order_statistics
        n = 10 ** 6
        model = LfmoModel(ExactN(n), LinearDrift(1.0))
        draws = sample_upper_order_statistics(model, 1, rng, count=10 ** 5)[:, 0]
        z = normalize(draws, math.log(n), limit_law_for(LinearDrift(1.0)))
        assert ks_one_sample_p(z, lambda v: np.exp(-np.exp(-np.asarray(v)))) > 0.01


class TestLemmaSuite:
    def test_all_items_pass(self):
        report = lemma_suite()
        assert report.passed
        assert len(report.checks) == 4
        names = {c.name for c in report.checks}
        assert "exponential_expansion_ratio" in names

    def test_binomial_zero_mass_closed_form(self):
        # direct closed form (1 - 1e-6)^1000
        from lfmo.asymptotics import _binomial_cdf
        assert _binomial_cdf(0, 1000, 1e-6) == \
            pytest.approx((1.0 - 1e-6) ** 1000, rel=1e-9)


class TestFiniteNBias:
    def test_normalized_mean_matches_overshoot_prediction(self, rng):
        # the normalized last failure has mean ~ (gamma + E J^2 / (2 E J))
        # / sqrt(log n) at finite n; at log10 n = 10 this is ~0.277, far
        # from 0, and only falls inside +-0.1 near the end of the schedule
        from lfmo import ExactN, LfmoModel, sample_upper_order_statistics
        model = CompoundPoisson(1.0, ParetoSteps(4.0))
        law = limit_law_for(model)
        ln_n = math.log(10.0) * 10.0
        draws = sample_upper_order_statistics(
            LfmoModel(ExactN(10 ** 10), model), 1, rng, count=10 ** 5)[:, 0]
        z = normalize(draws, ln_n, law)
        overshoot = 2.0 / (2.0 * (4.0 / 3.0))
        predicted = (EULER_GAMMA + overshoot) / math.sqrt(ln_n)
        assert z.mean() == pytest.approx(predicted, abs=0.05)
        assert (EULER_GAMMA + overshoot) / math.sqrt(math.log(10.0) * 160.0) < 0.1
