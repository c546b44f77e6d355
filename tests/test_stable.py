import math

import numpy as np
import pytest
from scipy.special import erfc, ndtr

from lfmo import StableParams, c_alpha, normal_scale_at_alpha2, sample_stable

from conftest import ks_one_sample_p, ks_two_sample_p

# direct evaluations of the defining formula:
# (1-a) / (Gamma(2-a) cos(pi a / 2)) at a = 0.5 and 1.5
C_HALF = 0.7978845608028654       # = sqrt(2/pi)
C_THREE_HALVES = 0.3989422804014327  # = 1/sqrt(2*pi)


class TestCAlpha:
    def test_alpha_one_is_two_over_pi(self):
        assert c_alpha(1.0) == pytest.approx(2.0 / math.pi, abs=1e-12)

    def test_frozen_values(self):
        assert c_alpha(0.5) == pytest.approx(C_HALF, abs=1e-12)
        assert c_alpha(1.5) == pytest.approx(C_THREE_HALVES, abs=1e-12)

    def test_continuous_across_one(self):
        for h, tol in ((1e-3, 1e-2), (1e-6, 1e-5)):
            assert abs(c_alpha(1.0 + h) - 2.0 / math.pi) < tol
            assert abs(c_alpha(1.0 - h) - 2.0 / math.pi) < tol

    def test_positive_on_domain(self):
        for a in np.linspace(0.05, 1.95, 39):
            assert c_alpha(float(a)) > 0.0

    @pytest.mark.parametrize("bad", [0.0, 2.0, -0.3, 2.5])
    def test_domain_errors(self, bad):
        with pytest.raises(ValueError):
            c_alpha(bad)


class TestParams:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"alpha": 0.0},
            {"alpha": 2.1},
            {"sigma": 0.0},
            {"sigma": -1.0},
            {"beta": 1.5},
            {"beta": -1.5},
        ],
    )
    def test_validation(self, kwargs):
        base = {"alpha": 1.5, "sigma": 1.0, "beta": 0.0, "mu": 0.0}
        base.update(kwargs)
        with pytest.raises(ValueError):
            StableParams(**base)


class TestSampling:
    def test_alpha2_same_normal_law_regardless_of_beta(self, rng):
        # beta drops out of the characteristic function at alpha = 2
        a = sample_stable(StableParams(2.0, 1.3, 0.9, 0.5), rng, 50_000)
        b = sample_stable(StableParams(2.0, 1.3, -0.4, 0.5), rng, 50_000)
        assert ks_two_sample_p(a, b) > 0.01

    def test_alpha2_is_normal(self, rng):
        sigma = 1.3
        params = StableParams(2.0, sigma, 0.0, 0.0)
        x = sample_stable(params, rng, 10 ** 5)
        scale = normal_scale_at_alpha2(sigma)
        assert scale == pytest.approx(math.sqrt(2.0) * sigma)
        assert ks_one_sample_p(x, lambda v: ndtr(v / scale)) > 0.01

    def test_cauchy_special_case(self, rng):
        params = StableParams(1.0, 1.0, 0.0, 0.0)
        x = sample_stable(params, rng, 10 ** 5)
        assert ks_one_sample_p(x, lambda v: 0.5 + np.arctan(v) / np.pi) > 0.01

    def test_levy_special_case(self, rng):
        params = StableParams(0.5, 1.0, 1.0, 0.0)
        x = sample_stable(params, rng, 10 ** 5)
        assert np.all(x > 0)
        cdf = lambda v: erfc(np.sqrt(1.0 / (2.0 * np.maximum(v, 1e-300))))
        assert ks_one_sample_p(x, cdf) > 0.01

    def test_scaling_property(self, rng):
        # sigma * Stable(a, 1, b, 0) has the Stable(a, sigma, b, 0) law
        sigma = 2.7
        direct = sample_stable(StableParams(1.3, sigma, 0.6, 0.0), rng, 10 ** 5)
        scaled = sigma * sample_stable(StableParams(1.3, 1.0, 0.6, 0.0),
                                       rng, 10 ** 5)
        assert ks_two_sample_p(direct, scaled) > 0.01

    def test_symmetry_when_unskewed(self, rng):
        x = sample_stable(StableParams(1.7, 1.0, 0.0, 0.0), rng, 10 ** 5)
        assert ks_two_sample_p(x, -x) > 0.01

    def test_alpha1_skewed_location(self, rng):
        # scale correction keeps mu the location: medians of sigma=1 and
        # sigma=3 samples differ by the median of the standardized law
        # scaled, not by an uncontrolled log-sigma drift
        p1 = StableParams(1.0, 1.0, 1.0, 0.0)
        p3 = StableParams(1.0, 3.0, 1.0, 0.0)
        m1 = np.median(sample_stable(p1, rng, 200_000))
        m3 = np.median(sample_stable(p3, rng, 200_000))
        shift = (2.0 / math.pi) * 3.0 * math.log(3.0)
        assert m3 == pytest.approx(3.0 * m1 + shift, abs=0.1)


class TestReferenceSample:
    def test_deterministic(self):
        params = StableParams(1.5, 1.0, -1.0, 0.0)
        a = sample_stable(params, np.random.default_rng(42), 1000)
        b = sample_stable(params, np.random.default_rng(42), 1000)
        assert np.array_equal(a, b)

    def test_clt_bound_on_mean(self):
        # alpha = 2 with mu: sample mean concentrates at mu
        mu, sigma, count = 0.8, 1.1, 10 ** 5
        x = sample_stable(StableParams(2.0, sigma, 0.0, mu),
                          np.random.default_rng(11), count)
        bound = 4.0 * normal_scale_at_alpha2(sigma) / math.sqrt(count)
        assert abs(x.mean() - mu) < bound

    def test_count_validation(self):
        params = StableParams(1.5, 1.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            sample_stable(params, np.random.default_rng(1), 0)
