"""Acceptance suite: one test per release criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS/FAIL lines.  Tolerances are fixed here, not tuned at runtime: Monte
Carlo agreement is 3 standard errors, distributional acceptance is the
Kolmogorov-Smirnov test at level 0.01 on 1e5 samples, exact identities use
the stated absolute tolerances.
"""

import math
import time
from dataclasses import replace

import numpy as np
from scipy.special import erfc, ndtr

from lfmo import (
    CompoundPoisson,
    Ecdf,
    ExactN,
    ExperimentConfig,
    LfmoModel,
    LinearDrift,
    LogScaleN,
    ParetoSteps,
    StableParams,
    convergence_study_config,
    c_alpha,
    decomposition_check,
    exact_tail_probability,
    gumbel_switch_error_bound,
    ks_one_sample,
    ks_two_sample,
    laplace_exponent,
    lemma_suite,
    limit_law_for,
    mean_last_order_statistic,
    mo_equivalence_check,
    normalize,
    run_experiment,
    sample_stable,
    sample_upper_order_statistics,
    sample_vector,
    shock_rates,
    tail_probability_mc,
)

CPP25 = CompoundPoisson(1.0, ParetoSteps(2.5))
CPP4 = CompoundPoisson(1.0, ParetoSteps(4.0))
CPP05 = CompoundPoisson(1.0, ParetoSteps(0.5))
DRIFT1 = LinearDrift(1.0)
SEED = 727


def _rng(offset: int) -> np.random.Generator:
    return np.random.default_rng(SEED + offset)


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def _ks_p(samples, cdf) -> float:
    return ks_one_sample(Ecdf.from_samples(samples), cdf).p_value


def test_criterion_01_exact_formula_oracle_equivalence():
    start = time.time()
    rng = _rng(1)
    worst = 0.0
    for model in (CPP25, DRIFT1):
        psi = lambda x: laplace_exponent(model, x)
        for n in (3, 5, 10):
            for m in (1, math.ceil(n / 2), n):
                for t in (0.25, 0.5, 1.0, 2.0):
                    exact = exact_tail_probability(n, m, t, psi)
                    est, se = tail_probability_mc(model, n, m, t, rng,
                                                  count=10 ** 6)
                    tol = max(3.0 * se, 1e-9)
                    worst = max(worst, abs(exact - est) / tol)
                    assert abs(exact - est) <= tol, (model, n, m, t)
    elapsed = time.time() - start
    _report(1, "exact-formula/oracle equivalence",
            worst <= 1.0 and elapsed < 300.0,
            f"worst |diff|/tol = {worst:.3f}, elapsed {elapsed:.0f}s")


def test_criterion_02_marginal_and_extreme_laws():
    rng = _rng(2)
    psi1 = laplace_exponent(CPP25, 1.0)
    psi5 = laplace_exponent(CPP25, 5.0)
    draws = sample_vector(LfmoModel(ExactN(5), CPP25), rng, count=10 ** 5)
    p_marginal = _ks_p(draws[:, 0], lambda t: 1.0 - np.exp(-psi1 * t))
    p_minimum = _ks_p(draws.min(axis=1), lambda t: 1.0 - np.exp(-psi5 * t))
    _report(2, "marginal and extreme laws",
            p_marginal > 0.01 and p_minimum > 0.01,
            f"KS p: marginal {p_marginal:.3f}, minimum {p_minimum:.3f}")


def test_criterion_03_mean_formula():
    rng = _rng(3)
    psi_drift = lambda x: laplace_exponent(DRIFT1, x)
    worst_dev = 0.0
    for n in range(1, 31):
        harmonic = sum(1.0 / k for k in range(1, n + 1))
        worst_dev = max(worst_dev,
                        abs(mean_last_order_statistic(n, psi_drift) - harmonic))
    exact = mean_last_order_statistic(10, lambda x: laplace_exponent(CPP25, x))
    draws = sample_upper_order_statistics(LfmoModel(ExactN(10), CPP25), 1,
                                          rng, count=10 ** 6)[:, 0]
    se = draws.std(ddof=1) / math.sqrt(draws.size)
    z = (draws.mean() - exact) / se
    _report(3, "mean formula",
            worst_dev <= 1e-10 and abs(z) <= 3.0,
            f"max |mean - H_n| = {worst_dev:.2e} (n<=30), MC z = {z:+.2f}")


def test_criterion_04_shock_rate_identities_and_equivalence():
    start = time.time()
    rng = _rng(4)
    psi = lambda x: laplace_exponent(CPP25, x)
    rates6 = shock_rates(6, psi)
    marginal = sum(math.comb(5, v - 1) * rates6[v - 1] for v in range(1, 7))
    total = sum(math.comb(6, v) * rates6[v - 1] for v in range(1, 7))
    identities_ok = (np.all(rates6 >= -1e-12)
                     and abs(marginal - psi(1)) <= 1e-8
                     and abs(total - psi(6)) <= 1e-8)
    mo = mo_equivalence_check(CPP25, rng, count=10 ** 6)
    elapsed = time.time() - start
    _report(4, "shock-rate identities and shock-model equivalence",
            identities_ok and mo.passed and elapsed < 600.0,
            f"identity errors {abs(marginal - psi(1)):.1e}/"
            f"{abs(total - psi(6)):.1e}, joint-survival max|z| = "
            f"{mo.max_abs_z:.2f}, elapsed {elapsed:.0f}s")


def test_criterion_05_normal_limit_desk_replica():
    start = time.time()
    result = run_experiment(
        convergence_study_config(4.0, samples_per_n=10 ** 5, seed=SEED + 5),
        workers=1)
    ks = result.ks_statistics()
    decreasing = all(b < a for a, b in zip(ks, ks[1:]))
    elapsed = time.time() - start
    _report(5, "normal-limit convergence (finite-variance steps)",
            decreasing and ks[-1] < 0.05 and elapsed < 600.0,
            f"KS = {[round(k, 4) for k in ks]}, elapsed {elapsed:.0f}s")


def test_criterion_06_slow_left_tail():
    result = run_experiment(
        convergence_study_config(2.5, samples_per_n=10 ** 5, seed=SEED + 6),
        workers=1)
    ks = result.ks_statistics()
    decreasing = all(b < a for a, b in zip(ks, ks[1:]))
    first = result.cells[0].ks
    _report(6, "slow left tail at the near end of the schedule",
            decreasing and first.location < 0.0 and first.side == "left",
            f"KS = {[round(k, 4) for k in ks]}, sup-deviation at "
            f"{first.location:+.2f} ({first.side})")


def test_criterion_07_inverse_stable_limit_and_scaling():
    config = ExperimentConfig(
        subordinator=CPP05, log10_n=(2.0, 4.0, 8.0),
        samples_per_n=10 ** 5, seed=SEED + 7, reference_factor=10)
    proof_scale = run_experiment(config, workers=1)
    stated_scale = run_experiment(
        replace(config, part2_scaling_exponent=2.0), workers=1)
    ks_good = proof_scale.ks_statistics()
    ks_bad = stated_scale.ks_statistics()
    same_raw = all(np.array_equal(a.raw, b.raw)
                   for a, b in zip(proof_scale.cells, stated_scale.cells))
    good_ok = all(b < a for a, b in zip(ks_good, ks_good[1:]))
    bad_ok = all(b >= a for a, b in zip(ks_bad, ks_bad[1:]))
    _report(7, "inverse-stable limit with scaling discrimination",
            same_raw and good_ok and bad_ok,
            f"(log n)^a divisor KS = {[round(k, 4) for k in ks_good]} vs "
            f"(log n)^(1/a) divisor KS = {[round(k, 4) for k in ks_bad]}")


def test_criterion_08_gumbel_controls():
    rng = _rng(8)
    n = 10 ** 6
    draws = sample_upper_order_statistics(LfmoModel(ExactN(n), DRIFT1), 1,
                                          rng, count=10 ** 5)[:, 0]
    z = normalize(draws, math.log(n), limit_law_for(DRIFT1))
    p = _ks_p(z, lambda v: np.exp(-np.exp(-np.asarray(v))))
    _report(8, "zero-variance / iid Gumbel control", p > 0.01, f"KS p = {p:.3f}")


def test_criterion_09_gumbel_switch_over():
    rng = _rng(9)
    bounds = [gumbel_switch_error_bound(10 ** k) for k in range(2, 7)]
    decreasing = all(b < a for a, b in zip(bounds, bounds[1:]))
    exact = sample_upper_order_statistics(
        LfmoModel(ExactN(10 ** 6), CPP25), 1, rng, count=10 ** 5)[:, 0]
    gumbel = sample_upper_order_statistics(
        LfmoModel(LogScaleN(6.0), CPP25), 1, rng, count=10 ** 5)[:, 0]
    p = ks_two_sample(Ecdf.from_samples(exact),
                      Ecdf.from_samples(gumbel)).p_value
    _report(9, "Gumbel switch-over",
            bounds[-1] <= 3e-7 and decreasing and p > 0.01,
            f"bound(1e6) = {bounds[-1]:.2e}, cross-regime KS p = {p:.3f}")


def test_criterion_10_stable_machinery():
    rng = _rng(10)
    sigma = 1.0
    normal = sample_stable(StableParams(2.0, sigma, 0.0, 0.0), rng, 10 ** 5)
    p_normal = _ks_p(normal, lambda v: ndtr(v / (math.sqrt(2.0) * sigma)))
    cauchy = sample_stable(StableParams(1.0, 1.0, 0.0, 0.0), rng, 10 ** 5)
    p_cauchy = _ks_p(cauchy, lambda v: 0.5 + np.arctan(v) / np.pi)
    levy = sample_stable(StableParams(0.5, 1.0, 1.0, 0.0), rng, 10 ** 5)
    p_levy = _ks_p(levy, lambda v: erfc(np.sqrt(1.0 / (2.0 * np.maximum(v, 1e-300)))))
    c1_ok = abs(c_alpha(1.0) - 2.0 / math.pi) <= 1e-12
    _report(10, "stable machinery",
            min(p_normal, p_cauchy, p_levy) > 0.01 and c1_ok,
            f"KS p: normal {p_normal:.3f}, Cauchy {p_cauchy:.3f}, "
            f"Levy {p_levy:.3f}")


def test_criterion_11_proof_machinery_decomposition():
    rng = _rng(11)
    zs = []
    for t in (-0.5, 0.0, 0.5):
        res = decomposition_check(CPP4, 10 ** 4, t, rng,
                                  path_count=10 ** 4, direct_count=10 ** 5)
        zs.append(res.z_score)
    lemmas = lemma_suite()
    _report(11, "conditional-binomial decomposition and lemma checks",
            all(abs(z) <= 3.0 for z in zs) and lemmas.passed,
            f"z = {[f'{z:+.2f}' for z in zs]}, lemma suite "
            f"{'pass' if lemmas.passed else 'fail'}")


def test_criterion_12_reproducibility(tmp_path):
    def config(tag: str) -> ExperimentConfig:
        return ExperimentConfig(
            subordinator=CPP25, log10_n=(2.0, 4.0), samples_per_n=2000,
            seed=SEED + 12, batch_size=500,
            samples_csv=str(tmp_path / f"samples_{tag}.csv"),
            summary_csv=str(tmp_path / f"summary_{tag}.csv"))

    run_experiment(config("a"), workers=1)
    run_experiment(config("b"), workers=1)
    run_experiment(config("c"), workers=8)
    texts = {tag: ((tmp_path / f"samples_{tag}.csv").read_text(),
                   (tmp_path / f"summary_{tag}.csv").read_text())
             for tag in "abc"}
    identical = texts["a"] == texts["b"] == texts["c"]
    _report(12, "bit-identical reproducibility",
            identical,
            f"{len(texts['a'][0])} sample-CSV bytes identical across reruns "
            "and worker counts 1/8")
