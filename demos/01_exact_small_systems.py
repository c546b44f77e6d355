"""Exact finite-n machinery on a small system, cross-checked by simulation.

A 6-component system whose lifetimes are first-passage times of a compound
Poisson subordinator (rate 1, Pareto(2.5) jumps) over unit-exponential
triggers.  We print the exact order-statistic tail probabilities, the mean
of the last failure, and the equivalent exponential-shock rates, and we
confirm each number against a direct Monte Carlo simulation.
"""

import math

import numpy as np

from lfmo import (
    CompoundPoisson,
    ExactN,
    LfmoModel,
    ParetoSteps,
    exact_tail_probability,
    mean_last_order_statistic,
    sample_exchangeable_mo,
    sample_vector,
    shock_rates,
    tail_probability_mc,
)

rng = np.random.default_rng(1)
model = CompoundPoisson(lam=1.0, step=ParetoSteps(alpha=2.5))
psi = model.psi
n = 6

print(f"subordinator: CPP(rate=1) with Pareto(2.5) jumps, system size n={n}")
print(f"Laplace exponent at 1..{n}:",
      [round(psi(k), 4) for k in range(1, n + 1)])

# --- exact tail vs the conditional-binomial Monte Carlo oracle ------------
print("\nP(T_{m:n} > t): exact alternating sum vs conditional-binomial MC")
print(f"{'m':>3} {'t':>5} {'exact':>10} {'mc':>10} {'se':>9}")
for m in (1, 3, n):
    for t in (0.5, 1.5):
        exact = exact_tail_probability(n, m, t, psi)
        mc, se = tail_probability_mc(model, n, m, t, rng, count=200_000)
        print(f"{m:>3} {t:>5.2f} {exact:>10.6f} {mc:>10.6f} {se:>9.1e}")

# --- mean of the last failure ---------------------------------------------
exact_mean = mean_last_order_statistic(n, psi)
draws = sample_vector(LfmoModel(ExactN(n), model), rng, count=200_000)
mc_mean = draws.max(axis=1).mean()
print(f"\nE T_(n:n): exact {exact_mean:.6f}, MC {mc_mean:.6f}")

# --- shock-rate reparameterization ----------------------------------------
rates = shock_rates(n, psi)
print("\nshock rate per subset size:", np.round(rates, 6))
marginal = sum(math.comb(n - 1, v - 1) * rates[v - 1] for v in range(1, n + 1))
total = sum(math.comb(n, v) * rates[v - 1] for v in range(1, n + 1))
print(f"sum C(n-1,v-1) rate_v = {marginal:.10f} (= psi(1) = {psi(1):.10f})")
print(f"sum C(n,v)   rate_v = {total:.10f} (= psi(n) = {psi(n):.10f})")

# the shock model with those rates reproduces the joint law
mo = sample_exchangeable_mo(n, rates, rng, count=200_000)
point = np.full(n, 0.4)
p_mo = np.all(mo > point, axis=1).mean()
p_lf = np.all(draws > point, axis=1).mean()
print(f"\njoint survival at t=0.4 everywhere: shock model {p_mo:.4f}, "
      f"path model {p_lf:.4f}")
