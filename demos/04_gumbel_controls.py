"""Gumbel controls: the iid benchmark and the large-n Gumbel error.

Two unrelated appearances of the Gumbel law.  First, a deterministic-drift
subordinator makes the lifetimes iid exponential, so the classical extreme
-value normalization of the last failure is exactly the Gumbel limit - a
zero-variance control for the whole pipeline.  Second, the top of n iid
unit exponentials is log(n) + Gumbel up to a sup-CDF error of about
0.27 / n; the table below tracks that error.  The sampler needs no such
approximation: it inverts the exact law at every n, and a two-sample test
confirms that an exact dimension and the same dimension on the log scale
give the same draws in distribution at n = 10^6.
"""

import math

import numpy as np

from lfmo import (
    CompoundPoisson,
    Ecdf,
    ExactN,
    LfmoModel,
    LinearDrift,
    LogScaleN,
    ParetoSteps,
    gumbel_switch_error_bound,
    ks_one_sample,
    ks_two_sample,
    limit_law_for,
    sample_upper_order_statistics,
)

rng = np.random.default_rng(11)

# --- iid control -----------------------------------------------------------
n = 10 ** 6
drift = LfmoModel(ExactN(n), LinearDrift(1.0))
draws = sample_upper_order_statistics(drift, 1, rng, count=50_000)[:, 0]
gumbel = limit_law_for(LinearDrift(1.0))   # c T_{n:n} - log n -> Gumbel
z = gumbel.normalize(draws, math.log(n))
ks = ks_one_sample(Ecdf.from_samples(z), gumbel.cdf)
print(f"drift control at n=1e6: KS vs standard Gumbel = {ks.statistic:.4f} "
      f"(p = {ks.p_value:.3f})")

# --- Gumbel approximation error --------------------------------------------
print(f"\n{'n':>10} {'sup-CDF error':>15} {'0.27/n envelope':>16}")
for k in range(2, 7):
    n = 10 ** k
    bound = gumbel_switch_error_bound(n)
    print(f"{n:>10} {bound:>15.3e} {2 * math.exp(-2) / n:>16.3e}")

# --- both dimension forms sample the same exact law ------------------------
model = CompoundPoisson(1.0, ParetoSteps(2.5))
exact = sample_upper_order_statistics(
    LfmoModel(ExactN(10 ** 6), model), 1, rng, count=50_000)[:, 0]
log_scale = sample_upper_order_statistics(
    LfmoModel(LogScaleN(6.0), model), 1, rng, count=50_000)[:, 0]
two = ks_two_sample(Ecdf.from_samples(exact), Ecdf.from_samples(log_scale))
print(f"\nExactN(1e6) vs LogScaleN(6) sampling: "
      f"two-sample KS = {two.statistic:.4f} (p = {two.p_value:.3f})")
