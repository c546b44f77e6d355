"""Non-concentrating regime: heavy jumps kill the whole system abruptly.

With Pareto(1/2) jumps the mean of S_1 is infinite; the subordinator
climbs so fast that all n triggers are crossed within a window of order
(log n)^(1/2), a vanishing fraction of the log(n) horizon of the
finite-mean regime.  The rescaled last failure converges to 1 / Sigma^a
where Sigma is a positive stable variable - for a = 1/2 that limit is a
half-normal law, which makes the convergence easy to see.

The study also demonstrates why the (log n)^a scale is the right one:
dividing by (log n)^(1/a) instead drives the rescaled samples to zero and
the KS distance toward 1.
"""

from dataclasses import replace

import numpy as np

from lfmo import (
    CompoundPoisson,
    ExperimentConfig,
    ParetoSteps,
    limit_law_for,
    run_experiment,
)

model = CompoundPoisson(lam=1.0, step=ParetoSteps(alpha=0.5))
law = limit_law_for(model)
print(f"limit: inverse power of Stable_{law.alpha:g}(sigma={law.sigma:.4f}, "
      "beta=1, mu=0)")
rng = np.random.default_rng(5)
ref = law.sample(rng, count=100_000)
print(f"limit sample: mean {ref.mean():.4f}, median "
      f"{np.median(ref):.4f}, all positive: {bool((ref > 0).all())}")

config = ExperimentConfig(subordinator=model, log10_n=(2.0, 4.0, 8.0),
                          samples_per_n=20_000, seed=5)
proof_scale = run_experiment(config)
wrong_scale = run_experiment(replace(config, part2_scaling_exponent=2.0))

print(f"\n{'log10 n':>8} {'KS, (log n)^0.5 scale':>24} "
      f"{'KS, (log n)^2 scale':>22}")
for good, bad in zip(proof_scale.cells, wrong_scale.cells):
    print(f"{good.log10_n:>8.0f} {good.ks.statistic:>24.4f} "
          f"{bad.ks.statistic:>22.4f}")
print("\nthe first column shrinks, the second saturates toward 1")
