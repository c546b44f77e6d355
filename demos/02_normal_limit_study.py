"""Concentration of the last failures at astronomically large dimensions.

With finite-variance jumps the last failure time of an n-component system
concentrates at log(n) / E S_1, and the normalized fluctuation converges
to a normal law with variance Var(S_1) / E S_1.  This study samples the
last order statistic at n = 10^10 .. 10^160 (exactly: the top trigger is
inverted from its law at every n), normalizes, and tracks the
Kolmogorov-Smirnov distance to the limit.  Convergence is visibly slower
on the left tail for heavier (but still finite-variance) jumps.
"""

from dataclasses import replace

from lfmo import convergence_study_config, limit_law_for, run_experiment

for step_alpha in (4.0, 2.5):
    config = replace(
        convergence_study_config(step_alpha, samples_per_n=20_000, seed=2),
        svg_path=f"normal_limit_alpha{step_alpha:g}.svg",
        summary_csv=f"normal_limit_alpha{step_alpha:g}_summary.csv",
    )
    law = limit_law_for(config.subordinator)
    print(f"\nPareto({step_alpha:g}) jumps -> limit Normal(0, "
          f"{law.sigma ** 2:.3f})")
    result = run_experiment(config)
    print(f"{'log10 n':>8} {'KS':>8} {'sup-deviation side':>20}")
    for cell in result.cells:
        print(f"{cell.log10_n:>8.0f} {cell.ks.statistic:>8.4f} "
              f"{cell.ks.side:>14} ({cell.ks.location:+.2f})")
    print(f"wrote {config.svg_path} and {config.summary_csv}")
