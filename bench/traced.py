"""Per-layer timing from outside the library.

Each traced repeat rebuilds a workload from the public calls it makes, in
the same order and on the same random streams, and times every call under
the name of the ``src/lfmo`` module that does the work.  The replica's
outputs are compared with the untraced run's, so a replica that drifted
from the library shows as a false flag instead of as wrong layer numbers.

Jumps are counted by :class:`CountingParetoSteps`, whose ``sample`` counts
the draws it returns.  The count means "jumps drawn by first passage" only
while first passage draws its jumps through that public method.  How many
of those jumps a path needed is known only inside the library, so the
useful-to-drawn ratio is left to a counter of its own there.
"""

from __future__ import annotations

import hashlib
import math
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from lfmo import (
    CompoundPoisson,
    Ecdf,
    ExactN,
    LfmoModel,
    LimitKind,
    LinearDrift,
    ParetoSteps,
    crossing_times_batch,
    exact_tail_probability,
    f_n,
    laplace_exponent,
    lemma_suite,
    limit_law_for,
    mean_last_order_statistic,
    normalize,
    ks_one_sample,
    ks_two_sample,
    sample_exchangeable_mo,
    sample_increments,
    sample_limit_with_stats,
    sample_upper_order_statistics,
    sample_vector,
    shock_rates,
    u_n,
    zoom_out_statistic,
)
from lfmo.montecarlo import (
    CellResult,
    DecompositionResult,
    ExperimentResult,
    MoEquivalenceResult,
    dimension_for,
    render_ecdf_svg,
)

from workloads import (
    EXACT_N,
    EXACT_T,
    StudyInputs,
    evaluate_model,
    plain_psi,
    study_outputs,
)

# spawn-key offset of the reference-population substreams in run_experiment
REFERENCE_STREAM_BASE = 1_000_000
UNIT_DRIFT = LinearDrift(slope=1.0)


class Tracer:
    """Accumulated span durations and counts, keyed by layer name."""

    def __init__(self) -> None:
        self.seconds: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)

    @contextmanager
    def span(self, name: str):
        t0 = perf_counter()
        try:
            yield
        finally:
            self.seconds[name] += perf_counter() - t0


@dataclass(frozen=True)
class CountingParetoSteps(ParetoSteps):
    """Pareto steps that count the jumps ``sample`` hands out."""

    drawn: list = field(default_factory=lambda: [0], compare=False, repr=False)

    def sample(self, rng, size=None):
        out = super().sample(rng, size)
        self.drawn[0] += int(np.size(out))
        return out


class TimedPsi:
    """psi callable that times each ``laplace_exponent`` call."""

    def __init__(self, model, tracer: Tracer) -> None:
        self.model = model
        self.tracer = tracer

    def __call__(self, x):
        t0 = perf_counter()
        value = laplace_exponent(self.model, x)
        self.tracer.seconds["subordinator.psi"] += perf_counter() - t0
        self.tracer.counts["subordinator.psi.calls"] += 1
        return value


def top_k_paths(model: LfmoModel, k_top: int, rng, count: int,
                tracer: Tracer) -> np.ndarray:
    """``sample_upper_order_statistics`` split into trigger draws and first
    passage; returns crossing times with ascending levels.

    Crossing the unit drift returns the trigger levels exactly, and it
    draws nothing from ``rng``, so the CPP crossing that follows sees the
    stream the library's own call would.
    """
    with tracer.span("distribution.top_triggers"):
        levels = sample_upper_order_statistics(
            LfmoModel(model.dimension, UNIT_DRIFT), k_top, rng, count=count)
    levels = np.ascontiguousarray(levels[:, ::-1])
    with tracer.span("subordinator.first_passage"):
        times = crossing_times_batch(model.subordinator, levels, rng)
    tracer.counts["subordinator.first_passage.paths"] += count
    tracer.counts["subordinator.first_passage.levels"] += count * k_top
    return times


def counting_model(alpha: float) -> tuple[CompoundPoisson, CountingParetoSteps]:
    step = CountingParetoSteps(alpha=alpha)
    return CompoundPoisson(lam=1.0, step=step), step


def batch_sizes(total: int, batch: int) -> list[int]:
    return [batch] * (total // batch) + ([total % batch] if total % batch else [])


# --- studies ---------------------------------------------------------------

def traced_study(inp: StudyInputs, out_dir: Path, tracer: Tracer) -> tuple[float, dict]:
    """``run_experiment`` from its public calls; returns (total s, CSV hashes)."""
    config = study_outputs(inp.config, out_dir)
    law = inp.law
    model, step = counting_model(inp.alpha)
    k_top = config.m_offset + 1
    two_sample = law.kind is not LimitKind.PART1_NORMAL
    t0 = perf_counter()
    cells = []
    for i_n, log10_n in enumerate(config.log10_n):
        lf_model = LfmoModel(dimension_for(log10_n), model)
        parts = []
        for i_b, size in enumerate(batch_sizes(config.samples_per_n,
                                               config.batch_size)):
            rng = np.random.default_rng(
                np.random.SeedSequence(config.seed, spawn_key=(i_n, i_b)))
            parts.append(top_k_paths(lf_model, k_top, rng, size, tracer)[:, 0])
        raw = np.concatenate(parts)
        with tracer.span("asymptotics.normalize"):
            normalized = normalize(raw, math.log(10.0) * log10_n, law)
        if two_sample:
            reference = []
            ref_total = config.reference_factor * config.samples_per_n
            with tracer.span("stable.reference_population"):
                for i_b, size in enumerate(batch_sizes(ref_total,
                                                       config.batch_size)):
                    rng = np.random.default_rng(np.random.SeedSequence(
                        config.seed,
                        spawn_key=(i_n, REFERENCE_STREAM_BASE + i_b)))
                    draws, rejected = sample_limit_with_stats(law, rng, size)
                    reference.append(draws)
                    tracer.counts["stable.reference_population.draws"] += size
                    tracer.counts["stable.reference_population.rejected"] += rejected
            reference = np.concatenate(reference)
        with tracer.span("montecarlo.ecdf_ks"):
            ecdf = Ecdf.from_samples(normalized)
            if two_sample:
                ks = ks_two_sample(ecdf, Ecdf.from_samples(reference))
                tracer.counts["montecarlo.ecdf_ks.points"] += reference.size
            else:
                ks = ks_one_sample(ecdf, law.cdf)
        tracer.counts["montecarlo.ecdf_ks.points"] += normalized.size
        cells.append(CellResult(log10_n, raw, normalized, ecdf, ks,
                                law.kind.value, law.sigma, law.alpha))
    result = ExperimentResult(config=config, cells=tuple(cells))
    with tracer.span("montecarlo.csv"):
        samples = result.samples_csv_text()
        summary = result.summary_csv_text()
        Path(config.samples_csv).write_text(samples)
        Path(config.summary_csv).write_text(summary)
    with tracer.span("montecarlo.svg"):
        Path(config.svg_path).write_text(render_ecdf_svg(result))
    total = perf_counter() - t0
    tracer.counts["montecarlo.csv.bytes"] += len(samples) + len(summary)
    tracer.counts["subordinator.first_passage.jumps"] += step.drawn[0]
    hashes = {"samples_csv": hashlib.sha256(samples.encode()).hexdigest(),
              "summary_csv": hashlib.sha256(summary.encode()).hexdigest()}
    return total, hashes


# --- exact formulas --------------------------------------------------------

@contextmanager
def exact_sums_span(tracer: Tracer):
    """Time exact-formula calls, less the psi time they spent inside."""
    psi_before = tracer.seconds["subordinator.psi"]
    t0 = perf_counter()
    try:
        yield
    finally:
        psi_s = tracer.seconds["subordinator.psi"] - psi_before
        tracer.seconds["distribution.exact_sums"] += perf_counter() - t0 - psi_s


def traced_exact(models: list, tracer: Tracer) -> tuple[float, list]:
    """The exact_n30 calls, each model with a fresh timed psi."""
    counter = [0, 0]
    t0 = perf_counter()
    with exact_sums_span(tracer):
        results = [evaluate_model(model, TimedPsi(model, tracer), counter)
                   for model in models]
    total = perf_counter() - t0
    tracer.counts["distribution.exact_sums.calls"] += counter[0] + counter[1]
    return total, results


# --- lfmo verify -----------------------------------------------------------

def traced_verify(seed: int, tracer: Tracer) -> tuple[float, str]:
    """``lfmo verify`` from the public calls each check makes; returns the
    total time and the text the command would print."""
    rng = np.random.default_rng(seed)
    lines = []
    ok = True
    t0 = perf_counter()

    with tracer.span("asymptotics.lemma_suite"):
        report = lemma_suite()
    for check in report.checks:
        values = ", ".join(format(v, ".3e") for v in check.values)
        lines.append(f"{'PASS' if check.passed else 'FAIL'} "
                     f"lemma:{check.name} [{values}]")
    ok &= report.passed

    # decomposition_check(model, 10**4, t, rng, path_count=4000,
    # direct_count=40_000) for each t
    plain = CompoundPoisson(lam=1.0, step=ParetoSteps(alpha=4.0))
    model, step = counting_model(4.0)
    n, path_count, direct_count = 10 ** 4, 4000, 40_000
    law = limit_law_for(plain)
    ln_n = math.log(n)
    for t in (-0.5, 0.0, 0.5):
        with tracer.span("asymptotics.normalize"):
            horizon = u_n(t, ln_n, law.mean_s1, law.alpha)
        with tracer.span("subordinator.increments"):
            s_u = sample_increments(plain, horizon, rng, path_count)
        with tracer.span("asymptotics.normalize"):
            sigma_n = zoom_out_statistic(s_u, horizon, t, law, ln_n)
            kernel = 1.0 - np.asarray(f_n(law.sigma * sigma_n + t, n, n,
                                          law.alpha))
        kernel_est = float(np.mean(kernel))
        kernel_se = float(np.std(kernel, ddof=1) / math.sqrt(path_count))
        times = top_k_paths(LfmoModel(ExactN(n), model), 1, rng,
                            direct_count, tracer)
        direct_est = float(np.mean(times[:, 0] > horizon))
        direct_se = math.sqrt(max(direct_est * (1.0 - direct_est), 1e-12)
                              / direct_count)
        res = DecompositionResult(t=t, horizon=horizon,
                                  kernel_estimate=kernel_est,
                                  kernel_se=kernel_se,
                                  direct_estimate=direct_est,
                                  direct_se=direct_se)
        lines.append(
            f"{'PASS' if res.passed else 'FAIL'} decomposition t={t:+.1f} "
            f"kernel={res.kernel_estimate:.5f} "
            f"direct={res.direct_estimate:.5f} z={res.z_score:+.2f}")
        ok &= res.passed
    tracer.counts["subordinator.first_passage.jumps"] += step.drawn[0]

    # mo_equivalence_check(model, rng, count=10**5) with n = 3
    mo_model = CompoundPoisson(lam=1.0, step=ParetoSteps(alpha=2.5))
    count, dim, grid = 10 ** 5, 3, (0.25, 0.75, 1.5)
    with exact_sums_span(tracer):
        rates = shock_rates(dim, TimedPsi(mo_model, tracer))
    tracer.counts["distribution.exact_sums.calls"] += 1
    with tracer.span("distribution.shock_model"):
        mo = sample_exchangeable_mo(dim, rates, rng, count)
    with tracer.span("distribution.sample_vector"):
        lf = sample_vector(LfmoModel(ExactN(dim), mo_model), rng, count)
    worst, max_z = (0.0, 0.0, 0.0), 0.0
    for point in np.stack(np.meshgrid(*([np.asarray(grid)] * dim)),
                          axis=-1).reshape(-1, dim):
        p_mo = float(np.mean(np.all(mo > point, axis=1)))
        p_lf = float(np.mean(np.all(lf > point, axis=1)))
        se = math.sqrt((p_mo * (1 - p_mo) + p_lf * (1 - p_lf)) / count + 1e-18)
        z = abs(p_mo - p_lf) / se
        if z > max_z:
            max_z, worst = z, (float(point[0]), p_mo, p_lf)
    mo_res = MoEquivalenceResult(grid=grid, max_abs_z=max_z, worst_cell=worst)
    lines.append(f"{'PASS' if mo_res.passed else 'FAIL'} "
                 f"shock-model-equivalence max|z|={mo_res.max_abs_z:.2f}")
    ok &= mo_res.passed

    lines.append("VERIFY " + ("PASS" if ok else "FAIL"))
    return perf_counter() - t0, "\n".join(lines) + "\n"


def exact_recheck(models: list, results: list) -> bool:
    """Do plain-psi calls return what the timed-psi calls returned?

    A sample per model (the mean, the shock rates and one tail value) keeps
    the check cheap; the psi cache is warm by now, so it is not timed.
    """
    for model, (tails, mean, rates) in zip(models, results):
        psi = plain_psi(model)
        if (mean_last_order_statistic(EXACT_N, psi) != mean
                or not np.array_equal(shock_rates(EXACT_N, psi), rates)
                or exact_tail_probability(EXACT_N, 15, EXACT_T[4], psi)
                != tails[14][4]):
            return False
    return True
