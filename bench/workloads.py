"""The benchmark's workloads: their inputs, one untraced repeat, and its checks.

Each workload is defined next to the one-line reason it exists.  Inputs are
made from the workload seed only; the library receives nothing else.  One
untraced repeat returns a :class:`Repeat` holding its wall time, the work
it completed and the outcome of every output check, so a failed check is
a failed operation rather than an aborted run.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

import numpy as np
from scipy.stats import binom

from lfmo import (
    CompoundPoisson,
    ExperimentConfig,
    LimitKind,
    LimitLaw,
    LinearDrift,
    ParetoSteps,
    convergence_study_config,
    exact_tail_probability,
    laplace_exponent,
    limit_law_for,
    mean_last_order_statistic,
    run_experiment,
    shock_rates,
)
from lfmo.cli import main as lfmo_main

STUDY_SEED = 20_240_501
VERIFY_SEED = 7

# exact_n30 grid: one Pareto exponent in each of 25 strata of width 0.15
# covering [0.30, 4.05), plus the unit drift whose answers are known in
# closed form
EXACT_N = 30
EXACT_T = (0.05, 0.1, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0)
ALPHA_LO, ALPHA_STEP, ALPHA_STRATA = 0.30, 0.15, 25
CALLS_PER_MODEL = EXACT_N * len(EXACT_T) + 2  # tails, mean, shock rates

# first-passage paths one `lfmo verify` call samples: three decomposition
# checks of 40k top-1 paths, and 100k full vectors in the shock-model check
VERIFY_PATHS = 3 * 40_000 + 100_000


@dataclass
class Repeat:
    """Outcome of one untraced repeat."""

    wall_s: float
    ops: int
    attempted: int
    failed: int
    info: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# --- convergence studies ---------------------------------------------------

@dataclass(frozen=True)
class StudyInputs:
    alpha: float
    workers: int
    config: ExperimentConfig  # without output paths
    law: LimitLaw


def build_study(alpha: float, workers: int, seed: int) -> StudyInputs:
    config = convergence_study_config(alpha, seed=seed)
    law = limit_law_for(config.subordinator, config.part2_scaling_exponent)
    return StudyInputs(alpha, workers, config, law)


def study_outputs(config, out_dir: Path):
    return replace(config, samples_csv=str(out_dir / "samples.csv"),
                   summary_csv=str(out_dir / "summary.csv"),
                   svg_path=str(out_dir / "ecdf.svg"))


def study_problems(inp: StudyInputs, raws, ks, samples_csv: Path) -> list:
    """Output checks of one study, as a list of failure messages."""
    problems = []
    expected = expected_paths(inp)
    with samples_csv.open("rb") as fh:
        rows = sum(1 for _ in fh) - 1
    if rows != expected:
        problems.append(f"samples CSV has {rows} rows, expected {expected}")
    for log10_n, raw in zip(inp.config.log10_n, raws):
        if not (np.all(np.isfinite(raw)) and np.all(raw > 0.0)):
            problems.append(f"non-finite or non-positive raw value at "
                            f"log10 n = {log10_n:g}")
    if inp.law.kind is LimitKind.PART1_NORMAL:
        if not all(b < a for a, b in zip(ks, ks[1:])):
            problems.append(f"KS does not strictly decrease: {ks}")
    elif not ks[-1] < ks[0]:
        problems.append(f"KS at the last dimension is not below the first: {ks}")
    return problems


def study_repeat(inp: StudyInputs, out_dir: Path, state: dict) -> Repeat:
    config = study_outputs(inp.config, out_dir)
    t0 = perf_counter()
    result = run_experiment(config, workers=inp.workers)
    wall = perf_counter() - t0
    ks = result.ks_statistics()
    hashes = {"samples_csv": sha256_file(Path(config.samples_csv)),
              "summary_csv": sha256_file(Path(config.summary_csv))}
    problems = study_problems(inp, [c.raw for c in result.cells], ks,
                              Path(config.samples_csv))
    first = state.setdefault("hashes", hashes)
    if hashes != first:
        problems.append("CSV hashes differ between repeats of one run")
    return Repeat(wall, expected_paths(inp), 1, 1 if problems else 0,
                  {"hashes": hashes, "ks": ks}, problems)


def expected_paths(inp: StudyInputs) -> int:
    return inp.config.samples_per_n * len(inp.config.log10_n)


# --- exact formulas at n = 30 ----------------------------------------------

def exact_models(rng: np.random.Generator) -> list:
    """25 Pareto models, one exponent per stratum, then the unit drift.

    Each repeat draws fresh exponents, so the library's psi cache starts
    cold for every Pareto model in every repeat.
    """
    alphas = ALPHA_LO + ALPHA_STEP * (np.arange(ALPHA_STRATA)
                                      + rng.random(ALPHA_STRATA))
    models = [CompoundPoisson(lam=1.0, step=ParetoSteps(alpha=float(a)))
              for a in alphas]
    return models + [LinearDrift(slope=1.0)]


def plain_psi(model):
    return lambda x: laplace_exponent(model, x)


def evaluate_model(model, psi, counter: list):
    """All exact-formula calls for one model; a raising call yields None.

    ``counter`` is [completed, raised].
    """
    def call(fn, *args):
        try:
            value = fn(*args)
        except Exception:  # a raising call is a failed operation, not a crash
            counter[1] += 1
            return None
        counter[0] += 1
        return value

    tails = [[call(exact_tail_probability, EXACT_N, m, t, psi) for t in EXACT_T]
             for m in range(1, EXACT_N + 1)]
    mean = call(mean_last_order_statistic, EXACT_N, psi)
    rates = call(shock_rates, EXACT_N, psi)
    return tails, mean, rates


def exact_problems(model, tails, mean, rates) -> int:
    """Number of calls of one model whose output check failed."""
    bad = 0
    n = EXACT_N
    for m, row in enumerate(tails, start=1):
        for j, value in enumerate(row):
            if value is None:
                continue
            ok = True
            if j and row[j - 1] is not None and value > row[j - 1]:
                ok = False  # must not increase in t
            below = tails[m - 2][j] if m > 1 else None
            if below is not None and value < below:
                ok = False  # must not decrease in m
            if isinstance(model, LinearDrift):
                exact = float(binom.sf(n - m, n, math.exp(-EXACT_T[j])))
                ok &= abs(value - exact) <= 1e-9
            bad += not ok
    if mean is not None and isinstance(model, LinearDrift):
        harmonic = math.fsum(1.0 / k for k in range(1, n + 1))
        bad += abs(mean - harmonic) > 1e-10
    if rates is not None:
        psi1 = laplace_exponent(model, 1.0)
        psin = laplace_exponent(model, float(n))
        s1 = math.fsum(math.comb(n - 1, v - 1) * rates[v - 1]
                       for v in range(1, n + 1))
        sn = math.fsum(math.comb(n, v) * rates[v - 1] for v in range(1, n + 1))
        bad += not (abs(s1 - psi1) <= 1e-8 and abs(sn - psin) <= 1e-8)
    return bad


def exact_digest(results) -> str:
    """sha256 over every value of one repeat, in evaluation order."""
    h = hashlib.sha256()
    for tails, mean, rates in results:
        for row in tails:
            h.update(repr(row).encode())
        h.update(repr(mean).encode())
        h.update(repr(None if rates is None else rates.tolist()).encode())
    return h.hexdigest()


def exact_repeat(rng: np.random.Generator) -> Repeat:
    models = exact_models(rng)
    psis = [plain_psi(model) for model in models]
    counter = [0, 0]
    t0 = perf_counter()
    results = [evaluate_model(model, psi, counter)
               for model, psi in zip(models, psis)]
    wall = perf_counter() - t0
    bad = sum(exact_problems(model, *res) for model, res in zip(models, results))
    attempted = CALLS_PER_MODEL * len(models)
    problems = [f"{bad} exact-formula outputs failed their check"] if bad else []
    if counter[1]:
        problems.append(f"{counter[1]} exact-formula calls raised")
    return Repeat(wall, counter[0], attempted, bad + counter[1],
                  {"digest": exact_digest(results)}, problems)


# --- lfmo verify -----------------------------------------------------------

def verify_repeat(seed: int) -> Repeat:
    argv = ["verify", "--seed", str(seed)]
    buf = io.StringIO()
    t0 = perf_counter()
    with contextlib.redirect_stdout(buf):
        code = lfmo_main(argv)
    wall = perf_counter() - t0
    text = buf.getvalue()
    lines = text.strip().splitlines()
    problems = []
    if code != 0 or not lines or lines[-1] != "VERIFY PASS":
        problems.append(f"verify exited {code}: "
                        f"{lines[-1] if lines else '<no output>'}")
    return Repeat(wall, VERIFY_PATHS, 1, 1 if problems else 0,
                  {"argv": argv,
                   "stdout_sha256": hashlib.sha256(text.encode()).hexdigest()},
                  problems)


# --- registry --------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    seed: int
    ops_name: str


WORKLOADS = {
    w.name: w for w in (
        Workload("study_normal",
                 "finite-variance normal-limit study at workers=1: the "
                 "single-threaded baseline, dominated by first passage and CSV "
                 "writing, with no reference population",
                 STUDY_SEED, "paths"),
        Workload("study_inverse_stable",
                 "infinite-mean study through the 2-worker pool: short paths, "
                 "the only stable reference population and two-sample KS, with "
                 "ECDF/KS, CSV and SVG left serial",
                 STUDY_SEED, "paths"),
        Workload("exact_n30",
                 "exact formulas alone at n=30 over 25 Pareto exponents and "
                 "the drift, each starting from a cold psi: no sampling, so "
                 "sampling changes must not move it",
                 0, "evals"),
        Workload("verify",
                 "the `lfmo verify` command users run: multi-level first "
                 "passage in sample_vector, increments, the shock-model "
                 "simulator and the lemma suite",
                 VERIFY_SEED, "paths"),
    )
}


def build(name: str, seed: int):
    """A workload's inputs for one run, made from its seed alone (taken
    modulo 2**32, so that any integer is a valid seed)."""
    seed %= 2 ** 32
    if name == "study_normal":
        return build_study(2.5, 1, seed)
    if name == "study_inverse_stable":
        return build_study(0.5, 2, seed)
    if name == "exact_n30":
        return np.random.default_rng(seed)
    # `lfmo verify` is a 3-standard-error acceptance suite that fails by
    # design at a few seeds (25 and 27 among 0..39), so it always runs at its
    # documented seed and a failure means a changed program
    return VERIFY_SEED


def repeat(name: str, inputs, out_dir: Path, state: dict) -> Repeat:
    """One untraced repeat of a workload; a raising study or CLI call is one
    failed operation (exact-formula calls are counted one by one)."""
    t0 = perf_counter()
    try:
        if name.startswith("study_"):
            return study_repeat(inputs, out_dir, state)
        if name == "exact_n30":
            return exact_repeat(inputs)
        return verify_repeat(inputs)
    except Exception as exc:  # reported as a failed operation, run continues
        return Repeat(perf_counter() - t0, 0, 1, 1, {}, [repr(exc)])
