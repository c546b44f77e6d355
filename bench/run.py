"""Benchmark of the lfmo library, end to end and per module.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run it from the root of a checkout; it imports ``lfmo`` from ``src/`` there
and exits 2 without a result if that is missing.  Workloads are defined
with their reasons in ``bench/workloads.py``; metric names and units are
those declared in ``BENCHMARK.json``.

``--trace 0`` times whole repeats of the workload for ``--seconds`` and
reports the end-to-end metrics, after timing several fresh processes that
import the library and build the workload's inputs (``setup_s``).
``--trace 1`` alternates an untraced repeat with a traced replica built
from public calls (``bench/traced.py``) and reports the per-layer metrics.
Either way, every repeat's outputs are checked, and the last line of
standard output is one JSON object: correct, attempted, failed, metrics.
The line before it holds the details: per-repeat times, output hashes,
check failures and the machine.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_PROBES = 3

# per-path ratios of the traced run: metric -> the tracer count it divides
PER_PATH = {
    "subordinator.first_passage.levels_per_path":
        "subordinator.first_passage.levels",
    "subordinator.first_passage.jumps_drawn_per_path":
        "subordinator.first_passage.jumps",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the workload's own)")
    parser.add_argument("--seconds", type=float, default=18.0,
                        help="measure for about this long: another repeat "
                             "starts while it would end nearer to it")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def machine() -> dict:
    import mpmath
    import numpy
    import scipy

    info = {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "mpmath": mpmath.__version__}
    try:
        out = subprocess.run(["lscpu"], capture_output=True, text=True,
                             timeout=30).stdout
    except (OSError, subprocess.SubprocessError):
        out = ""
    fields = {"Model name": "cpu", "L2 cache": "l2", "L3 cache": "l3"}
    for line in out.splitlines():
        key, _, value = line.partition(":")
        if key.strip() in fields:
            info[fields[key.strip()]] = value.strip()
    return info


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def setup_times(name: str, seed: int) -> list[float]:
    """Wall time of fresh processes that import lfmo and build the inputs."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = perf_counter()
        subprocess.run([sys.executable, str(HERE / "setup_probe.py"), name,
                        str(seed)], check=True, cwd=ROOT,
                       stdout=subprocess.DEVNULL)
        times.append(perf_counter() - t0)
    return times


def another_repeat(durations: list, elapsed: float, seconds: float) -> bool:
    """Start another repeat while it would end nearer to ``seconds`` than
    stopping now does; the first repeat always runs."""
    return not durations or elapsed + statistics.median(durations) / 2 < seconds


def run_untraced(wl, inputs, seconds: float, out_dir: Path):
    import workloads

    state: dict = {}
    repeats = []
    t0 = perf_counter()
    while another_repeat([r.wall_s for r in repeats], perf_counter() - t0,
                         seconds):
        repeats.append(workloads.repeat(wl.name, inputs, out_dir, state))
    return repeats


def run_traced(wl, inputs, seconds: float, out_dir: Path, names: list):
    """Pairs of (untraced repeat, traced replica) until ``seconds`` pass."""
    import traced
    import workloads

    if wl.name.startswith("study_"):
        # the replica is serial, so its untraced partner is too
        inputs = replace(inputs, workers=1)
    state: dict = {}
    repeats, layers, traced_s, replica_ok = [], [], [], True
    t0 = perf_counter()
    while another_repeat([r.wall_s + t for r, t in zip(repeats, traced_s)],
                         perf_counter() - t0, seconds):
        rep = workloads.repeat(wl.name, inputs, out_dir, state)
        tracer = traced.Tracer()
        if wl.name.startswith("study_"):
            total, hashes = traced.traced_study(inputs, out_dir, tracer)
            replica_ok &= hashes == rep.info.get("hashes")
        elif wl.name == "exact_n30":
            models = workloads.exact_models(inputs)
            total, results = traced.traced_exact(models, tracer)
            replica_ok &= traced.exact_recheck(models, results)
        else:
            total, text = traced.traced_verify(inputs, tracer)
            replica_ok &= (hashlib.sha256(text.encode()).hexdigest()
                           == rep.info.get("stdout_sha256"))
            tracer.seconds["cli.verify"] += rep.wall_s
        repeats.append(rep)
        traced_s.append(total)
        layers.append(layer_values(tracer, names))
    metrics = {key: statistics.median(v[key] for v in layers)
               for key in layers[0]}
    metrics["trace.replica_ok"] = 1 if replica_ok else 0
    metrics["trace.overhead_s"] = (statistics.median(traced_s)
                                   - statistics.median(r.wall_s for r in repeats))
    return repeats, metrics, {"traced_total_s": traced_s}


def layer_values(tracer, names: list) -> dict:
    """Per-layer metrics of one traced repeat; a layer the workload does not
    use reads 0.  ``NAME.s`` is the time of span NAME, other names are
    counts, and the ``trace.*`` bookkeeping is added by the caller."""
    paths = tracer.counts["subordinator.first_passage.paths"]
    values = {}
    for name in names:
        if name in PER_PATH:
            values[name] = tracer.counts[PER_PATH[name]] / paths if paths else 0.0
        elif name.endswith(".s"):
            values[name] = tracer.seconds[name[:-2]]
        elif not name.startswith("trace."):
            values[name] = tracer.counts[name]
    return values


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "lfmo" / "__init__.py").is_file():
        print(f"error: no lfmo package under {SRC}; run from the root of a "
              "checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import lfmo

    if not Path(lfmo.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: lfmo was imported from {lfmo.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    seed = wl.seed if args.seed is None else args.seed
    WORK.mkdir(exist_ok=True)
    os.environ["TMPDIR"] = str(WORK)
    tempfile.tempdir = str(WORK)

    setup = setup_times(wl.name, seed) if args.trace == 0 else []
    inputs = workloads.build(wl.name, seed)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        if args.trace:
            declared = spec["per_layer"]
            repeats, values, extra = run_traced(
                wl, inputs, args.seconds, Path(tmp),
                [m["name"] for m in declared])
        else:
            repeats = run_untraced(wl, inputs, args.seconds, Path(tmp))
            values = {
                "setup_s": statistics.median(setup),
                "wall_s": statistics.median(r.wall_s for r in repeats),
                "ops_per_s": statistics.median(r.ops / r.wall_s for r in repeats),
                "peak_rss_mb": peak_rss_mb(),
            }
            extra = {"setup_s": setup}
            declared = spec["end_to_end"]
    names = [m["name"] for m in declared]
    if sorted(values) != sorted(names):
        raise RuntimeError(f"metrics {sorted(values)} differ from the "
                           f"declared {sorted(names)}")
    attempted = sum(r.attempted for r in repeats)
    failed = sum(r.failed for r in repeats)
    problems = [p for r in repeats for p in r.problems]
    detail = {
        "workload": wl.name, "why": wl.why, "seed": seed,
        "seconds": args.seconds, "trace": args.trace,
        "repeats": len(repeats),
        "wall_s": [r.wall_s for r in repeats],
        f"{wl.ops_name}_per_repeat": repeats[0].ops,
        f"{wl.ops_name}_per_s": [r.ops / r.wall_s for r in repeats],
        "fail_frac": failed / attempted,
        "outputs": repeats[0].info,
        "problems": problems[:20],
        "machine": machine(),
        **extra,
    }
    print(json.dumps({"detail": detail}))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
