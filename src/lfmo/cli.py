"""Command-line interface exposing the library for scripted use.

Exit codes: 0 on success, 1 on validation/usage errors, 2 when the
verification suite fails.  Each subcommand takes only the flags it
honours: ``--out`` everywhere, ``--seed`` on the two random ones
(``sample`` and ``verify``, deterministic for a fixed seed) and
``--format`` on the five that print a table.  Times are in subordinator
time-units throughout; dimensions are given either exactly (``--n``) or as
a decimal exponent (``--log10n``); the exact finite-n formulas accept only
``--n``.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import __version__
from .asymptotics import lemma_suite, limit_law_for
from .distribution import (
    ExactN,
    LfmoModel,
    LogScaleN,
    exact_tail_probability,
    mean_last_order_statistic,
    sample_upper_order_statistics,
    shock_rates,
)
from .errors import LfmoError
from .montecarlo import (
    ExperimentConfig,
    decomposition_check,
    gumbel_switch_error_bound,
    mo_equivalence_check,
    resolve_workers,
    run_experiment,
)
from .subordinator import CompoundPoisson, ParetoSteps, parse_subordinator


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 instead of argparse's 2
        raise _UsageError(message)


def _add_flags(parser: argparse.ArgumentParser, *, seed: bool = False,
               table: bool = False) -> None:
    # --out everywhere; --seed only where the command draws random numbers,
    # --format only where it prints a table
    if seed:
        parser.add_argument("--seed", type=int, default=0,
                            help="random seed (default 0); fixing it makes "
                                 "the run deterministic")
    parser.add_argument("--out", default=None,
                        help="output file (default: stdout)")
    if table:
        parser.add_argument("--format", choices=("csv", "json"),
                            default="csv", help="output format (default csv)")


def _add_model(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--model", required=True,
                        help="subordinator spec as JSON, e.g. "
                             '\'{"kind":"cpp","lambda":1.0,'
                             '"step":{"kind":"pareto","alpha":2.5}}\' or '
                             '\'{"kind":"drift","c":1.0}\'')


def _build_parser() -> _Parser:
    parser = _Parser(prog="lfmo",
                     description="Levy-frailty Marshall-Olkin toolkit")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "sample", help="sample upper order statistics",
        description="Sample the top order statistics of the lifetime "
                    "vector. Values are in subordinator time-units.")
    _add_model(p)
    dim = p.add_mutually_exclusive_group(required=True)
    dim.add_argument("--n", type=int, help="exact dimension")
    dim.add_argument("--log10n", type=float,
                     help="dimension as log10(n); sampling is exact at any n")
    p.add_argument("--top", type=int, default=1,
                   help="how many top order statistics per draw (default 1)")
    p.add_argument("--count", type=int, default=1,
                   help="number of draws (default 1)")
    _add_flags(p, seed=True, table=True)

    p = sub.add_parser(
        "tail", help="exact order-statistic tail probabilities",
        description="Exact P(T_{m:n} > t) on a time grid (subordinator "
                    "time-units). Requires an exact dimension (no --log10n).")
    _add_model(p)
    p.add_argument("--n", type=int, required=True, help="exact dimension")
    p.add_argument("--m", type=int, required=True,
                   help="order-statistic index, 1 (first failure) to n (last)")
    p.add_argument("--t-grid", required=True,
                   help="comma-separated times, e.g. 0.25,0.5,1,2")
    _add_flags(p, table=True)

    p = sub.add_parser(
        "mean-last", help="exact mean of the last failure time",
        description="Exact mean of the last failure (subordinator "
                    "time-units). Requires an exact dimension (no --log10n).")
    _add_model(p)
    p.add_argument("--n", type=int, required=True, help="exact dimension")
    _add_flags(p, table=True)

    p = sub.add_parser("shock-rates",
                       help="equivalent exponential-shock rates by subset size")
    _add_model(p)
    p.add_argument("--n", type=int, required=True, help="exact dimension")
    _add_flags(p, table=True)

    p = sub.add_parser("limit", help="limit law and normalization constants")
    _add_model(p)
    p.add_argument("--part2-exponent", type=float, default=None,
                   help="override the (log n)-power of the heavy-tail scaling")
    _add_flags(p)

    p = sub.add_parser("experiment", help="run a convergence study from JSON")
    p.add_argument("--config", required=True, help="config file path")
    p.add_argument("--workers", type=int, default=None,
                   help="worker processes (capped by LFMO_THREADS)")
    _add_flags(p)

    p = sub.add_parser("verify",
                       help="run the lemma, decomposition, and shock-model "
                            "equivalence checks; exit 2 on failure")
    _add_flags(p, seed=True)

    p = sub.add_parser("gumbel-bound",
                       help="sup-CDF error of the Gumbel approximation at n")
    p.add_argument("--n", type=int, required=True)
    _add_flags(p, table=True)

    return parser


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _write_table(args, payload: dict, header: str, rows) -> None:
    """Write ``payload`` as JSON under ``--format json``, else the CSV
    ``header`` and ``rows``, ints printed with ``str`` and floats with
    ``'.17g'``, which round-trips every float64."""
    if args.format == "json":
        _emit(json.dumps(payload, indent=2) + "\n", args.out)
        return
    lines = [header] + [
        ",".join(str(v) if isinstance(v, int) else format(v, ".17g")
                 for v in row)
        for row in rows]
    _emit("\n".join(lines) + "\n", args.out)


def _model_from_args(args):
    return parse_subordinator(json.loads(args.model))


def _cmd_sample(args) -> int:
    model = _model_from_args(args)
    dimension = (ExactN(args.n) if args.n is not None
                 else LogScaleN(args.log10n))
    lfmo_model = LfmoModel(dimension, model)
    rng = np.random.default_rng(args.seed)
    draws = sample_upper_order_statistics(lfmo_model, args.top, rng,
                                          count=args.count).tolist()
    payload = {
        "model": json.loads(args.model),
        "dimension": ({"n": args.n} if args.n is not None
                      else {"log10_n": args.log10n}),
        "top": args.top,
        "count": args.count,
        "seed": args.seed,
        "samples": draws,
    }
    _write_table(args, payload, "sample_index,offset_from_top,value",
                 ((i, j, v) for i, row in enumerate(draws)
                  for j, v in enumerate(row)))
    return 0


def _cmd_tail(args) -> int:
    model = _model_from_args(args)
    t_values = [float(v) for v in args.t_grid.split(",") if v.strip() != ""]
    if not t_values:
        raise ValueError(f"--t-grid holds no times: {args.t_grid!r}")
    rows = [(t, exact_tail_probability(args.n, args.m, t, model.psi))
            for t in t_values]
    payload = {"n": args.n, "m": args.m,
               "values": [{"t": t, "probability": p} for t, p in rows]}
    _write_table(args, payload, "t,probability", rows)
    return 0


def _cmd_mean_last(args) -> int:
    value = mean_last_order_statistic(args.n, _model_from_args(args).psi)
    _write_table(args, {"n": args.n, "mean": value}, "n,mean",
                 [(args.n, value)])
    return 0


def _cmd_shock_rates(args) -> int:
    rates = shock_rates(args.n, _model_from_args(args).psi).tolist()
    _write_table(args, {"n": args.n, "rates": rates}, "subset_size,rate",
                 enumerate(rates, start=1))
    return 0


def _cmd_limit(args) -> int:
    law = limit_law_for(_model_from_args(args), args.part2_exponent)
    _emit(json.dumps(law.to_json(), indent=2) + "\n", args.out)
    return 0


def _cmd_experiment(args) -> int:
    workers = resolve_workers(args.workers)  # refused before any file is read
    with open(args.config) as fh:
        config = ExperimentConfig.from_dict(json.load(fh))
    result = run_experiment(config, workers=workers)
    _emit(result.summary_csv_text(), args.out)
    return 0


def _cmd_verify(args) -> int:
    rng = np.random.default_rng(args.seed)
    lines = []
    ok = True

    report = lemma_suite()
    for check in report.checks:
        status = "PASS" if check.passed else "FAIL"
        values = ", ".join(format(v, ".3e") for v in check.values)
        lines.append(f"{status} lemma:{check.name} [{values}]")
    ok &= report.passed

    model = CompoundPoisson(lam=1.0, step=ParetoSteps(alpha=4.0))
    for t in (-0.5, 0.0, 0.5):
        res = decomposition_check(model, 10 ** 4, t, rng,
                                  path_count=4000, direct_count=40_000)
        status = "PASS" if res.passed else "FAIL"
        lines.append(
            f"{status} decomposition t={t:+.1f} kernel={res.kernel_estimate:.5f} "
            f"direct={res.direct_estimate:.5f} z={res.z_score:+.2f}"
        )
        ok &= res.passed

    mo_model = CompoundPoisson(lam=1.0, step=ParetoSteps(alpha=2.5))
    mo = mo_equivalence_check(mo_model, rng, count=10 ** 5)
    status = "PASS" if mo.passed else "FAIL"
    lines.append(f"{status} shock-model-equivalence max|z|={mo.max_abs_z:.2f}")
    ok &= mo.passed

    lines.append("VERIFY " + ("PASS" if ok else "FAIL"))
    _emit("\n".join(lines) + "\n", args.out)
    return 0 if ok else 2


def _cmd_gumbel_bound(args) -> int:
    bound = gumbel_switch_error_bound(args.n)
    _write_table(args, {"n": args.n, "bound": bound}, "n,bound",
                 [(args.n, bound)])
    return 0


_HANDLERS = {
    "sample": _cmd_sample,
    "tail": _cmd_tail,
    "mean-last": _cmd_mean_last,
    "shock-rates": _cmd_shock_rates,
    "limit": _cmd_limit,
    "experiment": _cmd_experiment,
    "verify": _cmd_verify,
    "gumbel-bound": _cmd_gumbel_bound,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _HANDLERS[args.command](args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (LfmoError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error ({type(exc).__name__}): {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
