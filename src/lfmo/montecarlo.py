"""Reproducible Monte Carlo harness and convergence diagnostics.

Experiments are described by a JSON-serializable config and run in two
phases through one mapper (builtin ``map`` at one worker, a process pool
otherwise).  Phase 1 samples each cell (scheduled dimension) in fixed
batches whose random substreams are derived from the master seed and the
(schedule index, batch index) pair.  Phase 2 finishes each cell in one
task: it normalizes the samples by the model's limit law (the Gumbel law
of a drift included), builds their ECDF and compares it with that law by
exact sup-distance, either one-sample against an analytic CDF or
two-sample against a large seeded reference population that the task
draws on the cell's own substreams; a KS p-value is computed only when
read.  The mapper returns results in task order, so the outputs are
bit-identical across runs and across worker counts.

CSV values are written with 17 significant digits, the bytes of
``'%.17g'``, which round-trips every float64.  The samples CSV is
formatted one cell at a time, inside the cell's phase-2 task, and its
bytes are written cell by cell as the ordered results arrive.  No Python
loop runs per row: a numpy kernel (:func:`_cell_rows`) formats fixed
blocks of rows ``log10_n,%d,%.17g,%.17g``.  Every finite value with
1e-4 <= |x| < 1e17, which ``'%.17g'`` writes in fixed point, gets its
17-digit significand exactly from Dekker's error-free product with an
exact power of ten, rounded half to even as a correctly rounded
conversion does; every other value (zeros, subnormals, inf, nan and the
exponent notation outside that range) goes through one ``%`` over that
subset.
"""

from __future__ import annotations

import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy.special import kolmogi, kolmogorov

from .asymptotics import (
    LimitLaw,
    _require_part1,
    f_n,
    limit_law_for,
    normalize,
    sample_limit,
    u_n,
    zoom_out_statistic,
)
from .distribution import (
    ExactN,
    LfmoModel,
    LogScaleN,
    sample_exchangeable_mo,
    sample_upper_order_statistics,
    sample_vector,
    shock_rates,
)
from .errors import _require_int, _require_positive
from .subordinator import (
    CompoundPoisson,
    ParetoSteps,
    SubordinatorModel,
    _field,
    _integer,
    _json_object,
    _number,
    _numbers,
    _string,
    parse_subordinator,
    sample_increments,
)

_LN10 = math.log(10.0)
_REFERENCE_STREAM_BASE = 1_000_000
_SAMPLES_HEADER = "log10_n,sample_index,raw_value,normalized_value\n"

ONE_SAMPLE_ANALYTIC = "one_sample_analytic"
TWO_SAMPLE = "two_sample"


@dataclass(frozen=True)
class Ecdf:
    """Empirical CDF: sorted sample values plus their count."""

    values: np.ndarray
    count: int

    @classmethod
    def from_samples(cls, samples) -> "Ecdf":
        values = np.sort(np.asarray(samples, dtype=float))
        if values.ndim != 1 or values.size == 0:
            raise ValueError("samples must be a nonempty one-dimensional array")
        return cls(values=values, count=values.size)

    def evaluate(self, x):
        """Right-continuous step function F(x) = #{values <= x} / count."""
        return np.searchsorted(self.values, x, side="right") / self.count


@dataclass(frozen=True)
class KsResult:
    """Sup-distance diagnostic between a sample and a comparison law.

    ``p_value`` is computed from ``kind``, ``statistic`` and
    ``n_effective`` each time it is read; it is never stored or written to
    a CSV, so a study that only records the statistic does not pay for it.
    """

    statistic: float
    n_effective: float
    kind: str
    location: float
    side: str

    @property
    def p_value(self) -> float:
        """Exact one-sample p-value (Kolmogorov distribution at n), or the
        asymptotic two-sample one at the effective size."""
        if self.kind == ONE_SAMPLE_ANALYTIC:
            # imported here: scipy.stats alone takes about 1 s to import
            from scipy.stats import kstwo

            return float(kstwo.sf(max(self.statistic, 0.0),
                                  int(self.n_effective)))
        return float(kolmogorov(math.sqrt(self.n_effective) * self.statistic))


def ks_one_sample(ecdf: Ecdf, cdf) -> KsResult:
    """Exact sup-distance between an ECDF and an analytic CDF."""
    if ecdf.count < 2:
        raise ValueError("need at least 2 samples")
    x = ecdf.values
    n = ecdf.count
    f = np.asarray(cdf(x), dtype=float)
    upper = np.arange(1, n + 1) / n - f
    lower = f - np.arange(0, n) / n
    i_up = int(np.argmax(upper))
    i_lo = int(np.argmax(lower))
    if upper[i_up] >= lower[i_lo]:
        stat, loc, f_loc = float(upper[i_up]), float(x[i_up]), f[i_up]
    else:
        stat, loc, f_loc = float(lower[i_lo]), float(x[i_lo]), f[i_lo]
    side = "left" if f_loc < 0.5 else "right"
    return KsResult(statistic=stat, n_effective=float(n), kind=ONE_SAMPLE_ANALYTIC,
                    location=loc, side=side)


def ks_two_sample(a: Ecdf, b: Ecdf) -> KsResult:
    """Exact sup-distance between two ECDFs by merge scan."""
    if a.count < 2 or b.count < 2:
        raise ValueError("need at least 2 samples on each side")
    pooled = np.concatenate([a.values, b.values])
    pooled.sort()
    fa = np.searchsorted(a.values, pooled, side="right") / a.count
    fb = np.searchsorted(b.values, pooled, side="right") / b.count
    diff = fa - fb
    i = int(np.argmax(np.abs(diff)))
    stat = float(abs(diff[i]))
    loc = float(pooled[i])
    pooled_f = (i + 1) / pooled.size
    side = "left" if pooled_f < 0.5 else "right"
    n_eff = a.count * b.count / (a.count + b.count)
    return KsResult(statistic=stat, n_effective=n_eff, kind=TWO_SAMPLE,
                    location=loc, side=side)


def ks_critical_value(n_effective: float, level: float = 0.01) -> float:
    """Sup-distance above which the KS test rejects at a level in (0, 1)."""
    _require_positive("n_effective", n_effective)
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must lie in (0, 1), got {level}")
    return float(kolmogi(level)) / math.sqrt(n_effective)


@dataclass(frozen=True)
class ExperimentConfig:
    """Description of one convergence study.

    ``m_offset`` selects the order statistic T_{n-j:n} counted from the
    top (0 = last failure).  ``part2_scaling_exponent`` overrides the
    (log n)-power used in the non-concentrating regime (default: the tail
    index alpha); a run refuses it for a model in any other regime.
    ``batch_size`` fixes the random-substream granularity
    and therefore must not change if runs are to be comparable.
    """

    subordinator: SubordinatorModel
    log10_n: tuple[float, ...]
    samples_per_n: int
    seed: int
    m_offset: int = 0
    part2_scaling_exponent: float | None = None
    reference_factor: int = 10
    batch_size: int = 10_000
    samples_csv: str | None = None
    summary_csv: str | None = None
    svg_path: str | None = None

    def __post_init__(self) -> None:
        for name, least in (("samples_per_n", 100), ("seed", 0),
                            ("m_offset", 0), ("batch_size", 1),
                            ("reference_factor", 1)):
            _require_int(name, getattr(self, name), least)
        if len(self.log10_n) == 0:
            raise ValueError("schedule must be nonempty")
        for value in self.log10_n:
            _require_positive("log10_n", value)
        if any(b <= a for a, b in zip(self.log10_n, self.log10_n[1:])):
            raise ValueError("log10_n schedule must be strictly increasing")
        if self.part2_scaling_exponent is not None:
            _require_positive("part2 scaling exponent",
                              self.part2_scaling_exponent)

    @classmethod
    def from_dict(cls, spec: dict) -> "ExperimentConfig":
        """Build a config from its JSON form; malformed input raises a
        ValueError naming the bad field."""
        spec = _json_object(spec, "config", (
            "subordinator", "log10_n", "m_rule", "samples_per_n", "seed",
            "part2_scaling_exponent", "reference_factor", "batch_size",
            "output"))
        m_rule = _json_object(spec.get("m_rule", {"kind": "last"}), "m_rule")
        if m_rule.get("kind") == "last":
            _json_object(m_rule, "last m_rule", ("kind",))
            m_offset = 0
        elif m_rule.get("kind") == "offset":
            _json_object(m_rule, "offset m_rule", ("kind", "j"))
            m_offset = _field(m_rule, "j", "m_rule", _integer)
        else:
            raise ValueError(f"unknown m_rule {m_rule!r}")
        output = _json_object(spec.get("output", {}), "output",
                              ("samples_csv", "summary_csv", "svg"))
        return cls(
            subordinator=parse_subordinator(
                _field(spec, "subordinator", "config")),
            log10_n=_field(spec, "log10_n", "config", _numbers),
            samples_per_n=_field(spec, "samples_per_n", "config", _integer),
            seed=_field(spec, "seed", "config", _integer),
            m_offset=m_offset,
            part2_scaling_exponent=_field(
                spec, "part2_scaling_exponent", "config",
                lambda v: None if v is None else _number(v), None),
            reference_factor=_field(spec, "reference_factor", "config",
                                    _integer, 10),
            batch_size=_field(spec, "batch_size", "config", _integer, 10_000),
            samples_csv=_field(output, "samples_csv", "output", _string, None),
            summary_csv=_field(output, "summary_csv", "output", _string, None),
            svg_path=_field(output, "svg", "output", _string, None),
        )

    def to_dict(self) -> dict:
        m_rule = ({"kind": "last"} if self.m_offset == 0
                  else {"kind": "offset", "j": self.m_offset})
        spec = {
            "subordinator": self.subordinator.to_json(),
            "log10_n": list(self.log10_n),
            "m_rule": m_rule,
            "samples_per_n": self.samples_per_n,
            "seed": self.seed,
            "part2_scaling_exponent": self.part2_scaling_exponent,
            "reference_factor": self.reference_factor,
            "batch_size": self.batch_size,
        }
        output = {key: path for key, path in (
            ("samples_csv", self.samples_csv),
            ("summary_csv", self.summary_csv), ("svg", self.svg_path)) if path}
        if output:
            spec["output"] = output
        return spec


def dimension_for(log10_n: float) -> LogScaleN:
    """The dimension n = 10^log10_n of a study cell, which need not be an
    integer, so that a cell samples the n it normalizes for."""
    return LogScaleN(log10_n)


def _batch_sizes(total: int, batch: int) -> list[int]:
    sizes = [batch] * (total // batch)
    if total % batch:
        sizes.append(total % batch)
    return sizes


def _substream(seed: int, i_n: int, i_batch: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence(seed, spawn_key=(i_n, i_batch)))


def _sample_cell_batch(config: ExperimentConfig, i_n: int, i_batch: int,
                       size: int) -> np.ndarray:
    """Phase 1: one batch of the chosen order statistic of cell ``i_n``."""
    k_top = config.m_offset + 1
    model = LfmoModel(dimension_for(config.log10_n[i_n]), config.subordinator)
    draws = sample_upper_order_statistics(
        model, k_top, _substream(config.seed, i_n, i_batch), count=size)
    return draws[:, k_top - 1]


@dataclass(frozen=True)
class CellResult:
    """Per-dimension outcome of an experiment."""

    log10_n: float
    raw: np.ndarray
    normalized: np.ndarray
    ecdf: Ecdf
    ks: KsResult
    limit_kind: str
    sigma: float | None
    alpha: float | None


@dataclass(frozen=True)
class ExperimentResult:
    config: ExperimentConfig
    cells: tuple[CellResult, ...]

    def samples_csv_text(self) -> str:
        return _SAMPLES_HEADER + b"".join(
            _cell_rows(cell.log10_n, cell.raw, cell.normalized)
            for cell in self.cells).decode()

    def summary_csv_text(self) -> str:
        lines = ["log10_n,ks_statistic,ks_side,n_samples,limit_kind,sigma,alpha"]
        for cell in self.cells:
            sigma = "" if cell.sigma is None else format(cell.sigma, ".17g")
            alpha = "" if cell.alpha is None else format(cell.alpha, ".17g")
            lines.append(
                f"{format(cell.log10_n, '.17g')},"
                f"{format(cell.ks.statistic, '.17g')},"
                f"{cell.ks.side},{cell.ecdf.count},{cell.limit_kind},"
                f"{sigma},{alpha}"
            )
        return "\n".join(lines) + "\n"

    def ks_statistics(self) -> list[float]:
        return [cell.ks.statistic for cell in self.cells]


def resolve_workers(requested: int | None = None) -> int:
    """Worker count: explicit request, capped by LFMO_THREADS, else machine.

    A request that is not an int >= 1, or an LFMO_THREADS that is set but
    is not a positive integer, raises ``ValueError``.
    """
    env = os.environ.get("LFMO_THREADS")
    if env and not (env.strip().isdecimal() and int(env) >= 1):
        raise ValueError(
            f"LFMO_THREADS must be a positive integer, got {env!r}")
    cap = int(env) if env else (os.cpu_count() or 1)
    if requested is None:
        return cap
    return min(_require_int("the worker count", requested, 1), cap)


# The samples CSV kernel.  A finite x with 1e-4 <= |x| < 1e17 has a
# decimal exponent E in [-4, 16], where '%.17g' writes it in fixed point
# from its 17-digit significand D = round-half-even(|x| * 10**(16 - E)).
# 10**(16 - E) is an exact double, and Dekker's product splits the
# product exactly into p + e (Veltkamp's split, no FMA needed); p lies
# in [1e16, 1e17], above 2**53, so p is an even integer and
# p + rint(e) is D with the tie rounded to even.  D never rounds up to
# 1e17, so E needs no carry: for each E, the largest double below
# 10**(E + 1) gives a product at least 8.3 below 1e17 (the closest is
# 0.09999999999999999 * 1e17).
_BLOCK_ROWS = 8192  # rows formatted per block; bounds the kernel's memory
_FIELD = 24  # widest '%.17g': '-1.0000000000000001e+300'
_SPLITTER = 134217729.0  # 2**27 + 1


def _veltkamp(a):
    """(hi, lo) with a = hi + lo exactly and hi, lo of 26 bits each."""
    c = _SPLITTER * a
    hi = c - (c - a)
    return hi, a - hi


def _two_product(a, b):
    """(p, e) with p = fl(a * b) and a * b = p + e exactly (Dekker)."""
    p = a * b
    (a_hi, a_lo), (b_hi, b_lo) = _veltkamp(a), _veltkamp(b)
    return p, ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


_POW10 = np.array([float(10 ** k) for k in range(21)])  # exact doubles


def _least_double_at_least(num: int, den: int) -> float:
    value = num / den  # correctly rounded; the comparison below is exact
    p, q = value.as_integer_ratio()
    return math.nextafter(value, math.inf) if p * den < num * q else value


# entry E + 4 is the least double >= 10**E, for E = -4..17: a double a
# has exponent E exactly when it lies in [entry E + 4, entry E + 5)
_DECADES = np.array([_least_double_at_least(10 ** max(e, 0), 10 ** max(-e, 0))
                     for e in range(-4, 18)])
_NINE_DIGITS = (10 ** np.arange(8, -1, -1, dtype=np.int32))[:, None]
_DIGIT_POS = np.arange(17, dtype=np.uint8)[:, None]
_BODY_COLS = np.arange(22, dtype=np.uint8)[:, None]


def _format_field(x: np.ndarray, out: np.ndarray) -> None:
    """Write ``'%.17g' % v`` for each v of ``x`` into the NUL-padded
    column of ``out`` (``_FIELD`` rows by ``x.size`` columns, uint8).

    The fast range is formatted by array arithmetic: E is read from the
    ``_DECADES`` table, so the exact product |x| * 10**(16 - E) lies in
    [1e16, 1e17), and D is that product rounded half to even.  The 21
    digits ``0000`` + D are laid out with the decimal point after digit
    4 + E, and everything before the first character '%.17g' writes ('0'
    before the point when E < 0) or after its last one (trailing
    fraction zeros, and a point with no fraction behind it) becomes NUL.
    Every other value (zeros, subnormals, inf, nan, |x| < 1e-4,
    |x| >= 1e17) is formatted by one ``%`` over that subset alone.
    """
    a = np.abs(x)
    # zeros and subnormals land at -5; inf and nan, which sorts last, at 17
    e10 = np.searchsorted(_DECADES, a, side="right") - 5
    slow = np.flatnonzero((e10 < -4) | (e10 > 16))
    a[slow], e10[slow] = 1.0, 0  # stand-ins; formatted by '%' below
    p, e = _two_product(a, _POW10[16 - e10])
    d = p.astype(np.int64) + np.rint(e).astype(np.int64)
    # the 18 digits of D = hi * 10**9 + lo (hi < 10**8), nine per half in
    # int32: digit j is q_j - 10 * q_(j-1) with q_j = half // 10**(8 - j)
    hi = d // 10 ** 9
    halves = np.stack([hi, d - hi * 10 ** 9]).astype(np.int32)
    q = halves[:, None] // _NINE_DIGITS
    q[:, 1:] -= 10 * q[:, :-1]
    z = np.full((23, x.size), ord("0"), dtype=np.uint8)  # pad + 0000 + D
    np.add(q.reshape(18, x.size), ord("0"), out=z[4:22], casting="unsafe")
    point = (4 + e10).astype(np.uint8)
    first = np.minimum(point, 4)
    last_digit = 4 + ((z[5:22] != ord("0")) * _DIGIT_POS).max(axis=0)
    last = np.where(last_digit > point, last_digit + 1, point)
    body = out[1:23]
    # digits behind the point sit one column right of those before it
    np.copyto(body, z[:22])
    end = point.max() + 1
    np.copyto(body[:end], z[1:end + 1], where=_BODY_COLS[:end] <= point)
    body[point + 1, np.arange(x.size)] = ord(".")
    body *= (_BODY_COLS >= first) & (_BODY_COLS <= last)
    out[0] = np.where(x < 0, ord("-"), 0)
    out[23] = 0
    if slow.size:
        text = ("%24.17g" * slow.size) % tuple(x[slow].tolist())
        out[:, slow] = np.frombuffer(
            text.encode().replace(b" ", b"\0"),
            dtype=np.uint8).reshape(-1, _FIELD).T


def _cell_rows(log10_n: float, raw: np.ndarray,
               normalized: np.ndarray) -> bytes:
    """The samples CSV rows of one cell, ``log10_n,%d,%.17g,%.17g``.

    Rows are built ``_BLOCK_ROWS`` at a time in a column-per-row uint8
    grid: the constant prefix and separators, the right-aligned index
    digits and the two :func:`_format_field` columns, NUL-padded.  One
    transposing copy lays the rows out and one ``bytes.translate``
    drops the padding.
    """
    n = raw.size
    prefix = np.frombuffer((format(log10_n, ".17g") + ",").encode(),
                           dtype=np.uint8)
    index_width = len(str(max(n - 1, 0)))
    powers = (10 ** np.arange(index_width - 1, -1, -1))[:, None]
    raw_at = prefix.size + index_width + 1
    normalized_at = raw_at + _FIELD + 1
    grid = np.zeros((normalized_at + _FIELD + 1, min(n, _BLOCK_ROWS)),
                    dtype=np.uint8)
    grid[:prefix.size] = prefix[:, None]
    grid[[raw_at - 1, normalized_at - 1]] = ord(",")
    grid[-1] = ord("\n")
    blocks = []
    for start in range(0, n, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, n)
        block = grid[:, :stop - start]
        index = np.arange(start, stop)
        q = index // powers
        q[1:] -= 10 * q[:-1]
        index_digits = block[prefix.size:raw_at - 1]
        np.add(q, ord("0"), out=index_digits, casting="unsafe")
        index_digits[:-1] *= index >= powers[:-1]  # no leading zeros
        _format_field(raw[start:stop], block[raw_at:raw_at + _FIELD])
        _format_field(normalized[start:stop],
                      block[normalized_at:normalized_at + _FIELD])
        blocks.append(block.T.tobytes().translate(None, b"\0"))
    return b"".join(blocks)


def _finish_cell(config: ExperimentConfig, law: LimitLaw, i_n: int,
                 raw: np.ndarray) -> tuple[CellResult, bytes | None]:
    """Phase 2: normalize cell ``i_n`` by ``law`` and measure its KS distance.

    A law whose ``cdf`` is None (the two stable laws) is compared with a
    reference population drawn here, on the cell's reference substreams.
    The cell's samples CSV rows are formatted only when the config names
    a samples file.
    """
    log10_n = config.log10_n[i_n]
    normalized = normalize(raw, _LN10 * log10_n, law)
    ecdf = Ecdf.from_samples(normalized)
    if law.cdf is not None:
        ks = ks_one_sample(ecdf, law.cdf)
    else:
        sizes = _batch_sizes(config.reference_factor * config.samples_per_n,
                             config.batch_size)
        reference = np.concatenate([
            sample_limit(law, _substream(config.seed, i_n,
                                         _REFERENCE_STREAM_BASE + i_b),
                         count=size)
            for i_b, size in enumerate(sizes)])
        ks = ks_two_sample(ecdf, Ecdf.from_samples(reference))
    rows = (_cell_rows(log10_n, raw, normalized) if config.samples_csv
            else None)
    return CellResult(log10_n, raw, normalized, ecdf, ks, law.kind.value,
                      law.sigma, law.alpha), rows


def run_experiment(config: ExperimentConfig,
                   workers: int | None = 1) -> ExperimentResult:
    """Run the convergence study described by ``config``.

    Two phases run through one mapper: builtin ``map`` at one worker, a
    process pool otherwise.  Phase 1 samples the chosen order statistic
    in fixed batches, one task per (cell, batch) substream.  Phase 2 is
    one task per cell (:func:`_finish_cell`): it normalizes the samples by
    the transform of :func:`limit_law_for` (the Gumbel law for a drift),
    builds the ECDF, computes the sup-distance to the limit law (against the
    analytic CDF where there is one, else against a seeded reference
    population ``reference_factor`` times larger, drawn in that task) and
    formats the cell's samples CSV rows.  The samples CSV is written cell
    by cell as the ordered results arrive; the summary CSV and the SVG
    are written at the end.  The result is independent of the worker
    count.
    """
    workers = resolve_workers(workers)
    law = limit_law_for(config.subordinator, config.part2_scaling_exponent)
    n_cells = len(config.log10_n)
    batches = _batch_sizes(config.samples_per_n, config.batch_size)
    keys = [(i_n, i_b, size)
            for i_n in range(n_cells) for i_b, size in enumerate(batches)]
    cells = []
    with (ProcessPoolExecutor(max_workers=workers) if workers > 1
          else nullcontext()) as pool:
        mapper = pool.map if pool else map
        # the mapper returns results in task order whatever the workers
        parts = list(mapper(partial(_sample_cell_batch, config), *zip(*keys)))
        raws = [np.concatenate(parts[i:i + len(batches)])
                for i in range(0, len(parts), len(batches))]
        del parts  # the batches live on in raws; free them before phase 2
        finished = mapper(partial(_finish_cell, config, law), range(n_cells),
                          raws)
        with (open(config.samples_csv, "wb") if config.samples_csv
              else nullcontext()) as samples:
            if samples:
                samples.write(_SAMPLES_HEADER.encode())
            for cell, rows in finished:
                cells.append(cell)
                if samples:
                    samples.write(rows)
                del rows  # free this cell's bytes before the next arrives

    result = ExperimentResult(config=config, cells=tuple(cells))
    for path, render in ((config.summary_csv, result.summary_csv_text),
                         (config.svg_path, lambda: render_ecdf_svg(result))):
        if path:
            with open(path, "w") as fh:
                fh.write(render())
    return result


def convergence_study_config(step_alpha: float, samples_per_n: int = 10 ** 5,
                             seed: int = 20_240_501) -> ExperimentConfig:
    """Canned study: CPP(rate 1) with Pareto steps over huge dimensions."""
    return ExperimentConfig(
        subordinator=CompoundPoisson(lam=1.0, step=ParetoSteps(alpha=step_alpha)),
        log10_n=(10.0, 40.0, 90.0, 160.0),
        samples_per_n=samples_per_n,
        seed=seed,
    )


def render_ecdf_svg(result: ExperimentResult) -> str:
    """Minimal deterministic SVG: per-n ECDF step curves plus the limit CDF,
    720 x 460 pixels, each curve evaluated at 512 points."""
    width, height, curve_points = 720, 460, 512
    cells = result.cells
    lo = min(float(np.quantile(c.normalized, 0.002)) for c in cells)
    hi = max(float(np.quantile(c.normalized, 0.998)) for c in cells)
    if hi <= lo:
        hi = lo + 1.0
    pad_l, pad_r, pad_t, pad_b = 50, 20, 24, 36
    plot_w = width - pad_l - pad_r
    plot_h = height - pad_t - pad_b

    def sx(x: float) -> float:
        return pad_l + (x - lo) / (hi - lo) * plot_w

    def sy(p: float) -> float:
        return pad_t + (1.0 - p) * plot_h

    palette = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
               "#8c564b", "#17becf"]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        '<rect width="100%" height="100%" fill="white"/>',
        f'<rect x="{pad_l}" y="{pad_t}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="#888" stroke-width="1"/>',
    ]
    xs_grid = np.linspace(lo, hi, curve_points)
    for idx, cell in enumerate(cells):
        color = palette[idx % len(palette)]
        ys = cell.ecdf.evaluate(xs_grid)
        pts = " ".join(
            f"{sx(x):.2f},{sy(p):.2f}" for x, p in zip(xs_grid, ys)
        )
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" '
            'stroke-width="1.2"/>'
        )
        parts.append(
            f'<text x="{pad_l + 8}" y="{pad_t + 16 + 14 * idx}" '
            f'font-size="11" fill="{color}">log10 n = '
            f'{format(cell.log10_n, "g")} (KS {cell.ks.statistic:.4f})</text>'
        )
    law = limit_law_for(result.config.subordinator,
                        result.config.part2_scaling_exponent)
    if law.cdf is not None:
        limit_curve = law.cdf(xs_grid)
    else:
        rng = np.random.default_rng(np.random.SeedSequence(
            result.config.seed, spawn_key=(2 ** 30,)))
        ref = Ecdf.from_samples(sample_limit(law, rng, count=200_000))
        limit_curve = ref.evaluate(xs_grid)
    pts = " ".join(
        f"{sx(x):.2f},{sy(p):.2f}" for x, p in zip(xs_grid, limit_curve)
    )
    parts.append(
        f'<polyline points="{pts}" fill="none" stroke="#000" '
        'stroke-width="1.6" stroke-dasharray="5,3"/>'
    )
    parts.append(
        f'<text x="{pad_l + 8}" y="{pad_t + 16 + 14 * len(cells)}" '
        'font-size="11" fill="#000">limit</text>'
    )
    for frac in (0.0, 0.5, 1.0):
        parts.append(
            f'<text x="{pad_l - 34}" y="{sy(frac) + 4:.2f}" font-size="10" '
            f'fill="#444">{frac:g}</text>'
        )
    for x in np.linspace(lo, hi, 5):
        parts.append(
            f'<text x="{sx(x) - 10:.2f}" y="{height - 12}" font-size="10" '
            f'fill="#444">{x:.2g}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _log1p_tail(x: float) -> float:
    """S(x) = sum_{k>=2} x^(k-1)/k = -log1p(-x)/x - 1 on [0, 1), summed
    from its series, which does not cancel at small x."""
    total, power, k = 0.0, x, 2
    while (term := power / k) > 1e-17 * total:
        total += term
        power *= x
        k += 1
    return total


def gumbel_switch_error_bound(n: int) -> float:
    """Exact sup-CDF distance between max-of-n-Exp(1) and log(n) + Gumbel.

    With q = e^{-y}, the exact CDF is (1 - q/n)^n = e^{-q (1 + S(q/n))}
    (S from :func:`_log1p_tail`) and the Gumbel CDF is e^{-q}, so the
    distance is the maximum over q of e^{-q} (1 - e^{-q S(q/n)}).  It is
    attained at the root of (n - 1) S(q/n) = 1, found by bisection on
    (0, min(4, n)); beyond the support cut (q > n) the distance e^{-q} is
    smaller.  Accurate to about 1e-16 relative at every n in the float
    range, where it is close to 2 e^{-2} / n.  The samplers invert the
    exact law at every n and do not use it.
    """
    if not 2 <= n <= sys.float_info.max:
        raise ValueError(f"n must lie in [2, {sys.float_info.max:.6g}], the "
                         f"float range, got {n}")
    n_f = float(n)
    lo, hi = 0.0, min(4.0, n_f)
    while lo < (q := 0.5 * (lo + hi)) < hi:
        if (n_f - 1.0) * _log1p_tail(q / n_f) < 1.0:
            lo = q
        else:
            hi = q
    return math.exp(-q) * -math.expm1(-q * _log1p_tail(q / n_f))


@dataclass(frozen=True)
class DecompositionResult:
    """Two independent estimates of P(T_{n:n} > u_n) and their agreement."""

    t: float
    horizon: float
    kernel_estimate: float
    kernel_se: float
    direct_estimate: float
    direct_se: float

    @property
    def z_score(self) -> float:
        se = math.hypot(self.kernel_se, self.direct_se)
        if se == 0.0:
            return 0.0 if self.kernel_estimate == self.direct_estimate else math.inf
        return (self.kernel_estimate - self.direct_estimate) / se

    @property
    def passed(self) -> bool:
        return abs(self.z_score) <= 3.0


def decomposition_check(model: SubordinatorModel, n: int, t: float,
                        rng: np.random.Generator,
                        path_count: int = 10 ** 4,
                        direct_count: int = 10 ** 5) -> DecompositionResult:
    """Check the conditional-binomial decomposition of the last-failure tail.

    Conditional on the path, P(T_{n:n} > u_n | S) equals
    1 - f_n(sigma * Sigma_n + t) exactly; averaging the kernel over sampled
    paths must agree with the direct Monte Carlo estimate of
    P(T_{n:n} > u_n) up to noise.  ``n`` must be an int >= 2.
    """
    n = _require_int("n", n, 2)
    path_count = _require_int("path_count", path_count, 2)
    direct_count = _require_int("direct_count", direct_count, 1)
    law = limit_law_for(model)
    _require_part1(law, "the decomposition check")
    ln_n = math.log(n)
    horizon = u_n(t, ln_n, law.mean_s1, law.alpha)
    s_u = sample_increments(model, horizon, rng, path_count)
    sigma_n = zoom_out_statistic(s_u, horizon, t, law, ln_n)
    kernel = 1.0 - np.asarray(f_n(law.sigma * sigma_n + t, n, n, law.alpha))
    kernel_est = float(np.mean(kernel))
    kernel_se = float(np.std(kernel, ddof=1) / math.sqrt(path_count))
    lf_model = LfmoModel(ExactN(n), model)
    times = sample_upper_order_statistics(lf_model, 1, rng, count=direct_count)
    indicator = times[:, 0] > horizon
    direct_est = float(np.mean(indicator))
    direct_se = math.sqrt(max(direct_est * (1.0 - direct_est), 1e-12) / direct_count)
    return DecompositionResult(t=t, horizon=horizon,
                               kernel_estimate=kernel_est, kernel_se=kernel_se,
                               direct_estimate=direct_est, direct_se=direct_se)


@dataclass(frozen=True)
class MoEquivalenceResult:
    """Joint-survival agreement between the shock model and the path model."""

    grid: tuple[float, ...]
    max_abs_z: float
    worst_cell: tuple[float, float, float]

    @property
    def passed(self) -> bool:
        return self.max_abs_z <= 3.0


def _survivor_counts(samples: np.ndarray, grid,
                     points: np.ndarray) -> np.ndarray:
    """#{rows x of ``samples`` with x > point in every coordinate}, for each
    row of ``points`` (whose values are taken from ``grid``).

    Each value is ranked by r = #{grid values < x} (NaN ranks 0), so
    x > g exactly when r > #{grid values < g}.  One bincount over the rank
    tuples and a suffix sum along each axis count the rows with every rank
    at least a given tuple, which answers all points in one pass.
    """
    ordered = np.sort(grid)
    shape = (ordered.size + 1,) * samples.shape[1]
    ranks = np.where(np.isnan(samples), 0, np.searchsorted(ordered, samples))
    table = np.bincount(np.ravel_multi_index(ranks.T, shape),
                        minlength=math.prod(shape)).reshape(shape)
    for axis in range(len(shape)):
        table = np.flip(np.flip(table, axis).cumsum(axis), axis)
    return table[tuple((np.searchsorted(ordered, points) + 1).T)]


# the dimension and the per-coordinate t-grid of :func:`mo_equivalence_check`
_MO_N, _MO_GRID = 3, (0.25, 0.75, 1.5)


def mo_equivalence_check(model: SubordinatorModel, rng: np.random.Generator,
                         count: int = 10 ** 5) -> MoEquivalenceResult:
    """Compare P(T_1 > t_1, ..., T_n > t_n) between the two constructions.

    One side simulates the exchangeable exponential-shock model with rates
    from :func:`shock_rates`; the other simulates trigger upcrossing
    directly.  Both estimate the same joint survival function at n = 3 on
    the full t-grid (``_MO_GRID`` in each coordinate); each cell must agree
    within 3 combined standard errors.  The survivors of every cell are
    counted in one pass over each sample (:func:`_survivor_counts`), and
    count / ``count`` is the same float a per-cell mean of the indicator
    gives.  ``count`` must be >= 2, so that a cell's variance can be
    nonzero.
    """
    count = _require_int("count", count, 2)
    rates = shock_rates(_MO_N, model.psi)
    mo = sample_exchangeable_mo(_MO_N, rates, rng, count)
    lf = sample_vector(LfmoModel(ExactN(_MO_N), model), rng, count)
    points = np.stack(np.meshgrid(*([np.asarray(_MO_GRID)] * _MO_N)),
                      axis=-1).reshape(-1, _MO_N)
    worst, max_z = (0.0, 0.0, 0.0), 0.0
    for point, p_mo, p_lf in zip(points.tolist(), *(
            (_survivor_counts(s, _MO_GRID, points) / count).tolist()
            for s in (mo, lf))):
        se = math.sqrt(
            (p_mo * (1 - p_mo) + p_lf * (1 - p_lf)) / count + 1e-18
        )
        z = abs(p_mo - p_lf) / se
        if z > max_z:
            max_z, worst = z, (float(point[0]), p_mo, p_lf)
    return MoEquivalenceResult(grid=_MO_GRID, max_abs_z=max_z,
                               worst_cell=worst)
