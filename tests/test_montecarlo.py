import hashlib
import json
import math
from dataclasses import replace
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from lfmo import (
    CompoundPoisson,
    ConstantSteps,
    Ecdf,
    ExactN,
    ExperimentConfig,
    ExponentialSteps,
    InvalidDimensionError,
    LfmoModel,
    LinearDrift,
    LogScaleN,
    ParetoSteps,
    convergence_study_config,
    decomposition_check,
    gumbel_switch_error_bound,
    ks_critical_value,
    ks_one_sample,
    ks_two_sample,
    limit_law_for,
    mo_equivalence_check,
    parse_subordinator,
    run_experiment,
    sample_exchangeable_mo,
    sample_vector,
    shock_rates,
    zoom_out_statistic,
)
from lfmo import montecarlo
from lfmo.montecarlo import (
    CellResult,
    DecompositionResult,
    ExperimentResult,
    KsResult,
    MoEquivalenceResult,
    _BLOCK_ROWS,
    dimension_for,
    render_ecdf_svg,
)

from conftest import ks_one_sample_p
from test_subordinator import ARBITRARY_JSON


def per_point_equivalence(mo, lf, grid, count) -> MoEquivalenceResult:
    """The tally of ``mo_equivalence_check`` as a loop over grid points: a
    compare, an ``np.all`` and a mean for each point and each sample."""
    n = mo.shape[1]
    worst, max_z = (0.0, 0.0, 0.0), 0.0
    for point in np.stack(np.meshgrid(*([np.asarray(grid)] * n)),
                          axis=-1).reshape(-1, n):
        p_mo = float(np.mean(np.all(mo > point, axis=1)))
        p_lf = float(np.mean(np.all(lf > point, axis=1)))
        se = math.sqrt((p_mo * (1 - p_mo) + p_lf * (1 - p_lf)) / count + 1e-18)
        z = abs(p_mo - p_lf) / se
        if z > max_z:
            max_z, worst = z, (float(point[0]), p_mo, p_lf)
    return MoEquivalenceResult(grid=tuple(float(v) for v in grid),
                               max_abs_z=max_z, worst_cell=worst)


VALID_CONFIG = ExperimentConfig(
    subordinator=CompoundPoisson(1.0, ParetoSteps(4.0)), log10_n=(2.0, 4.0),
    samples_per_n=500, seed=7, m_offset=2, samples_csv="samples.csv",
    summary_csv="summary.csv", svg_path="ecdf.svg").to_dict()
INTEGER_FIELDS = ("samples_per_n", "seed", "reference_factor", "batch_size")
OUTPUT_FIELDS = {"samples_csv": "samples_csv", "summary_csv": "summary_csv",
                 "svg": "svg_path"}


@st.composite
def damaged_configs(draw):
    """A valid config's JSON with one field of it, of its m_rule or of its
    output block deleted or replaced by arbitrary JSON."""
    spec = json.loads(json.dumps(VALID_CONFIG))
    block = draw(st.sampled_from([spec, spec["m_rule"], spec["output"]]))
    key = draw(st.sampled_from(sorted(block)))
    if draw(st.booleans()):
        del block[key]
    else:
        block[key] = draw(ARBITRARY_JSON)
    return spec


class TestEcdf:
    def test_step_function(self):
        ecdf = Ecdf.from_samples([3.0, 1.0, 2.0])
        assert ecdf.count == 3
        assert ecdf.evaluate(0.5) == 0.0
        assert ecdf.evaluate(1.0) == pytest.approx(1 / 3)  # right-continuous
        assert ecdf.evaluate(2.5) == pytest.approx(2 / 3)
        assert ecdf.evaluate(100.0) == 1.0

    def test_nondecreasing(self, rng):
        ecdf = Ecdf.from_samples(rng.normal(size=500))
        xs = np.linspace(-4, 4, 200)
        assert np.all(np.diff(ecdf.evaluate(xs)) >= 0.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Ecdf.from_samples([])


class TestKs:
    def test_identical_samples_zero(self):
        e = Ecdf.from_samples([1.0, 2.0, 3.0, 4.0])
        assert ks_two_sample(e, e).statistic == 0.0

    def test_disjoint_supports_one(self):
        a = Ecdf.from_samples([1.0, 2.0, 3.0])
        b = Ecdf.from_samples([10.0, 11.0, 12.0])
        assert ks_two_sample(a, b).statistic == 1.0

    def test_uniform_calibration(self, rng):
        # D stays below ~1.5 x the 0.1% Kolmogorov quantile with margin
        x = rng.random(10 ** 4)
        res = ks_one_sample(Ecdf.from_samples(x), lambda v: np.clip(v, 0, 1))
        assert res.statistic < 1.95 / math.sqrt(10 ** 4) * 1.5

    @pytest.mark.parametrize("ks", [
        lambda one: ks_one_sample(one, lambda v: v),
        lambda one: ks_two_sample(one, Ecdf.from_samples([1.0, 2.0])),
        lambda one: ks_two_sample(Ecdf.from_samples([1.0, 2.0]), one),
    ], ids=["one-sample", "two-sample-left", "two-sample-right"])
    def test_a_single_point_is_refused(self, ks):
        with pytest.raises(ValueError, match="at least 2 samples"):
            ks(Ecdf.from_samples([1.0]))

    def test_critical_value(self):
        # Kolmogorov 1% point is about 1.6276
        assert ks_critical_value(10 ** 4, 0.01) == \
            pytest.approx(1.6276 / 100.0, rel=1e-3)

    def test_one_sample_against_exact_cdf(self, rng):
        x = rng.normal(size=2000)
        from scipy.special import ndtr
        res = ks_one_sample(Ecdf.from_samples(x), ndtr)
        assert res.p_value > 0.01
        assert res.kind == "one_sample_analytic"

    def test_p_value_is_the_kolmogorov_tail_at_the_stored_size(self, rng):
        from scipy.special import kolmogorov
        from scipy.stats import kstwo

        x = rng.random(500)
        one = ks_one_sample(Ecdf.from_samples(x), lambda v: v)
        assert one.p_value == float(kstwo.sf(one.statistic, 500))
        two = ks_two_sample(Ecdf.from_samples(x),
                            Ecdf.from_samples(rng.random(300)))
        assert two.p_value == float(
            kolmogorov(math.sqrt(500 * 300 / 800) * two.statistic))
        # computed from the fields, so a hand-built result agrees too
        assert KsResult(0.05, 500.0, "one_sample_analytic", 0.0, "left",
                        ).p_value == float(kstwo.sf(0.05, 500))

    def test_side_and_location(self):
        # shifted sample: ECDF exceeds the CDF on the left tail
        x = np.linspace(-3.0, 1.0, 1000)
        from scipy.special import ndtr
        res = ks_one_sample(Ecdf.from_samples(x), ndtr)
        assert res.side in ("left", "right")
        assert math.isfinite(res.location)


class TestModelSerialization:
    @pytest.mark.parametrize("model", [
        LinearDrift(1.0),
        CompoundPoisson(1.0, ParetoSteps(2.5)),
        CompoundPoisson(0.5, ConstantSteps(2.0)),
        CompoundPoisson(2.0, ExponentialSteps(3.0)),
    ])
    def test_round_trip(self, model):
        assert parse_subordinator(model.to_json()) == model

    def test_documented_spellings(self):
        cpp = parse_subordinator(json.loads(
            '{"kind":"cpp","lambda":1.0,"step":{"kind":"pareto","alpha":2.5}}'))
        assert cpp == CompoundPoisson(1.0, ParetoSteps(2.5))
        drift = parse_subordinator(json.loads('{"kind":"drift","c":1.0}'))
        assert drift == LinearDrift(1.0)

    def test_unknown_kinds_rejected(self):
        with pytest.raises(ValueError):
            parse_subordinator({"kind": "brownian"})
        with pytest.raises(ValueError):
            parse_subordinator({"kind": "cpp", "lambda": 1.0,
                                "step": {"kind": "lognormal"}})


class TestConfig:
    def test_dict_round_trip(self):
        config = ExperimentConfig(
            subordinator=CompoundPoisson(1.0, ParetoSteps(4.0)),
            log10_n=(2.0, 4.0),
            samples_per_n=500,
            seed=7,
            m_offset=2,
            samples_csv="samples.csv",
        )
        again = ExperimentConfig.from_dict(config.to_dict())
        assert again == config

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(spec=damaged_configs())
    def test_config_is_read_as_written_or_refused(self, spec):
        try:
            config = ExperimentConfig.from_dict(spec)
        except ValueError:
            return
        # nothing is coerced: an accepted field was written as what it reads
        for key in INTEGER_FIELDS:
            if key in spec:
                assert type(spec[key]) is int
                assert getattr(config, key) == spec[key]
        assert type(spec["log10_n"]) is list
        assert all(type(v) in (int, float) for v in spec["log10_n"])
        assert config.log10_n == tuple(spec["log10_n"])
        if config.m_offset:
            assert type(spec["m_rule"]["j"]) is int
        for key, attr in OUTPUT_FIELDS.items():
            if key in spec.get("output", {}):
                assert type(spec["output"][key]) is str
                assert getattr(config, attr) == spec["output"][key]
        assert ExperimentConfig.from_dict(config.to_dict()) == config

    def test_validation(self):
        base = dict(subordinator=LinearDrift(1.0), log10_n=(2.0, 4.0),
                    samples_per_n=500, seed=0)
        with pytest.raises(ValueError):
            ExperimentConfig(**{**base, "samples_per_n": 99})
        with pytest.raises(ValueError):
            ExperimentConfig(**{**base, "log10_n": (4.0, 2.0)})
        with pytest.raises(ValueError):
            ExperimentConfig(**{**base, "log10_n": ()})
        with pytest.raises(ValueError):
            ExperimentConfig(**{**base, "m_offset": -1})
        for field, value in (("samples_per_n", 1000.0), ("seed", 1.5),
                             ("batch_size", 2.5)):
            with pytest.raises(ValueError, match=f"{field} must be an integer"):
                ExperimentConfig(**{**base, field: value})
        for schedule in ((2.0, math.inf), (math.nan,)):
            with pytest.raises(ValueError, match="finite"):
                ExperimentConfig(**{**base, "log10_n": schedule})
        for exponent in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError, match="positive and finite"):
                ExperimentConfig(**{**base, "part2_scaling_exponent": exponent})

    def test_dimension_beyond_float_range_is_log_scale(self):
        # every cell samples the real n = 10^log10_n it normalizes for
        assert dimension_for(0.1) == LogScaleN(0.1)
        assert dimension_for(12.0) == LogScaleN(12.0)
        assert dimension_for(400.0) == LogScaleN(400.0)

    def test_canned_study(self):
        config = convergence_study_config(4.0, samples_per_n=200, seed=5)
        assert config.log10_n == (10.0, 40.0, 90.0, 160.0)
        assert config.subordinator == CompoundPoisson(1.0, ParetoSteps(4.0))


class TestRunExperiment:
    CONFIG = ExperimentConfig(
        subordinator=CompoundPoisson(1.0, ParetoSteps(2.5)),
        log10_n=(2.0, 3.0),
        samples_per_n=600,
        seed=31,
        batch_size=250,
    )
    # small multi-cell studies: the normal and the drifts' Gumbel laws are
    # finished against their analytic CDFs, the inverse-stable law against
    # a reference population; c = 0.37 puts the Gumbel transform off c = 1
    STUDIES = {
        "normal": CONFIG,
        "inverse_stable": ExperimentConfig(
            subordinator=CompoundPoisson(1.0, ParetoSteps(0.5)),
            log10_n=(2.0, 30.0), samples_per_n=300, seed=905,
            reference_factor=3, batch_size=128),
        "drift": ExperimentConfig(subordinator=LinearDrift(1.0),
                                  log10_n=(2.0, 5.0, 20.0), samples_per_n=400,
                                  seed=2, batch_size=150),
        "drift_0.37": ExperimentConfig(LinearDrift(0.37), (2.0, 5.0, 20.0),
                                       400, 2, batch_size=150),
    }

    def test_sample_count_conservation(self):
        result = run_experiment(self.CONFIG, workers=1)
        assert all(cell.ecdf.count == 600 for cell in result.cells)
        assert all(cell.raw.size == 600 for cell in result.cells)

    def test_bit_identical_reruns_and_worker_counts(self):
        a = run_experiment(self.CONFIG, workers=1)
        b = run_experiment(self.CONFIG, workers=1)
        c = run_experiment(self.CONFIG, workers=2)
        assert a.samples_csv_text() == b.samples_csv_text()
        assert a.samples_csv_text() == c.samples_csv_text()
        assert a.summary_csv_text() == c.summary_csv_text()

    def test_inverse_stable_bytes_pinned_across_workers(self):
        # alpha = 0.5 draws sample batches and reference batches; both CSVs
        # must match across worker counts and the sha256 values recorded
        # when first passage moved to one row per jump across the paths
        config = ExperimentConfig(
            subordinator=CompoundPoisson(1.0, ParetoSteps(0.5)),
            log10_n=(2.0, 30.0), samples_per_n=300, seed=905,
            reference_factor=3, batch_size=128)
        texts = set()
        for workers in (1, 2):
            result = run_experiment(config, workers=workers)
            texts.add((result.samples_csv_text(), result.summary_csv_text()))
        assert len(texts) == 1
        samples, summary = texts.pop()
        assert hashlib.sha256(samples.encode()).hexdigest() == (
            "1cf040c685c53b6f5d889c22727fe5cdec2cb6df72a6164d580a2aa8d68721b5")
        assert hashlib.sha256(summary.encode()).hexdigest() == (
            "2cfa198f754af3853902b33cd9d3588bdc9c9c4717001421177f03082687d538")

    def test_zero_variance_control_is_gumbel_not_normal(self):
        config = ExperimentConfig(subordinator=LinearDrift(1.0),
                                  log10_n=(5.0,), samples_per_n=5000, seed=2)
        result = run_experiment(config, workers=1)
        cell = result.cells[0]
        assert cell.limit_kind == "gumbel"
        assert cell.ks.p_value > 0.01
        # not normal: the standardized Gumbel sits ~0.066 away from the
        # normal CDF in sup distance, far beyond the 1% acceptance band
        from scipy.special import ndtr
        z = cell.normalized
        against_normal = ks_one_sample(
            Ecdf.from_samples((z - z.mean()) / z.std()), ndtr)
        assert against_normal.statistic > 2 * ks_critical_value(5000, 0.01)
        assert against_normal.p_value < 1e-6

    def test_fractional_dimension_is_sampled_as_given(self):
        # under a unit drift the raw cell is the top of n unit-exponential
        # triggers, with CDF (1 - e^-x)^n at the real n = 10^0.1 ~ 1.26;
        # rounding the cell to n = 1 sits ~0.085 away in KS distance
        config = ExperimentConfig(subordinator=LinearDrift(1.0),
                                  log10_n=(0.1,), samples_per_n=10_000,
                                  seed=3)
        raw = run_experiment(config, workers=1).cells[0].raw
        n = 10.0 ** 0.1
        cdf = lambda x: (1.0 - np.exp(-np.asarray(x))) ** n
        assert ks_one_sample_p(raw, cdf) > 0.01

    def test_offset_beyond_fractional_dimension_is_refused(self):
        # T_{n-1:n} needs two components, more than n = 10^0.2 ~ 1.58
        config = ExperimentConfig(subordinator=LinearDrift(1.0),
                                  log10_n=(0.2,), samples_per_n=100, seed=3,
                                  m_offset=1)
        with pytest.raises(InvalidDimensionError):
            run_experiment(config, workers=1)

    def test_underflowed_variance_is_not_a_drift(self):
        # Var S_1 = (1e-200)^2 underflows to 0; the model is still a CPP
        config = ExperimentConfig(
            subordinator=CompoundPoisson(1.0, ConstantSteps(1e-200)),
            log10_n=(5.0,), samples_per_n=100, seed=2)
        for workers in (1, 2):
            with pytest.raises(ValueError, match="Var S_1.*float range"):
                run_experiment(config, workers=workers)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("kind", ["normal", "inverse_stable", "drift",
                                      "drift_0.37"])
    def test_written_samples_csv_is_the_result_text(self, kind, workers,
                                                    tmp_path):
        # the file is written cell by cell as the cells finish; the text is
        # formatted from the result afterwards
        path = tmp_path / "samples.csv"
        config = replace(self.STUDIES[kind], samples_csv=str(path))
        result = run_experiment(config, workers=workers)
        assert path.read_bytes() == result.samples_csv_text().encode()

    def test_inverse_stable_svg_identical_across_workers(self, tmp_path):
        # the inverse-stable law has no analytic CDF, so the SVG draws its
        # limit curve from a seeded population of the law
        config = self.STUDIES["inverse_stable"]
        assert limit_law_for(config.subordinator).cdf is None
        svgs = set()
        for workers in (1, 2):
            path = tmp_path / f"plot_{workers}.svg"
            result = run_experiment(replace(config, svg_path=str(path)),
                                    workers=workers)
            svgs.add(path.read_bytes())
        assert len(svgs) == 1
        assert svgs.pop().count(b"<polyline") == len(result.cells) + 1

    def test_drift_bytes_identical_across_workers(self):
        a, b = (run_experiment(self.STUDIES["drift"], workers=workers)
                for workers in (1, 2))
        assert a.cells[0].limit_kind == "gumbel"
        assert a.samples_csv_text() == b.samples_csv_text()
        assert a.summary_csv_text() == b.summary_csv_text()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_drift_bytes_pinned(self, workers):
        # at c != 1 the Gumbel transform c x - log n and (x - log n / c) /
        # (1 / c) differ in the last bits; these are the bytes of the former
        result = run_experiment(self.STUDIES["drift_0.37"], workers=workers)
        assert [hashlib.sha256(text.encode()).hexdigest() for text in (
            result.samples_csv_text(), result.summary_csv_text(),
            render_ecdf_svg(result))] == [
            "91e6b48ab4d2c671396b04cebf4c88cf4b812864dfec343f7bf214e932ea3735",
            "d192c402b8980ad130d5b373f4250f7e4b9782d1bd5da59a4a2a04273098f9c1",
            "6d5af182fcbba253e2bc0064ae7abf1c1942c3b749c182ae994fab32f407b12a"]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_config_without_output_paths_writes_no_file(self, workers,
                                                         tmp_path,
                                                         monkeypatch):
        monkeypatch.chdir(tmp_path)
        run_experiment(self.STUDIES["inverse_stable"], workers=workers)
        assert list(tmp_path.iterdir()) == []

    def test_part2_uses_two_sample_reference(self):
        config = ExperimentConfig(
            subordinator=CompoundPoisson(1.0, ParetoSteps(0.5)),
            log10_n=(2.0,), samples_per_n=400, seed=9, reference_factor=5)
        result = run_experiment(config, workers=1)
        assert result.cells[0].ks.kind == "two_sample"

    def test_csv_texts(self, tmp_path):
        config = ExperimentConfig(
            subordinator=CompoundPoisson(1.0, ParetoSteps(2.5)),
            log10_n=(2.0,), samples_per_n=150, seed=4,
            samples_csv=str(tmp_path / "samples.csv"),
            summary_csv=str(tmp_path / "summary.csv"),
            svg_path=str(tmp_path / "plot.svg"),
        )
        result = run_experiment(config, workers=1)
        samples = (tmp_path / "samples.csv").read_text()
        lines = samples.splitlines()
        assert lines[0] == "log10_n,sample_index,raw_value,normalized_value"
        assert len(lines) == 1 + 150
        summary = (tmp_path / "summary.csv").read_text()
        assert summary.splitlines()[0] == \
            "log10_n,ks_statistic,ks_side,n_samples,limit_kind,sigma,alpha"
        svg = (tmp_path / "plot.svg").read_text()
        assert svg.startswith("<svg")
        assert svg.count("<polyline") == len(result.cells) + 1


def _samples_csv_reference(result: ExperimentResult) -> str:
    """The samples CSV formatted one value at a time."""
    lines = ["log10_n,sample_index,raw_value,normalized_value"]
    for cell in result.cells:
        tag = format(cell.log10_n, ".17g")
        for i, (r, z) in enumerate(zip(cell.raw, cell.normalized)):
            lines.append(f"{tag},{i},{format(r, '.17g')},{format(z, '.17g')}")
    return "\n".join(lines) + "\n"


def _hand_built(*cells) -> ExperimentResult:
    # samples_csv_text reads only log10_n, raw and normalized
    return ExperimentResult(TestRunExperiment.CONFIG, tuple(
        CellResult(log10_n, np.asarray(raw, dtype=float),
                   np.asarray(normalized, dtype=float), None, None,
                   "normal", None, None)
        for log10_n, raw, normalized in cells))


class TestSamplesCsv:
    SPECIAL = [-0.0, 5e-324, 1 / 3, 1e16, 1e300, math.inf, -math.inf,
               math.nan, 0.0, -2.5, 123456789.0]

    def test_matches_per_value_formatting(self):
        result = _hand_built((2.5, self.SPECIAL, self.SPECIAL[::-1]),
                             (12.000000000000002, self.SPECIAL[3:],
                              self.SPECIAL[:-3]),
                             (40.0, [], []))
        text = result.samples_csv_text()
        assert text == _samples_csv_reference(result)
        assert text.startswith("log10_n,sample_index,raw_value,"
                               "normalized_value\n2.5,0,-0,123456789\n")
        assert ("\n12.000000000000002,1,1.0000000000000001e+300,"
                "4.9406564584124654e-324\n") in text
        assert _hand_built().samples_csv_text() == _samples_csv_reference(
            _hand_built())

    def test_fast_range_matches_per_value_formatting(self):
        # the kernel formats 1e-4 <= |x| < 1e17 by array arithmetic; a
        # uniform bit pattern seldom lands there, so probe it directly
        powers = np.array([float(f"1e{k}") for k in range(-6, 19)])
        neighbours = np.concatenate([np.nextafter(powers, 0.0),
                                     np.nextafter(powers, math.inf)])
        rng = np.random.default_rng(18)
        # a + 2**-(18 - d) with a of d digits has 18 significant digits
        # ending in 5: a tie at 17 digits, rounded half to even
        ties = [1.0 + 2.0 ** -17] + [
            float(a) + 2.0 ** -(18 - d) for d in range(1, 17)
            for a in rng.integers(10 ** (d - 1),
                                  min(10 ** d, 2 ** (35 + d)), 8)]
        for tie in ties:
            digits = Decimal(tie).as_tuple().digits
            assert len(digits) == 18 and digits[-1] == 5
        near_decades = [float(f"9.9999999999999999e{k}")
                        for k in range(-6, 18)]
        log_uniform = (10.0 ** rng.uniform(-6.0, 18.0, 10 ** 5)
                       * rng.choice([-1.0, 1.0], 10 ** 5))
        fast = np.concatenate([powers, neighbours, ties, near_decades,
                               [2.0 ** 53 - 2, 2.0 ** 53 + 2]])
        special = [0.0, -0.0, 5e-324, math.inf, -math.inf, math.nan]
        values = np.concatenate([special, fast, -fast, log_uniform, special])
        assert values.size > _BLOCK_ROWS and values.size % _BLOCK_ROWS
        result = _hand_built((2.5, values, values[::-1]))
        text = result.samples_csv_text()
        assert text == _samples_csv_reference(result)
        assert ",1.0000076293945312," in text

    def test_decade_edges_match_per_value_formatting(self):
        # the kernel reads E from a table of the least double >= 10**E;
        # the values just past each +-10**E must format as '%.17g' does
        for e, edge in zip(range(-4, 18), montecarlo._DECADES.tolist()):
            assert math.nextafter(edge, 0.0) < Fraction(10) ** e <= edge
        powers = np.array([float(f"1e{e}") for e in range(-5, 18)])
        edges = np.concatenate([np.nextafter(powers, math.inf),
                                np.nextafter(-powers, -math.inf)])
        result = _hand_built((2.5, edges, edges[::-1]))
        assert result.samples_csv_text() == _samples_csv_reference(result)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(bits=st.lists(st.integers(0, 2 ** 64 - 1), min_size=2,
                         max_size=80),
           log10_n=st.floats(0.1, 400.0))
    def test_random_float64_bit_patterns(self, bits, log10_n):
        values = np.array(bits, dtype=np.uint64).view(np.float64)
        result = _hand_built((log10_n, values, values[::-1]))
        assert result.samples_csv_text() == _samples_csv_reference(result)


class TestGumbelSwitchBound:
    def test_million_value(self):
        bound = gumbel_switch_error_bound(10 ** 6)
        # leading-order envelope max_y y^2 e^-y / (2n) = 2 e^-2 / n; the
        # exact distance exceeds it only by the O(1/n^2) correction
        assert bound <= 2.0 * math.exp(-2.0) / 10 ** 6 * (1.0 + 1e-5)
        assert bound > 2.6e-7

    def test_hundred_value(self):
        bound = gumbel_switch_error_bound(100)
        assert 0.0 < bound < 0.003

    def test_monotone_decreasing(self):
        values = [gumbel_switch_error_bound(10 ** k) for k in range(2, 7)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_domain(self):
        with pytest.raises(ValueError):
            gumbel_switch_error_bound(1)

    @pytest.mark.parametrize("n", [2, 3, 10, 10 ** 2, 10 ** 6, 10 ** 9,
                                   10 ** 12, 10 ** 15, 10 ** 50, 10 ** 300],
                             ids=lambda n: f"{n:.0e}")
    def test_matches_mpmath_truth(self, n):
        # maximise h(q) = e^-q - (1 - q/n)^n at 80 digits beyond the
        # cancellation, through the root of its derivative in (1, 2)
        with mp.workdps(80 + len(str(n))):
            big_n = mp.mpf(n)

            def exact_cdf(q):
                return mp.exp(big_n * mp.log1p(-q / big_n))

            q = mp.findroot(lambda q: exact_cdf(q) / (1 - q / big_n)
                            - mp.exp(-q), (mp.mpf(1), mp.mpf("1.99")),
                            solver="anderson")
            truth = mp.exp(-q) - exact_cdf(q)
        assert gumbel_switch_error_bound(n) == \
            pytest.approx(float(truth), rel=1e-14, abs=0.0)


class TestVerificationHelpers:
    def test_decomposition_check_small(self, rng):
        model = CompoundPoisson(1.0, ParetoSteps(4.0))
        result = decomposition_check(model, 10 ** 3, 0.0, rng,
                                     path_count=4000, direct_count=20_000)
        assert result.passed
        assert 0.0 < result.kernel_estimate < 1.0

    @pytest.mark.parametrize("model, regime", [
        (LinearDrift(1.0), "gumbel"),
        (CompoundPoisson(1.0, ParetoSteps(0.5)), "part2_inverse_stable"),
    ])
    def test_decomposition_check_refuses_laws_outside_regime1(
            self, model, regime, rng):
        # the kernel f_n and the zoom-out statistic need alpha and E S_1
        with pytest.raises(ValueError, match=f"regime-1 laws, not to {regime}"):
            decomposition_check(model, 10 ** 3, 0.0, rng)
        with pytest.raises(ValueError, match=f"regime-1 laws, not to {regime}"):
            zoom_out_statistic(1.0, 1.0, 0.0, limit_law_for(model), 5.0)

    @pytest.mark.parametrize("direct, z_score", [(0.5, 0.0), (0.25, math.inf)])
    def test_z_score_at_zero_standard_error(self, direct, z_score):
        result = DecompositionResult(t=0.0, horizon=1.0, kernel_estimate=0.5,
                                     kernel_se=0.0, direct_estimate=direct,
                                     direct_se=0.0)
        assert result.z_score == z_score
        assert result.passed is (z_score == 0.0)

    def test_mo_equivalence_small(self, rng):
        model = CompoundPoisson(1.0, ParetoSteps(2.5))
        result = mo_equivalence_check(model, rng, count=40_000)
        assert result.passed

    def test_mo_equivalence_counts_as_the_per_point_loop_at_verify_setting(self):
        # the samples `lfmo verify` tallies: CPP with Pareto 2.5 steps, n = 3
        model, count = CompoundPoisson(1.0, ParetoSteps(2.5)), 10 ** 5
        result = mo_equivalence_check(model, np.random.default_rng(7), count)
        rng = np.random.default_rng(7)
        mo = sample_exchangeable_mo(3, shock_rates(3, model.psi), rng, count)
        lf = sample_vector(LfmoModel(ExactN(3), model), rng, count)
        assert result == per_point_equivalence(mo, lf, result.grid, count)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("grid", [(0.25, 0.75, 1.5), (1.5, 0.25, 0.75),
                                      (0.75, 0.25, 0.75, 1.5, 0.25)],
                             ids=["sorted", "unsorted", "repeated"])
    @pytest.mark.parametrize("mirrored", [False, True],
                             ids=["independent", "mirrored"])
    def test_mo_equivalence_counts_as_the_per_point_loop(
            self, n, grid, mirrored, monkeypatch):
        # values on, just above and just below grid points, 0, +inf and NaN
        # next to continuous draws; a mirrored pair makes tied z-scores
        rng = np.random.default_rng(n)
        g = np.asarray(grid)
        special = np.concatenate([g, np.nextafter(g, np.inf),
                                  np.nextafter(g, -np.inf),
                                  [0.0, np.inf, np.nan]])
        count = 600

        def draw():
            values = rng.choice(special, size=(count, n))
            continuous = rng.random((count, n)) < 0.5
            values[continuous] = rng.exponential(size=continuous.sum())
            return values

        mo = draw()
        lf = mo[:, ::-1].copy() if mirrored else draw()
        monkeypatch.setattr(montecarlo, "sample_exchangeable_mo",
                            lambda *args: mo)
        monkeypatch.setattr(montecarlo, "sample_vector", lambda *args: lf)
        monkeypatch.setattr(montecarlo, "_MO_GRID", grid)
        monkeypatch.setattr(montecarlo, "_MO_N", n)
        result = mo_equivalence_check(CompoundPoisson(1.0, ParetoSteps(2.5)),
                                      rng, count)
        assert result == per_point_equivalence(mo, lf, grid, count)
