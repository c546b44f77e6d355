import json
import math
import os
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import lfmo
from lfmo import ExperimentConfig
from lfmo.cli import main

from conftest import ks_one_sample_p

CPP25 = '{"kind":"cpp","lambda":1.0,"step":{"kind":"pareto","alpha":2.5}}'
CPP4 = '{"kind":"cpp","lambda":1.0,"step":{"kind":"pareto","alpha":4}}'
CPP05 = '{"kind":"cpp","lambda":1.0,"step":{"kind":"pareto","alpha":0.5}}'
DRIFT1 = '{"kind":"drift","c":1.0}'
PARETO_AT = '{"kind":"cpp","lambda":1,"step":{"kind":"pareto","alpha":%g}}'
DRIFT_HUGE = '{"kind":"drift","c":1e308}'  # psi(2) overflows to inf
TABLE_FLAGS = {"--out", "--format"}
HONOURED_FLAGS = {
    "sample": {"--model", "--n", "--log10n", "--top", "--count", "--seed",
               *TABLE_FLAGS},
    "tail": {"--model", "--n", "--m", "--t-grid", *TABLE_FLAGS},
    "mean-last": {"--model", "--n", *TABLE_FLAGS},
    "shock-rates": {"--model", "--n", *TABLE_FLAGS},
    "limit": {"--model", "--part2-exponent", "--out"},
    "experiment": {"--config", "--workers", "--out"},
    "verify": {"--seed", "--out"},
    "gumbel-bound": {"--n", *TABLE_FLAGS},
}


def readme_block(heading, lang):
    """The first ``lang`` code block under README's ``## heading``."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split(f"## {heading}", 1)[1]
    return section.split(f"```{lang}\n", 1)[1].split("```", 1)[0]


def readme_command_lines():
    """The ``lfmo ...`` lines of README's "Command line" sh block."""
    return [line for line in readme_block("Command line", "sh").splitlines()
            if line.startswith("lfmo ")]


def run(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestLimit:
    def test_pareto4_normal_law(self, capsys):
        code, out, _ = run(["limit", "--model", CPP4], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["kind"] == "part1_normal"
        assert payload["sigma"] == pytest.approx(1.224745, abs=1e-6)
        assert payload["c_alpha"] is None

    def test_part2_reports_c_alpha(self, capsys):
        code, out, _ = run(["limit", "--model", CPP05], capsys)
        payload = json.loads(out)
        assert code == 0
        assert payload["kind"] == "part2_inverse_stable"
        assert payload["c_alpha"] == pytest.approx(0.7978845608, abs=1e-9)

    @pytest.mark.parametrize("c", [1.0, 0.37])
    def test_drift_prints_its_gumbel_normalization(self, c, capsys):
        # the drift's transform c x - log n, as (x - log(n) / c) / (1 / c)
        code, out, _ = run(["limit", "--model",
                            json.dumps({"kind": "drift", "c": c})], capsys)
        assert code == 0
        assert json.loads(out) == {
            "kind": "gumbel", "alpha": None, "sigma": None, "c_alpha": None,
            "mean_s1": c,
            "normalization": {"center": f"log(n) / {c:g}",
                              "scale": f"1 / {c:g}"}}

    def test_boundary_model_fails_validation(self, capsys):
        for alpha in (1, 2):
            code, _, err = run(["limit", "--model", PARETO_AT % alpha], capsys)
            assert code == 1
            assert "UnsupportedRegimeError" in err
            assert len(err.strip().splitlines()) == 1


class TestExactCommands:
    def test_tail_row(self, capsys):
        code, out, _ = run(["tail", "--model", DRIFT1, "--n", "4", "--m", "1",
                            "--t-grid", "0.5"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "t,probability"
        t, p = lines[1].split(",")
        assert float(p) == pytest.approx(math.exp(-2.0), abs=1e-9)

    def test_mean_last_harmonic(self, capsys):
        code, out, _ = run(["mean-last", "--model", DRIFT1, "--n", "3",
                            "--format", "json"], capsys)
        assert code == 0
        assert json.loads(out)["mean"] == pytest.approx(11.0 / 6.0, abs=1e-10)

    def test_shock_rates_psi1(self, capsys):
        code, out, _ = run(["shock-rates", "--model", DRIFT1, "--n", "1"],
                           capsys)
        assert code == 0
        assert out.strip().splitlines()[1] == "1,1"

    def test_exact_commands_refuse_log10n(self, capsys):
        code, _, err = run(["tail", "--model", DRIFT1, "--log10n", "14",
                            "--m", "1", "--t-grid", "0.5"], capsys)
        assert code == 1


class TestSampleAndSummarize:
    def test_deterministic_given_seed(self, capsys):
        args = ["sample", "--model", CPP25, "--n", "100", "--top", "2",
                "--count", "5", "--seed", "3"]
        _, out1, _ = run(args, capsys)
        _, out2, _ = run(args, capsys)
        assert out1 == out2
        lines = out1.strip().splitlines()
        assert lines[0] == "sample_index,offset_from_top,value"
        assert len(lines) == 1 + 5 * 2

    def test_log10n_dimension(self, capsys):
        code, out, _ = run(["sample", "--model", CPP25, "--log10n", "20",
                            "--count", "3", "--seed", "1"], capsys)
        assert code == 0
        assert len(out.strip().splitlines()) == 4

    def test_small_log10n_top_draws_follow_the_exact_law(self, capsys):
        # under a unit drift the top lifetime is the top trigger, whose CDF
        # (1 - e^-x)^n holds for any real n, here 10^0.3 ~ 1.995
        code, out, _ = run(["sample", "--model", DRIFT1, "--log10n", "0.3",
                            "--count", "20000"], capsys)
        assert code == 0
        values = [float(line.split(",")[2])
                  for line in out.strip().splitlines()[1:]]
        assert len(values) == 20000
        n = 10.0 ** 0.3
        cdf = lambda x: (1.0 - np.exp(-np.asarray(x))) ** n
        assert ks_one_sample_p(values, cdf) > 0.01

    def test_jumps_beyond_float_range_sample_without_warning(self, capsys):
        # Pareto(0.01) jumps pass 1.8e308 about once in 1200 draws
        model = ('{"kind":"cpp","lambda":1,'
                 '"step":{"kind":"pareto","alpha":0.01}}')
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(["sample", "--model", model, "--n", "1000",
                                  "--top", "2", "--count", "2000",
                                  "--seed", "1"], capsys)
        assert code == 0 and err == ""
        assert len(out.splitlines()) == 1 + 2000 * 2

    def test_n_and_log10n_mutually_exclusive(self, capsys):
        code, _, err = run(["sample", "--model", CPP25, "--n", "10",
                            "--log10n", "3"], capsys)
        assert code == 1
        assert "usage error" in err


class TestVerify:
    def test_deterministic_and_passing(self, capsys):
        code1, out1, _ = run(["verify", "--seed", "7"], capsys)
        code2, out2, _ = run(["verify", "--seed", "7"], capsys)
        assert code1 == code2 == 0
        assert out1 == out2
        assert "VERIFY PASS" in out1


class TestGumbelBound:
    def test_value(self, capsys):
        code, out, _ = run(["gumbel-bound", "--n", "1000000",
                            "--format", "json"], capsys)
        assert code == 0
        assert json.loads(out)["bound"] < 3e-7

    def test_value_at_1e300(self, capsys):
        code, out, _ = run(["gumbel-bound", "--n", "1" + "0" * 300], capsys)
        assert code == 0
        bound = float(out.splitlines()[1].split(",")[1])
        assert bound == pytest.approx(2.7067056647322538e-301, rel=1e-14)


class TestExperiment:
    def test_runs_config_and_writes_outputs(self, tmp_path, capsys):
        config = {
            "subordinator": json.loads(CPP25),
            "log10_n": [2.0, 3.0],
            "samples_per_n": 200,
            "seed": 5,
            "output": {
                "samples_csv": str(tmp_path / "s.csv"),
                "summary_csv": str(tmp_path / "m.csv"),
            },
        }
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        code, out, _ = run(["experiment", "--config", str(config_path),
                            "--workers", "1"], capsys)
        assert code == 0
        assert (tmp_path / "s.csv").exists()
        assert (tmp_path / "m.csv").exists()
        assert out.splitlines()[0].startswith("log10_n,ks_statistic")


class TestOut:
    @pytest.mark.parametrize("args", [
        ["gumbel-bound", "--n", "100"],
        ["tail", "--model", DRIFT1, "--n", "4", "--m", "1",
         "--t-grid", "0.5,1", "--format", "json"],
        ["limit", "--model", CPP4],
    ], ids=["gumbel-bound", "tail-json", "limit"])
    def test_out_writes_the_stdout_text_to_the_file(self, args, tmp_path,
                                                     capsys):
        code, expected, _ = run(args, capsys)
        assert code == 0 and expected
        path = tmp_path / "out.txt"
        assert run(args + ["--out", str(path)], capsys) == (0, "", "")
        assert path.read_text() == expected


class TestHelpAndEnv:
    @pytest.mark.parametrize("command", sorted(HONOURED_FLAGS))
    def test_help_exists(self, command, capsys):
        # the usage section lists exactly the flags the command honours
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        usage = capsys.readouterr().out.split("\n\n", 1)[0]
        assert set(re.findall(r"--[\w-]+", usage)) == HONOURED_FLAGS[command]

    README_LINES = [line for line in readme_command_lines()
                    if not line.startswith("lfmo experiment ")]

    # the index keeps two lines of one command apart
    @pytest.mark.parametrize("line", README_LINES, ids=[
        f"{i}-{line.split()[1]}" for i, line in enumerate(README_LINES)])
    def test_readme_command_line_runs(self, line, capsys):
        assert main(shlex.split(line)[1:]) == 0

    def test_readme_config_parses(self):
        block = readme_block("Experiment configs", "json")
        config = ExperimentConfig.from_dict(json.loads(block))
        assert config.svg_path == "ecdfs.svg"

    def test_units_documented(self, capsys):
        with pytest.raises(SystemExit):
            main(["tail", "--help"])
        assert "time-units" in capsys.readouterr().out

    def test_import_leaves_scipy_stats_out(self):
        # scipy.stats takes about 1 s to import; only KS p-values need it.
        # scipy.integrate (which loads scipy.optimize) takes about 0.3 s;
        # only a Pareto psi needs it
        env = {**os.environ,
               "PYTHONPATH": str(Path(lfmo.__file__).resolve().parents[1])}
        out = subprocess.run(
            [sys.executable, "-c",
             "import sys, lfmo.cli; print([m for m in ('scipy.stats', "
             "'scipy.integrate', 'scipy.optimize') if m in sys.modules])"],
            capture_output=True, text=True, check=True, env=env).stdout
        assert out.strip() == "[]"

    def test_thread_cap(self, monkeypatch):
        from lfmo.montecarlo import resolve_workers
        monkeypatch.setenv("LFMO_THREADS", "2")
        assert resolve_workers(None) == 2
        assert resolve_workers(8) == 2
        assert resolve_workers(1) == 1

    @pytest.mark.parametrize("cap", ["abc", "0", "-2", "1.5"])
    def test_thread_cap_must_be_a_positive_integer(self, cap, monkeypatch):
        from lfmo.montecarlo import resolve_workers
        monkeypatch.setenv("LFMO_THREADS", cap)
        with pytest.raises(ValueError, match="LFMO_THREADS"):
            resolve_workers(1)

    @pytest.mark.parametrize("requested", [0, -3])
    def test_worker_count_below_one_is_refused(self, requested):
        from lfmo.montecarlo import resolve_workers
        with pytest.raises(ValueError, match="worker count"):
            resolve_workers(requested)


class TestErrors:
    def test_bad_model_json(self, capsys):
        code, _, err = run(["limit", "--model", "{not json"], capsys)
        assert code == 1

    def test_unknown_command(self, capsys):
        code, _, err = run(["frobnicate"], capsys)
        assert code == 1

    def test_tail_domain_error(self, capsys):
        code, _, err = run(["tail", "--model", DRIFT1, "--n", "4", "--m", "9",
                            "--t-grid", "0.5"], capsys)
        assert code == 1
        assert "ValueError" in err

    @pytest.mark.parametrize("model, field", [
        ('{"kind":"drift"}', "'c'"),
        ('{"kind":"drift","c":true}', "'c'"),
        ('{"kind":"cpp","lambda":"1","step":{"kind":"constant","size":1}}',
         "'lambda'"),
        ("[1]", "JSON object"),
        ('{"kind":"drift","c":1,"slope":2}', "'slope'"),
        ('{"kind":"cpp","lambda":1,"lamda":3,'
         '"step":{"kind":"constant","size":1}}', "'lamda'"),
        ('{"kind":"cpp","lambda":1,'
         '"step":{"kind":"pareto","alpha":2,"scale":3}}', "'scale'"),
    ])
    def test_malformed_model_is_one_line_error(self, model, field, capsys):
        code, _, err = run(["tail", "--n", "5", "--m", "2", "--t-grid", "1",
                            "--model", model], capsys)
        assert code == 1
        assert len(err.strip().splitlines()) == 1
        assert field in err and "Traceback" not in err

    def test_boundary_model_experiment_writes_nothing(self, tmp_path,
                                                      capsys):
        outputs = {key: str(tmp_path / name) for key, name in (
            ("samples_csv", "s.csv"), ("summary_csv", "t.csv"),
            ("svg", "p.svg"))}
        (tmp_path / "config.json").write_text(json.dumps({
            "subordinator": json.loads(PARETO_AT % 1), "log10_n": [2.0],
            "samples_per_n": 100, "seed": 1, "output": outputs}))
        code, out, err = run(["experiment", "--config",
                              str(tmp_path / "config.json")], capsys)
        assert code == 1 and out == ""
        assert err.startswith("error (UnsupportedRegimeError)")
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]

    def test_boundary_model_still_samples_and_tails(self, capsys):
        # only the limit law is refused at alpha = 1
        for args in (["sample", "--n", "5", "--count", "3"],
                     ["tail", "--n", "5", "--m", "5", "--t-grid", "1"]):
            code, out, _ = run(args + ["--model", PARETO_AT % 1], capsys)
            assert code == 0 and len(out.splitlines()) > 1

    def test_failed_allocation_is_one_line_error(self, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise MemoryError("Unable to allocate 745. GiB for an array")
        monkeypatch.setattr("lfmo.cli.sample_upper_order_statistics", refuse)
        code, out, err = run(["sample", "--model", DRIFT1, "--n", "5",
                              "--count", "100000000000"], capsys)
        assert code == 1 and out == ""
        assert err == ("error (MemoryError): Unable to allocate 745. GiB "
                       "for an array\n")

    def test_config_without_seed_is_one_line_error(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({
            "subordinator": json.loads(DRIFT1),
            "log10_n": [2.0, 3.0],
            "samples_per_n": 100,
        }))
        code, _, err = run(["experiment", "--config", str(path)], capsys)
        assert code == 1
        assert len(err.strip().splitlines()) == 1
        assert "'seed'" in err and "Traceback" not in err

    @pytest.mark.parametrize("override, field", [
        ({"log10_n": "123"}, "'log10_n'"),
        ({"log10_n": [2.0, True]}, "'log10_n'"),
        ({"samples_per_n": 150.9}, "'samples_per_n'"),
        ({"samples_per_n": 150.0}, "'samples_per_n'"),
        ({"seed": True}, "'seed'"),
        ({"seed": "1"}, "'seed'"),
        ({"seed": -3}, "seed must be >= 0"),
        ({"batch_size": 64.0}, "'batch_size'"),
        ({"reference_factor": False}, "'reference_factor'"),
        ({"m_rule": {"kind": "offset", "j": 1.5}}, "'j'"),
        ({"part2_scaling_exponent": "0.5"}, "'part2_scaling_exponent'"),
        ({"output": {"samples_csv": 7}}, "'samples_csv'"),
        ({"output": {"summary_csv": True}}, "'summary_csv'"),
        ({"output": {"svg": ["plot.svg"]}}, "'svg'"),
        ({"part2_scaling_exponent": 0}, "part2 scaling exponent"),
        ({"part2_scaling_exponent": -1}, "part2 scaling exponent"),
        ({"part2_scaling_exponent": math.nan}, "part2 scaling exponent"),
        ({"part2_scaling_exponent": 3}, "regime, not to gumbel"),
        ({"part2_exponent": 0.5}, "'part2_exponent'"),
        ({"m_rule": {"kind": "last", "j": 1}}, "'j'"),
        ({"m_rule": {"kind": "offset", "j": 1, "k": 2}}, "'k'"),
        ({"output": {"svg_path": "x.svg"}}, "'svg_path'"),
        ({"subordinator": {"kind": "drift", "c": 1, "d": 2}}, "'d'"),
        ({"batch_size": 0}, "batch_size must be >= 1"),
        ({"reference_factor": 0}, "reference_factor must be >= 1"),
    ], ids=["log10n-string", "log10n-bool-entry", "samples-fraction",
            "samples-float", "seed-bool", "seed-string", "seed-negative",
            "batch-float",
            "reference-bool", "offset-fraction", "exponent-string",
            "samples-csv-int", "summary-csv-bool", "svg-list",
            "exponent-zero", "exponent-negative", "exponent-nan",
            "exponent-outside-regime", "exponent-misspelled", "last-with-j",
            "offset-unknown-key", "output-unknown-key",
            "subordinator-unknown-key", "batch-zero", "reference-zero"])
    def test_config_field_of_wrong_type_is_one_line_error(
            self, override, field, tmp_path, capsys):
        config = {"subordinator": json.loads(DRIFT1), "log10_n": [2.0, 3.0],
                  "samples_per_n": 100, "seed": 1}
        config.update(override)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        code, out, err = run(["experiment", "--config", str(path)], capsys)
        assert code == 1
        assert out == ""
        assert len(err.strip().splitlines()) == 1
        assert field in err and "Traceback" not in err

    @pytest.mark.parametrize("args, message", [
        (["sample", "--model", CPP25, "--log10n", "inf"], "finite"),
        (["sample", "--model", '{"kind":"drift","c":Infinity}', "--n", "5",
          "--top", "2"], "finite"),
        (["tail", "--model", DRIFT1, "--n", "4", "--m", "1",
          "--t-grid", "nan"], "t must be >= 0"),
        (["gumbel-bound", "--n", "1" + "0" * 400], "float range"),
        (["sample", "--model", CPP25, "--log10n", "0.3", "--top", "2"],
         "exceeds the dimension"),
        (["limit", "--model", '{"kind":"cpp","lambda":1,"step":'
          '{"kind":"exponential","rate":1e-200}}'], "Var S_1"),
        (["limit", "--model", '{"kind":"cpp","lambda":1,"step":'
          '{"kind":"constant","size":1e200}}'], "Var S_1"),
        (["limit", "--model", '{"kind":"cpp","lambda":1,"step":'
          '{"kind":"constant","size":1e-200}}'], "Var S_1"),
        (["limit", "--model", '{"kind":"cpp","lambda":2,"step":'
          '{"kind":"pareto","alpha":0.0001}}'], "sigma"),
        (["limit", "--model", CPP05, "--part2-exponent", "0"],
         "positive and finite"),
        (["limit", "--model", CPP05, "--part2-exponent", "-1"],
         "positive and finite"),
        (["limit", "--model", CPP05, "--part2-exponent", "nan"],
         "positive and finite"),
        (["limit", "--model", DRIFT1, "--part2-exponent", "-1"],
         "positive and finite"),
        (["limit", "--model", CPP4, "--part2-exponent", "3"],
         "regime, not to part1_normal"),
        (["limit", "--model", '{"kind":"cpp","lambda":1,"step":'
          '{"kind":"pareto","alpha":1.5}}', "--part2-exponent", "3"],
         "regime, not to part1_stable"),
        (["limit", "--model", DRIFT1, "--part2-exponent", "3"],
         "regime, not to gumbel"),
        (["tail", "--model", DRIFT1, "--n", "4", "--m", "1",
          "--t-grid", ","], "--t-grid holds no times"),
        (["tail", "--model", DRIFT1, "--n", "4", "--m", "1",
          "--t-grid", " , ,"], "--t-grid holds no times"),
        (["experiment", "--config", "study.json", "--seed", "3"],
         "usage error: unrecognized arguments: --seed 3"),
        (["limit", "--model", CPP4, "--format", "json"],
         "usage error: unrecognized arguments: --format json"),
        (["verify", "--format", "json"],
         "usage error: unrecognized arguments: --format json"),
        (["tail", "--model", DRIFT1, "--n", "4", "--m", "1",
          "--t-grid", "0.5", "--seed", "1"],
         "usage error: unrecognized arguments: --seed 1"),
        (["tail", "--model", DRIFT_HUGE, "--n", "30", "--m", "1",
          "--t-grid", "0"], "psi(30) = inf is not finite"),
        (["mean-last", "--model", DRIFT_HUGE, "--n", "3"],
         "psi(2) = inf is not finite"),
        (["shock-rates", "--model", DRIFT_HUGE, "--n", "3"],
         "psi(2) = inf is not finite"),
        (["mean-last", "--model", '{"kind":"drift","c":1e-320}', "--n", "3"],
         "mean of the last order statistic = inf is not finite"),
        (["mean-last", "--model", '{"kind":"cpp","lambda":1e-310,"step":'
          '{"kind":"exponential","rate":1}}', "--n", "3"],
         "mean of the last order statistic = inf is not finite"),
        (["experiment", "--config", "study.json", "--workers", "0"],
         "worker count must be >= 1"),
        (["gumbel-bound", "--n", "100", "--out", "no-such-directory/b.csv"],
         "No such file or directory"),
    ], ids=["log10n-inf", "drift-c-inf", "t-grid-nan", "huge-n",
            "top-above-log10n",
            "tiny-exponential-rate", "huge-constant-step",
            "tiny-constant-step", "tiny-pareto-alpha",
            "exponent-zero", "exponent-negative", "exponent-nan",
            "drift-exponent-negative", "normal-exponent",
            "stable-exponent", "drift-exponent", "t-grid-empty", "t-grid-blank",
            "experiment-seed", "limit-format", "verify-format", "tail-seed",
            "tail-psi-overflow", "mean-last-psi-overflow",
            "shock-rates-psi-overflow", "mean-last-drift-overflow",
            "mean-last-cpp-overflow", "workers-zero",
            "out-missing-directory"])
    def test_out_of_range_number_is_one_line_error(self, args, message,
                                                   capsys):
        code, out, err = run(args, capsys)
        assert code == 1
        assert out == ""
        assert len(err.strip().splitlines()) == 1
        assert message in err and "Traceback" not in err

    def test_infinite_schedule_is_one_line_error(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({
            "subordinator": json.loads(CPP25),
            "log10_n": [float("inf")],
            "samples_per_n": 100,
            "seed": 1,
        }))
        assert "Infinity" in path.read_text()
        code, _, err = run(["experiment", "--config", str(path)], capsys)
        assert code == 1
        assert len(err.strip().splitlines()) == 1
        assert "finite" in err and "Traceback" not in err
