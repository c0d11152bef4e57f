import csv
import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import lighttails
from lighttails import cli
from lighttails import functions as fn
from lighttails import verify as vfy
from lighttails.bounds import TailBoundResult

CONFIGS = os.path.join(os.path.dirname(__file__), "..", "configs")


def config(name):
    return os.path.join(CONFIGS, name)


def write_spec(tmp_path, payload, name="spec.json", raw=None):
    path = tmp_path / name
    path.write_text(json.dumps(raw if raw is not None else
                               {"schema": 1, "spec": payload}))
    return str(path)


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_import_leaves_out_scipy_stats_and_integrate():
    # a fresh process, since this one has imported both for the tests; the
    # two entropy integrals run on the package's own rule
    src = os.path.dirname(os.path.dirname(lighttails.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, lighttails.cli; "
            "print([m for m in ('scipy.stats', 'scipy.integrate') if m in sys.modules]); "
            "from lighttails import distributions as D, entropy as ent; "
            "y = D.FiniteSupport([-1.0, 0.2, 1.5], [0.3, 0.5, 0.2]); "
            "ent.fluctuation_entropy(y); ent.log_mgf_via_entropy(y, 1.0); "
            "print('scipy.integrate' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split("\n")[:2] == ["[]", "False"]


class TestNorms:
    def test_exponential_psi1(self, capsys):
        code, out, err = run(capsys, "norms", "--spec", config("exp1.json"),
                             "--alpha", "1")
        assert code == 0 and err == ""
        doc = json.loads(out)
        assert doc["schema"] == 1 and doc["command"] == "norms"
        assert len(doc["config_digest"]) == 64
        assert doc["estimate"]["value"] == pytest.approx(1.0, abs=1e-6)

    def test_upper_bounds_the_value(self, capsys):
        code, out, _ = run(capsys, "norms", "--spec", config("exp1.json"), "--alpha", "1")
        est = json.loads(out)["estimate"]
        assert code == 0 and est["p_star"] == 1.0
        assert est["value"] <= est["upper"] <= est["value"] * (1.0 + 1e-12)

    def test_rademacher_psi2(self, capsys):
        code, out, _ = run(capsys, "norms", "--spec", config("rademacher.json"),
                           "--alpha", "2")
        assert code == 0
        assert json.loads(out)["estimate"]["value"] == pytest.approx(1.0, abs=1e-12)

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "norms", "--spec", config("rademacher.json"),
                           "--alpha", "2", "--format", "csv")
        assert code == 0
        assert out.startswith("key,value\n")
        assert any(line.startswith("estimate.value,") for line in out.split("\n"))


class TestSpecLoading:
    def test_unknown_top_level_key(self, tmp_path, capsys):
        path = write_spec(tmp_path, None, raw={
            "schema": 1, "spec": {"kind": "rademacher"}, "extra_field": 3})
        code, out, err = run(capsys, "norms", "--spec", path, "--alpha", "1")
        assert code == 1 and out == ""
        assert '"$.extra_field"' in err

    def test_wrong_schema(self, tmp_path, capsys):
        path = write_spec(tmp_path, None, raw={"schema": 2, "spec": {}})
        code, _, err = run(capsys, "norms", "--spec", path, "--alpha", "1")
        assert code == 1 and '"$.schema"' in err

    @pytest.mark.parametrize("text, why", [
        ("{", " is not valid JSON: Expecting property name enclosed in double quotes: "
              "line 1 column 2 (char 1)"),
        ('[{"kind": "rademacher"}]', ": top level must be an object"),
        ('{"schema": 1}', ': missing field "$.spec"'),
        # hi - lo overflows: every psi norm read 0, and thm2 a bound of 0
        ('{"schema": 1, "spec": {"kind": "sum", "components": '
         '[{"kind": "uniform", "lo": -1e308, "hi": 1e308}]}}',
         ': "$.spec.components[0]": hi - lo must be finite, got lo=-1e+308, hi=1e+308'),
    ])
    def test_bad_file_text(self, text, why, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text(text)
        code, out, err = run(capsys, "bound", "--spec", str(path), "--bounds", "thm2",
                             "--t-grid", "1:2:2")
        assert (code, out, err) == (1, "", f"error: spec file {path}{why}\n")

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "norms", "--spec", "/nonexistent.json",
                           "--alpha", "1")
        assert code == 1 and "cannot read" in err

    def test_non_utf8_file(self, tmp_path, capsys):
        # used to end in a UnicodeDecodeError traceback
        path = tmp_path / "latin.json"
        path.write_bytes(b'{"schema": 1, "spec": {"kind": "rademacher"}, "x": "\xff"}')
        code, out, err = run(capsys, "norms", "--spec", str(path), "--alpha", "1")
        assert (code, out) == (1, "")
        assert err == (f"error: cannot read spec file {path}: 'utf-8' codec can't decode "
                       "byte 0xff in position 52: invalid start byte\n")

    def test_bad_dist_kind(self, tmp_path, capsys):
        path = write_spec(tmp_path, {"kind": "no-such-law"})
        code, _, err = run(capsys, "norms", "--spec", path, "--alpha", "1")
        assert code == 1 and "no-such-law" in err

    def test_missing_required_flag(self, capsys):
        code, _, err = run(capsys, "norms", "--spec", config("exp1.json"))
        assert code == 1 and "error:" in err

    def test_nested_missing_field_names_json_path(self, tmp_path, capsys):
        path = write_spec(tmp_path, {"kind": "sum",
                                     "components": [{"kind": "exponential"}]})
        code, out, err = run(capsys, "bound", "--spec", path, "--bounds", "thm2",
                             "--t-grid", "1:2:2")
        assert code == 1 and out == ""
        assert '"$.spec.components[0]"' in err and "'rate'" in err
        assert "unknown" not in err

    def test_wrong_type_is_a_usage_error(self, tmp_path, capsys):
        path = write_spec(tmp_path, {"kind": "gaussian", "sd": "x"})
        code, out, err = run(capsys, "bound", "--spec", path, "--bounds", "thm2",
                             "--t-grid", "1:2:2")
        assert code == 1 and out == ""
        assert '"$.spec"' in err and "sd must be a number" in err

    @pytest.mark.parametrize("payload,field", [
        ({"kind": "gaussian", "mean": float("nan")}, "mean"),
        ({"kind": "exponential", "rate": float("inf")}, "rate"),
    ])
    def test_non_finite_parameter_rejected(self, tmp_path, capsys, payload, field):
        path = write_spec(tmp_path, payload)
        for argv in (("norms", "--alpha", "1"),
                     ("bound", "--bounds", "thm2", "--t-grid", "1:2:2")):
            code, out, err = run(capsys, argv[0], "--spec", path, *argv[1:])
            assert code == 1 and out == ""
            assert f"{field} must be finite" in err

    def test_deep_nesting_rejected(self, tmp_path, capsys):
        spec = {"kind": "rademacher"}
        for _ in range(100):
            spec = {"kind": "centered", "base": spec}
        path = write_spec(tmp_path, spec)
        code, _, err = run(capsys, "norms", "--spec", path, "--alpha", "1")
        assert code == 1 and "deeper" in err

    def test_vector_spec_is_not_a_scalar(self, tmp_path, capsys):
        path = write_spec(tmp_path, {"kind": "vector", "dim": 1,
                                     "components": [{"kind": "rademacher"}]})
        code, _, err = run(capsys, "norms", "--spec", path, "--alpha", "1")
        assert code == 1 and "scalar distribution" in err


class TestSpecMemo:
    """Decoded spec files are memoised on their text, never on their path."""

    BOUND = ("--bounds", "thm2", "--t-grid", "1:5:3")

    def test_rewritten_file_is_decoded_afresh(self, tmp_path, capsys):
        path = write_spec(tmp_path, {"kind": "gaussian", "mean": 0.0, "sd": 1.0})
        _, first, _ = run(capsys, "bound", "--spec", path, *self.BOUND)
        write_spec(tmp_path, {"kind": "uniform", "lo": -1.0, "hi": 1.0})
        code, second, err = run(capsys, "bound", "--spec", path, *self.BOUND)
        assert code == 0 and err == "" and second != first
        cli._decode_spec_text.cache_clear()
        assert run(capsys, "bound", "--spec", path, *self.BOUND)[1] == second

    def test_failed_decode_is_not_memoised(self, tmp_path, capsys):
        path = write_spec(tmp_path, {"kind": "exponential", "rate": -1.0})
        code, out, err = run(capsys, "bound", "--spec", path, *self.BOUND)
        assert code == 1 and out == ""
        assert err == f'error: spec file {path}: "$.spec": rate must be positive, got -1.0\n'
        write_spec(tmp_path, {"kind": "exponential", "rate": 1.0})
        code, out, err = run(capsys, "bound", "--spec", path, *self.BOUND)
        assert code == 0 and err == "" and json.loads(out)["bounds"]["thm2"]

    def test_int_and_float_fields_give_one_output(self, tmp_path, capsys, monkeypatch):
        # one argv, digest included, in two directories whose spec files
        # differ only in 2 against 2.0
        outs = []
        for rate in (2, 2.0):
            where = tmp_path / repr(rate)
            where.mkdir()
            write_spec(where, {"kind": "sum", "components": [{"kind": "exponential", "rate": rate}] * 3})
            monkeypatch.chdir(where)
            code, out, err = run(capsys, "bound", "--spec", "spec.json", *self.BOUND)
            assert code == 0 and err == ""
            outs.append(out)
        assert outs[0] == outs[1]


class TestEntropyCheck:
    def test_rademacher(self, capsys):
        code, out, _ = run(capsys, "entropy-check", "--spec",
                           config("rademacher.json"), "--beta", "1.0")
        assert code == 0
        doc = json.loads(out)
        assert doc["subgaussian"]["holds"] is True
        want = math.tanh(1.0) - math.log(math.cosh(1.0))
        assert doc["subgaussian"]["entropy"] == pytest.approx(want, abs=1e-12)
        assert "skipped" in doc["subexponential"]

    @pytest.mark.parametrize("beta", ["1e160", "-1e160"])
    def test_huge_beta(self, capsys, beta):
        code, out, err = run(capsys, "entropy-check", "--spec", config("rademacher.json"),
                             f"--beta={beta}")
        assert (code, err) == (0, "")
        assert json.loads(out)["subgaussian"] == {
            "entropy": math.log(2.0), "bound": 2e160, "holds": True}

    def test_beta_that_overflows(self, capsys):
        assert run(capsys, "entropy-check", "--spec", config("rademacher.json"),
                   "--beta=1e308") == (1, "", "error: --beta is too large for this law: "
                                       "beta=1e+308 overflows 2 beta (Y - E Y)\n")

    def test_continuous_rejected(self, capsys):
        code, _, err = run(capsys, "entropy-check", "--spec", config("exp1.json"))
        assert code == 1 and "finite-support" in err


class TestBoundAndInvert:
    def test_bound_grid(self, capsys):
        code, out, _ = run(capsys, "bound", "--spec", config("sum_exp10.json"),
                           "--bounds", "thm2,bounded-difference",
                           "--t-grid", "1:10:4")
        assert code == 0
        doc = json.loads(out)
        assert doc["t_grid"] == [1.0, 4.0, 7.0, 10.0]
        probs = [r["prob"] for r in doc["bounds"]["thm2"]]
        assert all(b < a for a, b in zip(probs, probs[1:]))
        assert all(r["prob"] == 1.0 for r in doc["bounds"]["bounded-difference"])

    def test_bad_t_grid(self, capsys):
        for grid in ("1:2", "2:1:5", "0:1:5", "a:b:c"):
            code, _, err = run(capsys, "bound", "--spec", config("exp1.json"),
                               "--bounds", "thm2", "--t-grid", grid)
            assert code == 1 and "t-grid" in err

    @pytest.mark.parametrize("command", ["bound", "verify"])
    @pytest.mark.parametrize("grid, need", [
        ("1:inf:3", "finite lo and hi"),
        ("1:-inf:3", "finite lo and hi"),
        ("nan:2:3", "finite lo and hi"),
        ("1:1e400:2", "finite lo and hi"),
        ("1:5:100000000000", "1 <= steps <= 100000"),
        ("1:5:100001", "1 <= steps <= 100000"),
    ])
    def test_t_grid_rejected_before_linspace(self, command, grid, need, capsys,
                                             monkeypatch):
        # 1:inf:3 printed a numpy RuntimeWarning before its error, and
        # 1:5:100000000000 died allocating a 745 GiB grid
        def no_grid(*args, **kwargs):
            raise AssertionError("np.linspace called on a bad --t-grid")
        monkeypatch.setattr(cli.np, "linspace", no_grid)
        argv = [command, "--spec", config("exp1.json"), "--bounds", "thm2",
                "--t-grid", grid]
        if command == "verify":
            argv += ["--n", "20000"]
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err == f"error: --t-grid needs {need}, got {grid!r}\n"

    def test_unknown_bound_kind(self, capsys):
        code, _, err = run(capsys, "bound", "--spec", config("exp1.json"),
                           "--bounds", "thm9", "--t-grid", "1:2:2")
        assert code == 1 and "thm9" in err

    def test_no_bound_kind(self, capsys):
        code, out, err = run(capsys, "bound", "--spec", config("exp1.json"),
                             "--bounds", ",", "--t-grid", "1:2:2")
        assert (code, out, err) == (1, "", "error: --bounds must name at least one bound kind\n")

    def test_invert(self, capsys):
        code, out, _ = run(capsys, "invert", "--spec", config("sum_exp10.json"),
                           "--bounds", "thm2", "--delta", "0.01")
        assert code == 0
        inv = json.loads(out)["inversions"]["thm2"]
        assert 0 < inv["exact"] <= inv["additive"]

    def test_invert_bounded_difference(self, capsys):
        code, out, _ = run(capsys, "invert", "--spec", config("sum_rademacher1.json"),
                           "--bounds", "bounded-difference", "--delta", "0.01")
        assert code == 0
        inv = json.loads(out)["inversions"]["bounded-difference"]
        # one Rademacher coordinate, range 2: exp(-2 t^2 / 4) = delta
        want = math.sqrt(2.0 * math.log(100.0))
        assert inv["exact"] == pytest.approx(want, rel=1e-12)
        assert inv["additive"] == pytest.approx(want, rel=1e-12)

    def test_invert_thm3_psi2_variant(self, capsys):
        code, out, _ = run(capsys, "invert", "--spec", config("sum_rademacher1.json"),
                           "--bounds", "thm3,thm3-psi2-variant", "--delta", "0.01",
                           "--p", "2")
        assert code == 0
        inv = json.loads(out)["inversions"]
        assert 0 < inv["thm3-psi2-variant"]["exact"] <= inv["thm3-psi2-variant"]["additive"]


class TestAppbound:
    def test_vector_ii_value(self, capsys):
        code, out, _ = run(capsys, "appbound", "--app", "vector-ii",
                           "--psi1", "1.0", "--n", "100", "--delta", "0.01")
        assert code == 0
        want = 8 * math.e * math.sqrt(2 * math.log(100) / 100)
        assert json.loads(out)["value"] == pytest.approx(want, rel=1e-12)

    def test_metric(self, capsys):
        code, out, _ = run(capsys, "appbound", "--app", "metric", "--lip", "1.0",
                           "--diameters", "0.5,0.5", "--t", "1.0")
        assert code == 0
        res = json.loads(out)["result"]
        assert res["kind"] == "metric" and 0 < res["prob"] < 1

    def test_precondition_is_usage_error(self, capsys):
        code, _, err = run(capsys, "appbound", "--app", "vector-ii",
                           "--psi1", "1.0", "--n", "100", "--delta", "0.6")
        assert code == 1 and "ln 2" in err

    def test_missing_flag(self, capsys):
        code, _, err = run(capsys, "appbound", "--app", "psa", "--n", "100",
                           "--delta", "0.01")
        assert code == 1 and "--psi2" in err


class TestVerifyCommand:
    def test_sound_run(self, capsys):
        code, out, _ = run(capsys, "verify", "--spec", config("sum_exp10.json"),
                           "--bounds", "thm2", "--t-grid", "2:20:5",
                           "--n", "20000", "--seed", "1")
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "SOUND"
        assert doc["schema"] == 1 and doc["command"] == "verify"

    def test_negative_control_violation(self, capsys):
        code, out, _ = run(capsys, "verify", "--spec",
                           config("sum_rademacher1.json"),
                           "--bounds", "thm2", "--t-grid", "0.5:0.5:1",
                           "--n", "1000000", "--seed", "1", "--negative-control")
        assert code == 2
        assert json.loads(out)["verdict"] == "VIOLATION"

    def test_csv_deterministic_across_threads(self, tmp_path, capsys):
        outputs = []
        for threads in ("1", "8"):
            path = str(tmp_path / f"report-{threads}.csv")
            code, _, _ = run(capsys, "verify", "--spec", config("sum_exp10.json"),
                             "--bounds", "thm2", "--t-grid", "2:20:5",
                             "--n", "200000", "--seed", "3",
                             "--threads", threads, "--format", "csv",
                             "--output", path)
            assert code == 0
            with open(path, "rb") as fh:
                outputs.append(fh.read())
        assert outputs[0] == outputs[1]
        header = outputs[0].decode().split("\n")[0]
        assert header == "t,empirical,cp_lo,cp_hi,thm2,verdict"

    def test_output_is_atomic_and_clean(self, tmp_path, capsys):
        path = str(tmp_path / "out.json")
        code, out, _ = run(capsys, "norms", "--spec", config("rademacher.json"),
                           "--alpha", "1", "--output", path)
        assert code == 0 and out == ""
        with open(path) as fh:
            assert json.load(fh)["command"] == "norms"
        leftovers = [p for p in os.listdir(tmp_path) if p.startswith(".lighttails-")]
        assert leftovers == []

    @pytest.mark.parametrize("command", ["verify", "compare"])
    def test_json_envelope_comes_first(self, command, capsys):
        # the envelope keys used to follow the report's, in another order
        code, out, err = run(capsys, command, "--spec", config("sum_exp10.json"),
                             "--bounds", "thm2", "--t-grid", "2:20:5",
                             "--n", "20000", "--seed", "1")
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert list(doc)[:5] == ["schema", "tool_version", "command", "config_digest", "seed"]
        with open(config("sum_exp10.json")) as fh:
            fspec = fn.fspec_from_dict(json.load(fh)["spec"])
        grid = [2.0, 6.5, 11.0, 15.5, 20.0]
        if command == "compare":
            report = vfy.compare_bounds(fspec, ["thm2"], grid, 20000, 1)
        else:
            report = vfy.check_bounds(vfy.estimate_tail(fspec, grid, 20000, 1),
                                      vfy.bounds_on_grid(fspec, ["thm2"], grid))
        assert doc == {**report.to_dict(), "tool_version": lighttails.__version__,
                       "config_digest": doc["config_digest"], "command": command,
                       "schema": 1, "sampler_layout": "summed"}

    @pytest.mark.parametrize("command", ["verify", "compare"])
    @pytest.mark.parametrize("name, grid, layout", [
        ("sum_exp10.json", "2:20:5", "summed"),
        ("gauss_norm.json", "1:30:5", "chi"),
        ("sum_rademacher1.json", "0.5:1.5:3", "per-coordinate"),
        ("exp1.json", "1:5:3", "per-coordinate"),
    ])
    def test_sampler_layout_in_metadata(self, command, name, grid, layout, capsys):
        code, out, _ = run(capsys, command, "--spec", config(name),
                           "--bounds", "thm2", "--t-grid", grid,
                           "--n", "20000", "--seed", "1")
        assert code == 0
        assert json.loads(out)["sampler_layout"] == layout

    def test_compare_has_ratios(self, capsys):
        code, out, _ = run(capsys, "compare", "--spec", config("sum_exp10.json"),
                           "--bounds", "thm2", "--t-grid", "2:20:3",
                           "--n", "20000", "--seed", "1", "--format", "csv")
        assert code == 0
        assert out.split("\n")[0].endswith("ratio_log10_thm2,verdict")


# command -> (its argv after the command name, (module, name) of the library
# call it makes)
LIBRARY_CALLS = {
    "norms": (["--spec", config("exp1.json"), "--alpha", "1"], (cli, "psi_norm")),
    "entropy-check": (["--spec", config("rademacher.json")],
                      (cli.ent, "entropy_bound_subexponential")),
    "bound": (["--spec", config("exp1.json"), "--bounds", "thm2", "--t-grid", "1:5:3"],
              (cli.vfy, "bounds_on_grid")),
    "invert": (["--spec", config("exp1.json"), "--bounds", "thm2", "--delta", "0.01"],
               (cli, "invert_tail")),
    "appbound": (["--app", "vector-ii", "--psi1", "1", "--n", "100", "--delta", "0.01"],
                 (cli.apps, "vector_bound_ii")),
    "verify": (["--spec", config("exp1.json"), "--bounds", "thm2", "--t-grid", "1:5:3",
                "--n", "10000"], (cli.vfy, "estimate_tail")),
    "compare": (["--spec", config("exp1.json"), "--bounds", "thm2", "--t-grid", "1:5:3",
                 "--n", "10000"], (cli.vfy, "compare_bounds")),
}


class TestErrorBoundary:
    @pytest.mark.parametrize("command", sorted(LIBRARY_CALLS))
    def test_value_error_is_one_error_line(self, command, capsys, monkeypatch):
        # norms and entropy-check used to end in a traceback
        def boom(*args, **kwargs):
            raise ValueError("boom")
        argv, (module, name) = LIBRARY_CALLS[command]
        monkeypatch.setattr(module, name, boom)
        assert run(capsys, command, *argv) == (1, "", "error: boom\n")


class TestCsv:
    def test_bound_cells_are_numbers_or_plain_strings(self, capsys):
        # each bounds.<kind> cell used to hold the Python reprs of its rows
        code, out, _ = run(capsys, "bound", "--spec", config("sum_exp10.json"),
                           "--bounds", "thm2,bounded-difference", "--t-grid", "1:10:4",
                           "--format", "csv")
        rows = list(csv.reader(io.StringIO(out)))
        assert code == 0 and "{'" not in out
        assert rows[0] == ["key", "value"] and all(len(row) == 2 for row in rows)
        cells = dict(rows)
        assert [cells[f"bounds.thm2.{i}.t"] for i in range(4)] == ["1.0", "4.0", "7.0", "10.0"]
        assert float(cells["bounds.thm2.3.prob"]) < float(cells["bounds.thm2.0.prob"]) <= 1.0


class TestDigestStability:
    def test_same_config_same_digest(self, capsys):
        _, out1, _ = run(capsys, "norms", "--spec", config("exp1.json"),
                         "--alpha", "1")
        _, out2, _ = run(capsys, "norms", "--spec", config("exp1.json"),
                         "--alpha", "1")
        assert out1 == out2
        _, out3, _ = run(capsys, "norms", "--spec", config("exp1.json"),
                         "--alpha", "1", "--format", "csv")
        digest3 = dict(line.split(",", 1) for line in out3.splitlines())["config_digest"]
        assert digest3 != json.loads(out1)["config_digest"]

    def test_version_flag(self, capsys):
        code, out, _ = run(capsys, "--version")
        assert code == 0 and out.strip()


class TestParserReuse:
    ARGVS = [
        ["norms", "--spec", config("exp1.json"), "--alpha", "3"],     # usage error
        ["--version"],
        ["norms", "--spec", config("exp1.json"), "--alpha", "1"],
        ["appbound", "--app", "vector-ii", "--psi1", "1", "--n", "100",
         "--delta", "0.01"],
        ["norms", "--spec", config("exp1.json"), "--alpha", "3"],
    ]

    def test_one_parser_per_process(self):
        assert cli._build_parser() is cli._build_parser()

    def test_reused_parser_answers_like_a_fresh_one(self, capsys):
        reused = [run(capsys, *argv) for argv in self.ARGVS]
        fresh = []
        for argv in self.ARGVS:
            cli._build_parser.cache_clear()
            fresh.append(run(capsys, *argv))
        assert reused == fresh
        assert [code for code, _, _ in reused] == [1, 0, 0, 0, 1]
        assert reused[0][2].startswith("error: argument --alpha: invalid choice")

    # main hands an argv that starts with a command to that command's
    # sub-parser; these must answer as through the top-level parser
    DISPATCH_ARGVS = (
        [[command, *argv] for command, (argv, _) in sorted(LIBRARY_CALLS.items())]
        + [[command, "--help"] for command in sorted(LIBRARY_CALLS)]
        + [["norms", "--spec", config("exp1.json")],                          # missing flag
           ["norms", "--spec", config("exp1.json"), "--alpha", "3"],          # invalid choice
           ["norms", "--spec", config("exp1.json"), "--alpha", "1", "--bogus", "1"],
           ["norms", "--spec", config("exp1.json"), "--alpha", "1", "extra"],
           ["appbound", "--app", "vector-ii", "--psi1", "1", "--n", "100", "--del", "0.01"],
           ["invert", "--spec", config("exp1.json"), "--bounds", "thm2", "--delta", "x"],
           ["bound", "--spec", config("exp1.json"), "--bounds", "thm2", "--t-grid", "-1:2:3"],
           ["bound", "--version"],
           ["bound", "--spec", config("exp1.json"), "--bounds", "thm2", "--t-grid", "1:5:3",
            "--version"],
           ["norms", "-h"],
           [], ["frob"], ["bou"], ["--", "norms"], ["--version"], ["--vers"], ["--help"]])

    @pytest.mark.parametrize("argv", DISPATCH_ARGVS,
                             ids=lambda argv: " ".join(os.path.basename(a) for a in argv) or "-")
    def test_direct_dispatch_answers_like_the_top_level_parser(self, argv, capsys, monkeypatch):
        direct = run(capsys, *argv)
        monkeypatch.setattr(cli, "_parse_args", lambda a: cli._build_parser().parse_args(a))
        assert run(capsys, *argv) == direct

    def test_a_command_skips_the_top_level_parser(self, capsys, monkeypatch):
        def no_parse(*args, **kwargs):
            raise AssertionError("the top-level parser parsed a command's argv")
        monkeypatch.setattr(cli._build_parser(), "parse_args", no_parse)
        code, out, _ = run(capsys, "norms", "--spec", config("exp1.json"), "--alpha", "1")
        assert code == 0 and json.loads(out)["command"] == "norms"
        with pytest.raises(AssertionError, match="top-level parser"):
            cli.main(["--version"])


# JSON documents as the library emits them and beyond: nested dicts, lists
# and tuples, NaN, infinities, -0.0, big ints, non-ASCII and control
# characters, and keys of every type json accepts
JSON_STRINGS = st.text() | st.sampled_from(["", "\x00\x1f\x7f", "\u00e9\u2028", "\U0001f600",
                                            "\ud800", '"\\/\b\f\n\r\t'])
JSON_FLOATS = st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e308])
JSON_LEAVES = (st.none() | st.booleans() | st.integers() | st.integers(-10 ** 40, 10 ** 40)
               | JSON_FLOATS | JSON_STRINGS)
JSON_KEYS = JSON_STRINGS | JSON_FLOATS | st.integers() | st.booleans() | st.none()
JSON_DOCS = st.recursive(JSON_LEAVES, lambda kids: (
    st.lists(kids, max_size=4) | st.lists(kids, max_size=4).map(tuple)
    | st.dictionaries(JSON_KEYS, kids, max_size=4)), max_leaves=24)


class TestJsonWriter:
    @settings(max_examples=400, deadline=None)
    @given(JSON_DOCS)
    def test_matches_json_dumps_indent_2(self, doc):
        assert cli._json_text(doc) == json.dumps(doc, indent=2, allow_nan=True)

    @pytest.mark.parametrize("doc", [{"a": {1, 2}}, [1, object()], {(1, 2): 0}], ids=repr)
    def test_refuses_what_json_refuses(self, doc):
        with pytest.raises(TypeError) as want:
            json.dumps(doc, indent=2, allow_nan=True)
        with pytest.raises(TypeError) as got:
            cli._json_text(doc)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("command", sorted(LIBRARY_CALLS))
    def test_output_file_holds_the_stdout_bytes(self, command, tmp_path, capsys):
        argv = [command, *LIBRARY_CALLS[command][0]]
        code, out, err = run(capsys, *argv)
        assert code == 0 and err == "" and out.endswith("}\n")
        path = tmp_path / "out.json"
        assert run(capsys, *argv, "--output", str(path)) == (0, "", "")
        assert path.read_bytes() == out.encode()


def thm3_argv(command, *extra):
    """argv of a thm3 request on sum_exp10 for one of the four bound commands."""
    argv = [command, "--spec", config("sum_exp10.json"), "--bounds", "thm2,thm3"]
    if command == "invert":
        argv += ["--delta", "0.01"]
    else:
        argv += ["--t-grid", "2:20:5"]
    if command in ("verify", "compare"):
        argv += ["--n", "20000", "--seed", "1"]
    return argv + list(extra)


BOUND_COMMANDS = ["bound", "invert", "verify", "compare"]


class TestThm3P:
    def test_invert_p_below_one_is_usage_error(self, capsys):
        # used to end in a ValueError traceback from the proxy profile
        code, out, err = run(capsys, "invert", "--spec", config("sum_exp10.json"),
                             "--bounds", "thm3", "--delta", "0.01", "--p", "0.5")
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "--p > 1" in err

    @pytest.mark.parametrize("command", BOUND_COMMANDS)
    def test_bad_p_fails_before_profile_work(self, command, capsys, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("profile or sampling work before the --p check")
        monkeypatch.setattr(cli.fn, "proxy_profile", no_work)
        monkeypatch.setattr(cli.vfy, "estimate_tail", no_work)
        code, out, err = run(capsys, *thm3_argv(command, "--p", "1.0"))
        assert code == 1 and out == ""
        assert err == "error: the thm3 bound kinds need --p > 1, got 1.0\n"

    @pytest.mark.parametrize("command", BOUND_COMMANDS)
    def test_missing_p_names_the_flag(self, command, capsys):
        code, out, err = run(capsys, *thm3_argv(command))
        assert code == 1 and out == ""
        assert "--p" in err and "l2p_per_coord" not in err

    def test_p_ignored_without_thm3(self, capsys):
        code, _, _ = run(capsys, "bound", "--spec", config("sum_exp10.json"),
                         "--bounds", "thm2", "--t-grid", "2:20:5", "--p", "0.5")
        assert code == 0


class TestPsi2OnlyWhenRead:
    @pytest.mark.parametrize("spec", ["sum_exp10.json", "gauss_norm.json"])
    def test_psi2_norms_only_for_kinds_that_read_them(self, spec, capsys, monkeypatch):
        # a memoised profile reads no norm; start with none
        cli.fn._kind_profile.cache_clear()
        alphas = []
        for name in ("psi_norm", "vector_norm_psi"):
            real = getattr(cli.fn, name)

            def counted(law, alpha, *args, _real=real, **kwargs):
                alphas.append(alpha)
                return _real(law, alpha, *args, **kwargs)
            monkeypatch.setattr(cli.fn, name, counted)
        for command in ("bound", "invert"):
            last = ["--t-grid", "1:20:5"] if command == "bound" else ["--delta", "0.01"]
            code, _, _ = run(capsys, command, "--spec", config(spec), "--bounds",
                             "thm2,thm3,bounded-difference", "--p", "2", *last)
            assert code == 0 and alphas and 2 not in alphas
        run(capsys, "bound", "--spec", config(spec), "--bounds", "thm1",
            "--t-grid", "1:20:5")
        assert 2 in alphas

    def test_non_finite_sample_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setattr(cli.vfy.fn, "sample_f",
                            lambda fspec, seed, count, stream=0: np.full(count, math.nan))
        code, out, err = run(capsys, "verify", "--spec", config("sum_exp10.json"),
                             "--bounds", "thm2", "--t-grid", "2:20:5", "--n", "100000")
        assert code == 1 and out == ""
        assert err == "error: sum: sample value nan in shard 0 is not finite\n"


GAUSS_2 = {"kind": "vector", "dim": 2,
           "components": [{"kind": "gaussian", "mean": 0.0, "sd": 1.0}] * 2}
NON_SUM_KINDS = {
    "metric_lipschitz": {"kind": "metric_lipschitz", "lip": 1.5,
                         "coordinate_dists": [{"kind": "rademacher"},
                                              {"kind": "exponential", "rate": 2.0}],
                         "maps": ["abs", "sin"]},
    "sup_linear_loss": {"kind": "sup_linear_loss", "weights": [[0.3, -0.4]],
                        "loss": "absolute", "input": GAUSS_2,
                        "output": {"kind": "gaussian", "mean": 0.0, "sd": 0.5},
                        "n": 30},
    "psa_reconstruction": {"kind": "psa_reconstruction", "ambient_dim": 2,
                           "subspace_dim": 1, "net_size": 3, "net_seed": 13,
                           "input": GAUSS_2, "n": 30},
}


class TestThm3OnNonSumKinds:
    @pytest.mark.parametrize("command", BOUND_COMMANDS)
    @pytest.mark.parametrize("kind", sorted(NON_SUM_KINDS))
    def test_says_the_kind_has_no_thm3_proxy(self, kind, command, tmp_path,
                                             capsys, monkeypatch):
        def no_sampling(*args, **kwargs):
            raise AssertionError("samples drawn before the profile check")
        monkeypatch.setattr(cli.vfy, "estimate_tail", no_sampling)
        argv = thm3_argv(command, "--p", "2")
        argv[2] = write_spec(tmp_path, NON_SUM_KINDS[kind])
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err == (f"error: the {kind} kind has no 2p-norm proxy, so the "
                       "thm3 bound kinds do not apply to it\n")


NOT_SUB_GAUSSIAN = ("error: coordinate 0 (Exponential(rate=1.0)): its psi2 moment ratio still "
                    "rises at p_max, so the law is not shown to be sub-Gaussian, and the psi2 "
                    "bound kinds thm1 and thm3-psi2-variant do not apply\n")


class TestPsi2KindsNeedSubGaussianLaws:
    @pytest.mark.parametrize("spec", ["exp1.json", "sum_exp10.json"])
    @pytest.mark.parametrize("kind", ["thm1", "thm3-psi2-variant"])
    @pytest.mark.parametrize("command", ["bound", "invert"])
    def test_names_the_coordinate_and_its_law(self, command, kind, spec, capsys):
        # used to fail with "profile is missing psi2_per_coord"
        last = ["--t-grid", "1:5:3"] if command == "bound" else ["--delta", "0.01"]
        code, out, err = run(capsys, command, "--spec", config(spec), "--bounds", kind,
                             "--p", "2", *last)
        assert code == 1 and out == ""
        assert err == NOT_SUB_GAUSSIAN

    @pytest.mark.parametrize("kind", sorted(NON_SUM_KINDS))
    def test_says_the_kind_has_no_psi2_proxy(self, kind, tmp_path, capsys):
        code, out, err = run(capsys, "bound", "--spec", write_spec(tmp_path, NON_SUM_KINDS[kind]),
                             "--bounds", "thm1", "--t-grid", "1:5:3")
        assert code == 1 and out == ""
        assert err == (f"error: the {kind} kind has no psi2 proxy, so the psi2 bound "
                       "kinds thm1 and thm3-psi2-variant do not apply to it\n")


GAUSS = {"kind": "gaussian", "mean": 0.0, "sd": 1.0}
CENTERED_CHI2_1 = {"kind": "centered", "base": {"kind": "chi_squared", "dof": 1}}
CHI2_1_SCALED = {"kind": "scaled", "base": {"kind": "chi_squared", "dof": 1}, "factor": 1.1}
GAUSS_CC = {"kind": "vector", "dim": 2, "components": [GAUSS, CENTERED_CHI2_1]}
GAUSS_EXP = {"kind": "vector", "dim": 2,
             "components": [GAUSS, {"kind": "exponential", "rate": 1.0}]}
VEC_CC = ("VectorSpec(dim=2, components=(Gaussian(mean=0.0, sd=1.0), "
          "Centered(base=ChiSquared(dof=1))), norm_kind='euclidean')")
NOT_CERTIFIED = "its psi1 moment ratio still rises at p_max, so its psi1 norm is not certified"

# kind -> (a spec with a proxy norm not certified up to p_max, the message)
UNCERTIFIED_PROXY_NORMS = {
    # the bench template sum:poisson+chi-squared-1
    "sum": ({"kind": "sum", "components": [{"kind": "poisson", "rate": 1.5}, CHI2_1_SCALED]},
            f"coordinate 1 (Scaled(base=ChiSquared(dof=1), factor=1.1)): {NOT_CERTIFIED}"),
    "vector_norm_of_sum": ({"kind": "vector_norm_of_sum", "vec": GAUSS_CC, "n": 3},
                           f"coordinate 0 ({VEC_CC}): {NOT_CERTIFIED}"),
    "sup_linear_loss": ({"kind": "sup_linear_loss", "weights": [[0.3, -0.4]],
                         "loss": "absolute", "input": GAUSS_2, "output": CENTERED_CHI2_1,
                         "n": 30},
                        f"output (Centered(base=ChiSquared(dof=1))): {NOT_CERTIFIED}"),
    "psa_reconstruction": (
        {"kind": "psa_reconstruction", "ambient_dim": 2, "subspace_dim": 1, "net_size": 3,
         "net_seed": 1, "input": GAUSS_EXP, "n": 20},
        "input (VectorSpec(dim=2, components=(Gaussian(mean=0.0, sd=1.0), "
        "Exponential(rate=1.0)), norm_kind='euclidean')): its psi2 moment ratio still rises "
        "at p_max, so ||X|| is not shown to be sub-Gaussian, which the psa_reconstruction "
        "proxy needs"),
    "metric_lipschitz": ({"kind": "metric_lipschitz", "lip": 1.0,
                          "coordinate_dists": [GAUSS, CENTERED_CHI2_1], "maps": ["abs", "sin"]},
                         f"coordinate 1 (Centered(base=ChiSquared(dof=1))): {NOT_CERTIFIED}"),
}
LAST_ARGS = {"bound": ["--t-grid", "1:5:3"], "invert": ["--delta", "0.01"],
             "verify": ["--t-grid", "1:5:3", "--n", "10000"],
             "compare": ["--t-grid", "1:5:3", "--n", "10000"]}


class TestUncertifiedProxyNorms:
    @pytest.mark.parametrize("command", sorted(LAST_ARGS))
    @pytest.mark.parametrize("kind", sorted(UNCERTIFIED_PROXY_NORMS))
    def test_names_the_coordinate_and_its_law(self, kind, command, tmp_path, capsys):
        # each used to end in a PMaxTooSmallError traceback
        spec, message = UNCERTIFIED_PROXY_NORMS[kind]
        code, out, err = run(capsys, command, "--spec", write_spec(tmp_path, spec),
                             "--bounds", "thm2", *LAST_ARGS[command])
        assert code == 1 and out == ""
        assert err == f"error: {message}\n"


class TestQuadratureFailures:
    # each used to end in a QuadratureError traceback
    @pytest.mark.parametrize("command", sorted(LAST_ARGS))
    def test_2p_norm_names_the_coordinate_and_its_law(self, command, capsys):
        code, out, err = run(capsys, command, "--spec", config("exp1.json"), "--bounds", "thm3",
                             "--p", "1e50", *LAST_ARGS[command])
        assert (code, out) == (1, "")
        assert err == ("error: coordinate 0 (Exponential(rate=1.0)): its 2p-norm is not "
                       "certified: fixed-rule quadrature failed (value inf) at p=2e+50\n")

    @pytest.mark.parametrize("command", sorted(LAST_ARGS))
    def test_p_whose_double_overflows(self, command, capsys):
        code, out, err = run(capsys, command, "--spec", config("exp1.json"), "--bounds", "thm3",
                             "--p", "1e308", *LAST_ARGS[command])
        assert (code, out) == (1, "")
        assert err == "error: --p must be a number whose double is finite, got 1e+308\n"

    def test_norms(self, monkeypatch, capsys):
        def failed_rule(spec, alpha):
            raise cli.dist.QuadratureError("fixed-rule quadrature failed (value inf) at p=3.5")

        monkeypatch.setattr(cli, "psi_norm", failed_rule)
        code, out, err = run(capsys, "norms", "--spec", config("exp1.json"), "--alpha", "1")
        assert (code, out) == (1, "")
        assert err == "error: fixed-rule quadrature failed (value inf) at p=3.5\n"


class TestMetricLipschitzConstant:
    def test_negative_lip_names_the_field(self, tmp_path, capsys):
        # used to fail with "psi1_per_coord entries must be nonnegative"
        spec = {**NON_SUM_KINDS["metric_lipschitz"], "lip": -2.5}
        path = write_spec(tmp_path, spec)
        for command in sorted(LAST_ARGS):
            code, out, err = run(capsys, command, "--spec", path, "--bounds", "thm2",
                                 *LAST_ARGS[command])
            assert code == 1 and out == ""
            assert err == f'error: spec file {path}: "$.spec": lip must be nonnegative, got -2.5\n'

    @pytest.mark.parametrize("lip", [0.0, -0.0])
    def test_zero_lip_is_a_constant_f(self, lip, tmp_path, capsys):
        path = write_spec(tmp_path, {**NON_SUM_KINDS["metric_lipschitz"], "lip": lip})
        code, out, _ = run(capsys, "bound", "--spec", path, "--bounds", "thm2,bounded-difference",
                           "--t-grid", "1:5:3")
        assert code == 0
        rows = [r for rs in json.loads(out)["bounds"].values() for r in rs]
        assert all(r["prob"] == 0.0 and r["note"].startswith("degenerate") for r in rows)
        code, out, _ = run(capsys, "verify", "--spec", path, "--bounds", "thm2",
                           *LAST_ARGS["verify"])
        assert code == 0 and json.loads(out)["verdict"] == "SOUND"


def test_pair_differences_beyond_the_largest_double_are_one_error_line(tmp_path, capsys):
    # the pair law of the psi diameter used to end in numpy's overflow
    # RuntimeWarning, with "values must be finite, got np.float64(inf)"
    law = {"kind": "finite_support", "values": [-1e308, 1e308], "probs": [0.5, 0.5]}
    path = write_spec(tmp_path, {"kind": "metric_lipschitz", "lip": 1.0,
                                 "coordinate_dists": [law], "maps": ["identity"]})
    assert run(capsys, "bound", "--spec", path, "--bounds", "thm2", "--t-grid", "1:2:2") == (
        1, "", "error: values must differ by a finite amount, got min=-1e+308, max=1e+308\n")


class TestNanBound:
    @pytest.mark.parametrize("command", ["verify", "compare"])
    def test_exits_with_one_error_line(self, command, monkeypatch, capsys):
        def nan_bounds(fspec, kinds, t_grid, p=None):
            return {"thm2": [TailBoundResult("thm2", t, math.nan, math.nan) for t in t_grid]}

        monkeypatch.setattr(vfy, "bounds_on_grid", nan_bounds)
        code, out, err = run(capsys, command, "--spec", config("exp1.json"), "--bounds", "thm2",
                             "--t-grid", "1.5:3:2", "--n", "10000", "--seed", "1")
        assert (code, out, err) == (1, "", "error: bound thm2 is NaN at t=1.5\n")


class TestBadNumbers:
    @pytest.mark.parametrize("argv, message", [
        (["entropy-check", "--p", "1"], "--p must be a finite number > 1, got 1.0"),
        (["entropy-check", "--p", "0.5"], "--p must be a finite number > 1, got 0.5"),
        (["entropy-check", "--p", "nan"], "--p must be a finite number > 1, got nan"),
        (["entropy-check", "--p", "inf"], "--p must be a finite number > 1, got inf"),
        (["entropy-check", "--beta", "nan"], "--beta must be a finite number, got nan"),
        (["entropy-check", "--beta", "inf"], "--beta must be a finite number, got inf"),
    ])
    def test_flag_is_named_before_any_work(self, argv, message, capsys, monkeypatch):
        # each of these used to end in a traceback, or in exit 0 with NaN
        def no_work(*args, **kwargs):
            raise AssertionError("work done before the flag check")
        monkeypatch.setattr(cli, "psi_norm", no_work)
        monkeypatch.setattr(cli.ent, "entropy_bound_subgaussian", no_work)
        argv = [argv[0], "--spec", config("rademacher.json")] + argv[1:]
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("command", BOUND_COMMANDS)
    def test_infinite_thm3_p(self, command, capsys, monkeypatch):
        # used to exit 0 with NaN bounds and inversions
        def no_work(*args, **kwargs):
            raise AssertionError("profile or sampling work before the --p check")
        monkeypatch.setattr(cli.fn, "proxy_profile", no_work)
        monkeypatch.setattr(cli.vfy, "estimate_tail", no_work)
        code, out, err = run(capsys, *thm3_argv(command, "--p", "inf"))
        assert code == 1 and out == ""
        assert err == "error: --p must be a finite number, got inf\n"


    @pytest.mark.parametrize("argv, message", [
        (["metric", "--diameters", "1,2", "--t", "1", "--lip", "nan"],
         "--lip must be a finite number, got nan"),
        (["metric", "--diameters", "1,nan", "--t", "1"],
         "--diameters must be finite numbers, got nan"),
        (["metric", "--diameters", "inf,2", "--t", "1"],
         "--diameters must be finite numbers, got inf"),
        (["metric", "--diameters", "1,2", "--t", "inf"],
         "--t must be a finite number, got inf"),
        (["psa", "--psi2", "nan", "--d", "2", "--n", "100", "--delta", "0.01"],
         "--psi2 must be a finite number, got nan"),
        (["vector-iii", "--l2p", "inf", "--psi1", "1", "--p", "2", "--n", "100",
          "--delta", "0.01"], "--l2p must be a finite number, got inf"),
        (["rademacher", "--rad-expectation", "nan", "--psi1", "1", "--n", "100",
          "--delta", "0.01"], "--rad-expectation must be a finite number, got nan"),
        (["regression", "--psi1-z", "inf", "--psi1", "1", "--n", "100",
          "--delta", "0.01"], "--psi1-z must be a finite number, got inf"),
        (["vector-ii", "--psi1", "1", "--n", "100", "--delta", "nan"],
         "--delta must be a finite number, got nan"),
        (["vector-ii", "--psi1", "nan", "--n", "100", "--delta", "0.01"],
         "--psi1 must be finite numbers, got nan"),
        (["vector-i", "--psi1", "1,inf", "--delta", "0.01"],
         "--psi1 must be finite numbers, got inf"),
        (["vector-ii", "--psi1", "1,2", "--n", "100", "--delta", "0.01"],
         "--psi1 must be one number for --app vector-ii"),
        (["vector-ii", "--psi1", "x", "--n", "100", "--delta", "0.01"],
         "bad --psi1: could not convert string to float: 'x'"),
    ])
    def test_appbound_flag_is_named(self, argv, message, capsys, monkeypatch):
        # --lip nan printed "prob": NaN and exited 0; --psi1 1,2 failed
        # without naming --psi1
        def no_work(*args, **kwargs):
            raise AssertionError("a bound computed before the flag check")
        for name in ("vector_bound_i", "vector_bound_ii", "vector_bound_iii", "psa_bound",
                     "rademacher_generalization_bound", "regression_bound", "metric_tail"):
            monkeypatch.setattr(cli.apps, name, no_work)
        code, out, err = run(capsys, "appbound", "--app", *argv)
        assert code == 1 and out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("command", ["verify", "compare"])
    @pytest.mark.parametrize("threads", ["0", "-2"])
    def test_threads_below_one(self, command, threads, capsys):
        # these ran single-threaded and exited 0
        code, out, err = run(capsys, command, "--spec", config("sum_exp10.json"),
                             "--bounds", "thm2", "--t-grid", "2:20:5", "--n", "20000",
                             "--threads", threads)
        assert code == 1 and out == ""
        assert err == f"error: --threads must be an integer >= 1, got {threads}\n"

    @pytest.mark.parametrize("argv, message", [
        (["verify", "--spec", config("exp1.json"), "--bounds", "thm2",
          "--t-grid", "1:5:3", "--n", "5000"], "--n must be an integer >= 10^4, got 5000"),
        (["compare", "--spec", config("exp1.json"), "--bounds", "thm2",
          "--t-grid", "1:5:3", "--n", "9999"], "--n must be an integer >= 10^4, got 9999"),
        (["appbound", "--app", "vector-i", "--psi1", ",", "--delta", "0.1"],
         "--psi1 must list at least one number, got ','"),
        (["appbound", "--app", "metric", "--diameters", ",", "--t", "1"],
         "--diameters must list at least one number, got ','"),
        (["appbound", "--app", "psa", "--psi2", "1", "--d", "0", "--n", "100",
          "--delta", "0.1"], "--d must be an integer >= 1, got 0"),
    ])
    def test_library_limit_names_the_flag(self, argv, message, capsys, monkeypatch):
        # these printed the library's parameter: "n_samples must be >= 10^4",
        # "psi1_per_coord must be nonempty", "subspace dimension must be >= 1"
        def no_work(*args, **kwargs):
            raise AssertionError("work done before the flag check")
        monkeypatch.setattr(cli.vfy, "bounds_on_grid", no_work)
        monkeypatch.setattr(cli.vfy, "compare_bounds", no_work)
        for name in ("vector_bound_i", "psa_bound", "metric_tail"):
            monkeypatch.setattr(cli.apps, name, no_work)
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("command", ["bound", "verify", "compare"])
    def test_negative_t_grid_value(self, command, capsys):
        # argparse read -1:2:3 as an option and failed with "expected one
        # argument"; as a value it gets the same error as --t-grid=-1:2:3
        argv = [command, "--spec", config("sum_exp10.json"), "--bounds", "thm2"]
        if command != "bound":
            argv += ["--n", "20000"]
        split = run(capsys, *argv, "--t-grid", "-1:2:3")
        joined = run(capsys, *argv, "--t-grid=-1:2:3")
        assert split == joined == (
            1, "", "error: --t-grid needs 0 < lo < hi and steps >= 1, got '-1:2:3'\n")

# Every number of the entropy-check blocks at --beta 1 --p 2, pinned to
# 1e-12 relative: the sub-exponential and Holder blocks apply to the
# three-point law and are skipped for the Rademacher law.
THREE_POINT = {"kind": "finite_support", "values": [-0.1, 0.0, 0.05],
               "probs": [0.2, 0.5, 0.3]}
PINNED_ENTROPY_CHECKS = {
    "rademacher": {
        "subgaussian": {"entropy": 0.32781332547273756,
                        "bound": 1.3250027473578645, "holds": True},
        "subexponential": {"skipped": "lemma hypothesis not met: psi1 = 1.0 >= 1/e"},
        "holder": {"p": 2.0,
                   "skipped": "lemma hypothesis not met: q*psi1 = 2.0 >= 1/e"},
    },
    "three_point": {
        "subgaussian": {"entropy": 0.0013216574718530362,
                        "bound": 0.005286334150080105, "holds": True},
        "subexponential": {"entropy": 0.0013216574718530358,
                           "bound": 0.01326956520542329, "holds": True},
        "holder": {"p": 2.0, "entropy": 0.0013216574718530358,
                   "bound": 0.0034654337339587475, "holds": True},
    },
}


class TestPinnedEntropyCheck:
    @pytest.mark.parametrize("law", sorted(PINNED_ENTROPY_CHECKS))
    def test_numbers_unchanged(self, law, tmp_path, capsys):
        spec = (config("rademacher.json") if law == "rademacher"
                else write_spec(tmp_path, THREE_POINT))
        code, out, _ = run(capsys, "entropy-check", "--spec", spec,
                           "--beta", "1.0", "--p", "2")
        assert code == 0
        doc = json.loads(out)
        for block, want in PINNED_ENTROPY_CHECKS[law].items():
            got = doc[block]
            assert sorted(got) == sorted(want)
            for key, value in want.items():
                if isinstance(value, float):
                    assert got[key] == pytest.approx(value, rel=1e-12, abs=0.0)
                else:
                    assert got[key] == value
