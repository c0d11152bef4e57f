import argparse
import contextlib
import csv
import dataclasses
import errno
import hashlib
import io
import json
import math
import os
import pathlib
import runpy
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import lighttails
from adaptive import adaptive_log_moment
from lighttails import applications as apps
from lighttails import cli
from lighttails import distributions as D
from lighttails import functions as fn
from lighttails import orlicz as O
from lighttails import verify as vfy
from lighttails.bounds import TailBoundResult, evaluate_tail
from test_orlicz import _BENCH_WORKLOADS, simd_pin

CONFIGS = os.path.join(os.path.dirname(__file__), "..", "configs")


def config(name):
    return os.path.join(CONFIGS, name)


def config_text(name):
    with open(config(name)) as fh:
        return fh.read()


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

    def test_an_infinite_norm_names_the_law_and_alpha(self, capsys):
        # the message used to name neither, and the norm was "not certified"
        code, out, err = run(capsys, "norms", "--spec", config("exp1.json"), "--alpha", "2")
        assert (code, out) == (1, "")
        assert err == ("error: the psi2 norm of Exponential(rate=1.0) is infinite: Exponential "
                       "laws have finite psi norms only up to alpha = 1\n")

    @pytest.mark.parametrize("alpha", ["1", "2"])
    def test_a_failed_quadrature_names_the_law_and_alpha(self, alpha, tmp_path, capsys):
        # the message named neither the law nor alpha
        spec = write_spec(tmp_path, {"kind": "gaussian", "mean": 1e300, "sd": 1})
        assert run(capsys, "norms", "--spec", spec, "--alpha", alpha) == (
            1, "", f"error: the psi{alpha} norm of Gaussian(mean=1e+300, sd=1.0) is not certified: "
            "fixed-rule quadrature failed (value 0.0) at p=1.0\n")

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

    @pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
    @pytest.mark.parametrize("text", [
        config_text("sum_exp10.json"),
        '{\n  "schema": 1,\n  "spec": {"kind": "rademacher"},\n  bad\n}\n',
    ], ids=["config", "bad-json"])
    def test_a_spec_file_reads_as_its_lf_twin(self, text, newline, tmp_path, capsys):
        # the file is read as bytes and its line ends translated as text mode
        # did; a JSON error names the line, column and char of the LF text
        path, answers = tmp_path / "spec.json", []
        for ends in ("\n", newline):
            path.write_bytes(text.replace("\n", ends).encode())
            answers.append(run(capsys, "bound", "--spec", str(path), "--bounds", "thm2",
                               "--t-grid", "1:5:3"))
        assert answers[0] == answers[1]
        assert answers[0][0] == (1 if "bad" in text else 0)

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


def bound_cold_argvs(seeds, cycles):
    """The argv of every bound-cold request of these seeds and cycles, in
    the benchmark's order, with its spec files written under the directory
    "bound-cold" of the working directory, which the argvs name."""
    workloads = runpy.run_path(str(_BENCH_WORKLOADS))
    pathlib.Path("bound-cold").mkdir(exist_ok=True)
    argvs = []
    for seed in seeds:
        workload = workloads["BoundCold"](seed, "bound-cold")
        for index in cycles:
            for req in workload.cycle(index):
                for path, text in req.files.items():
                    pathlib.Path(path).write_text(text)
                argvs.append(req.argv)
    return argvs


class TestColdPath:
    """The bound-cold requests, run cold in one process, keep every output
    byte: the pin is taken from the version before the quadrature set-up,
    the one-call start and the integer standard-form walk."""

    # sha256 of the stdout of the 66 bound-cold argvs of seeds 1-3, cycles
    # 0-1, one after another from an empty law memo; per SIMD path (`simd_pin`)
    STDOUT_SHA256 = {
        "X86_V4": "ac56c78ad9ce64ca0f7d04c6c2068ec9df65ed30e9680a95957bdd0575e6031a",
        "X86_V3": "ac56c78ad9ce64ca0f7d04c6c2068ec9df65ed30e9680a95957bdd0575e6031a",
    }

    def test_the_cold_requests_keep_their_bytes(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)     # the config digest reads the spec path
        argvs = bound_cold_argvs((1, 2, 3), (0, 1))
        D._laws.clear()
        outs = []
        for argv in argvs:
            code, out, err = run(capsys, *argv)
            assert code == 0 and err == "", argv
            outs.append(out)
        assert len(outs) == 66
        assert hashlib.sha256("".join(outs).encode()).hexdigest() == simd_pin(self.STDOUT_SHA256)

    def test_the_cold_requests_run_no_more_moment_passes(self, tmp_path, capsys, monkeypatch):
        # the 33 requests of cycle 0 from empty memos run 26 moment passes:
        # the centered chi-squared(1) search reads its head and then the
        # rest of the start in two; 25 where it read the whole start in one
        monkeypatch.chdir(tmp_path)
        argvs = bound_cold_argvs((1, 2, 3), (0,))
        D._laws.clear()
        fn._kind_profile.cache_clear()
        cli._decode_spec_text.cache_clear()
        before = D._law_counts["passes"]
        for argv in argvs:
            assert run(capsys, *argv)[0] == 0
        assert len(argvs) == 33 and D._law_counts["passes"] - before <= 26


class TestEntropyCheck:
    def test_a_norm_set_by_its_tail_bound_reads_the_upper(self, tmp_path, capsys):
        # the atom of mass 1e-200 puts p* past 256: the support bounds the
        # ratio there, and the lemmas read that bound, where the norm was
        # refused
        spec = write_spec(tmp_path, {"kind": "finite_support", "values": [0, 1],
                                     "probs": [1, 1e-200]})
        code, out, err = run(capsys, "entropy-check", "--spec", spec)
        assert (code, err) == (0, "")
        doc = json.loads(out)
        y = D.FiniteSupport((-1e-200, 1.0), (1.0, 1e-200))      # Y - E Y
        est = O.psi_norm(y, 1)
        assert est.method == "tail-bound" and est.upper > 2.0 * est.value
        psi1 = est.upper
        assert doc["subexponential"]["bound"] == math.e ** 2 * psi1 ** 2 / (1.0 - math.e * psi1) ** 2
        assert doc["subgaussian"]["holds"] and doc["subexponential"]["holds"]

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

    @pytest.mark.parametrize("beta", ["1e308", "-1e308"])
    def test_a_beta_whose_double_overflows(self, tmp_path, capsys, beta):
        # 2 beta (Y - E Y) = +-1e308 is finite: the bound is read, not NaN
        spec = write_spec(tmp_path, {"kind": "finite_support", "values": [0.0, 1.0],
                                     "probs": [0.5, 0.5]})
        code, out, err = run(capsys, "entropy-check", "--spec", spec, f"--beta={beta}")
        assert (code, err) == (0, "")
        assert json.loads(out)["subgaussian"] == {
            "entropy": math.log(2.0), "bound": 1e308 - math.log(2.0), "holds": True}

    def test_beta_that_overflows(self, capsys):
        assert run(capsys, "entropy-check", "--spec", config("rademacher.json"),
                   "--beta=1e308") == (1, "", "error: --beta is too large for this law: "
                                       "beta=1e+308 overflows 2 beta (Y - E Y)\n")

    def test_one_entropy_across_the_blocks(self, tmp_path, capsys):
        # the sub-Gaussian block centered the centered law once more and
        # read 0.0005795506551927248, 2 ulps above the other blocks
        spec = write_spec(tmp_path, {"kind": "finite_support", "values": [-0.1, -0.03, 0.02],
                                     "probs": [0.1, 0.6, 0.3]})
        code, out, err = run(capsys, "entropy-check", "--spec", spec, "--beta", "1", "--p", "2")
        assert (code, err) == (0, "")
        doc = json.loads(out)
        entropies = {doc[block]["entropy"] for block in ("subgaussian", "subexponential", "holder")}
        assert len(entropies) == 1
        assert entropies.pop() == pytest.approx(0.0005795506551927246, rel=1e-12, abs=0.0)

    def test_a_law_whose_centering_overflows_is_one_error_line(self, tmp_path, capsys):
        # Y - E Y overflowed in numpy's subtract, a RuntimeWarning traceback
        spec = write_spec(tmp_path, {"kind": "finite_support", "values": [-1.7e308, 1.7e308],
                                     "probs": [0.9, 0.1]})
        assert run(capsys, "entropy-check", "--spec", spec) == (
            1, "", "error: FiniteSupport(values=(-1.7e+308, 1.7e+308), probs=(0.9, 0.1)) after "
            "the map step Shifted(offset=1.3600000000000001e+308): values must be finite, got inf\n")

    def test_continuous_rejected(self, capsys):
        code, _, err = run(capsys, "entropy-check", "--spec", config("exp1.json"))
        assert code == 1 and "finite-support" in err

    def test_holder_at_a_large_p_holds(self, tmp_path, capsys):
        # 0.3^2000 underflowed: "bound": 0.0, "holds": false
        spec = write_spec(tmp_path, {"kind": "finite_support", "values": [-0.3, 0.3],
                                     "probs": [0.5, 0.5]})
        code, out, err = run(capsys, "entropy-check", "--spec", spec, "--p", "1000")
        assert (code, err) == (0, "")
        holder = json.loads(out)["holder"]
        assert holder["holds"] is True
        assert holder["bound"] == pytest.approx(1.3335159584070306, rel=1e-12)

    def test_p_whose_double_overflows(self, capsys):
        assert run(capsys, "entropy-check", "--spec", config("rademacher.json"),
                   "--p", "1e308") == (
            1, "", "error: --p must be a number whose double is finite, got 1e+308\n")


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
    def test_t_grid_rejected_before_linspace(self, command, grid, need, capsys):
        # 1:inf:3 printed a numpy RuntimeWarning before its error, and
        # 1:5:100000000000 died allocating a 745 GiB grid; the grid is built
        # after these checks, and no longer by np.linspace
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


@st.composite
def t_grids(draw):
    """(lo, hi, steps) that --t-grid accepts: subnormal and huge ends, steps
    down to 1 (where hi may lie below lo) and up to MAX_T_STEPS, and deltas
    of a few subnormal units, whose step underflows to 0."""
    tiny = 5e-324
    steps = draw(st.integers(1, 40) | st.sampled_from([1, 2, 3, cli.MAX_T_STEPS]))
    lo = draw(st.floats(min_value=tiny, max_value=1e300) | st.integers(1, 40).map(tiny.__mul__))
    how = draw(st.sampled_from(["units", "float"] + ["below"] * (steps == 1)))
    if how == "units":
        hi = lo + draw(st.integers(1, 80)) * tiny
    elif how == "float":
        hi = draw(st.floats(min_value=lo, max_value=1.7e308, exclude_min=True))
    else:
        hi = draw(st.floats(allow_nan=False, allow_infinity=False))
    assume(steps == 1 or hi > lo)
    return lo, hi, steps


class TestTGrid:
    @settings(max_examples=300, deadline=None)
    @given(t_grids())
    def test_the_grid_is_np_linspace_s_bit_for_bit(self, grid):
        # one step is lo, which np.linspace gives wherever hi - lo is finite
        lo, hi, steps = grid
        want = [lo] if steps == 1 else np.linspace(lo, hi, steps).tolist()
        got = cli._parse_t_grid(f"{lo!r}:{hi!r}:{steps}")
        assert list(map(float.hex, got)) == list(map(float.hex, want))

    @pytest.mark.parametrize("text", ["5e-324:1e-323:3", "5e-324:1.5e-323:7", "1:2:1",
                                      "3:1:1", "0.5:20:100000"])
    def test_edges(self, text):
        lo, hi, steps = text.split(":")
        want = np.linspace(float(lo), float(hi), int(steps)).tolist()
        assert list(map(float.hex, cli._parse_t_grid(text))) == list(map(float.hex, want))

    def test_one_step_far_below_lo_is_lo(self, capsys):
        # hi - lo overflows to -inf, so np.linspace's one step, 0 * (hi - lo)
        # + lo, is NaN; the grid is lo, and the request runs
        assert cli._parse_t_grid("1e308:-1e308:1") == [1e308]
        code, out, err = run(capsys, "bound", "--spec", config("exp1.json"), "--bounds", "thm2",
                             "--t-grid", "1e308:-1e308:1")
        assert (code, err) == (0, "") and json.loads(out)["t_grid"] == [1e308]


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

    @pytest.mark.parametrize("argv, want", [
        (["vector-iii", "--l2p", "1.5", "--psi1", "0.7", "--p", "3", "--n", "200",
          "--delta", "0.02"], apps.vector_bound_iii(1.5, 0.7, 3.0, 200, 0.02)),
        (["rademacher", "--rad-expectation", "0.25", "--lip", "2", "--psi1", "0.7",
          "--n", "200", "--delta", "0.02"],
         apps.rademacher_generalization_bound(0.25, 2.0, 0.7, 200, 0.02)),
        (["regression", "--lip", "2", "--psi1", "0.7", "--psi1-z", "0.3", "--n", "200",
          "--delta", "0.02"], apps.regression_bound(2.0, 0.7, 0.3, 200, 0.02)),
    ], ids=["vector-iii", "rademacher", "regression"])
    def test_value_is_the_library_bound(self, argv, want, capsys):
        code, out, err = run(capsys, "appbound", "--app", *argv)
        assert (code, err) == (0, "")
        assert json.loads(out)["value"] == want


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

    @pytest.mark.parametrize("where, reason", [("", errno.EISDIR),
                                               ("missing/out.json", errno.ENOENT)],
                             ids=["directory", "missing-directory"])
    def test_unwritable_output_is_one_error_line(self, where, reason, tmp_path, capsys):
        # an IsADirectoryError and a FileNotFoundError traceback
        path = str(tmp_path / where)
        code, out, err = run(capsys, "norms", "--spec", config("rademacher.json"),
                             "--alpha", "1", "--output", path)
        assert (code, out) == (1, "")
        assert err == f"error: cannot write --output {path}: {os.strerror(reason)}\n"
        assert os.listdir(tmp_path) == []

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

    @pytest.mark.parametrize("command", sorted(LIBRARY_CALLS))
    def test_digest_is_of_the_config_encoded_whole(self, command, capsys):
        # the digest splices the memoised payload text into the config; it
        # must hash the bytes of the whole config encoded at once
        argv = [command, *LIBRARY_CALLS[command][0]]
        args = cli._parse_args(argv)
        cfg = {k: v for k, v in vars(args).items() if k != "output"}
        if "spec" in cfg:
            spec, _ = cli._load_spec(args.spec, scalar=command in ("norms", "entropy-check"))
            cfg["spec_payload"] = D.spec_to_dict(spec)
        want = hashlib.sha256(json.dumps(cfg, sort_keys=True).encode()).hexdigest()
        code, out, _ = run(capsys, *argv)
        assert code == 0 and json.loads(out)["config_digest"] == want

    def test_a_path_holding_the_payload_key_digests_the_whole_config(self, tmp_path, capsys):
        # the payload text is spliced in at the key "spec_payload", never at
        # a value that reads like it
        path = tmp_path / 'x", "spec_payload": null, "y.json'
        path.write_text(config_text("exp1.json"))
        argv = ["norms", "--spec", str(path), "--alpha", "1"]
        cfg = {k: v for k, v in vars(cli._parse_args(argv)).items() if k != "output"}
        cfg["spec_payload"] = D.spec_to_dict(cli._load_spec(str(path), scalar=True)[0])
        want = hashlib.sha256(json.dumps(cfg, sort_keys=True).encode()).hexdigest()
        code, out, _ = run(capsys, *argv)
        assert code == 0 and json.loads(out)["config_digest"] == want

    def test_the_payload_text_is_the_spec_s_sorted_json(self):
        # the payload text the digest splices in is the decoded spec's own
        # JSON form, sorted, whatever the file wrote: on the bound-cold spec
        # texts of seeds 1-5, cycles 0-2, and on -0.0, int-valued float
        # fields, omitted defaults and nested wrappers
        workloads = runpy.run_path(str(_BENCH_WORKLOADS))
        texts = [text for seed in range(1, 6) for index in range(3)
                 for req in workloads["BoundCold"](seed, "unused").cycle(index)
                 for text in req.files.values()]
        assert len(texts) == 165
        specs = [{"kind": "gaussian", "mean": -0.0, "sd": 2},
                 {"kind": "gaussian"},
                 {"kind": "sum", "components": [{"kind": "centered", "base": {"kind": "scaled", "base": {
                     "kind": "shifted", "base": {"kind": "exponential", "rate": 1}, "offset": -0.0},
                     "factor": 3}}, {"kind": "finite_support", "values": [-1, 0.0, 2], "probs": [0.5, 0.25, 0.25]}]},
                 {"kind": "metric_lipschitz", "lip": 1, "coordinate_dists": [{"kind": "chi_squared", "dof": 2}],
                  "maps": ["abs"]}]
        texts += [json.dumps({"schema": 1, "spec": spec}) for spec in specs]
        for text in texts:
            spec, payload = cli._decode_spec_text(text, False)
            assert payload == cli._SORTED_JSON(D.spec_to_dict(spec))
        payload = cli._decode_spec_text(texts[165], True)[1]
        assert payload == '{"kind": "gaussian", "mean": -0.0, "sd": 2.0}'
        assert cli._decode_spec_text(texts[166], True)[1] == '{"kind": "gaussian", "mean": 0.0, "sd": 1.0}'
        payload = cli._decode_spec_text(texts[167], False)[1]
        for field in ('"factor": 3.0', '"offset": -0.0', '"rate": 1.0', '"values": [-1.0, 0.0, 2.0]'):
            assert field in payload

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

    def test_a_well_formed_argv_builds_no_parser(self, capsys):
        cli._build_parser.cache_clear()
        assert run(capsys, "norms", "--spec", config("exp1.json"), "--alpha", "1")[0] == 0
        assert run(capsys, "appbound", "--app", "vector-ii", "--psi1", "1", "--n", "100",
                   "--delta", "0.01")[0] == 0
        assert run(capsys, *TestFastParse.BOUND)[0] == 0
        assert cli._build_parser.cache_info().currsize == 0
        # nor in a fresh process, whose import builds none either
        code = ("import contextlib, io; from lighttails import cli\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                f"    code = cli.main({list(TestFastParse.BOUND)!r})\n"
                "print(code, cli._build_parser.cache_info().currsize)")
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(lighttails.__file__)))
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.split() == ["0", "0"]

    @pytest.mark.parametrize("argv, code", [
        (["norms", "--spec", config("exp1.json"), "--alpha", "3"], 1),
        (["invert", "--spec", config("exp1.json"), "--bounds", "thm2", "--delta", "x"], 1),
        (["bound", "--spe", config("exp1.json"), "--bounds", "thm2", "--t-grid", "1:5:3"], 0),
        (["appbound", "-h"], 0),
        (["verify", "--help"], 0),
    ], ids=lambda v: " ".join(v[:1] + v[-2:]) if isinstance(v, list) else None)
    def test_help_or_a_deferred_argv_builds_the_one_parser(self, argv, code, capsys):
        cli._build_parser.cache_clear()
        assert run(capsys, *argv)[0] == code
        assert cli._build_parser.cache_info()[:2] == (0, 1)      # hits, misses
        cli._build_parser()
        assert cli._build_parser.cache_info()[:2] == (1, 1)

    # sha256 of each --help output at COLUMNS=80, from the version that built
    # every sub-parser in the top-level parser; the same on Python 3.10 and 3.11
    HELP_SHA256 = {
        "": "18ce753f1a1e0f1907ee0b368bd77eb46780d0c22d29b9463a000025b47af0d4",
        "norms": "6f30030d64279b57bfce9809041e756c4ad7679e220230c3b025ffbff7fcba91",
        "entropy-check": "4fe70c51715c0b83f58831e14d3ae79fc2c9e447233498de52706eabd95a7827",
        "bound": "c3aa80b6bddf36ce307a637e13329d34ed65359520141e3ee4b083b58ac6c0d3",
        "invert": "f1f7b821a09cb849dc9d8361b8c4b76d9b47a5daffd75b6c97bac00e0ec47ab5",
        "appbound": "a36b556093967a0292684bdb0db2af6756455208687a4501cd6fde1241802e05",
        "verify": "8837e7e8f85cfeade499eaf4c67df6513a172ff5a2a96cb41e8a09080d9bbcc2",
        "compare": "3ffefc27aa38d86e739847d6a64a4e68df8d9b3c20d310d0aeea07a9b4a7782f",
    }

    @pytest.mark.parametrize("command", sorted(HELP_SHA256))
    def test_help_is_byte_identical(self, command, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        cli._build_parser.cache_clear()
        code, out, err = run(capsys, *([command] if command else []), "--help")
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == self.HELP_SHA256[command]
        cli._build_parser.cache_clear()

    def test_reused_parser_answers_like_a_fresh_one(self, capsys):
        reused = [run(capsys, *argv) for argv in self.ARGVS]
        fresh = []
        for argv in self.ARGVS:
            cli._build_parser.cache_clear()
            fresh.append(run(capsys, *argv))
        assert reused == fresh
        assert [code for code, _, _ in reused] == [1, 0, 0, 0, 1]
        assert reused[0][2].startswith("error: argument --alpha: invalid choice")

    # main reads an argv that starts with a command against its flag table
    # where it can; these must answer as through the top-level parser
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


def _command_parser(command):
    """Command's sub-parser, as the top-level parser holds it."""
    return next(a for a in cli._build_parser()._actions if a.dest == "command").choices[command]


def _argparse_answer(command, argv):
    """The top-level parser's parse_args([command, *argv]) without its
    command, or None where it is an error or -h."""
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            args = cli._build_parser().parse_args([command, *argv])
    except (cli.UsageError, SystemExit):
        return None
    del args.command
    return args


# value tokens for a flag: its own choices and numbers, and the tokens with a
# leading '-' that argparse reads as a number or as an option
EDGE_VALUES = ["-1", "-1:2:3", "-.5", "-1e3", "-x", "--p", "--spec", "-", "", "x", "nan",
               "-inf", "1e400", "0", "1.5", "1,2", " 1", "-1 x"]


def _value_tokens(action):
    if action.choices is not None:
        good = st.sampled_from([str(c) for c in action.choices])
    elif action.type is int:
        good = st.integers(-10 ** 6, 10 ** 6).map(str)
    elif action.type is float:
        good = st.floats().map(repr) | st.integers(-99, 99).map(str)
    else:
        good = st.text(alphabet="ab,.:/-_1 =", max_size=8)
    return st.integers(0, 3).flatmap(lambda k: good if k else st.sampled_from(EDGE_VALUES))


def _mutate(draw, argv):
    """argv with one change of a kind the fast parse defers on: -h, --, an
    unknown flag, a dropped token, an abbreviated flag, --flag=value or a
    repeated flag."""
    i = draw(st.integers(0, len(argv)))
    flags = [j for j, token in enumerate(argv) if token.startswith("--") and len(token) > 3]
    j = draw(st.sampled_from(flags or [None]))
    how = draw(st.sampled_from(["-h", "--", "--bogus", "drop", "abbreviate", "=", "repeat"]))
    if how in ("-h", "--", "--bogus"):
        return argv[:i] + [how] + argv[i:]
    if how == "drop":
        return argv[:i] + argv[i + 1:]
    if j is None:
        return argv
    if how == "abbreviate":
        return argv[:j] + [argv[j][:draw(st.integers(2, len(argv[j]) - 1))]] + argv[j + 1:]
    if how == "=" and j + 1 < len(argv):
        return argv[:j] + [f"{argv[j]}={argv[j + 1]}"] + argv[j + 2:]
    return argv + argv[j:j + 2]     # a repeated flag


@st.composite
def command_argvs(draw, command):
    """An argv of command's sub-parser: its flags in any order, each with a
    value token, the required ones mostly present, then up to two mutations."""
    parser = _command_parser(command)
    argv = []
    for action in draw(st.permutations(parser._actions)):
        if action.default is argparse.SUPPRESS or not (action.required or draw(st.booleans())):
            continue
        if action.required and draw(st.integers(0, 9)) == 0:
            continue    # a missing required flag
        argv.append(action.option_strings[0])
        if action.nargs != 0:
            argv.append(draw(_value_tokens(action)))
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        argv = _mutate(draw, argv)
    return argv


class TestFastParse:
    """cli._fast_parse answers a well-formed argv as the top-level parser
    would, and defers any other argv to that parser."""

    @pytest.mark.parametrize("command", sorted(cli._SUBCOMMANDS))
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_an_answer_is_argparse_s(self, command, data):
        argv = data.draw(command_argvs(command))
        fast = cli._fast_parse(command, argv)
        if fast is not None:        # repr, since NaN != NaN
            assert repr(fast) == repr(_argparse_answer(command, argv))

    WELL_FORMED = [
        *[[command, *argv] for command, (argv, _) in sorted(LIBRARY_CALLS.items())],
        ["bound", "--spec", config("sum_exp10.json"), "--bounds", "thm2,thm3",
         "--t-grid", "-1:2:3", "--p", "-.5", "--format", "csv", "--output", "out.csv"],
        ["verify", "--negative-control", "--spec", config("exp1.json"), "--bounds", "thm2",
         "--t-grid", "1:5:3", "--n", "10000", "--seed", "-3", "--threads", "2"],
        ["appbound", "--app", "metric", "--diameters", "1,2", "--t", "nan", "--lip", "-1e3"],
        ["entropy-check", "--spec", "", "--beta", " 1 "],
    ]

    @pytest.mark.parametrize("argv", WELL_FORMED, ids=lambda argv: argv[0])
    def test_a_well_formed_argv_is_answered(self, argv):
        fast = cli._fast_parse(argv[0], argv[1:])
        assert fast is not None
        assert repr(fast) == repr(_argparse_answer(argv[0], argv[1:]))

    BOUND = ["bound", "--spec", config("exp1.json"), "--bounds", "thm2", "--t-grid", "1:5:3"]
    DEFERRED = {
        "help": BOUND + ["-h"],
        "long-help": ["norms", "--help"],
        "abbreviation": ["bound", "--spe", *BOUND[2:]],
        "flag=value": ["bound", f"--spec={BOUND[2]}", *BOUND[3:]],
        "repeated-flag": BOUND + ["--t-grid", "2:6:3"],
        "repeated-store-true": ["verify", *BOUND[1:], "--n", "10000", "--negative-control",
                                "--negative-control"],
        "double-dash": ["bound", "--spec", "--", *BOUND[2:]],
        "option-like-value": BOUND[:-1] + ["-x"],
        "flag-as-value": ["bound", "--spec", "--bounds", "thm2", "--t-grid", "1:5:3"],
        "missing-value": BOUND[:-1],
        "bad-type": ["invert", *BOUND[1:5], "--delta", "x"],
        "bad-choice": ["norms", "--spec", config("exp1.json"), "--alpha", "3"],
        "missing-required-flag": ["norms", "--spec", config("exp1.json")],
        "unknown-flag": BOUND + ["--bogus", "1"],
        "extra-word": BOUND + ["extra"],
    }

    @pytest.mark.parametrize("case", sorted(DEFERRED))
    def test_deferred_argv_answers_as_argparse(self, case, capsys, monkeypatch):
        argv = self.DEFERRED[case]
        assert cli._fast_parse(argv[0], argv[1:]) is None
        direct = run(capsys, *argv)
        monkeypatch.setattr(cli, "_parse_args", lambda a: cli._build_parser().parse_args(a))
        assert run(capsys, *argv) == direct

    def test_the_last_repeated_value_wins(self, capsys):
        code, once, _ = run(capsys, *self.BOUND[:-1], "2:6:3")
        assert code == 0 and run(capsys, *self.BOUND, "--t-grid", "2:6:3")[1] == once

    CONFIGS = ("exp1", "rademacher", "gauss_norm", "sum_exp10", "sum_rademacher1")

    def _corpus(self):
        for name in self.CONFIGS:
            spec = ["--spec", config(f"{name}.json")]
            grid = ["--bounds", "thm1,thm2,thm3", "--t-grid", "1:10:4", "--p", "2"]
            yield ["norms", *spec, "--alpha", "1"]
            yield ["entropy-check", *spec, "--beta", "0.5", "--p", "2"]
            yield ["bound", *spec, *grid, "--format", "csv"]
            yield ["invert", *spec, "--bounds", "thm2,thm3", "--p", "2", "--delta", "0.01"]
            yield ["verify", *spec, *grid, "--n", "10000", "--negative-control"]
            yield ["compare", *spec, "--bounds", "thm2", "--t-grid", "1:10:4", "--n", "10000"]
        yield ["appbound", "--app", "vector-ii", "--psi1", "1", "--n", "100", "--delta", "0.01"]

    def test_the_configs_print_the_bytes_argparse_gives(self, capsys, monkeypatch):
        fast = [run(capsys, *argv) for argv in self._corpus()]
        monkeypatch.setattr(cli, "_fast_parse", lambda name, argv: None)
        assert [run(capsys, *argv) for argv in self._corpus()] == fast
        assert {code for code, _, _ in fast} == {0, 1}


# JSON documents as the library emits them and beyond: nested dicts, lists
# and tuples, NaN, infinities, -0.0, big ints, and non-ASCII, control and
# format characters in values and in the str keys
JSON_STRINGS = st.text() | st.sampled_from(["", "\x00\x1f\x7f", "\u00e9\u2028", "\U0001f600",
                                            "\ud800", '"\\/\b\f\n\r\t', "%", "%s", "a%%b"])
JSON_FLOATS = st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e308])
JSON_LEAVES = (st.none() | st.booleans() | st.integers() | st.integers(-10 ** 40, 10 ** 40)
               | JSON_FLOATS | JSON_STRINGS)
JSON_DOCS = st.recursive(JSON_LEAVES, lambda kids: (
    st.lists(kids, max_size=4) | st.lists(kids, max_size=4).map(tuple)
    | st.dictionaries(JSON_STRINGS, kids, max_size=4)), max_leaves=24)


class TestJsonWriter:
    @settings(max_examples=400, deadline=None)
    @given(JSON_DOCS)
    def test_matches_json_dumps_indent_2(self, doc):
        assert cli._json_text(doc) == json.dumps(doc, indent=2, allow_nan=True)

    def test_keys_with_format_marks_and_escapes(self):
        # a key is spliced into its layout, whose values go in by %
        doc = {"%": 1.5, "%s": "%s", "a%%b": [{"%d": None}], "\u00e9\U0001f600": True,
               "\x00\n\x7f": -0.0, '"\\': {"%": "%%"}}
        assert cli._json_text(doc) == json.dumps(doc, indent=2)

    def test_float_subclasses_read_as_json_writes_them(self):
        doc = {"t": [np.float64(0.1), np.float64(-0.0), np.float64(np.inf)],
               "nan": np.float64(np.nan), "big": np.float64(1e308)}
        assert cli._json_text(doc) == json.dumps(doc, indent=2, allow_nan=True)

    def test_zero_and_negative_zero_keep_their_texts(self):
        doc = {"t": [0.0, -0.0, 0.0, 1.5], "z": -0.0, "row": {"a": 0.0, "b": -0.0},
               "again": [-0.0, 0.0, 1.5]}
        assert cli._json_text(doc) == json.dumps(doc, indent=2)

    def test_one_shape_at_two_depths_keeps_each_indent(self):
        cli._layout.cache_clear()
        doc = {"a": {"a": {"a": 1.0}, "b": [{"a": 2.0}]}}
        assert cli._json_text(doc) == json.dumps(doc, indent=2)

    def test_more_shapes_than_the_layout_bound(self):
        cli._layout.cache_clear()
        doc = [{f"k{i}": float(i), "t": 0.5} for i in range(cli._LAYOUTS + 40)]
        want = json.dumps(doc, indent=2)
        assert cli._json_text(doc) == want
        assert cli._layout.cache_info().currsize == cli._LAYOUTS
        assert cli._json_text(doc) == want      # laid out anew past the bound
        assert cli._layout.cache_info().currsize == cli._LAYOUTS

    @pytest.mark.parametrize("doc", [{"a": {1, 2}}, [1, object()], [np.int64(1)]], ids=repr)
    def test_refuses_what_json_refuses(self, doc):
        with pytest.raises(TypeError) as want:
            json.dumps(doc, indent=2, allow_nan=True)
        with pytest.raises(TypeError) as got:
            cli._json_text(doc)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("doc", [{1: 0.5}, {"a": 1, None: 2}, {"a": {(1, 2): 0}}, {1.5: "x"}],
                             ids=repr)
    def test_a_key_that_is_not_a_str_is_a_type_error(self, doc):
        with pytest.raises(TypeError):
            cli._json_text(doc)

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

    @pytest.mark.parametrize("p", ["2", "4", "8", "128"])
    def test_the_2p_norms_read_rows_of_the_psi_search(self, p, tmp_path, capsys, monkeypatch):
        # 2p is an octave.  The psi1 search of each centered shape reads the
        # octaves up to 8 on its first call, and its MGF bounds the ratio
        # past 8, so a cold thm3 request runs no moment pass after the
        # searches at 2p <= 8, and one pass of the one order 2p per shape
        # past it
        spec = write_spec(tmp_path, {"kind": "sum", "components": [
            {"kind": "exponential", "rate": 1.3}, {"kind": "exponential", "rate": 0.4},
            {"kind": "poisson", "rate": 2.0}, {"kind": "chi_squared", "dof": 3}]})
        cli.fn._kind_profile.cache_clear()
        D._laws.clear()
        searching, searches, passes = [], [], []
        real_search, real_rows = O._sup_ratio, D._Record._rows

        def search(*args):
            searching.append(True)
            searches.append(args)
            try:
                return real_search(*args)
            finally:
                searching.pop()

        def rows(law, ps):
            if not searching and any(q not in (law.rows or {}) for q in ps.tolist()):
                passes.append((law.spec, ps.tolist()))
            return real_rows(law, ps)

        monkeypatch.setattr(O, "_sup_ratio", search)
        monkeypatch.setattr(D._Record, "_rows", rows)
        code, _, _ = run(capsys, "bound", "--spec", spec, "--bounds", "thm2,thm3",
                         "--p", p, "--t-grid", "2:20:5")
        shapes = [D.Centered(D.Exponential(1.0)), D.Centered(D.Poisson(2.0)),
                  D.Centered(D.ChiSquared(3))]
        read = [(law, [2.0 * float(p)]) for law in shapes] if float(p) > 4 else []
        assert code == 0 and len(searches) == 3 and passes == read

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
                            lambda fspec, seed, count, stream=0, work=None: np.full(count, math.nan))
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


NOT_SUB_GAUSSIAN = ("error: coordinate 0: the psi2 norm of Centered(base=Exponential(rate=1.0)) "
                    "is infinite: Exponential laws have finite psi norms only up to alpha = 1\n")


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
# kind -> a spec whose proxy psi1 norm reads a tail bound past p = 256 (the
# centered chi-squared_1 law), where the last-octave test refused it
CERTIFIED_PAST_P_MAX = {
    # the bench template sum:poisson+chi-squared-1
    "sum": {"kind": "sum", "components": [{"kind": "poisson", "rate": 1.5}, CHI2_1_SCALED]},
    "vector_norm_of_sum": {"kind": "vector_norm_of_sum", "vec": GAUSS_CC, "n": 3},
    "sup_linear_loss": {"kind": "sup_linear_loss", "weights": [[0.3, -0.4]], "loss": "absolute",
                        "input": GAUSS_2, "output": CENTERED_CHI2_1, "n": 30},
    "metric_lipschitz": {"kind": "metric_lipschitz", "lip": 1.0,
                         "coordinate_dists": [GAUSS, CENTERED_CHI2_1], "maps": ["abs", "sin"]},
}
PSA_EXP = {"kind": "psa_reconstruction", "ambient_dim": 2, "subspace_dim": 1, "net_size": 3,
           "net_seed": 1, "input": GAUSS_EXP, "n": 20}
LAST_ARGS = {"bound": ["--t-grid", "1:5:3"], "invert": ["--delta", "0.01"],
             "verify": ["--t-grid", "1:5:3", "--n", "10000"],
             "compare": ["--t-grid", "1:5:3", "--n", "10000"]}


# a bounded law whose atom of mass 1e-200 at 1 makes every moment ratio
# rise up to p = 256 and past it: its support's tail bound sets its uppers
TINY_ATOM = {"kind": "finite_support", "values": [0, 1], "probs": [1.0, 1e-200]}
UNIFORM_01 = {"kind": "uniform", "lo": 0, "hi": 1}


class TestBoundsReadOnlyTheirEntries:
    def test_bounded_difference_reads_only_the_ranges(self, tmp_path, capsys):
        # the profile built the psi1 norms too, so these exited 1 naming
        # coordinate 0's psi1 norm
        spec = write_spec(tmp_path, {"kind": "sum", "components": [TINY_ATOM, UNIFORM_01]})
        code, out, err = run(capsys, "bound", "--spec", spec, "--bounds", "bounded-difference",
                             "--t-grid", "1:2:2")
        assert (code, err) == (0, "")
        rows = json.loads(out)["bounds"]["bounded-difference"]
        assert [r["prob"] for r in rows] == [0.36787944117144233, 0.01831563888873418]
        code, out, err = run(capsys, "invert", "--spec", spec, "--bounds", "bounded-difference",
                             "--delta", "0.01")
        inv = json.loads(out)["inversions"]["bounded-difference"]
        assert (code, err) == (0, "")
        assert inv["exact"] == inv["additive"] == 2.145966026289347
        code, out, err = run(capsys, "verify", "--spec", spec, "--bounds", "bounded-difference",
                             "--t-grid", "0.25:1:4", "--n", "100000", "--seed", "1")
        assert (code, err) == (0, "") and json.loads(out)["verdict"] == "SOUND"

    def test_an_unbounded_law_gives_the_inapplicable_bound(self, tmp_path, capsys):
        spec = write_spec(tmp_path, {"kind": "sum", "components": [
            {"kind": "chi_squared", "dof": 1}, UNIFORM_01]})
        code, out, err = run(capsys, "bound", "--spec", spec, "--bounds", "bounded-difference",
                             "--t-grid", "1:2:2")
        assert (code, err) == (0, "")
        for row in json.loads(out)["bounds"]["bounded-difference"]:
            assert (row["prob"], row["note"]) == (1.0, "inapplicable: a + b t is infinite")

    @pytest.mark.parametrize("kind", ["thm1", "thm2", "thm3-psi2-variant"])
    def test_a_psi_kind_reads_the_upper_of_a_tail_bound(self, kind, tmp_path, capsys):
        # the tiny atom's psi norms used to be refused: each is set by its
        # support's tail bound past p = 256, and the proxy reads that upper
        law = {"kind": "sum", "components": [TINY_ATOM, UNIFORM_01]}
        spec = write_spec(tmp_path, law)
        code, out, err = run(capsys, "bound", "--spec", spec, "--bounds", kind, "--p", "2",
                             "--t-grid", "1:2:2")
        assert (code, err) == (0, "")
        alpha = 1 if kind == "thm2" else 2
        est = O.psi_norm(D.Centered(D.spec_from_dict(TINY_ATOM)), alpha)
        assert est.method == "tail-bound"
        entry = "psi1_per_coord" if alpha == 1 else "psi2_per_coord"
        profile = fn.proxy_profile(fn.fspec_from_dict(law), p=2.0, kinds=[kind])
        assert getattr(profile, entry)[0] == est.upper > est.value
        for row in json.loads(out)["bounds"][kind]:
            want = evaluate_tail(kind, profile, row["t"], p=2.0).log_prob
            assert row["log_prob"] == want

    def test_verify_reads_sound_on_the_tail_bound(self, tmp_path, capsys):
        spec = write_spec(tmp_path, {"kind": "sum", "components": [TINY_ATOM, UNIFORM_01]})
        code, out, err = run(capsys, "verify", "--spec", spec, "--bounds", "thm2",
                             "--t-grid", "0.25:1:4", "--n", "100000", "--seed", "1")
        assert (code, err) == (0, "") and json.loads(out)["verdict"] == "SOUND"

    def _norm_calls(self, monkeypatch):
        cli.fn._kind_profile.cache_clear()      # a memoised profile reads no norm
        calls = []
        for name in ("psi_norm", "vector_norm_psi"):
            def counted(law, alpha, _real=getattr(cli.fn, name), _name=name):
                calls.append((_name, alpha))
                return _real(law, alpha)
            monkeypatch.setattr(cli.fn, name, counted)
        return calls

    def test_bounded_difference_reads_no_psi_norm(self, capsys, monkeypatch):
        calls = self._norm_calls(monkeypatch)
        code, _, _ = run(capsys, "bound", "--spec", config("sum_exp10.json"),
                         "--bounds", "bounded-difference", "--t-grid", "1:2:2")
        assert code == 0 and calls == []

    def test_thm1_reads_only_psi2_norms(self, capsys, monkeypatch):
        calls = self._norm_calls(monkeypatch)
        code, _, _ = run(capsys, "bound", "--spec", config("gauss_norm.json"),
                         "--bounds", "thm1", "--t-grid", "1:2:2")
        assert code == 0 and ("vector_norm_psi", 2) in calls
        assert {alpha for _, alpha in calls} == {2}

    def test_a_bound_past_the_largest_float_stays_monotone(self, capsys):
        # b t overflowed at 1e308, which read 1.0 and "inapplicable" after 0.0
        code, out, err = run(capsys, "bound", "--spec", config("exp1.json"), "--bounds", "thm2",
                             "--t-grid", "1e307:1e308:2")
        assert (code, err) == (0, "")
        rows = json.loads(out)["bounds"]["thm2"]
        assert [r["prob"] for r in rows] == [0.0, 0.0]
        assert all("note" not in r for r in rows)
        assert rows[0]["log_prob"] > rows[1]["log_prob"] > -math.inf


class TestProxyNormsPastPMax:
    @pytest.mark.parametrize("command", sorted(LAST_ARGS))
    @pytest.mark.parametrize("kind", sorted(CERTIFIED_PAST_P_MAX))
    def test_a_norm_certified_past_p_max_serves_every_command(self, kind, command, tmp_path,
                                                               capsys):
        # each was refused, naming the coordinate and its law
        code, out, err = run(capsys, command, "--spec", write_spec(tmp_path, CERTIFIED_PAST_P_MAX[kind]),
                             "--bounds", "thm2", *LAST_ARGS[command])
        assert (code, err) == (0, "")
        if command in ("verify", "compare"):
            assert json.loads(out)["verdict"] == "SOUND"

    @pytest.mark.parametrize("command", sorted(LAST_ARGS))
    def test_an_infinite_norm_names_the_input_and_its_law(self, command, tmp_path, capsys):
        # ||X|| >= |X_2| for the exponential X_2, so the psa proxy's psi2
        # norm of ||X|| is infinite
        code, out, err = run(capsys, command, "--spec", write_spec(tmp_path, PSA_EXP),
                             "--bounds", "thm2", *LAST_ARGS[command])
        assert code == 1 and out == ""
        assert err == ("error: input: the psi2 norm of Exponential(rate=1.0) is infinite: "
                       "Exponential laws have finite psi norms only up to alpha = 1\n")


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


class TestPoissonPastTheMapsZero:
    def test_thm3_reads_the_series_past_the_zero(self, tmp_path, capsys):
        # the uncentered 2p-norm of a dim-1 vector_norm_of_sum is the L_2p
        # norm of its coordinate, here at 2p = 256: |k - 20|^256 P(k) rises
        # again past its zero at k = 20, where the series used to stop
        law = {"kind": "shifted", "base": {"kind": "poisson", "rate": 5.0}, "offset": -20.0}
        spec = {"kind": "vector_norm_of_sum", "n": 4,
                "vec": {"kind": "vector", "dim": 1, "components": [law]}}
        code, out, err = run(capsys, "bound", "--spec", write_spec(tmp_path, spec),
                             "--bounds", "thm3", "--p", "128", "--t-grid", "10:50:3")
        assert (code, err) == (0, "")
        l2p = 2.0 * math.exp(adaptive_log_moment(fn.dist.spec_from_dict(law), 256.0) / 256.0)
        profile = dataclasses.replace(fn.proxy_profile(fn.fspec_from_dict(spec), p=128.0),
                                      l2p_per_coord=(l2p,))
        for row in json.loads(out)["bounds"]["thm3"]:
            want = evaluate_tail("thm3", profile, row["t"], p=128.0).log_prob
            assert row["log_prob"] == pytest.approx(want, rel=1e-9)


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


def _scaled(base, factor):
    return {"kind": "scaled", "base": base, "factor": factor}


def _sum(*components):
    return {"kind": "sum", "components": list(components)}


_FINITE_1E200 = {"kind": "finite_support", "values": [1, 1e200], "probs": [0.5, 0.5]}
_FINITE_1E300 = {"kind": "finite_support", "values": [-1, 1e300, 1000], "probs": [0.25, 0.25, 0.5]}
_TWO_ATOMS = {"kind": "finite_support", "values": [1e20, 1.000000000000001e20],
              "probs": [0.5, 0.5]}
_WIDE_UNIFORM = {"kind": "uniform", "lo": -1, "hi": 1e300}
_HUGE_GAUSSIAN = _scaled({"kind": "gaussian", "mean": 0, "sd": 1e300}, 2e8)
_FAR_UNIFORM = {"kind": "shifted", "offset": 1e300, "base": {"kind": "uniform", "lo": 0.0, "hi": 1.0}}
_TINY_SQUARE = {"kind": "square_of", "base": {"kind": "shifted", "offset": 1.0, "base": _scaled(
    {"kind": "gaussian", "mean": 0.0, "sd": 1e-300}, 1e-100)}}


class TestOverflowPaths:
    """Laws whose norms, means, moments or values pass the largest float:
    each used to end in an OverflowError traceback or a numpy
    RuntimeWarning, and now ends in one error line that names the law."""

    @pytest.mark.parametrize("spec, argv, message", [
        (_scaled({"kind": "gaussian", "mean": 0, "sd": 1e300}, 1e300), ["norms", "--alpha", "1"],
         "the psi1 norm of Scaled(base=Gaussian(mean=0.0, sd=1e+300), factor=1e+300) is past "
         "the largest float: its ln is 1381.3252644437825"),
        (_sum(_scaled({"kind": "uniform", "lo": -2.5, "hi": 1e300}, 1e300)),
         ["bound", "--bounds", "thm2", "--t-grid", "1:2:2"],
         "the mean of Scaled(base=UniformInterval(lo=-2.5, hi=1e+300), factor=1e+300) must be "
         "finite to center it, got inf"),
        (_sum({"kind": "square_of", "base": _FINITE_1E300}),
         ["invert", "--bounds", "thm2", "--delta", "0.01"],
         "FiniteSupport(values=(-1.0, 1000.0, 1e+300), probs=(0.25, 0.5, 0.25)) after the map "
         "step SquareOf(): values must be finite, got inf"),
        (_sum({"kind": "square_of", "base": {"kind": "gaussian", "mean": 0, "sd": 1e200}}),
         ["invert", "--bounds", "thm2", "--delta", "0.01"],
         "E|X|^p at p=2.0 of Gaussian(mean=0.0, sd=1e+200) is past the largest float: its ln "
         "is 921.0340371976183"),
        (_scaled(_FINITE_1E200, 1e200), ["norms", "--alpha", "1"],
         "FiniteSupport(values=(1.0, 1e+200), probs=(0.5, 0.5)) after the map step "
         "Scaled(factor=1e+200): values must be finite, got inf"),
        # the overflowed atom used to merge into the other: f read as a.s.
        # constant, with bound probability 0.0
        ({"kind": "metric_lipschitz", "lip": 1, "coordinate_dists": [_scaled(_FINITE_1E200, 1e200)],
          "maps": ["identity"]}, ["bound", "--bounds", "thm2", "--t-grid", "1:2:2"],
         "FiniteSupport(values=(1.0, 1e+200), probs=(0.5, 0.5)) after the map step "
         "Scaled(factor=1e+200): values must be finite, got inf"),
        ({"kind": "metric_lipschitz", "lip": 1, "coordinate_dists": [_HUGE_GAUSSIAN],
          "maps": ["identity"]}, ["bound", "--bounds", "thm2", "--t-grid", "1:9:3"],
         "the psi1 diameter of Scaled(base=Gaussian(mean=0.0, sd=1e+300), factor=200000000.0) "
         "is past the largest float"),
    ], ids=["norm", "mean", "finite-square", "moment", "finite-scale", "metric", "diameter"])
    def test_one_error_line_names_the_law(self, spec, argv, message, tmp_path, capsys):
        path = write_spec(tmp_path, spec)
        assert run(capsys, argv[0], "--spec", path, *argv[1:]) == (1, "", f"error: {message}\n")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("command", ["verify", "compare"])
    @pytest.mark.parametrize("spec, message", [
        ({"kind": "metric_lipschitz", "lip": 1e308, "maps": ["abs"],
          "coordinate_dists": [{"kind": "gaussian", "mean": 0, "sd": 1e300}]},
         "metric_lipschitz: sample value inf in shard 0 is not finite"),
        ({"kind": "sup_linear_loss", "weights": [[1e308]], "loss": "hinge", "n": 2,
          "input": {"kind": "vector", "dim": 1, "components": [{"kind": "gaussian", "mean": 0, "sd": 1e10}]},
          "output": {"kind": "gaussian", "mean": 0, "sd": 1}},
         "sup_linear_loss: sample value nan in shard 0 is not finite"),
        (_sum({"kind": "gaussian", "mean": 0, "sd": 1e308}, {"kind": "gaussian", "mean": 0, "sd": 1e308},
              {"kind": "uniform", "lo": 0, "hi": 1}),
         "sum: sample value nan in shard 0 is not finite"),
    ], ids=["metric", "loss", "sum"])
    def test_draws_past_the_largest_float_end_in_one_error_line(self, command, spec, message,
                                                                 tmp_path, capsys):
        # numpy's overflow and invalid-value RuntimeWarnings came before the
        # error line, and a traceback where warnings are errors
        path = write_spec(tmp_path, spec)
        assert run(capsys, command, "--spec", path, "--bounds", "thm2", "--t-grid", "1:2:2",
                   "--n", "10000") == (1, "", f"error: {message}\n")

    def test_a_far_shifted_uniform_serves_thm3(self, tmp_path, capsys):
        # 1 + 1e300 rounds to 1e300, so the law stays a wrapper whose map is
        # 0 in floats after centering: its 2p-norm reads 0.5 U(-1, 1), its
        # standard law, where the quadrature of that map failed
        path = write_spec(tmp_path, _sum(_FAR_UNIFORM))
        code, out, err = run(capsys, "bound", "--spec", path, "--bounds", "thm2,thm3", "--p", "2",
                             "--t-grid", "1:2:2")
        assert (code, err) == (0, "")
        assert all(0.0 < r["prob"] <= 1.0 for rows in json.loads(out)["bounds"].values() for r in rows)

    def test_a_square_of_a_shifted_tiny_gaussian_is_certified(self, tmp_path, capsys):
        # 1e-100 times an sd of 1e-300 underflows, so the chain keeps its
        # wrappers; the search's first lambda used to underflow too, and no
        # tail bound ended it
        code, out, err = run(capsys, "norms", "--spec", write_spec(tmp_path, _TINY_SQUARE), "--alpha", "1")
        assert (code, err) == (0, "")
        est = json.loads(out)["estimate"]
        assert est["upper"] >= est["value"] > 0.0

    @pytest.mark.parametrize("spec", [
        {"kind": "vector_norm_of_sum", "n": 1,
         "vec": {"kind": "vector", "dim": 1, "components": [_WIDE_UNIFORM]}},
        {"kind": "sup_linear_loss", "weights": [[1.0]], "loss": "absolute", "n": 1,
         "input": {"kind": "vector", "dim": 1, "components": [_WIDE_UNIFORM]},
         "output": {"kind": "gaussian", "mean": 0, "sd": 1}},
    ], ids=["vector_norm_of_sum", "sup_linear_loss"])
    def test_a_range_whose_square_overflows_is_inf(self, spec, tmp_path, capsys):
        # width ** 2 used to raise OverflowError; the product reads inf, the
        # range of a bounded-difference bound that says nothing
        path = write_spec(tmp_path, spec)
        code, out, err = run(capsys, "bound", "--spec", path, "--bounds", "thm2,bounded-difference",
                             "--t-grid", "1:2:2")
        assert (code, err) == (0, "")
        probs = [r["prob"] for rows in json.loads(out)["bounds"].values() for r in rows]
        assert probs == [1.0] * 4
        assert fn.proxy_profile(fn.fspec_from_dict(spec)).ranges == (math.inf,)

    def test_a_centered_law_of_mean_zero_keeps_its_outer_scale(self, tmp_path, capsys):
        # centering appended a shift by -0.0, which sent the chain to the
        # numeric path, where the scale step overflowed; the psi1 proxy is
        # the law's own norm, and its square is past the largest float
        path = write_spec(tmp_path, _sum(_HUGE_GAUSSIAN))
        code, out, err = run(capsys, "bound", "--spec", path, "--bounds", "thm2", "--t-grid", "1:9:3")
        assert (code, err) == (0, "")
        assert [(r["prob"], r["log_prob"], r["note"]) for r in json.loads(out)["bounds"]["thm2"]] == [
            (1.0, 0.0, "inapplicable: a + b t is infinite")] * 3
        assert fn.proxy_profile(fn.fspec_from_dict(_sum(_HUGE_GAUSSIAN))).psi1_per_coord == (
            1.5957691216056996e+308,)
        code, out, _ = run(capsys, "norms", "--spec", write_spec(tmp_path, _HUGE_GAUSSIAN, "law.json"),
                           "--alpha", "1")
        assert (code, json.loads(out)["estimate"]["value"]) == (0, 1.5957691216056996e+308)

    def test_a_bound_whose_exponent_overflows_is_one_not_nan(self, tmp_path, capsys):
        # -t^2 / (a + b t) read -inf / inf, and bound printed NaN rows
        law = _scaled({"kind": "exponential", "rate": 1}, 1e300)
        path = write_spec(tmp_path, _sum(law, law))
        code, out, err = run(capsys, "bound", "--spec", path, "--bounds", "thm2",
                             "--t-grid", "1e300:5e300:3")
        assert (code, err, "NaN" in out) == (0, "", False)
        assert [(r["prob"], r["log_prob"]) for r in json.loads(out)["bounds"]["thm2"]] == [
            (1.0, 0.0)] * 3

    def test_squares_whose_sum_is_past_the_largest_float_read_inf(self, tmp_path, capsys):
        # each squared proxy or diameter is finite, but their sum is not: the
        # fsum of the squares raised OverflowError, a traceback; it reads
        # inf, as where one square overflows
        term = _scaled({"kind": "gaussian", "mean": 0, "sd": 1}, 1e154)
        path = write_spec(tmp_path, _sum(term, term, term))
        code, out, err = run(capsys, "bound", "--spec", path, "--bounds", "thm2",
                             "--t-grid", "1e154:1e156:3")
        assert (code, err) == (0, "")
        assert [(r["prob"], r["log_prob"], r["note"]) for r in json.loads(out)["bounds"]["thm2"]] == [
            (1.0, 0.0, "inapplicable: a + b t is infinite")] * 3
        code, out, err = run(capsys, "invert", "--spec", path, "--bounds", "thm2", "--delta", "0.01")
        assert (code, err) == (0, "")
        inv = json.loads(out)["inversions"]["thm2"]
        assert (inv["exact"], inv["additive"]) == (math.inf, math.inf)
        code, out, err = run(capsys, "appbound", "--app", "vector-i", "--psi1", "1.2e154,1.2e154",
                             "--delta", "0.01")
        assert (code, err, json.loads(out)["value"]) == (0, "", math.inf)
        code, out, err = run(capsys, "appbound", "--app", "metric", "--diameters", "1.2e154,1.2e154",
                             "--t", "1")
        assert (code, err) == (0, "")
        assert json.loads(out)["result"] == {"kind": "metric", "t": 1.0, "prob": 1.0, "log_prob": 0.0,
                                             "note": "inapplicable: a + b t is infinite"}

    def test_squared_norms_past_the_largest_float_are_inf(self, tmp_path, capsys):
        # psi2 ** 2 used to raise OverflowError in the entropy bound, the psa
        # proxy and the psa application bound
        law = {"kind": "finite_support", "values": [-1e300, 1e300], "probs": [0.5, 0.5]}
        code, out, err = run(capsys, "entropy-check", "--spec", write_spec(tmp_path, law),
                             "--beta", "1")
        assert (code, err, json.loads(out)["subgaussian"]["holds"]) == (0, "", True)
        code, out, err = run(capsys, "appbound", "--app", "psa", "--psi2", "1e200", "--d", "2",
                             "--n", "100", "--delta", "0.01")
        assert (code, err, json.loads(out)["value"]) == (0, "", math.inf)
        spec = {"kind": "psa_reconstruction", "ambient_dim": 2, "subspace_dim": 1, "net_size": 2,
                "net_seed": 5, "n": 3, "input": {"kind": "vector", "dim": 2, "components": [
                    {"kind": "gaussian", "mean": 0, "sd": 1e200},
                    {"kind": "gaussian", "mean": 0, "sd": 1}]}}
        code, out, err = run(capsys, "bound", "--spec", write_spec(tmp_path, spec, "psa.json"),
                             "--bounds", "thm2", "--t-grid", "1:2:2")
        assert (code, err) == (0, "")
        assert [r["prob"] for r in json.loads(out)["bounds"]["thm2"]] == [1.0, 1.0]


_GAUSSIAN_VEC = lambda dim: {"kind": "vector", "dim": dim,
                             "components": [{"kind": "gaussian", "mean": 0, "sd": 1}] * dim}
_IID_VECTOR_SPECS = {   # the iid vector kinds, by n; the last two are ROADMAP's PSA and loss specs
    "vector_norm_of_sum": lambda n: {"kind": "vector_norm_of_sum", "vec": _GAUSSIAN_VEC(5), "n": n},
    "psa_reconstruction": lambda n: {"kind": "psa_reconstruction", "ambient_dim": 4,
                                     "subspace_dim": 2, "net_size": 8, "net_seed": 3, "n": n,
                                     "input": _GAUSSIAN_VEC(4)},
    "sup_linear_loss": lambda n: {"kind": "sup_linear_loss", "weights": [[1, 0], [0.6, 0.8], [0, 1]],
                                  "loss": "absolute", "input": _GAUSSIAN_VEC(2),
                                  "output": {"kind": "exponential", "rate": 1}, "n": n},
}
# a child runs cli.main on its argv under a 2 GiB address-space limit, and
# prints its peak RSS in kB on its last stderr line
_PEAK_RSS = ("import resource, sys\n"
             "resource.setrlimit(resource.RLIMIT_AS, (2 ** 31, 2 ** 31))\n"
             "from lighttails import cli\n"
             "code = cli.main(sys.argv[1:])\n"
             "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, file=sys.stderr)\n"
             "sys.exit(code)\n")


class TestSizeGate:
    """An iid vector kind's profile is one run of n: a bound, an inversion
    and a chi-layout verify at n = 10^9 cost what they cost at n = 20.  A
    profile of n entries needed 8 GB of references there, and ended in a
    MemoryError traceback."""

    @pytest.mark.parametrize("kind, argv", [
        ("vector_norm_of_sum", ["bound", "--bounds", "thm1,thm2,thm3", "--p", "2",
                                "--t-grid", "1:1e5:5"]),
        ("vector_norm_of_sum", ["invert", "--bounds", "thm1,thm2,thm3", "--p", "2",
                                "--delta", "0.01"]),
        ("vector_norm_of_sum", ["verify", "--bounds", "thm1,thm2", "--t-grid", "1:1e5:5",
                                "--n", "100000"]),
        ("psa_reconstruction", ["bound", "--bounds", "thm2", "--t-grid", "1:1e5:5"]),
        ("sup_linear_loss", ["bound", "--bounds", "thm2,bounded-difference",
                             "--t-grid", "1:1e5:5"]),
    ], ids=["bound", "invert", "verify", "psa-bound", "sup-linear-loss-bound"])
    def test_peak_rss_at_a_billion_coordinates_is_that_at_twenty(self, kind, argv, tmp_path):
        src = os.path.dirname(os.path.dirname(lighttails.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        children = {n: subprocess.Popen(
            [sys.executable, "-c", _PEAK_RSS, argv[0], "--spec",
             write_spec(tmp_path, _IID_VECTOR_SPECS[kind](n), f"n{n}.json"), *argv[1:]],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
            for n in (20, 10 ** 9)}
        peak = {}
        for n, child in children.items():
            out, err = child.communicate(timeout=120)
            assert child.returncode == 0 and "Traceback" not in err, (n, err)
            peak[n] = int(err.splitlines()[-1])
            if argv[0] == "verify":
                report = json.loads(out)
                assert (report["verdict"], report["sampler_layout"]) == ("SOUND", "chi"), n
        assert peak[10 ** 9] <= 1.1 * peak[20], peak


# a child runs cli.main on its argv under a 2 GiB address-space limit
_UNDER_2_GIB = ("import resource, sys\n"
                "resource.setrlimit(resource.RLIMIT_AS, (2 ** 31, 2 ** 31))\n"
                "from lighttails import cli\n"
                "sys.exit(cli.main(sys.argv[1:]))\n")


# a child runs verify at --n argv[3] and --threads argv[4] on its first spec
# file, to warm up, then on its second under an address-space limit of what it
# then holds plus the shard budget and 512 MiB; it prints the rise of its peak
# RSS in bytes on its last stderr line
_PEAK_RSS_RISE = (
    "import contextlib, io, resource, sys\n"
    "from lighttails import cli, verify\n"
    "argv = lambda path: ['verify', '--spec', path, '--bounds', 'thm2', '--t-grid', '1:5:3',\n"
    "                     '--n', sys.argv[3], '--seed', '1', '--threads', sys.argv[4]]\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    "    assert cli.main(argv(sys.argv[1])) == 0\n"
    "base = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024\n"
    "with open('/proc/self/statm') as fh:\n"
    "    held = int(fh.read().split()[0]) * resource.getpagesize()\n"
    "limit = held + verify.MAX_SHARD_BYTES + 2 ** 29\n"
    "resource.setrlimit(resource.RLIMIT_AS, (limit, limit))\n"
    "code = cli.main(argv(sys.argv[2]))\n"
    "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 - base, file=sys.stderr)\n"
    "sys.exit(code)\n")


_UNIFORM_VEC = lambda dim: {"kind": "vector", "dim": dim,
                            "components": [{"kind": "uniform", "lo": 0, "hi": 1}] * dim}


class TestShardBudget:
    """Draw arrays past the budget, and runs past the work budget, are one
    error line before any draw.  These ended in a MemoryError traceback (PSA
    and loss specs at n = 10^9, whose rows were listed first) or an
    _ArrayMemoryError for 7.45 GiB (1000 uniform 10-vectors, which the fold
    of vector_norm_of_sum now draws in 11 values per draw).  A fold holds
    its point, scratch and totals per draw, so a wide point is refused
    whatever its n, and n is limited by the fills it costs."""

    @pytest.mark.parametrize("kind, per_draw", [
        ("psa_reconstruction", 4 * 10 ** 9), ("sup_linear_loss", 3 * 10 ** 9)],
        ids=["psa", "sup-linear-loss"])
    def test_verify_refuses_the_work(self, kind, per_draw, tmp_path):
        # refused as whole points by the shard budget before they were
        # folded; folded, a draw holds 16 or 8 values, and 3 10^5 draws of
        # n = 10^9 coordinates would fill 10^15 entries
        spec = _IID_VECTOR_SPECS[kind](10 ** 9)
        src = os.path.dirname(os.path.dirname(lighttails.__file__))
        child = subprocess.run(
            [sys.executable, "-c", _UNDER_2_GIB, "verify", "--spec", write_spec(tmp_path, spec),
             "--bounds", "thm2", "--t-grid", "1:5:3", "--n", "200000", "--threads", "2"],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120)
        assert (child.returncode, child.stdout) == (1, "")
        assert child.stderr == (
            f"error: {kind}: --n 200000 draws and the expectation's 100000, at n = 1000000000, "
            f"fill {300000 * per_draw} entries in the per-coordinate layout ({per_draw} a draw), "
            "over the work budget of 100000000000 fills (about 9 minutes)\n")

    def test_a_loss_past_the_budget_as_whole_points_folds(self, tmp_path):
        # 1000 uniform 9-vector inputs and a uniform output took 8 GB in a
        # shard of whole points, and as much again in its C-order copy; the
        # fold holds 10 entries, 2 scratch rows and 1 total per draw
        spec = {"kind": "sup_linear_loss", "weights": [[1.0] * 9], "loss": "hinge", "n": 1000,
                "input": _UNIFORM_VEC(9), "output": {"kind": "uniform", "lo": 0, "hi": 1}}
        src = os.path.dirname(os.path.dirname(lighttails.__file__))
        child = subprocess.run(
            [sys.executable, "-c", _UNDER_2_GIB, "verify", "--spec", write_spec(tmp_path, spec),
             "--bounds", "thm2", "--t-grid", "1:5:3", "--n", "10000", "--threads", "2"],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=300)
        assert (child.returncode, child.stderr) == (0, "")
        report = json.loads(child.stdout)
        assert (report["verdict"], report["sampler_layout"]) == ("SOUND", "per-coordinate")

    @pytest.mark.parametrize("dim, n_samples, threads, peak", [
        (1400, "100000", "1", ""), (20, "6400000", "64", ", 1075200000 bytes with 64 threads")])
    def test_verify_refuses_a_wide_fold(self, dim, n_samples, threads, peak, tmp_path):
        # 1400 uniform entries at n = 1 take 1.12 GB in one thread's shard,
        # as a fold and as whole points; 20 take 16.8 MB a shard and 64
        # workers 1.08 GB
        spec = {"kind": "vector_norm_of_sum", "n": 1, "vec": _UNIFORM_VEC(dim)}
        src = os.path.dirname(os.path.dirname(lighttails.__file__))
        child = subprocess.run(
            [sys.executable, "-c", _UNDER_2_GIB, "verify", "--spec", write_spec(tmp_path, spec),
             "--bounds", "thm2", "--t-grid", "1:5:3", "--n", n_samples, "--threads", threads],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120)
        assert (child.returncode, child.stdout) == (1, "")
        assert child.stderr == (
            f"error: vector_norm_of_sum: a shard of 100000 draws takes {(dim + 1) * 800000} "
            f"bytes in the per-coordinate layout, {dim + 1} values per draw{peak}, over "
            "the shard budget of 1073741824 bytes (1 GiB)\n")

    @staticmethod
    def loss(n, dim=31):
        # dim + 4 values per draw: the point (x, z), 2 scratch rows, 1 total
        return {"kind": "sup_linear_loss", "weights": [[1.0] + [0.0] * (dim - 1)], "loss": "absolute",
                "input": _GAUSSIAN_VEC(dim), "output": {"kind": "exponential", "rate": 1}, "n": n}

    @pytest.mark.parametrize("n, dim, code", [(11, 31, 0), (104, 31, 0), (1, 1339, 1)])
    def test_a_run_of_one_shard_counts_its_draws(self, n, dim, code, tmp_path):
        # --n 20000 is one shard of 20000 draws, which one worker holds, but
        # the loss kind's mean has no closed form: fn.expectation first
        # draws a batch of 10^5.  11, 21 and 104 coordinates of 32 entries
        # took 563.2 MB, 1.08 GB and 5.3 GB in it as whole points with their
        # copy, and the last two were refused; folded, they hold 35 values
        # per draw.  A point of 1340 entries is just past the budget in the
        # batch, though its shard is within it
        src = os.path.dirname(os.path.dirname(lighttails.__file__))
        child = subprocess.run(
            [sys.executable, "-c", _UNDER_2_GIB, "verify", "--spec",
             write_spec(tmp_path, self.loss(n, dim)), "--bounds", "thm2", "--t-grid", "1:5:3",
             "--n", "20000", "--seed", "1", "--threads", "2"],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=300)
        assert child.returncode == code, child.stderr
        if code == 0:
            assert json.loads(child.stdout)["n_samples"] == 20000 and child.stderr == ""
        else:
            assert child.stdout == "" and child.stderr == (
                "error: sup_linear_loss: the expectation's batch of 100000 draws takes 1074400000 "
                "bytes in the per-coordinate layout, 1343 values per draw, over the shard budget "
                "of 1073741824 bytes (1 GiB)\n")

    def test_a_spec_just_under_the_budget_stays_under_it(self, tmp_path):
        # inputs of 636 entries: two workers, each with an array of 640
        # values per draw, take 1024000000 bytes; past 667 entries they are
        # refused.  Two whole-point shards peaked 3.8 times a buffer when the
        # budget counted one.  The child warms up on one entry, then runs
        # under an address-space limit of what it holds plus the budget and
        # 512 MiB, and prints how far its peak RSS rose
        src = os.path.dirname(os.path.dirname(lighttails.__file__))
        child = subprocess.run(
            [sys.executable, "-c", _PEAK_RSS_RISE, write_spec(tmp_path, self.loss(1, 1), "d1.json"),
             write_spec(tmp_path, self.loss(1, 636), "d636.json"), "200000", "2"],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=300)
        assert child.returncode == 0, child.stderr
        report = json.loads(child.stdout)
        assert (report["verdict"], report["sampler_layout"]) == ("SOUND", "per-coordinate")
        assert 0 < int(child.stderr.splitlines()[-1]) <= vfy.MAX_SHARD_BYTES

    def test_the_loss_means_stay_within_the_counted_batch(self, tmp_path):
        # the loss kind's means are estimated from 10^5 points of dim + 3
        # rows; drawn while the expectation's batch of dim + 4 rows was
        # held, inputs of 300 entries rose 460 MB for the 243.2 MB counted
        src = os.path.dirname(os.path.dirname(lighttails.__file__))
        child = subprocess.run(
            [sys.executable, "-c", _PEAK_RSS_RISE, write_spec(tmp_path, self.loss(1, 1), "d1.json"),
             write_spec(tmp_path, self.loss(1, 300), "d300.json"), "20000", "1"],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=300)
        assert child.returncode == 0, child.stderr
        assert int(child.stderr.splitlines()[-1]) < 304 * 8 * 10 ** 5 + 2 ** 24

    @pytest.mark.parametrize("spec, n, n_samples", [
        (lambda n: {"kind": "sum", "components": [{"kind": "uniform", "lo": 0, "hi": 1}] * n},
         5000, "100000"),
        (lambda n: {"kind": "vector_norm_of_sum", "n": n, "vec": _UNIFORM_VEC(10)}, 1000, "10000"),
        (_IID_VECTOR_SPECS["psa_reconstruction"], 500, "10000"),
        (_IID_VECTOR_SPECS["sup_linear_loss"], 500, "10000"),
    ], ids=["uniform-sum", "uniform-vectors", "psa", "sup-linear-loss"])
    def test_a_folded_kind_holds_no_whole_point(self, spec, n, n_samples, tmp_path):
        # 5000 uniform coordinates take 4 GB in a shard of 10^5 whole points,
        # and 1000 uniform 10-vectors 8 GB in the 10^5-draw batch of their
        # Monte Carlo mean; both were refused, as were ROADMAP's PSA and
        # loss specs at n = 500.  Folded, a draw holds work_rows values
        # whatever n is: the child warms up on n = 1, then runs the large n
        # on the calling thread, and its peak RSS rises by less than 16 MiB
        # (it read no rise at all)
        src = os.path.dirname(os.path.dirname(lighttails.__file__))
        child = subprocess.run(
            [sys.executable, "-c", _PEAK_RSS_RISE, write_spec(tmp_path, spec(1), "n1.json"),
             write_spec(tmp_path, spec(n), "big.json"),
             n_samples, "1"],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=300)
        assert child.returncode == 0, child.stderr
        report = json.loads(child.stdout)
        assert (report["verdict"], report["sampler_layout"]) == ("SOUND", "per-coordinate")
        assert int(child.stderr.splitlines()[-1]) < 2 ** 24


class TestNetSize:
    def test_an_oversized_seeded_net_is_one_line(self, tmp_path):
        # net_size 10^7 at ambient_dim 4 ran one QR per member, for hours,
        # while the spec was decoded
        spec = {**_IID_VECTOR_SPECS["psa_reconstruction"](50), "net_size": 10 ** 7}
        src = os.path.dirname(os.path.dirname(lighttails.__file__))
        child = subprocess.run(
            [sys.executable, "-m", "lighttails.cli", "bound", "--spec", write_spec(tmp_path, spec),
             "--bounds", "thm2", "--t-grid", "1:5:3"],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60)
        assert (child.returncode, child.stdout) == (1, "")
        assert child.stderr.endswith(
            '"$.spec.net_size": net_size * ambient_dim^2 must be <= 10^6, got '
            "10000000 * 4^2 = 160000000\n")
        assert child.stderr.startswith("error: ") and child.stderr.count("\n") == 1


class TestTinyScales:
    """Sums of two laws scaled by 1e-300 or 1e-170, whose proxies' squares
    underflow: thm1 read "degenerate" with bound 0 and verify VIOLATION,
    invert gave exact 0, and thm2, thm3 and the metric bound ended in a
    ZeroDivisionError traceback."""

    def spec(self, tmp_path, law, factor):
        term = _scaled(law, factor)
        return write_spec(tmp_path, _sum(term, term))

    def test_gaussian_bounds_invert_and_verify(self, tmp_path, capsys):
        path = self.spec(tmp_path, {"kind": "gaussian", "mean": 0, "sd": 1}, 1e-300)
        kinds = ["--bounds", "thm1,thm2,thm3", "--p", "2"]
        code, out, err = run(capsys, "bound", "--spec", path, *kinds, "--t-grid", "1e-301:3e-300:3")
        rows = [r for rows in json.loads(out)["bounds"].values() for r in rows]
        assert (code, err, len(rows)) == (0, "", 9)
        assert all(0.0 < r["prob"] < 1.0 and "note" not in r for r in rows)
        code, out, err = run(capsys, "invert", "--spec", path, *kinds, "--delta", "0.1")
        assert (code, err) == (0, "")
        assert all(inv["exact"] > 0.0 for inv in json.loads(out)["inversions"].values())
        code, out, err = run(capsys, "verify", "--spec", path, *kinds, "--t-grid", "1e-301:3e-300:3",
                             "--n", "20000", "--seed", "1")
        assert (code, err, json.loads(out)["verdict"]) == (0, "", "SOUND")

    def test_uniform_verify_is_sound(self, tmp_path, capsys):
        path = self.spec(tmp_path, {"kind": "uniform", "lo": 0, "hi": 1}, 1e-170)
        code, out, err = run(capsys, "verify", "--spec", path, "--bounds", "bounded-difference,thm2",
                             "--t-grid", "1e-171:1e-170:3", "--n", "20000", "--seed", "1")
        assert (code, err, json.loads(out)["verdict"]) == (0, "", "SOUND")

    def test_metric_appbound(self, capsys):
        code, out, err = run(capsys, "appbound", "--app", "metric", "--diameters", "1e-170",
                             "--t", "1e-171")
        result = json.loads(out)["result"]
        assert (code, err, "note" in result) == (0, "", False)
        # exp(-0.01 / (4e + 0.2e))
        assert result["log_prob"] == pytest.approx(-0.01 / (4.2 * math.e), rel=1e-12, abs=0.0)


class TestSubnormalDelta:
    """ln(1/delta) at a subnormal delta: 1/delta overflowed, so invert and
    the apps read Infinity, and the apps that need n >= ln(1/delta) refused
    every n.  The level is ln 1 - ln delta there, 736.8 at 1e-320."""

    APPS = {
        "vector-i": ["--psi1", "1,2,3"],
        "vector-ii": ["--psi1", "1", "--n", "1000"],
        "vector-iii": ["--l2p", "1.5", "--psi1", "2", "--p", "2", "--n", "1000"],
        "psa": ["--psi2", "1.2", "--d", "3", "--n", "1000"],
        "rademacher": ["--psi1", "1", "--n", "1000", "--rad-expectation", "0.1"],
        "regression": ["--psi1", "1", "--n", "1000", "--psi1-z", "0.5"],
    }

    @pytest.mark.parametrize("delta", [1e-320, 5e-324])
    def test_invert_reads_a_finite_root(self, delta, capsys):
        code, out, err = run(capsys, "invert", "--spec", config("exp1.json"), "--bounds", "thm2",
                             "--delta", repr(delta))
        inv = json.loads(out)["inversions"]["thm2"]
        assert (code, err) == (0, "") and inv["exact"] <= inv["additive"] < math.inf
        # the bound at the root is delta
        prof = fn.proxy_profile(fn.fspec_from_dict(json.loads(config_text("exp1.json"))["spec"]),
                                kinds=["thm2"])
        assert evaluate_tail("thm2", prof, inv["exact"]).log_prob == pytest.approx(
            math.log(delta), rel=1e-12)

    @pytest.mark.parametrize("app", APPS)
    def test_every_app_reads_a_finite_value_that_grows_as_delta_falls(self, app, capsys):
        values = []
        for delta in ("1e-300", "1e-320", "5e-324"):
            code, out, err = run(capsys, "appbound", "--app", app, *self.APPS[app], "--delta", delta)
            assert (code, err) == (0, "")
            values.append(json.loads(out)["value"])
        assert values[0] < values[1] < values[2] < math.inf
        if app == "vector-ii":      # 8e psi1 sqrt(2 L / n)
            assert values[1] == pytest.approx(
                8.0 * math.e * math.sqrt(-2.0 * math.log(1e-320) / 1000), rel=1e-15)

    def test_the_n_check_reads_the_finite_level(self, capsys):
        code, out, err = run(capsys, "appbound", "--app", "vector-ii", "--psi1", "1", "--n", "700",
                             "--delta", "1e-320")
        assert (code, out, err) == (1, "", "error: need n >= ln(1/delta): "
                                           "n=700 < ln(1/delta)=736.827\n")


class TestNearEqualAtoms:
    """Two atoms 98304 apart at 1e20 used to merge into one, so their sum
    read as a.s. constant and its bounds as 0."""

    def test_bounded_difference_reads_the_width(self, tmp_path, capsys):
        path = write_spec(tmp_path, _sum(_TWO_ATOMS, _TWO_ATOMS))
        code, out, _ = run(capsys, "bound", "--spec", path, "--bounds", "bounded-difference",
                           "--t-grid", "1000:40000:3")
        rows = json.loads(out)["bounds"]["bounded-difference"]
        assert code == 0 and all("note" not in r for r in rows)
        # exp(-2 t^2 / (2 * 98304^2))
        assert [r["log_prob"] for r in rows] == pytest.approx(
            [-(t / 98304.0) ** 2 for t in (1000.0, 20500.0, 40000.0)], rel=1e-12)

    def test_verify_is_sound(self, tmp_path, capsys):
        # the parent read VIOLATION, at an empirical tail of 0.2505
        path = write_spec(tmp_path, _sum(_TWO_ATOMS, _TWO_ATOMS))
        code, out, _ = run(capsys, "verify", "--spec", path, "--bounds", "bounded-difference,thm2",
                           "--t-grid", "1000:40000:3", "--n", "100000", "--seed", "1")
        assert (code, json.loads(out)["verdict"]) == (0, "SOUND")


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

    def test_every_appbound_float_flag_is_checked_finite(self):
        # a float flag left out of _APP_NUMBERS would skip the finiteness check
        row = cli._SUBCOMMANDS["appbound"][2]
        floats = [flag[2:] for flag, keywords in row if keywords.get("type") is float]
        assert sorted(floats) == sorted(cli._APP_NUMBERS)

    def test_every_appbound_int_flag_is_checked(self):
        # an int flag left out of _APP_INTS would reach the bound unchecked
        row = cli._SUBCOMMANDS["appbound"][2]
        ints = [flag[2:] for flag, keywords in row if keywords.get("type") is int]
        assert sorted(ints) == sorted(cli._APP_INTS)

    @pytest.mark.parametrize("argv, flag", [
        (["psa", "--psi2", "1", "--n", "100", "--delta", "0.1", "--d", "1" + "0" * 400], "d"),
        (["vector-ii", "--psi1", "1", "--delta", "0.1", "--n", "1" + "0" * 400], "n"),
        (["psa", "--psi2", "1", "--d", "2", "--delta", "0.1", "--n", "1" + "0" * 400], "n"),
        (["rademacher", "--psi1", "1", "--delta", "0.1", "--n", str(10 ** 18 + 1)], "n"),
    ], ids=["psa-d", "vector-ii-n", "psa-n", "rademacher-n-past-the-cap"])
    def test_appbound_int_past_its_cap(self, argv, flag, capsys, monkeypatch):
        # a 401-digit --d or --n ended in an OverflowError traceback, in
        # math.isfinite (--d) or in the bound (--n)
        def no_work(*args, **kwargs):
            raise AssertionError("a bound computed before the flag check")
        for name in ("vector_bound_ii", "psa_bound", "rademacher_generalization_bound"):
            monkeypatch.setattr(cli.apps, name, no_work)
        value = argv[argv.index(f"--{flag}") + 1]
        code, out, err = run(capsys, "appbound", "--app", *argv)
        assert (code, out) == (1, "")
        assert err == f"error: --{flag} must be an integer <= 10^18, got {value}\n"

    def test_appbound_int_at_its_cap(self, capsys):
        code, out, err = run(capsys, "appbound", "--app", "psa", "--psi2", "1", "--d", str(10 ** 18),
                             "--n", str(10 ** 18), "--delta", "0.1")
        assert (code, err) == (0, "") and 0 < json.loads(out)["value"] < math.inf

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

    @pytest.mark.parametrize("command", ["verify", "compare"])
    @pytest.mark.parametrize("seed", [-1, 2 ** 64, 10 ** 400], ids=["-1", "2^64", "10^400"])
    def test_seed_is_named_before_any_work(self, command, seed, capsys, monkeypatch):
        # the parent computed the bounds, then printed the library's "seed
        # must be a 64-bit unsigned integer"
        def no_work(*args, **kwargs):
            raise AssertionError("work done before the --seed check")
        for name in ("bounds_on_grid", "estimate_tail", "compare_bounds"):
            monkeypatch.setattr(cli.vfy, name, no_work)
        code, out, err = run(capsys, command, "--spec", config("exp1.json"), "--bounds", "thm2",
                             "--t-grid", "1:5:3", "--n", "10000", "--seed", str(seed))
        assert (code, out) == (1, "")
        assert err == f"error: --seed must be a 64-bit unsigned integer, got {seed}\n"

    @pytest.mark.parametrize("command", ["verify", "compare"])
    @pytest.mark.parametrize("flags, message", [
        (["--n", str(10 ** 400)], f"--n must be an integer <= 10^9, got {10 ** 400}"),
        (["--n", str(10 ** 9 + 1)], "--n must be an integer <= 10^9, got 1000000001"),
        (["--n", "20000", "--threads", str(10 ** 400)],
         f"--threads must be an integer <= 64, got {10 ** 400}"),
        (["--n", "20000", "--threads", "65"], "--threads must be an integer <= 64, got 65"),
    ], ids=["n-10^400", "n-10^9+1", "threads-10^400", "threads-65"])
    def test_counts_past_their_caps_are_named_before_any_work(self, command, flags, message,
                                                              capsys, monkeypatch):
        # a --n or --threads past the largest float ended in an OverflowError
        # traceback in the finiteness check; a failing estimate_tail shows
        # that no pool and no thread is started
        def no_work(*args, **kwargs):
            raise AssertionError("work done before the --n and --threads checks")
        monkeypatch.setattr(cli.vfy, "estimate_tail", no_work)
        code, out, err = run(capsys, command, "--spec", config("exp1.json"), "--bounds", "thm2",
                             "--t-grid", "1:5:3", *flags)
        assert (code, out) == (1, "")
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("command", ["verify", "compare"])
    def test_counts_at_their_caps_pass_the_check(self, command, capsys, monkeypatch):
        seen = []

        def estimate_tail(fspec, t_grid, n_samples, seed, threads=1):
            seen.append((n_samples, threads))
            raise ValueError("stop")
        monkeypatch.setattr(cli.vfy, "estimate_tail", estimate_tail)
        code, _, err = run(capsys, command, "--spec", config("exp1.json"), "--bounds", "thm2",
                           "--t-grid", "1:5:3", "--n", str(10 ** 9), "--threads", "64")
        assert (code, err, seen) == (1, "error: stop\n", [(10 ** 9, 64)])

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
