import json
import math
import os

import numpy as np
import pytest

from lighttails import cli

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


class TestNorms:
    def test_exponential_psi1(self, capsys):
        code, out, err = run(capsys, "norms", "--spec", config("exp1.json"),
                             "--alpha", "1")
        assert code == 0 and err == ""
        doc = json.loads(out)
        assert doc["schema"] == 1 and doc["command"] == "norms"
        assert len(doc["config_digest"]) == 64
        assert doc["estimate"]["value"] == pytest.approx(1.0, abs=1e-6)

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

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "norms", "--spec", "/nonexistent.json",
                           "--alpha", "1")
        assert code == 1 and "cannot read" in err

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
    @pytest.mark.parametrize("name, grid, layout", [
        ("sum_exp10.json", "2:20:5", "per-coordinate"),
        ("gauss_norm.json", "1:30:5", "summed"),
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


class TestDigestStability:
    def test_same_config_same_digest(self, capsys):
        _, out1, _ = run(capsys, "norms", "--spec", config("exp1.json"),
                         "--alpha", "1")
        _, out2, _ = run(capsys, "norms", "--spec", config("exp1.json"),
                         "--alpha", "1")
        assert out1 == out2
        _, out3, _ = run(capsys, "norms", "--spec", config("exp1.json"),
                         "--alpha", "1", "--p-max", "128")
        assert (json.loads(out3)["config_digest"]
                != json.loads(out1)["config_digest"])

    def test_version_flag(self, capsys):
        code, out, _ = run(capsys, "--version")
        assert code == 0 and out.strip()


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


class TestBadNumbers:
    @pytest.mark.parametrize("argv, message", [
        (["entropy-check", "--p", "1"], "--p must be a finite number > 1, got 1.0"),
        (["entropy-check", "--p", "0.5"], "--p must be a finite number > 1, got 0.5"),
        (["entropy-check", "--p", "nan"], "--p must be a finite number > 1, got nan"),
        (["entropy-check", "--p", "inf"], "--p must be a finite number > 1, got inf"),
        (["entropy-check", "--beta", "nan"], "--beta must be a finite number, got nan"),
        (["entropy-check", "--beta", "inf"], "--beta must be a finite number, got inf"),
        (["norms", "--alpha", "1", "--p-max", "0.5"],
         "--p-max must be a finite number >= 1, got 0.5"),
        (["norms", "--alpha", "2", "--p-max", "nan"],
         "--p-max must be a finite number >= 1, got nan"),
        (["norms", "--alpha", "2", "--p-max", "inf"],
         "--p-max must be a finite number >= 1, got inf"),
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
