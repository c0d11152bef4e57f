"""The command line in fresh processes: one table of argvs and what each
must print, for the paths a tier-1 test in one process cannot see.

Tier-1 runs the CLI in one process, which shares the argparse parser, the
law memo, the decoded spec files and the proxy profiles (README, "Caches");
each row here starts with all of them empty, the law memo holding only the
unit laws' shipped records.  A row is a `Case`: its argv, the spec files it
writes into the run's temporary directory (a dict is a spec, written as
{"schema": 1, "spec": ...}; bytes are written as they are), its extra
environment, an address-space limit (as `ulimit -v`, in KiB) or a timeout,
its exit code, its error line, and a check on its stdout or `same_as`, the
id of an earlier row whose stdout it must equal, with the JSON keys `drop`
left out.  An argv names the temporary directory as {tmp}.

    python tests/cli_cases.py

runs every row as `python -m lighttails.cli` from the repository root, with
`PYTHONWARNINGS=error::RuntimeWarning`, and holds every row to two rules:
a row that exits 0 prints nothing on stderr, and any other prints exactly
one line there, which starts with "error: " (so no traceback).  A str error
is that line exactly; a pattern must match its start.  Exit status 0 when
every row passes.  `tests/test_cli_cases.py` checks the table alone in
tier-1.  A mended crash path adds one row here.
"""
from __future__ import annotations

import csv
import json
import math
import os
import re
import resource
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


class Case(NamedTuple):
    id: str
    argv: str               # split on whitespace; {tmp} is the run's directory
    files: dict = {}        # name -> spec dict or raw bytes
    env: dict = {}
    limit: int = 0          # the address-space limit in KiB, as ulimit -v; 0 for none
    timeout: float = None   # seconds
    code: int = 0
    error: object = None    # the one stderr line (str) or a pattern of its start
    check: object = None    # stdout text, {id: stdout of earlier rows} -> truthy
    same_as: str = None
    drop: tuple = ()


def _config(name):
    with open(os.path.join(ROOT, "configs", f"{name}.json"), "rb") as fh:
        return fh.read()


EXP1 = {"kind": "exponential", "rate": 1.0}
N01 = {"kind": "gaussian", "mean": 0.0, "sd": 1.0}
U01 = {"kind": "uniform", "lo": 0.0, "hi": 1.0}
SUM_EXP10 = _config("sum_exp10")
GAUSS_NORM = json.loads(_config("gauss_norm"))["spec"]
AVX2 = {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}
HUGE = "1" + "0" * 400      # an integer flag past the largest float


def _scaled(base, factor):
    return {"kind": "scaled", "base": base, "factor": factor}


def _centered(base):
    return {"kind": "centered", "base": base}


def _shifted(base, offset):
    return {"kind": "shifted", "base": base, "offset": offset}


def _sum(*components):
    return {"kind": "sum", "components": list(components)}


def _finite(values, probs):
    return {"kind": "finite_support", "values": values, "probs": probs}


def _doc(test, *keys):
    """A check of the stdout JSON, or of its value at keys, by test."""
    def check(out, runs):
        doc = json.loads(out)
        for key in keys:
            doc = doc[key]
        return test(doc)
    return check


def _est(test):
    return _doc(test, "estimate")


def _certified(est):
    return est["upper"] >= est["value"] > 0


def _scales(ref, s):
    """A norms row whose value is s times row ref's, at its p*."""
    def check(out, runs):
        a, b = (json.loads(text)["estimate"] for text in (out, runs[ref]))
        return (abs(a["value"] - s * b["value"]) <= 1e-12 * a["value"]
                and a["p_star"] == b["p_star"] and a["upper"] >= a["value"])
    return check


def _sound(layout=None):
    return _doc(lambda out: out["verdict"] == "SOUND" and layout in (None, out["sampler_layout"]))


def _json_dumps_text(out, runs):
    return out == json.dumps(json.loads(out), indent=2, allow_nan=True) + "\n"


def _csv_pairs(out, runs):
    rows = list(csv.reader(out.splitlines()))
    return rows[0] == ["key", "value"] and all(len(r) == 2 for r in rows) and "{'" not in out


def _linspace_bits(lo, hi, steps):
    import numpy as np
    want = list(map(float.hex, np.linspace(lo, hi, steps).tolist()))
    return _doc(lambda grid: list(map(float.hex, grid)) == want, "t_grid")


INAPPLICABLE = "inapplicable: a + b t is infinite"
TINY_GAUSSIAN = _sum(*[_scaled(N01, 1e-300)] * 2)
UNIFORM_VECTORS = {"kind": "vector_norm_of_sum", "n": 1000,
                   "vec": {"kind": "vector", "dim": 10, "components": [U01] * 10}}
WIDE_VECTOR = {"kind": "vector_norm_of_sum", "n": 1,
               "vec": {"kind": "vector", "dim": 1400, "components": [U01] * 1400}}
UNIFORM_LOSS = {"kind": "sup_linear_loss", "weights": [[1.0] * 9], "loss": "hinge", "n": 1000,
                "input": {"kind": "vector", "dim": 9, "components": [U01] * 9}, "output": U01}
WIDE_LOSS = {**UNIFORM_LOSS, "weights": [[1.0] * 1339],
             "input": {"kind": "vector", "dim": 1339, "components": [U01] * 1339}}
# ROADMAP's specs 1 (PSA) and 2 (linear loss), by n
N01_VEC = lambda dim: {"kind": "vector", "dim": dim, "components": [N01] * dim}
PSA_SPEC = lambda n: {"kind": "psa_reconstruction", "ambient_dim": 4, "subspace_dim": 2, "net_size": 8,
                      "net_seed": 3, "n": n, "input": N01_VEC(4)}
LOSS_SPEC = lambda n: {"kind": "sup_linear_loss", "weights": [[1, 0], [0.6, 0.8], [0, 1]], "loss": "absolute",
                       "input": N01_VEC(2), "output": EXP1, "n": n}
BIG_NET = {"kind": "psa_reconstruction", "ambient_dim": 4, "subspace_dim": 2, "net_size": 10 ** 7,
           "net_seed": 3, "n": 50, "input": {"kind": "vector", "dim": 4, "components": [N01] * 4}}
MERGE = _finite([-2.0, -1.0, 1.0], [0.3225360967782188, 0.3491606779558808, 0.3283032252669003])
FIVE = ("exp1", "gauss_norm", "rademacher", "sum_exp10", "sum_rademacher1")
BOUND_FIVE = "--bounds thm2,thm3,bounded-difference --p 2 --t-grid 0.5:20:8"
VERIFY_AVX2 = "verify --spec configs/sum_exp10.json --bounds thm2,thm3 --p 2 --t-grid 1:10:20 --n 1000000 --seed 1"
GAUSS_VERIFY = "verify --spec configs/gauss_norm.json --bounds thm1,thm2 --t-grid 1:30:20 --n 1000000 --seed 1"

CASES = (
    # the top-level help and each subcommand's exit 0 through main's SystemExit path
    *(Case(f"help-{command or 'top'}", f"{command} --help")
      for command in ("", "norms", "entropy-check", "bound", "invert", "appbound", "verify", "compare")),
    Case("bound-h", "bound -h"),
    Case("exp1-norms", "norms --spec configs/exp1.json --alpha 1",
         check=_est(lambda e: e["upper"] >= e["value"] and e["p_star"] == 1)),
    Case("exp1-bound", "bound --spec configs/exp1.json --bounds thm2 --t-grid 1:5:3"),
    # a centered exponential takes the numeric moment path: its psi1 norm is 2/e at p* = 1
    Case("centered-exp1-norms", "norms --spec {tmp}/centered_exp1.json --alpha 1",
         files={"centered_exp1.json": _centered(EXP1)},
         check=_est(lambda e: e["p_star"] == 1 and abs(e["value"] - 2 / math.e) <= 1e-12)),
    # the psi norm scales out, at the same p*: centered 2.5 Exp(1.3), sd N(0, 1)
    # and a centered uniform, half its width times U(-1, 1)
    Case("centered-scaled-exp-norms", "norms --spec {tmp}/centered_scaled_exp.json --alpha 1",
         files={"centered_scaled_exp.json": _centered(_scaled({"kind": "exponential", "rate": 1.3}, 2.5))},
         check=_scales("centered-exp1-norms", 2.5 / 1.3)),
    Case("gauss1-norms", "norms --spec {tmp}/gauss1.json --alpha 2", files={"gauss1.json": N01}),
    Case("gauss17-norms", "norms --spec {tmp}/gauss17.json --alpha 2",
         files={"gauss17.json": {**N01, "sd": 1.7}}, check=_scales("gauss1-norms", 1.7)),
    Case("uniform11-norms", "norms --spec {tmp}/uniform11.json --alpha 2",
         files={"uniform11.json": {"kind": "uniform", "lo": -1.0, "hi": 1.0}}),
    Case("centered-uniform-norms", "norms --spec {tmp}/centered_uniform.json --alpha 2",
         files={"centered_uniform.json": _centered({"kind": "uniform", "lo": 0.3, "hi": 1.8})},
         check=_scales("uniform11-norms", 0.75)),
    # a centered (sd Z)^2 is certified past p = 256 as centered chi-squared(1) is
    *(Case(f"{name}-norms", f"norms --spec {{tmp}}/{name}.json --alpha 1", files={f"{name}.json": law},
           check=_est(lambda e: e["p_star"] == 1 and _certified(e)))
      for name, law in (("square-gauss", _centered({"kind": "square_of", "base": {**N01, "sd": 1.7}})),
                        ("centered-chi2", _centered({"kind": "chi_squared", "dof": 1})))),
    # the psi2 norm of U(0, 1) is ||U||_1 = 1/2, at p* = 1
    Case("uniform01-norms", "norms --spec {tmp}/uniform01.json --alpha 2", files={"uniform01.json": U01},
         check=_est(lambda e: e["value"] == 0.5 and e["p_star"] == 1)),
    # a two-point law's ratio peaks at p* = ln 4 at 1/(e ln 4), read at the chord peak
    Case("two-point-norms", "norms --spec {tmp}/two_point.json --alpha 1",
         files={"two_point.json": {"kind": "two_point_eps", "eps": 0.25}},
         check=_est(lambda e: abs(e["value"] - 1 / (math.e * math.log(4))) <= 1e-15 / (math.e * math.log(4))
                    and abs(e["p_star"] - math.log(4)) <= 1e-12 * math.log(4) and e["upper"] >= e["value"])),
    # where the chord bound is the value, the upper covers the batched ratio an ulp above it
    Case("two-point-ulp-norms", "norms --spec {tmp}/two_point_ulp.json --alpha 2",
         files={"two_point_ulp.json": {"kind": "two_point_eps", "eps": 0.249981556393863}},
         check=_est(lambda e: e["upper"] >= 0.36424909114823834)),
    # two atoms 98304 apart at 1e20 stay two atoms
    Case("two-atoms-verify", "verify --spec {tmp}/two_atoms.json --bounds bounded-difference,thm2 "
         "--t-grid 1000:40000:3 --n 100000 --seed 1",
         files={"two_atoms.json": _sum(*[_finite([1e20, 1.000000000000001e20], [0.5, 0.5])] * 2)},
         check=_sound()),
    Case("huge-gaussian-norms", "norms --spec {tmp}/huge_gaussian.json --alpha 1",
         files={"huge_gaussian.json": _scaled({**N01, "sd": 1e300}, 1e300)},
         code=1, error=re.compile(r"error: the psi1 norm of Scaled\(")),
    # centering a law of mean 0 adds no step: the outer scale of 2e8 N(0, 1e300) is peeled
    Case("centered-huge-bound", "bound --spec {tmp}/centered_huge.json --bounds thm2 --t-grid 1:9:3",
         files={"centered_huge.json": _sum(_scaled({**N01, "sd": 1e300}, 2e8))}),
    # a bound whose a + b t overflows is 1, not NaN
    Case("huge-exp-bound", "bound --spec {tmp}/huge_exp.json --bounds thm2 --t-grid 1e300:5e300:3",
         files={"huge_exp.json": _sum(*[_scaled(EXP1, 1e300)] * 2)}, check=lambda out, runs: "NaN" not in out),
    Case("huge-draws-verify", "verify --spec {tmp}/huge_draws.json --bounds thm2 --t-grid 1:2:2 --n 10000",
         files={"huge_draws.json": {"kind": "metric_lipschitz", "lip": 1e308, "maps": ["abs"],
                                    "coordinate_dists": [{**N01, "sd": 1e300}]}}, code=1),
    # an exact subnormal scale moves out of the law
    Case("subnormal-exp-norms", "norms --spec {tmp}/subnormal_exp.json --alpha 1",
         files={"subnormal_exp.json": _scaled(EXP1, 5e-324)}, check=_est(_certified)),
    Case("subnormal-poisson-norms", "norms --spec {tmp}/subnormal_poisson.json --alpha 1",
         files={"subnormal_poisson.json": _scaled({"kind": "poisson", "rate": 1.0}, 1e-320)},
         check=_est(_certified)),
    # an inexact subnormal product reads rounded up, not below 1.1826e-323: the
    # scale times 0.7978845608028654, the psi1 norm of N(0, 1), at p* = 1
    Case("subnormal-gaussian-norms", "norms --spec {tmp}/subnormal_gaussian.json --alpha 1",
         files={"subnormal_gaussian.json": _scaled(N01, 1.5e-323)},
         check=_est(lambda e: Fraction(e["value"]) >= Fraction(1.5e-323) * Fraction(0.7978845608028654)
                    and e["upper"] >= e["value"])),
    # entropy-check at a beta whose square or double overflows still holds
    *(Case(f"entropy-check-{name}", f"entropy-check --spec {spec} --beta={beta}", files=files,
           check=_doc(lambda sub: sub["holds"] is True, "subgaussian"))
      for name, spec, beta, files in (
          ("1e160", "configs/rademacher.json", "1e160", {}),
          ("-1e160", "configs/rademacher.json", "-1e160", {}),
          ("half-1e308", "{tmp}/half.json", "1e308", {"half.json": _finite([0.0, 1.0], [0.5, 0.5])}))),
    Case("entropy-check-1e308", "entropy-check --spec configs/rademacher.json --beta=1e308", code=1,
         error="error: --beta is too large for this law: beta=1e+308 overflows 2 beta (Y - E Y)"),
    # the Holder bound at --p 1000 reads ||Y^2||_p in logs: 0.3^2000 underflowed to 0
    Case("entropy-check-p1000", "entropy-check --spec {tmp}/pm03.json --p 1000",
         files={"pm03.json": _finite([-0.3, 0.3], [0.5, 0.5])},
         check=_doc(lambda holder: holder["holds"] is True, "holder")),
    # every lemma reads Y - E Y as Centered(Y) does: the three blocks print one S(Y)
    Case("entropy-check-three-atoms", "entropy-check --spec {tmp}/three_atoms.json --beta 1 --p 2",
         files={"three_atoms.json": _finite([-0.1, -0.03, 0.02], [0.1, 0.6, 0.3])},
         check=_doc(lambda doc: len({doc[b]["entropy"] for b in ("subgaussian", "subexponential", "holder")}) == 1)),
    Case("output-directory", "norms --spec configs/exp1.json --alpha 1 --output {tmp}", code=1,
         error="error: cannot write --output {tmp}: Is a directory"),
    Case("thm1-on-exp1", "bound --spec configs/exp1.json --bounds thm1 --t-grid 1:5:3", code=1,
         error="error: coordinate 0: the psi2 norm of Centered(base=Exponential(rate=1.0)) is infinite: "
               "Exponential laws have finite psi norms only up to alpha = 1"),
    # the bench template sum:poisson+chi-squared-1: a tail bound past p = 256 certifies chi-squared(1)
    *(Case(f"poisson-chi2-{factor}", "bound --spec {tmp}/poisson_chi2.json --bounds thm2 --t-grid 1:5:3",
           files={"poisson_chi2.json": _sum({"kind": "poisson", "rate": 1.5},
                                            _scaled({"kind": "chi_squared", "dof": 1}, factor))})
      for factor in (1.1, 1.0)),
    # a ratio that falls from p = 1 and rises toward 1 / (2e) past p = 128: its MGF bounds it past p = 8
    Case("shifted-exp-norms", "norms --spec {tmp}/shifted_exp.json --alpha 1",
         files={"shifted_exp.json": _shifted({"kind": "exponential", "rate": 2.0}, -3.0)},
         check=_est(lambda e: (e["value"], e["p_star"]) == (2.5024787521766667, 1.0) and e["upper"] >= e["value"])),
    # a Poisson series stops short of its map's far zero: E|X - 2e5| = 2e5 - 5
    Case("far-poisson-norms", "norms --spec {tmp}/far_poisson.json --alpha 1",
         files={"far_poisson.json": _shifted({"kind": "poisson", "rate": 5.0}, -200000.0)},
         check=_est(lambda e: e["p_star"] == 1.0 and abs(e["value"] - 199995.0) <= 1e-9 * 199995.0
                    and e["upper"] >= e["value"])),
    # a seeded PSA net past 10^6 exits before any QR; net_size 10^7 ran until killed
    Case("big-net-bound", "bound --spec {tmp}/big_net.json --bounds thm2 --t-grid 1:5:3",
         files={"big_net.json": BIG_NET}, timeout=20, code=1,
         error='error: spec file {tmp}/big_net.json: "$.spec.net_size": net_size * ambient_dim^2 '
               "must be <= 10^6, got 10000000 * 4^2 = 160000000"),
    Case("latin-spec", "norms --spec {tmp}/latin.json --alpha 1",
         files={"latin.json": b'{"schema": 1, "spec": {"kind": "rademacher"}, "x": "\xff"}'}, code=1,
         error="error: cannot read spec file {tmp}/latin.json: 'utf-8' codec can't decode byte 0xff "
               "in position 52: invalid start byte"),
    Case("thm3-p-1e50", "bound --spec configs/exp1.json --bounds thm3 --p 1e50 --t-grid 1:2:2", code=1,
         error=re.compile(re.escape("error: coordinate 0 (Exponential(rate=1.0)): its 2p-norm is not certified"))),
    Case("wide-uniform-bound", "bound --spec {tmp}/wide_uniform.json --bounds thm2 --t-grid 1:2:2",
         files={"wide_uniform.json": _sum({"kind": "uniform", "lo": -1e308, "hi": 1e308})}, code=1,
         error='error: spec file {tmp}/wide_uniform.json: "$.spec.components[0]": '
               "hi - lo must be finite, got lo=-1e+308, hi=1e+308"),
    Case("exp1-psi2", "norms --spec configs/exp1.json --alpha 2", code=1,
         error="error: the psi2 norm of Exponential(rate=1.0) is infinite: "
               "Exponential laws have finite psi norms only up to alpha = 1"),
    Case("p-max-flag", "norms --spec configs/exp1.json --alpha 1 --p-max 128", code=1,
         error="error: unrecognized arguments: --p-max 128"),
    # bounded-difference reads only the ranges; thm2 the psi1 norm of the tiny atom
    Case("tiny-atom-bounded-difference", "bound --spec {tmp}/tiny_atom.json --bounds bounded-difference --t-grid 1:2:2",
         files={"tiny_atom.json": _sum(_finite([0, 1], [1.0, 1e-200]), {"kind": "uniform", "lo": 0, "hi": 1})},
         check=_doc(lambda rows: [r["prob"] for r in rows] == [0.36787944117144233, 0.01831563888873418],
                    "bounds", "bounded-difference")),
    Case("tiny-atom-thm2", "bound --spec {tmp}/tiny_atom.json --bounds thm2 --t-grid 1:2:2"),
    # t^2 or b t past the largest float: monotone and applicable
    Case("thm2-past-max", "bound --spec configs/exp1.json --bounds thm2 --t-grid 1e307:1e308:2",
         check=_doc(lambda rows: all(a["prob"] >= b["prob"] for a, b in zip(rows, rows[1:]))
                    and not any("inapplicable" in r.get("note", "") for r in rows), "bounds", "thm2")),
    # a one-step grid is lo, even where hi - lo overflows
    Case("one-step-grid", "bound --spec configs/exp1.json --bounds thm2 --t-grid 1e308:-1e308:1",
         check=_doc(lambda grid: grid == [1e308], "t_grid")),
    Case("bound-csv", "bound --spec configs/sum_exp10.json --bounds thm2,bounded-difference --t-grid 1:10:4 "
         "--format csv", check=_csv_pairs),
    Case("sum-exp10-verify", "verify --spec configs/sum_exp10.json --bounds thm2 --t-grid 2:20:5 --n 100000 --seed 1",
         check=_sound("summed")),
    # gauss_norm draws its chi law; the report depends on neither --threads nor the hash seed
    Case("gauss-norm-threads-1", f"{GAUSS_VERIFY} --threads 1", check=_sound("chi")),
    Case("gauss-norm-threads-2", f"{GAUSS_VERIFY} --threads 2",
         same_as="gauss-norm-threads-1", drop=("config_digest",)),
    Case("gauss-norm-hash-7", f"{GAUSS_VERIFY} --threads 1", env={"PYTHONHASHSEED": "7"},
         same_as="gauss-norm-threads-1"),
    *(Case(f"exp1-verify-hash-{seed}", "verify --spec configs/exp1.json --bounds thm2 --t-grid 1:8:8 "
           "--n 200000 --seed 1", env={"PYTHONHASHSEED": seed},
           same_as="exp1-verify-hash-0" if seed == "7" else None)
      for seed in ("0", "7")),
    # JSON output is byte for byte what json.dumps(indent=2) writes
    *(Case(f"json-text-{i}", argv, check=_json_dumps_text) for i, argv in enumerate((
        "bound --spec configs/sum_exp10.json --bounds thm2,thm3 --p 2 --t-grid 2:20:5",
        "bound --spec configs/gauss_norm.json --bounds thm1,thm2,bounded-difference --t-grid 1:30:4",
        "invert --spec configs/sum_rademacher1.json --bounds thm1,thm2 --delta 0.01",
        "norms --spec configs/rademacher.json --alpha 2",
        "appbound --app vector-i --psi1 1,2,3 --delta 0.05",
        "appbound --app metric --diameters 1,2,0.5 --t 2",
        "verify --spec configs/exp1.json --bounds thm2 --t-grid 1:8:8 --n 100000 --seed 1"))),
    Case("no-command", "", code=1, error="error: the following arguments are required: command"),
    Case("unknown-command", "frob", code=1, error=re.compile("error: argument command: invalid choice: 'frob'")),
    # proxies whose squares underflow get bounds that are not "degenerate" and
    # an exact inversion above 0, and verify finds them sound
    Case("tiny-gaussian-bound", "bound --spec {tmp}/tiny_gaussian.json --bounds thm1,thm2,thm3 --p 2 "
         "--t-grid 1e-301:3e-300:3", files={"tiny_gaussian.json": TINY_GAUSSIAN},
         check=lambda out, runs: "degenerate" not in out),
    Case("tiny-metric", "appbound --app metric --diameters 1e-170 --t 1e-171",
         check=lambda out, runs: "degenerate" not in out),
    Case("tiny-gaussian-invert", "invert --spec {tmp}/tiny_gaussian.json --bounds thm1,thm2,thm3 --p 2 --delta 0.1",
         check=_doc(lambda inv: all(v["exact"] > 0 for v in inv.values()), "inversions")),
    Case("tiny-gaussian-verify", "verify --spec {tmp}/tiny_gaussian.json --bounds thm1,thm2,thm3 --p 2 "
         "--t-grid 1e-301:3e-300:3 --n 100000 --seed 1", check=_sound()),
    Case("tiny-uniform-verify", "verify --spec {tmp}/tiny_uniform.json --bounds bounded-difference,thm2 "
         "--t-grid 1e-171:1e-170:3 --n 100000 --seed 1",
         files={"tiny_uniform.json": _sum(*[_scaled(U01, 1e-170)] * 2)}, check=_sound()),
    # finite squared proxies or diameters whose sum is past the largest float read a V of inf
    Case("huge-sum-bound", "bound --spec {tmp}/huge_sum.json --bounds thm2 --t-grid 1e154:1e156:3",
         files={"huge_sum.json": _sum(*[_scaled(N01, 1e154)] * 3)},
         check=_doc(lambda rows: all(r.get("note") == INAPPLICABLE for r in rows), "bounds", "thm2")),
    Case("huge-sum-invert", "invert --spec {tmp}/huge_sum.json --bounds thm2 --delta 0.01",
         check=_doc(lambda inv: inv["exact"] == math.inf, "inversions", "thm2")),
    Case("huge-vector-i", "appbound --app vector-i --psi1 1.2e154,1.2e154 --delta 0.01",
         check=_doc(lambda v: v == math.inf, "value")),
    Case("huge-metric", "appbound --app metric --diameters 1.2e154,1.2e154 --t 1",
         check=_doc(lambda r: r["note"] == INAPPLICABLE, "result")),
    # a subnormal delta reads a finite ln(1/delta), 736.8 at 1e-320
    Case("invert-delta-1e-320", "invert --spec configs/exp1.json --bounds thm2 --delta 1e-320",
         check=_doc(lambda inv: math.isfinite(inv["exact"]), "inversions", "thm2")),
    Case("vector-ii-delta-1e-320", "appbound --app vector-ii --psi1 1 --n 1000 --delta 1e-320",
         check=_doc(math.isfinite, "value")),
    # gauss_norm at n = 10^9 has one proxy run, under 4 GB of address space
    Case("gauss-norm-1e9-bound", "bound --spec {tmp}/gauss_norm_1e9.json --bounds thm1,thm2,thm3 --p 2 "
         "--t-grid 1:1e5:5", files={"gauss_norm_1e9.json": {**GAUSS_NORM, "n": 10 ** 9}}, limit=4000000),
    Case("gauss-norm-1e9-verify", "verify --spec {tmp}/gauss_norm_1e9.json --bounds thm1,thm2 --t-grid 1:1e5:5 "
         "--n 100000 --seed 1", limit=4000000, check=_sound("chi")),
    Case("seed-out-of-range", "verify --spec configs/exp1.json --bounds thm2 --t-grid 1:5:3 --n 10000 --seed -1",
         code=1, error="error: --seed must be a 64-bit unsigned integer, got -1"),
    # an --n past the largest float
    Case("huge-n", f"verify --spec configs/exp1.json --n {HUGE} --bounds thm2 --t-grid 1:5:3 --seed 1",
         limit=2000000, code=1, error=re.compile(r"error: --n must be an integer <= 10\^9, got 1000")),
    # 1000 uniform 9-vector inputs took 8 GB in a shard of whole points, and
    # as much again in its C-order copy; the fold holds 13 values per draw
    Case("shard-budget", "verify --spec {tmp}/uniform_loss.json --n 100000 --bounds thm2 --t-grid 1:5:3 --seed 1",
         files={"uniform_loss.json": UNIFORM_LOSS}, limit=2000000, check=_sound("per-coordinate")),
    # a fold holds its point, scratch and totals per draw: a loss point of
    # 1340 entries, and 1400 uniform entries at n = 1, are past the budget
    # as they were as whole points
    Case("wide-loss-budget", "verify --spec {tmp}/wide_loss.json --n 100000 --bounds thm2 --t-grid 1:5:3 --seed 1",
         files={"wide_loss.json": WIDE_LOSS}, limit=2000000, code=1,
         error="error: sup_linear_loss: a shard of 100000 draws takes 1074400000 bytes in the per-coordinate "
               "layout, 1343 values per draw, over the shard budget of 1073741824 bytes (1 GiB)"),
    Case("wide-fold-budget", "verify --spec {tmp}/wide_vector.json --n 100000 --bounds thm2 --t-grid 1:5:3 "
         "--seed 1", files={"wide_vector.json": WIDE_VECTOR}, limit=2000000, code=1,
         error="error: vector_norm_of_sum: a shard of 100000 draws takes 1120800000 bytes in the "
               "per-coordinate layout, 1401 values per draw, over the shard budget of "
               "1073741824 bytes (1 GiB)"),
    # ten uniform entries at n = 10^9 fit the shard budget, but the
    # expectation's batch alone would fill 10^15 entries: no output for weeks
    Case("work-budget", "verify --spec {tmp}/uniform_vectors_1e9.json --n 10000 --bounds thm2 --t-grid 1:5:3 "
         "--seed 1", files={"uniform_vectors_1e9.json": {**UNIFORM_VECTORS, "n": 10 ** 9}}, limit=2000000,
         code=1, error="error: vector_norm_of_sum: --n 10000 draws and the expectation's 100000, at n = "
                       "1000000000, fill 1100000000000000 entries in the per-coordinate layout (10000000000 "
                       "a draw), over the work budget of 100000000000 fills (about 9 minutes)"),
    # the paper's two applications at n = 500 fold into 16 and 8 values per
    # draw; as whole points both were refused by the shard budget
    *(Case(f"{name}-500", f"verify --spec {{tmp}}/{name}500.json --bounds thm2 --n 100000 --t-grid 0.05:3:8",
           files={f"{name}500.json": spec(500)}, limit=2000000, check=_sound("per-coordinate"))
      for name, spec in (("psa", PSA_SPEC), ("loss", LOSS_SPEC))),
    # 1000 uniform 10-vectors fold into 11 values per draw, where whole
    # points took 8 GB in the 10^5-draw batch of the Monte Carlo mean
    Case("fold-uniform-vectors", "verify --spec {tmp}/uniform_vectors.json --n 10000 --bounds thm2 --t-grid 1:5:3 "
         "--seed 1", files={"uniform_vectors.json": UNIFORM_VECTORS}, limit=2000000,
         check=_sound("per-coordinate")),
    # argvs the fast parse leaves to argparse print the canonical argv's bytes
    Case("canonical", "bound --spec configs/exp1.json --bounds thm2 --t-grid 1:5:3"),
    *(Case(f"deferred-{i}", f"bound {argv}", same_as="canonical") for i, argv in enumerate((
        "--spec=configs/exp1.json --bounds thm2 --t-grid 1:5:3",
        "--spe configs/exp1.json --bounds thm2 --t-grid 1:5:3",
        "--spec configs/exp1.json --bounds thm2 --t-grid 2:9:4 --t-grid 1:5:3"))),
    # CRLF line ends print the bytes of the LF twin at the same path
    Case("twin-lf", "bound --spec {tmp}/twin.json --bounds thm2 --t-grid 2:20:5", files={"twin.json": SUM_EXP10}),
    Case("twin-crlf", "bound --spec {tmp}/twin.json --bounds thm2 --t-grid 2:20:5",
         files={"twin.json": re.sub(rb"(?m)$", b"\r", SUM_EXP10)}, same_as="twin-lf"),
    # --t-grid is np.linspace's grid, bit for bit; a step that underflows repeats an entry
    Case("subnormal-grid", "bound --spec configs/exp1.json --bounds thm2 --t-grid 5e-324:2.5e-323:5",
         check=_linspace_bits(5e-324, 2.5e-323, 5)),
    Case("underflow-grid", "bound --spec configs/exp1.json --bounds thm2 --t-grid 5e-324:1e-323:3", code=1,
         error="error: t_grid must be sorted strictly ascending"),
    # a square step that merges -1 and 1 takes the probability sum past 1 + 1e-12
    Case("merge-bound", "bound --spec {tmp}/merge.json --bounds thm2 --t-grid 1:2:2",
         files={"merge.json": _sum({"kind": "square_of", "base": MERGE})}, code=1,
         error="error: FiniteSupport(values=(-2.0, -1.0, 1.0), probs=(0.3225360967782188, 0.3491606779558808, "
               "0.3283032252669003)) after the map step SquareOf(): probs must sum to 1 within 1e-12, "
               "got sum 1.000000000001"),
    Case("appbound-huge-d", f"appbound --app psa --psi2 1 --n 100 --delta 0.1 --d {HUGE}", code=1,
         error=re.compile(r"error: --d must be an integer <= 10\^18, got 1000")),
    # a chain whose scale underflows, and U(0, 1) + 1e300, whose centered map is 0 in floats
    Case("tiny-square-norms", "norms --spec {tmp}/tiny_square.json --alpha 1",
         files={"tiny_square.json": {"kind": "square_of", "base": _shifted(
             _scaled({**N01, "sd": 1e-300}, 1e-100), 1.0)}}, check=_est(_certified)),
    Case("far-uniform-bound", "bound --spec {tmp}/far_uniform.json --bounds thm2,thm3 --p 2 --t-grid 1:2:2",
         files={"far_uniform.json": _sum(_shifted(U01, 1e300))}),
    # the five configs' bounds and a verify print the same bytes on the AVX2 path
    *(Case(f"{name}-{path}", argv, env=env, same_as=f"{name}-default" if env else None)
      for path, env in (("default", {}), ("avx2", AVX2))
      for name, argv in (*((f"bound-{c}", f"bound --spec configs/{c}.json {BOUND_FIVE}") for c in FIVE),
                         ("verify-sum-exp10", VERIFY_AVX2))),
)


def _run(case, tmp):
    """(exit code, stdout, stderr) of row `case`, its files written first."""
    for name, content in case.files.items():
        with open(os.path.join(tmp, name), "wb") as fh:
            fh.write(content if isinstance(content, bytes)
                     else json.dumps({"schema": 1, "spec": content}).encode())
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONDONTWRITEBYTECODE="1",
               PYTHONWARNINGS="error::RuntimeWarning", **case.env)
    limit = case.limit * 1024
    proc = subprocess.run(
        [sys.executable, "-m", "lighttails.cli", *(a.replace("{tmp}", tmp) for a in case.argv.split())],
        cwd=ROOT, env=env, capture_output=True, timeout=case.timeout,
        preexec_fn=(lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit))) if limit else None)
    return proc.returncode, proc.stdout.decode(), proc.stderr.decode(errors="replace")


def _problem(case, code, out, err, tmp, runs):
    """What row `case` gets wrong, or None."""
    lines = err.splitlines()
    if code != case.code:
        return f"exit {code}, not {case.code}"
    if case.code == 0 and err:
        return "stderr is not empty"
    if case.code and (len(lines) != 1 or not lines[0].startswith("error: ") or "Traceback" in err):
        return "stderr is not one error line"
    if isinstance(case.error, str) and lines[0] != case.error.replace("{tmp}", tmp):
        return f"the error line is not {case.error!r}"
    if isinstance(case.error, re.Pattern) and not case.error.match(lines[0]):
        return f"the error line does not match {case.error.pattern!r}"
    if case.same_as:
        want = runs[case.same_as]
        if case.drop:
            out, want = ({k: v for k, v in json.loads(text).items() if k not in case.drop}
                         for text in (out, want))
        if out != want:
            return f"stdout differs from {case.same_as}'s"
    if case.check is not None and not case.check(out, runs):
        return "the stdout check fails"
    return None


def main():
    failed = 0
    runs = {}
    with tempfile.TemporaryDirectory(prefix="lighttails-cli-") as tmp:
        for case in CASES:
            start, err = time.perf_counter(), ""
            try:
                code, runs[case.id], err = _run(case, tmp)
                problem = _problem(case, code, runs[case.id], err, tmp, runs)
            except subprocess.TimeoutExpired:
                problem = f"no exit within {case.timeout:g} s"
            except Exception as exc:        # a check that cannot read the output
                problem = f"{type(exc).__name__}: {exc}"
            failed += problem is not None
            print(f"{'FAIL' if problem else 'ok'}: {case.id}: python -m lighttails.cli {case.argv}"[:160]
                  + (f": {problem}" if problem else f" ({time.perf_counter() - start:.1f} s)"))
            for line in err.splitlines() if problem else ():
                print(f"    {line[:160]}")
    print(f"{len(CASES) - failed} of {len(CASES)} rows pass")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
