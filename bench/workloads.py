"""The three workloads: spec generators, request cycles and output checks.

A workload is a fixed cycle of requests.  The seed draws the parameters of
every spec and argument, never which families or commands appear, so each
seed runs the same mix.  A run executes whole cycles, so that mix holds in
every run.  Spec files are written under a directory named after the
workload and seed, so two runs of one seed send byte-identical argv to the
CLI and their outputs can be compared byte for byte.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
import random
from dataclasses import dataclass, field

MC_DRAWS = 10 ** 6
KNOWN_DEFECT = "PMaxTooSmallError"


@dataclass
class Request:
    argv: list
    label: str                     # which spec (and template) the request uses
    expect_exit: int = 0
    check: object = None           # check(stdout, env) -> problem text or None
    mc_draws: int = 0              # Monte-Carlo draws of f the request makes
    files: dict = field(default_factory=dict)   # path -> JSON text it needs

    @property
    def command(self):
        return self.argv[0]


def _doc(spec):
    return json.dumps({"schema": 1, "spec": spec}, indent=1)


# ---------------------------------------------------------------------------
# Catalogue laws with seeded parameters

# Parameter ranges are narrow on purpose: every draw is a new spec (a cold
# cache entry), while the quadrature work per request stays about the same
# from seed to seed.

def _exp(r):
    return {"kind": "exponential", "rate": r.uniform(0.8, 1.25)}


def _gauss(r, mean=None):
    return {"kind": "gaussian", "mean": r.uniform(0.3, 0.7) if mean is None else mean,
            "sd": r.uniform(0.8, 1.25)}


def _unif(r):
    lo = r.uniform(-0.6, -0.4)
    return {"kind": "uniform", "lo": lo, "hi": lo + r.uniform(1.0, 1.5)}


def _pois(r):
    return {"kind": "poisson", "rate": r.uniform(1.0, 2.0)}


def _finite(r):
    values = [r.uniform(-1.5, -0.5), r.uniform(-0.2, 0.2), r.uniform(0.5, 1.5)]
    weights = [r.uniform(0.5, 1.0) for _ in values]
    total = sum(weights)
    probs = [w / total for w in weights[:-1]]
    probs.append(1.0 - sum(probs))
    return {"kind": "finite_support", "values": values, "probs": probs}


def _tpe(r):
    return {"kind": "two_point_eps", "eps": r.uniform(0.2, 0.3)}


def _shifted(base, r):
    return {"kind": "shifted", "base": base, "offset": r.uniform(0.3, 0.7)}


def _scaled(base, r):
    return {"kind": "scaled", "base": base, "factor": r.uniform(0.8, 1.25)}


def _centered(base):
    return {"kind": "centered", "base": base}


def _square(base):
    return {"kind": "square_of", "base": base}


def _sum(*components):
    return {"kind": "sum", "components": list(components)}


def _metric(r, dists):
    # the maps are fixed by position, so the seed draws numbers only: with
    # seeded maps a request on this template took 0.5-1.3 s, by seed
    maps = ["sin", "abs", "identity"]
    return {"kind": "metric_lipschitz", "lip": r.uniform(0.5, 1.5),
            "coordinate_dists": dists,
            "maps": [maps[i % len(maps)] for i in range(len(dists))]}


def _chi2(dof, r):
    # scaled, so that every request has its own moment-cache entries
    return _scaled({"kind": "chi_squared", "dof": dof}, r)


# bound-cold templates: (label, builder).  Together they use every catalogue
# family and composition; the two defect templates hold the laws on which
# the package raises PMaxTooSmallError (a defect, counted as failures).
COLD_TEMPLATES = [
    ("sum:centered-exp+rademacher",
     lambda r: _sum(_centered(_exp(r)), {"kind": "rademacher"})),
    ("sum:gaussian+scaled-poisson+two-point",
     lambda r: _sum(_gauss(r), _scaled(_pois(r), r), _tpe(r))),
    ("sum:shifted-exp+finite",
     lambda r: _sum(_shifted(_exp(r), r), _finite(r))),
    ("sum:square-uniform+centered-poisson",
     lambda r: _sum(_square(_unif(r)), _centered(_pois(r)))),
    ("sum:poisson+chi-squared-1",
     lambda r: _sum(_pois(r), _chi2(1, r))),
    ("sum:poisson+square-gaussian",
     lambda r: _sum(_pois(r), _square(_gauss(r, mean=0.0)))),
    ("sum:chi-squared-2+finite",
     lambda r: _sum(_chi2(2, r), _finite(r))),
    ("sum:iid-exp10",
     lambda r: _sum(*[_exp(r)] * 10)),
    ("metric:gaussian+uniform+exp+finite",
     lambda r: _metric(r, [_gauss(r), _unif(r), _exp(r), _finite(r)])),
    ("metric:shifted-gaussian+scaled-uniform+square-uniform+poisson",
     lambda r: _metric(r, [_shifted(_gauss(r, 0.0), r), _scaled(_unif(r), r),
                           _square(_unif(r)), _pois(r)])),
    ("sum:uniform+shifted-gaussian",
     lambda r: _sum(_unif(r), _shifted(_gauss(r, 0.0), r))),
]


# ---------------------------------------------------------------------------
# Output checks: properties every correct version keeps, not seed bytes

def _monotone_probs(probs, what):
    for p in probs:
        if not 0.0 <= p <= 1.0:
            return f"{what}: probability {p!r} outside [0,1]"
    for a, b in zip(probs, probs[1:]):
        if b > a * (1 + 1e-12) + 1e-300:
            return f"{what}: probability rises with t ({a!r} -> {b!r})"
    return None


def check_bound(stdout, env):
    doc = json.loads(stdout)
    for kind, rows in doc["bounds"].items():
        problem = _monotone_probs([row["prob"] for row in rows], kind)
        if problem:
            return problem
    return None


def check_invert(stdout, env, spec_path, kinds, delta, p):
    """Each inversion must give a deviation whose bound is at most delta."""
    doc = json.loads(stdout)
    fn, bounds = env["functions"], env["bounds"]
    with open(spec_path) as fh:
        fspec = _fspec(env, json.load(fh)["spec"])
    profile = fn.proxy_profile(fspec, p=p if any(k.startswith("thm3") for k in kinds)
                               else None)
    for kind in kinds:
        inv = doc["inversions"][kind]
        exact, additive = inv["exact"], inv["additive"]
        if not 0.0 < exact <= additive * (1 + 1e-12):
            return f"{kind}: need 0 < exact <= additive, got {exact!r}, {additive!r}"
        for t in (exact, additive):
            prob = bounds.evaluate_tail(kind, profile, t, p=p).prob
            if prob > delta * (1 + 1e-9):
                return f"{kind}: bound at t={t!r} is {prob!r} > delta={delta!r}"
    return None


def _fspec(env, spec):
    try:
        return env["functions"].fspec_from_dict(spec)
    except env["distributions"].SpecError:
        return env["functions"].SumFunction([env["distributions"].spec_from_dict(spec)])


def _truth_problem(rows, n, truth):
    """Empirical tail within 6 binomial standard errors of the exact tail.
    The variance is floored at 10/n so that a tail near 0 tolerates a few
    counts; one point then fails by chance with probability about 2e-9."""
    for row in rows:
        p = truth(row["t"])
        se = math.sqrt(max(p * (1.0 - p), 10.0 / n) / n)
        if abs(row["empirical"] - p) > 6.0 * se:
            return (f"empirical tail {row['empirical']!r} at t={row['t']!r} is "
                    f"more than 6 standard errors from the exact {p!r}")
    return None


def check_mc(stdout, env, truth=None, negative_control=False):
    doc = json.loads(stdout)
    want = "VIOLATION" if negative_control else "SOUND"
    if doc["verdict"] != want:
        return f"verdict {doc['verdict']}, expected {want}"
    rows = doc["rows"]
    for row in rows:
        if not 0.0 <= row["cp_lower"] <= row["empirical"] <= row["cp_upper"] <= 1.0:
            return f"interval out of order at t={row['t']!r}"
    if not negative_control:
        for kind in rows[0]["bounds"]:
            problem = _monotone_probs([row["bounds"][kind] for row in rows], kind)
            if problem:
                return problem
    problem = _monotone_probs([row["empirical"] for row in rows], "empirical")
    if problem:
        return problem
    if truth is not None:
        return _truth_problem(rows, doc["n_samples"],
                              lambda t: truth(env, t, doc["mean_value"]))
    return None


def _gamma10_tail(env, t, mean_value):
    return float(env["scipy_stats"].gamma.sf(10.0 + t, 10))


def _chi5_tail(env, t, mean_value):
    scale = math.sqrt(20.0)
    return float(env["scipy_stats"].chi.sf((mean_value + t) / scale, 5))


def check_norms(stdout, env):
    est = json.loads(stdout)["estimate"]
    if not (math.isfinite(est["value"]) and est["value"] > 0 and est["p_star"] >= 1):
        return f"bad norm estimate {est}"
    return None


def check_entropy(stdout, env):
    doc = json.loads(stdout)
    for part in ("subgaussian", "subexponential", "holder"):
        entry = doc.get(part)
        if entry and "holds" in entry:
            if not entry["holds"] or entry["entropy"] < -1e-12:
                return f"{part}: entropy bound fails: {entry}"
    return None


def check_appbound(stdout, env):
    doc = json.loads(stdout)
    if "result" in doc:
        return _monotone_probs([doc["result"]["prob"]], "metric")
    if not (math.isfinite(doc["value"]) and doc["value"] > 0):
        return f"bad application bound {doc['value']!r}"
    return None


# ---------------------------------------------------------------------------
# Workloads

class Workload:
    name = ""
    NOMINAL_CYCLE_S = 1.0      # one cycle's wall time with the seed version on
                               # a 2-core Xeon; sets the cycles per run
    WORKERS = 3                # fresh processes a --trace 0 run deals its
                               # cycles to; each one sets up on its own
    REPEATS = 1                # back-to-back calls per request in --trace 0,
                               # timed by their median
    warmup: list = []          # argv lists run once during set-up

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir

    def path(self, name):
        return os.path.join(self.workdir, name + ".json")

    def setup_files(self):
        return {}

    def cycle(self, index):
        raise NotImplementedError

    def _rng(self, *salt):
        blob = json.dumps([self.name, self.seed, *salt]).encode()
        return random.Random(int.from_bytes(hashlib.sha256(blob).digest()[:8], "big"))


def _kinds(spec):
    """thm2 and thm3 for sums; the metric profile has no moment entries, so
    thm3 does not apply to it."""
    return ["thm2"] if spec["kind"] == "metric_lipschitz" else ["thm2", "thm3"]


def _bound_args(path, kinds, lo, hi, steps, p=None):
    argv = ["bound", "--spec", path, "--bounds", ",".join(kinds),
            "--t-grid", f"{lo!r}:{hi!r}:{steps}"]
    return argv + (["--p", repr(p)] if p is not None else [])


def _invert_request(path, label, kinds, delta, p=None):
    argv = ["invert", "--spec", path, "--bounds", ",".join(kinds),
            "--delta", repr(delta)] + (["--p", repr(p)] if p is not None else [])
    return Request(argv, label, check=lambda out, env: check_invert(
        out, env, path, kinds, delta, p))


class BoundCold(Workload):
    """bound and invert on a fresh spec per request: every moment is cold."""
    name = "bound-cold"
    NOMINAL_CYCLE_S = 6.0

    def cycle(self, index):
        requests = []
        for j, (label, build) in enumerate(COLD_TEMPLATES):
            r = self._rng(index, j)
            spec = build(r)
            path = self.path(f"c{index}-{j}")
            kinds = _kinds(spec)
            if (index + j) % 2 == 0:
                req = Request(_bound_args(path, kinds, 1.0, r.uniform(10.0, 30.0), 10, 2.0),
                              label, check=check_bound)
            else:
                req = _invert_request(path, label, kinds, r.uniform(1e-4, 0.1), 2.0)
            req.files[path] = _doc(spec)
            requests.append(req)
        return requests


class QueryWarm(Workload):
    """Short requests on a fixed pool of specs whose moments are warm."""
    name = "query-warm"
    NOMINAL_CYCLE_S = 1.0
    # A request takes 2-20 ms, so a few-ms stall of the shared host moves
    # it a lot: the 11th-slowest of a run (req_tail_s) is set by such
    # stalls unless each request is timed by the median of three calls.
    # Repeating is the same work, since every moment is warm.
    REPEATS = 3

    def _pool(self):
        r = self._rng("pool")
        sums = {
            "sum-cexp-unif-rad": _sum(_centered(_exp(r)), _unif(r), {"kind": "rademacher"}),
            "sum-gauss-scpois-tpe": _sum(_gauss(r), _scaled(_pois(r), r), _tpe(r)),
            "sum-iid-exp": _sum(*[_exp(r)] * 10),
            "sum-shunif-finite": _sum(_shifted(_unif(r), r), _finite(r)),
            "metric-gauss-unif-exp-finite": _metric(r, [_gauss(r), _unif(r), _exp(r),
                                                        _finite(r)]),
        }
        laws = {
            "law-exp": _exp(r),
            "law-gauss": _gauss(r),
            "law-two-point": _tpe(r),
            "law-finite": _finite(r),
            "law-rademacher": {"kind": "rademacher"},
        }
        return sums, laws

    # bound orders p used with thm3; set-up warms the 2p moments of each
    P_VALUES = (2.0, 3.0)

    def setup_files(self):
        sums, laws = self._pool()
        return {self.path(k): _doc(v) for k, v in {**sums, **laws}.items()}

    @property
    def warmup(self):
        sums, laws = self._pool()
        argv = []
        for name, spec in sums.items():
            for p in self.P_VALUES:
                argv.append(_bound_args(self.path(name), _kinds(spec), 1.0, 2.0, 2, p))
        for name, law in laws.items():
            argv.append(["norms", "--spec", self.path(name), "--alpha", "1"])
            if law["kind"] != "exponential":
                argv.append(["norms", "--spec", self.path(name), "--alpha", "2"])
        return argv

    def cycle(self, index):
        sums, laws = self._pool()
        r = self._rng(index)
        requests = []
        for i, (name, spec) in enumerate(sums.items()):
            path = self.path(name)
            p = self.P_VALUES[(index + i) % 2]
            requests.append(Request(
                _bound_args(path, _kinds(spec), r.uniform(0.5, 2.0),
                            r.uniform(5.0, 30.0), r.randint(5, 20), p),
                name, check=check_bound))
            requests.append(_invert_request(path, name, ["thm2"], r.uniform(1e-6, 0.2)))
            requests.append(_invert_request(path, name, _kinds(spec),
                                            r.uniform(1e-6, 0.2), p))
        for name, law in laws.items():
            path = self.path(name)
            alphas = ["1"] if law["kind"] == "exponential" else ["1", "2"]
            for alpha in alphas:
                requests.append(Request(["norms", "--spec", path, "--alpha", alpha],
                                        name, check=check_norms))
            if law["kind"] in ("two_point_eps", "finite_support", "rademacher"):
                requests.append(Request(
                    ["entropy-check", "--spec", path, "--beta", repr(r.uniform(0.1, 2.0)),
                     "--p", repr(r.uniform(1.5, 4.0))], name, check=check_entropy))
        requests.extend(self._appbounds(r))
        return requests

    def _appbounds(self, r):
        delta = r.uniform(1e-4, 0.4)
        n = str(r.randint(50, 5000))
        psi = repr(r.uniform(0.2, 3.0))
        apps = [
            ["--app", "vector-i", "--psi1", ",".join(repr(r.uniform(0.1, 2.0))
                                                     for _ in range(8)),
             "--delta", repr(delta)],
            ["--app", "vector-ii", "--psi1", psi, "--n", n, "--delta", repr(delta)],
            ["--app", "vector-iii", "--l2p", repr(r.uniform(0.5, 3.0)), "--psi1", psi,
             "--p", repr(r.uniform(1.5, 4.0)), "--n", n, "--delta", repr(delta)],
            ["--app", "psa", "--psi2", psi, "--d", str(r.randint(1, 10)), "--n", n,
             "--delta", repr(delta)],
            ["--app", "rademacher", "--psi1", psi, "--n", n, "--delta", repr(delta),
             "--rad-expectation", repr(r.uniform(0.0, 1.0))],
            ["--app", "regression", "--psi1", psi, "--n", n, "--delta", repr(delta),
             "--psi1-z", repr(r.uniform(0.0, 2.0))],
            ["--app", "metric", "--diameters", ",".join(repr(r.uniform(0.1, 2.0))
                                                        for _ in range(6)),
             "--t", repr(r.uniform(0.5, 10.0))],
        ]
        return [Request(["appbound"] + a, "app:" + a[1], check=check_appbound)
                for a in apps]


SUM_EXP10 = _sum(*[{"kind": "exponential", "rate": 1.0}] * 10)
GAUSS_NORM = {"kind": "vector_norm_of_sum", "n": 20,
              "vec": {"kind": "vector", "dim": 5,
                      "components": [{"kind": "gaussian", "mean": 0.0, "sd": 1.0}] * 5}}
METRIC3 = {"kind": "metric_lipschitz", "lip": 1.0,
           "coordinate_dists": [{"kind": "gaussian", "mean": 0.0, "sd": 1.0},
                                {"kind": "uniform", "lo": 0.0, "hi": 1.0},
                                {"kind": "exponential", "rate": 1.0}],
           "maps": ["sin", "abs", "identity"]}
RADEMACHER1 = _sum({"kind": "rademacher"})


class VerifyMC(Workload):
    """verify and compare at N=10^6 on the three Monte-Carlo acceptance
    specs, plus the negative control; bounds are warm."""
    name = "verify-mc"
    NOMINAL_CYCLE_S = 6.5

    # spec name -> (spec, bound kinds, t-grid, exact tail or None)
    SPECS = {
        "sum_exp10": (SUM_EXP10, ["thm2", "thm3"], "1:10:20", _gamma10_tail),
        "gauss_norm": (GAUSS_NORM, ["thm1", "thm2"], "1:30:20", _chi5_tail),
        "metric_lipschitz": (METRIC3, ["thm2"], "0.5:10:20", None),
    }

    def setup_files(self):
        files = {self.path(k): _doc(v[0]) for k, v in self.SPECS.items()}
        files[self.path("sum_rademacher1")] = _doc(RADEMACHER1)
        return files

    @property
    def warmup(self):
        argv = [["bound", "--spec", self.path(k), "--bounds", ",".join(kinds),
                 "--t-grid", grid] + (["--p", "2.0"] if "thm3" in kinds else [])
                for k, (_, kinds, grid, _) in self.SPECS.items()]
        return argv + [["bound", "--spec", self.path("sum_rademacher1"),
                        "--bounds", "thm2", "--t-grid", "0.5:0.5:1"]]

    # One cycle: verify and compare twice on sum_exp10, once on
    # metric_lipschitz, and one of them (alternating) on gauss_norm, which
    # costs ten sum_exp10 requests; then the negative control.  With the
    # sum_exp10 requests half of every cycle, the median and the tail
    # percentile of a run fall inside that group, not on the gap between two.
    MIX = [("sum_exp10", "verify"), ("sum_exp10", "compare"),
           ("metric_lipschitz", "verify"), ("metric_lipschitz", "compare"),
           ("gauss_norm", None),
           ("sum_exp10", "verify"), ("sum_exp10", "compare")]

    def cycle(self, index):
        r = self._rng(index)
        requests = []
        for name, command in self.MIX:
            _, kinds, grid, truth = self.SPECS[name]
            command = command or ("verify", "compare")[index % 2]
            argv = [command, "--spec", self.path(name), "--bounds", ",".join(kinds),
                    "--t-grid", grid, "--n", str(MC_DRAWS),
                    "--seed", str(r.randrange(2 ** 31)), "--threads", "1"]
            if "thm3" in kinds:
                argv += ["--p", "2.0"]
            requests.append(Request(
                argv, name, mc_draws=MC_DRAWS,
                check=lambda out, env, truth=truth: check_mc(out, env, truth)))
        argv = ["verify", "--spec", self.path("sum_rademacher1"), "--bounds", "thm2",
                "--t-grid", "0.5:0.5:1", "--n", str(MC_DRAWS),
                "--seed", str(r.randrange(2 ** 31)), "--threads", "1",
                "--negative-control"]
        requests.append(Request(argv, "sum_rademacher1:negative-control",
                                expect_exit=2, mc_draws=MC_DRAWS,
                                check=lambda out, env: check_mc(
                                    out, env, negative_control=True)))
        return requests


WORKLOADS = {w.name: w for w in (BoundCold, QueryWarm, VerifyMC)}
