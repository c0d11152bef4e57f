"""One workload process: set up, run whole request cycles through
`lighttails.cli.main`, check every output, and write a JSON summary.

Run by bench/run.py, one fresh interpreter each:
  measure  set up (import the package, write the spec files, warm up), then
           run the request cycles listed by --cycles (indices, e.g. 0,3)
  trace    like measure with spans recorded around every layer; on verify-mc
           the Monte-Carlo requests run again at --threads 2
"""
from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402  (bench/ is the script's directory, so on sys.path)
import workloads  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SPAN_CAP = 400_000   # about 60 MB of spans; a traced run stops at a cycle's end past it
PROBE_EVERY_S = 0.1  # request time between two speed probes
PROBE_REF_S = 0.0091 # speed_probe's median time on the 2-core Xeon this was built on


def _import_package():
    if not (SRC / "lighttails" / "cli.py").is_file():
        sys.exit(f"error: no lighttails source tree at {SRC}")
    sys.path.insert(0, str(SRC))
    import lighttails
    from lighttails import cli  # noqa: F401  (the import is part of set-up)
    if Path(lighttails.__file__).resolve().parent != SRC / "lighttails":
        sys.exit(f"error: imported lighttails from {lighttails.__file__}, not {SRC}")
    return lighttails


def _result_digest(stdout):
    """Digest of a verify/compare JSON report without `config_digest`, which
    hashes the argv (so it differs between --threads 1 and 2 by design)."""
    doc = json.loads(stdout)
    doc.pop("config_digest", None)
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


class Runner:
    def __init__(self, pkg, workload, tracer=None, repeats=1):
        self.cli = pkg.cli
        self.workload = workload
        self.tracer = tracer
        self.repeats = repeats   # back-to-back calls per request, timed by their median
        import scipy.stats
        self.env = {"functions": pkg.functions, "bounds": pkg.bounds,
                    "distributions": pkg.distributions, "scipy_stats": scipy.stats}
        self.records = []
        self.probes = []

    def write_files(self, files):
        for path, text in files.items():
            if not os.path.exists(path):
                tmp = path + ".tmp"
                with open(tmp, "w") as fh:
                    fh.write(text)
                os.replace(tmp, path)

    def call(self, argv, request_id=None):
        """(exit code or None, exception or None, stdout, seconds)."""
        out, err = io.StringIO(), io.StringIO()
        code = exc = None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if self.tracer is not None:
                self.tracer.request = request_id
            start = time.perf_counter()
            try:
                code = self.cli.main(argv)
            except Exception as e:  # a crash is a failed request, not a crashed run
                exc = e
            elapsed = time.perf_counter() - start
            if self.tracer is not None:
                self.tracer.request = None
        return code, exc, out.getvalue(), elapsed

    def run(self, req, request_id, cycle, pos):
        times = []
        for _ in range(self.repeats):
            code, exc, stdout, elapsed = self.call(req.argv, request_id)
            times.append(elapsed)
        rec = {"id": request_id, "cycle": cycle, "pos": pos, "command": req.command,
               "label": req.label, "seconds": statistics.median(times), "exit": code,
               "ok": False, "incorrect": False}
        if exc is not None:
            rec["error"] = f"{type(exc).__name__}: {exc}"
            rec["known_defect"] = type(exc).__name__ == workloads.KNOWN_DEFECT
        elif code != req.expect_exit:
            rec["error"] = f"exit code {code}, expected {req.expect_exit}"
            # a verdict flipped between SOUND and VIOLATION is a wrong answer
            rec["incorrect"] = req.command in ("verify", "compare")
        else:
            try:
                problem = req.check(stdout, self.env) if req.check else None
            except Exception as e:  # malformed output fails the check
                problem = f"check raised {type(e).__name__}: {e}"
            if problem:
                rec["error"] = "output check: " + problem
                rec["incorrect"] = True
            else:
                rec["ok"] = True
        if req.command in ("verify", "compare"):
            rec["mc_draws"] = req.mc_draws
            rec["argv"] = req.argv
            rec["stdout_sha256"] = hashlib.sha256(stdout.encode()).hexdigest()
            if stdout:
                rec["result_sha256"] = _result_digest(stdout)
        self.records.append(rec)
        return rec

    def warm_up(self):
        for argv in self.workload.warmup:
            self.call(argv)


def speed_probe():
    """Seconds for a fixed piece of work that runs no lighttails code, so its
    time follows the machine's speed and not the program's: an interpreter
    loop, numpy scalar math and a numpy sort.  The host slows these three
    kinds of work by different factors, and the requests of the workloads
    mix them; of the mixes tried, this sum tracked the run-to-run changes
    of bound-cold and verify-mc request times best together."""
    import numpy as np
    start = time.perf_counter()
    acc = 0
    for k in range(30_000):
        acc += k * k
    x = 0.0
    for k in range(2_000):
        x += float(np.log(np.float64(k + 1.5)) * np.exp(-0.001 * k))
    a = np.random.default_rng(0).standard_normal(100_000)
    np.sort(a)
    return time.perf_counter() - start


def _cycles(runner, cycles, span_cap=None):
    """Run the prepared cycles; a traced run stops early, at a cycle's end,
    once it holds `span_cap` spans."""
    start = time.perf_counter()
    done = []
    probes = runner.probes
    probes.append(speed_probe())
    since_probe = 0.0
    for index, requests in cycles:
        for pos, req in enumerate(requests):
            rec = runner.run(req, len(done), index, pos)
            rec["probe"] = len(probes) - 1
            done.append(req)
            since_probe += rec["seconds"] * runner.repeats
            if since_probe >= PROBE_EVERY_S:
                probes.append(speed_probe())
                since_probe = 0.0
        if span_cap is not None and len(runner.tracer.spans) >= span_cap:
            break
    if since_probe > 0:
        probes.append(speed_probe())
    # The VM's speed changes by up to 1.5x from one second to the next and
    # by 10-20% between minutes.  The probes around a request follow both,
    # so times rescaled by them spread far less between runs than raw ones.
    # The median of the two probes on either side ignores a single spike.
    for rec in runner.records:
        local = statistics.median(probes[max(0, rec["probe"] - 1):rec["probe"] + 3])
        rec["probe_s"] = local
        rec["ref_seconds"] = rec["seconds"] * PROBE_REF_S / local
    return done, time.perf_counter() - start


def _environment(pkg):
    import numpy
    import platform
    import scipy
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": cpu or platform.processor(),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "lighttails": pkg.__version__}


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--phase", choices=("measure", "trace"), required=True)
    ap.add_argument("--cycles", default="0", help="comma-separated cycle indices")
    ap.add_argument("--repeats", type=int, default=1)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--spans-out", default=None)
    args = ap.parse_args(argv)

    pkg = _import_package()

    tracer = None
    if args.phase == "trace":
        tracer = tracing.Tracer()
        tracer.install({name: getattr(pkg, name) for name in
                        ("cli", "functions", "orlicz", "applications",
                         "distributions", "verify", "entropy")})
    os.makedirs(args.workdir, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, args.workdir)
    runner = Runner(pkg, workload, tracer, args.repeats)
    runner.write_files(workload.setup_files())
    cycles = [(i, workload.cycle(i)) for i in map(int, args.cycles.split(","))]
    for _, requests in cycles:
        for req in requests:
            runner.write_files(req.files)
    runner.warm_up()
    setup_s = time.perf_counter() - T_START

    result = {"phase": args.phase, "setup_s": setup_s, "environment": _environment(pkg)}
    done, wall = _cycles(runner, cycles, SPAN_CAP if tracer is not None else None)
    result.update(cycles=len({r["cycle"] for r in runner.records}), loop_wall_s=wall,
                  records=runner.records, probes=runner.probes,
                  setup_ref_s=setup_s * PROBE_REF_S / statistics.median(runner.probes))
    if tracer is not None:
        traced = list(tracer.spans)
        rerun = _rerun_threads(runner, tracer, done) if args.workload == "verify-mc" else []
        result["per_layer"] = _per_layer(tracing, traced, len(done))
        result["thread_rerun"] = rerun
        t1 = sum(r["estimate_tail_s"] for r in rerun)
        t2 = sum(r["estimate_tail_s_threads2"] for r in rerun)
        result["per_layer"]["verify.estimate_tail.thread_speedup"] = (
            t1 / t2 if t2 > 0 else 0.0)
        if args.spans_out:
            tracer.write(args.spans_out)
        tracer.uninstall()
    ru = resource.getrusage(resource.RUSAGE_SELF)
    result["peak_rss_mb"] = ru.ru_maxrss / 1024.0
    result["cpu_s"] = ru.ru_utime + ru.ru_stime
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


def _estimate_tail_time(spans, request_id):
    return sum(s[4] - s[3] for s in spans
               if s[5] == request_id and s[2] == "verify.estimate_tail")


def _rerun_threads(runner, tracer, done):
    """Run each Monte-Carlo request again at --threads 2; its report must
    match the --threads 1 report apart from the argv digest."""
    by_id = {rec["id"]: rec for rec in runner.records}
    out = []
    for request_id, req in enumerate(done):
        rec = by_id[request_id]
        if req.command not in ("verify", "compare") or not rec["ok"]:
            continue
        argv = list(req.argv)
        argv[argv.index("--threads") + 1] = "2"
        rerun_id = f"threads2-{request_id}"
        code, exc, stdout, elapsed = runner.call(argv, rerun_id)
        digest = _result_digest(stdout) if stdout and exc is None else None
        out.append({"id": request_id, "label": req.label, "command": req.command,
                    "exit": code, "seconds_threads2": elapsed,
                    "result_sha256_threads2": digest,
                    "match": digest == rec.get("result_sha256"),
                    "estimate_tail_s": _estimate_tail_time(tracer.spans, request_id),
                    "estimate_tail_s_threads2": _estimate_tail_time(tracer.spans,
                                                                    rerun_id)})
    return out


def _per_layer(tracing, spans, n_requests):
    """Per-request means over the traced requests (rates and ratios as is)."""
    table = tracing.SpanTable(spans)
    n = max(n_requests, 1)
    m = {}
    for name in ("distributions.log_abs_moment", "orlicz.psi_norm",
                 "functions.proxy_profile", "verify.clopper_pearson",
                 "bounds.evaluate_tail", "bounds.invert_tail"):
        m[name + ".calls"] = table.calls(name) / n
    for name in ("distributions.log_abs_moment", "orlicz.psi_norm_finite",
                 "functions.fspec_from_dict", "functions.proxy_profile",
                 "functions.expectation", "functions.sample_f", "verify.estimate_tail",
                 "verify.bounds_on_grid", "verify.check_bounds", "verify.clopper_pearson",
                 "bounds.evaluate_tail", "bounds.invert_tail", "applications.psi_diameter"):
        m[name + ".time_s"] = table.time(name) / n
    for group in ("entropy", "applications"):
        m[group + ".calls"] = table.calls(group=group) / n
        m[group + ".time_s"] = table.time(group=group) / n
    m["orlicz.psi_norm.self_s"] = table.self_time("orlicz.psi_norm") / n
    m["verify.estimate_tail.self_s"] = table.self_time("verify.estimate_tail") / n
    m["cli.self_s"] = table.self_time("cli.main") / n
    m["trace.request_s"] = table.time("cli.main") / n

    moments = table.select("distributions.log_abs_moment")
    m["distributions.log_abs_moment.miss_ratio"] = (
        sum(1 for s in moments if s[7]["miss"]) / len(moments) if moments else 0.0)
    samples = table.select("functions.sample_f")
    m["functions.sample_f.samples"] = sum(s[7]["samples"] for s in samples) / n
    for kind in ("sum", "vector_norm_of_sum", "metric_lipschitz"):
        own = [s for s in samples if s[7]["kind"] == kind]
        busy = sum(s[4] - s[3] for s in own)
        m[f"functions.sample_f.samples_per_s.{kind}"] = (
            sum(s[7]["samples"] for s in own) / busy if busy > 0 else 0.0)
    return m

if __name__ == "__main__":
    sys.exit(main())
