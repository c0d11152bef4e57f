"""lighttails benchmark: CLI requests end to end, and per-layer spans.

Run one workload (from the repository root):

  python3 bench/run.py --workload bound-cold --seed 1 --seconds 28 --trace 0

Workloads (see bench/workloads.py): bound-cold, query-warm, verify-mc.
Each phase runs in its own fresh interpreter (bench/worker.py), so caches
start cold and peak RSS belongs to the workload alone.

--trace 0  worker processes, one after another, each setting up afresh and
           then running its share of the request cycles; prints the
           end-to-end metrics over all requests of all workers.
--trace 1  one untraced process for half of --seconds, then a traced process
           running the same requests; prints the per-layer metrics.

The request list is a whole number of request cycles: as many as fit in
--seconds at the workload's nominal cycle time (see bench/workloads.py).
It is thus fixed by workload, seed and --seconds, and two versions of the
program are timed on identical work.  Every cycle draws new parameters, so
on bound-cold every request is cold even when a worker runs two cycles.

Every request is timed once, and the metrics pool all of them.  Times are
rescaled to a reference machine speed by a speed probe run between requests
(worker.speed_probe, bench/README.md); the raw wall times stay in the result
file.  setup_s is the median of the workers' set-ups.

The last stdout line is one JSON object: correct, attempted, failed, metrics.
The full result, with environment, failures by spec and output digests, is
written to bench/out/results/; spans go to bench/out/traces/.

Compare two sets of results (each a directory of result files, or a file):

  python3 bench/run.py --compare bench/out/results-a bench/out/results-b
"""
from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKER = BENCH / "worker.py"
TIME_LIMIT_S = 170.0       # a run must finish within this


def _spec():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def _run_worker(workload, seed, phase, deadline, tag, cycles, repeats=1, spans_out=None):
    out = OUT / "tmp" / f"{workload}-s{seed}-{phase}-{tag}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
           "--phase", phase, "--out", str(out),
           "--cycles", ",".join(map(str, cycles)), "--repeats", str(repeats),
           "--workdir", os.path.join("bench", "out", "work", f"{workload}-s{seed}")]
    if spans_out is not None:
        cmd += ["--spans-out", str(spans_out)]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise RuntimeError(f"no time left for the {phase} phase")
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=remaining)
    if proc.returncode != 0:
        raise RuntimeError(f"{phase} worker exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    with open(out) as fh:
        result = json.load(fh)
    out.unlink()
    return result


def tail_percentile(times):
    """Highest percentile with at least ten samples beyond it:
    (value, percentile, sample count)."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= 10:  # no percentile has ten beyond it: report the maximum
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def _request_summary(records):
    ok = [r for r in records if r["ok"]]
    failures = {}
    for r in records:
        if not r["ok"]:
            key = (r["label"], r["command"], r.get("error", "").split("\n")[0][:200])
            failures[key] = failures.get(key, 0) + 1
    return {
        "attempted": len(records), "succeeded": len(ok),
        "failed": len(records) - len(ok),
        "incorrect": sum(1 for r in records if r["incorrect"]),
        "known_defect": sum(1 for r in records if r.get("known_defect")),
        "fail_ratio": (len(records) - len(ok)) / len(records) if records else 0.0,
        "failures_by_spec": [{"label": k[0], "command": k[1], "error": k[2], "count": v}
                             for k, v in sorted(failures.items())],
    }


def _digests(records):
    mc = [r for r in records if "stdout_sha256" in r]
    chain = hashlib.sha256("".join(r["stdout_sha256"] for r in mc).encode()).hexdigest()
    return {"verify_compare_stdout_chain": chain,
            "verify_compare": [{"id": r["id"], "label": r["label"],
                                "argv": r["argv"], "stdout_sha256": r["stdout_sha256"],
                                "result_sha256": r.get("result_sha256")} for r in mc]}


def _pooled(parts):
    """All workers' records in request-list order (cycle, then position)."""
    return sorted((r for p in parts for r in p["records"]),
                  key=lambda r: (r["cycle"], r["pos"]))


def _end_to_end(parts):
    """Metrics at the reference speed (see worker._rescale); the raw wall
    times stay in the result file."""
    records = _pooled(parts)
    setup_times = [p["setup_ref_s"] for p in parts]
    times = [r["ref_seconds"] for r in records if r["ok"]]
    timed = sum(r["ref_seconds"] for r in records)
    tail, pct, count = tail_percentile(times) if times else (0.0, 0.0, 0)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "req_p50_s": statistics.median(times) if times else 0.0,
        "req_tail_s": tail,
        "throughput_rps": len(times) / timed if timed > 0 else 0.0,
        "peak_rss_mb": max(p["peak_rss_mb"] for p in parts),
    }
    raw = [r["seconds"] for r in records if r["ok"]]
    detail = {"per_request": [{k: r[k] for k in ("cycle", "label", "command", "ok",
                                                 "seconds", "ref_seconds", "probe_s")}
                              for r in records],
              "setup_ref_s_samples": setup_times,
              "setup_s_samples": [p["setup_s"] for p in parts],
              "timed_ref_s": timed, "timed_wall_s": sum(r["seconds"] for r in records),
              "raw_req_p50_s": statistics.median(raw) if raw else 0.0,
              "probes_s": [x for p in parts for x in p["probes"]],
              "req_tail_percentile": pct, "req_tail_samples": count,
              "cycles": sum(p["cycles"] for p in parts), "workers": len(parts),
              "loop_wall_s": sum(p["loop_wall_s"] for p in parts),
              "cpu_s": sum(p["cpu_s"] for p in parts)}
    draws = sum(r.get("mc_draws", 0) for r in records if r["ok"])
    if draws:
        detail["mc_samples_per_s"] = draws / timed
    return metrics, detail


def _per_layer(untraced, traced):
    """Per-layer metrics of the traced process, plus the ratios that need
    the untraced process's times of the same requests."""
    metrics = dict(traced["per_layer"])
    n = len(traced["records"])
    base = untraced["records"][:n]
    t_untraced = sum(r["seconds"] for r in base)
    t_traced = sum(r["seconds"] for r in traced["records"])
    metrics["trace.overhead_ratio"] = t_traced / t_untraced if t_untraced > 0 else 0.0
    timed = sum(r["seconds"] for r in untraced["records"])
    draws = sum(r.get("mc_draws", 0) for r in untraced["records"] if r["ok"])
    metrics["mc_samples_per_s"] = draws / timed if timed > 0 else 0.0
    metrics["fail_ratio"] = _request_summary(untraced["records"])["fail_ratio"]
    return metrics


def run(args):
    if not (ROOT / "src" / "lighttails" / "cli.py").is_file():
        print(f"error: no lighttails source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = _spec()
    deadline = time.monotonic() + TIME_LIMIT_S
    workload = workloads.WORKLOADS[args.workload]
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    tag = f"{stamp}-{os.getpid()}"
    workdir = OUT / "work" / f"{args.workload}-s{args.seed}"
    try:
        if args.trace == 0:
            cycles = max(1, round(args.seconds / workload.NOMINAL_CYCLE_S))
            workers = min(workload.WORKERS, cycles)
            children = [_run_worker(args.workload, args.seed, "measure", deadline,
                                    f"{tag}-w{k}", range(k, cycles, workers),
                                    workload.REPEATS)
                        for k in range(workers)]
            metrics, detail = _end_to_end(children)
            names = [m["name"] for m in spec["end_to_end"]]
            units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        else:
            cycles = max(1, round(args.seconds / 2.0 / workload.NOMINAL_CYCLE_S))
            untraced = _run_worker(args.workload, args.seed, "measure", deadline, tag,
                                   range(cycles))
            spans = OUT / "traces" / f"{args.workload}-s{args.seed}-{tag}.jsonl.gz"
            spans.parent.mkdir(parents=True, exist_ok=True)
            traced = _run_worker(args.workload, args.seed, "trace", deadline, tag,
                                 range(cycles), spans_out=spans)
            metrics = _per_layer(untraced, traced)
            detail = {"traced_requests": len(traced["records"]),
                      "traced_cycles": traced["cycles"], "spans_file": str(spans),
                      "thread_rerun": traced["thread_rerun"]}
            children = [untraced, traced]
            names = [m["name"] for m in spec["per_layer"]]
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    records = [r for c in children for r in c["records"]]
    summary = _request_summary(records)
    correct = summary["incorrect"] == 0
    if args.trace == 1:
        correct = correct and all(r["match"] for r in traced["thread_rerun"])
    metrics = {k: metrics[k] for k in names}
    doc = {"benchmark": "lighttails", "workload": args.workload, "seed": args.seed,
           "seconds": args.seconds, "trace": args.trace,
           "environment": children[0]["environment"], "correct": correct,
           "requests": summary, "detail": detail,
           "digests": _digests(_pooled(children) if args.trace == 0
                                else untraced["records"]),
           "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{args.workload}-s{args.seed}-trace{args.trace}-{tag}.json"
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)

    env = doc["environment"]
    print(f"workload {args.workload} seed {args.seed}: {summary['attempted']} requests, "
          f"{summary['failed']} failed ({summary['known_defect']} known "
          f"PMaxTooSmallError defect), nproc {env['nproc']}, {env['cpu_model']}, "
          f"python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}")
    for f in summary["failures_by_spec"]:
        print(f"  failed x{f['count']}: {f['command']} on {f['label']}: {f['error']}")
    if args.trace == 0:
        print(f"  req_tail_s is p{detail['req_tail_percentile']:.1f} of "
              f"{detail['req_tail_samples']} successful requests")
    for k, v in metrics.items():
        print(f"  {k:48s} {v:.6g} {units[k]}")
    print(f"  result: {path}")
    print(json.dumps({"correct": correct, "attempted": summary["attempted"],
                      "failed": summary["failed"],
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in metrics.items()}}))
    return 0


# ---------------------------------------------------------------------------
# Compare mode

def _load_results(where):
    files = sorted(glob.glob(os.path.join(where, "*.json"))) if os.path.isdir(where) \
        else [where]
    docs = []
    for f in files:
        with open(f) as fh:
            docs.append(json.load(fh))
    return docs


def _quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def compare(side_a, side_b):
    """Per workload and metric: each side's median and quartiles, and the
    ratio of the medians with its base."""
    a, b = _load_results(side_a), _load_results(side_b)
    spec = _spec()
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    rows = {}
    for side, docs in (("a", a), ("b", b)):
        for d in docs:
            for name, m in d["metrics"].items():
                key = (d["workload"], d["trace"], name, m["unit"])
                rows.setdefault(key, {"a": [], "b": []})[side].append(m["value"])
    print(f"{'workload':11s} {'metric':48s} {'A median [q1, q3] n':>32s} "
          f"{'B median [q1, q3] n':>32s}  B/A")
    for (workload, trace, name, unit), vals in sorted(rows.items()):
        cells = []
        for side in ("a", "b"):
            v = vals[side]
            if v:
                q1, med, q3 = _quartiles(v)
                cells.append((med, f"{med:.4g} [{q1:.4g}, {q3:.4g}] {len(v)}"))
            else:
                cells.append((None, "-"))
        (ma, ta), (mb, tb) = cells
        ratio = "-"
        if ma is not None and mb is not None and ma != 0:
            ratio = f"{mb / ma:.3f} (base {ma:.4g} {unit}, {better.get(name, '?')} is better)"
        print(f"{workload:11s} {name:48s} {ta:>32s} {tb:>32s}  {ratio}")
    _compare_digests(a, b)
    return 0


def _compare_digests(a, b):
    """Runs of one workload and seed must print identical verify/compare
    reports for the requests both made."""
    seen = {}
    for d in a + b:
        if d["trace"] != 0:
            continue
        entries = d["digests"]["verify_compare"]
        if not entries:
            continue
        key = (d["workload"], d["seed"])
        if key in seen:
            other = seen[key]
            common = min(len(other), len(entries))
            same = all(x["stdout_sha256"] == y["stdout_sha256"]
                       for x, y in zip(other[:common], entries[:common]))
            print(f"digests {key[0]} seed {key[1]}: {common} common verify/compare "
                  f"outputs {'identical' if same else 'DIFFER'}")
        else:
            seen[key] = entries


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=list(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=28.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"),
                    help="two result directories (or files) to compare")
    args = ap.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        ap.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
