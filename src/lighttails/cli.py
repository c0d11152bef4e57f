"""Command-line front door: wire JSON configs to the library operations and
emit machine-readable reports.

Exit codes: 0 success (and SOUND verifications), 1 usage or config errors,
2 bound VIOLATION.  Artifacts are written atomically and every output embeds
the tool version, the seed, and a digest of the effective config.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import tempfile

import numpy as np

from . import __version__
from . import applications as apps
from . import distributions as dist
from . import entropy as ent
from . import functions as fn
from . import verify as vfy
from .bounds import BOUND_KINDS, invert_tail
from .orlicz import PMaxTooSmallError, psi_norm

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VIOLATION = 2


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser():
    parser = _Parser(prog="lighttails",
                     description="tail bounds for functions of independent variables")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--output", default=None, help="artifact path (default stdout)")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        return p

    p = add("norms", "Orlicz-type norm of a catalogue distribution")
    p.add_argument("--spec", required=True)
    p.add_argument("--alpha", type=int, choices=(1, 2), required=True)
    p.add_argument("--p-max", type=float, default=256.0)

    p = add("entropy-check", "entropy bounds for a finite-support law")
    p.add_argument("--spec", required=True)
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--p", type=float, default=None)

    p = add("bound", "closed-form tail bounds for a function spec")
    p.add_argument("--spec", required=True)
    p.add_argument("--bounds", required=True, help="comma-separated bound kinds")
    p.add_argument("--t-grid", required=True, help="lo:hi:steps")
    p.add_argument("--p", type=float, default=None)

    p = add("invert", "deviation levels at a confidence target")
    p.add_argument("--spec", required=True)
    p.add_argument("--bounds", required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--p", type=float, default=None)

    p = add("appbound", "closed-form application bounds")
    p.add_argument("--app", required=True,
                   choices=("vector-i", "vector-ii", "vector-iii", "psa",
                            "rademacher", "regression", "metric"))
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--p", type=float, default=None)
    p.add_argument("--psi1", default=None, help="value or comma-separated list")
    p.add_argument("--psi2", type=float, default=None)
    p.add_argument("--l2p", type=float, default=None)
    p.add_argument("--lip", type=float, default=1.0)
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--rad-expectation", type=float, default=0.0)
    p.add_argument("--psi1-z", type=float, default=0.0)
    p.add_argument("--diameters", default=None, help="comma-separated list")
    p.add_argument("--t", type=float, default=None)
    p.add_argument("--lipschitz-linear-term", action="store_true")

    for name in ("verify", "compare"):
        p = add(name, "Monte-Carlo check that bounds dominate empirical tails")
        p.add_argument("--spec", required=True)
        p.add_argument("--bounds", required=True)
        p.add_argument("--t-grid", required=True, help="lo:hi:steps")
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--p", type=float, default=None)
        p.add_argument("--threads", type=int, default=1)
        if name == "verify":
            p.add_argument("--negative-control", action="store_true")
    return parser


def _parse_t_grid(text):
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError(f"--t-grid must be lo:hi:steps, got {text!r}")
    try:
        lo, hi, steps = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise UsageError(f"bad --t-grid {text!r}: {exc}")
    if steps < 1 or lo <= 0 or (steps > 1 and hi <= lo):
        raise UsageError(f"--t-grid needs 0 < lo < hi and steps >= 1, got {text!r}")
    return [float(t) for t in np.linspace(lo, hi, steps)]


def _parse_kinds(text):
    kinds = [k.strip() for k in text.split(",") if k.strip()]
    if not kinds:
        raise UsageError("--bounds must name at least one bound kind")
    for k in kinds:
        if k not in BOUND_KINDS:
            raise UsageError(f"unknown bound kind {k!r}; known: {', '.join(BOUND_KINDS)}")
    return kinds


def _thm3_p(kinds, p):
    """The p of the 2p-norms in the proxy profile: --p if a thm3 kind is
    asked for, else None.  The thm3 kinds need --p > 1; this is checked
    before any profile work."""
    if not any(k.startswith("thm3") for k in kinds):
        return None
    if p is None:
        raise UsageError("the thm3 bound kinds need --p, the order of the "
                         "2p-norms (p > 1)")
    if not p > 1:
        raise UsageError(f"the thm3 bound kinds need --p > 1, got {p!r}")
    _check_number("p", p)
    return p


def _check_number(flag, value, holds=lambda v: True, need="a finite number"):
    """UsageError naming --flag unless value is None, or finite and holds."""
    if value is not None and not (math.isfinite(value) and holds(value)):
        raise UsageError(f"--{flag} must be {need}, got {value!r}")


def _load_spec_file(path):
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read spec file {path}: {exc}")
    except (json.JSONDecodeError, RecursionError) as exc:
        raise UsageError(f"spec file {path} is not valid JSON: {exc}")
    if not isinstance(raw, dict):
        raise UsageError(f"spec file {path}: top level must be an object")
    if raw.get("schema") != 1:
        raise UsageError(f'spec file {path}: field "$.schema" must equal 1')
    extra = set(raw) - {"schema", "spec"}
    if extra:
        key = sorted(extra)[0]
        raise UsageError(f'spec file {path}: unknown field "$.{key}"')
    if "spec" not in raw:
        raise UsageError(f'spec file {path}: missing field "$.spec"')
    return raw["spec"]


def _load_dist_spec(path):
    try:
        spec = dist.spec_from_dict(_load_spec_file(path), "$.spec")
    except dist.SpecError as exc:
        raise UsageError(f"spec file {path}: {exc}")
    if not isinstance(spec, dist.Distribution):
        raise UsageError(f'spec file {path}: "$.spec": expected a scalar distribution')
    return spec


def _load_fn_spec(path):
    try:
        return fn.fspec_from_dict(_load_spec_file(path), "$.spec")
    except dist.SpecError as exc:
        raise UsageError(f"spec file {path}: {exc}")


def _config_digest(args, spec_payload=None):
    cfg = {k: v for k, v in sorted(vars(args).items()) if k != "output"}
    if spec_payload is not None:
        cfg["spec_payload"] = spec_payload
    blob = json.dumps(cfg, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def _envelope(args, digest, payload):
    out = {"schema": 1, "tool_version": __version__, "command": args.command,
           "config_digest": digest}
    if getattr(args, "seed", None) is not None:
        out["seed"] = args.seed
    out.update(payload)
    return out


def _kv_csv(d, prefix=""):
    lines = []
    for k, v in d.items():
        key = f"{prefix}{k}"
        if isinstance(v, dict):
            lines.extend(_kv_csv(v, prefix=key + "."))
        elif isinstance(v, (list, tuple)):
            lines.append(f"{key},\"{';'.join(repr(x) if isinstance(x, float) else str(x) for x in v)}\"")
        else:
            lines.append(f"{key},{repr(v) if isinstance(v, float) else v}")
    return lines


def _emit(args, text):
    if args.output is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(args.output))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".lighttails-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, args.output)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit_payload(args, digest, payload):
    doc = _envelope(args, digest, payload)
    if args.format == "json":
        _emit(args, json.dumps(doc, indent=2, allow_nan=True) + "\n")
    else:
        _emit(args, "key,value\n" + "\n".join(_kv_csv(doc)) + "\n")


def _cmd_norms(args):
    _check_number("p-max", args.p_max, lambda v: v >= 1, "a finite number >= 1")
    spec = _load_dist_spec(args.spec)
    digest = _config_digest(args, dist.spec_to_dict(spec))
    try:
        est = psi_norm(spec, args.alpha, p_max=args.p_max)
    except PMaxTooSmallError as exc:
        raise UsageError(str(exc))
    _emit_payload(args, digest, {"estimate": est.to_dict()})
    return EXIT_OK


def _cmd_entropy_check(args):
    _check_number("beta", args.beta)
    _check_number("p", args.p, lambda v: v > 1, "a finite number > 1")
    spec = _load_dist_spec(args.spec)
    fs = dist.finite_support(spec)
    if fs is None:
        raise UsageError("entropy-check needs a finite-support distribution")
    digest = _config_digest(args, dist.spec_to_dict(spec))
    values, probs = fs
    mu = float(np.dot(values, probs))
    y = dist.FiniteSupport(values - mu, probs)
    lhs, rhs = ent.entropy_bound_subgaussian(y, args.beta)
    payload = {"beta": args.beta,
               "subgaussian": {"entropy": lhs, "bound": rhs,
                               "holds": bool(lhs <= rhs + 1e-12)}}
    try:
        lhs1, rhs1 = ent.entropy_bound_subexponential(y)
        payload["subexponential"] = {"entropy": lhs1, "bound": rhs1,
                                     "holds": bool(lhs1 <= rhs1 + 1e-12)}
    except ent.LemmaHypothesisError as exc:
        payload["subexponential"] = {"skipped": str(exc)}
    if args.p is not None:
        try:
            lhs2, rhs2 = ent.entropy_bound_holder(y, args.p)
            payload["holder"] = {"p": args.p, "entropy": lhs2, "bound": rhs2,
                                 "holds": bool(lhs2 <= rhs2 + 1e-12)}
        except ent.LemmaHypothesisError as exc:
            payload["holder"] = {"p": args.p, "skipped": str(exc)}
    _emit_payload(args, digest, payload)
    return EXIT_OK


def _cmd_bound(args):
    fspec = _load_fn_spec(args.spec)
    kinds = _parse_kinds(args.bounds)
    _thm3_p(kinds, args.p)
    t_grid = _parse_t_grid(args.t_grid)
    digest = _config_digest(args, fn.fspec_to_dict(fspec))
    try:
        table = vfy.bounds_on_grid(fspec, kinds, t_grid, p=args.p)
    except ValueError as exc:
        raise UsageError(str(exc))
    payload = {"t_grid": t_grid,
               "bounds": {k: [r.to_dict() for r in rs] for k, rs in table.items()}}
    _emit_payload(args, digest, payload)
    return EXIT_OK


def _cmd_invert(args):
    fspec = _load_fn_spec(args.spec)
    kinds = _parse_kinds(args.bounds)
    p = _thm3_p(kinds, args.p)
    digest = _config_digest(args, fn.fspec_to_dict(fspec))
    try:
        profile = fn.proxy_profile(fspec, p=p, kinds=kinds)
        results = {k: invert_tail(k, profile, args.delta, p=args.p).to_dict()
                   for k in kinds}
    except ValueError as exc:
        raise UsageError(str(exc))
    _emit_payload(args, digest, {"delta": args.delta, "inversions": results})
    return EXIT_OK


def _require(args, names):
    for name in names:
        if getattr(args, name.replace("-", "_")) is None:
            raise UsageError(f"--{name} is required for --app {args.app}")


def _parse_float_list(text, flag):
    try:
        return [float(x) for x in text.split(",") if x.strip()]
    except ValueError as exc:
        raise UsageError(f"bad --{flag}: {exc}")


def _cmd_appbound(args):
    digest = _config_digest(args)
    try:
        if args.app == "vector-i":
            _require(args, ["psi1", "delta"])
            value = apps.vector_bound_i(_parse_float_list(args.psi1, "psi1"),
                                        args.delta)
        elif args.app == "vector-ii":
            _require(args, ["psi1", "n", "delta"])
            value = apps.vector_bound_ii(float(args.psi1), args.n, args.delta)
        elif args.app == "vector-iii":
            _require(args, ["l2p", "psi1", "p", "n", "delta"])
            value = apps.vector_bound_iii(args.l2p, float(args.psi1), args.p,
                                          args.n, args.delta)
        elif args.app == "psa":
            _require(args, ["psi2", "d", "n", "delta"])
            value = apps.psa_bound(args.psi2, args.d, args.n, args.delta)
        elif args.app == "rademacher":
            _require(args, ["psi1", "n", "delta"])
            value = apps.rademacher_generalization_bound(
                args.rad_expectation, args.lip, float(args.psi1), args.n, args.delta)
        elif args.app == "regression":
            _require(args, ["psi1", "n", "delta"])
            value = apps.regression_bound(args.lip, float(args.psi1),
                                          args.psi1_z, args.n, args.delta)
        else:
            _require(args, ["diameters", "t"])
            res = apps.metric_tail(args.lip,
                                   _parse_float_list(args.diameters, "diameters"),
                                   args.t, args.lipschitz_linear_term)
            _emit_payload(args, digest, {"app": args.app, "result": res.to_dict()})
            return EXIT_OK
    except (apps.PreconditionError, ValueError) as exc:
        raise UsageError(str(exc))
    _emit_payload(args, digest, {"app": args.app, "value": value})
    return EXIT_OK


def _run_verification(args, negative_control=False, with_ratios=False):
    fspec = _load_fn_spec(args.spec)
    kinds = _parse_kinds(args.bounds)
    _thm3_p(kinds, args.p)
    t_grid = _parse_t_grid(args.t_grid)
    digest = _config_digest(args, fn.fspec_to_dict(fspec))
    meta = {"tool_version": __version__, "config_digest": digest,
            "command": args.command, "schema": 1}
    try:
        if with_ratios:
            report = vfy.compare_bounds(fspec, kinds, t_grid, args.n, args.seed,
                                        p=args.p, threads=args.threads,
                                        metadata=meta)
        else:
            table = vfy.bounds_on_grid(fspec, kinds, t_grid, p=args.p)
            est = vfy.estimate_tail(fspec, t_grid, args.n, args.seed,
                                    threads=args.threads)
            if negative_control:
                table = vfy.falsified_bounds(table)
            report = vfy.check_bounds(est, table, metadata=meta)
    except ValueError as exc:
        raise UsageError(str(exc))
    if args.format == "csv":
        _emit(args, vfy.report_to_csv(report))
    else:
        _emit(args, json.dumps(report.to_dict(), indent=2, allow_nan=True) + "\n")
    return EXIT_VIOLATION if report.verdict == "VIOLATION" else EXIT_OK


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        handler = {
            "norms": _cmd_norms,
            "entropy-check": _cmd_entropy_check,
            "bound": _cmd_bound,
            "invert": _cmd_invert,
            "appbound": _cmd_appbound,
            "verify": lambda a: _run_verification(
                a, negative_control=a.negative_control),
            "compare": lambda a: _run_verification(a, with_ratios=True),
        }[args.command]
        return handler(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:
        # argparse --version / --help paths
        return exc.code if exc.code is not None else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
