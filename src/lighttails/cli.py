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
import re
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
MAX_T_STEPS = 10 ** 5


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse reads what this matches as a value; no option starts with
        # '-' and a digit, so -1:2:3 is a value, like -1
        self._negative_number_matcher = re.compile(r"-\.?\d")

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
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise UsageError(f"--t-grid needs finite lo and hi, got {text!r}")
    if not 1 <= steps <= MAX_T_STEPS:
        raise UsageError(f"--t-grid needs 1 <= steps <= {MAX_T_STEPS}, got {text!r}")
    if lo <= 0 or (steps > 1 and hi <= lo):
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
    payload = {"beta": args.beta,
               "subgaussian": _lemma_check(ent.entropy_bound_subgaussian, y, args.beta),
               "subexponential": _lemma_check(ent.entropy_bound_subexponential, y)}
    if args.p is not None:
        payload["holder"] = {"p": args.p, **_lemma_check(ent.entropy_bound_holder, y, args.p)}
    _emit_payload(args, digest, payload)
    return EXIT_OK


def _lemma_check(bound, *args):
    """The entropy and bound of an entropy-bound lemma and whether it holds,
    or why it was skipped when its hypothesis fails."""
    try:
        lhs, rhs = bound(*args)
    except ent.LemmaHypothesisError as exc:
        return {"skipped": str(exc)}
    return {"entropy": lhs, "bound": rhs, "holds": bool(lhs <= rhs + 1e-12)}


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


def _parse_float_list(text, flag):
    try:
        values = [float(x) for x in text.split(",") if x.strip()]
    except ValueError as exc:
        raise UsageError(f"bad --{flag}: {exc}")
    for v in values:
        _check_number(flag, v, need="finite numbers")
    return values


_APP_NUMBERS = ("delta", "p", "psi2", "l2p", "lip", "rad-expectation", "psi1-z", "t")

# --app -> (its required flags, its bound of the args); --psi1 and
# --diameters are lists by then
_APPS = {
    "vector-i": ("psi1 delta", lambda a: apps.vector_bound_i(a.psi1, a.delta)),
    "vector-ii": ("psi1 n delta", lambda a: apps.vector_bound_ii(a.psi1[0], a.n, a.delta)),
    "vector-iii": ("l2p psi1 p n delta", lambda a: apps.vector_bound_iii(
        a.l2p, a.psi1[0], a.p, a.n, a.delta)),
    "psa": ("psi2 d n delta", lambda a: apps.psa_bound(a.psi2, a.d, a.n, a.delta)),
    "rademacher": ("psi1 n delta", lambda a: apps.rademacher_generalization_bound(
        a.rad_expectation, a.lip, a.psi1[0], a.n, a.delta)),
    "regression": ("psi1 n delta", lambda a: apps.regression_bound(
        a.lip, a.psi1[0], a.psi1_z, a.n, a.delta)),
    "metric": ("diameters t", lambda a: apps.metric_tail(
        a.lip, a.diameters, a.t, a.lipschitz_linear_term)),
}


def _cmd_appbound(args):
    digest = _config_digest(args)
    for flag in _APP_NUMBERS:
        _check_number(flag, getattr(args, flag.replace("-", "_")))
    for flag in ("psi1", "diameters"):
        if getattr(args, flag) is not None:
            setattr(args, flag, _parse_float_list(getattr(args, flag), flag))
    if args.app != "vector-i" and args.psi1 is not None and len(args.psi1) != 1:
        raise UsageError(f"--psi1 must be one number for --app {args.app}")
    needs, bound = _APPS[args.app]
    for name in needs.split():
        if getattr(args, name) is None:
            raise UsageError(f"--{name} is required for --app {args.app}")
    try:
        value = bound(args)
    except (apps.PreconditionError, ValueError) as exc:
        raise UsageError(str(exc))
    payload = {"result": value.to_dict()} if args.app == "metric" else {"value": value}
    _emit_payload(args, digest, {"app": args.app, **payload})
    return EXIT_OK


def _run_verification(args, negative_control=False, with_ratios=False):
    _check_number("threads", args.threads, lambda v: v >= 1, "an integer >= 1")
    fspec = _load_fn_spec(args.spec)
    kinds = _parse_kinds(args.bounds)
    _thm3_p(kinds, args.p)
    t_grid = _parse_t_grid(args.t_grid)
    digest = _config_digest(args, fn.fspec_to_dict(fspec))
    meta = {"tool_version": __version__, "config_digest": digest,
            "command": args.command, "schema": 1,
            "sampler_layout": fspec.sampler_layout}
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
