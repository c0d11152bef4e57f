"""Command-line front door: wire JSON configs to the library operations and
emit machine-readable reports.

Exit codes: 0 success (and SOUND verifications), 1 usage or config errors,
inputs a library call refuses (a ValueError) and norms or moments that
cannot be certified, 2 bound VIOLATION.  Artifacts are written atomically.
Every JSON output and every key,value CSV output embeds the tool version,
the seed of a command that takes one, and a digest of the effective config;
the verify and compare CSV table holds the report rows only.
"""
from __future__ import annotations

import argparse
import functools
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


# flags that several subcommands share; their names, defaults and types
# feed the config digest through vars(args)
_SHARED_FLAGS = {
    "--spec": dict(required=True),
    "--bounds": dict(required=True, help="comma-separated bound kinds"),
    "--t-grid": dict(required=True, help="lo:hi:steps"),
    "--p": dict(type=float, default=None),
}


@functools.cache
def _build_parser():
    parser = _Parser(prog="lighttails",
                     description="tail bounds for functions of independent variables")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, *shared):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--output", default=None, help="artifact path (default stdout)")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        for flag in shared:
            p.add_argument(flag, **_SHARED_FLAGS[flag])
        return p

    p = add("norms", "Orlicz-type norm of a catalogue distribution", "--spec")
    p.add_argument("--alpha", type=int, choices=(1, 2), required=True)

    p = add("entropy-check", "entropy bounds for a finite-support law", "--spec", "--p")
    p.add_argument("--beta", type=float, default=1.0)

    add("bound", "closed-form tail bounds for a function spec",
        "--spec", "--bounds", "--t-grid", "--p")

    p = add("invert", "deviation levels at a confidence target", "--spec", "--bounds", "--p")
    p.add_argument("--delta", type=float, required=True)

    p = add("appbound", "closed-form application bounds", "--p")
    p.add_argument("--app", required=True,
                   choices=("vector-i", "vector-ii", "vector-iii", "psa",
                            "rademacher", "regression", "metric"))
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--psi1", default=None, help="value or comma-separated list")
    p.add_argument("--psi2", type=float, default=None)
    p.add_argument("--l2p", type=float, default=None)
    p.add_argument("--lip", type=float, default=1.0)
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--rad-expectation", type=float, default=0.0)
    p.add_argument("--psi1-z", type=float, default=0.0)
    p.add_argument("--diameters", default=None, help="comma-separated list")
    p.add_argument("--t", type=float, default=None)

    for name in ("verify", "compare"):
        p = add(name, "Monte-Carlo check that bounds dominate empirical tails",
                "--spec", "--bounds", "--t-grid", "--p")
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--threads", type=int, default=1)
        if name == "verify":
            p.add_argument("--negative-control", action="store_true")
    parser.commands = sub.choices      # name -> sub-parser, for _parse_args
    return parser


def _parse_args(argv):
    """The Namespace the top-level parser gives for argv.  All that parser
    does with an argv that starts with a command is hand the rest to the
    command's sub-parser, so such an argv goes there directly; --help,
    --version, no command and an unknown one take the top-level parser."""
    parser = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    sub = parser.commands.get(argv[0]) if argv else None
    if sub is None:
        return parser.parse_args(argv)
    args = sub.parse_args(argv[1:])
    args.command = argv[0]
    return args


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


def _check_thm3_p(kinds, p):
    """The thm3 kinds need --p > 1, the order of the 2p-norms in the proxy
    profile; this is checked before any profile work."""
    if not any(k.startswith("thm3") for k in kinds):
        return
    if p is None:
        raise UsageError("the thm3 bound kinds need --p, the order of the "
                         "2p-norms (p > 1)")
    if not p > 1:
        raise UsageError(f"the thm3 bound kinds need --p > 1, got {p!r}")
    _check_number("p", p)
    _check_number("p", p, lambda v: math.isfinite(2 * v), "a number whose double is finite")


def _check_number(flag, value, holds=lambda v: True, need="a finite number"):
    """UsageError naming --flag unless value is None, or finite and holds."""
    if value is not None and not (math.isfinite(value) and holds(value)):
        raise UsageError(f"--{flag} must be {need}, got {value!r}")


_SPEC_TEXTS = 256     # decoded spec texts kept per process


class _BadSpecText(Exception):
    """Why a spec text is refused; the message follows "spec file PATH"."""


def _load_spec(path, scalar=False):
    """(spec, digest payload) of the spec file at path: a function spec, or
    a scalar distribution if scalar is set.  Decoding is memoised on the
    file's text, never on its path, so a rewritten file is decoded afresh;
    failures are not memoised."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read spec file {path}: {exc}")
    try:
        return _decode_spec_text(text, scalar)
    except _BadSpecText as exc:
        raise UsageError(f"spec file {path}{exc}")


@functools.lru_cache(maxsize=_SPEC_TEXTS)
def _decode_spec_text(text, scalar):
    """(spec, payload) of a spec file's text.  The payload is the spec's own
    JSON form: equal specs may have different forms (a -0.0 or 0.0 field),
    so the memo is keyed on the whole text, not on the spec or a hash."""
    try:
        raw = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise _BadSpecText(f" is not valid JSON: {exc}")
    if not isinstance(raw, dict):
        raise _BadSpecText(": top level must be an object")
    if raw.get("schema") != 1:
        raise _BadSpecText(': field "$.schema" must equal 1')
    extra = set(raw) - {"schema", "spec"}
    if extra:
        raise _BadSpecText(f': unknown field "$.{sorted(extra)[0]}"')
    if "spec" not in raw:
        raise _BadSpecText(': missing field "$.spec"')
    try:
        spec = (dist.spec_from_dict if scalar else fn.fspec_from_dict)(raw["spec"], "$.spec")
    except dist.SpecError as exc:
        raise _BadSpecText(f": {exc}")
    if scalar and not isinstance(spec, dist.Distribution):
        raise _BadSpecText(': "$.spec": expected a scalar distribution')
    return spec, dist.spec_to_dict(spec)


def _config_digest(args, spec_payload=None):
    cfg = {k: v for k, v in sorted(vars(args).items()) if k != "output"}
    if spec_payload is not None:
        cfg["spec_payload"] = spec_payload
    blob = json.dumps(cfg, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def _request(args, scalar=False):
    """(spec, kinds, t_grid, digest) of a request on a spec file: the file
    is read, then --bounds, the thm3 kinds' --p and --t-grid are checked in
    that order where the command has them (kinds and t_grid are None where
    it has not), and the config is digested."""
    spec, spec_payload = _load_spec(args.spec, scalar)
    kinds = t_grid = None
    if "bounds" in args:
        kinds = _parse_kinds(args.bounds)
        _check_thm3_p(kinds, args.p)
    if "t_grid" in args:
        t_grid = _parse_t_grid(args.t_grid)
    return spec, kinds, t_grid, _config_digest(args, spec_payload)


def _envelope(args, digest, payload):
    out = {"schema": 1, "tool_version": __version__, "command": args.command,
           "config_digest": digest}
    if getattr(args, "seed", None) is not None:
        out["seed"] = args.seed
    out.update(payload)
    return out


def _kv_csv(d, prefix=""):
    """key,value lines of a JSON document: objects flattened by key, and
    lists that hold objects by index; any other list is one ';'-joined cell."""
    lines = []
    for k, v in d.items():
        key = f"{prefix}{k}"
        if isinstance(v, (list, tuple)) and any(isinstance(x, dict) for x in v):
            v = dict(enumerate(v))
        if isinstance(v, dict):
            lines.extend(_kv_csv(v, prefix=key + "."))
        elif isinstance(v, (list, tuple)):
            lines.append(f"{key},\"{';'.join(repr(x) if isinstance(x, float) else str(x) for x in v)}\"")
        else:
            lines.append(f"{key},{repr(v) if isinstance(v, float) else v}")
    return lines


_ESCAPE = json.encoder.encode_basestring_ascii


def _leaf_text(o):
    """The JSON text json writes for a str, None, bool, int or float; None
    for any other object."""
    if isinstance(o, str):
        return _ESCAPE(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        if math.isfinite(o):
            return float.__repr__(o)
        return "NaN" if o != o else "Infinity" if o > 0 else "-Infinity"
    return None


def _key_text(k):
    text = k if isinstance(k, str) else _leaf_text(k)
    if text is None:
        raise TypeError(f"keys must be str, int, float, bool or None, not {k.__class__.__name__}")
    return _ESCAPE(text)


def _json_text(o, nl="\n"):
    """json.dumps(o, indent=2, allow_nan=True), byte for byte, without the
    pure-Python encoder that json runs whenever indent is set.  nl is the
    line break and indent of the line that o starts on."""
    kind = type(o)
    if kind is float and math.isfinite(o):     # the common types first
        return float.__repr__(o)
    if kind is str:
        return _ESCAPE(o)
    if kind is not dict and kind is not list:
        text = _leaf_text(o)
        if text is not None:
            return text
    inner = nl + "  "
    if isinstance(o, (list, tuple)):
        brackets, items = "[]", [_json_text(x, inner) for x in o]
    elif isinstance(o, dict):
        brackets, items = "{}", [f"{_ESCAPE(k) if type(k) is str else _key_text(k)}: "
                                 f"{_json_text(v, inner)}" for k, v in o.items()]
    else:
        raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")
    if not items:
        return brackets
    return brackets[0] + inner + ("," + inner).join(items) + nl + brackets[1]


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
        _emit(args, _json_text(doc) + "\n")
    else:
        _emit(args, "key,value\n" + "\n".join(_kv_csv(doc)) + "\n")


def _cmd_norms(args):
    spec, _, _, digest = _request(args, scalar=True)
    est = psi_norm(spec, args.alpha)
    _emit_payload(args, digest, {"estimate": est.to_dict()})
    return EXIT_OK


def _cmd_entropy_check(args):
    _check_number("beta", args.beta)
    _check_number("p", args.p, lambda v: v > 1, "a finite number > 1")
    spec, _, _, digest = _request(args, scalar=True)
    fs = dist.finite_support(spec)
    if fs is None:
        raise UsageError("entropy-check needs a finite-support distribution")
    values, probs = fs
    mu = float(np.dot(values, probs))
    y = dist.FiniteSupport(values - mu, probs)
    try:        # the subgaussian lemma checks beta before any sum
        subgaussian = _lemma_check(ent.entropy_bound_subgaussian, y, args.beta)
    except ValueError as exc:
        raise UsageError(f"--beta is too large for this law: {exc}")
    payload = {"beta": args.beta, "subgaussian": subgaussian,
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
    fspec, kinds, t_grid, digest = _request(args)
    table = vfy.bounds_on_grid(fspec, kinds, t_grid, p=args.p)
    payload = {"t_grid": t_grid,
               "bounds": {k: [r.to_dict() for r in rs] for k, rs in table.items()}}
    _emit_payload(args, digest, payload)
    return EXIT_OK


def _cmd_invert(args):
    fspec, kinds, _, digest = _request(args)
    profile = fn.proxy_profile(fspec, p=args.p, kinds=kinds)
    results = {k: invert_tail(k, profile, args.delta, p=args.p).to_dict()
               for k in kinds}
    _emit_payload(args, digest, {"delta": args.delta, "inversions": results})
    return EXIT_OK


def _parse_float_list(text, flag):
    try:
        values = [float(x) for x in text.split(",") if x.strip()]
    except ValueError as exc:
        raise UsageError(f"bad --{flag}: {exc}")
    if not values:
        raise UsageError(f"--{flag} must list at least one number, got {text!r}")
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
    "metric": ("diameters t", lambda a: apps.metric_tail(a.lip, a.diameters, a.t)),
}


def _cmd_appbound(args):
    digest = _config_digest(args)
    for flag in _APP_NUMBERS:
        _check_number(flag, getattr(args, flag.replace("-", "_")))
    _check_number("d", args.d, lambda v: v >= 1, "an integer >= 1")
    for flag in ("psi1", "diameters"):
        if getattr(args, flag) is not None:
            setattr(args, flag, _parse_float_list(getattr(args, flag), flag))
    if args.app != "vector-i" and args.psi1 is not None and len(args.psi1) != 1:
        raise UsageError(f"--psi1 must be one number for --app {args.app}")
    needs, bound = _APPS[args.app]
    for name in needs.split():
        if getattr(args, name) is None:
            raise UsageError(f"--{name} is required for --app {args.app}")
    value = bound(args)
    payload = {"result": value.to_dict()} if args.app == "metric" else {"value": value}
    _emit_payload(args, digest, {"app": args.app, **payload})
    return EXIT_OK


def _cmd_verify(args):
    """verify, and compare, which adds the log10 ratios of each bound to the
    empirical tail."""
    _check_number("threads", args.threads, lambda v: v >= 1, "an integer >= 1")
    _check_number("n", args.n, lambda v: v >= vfy.MIN_SAMPLES, "an integer >= 10^4")
    fspec, kinds, t_grid, digest = _request(args)
    if args.command == "compare":
        report = vfy.compare_bounds(fspec, kinds, t_grid, args.n, args.seed,
                                    p=args.p, threads=args.threads)
    else:
        table = vfy.bounds_on_grid(fspec, kinds, t_grid, p=args.p)
        est = vfy.estimate_tail(fspec, t_grid, args.n, args.seed,
                                threads=args.threads)
        if args.negative_control:
            table = vfy.falsified_bounds(table)
        report = vfy.check_bounds(est, table)
    if args.format == "csv":
        _emit(args, vfy.report_to_csv(report))
    else:
        _emit_payload(args, digest, {**report.to_dict(), "sampler_layout": fspec.sampler_layout})
    return EXIT_VIOLATION if report.verdict == "VIOLATION" else EXIT_OK


_COMMANDS = {"norms": _cmd_norms, "entropy-check": _cmd_entropy_check,
             "bound": _cmd_bound, "invert": _cmd_invert, "appbound": _cmd_appbound,
             "verify": _cmd_verify, "compare": _cmd_verify}


def main(argv=None):
    try:
        args = _parse_args(argv)
        return _COMMANDS[args.command](args)
    except (UsageError, ValueError, PMaxTooSmallError, dist.QuadratureError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:
        # argparse --version / --help paths
        return exc.code if exc.code is not None else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
