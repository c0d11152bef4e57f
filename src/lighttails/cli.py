"""Command-line front door: wire JSON configs to the library operations and
emit machine-readable reports.

Each command is one row of the table `_SUBCOMMANDS`: its help line, its
handler and its flags.  Every parser and `main`'s dispatch read that table.

Exit codes: 0 success (and SOUND verifications), 1 usage or config errors,
inputs a library call refuses (a ValueError), norms or moments that
cannot be certified and an --output that cannot be written, 2 bound
VIOLATION.  Artifacts are written atomically.
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

from . import __version__
from . import applications as apps
from . import distributions as dist
from . import entropy as ent
from . import functions as fn
from . import verify as vfy
from .bounds import BOUND_KINDS, invert_tail, reads
from .orlicz import psi_norm

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VIOLATION = 2
MAX_T_STEPS = 10 ** 5


class UsageError(Exception):
    pass


# argparse reads a token this matches as a value: no option starts with '-'
# and a digit, so -1:2:3 is a value, like -1
_NEGATIVE_NUMBER = re.compile(r"-\.?\d")


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER

    def error(self, message):
        raise UsageError(message)


@functools.cache
def _build_parser():
    """The top-level parser, with every command's sub-parser: for any argv
    `_fast_parse` does not answer."""
    parser = _Parser(prog="lighttails",
                     description="tail bounds for functions of independent variables")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, flags) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag, keywords in _COMMON_FLAGS + flags:
            p.add_argument(flag, **keywords)
    return parser


@functools.cache
def _flag_table(name):
    """Command `name`'s flags as its parser reads them: flag -> (dest, type,
    choices), the type None for a store_true flag; the defaults by dest in
    --help order, a str default run through its type; the required flags."""
    table, defaults, required = {}, {}, set()
    for flag, keywords in _COMMON_FLAGS + _SUBCOMMANDS[name][2]:
        dest, kind = flag[2:].replace("-", "_"), keywords.get("type", str)
        default = keywords.get("default")
        if keywords.get("action") == "store_true":
            kind, default = None, False
        table[flag] = dest, kind, keywords.get("choices")
        defaults[dest] = kind(default) if isinstance(default, str) else default
        if keywords.get("required"):
            required.add(flag)
    return table, defaults, frozenset(required)


def _parse_args(argv):
    """The Namespace the top-level parser gives for argv.  All that parser
    does with an argv that starts with a command is hand the rest to the
    command's sub-parser, so such an argv is read by `_fast_parse` where it
    can answer; any other argv takes the top-level parser."""
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _fast_parse(argv[0], argv[1:]) if argv and argv[0] in _SUBCOMMANDS else None
    if args is None:
        return _build_parser().parse_args(argv)
    args.command = argv[0]
    return args


def _fast_parse(name, argv):
    """Command `name`'s parser's parse_args(argv), read against its
    `_flag_table` with no parser built, for an argv of distinct exact
    --flag value pairs and store_true flags whose values argparse reads as
    values and accepts.  None for any other argv (-h, an abbreviation,
    --flag=value, a repeated flag, --, a value with a leading '-' that is
    not a number, a bad value, a missing flag), which parse_args answers."""
    table, defaults, required = _flag_table(name)
    values, seen = dict(defaults), set()
    tokens = iter(argv)
    for flag in tokens:
        if flag not in table or flag in seen:
            return None
        seen.add(flag)
        dest, kind, choices = table[flag]
        if kind is None:        # store_true
            values[dest] = True
            continue
        text = next(tokens, None)
        if text is None or text[:1] == "-" and not _NEGATIVE_NUMBER.match(text):
            return None
        try:
            values[dest] = value = kind(text)
        except ValueError:
            return None
        if choices is not None and value not in choices:
            return None
    return argparse.Namespace(**values) if required <= seen else None


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
    # one step is lo, as np.linspace gives it wherever hi - lo is finite;
    # else np.linspace(lo, hi, steps) bit for bit: lo + i * step, or lo + i
    # / div * delta where the step underflows to 0, and hi as the last entry
    if steps == 1:
        return [lo]
    div, delta = steps - 1, hi - lo
    step = delta / div
    return [(i / div * delta if step == 0 else i * step) + lo for i in range(div)] + [hi]


def _parse_kinds(text):
    kinds = [k.strip() for k in text.split(",") if k.strip()]
    if not kinds:
        raise UsageError("--bounds must name at least one bound kind")
    for k in kinds:
        if k not in BOUND_KINDS:
            raise UsageError(f"unknown bound kind {k!r}; known: {', '.join(BOUND_KINDS)}")
    return kinds


def _check_thm3_p(kinds, p):
    """The kinds that read 2p-norms (the thm3 kinds) need --p > 1, their
    order; this is checked before any profile work."""
    if "l2p_per_coord" not in reads(kinds):
        return
    if p is None:
        raise UsageError("the thm3 bound kinds need --p, the order of the "
                         "2p-norms (p > 1)")
    if not p > 1:
        raise UsageError(f"the thm3 bound kinds need --p > 1, got {p!r}")
    _check_number("p", p)
    _check_number("p", p, lambda v: math.isfinite(2 * v), "a number whose double is finite")


def _check_int(flag, value, lo, hi, lo_text, hi_text):
    """UsageError naming --flag unless the int value lies in [lo, hi] (lo
    None: no lower limit); ints compare exactly at any size, where
    math.isfinite overflows past the largest float."""
    if lo is not None and value < lo:
        raise UsageError(f"--{flag} must be an integer >= {lo_text}, got {value!r}")
    if value > hi:
        raise UsageError(f"--{flag} must be an integer <= {hi_text}, got {value!r}")


def _check_number(flag, value, holds=lambda v: True, need="a finite number"):
    """UsageError naming --flag unless value is None, or finite and holds."""
    if value is not None and not (math.isfinite(value) and holds(value)):
        raise UsageError(f"--{flag} must be {need}, got {value!r}")


_SPEC_TEXTS = 256     # decoded spec texts kept per process


class _BadSpecText(Exception):
    """Why a spec text is refused; the message follows "spec file PATH"."""


def _load_spec(path, scalar=False):
    """(spec, payload text) of the spec file at path: a function spec, or
    a scalar distribution if scalar is set.  Decoding is memoised on the
    file's text, never on its path, so a rewritten file is decoded afresh;
    failures are not memoised."""
    try:
        with open(path, "rb", buffering=0) as fh:
            text = fh.read().decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read spec file {path}: {exc}")
    if "\r" in text:       # the universal newlines of text mode
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    try:
        return _decode_spec_text(text, scalar)
    except _BadSpecText as exc:
        raise UsageError(f"spec file {path}{exc}")


@functools.lru_cache(maxsize=_SPEC_TEXTS)
def _decode_spec_text(text, scalar):
    """(spec, payload text) of a spec file's text.  The payload text is the
    spec's own JSON form, as the config digest encodes it: equal specs may
    have different forms (a -0.0 or 0.0 field), so the memo is keyed on the
    whole text, not on the spec or a hash."""
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
    return spec, _SORTED_JSON(dist.spec_to_dict(spec))


# json.dumps(o, sort_keys=True), without the encoder json.dumps builds per call
_SORTED_JSON = json.JSONEncoder(sort_keys=True).encode


def _config_digest(args, payload_text=None):
    """sha256 of json.dumps(config, sort_keys=True), config being the args
    but --output plus any spec payload under "spec_payload": the config is
    encoded once with null there, and the payload text spliced in at that
    key, whose quotes no value holds unescaped."""
    cfg = {k: v for k, v in vars(args).items() if k != "output"}
    if payload_text is None:
        blob = _SORTED_JSON(cfg)
    else:
        blob = _SORTED_JSON({**cfg, "spec_payload": None}).replace(
            '"spec_payload": null', '"spec_payload": ' + payload_text, 1)
    return hashlib.sha256(blob.encode()).hexdigest()


def _request(args, scalar=False):
    """(spec, kinds, t_grid, digest) of a request on a spec file: the file
    is read, then --bounds, the thm3 kinds' --p and --t-grid are checked in
    that order where the command has them (kinds and t_grid are None where
    it has not), and the config is digested."""
    spec, payload_text = _load_spec(args.spec, scalar)
    kinds = t_grid = None
    if "bounds" in args:
        kinds = _parse_kinds(args.bounds)
        _check_thm3_p(kinds, args.p)
    if "t_grid" in args:
        t_grid = _parse_t_grid(args.t_grid)
    return spec, kinds, t_grid, _config_digest(args, payload_text)


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
_FLOAT_TEXT = float.__repr__
_LAYOUTS = 1024     # dict layouts kept per process


def _float_text(x):
    """The JSON text of float x, as json writes it."""
    if math.isfinite(x):
        return _FLOAT_TEXT(x)
    return "NaN" if x != x else "Infinity" if x > 0 else "-Infinity"


@functools.lru_cache(maxsize=_LAYOUTS)
def _layout(nl, *keys):
    """The text of a dict of str keys that starts on a line whose break and
    indent is nl, with %s per value; a non-str key is a TypeError."""
    return "".join([("," if i else "{") + nl + "  " + _ESCAPE(k).replace("%", "%%") + ": %s"
                    for i, k in enumerate(keys)]) + nl + "}"


def _json_text(o, nl="\n"):
    """json.dumps(o, indent=2, allow_nan=True), byte for byte, for the
    documents the CLI writes, without the pure-Python encoder that json runs
    whenever indent is set; o starts on a line whose break and indent is nl.
    A float or str in a list or dict is written in place, and a dict fills
    the layout of its keys at nl.  None, bools, ints and float subclasses
    are written as json writes them; anything else is a TypeError."""
    if isinstance(o, (dict, list, tuple)):
        if not o:
            return "{}" if isinstance(o, dict) else "[]"
        inner = nl + "  "
        texts = [_float_text(x) if type(x) is float else _ESCAPE(x) if type(x) is str else
                 _json_text(x, inner) for x in (o.values() if isinstance(o, dict) else o)]
        if isinstance(o, dict):
            return _layout(nl, *o) % tuple(texts)
        return "[" + inner + ("," + inner).join(texts) + nl + "]"
    if isinstance(o, str):
        return _ESCAPE(o)
    if isinstance(o, float):
        return _float_text(o)
    if o is None or isinstance(o, int):
        return "null" if o is None else "true" if o is True else "false" if o is False else int.__repr__(o)
    raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")


def _emit(args, text):
    """Write text to stdout, or atomically to --output through a temp file
    in its directory; a path that cannot be written is a UsageError that
    names --output and the reason, and leaves no temp file."""
    if args.output is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(args.output))
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".lighttails-")
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, args.output)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise UsageError(f"cannot write --output {args.output}: "
                             f"{exc.strerror or exc}") from None
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
    _check_number("p", args.p, lambda v: math.isfinite(2 * v), "a number whose double is finite")
    spec, _, _, digest = _request(args, scalar=True)
    y = dist.canonical(spec)    # each lemma reads Y - E Y
    if not isinstance(y, dist.FiniteSupport):
        raise UsageError("entropy-check needs a finite-support distribution")
    try:        # the subgaussian lemma checks beta before any sum
        subgaussian = _lemma_check(ent.entropy_bound_subgaussian, y, args.beta)
    except dist.SpecError:      # a law the lemmas refuse whatever beta is
        raise
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


# appbound's float flags, checked finite in this order, which decides the
# error of an argv with two bad numbers: --delta comes before --p
_APP_NUMBERS = ("delta", "p", "psi2", "l2p", "lip", "rad-expectation", "psi1-z", "t")
# appbound's int flags, checked after them against their lowest value (None:
# the bound itself checks it) and MAX_APP_INT, far below the largest float
_APP_INTS = {"d": 1, "n": None}
MAX_APP_INT = 10 ** 18

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
    for flag, lo in _APP_INTS.items():
        if getattr(args, flag) is not None:
            _check_int(flag, getattr(args, flag), lo, MAX_APP_INT, lo, "10^18")
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
    _check_int("threads", args.threads, 1, vfy.MAX_THREADS, "1", vfy.MAX_THREADS)
    _check_int("n", args.n, vfy.MIN_SAMPLES, vfy.MAX_SAMPLES, "10^4", "10^9")
    if not 0 <= args.seed < 2 ** 64:
        raise UsageError(f"--seed must be a 64-bit unsigned integer, got {args.seed}")
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


# flags that several commands share; their names, defaults and types feed
# the config digest through vars(args).  Every command takes the first two.
_COMMON_FLAGS = (("--output", dict(default=None, help="artifact path (default stdout)")),
                 ("--format", dict(choices=("json", "csv"), default="json")))
_SPEC = ("--spec", dict(required=True))
_BOUNDS = ("--bounds", dict(required=True, help="comma-separated bound kinds"))
_T_GRID = ("--t-grid", dict(required=True, help="lo:hi:steps"))
_P = ("--p", dict(type=float, default=None))
_BOUND_FLAGS = (_SPEC, _BOUNDS, _T_GRID, _P)
# verify's and compare's: bound's and the Monte-Carlo trio
_VERIFY_FLAGS = (*_BOUND_FLAGS, ("--n", dict(type=int, required=True)),
                 ("--seed", dict(type=int, default=0)), ("--threads", dict(type=int, default=1)))
_MONTE_CARLO_HELP = "Monte-Carlo check that bounds dominate empirical tails"

# command -> (its help line in the top-level parser's listing, its handler,
# its (flag, argparse keywords) pairs in --help order, after _COMMON_FLAGS)
_SUBCOMMANDS = {
    "norms": ("Orlicz-type norm of a catalogue distribution", _cmd_norms,
              (_SPEC, ("--alpha", dict(type=int, choices=(1, 2), required=True)))),
    "entropy-check": ("entropy bounds for a finite-support law", _cmd_entropy_check,
                      (_SPEC, _P, ("--beta", dict(type=float, default=1.0)))),
    "bound": ("closed-form tail bounds for a function spec", _cmd_bound, _BOUND_FLAGS),
    "invert": ("deviation levels at a confidence target", _cmd_invert,
               (_SPEC, _BOUNDS, _P, ("--delta", dict(type=float, required=True)))),
    "appbound": ("closed-form application bounds", _cmd_appbound, (
        _P,
        ("--app", dict(required=True, choices=tuple(_APPS))),
        ("--delta", dict(type=float, default=None)),
        ("--n", dict(type=int, default=None)),
        ("--psi1", dict(default=None, help="value or comma-separated list")),
        ("--psi2", dict(type=float, default=None)),
        ("--l2p", dict(type=float, default=None)),
        ("--lip", dict(type=float, default=1.0)),
        ("--d", dict(type=int, default=None)),
        ("--rad-expectation", dict(type=float, default=0.0)),
        ("--psi1-z", dict(type=float, default=0.0)),
        ("--diameters", dict(default=None, help="comma-separated list")),
        ("--t", dict(type=float, default=None)))),
    "verify": (_MONTE_CARLO_HELP, _cmd_verify,
               (*_VERIFY_FLAGS, ("--negative-control", dict(action="store_true")))),
    "compare": (_MONTE_CARLO_HELP, _cmd_verify, _VERIFY_FLAGS),
}


def main(argv=None):
    try:
        args = _parse_args(argv)
        return _SUBCOMMANDS[args.command][1](args)
    except (UsageError, ValueError, dist.QuadratureError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:
        # argparse --version / --help paths
        return exc.code if exc.code is not None else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
