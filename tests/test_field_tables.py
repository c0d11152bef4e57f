"""Every spec class reads one field table (`distributions._fields`) when it
is built, decoded and encoded.  These tests hold the table against the
reading it replaced: `dataclasses.fields` and the annotation text on every
call.  Both must give the same specs, the same JSON and the same SpecError
messages, with the field name and JSON path, for every kind."""
import dataclasses
import json
import math
import numbers

import pytest

from lighttails import distributions as D
from lighttails import functions as F

_GAUSS = {"kind": "gaussian", "mean": 0.5, "sd": 1.5}
_VEC = {"kind": "vector", "dim": 2, "components": [_GAUSS, {"kind": "exponential", "rate": 2.0}]}

# one valid JSON object per kind of distributions._KINDS, which holds the
# function kinds too
DOCS = {
    "gaussian": _GAUSS,
    "exponential": {"kind": "exponential", "rate": 2.0},
    "rademacher": {"kind": "rademacher"},
    "uniform": {"kind": "uniform", "lo": -1.0, "hi": 2},
    "poisson": {"kind": "poisson", "rate": 3},
    "chi_squared": {"kind": "chi_squared", "dof": 3},
    "two_point_eps": {"kind": "two_point_eps", "eps": 0.25},
    "finite_support": {"kind": "finite_support", "values": [-1, 0.5, 2.0], "probs": [0.25, 0.5, 0.25]},
    "shifted": {"kind": "shifted", "base": _GAUSS, "offset": -2},
    "scaled": {"kind": "scaled", "base": {"kind": "rademacher"}, "factor": 3.0},
    "square_of": {"kind": "square_of", "base": _GAUSS},
    "centered": {"kind": "centered", "base": {"kind": "poisson", "rate": 1.5}},
    "vector": _VEC,
    "sum": {"kind": "sum", "components": [_GAUSS, _GAUSS, {"kind": "uniform", "lo": 0, "hi": 1}]},
    "vector_norm_of_sum": {"kind": "vector_norm_of_sum", "vec": _VEC, "n": 4, "centered": True},
    "sup_linear_loss": {"kind": "sup_linear_loss", "weights": [[1, 0], [0.6, 0.8]], "loss": "huber",
                        "input": _VEC, "output": _GAUSS, "n": 3, "huber_kappa": 0.5},
    "psa_reconstruction": {"kind": "psa_reconstruction", "ambient_dim": 2, "subspace_dim": 1,
                           "projections": [[[1, 0], [0, 0]]], "input": _VEC, "n": 5},
    "metric_lipschitz": {"kind": "metric_lipschitz", "lip": 2, "maps": ["sin", "abs"],
                         "coordinate_dists": [_GAUSS, {"kind": "rademacher"}]},
}


def test_every_kind_has_a_document():
    assert sorted(DOCS) == sorted(D._KINDS)


# The reference: the codec and checks as they read dataclasses.fields and
# the annotation text on every call, before the tables.

def _annotation(f):
    return f.type.rsplit(".", 1)[-1]


def _reference_number(value, name, kind=numbers.Real, positive=False):
    if isinstance(value, bool) or not isinstance(value, kind):
        what = "an integer" if kind is numbers.Integral else "a number"
        raise D.SpecError(f"{name} must be {what}, got {value!r}")
    try:
        finite = math.isfinite(value)
    except OverflowError:
        finite = False
    if not finite:
        raise D.SpecError(f"{name} must be finite, got {value!r}")
    if positive and not value > 0:
        raise D.SpecError(f"{name} must be positive, got {value}")
    return int(value) if kind is numbers.Integral else float(value)


def _reference_post_init(self):
    for f in dataclasses.fields(self):
        check = D._CHECKS.get(_annotation(f))
        if check is not None:
            object.__setattr__(self, f.name, check(getattr(self, f.name), f.name))
    self._check()


def _reference_to_dict(spec):
    def to_json(value):
        if isinstance(value, D.Spec):
            return _reference_to_dict(value)
        if isinstance(value, tuple):
            return [to_json(v) for v in value]
        return value
    return {"kind": spec.kind, **{f.name: to_json(getattr(spec, f.name))
                                  for f in dataclasses.fields(spec)}}


def _reference_decode(d, path="$", depth=0):
    if depth > D._MAX_DEPTH:
        raise D.SpecError(f'"{path}": specs nest deeper than {D._MAX_DEPTH} levels')
    if not isinstance(d, dict):
        raise D.SpecError(f'"{path}": expected a spec object, got {d!r}')
    kind = d.get("kind")
    cls = D._KINDS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise D.SpecError(f'"{path}": unknown spec kind {kind!r}')
    fields = dataclasses.fields(cls)
    names = {f.name for f in fields}
    for key in d:
        if key != "kind" and key not in names:
            raise D.SpecError(f'"{path}.{key}": unknown field of kind {kind!r}')
    args = {}
    for f in fields:
        value, where = d.get(f.name, dataclasses.MISSING), f"{path}.{f.name}"
        if value is dataclasses.MISSING:
            if f.default is dataclasses.MISSING:
                raise D.SpecError(f'"{path}": kind {kind!r} is missing field {f.name!r}')
            continue
        nested = _annotation(f)
        if nested in ("Distribution", "VectorSpec"):
            value = _reference_decode(value, where, depth + 1)
        elif nested == "Specs":
            if not isinstance(value, (list, tuple)):
                raise D.SpecError(f'"{where}": expected a list, got {value!r}')
            value = [_reference_decode(c, f"{where}[{i}]", depth + 1) for i, c in enumerate(value)]
        args[f.name] = value
    try:
        return cls(**args)
    except D.SpecError as exc:
        raise D.SpecError(f'"{path}": {exc}') from None


@pytest.fixture
def reference(monkeypatch):
    """The reference codec: a decode that builds through the reference
    checks, and its encode."""
    def use_reference():
        monkeypatch.setattr(D.Spec, "__post_init__", _reference_post_init)
        monkeypatch.setattr(D, "_number", _reference_number)
        monkeypatch.setitem(D._CHECKS, "float", _reference_number)
    return use_reference


def _decode(doc):
    return D._decode(doc, "$")


def _outcome(decode, encode, doc):
    """(spec, its JSON text) or the SpecError message of decoding doc."""
    try:
        spec = decode(doc)
    except D.SpecError as exc:
        return "SpecError", str(exc)
    return spec, json.dumps(encode(spec))


def _mutants(doc):
    """doc with one field replaced by a bad or odd value, dropped, or joined
    by an unknown field, at every depth, each with a label."""
    yield "unknown field", {**doc, "colour": 1.0}
    for key, value in doc.items():
        if key == "kind":
            continue
        rest = {k: v for k, v in doc.items() if k != key}
        yield f"{key} missing", rest
        for label, bad in (("bool", True), ("nan", math.nan), ("inf", math.inf),
                           ("-inf", -math.inf), ("text", "x"), ("int", 2), ("zero", 0.0),
                           ("list", [1.0])):
            yield f"{key} {label}", {**doc, key: bad}
        if isinstance(value, dict):
            for label, inner in _mutants(value):
                yield f"{key}.{label}", {**doc, key: inner}
        if isinstance(value, list) and value and isinstance(value[0], dict):
            for label, inner in _mutants(value[0]):
                yield f"{key}[0].{label}", {**doc, key: [inner] + value[1:]}


_CASES = [(kind, label, doc) for kind in sorted(DOCS)
          for label, doc in [("as written", DOCS[kind]), *_mutants(DOCS[kind])]]


@pytest.mark.parametrize("kind, label, doc", _CASES,
                         ids=[f"{kind}-{label}" for kind, label, _ in _CASES])
def test_the_table_decodes_builds_and_encodes_as_the_reference(kind, label, doc, reference):
    table = [_outcome(decode, D.spec_to_dict, doc) for decode in (_decode, F.fspec_from_dict)]
    reference()
    ref = [_outcome(decode, _reference_to_dict, doc) for decode in (_reference_decode, F.fspec_from_dict)]
    assert table == ref


def test_the_cases_cover_each_bad_value_and_every_kind():
    # every kind decodes as written, and the table refuses a bool in a float
    # field, NaN, inf and an unknown field, each naming its JSON path
    for kind, doc in DOCS.items():
        assert _decode(doc).kind == kind
    bad = {"gaussian": ({**_GAUSS, "sd": True}, '"$": sd must be a number, got True'),
           "uniform": ({**DOCS["uniform"], "lo": math.nan}, '"$": lo must be finite, got nan'),
           "shifted": ({**DOCS["shifted"], "base": {**_GAUSS, "mean": math.inf}},
                       '"$.base": mean must be finite, got inf'),
           "sum": ({**DOCS["sum"], "components": [_GAUSS, {**_GAUSS, "skew": 1}]},
                   '"$.components[1].skew": unknown field of kind \'gaussian\'')}
    for kind, (doc, message) in bad.items():
        with pytest.raises(D.SpecError) as err:
            _decode(doc)
        assert str(err.value) == message, kind


@pytest.mark.parametrize("cls", sorted(set(D._KINDS.values()) | {D.Chi, D.UniformGap},
                                      key=lambda c: c.__name__))
def test_the_table_is_the_dataclass_fields(cls):
    table = D._fields(cls)
    fields = dataclasses.fields(cls)
    assert list(table) == [f.name for f in fields]
    for f in fields:
        check, nested, required = table[f.name]
        assert check is D._CHECKS.get(_annotation(f))
        assert nested == {"Distribution": "one", "VectorSpec": "one", "Specs": "list"}.get(
            _annotation(f))
        assert required == (f.default is dataclasses.MISSING)


@pytest.mark.parametrize("cls, args", [
    (D.Chi, (3, 2.0)), (D.Chi, (3, -1.0)), (D.Chi, (0, 1.0)), (D.Chi, (2.0, 1.0)),
    (D.UniformGap, (1.5,)), (D.UniformGap, (math.inf,)), (D.UniformGap, (True,)),
    (D.Gaussian, (1, 2)), (D.FiniteSupport, ((1, 2), (0.5, 0.5))),
])
def test_building_through_the_table_is_the_reference(cls, args, reference):
    # the kinds with no JSON form build as every other does
    def build():
        try:
            spec = cls(*args)
        except D.SpecError as exc:
            return str(exc)
        return spec, [(type(getattr(spec, f.name)), getattr(spec, f.name))
                      for f in dataclasses.fields(spec)]
    table = build()
    reference()
    assert build() == table


class _Hashed:
    """An object whose hash is the given int."""
    def __init__(self, value):
        self.value = value

    def __hash__(self):
        return self.value


def _reference_hash(value):
    """The frozen dataclass hash, that of the tuple of the field values, with
    every nested spec hashed afresh."""
    if isinstance(value, D.Spec):
        value = tuple(getattr(value, f.name) for f in dataclasses.fields(value))
    if isinstance(value, tuple):
        return hash(tuple(_Hashed(_reference_hash(v)) for v in value))
    return hash(value)


@pytest.mark.parametrize("kind", sorted(DOCS))
def test_a_spec_keeps_the_dataclass_hash(kind):
    # each spec computes its hash once; the value is the dataclass hash, so
    # no set or dict order moves, and an equal spec built anew has it too
    spec = _decode(DOCS[kind])
    want = _reference_hash(spec)
    assert hash(spec) == want and hash(spec) == want
    assert hash(_decode(DOCS[kind])) == want
