"""The package's JSON wire format, plus CSV shell tables.

This is the only module that knows JSON: every encoder (`*_to_json`, and
`gamma_report_json` for a `gamma_pv` report) and every decoder
(`*_from_json`) of the package's value types is here.  The wire formats are
pinned by the schema documents in gl1zeta/schemas/; each decoder validates
its input, so the CLI checks it before computing.  The check is done here,
for the fixed set of draft 2020-12 keywords those documents use, read as
jsonschema 4 reads them; a schema with any other keyword or form fails to
load.  Every complex number the package writes, in JSON or CSV, goes through
`complex_to_json`, so no negative zero is written.
"""

from __future__ import annotations

import csv
import functools
import importlib.resources
import json
import re
from fractions import Fraction

from .arch import ArchChar, ArchSeed
from .characters import MultChar
from .defaults import DEFAULT_PREC
from .padic import PAdicElt
from .ratfunc import IdentityReport, RationalFunc
from .stepfn import (MultStepFunction, MultTerm, StepFunction, StepTerm)


class InputFormatError(ValueError):
    """Input does not match its schema; carries a machine-readable code."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


_TYPES = {"integer": int, "number": (int, float), "string": str, "array": list,
          "object": dict, "null": type(None)}

# keyword -> the form of its value that `_error` reads: a type name, "type"
# (a type name itself), "strings" (a list of strings) or False
_FORMS = {"$schema": "string", "title": "string", "pattern": "string",
          "const": "string", "enum": "strings", "required": "strings",
          "type": "type", "properties": "object", "items": "object",
          "oneOf": "array", "additionalProperties": False,
          "minItems": "integer", "maxItems": "integer", "minimum": "number"}


def _has_type(x, name: str) -> bool:
    """Draft 2020-12 types: a bool is no number, 5.0 is an integer."""
    return not isinstance(x, bool) and (isinstance(x, _TYPES[name]) or (
        name == "integer" and isinstance(x, float) and x.is_integer()))


def _has_form(value, form) -> bool:
    if form is False:
        return value is False
    if form == "type":
        return isinstance(value, str) and value in _TYPES
    if form == "strings":
        return isinstance(value, list) and all(isinstance(v, str) for v in value)
    return _has_type(value, form)


def check_schema(schema) -> dict:
    """`schema` itself, once every keyword in it, nested ones too, is in
    `_FORMS` with the form given there; else ValueError."""
    if not isinstance(schema, dict):
        raise ValueError("a schema must be an object, not %r" % (schema,))
    for key, value in schema.items():
        if key not in _FORMS or not _has_form(value, _FORMS[key]):
            raise ValueError("unsupported schema keyword or form: %r: %r" % (key, value))
    subs = [*schema.get("properties", {}).values(), *schema.get("oneOf", ())]
    for sub in subs + ([schema["items"]] if "items" in schema else []):
        check_schema(sub)
    return schema


@functools.cache
def load_schema(name: str) -> dict:
    ref = importlib.resources.files("gl1zeta.schemas").joinpath(name + ".json")
    return check_schema(json.loads(ref.read_text()))


def _error(x, schema: dict, at: str) -> str | None:
    """Why `x`, found at the JSON path `at`, fails `schema`; None if it does
    not.  Each keyword other than type, const, enum and oneOf applies only
    to instances of its own type."""
    if "type" in schema and not _has_type(x, schema["type"]):
        return "%s: %r is not of type %r" % (at, x, schema["type"])
    if "const" in schema and x != schema["const"]:
        return "%s: %r is not %r" % (at, x, schema["const"])
    if "enum" in schema and x not in schema["enum"]:
        return "%s: %r is not one of %r" % (at, x, schema["enum"])
    if "minimum" in schema and _has_type(x, "number") and x < schema["minimum"]:
        return "%s: %r is less than %r" % (at, x, schema["minimum"])
    if "pattern" in schema and isinstance(x, str) and not re.search(schema["pattern"], x):
        return "%s: %r does not match %r" % (at, x, schema["pattern"])
    if isinstance(x, list):
        if not schema.get("minItems", 0) <= len(x) <= schema.get("maxItems", len(x)):
            return "%s: %d items is outside [minItems, maxItems]" % (at, len(x))
        if "items" in schema:
            for i, item in enumerate(x):
                if err := _error(item, schema["items"], "%s[%d]" % (at, i)):
                    return err
    if isinstance(x, dict):
        for key in schema.get("required", ()):
            if key not in x:
                return "%s: %r is a required property" % (at, key)
        props = schema.get("properties", {})
        for key, value in x.items():
            if key in props:
                if err := _error(value, props[key], "%s.%s" % (at, key)):
                    return err
            elif "additionalProperties" in schema:
                return "%s: additional property %r is not allowed" % (at, key)
    if "oneOf" in schema:
        n = sum(_error(x, sub, at) is None for sub in schema["oneOf"])
        if n != 1:
            return "%s: %r matches %d of the oneOf schemas, not 1" % (at, x, n)
    return None


def validate(obj, schema_name: str) -> None:
    if err := _error(obj, load_schema(schema_name), "$"):
        raise InputFormatError("schema/" + schema_name, err)


# -- p-adic scalars ---------------------------------------------------------

def padic_to_json(x: PAdicElt | None) -> dict | None:
    if x is None:
        return None
    return {"p": x.p, "val": x.val, "unit": x.unit, "prec": x.prec}


def padic_from_json(obj, p: int) -> PAdicElt | None:
    if obj is None:
        return None
    if isinstance(obj, str):
        # rational literal like "4/9" at the function's prime p
        return PAdicElt.from_rational(p, Fraction(obj), DEFAULT_PREC)
    return PAdicElt(int(obj["p"]), int(obj["val"]), int(obj["unit"]),
                    int(obj.get("prec", DEFAULT_PREC)))


def complex_to_json(c: complex) -> list[float]:
    """[re, im] of c, with +0.0 for a zero part of either sign and every
    other float as it is."""
    return [c.real + 0.0, c.imag + 0.0]


# -- functions --------------------------------------------------------------

def step_to_json(f: StepFunction) -> dict:
    return {"model": "step", "p": f.p,
            "terms": [{"coeff": complex_to_json(t.coeff),
                       "twist": padic_to_json(t.twist),
                       "center": padic_to_json(t.center),
                       "rad": t.rad} for t in f.terms]}


def step_from_json(obj: dict) -> StepFunction:
    validate(obj, "step_function")
    p = int(obj["p"])

    def point(x):  # a twist or a center, where the literal 0 means null
        return None if isinstance(x, str) and Fraction(x) == 0 else padic_from_json(x, p)
    terms = [StepTerm(complex(t["coeff"][0], t["coeff"][1]),
                      point(t.get("twist")), point(t.get("center")),
                      int(t["rad"])) for t in obj["terms"]]
    return StepFunction(p, terms)


def mult_to_json(f: MultStepFunction) -> dict:
    return {"model": "mult", "p": f.p,
            "terms": [{"coeff": complex_to_json(t.coeff),
                       "rep": padic_to_json(t.rep),
                       "k": t.k} for t in f.terms]}


def mult_from_json(obj: dict) -> MultStepFunction:
    validate(obj, "mult_step_function")
    p = int(obj["p"])
    terms = [MultTerm(complex(t["coeff"][0], t["coeff"][1]),
                      padic_from_json(t["rep"], p),
                      int(t["k"])) for t in obj["terms"]]
    return MultStepFunction(p, terms)


def function_from_json(obj: dict):
    model = obj.get("model") if isinstance(obj, dict) else None
    if model == "step":
        return step_from_json(obj)
    if model == "mult":
        return mult_from_json(obj)
    raise InputFormatError("function/model", "model must be 'step' or 'mult'")


# -- characters and pi parameters ------------------------------------------

def char_to_json(chi: MultChar) -> dict:
    return {"p": chi.p, "cond": chi.cond, "unit_char": list(chi.unit_char),
            "t": complex_to_json(chi.t)}


def multchar_from_json(obj: dict) -> MultChar:
    validate(obj, "character")
    try:
        return MultChar(int(obj["p"]), int(obj["cond"]),
                        tuple(int(k) for k in obj["unit_char"]),
                        complex(obj["t"][0], obj["t"][1]))
    except ValueError as exc:
        raise InputFormatError("character/invalid", str(exc)) from exc


def pi_from_json(obj: dict):
    """{"kind": "satake", "alpha": [[re,im],...]} |
    {"kind": "gl1", "chi": {...}} | {"kind": "chars", "chis": [{...}]}"""
    validate(obj, "pi_params")
    kind = obj["kind"]
    if kind == "satake":
        return [complex(a[0], a[1]) for a in obj["alpha"]]
    if kind == "gl1":
        return [multchar_from_json(obj["chi"])]
    return [multchar_from_json(c) for c in obj["chis"]]


def pi_to_json(params) -> dict:
    if all(isinstance(c, MultChar) for c in params):
        if len(params) == 1:
            return {"kind": "gl1", "chi": char_to_json(params[0])}
        return {"kind": "chars", "chis": [char_to_json(c) for c in params]}
    return {"kind": "satake",
            "alpha": [complex_to_json(a) for a in params]}


# -- Archimedean ------------------------------------------------------------

def arch_char_from_json(obj: dict) -> ArchChar:
    validate(obj, "arch_char")
    return ArchChar(obj.get("place", "real"), int(obj["eps"]),
                    float(obj.get("t", 0.0)))


def arch_seed_from_json(obj: dict) -> ArchSeed:
    validate(obj, "arch_seed")
    place = obj.get("place", "real")
    if place == "real":
        poly = tuple(complex(c[0], c[1]) for c in obj.get("poly", [[1, 0]]))
        return ArchSeed("real", poly)
    coeff = obj.get("coeff", [1, 0])
    return ArchSeed("complex", (complex(coeff[0], coeff[1]),),
                    hol=int(obj.get("hol", 0)), antihol=int(obj.get("antihol", 0)))


def complex_list_from_json(obj) -> list[complex]:
    validate(obj, "complex_list")
    return [complex(re, im) for re, im in obj]


def matrix2_from_json(obj) -> list[list]:
    """The entries as given: `Fraction` reads them when the average is taken."""
    validate(obj, "matrix2")
    return obj


# -- rational functions and reports ----------------------------------------

def rf_to_json(a: RationalFunc) -> dict:
    return {
        "q": a.q,
        "num": [[e, *complex_to_json(c)] for e, c in sorted(a.num.coeffs.items())],
        "den": [[e, *complex_to_json(c)] for e, c in sorted(a.den.coeffs.items())],
    }


def gamma_report_json(report: IdentityReport) -> dict:
    """The `gamma_pv` report in the wire format of schemas/gamma_report.json."""
    return {
        "gamma_closed": rf_to_json(report.lhs),
        "gamma_pv": rf_to_json(report.rhs),
        "max_coeff_diff": report.max_coeff_diff,
        "shells": list(report.meta["shells"]),
    }


# -- deterministic emission --------------------------------------------------

def dumps(obj) -> str:
    """Canonical JSON: sorted keys, fixed separators, trailing newline."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      allow_nan=False) + "\n"


def write_shell_csv(path: str, rows) -> None:
    """Shell-value table of (m, PAdicElt rep, value) rows: m, coset
    representative (exact rational lift), re, im."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["m", "rep", "re", "im"])
        for m, rep, v in rows:
            w.writerow([m, str(rep.lift()), *map(repr, complex_to_json(v))])
