"""Reading and writing the JSON descriptions of algebras and cochains.

Algebra files:

    {"name": "...",              # optional
     "dim": 3,
     "basis": ["h", "e", "f"],   # optional, length dim
     "brackets": [{"left": 1, "right": 2, "value": [[2, "2"], ...]}, ...]}

Indices are 1-based; rationals are strings "p" or "p/q" with q > 0.
Duplicate (left, right) pairs and duplicate component indices inside one
value list are rejected rather than summed, so corrupted files fail loud.

Cochain files:

    {"degree": 2,                # optional, default 2
     "dim": 2,
     "coefficients": [[[1, 1, 2], "1/3"], ...]}

degree n means n+1 indices per coefficient entry.

Only the fields shown are read.  Any other field of an algebra, a
bracket entry or a cochain raises InputError naming it, so a misspelt
key, or a cochain file given where an algebra belongs, fails loud
rather than being read as a zero bracket or a zero cochain.
"""

import json
import re
from fractions import Fraction

from .algebras import LeibnizAlgebra
from .errors import InputError
from .report import rational_to_string

_RATIONAL_RE = re.compile(r"-?[0-9]+(/[1-9][0-9]*)?")


def rational_from_string(s):
    if isinstance(s, int) and not isinstance(s, bool):
        return Fraction(s)
    if not isinstance(s, str) or not _RATIONAL_RE.fullmatch(s):
        raise InputError(
            f"bad rational {s!r}; expected \"p\" or \"p/q\" with q > 0")
    try:
        return Fraction(s)
    except ValueError as exc:
        # the interpreter's limit on the digits of an integer string
        raise InputError(
            f"rational {s[:20]}... of {len(s)} characters: {exc}") from exc


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # bad JSON or UTF-8, or too many digits
        raise InputError(f"{path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:  # the decoder recurses once per level
        raise InputError(f"{path} is nested too deeply to read") from exc


def _require_int(doc, key, where):
    v = doc.get(key)
    if not isinstance(v, int) or isinstance(v, bool):
        raise InputError(f"{where}: field {key!r} must be an integer")
    return v


def _require_fields(doc, fields, where):
    unknown = sorted(set(doc) - set(fields))
    if unknown:
        raise InputError(f"{where}: unknown field {unknown[0]!r}")


def parse_algebra_doc(doc, where="algebra"):
    if not isinstance(doc, dict):
        raise InputError(f"{where}: top level must be a JSON object")
    _require_fields(doc, ("name", "dim", "basis", "brackets"), where)
    dim = _require_int(doc, "dim", where)
    if dim < 1:
        raise InputError(f"{where}: dim must be >= 1")
    name = doc.get("name")
    if name is not None and not isinstance(name, str):
        raise InputError(f"{where}: name must be a string")
    basis = doc.get("basis")
    if basis is not None:
        if (not isinstance(basis, list) or len(basis) != dim
                or not all(isinstance(b, str) for b in basis)):
            raise InputError(
                f"{where}: basis must be a list of {dim} strings")
    entries = doc.get("brackets", [])
    if not isinstance(entries, list):
        raise InputError(f"{where}: brackets must be a list")
    brackets = {}
    for pos, entry in enumerate(entries):
        tag = f"{where}: brackets[{pos}]"
        if not isinstance(entry, dict):
            raise InputError(f"{tag} must be an object")
        _require_fields(entry, ("left", "right", "value"), tag)
        i = _require_int(entry, "left", tag)
        j = _require_int(entry, "right", tag)
        if not (1 <= i <= dim and 1 <= j <= dim):
            raise InputError(f"{tag}: indices out of range 1..{dim}")
        if (i, j) in brackets:
            raise InputError(f"{tag}: duplicate bracket ({i}, {j})")
        value = entry.get("value")
        if not isinstance(value, list):
            raise InputError(f"{tag}: value must be a list of [k, rational]")
        comps = {}
        for item in value:
            if (not isinstance(item, list) or len(item) != 2
                    or not isinstance(item[0], int)
                    or isinstance(item[0], bool)):
                raise InputError(f"{tag}: value items must be [k, rational]")
            k = item[0]
            if not (1 <= k <= dim):
                raise InputError(f"{tag}: component {k} out of range")
            if k in comps:
                raise InputError(f"{tag}: duplicate component index {k}")
            comps[k] = rational_from_string(item[1])
        brackets[(i, j)] = comps
    algebra = LeibnizAlgebra(dim, brackets, name=name)
    return algebra, basis


def parse_algebra_file(path):
    algebra, _ = parse_algebra_doc(_load_json(path), where=str(path))
    return algebra


def algebra_to_doc(algebra):
    doc = {"dim": algebra.dim}
    if algebra.name:
        doc["name"] = algebra.name
    brackets = []
    for (i, j), comps in sorted(algebra.items()):
        brackets.append({
            "left": i,
            "right": j,
            "value": [[k, rational_to_string(comps[k])]
                      for k in sorted(comps)],
        })
    doc["brackets"] = brackets
    return doc


def parse_cochain_doc(doc, where="cochain"):
    from .cochains import Cochain
    if not isinstance(doc, dict):
        raise InputError(f"{where}: top level must be a JSON object")
    _require_fields(doc, ("degree", "dim", "coefficients"), where)
    dim = _require_int(doc, "dim", where)
    if dim < 1:
        raise InputError(f"{where}: dim must be >= 1")
    degree = doc.get("degree", 2)
    if not isinstance(degree, int) or isinstance(degree, bool) or degree < 1:
        raise InputError(f"{where}: degree must be a positive integer")
    arity = degree + 1
    entries = doc.get("coefficients", [])
    if not isinstance(entries, list):
        raise InputError(f"{where}: coefficients must be a list")
    coeffs = {}
    for pos, item in enumerate(entries):
        tag = f"{where}: coefficients[{pos}]"
        if (not isinstance(item, list) or len(item) != 2
                or not isinstance(item[0], list)):
            raise InputError(f"{tag} must be [[indices...], rational]")
        word = item[0]
        if len(word) != arity or not all(
                isinstance(i, int) and not isinstance(i, bool)
                and 1 <= i <= dim for i in word):
            raise InputError(
                f"{tag}: needs {arity} indices in range 1..{dim}")
        w = tuple(word)
        if w in coeffs:
            raise InputError(f"{tag}: duplicate word {w}")
        coeffs[w] = rational_from_string(item[1])
    return Cochain(arity, dim, coeffs)


def parse_cochain_file(path):
    return parse_cochain_doc(_load_json(path), where=str(path))
