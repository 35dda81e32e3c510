"""Canonical JSON reports.

All CLI output is deterministic: keys sorted, rationals rendered as p/q
strings, no timestamps or timing fields, trailing newline.  The same
input therefore always produces byte-identical output.
"""

import json
from fractions import Fraction


def rational_to_string(x):
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def jsonable(obj):
    """Recursively convert report data into JSON-safe values."""
    if isinstance(obj, Fraction):
        return rational_to_string(obj)
    if isinstance(obj, dict):
        return {_key(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    raise TypeError(f"not a report value: {obj.__class__.__name__}")


def _key(k):
    if isinstance(k, str):
        return k
    if isinstance(k, int):
        return str(k)
    raise TypeError(f"not a report key: {k.__class__.__name__}")


def canonical_json(obj):
    return json.dumps(jsonable(obj), sort_keys=True, indent=2,
                      ensure_ascii=True) + "\n"


def vector_doc(vec):
    """{index: Fraction} -> {"i": "p/q"} with sorted integer keys."""
    return {str(k): rational_to_string(v) for k, v in sorted(vec.items())}
