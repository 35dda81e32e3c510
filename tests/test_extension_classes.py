"""classify_extension on seeded anti-cyclic degree-2 cochains.

For every valid catalog entry the record holds the implicit vectors of
eight seeded cochains (random vectors, combinations of cocycles, of
coboundaries, and of both) and the full report of each: closed,
trivial, class and h2_dim.  The class coordinates depend on how the
cocycles are reduced against the coboundaries, so a rewrite of the
elimination must give the same reports.

Record the file again (only when a change of the results is intended)
with

    PYTHONPATH=src python tests/test_extension_classes.py
"""

import json
import os
import random
import sys
from fractions import Fraction

import pytest

from leibcx import catalog
from leibcx.cochains import (classify_extension,
                             coboundary_matrix_on_anti_cyclic, from_implicit)
from leibcx.complexes import boundary_matrix, free_lie_basis
from leibcx.exactla import nullspace
from leibcx.fileio import rational_to_string
from leibcx.report import jsonable

HERE = os.path.dirname(os.path.abspath(__file__))
RECORD = os.path.join(HERE, "data", "extension_classes.json")
PER_ENTRY = 8


def _combination(rng, vectors, n):
    vec = [Fraction(0)] * n
    for v in vectors:
        c = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
        for i, x in v.items():
            vec[i] += c * x
    return vec


def _seeded_vectors(name, rng):
    # cases cycle through: a random vector (rarely closed), a combination
    # of the cocycles, cocycles plus coboundaries, coboundaries alone
    A = catalog.get(name)
    n = free_lie_basis(A.dim, 3).dim
    cocycles = nullspace(boundary_matrix(A, 4), n)
    coboundaries = coboundary_matrix_on_anti_cyclic(A, 1)
    out = []
    for k in range(PER_ENTRY):
        kind = k % 4
        if kind == 0:
            vec = [Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                   for _ in range(n)]
        else:
            vec = [Fraction(0)] * n
            if kind in (1, 2):
                vec = _combination(rng, cocycles, n)
            if kind in (2, 3):
                vec = [a + b for a, b in
                       zip(vec, _combination(rng, coboundaries, n))]
        out.append(vec)
    return out


def _report(name, vector):
    A = catalog.get(name)
    h = from_implicit([Fraction(v) for v in vector], A.dim, 2)
    return jsonable(classify_extension(A, h))


def _recorded():
    with open(RECORD, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", catalog.VALID_NAMES)
def test_extension_classes_match_record(name):
    cases = _recorded()[name]
    assert len(cases) == PER_ENTRY
    for case in cases:
        assert _report(name, case["vector"]) == case["report"], name


def test_record_is_not_vacuous():
    # closed and open, trivial and non-trivial classes all occur
    reports = [case["report"] for cases in _recorded().values()
               for case in cases]
    assert {r["closed"] for r in reports} == {True, False}
    assert {r["trivial"] for r in reports} == {True, False, None}
    assert any(r["trivial"] is False and r["h2_dim"] and
               any(c != "0" for c in r["class"]) for r in reports)


def record():
    rng = random.Random(2013)
    out = {}
    for name in catalog.VALID_NAMES:
        cases = []
        for vec in _seeded_vectors(name, rng):
            vector = [rational_to_string(v) for v in vec]
            cases.append({"vector": vector, "report": _report(name, vector)})
        out[name] = cases
    with open(RECORD, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(out)} entries in {RECORD}", file=sys.stderr)


if __name__ == "__main__":
    record()
