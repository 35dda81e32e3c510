"""The graded-Lie battery on sabotaged graded algebras.

Each saboteur is a DGLA whose bracket or differential is wrong in one
deliberate way, so the identities of dgla_suite have something to find.
The full results (every check's passed flag and its first five
witnesses, in order) were recorded once and are compared here, so a
rewrite of the battery must find the same failures in the same order.

Record the file again (only when a change of the results is intended)
with

    PYTHONPATH=src python tests/test_dgla_battery.py
"""

import json
import os
import sys

import pytest

from leibcx import catalog
from leibcx.complexes import DGLA, DRElement, dgla_suite
from leibcx.report import jsonable

HERE = os.path.dirname(os.path.abspath(__file__))
RECORD = os.path.join(HERE, "data", "sabotaged_batteries.json")


class OneSidedStray(DGLA):
    """[x1, x2] gains the first basis word of F^2; [x2, x1] does not."""

    def _stray(self, a, b):
        x1, x2 = self.word_element((1,)), self.word_element((2,))
        if a == x1 and b == x2:
            return self.word_element(self.slices[2].words[0])
        return None

    def bracket(self, a, b):
        out = super().bracket(a, b)
        stray = self._stray(a, b)
        return out if stray is None else out + stray


class SymmetricStray(OneSidedStray):
    """The stray word on both orders of the odd pair x1, x2.

    Odd elements commute in the graded sense, so antisymmetry still
    holds and the Jacobi identity has to catch it.
    """

    def _stray(self, a, b):
        x1, x2 = self.word_element((1,)), self.word_element((2,))
        if (a, b) in ((x1, x2), (x2, x1)):
            return self.word_element(self.slices[2].words[0])
        return None


class DroppedTerm(DGLA):
    """The differential loses the least word of its F^2 part."""

    def differential(self, a):
        out = super().differential(a)
        two = [w for w in out.terms if len(w) == 2]
        if not two:
            return out
        least = min(two)
        return DRElement(out.gl,
                         {w: c for w, c in out.terms.items() if w != least})


class Unprojected(DGLA):
    """The differential of a letter skips the residue modulo the ideal."""

    def differential(self, a):
        out = super().differential(a)
        one = {w[0]: c for w, c in a.terms.items() if len(w) == 1}
        if not one:
            return out
        return DRElement(one, out.terms)


SABOTEURS = (OneSidedStray, SymmetricStray, DroppedTerm, Unprojected)
CASES = [(cls, name, N) for cls in SABOTEURS for name in ("L2", "N3", "sl2")
         for N in (3, 4)]


def _key(cls, name, N):
    return f"{cls.__name__}-{name}-{N}"


def _battery(cls, name, N):
    return jsonable(dgla_suite(cls(catalog.get(name), max_degree=N)))


def _recorded():
    with open(RECORD, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("cls,name,N", CASES,
                         ids=[_key(*case) for case in CASES])
def test_sabotaged_battery_matches_record(cls, name, N):
    assert _battery(cls, name, N) == _recorded()[_key(cls, name, N)]


def test_every_sweep_can_fail():
    # the record is not vacuous: each identity sweep fails somewhere
    failed = {check for result in _recorded().values()
              for check, entry in result.items() if not entry["passed"]}
    assert {"antisymmetry", "jacobi", "derivation", "differential_squared",
            "lifted_identity_left", "lifted_identity_sym",
            "augmentation_kills_boundaries"} <= failed


def test_battery_brackets_each_basis_pair_once(monkeypatch):
    # one table of basis brackets and one of differentials; sweeps that
    # bracket inside each check make 62,436 and 3,732 calls here
    calls = {"bracket": 0, "differential": 0}
    bracket, differential = DGLA.bracket, DGLA.differential

    def counted_bracket(self, a, b):
        calls["bracket"] += 1
        return bracket(self, a, b)

    def counted_differential(self, a):
        calls["differential"] += 1
        return differential(self, a)

    monkeypatch.setattr(DGLA, "bracket", counted_bracket)
    monkeypatch.setattr(DGLA, "differential", counted_differential)
    checks = dgla_suite(DGLA(catalog.get("abelian4"), 4))
    assert all(v["passed"] for v in checks.values())
    assert calls["bracket"] <= 32100 and calls["differential"] <= 1500, calls


def record():
    out = {_key(*case): _battery(*case) for case in CASES}
    with open(RECORD, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(out)} batteries in {RECORD}", file=sys.stderr)


if __name__ == "__main__":
    record()
