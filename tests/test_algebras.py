"""Algebra validation, the symmetric ideal, quotients, and doubles."""

from fractions import Fraction

import pytest

from leibcx import catalog
from leibcx.algebras import (BilinearForm, LeibnizAlgebra, canonical_omega,
                             check_anti_invariance, double, liezation,
                             require_leibniz, symmetric_ideal)
from leibcx.errors import InputError


def test_catalog_validity():
    for name in catalog.VALID_NAMES:
        assert catalog.get(name).validate().passed, name
    assert not catalog.get("B1").validate().passed


def test_b1_witness():
    rep = catalog.get("B1").validate()
    assert [f[0] for f in rep.failures] == [(1, 1, 1)]
    (triple, lhs, rhs) = rep.failures[0]
    assert triple == (1, 1, 1)
    assert lhs == {1: 1}   # [e1, [e1, e1]] = e1
    assert rhs == {1: 2}   # [[e1, e1], e1] + [e1, [e1, e1]] = 2 e1


def test_require_leibniz():
    require_leibniz(catalog.get("L2"))
    with pytest.raises(InputError):
        require_leibniz(catalog.get("B1"))


def test_bracket_vectors():
    sl2 = catalog.get("sl2")
    # [h, e] = 2e, [e, f] = h
    assert sl2.bracket_vectors({1: 1}, {2: 1}) == {2: 2}
    assert sl2.bracket_vectors({2: 1}, {3: 1}) == {1: 1}
    assert sl2.bracket_vectors({2: 1, 3: 1}, {2: 1, 3: 1}) == {}


def test_integral_constants_stay_int():
    values = catalog.get("sl2").bracket(1, 2).values()
    assert values and all(type(v) is int for v in values)
    half = LeibnizAlgebra(2, {(1, 1): {2: "1/2", 1: "4/2"}})
    assert half.bracket(1, 1) == {2: Fraction(1, 2), 1: 2}
    assert type(half.bracket(1, 1)[2]) is Fraction
    assert type(half.bracket(1, 1)[1]) is int


def test_symmetric_ideal_frozen():
    rows, pivots = symmetric_ideal(catalog.get("L2"))
    assert rows == [{1: Fraction(1)}] and pivots == [1]
    rows, pivots = symmetric_ideal(catalog.get("N3"))
    assert pivots == [1, 2]
    rows, pivots = symmetric_ideal(catalog.get("sl2"))
    assert rows == [] and pivots == []


def test_liezation_frozen():
    q, proj, kept = liezation(catalog.get("L2"))
    assert q.dim == 1 and kept == [0]
    assert proj == [[Fraction(1), Fraction(0)]]
    assert dict(q.items()) == {}

    q, proj, kept = liezation(catalog.get("N3"))
    assert q.dim == 1 and kept == [0]

    q, proj, kept = liezation(catalog.get("sl2"))
    assert q.dim == 3
    assert proj == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert q.bracket(2, 3) == {1: 1}

    q, proj, kept = liezation(catalog.get("doubleL2"))
    assert q.dim == 2 and kept == [0, 3]


def test_liezation_is_homomorphism():
    for name in catalog.VALID_NAMES:
        A = catalog.get(name)
        q, proj, kept = liezation(A)

        def project(vec):
            out = {}
            for col, c in vec.items():
                for r, row in enumerate(proj):
                    if row[col - 1]:
                        out[r + 1] = out.get(r + 1, 0) + c * row[col - 1]
            return {k: v for k, v in out.items() if v}

        assert q.validate().passed and q.is_antisymmetric()
        for i in range(1, A.dim + 1):
            for j in range(1, A.dim + 1):
                lhs = project(A.bracket(i, j))
                rhs = q.bracket_vectors(project({i: 1}), project({j: 1}))
                assert lhs == rhs, (name, i, j)


def test_double_frozen_table():
    dbl = catalog.get("doubleL2")
    assert dbl.dim == 4
    got = {k: dict(v) for k, v in dbl.items()}
    assert got == {(1, 1): {2: 1}, (1, 4): {3: -1}, (4, 1): {3: 2}}
    assert dbl.validate().passed


def test_double_always_leibniz():
    for name in catalog.VALID_NAMES:
        dbl, omega = double(catalog.get(name))
        assert dbl.validate().passed, name
        assert check_anti_invariance(dbl, omega)["passed"], name


def test_canonical_omega():
    om = BilinearForm(canonical_omega(2))
    assert om({1: 1}, {3: 1}) == 1    # <e1, e^1>
    assert om({3: 1}, {1: 1}) == -1
    assert om({1: 1}, {2: 1}) == 0
    assert om({3: 1}, {4: 1}) == 0


def test_anti_invariance_detects_failure():
    # the zero form is anti-invariant; a generic one on L2's double is not
    dbl, _ = double(catalog.get("L2"))
    bad = BilinearForm([[1 if i == j else 0 for j in range(4)]
                        for i in range(4)])
    rep = check_anti_invariance(dbl, bad)
    assert not rep["passed"]
    zero = BilinearForm([[0] * 4 for _ in range(4)])
    assert check_anti_invariance(dbl, zero)["passed"]


def test_twisted_double():
    from leibcx.cochains import Cochain
    L2 = catalog.get("L2")
    # anti-cyclic closed twist: values on the expansion of {1,1,2} and
    # friends; use the implicit coordinates to build one
    from leibcx.cochains import from_implicit
    h = from_implicit([Fraction(1), Fraction(0)], 2, 2)
    dbl, omega = double(L2, h)
    assert dbl.validate().passed
    # the twist only changes base-base products, dual parts only
    for (i, j), comps in dbl.items():
        if i <= 2 and j <= 2:
            extra = {k: v for k, v in comps.items() if k > 2}
            for k, v in extra.items():
                assert v == -h.coefficient((i, j, k - 2))
    # a non-closed twist gives an invalid double, reported not raised
    bad = from_implicit([Fraction(0), Fraction(1)], 2, 2)
    dbl2, _ = double(L2, bad)
    assert not dbl2.validate().passed


def test_algebra_input_validation():
    # a bool is refused where an int is needed, as the file parser does
    for dim, brackets in ((0, {}), (True, {}), (2, {(1, 3): {1: 1}}),
                          (2, {(1, 1): {5: 1}}), (2, {(True, 1): {2: 1}}),
                          (2, {(1, 1): {True: 1}})):
        with pytest.raises(InputError):
            LeibnizAlgebra(dim, brackets)


def test_double_refuses_a_malformed_twist():
    from leibcx.cochains import Cochain
    L2 = catalog.get("L2")
    with pytest.raises(InputError):
        double(L2, Cochain(2, 2, {(1, 2): 1}))
    with pytest.raises(InputError):
        double(L2, Cochain(3, 3, {(1, 2, 3): 1}))
    # the twist is checked before the Leibniz identity, as on the command
    # line
    with pytest.raises(InputError, match="degree 2"):
        double(catalog.get("B1"), Cochain(2, 1, {}))
