"""Dual bracket words, contraction, rotation sums, structure tensors."""

from fractions import Fraction

import pytest

from leibcx import catalog
from leibcx.algebras import double
from leibcx.duality import (DualBracketSum, cartan_form, contract,
                            dual_bracket_word, pairing_preimage,
                            recovery_report, rotation_sum,
                            rotation_sum_report, structure_tensors)
from leibcx.errors import InputError


def test_dual_bracket_word_frozen():
    assert dual_bracket_word((1,)) == {(1,): 1}
    assert dual_bracket_word((1, 2)) == {(1, 2): 1, (2, 1): 1}
    assert dual_bracket_word((1, 2, 3)) == {
        (1, 2, 3): 1, (1, 3, 2): 1, (3, 1, 2): -1, (3, 2, 1): -1}


def test_contraction_frozen():
    f = {1: Fraction(1)}  # delta on symbol 1
    s = DualBracketSum({(1, 2, 3): 1})
    c1 = contract(f, s)
    # i_f {1,2,3}* = f(1) {2,3}* - (+1) f(3) {1,2}* = {2,3}*
    assert c1.terms == {(2, 3): 1}
    c2 = contract({3: Fraction(1)}, c1)
    # i_g {2,3}* = g(2) {3}* + g(3) {2}* = {2}*
    assert c2.terms == {(2,): 1}
    c3 = contract({2: Fraction(1)}, c2)
    assert c3.terms.get(()) == 1
    assert c3.terms == {(): 1}


def test_contraction_back_slot_sign():
    # arity 2: i_f {1,2}* = f(1) {2}* + f(2) {1}*  (sign -(-1)^1 = +1)
    s = DualBracketSum({(1, 2): 1})
    got = contract({2: Fraction(5)}, s)
    assert got.terms == {(1,): 5}
    # arity 3 back slot carries -(-1)^2 = -1
    s3 = DualBracketSum({(1, 2, 3): 1})
    got = contract({3: Fraction(1)}, s3)
    assert got.terms == {(1, 2): -1}


def test_contract_type_error():
    with pytest.raises(TypeError):
        contract({1: Fraction(1)}, {(1, 2): 1})


def test_zero_multiple_of_a_dual_bracket_sum_is_zero():
    # a zero coefficient leaves no term behind, so the sum prints 0
    s = DualBracketSum({(1, 2): 0, (2, 1): Fraction(0)})
    assert s.terms == {}
    assert repr(s) == "DualBracketSum(0)"
    assert isinstance(s, DualBracketSum)


def test_expansion_matches_defined_words():
    s = DualBracketSum({(1, 2): 1, (2, 1): 1})
    assert s.expansion() == {(1, 2): 2, (2, 1): 2}


def test_rotation_sum_vanishes_signed():
    rep = rotation_sum_report(max_length=5)
    assert rep["passed"] and rep["failures"] == []
    # unsigned sums survive in even lengths
    assert (1, 2) in rep["unsigned_nonzero"]


def test_rotation_sum_repeated_symbols():
    # linearity makes repeated entries vanish too; spot check
    assert not rotation_sum((1, 1, 2), signed=True).expansion()


def test_cartan_form_doubleL2():
    dbl, omega = double(catalog.get("L2"))
    cart = cartan_form(dbl, omega)
    # C(1,1,4) = omega([E1,E1], E4) = omega(E2, E4) = 1
    assert cart.coefficient((1, 1, 4)) == 1
    # C(1,4,1) = omega([E1,E4], E1) = omega(-E3, E1) = 1
    assert cart.coefficient((1, 4, 1)) == 1
    assert cart.coefficient((4, 1, 1)) == -2


def test_mu_tensor_doubleL2():
    dbl, omega = double(catalog.get("L2"))
    _, mu, theta = structure_tensors(dbl, omega, 2)
    assert mu.terms == {(3, 3, 2): 1}
    assert theta.terms == mu.terms  # no twist


def test_theta_includes_twist():
    from leibcx.cochains import from_implicit
    L2 = catalog.get("L2")
    h = from_implicit([Fraction(3), Fraction(0)], 2, 2)
    dbl, omega = double(L2, h)
    _, mu, theta = structure_tensors(dbl, omega, 2, cocycle=h)
    extra = {w: c for w, c in theta.terms.items() if w not in mu.terms}
    assert all(len(w) == 3 and all(x > 2 for x in w) for w in extra)
    # every pure dual word holds one third of the twist coefficient
    for w, c in extra.items():
        assert c == Fraction(1, 3) * h.coefficient(tuple(x - 2 for x in w))


def test_pairing_preimage():
    assert pairing_preimage(1, 2) == {3: Fraction(-1)}
    assert pairing_preimage(3, 2) == {1: Fraction(1)}
    with pytest.raises(InputError):
        pairing_preimage(5, 2)


def test_recovery_frozen_pair():
    dbl, omega = double(catalog.get("L2"))
    _, mu, _ = structure_tensors(dbl, omega, 2)
    # p = 3 (u = E1), q = 2 (u = -E4): [E1, -E4] = E3
    first = contract({3: Fraction(1)}, mu)
    got = contract({2: Fraction(1)}, first).as_vector()
    assert got == {3: 1}


def test_recovery_all_catalog_doubles():
    for name in catalog.VALID_NAMES:
        A = catalog.get(name)
        dbl, omega = double(A)
        assert recovery_report(dbl, omega, A.dim)["passed"], name


def test_recovery_fails_with_a_doubled_pairing():
    # with omega doubled, mu and every contraction double too
    dbl, omega = double(catalog.get("L2"))
    rep = recovery_report(dbl, lambda a, b: 2 * omega(a, b), 2)
    assert not rep["passed"] and rep["failures"]
    for _, _, got, want in rep["failures"]:
        assert got == {k: 2 * c for k, c in want.items()}


def test_structure_tensors_refuse_a_malformed_twist():
    from leibcx.cochains import Cochain
    dbl, omega = double(catalog.get("L2"))
    for bad in (Cochain(2, 2, {(1, 2): 1}), Cochain(3, 3, {(1, 2, 3): 1})):
        with pytest.raises(InputError):
            structure_tensors(dbl, omega, 2, cocycle=bad)
