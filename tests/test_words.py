"""Words, the bracket-word expansion, and the graded commutator."""

from fractions import Fraction

import pytest

from leibcx.errors import InputError
from leibcx.words import (LieElement, TensorElement, embedded_word, generator,
                          projector_report, super_commutator)


def test_embedding_frozen_values():
    assert embedded_word((1,)) == {(1,): 1}
    assert embedded_word((1, 2)) == {(1, 2): 1, (2, 1): 1}
    assert embedded_word((1, 1)) == {(1, 1): 2}
    assert embedded_word((1, 2, 3)) == {
        (1, 2, 3): 1, (1, 3, 2): 1, (2, 3, 1): -1, (3, 2, 1): -1}
    assert embedded_word((1, 1, 1)) == {}


def test_embedding_recursion_sign():
    # appended-head sign is -(-1)^(n-1): -1 at n = 3, +1 at n = 4
    e3 = embedded_word((1, 2, 3))
    for w, c in embedded_word((2, 3)).items():
        assert e3[(1,) + w] == c
        assert e3[w + (1,)] == -c
    e4 = embedded_word((1, 2, 3, 4))
    for w, c in embedded_word((2, 3, 4)).items():
        assert e4[(1,) + w] == c
        assert e4[w + (1,)] == c


def test_tensor_element_algebra():
    a = TensorElement({(1,): 1})
    b = TensorElement({(2,): 1})
    assert (a + b).terms == {(1,): 1, (2,): 1}
    assert (a - a).terms == {}
    assert (2 * a).terms == {(1,): 2}
    assert a.tensor(b).terms == {(1, 2): 1}
    assert a.homogeneous_length() == 1
    assert (a + a.tensor(b)).homogeneous_length() is None


def test_lie_element_equality_via_embedding():
    # {x, y} and {y, x} expand identically
    assert LieElement({(1, 2): 1}) == LieElement({(2, 1): 1})
    assert LieElement({(1, 1, 1): 1}) == LieElement({})
    # swapping the last two letters is invisible (length-2 tail is
    # symmetric); swapping the first two is not
    assert LieElement({(1, 2, 3): 1}) == LieElement({(1, 3, 2): 1})
    assert LieElement({(1, 2, 3): 1}) != LieElement({(2, 1, 3): 1})


def test_super_commutator_parities():
    x = generator(1)
    y = generator(2)
    # odd-odd: anticommutator
    assert super_commutator(x, y).terms == {(1, 2): 1, (2, 1): 1}
    xy = x.tensor(y)
    # even-odd: commutator
    assert super_commutator(xy, x).terms == {
        (1, 2, 1): 1, (1, 1, 2): -1}
    assert super_commutator(x, TensorElement({})).terms == {}
    with pytest.raises(InputError):
        super_commutator(x + xy, y)


def test_super_commutator_matches_embedding():
    # {x1, x2, x3} = (x1, (x2, x3)) in the free graded algebra
    inner = super_commutator(generator(2), generator(3))
    full = super_commutator(generator(1), inner)
    assert full.terms == dict(embedded_word((1, 2, 3)))


def higher_bracketing(el):
    """Reinterpret the words of a tensor element as bracket words."""
    return LieElement(el.terms)


def test_higher_bracketing_round_trip():
    el = TensorElement({(1, 2): 1})
    hb = higher_bracketing(el)
    assert isinstance(hb, LieElement)
    assert hb.embed().terms == {(1, 2): 1, (2, 1): 1}


def test_projector_identity_small():
    rep = projector_report(max_alphabet=2, max_length=4)
    assert rep["passed"] and rep["failures"] == []


def test_generator_validation():
    with pytest.raises(InputError):
        generator(0)
    with pytest.raises(InputError):
        generator("a")
