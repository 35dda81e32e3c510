"""Words, the bracket-word expansion, and the graded commutator."""

import pytest

from leibcx.errors import InputError
from leibcx.words import (_extend, embedded_word, projector_report,
                          super_commutator)


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


def _embedding(terms):
    return _extend(terms, embedded_word)


def test_lie_element_equality_via_embedding():
    # {x, y} and {y, x} expand identically
    assert _embedding({(1, 2): 1}) == _embedding({(2, 1): 1})
    assert _embedding({(1, 1, 1): 1}) == _embedding({})
    # swapping the last two letters is invisible (length-2 tail is
    # symmetric); swapping the first two is not
    assert _embedding({(1, 2, 3): 1}) == _embedding({(1, 3, 2): 1})
    assert _embedding({(1, 2, 3): 1}) != _embedding({(2, 1, 3): 1})


def test_super_commutator_parities():
    x = {(1,): 1}
    y = {(2,): 1}
    # odd-odd: anticommutator
    assert super_commutator(x, y) == {(1, 2): 1, (2, 1): 1}
    xy = {(1, 2): 1}
    # even-odd: commutator
    assert super_commutator(xy, x) == {(1, 2, 1): 1, (1, 1, 2): -1}
    assert super_commutator(x, {}) == {}
    with pytest.raises(InputError):
        super_commutator({(1,): 1, (1, 2): 1}, y)


def test_super_commutator_matches_embedding():
    # {x1, x2, x3} = (x1, (x2, x3)) in the free graded algebra
    inner = super_commutator({(2,): 1}, {(3,): 1})
    full = super_commutator({(1,): 1}, inner)
    assert full == embedded_word((1, 2, 3))


def test_higher_bracketing_round_trip():
    # the tensor word (1, 2) read as the bracket word {1, 2}
    assert _embedding({(1, 2): 1}) == {(1, 2): 1, (2, 1): 1}


def test_projector_identity_small():
    rep = projector_report(max_alphabet=2, max_length=4)
    assert rep["passed"] and rep["failures"] == []
