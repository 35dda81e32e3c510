"""Words, the bracket-word expansion, and the graded commutator."""

import json

import support
from leibcx import words
from leibcx.cli import main as cli_main
from leibcx.words import (_combine, _extend, embedded_word, projector_report,
                          super_commutator, tensor_words)
from support import projector_sweep


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
    # termwise: a dict mixing lengths gives the sum of the commutators of
    # its homogeneous pieces
    mixed = {(1,): 1, (1, 2): 1}
    assert super_commutator(mixed, y) == {
        (1, 2): 1, (2, 1): 1, (1, 2, 2): 1, (2, 1, 2): -1}
    assert super_commutator(y, mixed) == {
        (2, 1): 1, (1, 2): 1, (2, 1, 2): 1, (1, 2, 2): -1}
    assert super_commutator(mixed, _combine(y, xy)) == _combine(
        _combine(super_commutator(x, y), super_commutator(x, xy)),
        _combine(super_commutator(xy, y), super_commutator(xy, xy)))


def test_super_commutator_matches_embedding():
    # {x1, x2, x3} = (x1, (x2, x3)) in the free graded algebra
    inner = super_commutator({(2,): 1}, {(3,): 1})
    full = super_commutator({(1,): 1}, inner)
    assert full == embedded_word((1, 2, 3))


def test_higher_bracketing_round_trip():
    # the tensor word (1, 2) read as the bracket word {1, 2}
    assert _embedding({(1, 2): 1}) == {(1, 2): 1, (2, 1): 1}


def test_projector_identity_small():
    rep = projector_report(max_length=4)
    assert rep["passed"] and rep["failures"] == []
    assert rep["max_length"] == 4
    assert projector_sweep(2, 4) == []


def test_embedding_commutes_with_letter_substitution():
    # the premise of projector_report: eps{w} is the image of
    # eps{1, ..., n} under the substitution i -> w_i
    for n in range(1, 7):
        distinct = embedded_word(tuple(range(1, n + 1)))
        for w in tensor_words(3, n):
            image = _extend(distinct,
                            lambda u: {tuple(w[i - 1] for i in u): 1})
            assert image == embedded_word(w), w


def _sabotage_length_5(monkeypatch):
    """Flip the sign of the identity-order term of every length-5 expansion.

    The cache is swapped for a fresh one, so expansions built on the
    sabotaged ones leave with the test.
    """
    real = words.embedded_word

    def sabotaged(word):
        out = real(word)
        word = tuple(word)
        if len(word) == 5 and word in out:
            out = dict(out)
            out[word] = -out[word]
        return out

    monkeypatch.setattr(words, "_EMBED_CACHE", {(): {}})
    monkeypatch.setattr(words, "embedded_word", sabotaged)
    monkeypatch.setattr(support, "embedded_word", sabotaged)


def test_projector_certificates_fail_on_a_sabotaged_embedding(
        monkeypatch, capsys):
    _sabotage_length_5(monkeypatch)
    rep = projector_report(max_length=5)
    assert not rep["passed"]
    assert rep["failures"] == [(1, 2, 3, 4, 5)]
    failures = projector_sweep(3, 5)
    assert failures and {len(w) for w in failures} == {5}
    code = cli_main(["check", "catalog:L2", "--suite", "dual",
                     "--format", "json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 1
    assert doc["checks"]["projector_identity"] is False
