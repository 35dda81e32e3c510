"""Words, term dicts, and the bracket-word embedding.

A word is a tuple of positive ints naming basis generators.  A term dict
{word: coeff} holds only nonzero coefficients and is the one element
form: read as tensor words it is an element of the free associative
algebra, read as bracket words {x1, ..., xn} (left-normed higher
brackets) an element of the free Lie superalgebra, and two bracket-word
dicts are equal elements exactly when _extend(terms, embedded_word)
agrees.  _add_term, _combine and _extend (the linear extension of a word
map) are the arithmetic on them that every module shares, and
tensor_words enumerates the words of one length over an alphabet.
Functions that return a term dict return a fresh one, except
embedded_word, whose dicts are the shared cache and are never mutated.

The embedding eps sends {x1,...,xn} to the iterated super-commutator

    eps{x} = x
    eps{x1,...,xn} = [x1, eps{x2..xn}]
                   = x1 (x) eps{x2..xn}  -  (-1)^(n-1)  eps{x2..xn} (x) x1

(all generators carry odd parity), and embedded_word computes it with
super_commutator, the one graded-commutator loop of the package.  It is
injective on the span of the bracket words of a fixed length, which is
what makes comparison through the embedding and the echelon-based basis
extraction in complexes.py work.
"""

import itertools

from .errors import InputError


def _add_term(d, w, c):
    v = d.get(w, 0) + c
    if v:
        d[w] = v
    else:
        d.pop(w, None)


def _combine(a, b, sign=1):
    out = dict(a)
    for w, c in b.items():
        _add_term(out, w, sign * c)
    return out


def _extend(terms, expand):
    """Linear extension of a word map: sum of c * expand(w) over terms."""
    out = {}
    for w, c in terms.items():
        for nw, k in expand(w).items():
            _add_term(out, nw, c * k)
    return out


def tensor_words(m, n):
    """The m^n words of length n over the alphabet 1..m, in lex order."""
    return list(itertools.product(range(1, m + 1), repeat=n))


_EMBED_CACHE = {(): {}}


def embedded_word(word):
    """Integer-coefficient expansion of the bracket word into tensor words:
    the super-commutator of its first letter with the rest's expansion."""
    word = tuple(word)
    hit = _EMBED_CACHE.get(word)
    if hit is None:
        hit = ({word: 1} if len(word) == 1 else
               super_commutator({word[:1]: 1}, embedded_word(word[1:])))
        _EMBED_CACHE[word] = hit
    return hit


def super_commutator(a, b):
    """Graded commutator a(x)b - (-1)^(pq) b(x)a, extended termwise.

    p and q are the lengths of the two words of each pair of terms: the
    parity of a word is its length mod 2 (every generator is odd).  A
    dict that mixes lengths gives the sum of the commutators of its
    homogeneous pieces.
    """
    out = {}
    for w1, c1 in a.items():
        odd = len(w1) % 2
        for w2, c2 in b.items():
            c = c1 * c2
            _add_term(out, w1 + w2, c)
            _add_term(out, w2 + w1, c if odd and len(w2) % 2 else -c)
    return out


def projector_report(max_length=6):
    """Certify that rebracketing the expansion scales by the word length.

    For a word w of length n, reading the tensor expansion of {w} as
    bracket words and expanding again must give n times the expansion of
    {w}; this makes 1/n times the composite a projector on tensor words
    of length n.  eps is a signed sum over letter positions, so it
    commutes with every substitution of letters, and the substitution
    i -> w_i carries the identity for the word (1, ..., n) of distinct
    letters to the identity for w.  Checking (1, ..., n) for each n up
    to max_length therefore certifies every word of those lengths over
    every alphabet.
    """
    if type(max_length) is not int:
        raise InputError("max_length must be an integer")
    failures = []
    for n in range(1, max_length + 1):
        w = tuple(range(1, n + 1))
        e = embedded_word(w)
        if _extend(e, embedded_word) != {tw: n * c for tw, c in e.items()}:
            failures.append(w)
    return {"passed": not failures, "failures": failures,
            "max_length": max_length}
