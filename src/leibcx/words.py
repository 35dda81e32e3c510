"""Words, term dicts, tensor elements, and the bracket-word embedding.

A word is a tuple of positive ints naming basis generators.  A term dict
{word: coeff} holds only nonzero coefficients; _add_term, _combine and
_extend (the linear extension of a word map) are the arithmetic on them
that every module shares, and tensor_words enumerates the words of one
length over an alphabet.  TensorElement is a sparse rational combination
of words in the free associative algebra; LieElement is the same
container but its words are read as iterated bracketings {x1, ..., xn}
(left-normed higher brackets), compared through their associative
embeddings.

The embedding eps sends {x1,...,xn} to the signed sum of permutation
words defined by the recursion

    eps{x} = x
    eps{x1,...,xn} = x1 (x) eps{x2..xn}  -  (-1)^(n-1)  eps{x2..xn} (x) x1

(all generators carry odd parity).  It is injective on the span of the
bracket words of a fixed length, which is what makes LieElement equality
and the echelon-based basis extraction in complexes.py work.
"""

import itertools
from fractions import Fraction

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
    """Integer-coefficient expansion of the bracket word into tensor words."""
    word = tuple(word)
    hit = _EMBED_CACHE.get(word)
    if hit is not None:
        return hit
    if len(word) == 1:
        out = {word: 1}
    else:
        head, rest = word[0], word[1:]
        inner = embedded_word(rest)
        sign = -((-1) ** (len(word) - 1))
        out = {}
        for w, c in inner.items():
            _add_term(out, (head,) + w, c)
            _add_term(out, w + (head,), sign * c)
    _EMBED_CACHE[word] = out
    return out


class TensorElement:
    """Sparse rational combination of tensor words."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            for w, c in terms.items():
                c = Fraction(c)
                if c:
                    self.terms[tuple(w)] = c

    @classmethod
    def _raw(cls, terms):
        el = cls.__new__(cls)
        el.terms = terms
        return el

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, TensorElement):
            return self.terms == other.terms
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        return type(self)._raw(_combine(self.terms, other.terms))

    def __sub__(self, other):
        return type(self)._raw(_combine(self.terms, other.terms, -1))

    def __neg__(self):
        return type(self)._raw({w: -c for w, c in self.terms.items()})

    def __rmul__(self, scalar):
        scalar = Fraction(scalar)
        if not scalar:
            return type(self)._raw({})
        return type(self)._raw({w: scalar * c for w, c in self.terms.items()})

    def tensor(self, other):
        out = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                _add_term(out, w1 + w2, c1 * c2)
        return TensorElement._raw(out)

    def homogeneous_length(self):
        """Common word length, or None if mixed/zero."""
        lengths = {len(w) for w in self.terms}
        if len(lengths) == 1:
            return lengths.pop()
        return None

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for w in sorted(self.terms):
            c = self.terms[w]
            bits.append(f"{c}*{''.join(map(str, w))}")
        return " + ".join(bits)


class LieElement(TensorElement):
    """Combination of bracket words; equality via the tensor embedding."""

    __slots__ = ()

    def embed(self):
        return TensorElement._raw(_extend(self.terms, embedded_word))

    def __eq__(self, other):
        if isinstance(other, LieElement):
            return self.embed().terms == other.embed().terms
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self.embed().terms.items()))


def generator(i):
    if not (isinstance(i, int) and i >= 1):
        raise InputError(f"generator index must be a positive int, got {i!r}")
    return TensorElement._raw({(i,): Fraction(1)})


def super_commutator(a, b):
    """Graded commutator a(x)b - (-1)^(pq) b(x)a on homogeneous elements.

    Parity of a word is its length mod 2 (every generator is odd).
    """
    if not a.terms or not b.terms:
        return TensorElement._raw({})
    p = a.homogeneous_length()
    q = b.homogeneous_length()
    if p is None or q is None:
        raise InputError("super_commutator needs length-homogeneous inputs")
    sign = -((-1) ** (p * q))
    out = {}
    for w1, c1 in a.terms.items():
        for w2, c2 in b.terms.items():
            _add_term(out, w1 + w2, c1 * c2)
            _add_term(out, w2 + w1, sign * c1 * c2)
    return TensorElement._raw(out)


def projector_report(max_alphabet=3, max_length=6):
    """Certify that rebracketing the expansion scales by the word length.

    For every word w (alphabet up to max_alphabet, length up to
    max_length), reading the tensor expansion of {w} as bracket words and
    expanding again must give len(w) times the original expansion; this
    makes 1/(n+1) times the composite a projector in each degree.  Words
    over smaller alphabets are words over the big one, so one sweep at
    the top alphabet covers them all.
    """
    failures = []
    for n in range(1, max_length + 1):
        for w in tensor_words(max_alphabet, n):
            e = embedded_word(w)
            lhs = _extend(e, embedded_word)
            rhs = {tw: n * c for tw, c in e.items()}
            if lhs != rhs:
                failures.append(w)
    return {"passed": not failures, "failures": failures,
            "alphabet": max_alphabet, "max_length": max_length}
