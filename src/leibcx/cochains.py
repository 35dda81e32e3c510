"""Cochains on a Leibniz algebra and the anti-cyclic subcomplex.

A cochain of arity a assigns a rational to every length-a word of basis
indices, and its coboundary precomposes with the bracket-word expansion
of the boundary.  The dual-valued cochains of Loday and Pirashvili, with
their differential through the coadjoint actions, need no code here:
lowering one against the canonical pairing of the double gives a cochain
one arity up, and lowering turns their differential into the coboundary,
up to the sign (-1)^arity.  That identity is formal, term by term, and
holds for every bilinear bracket, Leibniz or not.  tests/support.py
keeps the dual-valued differential and the lowering as its reference.

A scalar cochain A of arity n+1 is anti-cyclic when evaluating it on the
tensor expansion of the bracket word w returns (n+1) A(w) for every w.
_anti_cyclic_defect computes (n+1) A(w) - A(eps{w}); the anti-cyclic
test, the defining constraint rows and the subcomplex certificate all
read it.  Anti-cyclic cochains of arity n+1 correspond one-to-one to
functionals on F^(n+1): from_implicit builds the cochain of a vector of
values on the basis words, and the basis cochains are from_implicit of
the unit vectors.  The theorem used here: the coboundary preserves the
anti-cyclic cochains, and in those implicit coordinates it is the
transpose of the chain boundary two degrees up.  So the cochain side is
not computed again: cohomology (in complexes, beside homology) relabels
the homology table, the coboundary matrix is a transposed boundary
matrix, and an extension class is closed when its implicit vector pairs
to zero with the columns of del_4, whose nullspace holds the cocycles it
is reduced against.  subcomplex_report certifies the theorem from the
per-word coboundary; check --suite subcomplex and the tests run it.
lp_coboundary, the coboundary word by word, is the tests' reference.
"""

from fractions import Fraction
from functools import lru_cache

from .algebras import require_dim, require_leibniz, require_twist
from .errors import InputError
from .exactla import SparseEchelon, _echelon, nullspace, transpose
from .words import (_add_term, _combine, _extend, embedded_word,
                    tensor_words)
from .complexes import (boundary_matrix, boundary_word_terms, cohomology,
                        free_lie_basis)


class Cochain:
    """Scalar cochain: {word: Fraction} over length-arity index words."""

    __slots__ = ("arity", "dim", "coeffs")

    def __init__(self, arity, dim, coeffs=None):
        if not (type(arity) is type(dim) is int and arity >= 1 and dim >= 1):
            raise InputError(
                "cochain arity and dimension must be positive integers")
        self.arity = arity
        self.dim = dim
        self.coeffs = {}
        for w, c in (coeffs or {}).items():
            w = tuple(w)
            if len(w) != arity:
                raise InputError(
                    f"coefficient word {w} has length != arity {arity}")
            for i in w:
                if not (type(i) is int and 1 <= i <= dim):
                    raise InputError(f"index {i!r} out of range 1..{dim}")
            c = Fraction(c)
            if c:
                self.coeffs[w] = c

    def coefficient(self, word):
        return self.coeffs.get(tuple(word), Fraction(0))

    def __sub__(self, other):
        return Cochain(self.arity, self.dim,
                       _combine(self.coeffs, other.coeffs, -1))

    def __rmul__(self, scalar):
        scalar = Fraction(scalar)
        return Cochain(self.arity, self.dim,
                       {w: scalar * c for w, c in self.coeffs.items()})

    def __eq__(self, other):
        return (type(other) is Cochain and self.arity == other.arity
                and self.dim == other.dim and self.coeffs == other.coeffs)


def lp_coboundary(algebra, cochain):
    """Coboundary of a scalar cochain: precompose with the boundary words.

    A cochain of another dimension than the algebra raises InputError.
    No computation calls it: on anti-cyclic cochains the transpose
    theorem gives the coboundary, and this word-by-word sweep is the
    tests' reference.
    """
    require_dim(cochain, algebra.dim)
    m = cochain.dim
    a = cochain.arity
    coeffs = cochain.coeffs
    out = {}
    for w in tensor_words(m, a + 1):
        total = sum(c * coeffs[t] for t, c in
                    boundary_word_terms(algebra, w, "alt").items()
                    if t in coeffs)
        if total:
            out[w] = total
    return Cochain(a + 1, m, out)


def _anti_cyclic_defect(values, word):
    """arity * V(w) - V(expansion of {w}) for vector values V.

    values maps the words of one length to vectors {key: coeff}, one
    cochain per key; the cochain of key k is anti-cyclic exactly when k
    appears in no word's defect.
    """
    own = {k: len(word) * c for k, c in values.get(word, {}).items()}
    expanded = _extend(embedded_word(word), lambda tw: values.get(tw, {}))
    return _combine(own, expanded, -1)


def is_anti_cyclic(cochain):
    """A(w) equals 1/arity times A evaluated on the expansion of {w}."""
    values = {w: {0: c} for w, c in cochain.coeffs.items()}
    return not any(_anti_cyclic_defect(values, w)
                   for w in tensor_words(cochain.dim, cochain.arity))


@lru_cache(maxsize=None)
def bracket_coords_table(m, length):
    """coords of the bracket word {w} over the basis slice, for every w."""
    sl = free_lie_basis(m, length)
    return {w: sl.coords({w: 1}) for w in tensor_words(m, length)}


def anti_cyclic_basis(m, degree):
    """Basis cochains of the degree-n anti-cyclic space (arity n+1).

    A_k(w) = k-th coordinate of the bracket word {w} over the basis of
    F^(n+1); there are dim F^(n+1) of them and they are independent.
    """
    count = free_lie_basis(m, degree + 1).dim
    return [from_implicit([int(j == k) for j in range(count)], m, degree)
            for k in range(count)]


def to_implicit(cochain):
    """Vector of an anti-cyclic cochain over the matching basis words.

    A cochain that is not anti-cyclic raises InputError.
    """
    if not is_anti_cyclic(cochain):
        raise InputError("cochain is not anti-cyclic")
    sl = free_lie_basis(cochain.dim, cochain.arity)
    return [cochain.coefficient(b) for b in sl.words]


def from_implicit(vector, m, degree):
    """Anti-cyclic cochain of the given degree from implicit coordinates.

    vector holds one value per basis word of F^(degree+1); a vector of
    another length raises InputError.
    """
    length = degree + 1
    count = free_lie_basis(m, length).dim
    if len(vector) != count:
        raise InputError(
            f"implicit vector has {len(vector)} entries, expected {count}")
    values = {k: Fraction(v) for k, v in enumerate(vector) if v}
    coeffs = {}
    for w, coords in bracket_coords_table(m, length).items():
        total = sum(c * values[k] for k, c in coords.items() if k in values)
        if total:
            coeffs[w] = total
    return Cochain(length, m, coeffs)


def coboundary_matrix_on_anti_cyclic(algebra, degree):
    """Matrix of the coboundary on the anti-cyclic space, implicit coords.

    Sparse columns run over the degree-n basis cochains A_k, rows over
    the basis of F^(n+2).  (b A_k)(w) = A_k(del w) is the k-th coordinate
    of del w over F^(n+1), so the matrix is the transpose of del_(n+2),
    and that is how it is computed; subcomplex_report certifies it.
    """
    if type(degree) is not int:
        raise InputError("the degree must be an integer")
    return transpose(boundary_matrix(algebra, degree + 2),
                     free_lie_basis(algebra.dim, degree + 1).dim)


def subcomplex_report(algebra, degree):
    """Certify the transpose theorem in one degree, on any bracket.

    Computes the coboundary of every degree-n anti-cyclic basis cochain
    at once, without the theorem: for each tensor word w of length n+2,
    (b A_k)(w) is the k-th coordinate of del w over F^(n+1).  Returns
    {"preserved": every b A_k is anti-cyclic again (the per-word defect
    sweep), "transpose": its values on the basis words of F^(n+2) equal
    coboundary_matrix_on_anti_cyclic}.
    """
    if type(degree) is not int:
        raise InputError("the degree must be an integer")
    m = algebra.dim
    length = degree + 2
    dst = free_lie_basis(m, length - 1)
    values = {}
    for w in tensor_words(m, length):
        terms = boundary_word_terms(algebra, w, "alt")
        if terms:
            values[w] = dst.coords(terms)
    preserved = not any(_anti_cyclic_defect(values, w)
                        for w in tensor_words(m, length))
    rows = [values.get(b, {}) for b in free_lie_basis(m, length).words]
    mat = coboundary_matrix_on_anti_cyclic(algebra, degree)
    return {"preserved": preserved,
            "transpose": rows == transpose(mat, len(rows))}


def classify_extension(algebra, hcochain):
    """Decide whether an arity-3 scalar cochain defines a twist class.

    Only an anti-cyclic cochain is classified; for any other, closed,
    trivial, class and h2_dim are None.  By the transpose theorem the
    coboundary of an anti-cyclic h is anti-cyclic with implicit vector
    transpose(del_4) applied to h's, so h is closed exactly when its
    implicit vector pairs to zero with every column of del_4; the
    cocycles are the nullspace of the same columns.  A closed h is
    reduced against the coboundary space, which gives triviality and
    coordinates over an exact basis of the degree-2 cohomology.
    """
    require_twist(hcochain, algebra.dim)
    require_leibniz(algebra)
    out = {"anti_cyclic": True, "closed": None, "trivial": None,
           "class": None, "h2_dim": None}
    try:
        vec = to_implicit(hcochain)
    except InputError:
        out["anti_cyclic"] = False
        return out
    v = {i: c for i, c in enumerate(vec) if c}
    del4 = boundary_matrix(algebra, 4)
    out["closed"] = not any(sum(c * v.get(i, 0) for i, c in col.items())
                            for col in del4)
    if not out["closed"]:
        return out
    ech = SparseEchelon()
    for col in coboundary_matrix_on_anti_cyclic(algebra, 1):
        ech.insert(col)
    extension = []
    for z in nullspace(del4, len(vec)):
        if ech.insert(z):
            extension.append(ech.rank - 1)
    coords = ech.coordinates(v)
    if coords is None:
        # closed cochain must lie in the cocycle space
        raise RuntimeError("closed cochain escaped the cocycle space")
    cls = [coords.get(s, Fraction(0)) for s in extension]
    out["trivial"] = not any(cls)
    out["class"] = cls
    out["h2_dim"] = len(extension)
    return out


def anti_cyclic_constraint_rows(m, arity):
    """Defining constraints of the anti-cyclic space as integer rows.

    Coordinates index the length-arity words; one row per word w:
    arity * A(w) - A(expansion of {w}) = 0, the defect of the unit
    cochains, one per coordinate.
    """
    if type(arity) is not int:
        raise InputError("the arity must be an integer")
    words = tensor_words(m, arity)
    idx = {w: i for i, w in enumerate(words)}
    units = {w: {i: 1} for w, i in idx.items()}
    rows = [_anti_cyclic_defect(units, w) for w in words]
    return [row for row in rows if row], idx


# Per arity, each identity is a signed sum of slot permutations of one word
# w: the term (sign, perm) stands for sign * A(w[perm[0]], w[perm[1]], ...).
_SYMMETRY_IDENTITIES = {
    3: (((1, (0, 1, 2)), (-1, (0, 2, 1))),
        ((1, (0, 1, 2)), (1, (1, 2, 0)), (1, (2, 0, 1)))),
    4: (((1, (0, 1, 2, 3)), (-1, (0, 1, 3, 2))),
        ((1, (0, 1, 2, 3)), (1, (0, 2, 3, 1)), (1, (0, 3, 1, 2))),
        ((1, (0, 1, 2, 3)), (1, (1, 0, 2, 3)), (1, (2, 3, 0, 1)),
         (1, (3, 2, 0, 1)))),
}


def symmetry_identity_rows(m, arity):
    """The equivalent finite identity set, arity 3 and 4 only.

    Arity 3: A(i,j,k) = A(i,k,j) and the cyclic sum vanishes.
    Arity 4: A(i,j,k,l) = A(i,j,l,k), the cyclic sum over the last three
    slots vanishes, and A(ijkl) + A(jikl) + A(klij) + A(lkij) = 0.
    One row per word and identity, in that order, as integer rows.
    """
    identities = _SYMMETRY_IDENTITIES.get(arity)
    if identities is None:
        raise InputError("identity rows are tabulated for arity 3 and 4 only")
    words = tensor_words(m, arity)
    idx = {w: i for i, w in enumerate(words)}
    rows = []
    for w in words:
        for identity in identities:
            row = {}
            for sign, perm in identity:
                _add_term(row, idx[tuple(w[p] for p in perm)], sign)
            if row:
                rows.append(row)
    return rows, idx


def same_row_space(rows_a, rows_b):
    """Exact equality of two spans of sparse vectors: with equal ranks,
    the span of A holding every row of B is the span of B."""
    ech_a = _echelon(rows_a)
    return (ech_a.rank == _echelon(rows_b).rank
            and all(ech_a.contains(r) for r in rows_b))
