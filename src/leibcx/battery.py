"""What check, dr and omega0 run and homology does not: the graded Lie
algebra DR (DGLA) and its identity battery (dgla_suite), the
certificates of the complexes and reference operators.  complexes
resolves each name defined here on first access (PEP 562), so
``from leibcx.complexes import DGLA`` keeps working and a homology or
cohomology job compiles none of this module.
"""

from collections import deque
from fractions import Fraction
from itertools import groupby, islice, product

from .algebras import ideal_residue, require_leibniz, symmetric_ideal
from .complexes import (_loday_degrees, boundary_word_terms, free_lie_basis,
                        superwitt_dim)
from .errors import InputError
from .exactla import rank
from .words import _add_term, _extend, embedded_word, tensor_words


def boundary_apply(algebra, terms):
    """del of a bracket-word term dict, one degree down."""
    return _extend(terms, lambda w: boundary_word_terms(algebra, w))


def loday_apply(algebra, terms):
    """del_L of a tensor-word term dict, one degree down."""
    return _extend(terms, lambda w: boundary_word_terms(algebra, w, "loday"))


def loday_matrix(algebra, n):
    """Matrix of del_L: T^n -> T^(n-1) as sparse columns over lex words.

    Column i is {row: coeff}, del_L of the i-th tensor word in lex order,
    with rows indexing the words of length n-1 the same way.  It is the
    last degree of _loday_degrees, built up from degree 1 (del_L = 0) by

        del_L(a (x) u) = a.u - a (x) del_L(u),

    where a.u replaces each letter u_j of u in turn by [a, u_j] (the
    pairs that bracket the first letter) and a (x) del_L(u) holds the
    other pairs.  On lex indices, (a,) + u sits at (a - 1) m^(d-1) +
    idx(u) in degree d, and replacing u_j by k moves idx(u) by
    (k - u_j) m^(d-2-j) (_loday_columns, which homology's lazy top shares).
    loday_apply keeps the direct pairwise formula.
    """
    if type(n) is not int or n < 2:
        raise InputError("tensor boundary matrices start at degree 2")
    return deque(_loday_degrees(algebra, n), maxlen=1).pop()


def boundary_square_report(algebra, max_degree=5):
    """Certify del o del = 0, del_L o del_L = 0, and variant agreement.

    Works on any algebra (valid or not); a Leibniz failure shows up as a
    nonzero square.  Variant agreement holds for any bracket, Leibniz or
    not, so it certifies the code, not the algebra.  Returns a dict of
    named checks with failure lists.
    """
    if type(max_degree) is not int:
        raise InputError("max_degree must be an integer")
    main, loday, variants = [], [], []
    for n in range(2, max_degree + 1):
        for w in tensor_words(algebra.dim, n):
            t1 = boundary_word_terms(algebra, w, "main")
            if t1 != boundary_word_terms(algebra, w, "alt"):
                variants.append(w)
            if n >= 3 and _extend(boundary_apply(algebra, t1), embedded_word):
                main.append(w)
            if loday_apply(algebra, boundary_word_terms(algebra, w, "loday")):
                loday.append(w)
    return {name: {"passed": not failures, "failures": failures}
            for name, failures in (("main_square_zero", main),
                                   ("loday_square_zero", loday),
                                   ("variants_agree", variants))}


def intertwining_report(algebra, max_length=5):
    """Check del_L(eps(w)) == eps(del(w)) on every word of length <= max.

    The identity holds for any bracket, Leibniz or not, so it certifies
    the code of the boundaries and the embedding, not the algebra."""
    if type(max_length) is not int:
        raise InputError("max_length must be an integer")
    failures = []
    for n in range(1, max_length + 1):
        for w in tensor_words(algebra.dim, n):
            lhs = loday_apply(algebra, embedded_word(w))
            rhs = (_extend(boundary_word_terms(algebra, w, "main"),
                           embedded_word) if n >= 2 else {})
            if lhs != rhs:
                failures.append(w)
    return {"passed": not failures, "failures": failures}


def omega0(algebra):
    """dim of (g tensor g) / span{x y - y x, [x,y] z - x [y,z]}.

    Only defined for Lie algebras (antisymmetric Leibniz).  Returns
    {"dim": int, "rank": int, "relations": int}.
    """
    require_leibniz(algebra)
    if not algebra.is_antisymmetric():
        raise InputError("omega0 needs an antisymmetric (Lie) bracket")
    m = algebra.dim

    def idx(i, j):
        return (i - 1) * m + (j - 1)

    rows = [{idx(i, j): Fraction(1), idx(j, i): Fraction(-1)}
            for i in range(1, m + 1) for j in range(i + 1, m + 1)]
    for i, j, k in product(range(1, m + 1), repeat=3):
        row = {}
        for l, c in algebra.bracket(i, j).items():
            _add_term(row, idx(l, k), c)
        for l, c in algebra.bracket(j, k).items():
            _add_term(row, idx(i, l), -c)
        if row:
            rows.append(row)
    r = rank(rows)
    return {"dim": m * m - r, "rank": r, "relations": len(rows)}


def ker2_invariance(algebra, subalgebra):
    """ker2_invariance_reports for one subalgebra: its report dict."""
    return ker2_invariance_reports(algebra, [subalgebra])[0]


def ker2_invariance_reports(algebra, subalgebras):
    """Invariance data of Lie subalgebras inside the degree-2 kernel.

    Each subalgebra is a tuple of 1-based basis indices.  It passes when
    every pair word {u, v} over it lies in Ker(del_2), and
    kernel_failures lists the pairs that do not.  No kernel is built:
    del{u, v} = [u,v] + [v,u] is a combination of letters, a basis of
    F^1, so {u, v} is a cycle exactly when that expansion is empty.  The
    same expansions span the symmetric ideal I, so Im(del_2) = I and
    kernel_dim is dim F^2 - dim I: the super-Witt count less the rows of
    symmetric_ideal's RREF, with del_2 neither built nor ranked.

    The second condition, ([u,v], w) + (v, [u,w]) in Im(del_3) for u, v,
    w in the subalgebra, is implied and so not tested.  The boundary
    identity del{u, v, w} = ([u,v], w) + (v, [u,w]) - (u, s), with
    s = [v,w] + [w,v], shows that a triple can fail it only when s != 0,
    and then (v, w) is a kernel failure.  So the verdict is antisymmetry
    on the subalgebra, and no del_3 is assembled.  Returns one report
    per subalgebra.
    """
    require_leibniz(algebra)
    ideal_rows, _ = symmetric_ideal(algebra)
    kernel_dim = superwitt_dim(algebra.dim, 2) - len(ideal_rows)
    failures = ([(u, v) for u in sub for v in sub
                 if boundary_word_terms(algebra, (u, v))]
                for sub in subalgebras)
    return [{"passed": not f, "kernel_failures": f, "kernel_dim": kernel_dim}
            for f in failures]


class DRElement:
    """Element of the graded algebra: a degree-0 part and one term dict.

    gl is the degree-0 part, an element of g/I (I the symmetric ideal)
    held in g coordinates {i: coeff} as its residue modulo I, the
    representative that vanishes at the pivots of the ideal's RREF.
    terms {tensor word: coeff} holds the words of every degree: those of
    length n are the embedding of the part in F^n, which is injective,
    so equal dicts are equal elements.  Coefficients are ints or
    Fractions and never zero.  The dicts given are kept as they are and
    shared, with the embedding cache among others, so nothing mutates
    them.  repr lists the words by degree, sorted within a degree.
    """

    __slots__ = ("gl", "terms")

    def __init__(self, gl=None, terms=None):
        self.gl = gl or {}
        self.terms = terms or {}

    def __eq__(self, other):
        return (isinstance(other, DRElement) and self.gl == other.gl
                and self.terms == other.terms)

    def __rmul__(self, scalar):
        if not scalar:
            return DRElement()
        return DRElement({i: scalar * c for i, c in self.gl.items()},
                         {w: scalar * c for w, c in self.terms.items()})

    def __repr__(self):
        bits = [f"gl{self.gl}"] if self.gl else []
        words = sorted(self.terms, key=lambda w: (len(w), w))
        for n, group in groupby(words, key=len):
            terms = " + ".join(f"{self.terms[w]}*{''.join(map(str, w))}"
                               for w in group)
            bits.append(f"F{n}({terms})")
        return "DR(" + (" + ".join(bits) if bits else "0") + ")"


class DGLA:
    """Degree-shifted dg Lie algebra built from a Leibniz algebra.

    Components: g/I in degree 0, the maximal Lie quotient by the
    symmetric ideal I, and F^n in degree -n for 1 <= n <= max_degree
    (higher word degrees are truncated to zero, which does not disturb
    any identity below the cutoff).  Degree 0 stays in g coordinates:
    project is the residue map modulo I, so the quotient bracket is the
    residue of the bracket of g and its basis is the basis vectors at
    the non-pivot coordinates kept of the ideal's RREF.  The words of
    every degree share one dict of tensor embeddings, so no operation
    solves for basis coordinates: the free bracket is the termwise
    super-commutator, the action substitutes letters in tensor words and
    keeps their length, and the differential is del_L, which the
    embedding intertwines with del.  Coefficients are ints or Fractions:
    an integral algebra's word terms stay int, and so does a residue
    modulo I whose reduction needed no division.  Each instance keeps
    del_L of every tensor word it has expanded and the per-letter
    adjoint of every degree-0 vector it has acted with.
    """

    def __init__(self, algebra, max_degree=4):
        require_leibniz(algebra)
        if type(max_degree) is not int or max_degree < 2:
            raise InputError("--max-degree must be an integer of at least 2")
        self.algebra = algebra
        self.N = max_degree
        self.ideal_rows, self.kept, self.project = ideal_residue(algebra)
        m = algebra.dim
        self.slices = {n: free_lie_basis(m, n) for n in range(1, max_degree + 1)}
        self._del_l = {}
        self._ad = {}

    def component_dims(self):
        return {0: len(self.kept),
                **{-n: sl.dim for n, sl in self.slices.items()}}

    def word_element(self, word):
        if len(word) not in self.slices:
            raise InputError(f"no component at word degree {len(word)}")
        return DRElement(terms=embedded_word(word))

    def basis(self):
        """(parity, element) for every component basis vector."""
        return ([(0, DRElement(gl={j + 1: 1})) for j in self.kept]
                + [(n, self.word_element(w)) for n in range(1, self.N + 1)
                   for w in self.slices[n].words])

    def act(self, g_vec, terms, out=None, sign=1):
        """Action of x in g on embedded word terms, letter by letter.

        The embedding is linear in each letter slot, so acting on every
        letter of the tensor words is the embedding of the action on
        bracket words.  sign times the action is added into out, a term
        dict, when one is given, and returned.
        """
        key = tuple(g_vec.items())
        ad = self._ad.get(key)
        if ad is None:
            ad = self._ad[key] = {
                letter: self.algebra.bracket_vectors(g_vec, {letter: 1})
                for letter in range(1, self.algebra.dim + 1)}
        out = {} if out is None else out
        if any(ad.values()):
            for w, c in terms.items():
                for i, letter in enumerate(w):
                    for k, cb in ad[letter].items():
                        _add_term(out, w[:i] + (k,) + w[i + 1:], sign * c * cb)
        return out

    def bracket(self, a, b):
        """[a, b] in one term dict: the super-commutator of the words,
        each pair cut off past N as it is formed, plus the actions of
        the degree-0 parts on the other element's words.  The loop is
        words.super_commutator's, with the cutoff that only this caller
        needs."""
        gl = (self.project(self.algebra.bracket_vectors(a.gl, b.gl))
              if a.gl and b.gl else {})
        terms = {}
        for w1, c1 in a.terms.items():
            room, odd = self.N - len(w1), len(w1) % 2
            for w2, c2 in b.terms.items():
                if len(w2) <= room:
                    c = c1 * c2
                    _add_term(terms, w1 + w2, c)
                    _add_term(terms, w2 + w1, c if odd and len(w2) % 2 else -c)
        if a.gl:
            self.act(a.gl, b.terms, terms)
        if b.gl:
            self.act(b.gl, a.terms, terms, -1)
        return DRElement(gl, terms)

    def differential(self, a):
        letters = {w[0]: c for w, c in a.terms.items() if len(w) == 1}
        gl = self.project(letters) if letters else {}
        return DRElement(gl, _extend(a.terms, self._loday_word))

    def _loday_word(self, w):
        out = self._del_l.get(w)
        if out is None:
            out = self._del_l[w] = boundary_word_terms(self.algebra, w,
                                                       "loday")
        return out


def _outcome(failures):
    """A check's entry: passed, and the first five failure witnesses."""
    first = list(islice(failures, 5))
    return {"passed": not first, "failures": first}


def dgla_suite(dg):
    """Run the full identity battery on a graded algebra DGLA.

    Returns {check_name: {"passed": bool, "failures": [...]}} covering
    antisymmetry, the graded Jacobi identity, the differential squaring
    to zero, the differential being a degree-1 derivation, recovery of
    the original bracket as the derived bracket, the two lifted bracket
    identities in degree -2, trivial action of the symmetric ideal, and
    the augmented composite vanishing on degree-2 boundaries.  Each
    check is a generator of failure witnesses.

    Jacobi and the derivation rule are decided on one ordering per
    orbit.  With J(a,b,c) = [a,[b,c]] - [[a,b],c] - (-1)^{|a||b|}[b,[a,c]]
    and D(a,b) = d[a,b] - [da,b] - (-1)^{|a|}[a,db], a bilinear bracket
    that is antisymmetric on basis pairs within the cutoff gives
    J(b,a,c) = -(-1)^{|a||b|}J(a,b,c), J(a,c,b) = -(-1)^{|b||c|}J(a,b,c)
    and, as |da| = |a| + 1 mod 2, D(b,a) = -(-1)^{|a||b|}D(a,b).  The
    two transpositions generate S3, so when antisymmetry passes, index
    sets i <= j <= k (i <= j for D) certify every ordering.  Failure
    witnesses come from the full ordered sweep, in index order, which
    runs only when antisymmetry fails or the sorted pass finds one.

    The sorted Jacobi pass takes every triple of words and every triple
    of degree-0 elements, but a mixed triple (x, u, v) or (x, y, u), x
    and y of degree 0 and u, v words, only when u is a letter: a
    derivation of the free Lie superalgebra is fixed by its values on
    the letters (Reutenauer, Free Lie Algebras, 1993).  The premises are
    bilinearity, antisymmetry and the word and degree-0 triples in full.
    J(x, u, v) = 0 says that ad_x is a derivation on (u, v).  The basis
    words of F^n are brackets [a, u'] with a a letter, and by the word
    Jacobi identity [[a, u'], v] = [a, [u', v]] - (-1)^{|u'|}[u', [a, v]],
    so induction on |u| extends the rule from the pairs (letter, v) to
    all pairs; the sorted triples (x, a, v) hold every such pair up to
    antisymmetry, since letters come first in index order.  Then
    [ad_x, ad_y] - ad_[x,y] is a derivation too, and J(x, y, u) is its
    value at u, so it vanishes on words once it vanishes on letters.
    The cutoff does not interfere: every bracket in the induction keeps
    |u| + |v| <= N.  tests/support.ordered_dgla_sweeps, the sweep over
    every ordered triple, is the reference.

    Before any check runs, the battery tabulates over the elements e_i
    of dg.basis(): prod[i, j] = [e_i, e_j] for each pair within the
    cutoff, in the sweeps' pair order, diff[i] = d e_i and diff2[i] =
    d diff[i].  Antisymmetry compares two entries of prod; Jacobi reads
    [b, c], [a, b] and [a, c] there and brackets only with the outer
    element; derivation reads diff and prod; d o d and the augmentation
    read diff2; the letter checks read diff and prod at x[i] =
    len(dg.kept) + i - 1, the entry of the letter x_i, which F^2 follows.
    """
    algebra, N, m = dg.algebra, dg.N, dg.algebra.dim
    br, d = dg.bracket, dg.differential
    parity, el = zip(*dg.basis())
    prod = {(i, j): br(a, b) for i, a in enumerate(el)
            for j, b in enumerate(el) if parity[i] + parity[j] <= N}
    diff = [d(a) for a in el]
    diff2 = [d(da) for da in diff]
    x = {i: len(dg.kept) + i - 1 for i in range(1, m + 1)}

    def letters(vec):
        # degree -1 element of a g coordinate vector {k: c}
        return DRElement(terms={(k,): c for k, c in vec.items()})

    def antisymmetry():
        for (i, j), ab in prod.items():
            if ab != (-((-1) ** (parity[i] * parity[j]))) * prod[j, i]:
                yield repr(el[i]), repr(el[j])

    skew = _outcome(antisymmetry())

    def pairs(ordered):
        return (p for p in prod if ordered or p[0] <= p[1])

    def triples(ordered):
        # the sorted pass takes a triple that mixes degree 0 and words
        # only when its first word is a letter
        return ((i, j, k) for i, j in pairs(ordered)
                for k in range(0 if ordered else j, len(el))
                if parity[i] + parity[j] + parity[k] <= N and (
                    ordered or parity[i] or (parity[j] or parity[k]) <= 1))

    def orbit_sweep(fails, tuples):
        if skew["passed"] and not any(fails(*t) for t in tuples(False)):
            return
        for t in tuples(True):
            if fails(*t):
                yield tuple(repr(el[i]) for i in t)

    def differs(lhs, rhs, sign, other):
        # lhs != rhs + sign * other, added up in one dict (degree-0 keys
        # are ints, word keys tuples) with no element built for the sum
        acc = {**lhs.gl, **lhs.terms}
        for s, e in ((1, rhs), (sign, other)):
            for key, c in (*e.gl.items(), *e.terms.items()):
                _add_term(acc, key, -s * c)
        return bool(acc)

    def jacobi_fails(i, j, k):
        return differs(br(el[i], prod[j, k]), br(prod[i, j], el[k]),
                       (-1) ** (parity[i] * parity[j]), br(el[j], prod[i, k]))

    def derivation_fails(i, j):
        return differs(d(prod[i, j]), br(diff[i], el[j]),
                       (-1) ** parity[i], br(el[i], diff[j]))

    def differential_squared():
        for a, dda in zip(el, diff2):
            if dda.gl or dda.terms:
                yield repr(a)

    def derived_bracket():
        for i, j in product(range(1, m + 1), repeat=2):
            if br(diff[x[i]], el[x[j]]) != letters(algebra.bracket(i, j)):
                yield i, j

    def lifted_identity_left():
        for i, j, k in product(range(1, m + 1), repeat=3):
            if differs(br(diff[x[i]], prod[x[j], x[k]]),
                       br(letters(algebra.bracket(i, j)), el[x[k]]), 1,
                       br(el[x[j]], letters(algebra.bracket(i, k)))):
                yield i, j, k

    def lifted_identity_sym():
        for i, j in product(range(1, m + 1), repeat=2):
            dij = d(prod[x[i], x[j]])
            sym = letters(algebra.symmetrized(i, j))
            for k in range(1, m + 1):
                if br(dij, el[x[k]]) != br(sym, el[x[k]]):
                    yield i, j, k

    def ideal_acts_trivially():
        for row in dg.ideal_rows:
            vec = {i + 1: c for i, c in row.items()}
            for n in range(1, N + 1):
                for p, w in enumerate(dg.slices[n].words):
                    if dg.act(vec, embedded_word(w)):
                        yield vec, n, p

    def augmentation_kills_boundaries():
        for w, dd in zip(dg.slices[2].words, diff2[x[m] + 1:]):
            if dd.gl:
                yield w

    checks = (derived_bracket, lifted_identity_left, lifted_identity_sym,
              ideal_acts_trivially, augmentation_kills_boundaries)
    return dict(antisymmetry=skew,
                jacobi=_outcome(orbit_sweep(jacobi_fails, triples)),
                differential_squared=_outcome(differential_squared()),
                derivation=_outcome(orbit_sweep(derivation_fails, pairs)),
                **{check.__name__: _outcome(check()) for check in checks})
