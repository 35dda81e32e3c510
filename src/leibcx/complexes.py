"""Chain complexes attached to a Leibniz algebra.

Two complexes live here.  The bracket-word complex (F^n, del): F^n is
spanned by length-n bracket words over the basis alphabet, with basis
extracted greedily through the tensor embedding, and del expands a word
by bracketing pairs of letters.  The tensor-word complex (T^n, del_L)
uses plain tensor words and the classical pairwise boundary.  The
embedding intertwines the two, which is one of the certified theorems.
Elements of either complex are term dicts {word: coeff}; boundary_apply
and loday_apply take and return them, and bracket-word dicts are
compared through their embeddings.

Homology of the bracket-word complex is reported with a shift:
HA_n = dim F^(n+1) - rank del_(n+1) - rank del_(n+2), so HA_0 equals the
dimension of the quotient Lie algebra.  Both boundaries keep the weight
of a word under any grading of the algebra, so every rank is taken per
weight block of the finest grading (grading()); from del_3 on, a block
of nonzero toral weight (toral()) is not ranked, since the homology
there vanishes.

The degree-shifted differential graded Lie algebra DR sits at the end:
components are g/I in degree 0, the maximal Lie quotient by the
symmetric ideal I, and F^n in degree -n; the bracket combines the
quotient bracket, its action on words, and the free graded commutator,
and the differential is del plus the class-of-a-letter augmentation.
Degree 0 is held in g coordinates, each class as its residue modulo I
(the representative that vanishes at the pivots of the ideal's RREF),
so the quotient needs no coordinates of its own.  The words of every
degree are kept in one dict of tensor embeddings, a word's length being
its degree: the free bracket is the termwise super-commutator there, and
del is applied as del_L, which equals it on embeddings by the
intertwining.  Coefficients are ints or Fractions: the word terms of an
integral algebra stay int, and so does a residue modulo I whose
reduction needed no division.
"""

from collections import Counter, deque
from fractions import Fraction
from functools import lru_cache
from itertools import groupby, islice, product

from .algebras import ideal_residue, require_leibniz, symmetric_ideal
from .errors import InputError
from .exactla import SparseEchelon, _as_int_vector, nullspace, rank
from .words import (_add_term, _combine, _extend, embedded_word,
                    super_commutator, tensor_words)


class LieBasisSlice:
    """Basis of the length-n bracket words over the alphabet 1..m.

    The basis is the lex-greedy one: a word joins it when its tensor
    embedding is independent of the embeddings of the lex-smaller words.
    Only the prefix extensions (a,) + b, with b a basis word of length
    n-1, are inserted, in lex order.  This keeps the same basis: eps{a, w}
    = a (x) eps(w) - (-1)^(n-1) eps(w) (x) a is linear in eps(w), so when
    w lies in the span of lex-smaller words, (a,) + w lies in the span of
    the lex-smaller words (a,) + v, and the full sweep would reject it
    too.  Echelon row k is the embedding of the k-th kept word, so
    coords() reads the echelon's coordinates as they are: it expresses
    any element of the span over the kept words, exactly.
    Row k is zero at the pivots of the rows before it and nonzero at its
    own, so pivot_values, the embedding read at the pivot words, is
    injective on the span and keeps ranks with no elimination.
    The echelon pivots each row at its lex-largest tensor word.  Any rule
    keeps the words, the coordinates and the ranks of pivot_values; over
    three or more letters this one stores fewer entries than the
    lex-smallest word, 757,644 against 1,061,288 for m = 3, n = 10, and
    builds that slice in less than half the time.
    """

    def __init__(self, m, degree):
        self.m = m
        self.degree = degree
        self.echelon = SparseEchelon(pick=max)
        self.words = []
        tails = free_lie_basis(m, degree - 1).words if degree > 1 else [()]
        for w in ((a,) + b for a in range(1, m + 1) for b in tails):
            if self.echelon.insert(embedded_word(w)):
                self.words.append(w)

    @property
    def dim(self):
        return len(self.words)

    def coords(self, terms):
        """Coordinates of a bracket-word term dict {word: coeff}."""
        raw = self.echelon.coordinates(_extend(terms, embedded_word))
        if raw is None:
            raise InputError(
                f"element is outside the degree-{self.degree} span")
        return raw

    def pivot_values(self, terms):
        """{row k: int}: c * eps(element) at the pivot word of row k.

        c > 0 clears the denominators of terms, so no Fraction is made.
        Reading at the pivots is linear and, on the span of the slice,
        injective, so elements of the span keep their rank."""
        pivots = self.echelon.pivots
        out = {}
        for w, c in _as_int_vector(terms)[0].items():
            for t, k in embedded_word(w).items():
                row = pivots.get(t)
                if row is not None:
                    _add_term(out, row, c * k)
        return out


@lru_cache(maxsize=None, typed=True)    # typed: True is cached apart from 1
def free_lie_basis(m, degree):
    if not (type(m) is type(degree) is int and m >= 1 and degree >= 1):
        raise InputError("free_lie_basis needs positive integer arguments")
    return LieBasisSlice(m, degree)


def superwitt_dim(m, n):
    """dim F^n by the super-Witt formula: the sum over d | n of
    (-1)^d d dim F^d is (-m)^n (Ree 1960; Petrogradsky 2000)."""
    rest = sum((-1) ** d * d * superwitt_dim(m, d)
               for d in range(1, n) if n % d == 0)
    return ((-m) ** n - rest) // ((-1) ** n * n)


def boundary_word_terms(algebra, word, variant="main"):
    """Expansion of del applied to one bracket word, as {word: coeff}.

    variant "main" and "alt" are the two printed forms of the bracket-word
    boundary (they agree identically); "loday" is the tensor-word boundary
    without the tail term.  Words must have length >= 2 for main/alt.
    """
    word = tuple(word)
    L = len(word)
    if variant not in ("main", "alt", "loday"):
        raise InputError(f"unknown boundary variant {variant!r}")
    if variant != "loday" and L < 2:
        raise InputError("bracket-word boundary needs words of length >= 2")
    out = {}
    for i in range(L - 2 if variant == "alt" else L):
        sign = (-1) ** i
        for j in range(i + 1, L):
            for k, c in algebra.bracket(word[i], word[j]).items():
                nw = word[:i] + word[i + 1:j] + (k,) + word[j + 1:]
                _add_term(out, nw, sign * c)
    if variant == "loday":
        return out
    tail = (algebra.bracket(word[L - 1], word[L - 2]) if variant == "main"
            else algebra.symmetrized(word[L - 2], word[L - 1]))
    for k, c in tail.items():
        _add_term(out, word[:L - 2] + (k,), (-1) ** L * c)
    return out


def _cartan_boundary(algebra, word, low, ell):
    # del of a word longer than ell by the Cartan homotopy del((a,) + b)
    # = a.b - (a,) + del(b) (see homology), a.b acting letter by letter,
    # up from del of its suffix of length ell: low holds del of such
    # suffixes, and one missing there is expanded and added
    tail = word[-ell:]
    out = low.get(tail)
    if out is None:
        out = low[tail] = boundary_word_terms(algebra, tail)
    for p in reversed(range(len(word) - ell)):
        a, b = word[p], word[p + 1:]
        out = {(a,) + w: -c for w, c in out.items()}
        for i, x in enumerate(b):
            for k, c in algebra.bracket(a, x).items():
                _add_term(out, b[:i] + (k,) + b[i + 1:], c)
    return out


def boundary_apply(algebra, terms):
    """del of a bracket-word term dict, one degree down."""
    return _extend(terms, lambda w: boundary_word_terms(algebra, w))


def boundary_matrix(algebra, n):
    """Matrix of del: F^n -> F^(n-1) as sparse columns.

    Column j is {row: Fraction}, the coordinates over the basis of
    F^(n-1) of del applied to the j-th basis word of F^n.
    """
    if n < 2:
        raise InputError("boundary matrices start at degree 2")
    m = algebra.dim
    dst = free_lie_basis(m, n - 1)
    cols = []
    for w in free_lie_basis(m, n).words:
        terms = boundary_word_terms(algebra, w)
        cols.append(dst.coords(terms) if terms else {})
    return cols


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


def _loday_degrees(algebra, n):
    # loday_matrix at degrees 2..n in turn, each built whole from the last
    cols = [{}] * algebra.dim   # del_L vanishes on letters
    for d in range(2, n + 1):
        cols = list(_loday_columns(algebra, d, cols, product(
            range(1, algebra.dim + 1), range(len(cols)))))
        yield cols


def _loday_columns(algebra, d, low, pairs):
    # del_L of the degree-d words (a,) + u for (a, j) in pairs, u the j-th
    # word of degree d - 1 and low[j] its column: -(a (x) del_L(u)) at
    # rows (a - 1) m^(d-2) + r, and a.u at rows j + (k - u_p) m^(d-2-p)
    m = algebra.dim
    place = [m ** (d - 2 - p) for p in range(d - 1)]
    acts = [[list(algebra.bracket(a, b).items()) for b in range(1, m + 1)]
            for a in range(1, m + 1)]
    for a, j in pairs:
        act = acts[a - 1]
        col = {(a - 1) * place[0] + r: -c for r, c in low[j].items()}
        for p in place:
            b = j // p % m   # u_p - 1
            for k, c in act[b]:
                _add_term(col, j + (k - 1 - b) * p, c)
        yield col


def _loday_blocks(algebra, weights, n):
    # {weight: del_L columns} at degrees 2..n, whole below n, where
    # weights[d] lists the weights of the words; lazy at n (see homology)
    low = [{}] * algebra.dim
    for d, low in enumerate(_loday_degrees(algebra, n - 1), 2):
        yield _group(weights[d], low)
    top = _prefix_blocks(weights[1], weights[n - 1], range(len(low)))
    yield {w: _loday_columns(algebra, n, low, (
        (a, j) for a, js in pairs for j in js)) for w, pairs in top.items()}


def boundary_square_report(algebra, max_degree=5):
    """Certify del o del = 0, del_L o del_L = 0, and variant agreement.

    Works on any algebra (valid or not); a Leibniz failure shows up as a
    nonzero square.  Variant agreement holds for any bracket, Leibniz or
    not, so it certifies the code, not the algebra.  Returns a dict of
    named checks with failure lists.
    """
    if type(max_degree) is not int:
        raise InputError("max_degree must be an integer")
    m = algebra.dim
    failures = {"main": [], "loday": [], "variants": []}
    for n in range(2, max_degree + 1):
        for w in tensor_words(m, n):
            t1 = boundary_word_terms(algebra, w, "main")
            t2 = boundary_word_terms(algebra, w, "alt")
            if t1 != t2:
                failures["variants"].append(w)
            if n >= 3:
                if _extend(boundary_apply(algebra, t1), embedded_word):
                    failures["main"].append(w)
            if loday_apply(algebra, boundary_word_terms(algebra, w, "loday")):
                failures["loday"].append(w)
    return {
        "main_square_zero": {"passed": not failures["main"],
                             "failures": failures["main"]},
        "loday_square_zero": {"passed": not failures["loday"],
                              "failures": failures["loday"]},
        "variants_agree": {"passed": not failures["variants"],
                           "failures": failures["variants"]},
    }


def intertwining_report(algebra, max_length=5):
    """Check del_L(eps(w)) == eps(del(w)) on every word of length <= max.

    The identity holds for any bracket, Leibniz or not, so it certifies
    the code of the boundaries and the embedding, not the algebra."""
    if type(max_length) is not int:
        raise InputError("max_length must be an integer")
    m = algebra.dim
    failures = []
    for n in range(1, max_length + 1):
        for w in tensor_words(m, n):
            lhs = loday_apply(algebra, embedded_word(w))
            rhs = (_extend(boundary_word_terms(algebra, w, "main"),
                           embedded_word) if n >= 2 else {})
            if lhs != rhs:
                failures.append(w)
    return {"passed": not failures, "failures": failures}


def _shifted_homology(dims, ranks):
    # H_n = dim C_(n+1) - rank d_(n+1) - rank d_(n+2) for n = 0..N-2,
    # where dims covers degrees 1..N and ranks degrees 2..N
    return {n: dims[n + 1] - ranks.get(n + 1, 0) - ranks.get(n + 2, 0)
            for n in range(len(dims) - 1)}


def grading(algebra):
    """Integer letter weights of the finest grading of the algebra.

    A grading gives each basis letter a weight w_a with w_k = w_a + w_b
    wherever c_ab^k != 0, so the gradings are the nullspace of one row
    e_k - e_a - e_b per nonzero structure constant.  Returns the weight
    of letter a at index a - 1, as a tuple of ints with one entry per
    nullspace basis vector (scaled to integers); every tuple is empty
    when the zero grading is the only one.
    """
    rows = []
    for (a, b), entry in algebra.items():
        for k in entry:
            row = {k - 1: 1}
            _add_term(row, a - 1, -1)
            _add_term(row, b - 1, -1)
            rows.append(row)
    basis = [_as_int_vector(v)[0] for v in nullspace(rows, algebra.dim)]
    return [tuple(v.get(i, 0) for v in basis) for i in range(algebra.dim)]


def toral(algebra, letters):
    """Integer letter weights of the toral elements of the algebra.

    x = sum_a x_a e_a is toral when [x, e_b] = lambda_b e_b for every b:
    the nullspace of the off-diagonal conditions sum_a x_a c_ab^k = 0 (k
    != b), with lambda_b = sum_a x_a c_ab^b.  Returns lambda, scaled to a
    tuple of ints, for each nullspace basis vector where it is nonzero.
    Left multiplication is a derivation, so lambda_k = lambda_a +
    lambda_b wherever c_ab^k != 0: a toral weight is a grading, and when
    the finest grading is zero (letters, as grading() gives it) [] comes
    back with nothing solved.
    """
    if not any(letters):
        return []
    m = algebra.dim
    rows, diagonal = {}, {}
    for (a, b), entry in algebra.items():
        for k, c in entry.items():
            if k == b:
                diagonal[a - 1, b - 1] = c
            else:
                rows.setdefault((k, b), {})[a - 1] = c
    out = []
    for x in nullspace(list(rows.values()), m):
        lam = {}
        for (a, b), c in diagonal.items():
            _add_term(lam, b, c * x.get(a, 0))
        if lam:
            ints = _as_int_vector(lam)[0]
            out.append(tuple(ints.get(b, 0) for b in range(m)))
    return out


def _group(keys, items):
    # items grouped by their keys, each group in input order
    out = {}
    for key, item in zip(keys, items):
        out.setdefault(key, []).append(item)
    return out


def _prefix_blocks(letters, keys, items):
    # the words (a,) + u by weight, each u an item keyed by its weight:
    # {weight: [(a, the items at weight - wt(a))]}, a in order
    below = _group(keys, items)
    top = {}
    for a, la in enumerate(letters, 1):
        for v, us in below.items():
            top.setdefault(tuple(map(sum, zip(la, v))), []).append((a, us))
    return top


def _ranks(weights, blocks, toral, first):
    # ranks of d_2..d_N by weight block.  weights[n] lists the weights of
    # the source words of degree n; blocks yields, for n = 2..N in turn,
    # {weight: columns of d_n whose source words carry it}, each dropped
    # once ranked.  d o d = 0 bounds the block of d_n at weight w by the
    # count of w in weights[n-1] minus rank d_(n-1)^w, found just before.
    # The last `toral` coordinates of a weight are toral (toral()): from
    # degree `first` on, a block where they are not all zero has its
    # bound as rank, and none of its columns is pulled (see homology)
    ranks, below = {}, {}
    for block in blocks:
        n = len(ranks) + 2
        sizes = Counter(weights[n - 1])
        bounds = {w: sizes[w] - below.get(w, 0) for w in block}
        below = {w: bounds[w] if n >= first and any(w[len(w) - toral:])
                 else rank(cols, upper=bounds[w])
                 for w, cols in block.items()}
        ranks[n] = sum(below.values())
        del block   # before the next degree is built
    return ranks


def homology(algebra, max_degree=4, loday=False):
    """Dimension table of the shifted homology HA_n (and HL_n if asked).

    Needs max_degree >= 2.  Returns dims of F^1..F^max_degree, the ranks
    of del_2..del_max_degree, and HA_0..HA_(max_degree-2); with loday,
    the same for the tensor complex.

    Every rank is split by the algebra's grading (grading()): del replaces
    letters a, b by a k with c_ab^k != 0, so it keeps the total weight of
    a word, and del_n and del_L are block-diagonal by the weight of the
    source word.  Each boundary is built once, in one pass up the degrees,
    and each block is ranked on its own and dropped.  del o del = 0 puts
    the image of the block of del_n at weight w inside the kernel of the
    block of del_(n-1) at w, so its rank is at most dim F^(n-1)_w - rank
    del_(n-1)^w; for del_L the tensor words of weight w count in place of
    dim F^(n-1)_w.  rank() takes this as its upper bound: a rank modulo a
    prime that reaches it is exact.  Exact elimination runs only on the
    blocks where it does not, that is where the homology at F^(n-1) of
    that weight is nonzero (or the prime is unlucky), and a block whose
    weight has no word one degree down has bound 0 and pulls no column.
    An algebra with only the zero grading keeps one block per degree.
    require_leibniz runs first, so both squares vanish.

    A column is built only when a rank pulls it.  The source words of
    del_n are the basis words of F^n below the top; F^N, N = max_degree,
    gets no basis (dim F^N is superwitt_dim), and del_N is ranked on the
    prefix candidates (a,) + b (b a basis word of F^(N-1)), which span
    F^N.  A column is the pivot_values read-out of del of its source word
    in the slice of F^(n-1), which keeps the rank with no coordinate
    solve, and each block is a generator of them: past the column where
    a block's rank meets its bound none is built.  del_2 alone comes from
    boundary_matrix: over the letters its coordinates are the bracket
    expansion itself.  del_L comes up the degrees from its prefix
    recursion (loday_matrix), whole below the top, which needs degree
    N-1 in full.  The top is generated per block (_prefix_blocks, shared
    with del_L): at weight w, the words (a,) + u with u at weight w -
    wt(a), in lex order, each made when pulled, so the ranks pull the
    columns they would pull from the whole degree.

    From del_4 on, a column is built from del of its tail by the Cartan
    homotopy below, del((a,) + b) = a.b - (a,) + del(b)
    (_cartan_boundary).  del_3 expands its words.  Degrees 3..K, K =
    max(3, N-2), keep del of the words they built, and of the tails no
    column built, for the next degree only, so no boundary is made
    twice.  The degrees above K keep nothing and build from K's: with
    dense constants the boundaries of F^(N-1) would raise the peak
    memory.

    No block of nonzero toral weight is ranked.  The letter weights end
    with those of toral(), gradings that split no block.  The Cartan
    homotopy L_x = del o i_x + i_x o del (L_x acting letter by letter,
    i_x putting x in front) holds for every x on T^n, n >= 1, as the
    del_L recursion, and on F^n, n >= 2: the signed letter deletion
    delta(u) = sum_i (-1)^i u^_i (x) u_i (u^_i is u without u_i) kills
    eps(w) for words of length >= 2 (induct on eps{a, w} = a (x) eps(w)
    - (-1)^n eps(w) (x) a), so del_L(eps(w) (x) a) = del_L(eps(w)) (x) a
    and the identity follows through the intertwining.  For x toral,
    [x, e_b] = lambda_b e_b, L_x scales a word by its toral weight t, so
    a cycle z at t != 0 is del(i_x z) / t: the block of del_(n+1) at t
    has its bound as rank.  From del_3 on (del_L from degree 2) such a
    block is not ranked, and none of its del columns is built.  At n =
    1, del{a, b} = [a, b] + [b, a] breaks the identity, so del_2 is
    always ranked.
    HA_n (n >= 1) and HL sit at toral weight 0.  HL of a semisimple Lie
    algebra vanishes (Pirashvili, Ann. Inst. Fourier 44, 1994); the
    Leibniz complex and its homotopies are in Loday-Pirashvili, Math.
    Ann. 296 (1993).
    """
    require_leibniz(algebra)
    if type(max_degree) is not int or max_degree < 2:
        raise InputError("--max-degree must be an integer of at least 2")
    m = algebra.dim
    letters = grading(algebra)
    lams = toral(algebra, letters)
    letters = [w + tuple(lam[a] for lam in lams)
               for a, w in enumerate(letters)]

    def weight(word):
        return tuple(map(sum, zip(*(letters[a - 1] for a in word))))

    sources = {n: free_lie_basis(m, n).words for n in range(1, max_degree)}
    weights = {n: list(map(weight, ws)) for n, ws in sources.items()}
    dims = {n: len(ws) for n, ws in sources.items()}
    dims[max_degree] = superwitt_dim(m, max_degree)

    # del of the source words of one degree, by word, kept for the next
    # degree only: degrees 3..K below N keep theirs, those above K build
    # from K's
    dels, K = {}, max(3, max_degree - 2)

    def block(n):
        # {weight: columns of del_n at that weight}
        nonlocal dels
        if n == 2 < max_degree:
            # the benchmark's trace records its assembly span by wrapping
            # boundary_matrix (test_traced_output_is_byte_identical fails
            # without it); the call stays until ROADMAP item 6's spans
            return _group(weights[2], boundary_matrix(algebra, 2))
        dst = free_lie_basis(m, n - 1)
        # the columns of degree n are all pulled or dropped before
        # block(n + 1) runs
        low, keep = dels, n <= K and n < max_degree
        if keep:
            dels = {}

        def column(v):
            terms = (boundary_word_terms(algebra, v) if n <= 3 else
                     _cartan_boundary(algebra, v, low, min(n - 1, K)))
            if keep:
                dels[v] = terms
            return dst.pivot_values(terms)

        if n < max_degree:
            return {w: map(column, vs)
                    for w, vs in _group(weights[n], sources[n]).items()}
        return {w: (column((a,) + b) for a, bs in pairs for b in bs)
                for w, pairs in _prefix_blocks(
                    letters, weights[n - 1], sources[n - 1]).items()}

    ranks = _ranks(weights, map(block, range(2, max_degree + 1)),
                   len(lams), 3)
    out = {"dims": dims, "ranks": ranks, "HA": _shifted_homology(dims, ranks)}
    if loday:
        tdims = {n: m ** n for n in range(1, max_degree + 1)}
        tweights = {1: letters}   # weight of (a,) + u: of a plus of u
        for n in range(2, max_degree):
            tweights[n] = [tuple(map(sum, zip(la, lu))) for la in letters
                           for lu in tweights[n - 1]]
        tranks = _ranks(tweights, _loday_blocks(algebra, tweights, max_degree),
                        len(lams), 2)
        out.update(tensor_dims=tdims, tensor_ranks=tranks,
                   HL=_shifted_homology(tdims, tranks))
    return out


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

    rows = []
    for i in range(1, m + 1):
        for j in range(i + 1, m + 1):
            rows.append({idx(i, j): Fraction(1), idx(j, i): Fraction(-1)})
    for i in range(1, m + 1):
        for j in range(1, m + 1):
            for k in range(1, m + 1):
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
    reports = []
    for sub in subalgebras:
        kernel_failures = [(u, v) for u in sub for v in sub
                           if boundary_word_terms(algebra, (u, v))]
        reports.append({"passed": not kernel_failures,
                        "kernel_failures": kernel_failures,
                        "kernel_dim": kernel_dim})
    return reports


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

    def is_zero(self):
        return not self.gl and not self.terms

    def __eq__(self, other):
        return (isinstance(other, DRElement) and self.gl == other.gl
                and self.terms == other.terms)

    def __add__(self, other):
        return DRElement(_combine(self.gl, other.gl),
                         _combine(self.terms, other.terms))

    def __rmul__(self, scalar):
        if not scalar:
            return DRElement()
        return DRElement({i: scalar * c for i, c in self.gl.items()},
                         {w: scalar * c for w, c in self.terms.items()})

    def __repr__(self):
        bits = []
        if self.gl:
            bits.append(f"gl{self.gl}")
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
        dims = {0: len(self.kept)}
        for n, sl in self.slices.items():
            dims[-n] = sl.dim
        return dims

    def word_element(self, word):
        if len(word) not in self.slices:
            raise InputError(f"no component at word degree {len(word)}")
        return DRElement(terms=embedded_word(word))

    def basis(self):
        """(parity, element) for every component basis vector."""
        out = [(0, DRElement(gl={j + 1: 1})) for j in self.kept]
        for n in range(1, self.N + 1):
            for w in self.slices[n].words:
                out.append((n, self.word_element(w)))
        return out

    def act(self, g_vec, terms):
        """Action of x in g on embedded word terms, letter by letter.

        The embedding is linear in each letter slot, so acting on every
        letter of the tensor words is the embedding of the action on
        bracket words.
        """
        key = tuple(g_vec.items())
        ad = self._ad.get(key)
        if ad is None:
            ad = self._ad[key] = {
                letter: self.algebra.bracket_vectors(g_vec, {letter: 1})
                for letter in range(1, self.algebra.dim + 1)}
        if not any(ad.values()):
            return {}
        out = {}
        for w, c in terms.items():
            for i, letter in enumerate(w):
                for k, cb in ad[letter].items():
                    _add_term(out, w[:i] + (k,) + w[i + 1:], c * cb)
        return out

    def bracket(self, a, b):
        gl = (self.project(self.algebra.bracket_vectors(a.gl, b.gl))
              if a.gl and b.gl else {})
        terms = {w: c for w, c in super_commutator(a.terms, b.terms).items()
                 if len(w) <= self.N}
        if a.gl:
            terms = _combine(terms, self.act(a.gl, b.terms))
        if b.gl:
            terms = _combine(terms, self.act(b.gl, a.terms), -1)
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
        return ((i, j, k) for i, j in pairs(ordered)
                for k in range(0 if ordered else j, len(el))
                if parity[i] + parity[j] + parity[k] <= N)

    def orbit_sweep(fails, tuples):
        if skew["passed"] and not any(fails(*t) for t in tuples(False)):
            return
        for t in tuples(True):
            if fails(*t):
                yield tuple(repr(el[i]) for i in t)

    def jacobi_fails(i, j, k):
        return br(el[i], prod[j, k]) != br(prod[i, j], el[k]) + \
            ((-1) ** (parity[i] * parity[j])) * br(el[j], prod[i, k])

    def derivation_fails(i, j):
        return d(prod[i, j]) != br(diff[i], el[j]) + \
            ((-1) ** parity[i]) * br(el[i], diff[j])

    def jacobi():
        return orbit_sweep(jacobi_fails, triples)

    def differential_squared():
        for a, dda in zip(el, diff2):
            if not dda.is_zero():
                yield repr(a)

    def derivation():
        return orbit_sweep(derivation_fails, pairs)

    def derived_bracket():
        for i, j in product(range(1, m + 1), repeat=2):
            if br(diff[x[i]], el[x[j]]) != letters(algebra.bracket(i, j)):
                yield i, j

    def lifted_identity_left():
        for i, j, k in product(range(1, m + 1), repeat=3):
            lhs = br(diff[x[i]], prod[x[j], x[k]])
            rhs = br(letters(algebra.bracket(i, j)), el[x[k]]) + \
                br(el[x[j]], letters(algebra.bracket(i, k)))
            if lhs != rhs:
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

    checks = (jacobi, differential_squared, derivation,
              derived_bracket, lifted_identity_left, lifted_identity_sym,
              ideal_acts_trivially, augmentation_kills_boundaries)
    return dict(antisymmetry=skew,
                **{check.__name__: _outcome(check()) for check in checks})
