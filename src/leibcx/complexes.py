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
there vanishes.  cohomology is this table relabelled (see cochains).

The graded Lie algebra DR, the certificates of the complexes and the
reference operators live in battery.  Their names (_BATTERY) are read
from here on first access (PEP 562), so homology compiles none of them.
"""

from collections import Counter
from functools import lru_cache
from itertools import product

from .algebras import require_leibniz
from .errors import InputError
from .exactla import SparseEchelon, _as_int_vector, nullspace, rank
from .words import _add_term, _extend, embedded_word


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


def cohomology(algebra, max_degree=4):
    """Anti-cyclic cohomology dimensions, degrees 0..max_degree-2.

    By the transpose theorem the coboundary preserves the anti-cyclic
    subcomplex and acts on degree n as the transpose of del_(n+2), so
    this is the homology table relabelled: alp_dims[n] = dim F^(n+1),
    coboundary_ranks[n] = rank del_(n+2), and HA equals the shifted
    homology.  preserved is true in every degree by the theorem; it is
    certified by subcomplex_report (check --suite subcomplex, tests).
    """
    ho = homology(algebra, max_degree)
    degrees = range(max_degree - 1)
    return {"alp_dims": {n: ho["dims"][n + 1] for n in degrees},
            "coboundary_ranks": {n: ho["ranks"][n + 2] for n in degrees},
            "HA": ho["HA"], "preserved": {n: True for n in degrees}}


_BATTERY = {"DGLA", "DRElement", "_outcome", "dgla_suite", "boundary_apply",
            "boundary_square_report", "intertwining_report",
            "ker2_invariance", "ker2_invariance_reports", "loday_apply",
            "loday_matrix", "omega0"}


def __getattr__(name):
    if name not in _BATTERY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import battery
    value = globals()[name] = getattr(battery, name)
    return value
