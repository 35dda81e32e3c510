"""Chain complexes attached to a Leibniz algebra.

Two complexes live here.  The bracket-word complex (F^n, del): F^n is
spanned by length-n bracket words over the basis alphabet, with basis
extracted greedily through the tensor embedding, and del expands a word
by bracketing pairs of letters.  The tensor-word complex (T^n, del_L)
uses plain tensor words and the classical pairwise boundary.  The
embedding intertwines the two, which is one of the certified theorems.

Homology of the bracket-word complex is reported with a shift:
HA_n = dim F^(n+1) - rank del_(n+1) - rank del_(n+2), so HA_0 equals the
dimension of the quotient Lie algebra.

The degree-shifted differential graded Lie algebra DR sits at the end:
components are the quotient Lie algebra in degree 0 and F^n in degree
-n, the bracket combines the quotient bracket, its action on words, and
the free graded commutator, and the differential is del plus the
class-of-a-letter augmentation.
"""

import itertools
from fractions import Fraction
from functools import lru_cache

from .errors import InputError
from .exactla import SparseEchelon, nullspace, rank, transpose
from .words import (LieElement, TensorElement, _add_term, embedded_word,
                    super_commutator)


class LieBasisSlice:
    """Basis of the length-n bracket words over the alphabet 1..m.

    Candidate words are inserted in lexicographic order; a word joins the
    basis when its tensor embedding is independent of the embeddings
    already kept.  coords() expresses any element of the span over the
    kept words, exactly.
    """

    def __init__(self, m, degree):
        self.m = m
        self.degree = degree
        self.echelon = SparseEchelon(track=True)
        self.words = []
        self._src_pos = {}
        for src, w in enumerate(itertools.product(range(1, m + 1),
                                                  repeat=degree)):
            emb = embedded_word(w)
            if self.echelon.insert(emb):
                self._src_pos[src] = len(self.words)
                self.words.append(w)

    @property
    def dim(self):
        return len(self.words)

    def coords_of_embedding(self, emb_terms):
        raw = self.echelon.coordinates(emb_terms)
        if raw is None:
            return None
        return {self._src_pos[s]: c for s, c in raw.items() if c}

    def coords(self, element):
        """Coordinates of a LieElement (or raw bracket-word dict)."""
        terms = element.terms if isinstance(element, TensorElement) else element
        emb = {}
        for w, c in terms.items():
            for tw, k in embedded_word(w).items():
                _add_term(emb, tw, c * k)
        out = self.coords_of_embedding(emb)
        if out is None:
            raise InputError(
                f"element is outside the degree-{self.degree} span")
        return out

    def element(self, coords):
        return LieElement({self.words[p]: c for p, c in coords.items() if c})


@lru_cache(maxsize=None)
def free_lie_basis(m, degree):
    if not (isinstance(m, int) and m >= 1 and isinstance(degree, int)
            and degree >= 1):
        raise InputError("free_lie_basis needs positive integer arguments")
    return LieBasisSlice(m, degree)


def boundary_word_terms(algebra, word, variant="main"):
    """Expansion of del applied to one bracket word, as {word: coeff}.

    variant "main" and "alt" are the two printed forms of the bracket-word
    boundary (they agree identically); "loday" is the tensor-word boundary
    without the tail term.  Words must have length >= 2 for main/alt.
    """
    word = tuple(word)
    L = len(word)
    out = {}

    def add_pair(i, j, sign):
        for k, c in algebra.bracket(word[i], word[j]).items():
            nw = word[:i] + word[i + 1:j] + (k,) + word[j + 1:]
            _add_term(out, nw, sign * c)

    if variant == "loday":
        for i in range(L):
            for j in range(i + 1, L):
                add_pair(i, j, (-1) ** i)
        return out
    if L < 2:
        raise InputError("bracket-word boundary needs words of length >= 2")
    tailsign = (-1) ** L
    if variant == "main":
        for i in range(L):
            for j in range(i + 1, L):
                add_pair(i, j, (-1) ** i)
        for k, c in algebra.bracket(word[L - 1], word[L - 2]).items():
            _add_term(out, word[:L - 2] + (k,), tailsign * c)
        return out
    if variant == "alt":
        for i in range(L - 2):
            for j in range(i + 1, L):
                add_pair(i, j, (-1) ** i)
        sym = dict(algebra.bracket(word[L - 2], word[L - 1]))
        for k, c in algebra.bracket(word[L - 1], word[L - 2]).items():
            _add_term(sym, k, c)
        for k, c in sym.items():
            if c:
                _add_term(out, word[:L - 2] + (k,), tailsign * c)
        return out
    raise InputError(f"unknown boundary variant {variant!r}")


def boundary_apply(algebra, element, variant="main"):
    """del of a LieElement; result is a LieElement one degree down."""
    out = {}
    for w, c in element.terms.items():
        for nw, k in boundary_word_terms(algebra, w, variant).items():
            _add_term(out, nw, c * k)
    return LieElement._raw(out)


def boundary_matrix(algebra, n, variant="main"):
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
        terms = boundary_word_terms(algebra, w, variant)
        cols.append(dst.coords(terms) if terms else {})
    return cols


def loday_apply(algebra, element):
    """del_L of a TensorElement of plain words."""
    out = {}
    for w, c in element.terms.items():
        for nw, k in boundary_word_terms(algebra, w, "loday").items():
            _add_term(out, nw, c * k)
    return TensorElement._raw(out)


def tensor_words(m, n):
    return list(itertools.product(range(1, m + 1), repeat=n))


def loday_matrix(algebra, n):
    """Matrix of del_L: T^n -> T^(n-1) as sparse columns over lex words."""
    if n < 2:
        raise InputError("tensor boundary matrices start at degree 2")
    m = algebra.dim
    dst = {w: i for i, w in enumerate(tensor_words(m, n - 1))}
    return [{dst[nw]: c for nw, c in
             boundary_word_terms(algebra, w, "loday").items()}
            for w in tensor_words(m, n)]


def boundary_square_report(algebra, max_degree=5):
    """Certify del o del = 0, del_L o del_L = 0, and variant agreement.

    Works on any algebra (valid or not); a Leibniz failure shows up as a
    nonzero square.  Returns a dict of named checks with failure lists.
    """
    m = algebra.dim
    failures = {"main": [], "loday": [], "variants": []}
    for n in range(2, max_degree + 1):
        for w in itertools.product(range(1, m + 1), repeat=n):
            t1 = boundary_word_terms(algebra, w, "main")
            t2 = boundary_word_terms(algebra, w, "alt")
            if t1 != t2:
                failures["variants"].append(w)
            if n >= 3:
                dd = boundary_apply(
                    algebra, boundary_apply(algebra, LieElement._raw(
                        {w: Fraction(1)})))
                if dd.embed():
                    failures["main"].append(w)
            ll = loday_apply(algebra, loday_apply(
                algebra, TensorElement._raw({w: Fraction(1)})))
            if ll:
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
    """Check del_L(eps(w)) == eps(del(w)) on every word of length <= max."""
    m = algebra.dim
    failures = []
    for n in range(1, max_length + 1):
        for w in itertools.product(range(1, m + 1), repeat=n):
            lhs = loday_apply(
                algebra, TensorElement._raw(dict(embedded_word(w))))
            if n >= 2:
                rhs_terms = boundary_word_terms(algebra, w, "main")
                rhs = LieElement._raw(rhs_terms).embed()
            else:
                rhs = TensorElement._raw({})
            if lhs != rhs:
                failures.append(w)
    return {"passed": not failures, "failures": failures}


def homology(algebra, max_degree=4, loday=False):
    """Dimension table of the shifted homology HA_n (and HL_n if asked).

    Needs max_degree >= 2.  Returns dims of F^1..F^max_degree, the ranks
    of del_2..del_max_degree, and HA_0..HA_(max_degree-2); with loday,
    the same for the tensor complex.
    """
    from .algebras import require_leibniz
    require_leibniz(algebra)
    if max_degree < 2:
        raise InputError("--max-degree must be at least 2")
    m = algebra.dim
    N = max_degree
    dims = {n: free_lie_basis(m, n).dim for n in range(1, N + 1)}
    ranks = {}
    for n in range(2, N + 1):
        ranks[n] = rank(boundary_matrix(algebra, n))
    ha = {}
    for n in range(0, N - 1):
        r_in = ranks.get(n + 2, 0)
        r_out = ranks[n + 1] if n + 1 >= 2 else 0
        ha[n] = dims[n + 1] - r_out - r_in
    out = {"dims": dims, "ranks": ranks, "HA": ha}
    if loday:
        tdims = {n: m ** n for n in range(1, N + 1)}
        tranks = {}
        for n in range(2, N + 1):
            tranks[n] = rank(loday_matrix(algebra, n))
        hl = {}
        for n in range(0, N - 1):
            r_in = tranks.get(n + 2, 0)
            r_out = tranks[n + 1] if n + 1 >= 2 else 0
            hl[n] = tdims[n + 1] - r_out - r_in
        out["tensor_dims"] = tdims
        out["tensor_ranks"] = tranks
        out["HL"] = hl
    return out


def omega0(algebra):
    """dim of (g tensor g) / span{x y - y x, [x,y] z - x [y,z]}.

    Only defined for Lie algebras (antisymmetric Leibniz).  Returns
    {"dim": int, "rank": int, "relations": int}.
    """
    from .algebras import require_leibniz
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


def kernel2_basis(algebra):
    """Canonical basis of Ker(del_2) in F^2 coordinates, sparse vectors."""
    cols = boundary_matrix(algebra, 2)
    return nullspace(transpose(cols, algebra.dim), len(cols))


def ker2_invariance(algebra, subalgebra):
    """Invariance data of a Lie subalgebra inside the degree-2 kernel.

    subalgebra: tuple of 1-based basis indices spanning a Lie subalgebra.
    Checks (a) every symmetric pair word {u, v} over the subalgebra lies
    in Ker(del_2) and (b) for u, v, w in the subalgebra the element
    ([u,v], w) + (v, [u,w]) lies in Im(del_3).  Returns a report dict.
    """
    from .algebras import require_leibniz
    require_leibniz(algebra)
    slice2 = free_lie_basis(algebra.dim, 2)
    kernel = SparseEchelon()
    for vec in kernel2_basis(algebra):
        kernel.insert(vec)
    image = SparseEchelon()
    for col in boundary_matrix(algebra, 3):
        image.insert(col)
    kernel_failures = []
    for u in subalgebra:
        for v in subalgebra:
            coords = slice2.coords({(u, v): Fraction(1)})
            if not kernel.contains(coords):
                kernel_failures.append((u, v))
    image_failures = []
    for u in subalgebra:
        for v in subalgebra:
            for w in subalgebra:
                terms = {}
                for k, c in algebra.bracket(u, v).items():
                    _add_term(terms, (k, w), c)
                for k, c in algebra.bracket(u, w).items():
                    _add_term(terms, (v, k), c)
                if not terms:
                    continue
                coords = slice2.coords(terms)
                if not image.contains(coords):
                    image_failures.append((u, v, w))
    return {
        "passed": not kernel_failures and not image_failures,
        "kernel_failures": kernel_failures,
        "image_failures": image_failures,
        "kernel_dim": kernel.rank,
    }


class DRElement:
    """Element of the graded algebra: degree-0 part + word parts by degree."""

    __slots__ = ("gl", "parts")

    def __init__(self, gl=None, parts=None):
        self.gl = {i: Fraction(c) for i, c in (gl or {}).items() if c}
        self.parts = {}
        for n, coords in (parts or {}).items():
            clean = {p: Fraction(c) for p, c in coords.items() if c}
            if clean:
                self.parts[n] = clean

    def is_zero(self):
        return not self.gl and not self.parts

    def __eq__(self, other):
        return (isinstance(other, DRElement) and self.gl == other.gl
                and self.parts == other.parts)

    def __hash__(self):
        return hash((frozenset(self.gl.items()),
                     frozenset((n, frozenset(c.items()))
                               for n, c in self.parts.items())))

    def __add__(self, other):
        gl = dict(self.gl)
        for i, c in other.gl.items():
            _add_term(gl, i, c)
        parts = {n: dict(c) for n, c in self.parts.items()}
        for n, coords in other.parts.items():
            tgt = parts.setdefault(n, {})
            for p, c in coords.items():
                _add_term(tgt, p, c)
        return DRElement(gl, parts)

    def __sub__(self, other):
        return self + (-1) * other

    def __rmul__(self, scalar):
        scalar = Fraction(scalar)
        return DRElement({i: scalar * c for i, c in self.gl.items()},
                         {n: {p: scalar * c for p, c in coords.items()}
                          for n, coords in self.parts.items()})

    def degrees(self):
        out = set()
        if self.gl:
            out.add(0)
        out.update(-n for n in self.parts)
        return out

    def __repr__(self):
        bits = []
        if self.gl:
            bits.append(f"gl{self.gl}")
        for n in sorted(self.parts):
            bits.append(f"F{n}{self.parts[n]}")
        return "DR(" + (" + ".join(bits) if bits else "0") + ")"


class DGLA:
    """Degree-shifted dg Lie algebra built from a Leibniz algebra.

    Components: the quotient Lie algebra in degree 0 and F^n in degree
    -n for 1 <= n <= max_degree (higher word degrees are truncated to
    zero, which does not disturb any identity below the cutoff).
    """

    def __init__(self, algebra, max_degree=4):
        from .algebras import liezation, require_leibniz, symmetric_ideal
        require_leibniz(algebra)
        if max_degree < 2:
            raise InputError("--max-degree must be at least 2")
        self.algebra = algebra
        self.N = max_degree
        self.quotient, self.projection, self.kept = liezation(algebra)
        self.ideal_rows = symmetric_ideal(algebra)[0]
        m = algebra.dim
        self.slices = {n: free_lie_basis(m, n) for n in range(1, max_degree + 1)}
        self._bmat = {n: boundary_matrix(algebra, n)
                      for n in range(2, max_degree + 1)}

    def component_dims(self):
        dims = {0: len(self.projection)}
        for n, sl in self.slices.items():
            dims[-n] = sl.dim
        return dims

    def gl_element(self, vec):
        return DRElement(gl=vec)

    def chain_element(self, n, coords):
        if n not in self.slices:
            raise InputError(f"no component at word degree {n}")
        return DRElement(parts={n: coords})

    def word_element(self, word):
        n = len(word)
        coords = self.slices[n].coords({tuple(word): Fraction(1)})
        return self.chain_element(n, coords)

    def basis(self):
        """(parity, element) for every component basis vector."""
        out = []
        for t in range(len(self.projection)):
            out.append((0, self.gl_element({t + 1: 1})))
        for n in range(1, self.N + 1):
            for p in range(self.slices[n].dim):
                out.append((n, self.chain_element(n, {p: Fraction(1)})))
        return out

    def lift(self, gl_vec):
        """A representative in g of a degree-0 coordinate vector."""
        return {self.kept[t - 1] + 1: c for t, c in gl_vec.items() if c}

    def project(self, g_vec):
        """Class of a g coordinate vector in the quotient."""
        out = {}
        for col, c in g_vec.items():
            for r, row in enumerate(self.projection):
                v = row[col - 1]
                if v:
                    _add_term(out, r + 1, c * v)
        return out

    def act(self, g_vec, n, coords):
        """Action of x in g on an F^n element, letter by letter."""
        sl = self.slices[n]
        terms = {}
        for p, c in coords.items():
            w = sl.words[p]
            for i in range(n):
                for xi, cx in g_vec.items():
                    for k, cb in self.algebra.bracket(xi, w[i]).items():
                        _add_term(terms, w[:i] + (k,) + w[i + 1:], c * cx * cb)
        if not terms:
            return {}
        return sl.coords(terms)

    def bracket(self, a, b):
        out_gl = self.quotient.bracket_vectors(a.gl, b.gl)
        parts = {}
        if a.gl:
            la = self.lift(a.gl)
            for n, coords in b.parts.items():
                acted = self.act(la, n, coords)
                tgt = parts.setdefault(n, {})
                for p, c in acted.items():
                    _add_term(tgt, p, c)
        if b.gl:
            lb = self.lift(b.gl)
            for n, coords in a.parts.items():
                acted = self.act(lb, n, coords)
                tgt = parts.setdefault(n, {})
                for p, c in acted.items():
                    _add_term(tgt, p, -c)
        for p_deg, pc in a.parts.items():
            for q_deg, qc in b.parts.items():
                n = p_deg + q_deg
                if n > self.N:
                    continue
                ea = self.slices[p_deg].element(pc).embed()
                eb = self.slices[q_deg].element(qc).embed()
                sc = super_commutator(ea, eb)
                if not sc:
                    continue
                coords = self.slices[n].coords_of_embedding(sc.terms)
                if coords is None:
                    raise RuntimeError(
                        "free bracket left the word span; basis broken")
                tgt = parts.setdefault(n, {})
                for p, c in coords.items():
                    _add_term(tgt, p, c)
        return DRElement(out_gl, parts)

    def differential(self, a):
        gl = {}
        parts = {}
        one = a.parts.get(1)
        if one:
            vec = {self.slices[1].words[p][0]: c for p, c in one.items()}
            gl = self.project(vec)
        for n, coords in a.parts.items():
            if n < 2:
                continue
            cols = self._bmat[n]
            tgt = parts.setdefault(n - 1, {})
            for col, c in coords.items():
                for r, v in cols[col].items():
                    _add_term(tgt, r, c * v)
        return DRElement(gl, parts)

    def parity(self, element):
        ps = set()
        if element.gl:
            ps.add(0)
        ps.update(n % 2 for n in element.parts)
        if len(ps) > 1:
            return None
        return ps.pop() if ps else 0


def dgla_suite(algebra, max_degree=4):
    """Run the full identity battery on the graded algebra.

    Returns {check_name: {"passed": bool, "failures": [...]}} covering
    antisymmetry, the graded Jacobi identity, the differential squaring
    to zero, the differential being a degree-1 derivation, recovery of
    the original bracket as the derived bracket, the two lifted bracket
    identities in degree -2, trivial action of the symmetric ideal, and
    the augmented composite vanishing on degree-2 boundaries.
    """
    dg = DGLA(algebra, max_degree)
    N = dg.N
    basis = dg.basis()
    checks = {}

    fails = []
    for pa, a in basis:
        for pb, b in basis:
            if pa + pb > N:
                continue
            lhs = dg.bracket(a, b)
            rhs = (-((-1) ** (pa * pb))) * dg.bracket(b, a)
            if lhs != rhs:
                fails.append((repr(a), repr(b)))
    checks["antisymmetry"] = {"passed": not fails, "failures": fails[:5]}

    fails = []
    for pa, a in basis:
        for pb, b in basis:
            if pa + pb > N:
                continue
            for pc, c in basis:
                if pa + pb + pc > N:
                    continue
                lhs = dg.bracket(a, dg.bracket(b, c))
                rhs = dg.bracket(dg.bracket(a, b), c) + \
                    ((-1) ** (pa * pb)) * dg.bracket(b, dg.bracket(a, c))
                if lhs != rhs:
                    fails.append((repr(a), repr(b), repr(c)))
    checks["jacobi"] = {"passed": not fails, "failures": fails[:5]}

    fails = []
    for _, a in basis:
        if not dg.differential(dg.differential(a)).is_zero():
            fails.append(repr(a))
    checks["differential_squared"] = {"passed": not fails,
                                      "failures": fails[:5]}

    fails = []
    for pa, a in basis:
        for pb, b in basis:
            if pa + pb > N:
                continue
            lhs = dg.differential(dg.bracket(a, b))
            sign = (-1) ** pa
            rhs = dg.bracket(dg.differential(a), b) + \
                sign * dg.bracket(a, dg.differential(b))
            if lhs != rhs:
                fails.append((repr(a), repr(b)))
    checks["derivation"] = {"passed": not fails, "failures": fails[:5]}

    m = algebra.dim
    fails = []
    for i in range(1, m + 1):
        for j in range(1, m + 1):
            xi = dg.word_element((i,))
            xj = dg.word_element((j,))
            derived = dg.bracket(dg.differential(xi), xj)
            expect_coords = dg.slices[1].coords(
                {(k,): c for k, c in algebra.bracket(i, j).items()})
            expect = dg.chain_element(1, expect_coords) \
                if expect_coords else DRElement()
            if derived != expect:
                fails.append((i, j))
    checks["derived_bracket"] = {"passed": not fails, "failures": fails[:5]}

    fails1, fails2 = [], []
    for i in range(1, m + 1):
        for j in range(1, m + 1):
            for k in range(1, m + 1):
                xi, xj, xk = (dg.word_element((t,)) for t in (i, j, k))
                pair = dg.bracket(xj, xk)
                lhs = dg.bracket(dg.differential(xi), pair)
                bij = {(l,): c for l, c in algebra.bracket(i, j).items()}
                bik = {(l,): c for l, c in algebra.bracket(i, k).items()}
                rhs = dg.bracket(dg.chain_element(
                    1, dg.slices[1].coords(bij)) if bij else DRElement(), xk)
                rhs = rhs + dg.bracket(xj, dg.chain_element(
                    1, dg.slices[1].coords(bik)) if bik else DRElement())
                if lhs != rhs:
                    fails1.append((i, j, k))
                pair_ij = dg.bracket(xi, xj)
                lhs2 = dg.bracket(dg.differential(pair_ij), xk)
                symm = dict(algebra.bracket(i, j))
                for l, c in algebra.bracket(j, i).items():
                    _add_term(symm, l, c)
                sym_el = dg.chain_element(1, dg.slices[1].coords(
                    {(l,): c for l, c in symm.items()})) \
                    if symm else DRElement()
                rhs2 = dg.bracket(sym_el, xk)
                if lhs2 != rhs2:
                    fails2.append((i, j, k))
    checks["lifted_identity_left"] = {"passed": not fails1,
                                      "failures": fails1[:5]}
    checks["lifted_identity_sym"] = {"passed": not fails2,
                                     "failures": fails2[:5]}

    fails = []
    for row in dg.ideal_rows:
        vec = {i + 1: c for i, c in row.items()}
        for n in range(1, N + 1):
            for p in range(dg.slices[n].dim):
                if dg.act(vec, n, {p: Fraction(1)}):
                    fails.append((vec, n, p))
    checks["ideal_acts_trivially"] = {"passed": not fails,
                                      "failures": fails[:5]}

    fails = []
    sl2 = dg.slices.get(2)
    if sl2 is not None:
        for p in range(sl2.dim):
            el = dg.chain_element(2, {p: Fraction(1)})
            if dg.differential(dg.differential(el)).gl:
                fails.append(sl2.words[p])
    checks["augmentation_kills_boundaries"] = {"passed": not fails,
                                               "failures": fails[:5]}
    return checks
