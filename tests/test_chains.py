"""Basis slices, boundaries, homology tables, and the graded Lie suite."""

import itertools
import os
import random
from collections import Counter
from fractions import Fraction

import pytest

from leibcx import battery, catalog, complexes, exactla, words
from leibcx.algebras import LeibnizAlgebra, liezation, symmetric_ideal
from leibcx.complexes import (DGLA, boundary_matrix, boundary_square_report,
                              boundary_word_terms, dgla_suite,
                              free_lie_basis, homology, intertwining_report,
                              ker2_invariance, ker2_invariance_reports,
                              loday_apply, loday_matrix, omega0,
                              superwitt_dim)
from leibcx.errors import InputError
from leibcx.exactla import SparseEchelon, rank
from leibcx.fileio import parse_algebra_file
from leibcx.words import (_add_term, _combine, _extend, embedded_word,
                          super_commutator, tensor_words)
from support import (kernel2_basis, slice_element,
                     superwitt_multidegree_dim)

FROZEN_DIMS = {
    1: [1, 1, 0, 0, 0],
    2: [2, 3, 2, 3, 6],
    3: [3, 6, 8, 18, 48],
    4: [4, 10, 20, 60, 204],
}


def test_slice_dims_frozen():
    for m, dims in FROZEN_DIMS.items():
        assert [free_lie_basis(m, n).dim for n in range(1, 6)] == dims


def test_l2_slice3_words():
    sl = free_lie_basis(2, 3)
    assert sl.words == [(1, 1, 2), (1, 2, 2)]


def test_slice_coords_round_trip():
    sl = free_lie_basis(2, 3)
    # {2,1,1} = -2 {1,1,2}: head 2 against the symmetric pair {1,1}
    coords = sl.coords({(2, 1, 1): Fraction(1)})
    assert coords == {0: Fraction(-2)}
    assert (_extend(slice_element(sl, coords), embedded_word)
            == _extend({(2, 1, 1): 1}, embedded_word))


def test_slice_coords_of_rational_element():
    # mixed denominators: the integer case scaled back by their lcm
    sl = free_lie_basis(3, 3)
    ints = sl.coords({(3, 2, 1): Fraction(5), (2, 1, 1): Fraction(6),
                      (1, 2, 3): Fraction(-30)})
    mixed = sl.coords({(3, 2, 1): Fraction(1, 3), (2, 1, 1): Fraction(2, 5),
                       (1, 2, 3): -2})
    assert mixed == {p: c / 15 for p, c in ints.items()}
    assert mixed == {0: Fraction(-4, 5), 3: Fraction(-7, 3),
                     5: Fraction(-1, 3)}


def _mobius(n):
    out, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            out = -out
        p += 1
    return -out if n > 1 else out


def _super_witt(m, n):
    # dim of the length-n part of the free Lie superalgebra on m odd
    # generators (Ree 1960; Petrogradsky 2000)
    total = sum(_mobius(d) * (-1) ** (n + n // d) * m ** (n // d)
                for d in range(1, n + 1) if n % d == 0)
    assert total % n == 0
    return total // n


def test_slice_dims_super_witt():
    want = {4: [4, 10, 20, 60, 204, 690, 2340], 6: [6, 21, 70, 315, 1554]}
    for m, dims in want.items():
        formula = [_super_witt(m, n) for n in range(1, len(dims) + 1)]
        assert formula == dims
        assert [free_lie_basis(m, n).dim
                for n in range(1, len(dims) + 1)] == formula
        assert [superwitt_dim(m, n)
                for n in range(1, len(dims) + 1)] == formula
    # the package's formula, the copy above and the built slices agree;
    # one letter (abelian1) spans F^1 and F^2 only
    assert [superwitt_dim(1, n) for n in range(1, 9)] == [1, 1] + [0] * 6
    for m, top in {1: 10, 2: 10, 3: 7, 4: 6}.items():
        for n in range(1, top + 1):
            assert superwitt_dim(m, n) == _super_witt(m, n) \
                == free_lie_basis(m, n).dim, (m, n)
    for m in range(1, 5):
        assert [superwitt_dim(m, n) for n in range(1, 25)] == \
            [_super_witt(m, n) for n in range(1, 25)], m


def _full_sweep_words(m, n):
    # the lex-greedy pass over all m^n words, kept as the reference
    ech = SparseEchelon()
    return [w for w in itertools.product(range(1, m + 1), repeat=n)
            if ech.insert(embedded_word(w))]


@pytest.mark.parametrize("m, n", [(2, 8), (3, 6), (4, 5), (6, 3)])
def test_prefix_extension_keeps_full_sweep_basis(m, n):
    sl = free_lie_basis(m, n)
    assert sl.words == _full_sweep_words(m, n)
    assert sl.echelon.nsources == m * free_lie_basis(m, n - 1).dim


def test_boundary_low_degrees_frozen():
    L2 = catalog.get("L2")
    # del {x1, x2} = [x1,x2] + [x2,x1]
    assert boundary_word_terms(L2, (1, 1)) == {(2,): 2}
    assert boundary_word_terms(L2, (1, 2)) == {}
    # del {1,1,2} = {2,2}; del {1,2,2} = 0
    assert boundary_word_terms(L2, (1, 1, 2)) == {(2, 2): 1}
    assert boundary_word_terms(L2, (1, 2, 2)) == {}


def test_boundary_degree3_shape():
    # del(x1,x2,x3) = ([x1,x2],x3) + (x2,[x1,x3]) - (x1,[x2,x3]+[x3,x2])
    sl2 = catalog.get("sl2")
    got = boundary_word_terms(sl2, (1, 2, 3), "main")
    # [h,e]=2e, [h,f]=-2f, [e,f]=h, [f,e]=-h
    want = {}
    # ([h,e], f) = 2 (e, f)
    want[(2, 3)] = want.get((2, 3), 0) + 2
    # (e, [h,f]) = -2 (e, f)
    want[(2, 3)] = want.get((2, 3), 0) - 2
    # -(h, [e,f]+[f,e]) = -(h, h - h) = 0
    want = {w: c for w, c in want.items() if c}
    assert got == want


def test_boundary_variants_identical():
    # main equals alt, and it is the loday pairs plus the tail
    # (-1)^n [w_n, w_(n-1)]
    for name in ("L2", "N3", "sl2", "doubleL2"):
        A = catalog.get(name)
        for n in (2, 3, 4):
            for w in itertools.product(range(1, A.dim + 1), repeat=n):
                main = boundary_word_terms(A, w, "main")
                assert main == boundary_word_terms(A, w, "alt")
                tail = {w[:-2] + (k,): (-1) ** n * c
                        for k, c in A.bracket(w[-1], w[-2]).items()}
                assert main == _combine(
                    boundary_word_terms(A, w, "loday"), tail), (name, w)


def test_boundary_word_terms_refuses():
    L2 = catalog.get("L2")
    assert boundary_word_terms(L2, (1,), "loday") == {}
    for variant in ("main", "alt"):
        with pytest.raises(InputError, match="length >= 2"):
            boundary_word_terms(L2, (1,), variant)
    with pytest.raises(InputError, match="unknown boundary variant"):
        boundary_word_terms(L2, (1, 2), "nope")


def test_boundary_squares_zero():
    for name in catalog.VALID_NAMES:
        rep = boundary_square_report(catalog.get(name), max_degree=4)
        assert all(v["passed"] for v in rep.values()), name


def test_b1_tensor_square_fails():
    rep = boundary_square_report(catalog.get("B1"), max_degree=3)
    assert not rep["loday_square_zero"]["passed"]
    assert (1, 1, 1) in rep["loday_square_zero"]["failures"]


def test_boundary_square_report_fails_on_non_leibniz_brackets():
    # seeded brackets on 2 and 3 letters, none of them Leibniz: del o del
    # fails, and every witness has a nonzero square; variant agreement
    # and intertwining hold anyway, being identities of any bracket
    rng = random.Random(14)
    for m in (2, 3, 2, 3):
        A = LeibnizAlgebra(m, {(i, j): {k: rng.randint(-2, 2)
                                        for k in range(1, m + 1)}
                               for i in range(1, m + 1)
                               for j in range(1, m + 1)})
        assert not A.validate().passed
        rep = boundary_square_report(A, max_degree=3)
        assert not rep["main_square_zero"]["passed"]
        for w in rep["main_square_zero"]["failures"]:
            assert _extend(complexes.boundary_apply(
                A, boundary_word_terms(A, w)), embedded_word), w
        assert rep["variants_agree"]["passed"]
        assert intertwining_report(A, max_length=3)["passed"]


def test_formal_certificates_fail_on_sabotaged_code(monkeypatch):
    # variant agreement and intertwining certify the code, so they fail
    # when it is broken: "alt" reads a symmetrized that is not
    # [x,y] + [y,x], and an embedding that is not the bracket-word one
    class Sabotaged(LeibnizAlgebra):
        def symmetrized(self, i, j):
            return self.bracket(i, j)

    sl2 = catalog.get("sl2")
    rep = boundary_square_report(Sabotaged(3, dict(sl2.items())), 3)
    assert rep["main_square_zero"]["passed"]
    assert not rep["variants_agree"]["passed"]
    assert (1, 2) in rep["variants_agree"]["failures"]
    monkeypatch.setattr(battery, "embedded_word", lambda w: {w: 1})
    rep = intertwining_report(sl2, max_length=2)
    assert not rep["passed"] and (1, 2) in rep["failures"]


def test_intertwining():
    for name in catalog.VALID_NAMES:
        rep = intertwining_report(catalog.get(name), max_length=4)
        assert rep["passed"], name


def test_loday_matrix_rank_l2():
    L2 = catalog.get("L2")
    mat = loday_matrix(L2, 2)
    # del_L(x (x) y) = [x, y]; image is [g, g] = span{e2}
    nonzero = [c for col in mat for c in col.values() if c]
    assert nonzero == [Fraction(1)]


def test_loday_matrix_recursion_matches_the_pairwise_formula():
    # loday_matrix builds del_L(a (x) u) = a.u - a (x) del_L(u) up from
    # degree 1; loday_apply sums the pairs directly.  The identity needs
    # no Leibniz rule, so B1 is a case too
    for name in catalog.ALL_NAMES:
        for A in (catalog.get(name), _halved(catalog.get(name))):
            for n in range(2, 6):
                rows = {w: i for i, w in
                        enumerate(tensor_words(A.dim, n - 1))}
                for w, col in zip(tensor_words(A.dim, n),
                                  loday_matrix(A, n)):
                    assert col == {rows[t]: c for t, c in
                                   loday_apply(A, {w: 1}).items()}, \
                        (A.name, w)


def test_homology_frozen_tables():
    expected = {
        "abelian1": ({2: 0, 3: 0, 4: 0, 5: 0}, {0: 1, 1: 1, 2: 0, 3: 0}),
        "abelian2": ({2: 0, 3: 0, 4: 0, 5: 0}, {0: 2, 1: 3, 2: 2, 3: 3}),
        "abelian3": ({2: 0, 3: 0, 4: 0, 5: 0}, {0: 3, 1: 6, 2: 8, 3: 18}),
        "abelian4": ({2: 0, 3: 0, 4: 0, 5: 0}, {0: 4, 1: 10, 2: 20, 3: 60}),
        "L2": ({2: 1, 3: 1, 4: 1, 5: 2}, {0: 1, 1: 1, 2: 0, 3: 0}),
        "N3": ({2: 2, 3: 3, 4: 5, 5: 13}, {0: 1, 1: 1, 2: 0, 3: 0}),
        "sl2": ({2: 0, 3: 5, 4: 3, 5: 15}, {0: 3, 1: 1, 2: 0, 3: 0}),
        "heis3": ({2: 0, 3: 3, 4: 2, 5: 12}, {0: 3, 1: 3, 2: 3, 3: 4}),
        "doubleL2": ({2: 2, 3: 5, 4: 13, 5: 44}, {0: 2, 1: 3, 2: 2, 3: 3}),
    }
    for name, (ranks, ha) in expected.items():
        rep = homology(catalog.get(name), max_degree=5)
        assert rep["ranks"] == ranks, name
        assert rep["HA"] == ha, name


def test_homology_loday_frozen():
    rep = homology(catalog.get("L2"), max_degree=5, loday=True)
    assert rep["HL"] == {0: 1, 1: 1, 2: 1, 3: 1}
    rep = homology(catalog.get("sl2"), max_degree=5, loday=True)
    assert rep["HL"] == {0: 0, 1: 0, 2: 0, 3: 0}
    rep = homology(catalog.get("heis3"), max_degree=5, loday=True)
    assert rep["HL"] == {0: 2, 1: 5, 2: 10, 3: 22}


def test_abelian_homology_oracle():
    # with every bracket zero both boundaries vanish, so HA_n is the
    # super-Witt dimension of F^(n+1) and HL_n counts the m^(n+1) tensor
    # words, past the degrees of the frozen tables
    for m, N in ((1, 9), (2, 8), (3, 7), (4, 7)):
        rep = homology(catalog.get(f"abelian{m}"), max_degree=N, loday=True)
        assert set(rep["ranks"].values()) == {0}, m
        assert set(rep["tensor_ranks"].values()) == {0}, m
        assert rep["HA"] == {n: superwitt_dim(m, n + 1)
                             for n in range(N - 1)}, m
        assert rep["HL"] == {n: m ** (n + 1) for n in range(N - 1)}, m


SL2_CONJ0 = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "data", "sl2_conj0.json")


def test_certified_ranks_match_exact_elimination():
    # the plain exact rank of every boundary is the reference for the
    # ranks homology certifies by del o del = 0
    cases = [(catalog.get(name), 6, True) for name in catalog.VALID_NAMES]
    cases.append((parse_algebra_file(SL2_CONJ0), 7, False))
    for A, N, loday in cases:
        rep = homology(A, max_degree=N, loday=loday)
        degrees = range(2, N + 1)
        assert rep["ranks"] == {
            n: rank(boundary_matrix(A, n)) for n in degrees}, A.name
        if loday:
            assert rep["tensor_ranks"] == {
                n: rank(loday_matrix(A, n)) for n in degrees}, A.name


def _count_exact_rows(monkeypatch):
    # the number of rows of each exact elimination, as they run
    sizes = []
    echelon = exactla._echelon

    def counting(rows, *pick):
        sizes.append(len(rows))
        return echelon(rows, *pick)

    monkeypatch.setattr(exactla, "_echelon", counting)
    return sizes


def test_certified_ranks_skip_exact_elimination(monkeypatch):
    # the sl2 conjugate has only the zero grading, so every degree is
    # one block.  The grading's nullspace eliminates its 18 constraint
    # rows, one per nonzero structure constant; then only del_2 and
    # del_3 (6 and 8 columns) sit next to nonzero homology, and every
    # other rank is certified mod p
    A = parse_algebra_file(SL2_CONJ0)
    sizes = _count_exact_rows(monkeypatch)
    rep = homology(A, max_degree=7)
    assert rep["ranks"] == {2: 0, 3: 5, 4: 3, 5: 15, 6: 33, 7: 91}
    assert sum(len(entry) for _, entry in A.items()) == 18
    assert sizes == [18, 6, 8]


def test_blocked_ranks_bound_exact_elimination(monkeypatch):
    # doubleL2 has homology in every degree, so unblocked every rank
    # fell back to exact elimination, 6,566 rows in all; by weight only
    # the blocks that carry homology do
    sizes = _count_exact_rows(monkeypatch)
    rep = homology(catalog.get("doubleL2"), max_degree=6, loday=True)
    assert rep["HA"] == {0: 2, 1: 3, 2: 2, 3: 3, 4: 6}
    assert sum(sizes) <= 500


GRADING_RANKS = {"abelian1": 1, "abelian2": 2, "abelian3": 3, "abelian4": 4,
                 "L2": 1, "N3": 1, "sl2": 1, "heis3": 2, "doubleL2": 2,
                 "B1": 0}


def _constraint_rows(algebra):
    # one row e_k - e_a - e_b per nonzero structure constant c_ab^k
    rows = []
    for (a, b), entry in algebra.items():
        for k in entry:
            row = {k: 1}
            _add_term(row, a, -1)
            _add_term(row, b, -1)
            rows.append(row)
    return rows


def test_grading_is_the_nullspace_of_the_constraints():
    # every weight is an integer tuple, additive on every nonzero
    # constant, and the weights span all gradings: their rank is the
    # nullity of the constraint rows
    cases = [(parse_algebra_file(SL2_CONJ0), 0)]
    for name, r in GRADING_RANKS.items():
        cases += [(catalog.get(name), r), (_halved(catalog.get(name)), r)]
    for A, r in cases:
        weights = complexes.grading(A)
        assert len(weights) == A.dim, A.name
        assert all(len(w) == r and all(type(x) is int for x in w)
                   for w in weights), (A.name, weights)
        for (a, b), entry in A.items():
            for k in entry:
                assert weights[k - 1] == tuple(
                    x + y for x, y in zip(weights[a - 1], weights[b - 1])
                ), (A.name, a, b, k)
        assert r == A.dim - rank(_constraint_rows(A)), A.name
        assert rank([{i: w[j] for i, w in enumerate(weights) if w[j]}
                     for j in range(r)]) == r, A.name
    assert complexes.grading(catalog.get("sl2")) == [(0,), (-1,), (1,)]


def _inhomogeneous_columns(A, N):
    # (complex, degree, source word) of every column, of del_2..del_N,
    # of the degree-N prefix candidates and of del_L up to N, that has
    # a row at a word of another weight than its source word's, with
    # the weights read from complexes.grading
    letters = complexes.grading(A)

    def weight(word):
        return tuple(map(sum, zip(*(letters[a - 1] for a in word))))

    def check(label, n, sources, columns, rows):
        for w, col in zip(sources, columns):
            if any(weight(rows[i]) != weight(w) for i in col):
                bad.append((label, n, w))

    m = A.dim
    bad = []
    for n in range(2, N + 1):
        rows = free_lie_basis(m, n - 1).words
        check("del", n, free_lie_basis(m, n).words, boundary_matrix(A, n),
              rows)
        check("del_L", n, tensor_words(m, n), loday_matrix(A, n),
              tensor_words(m, n - 1))
    dst = free_lie_basis(m, N - 1)
    top = [(a,) + b for a in range(1, m + 1) for b in dst.words]
    pivot_words = sorted(dst.echelon.pivots, key=dst.echelon.pivots.get)
    check("top", N, top,
          [dst.pivot_values(boundary_word_terms(A, w)) for w in top],
          pivot_words)
    return bad


def test_boundary_blocks_are_homogeneous():
    # each column of every rank homology splits by weight has all its
    # rows at words of its block's weight
    for name in catalog.VALID_NAMES:
        for A in (catalog.get(name), _halved(catalog.get(name))):
            assert not _inhomogeneous_columns(A, 6), A.name


def test_homogeneity_check_fails_on_a_wrong_grading(monkeypatch):
    # h weighs 1 instead of 0 in sl2: [h, e] = 2e no longer keeps weight
    sl2 = catalog.get("sl2")
    monkeypatch.setattr(complexes, "grading",
                        lambda A: [(1,), (-1,), (1,)])
    bad = _inhomogeneous_columns(sl2, 4)
    assert ("del", 3, (1, 1, 2)) in bad and ("del_L", 2, (1, 2)) in bad
    assert ("top", 4, (1, 2, 1, 3)) in bad
    assert homology(sl2, max_degree=6)["ranks"] != {
        n: rank(boundary_matrix(sl2, n)) for n in range(2, 7)}


@pytest.mark.parametrize("m, top, count", [(2, 9, 54), (3, 7, 119),
                                           (4, 6, 209)])
def test_slice_multidegrees_match_the_multigraded_superwitt_formula(
        m, top, count):
    # the basis words of F^n counted by letter multidegree: block
    # dimensions are sums of these counts
    checked = 0
    for n in range(1, top + 1):
        counts = Counter(tuple(w.count(a) for a in range(1, m + 1))
                         for w in free_lie_basis(m, n).words)
        alphas = [alpha for alpha in itertools.product(range(n + 1), repeat=m)
                  if sum(alpha) == n]
        assert set(counts) <= set(alphas), (m, n)
        for alpha in alphas:
            assert counts[alpha] == superwitt_multidegree_dim(alpha), alpha
        checked += len(alphas)
    assert checked == count


def _halved(algebra):
    # every structure constant halved: isomorphic to the algebra (by
    # x -> 2x), still Leibniz, now Fraction-valued
    return LeibnizAlgebra(
        algebra.dim,
        {ij: {k: Fraction(c) / 2 for k, c in entry.items()}
         for ij, entry in algebra.items()},
        name=f"{algebra.name}_half")


def test_top_rank_on_the_spanning_candidates_matches_exact_elimination():
    # homology ranks del_N on the pivot_values read-outs of the prefix
    # candidates' boundaries; the reference is the exact rank of the
    # basis-word columns of del_N.  The halved copies give Fraction
    # boundary terms, whose denominators the read-out clears.
    cases = [catalog.get(name) for name in catalog.VALID_NAMES]
    cases += [_halved(catalog.get("sl2")), _halved(catalog.get("doubleL2"))]
    for A in cases:
        for N in range(2, 7):
            rep = homology(A, max_degree=N)
            assert rep["ranks"][N] == \
                exactla._echelon(boundary_matrix(A, N)).rank, (A.name, N)
            assert rep["dims"] == {n: free_lie_basis(A.dim, n).dim
                                   for n in range(1, N + 1)}, (A.name, N)


def test_homology_builds_no_top_degree_slice(monkeypatch):
    built = []
    init = complexes.LieBasisSlice.__init__

    def recording(self, m, degree):
        built.append((m, degree))
        init(self, m, degree)

    monkeypatch.setattr(complexes.LieBasisSlice, "__init__", recording)
    free_lie_basis.cache_clear()
    rep = homology(catalog.get("sl2"), max_degree=6)
    assert rep["dims"][6] == 124 and rep["ranks"][6] == 33
    assert sorted(built) == [(3, n) for n in range(1, 6)]


def _count_columns(monkeypatch):
    # how often the boundary of each source word of del_4 .. del_N is
    # built by the Cartan homotopy, as it happens
    built = Counter()
    build = complexes._cartan_boundary

    def counting(algebra, word, low, ell):
        built[word] += 1
        return build(algebra, word, low, ell)

    monkeypatch.setattr(complexes, "_cartan_boundary", counting)
    return built


def _count_expansions(monkeypatch):
    # how often boundary_word_terms expands each word, as it happens
    expanded = Counter()
    expand = complexes.boundary_word_terms

    def counting(algebra, word, variant="main"):
        expanded[tuple(word)] += 1
        return expand(algebra, word, variant)

    monkeypatch.setattr(complexes, "boundary_word_terms", counting)
    return expanded


def test_homology_builds_top_columns_only_up_to_the_bound(monkeypatch):
    # del_N is ranked on m * dim F^(N-1) prefix candidates, one weight
    # block at a time, each built as the rank pulls it.  sl2 has no
    # homology at F^6, so every block of del_7 meets its bound: the
    # blocks of nonzero toral weight build nothing, and the others reach
    # their bounds after 44 of the 372 candidates in all (144 when every
    # block was ranked).  doubleL2 has homology at F^4,
    # but only in some weights: the other blocks of del_5 meet their
    # bounds, or have bound 0 and build nothing, so 54 of its 240 are
    # built.  A column is built from its source word's boundary, which
    # _cartan_boundary makes from the boundary of a suffix
    built = _count_columns(monkeypatch)
    rep = homology(catalog.get("sl2"), max_degree=7)
    assert rep["ranks"][7] == rep["dims"][6] - rep["ranks"][6] == 91
    top = [w for w in built if len(w) == 7]
    assert len(top) == 44 < 3 * free_lie_basis(3, 6).dim == 372
    built.clear()
    rep = homology(catalog.get("doubleL2"), max_degree=5)
    assert rep["ranks"][5] == 44 < rep["dims"][4] - rep["ranks"][4] == 47
    top = [w for w in built if len(w) == 5]
    assert len(top) == 54 < 4 * free_lie_basis(4, 4).dim == 240


def _count_tensor_columns(monkeypatch):
    # each del_L column as it is built, as (degree, a, j, column): the
    # word (a,) + u at degree d, u the j-th word of degree d - 1
    built = []
    columns = complexes._loday_columns

    def building(algebra, d, low, pairs):
        last = []   # the pair the builder pulled for the column it yields
        for col in columns(algebra, d, low,
                           (last.append(p) or p for p in pairs)):
            built.append((d, *last[-1], col))
            yield col

    monkeypatch.setattr(complexes, "_loday_columns", building)
    return built


def test_homology_builds_each_boundary_once(monkeypatch):
    # no source word's boundary is made twice in one homology call, and
    # below the top degree the source words are basis words.  A boundary
    # is expanded (del_2, del_3, and a tail that no column built) or, from
    # del_4 on, built from a tail's by the Cartan homotopy: once, never
    # both.  No tensor column is built twice either: del_L comes up the
    # degrees from its prefix recursion, degrees 2..N-1 whole, m^d
    # columns at degree d, and the top degree builds only the columns the
    # ranks pull: 1,373 of 4,096 for doubleL2 to 6 (2,733 columns in all,
    # 5,456 with the top built whole) and 1,574 of 4,096 for L2 to 12
    # (5,666 in all, 8,188 whole)
    columns = _count_columns(monkeypatch)
    expanded = _count_expansions(monkeypatch)
    built = _count_tensor_columns(monkeypatch)
    pulled = []
    ranked = complexes.rank

    def pulling(vectors, upper=None):
        return ranked((pulled.append(v) or v for v in vectors), upper)

    monkeypatch.setattr(complexes, "rank", pulling)
    for name, N, top in (("doubleL2", 6, 1373), ("L2", 12, 1574)):
        A = catalog.get(name)
        homology(A, N, loday=True)
        made = columns + expanded
        assert set(made.values()) == {1}, name
        assert {len(w) for w in columns} == set(range(4, N + 1)), name
        for n in range(2, N):
            below = {w for w in made if len(w) == n}
            assert below <= set(free_lie_basis(A.dim, n).words), (name, n)
        words = Counter((d, a, j) for d, a, j, _ in built)
        assert set(words.values()) == {1}, name
        assert Counter(d for d, _, _ in words) == {
            d: A.dim ** d for d in range(2, N)} | {N: top}, name
        pulled_ids = {id(v) for v in pulled}
        assert all(id(col) in pulled_ids for d, _, _, col in built
                   if d == N), name
        for calls in (columns, expanded, built, pulled):
            calls.clear()


def _letter_weights(A):
    # the letter weights homology groups by: the grading, then toral
    letters = complexes.grading(A)
    lams = complexes.toral(A, letters)
    return [w + tuple(lam[a] for lam in lams) for a, w in enumerate(letters)]


def _word_weights(letters, m, n):
    return [tuple(map(sum, zip(*(letters[a - 1] for a in w))))
            for w in tensor_words(m, n)]


def test_lazy_top_blocks_match_the_whole_degree():
    # homology generates the top degree of del_L per weight block; each
    # block, drained, is the whole degree's columns at that weight, in
    # order.  At N = 2 the degree below is the letters; B1 and the sl2
    # conjugate have only the zero grading (one block), and sl2 has a
    # toral coordinate
    algebras = [catalog.get(name) for name in catalog.ALL_NAMES]
    algebras.append(parse_algebra_file(SL2_CONJ0))
    for A in algebras:
        letters = _letter_weights(A)
        for N in (2, 3, 5):
            weights = {d: _word_weights(letters, A.dim, d)
                       for d in range(1, N)}
            *_, top = complexes._loday_blocks(A, weights, N)
            whole = complexes._group(_word_weights(letters, A.dim, N),
                                     loday_matrix(A, N))
            assert list(top) == list(whole), (A.name, N)
            assert {w: list(cols) for w, cols in top.items()} == whole, \
                (A.name, N)


def test_lazy_top_blocks_build_only_what_their_ranks_pull(monkeypatch):
    # in homology a top block of nonzero toral weight (sl2) is skipped
    # and builds no column; a block that falls back to exact elimination
    # (nonzero HL: heis3, doubleL2) is built to its end, and a certified
    # block builds a prefix of its columns.  The reference ranks are
    # exact, on the whole degrees
    built = _count_tensor_columns(monkeypatch)
    fallbacks = 0
    for name, N in (("sl2", 5), ("heis3", 5), ("doubleL2", 4)):
        A = catalog.get(name)
        letters = _letter_weights(A)
        toral_part = len(letters[0]) - len(complexes.grading(A)[0])
        homology(A, N, loday=True)
        pulled = {(a, j) for d, a, j, _ in built if d == N}
        words = [(a, j) for a in range(1, A.dim + 1)
                 for j in range(A.dim ** (N - 1))]
        below = _word_weights(letters, A.dim, N - 1)
        ranks = {w: rank(cols) for w, cols in complexes._group(
            below, loday_matrix(A, N - 1)).items()}
        top = complexes._group(_word_weights(letters, A.dim, N), zip(
            words, loday_matrix(A, N)))
        for w, block in top.items():
            bound = below.count(w) - ranks.get(w, 0)
            made = [pair for pair, _ in block if pair in pulled]
            if any(w[len(w) - toral_part:]):
                assert not made, (name, w)
            elif rank([col for _, col in block]) < bound:
                fallbacks += 1
                assert len(made) == len(block), (name, w)
            else:
                assert made == [pair for pair, _ in block][:len(made)], \
                    (name, w)
        built.clear()
    assert fallbacks


@pytest.mark.parametrize("m, n", [(2, 7), (3, 5), (4, 4)])
def test_coords_rebuild_random_elements(m, n):
    # coords back-substitute over the echelon rows; row k is word k
    sl = free_lie_basis(m, n)
    rng = random.Random(100 * m + n)
    for trial in range(12):
        terms = {}
        for _ in range(rng.randint(1, 6)):
            w = tuple(rng.randint(1, m) for _ in range(n))
            c = rng.randint(-5, 5)
            if trial % 2:
                c = Fraction(c, rng.randint(1, 7))
            _add_term(terms, w, c)
        total = {}
        for k, c in sl.coords(terms).items():
            for t, v in embedded_word(sl.words[k]).items():
                _add_term(total, t, c * v)
        assert total == _extend(terms, embedded_word), (m, n, trial)
    for k, w in enumerate(sl.words):
        assert sl.coords({w: 1}) == {k: 1}, (m, n, w)


@pytest.mark.parametrize("m, n", [(2, 7), (3, 5), (4, 4)])
def test_echelon_rows_are_triangular_at_their_pivots(m, n):
    # row k vanishes at the pivot words of rows < k and not at its own,
    # which makes pivot_values injective on the span
    ech = free_lie_basis(m, n).echelon
    pivot_words = sorted(ech.pivots, key=ech.pivots.get)
    assert len(pivot_words) == len(ech.rows)
    for k, row in enumerate(ech.rows):
        assert row.get(pivot_words[k]), (m, n, k)
        assert not any(t in row for t in pivot_words[:k]), (m, n, k)


def test_pivot_values_read_the_embedding_at_the_pivots():
    sl = free_lie_basis(3, 4)
    terms = {(3, 2, 1, 1): Fraction(1, 3), (2, 1, 3, 3): Fraction(-2, 5),
             (1, 2, 3, 2): 4}
    emb = _extend(terms, embedded_word)
    values = sl.pivot_values(terms)
    assert all(type(c) is int for c in values.values())
    # 15 clears the denominators
    assert values == {k: 15 * emb[t] for t, k in sl.echelon.pivots.items()
                      if t in emb}
    assert sl.pivot_values({w: 1 for w in sl.words[:2]}) == _combine(
        sl.pivot_values({sl.words[0]: 1}), sl.pivot_values({sl.words[1]: 1}))


def _leftmost_slice(m, n):
    # LieBasisSlice(m, n) over an echelon that pivots at the lowest index
    # of each residue; the tails are the cached slices, built first so
    # that none of them is built under the patch
    free_lie_basis(m, n - 1)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(complexes, "SparseEchelon",
                   lambda *args, **kwargs: SparseEchelon())
        return complexes.LieBasisSlice(m, n)


def _stored_entries(echelon):
    return sum(map(len, echelon.rows))


@pytest.mark.parametrize("m, top", [(2, 8), (3, 6), (4, 5)])
def test_pivot_rule_keeps_the_basis_and_its_coords(m, top):
    # the slices pivot at the highest index; the lowest keeps the same
    # words, and the same coordinates over them
    rng = random.Random(10 * m + top)
    for n in range(2, top + 1):
        sl, ref = free_lie_basis(m, n), _leftmost_slice(m, n)
        assert sl.echelon.pick is max and ref.echelon.pick is min
        assert ref.words == sl.words, (m, n)
        assert ref.echelon.pivots != sl.echelon.pivots, (m, n)
        for trial in range(6):
            terms = {}
            for _ in range(rng.randint(1, 5)):
                w = tuple(rng.randint(1, m) for _ in range(n))
                _add_term(terms, w, Fraction(rng.randint(-5, 5),
                                             rng.randint(1, 4)))
            assert ref.coords(terms) == sl.coords(terms), (m, n, trial)


def test_highest_index_pivots_fill_in_less():
    # the slice echelon and the exact fallback of rank() store fewer
    # entries than the lowest-index rule on the same inserts
    sl = free_lie_basis(3, 8)
    assert _stored_entries(sl.echelon) < _stored_entries(
        _leftmost_slice(3, 8).echelon)

    runs = []
    echelon = exactla._echelon

    def recording(rows, *pick):
        runs.append((rows, echelon(rows, *pick)))
        return runs[-1][1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exactla, "_echelon", recording)
        homology(catalog.get("doubleL2"), max_degree=6, loday=True)
    cols, ech = max(runs, key=lambda run: len(run[0]))
    lowest = echelon(cols)
    assert ech.pick is max and ech.rank == lowest.rank
    assert _stored_entries(ech) < _stored_entries(lowest)


def test_coords_refuse_an_element_outside_the_span():
    with pytest.raises(InputError):
        free_lie_basis(3, 4).coords({(1, 2): 1})


def test_homology_rejects_bad_input():
    with pytest.raises(InputError):
        homology(catalog.get("B1"))
    with pytest.raises(InputError):
        homology(catalog.get("L2"), max_degree=1)
    with pytest.raises(InputError):
        homology(catalog.get("L2"), max_degree=2.5)


def test_omega0_frozen():
    assert omega0(catalog.get("sl2")) == {"dim": 1, "rank": 8,
                                          "relations": 25}
    assert omega0(catalog.get("heis3"))["dim"] == 3
    assert omega0(catalog.get("abelian2"))["dim"] == 3
    assert omega0(catalog.get("abelian4"))["dim"] == 10
    with pytest.raises(InputError):
        omega0(catalog.get("L2"))  # not antisymmetric


def test_kernel2_and_invariance():
    L2 = catalog.get("L2")
    ker = kernel2_basis(L2)
    # F^2 = {(1,1),(1,2),(2,2)}; del kills (1,2) and (2,2)
    assert len(ker) == 2
    for name in catalog.VALID_NAMES:
        A = catalog.get(name)
        for sub in catalog.lie_subalgebras(name):
            assert ker2_invariance(A, sub)["passed"], (name, sub)


def test_ker2_invariance_matches_the_kernel_basis():
    # reference: membership in the span of kernel2_basis, and its size
    for name in catalog.VALID_NAMES:
        A = catalog.get(name)
        kernel = SparseEchelon()
        basis = kernel2_basis(A)
        for vec in basis:
            kernel.insert(vec)
        slice2 = free_lie_basis(A.dim, 2)
        subs = list(catalog.lie_subalgebras(name))
        subs += [tuple(range(1, A.dim + 1)), (1,), (A.dim,)]
        for sub in subs:
            rep = ker2_invariance(A, sub)
            want = [(u, v) for u in sub for v in sub
                    if not kernel.contains(slice2.coords({(u, v): 1}))]
            assert rep["kernel_failures"] == want, (name, sub)
            assert rep["kernel_dim"] == len(basis), (name, sub)
    rep = ker2_invariance(catalog.get("L2"), (1,))
    assert rep["kernel_failures"] == [(1, 1)] and not rep["passed"]


def test_ker2_image_condition_matches_the_two_bracket_terms():
    # reference: {u, v} tested against the span of kernel2_basis, and
    # ([u,v], w) + (v, [u,w]) itself against Im(del_3), on every basis
    # subset of size 1 to 3, a Lie subalgebra or not; an image failure
    # needs s = [v,w] + [w,v] != 0, so the pair (v, w) fails the kernel
    # condition and the verdict is the one both tests together give
    with_failures = 0
    for name in catalog.VALID_NAMES:
        A = catalog.get(name)
        kernel = exactla._echelon(kernel2_basis(A))
        image = exactla._echelon(boundary_matrix(A, 3))
        slice2 = free_lie_basis(A.dim, 2)
        subs = [sub for size in (1, 2, 3)
                for sub in itertools.combinations(range(1, A.dim + 1), size)]
        for sub, rep in zip(subs, ker2_invariance_reports(A, subs)):
            failures = []
            for u, v, w in itertools.product(sub, repeat=3):
                terms = {}
                for k, c in A.bracket(u, v).items():
                    _add_term(terms, (k, w), c)
                for k, c in A.bracket(u, w).items():
                    _add_term(terms, (v, k), c)
                if terms and not image.contains(slice2.coords(terms)):
                    failures.append((u, v, w))
            pairs = [(u, v) for u in sub for v in sub
                     if not kernel.contains(slice2.coords({(u, v): 1}))]
            assert rep["kernel_failures"] == pairs, (name, sub)
            assert pairs or not failures, (name, sub)
            assert rep["passed"] == (not pairs and not failures), (name, sub)
            assert "image_failures" not in rep
            with_failures += bool(failures)
    assert with_failures == 13


def test_symmetric_ideal_is_the_image_of_del_2(monkeypatch):
    # del{u, v} = [u, v] + [v, u] over the basis words {u, v} of F^2, so
    # Im(del_2) is the symmetric ideal I and ker2_invariance_reports
    # reads kernel_dim = dim F^2 - dim I off it; the reference is the
    # rank of the assembled del_2.  The reports assemble no boundary and
    # build no slice, echelon or rank of their own: the only elimination
    # is symmetric_ideal's RREF, over the coordinates of the algebra,
    # served here from the ideals found first.  The rest is refused where
    # it is defined, whatever module calls it, and the slice cache is
    # emptied, so that asking for a slice built earlier builds it again
    cases = [catalog.get(name) for name in catalog.VALID_NAMES]
    cases.append(parse_algebra_file(SL2_CONJ0))
    kernel_dims, ideals = [], {}
    for A in cases:
        ideals[A] = symmetric_ideal(A)
        assert rank(boundary_matrix(A, 2)) == len(ideals[A][0]), A.name
        kernel_dims.append(len(kernel2_basis(A)))

    def refusing(*args, **kwargs):
        raise AssertionError(
            "ker2_invariance_reports builds a slice, an echelon or a rank")

    monkeypatch.setattr(battery, "symmetric_ideal", ideals.__getitem__)
    monkeypatch.setattr(exactla, "_echelon", refusing)
    monkeypatch.setattr(exactla, "_rank_mod_prime", refusing)
    monkeypatch.setattr(SparseEchelon, "__init__", refusing)
    monkeypatch.setattr(complexes.LieBasisSlice, "__init__", refusing)
    free_lie_basis.cache_clear()
    for A, kernel_dim in zip(cases, kernel_dims):
        rep, = ker2_invariance_reports(A, [(1,)])
        assert rep["kernel_dim"] == kernel_dim, A.name


def test_omega0_is_ha1_of_a_lie_algebra():
    # For a Lie algebra I = 0, so rank del_2 = 0, and F^2 is S^2 g (the
    # embedding of {x, y} is symmetric).  With the tail term gone,
    # del{x, y, z} = [x,y].z + y.[x,z] in S^2 g, and at (y, z, x) that is
    # [y,z].x + z.[y,x] = -([x,y].z - x.[y,z]), minus omega0's relation
    # at (x, y, z).  So Im(del_3) is the span of the relations, and
    # HA_1 = dim F^2 - rank del_3 = dim S^2 g / relations = omega0's dim
    cases = [catalog.get(name) for name in catalog.VALID_NAMES]
    cases = [A for A in cases if A.is_antisymmetric()]
    cases.append(parse_algebra_file(SL2_CONJ0))
    assert len(cases) == 7
    for A in cases:
        assert omega0(A)["dim"] == homology(A, 3)["HA"][1], A.name


def _letterwise(algebra):
    # L_a: replace each letter x of a tensor word in turn by [a, x]
    def act(a, terms):
        out = {}
        for w, c in terms.items():
            for i, x in enumerate(w):
                for k, cb in algebra.bracket(a, x).items():
                    _add_term(out, w[:i] + (k,) + w[i + 1:], c * cb)
        return out
    return act


def _cartan_failures(A, act):
    # (a, w) where L_a w != del i_a w + i_a del w, i_a(w) = (a,) + w: on
    # tensor words of length 1 to 4 with del_L, and on the basis words of
    # F^2..F^4 with del, compared through the embedding, which act reads
    failures = []
    for a in range(1, A.dim + 1):
        def i_a(terms):
            return {(a,) + w: c for w, c in terms.items()}

        for n in range(1, 5):
            for w in tensor_words(A.dim, n):
                rhs = _combine(loday_apply(A, {(a,) + w: 1}),
                               i_a(loday_apply(A, {w: 1})))
                if act(a, {w: 1}) != rhs:
                    failures.append((a, w))
        for n in range(2, 5):
            for w in free_lie_basis(A.dim, n).words:
                rhs = _combine(boundary_word_terms(A, (a,) + w),
                               i_a(boundary_word_terms(A, w)))
                if act(a, embedded_word(w)) != _extend(rhs, embedded_word):
                    failures.append((a, w))
    return failures


def test_cartan_homotopy_identity():
    # L_a = del o i_a + i_a o del, L_a the letter-wise action of DGLA.act.
    # On T^n it is the del_L recursion del_L(a (x) u) = a.u - a (x)
    # del_L(u); on F^n it holds from n = 2.  At n = 1, del{a, b} = [a, b]
    # + [b, a] while L_a b = [a, b], so it fails exactly where [b, a] != 0
    for name in catalog.VALID_NAMES:
        A = catalog.get(name)
        dg = DGLA(A, max_degree=2)

        def act(a, terms):
            return dg.act({a: 1}, terms)

        assert _cartan_failures(A, act) == [], name
        letters = range(1, A.dim + 1)
        at_one = {(a, b) for a in letters for b in letters
                  if act(a, {(b,): 1}) != _extend(
                      boundary_word_terms(A, (a, b)), embedded_word)}
        assert at_one == {(a, b) for (b, a), _ in A.items()}, name


def _seeded_bracket(rng, m):
    # one integer constant on about half the pairs, drawn again until the
    # Leibniz identity fails
    while True:
        brackets = {ij: {rng.randint(1, m): rng.choice((-2, -1, 1, 3))}
                    for ij in itertools.product(range(1, m + 1), repeat=2)
                    if rng.random() < 0.5}
        A = LeibnizAlgebra(m, brackets, name=f"seeded{m}")
        if not A.validate().passed:
            return A


def test_cartan_boundary_matches_the_pairwise_expansion():
    # del((a,) + b) = a.b - (a,) + del(b) is formal, so it holds for any
    # bracket: homology's column builder equals boundary_word_terms on
    # every word of length 3 to 6 (to 5 over four letters, for time) in
    # one step from the suffix one letter shorter, as below degree N - 1,
    # and at lengths 4 and 5 in two, as at degrees N - 1 and N.  A
    # missing suffix boundary is expanded and added.  Up from a letter,
    # where del is 0, the step gives [a, b] alone and misses [b, a]
    rng = random.Random(33)
    algebras = [catalog.get(name) for name in catalog.ALL_NAMES]
    algebras += [_seeded_bracket(rng, m) for m in (2, 2, 3, 3)]
    for A in algebras:
        words = [w for n in range(2, 7 if A.dim < 4 else 6)
                 for w in tensor_words(A.dim, n)]
        expanded = {w: boundary_word_terms(A, w) for w in words}
        steps = [(w, len(w) - 1) for w in words[A.dim ** 2:]]
        steps += [(w, len(w) - 2) for w in words if 4 <= len(w) < 6]
        assert not [(w, ell) for w, ell in steps
                    if complexes._cartan_boundary(A, w, expanded, ell)
                    != expanded[w]], A.name
        low = {}
        complexes._cartan_boundary(A, words[-1], low, 3)
        assert low == {words[-1][-3:]: expanded[words[-1][-3:]]}, A.name
        letters = {(x,): {} for x in range(1, A.dim + 1)}
        failures = {w for w in words[:A.dim ** 2]
                    if complexes._cartan_boundary(A, w, letters, 1)
                    != expanded[w]}
        assert failures == {(a, b) for a, b in words[:A.dim ** 2]
                            if A.bracket(b, a)}, A.name


def test_cartan_homotopy_check_fails_on_a_wrong_action():
    # one structure constant of sl2 changed in the action alone
    A = catalog.get("sl2")
    wrong = {ij: dict(entry) for ij, entry in A.items()}
    wrong[1, 2][2] += 1
    assert _cartan_failures(A, _letterwise(A)) == []
    assert _cartan_failures(A, _letterwise(LeibnizAlgebra(3, wrong)))


def _deletion(terms):
    # delta(u) = sum_i (-1)^i u^_i (x) u_i: letter i moved to the end
    out = {}
    for w, c in terms.items():
        for i, x in enumerate(w):
            _add_term(out, w[:i] + w[i + 1:] + (x,), (-1) ** i * c)
    return out


def test_signed_letter_deletion_kills_embeddings():
    # the lemma behind the Cartan homotopy on F^n: delta(eps(w)) = 0 for
    # every bracket word of length >= 2, so del_L(eps(w) (x) a) =
    # del_L(eps(w)) (x) a.  On a letter delta is the identity
    for m, top in ((2, 7), (3, 5), (4, 4)):
        for n in range(2, top + 1):
            for w in tensor_words(m, n):
                assert not _deletion(embedded_word(w)), w
    assert _deletion(embedded_word((1,))) == {(1,): 1}
    for name in catalog.VALID_NAMES:
        A = catalog.get(name)
        for n in range(2, 5):
            for w in free_lie_basis(A.dim, n).words:
                eps = embedded_word(w)
                for a in range(1, A.dim + 1):
                    tail = {u + (a,): c for u, c in eps.items()}
                    assert loday_apply(A, tail) == {
                        u + (a,): c for u, c in loday_apply(A, eps).items()
                    }, (name, w, a)


SOLVABLE2 = LeibnizAlgebra(2, {(1, 2): {2: 1}}, name="e1e2")


def test_toral_finds_the_diagonal_elements():
    # sl2 has h, [h, e] = 2e and [h, f] = -2f; [e1, e2] = e2 has e1.  A
    # toral weight is a grading.  The other entries are nilpotent, and
    # h is not diagonal in the conjugate's basis
    found = {"sl2": (0, 2, -2), "e1e2": (0, 1)}
    cases = [catalog.get(name) for name in catalog.VALID_NAMES]
    cases += [SOLVABLE2, parse_algebra_file(SL2_CONJ0)]
    for A in cases:
        lams = complexes.toral(A, complexes.grading(A))
        assert len(lams) == (A.name in found), A.name
        for lam in lams:
            assert all(type(x) is int for x in lam), A.name
            assert rank([dict(enumerate(lam)),
                         dict(enumerate(found[A.name]))]) == 1, A.name
            for (a, b), entry in A.items():
                for k in entry:
                    assert lam[k - 1] == lam[a - 1] + lam[b - 1], A.name


def test_toral_skip_matches_ranking_every_block(monkeypatch):
    # the reference ranks every block: toral() patched to find nothing
    cases = ((catalog.get("sl2"), 8), (SOLVABLE2, 9))
    skipped = [homology(A, N, loday=True) for A, N in cases]
    monkeypatch.setattr(complexes, "toral", lambda A, letters: [])
    assert skipped == [homology(A, N, loday=True) for A, N in cases]
    assert skipped[0]["HL"] == {n: 0 for n in range(7)}


def test_toral_skip_check_fails_on_a_wrong_skip(monkeypatch):
    # heis3 has no toral element, so every block has toral weight 0; a
    # grading passed off as toral skips blocks that carry homology
    heis3 = catalog.get("heis3")
    reference = homology(heis3, 6, loday=True)
    monkeypatch.setattr(complexes, "toral", lambda A, letters: [
        tuple(w[0] for w in complexes.grading(A))])
    assert homology(heis3, 6, loday=True) != reference


def test_toral_skip_starts_at_del_3(monkeypatch):
    # the homotopy fails on F^1, where sl2 keeps HA_0 = 3 at weights 2
    # and -2: a skip from del_2 on makes HA_0 lose them
    ranks = complexes._ranks
    monkeypatch.setattr(complexes, "_ranks",
                        lambda w, blocks, toral, first:
                        ranks(w, blocks, toral, 2))
    assert homology(catalog.get("sl2"), 4)["HA"][0] == 1


def test_homology_reads_out_every_degree(monkeypatch):
    # no coordinate solve past F^1 (del_2 solves over the letters), and
    # no column of nonzero toral weight is read out from del_3 on.  del
    # keeps the weight, so each word of a read-out del w has w's weight
    sl2 = catalog.get("sl2")
    [lam] = complexes.toral(sl2, complexes.grading(sl2))
    toral_weights = {n: set() for n in range(2, 9)}
    solved = []
    coords = complexes.LieBasisSlice.coords
    values = complexes.LieBasisSlice.pivot_values

    def recording(self, terms):
        solved.append(self.degree)
        return coords(self, terms)

    def reading(self, terms):
        toral_weights[self.degree + 1].update(
            sum(lam[a - 1] for a in w) for w in terms)
        return values(self, terms)

    monkeypatch.setattr(complexes.LieBasisSlice, "coords", recording)
    monkeypatch.setattr(complexes.LieBasisSlice, "pivot_values", reading)
    expanded = _count_expansions(monkeypatch)
    homology(sl2, 8)
    monkeypatch.setattr(complexes.LieBasisSlice, "pivot_values", values)
    for w in expanded:
        if len(w) == 2:
            toral_weights[2].add(sum(lam[a - 1] for a in w))
    assert toral_weights[2] == {-4, -2, 0, 2, 4}
    assert all(toral_weights[n] == {0} for n in range(3, 9))
    homology(catalog.get("doubleL2"), 7)
    assert set(solved) == {1}


def test_dgla_component_dims():
    dg = DGLA(catalog.get("L2"), max_degree=4)
    assert dg.component_dims() == {0: 1, -1: 2, -2: 3, -3: 2, -4: 3}


def test_dgla_derived_bracket_values():
    dg = DGLA(catalog.get("L2"), max_degree=2)
    x1 = dg.word_element((1,))
    d = dg.differential(x1)
    assert d.gl == {1: 1}
    # (D x1, x1) = {[e1, e1]} = {e2}
    res = dg.bracket(d, x1)
    assert res.terms == {(2,): 1}


def test_dgla_mixed_element_prints_by_degree():
    # terms print grouped by word degree, ascending, and sorted within a
    # degree, whatever order the element was built in
    dg = DGLA(catalog.get("L2"), max_degree=3)
    x1, x2 = dg.word_element((1,)), dg.word_element((2,))
    d = dg.differential(x1)
    el = (dg.word_element((2, 1, 1)) + d + x2 + dg.word_element((1, 2))
          + 3 * x1)
    assert repr(el) == ("DR(gl{1: 1} + F1(3*1 + 1*2) + F2(1*12 + 1*21)"
                        " + F3(-2*112 + 2*211))")
    assert repr(dg.bracket(d, el)) == \
        "DR(F1(3*2) + F2(2*22) + F3(-2*122 + 2*221))"


def test_dgla_action_drops_ideal():
    dg = DGLA(catalog.get("N3"), max_degree=3)
    # e2 and e3 span the ideal; their action must vanish identically.
    # The embedding is injective on F^n, so zero on it is zero in F^n.
    for vec in ({2: Fraction(1)}, {3: Fraction(1)}):
        for n in (1, 2, 3):
            for w in dg.slices[n].words:
                assert dg.act(vec, embedded_word(w)) == {}


def test_dgla_differential_matches_boundary_matrix():
    # the tensor boundary on embeddings against the coordinate path:
    # column p of boundary_matrix, embedded, is del of basis word p
    for name in catalog.VALID_NAMES:
        A = catalog.get(name)
        dg = DGLA(A, max_degree=5)
        for n in range(2, 6):
            cols = boundary_matrix(A, n)
            for p, w in enumerate(dg.slices[n].words):
                got = dg.differential(dg.word_element(w)).terms
                want = _extend(slice_element(dg.slices[n - 1], cols[p]),
                               embedded_word)
                assert got == want, (name, w)


def test_dgla_free_bracket_stays_in_word_span():
    # the free bracket of embedded basis words of F^p and F^q is the
    # embedding of an element of F^(p+q)
    for name in catalog.VALID_NAMES:
        dg = DGLA(catalog.get(name), max_degree=4)
        words = [(p, a) for p, a in dg.basis() if p]
        for p, a in words:
            for q, b in words:
                if p + q > 4:
                    continue
                part = dg.bracket(a, b).terms
                assert dg.slices[p + q].echelon.contains(part), (name, a, b)


def test_dgla_bracket_truncates_past_the_cutoff():
    # the battery brackets only within the cutoff: there the bracket of
    # two word elements is their free graded commutator, past it zero
    for name in ("L2", "sl2", "doubleL2"):
        dg = DGLA(catalog.get(name), max_degree=3)
        elems = [(p, a) for p, a in dg.basis() if p]
        for p, a in elems:
            for q, b in elems:
                ab = dg.bracket(a, b)
                if p + q <= 3:
                    assert ab.terms == super_commutator(a.terms, b.terms)
                else:
                    assert not ab.terms and not ab.gl, (name, a, b)
    dg = DGLA(catalog.get("L2"), max_degree=3)
    ab = dg.bracket(dg.word_element((1, 2)), dg.word_element((2, 1)))
    assert repr(ab) == "DR(0)"


def test_dgla_suite_small():
    checks = dgla_suite(DGLA(catalog.get("L2"), max_degree=3))
    assert all(v["passed"] for v in checks.values()), checks


def test_dgla_suite_leaves_the_embedding_cache_unchanged():
    # word elements hold the cached embeddings themselves, and the
    # bracket adds into the first dict it keeps: no result may alias them
    dg = DGLA(catalog.get("sl2"), max_degree=4)
    dg.basis()
    before = {w: dict(terms) for w, terms in words._EMBED_CACHE.items()}
    checks = dgla_suite(dg)
    for w, terms in before.items():
        assert words._EMBED_CACHE[w] == terms, w
    assert all(v["passed"] for v in checks.values()), checks


def _rref_residue(algebra, vec):
    # the old quotient path: v minus v[p] times the RREF row of p, for
    # every pivot p, vanishes at the pivots (each row is 1 at its own
    # pivot and 0 at the others), as {k(1-based): Fraction}
    rows, pivots = symmetric_ideal(algebra)
    out = {k - 1: Fraction(c) for k, c in vec.items()}
    for row, p in zip(rows, pivots):
        c = out.get(p, 0)
        for i, v in row.items():
            out[i] = out.get(i, 0) - c * v
    return {i + 1: c for i, c in out.items() if c}


def test_dgla_residues_match_the_quotient_algebra():
    # degree 0 is g/I held as residues in g coordinates; relabelled
    # through kept they are liezation's quotient coordinates
    for name in catalog.VALID_NAMES:
        for A in (catalog.get(name), _halved(catalog.get(name))):
            quotient, projection, kept = liezation(A)
            dg = DGLA(A, max_degree=2)
            assert dg.kept == kept
            pos = {j + 1: t + 1 for t, j in enumerate(kept)}

            def relabel(vec):
                assert set(vec) <= set(pos), (A.name, vec)
                return {pos[k]: c for k, c in vec.items()}

            for col in range(1, A.dim + 1):
                res = dg.project({col: 1})
                assert res == _rref_residue(A, {col: 1}), (A.name, col)
                want = {t + 1: row[col - 1]
                        for t, row in enumerate(projection) if row[col - 1]}
                assert relabel(res) == want, (A.name, col)
            for i in range(1, A.dim + 1):
                for j in range(1, A.dim + 1):
                    vec = A.bracket(i, j)
                    assert dg.project(vec) == _rref_residue(A, vec)
            degree0 = [a for p, a in dg.basis() if p == 0]
            assert len(degree0) == quotient.dim == dg.component_dims()[0]
            for t1, a in enumerate(degree0, 1):
                for t2, b in enumerate(degree0, 1):
                    got = relabel(dg.bracket(a, b).gl)
                    assert got == quotient.bracket(t1, t2), (A.name, t1, t2)


def test_dgla_integral_algebras_keep_int_word_parts():
    # the word terms of brackets and differentials of basis elements of
    # an integral algebra never leave int arithmetic
    for name in catalog.VALID_NAMES:
        dg = DGLA(catalog.get(name), max_degree=3)
        basis = dg.basis()
        elements = [dg.differential(a) for _, a in basis]
        elements += [dg.bracket(a, b) for pa, a in basis
                     for pb, b in basis if pa + pb <= 3]
        # degree 0 elements that are residues modulo I, acting on words
        letters = [a for pa, a in basis if pa == 1]
        elements += [dg.bracket(dg.differential(a), b) for a in letters
                     for _, b in basis]
        for el in elements:
            assert all(type(c) is int for c in el.terms.values()), (name, el)


def test_dgla_suite_passes_on_rational_constants():
    for name in ("sl2", "doubleL2"):
        A = _halved(catalog.get(name))
        assert any(type(c) is Fraction
                   for _, entry in A.items() for c in entry.values())
        checks = dgla_suite(DGLA(A, max_degree=4))
        assert len(checks) == 9
        assert all(v["passed"] for v in checks.values()), (name, checks)
