"""Cochains: differentials, lowering, the anti-cyclic space, classes."""

import itertools
import random
from fractions import Fraction

import pytest

from leibcx import catalog, cochains
from leibcx.algebras import LeibnizAlgebra, double
from leibcx.cochains import (Cochain, anti_cyclic_basis,
                             anti_cyclic_constraint_rows, bracket_coords_table,
                             classify_extension,
                             coboundary_matrix_on_anti_cyclic, cohomology,
                             constraints_match_identities, from_implicit,
                             is_anti_cyclic, lp_coboundary, same_row_space,
                             subcomplex_report, symmetry_identity_rows,
                             to_implicit)
from leibcx.complexes import (DGLA, boundary_matrix, boundary_square_report,
                              free_lie_basis, homology, intertwining_report,
                              loday_matrix)
from leibcx.duality import (DualBracketSum, contract, dual_bracket_word,
                            rotation_sum_report, structure_tensors)
from leibcx.errors import InputError
from leibcx.exactla import nullspace, rank, transpose
from leibcx.words import projector_report
from support import dual_differential, lower


def test_lp_differential_frozen():
    L2 = catalog.get("L2")
    # f(e1) = e^2: at (1, 1), [f(e1), e1] + [e1, f(e1)] - f([e1,e1]) =
    # 2e^1 - e^1 - 0 = e^1; f(e2) = 0, so only the coadjoint terms act
    # at (2, 1), and they cancel
    assert dual_differential(L2, {((1,), 2): 1}, 1) == {((1, 1), 1): 1}


def test_lp_differential_degree0():
    L2 = catalog.get("L2")
    # (d phi)(x) = [phi, x]; [e^1, e1] = (c(j,1,k)+c(1,j,k)) a_k = 0 at k=1
    assert dual_differential(L2, {((), 1): 1}, 0) == {}
    # [e^2, e1] = 2 e^1
    assert dual_differential(L2, {((), 2): 1}, 0) == {((1,), 1): 2}


def test_lower_sign():
    ft = lower({((1,), 2): Fraction(3)}, 1, 2)
    assert ft == Cochain(2, 2, {(1, 2): -3})


def test_lp_coboundary_frozen():
    L2 = catalog.get("L2")
    phi = Cochain(1, 2, {(2,): 1})  # phi(e2) = 1
    b = lp_coboundary(L2, phi)
    # (b phi)(x1, x2) = phi([x1,x2] + [x2,x1])
    assert b.coefficient((1, 1)) == 2
    assert b.coefficient((1, 2)) == 0


def test_tilde_relation_full_basis():
    # b(lower f) == (-1)^arity lower(d f) over every delta cochain
    for name in ("L2", "N3"):
        A = catalog.get(name)
        m = A.dim
        for n in (0, 1, 2):
            sign = (-1) ** n
            for w in itertools.product(range(1, m + 1), repeat=n):
                for l in range(1, m + 1):
                    f = {(w, l): 1}
                    lhs = lp_coboundary(A, lower(f, n, m))
                    rhs = sign * lower(dual_differential(A, f, n), n + 1, m)
                    assert lhs == rhs, (name, w, l)


def test_lowering_intertwines_on_brackets_that_are_not_leibniz():
    # the identity is formal: seeded bilinear brackets that break the
    # Leibniz identity satisfy it too, for random cochains of arity 0-2
    rng = random.Random(8)
    cases = 0
    while cases < 40:
        m = rng.randint(1, 3)
        A = LeibnizAlgebra(m, {
            (i, j): {k: rng.randint(-2, 2) for k in range(1, m + 1)}
            for i in range(1, m + 1) for j in range(1, m + 1)})
        if A.validate().passed:
            continue
        cases += 1
        for n in (0, 1, 2):
            f = {(w, l): rng.choice((-3, -1, 1, Fraction(1, 2), 2))
                 for w in itertools.product(range(1, m + 1), repeat=n)
                 for l in range(1, m + 1) if rng.random() < 0.5}
            lhs = lp_coboundary(A, lower(f, n, m))
            rhs = (-1) ** n * lower(dual_differential(A, f, n), n + 1, m)
            assert lhs == rhs, (A.items(), f)


def test_is_anti_cyclic_degree1():
    sym = Cochain(2, 2, {(1, 2): 1, (2, 1): 1, (1, 1): 5})
    assert is_anti_cyclic(sym)
    asym = Cochain(2, 2, {(1, 2): 1})
    assert not is_anti_cyclic(asym)


def test_anti_cyclic_basis_properties():
    for m in (1, 2, 3):
        for degree in (1, 2):
            basis = anti_cyclic_basis(m, degree)
            assert len(basis) == free_lie_basis(m, degree + 1).dim
            sl = free_lie_basis(m, degree + 1)
            for k, a in enumerate(basis):
                assert is_anti_cyclic(a), (m, degree, k)
                # A_k picks out the k-th coordinate on basis words
                for j, b in enumerate(sl.words):
                    assert a.coefficient(b) == (1 if j == k else 0)


def test_implicit_round_trip():
    m = 2
    vec = [Fraction(2), Fraction(-1, 3)]
    a = from_implicit(vec, m, 2)
    assert is_anti_cyclic(a)
    assert to_implicit(a) == vec
    bad = Cochain(3, 2, {(1, 2, 2): 1})
    with pytest.raises(InputError):
        to_implicit(bad)


def test_coboundary_transpose_identity():
    for name in ("L2", "N3", "sl2", "heis3", "doubleL2"):
        A = catalog.get(name)
        for degree in (0, 1, 2):
            assert subcomplex_report(A, degree) == \
                {"preserved": True, "transpose": True}, (name, degree)
            mat = coboundary_matrix_on_anti_cyclic(A, degree)
            nrows = free_lie_basis(A.dim, degree + 1).dim
            assert mat == transpose(boundary_matrix(A, degree + 2), nrows), \
                (name, degree)
            # reference: the coboundary of each basis cochain on its own
            for k, a in enumerate(anti_cyclic_basis(A.dim, degree)):
                ba = lp_coboundary(A, a)
                assert is_anti_cyclic(ba), (name, degree, k)
                col = {r: c for r, c in enumerate(to_implicit(ba)) if c}
                assert col == mat[k], (name, degree, k)


def test_transpose_theorem_on_elementary_brackets():
    # del, del_L and the coboundary are linear in the structure constants,
    # and every bracket on Q^m is a sum of elementary ones [e_i,e_j] = e_k;
    # so passing on all of them proves preservation, the transpose identity
    # and the intertwining for every bracket, Leibniz or not, at these sizes
    for m, top_degree, max_length in ((2, 2, 4), (3, 2, 4), (4, 1, 3)):
        for i, j, k in itertools.product(range(1, m + 1), repeat=3):
            A = LeibnizAlgebra(m, {(i, j): {k: 1}})
            for degree in range(top_degree + 1):
                assert subcomplex_report(A, degree) == \
                    {"preserved": True, "transpose": True}, (m, i, j, k)
            assert intertwining_report(A, max_length)["passed"], (m, i, j, k)


def test_subcomplex_report_detects_a_wrong_matrix(monkeypatch):
    import leibcx.cochains as cochains
    A = catalog.get("sl2")
    good = coboundary_matrix_on_anti_cyclic(A, 1)
    bad = [dict(col) for col in good]
    bad[0][0] = bad[0].get(0, 0) + 1
    monkeypatch.setattr(cochains, "coboundary_matrix_on_anti_cyclic",
                        lambda algebra, degree: bad)
    assert subcomplex_report(A, 1) == {"preserved": True, "transpose": False}


def test_cohomology_matches_homology():
    for name in catalog.VALID_NAMES:
        A = catalog.get(name)
        co = cohomology(A, max_degree=4)
        ho = homology(A, max_degree=4)
        assert co["HA"] == ho["HA"], name
        assert all(co["preserved"].values()), name


def test_cohomology_is_the_anti_cyclic_complex_relabelled():
    # alp_dims[n] counts the degree-n anti-cyclic basis cochains, and
    # coboundary_ranks[n] is the rank of the coboundary on them, here
    # ranked whole from its matrix rather than by homology's blocks
    for name in catalog.VALID_NAMES:
        A = catalog.get(name)
        co = cohomology(A, max_degree=4)
        for n in range(3):
            assert co["alp_dims"][n] == len(anti_cyclic_basis(A.dim, n)), \
                (name, n)
            assert co["coboundary_ranks"][n] == rank(
                coboundary_matrix_on_anti_cyclic(A, n)), (name, n)


def test_cohomology_rejects_bad_input():
    with pytest.raises(InputError):
        cohomology(catalog.get("B1"))


def test_classify_coboundary_trivial():
    L2 = catalog.get("L2")
    bt = lp_coboundary(L2, lower({((1,), 1): 1}, 1, 2))
    rep = classify_extension(L2, bt)
    assert rep == {"anti_cyclic": True, "closed": True, "trivial": True,
                   "class": [], "h2_dim": 0}


def test_classify_abelian_classes_distinct():
    A2 = catalog.get("abelian2")
    basis = anti_cyclic_basis(2, 2)
    reps = [classify_extension(A2, a) for a in basis]
    for rep in reps:
        assert rep["anti_cyclic"] and rep["closed"] and not rep["trivial"]
        assert rep["h2_dim"] == 2
    assert reps[0]["class"] != reps[1]["class"]


def test_classify_rejects_wrong_arity():
    with pytest.raises(InputError):
        classify_extension(catalog.get("L2"), Cochain(2, 2, {}))


def test_classify_non_cocycle_reported():
    L2 = catalog.get("L2")
    rep = classify_extension(L2, from_implicit([0, 1], 2, 2))
    assert rep["anti_cyclic"] and not rep["closed"]
    assert rep["trivial"] is None and rep["class"] is None


def _seeded_twists(A, rng, count):
    # anti-cyclic arity-3 cochains: random implicit vectors, and random
    # combinations of the cocycles, which are closed
    n = free_lie_basis(A.dim, 3).dim
    cocycles = nullspace(boundary_matrix(A, 4), n)
    out = []
    for k in range(count):
        if k % 2 and cocycles:
            vec = [0] * n
            for z in cocycles:
                c = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                for i, x in z.items():
                    vec[i] += c * x
        else:
            vec = [Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                   for _ in range(n)]
        out.append(from_implicit(vec, A.dim, 2))
    return out


def test_classify_closed_matches_the_coboundary():
    rng = random.Random(2013)
    for name in catalog.VALID_NAMES:
        A = catalog.get(name)
        for h in _seeded_twists(A, rng, 6):
            rep = classify_extension(A, h)
            assert rep["anti_cyclic"], name
            assert rep["closed"] == (not lp_coboundary(A, h).coeffs), name
            assert (rep["class"] is None) == (not rep["closed"]), name
    # a cochain that is not anti-cyclic is not classified
    rep = classify_extension(catalog.get("L2"), Cochain(3, 2, {(1, 2, 2): 1}))
    assert rep == {"anti_cyclic": False, "closed": None, "trivial": None,
                   "class": None, "h2_dim": None}


def test_classes_are_invariant_under_coboundaries():
    # bA is trivial for every degree-1 basis cochain A, and adding it to a
    # closed h leaves the class of h unchanged
    rng = random.Random(1997)
    for name in ("abelian2", "L2", "N3", "sl2", "heis3", "doubleL2"):
        A = catalog.get(name)
        closed = [h for h in _seeded_twists(A, rng, 6)
                  if not lp_coboundary(A, h).coeffs]
        assert closed, name
        for a in anti_cyclic_basis(A.dim, 1):
            ba = lp_coboundary(A, a)
            rep = classify_extension(A, ba)
            assert rep["closed"] and rep["trivial"], name
            assert rep["class"] == [0] * rep["h2_dim"], name
            for h in closed:
                assert classify_extension(A, h - (-1) * ba)["class"] == \
                    classify_extension(A, h)["class"], name


def test_constraint_spaces_match_identities():
    for m in (1, 2, 3, 4):
        for arity in (3, 4):
            rows_def, _ = anti_cyclic_constraint_rows(m, arity)
            rows_sym, _ = symmetry_identity_rows(m, arity)
            assert same_row_space(rows_def, rows_sym), (m, arity)


def _full_and_reduced(ms, arity):
    # (reference over all m^arity words, one class per pattern) per m
    return [(same_row_space(anti_cyclic_constraint_rows(m, arity)[0],
                            symmetry_identity_rows(m, arity)[0]),
             constraints_match_identities(m, arity)) for m in ms]


def test_one_class_per_letter_pattern_decides_the_constraint_spaces(
        monkeypatch):
    # the reduced comparison agrees with the full one on every alphabet
    # size, and both can fail: under each single-term sign flip of the
    # identity table (every flip breaks the two-letter classes), and
    # under an expansion that is wrong only on words of distinct letters,
    # which only the all-distinct class holds (m >= arity)
    for arity in (3, 4):
        assert _full_and_reduced(range(1, 6), arity) == [(True, True)] * 5
    table = cochains._SYMMETRY_IDENTITIES
    flips = []
    for arity, identities in table.items():
        for i, identity in enumerate(identities):
            for t in range(len(identity)):
                flipped = list(identities)
                flipped[i] = tuple((-sign if u == t else sign, perm)
                                   for u, (sign, perm) in enumerate(identity))
                monkeypatch.setattr(cochains, "_SYMMETRY_IDENTITIES",
                                    {**table, arity: tuple(flipped)})
                verdicts = _full_and_reduced(range(1, 5), arity)
                assert all(full == reduced for full, reduced in verdicts)
                flips.append(verdicts)
    assert len(flips) == 14
    assert any((False, False) in verdicts for verdicts in flips)
    monkeypatch.setattr(cochains, "_SYMMETRY_IDENTITIES", table)
    real = cochains.embedded_word
    monkeypatch.setattr(cochains, "embedded_word", lambda w: (
        {w: 1} if len(set(w)) == len(w) else real(w)))
    for arity in (3, 4):
        assert _full_and_reduced(range(1, 6), arity) == \
            [(m < arity, m < arity) for m in range(1, 6)]


def test_same_row_space_negative():
    a = [{0: Fraction(1)}]
    b = [{1: Fraction(1)}]
    assert not same_row_space(a, b)
    assert not same_row_space(a, a + b)


def test_same_row_space_positive():
    # two generating sets of one span, and a redundant row
    e0, e1 = {0: Fraction(1)}, {1: Fraction(1)}
    rows = [{0: Fraction(1), 1: Fraction(1)},
            {0: Fraction(1), 1: Fraction(-1)}]
    assert same_row_space([e0, e1], rows)
    assert same_row_space(rows, [e0, e1, {0: Fraction(2)}])


def test_bracket_coords_table_consistency():
    table = bracket_coords_table(2, 3)
    sl = free_lie_basis(2, 3)
    for w, coords in table.items():
        assert coords == sl.coords({w: Fraction(1)})


def test_from_implicit_refuses_a_wrong_length():
    # dim F^3 = 2 over two generators
    for vec in ([], [1], [1, 0, 7], [1, 0, 7, 9]):
        with pytest.raises(InputError):
            from_implicit(vec, 2, 2)
    assert is_anti_cyclic(from_implicit([1, 0], 2, 2))


def test_differentials_refuse_a_cochain_of_another_dimension():
    # a truncated or padded cochain would give the coboundary of another
    # algebra, not an error
    with pytest.raises(InputError, match="dimension"):
        lp_coboundary(catalog.get("sl2"), Cochain(2, 2, {(1, 2): 1}))
    with pytest.raises(InputError, match="dimension"):
        lp_coboundary(catalog.get("L2"), Cochain(2, 3, {(3, 3): 1}))


def test_library_calls_refuse_bad_arguments():
    L2 = catalog.get("L2")
    dbl, omega = double(L2)
    cases = (
        (lambda: Cochain(0, 2), "arity and dimension"),
        (lambda: Cochain(2, 2, {(1,): 1}), "length != arity"),
        (lambda: Cochain(2, 2, {(1, 3): 1}), "out of range"),
        (lambda: Cochain(True, 2, {(1,): 1}), "arity and dimension"),
        (lambda: Cochain(1, True), "arity and dimension"),
        (lambda: Cochain(1, 2, {(True,): 1}), "out of range"),
        (lambda: free_lie_basis(0, 2), "positive integer"),
        # (1, 2) cached first: the cache must not answer for (True, 2)
        (lambda: [free_lie_basis(1, 2), free_lie_basis(True, 2)],
         "positive integer"),
        (lambda: free_lie_basis(2, True), "positive integer"),
        (lambda: boundary_matrix(L2, 1), "start at degree 2"),
        (lambda: loday_matrix(L2, 1), "start at degree 2"),
        # a float degree, and a bool, which would pass for 1
        (lambda: loday_matrix(L2, 2.5), "start at degree 2"),
        (lambda: boundary_square_report(L2, 2.5), "must be an integer"),
        (lambda: intertwining_report(L2, 2.5), "must be an integer"),
        (lambda: projector_report(2.5), "must be an integer"),
        (lambda: rotation_sum_report(2.5), "must be an integer"),
        (lambda: anti_cyclic_constraint_rows(2, 2.5), "must be an integer"),
        (lambda: coboundary_matrix_on_anti_cyclic(L2, True),
         "degree must be an integer"),
        (lambda: subcomplex_report(L2, True), "degree must be an integer"),
        (lambda: DGLA(L2, 1), "at least 2"),
        (lambda: DGLA(L2, 2.5), "at least 2"),
        (lambda: DGLA(L2, 2).word_element((1, 2, 1)), "word degree 3"),
        (lambda: symmetry_identity_rows(2, 5), "arity 3 and 4"),
        (lambda: dual_bracket_word(()), "at least one symbol"),
        (lambda: DualBracketSum({(1, 2): 1}).as_vector(), "contracted"),
        (lambda: contract({1: 1}, DualBracketSum({(): 1})), "scalar term"),
        (lambda: structure_tensors(dbl, omega, 3), "twice the base"),
    )
    for call, message in cases:
        with pytest.raises(InputError, match=message):
            call()
