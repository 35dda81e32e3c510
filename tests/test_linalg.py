"""Exact linear algebra: echelon, coordinates, RREF, nullspace, transpose."""

import random
from fractions import Fraction
from math import gcd

from leibcx import exactla
from leibcx.exactla import (_PRIME, SparseEchelon, _gcd_normalize,
                            _rank_pass, nullspace, rank, rref, transpose)


def F(x):
    return Fraction(x)


def _rank_mod_prime(vectors, stop=None):
    # rank()'s modular pass
    return _rank_pass(vectors, stop, _PRIME)


def test_echelon_rank_and_membership():
    ech = SparseEchelon()
    assert ech.insert({0: F(2), 1: F(4)})
    assert ech.insert({1: F(1), 2: F(1)})
    assert not ech.insert({0: F(1), 1: F(3), 2: F(1)})  # sum of halves
    assert ech.rank == 2
    assert ech.contains({0: F(3), 1: F(6)})
    assert not ech.contains({2: F(1)})


def test_echelon_fractions_cleared():
    ech = SparseEchelon()
    ech.insert({0: Fraction(1, 3), 1: Fraction(1, 6)})
    row = ech.rows[0]
    assert all(isinstance(v, int) for v in row.values())
    assert row == {0: 2, 1: 1}


def test_echelon_expressions_are_integer_rows():
    ech = SparseEchelon()
    ech.insert({0: Fraction(1, 3), 1: Fraction(2, 5)})
    ech.insert({0: Fraction(3, 7), 2: Fraction(-1, 4)})
    ech.insert({1: Fraction(5, 6), 2: Fraction(1, 9)})
    ech.insert({0: Fraction(1, 2), 1: Fraction(1, 2), 2: Fraction(1, 2)})
    assert ech.rank == 3
    ech = SparseEchelon()
    ech.insert({0: F(2), 1: F(4)})
    ech.insert({0: F(3), 1: F(1)})
    assert ech.rows == [{0: 1, 1: 2}, {1: 1}]


def test_echelon_coordinates_exact():
    ech = SparseEchelon()
    ech.insert({0: F(1), 1: F(2)})
    ech.insert({0: F(1), 1: F(3), 2: F(1)})
    ech.insert({1: F(1), 2: F(1)})  # dependent: source 2
    vec = {0: F(5), 1: F(11), 2: F(1)}
    coords = ech.coordinates(vec)
    assert coords is not None
    # reconstruct from the two accepted sources
    sources = [{0: F(1), 1: F(2)}, {0: F(1), 1: F(3), 2: F(1)}, {1: F(1), 2: F(1)}]
    rebuilt = {}
    for s, c in coords.items():
        for i, v in sources[s].items():
            rebuilt[i] = rebuilt.get(i, F(0)) + c * v
    assert {i: v for i, v in rebuilt.items() if v} == vec
    assert ech.coordinates({3: F(1)}) is None
    # the zero vector, which a closed h with a zero implicit vector
    # passes from classify_extension
    assert ech.coordinates({}) == {}


def test_echelon_late_pivot_order():
    # second row's pivot column precedes the first row's
    ech = SparseEchelon()
    ech.insert({5: F(1), 2: F(1)})
    ech.insert({2: F(1)})
    assert ech.contains({5: F(1)})
    assert not ech.insert({5: F(3), 2: F(7)})


def test_rank_matches_dense_rref():
    rows = [
        {0: F(1), 1: F(2), 2: F(3)},
        {0: F(2), 1: F(4), 2: F(6)},
        {1: F(1), 2: F(1)},
        {0: F(1), 1: F(1), 2: F(2)},
    ]
    assert rank(rows) == 2
    red, pivots = rref(rows)
    assert len(red) == 2 and pivots == [0, 1]
    assert red[0] == {0: F(1), 2: F(1)}
    assert red[1] == {1: F(1), 2: F(1)}


def _dense_gauss_jordan(rows, ncols):
    # textbook Gauss-Jordan on a dense Fraction matrix: scale the pivot
    # row to 1 and clear its column in every other row
    mat = [[Fraction(r.get(j, 0)) for j in range(ncols)] for r in rows]
    pivots, top = [], 0
    for col in range(ncols):
        hit = next((i for i in range(top, len(mat)) if mat[i][col]), None)
        if hit is None:
            continue
        mat[top], mat[hit] = mat[hit], mat[top]
        lead = mat[top][col]
        mat[top] = [x / lead for x in mat[top]]
        for i in range(len(mat)):
            if i != top and mat[i][col]:
                f = mat[i][col]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[top])]
        pivots.append(col)
        top += 1
    return [{j: x for j, x in enumerate(row) if x} for row in mat[:top]], \
        pivots


def test_rref_matches_dense_gauss_jordan():
    # sparse and dense, integer and rational matrices, with dependent rows
    rng = random.Random(20261019)
    for trial in range(120):
        ncols = rng.randint(1, 14)
        density = rng.choice((0.1, 0.3, 1.0))
        rational = trial % 2 == 1
        rows = [_random_vector(rng, ncols, density, rational)
                for _ in range(rng.randint(0, ncols + 2))]
        if rows and trial % 3 == 0:
            rows.append(_random_combination(rng, rows))
            rng.shuffle(rows)
        red, pivots = rref(rows)
        assert (red, pivots) == _dense_gauss_jordan(rows, ncols), trial
        for row, p in zip(red, pivots):
            assert row[p] == 1
            assert all(type(c) in (int, Fraction) and c
                       for c in row.values())


def test_rank_upper_bound_falls_back_on_unlucky_prime():
    vecs = [{0: 1, 1: 1}, {0: 1, 1: 1 + _PRIME}]
    assert _rank_mod_prime(vecs) == 1
    assert rank(vecs, upper=2) == 2
    # a bound that is met is trusted, not checked: it must be proven
    assert rank(vecs, upper=1) == 1
    assert rank([{0: Fraction(1, 2)}, {0: Fraction(1, 3), 1: Fraction(2, 5)}],
                upper=2) == 2


def _counting(vecs, pulls):
    # hands out vecs one at a time, appending each to pulls as it goes
    for vec in vecs:
        pulls.append(vec)
        yield vec


def test_rank_pulls_no_column_past_the_bound():
    # the third vector is the second independent one: it meets upper=2
    vecs = [{0: 1, 1: 2}, {0: -3, 1: -6}, {1: 1}, {2: 1}, {3: 1}]
    pulls = []
    assert rank(_counting(vecs, pulls), upper=2) == 2
    assert pulls == vecs[:3]
    pulls = []
    assert rank(_counting(vecs, pulls), upper=0) == 0
    assert pulls == []
    pulls = []
    assert _rank_mod_prime(_counting(vecs, pulls), 0) == 0
    assert pulls == []


def _recording_passes(monkeypatch):
    # each _rank_pass as it runs: (p, the vectors it pulled, its result)
    passes = []
    inner = exactla._rank_pass

    def recording(vectors, stop=None, p=0):
        pulled = []
        passes.append((p, pulled, inner(_counting(vectors, pulled), stop, p)))
        return passes[-1][2]

    monkeypatch.setattr(exactla, "_rank_pass", recording)
    return passes


def test_rank_fallback_sees_every_column(monkeypatch):
    # a stored exact row past 32 bits swells: the modular pass ranks the
    # columns the exact pass pulled, then the rest, and stops at the
    # bound; when it misses the bound (here an unlucky prime) exact
    # elimination ranks every column
    big = 2 ** 40
    assert big >> exactla._SWELL
    passes = _recording_passes(monkeypatch)
    vecs = [{0: 1, 1: big + 1}, {1: 1}, {2: 1}]
    pulls = []
    assert rank(_counting(vecs, pulls), upper=2) == 2
    assert pulls == vecs[:2]
    assert passes == [(0, vecs[:1], None), (_PRIME, vecs[:2], 2)]
    passes.clear()
    vecs = [{0: 1, 1: big}, {0: 1, 1: big + _PRIME}, {0: 2, 1: 2 * big}]
    pulls = []
    assert rank(_counting(vecs, pulls), upper=2) == 2
    assert pulls == vecs
    assert passes == [(0, vecs[:1], None), (_PRIME, vecs, 1), (0, vecs, 2)]
    # no bound, no switch: the exact pass keeps its swollen rows
    passes.clear()
    assert rank(vecs) == 2 and passes == [(0, vecs, 2)]


def test_rank_mod_prime_stops_at_stop():
    rng = random.Random(11)
    for trial in range(10):
        vecs = [_random_vector(rng, 8, 0.5, trial % 2) for _ in range(6)]
        vecs += [_random_combination(rng, vecs) for _ in range(3)]
        full = _rank_mod_prime(vecs)
        for stop in range(len(vecs) + 1):
            assert _rank_mod_prime(vecs, stop) == min(stop, full), trial


def test_nullspace_canonical():
    rows = [{0: F(1), 2: F(1)}, {1: F(1), 2: F(1)}]
    basis = nullspace(rows, 3)
    assert basis == [{0: F(-1), 1: F(-1), 2: F(1)}]
    for v in basis:
        assert all(sum(c * v.get(i, 0) for i, c in r.items()) == 0
                   for r in rows)


def test_transpose_sparse_columns():
    # columns of [[1, 2], [3, 4]]
    a = [{0: F(1), 1: F(3)}, {0: F(2), 1: F(4)}]
    assert transpose(a, 2) == [{0: F(1), 1: F(2)}, {0: F(3), 1: F(4)}]
    # empty rows and columns survive with the given row count
    assert transpose([{}, {2: F(5)}], 3) == [{}, {}, {1: F(5)}]
    assert transpose([], 2) == [{}, {}]


# The elimination before rows were visited only when reached: every stored
# row is scanned on every call, and the tracked expressions are Fraction
# dicts.  Kept as the reference for SparseEchelon.


def _ref_as_int_vector(vec):
    items = [(i, c) for i, c in vec.items() if c]
    if not items:
        return {}, 1
    lcm = 1
    for _, c in items:
        q = c.denominator if isinstance(c, Fraction) else 1
        lcm = lcm * q // gcd(lcm, q)
    return {i: int(c * lcm) for i, c in items}, lcm


class _ReferenceEchelon:
    def __init__(self, pick=min):
        self.pick = pick
        self.rows = []
        self.pivots = {}
        self._rowpiv = []
        self._exprs = []
        self.nsources = 0

    def _reduce(self, vec):
        res, scale0 = _ref_as_int_vector(vec)
        scale = scale0
        gamma = {}
        for k, row in enumerate(self.rows):
            piv = self._rowpiv[k]
            c = res.get(piv, 0)
            if not c:
                continue
            p = row[piv]
            if c % p == 0:
                q = c // p
                for i, rv in row.items():
                    nv = res.get(i, 0) - q * rv
                    if nv:
                        res[i] = nv
                    else:
                        res.pop(i, None)
                gamma[k] = gamma.get(k, 0) + q
            else:
                for j in gamma:
                    gamma[j] *= p
                scale *= p
                for i in list(res):
                    res[i] *= p
                for i, rv in row.items():
                    nv = res.get(i, 0) - c * rv
                    if nv:
                        res[i] = nv
                    else:
                        res.pop(i, None)
                gamma[k] = gamma.get(k, 0) + c
        return res, scale, gamma

    def insert(self, vec):
        src = self.nsources
        self.nsources += 1
        res, scale, gamma = self._reduce(vec)
        res = {i: c for i, c in res.items() if c}
        if not res:
            return False
        res, div = _gcd_normalize(res)
        expr = {}
        for k, g in gamma.items():
            coeff = Fraction(-g, div)
            for s, c in self._exprs[k].items():
                v = expr.get(s, 0) + coeff * c
                if v:
                    expr[s] = v
                else:
                    expr.pop(s, None)
        v = expr.get(src, 0) + Fraction(scale, div)
        if v:
            expr[src] = v
        self._exprs.append(expr)
        piv = self.pick(res)
        self.pivots[piv] = len(self.rows)
        self._rowpiv.append(piv)
        self.rows.append(res)
        return True

    def coordinates(self, vec):
        res, scale, gamma = self._reduce(vec)
        if any(res.values()):
            return None
        out = {}
        for k, g in gamma.items():
            coeff = Fraction(g, scale)
            for s, c in self._exprs[k].items():
                v = out.get(s, 0) + coeff * c
                if v:
                    out[s] = v
                else:
                    out.pop(s, None)
        return out


def _random_vector(rng, ncols, density, rational):
    vec = {}
    for i in rng.sample(range(ncols), max(1, int(density * ncols))):
        num = rng.randint(-9, 9)
        if num:
            vec[i] = Fraction(num, rng.randint(1, 6)) if rational else num
    return vec


def _random_combination(rng, vectors):
    out = {}
    for v in rng.sample(vectors, min(3, len(vectors))):
        c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        for i, x in v.items():
            out[i] = out.get(i, 0) + c * x
    return {i: x for i, x in out.items() if x}


def _items(d):
    return list(d.items())


def test_echelon_matches_all_rows_reference():
    # under either pivot rule the reduction, the rows, the pivots and
    # the coordinates match the reference
    for pick in (min, max):
        rng = random.Random(20261018)
        for trial in range(16):
            ncols = rng.choice((10, 24))
            density = rng.choice((0.1, 0.3, 0.9))
            rational = trial % 2 == 1
            ech, ref = SparseEchelon(pick), _ReferenceEchelon(pick)
            row_of = {}       # accepted reference source -> echelon row

            def ref_coords(vec):
                coords = ref.coordinates(vec)
                return None if coords is None else \
                    {row_of[s]: c for s, c in coords.items()}

            inserted = []
            for _ in range(ncols + 4):
                if inserted and rng.random() < 0.3:
                    vec = _random_combination(rng, inserted)
                else:
                    vec = _random_vector(rng, ncols, density, rational)
                res, scale, gamma = ech._reduce(vec)
                want = ref._reduce(vec)
                assert (_items(res), scale, _items(gamma)) == \
                    (_items(want[0]), want[1], _items(want[2]))
                assert ech.coordinates(vec) == ref_coords(vec)
                src = ref.nsources
                accepted = ech.insert(vec)
                assert accepted == ref.insert(vec)
                if accepted:
                    row_of[src] = ech.rank - 1
                inserted.append(vec)
                assert [_items(r) for r in ech.rows] == \
                    [_items(r) for r in ref.rows]
                assert ech.pivots == ref.pivots and ech.rank == len(ref.rows)
            extra = [_random_combination(rng, inserted) for _ in range(4)]
            for vec in extra + [_random_vector(rng, ncols, density, rational)]:
                got = ech.coordinates(vec)
                assert got == ref_coords(vec)
                assert got is None or list(got) == sorted(got)


def test_rank_mod_prime_matches_exact_rank():
    # a lower bound that the dependencies of random rational vectors
    # do not escape: each combination is dependent mod p as well.  The
    # modular pass and the exact pass of rank() pivot at the highest
    # index; the rank is that of either rule.  A bound one past the
    # count is never met: where a row swells past 32 bits (6 of the 20
    # trials) the modular pass misses it and exact elimination decides
    rng = random.Random(7)
    swelled = 0
    for trial in range(20):
        ncols = rng.choice((6, 16))
        vecs = [_random_vector(rng, ncols, rng.choice((0.2, 0.9)), trial % 2)
                for _ in range(rng.randint(1, ncols))]
        vecs += [_random_combination(rng, vecs) for _ in range(4)]
        rng.shuffle(vecs)
        ranks = {_rank_mod_prime(vecs), rank(vecs), _rank_pass(vecs),
                 rank(vecs, upper=len(vecs) + 1)}
        swelled += _rank_pass(vecs, len(vecs) + 1) is None
        for pick in (min, max):
            ech = SparseEchelon(pick)
            for v in vecs:
                ech.insert(v)
            ranks.add(ech.rank)
        assert len(ranks) == 1, trial
    assert swelled == 6


def _dense_rank_mod_prime(vecs, ncols):
    # rank over GF(p) by dense Gauss elimination, a Fraction read as its
    # numerator over its denominator's inverse mod p
    p = _PRIME
    rows = [[c.numerator * pow(c.denominator, -1, p) % p
             for c in map(Fraction, (v.get(i, 0) for i in range(ncols)))]
            for v in vecs]
    r = 0
    for col in range(ncols):
        piv = next((k for k in range(r, len(rows)) if rows[k][col]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = pow(rows[r][col], -1, p)
        for k in range(r + 1, len(rows)):
            f = rows[k][col] * inv % p
            rows[k] = [(x - f * y) % p for x, y in zip(rows[k], rows[r])]
        r += 1
    return r


def test_rank_mod_prime_matches_dense_elimination_mod_p():
    # the modular pass keeps its residues unreduced and reduces them mod
    # p at the end.  Seeded inputs hold entries that are multiples of p
    # and combinations that are dependent mod p only, whose residues
    # cancel to nonzero multiples of p; such a residue counts for nothing
    p = _PRIME
    rng = random.Random(5)
    below_exact = 0
    for trial in range(30):
        ncols = rng.choice((5, 9))
        vecs = [_random_vector(rng, ncols, 0.6, trial % 3 == 0)
                for _ in range(rng.randint(2, ncols))]
        for v in vecs[:2]:
            v[rng.randrange(ncols)] = p * rng.randint(-2, 2)
        for _ in range(3):
            v = _random_combination(rng, vecs)
            for i in rng.sample(range(ncols), 2):
                v[i] = v.get(i, 0) + p * rng.randint(1, 3)
            vecs.append({i: c for i, c in v.items() if c})
        vecs.append({rng.randrange(ncols): -p})
        rng.shuffle(vecs)
        want = _dense_rank_mod_prime(vecs, ncols)
        assert _rank_mod_prime(vecs) == want, trial
        below_exact += want < rank(vecs, upper=len(vecs) + 1)
    assert below_exact >= 10
