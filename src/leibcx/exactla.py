"""Exact sparse linear algebra over the rationals.

Vectors are dicts {index: int or Fraction} holding only nonzero entries.
There is one exact engine, SparseEchelon, an incremental fraction-free
row echelon: rows are kept as integer dicts and reduction multiplies
through by pivot values instead of dividing, so no Fraction arithmetic
happens in the hot loop.  Reduction applies the stored rows in insertion
order, but visits only the rows whose pivot the residue reaches (a heap
of row positions, fed as updates create entries at pivots), as in sparse
partial pivoting.
The pivot of a new row is the lowest index of its residue unless the
caller asks for another rule: SparseEchelon(pick=max) takes the highest.
Only the stored rows depend on the rule.  The rank-only eliminations
(rank() and the modular pass) and the bracket-word slices take the
highest index.  On
the lex-ordered columns of the homology blocks it fills in far less:
one top-degree block of 1,960 columns (rank 1,001) ends with 131,691
stored entries under the lowest index and 26,610 under the highest, and
its exact rank takes 48 s against 0.38 s.  rref, nullspace and the
ideal residue keep the lowest index, which their canonical forms need.
Each insert records the multipliers its reduction produced, so row k is
a combination of the k-th accepted vector and the rows before it.
Coordinate recovery (membership certificates, cochain vectors and
extension classes) reduces once, in integers, and then back-substitutes
through these records in Fractions from the highest row down.

A matrix is a list of such vectors: the columns for boundary maps, the
rows where rref and nullspace say so.  rref and nullspace are read-outs
of a SparseEchelon with no elimination of their own: the RREF row at a
pivot p is e_p minus the residue of e_p.  They return sparse rows too.

Beside the engine sits a rank modulo a word-sized prime, a lower bound
on the rank over Q.  rank() uses it only for callers that hold a proven
upper bound (homology, by del o del = 0): when the two meet, the rank is
exact without elimination over Z; otherwise SparseEchelon decides.  The
modular pass reduces lazily: a residue's entries stay unreduced ints
while the stored rows (monic, reduced mod p) are applied, only the
coefficient at each pivot is taken mod p (a row whose coefficient is 0
mod p is skipped), and the residue is reduced once at the end, which
drops its entries that are multiples of p.  Each update adds a product
below p^2, so the ints stay small, and no % runs per entry.
rank() takes any iterable of columns and pulls them one at a time, so a
caller can build its columns on demand: the modular pass stops at the
column that meets the bound, and the exact fallback sees every column.
"""

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm


def _as_int_vector(vec):
    # clear denominators; returns ({i: int}, lcm) with lcm > 0 and no
    # zero entries
    if all(type(c) is int for c in vec.values()):
        return {i: c for i, c in vec.items() if c}, 1
    den = lcm(*(c.denominator for c in vec.values()))
    return {i: c.numerator * (den // c.denominator)
            for i, c in vec.items() if c}, den


def _gcd_normalize(row):
    # divide an integer row by the gcd of its entries; make first-seen
    # (smallest index) entry positive; returns (row, divisor) with the
    # sign folded into the divisor; row is nonzero
    g = 0
    for c in row.values():
        g = gcd(g, c)
    lead = row[min(row)]
    if lead < 0:
        g = -g
    if g != 1:
        row = {i: c // g for i, c in row.items()}
    return row, g


class SparseEchelon:
    """Incremental integer row echelon with coordinate recovery.

    insert(vec) reduces vec against the stored rows; if a nonzero residue
    remains it becomes a new row and insert returns True, otherwise False.
    rank == number of stored rows.  Reduction applies the rows in
    insertion order, but only the rows whose pivot the residue reaches,
    so its cost follows the arithmetic, not the rank.  Row k is the k-th
    accepted insert, reduced: insert records (scale, div, gamma) with
    div * rows[k] = scale * vec - sum_j gamma[j] * rows[j], every j < k.
    coordinates(vec) returns {row k: Fraction} expressing vec over the
    accepted inserts, or None when vec is outside the span; it expands
    each row through its record, highest first, in plain Fractions.
    pick chooses the pivot of a new row among the indices of its
    residue: min (the default) gives the canonical echelon that rref and
    nullspace read; max fills in less on lex-ordered inputs.  The rule
    changes the stored rows and pivots, never which inserts are accepted
    or the coordinates over them.
    """

    def __init__(self, pick=min):
        self.pick = pick
        self.rows = []        # list of integer dicts, one pivot each
        self.pivots = {}      # pivot index -> row position
        self._rowpiv = []     # row position -> pivot index
        self._mults = []      # row position -> (scale, div, gamma)
        self.nsources = 0     # insert() calls, accepted or not

    @property
    def rank(self):
        return len(self.rows)

    def _reduce(self, vec):
        # returns (residue, scale, gamma) with
        #   scale * vec == residue + sum_k gamma[k] * rows[k]
        # residue has no entry at any stored pivot and no zero entry;
        # all integer.  Rows must be applied in insertion order: row k is
        # clean at the pivots of rows < k, so later rows absorb anything
        # row k adds.  Row k is applied only when the residue holds its
        # pivot; the heap starts with the pivots in vec, and an update
        # that writes a new entry at a pivot pushes that (later) row.
        res, scale = _as_int_vector(vec)
        pivots = self.pivots
        heap = [pivots[i] for i in res if i in pivots]
        heapify(heap)
        gamma = {}
        while heap:
            k = heappop(heap)
            piv = self._rowpiv[k]
            c = res.get(piv)
            if not c:
                continue      # cancelled again, or pushed twice
            row = self.rows[k]
            p = row[piv]
            if c % p == 0:
                q = c // p
            else:
                for j in gamma:
                    gamma[j] *= p
                scale *= p
                for i in res:
                    res[i] *= p
                q = c
            for i, rv in row.items():
                v = res.get(i)
                if v is None:
                    res[i] = -q * rv
                    j = pivots.get(i)
                    if j is not None:
                        heappush(heap, j)
                else:
                    v -= q * rv
                    if v:
                        res[i] = v
                    else:
                        del res[i]
            gamma[k] = q
        return res, scale, gamma

    def insert(self, vec):
        self.nsources += 1
        res, scale, gamma = self._reduce(vec)
        if not res:
            return False
        res, div = _gcd_normalize(res)
        self._mults.append((scale, div, gamma))
        piv = self.pick(res)
        self.pivots[piv] = len(self.rows)
        self._rowpiv.append(piv)
        self.rows.append(res)
        return True

    def residue(self, vec):
        """Reduced form of vec against the stored rows: zero at each pivot.

        Entries are ints when the reduction did not scale, else Fractions.
        """
        res, scale, _ = self._reduce(vec)
        if scale == 1:
            return res
        return {i: Fraction(c, scale) for i, c in res.items()}

    def contains(self, vec):
        res, _, _ = self._reduce(vec)
        return not res

    def coordinates(self, vec):
        """{row k: Fraction} with vec = sum_k x[k] (k-th accepted insert),
        in ascending k; None if vec is outside the span."""
        res, den, num = self._reduce(vec)
        if res:
            return None
        # vec = sum_k x[k] rows[k].  Expand the highest pending row into
        # its insert and lower rows by its record; no row above k is
        # pending then, so x[k] is final when popped.
        x = {k: Fraction(c, den) for k, c in num.items()}
        heap = [-k for k in x]
        heapify(heap)
        out = {}
        while heap:
            k = -heappop(heap)
            c = x.pop(k)
            if not c:
                continue
            scale, div, gamma = self._mults[k]
            c /= div
            out[k] = c * scale
            for j, g in gamma.items():
                if j not in x:
                    heappush(heap, -j)
                x[j] = x.get(j, 0) - c * g
        return dict(reversed(out.items()))     # ascending k


def _echelon(rows, pick=min):
    ech = SparseEchelon(pick)
    for r in rows:
        ech.insert(r)
    return ech


_PRIME = 1073741789   # the largest prime below 2**30


def _rank_mod_prime(vectors, stop=None):
    # rank of the vectors reduced modulo _PRIME: a lower bound on their
    # rank over Q, since clearing a vector's denominators only scales it
    # and a minor that is nonzero mod p is nonzero.  Rows are monic and
    # visited as in SparseEchelon._reduce: in insertion order, only the
    # rows whose pivot the residue holds, each pivoting at the highest
    # index of its residue, as rank()'s exact fallback does.  A residue
    # stays unreduced until its rows are applied; only the coefficient at
    # a pivot is reduced first.  Once the rank reaches stop no further
    # vector is pulled.
    p = _PRIME
    rows, rowpiv, pivots = [], [], {}
    if stop == 0:
        return 0
    for vec in vectors:
        res = _as_int_vector(vec)[0]
        heap = [pivots[i] for i in res if i in pivots]
        heapify(heap)
        while heap:
            k = heappop(heap)
            q = res[rowpiv[k]] % p
            if not q:
                continue      # 0 mod p: cancelled, or pushed twice
            for i, rv in rows[k].items():
                v = res.get(i)
                if v is None:
                    res[i] = -q * rv
                    j = pivots.get(i)
                    if j is not None:
                        heappush(heap, j)
                else:
                    res[i] = v - q * rv
        res = {i: c % p for i, c in res.items() if c % p}
        if res:
            piv = max(res)
            inv = pow(res[piv], -1, p)
            pivots[piv] = len(rows)
            rowpiv.append(piv)
            rows.append({i: c * inv % p for i, c in res.items()})
            if len(rows) == stop:
                break
    return len(rows)


def rank(vectors, upper=None):
    """Rank of an iterable of sparse vectors (dicts), pulled once each.

    upper, if given, must be a proven upper bound on the rank, such as
    the one del o del = 0 gives a boundary map.  The rank modulo a prime
    is a lower bound, so when it reaches upper it is the rank, and no
    vector past the one that reaches it is pulled (none when upper is
    0).  Otherwise (nonzero homology, or an unlucky prime) the exact
    elimination runs on every vector: those the modular pass pulled and
    the rest.  Both eliminations pivot at the highest index of each
    residue, which fills in far less than the lowest on the lex-ordered
    columns of the homology blocks.

    The modular pass stays although a block that falls back discards it:
    exact elimination alone, measured cold on a shared 2-CPU host, made
    homology of a dense change of basis of sl2 about 5x slower at degree
    8 and 90x slower at degree 9, where the bound certifies almost every
    block, and gained little or lost where most blocks carry homology (the
    README has the figures).
    """
    vectors = iter(vectors)
    pulled = []     # each vector as the modular pass pulls it
    if upper is not None and _rank_mod_prime(
            (pulled.append(v) or v for v in vectors), upper) == upper:
        return upper
    pulled.extend(vectors)
    return _echelon(pulled, max).rank


def rref(rows):
    """Reduced row echelon form of a list of sparse rows.

    Returns (reduced_rows, pivot_cols): the nonzero rows of the RREF as
    {col: int or Fraction} dicts, each with entry 1 at its pivot, in
    increasing pivot order, and the sorted pivot column indices.  The
    row at pivot p is the one vector of the span with 1 at p and 0 at
    every other pivot, so it is e_p minus the residue of e_p; it does
    not depend on the order of the input rows.
    """
    ech = _echelon(rows)
    pivots = sorted(ech.pivots)
    return [{p: 1, **{i: -c for i, c in ech.residue({p: 1}).items()}}
            for p in pivots], pivots


def nullspace(rows, ncols):
    """Canonical basis of the right kernel of the matrix given by rows.

    Returns one sparse vector per free column, in column order, with
    entry 1 at its free column.
    """
    red, pivots = rref(rows)
    pivset = set(pivots)
    basis = []
    for f in range(ncols):
        if f in pivset:
            continue
        v = {f: Fraction(1)}
        for row, p in zip(red, pivots):
            c = row.get(f)
            if c:
                v[p] = -c
        basis.append(v)
    return basis


def transpose(cols, nrows):
    """Transpose of a matrix with nrows rows; columns in, columns out."""
    out = [{} for _ in range(nrows)]
    for j, col in enumerate(cols):
        for i, c in col.items():
            out[i][j] = c
    return out
