"""Exact sparse linear algebra over the rationals.

Vectors are dicts {index: Fraction} holding only nonzero entries.  The
workhorse is SparseEchelon, an incremental fraction-free row echelon:
rows are kept as integer dicts and reduction multiplies through by pivot
values instead of dividing, so no Fraction arithmetic happens in the hot
loop.  With track=True each accepted row also carries its expression as
an exact rational combination of the inserted source vectors, which is
what coordinate recovery (membership certificates) uses.

A matrix is a list of such vectors: the columns for boundary maps, the
rows where rref and nullspace say so.  rref and nullspace are thin
canonical read-outs of a SparseEchelon; they return sparse rows too.
"""

from fractions import Fraction
from math import gcd


def _as_int_vector(vec):
    # clear denominators; returns ({i: int}, lcm) with lcm > 0
    items = [(i, c) for i, c in vec.items() if c]
    if not items:
        return {}, 1
    lcm = 1
    for _, c in items:
        q = c.denominator if isinstance(c, Fraction) else 1
        lcm = lcm * q // gcd(lcm, q)
    return {i: int(c * lcm) for i, c in items}, lcm


def _gcd_normalize(row):
    # divide an integer row by the gcd of its entries; make first-seen
    # (smallest index) entry positive; returns (row, divisor) with the
    # sign folded into the divisor
    if not row:
        return row, 1
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
    """Incremental integer row echelon with optional coordinate tracking.

    insert(vec) reduces vec against the stored rows; if a nonzero residue
    remains it becomes a new row and insert returns True, otherwise False.
    rank == number of stored rows.  With track=True, coordinates(vec)
    returns {source_index: Fraction} expressing vec over the accepted and
    rejected insertions alike (every insert() call is a source), or None
    when vec is outside the span.
    """

    def __init__(self, track=False):
        self.rows = []        # list of integer dicts, one pivot each
        self.pivots = {}      # pivot index -> row position
        self._rowpiv = []     # row position -> pivot index
        self.track = track
        self._exprs = []      # row -> {source: Fraction}, only if track
        self.nsources = 0

    @property
    def rank(self):
        return len(self.rows)

    def _reduce(self, vec):
        # returns (residue, scale, gamma) with
        #   scale * vec == residue + sum_k gamma[k] * rows[k]
        # residue has no entry at any stored pivot; all integer.
        # Rows must be applied in insertion order: row k is clean at the
        # pivots of rows < k, so later rows absorb anything row k adds.
        res, scale0 = _as_int_vector(vec)
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
        if self.track:
            # res = (scale/div) * vec - sum (gamma_k/div) * rows[k]
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
        piv = min(res)
        self.pivots[piv] = len(self.rows)
        self._rowpiv.append(piv)
        self.rows.append(res)
        return True

    def residue(self, vec):
        """Reduced form of vec against the stored rows, as Fractions."""
        res, scale, _ = self._reduce(vec)
        return {i: Fraction(c, scale) for i, c in res.items() if c}

    def contains(self, vec):
        res, _, _ = self._reduce(vec)
        return not any(res.values())

    def coordinates(self, vec):
        """Express vec over the inserted sources; None if outside the span."""
        if not self.track:
            raise RuntimeError("echelon built without track=True")
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


def _echelon(rows):
    ech = SparseEchelon()
    for r in rows:
        ech.insert(r)
    return ech


def rank(rows):
    """Rank of a list of sparse vectors (dicts)."""
    return _echelon(rows).rank


def rref(rows):
    """Reduced row echelon form of a list of sparse rows.

    Returns (reduced_rows, pivot_cols): the nonzero rows of the RREF as
    {col: Fraction} dicts, each with entry 1 at its pivot, in increasing
    pivot order, and the sorted pivot column indices.  The RREF is
    unique, so it does not depend on the order of the input rows.
    """
    ech = _echelon(rows)
    pivots = sorted(ech.pivots)
    reduced = {}
    # a row only has entries at or right of its pivot, so clearing the
    # later pivots from right to left leaves every row fully reduced
    for p in reversed(pivots):
        row = ech.rows[ech.pivots[p]]
        red = {i: Fraction(c, row[p]) for i, c in row.items()}
        for q in [i for i in red if i in reduced]:
            c = red[q]
            for i, v in reduced[q].items():
                nv = red.get(i, 0) - c * v
                if nv:
                    red[i] = nv
                else:
                    red.pop(i, None)
        reduced[p] = red
    return [reduced[p] for p in pivots], pivots


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
