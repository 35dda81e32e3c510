"""Finite-dimensional Leibniz algebras over the rationals.

An algebra is stored by structure constants: bracket(i, j) returns the
coordinates of [e_i, e_j] as {k: coeff} with 1-based indices everywhere;
an integral constant is kept as an int, any other as a Fraction, so the
complexes of integral algebras run on machine-size integers.  The left
Leibniz identity

    [x, [y, z]] = [[x, y], z] + [y, [x, z]]

is checked on all basis triples; validate() reports every failing triple
with both sides so a bad input is diagnosable, not just rejected.

Also here: the two-sided symmetric ideal I with the residue map modulo
it, the quotient Lie algebra (liezation), whose projection matrix and
bracket are read from that map, the left and right coadjoint
actions of g on g*, the double g (+) g* built from them with the
canonical symplectic-style pairing, optional twisting by a scalar
3-cochain, and the anti-invariance checks for bilinear forms.
"""

from fractions import Fraction

from .errors import InputError
from .words import _add_term, _combine


class LeibnizAlgebra:
    """Structure constants of a bracket on Q^dim, 1-based basis indices."""

    __slots__ = ("dim", "name", "_c")

    def __init__(self, dim, brackets, name=None):
        # brackets: {(i, j): {k: coeff}} for the nonzero products
        if not (type(dim) is int and dim >= 1):    # not a bool
            raise InputError(f"dimension must be a positive int, got {dim!r}")
        self.dim = dim
        self.name = name
        c = {}
        for (i, j), comps in brackets.items():
            self._check_index(i)
            self._check_index(j)
            entry = {}
            for k, v in comps.items():
                self._check_index(k)
                v = Fraction(v)
                if v:
                    entry[k] = v.numerator if v.denominator == 1 else v
            if entry:
                c[(i, j)] = entry
        self._c = c

    def _check_index(self, i):
        if not (type(i) is int and 1 <= i <= self.dim):
            raise InputError(
                f"basis index {i!r} out of range 1..{self.dim}")

    def bracket(self, i, j):
        """Coordinates of [e_i, e_j] as {k: int or Fraction}."""
        return self._c.get((i, j), {})

    def symmetrized(self, i, j):
        """Coordinates of [e_i, e_j] + [e_j, e_i], zero entries dropped."""
        return _combine(self.bracket(i, j), self.bracket(j, i))

    def bracket_vectors(self, a, b):
        """Bracket of coordinate vectors {i: coeff}."""
        out = {}
        for i, ca in a.items():
            for j, cb in b.items():
                for k, v in self.bracket(i, j).items():
                    _add_term(out, k, ca * cb * v)
        return out

    def items(self):
        """Nonzero structure entries as ((i, j), {k: coeff}) pairs."""
        return self._c.items()

    def validate(self):
        """Check the left Leibniz identity on all basis triples.

        Returns a ValidationReport listing every failing (i, j, k) with
        the two sides in coordinates.
        """
        failures = []
        for i in range(1, self.dim + 1):
            for j in range(1, self.dim + 1):
                inner = self.bracket(i, j)
                for k in range(1, self.dim + 1):
                    lhs = self.bracket_vectors({i: 1}, self.bracket(j, k))
                    rhs = _combine(
                        self.bracket_vectors(inner, {k: 1}),
                        self.bracket_vectors({j: 1}, self.bracket(i, k)))
                    if lhs != rhs:
                        failures.append(((i, j, k), lhs, rhs))
        return ValidationReport(failures)

    def is_antisymmetric(self):
        for i in range(1, self.dim + 1):
            for j in range(i, self.dim + 1):
                lhs = self.bracket(i, j)
                rhs = {k: -v for k, v in self.bracket(j, i).items()}
                if lhs != rhs:
                    return False
        return True


class ValidationReport:
    __slots__ = ("failures",)

    def __init__(self, failures):
        self.failures = failures

    @property
    def passed(self):
        return not self.failures


def require_leibniz(algebra):
    report = algebra.validate()
    if not report.passed:
        triple = report.failures[0][0]
        raise InputError(
            f"bracket fails the Leibniz identity, e.g. at basis triple {triple}")
    return algebra


def symmetric_ideal(algebra):
    """RREF basis of span{[x,y] + [y,x]}: sparse rows over columns 0..dim-1.

    This span is automatically a two-sided ideal acting trivially on the
    left, so no closure pass is needed.
    """
    from .exactla import rref
    rows = []
    for i in range(1, algebra.dim + 1):
        for j in range(i, algebra.dim + 1):
            v = algebra.symmetrized(i, j)
            if v:
                rows.append({k - 1: c for k, c in v.items()})
    return rref(rows)


def ideal_residue(algebra):
    """The symmetric ideal I and the residue map modulo it.

    Returns (rows, kept, project): rows and the sorted pivots are
    symmetric_ideal's RREF, kept lists the non-pivot coordinates
    (0-based), and project sends a coordinate vector {k(1-based): coeff}
    to its residue modulo I, the coset representative that vanishes at
    the pivots, as {k(1-based): int or Fraction}.  The residues fill the
    span of the basis vectors at kept, a copy of g/I.
    """
    from .exactla import _echelon
    rows, pivots = symmetric_ideal(algebra)
    pivset = set(pivots)
    kept = [j for j in range(algebra.dim) if j not in pivset]
    echelon = _echelon([{k + 1: c for k, c in row.items()} for row in rows])
    return rows, kept, echelon.residue


def liezation(algebra):
    """Quotient by the symmetric ideal: (lie_algebra, projection, kept).

    projection is a (quotient dim) x (dim) matrix of ints or Fractions on
    coordinate columns; the quotient basis is the image of the basis
    vectors at the non-pivot coordinates kept of the ideal's RREF.  The
    projection columns and the quotient bracket are ideal_residue's
    residues, relabelled through kept.
    """
    require_leibniz(algebra)
    _, kept, residue = ideal_residue(algebra)
    pos = {j + 1: t + 1 for t, j in enumerate(kept)}

    def project(vec):
        return {pos[k]: c for k, c in residue(vec).items()}

    # an empty kept would force [g,g] = [I,g] = 0, hence I = 0: impossible
    proj = [[0] * algebra.dim for _ in kept]
    for col in range(algebra.dim):
        for t, c in project({col + 1: 1}).items():
            proj[t - 1][col] = c
    brackets = {}
    for t1, j1 in enumerate(kept):
        for t2, j2 in enumerate(kept):
            img = project(algebra.bracket(j1 + 1, j2 + 1))
            if img:
                brackets[(t1 + 1, t2 + 1)] = img
    quotient = LeibnizAlgebra(len(kept), brackets,
                              name=(algebra.name or "") + "_lie")
    return quotient, proj, kept


def canonical_omega(m):
    """Pairing on the 2m-dim double: omega(x + a, y + b) = <x,b> - <y,a>.

    Returned as a dense 2m x 2m Fraction matrix over the double's basis
    E_1..E_m = e_1..e_m (base), E_{m+1}..E_{2m} = dual basis.
    """
    n = 2 * m
    mat = [[Fraction(0)] * n for _ in range(n)]
    for i in range(m):
        mat[i][m + i] = Fraction(1)
        mat[m + i][i] = Fraction(-1)
    return mat


class BilinearForm:
    """Dense bilinear form on an algebra's coordinate space."""

    __slots__ = ("matrix", "dim")

    def __init__(self, matrix):
        self.matrix = [[Fraction(x) for x in row] for row in matrix]
        self.dim = len(matrix)

    def __call__(self, a, b):
        # a, b: {i(1-based): coeff}
        total = Fraction(0)
        for i, ca in a.items():
            row = self.matrix[i - 1]
            for j, cb in b.items():
                total += ca * cb * row[j - 1]
        return total


def check_anti_invariance(algebra, form):
    """Both anti-invariance identities on all basis triples.

    A1: w(x, [y, z]) = -w([y, x], z)
    A2: w(x, [y, z]) = w([x, z] + [z, x], y)

    Returns {"passed": bool, "failures": [(tag, (i, j, k)), ...]}.
    """
    failures = []
    for i in range(1, algebra.dim + 1):
        ei = {i: 1}
        for j in range(1, algebra.dim + 1):
            for k in range(1, algebra.dim + 1):
                inner = algebra.bracket(j, k)
                lhs = form(ei, inner) if inner else Fraction(0)
                ji = algebra.bracket(j, i)
                r1 = -form(ji, {k: 1}) if ji else Fraction(0)
                if lhs != r1:
                    failures.append(("A1", (i, j, k)))
                mix = algebra.symmetrized(i, k)
                r2 = form(mix, {j: 1}) if mix else Fraction(0)
                if lhs != r2:
                    failures.append(("A2", (i, j, k)))
    return {"passed": not failures, "failures": failures}


def coad_left(algebra, i, a):
    """[e_i, a] for a dual vector a: component on e^j is -sum_k c(i,j,k) a_k."""
    out = {}
    for j in range(1, algebra.dim + 1):
        row = algebra.bracket(i, j)
        total = Fraction(0)
        for k, ak in a.items():
            v = row.get(k)
            if v:
                total -= v * ak
        if total:
            out[j] = total
    return out


def coad_right(algebra, a, i):
    """[a, e_i]: component on e^j is sum_k (c(j,i,k) + c(i,j,k)) a_k."""
    out = {}
    for j in range(1, algebra.dim + 1):
        sym = algebra.symmetrized(j, i)
        total = Fraction(0)
        for k, ak in a.items():
            total += sym.get(k, 0) * ak
        if total:
            out[j] = total
    return out


def require_dim(cochain, dim):
    """Refuse a cochain that is not on Q^dim (lp_coboundary and
    require_twist call it)."""
    if cochain.dim != dim:
        raise InputError("cochain dimension does not match the algebra")


def require_twist(cocycle, dim):
    """Refuse a twist that is not a degree-2 scalar cochain on Q^dim."""
    if cocycle.arity != 3:
        raise InputError("twisting cochains must have degree 2")
    require_dim(cocycle, dim)


def double(algebra, cocycle=None):
    """The double g (+) g* with the coadjoint actions as mixed products.

    Basis: E_1..E_m = e_1..e_m, E_{m+i} = dual vector e^i.  Products:

        [E_i, E_j]      = bracket of g           (i, j <= m)
        [e_i, a]        = coad_left(e_i, a)      (i <= m, a dual)
        [a, e_i]        = coad_right(a, e_i)
        [a, b]          = 0

    cocycle, if given, is a degree-2 dual-valued twist H: the product of
    two base vectors gains the dual-part - sum_l H(i, j, l) e^l, where
    H(i, j, l) are the coefficients of the scalar 3-cochain.  A cocycle
    of another arity or dimension raises InputError.  Returns
    (double_algebra, omega_form).
    """
    if cocycle is not None:
        require_twist(cocycle, algebra.dim)
    require_leibniz(algebra)
    m = algebra.dim
    brackets = {}
    for i in range(1, m + 1):
        for j in range(1, m + 1):
            entry = dict(algebra.bracket(i, j))
            if cocycle is not None:
                for l in range(1, m + 1):
                    h = cocycle.coefficient((i, j, l))
                    if h:
                        entry[m + l] = -h
            if entry:
                brackets[(i, j)] = entry
    for i in range(1, m + 1):
        for a in range(1, m + 1):
            left = coad_left(algebra, i, {a: 1})
            right = coad_right(algebra, {a: 1}, i)
            if left:
                brackets[(i, m + a)] = {m + j: c for j, c in left.items()}
            if right:
                brackets[(m + a, i)] = {m + j: c for j, c in right.items()}
    name = (algebra.name or "g") + "_double"
    if cocycle is not None:
        name += "_twisted"
    dbl = LeibnizAlgebra(2 * m, brackets, name=name)
    omega = BilinearForm(canonical_omega(m))
    return dbl, omega
