"""Dual bracket words, contraction, and structure tensors of a double.

The dual bracket word on symbols x1..xn expands by peeling either end:

    {x1}* = x1
    {x1..xn}* = x1 (x) {x2..xn}*  -  (-1)^(n-1) xn (x) {x1..x^(n-1)}*

A DualBracketSum keeps a term dict of such words symbolically, because
contraction against a functional acts on the symbolic level: i_f peels
f(x1) off the front and -(-1)^(n-1) f(xn) off the back.  Its expansion()
is the tensor term dict, made on demand.

The signed cyclic rotation sum of a dual bracket word expands to zero;
that vanishing is one of the certified statements.  The mu tensor of a
double packs the structure constants of the base algebra into dual
bracket words over the double's basis symbols, and double contraction
against dual-basis functionals recovers the double's bracket exactly.
"""

from fractions import Fraction

from .algebras import require_twist
from .errors import InputError
from .words import _add_term, _combine, _extend
from .cochains import Cochain


def dual_bracket_word(word):
    """Expansion {word}* as {tensor word: int}."""
    n = len(word)
    if n == 0:
        raise InputError("dual bracket words need at least one symbol")
    if n == 1:
        return {word: 1}
    out = {}
    for w, c in dual_bracket_word(word[1:]).items():
        _add_term(out, (word[0],) + w, c)
    sign = -((-1) ** (n - 1))
    for w, c in dual_bracket_word(word[:-1]).items():
        _add_term(out, (word[-1],) + w, sign * c)
    return out


class DualBracketSum:
    """Rational combination of dual bracket words, kept symbolic.

    terms is a term dict {word: Fraction}; the class lets contract refuse
    anything that is not symbolic."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        for w, c in (terms or {}).items():
            c = Fraction(c)
            if c:
                self.terms[tuple(w)] = c

    @classmethod
    def _raw(cls, terms):
        el = cls.__new__(cls)
        el.terms = terms
        return el

    def expansion(self):
        """The honest tensor term dict behind the symbolic sum."""
        return _extend(self.terms, dual_bracket_word)

    def as_vector(self):
        """Length-1 words as a coordinate vector {symbol: coeff}."""
        out = {}
        for w, c in self.terms.items():
            if len(w) != 1:
                raise InputError("sum is not fully contracted to vectors")
            _add_term(out, w[0], c)
        return out

    def __repr__(self):
        if not self.terms:
            return "DualBracketSum(0)"
        bits = [f"{c}*{{{','.join(map(str, w))}}}*"
                for w, c in sorted(self.terms.items())]
        return " + ".join(bits)


def contract(functional, target):
    """Interior product i_f on a symbolic dual bracket sum.

    functional: {symbol: Fraction}.  On a word of length 1 the result is
    the scalar f(x1) (stored on the empty word); otherwise

        i_f {x1..xn}* = f(x1) {x2..xn}* - (-1)^(n-1) f(xn) {x1..x(n-1)}*.
    """
    if not isinstance(target, DualBracketSum):
        raise TypeError("contract expects a DualBracketSum")
    out = {}
    for w, c in target.terms.items():
        n = len(w)
        if n == 0:
            raise InputError("cannot contract a scalar term")
        if n == 1:
            v = functional.get(w[0], 0)
            if v:
                _add_term(out, (), c * Fraction(v))
            continue
        v = functional.get(w[0], 0)
        if v:
            _add_term(out, w[1:], c * Fraction(v))
        v = functional.get(w[-1], 0)
        if v:
            sign = -((-1) ** (n - 1))
            _add_term(out, w[:-1], sign * c * Fraction(v))
    return DualBracketSum._raw(out)


def rotate(word):
    """One signed cyclic step: last symbol to the front, sign (-1)^(n-1)."""
    w = tuple(word)
    return (-1) ** (len(w) - 1), (w[-1],) + w[:-1]


def rotation_sum(word, signed=True):
    """Sum of the n cyclic rotations of {word}*, optionally signed."""
    w = tuple(word)
    n = len(w)
    out = {}
    sign = 1
    for _ in range(n):
        _add_term(out, w, Fraction(sign))
        s, w = rotate(w)
        if signed:
            sign *= s
    return DualBracketSum._raw(out)


def rotation_sum_report(max_length=5):
    """Certify that signed rotation sums expand to zero.

    Uses distinct symbols 1..n for each length 2..max_length; linearity
    extends the vanishing to arbitrary entries.  The unsigned sums are
    reported alongside (they do not vanish in general).
    """
    if type(max_length) is not int:
        raise InputError("max_length must be an integer")
    failures = []
    unsigned_nonzero = []
    for n in range(2, max_length + 1):
        w = tuple(range(1, n + 1))
        if rotation_sum(w, signed=True).expansion():
            failures.append(w)
        if rotation_sum(w, signed=False).expansion():
            unsigned_nonzero.append(w)
    return {"passed": not failures, "failures": failures,
            "unsigned_nonzero": unsigned_nonzero}


def cartan_form(double_alg, omega):
    """Arity-3 cochain C(a,b,c) = omega([E_a, E_b], E_c) on the double."""
    n = double_alg.dim
    coeffs = {}
    for a in range(1, n + 1):
        for b in range(1, n + 1):
            br = double_alg.bracket(a, b)
            if not br:
                continue
            for c in range(1, n + 1):
                v = omega(br, {c: 1})
                if v:
                    coeffs[(a, b, c)] = v
    return Cochain(3, n, coeffs)


def structure_tensors(double_alg, omega, base_dim, cocycle=None):
    """The packed bracket tensor of a double, and its twisted variant.

    base_dim = m is the dimension of the underlying algebra; the double
    has basis E_1..E_m (base) and E_{m+1}..E_{2m} (duals).  mu collects
    C(i, j, m+k) = c_ijk of the base on the dual bracket word
    (m+i, m+j, k); theta adds one third of the scalar twist on pure dual
    words.  Returns (cartan, mu, theta); theta is mu when no twist.  A
    cocycle of another arity or dimension raises InputError.
    """
    m = base_dim
    if double_alg.dim != 2 * m:
        raise InputError("double dimension must be twice the base dimension")
    if cocycle is not None:
        require_twist(cocycle, m)
    cartan = cartan_form(double_alg, omega)
    mu_terms = {}
    for i in range(1, m + 1):
        for j in range(1, m + 1):
            for k in range(1, m + 1):
                c = cartan.coefficient((i, j, m + k))
                if c:
                    _add_term(mu_terms, (m + i, m + j, k), c)
    mu = DualBracketSum._raw(mu_terms)
    theta = mu
    if cocycle is not None:
        h_terms = {}
        third = Fraction(1, 3)
        for i in range(1, m + 1):
            for j in range(1, m + 1):
                for k in range(1, m + 1):
                    h = cocycle.coefficient((i, j, k))
                    if h:
                        _add_term(h_terms, (m + i, m + j, m + k), third * h)
        theta = DualBracketSum._raw(_combine(mu_terms, h_terms))
    return cartan, mu, theta


def pairing_preimage(p, m):
    """The vector u with omega(u, .) = the p-th dual-basis functional."""
    if 1 <= p <= m:
        return {m + p: Fraction(-1)}
    if m < p <= 2 * m:
        return {p - m: Fraction(1)}
    raise InputError(f"index {p} out of range 1..{2 * m}")


def recovery_report(double_alg, omega, base_dim):
    """Double contraction of mu against all dual-basis functional pairs.

    For every p, q the contraction i_{f_q} i_{f_p} mu must equal the
    double's bracket [u_p, u_q] of the pairing preimages.  Returns a
    report with the failing pairs, if any.
    """
    m = base_dim
    _, mu, _ = structure_tensors(double_alg, omega, m)
    failures = []
    for p in range(1, 2 * m + 1):
        fp = {p: Fraction(1)}
        up = pairing_preimage(p, m)
        first = contract(fp, mu)
        for q in range(1, 2 * m + 1):
            fq = {q: Fraction(1)}
            uq = pairing_preimage(q, m)
            got = contract(fq, first).as_vector()
            want = double_alg.bracket_vectors(up, uq)
            if got != want:
                failures.append((p, q, got, want))
    return {"passed": not failures, "failures": failures}
