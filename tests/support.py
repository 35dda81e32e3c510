"""References the tests compare the package against; the package never
reads them."""

from itertools import product
from math import factorial

from leibcx.algebras import coad_left, coad_right
from leibcx.battery import DRElement
from leibcx.cochains import Cochain
from leibcx.complexes import boundary_matrix
from leibcx.exactla import nullspace, transpose
from leibcx.words import (_add_term, _combine, _extend, embedded_word,
                          tensor_words)


def kernel2_basis(algebra):
    """Canonical basis of Ker(del_2) in F^2 coordinates, sparse vectors.

    The reference for the kernel data of ker2_invariance.
    """
    cols = boundary_matrix(algebra, 2)
    return nullspace(transpose(cols, algebra.dim), len(cols))


def slice_element(sl, coords):
    """The bracket-word term dict with the given coordinates over sl."""
    return {sl.words[p]: c for p, c in coords.items() if c}


def dual_differential(algebra, f, arity):
    """Differential of a dual-valued cochain, arity n -> n+1.

    f is {(word, l): coeff}, the coefficient of the dual basis vector
    e^l in the value at a length-n word; so is the result.

    (d f)(x_1..x_{n+1}) = [f(x_1..x_n), x_{n+1}]
        + sum_{i=1..n} (-1)^(i+n) [x_i, f(x_1..^i..x_{n+1})]
        - sum_{i<j}    (-1)^(i+n) f(x_1..^i.., [x_i,x_j], ..x_{n+1})

    (Loday and Pirashvili, Math. Ann. 296, 1993), with the brackets of
    dual and basis vectors the coadjoint actions.  The reference for
    the lowering identity: lp_coboundary(lower f) equals (-1)^n times
    lower(d f) for every bilinear bracket.
    """
    n = arity
    values = {}
    for (w, l), c in f.items():
        values.setdefault(w, {})[l] = c
    out = {}
    for w in tensor_words(algebra.dim, n + 1):
        val = {}
        head = values.get(w[:n])
        if head:
            for j, c in coad_right(algebra, head, w[n]).items():
                _add_term(val, j, c)
        for i0 in range(n):
            fv = values.get(w[:i0] + w[i0 + 1:])
            if fv:
                for j, c in coad_left(algebra, w[i0], fv).items():
                    _add_term(val, j, (-1) ** (i0 + 1 + n) * c)
        for i0 in range(n + 1):
            sign = (-1) ** (i0 + n)  # minus times (-1)^(i+n), 1-based i
            for j0 in range(i0 + 1, n + 1):
                for k, cb in algebra.bracket(w[i0], w[j0]).items():
                    nw = w[:i0] + w[i0 + 1:j0] + (k,) + w[j0 + 1:]
                    for l, c in values.get(nw, {}).items():
                        _add_term(val, l, sign * cb * c)
        for l, c in val.items():
            out[(w, l)] = c
    return out


def lower(f, arity, dim):
    """Scalar shadow of a dual-valued cochain against the double pairing.

    (lower f)(x_1..x_n, x) = pairing(f(x_1..x_n), x) = -<x, f(...)>, so
    the coefficient at word + (l,) is minus the dual coefficient; f is
    {(word, l): coeff} of the given arity, the result a Cochain.
    """
    return Cochain(arity + 1, dim, {w + (l,): -c for (w, l), c in f.items()})


def dr_sum(*elements):
    """The sum of graded elements (DRElement), part by part.

    The battery adds into one accumulator and has no element sum; the
    saboteurs, this module's ordered sweep and the tests add with this.
    """
    gl, terms = {}, {}
    for x in elements:
        gl, terms = _combine(gl, x.gl), _combine(terms, x.terms)
    return DRElement(gl, terms)


def ordered_dgla_sweeps(dg):
    """Jacobi and derivation failures of a DGLA over every ordering.

    Sweeps every ordered triple (for Jacobi) and pair (for the
    derivation rule) of dg.basis() elements within the cutoff, in index
    order, bracketing afresh at each; returns {"jacobi": [...],
    "derivation": [...]}, each failure the tuple of its elements' reprs.
    The reference for dgla_suite, which decides both identities on one
    ordering per orbit once antisymmetry holds.
    """
    br, d, N = dg.bracket, dg.differential, dg.N
    parity, el = zip(*dg.basis())
    out = {"jacobi": [], "derivation": []}
    for i, j in product(range(len(el)), repeat=2):
        if parity[i] + parity[j] > N:
            continue
        a, b = el[i], el[j]
        if d(br(a, b)) != dr_sum(br(d(a), b),
                                 (-1) ** parity[i] * br(a, d(b))):
            out["derivation"].append((repr(a), repr(b)))
        sign = (-1) ** (parity[i] * parity[j])
        for k, c in enumerate(el):
            if parity[i] + parity[j] + parity[k] <= N and \
                    br(a, br(b, c)) != dr_sum(br(br(a, b), c),
                                              sign * br(b, br(a, c))):
                out["jacobi"].append((repr(a), repr(b), repr(c)))
    return out


def projector_sweep(alphabet, max_length):
    """The projector identity checked word by word over an alphabet.

    Every word w over 1..alphabet of length n up to max_length must
    satisfy _extend(eps{w}, eps) == n * eps{w}; returns the failing words.
    The reference for projector_report, which checks one word of
    distinct letters per length.
    """
    failures = []
    for n in range(1, max_length + 1):
        for w in tensor_words(alphabet, n):
            e = embedded_word(w)
            if _extend(e, embedded_word) != {tw: n * c for tw, c in e.items()}:
                failures.append(w)
    return failures


def superwitt_multidegree_dim(alpha):
    """dim F_alpha, the bracket words of letter multidegree alpha.

    alpha[i] counts letter i + 1.  The multigraded super-Witt identity,
    for |alpha| = n,

        sum over d | gcd(alpha) of (-1)^(n/d) (n/d) dim F_(alpha/d)
            = (-1)^n n! / prod alpha_i!,

    is solved for its d = 1 term (Witt 1937 in its super form;
    Petrogradsky 2000; Reutenauer, Free Lie Algebras, ch. 4).  The
    reference for the multidegree counts of free_lie_basis, whose sums
    are the dimensions of the weight blocks homology ranks.
    """
    n = sum(alpha)
    rhs = factorial(n)
    for a in alpha:
        rhs //= factorial(a)
    rest = sum((-1) ** (n // d) * (n // d)
               * superwitt_multidegree_dim(tuple(a // d for a in alpha))
               for d in range(2, n + 1) if all(a % d == 0 for a in alpha))
    return ((-1) ** n * rhs - rest) // ((-1) ** n * n)
