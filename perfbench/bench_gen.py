"""Seeded changes of basis of catalog algebras, in exact arithmetic.

``conjugates(names, count, seed, out_dir)`` writes ``count`` algebra JSON
files per catalog name.  Each is the catalog bracket rewritten in a new
basis f_i = sum_a P[a][i] e_a, with P = L U drawn from the seed: L unit
lower and U unit upper triangular with off-diagonal entries +5 or -5, the
signs drawn from the seed.  Such P are invertible over the integers: the
new structure constants are dense and large enough that elimination
dominates a homology run, and every seed gives them the same height
profile.  With entries of varying size the run time of one conjugate
varies by tens of percent from seed to seed, and is heavy-tailed once
entries are general rationals.

The arithmetic here is the benchmark's own (``fractions`` only), and the
files are written by ``json`` with sorted keys, so the same seed gives
byte-identical files.  Every result is loaded back with leibcx's parser and
must pass ``validate()`` before any timing starts.
"""

import json
import os
import random
from fractions import Fraction

ENTRIES = (-5, 5)


def _unit_triangular(rng, n, lower):
    return [[Fraction(1) if i == j else
             Fraction(rng.choice(ENTRIES)) if (i > j) == lower else
             Fraction(0) for j in range(n)] for i in range(n)]


def _matmul(a, b):
    n = len(b)
    return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(len(b[0]))]
            for i in range(len(a))]


def inverse(mat):
    """Gauss-Jordan inverse over Fraction; raises ValueError if singular."""
    n = len(mat)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j))
                                         for j in range(n)]
           for i, row in enumerate(mat)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col]), None)
        if piv is None:
            raise ValueError("singular matrix")
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def random_basis_change(rng, n):
    return _matmul(_unit_triangular(rng, n, True),
                   _unit_triangular(rng, n, False))


def conjugate(dim, brackets, p):
    """Structure constants in the basis given by the columns of p.

    brackets: {(i, j): {k: Fraction}} with 1-based indices.  Returns the
    same shape for [f_i, f_j] = sum_k c'(i, j, k) f_k.
    """
    q = inverse(p)
    out = {}
    for i in range(dim):
        for j in range(dim):
            comps = {}
            for (a, b), vec in brackets.items():
                w = p[a - 1][i] * p[b - 1][j]
                if not w:
                    continue
                for c, v in vec.items():
                    for k in range(dim):
                        x = q[k][c - 1]
                        if x:
                            comps[k + 1] = comps.get(k + 1, 0) + w * v * x
            comps = {k: v for k, v in sorted(comps.items()) if v}
            if comps:
                out[(i + 1, j + 1)] = comps
    return out


def _rational(x):
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else \
        f"{x.numerator}/{x.denominator}"


def algebra_doc(name, dim, brackets):
    return {"name": name, "dim": dim, "brackets": [
        {"left": i, "right": j,
         "value": [[k, _rational(v)] for k, v in sorted(vec.items())]}
        for (i, j), vec in sorted(brackets.items())]}


def conjugates(names, count, seed, out_dir):
    """Write count conjugates of each catalog name; returns [(name, path)]."""
    from leibcx import catalog
    from leibcx.fileio import parse_algebra_file
    rng = random.Random(seed)
    out = []
    for t in range(count):
        for name in names:
            alg = catalog.get(name)
            brackets = {key: dict(vec) for key, vec in alg.items()}
            p = random_basis_change(rng, alg.dim)
            doc = algebra_doc(f"{name}_conj{t}", alg.dim,
                              conjugate(alg.dim, brackets, p))
            path = os.path.join(out_dir, f"{name}_conj{t}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh, sort_keys=True, indent=1)
                fh.write("\n")
            if not parse_algebra_file(path).validate().passed:
                raise RuntimeError(f"{path} fails the Leibniz identity")
            out.append((name, path))
    return out
