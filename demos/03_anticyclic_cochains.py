"""Anti-cyclic cochains: the subcomplex where cohomology mirrors homology.

A scalar cochain A of arity n is anti-cyclic when evaluating it on the
tensor expansion of the bracket word {x1..xn} just rescales it by n.
These form a subspace of dimension dim F^n, the differential preserves
it, and in the induced coordinates the coboundary matrix is exactly the
transpose of the boundary matrix two degrees up.
"""

from leibcx import catalog
from leibcx.cochains import (anti_cyclic_basis, classify_extension,
                             cohomology, from_implicit, is_anti_cyclic,
                             subcomplex_report, to_implicit)
from leibcx.complexes import homology

L2 = catalog.get("L2")

# Degree 1 (arity 2) anti-cyclic basis over a 2-dimensional algebra.
basis = anti_cyclic_basis(2, 1)
print("anti-cyclic basis in arity 2, dim 2:")
for k, A in enumerate(basis):
    print(f"  A_{k}: coefficients {dict(sorted(A.coeffs.items()))}, "
          f"anti-cyclic: {is_anti_cyclic(A)}")

# Implicit coordinates: values on the bracket-word basis of the slice.
A = 3 * basis[0] - 2 * basis[1]
vec = to_implicit(A)
print("implicit coordinates of 3*A_0 - 2*A_1:", vec)
print("round trip reproduces the cochain:",
      from_implicit(vec, 2, 1) == A)

# The coboundary matrix in implicit coordinates is the transposed
# boundary matrix of the chain complex, so coboundary_matrix_on_anti_cyclic
# computes it that way.  The certificate computes the coboundary word by
# word instead and checks both halves of the theorem: the subspace is
# preserved and the matrix agrees with the transpose.
for degree in (0, 1, 2):
    cert = subcomplex_report(L2, degree)
    print(f"degree {degree}: subspace preserved: {cert['preserved']}, "
          f"matrix == boundary transpose: {cert['transpose']}")

# Consequently the cohomology table equals the homology table.
up = cohomology(L2, max_degree=5)["HA"]
down = homology(L2, max_degree=5)["HA"]
print("L2 cohomology HA^n:", {n: up[n] for n in range(4)})
print("L2 homology   HA_n:", {n: down[n] for n in range(4)})

# Degree-2 classes classify abelian extensions.  On the 2-dimensional
# abelian algebra the space of classes is 2-dimensional, and the two
# implicit basis directions are independent classes.
ab2 = catalog.get("abelian2")
for vec in ([1, 0], [0, 1]):
    h = from_implicit(vec, 2, 2)
    cls = classify_extension(ab2, h)
    print(f"abelian2 twist {vec}: closed {cls['closed']}, "
          f"trivial {cls['trivial']}, class {cls['class']} "
          f"in a space of dim {cls['h2_dim']}")
