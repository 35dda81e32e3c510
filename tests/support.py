"""References the tests compare the package against; the package never
reads them."""

from leibcx.complexes import boundary_matrix
from leibcx.exactla import nullspace, transpose


def kernel2_basis(algebra):
    """Canonical basis of Ker(del_2) in F^2 coordinates, sparse vectors.

    The reference for the kernel data of ker2_invariance.
    """
    cols = boundary_matrix(algebra, 2)
    return nullspace(transpose(cols, algebra.dim), len(cols))
