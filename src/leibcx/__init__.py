"""Exact chain and cochain complexes for finite-dimensional Leibniz algebras.

Everything is computed over the rationals with exact arithmetic: the
bracket-word chain complex and its tensor-word companion, the quotient
Lie algebra, the coadjoint double with its canonical pairing, cochains
with the anti-cyclic subcomplex, dual bracket words with contraction,
and the degree-shifted graded Lie algebra on top of the complex.  The `leibcx` command exposes the same functionality on
JSON descriptions of algebras.
"""

from .algebras import (BilinearForm, LeibnizAlgebra, canonical_omega,
                       check_anti_invariance, double, liezation,
                       require_leibniz, symmetric_ideal)
from .cochains import (Cochain, anti_cyclic_basis, classify_extension,
                       cohomology, is_anti_cyclic, lp_coboundary, to_implicit,
                       from_implicit)
from .complexes import (DGLA, boundary_apply, boundary_matrix,
                        boundary_word_terms, dgla_suite, free_lie_basis,
                        grading, homology, intertwining_report,
                        ker2_invariance, ker2_invariance_reports,
                        loday_apply, loday_matrix, omega0, superwitt_dim)
from .duality import (DualBracketSum, contract, dual_bracket_word,
                      recovery_report, rotation_sum, structure_tensors)
from .errors import InputError
from .words import embedded_word, projector_report, super_commutator

__version__ = "0.1.0"
