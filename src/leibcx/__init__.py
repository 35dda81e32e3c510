"""Exact chain and cochain complexes for finite-dimensional Leibniz algebras.

Everything is computed over the rationals with exact arithmetic: the
bracket-word chain complex and its tensor-word companion, the quotient
Lie algebra, the coadjoint double with its canonical pairing, cochains
with the anti-cyclic subcomplex, dual bracket words with contraction,
and the degree-shifted graded Lie algebra on top of the complex.  The
`leibcx` command exposes the same functionality on JSON descriptions of
algebras.

The names in ``__all__`` stay importable from the package, as in
``from leibcx import homology``, but each is resolved from its home
module on first access (PEP 562), so ``import leibcx`` compiles none of
the submodules and a command loads only the modules it runs.
"""

import importlib

__version__ = "0.1.0"

_HOMES = {
    "algebras": ("BilinearForm", "LeibnizAlgebra", "canonical_omega",
                 "check_anti_invariance", "double", "liezation",
                 "require_leibniz", "symmetric_ideal"),
    "battery": ("DGLA", "boundary_apply", "dgla_suite", "intertwining_report",
                "ker2_invariance", "ker2_invariance_reports", "loday_apply",
                "loday_matrix", "omega0"),
    "cochains": ("Cochain", "anti_cyclic_basis", "classify_extension",
                 "is_anti_cyclic", "lp_coboundary", "to_implicit",
                 "from_implicit"),
    "complexes": ("boundary_matrix", "boundary_word_terms", "cohomology",
                  "free_lie_basis", "grading", "homology", "superwitt_dim"),
    "duality": ("DualBracketSum", "contract", "dual_bracket_word",
                "recovery_report", "rotation_sum", "structure_tensors"),
    "errors": ("InputError",),
    "words": ("embedded_word", "projector_report", "super_commutator"),
}
_HOME_OF = {name: module for module, names in _HOMES.items()
            for name in names}

__all__ = sorted(_HOME_OF)


def __getattr__(name):
    module = _HOME_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
