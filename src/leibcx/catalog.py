"""Built-in algebras used by the test battery and the CLI catalog command.

Every entry is constructed fresh on each lookup (algebras are mutable-free
but callers may hold references).  LIE_SUBALGEBRAS lists, per entry, basis
subsets that span Lie subalgebras (antisymmetric, closed); these feed the
kernel-invariance checks.  B1 deliberately fails the Leibniz identity and
exists to exercise error paths.
"""

from .algebras import LeibnizAlgebra, double
from .errors import InputError


def _abelian(n):
    return LeibnizAlgebra(n, {}, name=f"abelian{n}")


def _l2():
    return LeibnizAlgebra(2, {(1, 1): {2: 1}}, name="L2")


def _n3():
    return LeibnizAlgebra(3, {(1, 1): {2: 1}, (1, 2): {3: 1}}, name="N3")


def _b1():
    # [e1, e1] = e1 breaks the Leibniz identity at (1, 1, 1)
    return LeibnizAlgebra(1, {(1, 1): {1: 1}}, name="B1")


def _sl2():
    # basis h, e, f
    return LeibnizAlgebra(3, {
        (1, 2): {2: 2}, (2, 1): {2: -2},
        (1, 3): {3: -2}, (3, 1): {3: 2},
        (2, 3): {1: 1}, (3, 2): {1: -1},
    }, name="sl2")


def _heis3():
    return LeibnizAlgebra(3, {(1, 2): {3: 1}, (2, 1): {3: -1}}, name="heis3")


def _double_l2():
    dbl, _ = double(_l2())
    dbl = LeibnizAlgebra(dbl.dim, dict(dbl.items()), name="doubleL2")
    return dbl


_BUILDERS = {
    "abelian1": lambda: _abelian(1),
    "abelian2": lambda: _abelian(2),
    "abelian3": lambda: _abelian(3),
    "abelian4": lambda: _abelian(4),
    "L2": _l2,
    "N3": _n3,
    "B1": _b1,
    "sl2": _sl2,
    "heis3": _heis3,
    "doubleL2": _double_l2,
}

# entries that satisfy the Leibniz identity, in catalog order
VALID_NAMES = ("abelian1", "abelian2", "abelian3", "abelian4",
               "L2", "N3", "sl2", "heis3", "doubleL2")

ALL_NAMES = VALID_NAMES + ("B1",)

# known Lie subalgebras by 1-based basis index subsets
LIE_SUBALGEBRAS = {
    "abelian1": ((1,),),
    "abelian2": ((1,), (2,), (1, 2)),
    "abelian3": ((1,), (1, 2), (1, 2, 3)),
    "abelian4": ((1,), (1, 2), (1, 2, 3, 4)),
    "L2": ((2,),),
    "N3": ((2, 3), (3,)),
    "B1": (),
    "sl2": ((1,), (2,), (3,), (1, 2), (1, 3), (1, 2, 3)),
    "heis3": ((3,), (1, 3), (2, 3), (1, 2, 3)),
    "doubleL2": ((3, 4), (2, 3), (2, 4), (2, 3, 4)),
}


def names():
    return list(ALL_NAMES)


def get(name):
    builder = _BUILDERS.get(name)
    if builder is None:
        known = ", ".join(ALL_NAMES)
        raise InputError(f"unknown catalog algebra {name!r}; known: {known}")
    return builder()


def lie_subalgebras(name):
    return LIE_SUBALGEBRAS.get(name, ())
