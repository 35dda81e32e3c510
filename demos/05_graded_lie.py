"""The shifted graded Lie algebra attached to a Leibniz bracket.

Degree 0 carries the maximal Lie quotient, degree -n carries the
bracket-word slice F^n, and the differential D is a square-zero
derivation of degree +1.  The original bracket comes back as the
derived bracket [Dx, y], computed entirely in the graded object.
"""

from leibcx import catalog
from leibcx.complexes import DGLA, dgla_suite

L2 = catalog.get("L2")
dg = DGLA(L2, max_degree=4)
print("component dimensions (degree: dim):", dg.component_dims())

x1 = dg.word_element((1,))
x2 = dg.word_element((2,))
print("\nD of the degree -1 generator x1:", dg.differential(x1))
print("derived bracket [Dx1, x1]:", dg.bracket(dg.differential(x1), x1))

# Words of length 2 live in degree -2; the differential sends them to
# boundary values and the bracket obeys the graded Jacobi identity.
w = dg.word_element((1, 1))
print("\nD{1,1} =", dg.differential(w))
print("[x1, x2] in the graded algebra:", dg.bracket(x1, x2))

# Nine identities, checked over the whole truncated basis.
for name in ("L2", "N3", "sl2"):
    rep = dgla_suite(DGLA(catalog.get(name), max_degree=4))
    verdict = all(r["passed"] for r in rep.values())
    print(f"\n{name}: all {len(rep)} graded identities hold: {verdict}")
    for check, r in rep.items():
        print(f"    {check:<24} {r['passed']}")
