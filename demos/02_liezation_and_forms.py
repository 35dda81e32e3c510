"""The maximal Lie quotient and the space of invariant bilinear forms.

Two counting theorems made concrete:
  * HA_0 equals the dimension of the maximal Lie quotient (divide out
    the ideal generated by the squares [x, x]);
  * for a Lie algebra, HA_1 equals the dimension of symmetric invariant
    bilinear forms.
"""

from leibcx import catalog
from leibcx.algebras import liezation, symmetric_ideal
from leibcx.complexes import homology, omega0

for name in ("L2", "N3", "doubleL2"):
    alg = catalog.get(name)
    quotient, projection, kept = liezation(alg)
    rows, pivots = symmetric_ideal(alg)
    print(f"{name}: dim {alg.dim}, squares generate an ideal of dim "
          f"{len(rows)}, Lie quotient has dim {quotient.dim} "
          f"(kept basis classes {[k + 1 for k in kept]})")
    ha0 = homology(alg, max_degree=2)["HA"][0]
    print(f"    HA_0 = {ha0}  (= quotient dimension)")
    # the ideal's reduced echelon basis, as sparse rows {column: value}
    shown = [{col: str(c) for col, c in row.items()} for row in rows]
    print(f"    ideal basis rows {shown}, pivot columns {pivots}")

# sl2 is already Lie, so the quotient is sl2 itself...
sl2 = catalog.get("sl2")
quotient, projection, kept = liezation(sl2)
print(f"\nsl2: ideal of squares is zero, quotient dim {quotient.dim}, "
      f"projection {projection}")

# ... and its invariant forms are spanned by the Killing form alone.
for name in ("sl2", "heis3", "abelian3"):
    alg = catalog.get(name)
    w = omega0(alg)
    ha1 = homology(alg, max_degree=3)["HA"][1]
    print(f"{name}: invariant symmetric forms dim {w['dim']} "
          f"(from {w['relations']} relations of rank {w['rank']}); "
          f"HA_1 = {ha1}")
