"""Bracket words inside tensor words, and their dual expansions.

The right-nested bracket word {x1, ..., xn} embeds into tensor words by
the two-sided recursion; re-bracketing each tensor factor and expanding
again just multiplies by n (the projector identity).  Dual expansions
peel letters off both ends, and their signed rotation sums vanish.
"""

from fractions import Fraction

from leibcx.duality import (DualBracketSum, contract, dual_bracket_word,
                            rotation_sum, rotation_sum_report)
from leibcx.words import embedded_word, projector_report

print("embedding of {1,2}:   ", dict(embedded_word((1, 2))))
print("embedding of {1,1}:   ", dict(embedded_word((1, 1))))
print("embedding of {1,2,3}: ", dict(sorted(embedded_word((1, 2, 3)).items())))
print("embedding of {1,1,1}: ", dict(embedded_word((1, 1, 1))), "(vanishes)")

rep = projector_report(max_length=6)
print("\nre-bracketing scales by the length, words over alphabets to 3 "
      f"and lengths to {rep['max_length']}: {rep['passed']}")

# Dual expansion: peel the first letter forward, the last one backward.
print("\ndual expansion of {1,2,3}*:",
      dict(sorted(dual_bracket_word((1, 2, 3)).items())))

# Contracting with a functional removes a letter from either end; the
# symbolic sum keeps the intermediate results as shorter bracket words.
s = DualBracketSum({(1, 2, 3): 1})
once = contract({1: Fraction(1)}, s)
print("i_f {1,2,3}* (f = dual of letter 1):", once)
twice = contract({2: Fraction(1)}, once)
print("contracting once more with the dual of 2:", twice)
print("as a coordinate vector:", twice.as_vector())

# Signed rotation sums of dual expansions vanish identically.
total = rotation_sum((1, 2, 3, 4))
print("\nsigned rotation sum of {1,2,3,4}*:", total)
print("its tensor expansion:", rotation_sum((1, 2, 3, 4)).expansion())
rep = rotation_sum_report(max_length=5)
print("vanishes for every word up to length 5:", rep["passed"])
print("unsigned sums survive only at lengths:",
      sorted(len(w) for w in rep["unsigned_nonzero"]))
