"""Building monic integer polynomials with prescribed rational values.

Three constructions, in increasing generality: the closed form for a
consecutive Farey pair, the mediant-extended closed form, and the
inductive construction for arbitrary finite sets of reduced non-integer
rationals (which hits exactly 1/b**n at every point a/b).
"""
from fractions import Fraction as F

from monicheb import (
    FareyPair,
    admissible_degree,
    format_poly,
    mediant,
    multipoint_monic,
    pair_polynomial,
    triple_polynomial,
    DegreeSearchError,
)

pair = FareyPair.from_endpoints(F(1, 3), F(2, 5))
print(f"Closed form on {pair} at degree 4:")
p = pair_polynomial(pair, 4, 1, 1)
print(" ", format_poly(p))
print(f"  value at 2/5 = {p(F(2, 5))}  (= 1/5^4)")
print(f"  value at 1/3 = {p(F(1, 3))}  (= 1/3^4)")
print()

med = mediant(pair)
print(f"Mediant extension also pins the value at {med}:")
t = triple_polynomial(pair, 4, 1, 1, pow(med.numerator, 4, med.denominator), 2)
print(" ", format_poly(t))
for point in (pair.hi, pair.lo, med):
    print(f"  value at {point} = {t(point)}")
print()

print("General finite sets via the inductive construction:")
for points in ([F(2, 3)], [F(1, 2), F(1, 3)], [F(1, 3), F(2, 5), F(1, 2)]):
    n, f = multipoint_monic(points, 1000)
    checks = all(q.denominator**n * f(q) == 1 for q in points)
    shown = format_poly(f) if n <= 6 else f"degree-{n} polynomial"
    print(f"  {[str(q) for q in points]}: degree {n}, {shown}, exact: {checks}")
print()

print("The admissible degree is driven by multiplicative orders and can")
print("explode; the cap turns that into a clean refusal:")
try:
    multipoint_monic([F(1, 4), F(3, 4)], 1000)
except DegreeSearchError as exc:
    print(f"  {{1/4, 3/4}} refused: minimal admissible degree {exc.minimal}")
print(f"  (admissible_degree confirms: {admissible_degree([F(1, 4), F(3, 4)])})")
