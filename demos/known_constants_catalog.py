"""The catalog of closed-form monic integer Chebyshev constants.

Values are exact pairs (r, k) meaning r**(1/k) in a unique canonical
form, so identities like "the double unit interval's constant is
1/sqrt(2)" are machine-checkable without floating point.
"""
from fractions import Fraction as F

from monicheb import (
    ConstantValue,
    finite_set_constant,
    interval_constant,
    point_constant,
    surd_pair_constant,
    transform_constant,
)

print("Single points: a reduced a/b contributes 1/b, integers contribute 0:")
for p in (F(3, 7), F(1, 2), F(5)):
    print(f"  t_M({{{p}}}) = {point_constant(p)}")
print()

print("Finite sets take the max of the reciprocals:")
print(f"  t_M({{1/2, 2/3}}) = {finite_set_constant([F(1, 2), F(2, 3)])}")
print(f"  t_M({{1/3, 2/3, 1/7}}) = {finite_set_constant([F(1, 3), F(2, 3), F(1, 7)])}")
print()

print("Interval shapes with known exact constants:")
cases = [
    (F(0), F(1, 2)),
    (F(0), F(1, 5)),
    (F(4, 5), F(1)),
    (F(-1, 3), F(1, 3)),
    ("-1/sqrt(2)", "1/sqrt(2)"),
    (F(3), F(4)),
    (F(-1), F(1)),
    ("(1-sqrt(2))/2", "(1+sqrt(2))/2"),
    (F(0), F(4)),
    (F(-3), F(9, 2)),
]
for lo, hi in cases:
    value, provenance = interval_constant(lo, hi)
    print(f"  [{lo}, {hi}] -> {value}   ({provenance})")
print()

print("Off the catalog the honest answer is unknown; that territory is")
print("exactly the open conjecture:")
print(f"  [1/3, 2/5] -> {interval_constant(F(1, 3), F(2, 5))}")
print()

print("Monic polynomial preimages transform constants predictably:")
quarter = ConstantValue(F(1, 4))
print(f"  1/4 pulled back through x(1-x): {transform_constant(quarter, 'logistic')}")
half = ConstantValue(F(1, 2))
print(f"  1/2 pulled back through x^2:    {transform_constant(half, 'square')}")
print(f"  conjugate surd pair {{+-1/sqrt(2)}}: {surd_pair_constant(2)}")
