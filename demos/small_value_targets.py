"""Monic integer polynomials that are tiny at prescribed numeric points.

For conjugation-closed points that are transcendental (or algebraic of
high degree), a monic integer polynomial can be made smaller than any
epsilon at all of them simultaneously.  The construction reads each point
as an exact rational center, reduces the polynomials P of degree < n under
a form that weights the values P(alpha) heavily, and takes Babai's
nearest-plane point toward -x**n, so F = x**n + P is small at every
point; F is verified exactly, never trusted to floats: its Taylor
coefficients at each center bound |F| on a disc that contains the box the
numeric point stands for.
"""
import math
from fractions import Fraction as F

from monicheb import format_poly, small_value_polynomial


def float_value(poly, z):
    acc = 0j
    for c in reversed(poly.coeffs):
        acc = acc * z + c
    return abs(acc)


print("One real target, epsilon = 1/2:")
f = small_value_polynomial([math.pi], F(1, 2), precision=48)
print(f"  {format_poly(f)}")
print(f"  |F(pi)| ~ {float_value(f, math.pi):.6f} < 0.5")
print()

print("A complex-conjugate pair, epsilon = 1/4 (coefficients stay real):")
alpha = complex(0.3, 0.8)
g = small_value_polynomial([alpha, alpha.conjugate()], F(1, 4), precision=48)
print(f"  degree {g.degree}, {format_poly(g)}")
print(f"  |F(alpha)| ~ {float_value(g, alpha):.6f} < 0.25")
print()

print("Two real targets at once, epsilon = 1/4:")
h = small_value_polynomial([math.e, math.pi], F(1, 4), precision=48)
print(f"  degree {h.degree}")
for z in (math.e, math.pi):
    print(f"  |F({z:.5f})| ~ {float_value(h, z):.6f} < 0.25")
print()

print("Three real targets, epsilon = 1/4:")
m = small_value_polynomial([0.1, 0.2, 0.3], F(1, 4), precision=48)
print(f"  {format_poly(m)}")
for z in (0.1, 0.2, 0.3):
    print(f"  |F({z})| ~ {float_value(m, z):.6f} < 0.25")
print()

print("Rational inputs sit outside the theory (a monic integer polynomial")
print("can never beat 1/b**n at a/b) but still get best-effort output:")
k = small_value_polynomial([0.5], F(1, 2), precision=48)
print(f"  {format_poly(k)}, F(1/2) = {k(F(1, 2))}")
