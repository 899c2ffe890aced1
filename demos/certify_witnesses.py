"""Rigorous sup-norm certification, from prefilter to exact decision.

The bound |f| <= B on [lo, hi] is decided exactly: B - f and B + f must
both be nonnegative, which integer Bernstein subdivision decides, on each
factor when it is squarefree and on its odd-multiplicity part otherwise,
plus finitely many exact evaluations.
Witnesses attain their bound at an endpoint, so the non-strict handling
matters.
"""
from fractions import Fraction as F

from monicheb import (
    FareyPair,
    IntPoly,
    bernstein_prefilter,
    bundled_table_path,
    decide_sup_bound,
    parse_table_file,
    sup_norm_enclosure,
    verify_witness,
)

pair = FareyPair.from_endpoints(F(1, 3), F(2, 5))
witness = IntPoly([1, -3, 1])  # x^2 - 3x + 1

print(f"Witness x^2 - 3x + 1 on {pair} against bound (1/3)^2 = 1/9:")
record = verify_witness(pair, witness)
for line in record.render():
    print("  " + line)
print()

print("Tighten the bound by any amount and the refutation is exact:")
cert = decide_sup_bound(witness, pair.interval(), F(1, 10))
for line in cert.render():
    print("  " + line)
print(f"  indeed |f(1/3)| = {abs(witness(F(1, 3)))} > 1/10")
print()

print("The Bernstein prefilter is cheap and sound but incomplete:")
pre = bernstein_prefilter(witness, pair.interval(), F(1, 9))
print(f"  prefilter says {pre.verdict.value} at depth {pre.depth}")
print()

print("Two-sided enclosure of the sup norm (Bernstein bounds at the critical points):")
lo, hi = sup_norm_enclosure(witness, pair.interval(), F(1, 10**6))
print(f"  1/9 is inside [{lo}, {hi}], width {hi - lo}")
print()

print("The bundled table re-certifies in well under a second:")
entries = parse_table_file(bundled_table_path())
certified = 0
for entry in entries:
    poly = -entry.poly if entry.poly.coeffs[-1] == -1 else entry.poly
    rec = verify_witness(entry.pair, poly)
    certified += rec.certificate.verdict.value == "certified"
print(f"  {certified}/{len(entries)} entries certified")
