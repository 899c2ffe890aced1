"""Finding witnesses from scratch with exact LLL and nearest-plane search.

The degree-n candidates on a Farey interval form a coset: one anchor
polynomial p with the right endpoint values plus the lattice generated
by the products u**j w**(n-3-j) v, with u = b2 x - a2, w = a1 - b1 x and
v = -u w (all vanishing at the endpoints).  Reducing that lattice under
the interval's L2 form and steering toward -p turns witness hunting into
a closest-vector problem.
"""
from fractions import Fraction as F

from monicheb import (
    FareyPair,
    build_search_basis,
    format_poly,
    gram_matrix,
    lll_reduce,
    search_witness,
    verify_witness,
)

pair = FareyPair.from_endpoints(F(1, 3), F(2, 5))
basis = build_search_basis(pair, 4)
print(f"Search basis on {pair} at degree 4:")
print(f"  p = {format_poly(basis.p)}")
print(f"  v = {format_poly(basis.v)}")
print(f"  members: p, w*v, u*v  ({len(basis.members)} total)")
print()

gram = gram_matrix(basis.members, pair.interval())
print("Exact Gram matrix of the full basis under the interval L2 form:")
for row in gram.entries:
    print("   [" + ", ".join(str(x) for x in row) + "]")
reduced = lll_reduce(gram)
print("after LLL, squared Gram-Schmidt lengths:")
print("   " + ", ".join(str(x) for x in reduced.norms))
print()

for lo, hi in ((F(1, 3), F(2, 5)), (F(1, 4), F(2, 7)), (F(2, 5), F(5, 12))):
    p = FareyPair.from_endpoints(lo, hi)
    for degree in range(3, 7):
        try:
            found = search_witness(p, degree, radius=1)
        except Exception:
            continue
        if found is not None:
            record = verify_witness(p, found)
            print(f"{p}: degree-{degree} witness, t_M upper bound {record.tm_upper}")
            print(f"   {format_poly(found)}")
            break
    else:
        print(f"{p}: nothing found up to degree 6 (not a disproof!)")
