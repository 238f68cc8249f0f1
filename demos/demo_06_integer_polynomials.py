"""Counting integer polynomials of sup norm at most 1 on the unit circle.

The coefficient sandwich max|a_k| <= ||p|| <= sum|a_k| confines them to
coefficients in {-1, 0, 1}; sum|a_k| <= 1 accepts zero and the signed
monomials, and Parseval, ||p||^2 >= sum a_k^2 >= 2, rejects every other
candidate.  So the count is 2n + 3, which p1z_h0 returns in closed form up
to degree 64; the tests enumerate the 3^(n+1) candidates as its oracle.
Single norms are certified without trigonometry: |p(e^{it})|^2 is an
integer polynomial in cos t, and exact Bernstein subdivision brackets its
maximum in rationals until the square root is as narrow as asked.
"""

from fractions import Fraction

from hnbounds import IntPolynomial, circle_sup_norm, p1z_h0

print("certified sup norms on |z| = 1:")
for coeffs in [(1,), (0, 0, 1), (1, 1), (1, 1, 1), (0, -1, 1), (1, 0, -1, 1)]:
    p = IntPolynomial(coeffs)
    lo, hi = circle_sup_norm(p, Fraction(1, 1000)).bounds()
    print(f"  {coeffs}: norm in [{float(lo):.6f}, {float(hi):.6f}]")

print("\nunit-ball counts with their minima-bound reports:")
for n in range(5):
    count, rep = p1z_h0(n)
    print(f"  degree <= {n}: count = {count}  "
          f"ln(count) ~ {rep.lhs.midpoint():.4f} <= bound ~ {rep.rhs.midpoint():.4f}"
          f"  pass={rep.passed}")

print("\nwhy nothing besides monomials survives: any two nonzero integer")
print("coefficients force a mean square >= 2 on the circle, so the norm is")
print("at least sqrt(2) by Parseval; an integer test certifies it.")
