"""Split bundles on the projective line: exact cohomology and minima.

On P^1 a direct sum of line bundles O(a_1) + ... + O(a_r) has every
invariant in closed form.  The gap h0 - deg_plus counts the nonnegative
twists, which is the sharp genus-0 case of the general comparison
|h0 - deg_plus| <= rank * max(g-1, 1).
"""

from hnbounds import SplitBundle, h0_interval

B = SplitBundle([3, 1, 0, -2])
print("twists:", B.twists)
print("h0 =", B.h0(), " degree =", B.degree, " rank =", B.rank)

h = B.hn_type()
print("slope data:", [(r, str(s)) for r, s in h.segments])
print("deg_plus =", h.deg_plus())
print("gap h0 - deg_plus =", B.h0() - h.deg_plus(),
      "= #nonnegative twists =", sum(1 for a in B.twists if a >= 0))

print("\nsuccessive minima (sorted twists):",
      [str(m) for m in B.minima()])
print("lambda_1 equals mu_max:", B.minima()[0],
      "=", h.slope_extremes()[0])

print("\nRiemann-Roch check via duality (omega = O(-2)):")
lhs = B.h0() - B.dual().twist(-2).h0()
print("  h0(B) - h0(dual(B)(-2)) =", lhs, "= deg + rank =", B.degree + B.rank)

print("\ntensor products add twists pairwise:")
C = SplitBundle([1, -1])
print(" ", B.twists, "(x)", C.twists, "=", B.tensor(C).twists)

print("\nbeyond genus 0 only the slope envelope is available:")
for g in (0, 1, 2, 5):
    lo, hi = h0_interval(h, g)
    print(f"  genus {g}: h0 guaranteed in [{lo}, {hi}]")
