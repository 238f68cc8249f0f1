"""Euclidean lattices: exact counts, minima, and certified inequalities.

Every count comes from exact rational enumeration, every log from certified
interval arithmetic, so each inequality below is a verified statement about
the specific lattice, not a floating-point impression.
"""

import random
from fractions import Fraction

from hnbounds import (
    EuclideanLattice,
    RATIONAL_FIELD,
    check_blichfeldt,
    check_gillet_soule,
    check_minkowski,
    gillet_soule_constant,
    h0_minima_bound,
    random_gram,
)

L = EuclideanLattice([[Fraction(1, 4), 0], [0, 4]])
print("Gram diag(1/4, 4):")
print("  vectors of norm <= 1:", L.h0_count(), " h0_hat ~", round(L.h0_hat().midpoint(), 6))
print("  log minima ~", [round(m.midpoint(), 6) for m in L.successive_minima()])
print("  Euler characteristic ~", round(L.euler_char().midpoint(), 6))
print("  Arakelov degree ~", round(L.arakelov_degree().midpoint(), 6))
print("  slope data:", [(r, round(s.midpoint(), 6)) for r, s in L.orthogonal_hn().segments])
print("  rank-2 maximal slope ~", round(L.rank2_mu_max().midpoint(), 6))

print("\ncertified checks on a random integer lattice:")
rng = random.Random(2024)
M = random_gram(3, rng)
print("  Gram:", [[str(x) for x in row] for row in M.gram])
for check in (check_minkowski, check_blichfeldt, h0_minima_bound):
    rep = check(M)
    print(f"  {rep.name}: pass={rep.passed}  margin ~ {rep.margin.midpoint():.6f}"
          f"  (width {float(rep.margin.width()):.2e})")

print("\ncomparison constant C(Q, n):")
for n in (1, 2, 8):
    print(f"  C(Q, {n}) ~", round(gillet_soule_constant(RATIONAL_FIELD, n).midpoint(), 6))

print("\ncount-vs-degree comparison on diagonal lattices:")
for diag in [(Fraction(1, 4),), (Fraction(1), Fraction(4)), (Fraction(1, 4),) * 4]:
    n = len(diag)
    G = EuclideanLattice([[diag[i] if i == j else 0 for j in range(n)] for i in range(n)])
    rep = check_gillet_soule(G)
    print(f"  diag {tuple(str(d) for d in diag)}: |h0_hat - deg_plus| ~ "
          f"{rep.lhs.midpoint():.4f} <= C(Q,{n}) ~ {rep.rhs.midpoint():.4f}  pass={rep.passed}")
