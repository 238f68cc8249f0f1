"""Recursive error terms of fibration towers.

A tower is summarized by its genus vector; a graded series contributes
slope and volume vectors.  The error term controlling the degree-one rank
is a downward recursion; its positive-characteristic variant adds an affine
correction per level.  Both behave monotonically and scale no faster than
p^d under passing to p-th power subsystems.
"""

from fractions import Fraction

from hnbounds import AffineFunction, Tower, TowerData, epsilon, epsilon_tilde, rescale

tower = Tower((0, 0))
data = TowerData((2, 3), (12, 3))
print("genus vector:", tower.genera)
print("epsilon =", epsilon(tower, data), " (mu0 + v1 + 1 on a genus-(0,0) surface)")

print("\ngenus raises the term:")
for g0 in range(4):
    t = Tower((g0, 0))
    print(f"  genus ({g0}, 0): epsilon = {epsilon(t, data)}")

print("\nchar-p variant with the default affine correction ell(g) = g + 1:")
print("  epsilon_tilde =", epsilon_tilde(tower, data))
print("  with ell = 0 it degenerates exactly:",
      epsilon_tilde(tower, data, AffineFunction(0, 0)))

print("\nrescaling to the p-th power subsystem (mu -> p mu, v_i -> p^(dim_i) v_i):")
for p in (1, 2, 3, 5):
    scaled = epsilon(tower, rescale(data, p))
    bound = Fraction(p) ** tower.depth * epsilon(tower, data)
    print(f"  p = {p}: epsilon = {scaled} <= p^d * epsilon = {bound}")

print("\na threefold tower, fully exact rationals:")
tower3 = Tower((1, 0, 2))
data3 = TowerData(tuple(Fraction(x, 2) for x in (5, 3, 1)), (30, 8, 5))
print("  epsilon =", epsilon(tower3, data3))
