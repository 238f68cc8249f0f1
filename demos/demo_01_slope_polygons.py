"""Slope data, polygons and the positive degree.

Walks through the core objects: build slope data from (rank, slope)
segments, list the breakpoints of its concave polygon, and see three routes
to the positive degree agree exactly: the nonnegative-slope sum, the largest
breakpoint height of the polygon, and the integral of the rank filtration.
"""

from fractions import Fraction

from hnbounds import HNType

h = HNType([(2, 3), (1, 0), (2, -2)])
print("segments:", [(r, str(s)) for r, s in h.segments])
print("rank:", h.rank, " degree:", h.degree())

print("\npolygon breakpoints (cumulative rank, cumulative degree):")
for x, y in h.polygon():
    print(f"  ({x}, {y})")

print("\nthree routes to the positive degree:")
print("  sum over nonnegative slopes:", h.deg_plus())
print("  maximum of the polygon:     ", max(y for _, y in h.polygon()))
print("  integral of rank(F^t):      ", h.positive_rank_integral())

print("\nrank of the filtration F^t (closed at each slope):")
for t in [Fraction(4), Fraction(3), Fraction(1), Fraction(0), Fraction(-2), Fraction(-3)]:
    print(f"  t = {t}: rank {h.filtration_rank(t)}")

print("\nslope measure (atom, mass):")
for slope, mass in h.slope_measure():
    print(f"  ({slope}, {mass})")

print("\nduality: mu_max(h) + mu_min(dual h) =",
      (h.slope_extremes()[0] + h.dual().slope_extremes()[1]))

g = HNType([(1, 1), (1, -1)])
t = h.tensor(g)
print("\ntensor with [(1,1),(1,-1)]:",
      [(r, str(s)) for r, s in t.segments])
print("rank multiplies:", t.rank, "=", h.rank, "*", g.rank)
