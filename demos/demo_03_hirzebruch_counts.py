"""Hirzebruch surfaces: pushforwards, lattice points and the tight bound.

The line bundle O(a f + b s) on the surface F_e pushes forward to P^1 as a
split bundle with twists a - e*j, so its section count is both a sum of
monomial counts and the number of lattice points of a trapezoid.  The
degree-one rank bound volume/2! + epsilon is tight on P^1 x P^1 (e = 0) and
has margin exactly e*b/2 in general.
"""

from hnbounds import FiberedSeries, check_filtered, check_toric_family

for (a, b, e) in [(2, 3, 0), (3, 2, 1), (6, 3, 2)]:
    F = FiberedSeries(a, b, e)
    E1 = F.pushforward(1)
    trap = F.trapezoid()
    print(f"(a, b, e) = ({a}, {b}, {e})")
    print("  pushforward twists:", E1.twists)
    # columns y = 0..b of {0 <= x <= a - e y} hold a - e y + 1 points each
    points = (b + 1) * (a + 1) - e * b * (b + 1) // 2
    print("  h0 =", E1.h0(), " lattice points of the trapezoid:", points)
    print("  normalized volume:", trap.volume(),
          "= 2 * integral of filtered volumes:", F.volume_via_fibers())

    rep = check_toric_family(F)
    print(f"  bound check: {rep.lhs} <= {rep.rhs}"
          f"  margin = {rep.margin} (= e*b/2)")

    filt = check_filtered(F)
    print(f"  filtered check: {filt.lhs} <= {filt.rhs}"
          f"  (lhs equals deg_plus: {filt.context['lhs_equals_deg_plus']})")
    print()

print("asymptotic slope is read off the pushforwards exactly:")
F = FiberedSeries(5, 2, 2)
for n in (1, 2, 4, 8):
    mu_n = F.pushforward(n).hn_type().slope_extremes()[0]
    print(f"  mu_max(E_{n})/{n} = {mu_n}/{n} = {mu_n // n}")
