"""Exact verification of slope, volume and lattice-counting inequalities.

The library computes, in exact rational or certified interval arithmetic:

* Harder-Narasimhan slope data, polygons, filtrations and positive degrees
  (:mod:`hnbounds.hn`);
* split vector bundles on the projective line with exact cohomology and
  successive minima (:mod:`hnbounds.curves`);
* toric and Hirzebruch-fibered graded series with exact lattice-point
  counts, volumes and pushforwards (:mod:`hnbounds.series`);
* recursive error terms attached to towers of curve fibrations
  (:mod:`hnbounds.towers`);
* Euclidean lattices with enumeration-backed section counts, successive
  minima and comparison constants (:mod:`hnbounds.lattices`);
* inequality assemblies and machine-readable check reports
  (:mod:`hnbounds.bounds`).

Every inequality check is certified: a report passes only when the margin
is provably nonnegative in exact or interval arithmetic.
"""

from .scalars import CertificationError, Scalar, log_scalar
from .hn import HNType
from .curves import SplitBundle, h0_interval
from .series import FiberedSeries, ToricSeries
from .towers import (
    AffineFunction,
    Tower,
    TowerData,
    epsilon,
    epsilon_tilde,
    rescale,
)
from .lattices import (
    EnumerationBudgetError,
    EuclideanLattice,
    NumberFieldData,
    RATIONAL_FIELD,
    gillet_soule_constant,
    random_gram,
)
from .bounds import (
    CheckReport,
    IntPolynomial,
    PrecisionBudgetError,
    check_blichfeldt,
    check_filtered,
    check_gillet_soule,
    check_minkowski,
    check_toric_family,
    circle_sup_norm,
    geometric_hs_bound,
    h0_minima_bound,
    p1z_h0,
)

__version__ = "0.1.0"

__all__ = [
    "AffineFunction",
    "CertificationError",
    "CheckReport",
    "EnumerationBudgetError",
    "EuclideanLattice",
    "FiberedSeries",
    "HNType",
    "IntPolynomial",
    "NumberFieldData",
    "PrecisionBudgetError",
    "RATIONAL_FIELD",
    "Scalar",
    "SplitBundle",
    "ToricSeries",
    "Tower",
    "TowerData",
    "check_blichfeldt",
    "check_filtered",
    "check_gillet_soule",
    "check_minkowski",
    "check_toric_family",
    "circle_sup_norm",
    "epsilon",
    "epsilon_tilde",
    "geometric_hs_bound",
    "gillet_soule_constant",
    "h0_interval",
    "h0_minima_bound",
    "log_scalar",
    "p1z_h0",
    "random_gram",
    "rescale",
]
