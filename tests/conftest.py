import itertools
import random
from fractions import Fraction

import pytest

from hnbounds import HNType, Scalar, SplitBundle, cli


def random_hn_type(rng, max_segments=4, rational=True):
    """Random valid slope data with strictly decreasing Fraction slopes."""
    k = rng.randint(1, max_segments)
    slopes = set()
    while len(slopes) < k:
        slopes.add(Fraction(rng.randint(-40, 40), rng.randint(1, 8)))
    slopes = sorted(slopes, reverse=True)
    return HNType((rng.randint(1, 4), Scalar.exact(s)) for s in slopes)


def random_split_bundle(rng, max_rank=10, twist_range=10):
    rank = rng.randint(1, max_rank)
    return SplitBundle(rng.randint(-twist_range, twist_range) for _ in range(rank))


@pytest.fixture(autouse=True)
def no_warm_pool_across_tests():
    """Close and reap cli's warm workers after each test.

    They are forked once, so workers left by one test would run the next
    test's checks with the first test's monkeypatches in place.
    """
    yield
    cli._drop_pool()


@pytest.fixture
def rng():
    return random.Random(20240811)


def leibniz_det(m):
    """Determinant by the permutation expansion: an oracle free of elimination."""
    n = len(m)
    total = Fraction(0)
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = Fraction(-1 if inversions % 2 else 1)
        for i in range(n):
            term *= m[i][perm[i]]
        total += term
    return total
