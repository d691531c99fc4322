import random
from fractions import Fraction

import pytest
from hypothesis import settings

from dioph.arith import is_square
from dioph.contfrac import QuadraticAlpha

# property tests draw the same examples on every run
settings.register_profile("dioph", derandomize=True, deadline=None)
settings.load_profile("dioph")


def random_quadratic(rng: random.Random) -> QuadraticAlpha:
    """Random quadratic irrational reduced into the open unit interval."""
    while True:
        d = rng.randint(2, 500)
        if is_square(d):
            continue
        q = rng.choice([1, 2, 3, 4, 5, -1, -2, -3])
        p = rng.randint(-30, 30)
        alpha = QuadraticAlpha(p, d, q)
        f = alpha.value().floor()
        return QuadraticAlpha(p - f * q, d, q)


def random_rational(rng: random.Random, max_den: int = 1000) -> Fraction:
    den = rng.randint(2, max_den)
    num = rng.randint(1, den - 1)
    return Fraction(num, den)


@pytest.fixture
def rng():
    return random.Random(20240817)
