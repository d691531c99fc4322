"""The quadratic expansion against the walk it replaced.

``tests/oracles.py`` keeps the earlier expansion: a dict of every state up to
the first repeat, and the cycle floors walked in ``Quad`` arithmetic.  The
alpha's own integer walk must give the same preperiod, period, quotients,
exact tails and floors, and its memory must not grow with the period.
"""

import tracemalloc
from fractions import Fraction as F

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dioph.arith import is_square
from dioph.contfrac import QuadraticAlpha, cf_cycle
from dioph.quality import gamma_of
from tests.oracles import cycle_floors, quad_cycle, quad_quotient, quad_tail, stored_form


@st.composite
def quadratics(draw):
    """(P + sqrt(D))/Q with Q of either sign and D square-free or not; Q
    divides D - P^2 in some draws and not in others (D is then scaled by
    Q^2)."""
    k = draw(st.integers(100, 3000))
    c = draw(st.integers(1, 4))
    assume(not is_square(k))
    q = draw(st.integers(1, 12)) * draw(st.sampled_from([1, -1]))
    p = draw(st.integers(-300, 300))
    d = k * c * c
    if draw(st.booleans()):  # move D so that Q divides D - P^2
        d += (p * p - d) % abs(q)
        assume(not is_square(d))
    return QuadraticAlpha(p, d, q)


@settings(max_examples=150)
@given(quadratics())
# D = d, D = d*q^2, a negative Q and a non-square-free d, whatever is drawn; the
# last two need the exact comparison where a_{n+1} differs by one
@example(QuadraticAlpha(1, 7, 3))
@example(QuadraticAlpha(1, 7, 4))
@example(QuadraticAlpha(2, 13, -5))
@example(QuadraticAlpha(-3, 8 * 9, 4))
@example(QuadraticAlpha(191, 13888, 10))
@example(QuadraticAlpha(-72, 3416, -11))
def test_walk_matches_the_dict_walk(alpha):
    start, period, _quotients, _states, d = quad_cycle(alpha.p, alpha.d, alpha.q)
    assert alpha._radicand[1] == d
    assert cf_cycle(alpha) == (start, period)
    stop = start + period + 3
    assert alpha.quotients_to(stop) == [quad_quotient(alpha, n) for n in range(stop)]
    for n in range(stop):
        got, want = alpha.tail(n), quad_tail(alpha, n)
        assert got == want and stored_form(got) == stored_form(want)
    got, want = alpha._cycle[2], cycle_floors(alpha)
    assert got == want and stored_form(got) == stored_form(want)


@settings(max_examples=40, derandomize=True)
@given(quadratics())
# d with square factors, D = d and D = d*q^2, and q of both signs
@example(QuadraticAlpha(1, 8, 7))
@example(QuadraticAlpha(1, 8, -7))
@example(QuadraticAlpha(-3, 8 * 9, 4))
@example(QuadraticAlpha(2, 12, -5))
def test_every_tail_is_stored_over_the_state_radicand(alpha):
    start, period, floors = alpha._cycle
    values = [alpha.value(), *map(alpha.tail, range(start + period + 2))]
    values += [f for f in floors if f is not None]
    assert {v.d for v in values} == {alpha._radicand[1]}


def test_memory_does_not_grow_with_the_period():
    # period 16,052: the walk holds one state, not every state of the period
    tracemalloc.start()
    try:
        gamma_of(QuadraticAlpha(0, 33554959, 1), F(4), 10)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert cf_cycle(QuadraticAlpha(0, 33554959, 1)) == (1, 16052)
