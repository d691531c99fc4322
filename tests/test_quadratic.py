"""The quadratic expansion against the walk it replaced.

``tests/oracles.py`` keeps the earlier expansion: a dict of every state up to
the first repeat, and the cycle floors walked in ``Quad`` arithmetic.  The
alpha's own integer walk must give the same preperiod, period, quotients,
exact tails and floors, and its memory must not grow with the period.  The
quality rows at integer tau, which ``quality`` builds on the integer states,
must equal the rows of ``Quad`` arithmetic on the tails of that walk.
"""

import tracemalloc
from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dioph.arith import InternalConsistencyError, enclose, is_square
from dioph.contfrac import QuadraticAlpha, cf_cycle, convergents, quadratic_from_periodic
from dioph.quality import _surd_row, gamma_n, gamma_of
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


@st.composite
def periodic_quadratics(draw):
    """Expansion prefix + cycle repeated, with a prefix of 0 to 5 quotients (so
    a preperiod of 0 to 5) and a period of 1 to 4; the denominator comes out
    of either sign."""
    cycle = draw(st.lists(st.integers(1, 9), min_size=1, max_size=4))
    prefix = draw(st.lists(st.integers(1, 9), max_size=4))
    if draw(st.booleans()):
        prefix = [draw(st.integers(-2, 3))] + prefix
    return quadratic_from_periodic(prefix + cycle[:1], cycle[1:] + cycle[:1])


@settings(max_examples=150)
@given(periodic_quadratics(), st.integers(1, 5), st.integers(0, 60),
       st.sampled_from([1, 8, 256]))
@example(QuadraticAlpha(-4, 7, -5), 3, 60, 1)  # Q < 0 not dividing 7 - 4^2: D = 25*7
@example(QuadraticAlpha(-1, 5, 2), 1, 0, 256)
@example(quadratic_from_periodic([0, 3, 1, 4, 1], [1, 2, 3]), 5, 60, 8)
def test_integer_rows_equal_the_rows_of_surd_arithmetic(alpha, k, n, precision):
    """Row n at integer tau k: the exact value and its enclosure equal the
    direct and tail routes in Quad arithmetic on the tails of the dict walk,
    and the intersection of their enclosures."""
    table = convergents([quad_quotient(alpha, m) for m in range(n + 1)])
    q, p = table.denom(n), table.numer(n)
    direct = q ** k * abs(quad_tail(alpha, 0) * q - p)
    fond = F(q ** k) / (quad_tail(alpha, n + 1) * q + table.denom(n - 1))
    assert direct == fond
    row = gamma_n(alpha, F(k), n, precision)
    assert (row.n, row.q, row.p) == (n, q, p)
    assert row.exact == direct and stored_form(row.exact) == stored_form(direct)
    assert row.enclosure == enclose(direct, precision) & enclose(fond, precision)


def test_integer_routes_that_disagree_raise():
    """The integer identity that makes both routes equal is checked: a wrong
    q_(n-1) or a tail state of another index is an inconsistency."""
    alpha = quadratic_from_periodic([0, 3, 1, 4], [1, 2, 3])
    table = convergents(alpha.quotients_to(8))
    here, n = alpha.tail_state(0), 6
    q, p, q_prev = table.denom(n), table.numer(n), table.denom(n - 1)
    row = _surd_row(here, alpha.tail_state(n + 1), q, p, q_prev, 2)
    assert row == gamma_n(alpha, F(2), n).exact
    for after, prev in ((alpha.tail_state(n + 1), q_prev + 1), (alpha.tail_state(n), q_prev),
                        (alpha.tail_state(n + 2), q_prev)):
        with pytest.raises(InternalConsistencyError, match="quality routes disagree"):
            _surd_row(here, after, q, p, prev, 2)
