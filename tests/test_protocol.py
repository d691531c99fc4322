"""The per-kind protocol of the three alpha classes.

Property tests compare the kinds where they describe the same number, the
cycle floors are checked against a walk per bracket, and a source scan keeps
the kind tests inside ``contfrac``.
"""

import ast
import functools
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import dioph
from dioph import quality, topology
from dioph.arith import DomainError, Quad, Real, enclose
from dioph.bands import gamma_band, pinch_band
from dioph.contfrac import (
    PrefixAlpha,
    QuadraticAlpha,
    RationalAlpha,
    cf_cycle,
    convergents,
    quadratic_from_periodic,
    tail_real,
    value_of,
)

quotient = st.integers(1, 12)


@st.composite
def words(draw):
    """A finite quotient word whose last quotient is >= 2: the expansion of
    its own value."""
    return ([draw(st.integers(0, 3))] + draw(st.lists(quotient, max_size=8))
            + [draw(st.integers(2, 12))])


@st.composite
def quadratics(draw):
    prefix = [0] + draw(st.lists(quotient, max_size=4))
    return quadratic_from_periodic(prefix, draw(st.lists(quotient, min_size=1, max_size=4)))


@st.composite
def alphas(draw):
    """Any kind in (0, 1), so that a prefix can be reflected too."""
    kind = draw(st.sampled_from(["rat", "prefix", "quad"]))
    if kind == "quad":
        return draw(quadratics())
    w = [0] + draw(words())[1:]
    return RationalAlpha(value_of(w)) if kind == "rat" else PrefixAlpha(tuple(w))


@given(words())
def test_rational_and_prefix_agree_on_quotients(w):
    rat, pre = RationalAlpha(value_of(w)), PrefixAlpha(tuple(w))
    assert rat.length == pre.length == len(w)
    for stop in range(len(w) + 3):
        assert rat.quotients_to(stop) == pre.quotients_to(stop) == w[:stop]


@given(words())
def test_prefix_tail_encloses_rational_tail(w):
    rat, pre = RationalAlpha(value_of(w)), PrefixAlpha(tuple(w))
    for n in range(len(w)):
        exact = rat.tail(n)
        assert exact == value_of(w[n:])
        assert pre.tail(n).enclose(64).contains(exact)


@given(alphas())
def test_reflect_is_an_involution(alpha):
    assert alpha.reflect().reflect() == alpha
    assert type(alpha.reflect()) is type(alpha)


@given(alphas(), st.integers(1, 8))
def test_exact_kinds_give_their_values_bare(alpha, stop):
    """The value and tails of a rational are Fractions and those of a
    quadratic are Quads, used as themselves; only a prefix gives Reals,
    which are known by their enclosures alone."""
    kind = {RationalAlpha: F, QuadraticAlpha: Quad, PrefixAlpha: Real}[type(alpha)]
    values = [alpha.real()] + [tail_real(alpha, n) for n in range(len(alpha.quotients_to(stop)))]
    assert {type(v) for v in values} == {kind}
    assert Real.__slots__ == ("_fn",)


@given(alphas())
def test_alpha_plus_reflection_encloses_one(alpha):
    total = alpha.real() + alpha.reflect().real()
    assert enclose(total, 64).contains(F(1))


def _floor_per_bracket(alpha, parity):
    """min of 1/(alpha_{n+1} + 1/a_n) over the cycle positions of one
    bracket, walking the period once for that bracket."""
    start, period = cf_cycle(alpha)
    positions = range(period)
    if parity is not None and period % 2 == 0:
        positions = [j for j in positions if (start + j) % 2 == parity]
    bound = None
    for j in positions:
        idx = start + j
        a_idx = alpha.quotients_to(idx + 1)[idx]
        cand = 1 / (alpha.tail(idx + 1) + F(1, a_idx))
        if bound is None or cand < bound:
            bound = cand
    return bound


@given(quadratics())
def test_cycle_floors_equal_a_walk_per_bracket(alpha):
    start, _period = cf_cycle(alpha)
    depth = max(start, 1) + 2
    table = convergents(alpha.quotients_to(depth + 1))
    for parity in (None, 0, 1):
        c, q = alpha.deep_row_floor(table, depth, parity)
        want = _floor_per_bracket(alpha, parity)
        assert type(c) is type(want) and c == want
        n1 = depth + 1 if parity is None or (depth + 1) % 2 == parity else depth + 2
        assert q == convergents(alpha.quotients_to(n1 + 1)).denom(n1)
    if start > 1:  # no floor before the cycle is reached
        assert alpha.deep_row_floor(table, start - 1, None) is None


def test_gamma_report_walks_the_cycle_once(monkeypatch):
    alpha = quadratic_from_periodic([0, 3, 1, 4], [1, 2, 3])
    walks, reads = [], []
    walk, tail_state = QuadraticAlpha._cycle.func, QuadraticAlpha.tail_state

    def counted_walk(a):
        walks.append(a)
        return walk(a)

    def counted_tail_state(a, n):
        reads.append(n)
        return tail_state(a, n)

    cycle = functools.cached_property(counted_walk)
    cycle.__set_name__(QuadraticAlpha, "_cycle")
    monkeypatch.setattr(QuadraticAlpha, "_cycle", cycle)
    monkeypatch.setattr(QuadraticAlpha, "tail_state", counted_tail_state)
    depth = 10
    per_request = [m for n in range(depth + 1) for m in (0, n + 1)]
    quality._gamma_report(alpha, F(2), depth)
    # one walk for the preperiod, period and floors; row n reads the states
    # of alpha and of alpha_{n+1} once, and no bracket or floor reads one
    assert len(walks) == 1 and reads == per_request
    quality.membership(alpha, F(1, 100), F(2), depth)
    assert len(walks) == 1 and reads == 2 * per_request  # the cycle is kept on the alpha
    assert cf_cycle(alpha) == (4, 3)


def test_an_out_at_row_zero_walks_no_period(monkeypatch):
    """A verdict found at row 0 reads no cycle floor, so only the preperiod
    is walked, never the period."""
    walks = []
    walk = QuadraticAlpha._cycle.func

    def counted_walk(a):
        walks.append(a)
        return walk(a)

    cycle = functools.cached_property(counted_walk)
    cycle.__set_name__(QuadraticAlpha, "_cycle")
    monkeypatch.setattr(QuadraticAlpha, "_cycle", cycle)
    # alpha = sqrt(549755813911) - 741455, about 0.2, has a period of 262,388
    for alpha in (quadratic_from_periodic([0, 3, 1, 4], [1, 2, 3]),
                  QuadraticAlpha(-741455, 549755813911, 1)):
        verdict = quality.membership(alpha, F(1, 2), F(1), 5)
        assert (verdict.kind, verdict.witness_q, verdict.budget_spent) == ("out", 1, 0)
        assert walks == []


ALPHA_CLASSES = {"RationalAlpha", "QuadraticAlpha", "PrefixAlpha"}


def _names(node):
    if isinstance(node, ast.Tuple):
        return {n for elt in node.elts for n in _names(elt)}
    if isinstance(node, ast.Attribute):
        return {node.attr}
    if isinstance(node, ast.Name):
        return {node.id}
    return set()


def test_kind_tests_stay_in_contfrac():
    """No module but contfrac tests which kind of alpha it holds."""
    found = []
    for path in sorted(Path(dioph.__file__).parent.glob("*.py")):
        if path.name == "contfrac.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "isinstance" and len(node.args) == 2
                    and _names(node.args[1]) & ALPHA_CLASSES):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_no_public_function_only_forwards_to_a_method_of_its_argument():
    """A public function whose body (past its docstring) is only
    ``return <first parameter>.<method>(...)`` adds a name and no logic."""
    found = []
    for path in sorted(Path(dioph.__file__).parent.glob("*.py")):
        for fn in ast.parse(path.read_text()).body:
            if not isinstance(fn, ast.FunctionDef) or fn.name.startswith("_") or not fn.args.args:
                continue
            body = fn.body[1:] if ast.get_docstring(fn) is not None else fn.body
            ret = body[0] if len(body) == 1 else None
            if (isinstance(ret, ast.Return) and isinstance(ret.value, ast.Call)
                    and isinstance(ret.value.func, ast.Attribute)
                    and isinstance(ret.value.func.value, ast.Name)
                    and ret.value.func.value.id == fn.args.args[0].arg):
                found.append(f"{path.name}:{fn.name}")
    assert found == []


# private names of quality that another module may import: the CLI's one
# build of a request's rows, and the convergent table of topology's windows
QUALITY_PRIVATE_IMPORTS = {("cli.py", "_gamma_report"), ("topology.py", "_table_to")}


def test_only_quality_reads_its_row_pipeline():
    """The rows of a request and their reduction stay inside ``quality``: no
    other module imports a private name from it, but the two above."""
    found = []
    for path in sorted(Path(dioph.__file__).parent.glob("*.py")):
        if path.name == "quality.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module in ("quality", "dioph.quality"):
                found += [f"{path.name}:{a.name}" for a in node.names
                          if a.name.startswith("_")
                          and (path.name, a.name) not in QUALITY_PRIVATE_IMPORTS]
    assert found == []


def test_only_arith_names_exact_cmp():
    """Other modules compare exact values with operators: none but ``arith``
    names ``exact_cmp``, and none imports ``cmp_to_key``."""
    found = []
    for path in sorted(Path(dioph.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = {a.name.rpartition(".")[2] for a in node.names}
            else:
                names = _names(node) if isinstance(node, (ast.Name, ast.Attribute)) else set()
            if "cmp_to_key" in names or ("exact_cmp" in names and path.name != "arith.py"):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


@st.composite
def bounded_or_not(draw):
    """alphas(), a prefix among them with a tail bound half of the time."""
    alpha = draw(alphas())
    if isinstance(alpha, PrefixAlpha) and draw(st.booleans()):
        return PrefixAlpha(alpha.quotients, F(1), F(draw(st.integers(1, 12))))
    return alpha


def _bounded(lo, hi) -> bool:
    return type(lo) is F and type(hi) is F and lo <= hi


@given(bounded_or_not(), st.sampled_from([F(1), F(3, 2), F(2), F(5, 2), F(7, 2), F(4)]),
       st.sampled_from([F(1, 20), F(1, 10), F(1, 4)]), st.integers(1, 8),
       st.integers(1, 30), st.integers(1, 30), st.integers(1, 5))
def test_enclosures_at_low_precision_are_bounded(alpha, tau, gamma, precision, q, p, n_quot):
    """At 1 to 8 bits gamma_of, gap_report, gamma_band and pinch_band divide
    by no enclosure containing 0 (which raises), and every enclosure they
    return has two Fraction ends in order."""
    res = quality.gamma_of(alpha, tau, 10, precision)
    assert _bounded(res.lower, res.upper)
    encs = [row.enclosure for row in quality._gamma_report(alpha, tau, 10, precision)[3]]
    for n in range(len(alpha.quotients_to(6)) - 2):
        rep = topology.gap_report(alpha, gamma, tau, n, precision)
        encs += [t for t in (rep.threshold, rep.threshold_strict) if t is not None]
    if tau > 1:  # the domain of gamma_band and pinch_band
        band = gamma_band(q, p, n_quot, tau, precision)
        encs += [band.lo, band.hi]
        encs += pinch_band(q, p, n_quot, tau, F(1, 4), precision)[:2]
    else:
        with pytest.raises(DomainError, match="tau must exceed 1"):
            pinch_band(q, p, n_quot, tau, F(1, 4), precision)
    assert all(_bounded(e.lo, e.hi) for e in encs)


def test_no_module_compares_an_enclosure_end_with_none():
    """Every enclosure is bounded: no module compares a ``.lo`` or ``.hi``
    with None."""
    found = []
    for path in sorted(Path(dioph.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            if (any(isinstance(o, ast.Attribute) and o.attr in ("lo", "hi") for o in operands)
                    and any(isinstance(o, ast.Constant) and o.value is None for o in operands)):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
