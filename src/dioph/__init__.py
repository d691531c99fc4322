"""Exact arithmetic for sets of reals badly approximable at rate gamma/q^tau.

Library layout:

* ``arith`` — rationals, quadratic surds, certified enclosures, the one
  exact order (``exact_cmp``) and certified comparisons;
* ``contfrac`` — the three kinds of alpha (each gives its value, its
  reflection 1 - alpha and its CLI spec), convergents, exact tails;
* ``quality`` — quality rows and their one reduction: certified infimum
  brackets, membership, isolation diagnostics;
* ``dioset`` — exact truncated sets by one per-denominator sieve, measures;
* ``topology`` — gap conditions, window census;
* ``bands`` — exceptional-gamma bands and series exponents;
* ``cli`` — the ``dioph`` command-line front end.
"""

from .arith import (
    DomainError,
    Quad,
    Real,
    RealEnclosure,
    cmp_certified,
    format_rat,
    parse_rat,
    rat_sum_tail_bound,
    surd,
)
from .contfrac import (
    AlphaSpec,
    ConvergentTable,
    PrefixAlpha,
    QuadraticAlpha,
    RationalAlpha,
    cf_cycle,
    cf_expand,
    convergents,
    parse_alpha,
    quadratic_from_periodic,
    value_of,
)
from .dioset import (
    IntervalSet,
    SetBracket,
    fractions_in_interval,
    set_bracket,
    truncated_set,
)
from .quality import (
    GammaResult,
    IsolationReport,
    MembershipVerdict,
    QualityRow,
    brute_force_gamma,
    detect_isolation,
    gamma_n,
    gamma_of,
    gamma_parity,
    membership,
    tau_bounds,
)
from .topology import (
    CensusRecord,
    GapReport,
    census,
    check_gap,
    check_gap_strict,
    gap_threshold,
    gap_threshold_strict,
    quotient_growth_table,
    window_margin_table,
)
from .bands import (
    BandRecord,
    SeriesReport,
    bands_union_measure,
    bands_union_tail,
    critical_tau,
    exponents,
    gamma_band,
    pinch_band,
    power_approx_margin,
)

__version__ = "0.1.0"
