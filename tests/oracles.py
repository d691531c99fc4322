"""Independent oracles for the library's exact sieve and Farey enumeration.

Each one checks a definition directly, by a scan over every denominator, with
none of the library's sweep or recurrence machinery.
"""

import math
from fractions import Fraction

from dioph.arith import DomainError


def fractions_in_interval_bruteforce(lo: Fraction, hi: Fraction, max_den: int,
                                     include_lo: bool = False,
                                     include_hi: bool = False
                                     ) -> list[tuple[int, int]]:
    """Per-denominator scan oracle for fractions_in_interval."""
    out = []
    for q in range(1, max_den + 1):
        for p in range(math.ceil(lo * q), math.floor(hi * q) + 1):
            if math.gcd(p, q) != 1:
                continue
            val = Fraction(p, q)
            if (val == lo and not include_lo) or (val == hi and not include_hi):
                continue
            if lo <= val <= hi:
                out.append((p, q))
    return sorted(out, key=lambda t: Fraction(t[0], t[1]))


def direct_member(x: Fraction, gamma: Fraction, tau: Fraction, qmax: int) -> bool:
    """Direct check ||q*x|| >= gamma/q^tau for every q <= qmax (integer tau)."""
    x, gamma, tau = Fraction(x), Fraction(gamma), Fraction(tau)
    if tau.denominator != 1:
        raise DomainError("direct check implemented for integer tau")
    t = int(tau)
    for q in range(1, qmax + 1):
        r = (x.numerator * q) % x.denominator
        dist = Fraction(min(r, x.denominator - r), x.denominator)
        if dist * q ** t < gamma:
            return False
    return True
