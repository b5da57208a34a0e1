"""Degree polynomials for general linear groups and batch checks built on them.

The pieces here all run in exact arithmetic:

* degree polynomials Deg attached to partitions, with Deg(1) recovering the
  ordinary character degree;
* the series of partitions of n, each built from its d-core, for any
  modulus d;
* a congruence check that takes the ratio of each degree polynomial to its
  series base at a primitive d-th root of unity, from a tally of hook
  residues mod d with no polynomial built, and compares that constant with
  a wreath product degree;
* a search for pairs of distinct degree polynomials that collide at a given
  integer argument;
* an enumerator for multiplicative identities n1 = n2 * prod Phi_i(q)^a_i
  with small n1, n2;
* torus order tables for the classical and some exceptional series, each
  order a list of cyclotomic indices d whose largest is the index of its
  Zsigmondy prime, checked against primitive prime divisors.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product as iter_product
from math import gcd, prod
from typing import NamedTuple

from .algebra import (
    TORI_SERIES,
    ExactnessError,
    Poly,
    cyclotomic_poly,
    divisors,
    field_value_str,
    is_prime_power,
    phi_value,
    root_monomial,
    zsigmondy,
)
from .partitions import (
    Partition,
    b_statistic,
    combine,
    cores_and_weights,
    enumerate_multipartitions,
    enumerate_partitions,
    gl_degree_poly,
    hook_lengths,
)
from .wreath import wreath_degree


# ---------------------------------------------------------------------------
# degree polynomials


class DegreePolyEntry(NamedTuple):
    """One partition together with its degree polynomial."""

    partition: Partition
    poly: Poly


def unipotent_degrees_gl(n: int) -> tuple[DegreePolyEntry, ...]:
    """Degree polynomial for every partition of n, in enumeration order.

    >>> [e.poly.coeffs for e in unipotent_degrees_gl(2)]
    [(1,), (0, 1)]
    """
    if n < 1:
        raise ValueError("need n >= 1")
    return tuple(
        DegreePolyEntry(pi, gl_degree_poly(pi)) for pi in enumerate_partitions(n)
    )


def dhc_series_gl(
    n: int, d: int
) -> list[tuple[Partition, int, list[tuple[Partition, tuple[Partition, ...]]]]]:
    """The partitions of n in series, each built from its d-core for any
    d >= 1: (core, w, [(pi, d-quotient of pi), ...]) triples sorted by core,
    members in enumeration order.  Each series is built as a block of S_n
    is, by one `combine(core, w, d)`, paired with the quotients of the cached
    enumerator in its order, and one sort puts them back in (reverse
    lexicographic) order.

    >>> dhc_series_gl(2, 2)
    [((), 1, [((2,), ((), (1,))), ((1, 1), ((1,), ()))])]
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if d < 1:
        raise ValueError("need d >= 1")
    out = []
    for core, w in cores_and_weights(n, d):
        members = zip(combine(core, w, d), enumerate_multipartitions(d, w))
        out.append((core, w, sorted(members, reverse=True)))
    return out


# ---------------------------------------------------------------------------
# cyclotomic reduction of degree polynomials against their series base


class HllMemberReport(NamedTuple):
    """Outcome of reducing one member against its series base.

    `constant` is the rational value of the reduced ratio at a primitive
    d-th root of unity when that value is rational, else None; the string
    form is kept either way.  `expected` is the wreath degree of the
    d-quotient, which the absolute value of the constant should match.
    """

    partition: Partition
    quotient: tuple[Partition, ...]
    constant: Fraction | None
    constant_str: str
    expected: int
    ok: bool
    reason: str | None


class HllSeriesReport(NamedTuple):
    core: Partition
    weight: int
    members: tuple[HllMemberReport, ...]


class HllReport(NamedTuple):
    n: int
    d: int
    series: tuple[HllSeriesReport, ...]


def hll_check_gl(n: int, d: int) -> HllReport:
    """Compare each member's degree ratio to its series base at a primitive
    d-th root of unity with the wreath degree of its d-quotient.

    In the series with core mu (|mu| = r, weight w), the ratio of degree
    polynomials is

        Deg(pi)/Deg(mu) = x^(b(pi) - b(mu)) * prod_{r<k<=n}(x^k - 1)
                          * prod_{h in H(mu)}(x^h - 1) / prod_{h in H(pi)}(x^h - 1).

    Its value at a primitive d-th root of unity zeta is read off the hook
    residues, with no polynomial built.  A factor x^m - 1 with d | m
    vanishes to first order, as m * zeta^-1 * (x - zeta).  There are w of
    them above the line (the k in (r, n] that d divides) and w below (the
    hooks of pi that d divides; mu, a d-core, has none), so they balance and
    leave the rational prod k / prod h.  Any other factor is zeta^j - 1 =
    -(1 - zeta^j), j = m mod d; n - w of them lie on each side (n factors
    above, n hooks of pi below), so the signs cancel, and `root_monomial`
    divides once.  The ratio at zeta is tested for being a rational integer
    whose absolute value equals the wreath degree of the d-quotient of pi;
    a member violating any of these is reported with the condition named.

    >>> rep = hll_check_gl(2, 2)
    >>> [(m.partition, str(m.constant)) for m in rep.series[0].members]
    [((2,), '1'), ((1, 1), '-1')]
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if not 1 <= d <= n:
        raise ValueError("need 1 <= d <= n")
    series_reports = []
    for core, weight, members in dhc_series_gl(n, d):
        r = sum(core)
        core_b = b_statistic(core)
        # above[j]: factors x^m - 1 above the line (m = k in (r, n] or a hook
        # of the core) with m = j mod d
        above = [0] * d
        for m in (*range(r + 1, n + 1), *hook_lengths(core)):
            above[m % d] += 1
        if above[0] != weight:
            raise ExactnessError(f"the {d}-core {core} has a hook that {d} divides")
        k_prod = prod(range((r // d + 1) * d, n + 1, d))
        member_reports = []
        for pi, quotient in members:
            net = above.copy()
            vanishing = []
            for h in hook_lengths(pi):
                if h % d:
                    net[h % d] -= 1
                else:
                    vanishing.append(h)
            if len(vanishing) != weight:
                raise ExactnessError(
                    f"{pi} has {len(vanishing)} hooks that {d} divides, not {weight}"
                )
            exponent = b_statistic(pi) - core_b
            value = root_monomial(d, k_prod, prod(vanishing), exponent, net)
            member_reports.append(_hll_member(pi, quotient, value))
        series_reports.append(HllSeriesReport(core, weight, tuple(member_reports)))
    return HllReport(n, d, tuple(series_reports))


def _hll_member(
    pi: Partition, quotient: tuple[Partition, ...], value
) -> HllMemberReport:
    """Judge the ratio `value` at zeta of one member pi against its wreath degree."""
    expected = wreath_degree(quotient)
    constant: Fraction | None = None
    reason: str | None = None
    if not value.is_rational():
        reason = "constant is not rational"
    else:
        constant = value.to_fraction()
        if constant.denominator != 1:
            reason = "constant is not an integer"
        elif abs(constant) != expected:
            reason = "absolute value differs from the wreath degree"
    return HllMemberReport(
        partition=pi,
        quotient=quotient,
        constant=constant,
        constant_str=field_value_str(value),
        expected=expected,
        ok=reason is None,
        reason=reason,
    )


# ---------------------------------------------------------------------------
# collisions of degree polynomial values


def degree_collisions(n: int, q: int) -> tuple[tuple[Partition, Partition], ...]:
    """Unordered pairs of distinct partitions of n whose degree polynomials
    differ as polynomials but take the same value at x = q.

    >>> degree_collisions(4, 2)
    ()
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if q < 2:
        raise ValueError("need q >= 2")
    entries = unipotent_degrees_gl(n)
    by_value: dict[int, list[int]] = {}
    for idx, entry in enumerate(entries):
        by_value.setdefault(entry.poly(q), []).append(idx)
    out = []
    for indices in by_value.values():
        for a in range(len(indices)):
            for b in range(a + 1, len(indices)):
                ea, eb = entries[indices[a]], entries[indices[b]]
                if ea.poly != eb.poly:
                    out.append((indices[a], indices[b], ea.partition, eb.partition))
    out.sort()
    return tuple((pa, pb) for _, _, pa, pb in out)


# ---------------------------------------------------------------------------
# multiplicative identities between cyclotomic values


class SpeceqWitness(NamedTuple):
    """One identity n1 = n2 * prod_{i<=m} Phi_i(q)^a_i with a_m != 0.

    The pair (n1, n2) is kept coprime (the minimal instance; every other
    instance is a common multiple of both sides).  The search decides once
    why it kept the identity: `part_a` when n1 and n2 are both powers of
    two, `part_b` when both divide its n_bound.  `full_support` is True when
    every factor that could matter carries a nonzero exponent; a factor with
    Phi_i(q) = 1 (only i = 1 at q = 2) is exempt, since it cannot affect the
    identity.
    """

    q: int
    m: int
    exponents: tuple[int, ...]
    n1: int
    n2: int
    part_a: bool
    part_b: bool
    full_support: bool


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and n & (n - 1) == 0


def _strip_primes(n: int, m: int) -> int:
    """n >= 1 with every prime factor of m divided out, by repeated gcd;
    m is never factored."""
    while (g := gcd(n, m)) > 1:
        n //= g
    return n


def speceq_search(
    q_max: int, m_max: int, exp_bound: int, n_bound: int = 120
) -> tuple[SpeceqWitness, ...]:
    """All identities n1 = n2 * prod Phi_i(q)^a_i within the given bounds.

    q runs over prime powers up to q_max, exponent vectors over
    |a_i| <= exp_bound with a_m != 0 for the top index m <= m_max.  A
    vector is kept when its product, written as a coprime fraction
    n1/n2, has n1 and n2 both dividing n_bound or both powers of two, and
    its witness records which of the two held.

    Factors whose value Phi_i(q) carries a prime that cannot cancel
    against any other factor or the bound are pinned to exponent zero
    before enumeration; this keeps the search space tiny without losing
    witnesses.  Phi_1(2) = 1 contributes nothing, so its exponent is
    pinned to zero as well and the trivial identity n = n at q = 2 is
    recorded once with exponent 1.
    """
    if q_max < 2 or m_max < 1 or exp_bound < 1 or n_bound < 1:
        raise ValueError("bounds must be positive")
    out: list[SpeceqWitness] = []
    exponent_range = range(-exp_bound, exp_bound + 1)
    for q in range(2, q_max + 1):
        if not is_prime_power(q):
            continue
        values = [phi_value(i, q) for i in range(1, m_max + 1)]
        residues = [_strip_primes(v, 2 * n_bound) for v in values]
        active = [i for i in range(m_max) if values[i] != 1]
        if q == 2:
            out.append(SpeceqWitness(2, 1, (1,), 1, 1, True, True, True))
        changed = True
        while changed:
            changed = False
            for i in list(active):
                others = prod(residues[j] for j in active if j != i)
                if _strip_primes(residues[i], others) > 1:
                    active.remove(i)
                    changed = True
        for vec in iter_product(exponent_range, repeat=len(active)):
            if not any(vec):
                continue
            num = den = 1
            for a, i in zip(vec, active):
                if a > 0:
                    num *= values[i] ** a
                elif a < 0:
                    den *= values[i] ** (-a)
            g = gcd(num, den)
            num //= g
            den //= g
            part_b = n_bound % num == 0 and n_bound % den == 0
            part_a = _is_power_of_two(num) and _is_power_of_two(den)
            if not (part_a or part_b):
                continue
            top = max(i for a, i in zip(vec, active) if a != 0)
            exponents = [0] * (top + 1)
            for a, i in zip(vec, active):
                if i <= top:
                    exponents[i] = a
            full_support = all(a or values[i] == 1 for i, a in enumerate(exponents))
            out.append(
                SpeceqWitness(
                    q, top + 1, tuple(exponents), num, den, part_a, part_b, full_support
                )
            )
    out.sort(key=lambda w: (w.q, w.m, w.exponents))
    return tuple(out)


# ---------------------------------------------------------------------------
# torus orders and primitive prime divisors


class ToriEntry(NamedTuple):
    """Orders of two maximal tori for one series, as cyclotomic products.

    m1 and m2 are the largest d of a factor Phi_d of each order, the index
    of the primitive prime divisor attached to it.
    """

    series: str
    n: int
    t1: Poly
    t2: Poly
    m1: int
    m2: int


# least rank of each series; an exceptional row has exactly that rank, and
# lists the d of its factors Phi_d
_LEAST_RANK = dict(zip(TORI_SERIES, (1, 2, 2, 4, 4, 6, 6, 7)))
_EXCEPTIONAL = {"E6": ((3, 12), (9,)), "2E6": ((18,), (6, 12)), "E7": ((2, 18), (2, 14))}


def _plus(k: int) -> list[int]:
    """The d with Phi_d dividing x^k + 1 = (x^2k - 1)/(x^k - 1)."""
    return [d for d in divisors(2 * k) if k % d]


def tori_entry(series: str, n: int) -> ToriEntry:
    """Torus order pair for one series and rank.

    Each order is the product of Phi_d over a list of d, with multiplicity:
    x^k - 1 gives the divisors of k, a factor x - 1 or x + 1 adds 1 or 2,
    and dividing by x + 1 drops the one 2.  An unknown series, a rank below
    the series' least and a wrong exceptional rank raise ValueError.
    """
    if series not in _LEAST_RANK:
        raise ValueError(f"unknown series {series!r}")
    least, odd = _LEAST_RANK[series], n % 2
    if series in _EXCEPTIONAL:
        if n != least:
            raise ValueError(f"series {series} has rank {least}")
        d1, d2 = _EXCEPTIONAL[series]
    elif n < least:
        raise ValueError(f"series {series} needs n >= {least}")
    elif series == "A":
        d1, d2 = divisors(n + 1)[1:], divisors(n)
    elif series == "2A":
        d1 = [d for d in (divisors if odd else _plus)(n + 1) if d != 2]
        d2 = (_plus if odd else divisors)(n)
    elif series == "B/C":
        d1, d2 = _plus(n), (divisors(n) if odd else _plus(n - 1) + [2])
    elif series == "D":
        d1 = divisors(n) if odd else divisors(n - 1) + [1]
        d2 = _plus(n - 1) + [2]
    else:
        d1, d2 = _plus(n), _plus(n - 1) + [1]
    t1, t2 = (prod(map(cyclotomic_poly, ds), start=Poly.one()) for ds in (d1, d2))
    return ToriEntry(series, n, t1, t2, max(d1), max(d2))


class ToriCheckReport(NamedTuple):
    """Evaluation of one table row at one q.

    l1/l2 are the primitive prime divisors `zsigmondy` finds for the row's
    indices m1/m2, or None when none exists (the small-rank exceptions).
    divides1/divides2 are None along with them; otherwise they state whether
    the prime divides the corresponding torus order, which the construction
    should always make true.
    """

    t1_value: int
    t2_value: int
    l1: int | None
    l2: int | None
    divides1: bool | None
    divides2: bool | None

    @property
    def missing(self) -> tuple[int, ...]:
        """Indices (1 and/or 2) whose primitive prime does not exist."""
        return tuple(i for i, l in ((1, self.l1), (2, self.l2)) if l is None)

    @property
    def failures(self) -> tuple[int, ...]:
        """Indices whose primitive prime exists but fails to divide."""
        pairs = ((1, self.divides1), (2, self.divides2))
        return tuple(i for i, divides in pairs if divides is False)


def tori_check(entry: ToriEntry, q: int) -> ToriCheckReport:
    """Evaluate both torus orders at q and test primitive prime divisibility.

    >>> tuple(tori_check(tori_entry("B/C", 2), 3))
    (10, 16, 5, None, True, None)
    """
    if q < 2:
        raise ValueError("need q >= 2")
    t1_value = entry.t1(q)
    t2_value = entry.t2(q)
    l1 = zsigmondy(q, entry.m1)
    l2 = zsigmondy(q, entry.m2)
    divides1 = None if l1 is None else t1_value % l1 == 0
    divides2 = None if l2 is None else t2_value % l2 == 0
    return ToriCheckReport(t1_value, t2_value, l1, l2, divides1, divides2)
