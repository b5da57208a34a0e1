"""Degree polynomials for general linear groups and batch checks built on them.

The pieces here all run in exact arithmetic:

* degree polynomials Deg attached to partitions, with Deg(1) recovering the
  ordinary character degree;
* the grouping of partitions of n into series by d-core, for any modulus d;
* a congruence check that reduces each degree polynomial against its series
  base modulo the d-th cyclotomic polynomial and compares the constant with
  a wreath product degree;
* a search for pairs of distinct degree polynomials that collide at a given
  integer argument;
* an enumerator for multiplicative identities n1 = n2 * prod Phi_i(q)^a_i
  with small n1, n2;
* torus order tables for the classical and some exceptional series, checked
  against primitive prime divisors.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iter_product
from math import gcd

from .algebra import (
    CycElt,
    Poly,
    ZsigmondyResult,
    cyclotomic_poly,
    field_value_str,
    is_prime_power,
    phi_value,
    trial_factor,
    zsigmondy,
)
from .partitions import (
    Partition,
    core_and_quotient,
    enumerate_partitions,
    gl_degree_poly,
)
from .wreath import wreath_degree


# ---------------------------------------------------------------------------
# degree polynomials


@dataclass(frozen=True)
class DegreePolyEntry:
    """One partition of n together with its degree polynomial."""

    partition: Partition
    poly: Poly
    n: int


def unipotent_degrees_gl(n: int) -> tuple[DegreePolyEntry, ...]:
    """Degree polynomial for every partition of n, in enumeration order.

    >>> [str(e.poly) for e in unipotent_degrees_gl(2)]
    ['1', 'x']
    """
    if n < 1:
        raise ValueError("need n >= 1")
    return tuple(
        DegreePolyEntry(pi, gl_degree_poly(pi), n) for pi in enumerate_partitions(n)
    )


def dhc_series_gl(n: int, d: int) -> tuple[tuple[Partition, tuple[Partition, ...]], ...]:
    """Partitions of n grouped by their d-core.

    The abacus core construction works for any modulus d >= 1, prime or
    not.  Returns (core, members) pairs sorted by core; members keep the
    global enumeration order.

    >>> dhc_series_gl(2, 2)
    (((), ((2,), (1, 1))),)
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if d < 1:
        raise ValueError("need d >= 1")
    groups: dict[Partition, list[Partition]] = {}
    for pi in enumerate_partitions(n):
        core, _, _ = core_and_quotient(pi, d)
        groups.setdefault(core, []).append(pi)
    return tuple((core, tuple(ms)) for core, ms in sorted(groups.items()))


# ---------------------------------------------------------------------------
# cyclotomic reduction of degree polynomials against their series base


@dataclass(frozen=True)
class HllMemberReport:
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


@dataclass(frozen=True)
class HllSeriesReport:
    core: Partition
    weight: int
    members: tuple[HllMemberReport, ...]


@dataclass(frozen=True)
class HllReport:
    n: int
    d: int
    series: tuple[HllSeriesReport, ...]

    @property
    def failures(self) -> tuple[tuple[Partition, HllMemberReport], ...]:
        out = []
        for s in self.series:
            for m in s.members:
                if not m.ok:
                    out.append((s.core, m))
        return tuple(out)


def hll_check_gl(n: int, d: int) -> HllReport:
    """Reduce every degree polynomial against its series base modulo Phi_d.

    In the series with core mu, both Deg(pi) and Deg(mu) are divisible by
    Phi_d exactly floor(|mu|/d) times.  After stripping that power, the
    ratio of values at a primitive d-th root of unity is tested for being
    a rational integer whose absolute value equals the wreath degree of
    the d-quotient of pi.  Members violating any of the three conditions
    are reported with the failing condition named.

    >>> rep = hll_check_gl(2, 2)
    >>> [(m.partition, str(m.constant)) for m in rep.series[0].members]
    [((2,), '1'), ((1, 1), '-1')]
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if not 1 <= d <= n:
        raise ValueError("need 1 <= d <= n")
    phi = cyclotomic_poly(d)
    zeta = CycElt.root(d)
    series_reports = []
    for core, members in dhc_series_gl(n, d):
        r = sum(core)
        strip = r // d
        base = gl_degree_poly(core)
        for _ in range(strip):
            base = base.exact_div(phi)
        base_inv = base(zeta).inverse()
        weight = (n - r) // d
        member_reports = []
        for pi in members:
            _, quotient, _ = core_and_quotient(pi, d)
            reduced = gl_degree_poly(pi)
            for _ in range(strip):
                reduced = reduced.exact_div(phi)
            value = reduced(zeta) * base_inv
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
            member_reports.append(
                HllMemberReport(
                    partition=pi,
                    quotient=quotient,
                    constant=constant,
                    constant_str=field_value_str(value),
                    expected=expected,
                    ok=reason is None,
                    reason=reason,
                )
            )
        series_reports.append(HllSeriesReport(core, weight, tuple(member_reports)))
    return HllReport(n, d, tuple(series_reports))


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


@dataclass(frozen=True)
class SpeceqWitness:
    """One identity n1 = n2 * prod_{i<=m} Phi_i(q)^a_i with a_m != 0.

    The pair (n1, n2) is kept coprime (the minimal instance; every other
    instance is a common multiple of both sides).
    """

    q: int
    m: int
    exponents: tuple[int, ...]
    n1: int
    n2: int

    @property
    def full_support(self) -> bool:
        """True when every factor that could matter carries a nonzero exponent.

        Factors with Phi_i(q) = 1 (only i = 1 at q = 2) are exempt since
        they cannot affect the identity.
        """
        return all(
            a != 0 or phi_value(i + 1, self.q) == 1
            for i, a in enumerate(self.exponents)
        )

    @property
    def power_pair(self) -> bool:
        """True when n1 and n2 are both powers of two."""
        return _is_power_of_two(self.n1) and _is_power_of_two(self.n2)

    def divides_bound(self, bound: int = 120) -> bool:
        """True when n1 and n2 both divide the given bound."""
        return bound % self.n1 == 0 and bound % self.n2 == 0


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and n & (n - 1) == 0


def _strip_primes(n: int, primes: tuple[int, ...]) -> int:
    for p in primes:
        while n % p == 0:
            n //= p
    return n


def speceq_search(
    q_max: int, m_max: int, exp_bound: int, n_bound: int = 120
) -> tuple[SpeceqWitness, ...]:
    """All identities n1 = n2 * prod Phi_i(q)^a_i within the given bounds.

    q runs over prime powers up to q_max, exponent vectors over
    |a_i| <= exp_bound with a_m != 0 for the top index m <= m_max.  A
    vector is kept when its product, written as a coprime fraction
    n1/n2, has n1 and n2 both dividing n_bound or both powers of two.

    Factors whose value Phi_i(q) carries a prime that cannot cancel
    against any other factor or the bound are pinned to exponent zero
    before enumeration; this keeps the search space tiny without losing
    witnesses.  Phi_1(2) = 1 contributes nothing, so its exponent is
    pinned to zero as well and the trivial identity n = n at q = 2 is
    recorded once with exponent 1.
    """
    if q_max < 2 or m_max < 1 or exp_bound < 1 or n_bound < 1:
        raise ValueError("bounds must be positive")
    strip = tuple(sorted({2, *trial_factor(n_bound)}))
    out: list[SpeceqWitness] = []
    exponent_range = range(-exp_bound, exp_bound + 1)
    for q in range(2, q_max + 1):
        if not is_prime_power(q):
            continue
        values = [phi_value(i, q) for i in range(1, m_max + 1)]
        residues = [_strip_primes(v, strip) for v in values]
        active = [i for i in range(m_max) if values[i] != 1]
        if q == 2:
            out.append(SpeceqWitness(q=2, m=1, exponents=(1,), n1=1, n2=1))
        changed = True
        while changed:
            changed = False
            for i in list(active):
                if residues[i] == 1:
                    continue
                others = 1
                for j in active:
                    if j != i:
                        others *= residues[j]
                left = residues[i]
                while left > 1:
                    g = gcd(left, others)
                    if g == 1:
                        break
                    left //= g
                if left > 1:
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
            out.append(
                SpeceqWitness(
                    q=q, m=top + 1, exponents=tuple(exponents), n1=num, n2=den
                )
            )
    out.sort(key=lambda w: (w.q, w.m, w.exponents))
    return tuple(out)


# ---------------------------------------------------------------------------
# torus orders and primitive prime divisors


@dataclass(frozen=True)
class ToriEntry:
    """Orders of two maximal tori for one series, as cyclotomic products.

    m1 and m2 are the arguments for the primitive prime divisor attached
    to each torus order.
    """

    series: str
    n: int
    t1: Poly
    t2: Poly
    m1: int
    m2: int


TORI_SERIES = ("A", "2A", "B/C", "D", "2D", "E6", "2E6", "E7")


def _x_pow_plus_one(k: int) -> Poly:
    return Poly.one().shift(k) + Poly.one()


def tori_entry(series: str, n: int) -> ToriEntry:
    """Torus order pair for one series and rank.

    Rank constraints follow the tables: A needs n >= 1, 2A and B/C need
    n >= 2, D and 2D need n >= 4, and the exceptional rows have fixed
    rank.  Unknown series raise ValueError.
    """
    if series == "A":
        if n < 1:
            raise ValueError("series A needs n >= 1")
        t1 = Poly.x_power_minus_one(n + 1).exact_div(Poly.x_power_minus_one(1))
        return ToriEntry(series, n, t1, Poly.x_power_minus_one(n), n + 1, n)
    if series == "2A":
        if n < 2:
            raise ValueError("series 2A needs n >= 2")
        if n % 2 == 0:
            t1 = _x_pow_plus_one(n + 1).exact_div(_x_pow_plus_one(1))
            return ToriEntry(series, n, t1, Poly.x_power_minus_one(n), 2 * n + 2, n)
        t1 = Poly.x_power_minus_one(n + 1).exact_div(_x_pow_plus_one(1))
        return ToriEntry(series, n, t1, _x_pow_plus_one(n), n + 1, 2 * n)
    if series == "B/C":
        if n < 2:
            raise ValueError("series B/C needs n >= 2")
        if n % 2 == 0:
            t2 = _x_pow_plus_one(n - 1) * _x_pow_plus_one(1)
            return ToriEntry(series, n, _x_pow_plus_one(n), t2, 2 * n, 2 * n - 2)
        return ToriEntry(
            series, n, _x_pow_plus_one(n), Poly.x_power_minus_one(n), 2 * n, n
        )
    if series == "D":
        if n < 4:
            raise ValueError("series D needs n >= 4")
        t2 = _x_pow_plus_one(n - 1) * _x_pow_plus_one(1)
        if n % 2 == 0:
            t1 = Poly.x_power_minus_one(n - 1) * Poly.x_power_minus_one(1)
            return ToriEntry(series, n, t1, t2, n - 1, 2 * n - 2)
        return ToriEntry(series, n, Poly.x_power_minus_one(n), t2, n, 2 * n - 2)
    if series == "2D":
        if n < 4:
            raise ValueError("series 2D needs n >= 4")
        t2 = _x_pow_plus_one(n - 1) * Poly.x_power_minus_one(1)
        return ToriEntry(series, n, _x_pow_plus_one(n), t2, 2 * n, 2 * n - 2)
    if series == "E6":
        if n != 6:
            raise ValueError("series E6 has rank 6")
        t1 = cyclotomic_poly(12) * cyclotomic_poly(3)
        return ToriEntry(series, 6, t1, cyclotomic_poly(9), 12, 9)
    if series == "2E6":
        if n != 6:
            raise ValueError("series 2E6 has rank 6")
        t2 = cyclotomic_poly(12) * cyclotomic_poly(6)
        return ToriEntry(series, 6, cyclotomic_poly(18), t2, 18, 12)
    if series == "E7":
        if n != 7:
            raise ValueError("series E7 has rank 7")
        t1 = cyclotomic_poly(18) * cyclotomic_poly(2)
        t2 = cyclotomic_poly(14) * cyclotomic_poly(2)
        return ToriEntry(series, 7, t1, t2, 18, 14)
    raise ValueError(f"unknown series {series!r}")


@dataclass(frozen=True)
class ToriCheckReport:
    """Evaluation of one table row at one q.

    divides1/divides2 are None when the primitive prime does not exist
    (the small-rank exceptions); otherwise they state whether the prime
    divides the corresponding torus order, which the construction should
    always make true.
    """

    entry: ToriEntry
    q: int
    t1_value: int
    t2_value: int
    z1: ZsigmondyResult
    z2: ZsigmondyResult
    divides1: bool | None
    divides2: bool | None

    @property
    def missing(self) -> tuple[int, ...]:
        """Indices (1 and/or 2) whose primitive prime does not exist."""
        out = []
        if self.z1.prime is None:
            out.append(1)
        if self.z2.prime is None:
            out.append(2)
        return tuple(out)

    @property
    def failures(self) -> tuple[int, ...]:
        """Indices whose primitive prime exists but fails to divide."""
        out = []
        if self.divides1 is False:
            out.append(1)
        if self.divides2 is False:
            out.append(2)
        return tuple(out)


def tori_check(entry: ToriEntry, q: int) -> ToriCheckReport:
    """Evaluate both torus orders at q and test primitive prime divisibility.

    >>> rep = tori_check(tori_entry("B/C", 2), 3)
    >>> rep.t1_value, rep.z1.prime, rep.divides1
    (10, 5, True)
    """
    if q < 2:
        raise ValueError("need q >= 2")
    t1_value = entry.t1(q)
    t2_value = entry.t2(q)
    z1 = zsigmondy(q, entry.m1)
    z2 = zsigmondy(q, entry.m2)
    divides1 = None if z1.prime is None else t1_value % z1.prime == 0
    divides2 = None if z2.prime is None else t2_value % z2.prime == 0
    return ToriCheckReport(entry, q, t1_value, t2_value, z1, z2, divides1, divides2)
