"""Exact arithmetic substrate: integers, dense polynomials, cyclotomic fields.

Everything here is exact. `Poly` coefficients and `CycElt` coordinates (vectors
modulo the monic n-th cyclotomic polynomial) are kept as given, so integer
polynomials and cyclotomic integers stay `int` through sums, products and powers.
A `fractions.Fraction` is made only by `_solve_rational`, the one exact division
(`CycElt.inverse`, `/`, `hash`), and by `CycElt.to_fraction`, the boundary to
rational callers. Polynomials are divided only by divisors with leading
coefficient 1 or -1, so integer quotients stay integral. Any other divisor, and
any division that should be exact but is not, raises `ExactnessError` instead
of truncating, so a failed divisibility claim never yields a wrong value.

Primality is deterministic Miller-Rabin with the prime bases 2..41, proven
correct below 3317044064679887385961981 (Sorenson-Webster 2015); at or above
that bound `is_prime` falls back to `trial_factor`, so no answer rests on an
unproven test. Primitive prime divisors are found by Bang's congruence without
factoring Phi_m(q): for m > 2 every prime factor of Phi_m(q) is primitive
except l, the largest prime of m, which divides it at most once, and each
primitive one is 1 mod m (1 mod 2m for odd m).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import Union

Scalar = Union[int, Fraction]


class ExactnessError(ArithmeticError):
    """An operation that must be exact (integer or polynomial division) was not."""


def padic_val(n: int, p: int) -> int:
    """Largest k with p**k dividing n.  n must be nonzero.

    >>> padic_val(24, 2)
    3
    >>> padic_val(24, 5)
    0
    """
    if n == 0:
        raise ValueError("p-adic valuation of 0 is undefined")
    n = abs(n)
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return k


def factorial_val(n: int, p: int) -> int:
    """v_p(n!) by the floor-sum formula.

    >>> factorial_val(10, 2)
    8
    """
    total = 0
    q = p
    while q <= n:
        total += n // q
        q *= p
    return total


def trial_factor(n: int) -> dict[int, int]:
    """Factor n >= 1 by deterministic trial division; returns {prime: exponent}.

    >>> trial_factor(360)
    {2: 3, 3: 2, 5: 1}
    >>> trial_factor(1)
    {}
    """
    if n < 1:
        raise ValueError("trial_factor expects n >= 1")
    out: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    d = 5
    # wheel over 6k +- 1
    while d * d <= n:
        for p in (d, d + 2):
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
        d += 6
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return dict(sorted(out.items()))


# The first 13 primes; as Miller-Rabin bases they admit no strong pseudoprime
# below MILLER_RABIN_BOUND (Sorenson-Webster 2015).  At or above the bound
# is_prime trial-divides, which never finishes for a large prime, so the CLI
# rejects prime inputs there.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MILLER_RABIN_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic primality check.

    Below 3317044064679887385961981 this is Miller-Rabin with the prime bases
    2..41, proven to admit no strong pseudoprime there; at or above it, n is
    factored by `trial_factor`.

    >>> [k for k in range(2, 20) if is_prime(k)]
    [2, 3, 5, 7, 11, 13, 17, 19]
    >>> is_prime(3215031751)  # strong pseudoprime to the bases 2, 3, 5, 7
    False
    """
    if n < 2:
        return False
    if n >= MILLER_RABIN_BOUND:
        return trial_factor(n) == {n: 1}
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _iroot(n: int, k: int) -> int:
    """Largest r with r**k <= n, for n >= 1, by integer Newton steps.

    >>> _iroot(3**40, 40), _iroot(3**40 - 1, 40), _iroot(10, 1)
    (3, 2, 10)
    """
    r = 1 << -(-n.bit_length() // k)  # 2**ceil(bits/k) > n**(1/k)
    while True:
        s = ((k - 1) * r + n // r ** (k - 1)) // k
        if s >= r:
            return r
        r = s


def power_base(q: int) -> int:
    """The least r with q = r**k for some k >= 1, for q >= 2.

    The largest k with q an exact k-th power r**k gives the least such r.

    >>> power_base(3**40), power_base(6**20), power_base(12)
    (3, 6, 12)
    """
    for k in range(q.bit_length(), 1, -1):
        r = _iroot(q, k)
        if r >= 2 and r**k == q:
            return r
    return q


def is_prime_power(q: int) -> bool:
    """True when q = p**k for a prime p and k >= 1, that is, when the least
    base of q is prime.

    >>> [q for q in range(2, 30) if is_prime_power(q)]
    [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29]
    """
    return q >= 2 and is_prime(power_base(q))


# ---------------------------------------------------------------------------
# dense polynomials


def _strip(coeffs: list[Scalar]) -> tuple[Scalar, ...]:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


@dataclass(frozen=True)
class Poly:
    """A univariate polynomial with exact coefficients, kept as given.

    Coefficients are stored low degree first; the zero polynomial has an
    empty coefficient tuple.

    >>> p = Poly.of(-1, 0, 1)   # x^2 - 1
    >>> p.degree
    2
    >>> p(3)
    8
    >>> (p * p).degree
    4
    """

    coeffs: tuple[Scalar, ...]

    @staticmethod
    def of(*cs: Scalar) -> "Poly":
        return Poly(_strip(list(cs)))

    @staticmethod
    def zero() -> "Poly":
        return Poly(())

    @staticmethod
    def one() -> "Poly":
        return Poly.of(1)

    @staticmethod
    def x() -> "Poly":
        return Poly.of(0, 1)

    @staticmethod
    def x_power_minus_one(n: int) -> "Poly":
        """x**n - 1, n >= 0; the zero polynomial for n = 0."""
        if n < 0:
            raise ValueError("x**n - 1 needs n >= 0")
        cs = [0] * (n + 1)
        cs[n] += 1
        cs[0] -= 1
        return Poly(_strip(cs))

    @property
    def degree(self) -> int:
        """Degree, with the convention deg 0 = -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __add__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(_strip(out))

    def __neg__(self) -> "Poly":
        return Poly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly(())
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    if cb:
                        out[i + j] += ca * cb
        return Poly(_strip(out))

    def shift(self, k: int) -> "Poly":
        """Multiply by x**k."""
        if not self.coeffs:
            return self
        return Poly((0,) * k + self.coeffs)

    def __pow__(self, n: int) -> "Poly":
        out = Poly.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def divrem(self, other: "Poly") -> tuple["Poly", "Poly"]:
        """Quotient and remainder by a divisor with leading coefficient +-1."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        lead = other.coeffs[-1]
        if lead not in (1, -1):
            raise ExactnessError(f"leading coefficient of {other} is not 1 or -1")
        rem = list(self.coeffs)
        d = other.degree
        q = [0] * max(0, len(rem) - d)
        for i in range(len(rem) - 1, d - 1, -1):
            c = rem[i]
            if c == 0:
                continue
            factor = c * lead
            q[i - d] = factor
            for j, oc in enumerate(other.coeffs):
                rem[i - d + j] -= factor * oc
        return Poly(_strip(q)), Poly(_strip(rem))

    def exact_div(self, other: "Poly") -> "Poly":
        """Division known to be exact; raises ExactnessError on a remainder."""
        q, r = self.divrem(other)
        if not r.is_zero():
            raise ExactnessError(f"inexact polynomial division (remainder {r})")
        return q

    def __mod__(self, other: "Poly") -> "Poly":
        return self.divrem(other)[1]

    def __call__(self, x):
        """Horner evaluation; works for any value supporting * and +."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append(f"{c}*x" if c != 1 else "x")
            else:
                parts.append(f"{c}*x^{i}" if c != 1 else f"x^{i}")
        return " + ".join(reversed(parts))


def divisors(n: int) -> list[int]:
    """Sorted list of positive divisors.

    >>> divisors(12)
    [1, 2, 3, 4, 6, 12]
    """
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


@lru_cache(maxsize=None)
def cyclotomic_poly(n: int) -> Poly:
    """The n-th cyclotomic polynomial, with integer coefficients.

    Computed by dividing x**n - 1 by the cyclotomic polynomials of the
    proper divisors of n.

    >>> print(cyclotomic_poly(1))
    x + -1
    >>> print(cyclotomic_poly(6))
    x^2 + -1*x + 1
    >>> cyclotomic_poly(6)(2) == cyclotomic_poly(2)(2) == 3
    True
    """
    if n < 1:
        raise ValueError("cyclotomic polynomials are indexed by n >= 1")
    num = Poly.x_power_minus_one(n)
    for d in divisors(n):
        if d < n:
            num = num.exact_div(cyclotomic_poly(d))
    return num


def phi_value(i: int, q: int) -> int:
    """Phi_i(q) as an integer."""
    return cyclotomic_poly(i)(q)


# ---------------------------------------------------------------------------
# primitive prime divisors


@dataclass(frozen=True)
class ZsigmondyResult:
    """Outcome of the primitive-prime-divisor search for q**m - 1.

    `prime` is the smallest prime dividing q**m - 1 but no q**i - 1 with
    i < m, or None when no such prime exists.
    """

    q: int
    m: int
    prime: int | None


def zsigmondy(q: int, m: int) -> ZsigmondyResult:
    """Smallest primitive prime divisor of q**m - 1, if one exists.

    Every such prime divides Phi_m(q).  By Bang's theorem, for m > 2 every
    prime factor of Phi_m(q) is primitive except l, the largest prime of m,
    which divides it at most once; for m = 2 every odd prime factor of q + 1
    is primitive, and for m = 1 every prime factor of q - 1 is.  An odd
    primitive prime p has q of order m mod p, so p is 1 mod m, and 1 mod 2m
    for odd m.  So once l is divided out (for m = 2 the 2s; for m = 1 an even
    q - 1 gives 2), every prime factor of the cofactor is 1 mod s, with s = m
    for even m and 2m for odd m.  The answer is its least prime factor: the
    cofactor itself if Miller-Rabin proves it prime, else the first
    d = 1 + k*s that divides it, which is prime because its prime factors
    would be smaller terms of the same progression.  Phi_m(q) is never
    factored in full.

    >>> zsigmondy(2, 4).prime
    5
    >>> zsigmondy(2, 6).prime is None
    True
    >>> zsigmondy(3, 2).prime is None
    True
    """
    if q < 2 or m < 1:
        raise ValueError("need q >= 2 and m >= 1")
    val = phi_value(m, q)
    if m >= 3:
        ell = max(trial_factor(m))
        if val % ell == 0:
            val //= ell
            if val % ell == 0:
                raise ExactnessError(
                    f"{ell}**2 divides Phi_{m}({q}), against Bang's theorem"
                )
    elif m == 2:
        while val % 2 == 0:
            val //= 2
    elif val % 2 == 0:
        return ZsigmondyResult(q, m, 2)
    if val == 1:
        return ZsigmondyResult(q, m, None)
    if val < MILLER_RABIN_BOUND and is_prime(val):
        return ZsigmondyResult(q, m, val)
    step = m if m % 2 == 0 else 2 * m
    d = 1 + step
    while d * d <= val:
        if val % d == 0:
            return ZsigmondyResult(q, m, d)
        d += step
    return ZsigmondyResult(q, m, val)


# ---------------------------------------------------------------------------
# cyclotomic field elements


@lru_cache(maxsize=None)
def _cyc_degree(order: int) -> int:
    return cyclotomic_poly(order).degree


class CycElt:
    """An element of the cyclotomic field Q(zeta_order).

    Stored as the coordinate vector of its residue modulo the order-th
    cyclotomic polynomial, so the representation is a field: every nonzero
    element has an inverse.  Coordinates are kept as given: `int` coordinates
    stay `int` under +, -, * and **, and only `inverse`, `/` and `to_fraction`
    make a `Fraction`.

    >>> z = CycElt.root(3)
    >>> z ** 3 == 1
    True
    >>> (z + z**2 + z**3).is_rational()
    True
    >>> (z + z**2 + z**3).to_fraction()
    Fraction(0, 1)
    """

    __slots__ = ("order", "coords")

    def __init__(self, order: int, coords: tuple[Scalar, ...]):
        d = _cyc_degree(order)
        if len(coords) != d:
            raise ValueError(f"need exactly {d} coordinates for order {order}")
        self.order = order
        self.coords = coords

    # construction -----------------------------------------------------

    @staticmethod
    def from_poly(order: int, p: Poly) -> "CycElt":
        rem = p % cyclotomic_poly(order)
        return CycElt(order, rem.coeffs + (0,) * (_cyc_degree(order) - len(rem.coeffs)))

    @staticmethod
    def from_rational(order: int, a: Scalar) -> "CycElt":
        # order 1: the basis vector is 1 itself (x == 1 mod x-1), same slot
        return CycElt(order, (a,) + (0,) * (_cyc_degree(order) - 1))

    @staticmethod
    def root(order: int, k: int = 1) -> "CycElt":
        """zeta_order ** k."""
        return CycElt.from_poly(order, Poly.x() ** (k % order))

    # predicates -------------------------------------------------------

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def __bool__(self) -> bool:
        return not self.is_zero()

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coords[1:])

    def to_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ExactnessError(f"{self!r} is not rational")
        return Fraction(self.coords[0])

    # arithmetic -------------------------------------------------------

    def _coerce(self, other) -> "CycElt":
        if isinstance(other, CycElt):
            if other.order != self.order:
                raise ValueError(
                    "mixed cyclotomic orders; lift to a common field first"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return CycElt.from_rational(self.order, other)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return CycElt(self.order, tuple(a + b for a, b in zip(self.coords, o.coords)))

    __radd__ = __add__

    def __neg__(self):
        return CycElt(self.order, tuple(-a for a in self.coords))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return CycElt.from_poly(self.order, Poly(self.coords) * Poly(o.coords))

    __rmul__ = __mul__

    def inverse(self) -> "CycElt":
        """Multiplicative inverse: the y = sum_j y_j zeta**j with self * y == 1."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero in a cyclotomic field")
        d = _cyc_degree(self.order)
        columns = [(self * CycElt.root(self.order, j)).coords for j in range(d)]
        one = CycElt.from_rational(self.order, 1)
        return CycElt(self.order, _solve_rational(columns, one.coords))

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, n: int) -> "CycElt":
        if n < 0:
            return self.inverse() ** (-n)
        out = CycElt.from_rational(self.order, 1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # comparison -------------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.coords[0] == other
        if isinstance(other, CycElt):
            if other.order == self.order:
                return self.coords == other.coords
            if self.is_rational() and other.is_rational():
                return self.coords[0] == other.coords[0]
            # compare in the compositum
            L = lcm(self.order, other.order)
            return self.embed(L).coords == other.embed(L).coords
        return NotImplemented

    def __hash__(self):
        # x == x.embed(k), so hash x in the least field Q(zeta_m) holding it:
        # the fields holding x are closed under intersection, so m is the
        # first divisor of the order whose embedded power basis spans x.
        for m in divisors(self.order):
            basis = [
                CycElt.root(m, j).embed(self.order).coords
                for j in range(_cyc_degree(m))
            ]
            coords = _solve_rational(basis, self.coords)
            if coords is not None:
                return hash(coords[0]) if m == 1 else hash((m, coords))

    def embed(self, target_order: int) -> "CycElt":
        """Image under zeta_order -> zeta_target ** (target/order)."""
        if target_order % self.order != 0:
            raise ValueError("target order must be a multiple of the current order")
        step = target_order // self.order
        zk = Poly.x() ** step
        acc = Poly.zero()
        for c in reversed(self.coords):
            acc = acc * zk + Poly.of(c)
        return CycElt.from_poly(target_order, acc)

    def __repr__(self) -> str:
        return f"CycElt(order={self.order}, coords={self.coords})"


def _solve_rational(columns, target):
    """Exact y with sum_j y_j * columns[j] == target, or None if there is none.

    The columns must be linearly independent.  Rows become Fractions first,
    so integer input never divides to a float.
    """
    rows = [[Fraction(x) for x in row] for row in zip(*columns, target)]
    width = len(columns)
    for c in range(width):
        pivot = next(k for k in range(c, len(rows)) if rows[k][c])
        rows[c], rows[pivot] = rows[pivot], rows[c]
        rows[c] = [x / rows[c][c] for x in rows[c]]
        for k, row in enumerate(rows):
            if k != c and row[c]:
                rows[k] = [a - row[c] * b for a, b in zip(row, rows[c])]
    if any(row[-1] for row in rows[width:]):
        return None
    return tuple(row[-1] for row in rows[:width])


def lcm(a: int, b: int) -> int:
    return a * b // gcd(a, b)


def field_value_str(x) -> str:
    """Serialize a Fraction or CycElt for reports."""
    if isinstance(x, CycElt):
        if x.is_rational():
            x = x.to_fraction()
        else:
            return f"cyc{x.order}:" + ",".join(str(c) for c in x.coords)
    if isinstance(x, Fraction) and x.denominator == 1:
        return str(x.numerator)
    return str(x)
