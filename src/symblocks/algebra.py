"""Exact arithmetic substrate: integers, dense polynomials, cyclotomic fields.

Everything here is exact. `Poly` coefficients and `CycElt` coordinates (vectors
modulo the monic n-th cyclotomic polynomial) are kept as given: integer
polynomials stay `int` through products and exact quotients (a `Poly` has
no sums or powers), cyclotomic integers through products and powers.  A
`CycElt` has only what `root_monomial`, the one way the program reaches the
field, runs: products and quotients of elements of one order, powers
n >= 0, and the rational test and value.  A `fractions.Fraction` is made
only by the inverse's division by its rational norm, which the program
reaches through the one `/` in `root_monomial`, by that function's division
by an integer denominator and by `CycElt.to_fraction`, for rational callers.
The field needs no linear algebra: the inverse goes through the Galois
substitutions zeta -> zeta**k.  Polynomials are divided only by divisors with
leading coefficient 1 or -1, so integer quotients stay integral. Any other
divisor, and any division that should be exact but is not, raises
`ExactnessError` instead of truncating, so a failed divisibility claim never
yields a wrong value.

Primality is decided in one place, `is_prime`: Miller-Rabin with the prime
bases 2..41 at every size. A failed base proves n composite; passing every
base proves n prime below 3317044064679887385961981 (Sorenson-Webster 2015),
and at or above that bound raises `UnprovenPrimeError`, so no answer rests on
an unproven test and none waits on trial division. Primitive prime divisors
are found by Bang's congruence without factoring Phi_m(q): for m > 2 every
prime factor of Phi_m(q) is primitive except l, the largest prime of m, which
divides it at most once, and each primitive one is 1 mod m (1 mod 2m for odd
m). A cofactor that `is_prime` refuses is refused by `zsigmondy` too, and so
is a composite one whose least prime factor lies past the first
ZSIGMONDY_SEARCH_STEPS terms of that congruence.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt
from typing import Union

Scalar = Union[int, Fraction]


class ExactnessError(ArithmeticError):
    """An operation that must be exact (integer or polynomial division) was not."""


class UnprovenPrimeError(ArithmeticError):
    """The least prime sought is not proven: a number at or above
    MILLER_RABIN_BOUND passed the Miller-Rabin bases (probably prime, but not
    proven prime, so never reported as one), or the search for the least
    prime factor of a composite number ran out of steps."""


def _power(x, n: int):
    """x**n for n >= 1 by binary square-and-multiply.

    The result starts as the power of the lowest set bit of n, so x**1 makes
    no product and x**2 one; each higher bit costs one squaring, plus one
    product when it is set.
    """
    while not n & 1:
        x = x * x
        n >>= 1
    out = x
    n >>= 1
    while n:
        x = x * x
        if n & 1:
            out = out * x
        n >>= 1
    return out


def padic_val(n: int, p: int) -> int:
    """Largest k with p**k dividing n.  n must be nonzero and p at least 2.

    >>> padic_val(24, 2)
    3
    >>> padic_val(24, 5)
    0
    """
    if n == 0:
        raise ValueError("p-adic valuation of 0 is undefined")
    if p < 2:
        raise ValueError(f"p must be at least 2, got {p}")
    n = abs(n)
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return k


def factorial_val(n: int, p: int) -> int:
    """v_p(n!) by the floor-sum formula, for p at least 2.

    >>> factorial_val(10, 2)
    8
    """
    if p < 2:
        raise ValueError(f"p must be at least 2, got {p}")
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
# below MILLER_RABIN_BOUND (Sorenson-Webster 2015).  At or above the bound a
# number that passes them all is only probably prime, and is_prime refuses it.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MILLER_RABIN_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic primality check by Miller-Rabin with the prime bases 2..41.

    A base that fails proves n composite at any size.  Passing every base
    proves n prime below 3317044064679887385961981, where these bases admit no
    strong pseudoprime; at or above it, n is only probably prime, and
    UnprovenPrimeError is raised instead of an answer.

    >>> [k for k in range(2, 20) if is_prime(k)]
    [2, 3, 5, 7, 11, 13, 17, 19]
    >>> is_prime(3215031751)  # strong pseudoprime to the bases 2, 3, 5, 7
    False
    >>> is_prime(2**89 - 1)  # doctest: +ELLIPSIS
    Traceback (most recent call last):
        ...
    symblocks.algebra.UnprovenPrimeError: 618970019642690137449562111 passes ...
    """
    if n < 2:
        return False
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
    if n >= MILLER_RABIN_BOUND:
        raise UnprovenPrimeError(
            f"{n} passes the Miller-Rabin bases, but at or above "
            f"{MILLER_RABIN_BOUND} that proves nothing"
        )
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


class _Frozen:
    """Refuses assignment; a subclass sets its __slots__, listed in the order
    its __init__ takes them, through object.__setattr__."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of {type(self).__name__}")

    def __reduce__(self):
        # pickle and copy would otherwise restore the slots through __setattr__
        return type(self), tuple(getattr(self, name) for name in self.__slots__)


class Poly(_Frozen):
    """A univariate polynomial with exact coefficients, kept as given.

    It has products, division and evaluation, but no sums or powers.
    Coefficients are stored low degree first; the zero polynomial has an
    empty coefficient tuple.  A Poly is immutable (`cyclotomic_poly` hands
    out cached ones) and equals only another Poly.

    >>> p = Poly.of(-1, 0, 1)   # x^2 - 1
    >>> p.degree
    2
    >>> p(3)
    8
    >>> (p * p).degree
    4
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: tuple[Scalar, ...]):
        object.__setattr__(self, "coeffs", coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.coeffs,))

    def __repr__(self) -> str:
        return f"Poly(coeffs={self.coeffs!r})"

    @staticmethod
    def of(*cs: Scalar) -> "Poly":
        return Poly(_strip(list(cs)))

    @staticmethod
    def one() -> "Poly":
        return Poly.of(1)

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

    def divrem(self, other: "Poly") -> tuple["Poly", "Poly"]:
        """Quotient and remainder by a divisor with leading coefficient +-1."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        lead = other.coeffs[-1]
        if lead not in (1, -1):
            raise ExactnessError(f"leading coefficient of {other.coeffs} is not 1 or -1")
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
            raise ExactnessError(f"inexact polynomial division (remainder {r.coeffs})")
        return q

    def __mod__(self, other: "Poly") -> "Poly":
        return self.divrem(other)[1]

    def __call__(self, x):
        """Horner evaluation; works for any value supporting * and +."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc


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

    >>> cyclotomic_poly(1).coeffs
    (-1, 1)
    >>> cyclotomic_poly(6).coeffs
    (1, -1, 1)
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


# The series whose pair of maximal tori `unipotent.tori_entry` tabulates for
# the primitive prime checks; kept here, beside the search those checks run,
# so that the CLI offers them without loading `unipotent`.
TORI_SERIES = ("A", "2A", "B/C", "D", "2D", "E6", "2E6", "E7")

# candidates d = 1 + k*s that `zsigmondy` tries before it gives up on a
# composite cofactor
ZSIGMONDY_SEARCH_STEPS = 2**23


def zsigmondy(q: int, m: int) -> int | None:
    """Smallest primitive prime divisor of q**m - 1, or None if none exists.

    A primitive prime divides q**m - 1 but no q**i - 1 with i < m.

    Every such prime divides Phi_m(q).  By Bang's theorem, for m > 2 every
    prime factor of Phi_m(q) is primitive except l, the largest prime of m,
    which divides it at most once; for m = 2 every odd prime factor of q + 1
    is primitive, and for m = 1 every prime factor of q - 1 is.  An odd
    primitive prime p has q of order m mod p, so p is 1 mod m, and 1 mod 2m
    for odd m.  So once l is divided out (for m = 2 the 2s; for m = 1 an even
    q - 1 gives 2), every prime factor of the cofactor is 1 mod s, with s = m
    for even m and 2m for odd m.  The answer is its least prime factor: the
    cofactor itself if `is_prime` proves it prime, else the first
    d = 1 + k*s that divides it, which is prime because its prime factors
    would be smaller terms of the same progression.  Phi_m(q) is never
    factored in full.  A cofactor that `is_prime` refuses raises its
    UnprovenPrimeError before any search, and a composite one whose least
    prime factor is not among the first ZSIGMONDY_SEARCH_STEPS terms raises
    UnprovenPrimeError when the search ends.

    >>> zsigmondy(2, 4)
    5
    >>> zsigmondy(2, 6) is None
    True
    >>> zsigmondy(3, 2) is None
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
        return 2
    if val == 1:
        return None
    if is_prime(val):
        return val
    step = m if m % 2 == 0 else 2 * m
    root = isqrt(val)
    last = min(root, 1 + ZSIGMONDY_SEARCH_STEPS * step)
    for d in range(1 + step, last + 1, step):
        if val % d == 0:
            return d
    if last < root:
        raise UnprovenPrimeError(
            f"the composite cofactor {val} of Phi_{m}({q}) has no prime factor "
            f"up to {last}, the end of a search of {ZSIGMONDY_SEARCH_STEPS} steps"
        )
    return val


# ---------------------------------------------------------------------------
# cyclotomic field elements


@lru_cache(maxsize=None)
def _cyc_degree(order: int) -> int:
    return cyclotomic_poly(order).degree


@lru_cache(maxsize=None)
def _units(order: int) -> tuple[int, ...]:
    """The a in 1..order prime to order, 1 first: zeta -> zeta**a are the
    Galois automorphisms sigma_a of Q(zeta_order)."""
    return tuple(a for a in range(1, order + 1) if gcd(a, order) == 1)


class CycElt(_Frozen):
    """An element of the cyclotomic field Q(zeta_order), as `root_monomial`
    builds it.

    Stored as the coordinate vector of its residue modulo the order-th
    cyclotomic polynomial, so the representation is a field: every nonzero
    element has an inverse.  Coordinates are kept as given: `int`
    coordinates stay `int` under * and **, and only `inverse`, `/` and
    `to_fraction` make a `Fraction`.  Both operands of * and / have the
    same order.  `inverse` is built on the substitution zeta -> zeta**k
    (`_substitute`).  A CycElt is immutable, as a Poly is.

    >>> z = CycElt.from_poly(3, Poly.of(0, 1))
    >>> (z ** 3).coords
    (1, 0)
    >>> (z * z).coords, (z * z).is_rational()
    ((-1, -1), False)
    >>> (z ** 3 / z ** 3).to_fraction()
    Fraction(1, 1)
    """

    __slots__ = ("order", "coords")

    def __init__(self, order: int, coords: tuple[Scalar, ...]):
        d = _cyc_degree(order)
        if len(coords) != d:
            raise ValueError(f"need exactly {d} coordinates for order {order}")
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coords", coords)

    # construction -----------------------------------------------------

    @staticmethod
    def from_poly(order: int, p: Poly) -> "CycElt":
        rem = p % cyclotomic_poly(order)
        return CycElt(order, rem.coeffs + (0,) * (_cyc_degree(order) - len(rem.coeffs)))

    @staticmethod
    def from_rational(order: int, a: Scalar) -> "CycElt":
        # order 1: the basis vector is 1 itself (x == 1 mod x-1), same slot
        return CycElt(order, (a,) + (0,) * (_cyc_degree(order) - 1))

    # predicates -------------------------------------------------------

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coords[1:])

    def to_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ExactnessError(f"{self!r} is not rational")
        return Fraction(self.coords[0])

    # arithmetic -------------------------------------------------------

    def __mul__(self, other: "CycElt") -> "CycElt":
        if other.order != self.order:
            raise ValueError("mixed cyclotomic orders; lift to a common field first")
        return CycElt.from_poly(self.order, Poly(self.coords) * Poly(other.coords))

    def inverse(self) -> "CycElt":
        """Multiplicative inverse: the product of the other Galois conjugates
        over the norm (Cohen, A Course in Computational Algebraic Number
        Theory, 4.3).  The norm x * prod_(a != 1) sigma_a(x) is rational, so
        the inverse makes one Fraction division per coordinate."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero in a cyclotomic field")
        conjugates = (self._substitute(a) for a in _units(self.order)[1:])
        rest = next(conjugates, CycElt.from_rational(self.order, 1))  # 1 in Q
        for c in conjugates:
            rest = rest * c
        norm = (self * rest).to_fraction()
        return CycElt(self.order, tuple(Fraction(c) / norm for c in rest.coords))

    def __truediv__(self, other: "CycElt") -> "CycElt":
        return self * other.inverse()

    def __pow__(self, n: int) -> "CycElt":
        """self**n for n >= 0."""
        return _power(self, n) if n else CycElt.from_rational(self.order, 1)

    def _substitute(self, k: int) -> "CycElt":
        """The Galois image under zeta -> zeta**k: coordinate j moves to
        exponent k*j mod order, reduced once mod Phi_order."""
        cs = [0] * self.order
        for j, c in enumerate(self.coords):
            cs[k * j % self.order] += c
        return CycElt.from_poly(self.order, Poly.of(*cs))

    def __repr__(self) -> str:
        return f"CycElt(order={self.order}, coords={self.coords})"


@lru_cache(maxsize=None)
def _one_minus_root_power(order: int, k: int, n: int) -> CycElt:
    """(1 - zeta_order^k)^n, built once per (order, k, n)."""
    return CycElt.from_poly(order, Poly.of(1, *(0,) * (k - 1), -1)) ** n


def root_monomial(order: int, num: int, den: int, exponent: int, powers) -> CycElt:
    """(num/den) * zeta^exponent * prod_(0<k<order) (1 - zeta^k)^(powers[k]),
    zeta = zeta_order.  Numerator and denominator multiply the cached powers
    on integer coordinates, then one `/` divides.  With no negative power
    the denominator is the integer den, and each coordinate is divided by
    it with no inverse.

    >>> root_monomial(4, 1, 2, 1, (0, 0, 1, 0)).coords
    (Fraction(0, 1), Fraction(1, 1))
    >>> root_monomial(3, 3, 2, 0, (0, 0, 0)).to_fraction()
    Fraction(3, 2)
    """
    top = CycElt.from_poly(order, Poly.of(*(0,) * (exponent % order), num))
    for k in range(1, order):
        if powers[k] > 0:
            top = top * _one_minus_root_power(order, k, powers[k])
    negative = [k for k in range(1, order) if powers[k] < 0]
    if not negative:
        return CycElt(order, tuple(Fraction(c, den) for c in top.coords))
    bottom = CycElt.from_rational(order, den)
    for k in negative:
        bottom = bottom * _one_minus_root_power(order, k, -powers[k])
    return top / bottom


def field_value_str(x) -> str:
    """Serialize a Fraction or CycElt for reports; a rational CycElt as a Fraction."""
    if isinstance(x, CycElt):
        if not x.is_rational():
            return f"cyc{x.order}:" + ",".join(str(c) for c in x.coords)
        x = x.to_fraction()
    return str(x)
