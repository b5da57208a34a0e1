"""Multipartitions, e-symbols, and exact Schur-element evaluation.

An e-symbol is a tuple of e strictly increasing rows of non-negative
integers, all of the same length m.  Symbols are considered up to the
simultaneous shift (s_1, ..., s_m) -> (0, s_1 + 1, ..., s_m + 1) applied to
every row; equivalence classes of rank-r symbols biject with e-tuples of
partitions of total size r (multipartitions).

The central object is the product formula f_S(v; u_1, ..., u_e), a rational
function whose inverse is the Schur element of the corresponding character
of the wreath product G(e,1,r).  Specializing v -> 1 and u_j -> zeta_e^j is
singular factor by factor, so evaluation is structural: every factor has the
shape v^a*x - v^b*y, a factor vanishing at the chosen v contributes exactly
one order of vanishing with residual (a-b) * v^(a-1) * x, and the total
order of the quotient must come out to zero.

The factors take few distinct values: a factor v^a*x_i - v^b*x_j that does
not vanish is v^b times its class v^(a-b)*x_i - x_j, and at v = 1 every
class is just the row pair x_i - x_j.  So the factors are tallied by class
first, and each distinct class is raised to its net power once.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, lcm
from typing import NamedTuple, Sequence, Union

from .algebra import CycElt
from .partitions import Partition, beta_set, degree, enumerate_partitions

Multipartition = tuple[Partition, ...]
ESymbol = tuple[tuple[int, ...], ...]
FieldValue = Union[Fraction, CycElt]


class SchurEvaluationError(ArithmeticError):
    """Base class for structural evaluation failures."""


class InadmissibleParametersError(SchurEvaluationError):
    """A cross-row factor vanished; the parameter tuple is not allowed."""


class PoleError(SchurEvaluationError):
    """The requested specialization is a pole (negative total order)."""


class PositiveOrderZeroError(SchurEvaluationError):
    """The requested specialization vanishes to positive order."""


# ---------------------------------------------------------------------------
# multipartitions and symbols


def enumerate_multipartitions(e: int, r: int):
    """Yield all e-tuples of partitions of total size r, deterministically.

    >>> len(list(enumerate_multipartitions(2, 2)))
    5
    """
    if e == 0:
        if r == 0:
            yield ()
        return
    for k in range(r, -1, -1):
        for head in enumerate_partitions(k):
            for tail in enumerate_multipartitions(e - 1, r - k):
                yield (head,) + tail


def check_symbol(sym: ESymbol) -> None:
    if not sym:
        raise ValueError("a symbol needs at least one row")
    m = len(sym[0])
    for row in sym:
        if len(row) != m:
            raise ValueError("rows must all have the same length")
        if any(x < 0 for x in row):
            raise ValueError("entries must be non-negative")
        if any(row[i] >= row[i + 1] for i in range(len(row) - 1)):
            raise ValueError("rows must be strictly increasing")


def symbol_of(nu: Multipartition) -> ESymbol:
    """Minimal-length symbol of a multipartition.

    >>> symbol_of(((1,), ()))
    ((1,), (0,))
    >>> symbol_of(((), (), ()))
    ((), (), ())
    """
    m = max((len(c) for c in nu), default=0)
    return tuple(beta_set(c, m) for c in nu)


def symbol_rank(sym: ESymbol) -> int:
    m = len(sym[0])
    e = len(sym)
    return sum(sum(row) for row in sym) - e * comb(m, 2)


def symbol_a(sym: ESymbol) -> int:
    """The exponent of v in the denominator of the Schur product."""
    m = len(sym[0])
    e = len(sym)
    return sum(comb(e * i, 2) for i in range(1, m))


def symbol_c(sym: ESymbol) -> int:
    """The exponent of the global sign of the Schur product."""
    m = len(sym[0])
    e = len(sym)
    r = symbol_rank(sym)
    return comb(e, 2) * comb(m, 2) + r * (e - 1)


def symbol_hooks(sym: ESymbol):
    """Yield the hooks of the symbol as (i, j, length), rows 0-indexed.

    A hook pairs s in row i with a gap t <= s of row j (a t in {0..s}
    missing from row j), of length s - t; t == s only counts for j > i, so
    length zero is allowed.  Each row's gaps are listed once, in ascending
    order, so the hooks of s in row i against row j are s minus a prefix of
    that list: the gaps t < s, and t == s as well when j > i.

    >>> list(symbol_hooks(((2,), (0,))))
    [(0, 0, 2), (0, 0, 1), (0, 1, 1), (0, 1, 0)]
    """
    check_symbol(sym)
    top = max((row[-1] for row in sym if row), default=-1)
    gaps = []
    for row in sym:
        row_gaps: list[int] = []
        prev = -1
        for b in (*row, top + 1):
            row_gaps.extend(range(prev + 1, b))
            prev = b
        gaps.append(row_gaps)
    for i, row in enumerate(sym):
        for s in row:
            for j, row_gaps in enumerate(gaps):
                for t in row_gaps[: bisect_left(row_gaps, s + (j > i))]:
                    yield i, j, s - t


def wreath_degree(nu: Multipartition) -> int:
    """Degree of the irreducible character of G(e,1,r) indexed by nu.

    Multinomial coefficient of the component sizes times the product of the
    symmetric-group degrees of the components.

    >>> wreath_degree(((1,), (1,)))
    2
    >>> wreath_degree(((), (2, 1), ()))
    2
    """
    sizes = [sum(c) for c in nu]
    r = sum(sizes)
    out = factorial(r)
    for s in sizes:
        out //= factorial(s)
    for c in nu:
        out *= degree(c)
    return out


# ---------------------------------------------------------------------------
# parameters and structural evaluation


def normalize_field_values(values: Sequence) -> tuple[FieldValue, ...]:
    """Lift a mix of ints, Fractions and CycElts into one common field."""
    orders = [v.order for v in values if isinstance(v, CycElt)]
    if not orders:
        return tuple(Fraction(v) for v in values)
    L = lcm(*orders)
    out = []
    for v in values:
        if isinstance(v, CycElt):
            out.append(v.embed(L))
        else:
            out.append(CycElt.from_rational(L, v))
    return tuple(out)


class ParamSpec(NamedTuple):
    """A specialization point (v; u_1, ..., u_e), all in one field.

    Entries of u must be pairwise distinct; per-symbol admissibility (no
    vanishing cross-row factor) is checked during evaluation.
    """

    v: FieldValue
    u: tuple[FieldValue, ...]

    @staticmethod
    def of(v, u: Sequence) -> "ParamSpec":
        vals = normalize_field_values([v, *u])
        v_n, u_n = vals[0], vals[1:]
        for a in range(len(u_n)):
            for b in range(a + 1, len(u_n)):
                if u_n[a] == u_n[b]:
                    raise ValueError(f"u entries must be pairwise distinct: {u!r}")
        return ParamSpec(v_n, tuple(u_n))

    @staticmethod
    @lru_cache(maxsize=None)
    def roots_of_unity(e: int) -> "ParamSpec":
        """v = 1 and u_j = zeta_e^j (so u_e = 1), in Q(zeta_e); built once per e."""
        if e == 1:
            return ParamSpec(Fraction(1), (Fraction(1),))
        if e == 2:
            return ParamSpec(Fraction(1), (Fraction(-1), Fraction(1)))
        return ParamSpec.of(1, [CycElt.root(e, j) for j in range(1, e + 1)])


def _field_scalar(like: FieldValue, c: int) -> FieldValue:
    """The integer c in the field of `like`."""
    if isinstance(like, CycElt):
        return CycElt.from_rational(like.order, c)
    return Fraction(c)


def schur_value(sym: ESymbol, params: ParamSpec) -> FieldValue:
    """Value of the Schur product f_S at the given parameters.

    Each factor v^a*x_i - v^b*x_j (x = u, and x_e = 1 for the (v - 1)^r
    factors) is booked, not multiplied.  One that does not vanish counts as
    v^b times its class (a-b, i, j), taken with i <= j since x_j - x_i is
    -(x_i - x_j); at v == 1 every class collapses to its row pair.  One that
    vanishes adds +-1 to the order in v and its residual (a-b) * v^(a-1) *
    x_i.  The orders must cancel (else PoleError or PositiveOrderZeroError);
    a vanishing cross-row factor, which covers every factor that could
    vanish identically in v, raises InadmissibleParametersError.  Each
    distinct class, power and residual is then multiplied out once, and
    numerator and denominator are divided once.
    """
    check_symbol(sym)
    e = len(sym)
    m = len(sym[0])
    r = symbol_rank(sym)
    v0, u = params.v, params.u
    if len(u) != e:
        raise ValueError(f"need {e} u-values, got {len(u)}")
    if v0 == 0:
        raise InadmissibleParametersError("v must be nonzero")

    at_one = v0 == 1
    x = (*u, _field_scalar(v0, 1))
    sign = -1 if symbol_c(sym) % 2 else 1
    order = 0
    ratio = [1, 1]  # integer residuals of the numerator and the denominator
    v_exp = -symbol_a(sym)
    x_exp = [r] * e + [0]  # the prefactor prod u_i^r; x_e = 1 needs no power
    classes: dict[tuple[int, int, int], list] = {}  # (d, i, j) -> [value, net]
    den_zero = False

    def book(a: int, i: int, b: int, j: int, side: int) -> None:
        """Book v^a*x_i - v^b*x_j into the numerator (side 1) or denominator (-1)."""
        nonlocal sign, order, v_exp, den_zero
        if i > j:
            a, i, b, j = b, j, a, i
            sign = -sign
        d = 0 if at_one else a - b
        entry = classes.get((d, i, j))
        if entry is None:
            value = x[i] - x[j] if d == 0 else v0**d * x[i] - x[j]
            entry = classes[(d, i, j)] = [value, 0]
        if entry[0] != 0:
            entry[1] += side
            v_exp += side * b
            return
        if i != j:  # every factor with a == b couples two rows
            raise InadmissibleParametersError(
                f"cross-row factor vanished (rows {i+1},{j+1})"
            )
        order += side
        ratio[0 if side > 0 else 1] *= a - b
        v_exp += side * (a - 1)
        x_exp[i] += side
        # a zero residual (x_i = 0) in the denominator; the net x_exp hides it
        den_zero = den_zero or (side < 0 and x[i] == 0)

    # denominator prefactor prod_{i<j} (u_i - u_j)^m
    for i in range(e):
        for j in range(i + 1, e):
            for _ in range(m):
                book(0, i, 0, j, -1)

    # numerator: (v-1)^r then the row-pair factors
    for _ in range(r):
        book(1, e, 0, e, 1)
    for i in range(e):
        for j in range(i, e):
            for s in sym[i]:
                for t in sym[j]:
                    if i == j and s <= t:
                        continue
                    book(s, i, t, j, 1)

    # denominator triple product
    for i in range(e):
        for j in range(e):
            for s in sym[i]:
                for k in range(1, s + 1):
                    book(k, i, 0, j, -1)

    if order < 0:
        raise PoleError(f"total vanishing order {order} < 0")
    if order > 0:
        raise PositiveOrderZeroError(f"total vanishing order {order} > 0")
    if den_zero:
        raise InadmissibleParametersError("denominator vanished")
    num = _field_scalar(v0, sign * ratio[0])
    den = _field_scalar(v0, ratio[1])
    powers = [*classes.values(), *zip(u, x_exp)]
    if not at_one:
        powers.append((v0, v_exp))
    for value, n in powers:
        if n > 0:
            num = num * value**n
        elif n < 0:
            den = den * value ** (-n)
    return num / den


def schur_specialize_roots(sym: ESymbol) -> Fraction:
    """Exact value of f_S at v = 1, u_j = zeta_e^j.

    The result is always rational; its absolute value times e^r * r! is the
    wreath-product character degree of the multipartition of the symbol.
    """
    e = len(sym)
    value = schur_value(sym, ParamSpec.roots_of_unity(e))
    if isinstance(value, CycElt):
        return value.to_fraction()
    return value
