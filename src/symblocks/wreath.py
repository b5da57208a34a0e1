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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial
from typing import Sequence, Union

from .algebra import CycElt, lcm
from .partitions import Partition, beta_set, degree, partition_from_beta

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
    from .partitions import enumerate_partitions

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


def multipartition_of(sym: ESymbol) -> Multipartition:
    """Inverse of symbol_of (on any representative of the class).

    >>> multipartition_of(((0, 2), (0, 1)))
    ((1,), ())
    """
    check_symbol(sym)
    return tuple(partition_from_beta(row) for row in sym)


def shift_symbol(sym: ESymbol, times: int = 1) -> ESymbol:
    """Apply the simultaneous shift to every row, `times` times."""
    for _ in range(times):
        sym = tuple((0,) + tuple(x + 1 for x in row) for row in sym)
    return sym


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

    A hook pairs s in row i with t in {0..s} missing from row j, of length
    s - t; when s == t it only counts for j > i, so length zero is allowed.

    >>> list(symbol_hooks(((2,), (0,))))
    [(0, 0, 2), (0, 0, 1), (0, 1, 1), (0, 1, 0)]
    """
    check_symbol(sym)
    row_sets = [set(row) for row in sym]
    for i, row in enumerate(sym):
        for s in row:
            for j, in_j in enumerate(row_sets):
                for t in range(s + 1):
                    if t not in in_j and (s != t or j > i):
                        yield i, j, s - t


def linear_symbol(e: int, r: int, i: int) -> ESymbol:
    """The symbol with (r) in row i and (0) elsewhere (1 <= i <= e)."""
    if not 1 <= i <= e:
        raise ValueError("row index out of range")
    return tuple((r,) if k == i - 1 else (0,) for k in range(e))


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
    L = 1
    for o in orders:
        L = lcm(L, o)
    out = []
    for v in values:
        if isinstance(v, CycElt):
            out.append(v.embed(L))
        else:
            out.append(CycElt.from_rational(L, Fraction(v)))
    return tuple(out)


@dataclass(frozen=True)
class ParamSpec:
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
    def roots_of_unity(e: int) -> "ParamSpec":
        """v = 1 and u_j = zeta_e^j (so u_e = 1), in Q(zeta_e)."""
        if e == 1:
            return ParamSpec(Fraction(1), (Fraction(1),))
        if e == 2:
            return ParamSpec(Fraction(1), (Fraction(-1), Fraction(1)))
        z = CycElt.root(e)
        u = [z**j for j in range(1, e + 1)]
        return ParamSpec.of(1, u)


def case_one_params(q: int, d: int, b: Sequence[int]) -> ParamSpec:
    """Split-torus parameters (v; u) = (q^d; 1, q^(b_1*d+1), ..., q^(b_(d-1)*d+d-1)).

    b is a tuple of d-1 non-negative integers.  The u exponents are pairwise
    distinct mod d, so the entries are automatically distinct.
    """
    if q < 2:
        raise ValueError("q must be at least 2")
    if d < 1:
        raise ValueError("d must be positive")
    if len(b) != d - 1:
        raise ValueError(f"need {d - 1} offsets, got {len(b)}")
    if any(x < 0 for x in b):
        raise ValueError("offsets must be non-negative")
    u = [Fraction(1)]
    for j in range(2, d + 1):
        u.append(Fraction(q) ** (b[j - 2] * d + j - 1))
    return ParamSpec(Fraction(q) ** d, tuple(u))


def _one_like(x) -> FieldValue:
    if isinstance(x, CycElt):
        return CycElt.from_rational(x.order, 1)
    return Fraction(1)


def _eval_factor(a: int, x, b: int, y, v0):
    """Order and value/residual of v^a*x - v^b*y at v = v0 (nonzero).

    Returns (order, value): order 0 with the plain value when it does not
    vanish, order 1 with the first-derivative residual (a-b) * v0^(a-1) * x
    when it vanishes simply.  A factor that is identically zero in v has no
    finite order and raises.
    """
    val = (v0**a) * x - (v0**b) * y
    if val != 0:
        return 0, val
    if a == b:
        raise InadmissibleParametersError(
            "factor vanishes identically in v at these parameters"
        )
    return 1, (v0 ** (a - 1)) * x * (a - b)


def schur_value(sym: ESymbol, params: ParamSpec) -> FieldValue:
    """Value of the Schur product f_S at the given parameters.

    Singular parameter points are handled by exact order bookkeeping in v:
    the vanishing orders of numerator and denominator must cancel, otherwise
    a PoleError or PositiveOrderZeroError is raised.  A vanishing factor
    coupling two different rows raises InadmissibleParametersError.
    """
    check_symbol(sym)
    e = len(sym)
    m = len(sym[0])
    r = symbol_rank(sym)
    if r < 0:
        raise ValueError("symbol has negative rank")
    v0, u = params.v, params.u
    if len(u) != e:
        raise ValueError(f"need {e} u-values, got {len(u)}")
    if v0 == 0:
        raise InadmissibleParametersError("v must be nonzero")

    one = _one_like(v0)
    order = 0
    num = _one_like(v0)
    den = _one_like(v0)

    # constant prefactors
    sign = -1 if symbol_c(sym) % 2 else 1
    for ui in u:
        num = num * ui**r
    den = den * v0 ** symbol_a(sym)
    for i in range(e):
        for j in range(i + 1, e):
            den = den * (u[i] - u[j]) ** m

    # numerator: (v-1)^r then the row-pair factors
    for _ in range(r):
        o, val = _eval_factor(1, one, 0, one, v0)
        order += o
        num = num * val
    for i in range(e):
        for j in range(i, e):
            for s in sym[i]:
                for t in sym[j]:
                    if i == j and s <= t:
                        continue
                    o, val = _eval_factor(s, u[i], t, u[j], v0)
                    if o and i != j:
                        raise InadmissibleParametersError(
                            f"cross-row factor vanished (rows {i+1},{j+1})"
                        )
                    order += o
                    num = num * val

    # denominator triple product
    for i in range(e):
        for j in range(e):
            for s in sym[i]:
                for k in range(1, s + 1):
                    o, val = _eval_factor(k, u[i], 0, u[j], v0)
                    if o and i != j:
                        raise InadmissibleParametersError(
                            f"cross-row factor vanished (rows {i+1},{j+1})"
                        )
                    order -= o
                    den = den * val

    if order < 0:
        raise PoleError(f"total vanishing order {order} < 0")
    if order > 0:
        raise PositiveOrderZeroError(f"total vanishing order {order} > 0")
    if den == 0:
        raise InadmissibleParametersError("denominator vanished")
    result = num / den
    return sign * result if sign < 0 else result


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


def schur_linear(e: int, r: int, i: int, params: ParamSpec) -> FieldValue:
    """Closed-form Schur value for the linear character attached to row i.

    prod_{k=1}^{r} [ (v-1)/(v^k-1) * prod_{j != i} u_j / (u_j - v^(k-1) u_i) ],
    evaluated with the same structural order bookkeeping as schur_value.
    """
    if not 1 <= i <= e:
        raise ValueError("row index out of range")
    v0, u = params.v, params.u
    if len(u) != e:
        raise ValueError(f"need {e} u-values, got {len(u)}")
    if v0 == 0:
        raise InadmissibleParametersError("v must be nonzero")
    one = _one_like(v0)
    order = 0
    num = _one_like(v0)
    den = _one_like(v0)
    ui = u[i - 1]
    for k in range(1, r + 1):
        o, val = _eval_factor(1, one, 0, one, v0)
        order += o
        num = num * val
        o, val = _eval_factor(k, one, 0, one, v0)
        order -= o
        den = den * val
        for j in range(e):
            if j == i - 1:
                continue
            num = num * u[j]
            o, val = _eval_factor(0, u[j], k - 1, ui, v0)
            if o:
                raise InadmissibleParametersError(
                    f"factor u_{j+1} - v^{k-1} u_{i} vanished"
                )
            den = den * val
    if order < 0:
        raise PoleError(f"total vanishing order {order} < 0")
    if order > 0:
        raise PositiveOrderZeroError(f"total vanishing order {order} > 0")
    return num / den
