"""e-symbols, wreath degrees, and exact Schur values at the roots of unity.

An e-symbol is a tuple of e strictly increasing rows of non-negative
integers, all of the same length m.  Symbols are considered up to the
simultaneous shift (s_1, ..., s_m) -> (0, s_1 + 1, ..., s_m + 1) applied to
every row; equivalence classes of rank-r symbols biject with e-tuples of
partitions of total size r (multipartitions, which the block builder's
`partitions.enumerate_multipartitions` lists).

The central object is the product formula f_S(v; u_1, ..., u_e), a rational
function whose inverse is the Schur element of the corresponding character
of the wreath product G(e,1,r).  The program evaluates it at one point,
v = 1 and u_j = zeta^j with zeta = zeta_e, where |f_S| * e^r * r! is the
character degree (Broue-Malle-Michel, "Generic blocks of finite reductive
groups", 1993).  There every factor v^a*x - v^b*y has x and y powers of
zeta, so it is booked as integers instead of multiplied:

* zeta^alpha - zeta^beta with alpha != beta (mod e) equals
  -zeta^beta * (1 - zeta^(alpha - beta)): a sign, an exponent of zeta and
  one power of (1 - zeta^k), k = alpha - beta mod e;
* v^a*x - v^b*x vanishes at v = 1 to first order, with residual (a - b)*x:
  an order, an integer and an exponent of zeta.

Equal factors come in blocks, one per pair of rows, so each pair is booked
once with its count.  The orders cancel, and `algebra.root_monomial` takes
the value +-(num/den) * zeta^S * prod_k (1 - zeta^k)^(n_k) with one division.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial
from operator import ge

from .algebra import CycElt, ExactnessError, root_monomial
from .partitions import Multipartition, beta_set, degree

ESymbol = tuple[tuple[int, ...], ...]


# ---------------------------------------------------------------------------
# symbols


def check_symbol(sym: ESymbol) -> None:
    """Raise ValueError unless sym has at least one row and its rows are of
    one length, non-negative and strictly increasing.

    Row by row, the length is tested first, then the smallest entry and
    then each entry against the next, the last two inside builtins.
    """
    if not sym:
        raise ValueError("a symbol needs at least one row")
    m = len(sym[0])
    for row in sym:
        if len(row) != m:
            raise ValueError("rows must all have the same length")
        if min(row, default=0) < 0:
            raise ValueError("entries must be non-negative")
        if any(map(ge, row, row[1:])):
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


def symbol_c(sym: ESymbol) -> int:
    """The exponent of the global sign of the Schur product."""
    m = len(sym[0])
    e = len(sym)
    r = symbol_rank(sym)
    return comb(e, 2) * comb(m, 2) + r * (e - 1)


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
# Schur values at v = 1, u_j = zeta_e^j


def schur_value(sym: ESymbol) -> CycElt:
    """Value of the Schur product f_S at v = 1, u_j = zeta^j, in Q(zeta_e).

    Row i (0-indexed) has x_i = u_(i+1) = zeta^alpha_i with
    alpha_i = i + 1 mod e, and the (v - 1)^r factors have x = 1.  The
    factors are booked by pair of rows, not one at a time:

    * rows i != j: each factor is zeta^alpha_i - zeta^alpha_j =
      -zeta^alpha_j * (1 - zeta^k) with k = alpha_i - alpha_j mod e.  The
      numerator has m*m of them (one per s in row i and t in row j, i < j),
      the denominator prefactor prod_(i<j) (u_i - u_j)^m has m, and the
      triple product prod_s prod_(1<=l<=s) (v^l*u_i - u_j) has s for each s
      in row i and each j != i.  Each books a sign flip, alpha_j into the
      exponent S of zeta and +-1 into the net power n_k of (1 - zeta^k).
    * one row i: v^s*x_i - v^t*x_i vanishes to first order at v = 1 with
      residual (s - t) * zeta^alpha_i.  The numerator has one for each s > t
      in row i, and the triple product the residuals 1, ..., s, that is s!,
      for each s in row i.  The (v - 1)^r factors add r with residual 1.

    The prefactor prod u_i^r adds r * sum(alpha_i) to S, and v^-a is 1.
    The orders of vanishing must cancel, else ExactnessError.  The value
    +-(num/den) * zeta^S * prod_k (1 - zeta^k)^(n_k) is `root_monomial`'s,
    which `hll_check_gl` shares: one product per cached power, one division.

    >>> schur_value(((1,), (0,)))
    CycElt(order=2, coords=(Fraction(1, 2),))
    """
    check_symbol(sym)
    e = len(sym)
    m = len(sym[0])
    r = symbol_rank(sym)
    pairs = comb(m, 2)
    alpha = [(i + 1) % e for i in range(e)]
    flips = symbol_c(sym)
    exponent = r * sum(alpha)
    net = [0] * e  # net[k]: power of (1 - zeta^k), for k = 1..e-1
    order = r
    num_residual = den_residual = 1

    def cross(i: int, j: int, count: int) -> None:
        """Book count factors x_i - x_j (negative count: in the denominator)."""
        nonlocal flips, exponent
        flips += count
        exponent += count * alpha[j]
        net[(alpha[i] - alpha[j]) % e] += count

    for i, row in enumerate(sym):
        total = sum(row)
        for j in range(e):
            if j > i:  # m*m in the numerator, m in the prefactor
                cross(i, j, m * m - m)
            if j != i:
                cross(i, j, -total)
        for a, s in enumerate(row):
            for t in row[:a]:
                num_residual *= s - t
            den_residual *= factorial(s)
        order += pairs - total
        exponent += (pairs - total) * alpha[i]

    if order:
        raise ExactnessError(f"total vanishing order {order} at v = 1")
    sign = -1 if flips % 2 else 1
    return root_monomial(e, sign * num_residual, den_residual, exponent, net)


def schur_specialize_roots(sym: ESymbol) -> Fraction:
    """Exact value of f_S at v = 1, u_j = zeta_e^j.

    The result is always rational; its absolute value times e^r * r! is the
    wreath-product character degree of the multipartition of the symbol.

    >>> schur_specialize_roots(((1,), (0,)))
    Fraction(1, 2)
    """
    return schur_value(sym).to_fraction()
