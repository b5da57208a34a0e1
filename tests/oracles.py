"""Reference implementations that only the tests use.

The library evaluates Schur products through `symblocks.wreath.schur_value`.
This module keeps what the tests check it against: the inverse of
`symbol_of`, the simultaneous shift of a symbol, the linear-character
symbols with their closed-form Schur value `schur_linear`, and the
split-torus parameter points `case_one_params` they are compared at.

`blocks_sn_by_filter` is the p-block scan that `symblocks.blocks.blocks_sn`
replaced: it finds cores by testing every partition with `is_p_core` and
takes each member's degree from its cell-by-cell hook lengths.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, prod
from typing import Sequence

from symblocks.algebra import factorial_val
from symblocks.blocks import BlockData, BlockLabel, _check_prime, _with_heights
from symblocks.partitions import (
    combine,
    enumerate_partitions,
    hook_lengths,
    is_p_core,
    partition_from_beta,
)
from symblocks.wreath import (
    ESymbol,
    FieldValue,
    InadmissibleParametersError,
    Multipartition,
    ParamSpec,
    PoleError,
    PositiveOrderZeroError,
    _eval_factor,
    _one_like,
    check_symbol,
    enumerate_multipartitions,
)


def blocks_sn_by_filter(n: int, p: int) -> tuple[BlockData, ...]:
    """All p-blocks of S_n, with cores found by filtering every partition.

    >>> [b.label.core for b in blocks_sn_by_filter(4, 3)]
    [(1,), (2, 1, 1), (3, 1)]
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    _check_prime(p)
    nfact_val = factorial_val(n, p)
    cores = []
    for w in range(n // p + 1):
        for core in enumerate_partitions(n - p * w):
            if is_p_core(core, p):
                cores.append((core, w))
    cores.sort()
    out = []
    for core, w in cores:
        pairs = []
        for nu in enumerate_multipartitions(p, w):
            pi = combine(core, nu, p)
            pairs.append((pi, factorial(n) // prod(hook_lengths(pi))))
        members, base = _with_heights(pairs, p)
        label = BlockLabel("sym", n, p, core, w)
        out.append(BlockData(label, members, nfact_val - base))
    return tuple(out)


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


def linear_symbol(e: int, r: int, i: int) -> ESymbol:
    """The symbol with (r) in row i and (0) elsewhere (1 <= i <= e)."""
    if not 1 <= i <= e:
        raise ValueError("row index out of range")
    return tuple((r,) if k == i - 1 else (0,) for k in range(e))


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
