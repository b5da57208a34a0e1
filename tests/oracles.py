"""Reference implementations that only the tests use.

The library evaluates Schur products through `symblocks.wreath.schur_value`,
which tallies the factors by class and multiplies each distinct one once.
This module keeps what the tests check it against: `schur_value_by_factors`,
the evaluator it replaced, which multiplies in every factor one at a time
(each through `_eval_factor`); the inverse of `symbol_of`, the simultaneous
shift of a symbol, the linear-character symbols with their closed-form
Schur value `schur_linear`, and the split-torus parameter points
`case_one_params` they are compared at.

`blocks_sn_by_filter` is the p-block scan that `symblocks.blocks.blocks_sn`
replaced: it finds cores by testing every partition with `is_p_core` and
takes each member's degree from its cell-by-cell hook lengths.
`blocks_an_by_selection` is the alternating scan that `blocks_an` replaced:
it builds every symmetric block with `blocks_sn` and keeps the smaller core
of each conjugate pair.

`tori_all_entries` lists every torus table row up to a rank, and
`speceq_identity_holds` rechecks a `SpeceqWitness` from scratch.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, prod
from typing import Sequence

from symblocks.algebra import CycElt, factorial_val, phi_value
from symblocks.blocks import (
    BlockData,
    BlockLabel,
    _alt_block,
    _check_prime,
    _with_heights,
    blocks_sn,
)
from symblocks.partitions import (
    combine,
    conjugate,
    enumerate_partitions,
    hook_lengths,
    is_p_core,
    partition_from_beta,
)
from symblocks.unipotent import SpeceqWitness, ToriEntry, tori_entry
from symblocks.wreath import (
    ESymbol,
    FieldValue,
    InadmissibleParametersError,
    Multipartition,
    ParamSpec,
    PoleError,
    PositiveOrderZeroError,
    check_symbol,
    enumerate_multipartitions,
    symbol_a,
    symbol_c,
    symbol_rank,
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


def blocks_an_by_selection(n: int, p: int) -> tuple[BlockData, ...]:
    """Blocks of A_n, restricted from every S_n block that blocks_sn builds:
    of each conjugate pair of cores the block of the smaller one is kept.

    >>> [b.label.core for b in blocks_an_by_selection(4, 3)]
    [(1,), (2, 1, 1)]
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    sym = {b.label.core: b for b in blocks_sn(n, p)}
    out = []
    done = set()
    for core in sorted(sym):
        if core in done:
            continue
        core_c = conjugate(core)
        done.add(core)
        done.add(core_c)
        sblock = sym[min(core, core_c)]
        pairs = [(m.partition, m.degree) for m in sblock.members]
        out.append(_alt_block(n, p, min(core, core_c), sblock.label.weight, pairs))
    return tuple(out)


def tori_all_entries(n_max: int) -> tuple[ToriEntry, ...]:
    """Every table row with rank up to n_max, classical then exceptional."""
    if n_max < 1:
        raise ValueError("need n_max >= 1")
    out = []
    for n in range(1, n_max + 1):
        out.append(tori_entry("A", n))
    for n in range(2, n_max + 1):
        out.append(tori_entry("2A", n))
        out.append(tori_entry("B/C", n))
    for n in range(4, n_max + 1):
        out.append(tori_entry("D", n))
        out.append(tori_entry("2D", n))
    if n_max >= 6:
        out.append(tori_entry("E6", 6))
        out.append(tori_entry("2E6", 6))
    if n_max >= 7:
        out.append(tori_entry("E7", 7))
    return tuple(out)


def speceq_identity_holds(w: SpeceqWitness) -> bool:
    """Recheck n1 = n2 * prod Phi_i(q)^a_i with a_m != 0 from scratch."""
    value = Fraction(w.n1, w.n2)
    product = Fraction(1)
    for i, a in enumerate(w.exponents, start=1):
        product *= Fraction(phi_value(i, w.q)) ** a
    return value == product and w.exponents[-1] != 0


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


def schur_value_by_factors(sym: ESymbol, params: ParamSpec) -> FieldValue:
    """Value of the Schur product f_S, multiplied out factor by factor.

    This is the evaluator that `symblocks.wreath.schur_value` replaced.
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
