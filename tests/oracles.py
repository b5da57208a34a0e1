"""Reference implementations that only the tests use.

The library evaluates Schur products only at v = 1, u_j = zeta_e^j, through
`symblocks.wreath.schur_value`, which books every factor as integers (a
sign, a power of zeta and powers of 1 - zeta^k) and divides once.  This
module keeps what the tests check it against: `schur_value_by_factors`, the
general evaluator, which multiplies in every factor one at a time (each
through `_eval_factor`) at any point (v; u) given as a `ParamSpec`, with
exact order bookkeeping in v at singular points and the errors
`InadmissibleParametersError`, `PoleError` and `PositiveOrderZeroError`
(all `SchurEvaluationError`); the inverse of `symbol_of`, the simultaneous
shift of a symbol, the linear-character symbols with their closed-form
Schur value `schur_linear`, and the split-torus parameter points
`case_one_params` they are compared at.  The tally is compared with
`schur_value_by_factors` at `ParamSpec.roots_of_unity(e)` only; the other
points check the oracle against `schur_linear`.

`blocks_sn_by_filter` is the p-block scan that `symblocks.blocks.blocks_sn`
replaced: it finds cores by testing every partition with `is_p_core`, takes
the quotients of each weight from `enumerate_multipartitions_by_recursion`,
builds each member with `combine_by_components`, one member at a time, and
takes its degree from its cell-by-cell hook lengths (`degree_by_cells`),
then builds and classifies each block with the library's `_sym_block`.  So
it shares neither the per-block `combine`, nor the quotient enumerator that
`combine` runs, nor the level table with the scan it checks.
`blocks_an_by_selection` is the alternating scan that `blocks_an` replaced:
it builds every symmetric block with `blocks_sn` and keeps the smaller core
of each conjugate pair.

The relative hook formula is checked against the paths that
`symblocks.blocks.relative_hook_degree` replaced: `abacus_by_rows` places
the beads on an abacus of its own, row by row from the top, and
`core_and_quotient_by_sorting` reads the core and every quotient component
off it through the sorting `partition_from_beta`;
`symbol_hooks_by_membership` finds the symbol hooks by testing every
t <= s against each row, where `blocks._quotient_table` walks each row's
gaps once and stops at the first past s; and
`relative_hook_degree_by_symbol_hooks` multiplies |p*l + c_i - c_j| over
those hooks one at a time, with no per-quotient table, and counts the
core's beads per runner on the same abacus (`bead_counts_by_rows`), not
with the library's `runner_bead_counts`.

`gl_degree_poly_by_cyclotomic_exponents` is the degree polynomial that
`symblocks.partitions.gl_degree_poly` replaced: x**b(pi) times each Phi_d
raised to floor(n/d) minus the number of hooks that d divides, multiplied
out one `Poly` product per factor from the coefficient tuple of x**b,
where the library cancels hooks against the factors x^k - 1 and
multiplies and divides by the rest on integer lists.

`dhc_series_by_decomposition` is the series grouping that
`symblocks.unipotent.dhc_series_gl` replaced: it decomposes every
partition of n with `core_and_quotient` and groups the members by their
d-core in a dict, where the library builds each series from its core and
weight with one `combine` call, pairs its members with the quotients of the
cached enumerator, and sorts them back into enumeration order.
`hll_check_gl_by_stripping` is the series check that
`symblocks.unipotent.hll_check_gl` replaced: over the series of
`dhc_series_by_decomposition`, it builds the degree polynomial of every
member and of its series base, divides Phi_d out of both floor(|core|/d)
times with `Poly.exact_div`, and takes their ratio at a primitive d-th root
of unity.

`conjugate_by_counting` is the transpose that
`symblocks.partitions.conjugate` replaced: it counts the parts that reach
each column.  `combine_by_components` is the inverse of
`core_and_quotient` that `symblocks.partitions.combine` replaced: given
one quotient, it counts the core's beads per runner with
`bead_counts_by_rows`, builds each runner's beta-set as a tuple with
`beta_set`, padded for the one member it builds, and recovers the partition
from all the beads with `partition_from_beta`, which sorts any beta-set and
takes a part at every entry; the library builds a whole block from its core
and weight, over the quotients of its own enumerator, with one padding,
only reads beta-sets it builds in ascending order, and reads them from the
top bead down to the first one with no gap below it.

`enumerate_partitions_by_recursion` is the partition generator that
`symblocks.partitions.enumerate_partitions` replaced: it recurses on the
first part and builds each tuple one part at a time as it passes up through
the generator frames, where the library steps one working list by the ZS1
successor rule.  `enumerate_multipartitions_by_recursion` is the
multipartition enumerator that
`symblocks.partitions.enumerate_multipartitions` replaced: a generator that
recurses down to zero components, so with one component left it enumerates
every smaller size only to find that none has a tail, where the library
stops at one component and caches every tuple of multipartitions it builds.
It also gives the block oracles their quotients, since the library's
enumerator fixes the member order of every `combine` block.
`symbol_a`, the exponent of v in the Schur product's denominator, is used
only by `schur_value_by_factors`: at v = 1 the library's tally never needs
it.

`tori_entry_by_binomials` is the torus table that
`symblocks.unipotent.tori_entry` replaced: it builds each order from
products and exact quotients of x^k - 1 and x^k + 1 (`_x_pow_plus_one`,
entered as a coefficient tuple), with no sums, and enters each Zsigmondy
index m1, m2 by hand, where the library multiplies the cyclotomic
polynomials of a list of indices and takes the largest.
`tori_all_entries` lists every torus table row up to a rank, and
`speceq_identity_holds` rechecks a `SpeceqWitness` from scratch, its
identity and the part_a, part_b and full_support verdicts the search stored.
`strip_primes_by_list` is the prime stripping that
`symblocks.unipotent._strip_primes` replaced: it divides out each prime of
a list, which `speceq_search` took from `trial_factor(n_bound)`.
`speceq_search_unpinned` is `speceq_search` without its pinning: it tries
every exponent vector over all the factors.

The cyclotomic oracles compute in `Cyc`, a field class of their own: its
coordinates are reduced modulo Phi_L with sympy's coefficients, and it has
the sums, differences, equality and embeddings that the library's `CycElt`
leaves out.  `CycElt` keeps only what `algebra.root_monomial` runs, so
`schur_value_by_factors`, `root_monomial_by_factors`,
`cyc_inverse_by_elimination` and `hll_check_gl_by_stripping` share no
product or inverse with the paths they check.  Their values are compared
with the library's by (order, coords), in the same power basis.

`cyc_inverse_by_elimination` is the inverse that `CycElt.inverse` replaced:
it solves x * y == 1 for the coordinates of y by Gaussian elimination over
Fractions, where the library multiplies the other Galois conjugates of x and
divides by the norm.  It is also the inverse of `Cyc`.

`root_monomial_by_factors` is the slow path that
`symblocks.algebra.root_monomial` replaced in `schur_value` and
`hll_check_gl`: it starts from `Cyc.root(order, exponent) * num` and
multiplies in, or divides out with `/`, one factor 1 - zeta^k at a time,
then divides by den, where the library multiplies cached powers into one
numerator and one denominator and divides once.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import comb, factorial, lcm, prod
from typing import NamedTuple, Sequence, Union

import sympy

from symblocks.algebra import (
    CycElt,
    ExactnessError,
    Poly,
    cyclotomic_poly,
    is_prime_power,
    phi_value,
)
from symblocks.blocks import (
    BlockData,
    _alt_block,
    _check_prime,
    _sym_block,
    blocks_sn,
)
from symblocks.partitions import (
    Multipartition,
    Partition,
    b_statistic,
    beta_set,
    check_partition,
    conjugate,
    core_and_quotient,
    degree,
    enumerate_partitions,
    gl_degree_poly,
    hook_lengths,
    is_p_core,
)
from symblocks.unipotent import (
    HllReport,
    HllSeriesReport,
    SpeceqWitness,
    ToriEntry,
    _hll_member,
    tori_entry,
)
from symblocks.wreath import (
    ESymbol,
    check_symbol,
    symbol_c,
    symbol_of,
    symbol_rank,
)


def partition_from_beta(entries) -> Partition:
    """Recover the partition from any finite set of distinct non-negative ints:
    sort them, take b - j for the j-th entry b and keep the nonzero parts,
    visiting every entry.

    >>> partition_from_beta((0, 1, 3, 6))
    (3, 1)
    """
    beta = sorted(entries)
    return tuple(reversed([b - j for j, b in enumerate(beta) if b > j]))


def enumerate_partitions_by_recursion(n: int, max_part: int | None = None):
    """The partitions of n with parts at most max_part, in reverse
    lexicographic order: each first part from the largest down, followed by
    every partition of the rest with parts at most the first part.

    >>> list(enumerate_partitions_by_recursion(4, 2))
    [(2, 2), (2, 1, 1), (1, 1, 1, 1)]
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        yield ()
        return
    top = n if max_part is None else min(max_part, n)
    for first in range(top, 0, -1):
        for rest in enumerate_partitions_by_recursion(n - first, first):
            yield (first,) + rest


def enumerate_multipartitions_by_recursion(e: int, r: int):
    """The e-tuples of partitions of total size r: the first component runs
    through the sizes r down to 0, and every tuple of the other e - 1
    follows it, down to e = 0 even for a single component.

    >>> list(enumerate_multipartitions_by_recursion(2, 1))
    [((1,), ()), ((), (1,))]
    """
    if e == 0:
        if r == 0:
            yield ()
        return
    for k in range(r, -1, -1):
        for head in enumerate_partitions_by_recursion(k):
            for tail in enumerate_multipartitions_by_recursion(e - 1, r - k):
                yield (head,) + tail


def blocks_sn_by_filter(n: int, p: int) -> tuple[BlockData, ...]:
    """All p-blocks of S_n, with cores found by filtering every partition
    and members built one at a time by `combine_by_components`.

    >>> [b.label.core for b in blocks_sn_by_filter(4, 3)]
    [(1,), (2, 1, 1), (3, 1)]
    >>> [m.partition for m in blocks_sn_by_filter(4, 3)[0].members]
    [(4,), (2, 2), (1, 1, 1, 1)]
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    _check_prime(p)
    cores = []
    for w in range(n // p + 1):
        for core in enumerate_partitions(n - p * w):
            if is_p_core(core, p):
                cores.append((core, w))
    cores.sort()
    out = []
    for core, w in cores:
        pairs = []
        for nu in enumerate_multipartitions_by_recursion(p, w):
            pi = combine_by_components(core, nu, p)
            pairs.append((pi, degree_by_cells(pi)))
        out.append(_sym_block(n, p, core, w, pairs))
    return tuple(out)


def hook_lengths_by_cells(pi: Partition) -> list[int]:
    """The hook length of every cell (i, j) of pi, ascending: its arm
    pi_i - j - 1, plus its leg, the rows below i that reach column j, plus 1.

    >>> hook_lengths_by_cells((3, 1))
    [1, 1, 2, 4]
    """
    cols = conjugate_by_counting(pi)
    return sorted(
        part - j + cols[j] - i - 1 for i, part in enumerate(pi) for j in range(part)
    )


def degree_by_cells(pi: Partition) -> int:
    """n! over the product of `hook_lengths_by_cells`.

    >>> degree_by_cells((2, 2)), degree_by_cells((3, 1))
    (2, 3)
    """
    q, rem = divmod(factorial(sum(pi)), prod(hook_lengths_by_cells(pi)))
    if rem:
        raise ExactnessError(f"the hook product of {pi} does not divide |{pi}|!")
    return q


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


def abacus_by_rows(pi: Partition, p: int) -> list[list[int]]:
    """The bead levels of each runner, ascending, placed row by row from the
    top: m beads, m the least multiple of p at or above the number of parts,
    row i's bead at pi_i + m - 1 - i (rows past the last part are zero), on
    runner b % p at level b // p.

    >>> abacus_by_rows((3, 1), 2)
    [[2], [0]]
    >>> abacus_by_rows((2,), 3)
    [[0], [0, 1], []]
    """
    m = -(-len(pi) // p) * p
    runners: list[list[int]] = [[] for _ in range(p)]
    for i, part in enumerate(pi + (0,) * (m - len(pi))):
        b = part + m - 1 - i
        runners[b % p].append(b // p)
    return [sorted(levels) for levels in runners]


def bead_counts_by_rows(core: Partition, p: int) -> list[int]:
    """The number of beads on each runner of `abacus_by_rows`."""
    return [len(levels) for levels in abacus_by_rows(core, p)]


def core_and_quotient_by_sorting(
    pi: Partition, p: int
) -> tuple[Partition, tuple[Partition, ...], int]:
    """p-core, p-quotient and weight, each read off the abacus of
    `abacus_by_rows` by sorting.

    >>> core_and_quotient_by_sorting((3, 1), 2)
    ((), ((2,), ()), 2)
    """
    if p < 1:
        raise ValueError("need p >= 1")
    runners = abacus_by_rows(pi, p)
    core_beta = [
        i + p * lvl for i, levels in enumerate(runners) for lvl in range(len(levels))
    ]
    core = partition_from_beta(core_beta)
    quotient = tuple(partition_from_beta(levels) for levels in runners)
    weight = sum(sum(nu) for nu in quotient)
    if sum(pi) != sum(core) + p * weight:
        raise ExactnessError("abacus bookkeeping failed")
    return core, quotient, weight


def conjugate_by_counting(pi: Partition) -> Partition:
    """Transpose of the Young diagram: column j holds the parts >= j.

    >>> conjugate_by_counting((3, 1))
    (2, 1, 1)
    """
    if not pi:
        return ()
    return tuple(sum(1 for part in pi if part >= j) for j in range(1, pi[0] + 1))


def combine_by_components(
    core: Partition, quotient: tuple[Partition, ...], p: int
) -> Partition:
    """The partition with the given p-core and p-quotient, from one beta-set
    tuple per runner.

    >>> combine_by_components((), ((2,), ()), 2)
    (3, 1)
    """
    if len(quotient) != p:
        raise ValueError(f"quotient must have exactly {p} components")
    if not is_p_core(core, p):
        raise ValueError(f"{core} has a hook length divisible by {p}")
    counts = bead_counts_by_rows(core, p)
    extra = max([len(nu) - c for nu, c in zip(quotient, counts)] + [0])
    final_beta = [
        i + p * lvl
        for i, nu in enumerate(quotient)
        for lvl in beta_set(nu, counts[i] + extra)
    ]
    return partition_from_beta(final_beta)


def symbol_hooks_by_membership(sym: ESymbol):
    """The hooks (i, j, length) of a symbol, found by testing every t in
    {0..s} for membership in row j: over row i, entry s, row j and t
    ascending, the order of the triples of `blocks._quotient_table`.

    >>> list(symbol_hooks_by_membership(((2,), (0,))))
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


def relative_hook_degree_by_symbol_hooks(pi: Partition, p: int) -> int:
    """The relative hook formula, multiplied out one symbol hook at a time.

    >>> relative_hook_degree_by_symbol_hooks((3, 1), 2)
    3
    """
    check_partition(pi)
    _check_prime(p)
    core, quotient, w = core_and_quotient_by_sorting(pi, p)
    if w == 0:
        return degree(core)
    c = [p * b + i for i, b in enumerate(bead_counts_by_rows(core, p))]
    hooks = prod(
        abs(p * length + c[i] - c[j])
        for i, j, length in symbol_hooks_by_membership(symbol_of(quotient))
    )
    if hooks == 0:
        raise ExactnessError("zero hook factor")
    num = (factorial(sum(pi)) // factorial(sum(core))) * degree(core)
    q, rem = divmod(num, hooks)
    if rem:
        raise ExactnessError(f"hook product {hooks} does not divide {num}")
    return q


def gl_degree_poly_by_cyclotomic_exponents(pi: Partition) -> Poly:
    """x**b(pi) * prod_{d<=n} Phi_d**e_d, where e_d = floor(n/d) minus the
    number of hook lengths divisible by d; built without division."""
    n = sum(pi)
    hooks = hook_lengths(pi)
    poly = Poly((0,) * b_statistic(pi) + (1,))
    for d in range(1, n + 1):
        e = n // d - sum(1 for h in hooks if h % d == 0)
        if e < 0:
            raise ExactnessError(f"Phi_{d} has exponent {e} in the degree of {pi}")
        for _ in range(e):
            poly = poly * cyclotomic_poly(d)
    return poly


def dhc_series_by_decomposition(
    n: int, d: int
) -> list[tuple[Partition, list[tuple[Partition, tuple[Partition, ...]]]]]:
    """(core, [(pi, d-quotient of pi), ...]) pairs sorted by core, members in
    enumeration order, from one `core_and_quotient` call per partition of n.

    >>> dhc_series_by_decomposition(2, 2)
    [((), [((2,), ((), (1,))), ((1, 1), ((1,), ()))])]
    """
    groups: dict[Partition, list[tuple[Partition, tuple[Partition, ...]]]] = {}
    for pi in enumerate_partitions(n):
        core, quotient, _ = core_and_quotient(pi, d)
        groups.setdefault(core, []).append((pi, quotient))
    return sorted(groups.items())


def hll_check_gl_by_stripping(n: int, d: int) -> HllReport:
    """`hll_check_gl` by polynomial arithmetic: strip Phi_d, then evaluate.

    In the series with core mu, both Deg(pi) and Deg(mu) are divisible by
    Phi_d exactly floor(|mu|/d) times; after stripping that power, their
    ratio at a primitive d-th root of unity is the member's constant.  Each
    stripped polynomial is evaluated at zeta as its residue mod Phi_d, in
    the oracles' own field `Cyc`; the library's `_hll_member` judges the
    value, handed over as a `CycElt` of the same coordinates.
    """
    phi = cyclotomic_poly(d)
    series_reports = []
    for core, members in dhc_series_by_decomposition(n, d):
        r = sum(core)
        strip = r // d
        base = gl_degree_poly(core)
        for _ in range(strip):
            base = base.exact_div(phi)
        base_inv = Cyc(d, base.coeffs).inverse()
        member_reports = []
        for pi, quotient in members:
            reduced = gl_degree_poly(pi)
            for _ in range(strip):
                reduced = reduced.exact_div(phi)
            value = Cyc(d, reduced.coeffs) * base_inv
            member_reports.append(_hll_member(pi, quotient, CycElt(d, value.coords)))
        series_reports.append(
            HllSeriesReport(core, (n - r) // d, tuple(member_reports))
        )
    return HllReport(n, d, tuple(series_reports))


def _x_pow_plus_one(k: int) -> Poly:
    return Poly((1,) + (0,) * (k - 1) + (1,))


def tori_entry_by_binomials(series: str, n: int) -> ToriEntry:
    """The torus order pair of `tori_entry`, built from products and exact
    quotients of x^k - 1 and x^k + 1, with each Zsigmondy index entered by
    hand beside its order.

    A needs n >= 1, 2A and B/C need n >= 2, D and 2D need n >= 4, and the
    exceptional rows have fixed rank.  Unknown series raise ValueError.
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


def speceq_identity_holds(w: SpeceqWitness, n_bound: int) -> bool:
    """Recheck n1 = n2 * prod Phi_i(q)^a_i with a_m != 0 from scratch, and
    the witness's verdicts: part_a (n1, n2 both powers of two), part_b (both
    divide n_bound) and full_support (a_i != 0 wherever Phi_i(q) != 1)."""
    value = Fraction(w.n1, w.n2)
    product = Fraction(1)
    for i, a in enumerate(w.exponents, start=1):
        product *= Fraction(phi_value(i, w.q)) ** a
    powers_of_two = w.n1 & (w.n1 - 1) == 0 and w.n2 & (w.n2 - 1) == 0
    divides = n_bound % w.n1 == 0 and n_bound % w.n2 == 0
    full_support = all(
        a != 0 or phi_value(i, w.q) == 1 for i, a in enumerate(w.exponents, start=1)
    )
    return (
        value == product
        and w.exponents[-1] != 0
        and (w.part_a, w.part_b, w.full_support)
        == (powers_of_two, divides, full_support)
    )


def strip_primes_by_list(n: int, primes: tuple[int, ...]) -> int:
    """n with every prime of the list divided out."""
    for p in primes:
        while n % p == 0:
            n //= p
    return n


def speceq_search_unpinned(
    q_max: int, m_max: int, exp_bound: int, n_bound: int
) -> tuple[SpeceqWitness, ...]:
    """The witnesses of `speceq_search`, from every exponent vector over all
    m_max factors, with none pinned to zero first.

    Phi_1(2) = 1 changes no product, so, as in the library, the identity
    1 = 1 at q = 2 is kept once, with exponent 1, and no other vector gives
    that factor a nonzero exponent.
    """
    out = []
    for q in range(2, q_max + 1):
        if not is_prime_power(q):
            continue
        values = [phi_value(i, q) for i in range(1, m_max + 1)]
        if q == 2:
            out.append(SpeceqWitness(2, 1, (1,), 1, 1, True, True, True))
        for vec in product(range(-exp_bound, exp_bound + 1), repeat=m_max):
            if not any(vec) or any(a and v == 1 for a, v in zip(vec, values)):
                continue
            ratio = Fraction(
                prod(v**a for a, v in zip(vec, values) if a > 0),
                prod(v**-a for a, v in zip(vec, values) if a < 0),
            )
            n1, n2 = ratio.numerator, ratio.denominator
            powers_of_two = n1 & (n1 - 1) == 0 and n2 & (n2 - 1) == 0
            divides = n_bound % n1 == 0 and n_bound % n2 == 0
            if powers_of_two or divides:
                m = max(i for i, a in enumerate(vec, start=1) if a)
                full_support = all(a or v == 1 for a, v in zip(vec[:m], values))
                out.append(
                    SpeceqWitness(
                        q, m, vec[:m], n1, n2, powers_of_two, divides, full_support
                    )
                )
    out.sort(key=lambda w: (w.q, w.m, w.exponents))
    return tuple(out)


@lru_cache(maxsize=None)
def _phi(order: int) -> tuple[int, ...]:
    """The coefficients of Phi_order, low degree first, as sympy gives them."""
    coeffs = sympy.cyclotomic_poly(order, polys=True).all_coeffs()
    return tuple(int(c) for c in reversed(coeffs))


class Cyc:
    """An element of Q(zeta_order) for the oracles, with the whole field.

    Its coordinates are Fractions in the power basis 1, zeta, ...,
    zeta**(deg - 1), the basis of `CycElt`, reduced modulo Phi_order with
    the coefficients that sympy gives, not the library's.  It has sums,
    differences, products, quotients (by `cyc_inverse_by_elimination`),
    integer powers, the embedding into the field of a multiple order and
    equality with a rational or an element of the same order.  Its
    arithmetic enters no method of `CycElt`, so the oracles built on it do
    not share the products and inverses of the fast paths they check.

    >>> z = Cyc.root(3)
    >>> z**3 == 1, z + z**2 == -1, z.embed(6) == Cyc.root(6, 2)
    (True, True, True)
    >>> (z + 2).inverse().coords
    (Fraction(1, 3), Fraction(-1, 3))
    """

    __slots__ = ("order", "coords")

    def __init__(self, order: int, cs: Sequence):
        """The residue mod Phi_order of sum_j cs[j] * zeta**j, any length."""
        phi = _phi(order)
        d = len(phi) - 1
        cs = [Fraction(c) for c in cs] + [Fraction(0)] * (d - len(cs))
        for i in range(len(cs) - 1, d - 1, -1):
            c = cs[i]
            if c:
                for j, pc in enumerate(phi):
                    cs[i - d + j] -= c * pc
        self.order = order
        self.coords = tuple(cs[:d])

    @staticmethod
    def root(order: int, k: int = 1) -> "Cyc":
        """zeta_order ** k."""
        return Cyc(order, [0] * (k % order) + [1])

    def embed(self, target: int) -> "Cyc":
        """The image under zeta_order -> zeta_target ** (target/order)."""
        if target % self.order:
            raise ValueError("target order must be a multiple of the order")
        cs = [0] * target
        for j, c in enumerate(self.coords):
            cs[j * (target // self.order)] = c
        return Cyc(target, cs)

    def _lift(self, other) -> "Cyc":
        if isinstance(other, Cyc):
            if other.order != self.order:
                raise ValueError("mixed cyclotomic orders; embed them first")
            return other
        if isinstance(other, (int, Fraction)):
            return Cyc(self.order, [other])
        return NotImplemented  # type: ignore[return-value]

    def __eq__(self, other) -> bool:
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return self.coords == o.coords

    def __add__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return Cyc(self.order, [a + b for a, b in zip(self.coords, o.coords)])

    __radd__ = __add__

    def __neg__(self):
        return Cyc(self.order, [-a for a in self.coords])

    def __sub__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return self + -o

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        out = [0] * (2 * len(self.coords) - 1)
        for i, a in enumerate(self.coords):
            for j, b in enumerate(o.coords):
                out[i + j] += a * b
        return Cyc(self.order, out)

    __rmul__ = __mul__

    def inverse(self) -> "Cyc":
        return cyc_inverse_by_elimination(self)

    def __truediv__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inverse()

    def __pow__(self, n: int) -> "Cyc":
        base = self if n >= 0 else self.inverse()
        out = Cyc(self.order, [1])
        for _ in range(abs(n)):
            out = out * base
        return out


FieldValue = Union[Fraction, Cyc]


class SchurEvaluationError(ArithmeticError):
    """Base class for structural evaluation failures."""


class InadmissibleParametersError(SchurEvaluationError):
    """A cross-row factor vanished; the parameter tuple is not allowed."""


class PoleError(SchurEvaluationError):
    """The requested specialization is a pole (negative total order)."""


class PositiveOrderZeroError(SchurEvaluationError):
    """The requested specialization vanishes to positive order."""


def normalize_field_values(values: Sequence) -> tuple[FieldValue, ...]:
    """Lift a mix of ints, Fractions and Cycs into one common field."""
    orders = [v.order for v in values if isinstance(v, Cyc)]
    if not orders:
        return tuple(Fraction(v) for v in values)
    L = lcm(*orders)
    out = []
    for v in values:
        if isinstance(v, Cyc):
            out.append(v.embed(L))
        else:
            out.append(Cyc(L, [v]))
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
    def roots_of_unity(e: int) -> "ParamSpec":
        """v = 1 and u_j = zeta_e^j (so u_e = 1), in Q(zeta_e), where
        `symblocks.wreath.schur_value` evaluates."""
        return ParamSpec.of(1, [Cyc.root(e, j) for j in range(1, e + 1)])


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
    if isinstance(x, Cyc):
        return Cyc(x.order, [1])
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


def symbol_a(sym: ESymbol) -> int:
    """The exponent of v in the denominator of the Schur product."""
    m = len(sym[0])
    e = len(sym)
    return sum(comb(e * i, 2) for i in range(1, m))


def schur_value_by_factors(sym: ESymbol, params: ParamSpec) -> FieldValue:
    """Value of the Schur product f_S, multiplied out factor by factor.

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
    evaluated with the same structural order bookkeeping as
    schur_value_by_factors.
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


def cyc_inverse_by_elimination(x) -> Cyc:
    """The y with x * y == 1, by Gaussian elimination over Fractions, for x
    a `CycElt` or a `Cyc`: only its order and coordinates are read.

    Column j is the coordinate vector of x * zeta**j, so the solution of the
    system with right-hand side the coordinates of 1 is the coordinate
    vector of y.  Rows become Fractions first, so integer input never divides
    to a float.
    """
    if not any(x.coords):
        raise ZeroDivisionError("inverse of zero in a cyclotomic field")
    d = len(x.coords)
    columns = [Cyc(x.order, [0] * j + list(x.coords)).coords for j in range(d)]
    one = Cyc(x.order, [1]).coords
    rows = [list(row) for row in zip(*columns, one)]
    for c in range(d):
        pivot = next(k for k in range(c, d) if rows[k][c])
        rows[c], rows[pivot] = rows[pivot], rows[c]
        rows[c] = [v / rows[c][c] for v in rows[c]]
        for k, row in enumerate(rows):
            if k != c and row[c]:
                rows[k] = [a - row[c] * b for a, b in zip(row, rows[c])]
    return Cyc(x.order, [row[-1] for row in rows])


def root_monomial_by_factors(
    order: int, num: int, den: int, exponent: int, powers: Sequence[int]
) -> Cyc:
    """(num/den) * zeta^exponent * prod_(0<k<order) (1 - zeta^k)^(powers[k])
    with one field product or division per factor."""
    value = Cyc.root(order, exponent) * num
    for k in range(1, order):
        factor = 1 - Cyc.root(order, k)
        for _ in range(abs(powers[k])):
            value = value * factor if powers[k] > 0 else value / factor
    return value / den
