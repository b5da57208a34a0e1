"""Partitions, hooks, beta-sets, the p-abacus, and degree formulas.

A partition is a tuple of weakly decreasing positive integers; () is the
unique partition of 0.  The abacus convention is fixed once and for all:

* the beta-set of a partition with m beads lists the parts in ascending
  order (padded with zeros to length m) plus the offsets 0, 1, ..., m-1;
* m is the least multiple of p that is >= the number of parts;
* runner i (1-indexed, i = 1..p) carries the beta-entries congruent to
  i - 1 mod p, and the level of an entry b on its runner is b // p.

Pushing all beads down gives the p-core; the level sequences of the runners
give the p-quotient.  Adding one bead to every runner leaves both unchanged,
so the convention is stable under padding.

Two abacus facts replace walks over the Young diagram.  With one bead per
row, the hooks in the row of bead b are b - c over the gaps c < b, so one
beta-set walk gives `hook_lengths` its multiset and `degree` its product.
The rows below the first row of a p-core form a p-core whose hooks do not
involve the first row, so `p_cores` grows cores one top row at a time and
keeps a row only when none of its hooks is divisible by p.  A partition is a
p-core exactly when every runner is flush (its beads fill the lowest
levels), so a core is laid out on the abacus by its runner bead counts alone.
A block has a core and a weight w, and one member for each p-quotient of
weight w: `combine(core, w, p)` builds them in `enumerate_multipartitions`
order, reads the core's check and bead counts once, and pads every runner
with the same full rows, so one layout holds every member.  It builds each
p-block of S_n in `blocks` and each d-series of GL_n in `unipotent`, one
per pair of `cores_and_weights`.

The hook walk gives `degree` for a single partition.  A block scan needs the
degree of every partition of n, and `level_degrees` holds them as a level
table: the branching rule (James-Kerber 1981) makes the degree of a
partition the sum of the degrees of the partitions one box smaller, so the
table at n + 1 is built from the table at n with one pass that adds each
degree to every partition one box larger.  Only the last table built is
held; a table asked for below it is seeded again from the hook walk.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial, prod
from operator import lt

from .algebra import ExactnessError, Poly

Partition = tuple[int, ...]
Multipartition = tuple[Partition, ...]


def check_partition(pi: Partition) -> None:
    """Raise ValueError unless pi is weakly decreasing with positive parts.

    Both tests run inside builtins, the smallest part first and then each
    part against the next, so a partition with a part below 1 is named for
    that part even when its parts also rise.
    """
    if min(pi, default=1) <= 0:
        raise ValueError(f"parts must be positive: {pi}")
    if any(map(lt, pi, pi[1:])):
        raise ValueError(f"parts must be weakly decreasing: {pi}")


def format_partition(pi: Partition) -> str:
    """The list form of a partition used in reports.

    >>> format_partition((3, 1))
    '[3,1]'
    >>> format_partition(())
    '[]'
    """
    return "[" + ",".join(map(str, pi)) + "]"


def enumerate_partitions(n: int):
    """Yield all partitions of n in reverse lexicographic order.

    The first partition is (n) and the last is (1,)*n.  Each partition is
    the successor of the one before by the ZS1 rule (Zoghbi-Stojmenovic
    1998), on one working list of n parts whose entries past the last part
    above 1 are all 1: that part drops by one, and the ones after it plus
    the freed box are refilled with copies of the lowered part and a
    remainder.

    >>> list(enumerate_partitions(4))
    [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        yield ()
        return
    x = [n] + [1] * (n - 1)
    m = 1  # number of parts
    h = 1 if n > 1 else 0  # number of parts above 1
    yield tuple(x[:m])
    while h:
        j = h - 1  # the last part above 1
        if x[j] == 2:
            x[j] = 1
            h = j
            m += 1
        else:
            part = x[j] - 1
            free = m - j  # the ones after j, plus the box taken from j
            x[j] = part
            h = j + 1
            while free >= part:
                x[h] = part
                h += 1
                free -= part
            m = h
            if free:
                m += 1
                if free > 1:
                    x[h] = free
                    h += 1
        yield tuple(x[:m])


@lru_cache(maxsize=None)
def enumerate_multipartitions(e: int, r: int) -> tuple[Multipartition, ...]:
    """All e-tuples of partitions of total size r, in a cached tuple: the
    first component runs through the sizes r down to 0, each in
    enumerate_partitions order, and the rest follow in this order.

    >>> len(enumerate_multipartitions(2, 2))
    5
    """
    if e == 0:
        return ((),) if r == 0 else ()
    if e == 1:
        return tuple((pi,) for pi in enumerate_partitions(r))
    return tuple(
        (head,) + tail
        for k in range(r, -1, -1)
        for head in enumerate_partitions(k)
        for tail in enumerate_multipartitions(e - 1, r - k)
    )


def conjugate(pi: Partition) -> Partition:
    """Transpose of the Young diagram, read off the differences between
    consecutive parts in O(|pi|).

    >>> conjugate((3, 1))
    (2, 1, 1)
    >>> conjugate(conjugate((5, 3, 3, 1))) == (5, 3, 3, 1)
    True
    """
    out: list[int] = []
    below = 0
    # the columns from below + 1 to a part of row i (1-indexed) have height i
    for i in range(len(pi), 0, -1):
        part = pi[i - 1]
        out += [i] * (part - below)
        below = part
    return tuple(out)


def is_self_dual(pi: Partition) -> bool:
    return conjugate(pi) == pi


def _row_hooks(pi: Partition):
    """Yield each bead b of pi's beta-set with one bead per row, together
    with the gaps c < b; the hooks in the row of b are b - c.

    The gap list is shared between steps and only grows, so read it before
    asking for the next bead.
    """
    gaps: list[int] = []
    prev = -1
    for b in beta_set(pi, len(pi)):
        gaps.extend(range(prev + 1, b))
        prev = b
        yield b, gaps


@lru_cache(maxsize=None)
def hook_lengths(pi: Partition) -> tuple[int, ...]:
    """Multiset of hook lengths, sorted descending.

    >>> hook_lengths((2, 2))
    (3, 2, 2, 1)
    >>> hook_lengths((3, 1))
    (4, 2, 1, 1)
    """
    out = [b - c for b, gaps in _row_hooks(pi) for c in gaps]
    out.sort(reverse=True)
    return tuple(out)


@lru_cache(maxsize=None)
def degree(pi: Partition) -> int:
    """n! divided by the product of all hook lengths; the division is exact.

    The hooks are multiplied in as the beta-set is walked, so no hook list
    is built.

    >>> degree((2, 2))
    2
    >>> degree((5,))
    1
    """
    n = sum(pi)
    hooks = prod(b - c for b, gaps in _row_hooks(pi) for c in gaps)
    q, r = divmod(factorial(n), hooks)
    if r:
        raise ExactnessError(f"hook product does not divide {n}! for {pi}")
    return q


# the last level table built, as (n, table); n is -1 until one is
_held: tuple[int, dict[Partition, int]] = (-1, {})


def _next_level(level: dict[Partition, int]) -> dict[Partition, int]:
    """The level table one box up, by the branching rule: the degree of
    lambda is the sum of the degrees of the partitions lambda - box, so
    each mu adds its degree to every mu + box.  A box can be added at the
    end of the first row of each run of equal parts, and as a new row."""
    out: dict[Partition, int] = {}
    get = out.get
    for mu, d in level.items():
        # one working list per mu, raised one row at a time
        rows = list(mu)
        prev = 0
        for i, part in enumerate(mu):
            if part != prev:
                rows[i] = part + 1
                lam = tuple(rows)
                rows[i] = prev = part
                out[lam] = get(lam, 0) + d
        lam = mu + (1,)
        out[lam] = get(lam, 0) + d
    return out


def level_degrees(n: int) -> dict[Partition, int]:
    """The level table at n: a dict from every partition of n to its degree.

    Only the last table built is held.  When its n is at or below the one
    asked for, it is stepped up to n by the branching rule; otherwise the
    table is seeded from the hook walk `degree` over the partitions of n.
    So a scan that goes up one n at a time builds each level once from the
    one before.  The table is shared: read it, do not change it.

    >>> level_degrees(3)
    {(3,): 1, (2, 1): 2, (1, 1, 1): 1}
    """
    global _held
    if n < 0:
        raise ValueError("n must be >= 0")
    m, level = _held
    if 0 <= m <= n:
        for _ in range(m, n):
            level = _next_level(level)
    else:
        level = {pi: degree(pi) for pi in enumerate_partitions(n)}
    _held = n, level
    return level


# ---------------------------------------------------------------------------
# beta-sets and the p-abacus


def beta_set(pi: Partition, beads: int) -> tuple[int, ...]:
    """Strictly increasing beta-set of pi with the given number of beads.

    >>> beta_set((3, 1), 4)
    (0, 1, 3, 6)
    """
    pad = beads - len(pi)
    if pad < 0:
        raise ValueError("bead count smaller than the number of parts")
    # the zero parts of the padding sit at 0..pad-1
    rows = [part + j for j, part in enumerate(reversed(pi), pad)]
    return tuple(range(pad)) + tuple(rows)


def _abacus_levels(pi: Partition, p: int) -> list[list[int]]:
    """Bead levels per runner under the fixed bead-count convention, each
    runner's levels ascending.

    The pad = -len(pi) % p padding beads sit at level 0 of runners
    0..pad-1.  Counted from the bottom row, starting at j = pad, row j's
    bead part + j goes on runner r at level q with q, r = divmod(part + j,
    p).  The beads rise row by row, so each runner fills in ascending
    order, and no beta-set is built.
    """
    pad = -len(pi) % p
    runners = [[0] for _ in range(pad)] + [[] for _ in range(p - pad)]
    for j, part in enumerate(reversed(pi), pad):
        q, r = divmod(part + j, p)
        runners[r].append(q)
    return runners


def _partition_from_ascending(beta) -> Partition:
    """The partition of a beta-set given in ascending order.

    The parts b - j of the j-th entry b rise weakly, so they are read from
    the top bead down, and the first zero part ends the walk: the beads
    below it fill the bottom with no gap, as the padding rows of `combine`
    do, and are never visited.
    """
    parts = []
    j = len(beta)
    for b in reversed(beta):
        j -= 1
        if b == j:
            break
        parts.append(b - j)
    return tuple(parts)


@lru_cache(maxsize=None)
def _flush_core(counts: tuple[int, ...]) -> Partition:
    """The p-core whose flush runners hold the given bead counts (p = len).

    Runner i fills the levels below counts[i], so the beta-set is placed
    position by position in ascending order, with no sort.
    """
    p = len(counts)
    return _partition_from_ascending(
        [b for b in range(p * max(counts)) if b // p < counts[b % p]]
    )


def core_and_quotient(
    pi: Partition, p: int
) -> tuple[Partition, tuple[Partition, ...], int]:
    """p-core, p-quotient (one component per runner) and weight of pi.

    Any modulus p >= 1 works; with a single runner the core is empty and
    the quotient is the partition itself.  Each runner's levels come off
    the beta-set in ascending order, so one loop over the runners reads
    each quotient component from its top bead down, without sorting, and
    adds its parts to the weight as it goes.  Pushing the beads down leaves
    each runner flush, so the core is placed from the runner bead counts
    alone.

    >>> core_and_quotient((3, 1), 2)
    ((), ((2,), ()), 2)
    >>> core_and_quotient((2,), 3)
    ((2,), ((), (), ()), 0)
    >>> core_and_quotient((2, 1), 1)
    ((), ((2, 1),), 3)
    """
    if p < 1:
        raise ValueError("need p >= 1")
    runners = _abacus_levels(pi, p)
    quotient = []
    weight = 0
    for levels in runners:
        # as in _partition_from_ascending: the j-th bead b holds part b - j,
        # and the first bead at its own index ends the component
        parts = []
        j = len(levels)
        for b in reversed(levels):
            j -= 1
            if b == j:
                break
            parts.append(b - j)
            weight += b - j
        quotient.append(tuple(parts))
    core = _flush_core(tuple(map(len, runners)))
    if sum(pi) != sum(core) + p * weight:
        raise ExactnessError("abacus bookkeeping failed")  # pragma: no cover
    return core, tuple(quotient), weight


def is_p_core(pi: Partition, p: int) -> bool:
    return all(h % p for h in hook_lengths(pi))


@lru_cache(maxsize=None)
def _cores_below(n: int, top: int, p: int) -> tuple[Partition, ...]:
    """The p-cores of n with first part at most top, in reverse lex order.

    A top row of length first over the core rest puts its bead at
    b = first + len(rest), and its hooks are b - c over the gaps c < b of
    rest's beta-set.  None is divisible by p exactly when rest's runner
    b mod p is full below b; rest's runners are full from the bottom, so
    that runner must hold b // p beads.
    """
    if n == 0:
        return ((),)
    out = []
    for first in range(min(top, n), 0, -1):
        for rest in _cores_below(n - first, first, p):
            b = first + len(rest)
            runner = b % p
            on_runner = sum(1 for c in beta_set(rest, len(rest)) if c % p == runner)
            if on_runner == b // p:
                out.append((first,) + rest)
    return tuple(out)


def p_cores(m: int, p: int) -> list[Partition]:
    """The p-cores of m in lexicographic order.

    Grown one top row at a time over the cores of the rows below it,
    keeping a row only when it has no hook divisible by p; for p > m every
    partition of m is a core.

    >>> p_cores(6, 2)
    [(3, 2, 1)]
    >>> p_cores(4, 3)
    [(2, 1, 1), (3, 1)]
    >>> p_cores(2, 3)
    [(1, 1), (2,)]
    """
    if m < 0 or p < 1:
        raise ValueError("need m >= 0 and p >= 1")
    return sorted(_cores_below(m, m, p))


def cores_and_weights(n: int, d: int) -> list[tuple[Partition, int]]:
    """Every (core, w) with |core| + d*w = n for any d >= 1, core ascending.

    >>> cores_and_weights(6, 4)
    [((1, 1), 1), ((2,), 1), ((3, 1, 1, 1), 0), ((3, 2, 1), 0), ((4, 1, 1), 0)]
    >>> cores_and_weights(2, 3)
    [((1, 1), 0), ((2,), 0)]
    """
    return sorted((c, w) for w in range(n // d + 1) for c in p_cores(n - d * w, d))


def combine(core: Partition, w: int, p: int) -> list[Partition]:
    """The partitions of the block of the p-core core and weight w: for each
    p-quotient of weight w, the unique partition with that quotient and core,
    in `enumerate_multipartitions(p, w)` order.

    Inverse of core_and_quotient under the fixed convention.  The core is
    checked once and its runner bead counts are read once for the block.  A
    component of a weight-w quotient has at most w parts, so each runner is
    topped up with full bead rows until the emptiest one holds w beads, and
    that one padding holds every member.  Per quotient the beads are placed,
    sorted once and read off.

    >>> enumerate_multipartitions(2, 2)[:3]
    (((2,), ()), ((1, 1), ()), ((1,), (1,)))
    >>> combine((), 2, 2)
    [(3, 1), (1, 1, 1, 1), (2, 2), (4,), (2, 1, 1)]
    >>> combine((2,), 0, 3)
    [(2,)]
    """
    if w < 0:
        raise ValueError("w must be >= 0")
    if not is_p_core(core, p):
        raise ValueError(f"{core} has a hook length divisible by {p}")
    # the beads of a core are flush, so their counts place them; runner i
    # holds its beads at i + p * level, below the position top
    counts = runner_bead_counts(core, p)
    extra = max(w - min(counts), 0)
    tops = [(i, i + p * (c + extra)) for i, c in enumerate(counts)]
    out = []
    for quotient in enumerate_multipartitions(p, w):
        beads: list[int] = []
        for nu, (i, top) in zip(quotient, tops):
            # the padding beads, then one bead per part from the last row up
            b = top - p * len(nu)
            beads += range(i, b, p)
            for part in reversed(nu):
                beads.append(b + p * part)
                b += p
        beads.sort()
        out.append(_partition_from_ascending(beads))
    return out


@lru_cache(maxsize=None)
def runner_bead_counts(pi: Partition, p: int) -> tuple[int, ...]:
    """Beads per runner for pi's abacus under the fixed convention.

    >>> runner_bead_counts((2,), 3)
    (1, 2, 0)
    """
    return tuple(len(r) for r in _abacus_levels(pi, p))


# ---------------------------------------------------------------------------
# degree polynomial for the general linear group


def b_statistic(pi: Partition) -> int:
    """sum (i-1) * pi_i over the rows (i starting at 1)."""
    return sum(i * part for i, part in enumerate(pi))


@lru_cache(maxsize=None)
def gl_degree_poly(pi: Partition) -> Poly:
    """Generic degree of the unipotent character of GL_n indexed by pi.

    x**b(pi) * prod_{k<=n}(x^k - 1) / prod_h(x^h - 1) over the hook lengths
    h of pi; evaluation at 1 gives degree(pi).  Each hook h first cancels
    one factor k = h of the numerator.  The coefficient list is then
    multiplied by each remaining x^k - 1 with one shift-and-subtract, and
    divided by each remaining x^h - 1 with one stride-h pass, where the
    quotient's coefficients obey q[j] = q[j-h] - c[j].  A division that
    leaves a remainder raises ExactnessError.

    >>> gl_degree_poly((1, 1)).coeffs
    (0, 1)
    >>> gl_degree_poly((2,)).coeffs
    (1,)
    """
    check_partition(pi)
    # excess[k] is the net exponent of x^k - 1 once the hooks have cancelled
    excess = [0] + [1] * sum(pi)
    for h in hook_lengths(pi):
        excess[h] -= 1
    cs = [1]
    for k, e in enumerate(excess):
        for _ in range(e):
            out = [0] * k + cs
            for i, c in enumerate(cs):
                out[i] -= c
            cs = out
    for h, e in enumerate(excess):
        for _ in range(-e):
            # run the recurrence to the top: an exact quotient ends in h zeros
            q = [-c for c in cs[:h]]
            for j in range(h, len(cs)):
                q.append(q[j - h] - cs[j])
            if any(q[-h:]):
                raise ExactnessError(f"x^{h} - 1 does not divide the degree of {pi}")
            del q[-h:]
            cs = q
    return Poly(tuple([0] * b_statistic(pi) + cs))
