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
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial, prod

from .algebra import ExactnessError, Poly, cyclotomic_poly

Partition = tuple[int, ...]


def check_partition(pi: Partition) -> None:
    """Raise ValueError unless pi is weakly decreasing with positive parts."""
    if any(x <= 0 for x in pi):
        raise ValueError(f"parts must be positive: {pi}")
    if any(pi[i] < pi[i + 1] for i in range(len(pi) - 1)):
        raise ValueError(f"parts must be weakly decreasing: {pi}")


def parse_partition(text: str) -> Partition:
    """Parse the list form used in reports, e.g. "[3,1]" or "[]".

    >>> parse_partition("[3,1]")
    (3, 1)
    >>> parse_partition("[]")
    ()
    """
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise ValueError(f"not a partition literal: {text!r}")
    inner = text[1:-1].strip()
    if not inner:
        return ()
    pi = tuple(int(tok) for tok in inner.split(","))
    check_partition(pi)
    return pi


def format_partition(pi: Partition) -> str:
    """Inverse of parse_partition.

    >>> format_partition((3, 1))
    '[3,1]'
    >>> format_partition(())
    '[]'
    """
    return "[" + ",".join(str(x) for x in pi) + "]"


def enumerate_partitions(n: int, max_part: int | None = None):
    """Yield all partitions of n in reverse lexicographic order.

    The first partition is (n) and the last is (1,)*n.

    >>> list(enumerate_partitions(4))
    [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        yield ()
        return
    top = n if max_part is None else min(max_part, n)
    for first in range(top, 0, -1):
        for rest in enumerate_partitions(n - first, first):
            yield (first,) + rest


def conjugate(pi: Partition) -> Partition:
    """Transpose of the Young diagram.

    >>> conjugate((3, 1))
    (2, 1, 1)
    >>> conjugate(conjugate((5, 3, 3, 1))) == (5, 3, 3, 1)
    True
    """
    if not pi:
        return ()
    out = []
    for j in range(1, pi[0] + 1):
        out.append(sum(1 for part in pi if part >= j))
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


def partition_from_beta(entries) -> Partition:
    """Recover the partition from any finite set of distinct non-negative ints.

    >>> partition_from_beta((0, 1, 3, 6))
    (3, 1)
    """
    ent = sorted(entries)
    parts = [e - j for j, e in enumerate(ent)]
    return tuple(x for x in reversed(parts) if x > 0)


def _abacus_levels(pi: Partition, p: int) -> list[list[int]]:
    """Bead levels per runner under the fixed bead-count convention."""
    m = -(-len(pi) // p) * p
    runners: list[list[int]] = [[] for _ in range(p)]
    for b in beta_set(pi, m):
        runners[b % p].append(b // p)
    return runners


def core_and_quotient(
    pi: Partition, p: int
) -> tuple[Partition, tuple[Partition, ...], int]:
    """p-core, p-quotient (one component per runner) and weight of pi.

    Any modulus p >= 1 works; with a single runner the core is empty and
    the quotient is the partition itself.

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
    core_beta = [
        i + p * lvl for i, levels in enumerate(runners) for lvl in range(len(levels))
    ]
    core = partition_from_beta(core_beta)
    quotient = tuple(partition_from_beta(levels) for levels in runners)
    weight = sum(sum(nu) for nu in quotient)
    if sum(pi) != sum(core) + p * weight:
        raise ExactnessError("abacus bookkeeping failed")  # pragma: no cover
    return core, quotient, weight


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

    Grown one top row at a time as enumerate_partitions recurses, keeping a
    row only when it has no hook divisible by p; for p > m every partition
    of m is a core.

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


def combine(core: Partition, quotient: tuple[Partition, ...], p: int) -> Partition:
    """Unique partition with the given p-core and p-quotient.

    Inverse of core_and_quotient under the fixed convention.

    >>> combine((), ((2,), ()), 2)
    (3, 1)
    >>> combine((2,), ((), (), ()), 3)
    (2,)
    """
    if len(quotient) != p:
        raise ValueError(f"quotient must have exactly {p} components")
    if not is_p_core(core, p):
        raise ValueError(f"{core} has a hook length divisible by {p}")
    # the beads of a core are flush, so their counts place them
    counts = runner_bead_counts(core, p)
    # pad with full bead rows until every runner can hold its component
    extra = max([len(nu) - c for nu, c in zip(quotient, counts)] + [0])
    final_beta = [
        i + p * lvl
        for i, nu in enumerate(quotient)
        for lvl in beta_set(nu, counts[i] + extra)
    ]
    return partition_from_beta(final_beta)


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

    x**b(pi) * prod_{k<=n}(x^k - 1) / prod_h(x^h - 1), built without division
    as x**b(pi) * prod_{d<=n} Phi_d**e_d, where e_d = floor(n/d) minus the
    number of hook lengths divisible by d; evaluation at 1 gives degree(pi).

    >>> print(gl_degree_poly((1, 1)))
    x
    >>> print(gl_degree_poly((2,)))
    1
    """
    n = sum(pi)
    hooks = hook_lengths(pi)
    poly = Poly.one().shift(b_statistic(pi))
    for d in range(1, n + 1):
        e = n // d - sum(1 for h in hooks if h % d == 0)
        if e < 0:
            raise ExactnessError(f"Phi_{d} has exponent {e} in the degree of {pi}")
        poly = poly * cyclotomic_poly(d) ** e
    return poly
