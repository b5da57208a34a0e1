"""p-blocks of the symmetric and alternating groups.

Two irreducible characters of S_n lie in the same p-block exactly when their
partitions share a p-core, so a block is labelled by a p-core and a weight w
with |core| + p*w = n.  The module builds block member lists with exact
degrees and heights, evaluates the relative hook formula (the degree of a
member as an explicit product over the hooks of the p-symbol of its
p-quotient), tests the mod-p congruence between the degree ratio and the
matching wreath-product character degree, and classifies blocks whose height
zero characters all share one degree.

Alternating groups are handled through restriction from S_n: a character
splits in two exactly when its partition is self-conjugate, and conjugate
partitions restrict to the same character.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from math import factorial, prod

from .algebra import ExactnessError, factorial_val, is_prime, padic_val
from .partitions import (
    Partition,
    check_partition,
    combine,
    conjugate,
    core_and_quotient,
    degree,
    enumerate_partitions,
    format_partition,
    is_p_core,
    is_self_dual,
    runner_bead_counts,
)
from .wreath import enumerate_multipartitions, symbol_hooks, symbol_of, wreath_degree


class ClassificationError(RuntimeError):
    """No classification case applies; this is a refutation event."""


@dataclass(frozen=True)
class BlockLabel:
    group: str  # "sym" or "alt"
    n: int
    p: int
    core: Partition
    weight: int


@dataclass(frozen=True)
class Member:
    partition: Partition
    degree: int
    height: int


@dataclass(frozen=True)
class BlockData:
    label: BlockLabel
    members: tuple[Member, ...]
    defect: int
    classification: str | None = None
    witness: tuple[Member, Member] | None = None

    @property
    def height_zero(self) -> tuple[Member, ...]:
        return tuple(m for m in self.members if m.height == 0)

    @property
    def height_zero_degrees(self) -> tuple[int, ...]:
        return tuple(m.degree for m in self.height_zero)


def _check_prime(p: int) -> None:
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")


def _with_heights(degrees_and_parts, p: int):
    vals = [padic_val(d, p) for _, d in degrees_and_parts]
    base = min(vals)
    members = tuple(
        Member(part, d, v - base)
        for (part, d), v in zip(degrees_and_parts, vals)
    )
    return members, base


def blocks_sn(n: int, p: int) -> tuple[BlockData, ...]:
    """All p-blocks of S_n, in lexicographic core order.

    Each block lists its members in p-quotient enumeration order.

    >>> [len(b.members) for b in blocks_sn(3, 3)]
    [3]
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
            pairs.append((pi, degree(pi)))
        members, base = _with_heights(pairs, p)
        label = BlockLabel("sym", n, p, core, w)
        out.append(BlockData(label, members, nfact_val - base))
    return tuple(out)


def is_ehzd(block: BlockData) -> bool:
    """True when all height zero members share one degree."""
    degs = block.height_zero_degrees
    return len(set(degs)) == 1


# ---------------------------------------------------------------------------
# the relative hook formula and its congruence


def relative_hook_degree(pi: Partition, p: int) -> int:
    """Degree of the character of pi computed through its p-core.

    n!/r! divided by the product over all hooks (i, j, l) of the p-symbol of
    the p-quotient of |p*l + c_i - c_j|, times the degree of the core
    (r = |core|, c_i = p*b_i + i from the runner bead counts b of the core).
    Always equals degree(pi).

    >>> relative_hook_degree((3, 1), 2)
    3
    """
    check_partition(pi)
    _check_prime(p)
    core, quotient, w = core_and_quotient(pi, p)
    if w == 0:
        return degree(core)
    c = [p * b + i for i, b in enumerate(runner_bead_counts(core, p))]
    hooks = prod(
        abs(p * length + c[i] - c[j])
        for i, j, length in symbol_hooks(symbol_of(quotient))
    )
    if hooks == 0:
        raise ExactnessError("zero hook factor")
    num = (factorial(sum(pi)) // factorial(sum(core))) * degree(core)
    q, rem = divmod(num, hooks)
    if rem:
        raise ExactnessError(
            f"hook product {hooks} does not divide {num} for {pi}, p={p}"
        )
    return q


@dataclass(frozen=True)
class CongruenceReport:
    """Mod-p comparison of the degree ratio with the quotient wreath degree.

    ratio is the exact value of degree(pi)/degree(core); it is not always an
    integer ((6,1,1) at p=3 gives 7/2).  lhs is its residue mod p when the
    denominator is a unit mod p, otherwise None, in which case neither flag
    can hold and the report is an exception by construction.
    """

    ratio: Fraction
    lhs: int | None
    rhs: int
    holds_plus: bool
    holds_minus: bool

    @property
    def holds(self) -> bool:
        return self.holds_plus or self.holds_minus


def quotient_congruence(pi: Partition, p: int) -> CongruenceReport:
    """Compare the degree ratio with the wreath degree of the quotient mod p.

    The exact ratio degree(pi)/degree(core), reduced mod p where defined, is
    compared with the degree of the wreath-product character of the
    p-quotient, with either sign.  By the relative hook formula the ratio is
    n!/r! over the symbol hook product; it is taken from the degrees here.

    >>> r = quotient_congruence((3, 1), 2)
    >>> (r.ratio, r.lhs, r.rhs, r.holds)
    (Fraction(3, 1), 1, 1, True)
    """
    check_partition(pi)
    _check_prime(p)
    core, quotient, _ = core_and_quotient(pi, p)
    ratio = Fraction(degree(pi), degree(core))
    rhs = wreath_degree(quotient) % p
    if ratio.denominator % p == 0:
        return CongruenceReport(ratio, None, rhs, False, False)
    lhs = ratio.numerator * pow(ratio.denominator, -1, p) % p
    return CongruenceReport(ratio, lhs, rhs, lhs == rhs, lhs == (-rhs) % p)


# ---------------------------------------------------------------------------
# classification


@dataclass(frozen=True)
class SymClassification:
    case: str  # one of "a", "b", "c", "d"
    witness: tuple[Member, Member] | None


def _height_zero_witness(block: BlockData, accept) -> tuple[Member, Member] | None:
    """The first height zero pair (x, y) with x.degree < y.degree that
    accept(x, y) admits, scanning x, then y, in member order."""
    hz = block.height_zero
    for x in hz:
        for y in hz:
            if x.degree < y.degree and accept(x, y):
                return x, y
    return None


def _survives_restriction(x: Member, y: Member) -> bool:
    """Degrees d_1 < d_2 stay apart in A_n: either both partitions are
    non-self-conjugate, or d_2 != 2*d_1."""
    return (not is_self_dual(x.partition) and not is_self_dual(y.partition)) or (
        y.degree != 2 * x.degree
    )


def classify_sym(block: BlockData) -> SymClassification:
    """Which of the four degree-separation cases a symmetric block is in.

    (a) weight 0; (b) p = 2 and weight 1; (c) p = 3, weight 1, self-dual
    core; (d) otherwise, with an explicit height zero witness pair.  Failing
    to produce a witness in case (d) raises ClassificationError.

    >>> classify_sym(blocks_sn(3, 3)[0]).case
    'c'
    """
    label = block.label
    if label.group != "sym":
        raise ValueError("expects a symmetric-group block")
    p, w = label.p, label.weight
    if w == 0:
        return SymClassification("a", None)
    if p == 2 and w == 1:
        return SymClassification("b", None)
    if p == 3 and w == 1 and is_self_dual(label.core):
        return SymClassification("c", None)
    witness = _height_zero_witness(block, _survives_restriction)
    if witness is None:
        raise ClassificationError(
            f"classification failure: no witness pair in block "
            f"core={format_partition(label.core)} n={label.n} p={p}"
        )
    return SymClassification("d", witness)


# ---------------------------------------------------------------------------
# alternating groups


def _restrict_members(sym_members: tuple[Member, ...]):
    """Member (partition, degree) pairs of the covered alternating block.

    A conjugate pair contributes one entry under the smaller label (a block
    whose core is not self-conjugate holds one partition of each pair); a
    self-conjugate partition contributes two entries of half degree.
    """
    pairs = []
    seen = set()
    for m in sym_members:
        lam = m.partition
        if lam in seen:
            continue
        lam_c = conjugate(lam)
        if lam == lam_c:
            if m.degree % 2:
                raise ExactnessError(
                    f"self-conjugate {lam} has odd degree {m.degree}"
                )
            half = m.degree // 2
            pairs.append((lam, half))
            pairs.append((lam, half))
        else:
            seen.add(lam_c)
            pairs.append((min(lam, lam_c), m.degree))
    return pairs


def blocks_an(n: int, p: int) -> tuple[BlockData, ...]:
    """Blocks of A_n with their classification.

    For odd p a block is labelled by an unordered pair of conjugate p-cores
    (represented by the lexicographically smaller one) and built by
    restricting the corresponding symmetric blocks.  Cases: (a) defect 0;
    (b) p = 3, weight 1, self-dual core, all degrees equal (cyclic defect
    group of order 3); (c) two height zero degrees differ.  A positive
    defect block with equal height zero degrees outside shape (b) raises
    ClassificationError.

    For p = 2 every core is self-dual; weight 0 gives a record with the two
    defect zero constituents, weight 1 a single defect zero member (case a),
    and weight >= 2 is reported with unsplit symmetric-group degrees and
    marked "unclassified".
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    _check_prime(p)
    sym = {b.label.core: b for b in blocks_sn(n, p)}
    group_val = factorial_val(n, p) - (1 if p == 2 else 0)
    out = []
    done = set()
    for core in sorted(sym):
        if core in done:
            continue
        core_c = conjugate(core)
        done.add(core)
        done.add(core_c)
        label_core = min(core, core_c)
        sblock = sym[label_core]
        w = sblock.label.weight
        label = BlockLabel("alt", n, p, label_core, w)

        if p == 2 and w >= 2:
            pairs = [(m.partition, m.degree) for m in sblock.members]
            members, base = _with_heights(pairs, p)
            out.append(
                BlockData(label, members, group_val - base, "unclassified", None)
            )
            continue

        members, base = _with_heights(_restrict_members(sblock.members), p)
        defect = group_val - base
        block = BlockData(label, members, defect)

        if p == 2 and w == 1 and (len(members) != 1 or defect != 0):
            raise ClassificationError(
                f"unexpected weight-1 restriction at p=2, core "
                f"{format_partition(label_core)}, n={n}"
            )
        if defect == 0:
            out.append(replace(block, classification="a"))
            continue
        degs = {m.degree for m in members}
        if p == 3 and w == 1 and core == core_c and len(degs) == 1:
            if defect != 1:
                raise ClassificationError(
                    f"equal-degree weight-1 block with defect {defect} != 1 "
                    f"at core {format_partition(label_core)}, n={n}"
                )
            out.append(replace(block, classification="b"))
            continue
        witness = _height_zero_witness(block, lambda x, y: True)
        if witness is None:
            raise ClassificationError(
                f"classification failure: positive-defect block with equal "
                f"height zero degrees, core={format_partition(label_core)} "
                f"n={n} p={p}"
            )
        out.append(replace(block, classification="c", witness=witness))
    return tuple(out)


# ---------------------------------------------------------------------------
# serialization


def to_json_record(block: BlockData) -> dict:
    """Flat JSON-ready record for one block.

    Degrees are rendered as decimal strings so consumers never round them.
    """
    record = {
        "group": block.label.group,
        "n": block.label.n,
        "p": block.label.p,
        "core": format_partition(block.label.core),
        "weight": block.label.weight,
        "defect": block.defect,
        "members": [
            {
                "partition": format_partition(m.partition),
                "degree": str(m.degree),
                "height": m.height,
            }
            for m in block.members
        ],
        "height_zero_degrees": [
            str(d) for d in sorted(block.height_zero_degrees)
        ],
        "ehzd": is_ehzd(block),
        "classification": block.classification,
        "witness": None
        if block.witness is None
        else [
            {"partition": format_partition(m.partition), "degree": str(m.degree)}
            for m in block.witness
        ],
    }
    return record
