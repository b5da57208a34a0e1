import doctest
from dataclasses import replace
from fractions import Fraction

import pytest

import symblocks.blocks as blocks
from symblocks.algebra import factorial_val, padic_val
from symblocks.blocks import (
    ClassificationError,
    blocks_an,
    blocks_sn,
    classify_sym,
    is_ehzd,
    quotient_congruence,
    relative_hook_degree,
    to_json_record,
)
from symblocks.partitions import (
    conjugate,
    core_and_quotient,
    degree,
    enumerate_partitions,
    is_self_dual,
)


def test_doctests():
    result = doctest.testmod(blocks)
    assert result.failed == 0


# ---------------------------------------------------------------------------
# symmetric group blocks


def test_principal_block_s4_mod_2():
    out = blocks_sn(4, 2)
    assert len(out) == 1
    b = out[0]
    assert b.label.core == ()
    assert b.label.weight == 2
    assert b.defect == 3
    assert sorted(m.degree for m in b.members) == [1, 1, 2, 3, 3]


def test_blocks_s4_mod_3():
    by_core = {b.label.core: b for b in blocks_sn(4, 3)}
    assert set(by_core) == {(1,), (2, 1, 1), (3, 1)}
    main = by_core[(1,)]
    assert sorted(m.degree for m in main.members) == [1, 1, 2]
    assert main.defect == 1
    for core in ((2, 1, 1), (3, 1)):
        b = by_core[core]
        assert b.label.weight == 0 and b.defect == 0
        assert [m.degree for m in b.members] == [3]


def test_blocks_partition_the_characters():
    for n in range(1, 13):
        for p in (2, 3, 5, 7):
            out = blocks_sn(n, p)
            seen = []
            for b in out:
                for m in b.members:
                    core, _, w = core_and_quotient(m.partition, p)
                    assert core == b.label.core
                    assert w == b.label.weight
                    assert m.degree == degree(m.partition)
                    seen.append(m.partition)
            assert sorted(seen) == sorted(enumerate_partitions(n))


def test_defect_is_weight_factorial_valuation():
    for n in range(1, 13):
        for p in (2, 3, 5, 7):
            for b in blocks_sn(n, p):
                assert b.defect == factorial_val(p * b.label.weight, p)
                vals = [padic_val(m.degree, p) for m in b.members]
                base = factorial_val(n, p) - b.defect
                assert min(vals) == base
                assert [m.height for m in b.members] == [v - base for v in vals]


def test_height_zero_and_ehzd():
    for b in blocks_sn(6, 3):
        hz = b.height_zero
        assert hz and all(m.height == 0 for m in hz)
        assert is_ehzd(b) == (len(set(m.degree for m in hz)) == 1)
    # weight zero blocks have a single member, hence trivially equal degrees
    b = {x.label.core: x for x in blocks_sn(4, 3)}[(3, 1)]
    assert is_ehzd(b)


def test_invalid_inputs():
    with pytest.raises(ValueError):
        blocks_sn(3, 4)
    with pytest.raises(ValueError):
        blocks_sn(0, 2)
    with pytest.raises(ValueError):
        blocks_an(1, 3)


# ---------------------------------------------------------------------------
# the relative hook formula


def test_relative_hook_degree_sweep():
    for n in range(1, 13):
        for p in (2, 3, 5, 7):
            for pi in enumerate_partitions(n):
                assert relative_hook_degree(pi, p) == degree(pi)


# ---------------------------------------------------------------------------
# the mod-p degree ratio congruence


def test_congruence_simple_cases():
    rep = quotient_congruence((3, 1), 2)
    assert (rep.ratio, rep.lhs, rep.rhs, rep.holds) == (Fraction(3), 1, 1, True)
    rep = quotient_congruence((2, 1), 3)
    assert rep.ratio == 2 and rep.lhs == 2 and rep.rhs == 1
    assert rep.holds_minus and not rep.holds_plus


def test_congruence_known_exceptions():
    # the ratio can be divisible by p, in which case neither sign works
    rep = quotient_congruence((4, 1), 2)
    assert rep.ratio == 2 and rep.lhs == 0 and not rep.holds
    rep = quotient_congruence((7, 2), 3)
    assert not rep.holds
    # a unit ratio can still miss both signs
    rep = quotient_congruence((8, 2), 5)
    assert rep.ratio == 7 and rep.lhs == 2 and rep.rhs == 1 and not rep.holds
    # the ratio need not even be an integer
    rep = quotient_congruence((6, 1, 1), 3)
    assert rep.ratio == Fraction(7, 2)
    assert rep.holds_minus


def test_congruence_tallies_small_range():
    plus = minus = checks = 0
    exceptions = []
    for n in range(1, 9):
        for p in (2, 3):
            for pi in enumerate_partitions(n):
                rep = quotient_congruence(pi, p)
                checks += 1
                plus += rep.holds_plus
                minus += rep.holds_minus
                if not rep.holds:
                    exceptions.append((pi, p))
    assert checks == 132
    assert plus == 105
    assert minus == 85
    assert exceptions == [
        ((4, 1), 2),
        ((2, 1, 1, 1), 2),
        ((5, 2, 1), 2),
        ((3, 2, 1, 1, 1), 2),
    ]


def test_congruence_weight_zero_is_trivial():
    rep = quotient_congruence((3, 1), 5)
    assert rep.ratio == 1 and rep.holds_plus


# ---------------------------------------------------------------------------
# classification of symmetric blocks


def test_classify_sym_cases():
    assert classify_sym(blocks_sn(2, 2)[0]).case == "b"
    assert classify_sym(blocks_sn(3, 3)[0]).case == "c"
    c = classify_sym(blocks_sn(4, 2)[0])
    assert c.case == "d"
    assert tuple(m.partition for m in c.witness) == ((1, 1, 1, 1), (3, 1))
    weight0 = {x.label.core: x for x in blocks_sn(4, 3)}[(3, 1)]
    assert classify_sym(weight0).case == "a"


def test_classify_sym_witness_properties():
    for n in range(2, 15):
        for p in (2, 3, 5, 7):
            for b in blocks_sn(n, p):
                c = classify_sym(b)
                assert c.case in "abcd"
                if c.case != "d":
                    assert c.witness is None
                    continue
                x, y = c.witness
                assert x.height == 0 and y.height == 0
                assert x.degree < y.degree
                assert (
                    not is_self_dual(x.partition)
                    and not is_self_dual(y.partition)
                ) or y.degree != 2 * x.degree


# ---------------------------------------------------------------------------
# alternating group blocks


def test_alternating_anchors():
    a5 = {b.label.core: b for b in blocks_an(5, 5)}
    main = a5[()]
    assert sorted(m.degree for m in main.members) == [1, 3, 3, 4]
    assert main.defect == 1 and main.classification == "c"
    w1, w2 = main.witness
    assert w1.degree < w2.degree

    a4 = {b.label.core: b for b in blocks_an(4, 3)}
    assert sorted(m.degree for m in a4[(1,)].members) == [1, 1, 1]
    assert a4[(1,)].classification == "b"
    assert [m.degree for m in a4[(2, 1, 1)].members] == [3]
    assert a4[(2, 1, 1)].classification == "a"


def test_alternating_equal_degree_instance():
    found = {b.label.core: b for b in blocks_an(8, 3)}
    b = found[(3, 1, 1)]
    assert sorted(m.degree for m in b.members) == [21, 21, 21]
    assert b.defect == 1
    assert b.classification == "b"
    assert is_ehzd(b)


def test_alternating_member_count_identity():
    for n in range(2, 11):
        for p in (3, 5, 7):
            total = sum(len(b.members) for b in blocks_an(n, p))
            parts = list(enumerate_partitions(n))
            s = sum(1 for pi in parts if is_self_dual(pi))
            assert total == (len(parts) - s) // 2 + 2 * s


def test_alternating_labels_use_smaller_core():
    for b in blocks_an(9, 3):
        assert b.label.core <= conjugate(b.label.core)


def test_alternating_classification_shapes():
    for n in range(2, 13):
        for p in (3, 5, 7):
            for b in blocks_an(n, p):
                if b.defect == 0:
                    assert b.classification == "a"
                elif b.classification == "b":
                    assert p == 3 and b.label.weight == 1 and b.defect == 1
                    assert is_self_dual(b.label.core)
                    assert len({m.degree for m in b.members}) == 1
                else:
                    assert b.classification == "c"
                    x, y = b.witness
                    assert x.height == 0 and y.height == 0 and x.degree < y.degree


def test_alternating_p2_conventions():
    out = blocks_an(4, 2)
    assert len(out) == 1
    assert out[0].classification == "unclassified"
    by_core = {b.label.core: b for b in blocks_an(3, 2)}
    # weight one restricts to a single defect zero member
    w1 = by_core[(1,)]
    assert w1.classification == "a"
    assert len(w1.members) == 1 and w1.defect == 0
    # weight zero with a self-dual label splits into two constituents
    w0 = by_core[(2, 1)]
    assert [m.degree for m in w0.members] == [1, 1]
    assert w0.defect == 0


# ---------------------------------------------------------------------------
# serialization


def test_json_record_shape():
    b = blocks_sn(4, 2)[0]
    c = classify_sym(b)
    rec = to_json_record(replace(b, classification=c.case, witness=c.witness))
    assert rec["group"] == "sym" and rec["n"] == 4 and rec["p"] == 2
    assert rec["core"] == "[]" and rec["weight"] == 2 and rec["defect"] == 3
    assert sorted(m["degree"] for m in rec["members"]) == ["1", "1", "2", "3", "3"]
    assert all(isinstance(m["degree"], str) for m in rec["members"])
    assert rec["height_zero_degrees"] == ["1", "1", "3", "3"]
    assert rec["ehzd"] is False
    assert rec["classification"] == "d"
    assert [w["partition"] for w in rec["witness"]] == ["[1,1,1,1]", "[3,1]"]


def test_json_record_numeric_degree_sort():
    b = {x.label.core: x for x in blocks_sn(7, 5)}[(2,)]
    rec = to_json_record(b)
    as_ints = [int(d) for d in rec["height_zero_degrees"]]
    assert as_ints == sorted(as_ints)


def test_classification_error_type():
    assert issubclass(ClassificationError, RuntimeError)
