import pickle
from fractions import Fraction

import pytest

import symblocks.blocks as blocks
import symblocks.partitions as partitions
from oracles import (
    blocks_an_by_selection,
    blocks_sn_by_filter,
    core_and_quotient_by_sorting,
    relative_hook_degree_by_symbol_hooks,
    symbol_hooks_by_membership,
)
from symblocks.algebra import UnprovenPrimeError, factorial_val, padic_val
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
from symblocks.commands import verify_hook_formula
from symblocks.partitions import (
    check_partition,
    conjugate,
    core_and_quotient,
    degree,
    enumerate_multipartitions,
    enumerate_partitions,
    is_self_dual,
)
from symblocks.wreath import (
    check_symbol,
    symbol_of,
    wreath_degree,
)


# ---------------------------------------------------------------------------
# symmetric group blocks


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
def test_blocks_sn_matches_the_filter_oracle(p):
    for n in range(1, 19):
        assert blocks_sn(n, p) == blocks_sn_by_filter(n, p), (n, p)


@pytest.mark.parametrize("p", [2, 3])
def test_blocks_sn_out_of_order_matches_the_filter_oracle(p, monkeypatch):
    """A caller may ask for n in any order, not only ascending: from no
    level table, 20 and 18 are seeded from the hook walk, 19 is built one
    level up from 18 and 17 is seeded again."""
    monkeypatch.setattr(partitions, "_held", (-1, {}))
    for n in (20, 18, 19, 17):
        assert blocks_sn(n, p) == blocks_sn_by_filter(n, p), (n, p)


def test_blocks_sn_two_levels_up_matches_the_filter_oracle(monkeypatch):
    monkeypatch.setattr(partitions, "_held", (-1, {}))
    for n in (14, 16):
        assert blocks_sn(n, 2) == blocks_sn_by_filter(n, 2), n


@pytest.mark.parametrize("p", [2, 3, 5])
def test_each_block_is_built_by_one_combine_call(p, monkeypatch):
    """blocks_sn and blocks_an hand combine one block at a time: one call
    per block, with that block's core and weight, building one member for
    every quotient of that weight."""
    calls = []
    real = blocks.combine

    def counting(core, w, q):
        members = real(core, w, q)
        calls.append((core, w, len(members), q))
        return members

    monkeypatch.setattr(blocks, "combine", counting)
    for n in range(2, 15):
        for scan in (blocks_sn, blocks_an):
            calls.clear()
            out = scan(n, p)
            assert calls == [
                (b.label.core, b.label.weight,
                 len(enumerate_multipartitions(p, b.label.weight)), p)
                for b in out
            ], (scan.__name__, n, p)


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
    # 2**89 - 1 is prime, but above the Miller-Rabin bound is_prime proves
    # nothing, so the library refuses it before any work starts
    p = 2**89 - 1
    with pytest.raises(UnprovenPrimeError, match=str(p)):
        blocks_sn(3, p)
    with pytest.raises(UnprovenPrimeError, match=str(p)):
        relative_hook_degree((1,), p)


# ---------------------------------------------------------------------------
# the relative hook formula


def test_relative_hook_degree_sweep():
    for n in range(1, 13):
        for p in (2, 3, 5, 7):
            for pi in enumerate_partitions(n):
                assert relative_hook_degree(pi, p) == degree(pi)


@pytest.mark.parametrize("e,r_max", [(1, 6), (2, 6), (3, 6), (4, 6), (5, 4), (7, 4)])
def test_symbol_hooks_match_the_membership_oracle(e, r_max):
    # the table's triples are the oracle's hooks with p = e multiplied in,
    # in the oracle's order: row i, entry s, row j, gap t ascending
    for r in range(r_max + 1):
        for q in enumerate_multipartitions(e, r):
            want = tuple(
                (i, j, e * length)
                for i, j, length in symbol_hooks_by_membership(symbol_of(q))
            )
            assert blocks._quotient_table(q)[0] == want, q


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
def test_hook_formula_matches_the_symbol_hook_oracle(p):
    # the per-quotient tables against the per-hook product, and the
    # congruence's wreath degree against the sorted decomposition
    for n in range(1, 23):
        for pi in enumerate_partitions(n):
            d = relative_hook_degree(pi, p)
            assert d == relative_hook_degree_by_symbol_hooks(pi, p), (pi, p)
            core, quotient, _ = core_and_quotient_by_sorting(pi, p)
            rep = quotient_congruence(pi, p)
            assert rep.ratio == Fraction(d, degree(core))
            assert rep.rhs == wreath_degree(quotient) % p


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
# one abacus pass per (partition, prime) for both checks


@pytest.mark.parametrize("p", [2, 3])
def test_hook_worker_decomposes_each_partition_once(p, monkeypatch):
    calls = []

    def counting(pi, q):
        calls.append((pi, q))
        return core_and_quotient(pi, q)

    relative_hook_degree((1,), p)  # the memo now holds no partition of 10
    monkeypatch.setattr(blocks, "core_and_quotient", counting)
    row, _, _ = verify_hook_formula._worker((10, p))
    assert row["partitions"] == 42
    assert calls == [(pi, p) for pi in enumerate_partitions(10)]


@pytest.mark.parametrize("p", [2, 3])
def test_hook_worker_keeps_the_first_exceptions_as_raw_pairs(p, monkeypatch):
    """The worker formats no exception: it counts every one and keeps the
    partitions of the first cap of them, in enumeration order; the report
    asks for their congruence reports again."""
    missed = [
        pi for pi in enumerate_partitions(12) if not quotient_congruence(pi, p).holds
    ]
    assert len(missed) > 3

    def formatting(pi):
        raise AssertionError(f"{pi} formatted by the worker")

    monkeypatch.setattr(verify_hook_formula, "EXCEPTION_DETAIL_CAP", 3)
    monkeypatch.setattr(partitions, "format_partition", formatting)
    row, failures, exceptions = verify_hook_formula._worker((12, p))
    assert failures == []
    assert row["exceptions"] == len(missed)
    assert exceptions == missed[:3]


def test_hook_worker_result_pickles_without_fractions():
    """A --jobs child pickles _worker's result: rows, formatted equality
    failures and partitions, with no Fraction to rebuild on the way back
    (a pickled Fraction or CongruenceReport names its class)."""
    result = verify_hook_formula._worker((12, 2))
    assert result[2]
    data = pickle.dumps(result)
    assert pickle.loads(data) == result
    assert b"Fraction" not in data and b"CongruenceReport" not in data


def test_cached_decomposition_gives_the_uncached_values():
    # the same pi across primes, the congruence before the hook formula
    calls = [
        (check, pi, p)
        for n in range(1, 13)
        for pi in enumerate_partitions(n)
        for p in (2, 3, 5, 7)
        for check in (quotient_congruence, relative_hook_degree)
    ]
    blocks._decompose.cache_clear()
    cached = [check(pi, p) for check, pi, p in calls]
    assert blocks._decompose.cache_info().hits == len(calls) // 2
    uncached = []
    for check, pi, p in calls:
        blocks._decompose.cache_clear()
        uncached.append(check(pi, p))
    assert cached == uncached


def test_cached_decomposition_still_validates():
    assert relative_hook_degree((3, 1), 2) == 3
    with pytest.raises(ValueError):
        relative_hook_degree((1, 3), 2)
    assert quotient_congruence((3, 1), 2).holds
    with pytest.raises(ValueError):
        quotient_congruence((3, 1), 4)


# (check, arguments, exception type, message), recorded from the validators
# that tested each entry in a Python loop; (3, -1) has a negative part and a
# rise, and must name the part, the first of the two checks
VALIDATION_ERRORS = [
    (check_partition, ((0,),), ValueError, "parts must be positive: (0,)"),
    (check_partition, ((2, 0),), ValueError, "parts must be positive: (2, 0)"),
    (check_partition, ((1, 2),), ValueError,
     "parts must be weakly decreasing: (1, 2)"),
    (check_partition, ((3, -1),), ValueError, "parts must be positive: (3, -1)"),
    (check_partition, ((-1, 2),), ValueError, "parts must be positive: (-1, 2)"),
    (check_symbol, ((),), ValueError, "a symbol needs at least one row"),
    (check_symbol, (((0, 1), (0,)),), ValueError,
     "rows must all have the same length"),
    (check_symbol, (((1, 1),),), ValueError, "rows must be strictly increasing"),
    (check_symbol, (((-1, 0),),), ValueError, "entries must be non-negative"),
    (check_symbol, (((3, -1),),), ValueError, "entries must be non-negative"),
    (check_symbol, (((2, 1),),), ValueError, "rows must be strictly increasing"),
    (relative_hook_degree, ((1, 2), 3), ValueError,
     "parts must be weakly decreasing: (1, 2)"),
    (relative_hook_degree, ((2, 1), 4), ValueError, "p must be prime, got 4"),
    (quotient_congruence, ((1, 2), 3), ValueError,
     "parts must be weakly decreasing: (1, 2)"),
    (quotient_congruence, ((2, 1), 4), ValueError, "p must be prime, got 4"),
]


@pytest.mark.parametrize("check,args,error,message", VALIDATION_ERRORS)
def test_validators_keep_their_errors(check, args, error, message):
    # twice: a rejected input is rejected again, not served from a cache
    for _ in range(2):
        with pytest.raises(Exception) as info:
            check(*args)
        assert (type(info.value), str(info.value)) == (error, message)


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


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_blocks_an_matches_the_selection_oracle(p):
    for n in range(2, 19):
        assert blocks_an(n, p) == blocks_an_by_selection(n, p), (n, p)


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


def test_alternating_block_no_case_covers_is_a_failure():
    # two height zero members of equal degree in a defect-1 block at p = 5
    b = blocks._alt_block(5, 5, (), 1, [((5,), 1), ((4, 1), 1)])
    assert b.classification == "failure"
    assert b.defect == 1 and b.witness is None
    rec = to_json_record(b)
    assert rec["ehzd"] is True and rec["refutation"] is True


def test_blocks_sn_carries_the_classify_sym_case():
    for n in range(1, 13):
        for p in (2, 3, 5):
            for b in blocks_sn(n, p):
                c = classify_sym(b)
                assert (b.classification, b.witness) == (c.case, c.witness)
                assert to_json_record(b)["refutation"] is False


def test_symmetric_block_no_case_covers_is_a_failure(monkeypatch):
    monkeypatch.setattr(blocks, "_height_zero_witness", lambda block, accept: None)
    b = {x.label.core: x for x in blocks_sn(6, 3)}[()]
    assert b.classification == "failure" and b.witness is None
    assert to_json_record(b)["refutation"] is True


# ---------------------------------------------------------------------------
# serialization


def test_json_record_shape():
    b = blocks_sn(4, 2)[0]
    c = classify_sym(b)
    rec = to_json_record(b._replace(classification=c.case, witness=c.witness))
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
