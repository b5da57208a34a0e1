import doctest
from fractions import Fraction

import pytest

import symblocks.unipotent as unipotent
from oracles import speceq_identity_holds, tori_all_entries
from symblocks.partitions import (
    core_and_quotient,
    degree,
    enumerate_partitions,
    gl_degree_poly,
)
from symblocks.unipotent import (
    TORI_SERIES,
    degree_collisions,
    dhc_series_gl,
    hll_check_gl,
    speceq_search,
    tori_check,
    tori_entry,
    unipotent_degrees_gl,
)
from symblocks.blocks import blocks_sn


def test_doctests():
    result = doctest.testmod(unipotent)
    assert result.failed == 0


# ---------------------------------------------------------------------------
# degree polynomials


def test_degree_entries_small():
    got = [(e.partition, str(e.poly)) for e in unipotent_degrees_gl(3)]
    assert got == [((3,), "1"), ((2, 1), "x^2 + x"), ((1, 1, 1), "x^3")]


def test_degree_entries_structure():
    for n in range(1, 13):
        entries = unipotent_degrees_gl(n)
        assert [e.partition for e in entries] == list(enumerate_partitions(n))
        for e in entries:
            assert e.n == n
            assert all(type(c) is int for c in e.poly.coeffs)
            assert e.poly(1) == degree(e.partition)


# ---------------------------------------------------------------------------
# series by d-core


def test_dhc_series_small():
    assert dhc_series_gl(3, 2) == (
        ((1,), ((3,), (1, 1, 1))),
        ((2, 1), ((2, 1),)),
    )


def test_dhc_series_singletons_when_d_large():
    out = dhc_series_gl(3, 5)
    assert out == (
        ((1, 1, 1), ((1, 1, 1),)),
        ((2, 1), ((2, 1),)),
        ((3,), ((3,),)),
    )


def test_dhc_series_modulus_one():
    out = dhc_series_gl(4, 1)
    assert len(out) == 1
    core, members = out[0]
    assert core == ()
    assert sorted(members) == sorted(enumerate_partitions(4))


def test_dhc_series_match_prime_blocks():
    for n in range(1, 13):
        for p in (2, 3, 5):
            series = dict(dhc_series_gl(n, p))
            block_map = {
                b.label.core: sorted(m.partition for m in b.members)
                for b in blocks_sn(n, p)
            }
            assert {c: sorted(ms) for c, ms in series.items()} == block_map


def test_dhc_series_partition_property():
    for n in range(1, 11):
        for d in (2, 3, 4, 6):
            all_parts = []
            for core, members in dhc_series_gl(n, d):
                for pi in members:
                    c, _, _ = core_and_quotient(pi, d)
                    assert c == core
                    all_parts.append(pi)
            assert sorted(all_parts) == sorted(enumerate_partitions(n))


def test_dhc_validation():
    with pytest.raises(ValueError):
        dhc_series_gl(0, 2)
    with pytest.raises(ValueError):
        dhc_series_gl(3, 0)


# ---------------------------------------------------------------------------
# specialized degree quotients along a series


def test_hll_two_by_two():
    rep = hll_check_gl(2, 2)
    assert len(rep.series) == 1
    members = rep.series[0].members
    assert [(m.partition, m.constant_str, m.expected) for m in members] == [
        ((2,), "1", 1),
        ((1, 1), "-1", 1),
    ]
    assert all(m.ok for m in members)
    assert rep.failures == ()


def test_hll_constants_are_fractions():
    rep = hll_check_gl(9, 4)
    members = [m for s in rep.series for m in s.members]
    assert members and all(m.constant is not None for m in members)
    assert all(type(m.constant) is Fraction for m in members)


def test_hll_modulus_one_always_passes():
    for n in range(1, 9):
        rep = hll_check_gl(n, 1)
        assert rep.failures == ()
        for s in rep.series:
            for m in s.members:
                assert m.ok and m.constant == degree(m.partition)


def test_hll_weight_zero_members_are_units():
    rep = hll_check_gl(6, 3)
    for s in rep.series:
        if s.weight == 0:
            for m in s.members:
                assert m.ok and abs(m.constant) == 1


def test_hll_five_two_frozen():
    rep = hll_check_gl(5, 2)
    data = {
        s.core: [(m.partition, m.constant, m.expected, m.ok) for m in s.members]
        for s in rep.series
    }
    assert data[(1,)] == [
        ((5,), Fraction(1), 1, True),
        ((3, 2), Fraction(1), 1, True),
        ((3, 1, 1), Fraction(-2), 2, True),
        ((2, 2, 1), Fraction(1), 1, True),
        ((1, 1, 1, 1, 1), Fraction(1), 1, True),
    ]
    assert data[(2, 1)] == [
        ((4, 1), Fraction(2), 1, False),
        ((2, 1, 1, 1), Fraction(-2), 1, False),
    ]
    assert [(c, m.partition) for c, m in rep.failures] == [
        ((2, 1), (4, 1)),
        ((2, 1), (2, 1, 1, 1)),
    ]


def test_hll_census_small_range():
    checks = failures = 0
    reasons = set()
    for n in range(1, 11):
        for d in range(1, min(n, 4) + 1):
            rep = hll_check_gl(n, d)
            for s in rep.series:
                for m in s.members:
                    checks += 1
                    if not m.ok:
                        failures += 1
                        reasons.add(m.reason)
    assert checks == 542
    assert failures == 85
    # every recorded failure is a clean unit-versus-degree mismatch
    assert reasons == {"absolute value differs from the wreath degree"}


def test_hll_validation():
    with pytest.raises(ValueError):
        hll_check_gl(3, 4)
    with pytest.raises(ValueError):
        hll_check_gl(3, 0)


# ---------------------------------------------------------------------------
# collisions of specialized degrees


def test_collisions_match_brute_force():
    for n in (4, 6, 8):
        for q in (2, 3, 4, 5):
            got = degree_collisions(n, q)
            values = {}
            expected = []
            parts = list(enumerate_partitions(n))
            for i, pi in enumerate(parts):
                values[pi] = gl_degree_poly(pi)(q)
            for i in range(len(parts)):
                for j in range(i + 1, len(parts)):
                    a, b = parts[i], parts[j]
                    if values[a] == values[b] and gl_degree_poly(a) != gl_degree_poly(b):
                        expected.append((a, b))
            assert list(got) == expected


def test_collisions_validation():
    with pytest.raises(ValueError):
        degree_collisions(0, 2)
    with pytest.raises(ValueError):
        degree_collisions(3, 1)


# ---------------------------------------------------------------------------
# small products of cyclotomic values


def _witness_sets(witnesses, bound=120):
    part_a, part_b, part_b_full = {}, {}, {}
    for w in witnesses:
        if w.divides_bound(bound):
            part_b.setdefault(w.m, set()).add(w.q)
            if w.full_support:
                part_b_full.setdefault(w.m, set()).add(w.q)
        if w.power_pair:
            part_a.setdefault(w.m, set()).add(w.q)
    return part_a, part_b, part_b_full


def test_speceq_trivial_witness():
    ws = speceq_search(5, 2, 2)
    w = ws[0]
    assert (w.q, w.m, w.exponents, w.n1, w.n2) == (2, 1, (1,), 1, 1)
    assert speceq_identity_holds(w)


def test_speceq_witnesses_verify():
    ws = speceq_search(60, 8, 4)
    assert ws
    for w in ws:
        assert speceq_identity_holds(w)
        assert w.exponents[w.m - 1] != 0
        assert w.n1 > 0 and w.n2 > 0


def test_speceq_frozen_sets():
    ws = speceq_search(200, 12, 6, 120)
    part_a, part_b, part_b_full = _witness_sets(ws)
    assert sorted({w.m for w in ws}) == [1, 2, 4, 6]
    assert part_b[1] == {2, 3, 4, 5, 7, 9, 11, 13, 16, 25, 31, 41, 61, 121}
    assert part_b[2] == {2, 3, 4, 5, 7, 9, 11, 19, 23, 29, 59}
    assert part_b[4] == {2, 3}
    assert part_b[6] == {2}
    assert part_b_full[2] == {2, 3, 4, 5, 7, 9, 11}
    assert part_a[1] == {2, 3, 5, 9, 17}
    assert part_a[2] == {3, 7, 31, 127}
    assert part_a[6] == {2}
    assert 4 not in part_a


def test_speceq_rank_six_power_pattern():
    ws = speceq_search(200, 12, 6, 120)
    found = 0
    for w in ws:
        if w.m == 6 and w.power_pair:
            found += 1
            assert w.q == 2
            a = w.exponents
            assert a[2] == a[3] == a[4] == 0
            assert a[5] == -a[1] != 0
    assert found > 0


def test_speceq_validation():
    with pytest.raises(ValueError):
        speceq_search(0, 2, 2)
    with pytest.raises(ValueError):
        speceq_search(5, 0, 2)
    with pytest.raises(ValueError):
        speceq_search(5, 2, 0)


# ---------------------------------------------------------------------------
# maximal tori orders


def test_tori_entry_rank_two():
    e = tori_entry("A", 2)
    assert str(e.t1) == "x^2 + x + 1" and e.m1 == 3
    assert str(e.t2) == "x^2 + -1" and e.m2 == 2
    b = tori_entry("B/C", 2)
    assert str(b.t1) == "x^2 + 1" and b.m1 == 4
    assert str(b.t2) == "x^2 + 2*x + 1" and b.m2 == 2


def test_tori_entry_rank_four():
    rows = {s: tori_entry(s, 4) for s in ("A", "2A", "B/C", "D", "2D")}
    assert (str(rows["A"].t1), rows["A"].m1) == ("x^4 + x^3 + x^2 + x + 1", 5)
    assert (str(rows["2A"].t1), rows["2A"].m1) == ("x^4 + -1*x^3 + x^2 + -1*x + 1", 10)
    assert (str(rows["B/C"].t1), rows["B/C"].m1) == ("x^4 + 1", 8)
    assert (str(rows["D"].t2), rows["D"].m2) == ("x^4 + x^3 + x + 1", 6)
    assert (str(rows["2D"].t2), rows["2D"].m2) == ("x^4 + -1*x^3 + x + -1", 6)


def test_tori_orders_divide_group_order_shape():
    # each torus order divides prod (x^d_i - 1) for the degrees of the series;
    # spot check the A series against x^(n+1)-1 times lower terms at q = 2, 3
    for n in (1, 2, 3, 4, 5):
        e = tori_entry("A", n)
        for q in (2, 3):
            order = 1
            for d in range(1, n + 2):
                order *= q**d - 1
            assert order % e.t1(q) == 0
            assert order % e.t2(q) == 0


def test_tori_rank_validation():
    with pytest.raises(ValueError):
        tori_entry("D", 3)
    with pytest.raises(ValueError):
        tori_entry("E6", 4)
    with pytest.raises(ValueError):
        tori_entry("E7", 6)
    with pytest.raises(ValueError):
        tori_entry("A", 0)
    with pytest.raises(ValueError):
        tori_entry("F4", 4)


def test_tori_all_entries_inventory():
    ents = tori_all_entries(8)
    assert len(ents) == 35
    by_series = {}
    for e in ents:
        by_series.setdefault(e.series, []).append(e.n)
    assert by_series["A"] == list(range(1, 9))
    assert by_series["2A"] == list(range(2, 9))
    assert by_series["B/C"] == list(range(2, 9))
    assert by_series["D"] == list(range(4, 9))
    assert by_series["2D"] == list(range(4, 9))
    assert by_series["E6"] == [6]
    assert by_series["2E6"] == [6]
    assert by_series["E7"] == [7]


def test_tori_check_report():
    r = tori_check(tori_entry("B/C", 2), 3)
    assert r.t1_value == 10 and r.t2_value == 16
    assert r.z1.prime == 5 and r.divides1 is True
    assert r.z2.prime is None and r.divides2 is None
    assert r.missing == (2,)
    assert r.failures == ()


def test_tori_scan_missing_matches_absence_rule():
    def absent(q, m):
        return (m == 1 and q == 2) or (m == 2 and (q + 1) & q == 0) or (m, q) == (6, 2)

    for q in range(2, 10):
        for e in tori_all_entries(12):
            r = tori_check(e, q)
            assert r.failures == ()
            expected = tuple(
                slot
                for slot, m in ((1, e.m1), (2, e.m2))
                if absent(q, m)
            )
            assert r.missing == expected
