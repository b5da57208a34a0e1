import json
import subprocess
import sys
from fractions import Fraction

import pytest

import symblocks.partitions as partitions
import symblocks.unipotent as unipotent
from symblocks import algebra, cli
from oracles import (
    dhc_series_by_decomposition,
    hll_check_gl_by_stripping,
    speceq_identity_holds,
    speceq_search_unpinned,
    strip_primes_by_list,
    tori_all_entries,
    tori_entry_by_binomials,
)
from symblocks.algebra import (
    CycElt,
    ExactnessError,
    is_prime_power,
    phi_value,
    trial_factor,
)
from symblocks.partitions import (
    core_and_quotient,
    degree,
    enumerate_partitions,
    gl_degree_poly,
)
from symblocks.unipotent import (
    TORI_SERIES,
    SpeceqWitness,
    degree_collisions,
    dhc_series_gl,
    hll_check_gl,
    speceq_search,
    tori_check,
    tori_entry,
    unipotent_degrees_gl,
)
from symblocks.blocks import blocks_sn


# ---------------------------------------------------------------------------
# degree polynomials


def test_degree_entries_small():
    got = [(e.partition, e.poly.coeffs) for e in unipotent_degrees_gl(3)]
    assert got == [((3,), (1,)), ((2, 1), (0, 1, 1)), ((1, 1, 1), (0, 0, 0, 1))]


def test_degree_entries_structure():
    for n in range(1, 13):
        entries = unipotent_degrees_gl(n)
        assert [e.partition for e in entries] == list(enumerate_partitions(n))
        assert all(sum(e.partition) == n for e in entries)
        for e in entries:
            assert all(type(c) is int for c in e.poly.coeffs)
            assert e.poly(1) == degree(e.partition)


# ---------------------------------------------------------------------------
# series by d-core


def _partitions_by_core(series):
    """(core, member partitions) of each (core, w, members) series."""
    return [(core, [pi for pi, _ in members]) for core, _, members in series]


def test_dhc_series_small():
    assert dhc_series_gl(3, 2) == [
        ((1,), 1, [((3,), ((1,), ())), ((1, 1, 1), ((), (1,)))]),
        ((2, 1), 0, [((2, 1), ((), ()))]),
    ]


def test_dhc_series_singletons_when_d_large():
    out = dhc_series_gl(3, 5)
    assert _partitions_by_core(out) == [
        ((1, 1, 1), [(1, 1, 1)]),
        ((2, 1), [(2, 1)]),
        ((3,), [(3,)]),
    ]
    assert [w for _, w, _ in out] == [0, 0, 0]


def test_dhc_series_modulus_one():
    out = _partitions_by_core(dhc_series_gl(4, 1))
    assert len(out) == 1
    core, members = out[0]
    assert core == ()
    assert sorted(members) == sorted(enumerate_partitions(4))


def test_dhc_series_match_prime_blocks():
    for n in range(1, 13):
        for p in (2, 3, 5):
            series = dict(_partitions_by_core(dhc_series_gl(n, p)))
            block_map = {
                b.label.core: sorted(m.partition for m in b.members)
                for b in blocks_sn(n, p)
            }
            assert {c: sorted(ms) for c, ms in series.items()} == block_map


def test_dhc_series_partition_property():
    for n in range(1, 11):
        for d in (2, 3, 4, 6):
            all_parts = []
            for core, members in _partitions_by_core(dhc_series_gl(n, d)):
                for pi in members:
                    c, _, _ = core_and_quotient(pi, d)
                    assert c == core
                    all_parts.append(pi)
            assert sorted(all_parts) == sorted(enumerate_partitions(n))


def test_series_match_the_decomposition_oracle():
    """Built from their cores, the series keep the cores, the member order
    and the quotients of grouping every partition by its core, and each is
    given the weight of its core; d runs from 1 past n, through composite d."""
    for n in range(1, 21):
        for d in range(1, n + 3):
            got = dhc_series_gl(n, d)
            series = [(c, ms) for c, _, ms in got]
            assert series == dhc_series_by_decomposition(n, d), (n, d)
            assert [w for _, w, _ in got] == [(n - sum(c)) // d for c, _ in series]


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


def test_hll_constants_are_fractions():
    rep = hll_check_gl(9, 4)
    members = [m for s in rep.series for m in s.members]
    assert members and all(m.constant is not None for m in members)
    assert all(type(m.constant) is Fraction for m in members)


def test_hll_modulus_one_always_passes():
    for n in range(1, 9):
        rep = hll_check_gl(n, 1)
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
    missed = [
        (s.core, m.partition) for s in rep.series for m in s.members if not m.ok
    ]
    assert missed == [
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


@pytest.mark.parametrize(
    "n, d",
    [(n, d) for n in range(1, 13) for d in range(1, n + 1)]
    + [(16, 4), (18, 2), (14, 5), (13, 7)],
)
def test_hll_matches_stripping_oracle(n, d):
    assert hll_check_gl(n, d) == hll_check_gl_by_stripping(n, d)


def test_hll_builds_no_degree_polynomial(monkeypatch):
    expected = {nd: hll_check_gl_by_stripping(*nd) for nd in ((12, 4), (11, 6))}

    def refuse(pi):
        raise AssertionError(f"gl_degree_poly({pi}) on the check path")

    monkeypatch.setattr(unipotent, "gl_degree_poly", refuse)
    for (n, d), report in expected.items():
        assert hll_check_gl(n, d) == report


def test_hll_closes_each_member_by_one_root_monomial(monkeypatch):
    expected = hll_check_gl_by_stripping(12, 4)
    real = unipotent.root_monomial
    calls = []
    depth = [0]

    def counting(*args):
        calls.append(args)
        depth[0] += 1
        try:
            return real(*args)
        finally:
            depth[0] -= 1

    def only_inside(name, fn):
        def guarded(*args):
            assert depth[0], f"CycElt.{name} outside root_monomial"
            return fn(*args)

        return guarded

    monkeypatch.setattr(unipotent, "root_monomial", counting)
    monkeypatch.setattr(
        CycElt, "from_poly", staticmethod(only_inside("from_poly", CycElt.from_poly))
    )
    monkeypatch.setattr(CycElt, "inverse", only_inside("inverse", CycElt.inverse))
    assert hll_check_gl(12, 4) == expected
    assert len(calls) == sum(len(s.members) for s in expected.series) == 77
    # as many factors zeta^j - 1 below the line as above: the signs cancel
    for order, num, den, exponent, powers in calls:
        assert num > 0 and sum(powers[1:]) == 0


def test_hll_unbalanced_vanishing_factors_raise(monkeypatch):
    real = unipotent.hook_lengths
    # a 2-core with a hook that 2 divides
    monkeypatch.setattr(unipotent, "hook_lengths", lambda pi: real(pi) + (2,))
    with pytest.raises(ExactnessError, match="core"):
        hll_check_gl(4, 2)
    # a member that lost a hook that 2 divides
    monkeypatch.setattr(
        unipotent, "hook_lengths", lambda pi: real(pi)[sum(pi) > 1 :]
    )
    with pytest.raises(ExactnessError, match="hooks that 2 divides"):
        hll_check_gl(4, 2)


def test_hll_builds_each_series_with_one_combine_call(monkeypatch):
    """hll_check_gl decomposes no partition: each series of its report is
    built from its core by one combine call."""
    decomposed = []
    combined = []
    real_decompose = partitions.core_and_quotient
    real_combine = unipotent.combine

    def decomposing(pi, d):
        decomposed.append((pi, d))
        return real_decompose(pi, d)

    def combining(core, w, d):
        members = real_combine(core, w, d)
        combined.append((core, w, len(members), d))
        return members

    monkeypatch.setattr(partitions, "core_and_quotient", decomposing)
    monkeypatch.setattr(unipotent, "combine", combining)
    rep = hll_check_gl(12, 4)
    assert not hasattr(unipotent, "core_and_quotient")
    assert decomposed == []
    assert combined == [(s.core, s.weight, len(s.members), 4) for s in rep.series]


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


def _witness_sets(witnesses):
    part_a, part_b, part_b_full = {}, {}, {}
    for w in witnesses:
        if w.part_b:
            part_b.setdefault(w.m, set()).add(w.q)
            if w.full_support:
                part_b_full.setdefault(w.m, set()).add(w.q)
        if w.part_a:
            part_a.setdefault(w.m, set()).add(w.q)
    return part_a, part_b, part_b_full


def test_speceq_trivial_witness():
    ws = speceq_search(5, 2, 2)
    w = ws[0]
    assert tuple(w) == (2, 1, (1,), 1, 1, True, True, True)
    assert speceq_identity_holds(w, 120)


def test_speceq_witnesses_verify():
    ws = speceq_search(60, 8, 4, 120)
    assert ws
    for w in ws:
        assert speceq_identity_holds(w, 120)
        assert w.exponents[w.m - 1] != 0
        assert w.n1 > 0 and w.n2 > 0


def test_speceq_report_records_are_the_witness_fields():
    # the CLI writes each witness as its own record: JSON keys and the CSV
    # header are the field names, in field order
    argv = ["speceq", "--q-max", "9", "--m-max", "4", "--exp-bound", "2"]
    witnesses = speceq_search(9, 4, 2)
    r = subprocess.run(
        [sys.executable, "-m", "symblocks", *argv, "--format", "json"],
        capture_output=True, text=True, timeout=30,
    )
    assert r.returncode == 0, r.stderr
    records = json.loads(r.stdout)["records"]
    assert [list(rec) for rec in records] == [list(SpeceqWitness._fields)] * len(
        witnesses
    )
    assert records == [
        {**w._asdict(), "exponents": list(w.exponents)} for w in witnesses
    ]
    r = subprocess.run(
        [sys.executable, "-m", "symblocks", *argv, "--format", "csv"],
        capture_output=True, text=True, timeout=30,
    )
    assert r.returncode == 0, r.stderr
    assert r.stdout.splitlines()[0].split(",") == list(SpeceqWitness._fields)


def test_strip_primes_matches_the_prime_list():
    values = [
        phi_value(i, q)
        for q in range(2, 10)
        if is_prime_power(q)
        for i in range(1, 13)
    ]
    for n_bound in range(1, 2001):
        primes = tuple(sorted({2, *trial_factor(n_bound)}))
        for v in values:
            assert unipotent._strip_primes(v, 2 * n_bound) == strip_primes_by_list(
                v, primes
            ), (v, n_bound)


# m_max = 6 at n_bound = 1 is the first case where pinning a factor whose
# value keeps a prime, without asking whether another factor cancels it,
# loses witnesses: Phi_2(2) = Phi_6(2) = 3
@pytest.mark.parametrize(
    "m_max,exp_bound", [(m, b) for m in range(1, 6) for b in (1, 2)] + [(6, 1)]
)
def test_speceq_pinning_loses_no_witness(m_max, exp_bound):
    for n_bound in (1, 12, 120, 2310):
        unpinned = speceq_search_unpinned(16, m_max, exp_bound, n_bound)
        for q_max in (2, 9, 16):
            assert speceq_search(q_max, m_max, exp_bound, n_bound) == tuple(
                w for w in unpinned if w.q <= q_max
            ), (q_max, n_bound)


def test_speceq_does_not_factor_a_large_n_bound():
    # 2**61 - 1 is prime: trial division would run to its square root, 1.5e9
    argv = ["speceq", "--q-max", "2", "--m-max", "1", "--exp-bound", "1",
            "--n-bound", str(2**61 - 1)]
    r = subprocess.run(
        [sys.executable, "-m", "symblocks", *argv], capture_output=True, text=True,
        timeout=10,
    )
    assert r.returncode == 0, r.stderr


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
        if w.m == 6 and w.part_a:
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
    assert e.t1.coeffs == (1, 1, 1) and e.m1 == 3
    assert e.t2.coeffs == (-1, 0, 1) and e.m2 == 2
    b = tori_entry("B/C", 2)
    assert b.t1.coeffs == (1, 0, 1) and b.m1 == 4
    assert b.t2.coeffs == (1, 2, 1) and b.m2 == 2


def test_tori_entry_rank_four():
    rows = {s: tori_entry(s, 4) for s in ("A", "2A", "B/C", "D", "2D")}
    assert (rows["A"].t1.coeffs, rows["A"].m1) == ((1, 1, 1, 1, 1), 5)
    assert (rows["2A"].t1.coeffs, rows["2A"].m1) == ((1, -1, 1, -1, 1), 10)
    assert (rows["B/C"].t1.coeffs, rows["B/C"].m1) == ((1, 0, 0, 0, 1), 8)
    assert (rows["D"].t2.coeffs, rows["D"].m2) == ((1, 1, 0, 1, 1), 6)
    assert (rows["2D"].t2.coeffs, rows["2D"].m2) == ((-1, 1, 0, -1, 1), 6)


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


def _entry_or_error(build, series, n):
    try:
        return build(series, n)
    except ValueError as exc:
        return str(exc)


def test_tori_entry_matches_binomial_oracle():
    # the oracle builds each order from x^k - 1 and x^k + 1 and enters m1 and
    # m2 by hand, so this checks the worked-out Zsigmondy indices too
    rows, errors = 0, set()
    for series in (*TORI_SERIES, "F4"):
        for n in range(41):
            got = _entry_or_error(tori_entry, series, n)
            assert got == _entry_or_error(tori_entry_by_binomials, series, n), (series, n)
            if isinstance(got, str):
                errors.add(got)
            else:
                rows += 1
    assert rows == 195
    assert {
        "series A needs n >= 1",
        "series 2A needs n >= 2",
        "series B/C needs n >= 2",
        "series D needs n >= 4",
        "series 2D needs n >= 4",
        "series E6 has rank 6",
        "series 2E6 has rank 6",
        "series E7 has rank 7",
        "unknown series 'F4'",
    } == errors


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


def test_tori_series_are_one_tuple_for_the_table_and_the_cli():
    # algebra holds it, so that the CLI offers the series without unipotent
    assert TORI_SERIES is algebra.TORI_SERIES
    assert tuple(dict.fromkeys(e.series for e in tori_all_entries(8))) == TORI_SERIES
    command = next(a for a in cli._build_parser()._actions if a.dest == "command")
    series = next(a for a in command.choices["tori"]._actions if a.dest == "series")
    assert series.choices is TORI_SERIES


def test_tori_check_report():
    r = tori_check(tori_entry("B/C", 2), 3)
    assert r == (10, 16, 5, None, True, None)
    assert r.missing == (2,)
    assert r.failures == ()


def test_tori_check_report_names_missing_and_failing_slots():
    # no table row fails, so the failing branch is read off built reports
    r = unipotent.ToriCheckReport(10, 16, 5, None, False, None)
    assert (r.missing, r.failures) == ((2,), (1,))
    r = r._replace(l2=7, divides2=False)
    assert (r.missing, r.failures) == ((), (1, 2))
    r = r._replace(l1=None, divides1=None, divides2=True)
    assert (r.missing, r.failures) == ((1,), ())


def test_tori_record_joins_the_entry_and_its_check():
    # the report echoes no input: series, n, q, m1 and m2 come from the
    # entry and the arguments, the values and primes from the report
    entry = tori_entry("B/C", 2)
    rep = tori_check(entry, 3)
    r = subprocess.run(
        [sys.executable, "-m", "symblocks", "tori", "--series", "B/C", "--n", "2",
         "--q", "3", "--format", "json"],
        capture_output=True, text=True, timeout=30,
    )
    assert r.returncode == 0, r.stderr
    (record,) = json.loads(r.stdout)["records"]
    assert {k: record[k] for k in ("series", "n", "q", "m1", "m2")} == {
        "series": "B/C", "n": 2, "q": 3, "m1": entry.m1, "m2": entry.m2,
    }
    assert (
        int(record["t1_value"]), int(record["t2_value"]), record["l1"],
        record["l2"], record["l1_divides"], record["l2_divides"],
    ) == tuple(rep)
    assert record["missing"] == list(rep.missing) == [2]


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
