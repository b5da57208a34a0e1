"""End-to-end acceptance checks, one test per numbered criterion.

Each test recomputes its claim from scratch through the public API.  The
terminal summary hook in conftest.py prints one PASS/FAIL line per criterion
at the end of a run.  Two of the claims do not hold as stated; those tests
fail with the witnessing data in the assertion message rather than being
weakened (see the failure messages for the counts and first witnesses).
"""

import time
from math import factorial

from oracles import tori_all_entries
from symblocks.blocks import (
    blocks_an,
    blocks_sn,
    classify_sym,
    is_ehzd,
    quotient_congruence,
    relative_hook_degree,
)
from symblocks.partitions import (
    degree,
    enumerate_partitions,
    gl_degree_poly,
    is_self_dual,
)
from symblocks.unipotent import (
    dhc_series_gl,
    hll_check_gl,
    speceq_search,
    tori_check,
)
from symblocks.wreath import (
    enumerate_multipartitions,
    schur_specialize_roots,
    symbol_of,
    wreath_degree,
)

PRIMES = (2, 3, 5, 7)


def test_criterion_01_relative_hook_degrees():
    start = time.monotonic()
    checks = 0
    for n in range(1, 31):
        for pi in enumerate_partitions(n):
            d = degree(pi)
            for p in PRIMES:
                assert relative_hook_degree(pi, p) == d, (pi, p)
                checks += 1
    elapsed = time.monotonic() - start
    assert checks == 114512
    print(f"criterion 1: {checks} checks in {elapsed:.1f}s")
    assert elapsed < 60.0


def test_criterion_02_degree_ratio_congruence():
    plus = minus = checks = 0
    exceptions = []
    for n in range(1, 31):
        for pi in enumerate_partitions(n):
            for p in PRIMES:
                rep = quotient_congruence(pi, p)
                checks += 1
                plus += rep.holds_plus
                minus += rep.holds_minus
                if not rep.holds:
                    exceptions.append((pi, p, rep.ratio, rep.lhs, rep.rhs))
    print(f"criterion 2: {checks} checks, sign tally +{plus}/-{minus}, "
          f"{len(exceptions)} exceptions")
    assert checks == 114512
    assert not exceptions, (
        f"{len(exceptions)} of {checks} checks miss the congruence with both "
        f"signs (tally +{plus}/-{minus}); first witnesses: {exceptions[:4]}"
    )


def test_criterion_03_specialized_schur_degrees():
    checked = 0
    for e in range(1, 5):
        for r in range(0, 5):
            for nu in enumerate_multipartitions(e, r):
                f = schur_specialize_roots(symbol_of(nu))
                assert abs(f) * e**r * factorial(r) == wreath_degree(nu), nu
                checked += 1
    assert checked == 300
    for e in range(1, 6):
        for r in range(0, 6):
            total = sum(
                wreath_degree(nu) ** 2 for nu in enumerate_multipartitions(e, r)
            )
            assert total == e**r * factorial(r), (e, r)
    print(f"criterion 3: {checked} specializations plus square sums")


def test_criterion_04_degree_polynomials_specialize():
    checks = 0
    for n in range(1, 16):
        for pi in enumerate_partitions(n):
            assert gl_degree_poly(pi)(1) == degree(pi), pi
            checks += 1
    print(f"criterion 4: {checks} polynomials")


def test_criterion_05_symmetric_classification():
    classified = 0
    for n in range(1, 26):
        for p in PRIMES:
            for b in blocks_sn(n, p):
                if b.label.weight == 0:
                    continue
                c = classify_sym(b)  # raises on a classification failure
                classified += 1
                if c.case == "d":
                    x, y = c.witness
                    assert x.height == 0 and y.height == 0
                    assert x.degree < y.degree
                    assert (
                        not is_self_dual(x.partition)
                        and not is_self_dual(y.partition)
                    ) or y.degree != 2 * x.degree
                if is_ehzd(b):
                    assert c.case in ("b", "c"), (b.label, c.case)
    print(f"criterion 5: {classified} positive-weight blocks classified")


def test_criterion_06_alternating_equal_degree_blocks():
    instance_found = False
    total = 0
    for n in range(2, 21):
        for p in (3, 5, 7):
            for b in blocks_an(n, p):
                total += 1
                degs = {m.degree for m in b.height_zero}
                ehzd = len(degs) == 1
                shape_b = (
                    p == 3
                    and b.label.weight == 1
                    and is_self_dual(b.label.core)
                    and b.defect == 1
                    and len({m.degree for m in b.members}) == 1
                )
                assert (b.defect > 0 and ehzd) == shape_b, (b.label, b.defect)
                if (n, p, b.label.core) == (8, 3, (3, 1, 1)):
                    instance_found = True
                    assert sorted(m.degree for m in b.members) == [21, 21, 21]
                    assert b.defect == 1 and ehzd
    assert instance_found
    print(f"criterion 6: {total} alternating blocks scanned")


def test_criterion_07_cyclotomic_value_products():
    start = time.monotonic()
    witnesses = speceq_search(200, 12, 6, 120)
    elapsed = time.monotonic() - start

    divisor_m2 = {
        w.q
        for w in witnesses
        if w.m == 2 and w.divides_bound(120) and w.full_support
    }
    assert divisor_m2 == {2, 3, 4, 5, 7, 9, 11}

    power_m6 = [w for w in witnesses if w.m == 6 and w.power_pair]
    assert power_m6
    for w in power_m6:
        assert w.q == 2
        a = w.exponents
        assert a[2] == a[3] == a[4] == 0
        assert a[5] == -a[1] != 0
    print(f"criterion 7: {len(witnesses)} witnesses in {elapsed:.2f}s")
    assert elapsed < 60.0


def test_criterion_08_series_constants_match_wreath_degrees():
    checks = 0
    failures = []
    for n in range(1, 11):
        for d in range(1, min(n, 4) + 1):
            rep = hll_check_gl(n, d)
            for s in rep.series:
                for m in s.members:
                    checks += 1
                    if not m.ok:
                        failures.append(
                            (n, d, s.core, m.partition, m.constant_str,
                             m.expected, m.reason)
                        )
    print(f"criterion 8: {checks} members checked, {len(failures)} failures")
    assert not failures, (
        f"{len(failures)} of {checks} member constants do not match "
        f"(every one is an integer whose absolute value differs from the "
        f"predicted degree); first witnesses: {failures[:4]}"
    )


def test_criterion_09_series_agree_with_blocks():
    for n in range(1, 21):
        for p in (2, 3, 5):
            series = {
                core: sorted(members) for core, members in dhc_series_gl(n, p)
            }
            from_blocks = {
                b.label.core: sorted(m.partition for m in b.members)
                for b in blocks_sn(n, p)
            }
            assert series == from_blocks, (n, p)
    print("criterion 9: series partitions agree for n <= 20, p in (2, 3, 5)")


def test_criterion_10_tori_divisibility():
    def absent(q, m):
        return (
            (m == 1 and q == 2)
            or (m == 2 and (q + 1) & q == 0)
            or (m, q) == (6, 2)
        )

    rows = 0
    for q in range(2, 10):
        for entry in tori_all_entries(12):
            rep = tori_check(entry, q)
            rows += 1
            assert rep.failures == (), (entry.series, entry.n, q)
            expected = tuple(
                slot
                for slot, m in ((1, entry.m1), (2, entry.m2))
                if absent(q, m)
            )
            assert rep.missing == expected, (entry.series, entry.n, q)
    print(f"criterion 10: {rows} torus rows checked over q = 2..9")
