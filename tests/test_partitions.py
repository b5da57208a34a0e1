import doctest
from functools import lru_cache
from math import factorial, prod

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import symblocks.partitions as partitions
from symblocks.partitions import (
    b_statistic,
    beta_set,
    combine,
    conjugate,
    core_and_quotient,
    degree,
    enumerate_partitions,
    format_partition,
    gl_degree_poly,
    hook_lengths,
    is_p_core,
    is_self_dual,
    p_cores,
    parse_partition,
    partition_from_beta,
    runner_bead_counts,
)


def test_doctests():
    result = doctest.testmod(partitions)
    assert result.failed == 0


# ---------------------------------------------------------------------------
# independent oracles


@lru_cache(maxsize=None)
def _count_oracle(n: int) -> int:
    # Euler's pentagonal number recurrence
    if n < 0:
        return 0
    if n == 0:
        return 1
    total = 0
    k = 1
    while True:
        g1 = k * (3 * k - 1) // 2
        g2 = k * (3 * k + 1) // 2
        if g1 > n and g2 > n:
            break
        sign = -1 if k % 2 == 0 else 1
        total += sign * (_count_oracle(n - g1) + _count_oracle(n - g2))
        k += 1
    return total


@lru_cache(maxsize=None)
def _syt_oracle(pi) -> int:
    # count standard tableaux by removing one corner cell at a time
    if not pi:
        return 1
    total = 0
    for i, part in enumerate(pi):
        if i + 1 < len(pi) and pi[i + 1] == part:
            continue
        smaller = list(pi)
        smaller[i] -= 1
        total += _syt_oracle(tuple(x for x in smaller if x > 0))
    return total


def _first_column_hooks(pi):
    length = len(pi)
    return {pi[i] + length - 1 - i for i in range(length)}


def _from_first_column_hooks(hooks):
    ordered = sorted(hooks, reverse=True)
    pi = tuple(h - (len(ordered) - 1 - i) for i, h in enumerate(ordered))
    return tuple(x for x in pi if x > 0)


def _remove_one_rim_hook(pi, p):
    """First partition obtainable by removing a rim hook of length p, else None."""
    hooks = _first_column_hooks(pi)
    for h in sorted(hooks):
        if h >= p and h - p not in hooks:
            return _from_first_column_hooks((hooks - {h}) | {h - p})
    return None


def _core_oracle(pi, p):
    while True:
        nxt = _remove_one_rim_hook(pi, p)
        if nxt is None:
            return pi
        pi = nxt


# ---------------------------------------------------------------------------
# enumeration


def test_partition_counts_match_recurrence():
    for n in range(1, 31):
        assert sum(1 for _ in enumerate_partitions(n)) == _count_oracle(n)


def test_partition_count_at_30():
    assert _count_oracle(30) == 5604


def test_enumeration_is_reverse_lexicographic():
    for n in range(1, 13):
        seq = list(enumerate_partitions(n))
        assert seq[0] == (n,)
        assert seq[-1] == (1,) * n
        assert all(seq[i] > seq[i + 1] for i in range(len(seq) - 1))
        assert all(sum(pi) == n for pi in seq)


def test_enumeration_with_cap():
    assert list(enumerate_partitions(4, max_part=2)) == [(2, 2), (2, 1, 1), (1, 1, 1, 1)]


# ---------------------------------------------------------------------------
# parsing and formatting


def test_parse_format_round_trip():
    for n in range(0, 9):
        for pi in ([()] if n == 0 else enumerate_partitions(n)):
            assert parse_partition(format_partition(pi)) == pi
    assert format_partition(()) == "[]"
    assert parse_partition("[3,1]") == (3, 1)


@pytest.mark.parametrize("bad", ["", "3,1", "[1,3]", "[0]", "[a]", "[3,1", "[-2]"])
def test_parse_rejects_malformed(bad):
    with pytest.raises(ValueError):
        parse_partition(bad)


# ---------------------------------------------------------------------------
# conjugation


def test_conjugate_involution_and_duals():
    for n in range(1, 15):
        count = 0
        for pi in enumerate_partitions(n):
            cj = conjugate(pi)
            assert conjugate(cj) == pi
            assert sum(cj) == n
            if is_self_dual(pi):
                count += 1
        # self-conjugate partitions match partitions into distinct odd parts
        distinct_odd = sum(
            1
            for pi in enumerate_partitions(n)
            if len(set(pi)) == len(pi) and all(x % 2 for x in pi)
        )
        assert count == distinct_odd


# ---------------------------------------------------------------------------
# hooks and degrees


def _hooks_oracle(pi):
    out = []
    cols = conjugate(pi)
    for i, part in enumerate(pi):
        for j in range(part):
            arm = part - (j + 1)
            leg = cols[j] - (i + 1)
            out.append(arm + leg + 1)
    return sorted(out)


def test_hook_lengths_cell_oracle():
    for n in range(1, 21):
        for pi in enumerate_partitions(n):
            assert sorted(hook_lengths(pi)) == _hooks_oracle(pi)


def test_degree_hook_formula_consistency():
    # the row-by-row beta-set product against the cell-by-cell hooks
    for n in range(1, 21):
        for pi in enumerate_partitions(n):
            assert degree(pi) * prod(_hooks_oracle(pi)) == factorial(n)


def test_degree_matches_tableau_count():
    for n in range(1, 11):
        for pi in enumerate_partitions(n):
            assert degree(pi) == _syt_oracle(pi)


def test_degree_squares_sum_to_group_order():
    for n in range(1, 13):
        assert sum(degree(pi) ** 2 for pi in enumerate_partitions(n)) == factorial(n)


def test_degree_conjugation_invariant():
    for pi in enumerate_partitions(9):
        assert degree(pi) == degree(conjugate(pi))


# ---------------------------------------------------------------------------
# beta sets and the abacus


def test_beta_round_trip():
    for n in range(0, 10):
        for pi in ([()] if n == 0 else enumerate_partitions(n)):
            for beads in (len(pi), len(pi) + 3, len(pi) + 7):
                assert partition_from_beta(beta_set(pi, beads)) == pi


def test_beta_set_is_strict():
    b = beta_set((4, 2, 1), 5)
    assert list(b) == sorted(set(b))


def test_core_against_rim_hook_oracle():
    for n in range(1, 13):
        for p in (2, 3, 5, 7):
            for pi in enumerate_partitions(n):
                core, quotient, weight = core_and_quotient(pi, p)
                assert core == _core_oracle(pi, p)
                assert sum(core) + p * weight == n
                assert is_p_core(core, p)
                assert sum(sum(c) for c in quotient) == weight


def test_p_cores_match_the_filter():
    # every prime up to 31, so p > m (every partition a core) is covered
    primes = [p for p in range(2, 32) if sympy.isprime(p)]
    for m in range(0, 31):
        pis = list(enumerate_partitions(m))
        for p in primes:
            assert p_cores(m, p) == sorted(pi for pi in pis if is_p_core(pi, p)), (m, p)


def test_combine_rejects_a_non_core_after_cached_cores():
    # (2,) has its bead layout cached as a 3-core, (1,) as a 2-core
    assert combine((2,), ((), (), ()), 3) == (2,)
    assert combine((1,), ((1,), ()), 2) == (3,)
    with pytest.raises(ValueError):
        combine((2,), ((), ()), 2)


def test_runner_bead_counts_of_a_core():
    # (2,) on three runners: beads 0, 1 and 4, flush on every runner
    assert runner_bead_counts((2,), 3) == (1, 2, 0)


def test_combine_round_trip_exhaustive():
    for n in range(1, 19):
        for p in (2, 3, 5):
            for pi in enumerate_partitions(n):
                core, quotient, _ = core_and_quotient(pi, p)
                assert combine(core, quotient, p) == pi


@st.composite
def _partitions_strategy(draw):
    n = draw(st.integers(min_value=1, max_value=40))
    parts = []
    remaining = n
    cap = n
    while remaining > 0:
        nxt = draw(st.integers(min_value=1, max_value=min(cap, remaining)))
        parts.append(nxt)
        cap = nxt
        remaining -= nxt
    return tuple(parts)


@settings(max_examples=200, deadline=None)
@given(pi=_partitions_strategy(), p=st.sampled_from((2, 3, 5, 7, 11)))
def test_combine_round_trip_property(pi, p):
    core, quotient, weight = core_and_quotient(pi, p)
    assert combine(core, quotient, p) == pi
    assert sum(core) + p * weight == sum(pi)


def test_runner_bead_counts_sum():
    for pi in enumerate_partitions(8):
        for p in (2, 3, 5):
            counts = runner_bead_counts(pi, p)
            assert len(counts) == p
            assert sum(counts) == -(-len(pi) // p) * p


# ---------------------------------------------------------------------------
# degree polynomials


def test_b_statistic():
    assert b_statistic((3, 1)) == 1
    assert b_statistic((1, 1, 1)) == 3
    assert b_statistic((4,)) == 0


def test_gl_degree_poly_known_values():
    assert str(gl_degree_poly((2,))) == "1"
    assert str(gl_degree_poly((1, 1))) == "x"
    p21 = gl_degree_poly((2, 1))
    assert p21(1) == 2 and p21(2) == 6


def test_gl_degree_poly_specializes():
    for n in range(1, 13):
        for pi in enumerate_partitions(n):
            poly = gl_degree_poly(pi)
            assert all(type(c) is int for c in poly.coeffs)
            assert poly(1) == degree(pi)


def test_gl_degree_poly_matches_sympy_division():
    # the defining quotient x^b * prod_{k<=n}(x^k - 1) / prod_h(x^h - 1),
    # divided out by sympy, against the division-free cyclotomic product
    x = sympy.Symbol("x")
    for n in range(1, 11):
        numerator = sympy.prod(x**k - 1 for k in range(1, n + 1))
        for pi in enumerate_partitions(n):
            denominator = sympy.prod(x**h - 1 for h in hook_lengths(pi))
            quotient, remainder = sympy.div(
                sympy.expand(x ** b_statistic(pi) * numerator),
                sympy.expand(denominator),
                x,
            )
            assert remainder == 0
            coeffs = sympy.Poly(quotient, x).all_coeffs()[::-1]
            assert list(gl_degree_poly(pi).coeffs) == [int(c) for c in coeffs], pi


def test_gl_degree_poly_lowest_term():
    for pi in enumerate_partitions(7):
        poly = gl_degree_poly(pi)
        low = min(i for i, c in enumerate(poly.coeffs) if c != 0)
        assert low == b_statistic(pi)
