from functools import lru_cache
from math import factorial, prod

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    abacus_by_rows,
    combine_by_components,
    conjugate_by_counting,
    core_and_quotient_by_sorting,
    enumerate_multipartitions_by_recursion,
    enumerate_partitions_by_recursion,
    gl_degree_poly_by_cyclotomic_exponents,
    hook_lengths_by_cells,
    partition_from_beta,
    relative_hook_degree_by_symbol_hooks,
)
from symblocks import partitions
from symblocks.algebra import ExactnessError, Poly
from symblocks.blocks import quotient_congruence, relative_hook_degree
from symblocks.partitions import (
    b_statistic,
    beta_set,
    combine,
    conjugate,
    core_and_quotient,
    cores_and_weights,
    degree,
    enumerate_multipartitions,
    enumerate_partitions,
    format_partition,
    gl_degree_poly,
    hook_lengths,
    is_p_core,
    is_self_dual,
    level_degrees,
    p_cores,
    runner_bead_counts,
)
from symblocks.wreath import wreath_degree


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
    """With no part bound, the partitions of n with parts at most k are the
    tail of the enumeration that starts at the first one led by a part <= k,
    in the order of the oracle's bounded enumeration."""
    seq = list(enumerate_partitions(4))
    assert seq[seq.index((2, 2)):] == [(2, 2), (2, 1, 1), (1, 1, 1, 1)]
    for n in range(1, 21):
        seq = list(enumerate_partitions(n))
        for k in range(1, n + 1):
            start = next(i for i, pi in enumerate(seq) if pi[0] <= k)
            assert all(pi[0] > k for pi in seq[:start]), (n, k)
            assert seq[start:] == list(enumerate_partitions_by_recursion(n, k)), (n, k)


def test_enumeration_matches_the_recursion_oracle():
    for n in range(0, 31):
        assert list(enumerate_partitions(n)) == list(
            enumerate_partitions_by_recursion(n)
        ), n


def test_enumeration_rejects_negative_n():
    with pytest.raises(ValueError):
        list(enumerate_partitions(-1))


# ---------------------------------------------------------------------------
# formatting


def test_format_partition():
    assert format_partition(()) == "[]"
    assert format_partition((3, 1)) == "[3,1]"


# ---------------------------------------------------------------------------
# conjugation


def test_conjugate_involution_and_duals():
    for n in range(15):
        count = 0
        for pi in enumerate_partitions(n):
            cj = conjugate(pi)
            assert cj == conjugate_by_counting(pi)
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


def test_hook_lengths_cell_oracle():
    for n in range(1, 21):
        for pi in enumerate_partitions(n):
            assert sorted(hook_lengths(pi)) == hook_lengths_by_cells(pi)


def test_degree_hook_formula_consistency():
    # the row-by-row beta-set product against the cell-by-cell hooks
    for n in range(1, 21):
        for pi in enumerate_partitions(n):
            assert degree(pi) * prod(hook_lengths_by_cells(pi)) == factorial(n)


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


@pytest.mark.parametrize("steps", [0, 1, 2])
def test_level_table_matches_the_hook_walk(steps, monkeypatch):
    """The table at n reached cold (from the hook walk), and built one and
    two levels up from the level n - steps."""
    for n in range(steps, 31):
        monkeypatch.setattr(partitions, "_held", (-1, {}))
        level_degrees(n - steps)
        assert level_degrees(n) == {pi: degree(pi) for pi in enumerate_partitions(n)}


def test_level_table_holds_the_last_level(monkeypatch):
    """Only the last table built is held: after 20, 18, 19, 17 it is the
    one at 17, and 18 is then stepped up from it with no hook walk."""
    monkeypatch.setattr(partitions, "_held", (-1, {}))
    for n in (20, 18, 19, 17):
        level_degrees(n)
    assert partitions._held[0] == 17
    calls = []
    real = partitions.degree

    def counting(pi):
        calls.append(pi)
        return real(pi)

    monkeypatch.setattr(partitions, "degree", counting)
    assert level_degrees(18) == {pi: real(pi) for pi in enumerate_partitions(18)}
    assert calls == []
    assert partitions._held[0] == 18
    with pytest.raises(ValueError):
        level_degrees(-1)


# ---------------------------------------------------------------------------
# beta sets and the abacus


def test_beta_round_trip():
    for n in range(0, 10):
        for pi in ([()] if n == 0 else enumerate_partitions(n)):
            for beads in (len(pi), len(pi) + 3, len(pi) + 7):
                assert partition_from_beta(beta_set(pi, beads)) == pi
                assert partitions._partition_from_ascending(beta_set(pi, beads)) == pi


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
    assert combine((2,), 0, 3) == [(2,)]
    assert combine((1,), 1, 2) == [(3,), (1, 1, 1)]
    # the core check runs on every call, a repeated one included, and also
    # at weight 0; a negative weight is refused even for a core
    for _ in range(2):
        with pytest.raises(ValueError, match="divisible by 2"):
            combine((2,), 1, 2)
        with pytest.raises(ValueError, match="divisible by 2"):
            combine((2,), 0, 2)
        with pytest.raises(ValueError, match="w must be"):
            combine((1,), -1, 2)


def test_runner_bead_counts_of_a_core():
    # (2,) on three runners: beads 0, 1 and 4, flush on every runner
    assert runner_bead_counts((2,), 3) == (1, 2, 0)


def test_abacus_levels_match_the_row_by_row_oracle():
    # every partition of n <= 22 at every prime p <= 41: the padding beads
    # of the one-pass layout against the oracle's zero rows, with the
    # number of parts a multiple of p, below p, and neither
    primes = [q for q in range(2, 42) if sympy.isprime(q)]
    shapes = set()
    for n in range(23):
        for pi in enumerate_partitions_by_recursion(n):
            for p in primes:
                assert partitions._abacus_levels(pi, p) == abacus_by_rows(pi, p)
                shapes.add((len(pi) % p == 0, p > len(pi)))
    assert shapes == {(True, True), (True, False), (False, True), (False, False)}


def test_combine_round_trip_exhaustive():
    """Every member of every block decomposes back to its block's core and
    weight and to the quotient it is paired with."""
    for n in range(1, 19):
        for p in (2, 3, 5):
            for core, w in cores_and_weights(n, p):
                quotients = enumerate_multipartitions(p, w)
                members = combine(core, w, p)
                assert len(members) == len(quotients)
                for pi, quotient in zip(members, quotients):
                    assert core_and_quotient(pi, p) == (core, quotient, w)
                    assert combine_by_components(core, quotient, p) == pi


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_combine_builds_every_block_like_the_components_oracle(p):
    """Joined over the blocks of n, the per-block combine lists every
    partition of n once, each equal to the one-member oracle's."""
    for n in range(0, 21):
        joined = []
        for core, w in cores_and_weights(n, p):
            quotients = enumerate_multipartitions_by_recursion(p, w)
            members = combine(core, w, p)
            assert members == [combine_by_components(core, nu, p) for nu in quotients]
            joined += members
        assert sorted(joined) == sorted(enumerate_partitions(n)), (n, p)



@pytest.mark.parametrize("p,m_max", [(2, 66), (3, 36), (5, 25), (7, 23), (11, 21)])
def test_combine_builds_the_blocks_of_large_cores_like_the_components_oracle(
    p, m_max
):
    """Cores of sizes 21 to m_max, past the per-n sweep, whose runners hold
    unequal bead counts: at weights 0 to 2 each block matches the one-member
    oracle, and each member decomposes back to its core and quotient."""
    spread = 0
    for m in range(21, m_max + 1):
        for core in p_cores(m, p):
            counts = runner_bead_counts(core, p)
            spread = max(spread, max(counts) - min(counts))
            for w in range(3):
                quotients = enumerate_multipartitions_by_recursion(p, w)
                members = combine(core, w, p)
                assert members == [combine_by_components(core, nu, p) for nu in quotients]
                for pi, nu in zip(members, quotients):
                    assert core_and_quotient(pi, p) == (core, nu, w)
    # some core's emptiest runner already holds more than w beads
    assert spread > 2

@st.composite
def _partitions_strategy(draw, max_n=40):
    n = draw(st.integers(min_value=1, max_value=max_n))
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
    assert conjugate(pi) == conjugate_by_counting(pi)
    core, quotient, weight = core_and_quotient(pi, p)
    index = enumerate_multipartitions(p, weight).index(quotient)
    assert combine(core, weight, p)[index] == pi
    assert combine_by_components(core, quotient, p) == pi
    assert sum(core) + p * weight == sum(pi)


@pytest.mark.parametrize("p", [1, 2, 3, 5, 7, 11, 13, 17, 19, 23])
def test_core_and_quotient_matches_the_sorting_oracle(p):
    for n in range(23):
        for pi in enumerate_partitions(n):
            assert core_and_quotient(pi, p) == core_and_quotient_by_sorting(pi, p)


@settings(max_examples=200, deadline=None)
@given(pi=_partitions_strategy(), p=st.sampled_from((2, 3, 5, 7, 11, 13, 41)))
def test_hook_formula_matches_the_oracles_property(pi, p):
    core, quotient, weight = core_and_quotient_by_sorting(pi, p)
    assert core_and_quotient(pi, p) == (core, quotient, weight)
    assert relative_hook_degree(pi, p) == relative_hook_degree_by_symbol_hooks(pi, p)
    assert quotient_congruence(pi, p).rhs == wreath_degree(quotient) % p


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
    assert gl_degree_poly((2,)).coeffs == (1,)
    assert gl_degree_poly((1, 1)).coeffs == (0, 1)
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


def test_gl_degree_poly_matches_cyclotomic_exponents():
    for n in range(21):
        for pi in enumerate_partitions(n):
            coeffs = gl_degree_poly(pi).coeffs
            assert coeffs == gl_degree_poly_by_cyclotomic_exponents(pi).coeffs, pi
            assert all(type(c) is int for c in coeffs), pi


@settings(max_examples=15, deadline=None)
@given(pi=_partitions_strategy(24))
def test_gl_degree_poly_matches_cyclotomic_exponents_property(pi):
    assert gl_degree_poly(pi) == gl_degree_poly_by_cyclotomic_exponents(pi)


def test_gl_degree_poly_builds_no_poly_product(monkeypatch):
    shapes = [(5, 3, 3, 1), (4, 4, 2, 1, 1), (12,), (1,) * 9, (6, 5, 4, 3, 2, 1)]
    expected = {pi: gl_degree_poly_by_cyclotomic_exponents(pi) for pi in shapes}

    def refuse(*args):
        raise AssertionError("Poly arithmetic in gl_degree_poly")

    monkeypatch.setattr(Poly, "__mul__", refuse)
    monkeypatch.setattr(Poly, "divrem", refuse)
    gl_degree_poly.cache_clear()
    for pi, poly in expected.items():
        assert gl_degree_poly(pi) == poly


@pytest.mark.parametrize("pi", [(0,), (2, 0), (1, 3), (3, -1)])
def test_gl_degree_poly_rejects_non_partitions(pi):
    with pytest.raises(ValueError):
        gl_degree_poly(pi)


def test_gl_degree_poly_unbalanced_hooks_raise(monkeypatch):
    real = partitions.hook_lengths
    fake = {(2, 1): (2, 2, 1), (3,): (3, 2, 2)}
    monkeypatch.setattr(partitions, "hook_lengths", lambda pi: fake.get(pi) or real(pi))
    gl_degree_poly.cache_clear()
    # (x^3 - 1) / (x^2 - 1) leaves a remainder
    with pytest.raises(ExactnessError, match=r"x\^2 - 1 does not divide.*\(2, 1\)"):
        gl_degree_poly((2, 1))
    # (x - 1) / (x^2 - 1) has too low a degree to divide
    with pytest.raises(ExactnessError, match=r"x\^2 - 1 does not divide.*\(3,\)"):
        gl_degree_poly((3,))
