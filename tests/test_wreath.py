from collections import Counter
from fractions import Fraction
from math import factorial

import pytest

from oracles import (
    Cyc,
    InadmissibleParametersError,
    ParamSpec,
    PoleError,
    SchurEvaluationError,
    case_one_params,
    enumerate_multipartitions_by_recursion,
    linear_symbol,
    multipartition_of,
    schur_linear,
    schur_value_by_factors,
    shift_symbol,
    symbol_a,
)
from symblocks import wreath
from symblocks.blocks import _quotient_table
from symblocks.algebra import CycElt, ExactnessError, Poly
from symblocks.partitions import (
    degree,
    enumerate_multipartitions,
    enumerate_partitions,
    hook_lengths,
)
from symblocks.wreath import (
    check_symbol,
    schur_specialize_roots,
    schur_value,
    symbol_of,
    symbol_c,
    symbol_rank,
    wreath_degree,
)


# ---------------------------------------------------------------------------
# multipartitions and symbols


def test_multipartition_counts():
    # generating-function oracle: prod 1/(1-x^k)^e, coefficient of x^r
    for e in (1, 2, 3, 4):
        coeffs = [Fraction(1)] + [Fraction(0)] * 8
        for _ in range(e):
            for k in range(1, 9):
                for i in range(k, 9):
                    coeffs[i] += coeffs[i - k]
        for r in range(0, 9):
            got = sum(1 for _ in enumerate_multipartitions(e, r))
            assert got == coeffs[r]


def test_multipartitions_match_the_recursion_oracle():
    for e in range(0, 6):
        for r in range(0, 9):
            assert list(enumerate_multipartitions(e, r)) == list(
                enumerate_multipartitions_by_recursion(e, r)
            ), (e, r)


def test_multipartitions_are_distinct_and_sized():
    seen = set()
    for nu in enumerate_multipartitions(3, 4):
        assert len(nu) == 3
        assert sum(sum(c) for c in nu) == 4
        assert nu not in seen
        seen.add(nu)


def test_symbol_round_trip():
    for e in (1, 2, 3):
        for r in range(0, 5):
            for nu in enumerate_multipartitions(e, r):
                sym = symbol_of(nu)
                check_symbol(sym)
                assert multipartition_of(sym) == nu
                assert symbol_rank(sym) == r
                shifted = shift_symbol(sym, 2)
                assert multipartition_of(shifted) == nu
                assert symbol_rank(shifted) == r


def test_check_symbol_rejects():
    with pytest.raises(ValueError):
        check_symbol(())
    with pytest.raises(ValueError):
        check_symbol(((0, 1), (0,)))
    with pytest.raises(ValueError):
        check_symbol(((1, 1),))
    with pytest.raises(ValueError):
        check_symbol(((-1, 0),))


def test_single_row_hooks_match_partition_hooks():
    # at p = 1 the quotient table holds the hooks of pi; at p = 2, with pi
    # in either slot, the same-row triples hold them times 2 among 2|pi|
    for n in range(1, 9):
        for pi in enumerate_partitions(n):
            table, _ = _quotient_table((pi,))
            assert Counter(x for _, _, x in table) == Counter(hook_lengths(pi))
            for slot, q in enumerate([(pi, ()), ((), pi)]):
                table, _ = _quotient_table(q)
                assert len(table) == 2 * n
                got = Counter(x for i, j, x in table if i == j == slot)
                assert got == Counter(2 * h for h in hook_lengths(pi))


def test_invariants_small_symbol():
    sym = ((1,), (0,))
    assert symbol_rank(sym) == 1
    assert symbol_a(sym) == 0
    assert symbol_c(sym) == 1
    assert symbol_of(((1,), ())) == sym
    assert _quotient_table(((1,), ()))[0] == ((0, 0, 2), (0, 1, 0))
    assert _quotient_table(((1,),))[0] == ((0, 0, 1),)


def test_linear_symbol_shape():
    assert linear_symbol(3, 2, 2) == ((0,), (2,), (0,))
    with pytest.raises(ValueError):
        linear_symbol(3, 2, 4)
    with pytest.raises(ValueError):
        linear_symbol(3, 2, 0)


# ---------------------------------------------------------------------------
# degrees


def test_wreath_degree_squares_sum():
    for e in (1, 2, 3):
        for r in range(0, 6):
            total = sum(wreath_degree(nu) ** 2 for nu in enumerate_multipartitions(e, r))
            assert total == e**r * factorial(r)


def test_wreath_degree_e1_is_symmetric_group_degree():
    for n in range(1, 9):
        for pi in enumerate_partitions(n):
            assert wreath_degree((pi,)) == degree(pi)


# ---------------------------------------------------------------------------
# specialization at roots of unity


def test_specialize_roots_anchors():
    assert schur_specialize_roots(((1,), (0,))) == Fraction(1, 2)
    assert schur_specialize_roots(((0,), (1,))) == Fraction(1, 2)
    assert schur_specialize_roots(((1,), (1,))) == Fraction(1, 4)
    assert schur_specialize_roots(((2,), (0,))) == Fraction(1, 8)
    assert schur_specialize_roots(symbol_of(((1, 1), ()))) == Fraction(1, 8)


def test_roots_of_unity_are_the_powers_of_zeta():
    for e in range(3, 9):
        params = ParamSpec.roots_of_unity(e)
        assert params.v == 1
        powers = [CycElt.from_poly(e, Poly.of(*(0,) * j, 1)) for j in range(1, e + 1)]
        assert [(u.order, u.coords) for u in params.u] == [
            (e, z.coords) for z in powers
        ]


def _same_value(got, want):
    """A library CycElt and an oracle Cyc are the same field element."""
    return type(want) is Cyc and (got.order, got.coords) == (want.order, want.coords)


@pytest.mark.parametrize(
    "e,r_max", [(1, 5), (2, 5), (3, 5), (4, 3), (5, 3), (6, 3)]
)
def test_schur_value_matches_factor_oracle_at_roots(e, r_max):
    # the only check of the sign and the power of zeta: a verify-wreath
    # report compares |f| and prints no value that matches
    params = ParamSpec.roots_of_unity(e)
    for r in range(r_max + 1):
        for nu in enumerate_multipartitions(e, r):
            for sym in (symbol_of(nu), shift_symbol(symbol_of(nu))):
                got = schur_value(sym)
                assert got.order == e, sym
                assert _same_value(got, schur_value_by_factors(sym, params)), sym


def test_schur_tally_rejects_unbalanced_orders(monkeypatch):
    sym = symbol_of(((2, 1), (1,)))
    rank = symbol_rank(sym)
    monkeypatch.setattr(wreath, "symbol_rank", lambda s: rank + 1)
    with pytest.raises(ExactnessError):
        schur_value(sym)


def test_specialize_roots_gives_degrees_exhaustive():
    for e in (1, 2, 3):
        for r in range(0, 4):
            for nu in enumerate_multipartitions(e, r):
                sym = symbol_of(nu)
                f = schur_specialize_roots(sym)
                assert abs(f) * e**r * factorial(r) == wreath_degree(nu)
                # any shifted representative gives the same value
                assert schur_specialize_roots(shift_symbol(sym)) == f


# ---------------------------------------------------------------------------
# closed form for linear characters


def test_schur_linear_split_torus_anchors():
    params = case_one_params(2, 2, (0,))
    assert params.v == 4
    assert params.u == (Fraction(1), Fraction(2))
    assert schur_linear(2, 2, 1, params) == Fraction(-2, 5)
    assert schur_linear(2, 2, 2, params) == Fraction(1, 35)


def test_schur_linear_matches_structural_value():
    specs = [
        case_one_params(2, 2, (0,)),
        case_one_params(3, 2, (1,)),
        case_one_params(2, 3, (0, 1)),
        ParamSpec.of(5, (1, 3, 4)),
    ]
    for params in specs:
        e = len(params.u)
        for r in (1, 2, 3):
            for i in range(1, e + 1):
                direct = schur_linear(e, r, i, params)
                structural = schur_value_by_factors(linear_symbol(e, r, i), params)
                assert direct == structural


def test_case_one_params_validation():
    with pytest.raises(ValueError):
        case_one_params(1, 2, (0,))
    with pytest.raises(ValueError):
        case_one_params(2, 0, ())
    with pytest.raises(ValueError):
        case_one_params(2, 3, (0,))
    with pytest.raises(ValueError):
        case_one_params(2, 2, (-1,))


def test_param_spec_rejects_repeated_u():
    with pytest.raises(ValueError):
        ParamSpec.of(2, (1, 1))


# ---------------------------------------------------------------------------
# singular parameters


def test_vanishing_cross_factor_is_inadmissible():
    params = ParamSpec.of(2, (1, 2))
    with pytest.raises(InadmissibleParametersError):
        schur_linear(2, 2, 1, params)
    with pytest.raises(InadmissibleParametersError):
        schur_value_by_factors(((1,), (1,)), params)


def test_pole_detection():
    with pytest.raises(PoleError):
        schur_linear(2, 2, 1, ParamSpec.of(-1, (1, 2)))
    with pytest.raises(PoleError):
        schur_value_by_factors(((1, 2),), ParamSpec.of(-1, (1,)))


def test_error_hierarchy():
    assert issubclass(InadmissibleParametersError, SchurEvaluationError)
    assert issubclass(PoleError, SchurEvaluationError)


def test_orders_cancel_away_from_roots():
    # v = 1 with generic distinct u still evaluates (orders cancel exactly)
    params = ParamSpec.of(1, (1, 2))
    assert schur_value_by_factors(((1,), (0,)), params) == 2
    assert schur_value_by_factors(((0,), (1,)), params) == -1

