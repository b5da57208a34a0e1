import doctest
from collections import Counter
from fractions import Fraction
from math import factorial

import pytest

import symblocks.wreath as wreath
from symblocks.partitions import degree, enumerate_partitions, hook_lengths
from symblocks.wreath import (
    InadmissibleParametersError,
    ParamSpec,
    PoleError,
    SchurEvaluationError,
    case_one_params,
    check_symbol,
    enumerate_multipartitions,
    linear_symbol,
    multipartition_of,
    schur_linear,
    schur_specialize_roots,
    schur_value,
    shift_symbol,
    symbol_hooks,
    symbol_of,
    symbol_a,
    symbol_c,
    symbol_rank,
    wreath_degree,
)


def test_doctests():
    result = doctest.testmod(wreath)
    assert result.failed == 0


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
    for n in range(1, 9):
        for pi in enumerate_partitions(n):
            sym = symbol_of((pi,))
            got = Counter(length for _, _, length in symbol_hooks(sym))
            assert got == Counter(hook_lengths(pi))


def test_invariants_small_symbol():
    sym = ((1,), (0,))
    assert symbol_rank(sym) == 1
    assert symbol_a(sym) == 0
    assert symbol_c(sym) == 1
    assert list(symbol_hooks(sym)) == [(0, 0, 1), (0, 1, 0)]


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
                structural = schur_value(linear_symbol(e, r, i), params)
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
        schur_value(((1,), (1,)), params)


def test_pole_detection():
    with pytest.raises(PoleError):
        schur_linear(2, 2, 1, ParamSpec.of(-1, (1, 2)))
    with pytest.raises(PoleError):
        schur_value(((1, 2),), ParamSpec.of(-1, (1,)))


def test_error_hierarchy():
    assert issubclass(InadmissibleParametersError, SchurEvaluationError)
    assert issubclass(PoleError, SchurEvaluationError)


def test_orders_cancel_away_from_roots():
    # v = 1 with generic distinct u still evaluates (orders cancel exactly)
    params = ParamSpec.of(1, (1, 2))
    assert schur_value(((1,), (0,)), params) == 2
    assert schur_value(((0,), (1,)), params) == -1
