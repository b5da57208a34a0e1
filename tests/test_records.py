"""The library's value records: immutable, compared and hashed by value, and
picklable, as forked `--jobs` workers need."""

import copy
import pickle
from fractions import Fraction

import pytest

from symblocks.algebra import CycElt, Poly, cyclotomic_poly
from symblocks.blocks import blocks_sn, classify_sym, quotient_congruence
from symblocks.unipotent import (
    hll_check_gl,
    speceq_search,
    tori_check,
    tori_entry,
    unipotent_degrees_gl,
)
from symblocks.wreath import schur_specialize_roots, symbol_of


def _records():
    block = blocks_sn(4, 2)[0]
    hll = hll_check_gl(6, 2)
    tori = tori_entry("B/C", 2)
    return [
        block.label,
        block.members[0],
        block,
        classify_sym(block),
        quotient_congruence((6, 1, 1), 3),
        unipotent_degrees_gl(3)[1],
        hll.series[0].members[0],
        hll.series[0],
        hll,
        speceq_search(5, 2, 2)[0],
        tori,
        tori_check(tori, 3),
    ]


RECORDS = _records()


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_a_record_compares_and_hashes_by_value(record):
    copy = type(record)(*record)
    assert copy is not record
    assert copy == record and hash(copy) == hash(record)
    first = record._fields[0]
    assert record._replace(**{first: None}) != record


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_a_record_field_cannot_be_assigned(record):
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], None)


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_a_record_survives_pickle(record):
    back = pickle.loads(pickle.dumps(record))
    assert type(back) is type(record)
    assert back == record and hash(back) == hash(record)


def test_poly_equality_hash_and_repr():
    p = Poly.of(-1, 0, 1)
    assert p == Poly((-1, 0, 1)) and p != Poly.of(-1, 1)
    # a Poly equals only a Poly, never its coefficient tuple
    assert p != (-1, 0, 1) and (-1, 0, 1) != p
    assert hash(p) == hash(((-1, 0, 1),))
    assert repr(p) == "Poly(coeffs=(-1, 0, 1))"
    assert repr(Poly(())) == "Poly(coeffs=())"


@pytest.mark.parametrize(
    "op",
    [
        lambda: 3 * Poly.of(0, 1),
        lambda: Poly.of(0, 1) < Poly.one(),
        lambda: Poly.of(0, 1)[0],
        lambda: len(Poly.of(0, 1)),
        lambda: list(Poly.of(0, 1)),
    ],
    ids=["int times poly", "order", "index", "len", "iterate"],
)
def test_poly_is_not_a_tuple(op):
    with pytest.raises(TypeError):
        op()


def test_poly_is_immutable():
    p = cyclotomic_poly(6)
    with pytest.raises(AttributeError):
        p.coeffs = (1,)
    with pytest.raises(AttributeError):
        del p.coeffs
    with pytest.raises(AttributeError):
        p.other = 1
    assert p.coeffs == (1, -1, 1) and cyclotomic_poly(6) == Poly.of(1, -1, 1)


def test_poly_survives_pickle():
    p = cyclotomic_poly(12)
    back = pickle.loads(pickle.dumps(p))
    assert type(back) is Poly and back == p and hash(back) == hash(p)


def test_cyc_elt_is_immutable():
    root = CycElt.root(3)
    with pytest.raises(AttributeError):
        root.coords = (0, 0)
    with pytest.raises(AttributeError):
        root.order = 6
    with pytest.raises(AttributeError):
        del root.coords
    with pytest.raises(AttributeError):
        root.other = 1
    assert root == CycElt.root(3)
    sym = symbol_of(((1,), (1,), ()))
    assert schur_specialize_roots(sym) == Fraction(1, 9)


def test_cyc_elt_survives_pickle_and_copy():
    z = CycElt.root(12, 5)
    for back in (pickle.loads(pickle.dumps(z)), copy.copy(z), copy.deepcopy(z)):
        assert type(back) is CycElt and back is not z
        assert back == z and hash(back) == hash(z)
