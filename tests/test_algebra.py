import doctest
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import symblocks.algebra as algebra
from symblocks.algebra import (
    CycElt,
    ExactnessError,
    Poly,
    cyclotomic_poly,
    divisors,
    factorial_val,
    field_value_str,
    is_prime,
    is_prime_power,
    padic_val,
    phi_value,
    trial_factor,
    zsigmondy,
)


def test_doctests():
    result = doctest.testmod(algebra)
    assert result.failed == 0


# ---------------------------------------------------------------------------
# integer helpers


def test_padic_val_small():
    assert padic_val(12, 2) == 2
    assert padic_val(12, 3) == 1
    assert padic_val(1, 5) == 0
    assert padic_val(250, 5) == 3


def test_padic_val_rejects_zero():
    with pytest.raises(ValueError):
        padic_val(0, 3)


def test_factorial_val_against_digit_sum():
    # Legendre: the exact power of p in n! is (n - digit sum of n base p) / (p - 1)
    for p in (2, 3, 5, 7, 11):
        for n in range(0, 200):
            digits = 0
            m = n
            while m:
                digits += m % p
                m //= p
            assert factorial_val(n, p) == (n - digits) // (p - 1)


def test_trial_factor_matches_sympy():
    rng = random.Random(11)
    samples = list(range(1, 120)) + [rng.randrange(2, 10**7) for _ in range(60)]
    for n in samples:
        assert trial_factor(n) == dict(sympy.factorint(n))


def test_primality_matches_sympy():
    for n in range(1, 2000):
        assert is_prime(n) == sympy.isprime(n)


def test_prime_power_detection():
    for n in range(2, 600):
        expected = len(sympy.factorint(n)) == 1
        assert is_prime_power(n) == expected
    assert not is_prime_power(1)


def test_divisors_sorted_and_complete():
    for n in (1, 12, 36, 97, 360):
        ds = divisors(n)
        assert ds == sorted(ds)
        assert ds == [d for d in range(1, n + 1) if n % d == 0]


# ---------------------------------------------------------------------------
# polynomials


def test_poly_ring_identities():
    rng = random.Random(5)

    def rand_poly():
        return Poly.of(*[rng.randrange(-6, 7) for _ in range(rng.randrange(1, 6))])

    for _ in range(200):
        a, b, c = rand_poly(), rand_poly(), rand_poly()
        assert (a + b) * c == a * c + b * c
        assert a * b == b * a
        assert a - a == Poly.zero()
        x = Fraction(rng.randrange(-5, 6), rng.randrange(1, 4))
        assert (a * b)(x) == a(x) * b(x)
        assert (a + b)(x) == a(x) + b(x)


def test_poly_divrem_property():
    rng = random.Random(7)
    for _ in range(200):
        a = Poly.of(*[rng.randrange(-9, 10) for _ in range(rng.randrange(1, 7))])
        b = Poly.of(*[rng.randrange(-9, 10) for _ in range(rng.randrange(1, 5))])
        if b.is_zero():
            continue
        q, r = a.divrem(b)
        assert q * b + r == a
        assert r.is_zero() or r.degree < b.degree


def test_exact_div_raises_on_remainder():
    num = Poly.of(1, 1)  # 1 + x
    den = Poly.of(0, 1)  # x
    with pytest.raises(ExactnessError):
        num.exact_div(den)
    assert (num * den).exact_div(den) == num


def test_x_power_minus_one():
    for n in (1, 2, 5, 12):
        p = Poly.x_power_minus_one(n)
        assert p.degree == n
        assert p(1) == 0
        assert p(2) == 2**n - 1


# ---------------------------------------------------------------------------
# cyclotomic polynomials


def test_cyclotomic_product_identity():
    for n in range(1, 61):
        prod = Poly.one()
        for d in divisors(n):
            prod = prod * cyclotomic_poly(d)
        assert prod == Poly.x_power_minus_one(n)


def test_cyclotomic_degree_is_totient():
    for n in range(1, 80):
        assert cyclotomic_poly(n).degree == sympy.totient(n)


def test_cyclotomic_integral_coefficients():
    for n in range(1, 120):
        assert cyclotomic_poly(n).is_integral()


def test_phi_value_matches_sympy():
    for n in range(1, 20):
        for q in (2, 3, 5, 10):
            assert phi_value(n, q) == int(sympy.cyclotomic_poly(n, q))


# ---------------------------------------------------------------------------
# primitive prime divisors


def _primitive_primes_oracle(q: int, m: int) -> list[int]:
    primes = sorted(sympy.factorint(q**m - 1))
    out = []
    for p in primes:
        if all((q**i - 1) % p for i in range(1, m)):
            out.append(p)
    return out


def test_zsigmondy_against_factorization_oracle():
    for q in range(2, 41):
        if not is_prime_power(q):
            continue
        for m in range(1, 13):
            expected = _primitive_primes_oracle(q, m)
            got = zsigmondy(q, m).prime
            if expected:
                assert got == expected[0], (q, m)
            else:
                assert got is None, (q, m)


def test_zsigmondy_absence_classification():
    for q in range(2, 80):
        if not is_prime_power(q):
            continue
        for m in range(1, 13):
            absent = zsigmondy(q, m).prime is None
            classified = (
                (m == 1 and q == 2)
                or (m == 2 and (q + 1) & q == 0)
                or (m, q) == (6, 2)
            )
            assert absent == classified, (q, m)


# ---------------------------------------------------------------------------
# cyclotomic field elements


def test_root_of_unity_relations():
    for e in range(2, 13):
        z = CycElt.root(e)
        assert z**e == CycElt.from_rational(e, 1)
        total = CycElt.from_rational(e, 0)
        for j in range(e):
            total = total + z**j
        assert total.is_zero()


def test_cyc_inverse_and_division():
    z = CycElt.root(7)
    w = z + 2
    assert (w * w.inverse()).to_fraction() == 1
    assert ((z**3 / z) * z).embed(7) == z**3


def test_cyc_rationality():
    z = CycElt.root(5)
    s = sum((z**j for j in range(1, 5)), CycElt.from_rational(5, 0))
    assert s.is_rational() and s.to_fraction() == -1
    assert not z.is_rational()
    with pytest.raises(ExactnessError):
        z.to_fraction()


def test_cyc_embedding_compatibility():
    z3 = CycElt.root(3)
    z6 = CycElt.root(6)
    assert z3.embed(6) == z6**2
    assert (z3 + 1).embed(6) == z6**2 + 1


def test_cyc_hash_agrees_with_embedding():
    a = CycElt.root(3)
    b = a.embed(6)
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    assert hash(CycElt.root(12, 6)) == hash(-1)


@settings(max_examples=60, deadline=None)
@given(
    order=st.sampled_from((3, 4, 5, 6, 8, 9, 10, 12)),
    factor=st.integers(1, 4),
    data=st.data(),
)
def test_cyc_hash_survives_embed(order, factor, data):
    d = len(CycElt.root(order).coords)
    coords = data.draw(
        st.lists(
            st.fractions(min_value=-3, max_value=3, max_denominator=4),
            min_size=d,
            max_size=d,
        )
    )
    x = CycElt(order, tuple(coords))
    y = x.embed(order * factor)
    assert x == y
    assert hash(x) == hash(y)


def test_cyc_mixed_orders_rejected():
    with pytest.raises(ValueError):
        CycElt.root(3) + CycElt.root(4)


def test_field_value_str():
    assert field_value_str(Fraction(3, 2)) == "3/2"
    assert isinstance(field_value_str(CycElt.root(3)), str)
