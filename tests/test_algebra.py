import random
import subprocess
import sys
import time
from fractions import Fraction
from itertools import zip_longest

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import symblocks.algebra as algebra
from symblocks import cli
from symblocks.algebra import (
    CycElt,
    ExactnessError,
    Poly,
    UnprovenPrimeError,
    cyclotomic_poly,
    divisors,
    factorial_val,
    field_value_str,
    is_prime,
    is_prime_power,
    padic_val,
    phi_value,
    root_monomial,
    trial_factor,
    zsigmondy,
)
from oracles import cyc_inverse_by_elimination, root_monomial_by_factors


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


@pytest.mark.parametrize("p", [1, 0, -1])
def test_valuations_reject_a_base_below_2(p):
    with pytest.raises(ValueError):
        padic_val(5, p)
    with pytest.raises(ValueError):
        factorial_val(5, p)


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
    rng = random.Random(64)
    for _ in range(200):
        n = rng.getrandbits(64)
        assert is_prime(n) == sympy.isprime(n), n


def test_primality_without_trial_division(monkeypatch):
    def refuse(n):
        raise AssertionError(f"trial_factor({n}) called")

    monkeypatch.setattr(algebra, "trial_factor", refuse)
    assert is_prime_power(10**16 + 61)
    assert is_prime_power(3**40)
    assert is_prime_power(2**61 - 1)
    assert not is_prime_power(6**20)
    assert is_prime(10**12 + 39)
    # strong pseudoprimes to the first 4, 9 and 12 prime bases
    for n in (3215031751, 3825123056546413051, 318665857834031151167461):
        assert not sympy.isprime(n)
        assert not is_prime(n), n
    # above the bound a failed base still proves n composite ...
    assert not is_prime(3000000000013 * 10000000000037)
    # ... while passing every base proves nothing: 2**89 - 1 is prime, and
    # the bound itself is 1287836182261 * 2575672364521
    for n in (2**89 - 1, algebra.MILLER_RABIN_BOUND):
        with pytest.raises(UnprovenPrimeError, match=str(n)):
            is_prime(n)


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
# powers


# square-and-multiply from the lowest set bit: no product for x**0 and x**1
POWER_PRODUCTS = {0: 0, 1: 0, 2: 1, 3: 2, 4: 2, 5: 3}


def _root(order, k=1):
    """zeta_order ** k, for k >= 0."""
    return CycElt.from_poly(order, Poly.of(*(0,) * k, 1))


def _is_one(x):
    return x.is_rational() and x.to_fraction() == 1


@pytest.mark.parametrize("n,products", sorted(POWER_PRODUCTS.items()))
def test_power_product_count(n, products, monkeypatch):
    base = CycElt.from_poly(7, Poly.of(1, 1))
    calls = []
    plain = CycElt.__mul__

    def counting(self, other):
        calls.append(other)
        return plain(self, other)

    monkeypatch.setattr(CycElt, "__mul__", counting)
    base**n
    assert len(calls) == products


@pytest.mark.parametrize("n", range(10))
def test_power_is_repeated_multiplication(n):
    for x in (CycElt.from_poly(5, Poly.of(2, 1)), CycElt.from_poly(4, Poly.of(-3, 1))):
        expected = CycElt.from_rational(x.order, 1)
        for _ in range(n):
            expected = expected * x
        assert (x**n).coords == expected.coords


# ---------------------------------------------------------------------------
# polynomials


def test_poly_ring_identities():
    rng = random.Random(5)

    def rand_poly():
        return Poly.of(*[rng.randrange(-6, 7) for _ in range(rng.randrange(1, 6))])

    for _ in range(200):
        a, b, c = rand_poly(), rand_poly(), rand_poly()
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        x = Fraction(rng.randrange(-5, 6), rng.randrange(1, 4))
        assert (a * b)(x) == a(x) * b(x)


def test_poly_divrem_property():
    # division is defined only by a divisor with leading coefficient +-1
    rng = random.Random(7)
    for _ in range(200):
        a = Poly.of(*[rng.randrange(-9, 10) for _ in range(rng.randrange(1, 7))])
        lower = [rng.randrange(-9, 10) for _ in range(rng.randrange(0, 4))]
        b = Poly.of(*lower, rng.choice((1, -1)))
        q, r = a.divrem(b)
        qb = (q * b).coeffs
        assert Poly.of(*map(sum, zip_longest(qb, r.coeffs, fillvalue=0))) == a
        assert r.is_zero() or r.degree < b.degree
        assert all(type(c) is int for c in q.coeffs + r.coeffs)


def test_divrem_rejects_a_non_unit_leading_coefficient():
    with pytest.raises(ExactnessError):
        Poly.of(1, 0, 4).divrem(Poly.of(1, 2))
    with pytest.raises(ExactnessError):
        (Poly.of(1, 2) * Poly.of(3, 2)).exact_div(Poly.of(1, 2))


def test_exact_div_raises_on_remainder():
    num = Poly.of(1, 1)  # 1 + x
    den = Poly.of(0, 1)  # x
    with pytest.raises(ExactnessError):
        num.exact_div(den)
    assert (num * den).exact_div(den) == num


def test_division_errors_name_coefficient_tuples():
    # (x^3 + 2) / (x - 1) leaves 3; the messages print tuples, not reprs
    with pytest.raises(ExactnessError, match=r"\(remainder \(3,\)\)$"):
        Poly.of(2, 0, 0, 1).exact_div(Poly.of(-1, 1))
    with pytest.raises(ExactnessError, match=r"^leading coefficient of \(1, 2\) "):
        Poly.of(1, 0, 4).divrem(Poly.of(1, 2))


def test_x_power_minus_one():
    for n in (1, 2, 5, 12):
        p = Poly.x_power_minus_one(n)
        assert p.degree == n
        assert p(1) == 0
        assert p(2) == 2**n - 1
    assert Poly.x_power_minus_one(0).is_zero()
    with pytest.raises(ValueError):
        Poly.x_power_minus_one(-1)


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
        assert all(type(c) is int for c in cyclotomic_poly(n).coeffs)


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
            got = zsigmondy(q, m)
            if expected:
                assert got == expected[0], (q, m)
            else:
                assert got is None, (q, m)


def _is_primitive(q: int, m: int, p: int) -> bool:
    if pow(q, m, p) != 1:
        return False
    return all(pow(q, i, p) != 1 for i in range(1, m))


def _zsigmondy_by_trial_division(q: int, m: int) -> int | None:
    """The search `zsigmondy` replaced: factor Phi_m(q) in full, then take
    the least prime factor that passes the primitivity check."""
    for p in trial_factor(phi_value(m, q)):
        if _is_primitive(q, m, p):
            return p
    return None


def test_zsigmondy_matches_trial_division():
    pairs = 0
    for q in range(2, 200):
        for m in range(1, 31):
            if phi_value(m, q) > 10**12:
                continue
            pairs += 1
            assert zsigmondy(q, m) == _zsigmondy_by_trial_division(q, m), (q, m)
    assert pairs > 2000


@pytest.mark.parametrize(
    "q,m", [(52, 15), (79, 30), (70, 30), (42, 21), (53, 11), (71, 11)]
)
def test_zsigmondy_against_sympy_on_large_values(q, m):
    primitive = [p for p in sympy.factorint(phi_value(m, q)) if _is_primitive(q, m, p)]
    assert zsigmondy(q, m) == min(primitive)


def test_square_of_the_largest_prime_of_m_is_an_internal_error(monkeypatch, capsys):
    # 7**2 * 29 cannot be Phi_21(q); Bang's theorem allows 7 only once
    monkeypatch.setattr(algebra, "phi_value", lambda m, q: 7**2 * 29)
    with pytest.raises(ExactnessError):
        zsigmondy(2, 21)
    assert cli.main(["zsigmondy", "--q", "2", "--m", "21"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal error: ExactnessError:")


def test_a_probable_prime_cofactor_above_the_bound_is_refused(capsys):
    # Phi_127(2) = 2**127 - 1 is prime, but above the Miller-Rabin bound no
    # test here proves it, and the search would step d toward its square root
    with pytest.raises(UnprovenPrimeError, match=str(2**127 - 1)):
        zsigmondy(2, 127)
    argv = ["zsigmondy", "--q", "2", "--m", "127"]
    r = subprocess.run(
        [sys.executable, "-m", "symblocks", *argv],
        capture_output=True, text=True, timeout=10,
    )
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr.startswith("error: ") and r.stderr.count("\n") == 1
    start = time.perf_counter()
    assert cli.main(argv) == 2
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err == r.stderr


def test_a_composite_cofactor_above_the_bound_is_still_searched():
    # 2**83 - 1 = 167 * 57912614113275649087721 fails the Miller-Rabin bases
    assert phi_value(83, 2) >= algebra.MILLER_RABIN_BOUND
    assert zsigmondy(2, 83) == 167


def test_a_composite_cofactor_past_the_search_budget_is_refused(capsys):
    # 2**101 - 1 = 7432339208719 * 341117531003194129: its least prime factor
    # is about 3.7e10 steps of 202 up the progression
    for argv in (["zsigmondy", "--q", "2", "--m", "101"],
                 ["tori", "--series", "A", "--n", "100", "--q", "2"]):
        start = time.perf_counter()
        assert cli.main(argv) == 2
        assert time.perf_counter() - start < 5.0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    with pytest.raises(UnprovenPrimeError, match="2535301200456458802993406410751"):
        zsigmondy(2, 101)


def test_the_search_budget_counts_steps(monkeypatch):
    # Phi_30(70) has the least primitive prime 7067761 = 1 + 235592 * 30
    monkeypatch.setattr(algebra, "ZSIGMONDY_SEARCH_STEPS", 235592)
    assert zsigmondy(70, 30) == 7067761
    monkeypatch.setattr(algebra, "ZSIGMONDY_SEARCH_STEPS", 235591)
    with pytest.raises(UnprovenPrimeError, match="235591 steps"):
        zsigmondy(70, 30)


def test_zsigmondy_absence_classification():
    for q in range(2, 80):
        if not is_prime_power(q):
            continue
        for m in range(1, 13):
            absent = zsigmondy(q, m) is None
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
        z = _root(e)
        assert _is_one(z**e)
        assert not any(_is_one(z**k) for k in range(1, e)), e


def test_root_is_the_power_of_the_primitive_root():
    for e in range(1, 13):
        z = _root(e)
        for k in range(3 * e):
            assert _root(e, k).coords == (z**k).coords, (e, k)


def test_cyc_inverse_and_division():
    z = _root(7)
    w = CycElt.from_poly(7, Poly.of(2, 1))
    assert (w * w.inverse()).to_fraction() == 1
    assert ((z**3 / z) * z).coords == (z**3).coords


def test_cyc_rationality():
    z = _root(5)
    s = CycElt.from_poly(5, Poly.of(0, 1, 1, 1, 1))  # zeta + ... + zeta**4
    assert s.is_rational() and s.to_fraction() == -1
    assert not z.is_rational()
    with pytest.raises(ExactnessError):
        z.to_fraction()


def _cyc_elements(min_order=1, max_order=12):
    """Nonzero elements of Q(zeta_e), e in the given range, with small coordinates."""

    @st.composite
    def build(draw):
        order = draw(st.integers(min_order, max_order))
        d = cyclotomic_poly(order).degree
        coords = draw(
            st.lists(
                st.fractions(min_value=-4, max_value=4, max_denominator=3),
                min_size=d,
                max_size=d,
            ).filter(any)
        )
        return CycElt(order, tuple(coords))

    return build()


@settings(max_examples=80, deadline=None)
@given(x=_cyc_elements())
def test_cyc_inverse_is_exact(x):
    assert _is_one(x * x.inverse())


@settings(max_examples=80, deadline=None)
@given(order=st.integers(1, 15), data=st.data())
def test_cyc_inverse_matches_elimination(order, data):
    d = cyclotomic_poly(order).degree
    scalars = st.one_of(
        st.integers(-5, 5),
        st.fractions(min_value=-4, max_value=4, max_denominator=5),
    )
    coords = data.draw(st.lists(scalars, min_size=d, max_size=d).filter(any))
    x = CycElt(order, tuple(coords))
    got, want = x.inverse(), cyc_inverse_by_elimination(x)
    assert (got.order, got.coords) == (want.order, want.coords)
    assert all(type(c) is Fraction for c in got.coords)


@pytest.mark.parametrize("order", range(1, 13))
def test_cyc_inverse_multiplies_no_one(order, monkeypatch):
    x = CycElt.from_poly(order, Poly.of(2, 1))  # nonzero: |zeta| = 1
    degree = len(x.coords)
    products = []
    real = CycElt.__mul__

    def counting(self, other):
        products.append(other)
        return real(self, other)

    monkeypatch.setattr(CycElt, "__mul__", counting)
    y = x.inverse()
    monkeypatch.undo()
    # degree - 2 products of the other conjugates, then one for the norm
    assert len(products) == max(degree - 1, 1)
    assert _is_one(x * y)
    assert y.coords == cyc_inverse_by_elimination(x).coords


@pytest.mark.parametrize("order", range(1, 13))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_root_monomial_matches_factor_oracle(order, data):
    powers = data.draw(st.lists(st.integers(-3, 3), min_size=order, max_size=order))
    exponent = data.draw(st.integers(-2 * order, 2 * order))
    num = data.draw(st.integers(-50, 50).filter(bool))
    den = data.draw(st.integers(-50, 50).filter(bool))
    got = root_monomial(order, num, den, exponent, powers)
    want = root_monomial_by_factors(order, num, den, exponent, powers)
    assert (got.order, got.coords) == (want.order, want.coords)


@pytest.mark.parametrize("order", range(1, 13))
def test_root_monomial_matches_factor_oracle_on_single_powers(order):
    for k in range(1, order):
        for n in range(-3, 4):
            powers = [0] * order
            powers[k] = n
            for num, den, exponent in ((1, 1, 0), (-3, 2, 1 - order), (5, -7, k)):
                got = root_monomial(order, num, den, exponent, powers)
                want = root_monomial_by_factors(order, num, den, exponent, powers)
                assert got.coords == want.coords, (k, n, num, den, exponent)


@settings(max_examples=80, deadline=None)
@given(data=st.data(), x=_cyc_elements())
def test_cyc_division_undoes_multiplication(data, x):
    y = data.draw(_cyc_elements(x.order, x.order))
    assert ((x / y) * y).coords == x.coords


@settings(max_examples=80, deadline=None)
@given(data=st.data(), order=st.integers(1, 12), k=st.integers(0, 5))
def test_cyc_integer_coordinates_stay_int(data, order, k):
    d = cyclotomic_poly(order).degree
    ints = st.lists(st.integers(-5, 5), min_size=d, max_size=d)
    x = CycElt(order, tuple(data.draw(ints)))
    y = CycElt(order, tuple(data.draw(ints)))
    for z in (x * y, x**k):
        assert all(type(c) is int for c in z.coords)
    if not x.is_zero():
        for z in (x.inverse(), y / x):
            assert all(type(c) in (int, Fraction) for c in z.coords)
        assert _is_one(x * x.inverse())
    assert type(CycElt.from_rational(order, 3).to_fraction()) is Fraction


def test_cyc_mixed_orders_rejected():
    with pytest.raises(ValueError):
        _root(3) * _root(4)


def test_field_value_str():
    assert field_value_str(Fraction(3, 2)) == "3/2"
    assert field_value_str(_root(3)) == "cyc3:0,1"
    assert field_value_str(_root(3).inverse()) == "cyc3:-1,-1"
    assert field_value_str(CycElt(4, (0, Fraction(1, 2)))) == "cyc4:0,1/2"
    assert field_value_str(_root(5) * CycElt.from_poly(5, Poly.of(1, 0, 0, 1))) == (
        "cyc5:-1,0,-1,-1"
    )
    # a rational CycElt is written as its Fraction, with no cyc prefix
    assert field_value_str(CycElt.from_poly(3, Poly.of(0, 0, 0, 2))) == "2"
    assert field_value_str(CycElt(4, (Fraction(-1, 2), 0))) == "-1/2"
    assert field_value_str(_root(4)) == "cyc4:0,1"
