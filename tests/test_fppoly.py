import functools
import itertools
import math
import operator
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from purecycle.arith import is_prime
from purecycle.errors import BoundExceededError, InvalidTypeError
from purecycle.fppoly import (
    FpPoly,
    KummerData,
    cartier_coefficient,
    fp_roots,
    irreducible_factor_degrees,
    lucas_binomial,
    poly_gcd,
    pow_mod,
    ramification_profile,
    supersingular_lambdas,
    tail_polynomial_cofactor,
    tail_polynomial_double,
    tail_polynomial_single,
)


def test_poly_basics():
    f = FpPoly(5, (1, 4, 1))
    assert f.degree() == 2
    assert f.to_string("λ") == "1 + 4*λ + λ^2"
    assert FpPoly(5, (0, 0, 0)).is_zero()
    assert FpPoly(5, (6, 5)) == FpPoly(5, (1,))  # reduction and trimming
    assert f(1) == (1 + 4 + 1) % 5


def test_poly_ring_axioms_random():
    rng = random.Random(8)
    for p in (2, 3, 7):
        for _ in range(60):
            def rand():
                return FpPoly(p, [rng.randrange(p) for _ in range(rng.randint(0, 6))])

            a, b, c = rand(), rand(), rand()
            assert (a + b) * c == a * c + b * c
            assert a * b == b * a
            if not b.is_zero():
                q, r = divmod(a, b)
                assert q * b + r == a
                assert r.is_zero() or r.degree() < b.degree()


def test_poly_mixed_moduli_rejected():
    a, b = FpPoly(5, (1, 2)), FpPoly(7, (1,))
    for op in (operator.add, operator.sub, operator.mul, divmod):
        with pytest.raises(InvalidTypeError):
            op(a, b)


@pytest.mark.parametrize("p", [4, 1, 0, -3, 91])
def test_poly_composite_modulus_rejected(p):
    with pytest.raises(InvalidTypeError):
        FpPoly(p, (1, 2))


PRIMES_TO_997 = [q for q in range(2, 998) if is_prime(q)]


def _is_reduced(f):
    """Trimmed, with every coefficient in [0, p)."""
    return all(0 <= c < f.p for c in f.coeffs) and (not f.coeffs or f.coeffs[-1] != 0)


@st.composite
def poly_pairs(draw):
    """(a, b) over one prime up to 997, b a nonzero constant, linear or of
    higher degree; coefficients range past [0, p) and a's degree may be below
    b's."""
    p = draw(st.sampled_from(PRIMES_TO_997))
    coeff = st.integers(-3 * p, 3 * p)
    a = draw(st.lists(coeff, max_size=30))
    low = draw(st.lists(coeff, min_size=draw(st.sampled_from([0, 1, 2, 5, 12])),
                        max_size=12))
    lead = draw(st.integers(1, p - 1))
    return FpPoly(p, a), FpPoly(p, [*low, lead])


@given(poly_pairs())
def test_divmod_property(pair):
    a, b = pair
    q, r = divmod(a, b)
    assert q * b + r == a
    assert r.degree() < b.degree()
    assert all(map(_is_reduced, (q, r)))
    assert (q, r) == (a // b, a % b)


@given(poly_pairs())
def test_ring_results_are_reduced(pair):
    a, b = pair
    results = (a + b, a - b, b - b, -a, a * b, a * 0, a * -1, 3 * a, a.monic(),
               a.derivative())
    assert all(map(_is_reduced, results))
    assert (b - b).is_zero() and (a * 0).is_zero()


@settings(max_examples=200)
@given(st.sampled_from([2, 3, 5, 7, 11, 13]).flatmap(lambda p: st.tuples(
    st.just(p),
    st.lists(st.integers(-2 * p, 2 * p), max_size=8),
    st.lists(st.integers(-2 * p, 2 * p), max_size=8),
    st.integers(-2 * p, 2 * p),
)))
def test_ring_operations_agree_with_pointwise_evaluation(case):
    p, u, v, k = case
    a, b = FpPoly(p, u), FpPoly(p, v)
    for x in range(p):
        ax, bx = a(x), b(x)
        assert (a + b)(x) == (ax + bx) % p
        assert (a - b)(x) == (ax - bx) % p
        assert (-a)(x) == -ax % p
        assert (a * b)(x) == ax * bx % p
        assert (a * k)(x) == (k * a)(x) == ax * k % p


def test_derivative():
    f = FpPoly(5, (2, 0, 0, 0, 0, 1))  # x^5 + 2
    assert f.derivative().is_zero()
    assert FpPoly(7, (1, 3, 0, 2)).derivative() == FpPoly(7, (3, 0, 6))


def test_lucas_binomial_matches_exact():
    for p in (2, 3, 5, 13):
        for n in range(40):
            for k in range(n + 1):
                assert lucas_binomial(n, k, p) == math.comb(n, k) % p


PRIMES_TO_101 = [q for q in range(2, 102) if is_prime(q)]


@st.composite
def lucas_inputs(draw):
    """(n, k, p) with p prime <= 101 and n < p^3.  The smaller of k and n - k
    stays <= 2000, which keeps math.comb cheap and still reaches every base-p
    digit of k, borrows included."""
    p = draw(st.sampled_from(PRIMES_TO_101))
    n = draw(st.integers(0, p**3 - 1))
    j = draw(st.integers(0, min(n, 2000)))
    return n, draw(st.sampled_from((j, n - j))), p


@given(lucas_inputs())
def test_lucas_binomial_matches_comb_property(args):
    n, k, p = args
    assert lucas_binomial(n, k, p) == math.comb(n, k) % p


def test_lucas_binomial_rejects_composite_modulus():
    with pytest.raises(InvalidTypeError):
        lucas_binomial(5, 2, 9)


def test_gcd_and_pow_mod():
    p = 7
    f = FpPoly(p, (1, 1)) * FpPoly(p, (2, 1))
    g = FpPoly(p, (1, 1)) * FpPoly(p, (3, 1))
    assert poly_gcd(f, g) == FpPoly(p, (1, 1))
    mod = FpPoly(p, (1, 0, 1))
    x = FpPoly.monomial(p, 1)
    assert pow_mod(x, p * p, mod) == pow_mod(pow_mod(x, p, mod), p, mod)


def test_kummer_data_validation():
    k = KummerData(5, (2, 2, 2, 2))
    assert k.kummer_degree == 2
    assert KummerData(7, (5, 3, 3, 1)).kummer_degree == 6
    with pytest.raises(InvalidTypeError):
        KummerData(5, (2, 2, 2, 3))  # wrong sum
    with pytest.raises(InvalidTypeError):
        KummerData(5, (5, 1, 1, 1))  # exponent out of range
    assert KummerData(241, (120, 120, 120, 120)).kummer_degree == 2
    with pytest.raises(BoundExceededError):
        KummerData(251, (125, 125, 125, 125))  # over KUMMER_MAX_PRIME = 250


def test_cartier_examples():
    assert cartier_coefficient(KummerData(3, (1, 1, 1, 1))) == FpPoly(3, (1, 1))
    assert cartier_coefficient(KummerData(5, (2, 2, 2, 2))) == FpPoly(5, (1, 4, 1))


def test_cartier_never_zero_small():
    for p in (3, 5, 7):
        for a1 in range(p):
            for a2 in range(p):
                for a3 in range(p):
                    a4 = 2 * (p - 1) - a1 - a2 - a3
                    if 0 <= a4 <= p - 1:
                        assert not cartier_coefficient(
                            KummerData(p, (a1, a2, a3, a4))
                        ).is_zero()


def test_supersingular_values():
    assert supersingular_lambdas(KummerData(3, (1, 1, 1, 1))) == [2]
    assert supersingular_lambdas(KummerData(5, (2, 2, 2, 2))) == []
    assert irreducible_factor_degrees(cartier_coefficient(KummerData(5, (2, 2, 2, 2)))) == [2]


def test_supersingular_never_reports_0_or_1():
    for p in (5, 7, 11, 13):
        for a1 in range(p):
            for a3 in range(p):
                a2 = p - 1 - a1
                a4 = p - 1 - a3
                k = KummerData(p, (a1, a2, a3, a4))
                assert all(r not in (0, 1) for r in supersingular_lambdas(k))


def test_fp_roots():
    f = FpPoly(7, (-6, 1)) * FpPoly(7, (-2, 1)) * FpPoly(7, (1, 0, 1))
    assert fp_roots(f) == [2, 6]
    with pytest.raises(InvalidTypeError):
        fp_roots(FpPoly(7))


def test_squarefree_decomposition_examples():
    # multiplicities, p-th powers included, come out of irreducible_factor_degrees
    p = 5
    lin = FpPoly(p, (-1, 1))
    quad = FpPoly(p, (2, 0, 1))  # x^2 + 2, no roots mod 5
    assert all(quad(x) for x in range(p))
    assert irreducible_factor_degrees(lin * lin * lin * quad) == [1, 1, 1, 2]
    # p-th powers: (x-1)^3 = x^3 - 1 over F_3 has zero derivative
    lin3 = FpPoly(3, (-1, 1))
    g = lin3 * lin3 * lin3
    assert g.derivative().is_zero()
    assert irreducible_factor_degrees(g) == [1, 1, 1]
    # mixed multiplicities over F_3, one of them a multiple of p
    a, b = FpPoly(3, (-1, 1)), FpPoly(3, (1, 0, 1))  # x+2 and x^2+1
    assert irreducible_factor_degrees(a * a * a * a * b * b * b) == [1, 1, 1, 1, 2, 2, 2]
    assert irreducible_factor_degrees(a * a * a * b) == [1, 1, 1, 2]


def test_distinct_degree_factorization():
    # the distinct-degree loop inside irreducible_factor_degrees
    p = 5
    quad = FpPoly(p, (2, 0, 1))
    f = (FpPoly(p, (-1, 1)) * FpPoly(p, (-3, 1)) * quad).monic()
    assert irreducible_factor_degrees(f) == [1, 1, 2]
    # two quadratics: the loop must run on while rest has degree >= 2(k+1)
    assert irreducible_factor_degrees(FpPoly(3, (1, 0, 1)) * FpPoly(3, (2, 1, 1))) == [2, 2]


def monic_polys(p, n):
    return [FpPoly(p, (*low, 1)) for low in itertools.product(range(p), repeat=n)]


@functools.lru_cache(maxsize=None)
def irreducibles(p, n):
    """Monic irreducible polynomials of degree n over F_p: the monic ones that
    are no product of two monic factors of lower degree."""
    reducible = {
        a * b for i in range(1, n // 2 + 1) for a in monic_polys(p, i) for b in monic_polys(p, n - i)
    }
    return [f for f in monic_polys(p, n) if f not in reducible]


@given(st.data())
def test_factorization_of_products_of_known_irreducibles(data):
    p = data.draw(st.sampled_from((2, 3, 5)))
    factors = data.draw(
        st.lists(
            st.integers(1, 4).flatmap(lambda n: st.sampled_from(irreducibles(p, n))),
            min_size=1, max_size=4, unique=True,
        )
    )
    mults = data.draw(st.lists(st.integers(1, 6), min_size=len(factors), max_size=len(factors)))
    f = functools.reduce(FpPoly.__mul__, (g for g, m in zip(factors, mults) for _ in range(m)))
    assert irreducible_factor_degrees(f) == sorted(
        g.degree() for g, m in zip(factors, mults) for _ in range(m)
    )


def test_tail_polynomial_single():
    assert tail_polynomial_single(5, 2) == FpPoly(5, (0, 0, 1, 0, 0, 1))
    profile = ramification_profile(tail_polynomial_single(5, 2))
    assert profile.finite_points == ((0, 2),)
    assert profile.wild_at_infinity
    # derivative collapses to e*y^(e-1)
    assert tail_polynomial_single(7, 4).derivative() == FpPoly(7, (0, 0, 0, 4))
    with pytest.raises(InvalidTypeError):
        tail_polynomial_single(7, 7)


def test_tail_polynomial_double_worked_example():
    assert tail_polynomial_cofactor(5, 2, 2) == FpPoly(5, (2, 1))  # y + 2
    poly = tail_polynomial_double(5, 2, 2)
    # y^2 (y-1)^2 (y+2) differentiates to y(y-1) mod 5
    assert poly.derivative() == FpPoly(5, (0, -1, 1))
    profile = ramification_profile(poly)
    assert sorted(profile.finite_points) == [(0, 2), (1, 2)]
    assert profile.wild_at_infinity


def test_tail_polynomial_double_derivative_shape():
    poly = tail_polynomial_double(7, 2, 3)
    target = FpPoly.monomial(7, 1) * FpPoly(7, (1, -2, 1))  # y (y-1)^2
    quot, rem = divmod(poly.derivative(), target)
    assert rem.is_zero() and quot.degree() == 0 and not quot.is_zero()


def test_tail_polynomial_double_degenerate_cofactor():
    # e1 + e2 = p: empty recursion, monic constant cofactor
    assert tail_polynomial_cofactor(7, 3, 4) == FpPoly.monomial(7, 0)
    poly = tail_polynomial_double(7, 3, 4)
    assert poly.degree() == 7


def test_tail_functions_refuse_large_primes_before_work():
    big = 999999999989  # the largest prime under arith.MAX_PRIME
    start = time.perf_counter()
    for build in (
        lambda: tail_polynomial_single(big, 3),
        lambda: tail_polynomial_cofactor(big, 2, 3),
        lambda: tail_polynomial_double(big, 2, 3),
        lambda: ramification_profile(FpPoly(big, (0, 1, 0, 1))),
    ):
        with pytest.raises(BoundExceededError):
            build()
    assert time.perf_counter() - start < 1
    # the largest prime under TAIL_MAX_PRIME = 1000 is accepted
    assert ramification_profile(tail_polynomial_single(997, 2)).finite_points == ((0, 2),)
    with pytest.raises(BoundExceededError):
        tail_polynomial_single(1009, 2)


def test_ramification_profile_plain_power():
    profile = ramification_profile(FpPoly.monomial(7, 3))
    assert profile.finite_points == ((0, 3),)
    assert not profile.wild_at_infinity


def test_ramification_profile_rejections():
    with pytest.raises(InvalidTypeError):
        ramification_profile(FpPoly(5, (3, 0, 0, 0, 0, 1)))  # y^5 + 3: derivative 0
    with pytest.raises(InvalidTypeError):
        # f = 2y^3 + 2y has f' = y^2 + 2, which has no roots mod 5
        ramification_profile(FpPoly(5, (0, 2, 0, 2)))
