"""Tests for the exact scalar types: cyclotomics and half-power scalars.
An L-factor is a tuple of Fractions, tested with gamma_at_zero_abs in
test_local_factors."""

from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

from tame_llc.exactnum import (
    Cyclotomic,
    HalfPowerScalar,
    sqrt_as_cyclotomic,
)

orders = st.integers(1, 24)
rationals = st.fractions(min_value=-40, max_value=40, max_denominator=12)


@given(orders, st.integers(-30, 30))
def test_root_of_unity_has_exact_order(n, k):
    z = Cyclotomic.root_of_unity(n, k)
    assert z ** n == Cyclotomic.one()


@given(orders, st.integers(-30, 30), st.integers(-30, 30))
def test_roots_of_unity_multiply_by_adding_exponents(n, j, k):
    zj = Cyclotomic.root_of_unity(n, j)
    zk = Cyclotomic.root_of_unity(n, k)
    assert zj * zk == Cyclotomic.root_of_unity(n, j + k)


@given(orders, st.integers(-30, 30))
def test_conjugate_inverts_roots_of_unity(n, k):
    z = Cyclotomic.root_of_unity(n, k)
    assert z.conj() * z == Cyclotomic.one()
    assert z.inv() == z.conj()


@given(rationals, rationals, orders)
def test_rational_combinations_round_trip(a, b, n):
    x = Cyclotomic.from_rational(a) + Cyclotomic.from_rational(b) * Cyclotomic.root_of_unity(n)
    y = x - Cyclotomic.from_rational(b) * Cyclotomic.root_of_unity(n)
    assert y.is_rational()
    assert y.rational_value() == a


@given(rationals, rationals, rationals)
def test_cyclotomic_ring_axioms_on_rationals(a, b, c):
    xa, xb, xc = (Cyclotomic.from_rational(t) for t in (a, b, c))
    assert xa * (xb + xc) == xa * xb + xa * xc
    assert (xa + xb) + xc == xa + (xb + xc)
    assert xa * xb == xb * xa


@given(st.integers(1, 40))
def test_sqrt_squares_back(n):
    s = sqrt_as_cyclotomic(n)
    assert s * s == Cyclotomic.from_rational(n)


def test_sqrt_two_is_the_eighth_root_combination():
    z8 = Cyclotomic.root_of_unity(8)
    assert sqrt_as_cyclotomic(2) == z8 + z8.conj()


@given(st.sampled_from([3, 5, 7, 9, 25]), st.integers(-6, 6), st.integers(-6, 6))
def test_half_power_scalar_multiplies_exponents(q, h1, h2):
    x = HalfPowerScalar(Cyclotomic.one(), h1, q) * HalfPowerScalar(Cyclotomic.one(), h2, q)
    assert x == HalfPowerScalar(Cyclotomic.one(), h1 + h2, q)


@given(st.sampled_from([3, 5, 7]), st.integers(-4, 4))
def test_even_half_powers_are_exact_rationals(q, h):
    x = HalfPowerScalar(Cyclotomic.one(), 2 * h, q)
    v = x.exact_value()
    assert v.is_rational()
    assert v.rational_value() == Fraction(q) ** h


def test_normalized_absorbs_rational_sqrt_content():
    # sqrt(3) * 3^{-1/2} is 1 once the half exponent is folded in
    x = HalfPowerScalar(sqrt_as_cyclotomic(3), -1, 3)
    assert x.normalized() == HalfPowerScalar.one(3)
    assert x.root_number() == Cyclotomic.one()


def test_root_number_has_modulus_one():
    g = HalfPowerScalar(Cyclotomic.root_of_unity(12) * sqrt_as_cyclotomic(3), -1, 3)
    w = g.root_number()
    assert w * w.conj() == Cyclotomic.one()
