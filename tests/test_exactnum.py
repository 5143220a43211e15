"""Tests for the exact scalar types: cyclotomic numbers, square roots of
integers and the unit part of a Gauss sum, and for mul_power, the one
power ladder.  An L-factor is a tuple of Fractions, tested with
gamma_at_zero_abs in test_local_factors."""

import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tame_llc.exactnum import (
    Cyclotomic,
    VerificationError,
    mul_power,
    sqrt_as_cyclotomic,
    unit_part,
)
from tame_llc.ring_model import GaloisRing, build_model
from tame_llc.tame_galois import params_from_q

orders = st.integers(1, 24)
rationals = st.fractions(min_value=-40, max_value=40, max_denominator=12)


def turn_value(turn):
    """The root of unity that a fraction of a turn names, through the one
    edge helper, to compare with a Cyclotomic oracle: Cyclotomic.__eq__
    reads a Fraction as a rational number, not as a turn."""
    return Cyclotomic.root_of_unity(turn.denominator, turn.numerator)


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


def test_negative_powers_are_refused():
    with pytest.raises(ValueError, match="negative exponent"):
        Cyclotomic.root_of_unity(4) ** -1


def _ladder_rings():
    """(name, mul, one, g) for ints mod 1001, Q(zeta_12), GR(5^3, 2) and
    the model ring of (3, 2, 1, 0, 4)."""
    gr = GaloisRing(5, 3, 2)
    M = build_model(params_from_q(3, 2, 1, 0, 4))
    return [
        ("int", lambda x, y: x * y % 1001, 1, 17),
        ("cyclotomic", Cyclotomic.__mul__, Cyclotomic.one(),
         Cyclotomic.root_of_unity(12, 5) + Fraction(1, 3)),
        ("galois_ring", gr.mul, gr.one, (7, 11)),
        ("model", M.mul, M.one(), M.add(M.from_gr(M.tau), M.pi())),
    ]


LADDER_RINGS = _ladder_rings()


def _naive_power(mul, one, g, n):
    out = one
    for _ in range(n):
        out = mul(out, g)
    return out


@pytest.mark.parametrize("ring", LADDER_RINGS, ids=[r[0] for r in LADDER_RINGS])
def test_mul_power_is_the_naive_product(ring):
    _, mul, one, g = ring
    squares = [g]
    acc = mul(g, g)
    for n in list(range(21)) + [37, 64]:
        naive = _naive_power(mul, one, g, n)
        assert mul_power(mul, one, squares, n, one) == naive, n
        assert mul_power(mul, acc, squares, n, one) == mul(acc, naive), n
    assert len(squares) == 7  # g, g^2, ..., g^64


@pytest.mark.parametrize("ring", LADDER_RINGS, ids=[r[0] for r in LADDER_RINGS])
def test_mul_power_returns_acc_at_zero_and_refuses_negative_exponents(ring):
    _, mul, one, g = ring
    acc = mul(g, g)
    assert mul_power(mul, acc, [g], 0, one) is acc
    assert mul_power(mul, one, [g], 0, one) is one
    with pytest.raises(ValueError, match="negative exponent"):
        mul_power(mul, one, [g], -1, one)


@pytest.mark.parametrize("ring", LADDER_RINGS, ids=[r[0] for r in LADDER_RINGS])
def test_mul_power_shares_its_squares_in_any_order(ring):
    _, mul, one, g = ring
    exps = list(range(40)) + [63, 64, 65, 100]
    fresh = {n: mul_power(mul, one, [g], n, one) for n in exps}
    for seed in range(3):
        random.Random(seed).shuffle(exps)
        squares = [g]
        for n in exps:
            assert mul_power(mul, one, squares, n, one) == fresh[n], (seed, n)


def test_cyclotomic_is_unhashable():
    # equal values stored at different orders must not hash apart
    assert Cyclotomic.root_of_unity(3) == Cyclotomic.root_of_unity(3).embed(6)
    with pytest.raises(TypeError):
        hash(Cyclotomic.one())


@given(st.sampled_from([2, 3, 5, 7, 9, 25]), st.integers(0, 6), orders, st.integers(0, 23))
def test_unit_part_divides_out_the_half_power(q, k, n, j):
    z = Cyclotomic.root_of_unity(n, j)
    assert unit_part(z * sqrt_as_cyclotomic(q) ** k, k, q) == z


def test_unit_part_absorbs_rational_sqrt_content():
    # sqrt(3) * 3^{-1/2} is 1
    assert unit_part(sqrt_as_cyclotomic(3), 1, 3) == Cyclotomic.one()


def test_root_number_has_modulus_one():
    z = Cyclotomic.root_of_unity(12)
    w = unit_part(z * sqrt_as_cyclotomic(3), 1, 3)
    assert w == z
    assert w * w.conj() == Cyclotomic.one()


@pytest.mark.parametrize("k", [0, 1, 3])
def test_unit_part_refuses_other_moduli(k):
    # 3^{(k+1)/2} times 3^{-k/2} has modulus sqrt(3)
    with pytest.raises(VerificationError, match="modulus 1"):
        unit_part(sqrt_as_cyclotomic(3) ** (k + 1), k, 3)


def test_modulus_check_survives_python_O():
    code = textwrap.dedent("""
        from tame_llc.exactnum import Cyclotomic, VerificationError, unit_part
        assert False, "asserts are on"
        try:
            unit_part(Cyclotomic.from_rational(5), 1, 5)
        except VerificationError as ex:
            print(ex)
    """)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "a sum times 5^(-1/2) does not have modulus 1\n"
