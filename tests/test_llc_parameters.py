"""The adjoint of the tame parameter: decomposition, L-factor, conductor,
gamma at zero, centralizer and root number."""

import math
import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from itertools import product

import pytest

from tame_llc.exactnum import Cyclotomic
from tame_llc.llc_parameters import (
    adjoint_conductor,
    adjoint_decompose,
    adjoint_gamma0_abs,
    adjoint_L,
    adjoint_root_number,
    ad_character_identity,
    centralizer_order,
    model_lambda,
    phi1_trace,
)
from tame_llc.tame_galois import GAL_ID, GalElt, abelianization_orders, params_from_q

BOX = [
    params_from_q(q, e, f, m, r)
    for (q, e, f, m, r) in [
        (3, 2, 1, 0, 4), (3, 1, 2, 0, 2), (3, 2, 2, 1, 3), (5, 4, 1, 2, 3),
        (7, 3, 1, 0, 2), (7, 1, 3, 0, 3), (9, 2, 2, 0, 2), (7, 6, 1, 3, 2),
    ]
]


@pytest.mark.parametrize("P", BOX)
def test_adjoint_dimension(P):
    dec = adjoint_decompose(P)
    assert dec.total_dim == P.n ** 2 - 1


@pytest.mark.parametrize("P", BOX)
def test_adjoint_l_factor_three_ways(P):
    closed = adjoint_L(P, "closed")
    assert closed == adjoint_L(P, "decomposition")
    assert closed == adjoint_L(P, "matrix")


@pytest.mark.parametrize("P", BOX)
def test_adjoint_conductor_two_ways(P):
    c1 = adjoint_conductor(P, "filtration")
    c2 = adjoint_conductor(P, "additivity")
    assert c1 == c2 == P.r * P.n * (P.n - 1)


@pytest.mark.parametrize("P,expected", [
    (params_from_q(3, 2, 1, 0, 4), Fraction(81)),
    (params_from_q(3, 1, 2, 0, 3), Fraction(81, 2)),
    (params_from_q(3, 1, 2, 0, 2), Fraction(27, 2)),
    (params_from_q(5, 1, 3, 0, 2), Fraction(1171875, 31)),
])
def test_adjoint_gamma_at_zero(P, expected):
    assert adjoint_gamma0_abs(P) == expected


@pytest.mark.parametrize("P", BOX)
def test_centralizer_order_closed_form(P):
    assert centralizer_order(P) == math.gcd(P.e, P.q - 1) * P.f


def test_centralizer_check_survives_python_O():
    # under -O every assert vanishes; the cross-check must still raise
    code = textwrap.dedent("""
        from tame_llc import llc_parameters
        from tame_llc.exactnum import VerificationError
        from tame_llc.tame_galois import params_from_q
        assert False, "asserts are on"
        orig = llc_parameters.abelianization_order
        llc_parameters.abelianization_order = lambda P: orig(P) + 1
        try:
            llc_parameters.centralizer_order(params_from_q(3, 2, 1, 0, 2))
        except VerificationError:
            print("raised")
    """)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "raised\n"


def test_monomial_check_survives_python_O():
    # two basis vectors sent to one target is no monomial matrix, under -O too
    code = textwrap.dedent("""
        from tame_llc.exactnum import VerificationError
        from tame_llc.llc_parameters import MonomialMatrix, SymbolicUnit
        from tame_llc.tame_galois import GAL_ID, GalElt, abelianization_orders, params_from_q
        assert False, "asserts are on"
        P = params_from_q(3, 2, 1, 0, 2)
        one = SymbolicUnit.symbol("u")
        try:
            MonomialMatrix(P, {GAL_ID: (GAL_ID, one), GalElt(1, 0): (GAL_ID, one)})
        except VerificationError:
            print("raised")
    """)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "raised\n"


def centralizer_order_bruteforce(P):
    """Literal count of the characters of the abelianized Galois group."""
    return sum(1 for _ in product(*map(range, abelianization_orders(P))))


@pytest.mark.parametrize("tup", [(3, 2, 1, 0, 2), (3, 1, 2, 0, 2),
                                 (5, 2, 1, 0, 2), (5, 4, 1, 0, 2)])
def test_centralizer_order_bruteforce(tup):
    P = params_from_q(*tup)
    assert centralizer_order_bruteforce(P) == centralizer_order(P)


def test_parameter_trace_at_identity_counts_dimension(sys_ramified):
    sys = sys_ramified
    n = sys.P.n
    assert phi1_trace(sys, GAL_ID, sys.M.one()) == Cyclotomic.from_rational(n)


def test_parameter_trace_off_identity_component_vanishes(sys_ramified):
    sys = sys_ramified
    P = sys.P
    gamma = GalElt(1 % P.e, 0)
    if gamma != GAL_ID:
        assert phi1_trace(sys, gamma, sys.M.one()) == Cyclotomic.zero()


def test_adjoint_character_identity(sys_ramified, sys_unramified):
    """|tr phi(x)|^2 - 1 agrees with the twist-sum character of the adjoint."""
    for sys in (sys_ramified, sys_unramified):
        M = sys.M
        for x in [M.one(), M.add(M.one(), M.pi()),
                  M.from_gr(M.gr.pow(M.tau, 1))]:
            lhs, rhs = ad_character_identity(sys, x)
            assert lhs == rhs


def test_model_lambda_is_a_fourth_root(sys_ramified):
    lam = model_lambda(sys_ramified)
    assert lam ** 4 == Cyclotomic.one()


def test_root_number_closed_equals_assembled(sys_ramified, sys_unramified):
    for sys in (sys_ramified, sys_unramified):
        assert adjoint_root_number(sys, "closed") == adjoint_root_number(sys, "assembled")


def test_root_number_is_a_sign(sys_ramified, sys_unramified):
    for sys in (sys_ramified, sys_unramified):
        w = adjoint_root_number(sys, "closed")
        assert w == Cyclotomic.one() or w == -Cyclotomic.one()
