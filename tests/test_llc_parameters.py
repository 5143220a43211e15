"""The adjoint of the tame parameter: decomposition, L-factor, conductor,
gamma at zero, centralizer and root number."""

import math
import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from itertools import product
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tame_llc import llc_parameters
from tame_llc.characters import CharacterSystem
from tame_llc.exactnum import Cyclotomic
from tame_llc.intlinalg import mat_mul
from tame_llc.llc_parameters import (
    CocycleDependent,
    adjoint_conductor,
    adjoint_decompose,
    adjoint_gamma0_abs,
    adjoint_L,
    adjoint_root_number,
    ad_character_identity,
    centralizer_order,
    frobenius_matrix,
    model_lambda,
    phi1_trace,
)
from tame_llc.ring_model import build_model
from tame_llc.tame_galois import (
    GAL_ID,
    GalElt,
    abelianization_orders,
    gal_elements,
    gal_mul,
    params_from_q,
)

from test_exactnum import turn_value

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


def faddeev_leverrier(m):
    """The ascending coefficients of det(1 - u M) by Faddeev-LeVerrier over
    Z: B_j = M B_{j-1} + c_{j-1} I and c_j = -tr(M B_j) / j, where det(x - M)
    = x^k + c_1 x^{k-1} + ... + c_k.  The oracle for the Hessenberg
    recurrence of adjoint_L's matrix route."""
    size = len(m)
    coeffs = [1]
    mb = [[0] * size for _ in range(size)]  # M B_0 = 0
    for j in range(1, size + 1):
        for i in range(size):
            mb[i][i] += coeffs[-1]
        mb = mat_mul(m, mb)
        coeffs.append(-sum(mb[i][i] for i in range(size)) // j)
    return tuple(map(Fraction, coeffs))


def _unramified(f):
    """A tuple of degree f = n, e = 1, with p prime to f."""
    return params_from_q(next(q for q in (3, 5, 7) if f % q), 1, f, 0, 2)


def test_hessenberg_recurrence_matches_faddeev_leverrier():
    for f in [*range(2, 65), 128]:
        expected = faddeev_leverrier(frobenius_matrix(f))
        assert adjoint_L(_unramified(f), "matrix") == expected, f


@given(st.integers(2, 9), st.data())
@settings(max_examples=60)
def test_hessenberg_recurrence_on_any_lower_hessenberg_matrix(f, data):
    # the recurrence reads M's entries, so any lower Hessenberg M in place
    # of the Frobenius matrix gives its own det(1 - u M)
    m = [[data.draw(st.integers(-3, 3)) if j <= i + 1 else 0 for j in range(f - 1)]
         for i in range(f - 1)]
    with mock.patch.object(llc_parameters, "frobenius_matrix", lambda f: m):
        assert adjoint_L(_unramified(f), "matrix") == faddeev_leverrier(m)


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
    # a gamma -> sigma gamma that sends two basis vectors to one target is
    # no monomial matrix, under -O too
    code = textwrap.dedent("""
        from tame_llc import llc_parameters
        from tame_llc.characters import CharacterSystem
        from tame_llc.exactnum import VerificationError
        from tame_llc.ring_model import build_model
        from tame_llc.tame_galois import GAL_ID, params_from_q
        assert False, "asserts are on"
        sys = CharacterSystem(build_model(params_from_q(3, 2, 1, 0, 4)))
        llc_parameters.gal_mul = lambda sigma, gamma, P: GAL_ID
        try:
            llc_parameters.phi1_trace(sys, GAL_ID, sys.M.one())
        except VerificationError as ex:
            print(ex)
    """)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "not a monomial matrix\n"


class SymbolicUnit:
    """A cyclotomic number times a product of opaque cocycle symbols."""

    def __init__(self, coef, symbols=()):
        self.coef, self.symbols = coef, tuple(symbols)

    def __mul__(self, other):
        return SymbolicUnit(self.coef * other.coef, self.symbols + other.symbols)

    def value(self):
        if self.symbols:
            raise CocycleDependent(f"unresolved cocycle symbols {self.symbols}")
        return self.coef


def phi1_trace_oracle(sys, sigma, x):
    """tr phi_1(sigma, x) as the trace of a product of monomial matrices,
    each stored as gamma -> (image of v_gamma, entry): the permutation
    gamma -> sigma gamma with opaque entries alpha(sigma, gamma) (1 at
    sigma = 1), times the diagonal theta-tilde(x^gamma)."""
    P, one = sys.P, Cyclotomic.one()
    perm = {g: (gal_mul(sigma, g, P), SymbolicUnit(one) if sigma == GAL_ID
                else SymbolicUnit(one, [("alpha", sigma, g)]))
            for g in gal_elements(P)}
    diag = {g: (g, SymbolicUnit(sys.theta_tilde.value_on_coords(
                sys.U.dlog(sys.M.galois_act(g, x)))))
            for g in gal_elements(P)}
    product = {}
    for g, (mid, u1) in diag.items():
        target, u2 = perm[mid]
        product[g] = (target, u2 * u1)
    total = Cyclotomic.zero()
    for g, (target, u) in product.items():
        if target == g:
            total = total + u.value()
    return total


@pytest.fixture(scope="module")
def sys_root_number_box():
    """Character system of (q=3, e=2, f=2, m=1, r=4), n = 4, from the
    benchmark's root-number box."""
    return CharacterSystem(build_model(params_from_q(3, 2, 2, 1, 4)))


def test_phi1_trace_matches_the_monomial_product(sys_ramified, sys_unramified,
                                                 sys_root_number_box):
    for sys in (sys_ramified, sys_unramified, sys_root_number_box):
        M = sys.M
        units = [M.one(), M.add(M.one(), M.pi()), M.from_gr(M.tau),
                 M.neg(M.one())]
        for sigma in gal_elements(sys.P):
            for x in units:
                assert phi1_trace(sys, sigma, x) == phi1_trace_oracle(sys, sigma, x)


def test_phi1_trace_at_a_fixed_point_off_identity_is_cocycle_dependent(
        sys_ramified, monkeypatch):
    # with sigma gamma = gamma for every pair, a sigma != 1 fixes a basis
    # vector, whose entry alpha(sigma, gamma) is never evaluated
    sys = sys_ramified
    monkeypatch.setattr(llc_parameters, "gal_mul", lambda sigma, gamma, P: gamma)
    assert phi1_trace(sys, GAL_ID, sys.M.one()) == Cyclotomic.from_rational(sys.P.n)
    for sigma in gal_elements(sys.P):
        if sigma != GAL_ID:
            with pytest.raises(CocycleDependent):
                phi1_trace(sys, sigma, sys.M.one())


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
    lam = turn_value(model_lambda(sys_ramified))
    assert lam ** 4 == Cyclotomic.one()


def test_root_number_closed_equals_assembled(sys_ramified, sys_unramified):
    for sys in (sys_ramified, sys_unramified):
        assert adjoint_root_number(sys, "closed") == adjoint_root_number(sys, "assembled")


def test_root_number_is_a_sign(sys_ramified, sys_unramified):
    for sys in (sys_ramified, sys_unramified):
        w = turn_value(adjoint_root_number(sys, "closed"))
        assert w == Cyclotomic.one() or w == -Cyclotomic.one()
