"""Desk-scale acceptance suite: every identity the package claims is
checked here end to end, by at least two independent routes each."""

from fractions import Fraction

import pytest

from tame_llc.characters import CharacterSystem, conductor_bruteforce, gauss_sum
from tame_llc.conjectures import (
    dim_delta,
    formal_degree_EP,
    root_number_supported,
    valid_tuples,
    verify_formal_degree,
    verify_root_number,
)
from tame_llc.exactnum import Cyclotomic, quadratic_gauss_sum_field
from tame_llc.llc_parameters import (
    adjoint_conductor,
    adjoint_L,
    centralizer_order,
    twist_conductor_predicted,
)
from tame_llc.local_factors import lambda_tame
from tame_llc.ring_model import UnitGroupPresentation, build_model
from tame_llc.tame_galois import (
    GAL_ID,
    gal_elements,
    gal_inv,
    norm_index,
    order_two_set,
    params_from_q,
)
from test_conjectures import dim_delta_orbit
from test_exactnum import turn_value
from test_llc_parameters import centralizer_order_bruteforce
from test_local_factors import lambda_chain
from test_ring_model import norm_K_F
from test_tame_galois import center, order_two_prediction

FULL_BOX = valid_tuples([3, 5, 7, 9, 11, 13], 8, [2, 3, 4, 5])


# 1. formal degree identity over the whole box, with pinned spot values
def test_formal_degree_identity_everywhere():
    assert len(FULL_BOX) == 596
    for P in FULL_BOX:
        assert verify_formal_degree(P).status == "OK", P


@pytest.mark.parametrize("tup,expected", [
    ((3, 2, 1, 0, 4), Fraction(18)),
    ((3, 1, 2, 0, 2), Fraction(3)),
    ((5, 1, 2, 0, 2), Fraction(5)),
])
def test_formal_degree_spot_values(tup, expected):
    assert formal_degree_EP(params_from_q(*tup)) == expected


# 2. conductor, by the filtration sum and by conductor-discriminant additivity
def test_adjoint_conductor_two_ways_everywhere():
    for P in FULL_BOX:
        c1 = adjoint_conductor(P, "filtration")
        c2 = adjoint_conductor(P, "additivity")
        assert c1 == c2 == P.r * P.n * (P.n - 1), P


# 3. adjoint L-factor by closed form, by summand decomposition, and by
#    the characteristic polynomial of the Frobenius permutation matrix
def test_adjoint_l_factor_three_ways():
    seen_f = set()
    for P in FULL_BOX:
        if P.f in seen_f or P.f > 6:
            continue
        seen_f.add(P.f)
        closed = adjoint_L(P, "closed")
        assert closed == adjoint_L(P, "decomposition"), P
        assert closed == adjoint_L(P, "matrix"), P
    assert seen_f >= {1, 2, 3, 4, 6}
    P = params_from_q(7, 1, 6, 0, 2)
    assert adjoint_L(P, "closed") == adjoint_L(P, "matrix")
    # the formal-degree box reaches f = 8; cover the matrix route past it
    for f in range(2, 13):
        P = params_from_q(13, 1, f, 0, 2)
        closed = adjoint_L(P, "closed")
        assert closed == adjoint_L(P, "decomposition"), P
        assert closed == adjoint_L(P, "matrix"), P


# 4. Gauss sum laws: modulus one for primitive characters, and the
#    classical square of the quadratic sum, all by literal summation
def test_gauss_sum_modulus_one(sys_ramified, sys_unramified):
    for sys in (sys_ramified, sys_unramified):
        for gamma in sorted(order_two_set(sys.P)):
            if gamma == GAL_ID:
                continue
            tw = sys.theta_tilde_twist(gamma)
            k = conductor_bruteforce(sys, tw)
            w = turn_value(gauss_sum(sys, tw, k))
            assert w * w.conj() == Cyclotomic.one()


@pytest.mark.parametrize("p,d", [(3, 1), (5, 1), (7, 1), (3, 2),
                                 (5, 2), (3, 3), (7, 2), (3, 4)])
def test_quadratic_gauss_sum_squares(p, d):
    q = p ** d
    assert quadratic_gauss_sum_field(p, d) ** 2 == (-1) ** ((q - 1) // 2)


# 5. each twist's Gauss-sum root number w(chi_gamma) against the value of
#    a character at -1, on every twist of the 28 supported tuples of q <= 7,
#    n <= 4, r in {3, 4}: w(chi_gamma) = theta-tilde(-1) for self-paired
#    gamma (Frohlich-Queyrut, Invent. Math. 20, 1973), and
#    w(chi_gamma) w(chi_gamma^-1) = chi_gamma(-1) for each pair
#    {gamma, gamma^-1}, from eps(chi) eps(chi^-1) = chi(-1)
def test_twist_root_number_against_value_at_minus_one():
    box = [P for P in valid_tuples([3, 5, 7], 4, [3, 4])
           if root_number_supported(P) is None]
    assert len(box) == 28
    for P in box:
        sys = CharacterSystem(build_model(P))
        minus_one = sys.minus_one_coords()

        def w(gamma):
            tw = sys.theta_tilde_twist(gamma)
            k = conductor_bruteforce(sys, tw)
            return turn_value(gauss_sum(sys, tw, k) + tw.value_at_uniformizer * (P.e - 1 + k))

        theta_at_minus_one = sys.theta_tilde.value_on_coords(minus_one)
        seen = {GAL_ID}
        for gamma in gal_elements(P):
            if gamma in seen:
                continue
            gamma_inv = gal_inv(gamma, P)
            seen |= {gamma, gamma_inv}
            if gamma_inv == gamma:
                assert w(gamma) == theta_at_minus_one, (P, gamma)
            else:
                chi_at_minus_one = sys.theta_tilde_twist(gamma).value_on_coords(minus_one)
                assert w(gamma) * w(gamma_inv) == chi_at_minus_one, (P, gamma)


# 6. root number identity on every supported ring-model tuple with
#    n <= 4, q <= 9, 3 <= r <= 4; the q = 9 tuples are the a = 2 cases
def test_root_number_identity_supported_box():
    tuples = [
        P for P in valid_tuples([3, 5, 7, 9], 4, [3, 4])
        if root_number_supported(P) is None
    ]
    assert len(tuples) == 36
    for P in tuples:
        assert verify_root_number(P).status == "OK", P


# 6b. the e = 3 tuples, supported from r = 8 on (l' >= 2(e - 1))
def test_root_number_identity_at_e3():
    tuples = [
        P for P in valid_tuples([3, 5, 7, 9, 11, 13], 6, [8])
        if P.e == 3 and root_number_supported(P) is None
    ]
    assert len(tuples) == 14
    for P in tuples:
        assert verify_root_number(P).status == "OK", P


# 6c. e >= 3 at r = 12: the supported tuples of n <= 4
E3_AT_R12 = ([(5, 4, 1, m) for m in range(4)] + [(7, 3, 1, m) for m in range(3)]
             + [(9, 4, 1, m) for m in range(4)] + [(13, 3, 1, m) for m in range(3)]
             + [(13, 4, 1, m) for m in range(4)])


def test_e3_at_r12_list_is_the_supported_box():
    box = [(P.q, P.e, P.f, P.m) for P in valid_tuples([3, 5, 7, 9, 11, 13], 4, [12])
           if P.e >= 3 and root_number_supported(P) is None]
    assert box == E3_AT_R12


@pytest.mark.parametrize("q,e,f,m", E3_AT_R12, ids=str)
def test_root_number_identity_at_r12(q, e, f, m):
    assert verify_root_number(params_from_q(q, e, f, m, 12)).status == "OK"


# 7. conductor breaks of the twists against the predicted e(r-1) / e(r-1)+1
def test_twist_conductor_breaks():
    tuples = [
        P for P in valid_tuples([3, 5, 7, 9], 4, [2, 3, 4])
        if P.supercuspidal_ok
    ]
    for P in tuples:
        sys = CharacterSystem(build_model(P))
        for gamma in sorted(order_two_set(P)):
            if gamma == GAL_ID:
                continue
            tw = sys.theta_tilde_twist(gamma)
            assert conductor_bruteforce(sys, tw) == \
                twist_conductor_predicted(P, gamma), (P, gamma)


# 8. dimension counts: closed form vs index computation everywhere,
#    vs a literal adjoint-orbit count at the smallest sizes
def test_dimension_counts():
    for P in FULL_BOX:
        d = dim_delta(P, "closed")
        assert d == dim_delta(P, "index"), P
        assert d.denominator == 1 and d > 0


@pytest.mark.parametrize("tup,expected", [
    ((3, 1, 2, 0, 2), Fraction(6)),
    ((5, 1, 2, 0, 2), Fraction(20)),
])
def test_dimension_orbit_bruteforce(tup, expected):
    P = params_from_q(*tup)
    assert dim_delta_orbit(P) == expected
    assert dim_delta(P, "closed") == expected


# 9. structure checks: order-two elements, norm index, centralizers
def test_order_two_elements_are_central_when_the_table_applies():
    for P in FULL_BOX:
        data = order_two_set(P)
        applicable, predicted = order_two_prediction(P)
        if applicable:
            assert data == predicted, P
            assert data <= center(P), P


@pytest.mark.parametrize("tup", [(3, 2, 1, 0, 2), (3, 1, 2, 0, 2),
                                 (5, 2, 1, 0, 2), (5, 1, 2, 0, 2),
                                 (3, 2, 2, 1, 2)])
def test_norm_index_bruteforce(tup):
    P = params_from_q(*tup)
    M = build_model(P)
    U = UnitGroupPresentation(M, P.e * P.r)
    image = {norm_K_F(M, x) for _, x in U.enumerate(P.e * P.r)}
    base_units = (P.p - 1) * P.p ** (P.r - 1)
    assert base_units % len(image) == 0
    assert base_units // len(image) == norm_index(P)


@pytest.mark.parametrize("tup", [(3, 2, 1, 0, 2), (5, 2, 1, 0, 2)])
def test_centralizer_bruteforce_small_moduli(tup):
    from tame_llc.ring_model import centralizer_bruteforce, find_beta

    P = params_from_q(*tup)
    M = build_model(P)
    beta = find_beta(M)
    assert centralizer_bruteforce(M, beta, P.r)
    assert centralizer_order_bruteforce(P) == centralizer_order(P)


# 10. lambda factors: inductivity brute force vs the closed form, and
#     the chain rule through the unramified subextension
@pytest.mark.parametrize("p,e", [(3, 2), (5, 2), (5, 4)])
def test_lambda_inductivity(p, e):
    for u0_log in (0, 1):
        assert lambda_tame(p, 1, e, u0_log, "bruteforce") == \
            turn_value(lambda_tame(p, 1, e, u0_log, "closed"))


@pytest.mark.parametrize("p,e,f", [(3, 2, 2), (5, 2, 2), (5, 4, 1)])
def test_lambda_chain_rule(p, e, f):
    for u0_log in (0, 1):
        lhs, rhs = lambda_chain(p, 1, e, f, u0_log)
        assert lhs == rhs
