"""Galois group combinatorics for the tame parameters (p, a, e, f, m, r)."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tame_llc import tame_galois
from tame_llc.exactnum import VerificationError
from tame_llc.tame_galois import (
    GAL_ID,
    GalElt,
    InvalidParams,
    abelianization_order,
    abelianization_orders,
    commutator_subgroup,
    gal_elements,
    gal_inv,
    gal_mul,
    norm_index,
    order_two_set,
    params_from_q,
    validate_params,
    weighted_conductor_sum,
)

# oracles: the group law read literally, and the case table of the
# order-two elements that order_two_set's enumeration is checked against

def gal_pow(g, k, P):
    out = GAL_ID
    for _ in range(k):
        out = gal_mul(out, g, P)
    return out


def gal_order(g, P):
    k, h = 1, g
    while h != GAL_ID:
        h = gal_mul(h, g, P)
        k += 1
    return k


def center(P):
    els = gal_elements(P)
    return frozenset(
        g for g in els if all(gal_mul(g, h, P) == gal_mul(h, g, P) for h in els)
    )


def order_two_prediction(P):
    """(applicable, predicted): the case table of the order-two elements.

    The table for elements outside <delta> presupposes e | q^{f/2} - 1
    (needed so that the fixed field of such an element has full
    ramification index); applicable records whether that hypothesis holds.
    Outside that regime the enumeration can find extra, non-central,
    order-two elements, so nothing is asserted about the table there.
    """
    e, f, m = P.e, P.f, P.m
    applicable = f % 2 != 0 or (P.q ** (f // 2) - 1) % e == 0
    predicted = {GAL_ID}
    if P.n % 2 == 0:
        if f % 2 != 0 or (e % 2 == 0 and m % 2 != 0):
            predicted.add(GalElt(e // 2, 0))
        elif e % 2 != 0:
            if m % 2 == 0:
                predicted.add(GalElt((-m // 2) % e, f // 2))
            else:
                predicted.add(GalElt((e - m) // 2 % e, f // 2))
        else:
            # f, e, m all even
            predicted.add(GalElt(e // 2, 0))
            predicted.add(GalElt((-m // 2) % e, f // 2))
            predicted.add(GalElt(((e - m) // 2) % e, f // 2))
    return applicable, frozenset(predicted)


# a fixed pool of valid tuples covering split/ramified/twisted shapes
POOL = [
    params_from_q(3, 2, 1, 0, 4),
    params_from_q(3, 2, 1, 1, 3),
    params_from_q(3, 1, 2, 0, 2),
    params_from_q(3, 2, 2, 0, 2),
    params_from_q(3, 2, 2, 1, 3),
    params_from_q(5, 2, 1, 0, 2),
    params_from_q(5, 4, 1, 2, 3),
    params_from_q(5, 1, 3, 0, 2),
    params_from_q(7, 2, 2, 0, 2),
    params_from_q(7, 3, 1, 0, 2),
    params_from_q(7, 6, 1, 3, 2),
    params_from_q(9, 2, 1, 0, 2),
    params_from_q(9, 4, 1, 0, 3),
]


@pytest.mark.parametrize("p,a,e,f,m,r", [
    (4, 1, 1, 1, 0, 2),    # p not prime
    (2, 1, 1, 2, 0, 2),    # p even
    (3, 1, 1, 3, 0, 2),    # p divides n
    (3, 1, 3, 1, 0, 2),    # e does not divide q^f - 1 (and p | n)
    (5, 1, 3, 1, 0, 2),    # e does not divide q - 1... (3 | 4 fails)
    (3, 1, 2, 1, 2, 2),    # m out of range
    (3, 1, 2, 1, 0, 1),    # r too small
])
def test_invalid_parameters_are_rejected(p, a, e, f, m, r):
    with pytest.raises(InvalidParams):
        validate_params(p, a, e, f, m, r)


@pytest.mark.parametrize("q", [0, 1, -3, 6, 12])
def test_q_that_is_not_a_prime_power_is_rejected(q):
    with pytest.raises(InvalidParams, match="not a prime power"):
        params_from_q(q, 1, 2, 0, 2)


@given(st.sampled_from(POOL), st.data())
@settings(max_examples=60)
def test_group_law(P, data):
    els = gal_elements(P)
    g = data.draw(st.sampled_from(els))
    h = data.draw(st.sampled_from(els))
    k = data.draw(st.sampled_from(els))
    assert gal_mul(gal_mul(g, h, P), k, P) == gal_mul(g, gal_mul(h, k, P), P)
    assert gal_mul(g, gal_inv(g, P), P) == GAL_ID
    assert gal_mul(g, GAL_ID, P) == g


def test_broken_group_law_makes_gal_inv_raise(monkeypatch):
    P = POOL[0]
    monkeypatch.setattr(tame_galois, "gal_mul", lambda g1, g2, P: GalElt(1, 0))
    with pytest.raises(VerificationError, match="group law has no inverse"):
        gal_inv(GalElt(1, 0), P)


@given(st.sampled_from(POOL), st.data())
@settings(max_examples=40)
def test_element_orders_divide_group_order(P, data):
    g = data.draw(st.sampled_from(gal_elements(P)))
    d = gal_order(g, P)
    assert P.n % d == 0
    assert gal_pow(g, d, P) == GAL_ID


@pytest.mark.parametrize("P", POOL)
def test_order_two_elements_square_to_identity(P):
    data = order_two_set(P)
    for g in data.elements:
        assert gal_mul(g, g, P) == GAL_ID
    assert GAL_ID in data.elements


@pytest.mark.parametrize("P", POOL)
def test_order_two_case_table_when_applicable(P):
    data = order_two_set(P)
    applicable, predicted = order_two_prediction(P)
    if applicable:
        assert data.elements == predicted
        assert data.elements <= center(P)


def test_case_table_hypothesis_can_fail():
    # e does not divide q^{f/2} - 1 here: the enumeration finds order-two
    # elements that the case table does not list
    P = params_from_q(5, 3, 2, 0, 2)
    applicable, predicted = order_two_prediction(P)
    assert not applicable
    assert order_two_set(P).elements != predicted


@pytest.mark.parametrize("P", POOL)
def test_abelianization_matches_commutator_quotient(P):
    assert abelianization_order(P) * len(commutator_subgroup(P)) == P.n
    for d in abelianization_orders(P):
        assert d > 1


@pytest.mark.parametrize("P", POOL)
def test_norm_index_closed_form(P):
    assert norm_index(P) == math.gcd(P.e, P.q - 1)


@pytest.mark.parametrize("P", POOL)
def test_weighted_conductor_sum(P):
    assert weighted_conductor_sum(P) == P.r * P.n * (P.n - 1)
