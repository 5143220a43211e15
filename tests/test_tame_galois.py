"""Galois group combinatorics for the tame parameters (p, a, e, f, m, r)."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tame_llc import tame_galois
from tame_llc.conjectures import valid_tuples
from tame_llc.exactnum import VerificationError
from tame_llc.tame_galois import (
    GAL_ID,
    GalElt,
    InvalidParams,
    OutOfRange,
    abelianization_order,
    abelianization_orders,
    commutator_subgroup,
    filtration_data,
    gal_elements,
    gal_inv,
    gal_mul,
    norm_index,
    order_two_set,
    params_from_q,
    validate_params,
    weighted_conductor_sum,
)

# oracles: the group law read literally, the enumerations that gal_inv and
# commutator_subgroup are checked against, and the case table of the
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


def gal_inv_scan(g, P):
    """The inverse of g, by a scan of the whole group."""
    return next(h for h in gal_elements(P) if gal_mul(g, h, P) == GAL_ID)


def commutator_closure(P):
    """[Gamma, Gamma], the closure under products of all (ef)^2 commutators."""
    inv = {g: gal_inv_scan(g, P) for g in gal_elements(P)}
    gens = {gal_mul(gal_mul(g, h, P), gal_mul(inv[g], inv[h], P), P)
            for g in inv for h in inv}
    sub, frontier = {GAL_ID}, set(gens)
    while frontier:
        frontier = {gal_mul(x, y, P) for x in frontier for y in gens} - sub
        sub |= frontier
    return frozenset(sub)


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
    # e does not divide q - 1: Gamma is not abelian
    params_from_q(3, 4, 2, 0, 2),
    params_from_q(3, 4, 2, 2, 2),
    params_from_q(5, 3, 2, 0, 2),
    params_from_q(7, 4, 2, 2, 2),
]


def test_pool_has_a_nonabelian_gamma():
    assert max(len(commutator_subgroup(P)) for P in POOL) > 1


@pytest.mark.parametrize("q", [3, 5, 7, 9, 11, 13, 25, 27])
def test_presentation_matches_enumeration(q):
    box = valid_tuples([q], 12, [2])
    assert box
    for P in box:
        for g in gal_elements(P):
            assert gal_inv(g, P) == gal_inv_scan(g, P), (P, g)
        assert commutator_subgroup(P) == commutator_closure(P), P


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


def weighted_conductor_sum_fractions(P):
    """The conductor sum with each term divided by |V_0| = e q^{nr}(1 - q^{-f})
    as a Fraction: the oracle of the sum over one denominator."""
    q, f = P.q, P.f
    v0 = Fraction(P.e * q ** (P.n * P.r)) * (1 - Fraction(1, q ** f))
    fix0 = filtration_data(P, 0)[1]
    total = Fraction(P.n * P.n - 1 - fix0)
    for k in range(1, P.e * P.r + 1):
        size, fixdim = filtration_data(P, k)
        count = q ** (f * k) - q ** (f * (k - 1))
        total += count * (P.n * P.n - 1 - fixdim) * Fraction(size, v0)
    return total


@given(st.sampled_from(valid_tuples([3, 5, 7, 9, 11, 13, 25, 27], 8, range(2, 10))))
def test_weighted_conductor_sum_matches_the_fraction_oracle(P):
    assert weighted_conductor_sum(P) == weighted_conductor_sum_fractions(P)


def conductor_sum_over_t(P):
    """The conductor sum read literally: one term per t in 0..q^{fer} - 1,
    whose range k is the least k with t <= q^{fk} - 1."""
    big_q = P.q ** P.f
    v0 = filtration_data(P, 0)[0]
    total, k = 0, 0
    for t in range(big_q ** (P.e * P.r)):
        while t > big_q ** k - 1:
            k += 1
        size, fixdim = filtration_data(P, k)
        total += size * (P.n * P.n - 1 - fixdim)
    return Fraction(total, v0)


SMALL_FILTRATIONS = [P for P in valid_tuples([3, 5, 7, 9], 6, [2, 3])
                     if P.q ** (P.f * P.e * P.r) <= 20_000]


def test_small_filtration_box():
    assert len(SMALL_FILTRATIONS) == 22


@pytest.mark.parametrize("P", SMALL_FILTRATIONS)
def test_weighted_conductor_sum_matches_the_sum_over_t(P):
    assert weighted_conductor_sum(P) == conductor_sum_over_t(P)


@pytest.mark.parametrize("P", POOL[:3])
def test_filtration_range_outside_the_filtration_is_refused(P):
    for k in (-1, P.e * P.r + 1):
        with pytest.raises(OutOfRange):
            filtration_data(P, k)
