"""Both sides of the two identities, dimension counts and sweeps."""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tame_llc import llc_parameters
from tame_llc.conjectures import (
    dim_delta,
    formal_degree_EP,
    root_number_supported,
    sweep_report,
    valid_tuples,
    verify_formal_degree,
    verify_root_number,
)
from tame_llc.ring_model import build_model, find_beta, regular_rep_matrix
from tame_llc.tame_galois import norm_index, params_from_q


def dim_delta_orbit(P):
    """dim_delta by a literal count of the adjoint SL_2(F_q)-orbit of the
    residue of beta in sl_2(F_q), for n = 2 and prime q."""
    assert P.n == 2 and P.a == 1
    q = P.q
    M = build_model(P)
    B = [[x % q for x in row] for row in regular_rep_matrix(M, find_beta(M), 1)]
    assert (B[0][0] + B[1][1]) % q == 0  # the stored representative is traceless

    def mul(A, C):
        return tuple(
            tuple(sum(A[i][k] * C[k][j] for k in range(2)) % q for j in range(2))
            for i in range(2)
        )

    orbit = set()
    for a, b, c, d in product(range(q), repeat=4):
        if (a * d - b * c) % q == 1:
            g, ginv = ((a, b), (c, d)), ((d, -b % q), (-c % q, a))
            orbit.add(mul(mul(g, B), ginv))
    return Fraction(len(orbit) * q ** ((P.r - 2) * P.n * (P.n - 1) // 2))


def dim_delta_fractions(P, method):
    """dim_delta as a product of Fractions (1 - q^{-k}), reduced at every
    step: the oracle of the form over one integer denominator."""
    q, n, r, f = P.q, P.n, P.r, P.f
    ni = norm_index(P)
    if method == "closed":
        out = Fraction(q ** (r * n * (n - 1) // 2))
        for k in range(1, n + 1):
            out *= 1 - Fraction(1, q ** k)
        out /= (1 - Fraction(1, q ** f)) * ni
        return out
    sl = Fraction(q ** (n * n - 1))
    for k in range(2, n + 1):
        sl *= 1 - Fraction(1, q ** k)
    g_beta = ni * q ** (n - 1) * (1 - Fraction(1, q ** f)) / (1 - Fraction(1, q))
    omega = sl / g_beta
    return omega * q ** ((r - 2) * n * (n - 1) // 2)


def formal_degree_fractions(P):
    """(counted, closed) formal degree as products of Fractions: the oracle
    of both sides of formal_degree_EP."""
    q, n = P.q, P.n
    den = Fraction(q ** (n * (n - 1) // 2))
    for k in range(1, n):
        den *= 1 - Fraction(1, q ** k)
    counted = dim_delta_fractions(P, "index") / den
    closed = (
        Fraction(q ** ((P.r - 1) * n * (n - 1) // 2))
        * (1 - Fraction(1, q ** n))
        / (norm_index(P) * (1 - Fraction(1, q ** P.f)))
    )
    return counted, closed


# every valid tuple of n <= 8 and r <= 9 over these q, squares among them
RANDOM_BOX = valid_tuples([3, 5, 7, 9, 11, 13, 25, 27], 8, range(2, 10))


@given(st.sampled_from(RANDOM_BOX))
def test_dimension_matches_the_fraction_oracle(P):
    for method in ("closed", "index"):
        assert dim_delta(P, method) == dim_delta_fractions(P, method)


@given(st.sampled_from(RANDOM_BOX))
def test_formal_degree_matches_the_fraction_oracle(P):
    counted, closed = formal_degree_fractions(P)
    assert counted == closed == formal_degree_EP(P)


@pytest.mark.parametrize("tup,expected", [
    ((3, 2, 1, 0, 4), Fraction(36)),
    ((3, 1, 2, 0, 2), Fraction(6)),
    ((5, 1, 2, 0, 2), Fraction(20)),
])
def test_dimension_spot_values(tup, expected):
    P = params_from_q(*tup)
    assert dim_delta(P, "closed") == expected
    assert dim_delta(P, "index") == expected


@pytest.mark.parametrize("tup", [(3, 2, 1, 0, 2), (5, 1, 2, 0, 2)])
def test_dimension_orbit_bruteforce(tup):
    P = params_from_q(*tup)
    assert dim_delta_orbit(P) == dim_delta(P, "closed")


def test_root_number_skips_below_supported_depth():
    res = verify_root_number(params_from_q(3, 2, 1, 0, 2))
    assert res.status.startswith("SKIP")
    assert root_number_supported(params_from_q(3, 2, 1, 0, 2)) is not None


def test_root_number_on_the_two_reference_tuples():
    # the tuples of the sys_ramified and sys_unramified fixtures
    for tup in [(3, 2, 1, 0, 4), (3, 1, 2, 0, 3)]:
        assert verify_root_number(params_from_q(*tup)).status == "OK"


def test_root_numbers_at_a_3_hold():
    # q = 27 and 125: rho is F^{-3} on the coefficients, not F^{-1}; the
    # supported tuples of n <= 4 at r = 3 all have f > 1
    box = [P for P in valid_tuples([27, 125], 4, [3]) if root_number_supported(P) is None]
    assert len(box) == 5 and all(P.a == 3 and P.f > 1 for P in box)
    assert all(verify_root_number(P).status == "OK" for P in box)


def test_valid_tuples_is_deterministic_and_valid():
    a = valid_tuples([5, 3], 4, [3, 2])
    b = valid_tuples([3, 5], 4, [2, 3])
    assert a == b
    for P in a:
        assert 2 <= P.n <= 4
        assert P.q in (3, 5)
        assert (P.q ** P.f - 1) % P.e == 0


def test_sweep_report_is_green_on_a_small_box():
    reports = list(sweep_report([3], 3, [2, 3]))
    assert reports
    assert all(rep.ok for rep in reports)
    payload = reports[0].to_json_dict()
    assert set(payload) == {"params", "checks", "paper_typo_notes"}


def _times_one_plus_u(l_inv):
    # 1/L times (1 + u), i.e. L divided by (1 + u)
    return tuple(c + d for c, d in zip(l_inv + (0,), (0,) + l_inv))


@pytest.mark.parametrize("name,perturb", [
    ("adjoint_L", lambda orig: lambda P, method="closed": _times_one_plus_u(orig(P, method))),
    ("adjoint_conductor", lambda orig: lambda P, method="filtration": orig(P, method) + 2),
], ids=["adjoint_L", "adjoint_conductor"])
def test_formal_degree_reads_the_computed_factors(monkeypatch, name, perturb):
    # a wrong L-factor or conductor of Ad(phi) must turn the identity to FAIL
    monkeypatch.setattr(llc_parameters, name, perturb(getattr(llc_parameters, name)))
    box = valid_tuples([3, 5], 4, [2, 3])
    assert box
    assert all(verify_formal_degree(P).status == "FAIL" for P in box)
