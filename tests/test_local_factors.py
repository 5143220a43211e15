"""Local L-, epsilon- and lambda-factors, and the Weil-Deligne assembly
for the principal parameter."""

from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tame_llc.exactnum import Cyclotomic, PoleAtPoint, VerificationError
from tame_llc.intlinalg import hnf_row
from tame_llc.local_factors import (
    BruteForceUnsupported,
    _ad_blocks,
    _degree_positions,
    _rank_lower_bound,
    gamma_at_zero_abs,
    induced_factor,
    lambda_tame,
    model_lambda,
    principal_descriptor,
    principal_triple,
    sym_pairing,
    sym_pairing_check,
    wd_factors,
)
from tame_llc.llc_parameters import twist_conductor_predicted
from tame_llc.tame_galois import GAL_ID, order_two_set

from test_intlinalg import _rank_over_q, left_kernel_basis


# -- lambda factors ---------------------------------------------------------

@pytest.mark.parametrize("p,d,e", [
    (3, 1, 2), (5, 1, 2), (7, 1, 2), (5, 1, 4), (13, 1, 4),
    (3, 2, 2), (3, 2, 4), (3, 2, 8), (5, 2, 2), (7, 1, 3), (7, 1, 6),
])
def test_lambda_closed_form_equals_inductivity_quotient(p, d, e):
    for u0_log in (0, 1):
        closed = lambda_tame(p, d, e, u0_log, "closed")
        brute = lambda_tame(p, d, e, u0_log, "bruteforce")
        assert closed == brute


def test_lambda_of_odd_degree_is_trivial():
    assert lambda_tame(3, 1, 1, 0) == Cyclotomic.one()
    assert lambda_tame(7, 1, 3, 1, "closed") == Cyclotomic.one()


def test_lambda_fourth_power_is_a_sign():
    lam = lambda_tame(3, 1, 2, 0)
    assert lam ** 4 == Cyclotomic.one()


def test_lambda_bruteforce_needs_a_cyclic_extension():
    with pytest.raises(BruteForceUnsupported):
        lambda_tame(3, 1, 4, 0, "bruteforce")


def lambda_unramified(Q, f):
    """lambda(K_0/F, psi) for K_0/F unramified of degree f, F with residue
    field F_Q and n(psi) = 0: eps(Ind 1) / eps(1_{K_0}), where Ind 1 is the
    sum of the f unramified characters of F sending pi to an f-th root of
    unity.  Every unramified character has eps = 1 at n(psi) = 0 (Tate,
    "Number theoretic background", Corvallis 1979, §3), so both
    factors are 1 and so is the quotient."""
    return Cyclotomic.one()


def lambda_chain(p, d, e, f, u0_log):
    """(lambda(K/F), lambda(K/K_0) * lambda(K_0/F)^e) for F < K_0 < K, with
    K_0/F unramified of degree f over residue field F_{p^d} and K/K_0
    totally ramified of degree e: the inductivity quotient over the residue
    field of K_0 against the closed forms."""
    lhs = lambda_tame(p, d * f, e, u0_log, "bruteforce")
    rhs = lambda_tame(p, d * f, e, u0_log, "closed") * lambda_unramified(p ** d, f) ** e
    return lhs, rhs


@pytest.mark.parametrize("p,d,e,f,u0", [
    (3, 1, 2, 1, 0), (3, 1, 2, 2, 1), (5, 1, 2, 2, 0), (5, 1, 4, 1, 1),
])
def test_lambda_chain_rule(p, d, e, f, u0):
    lhs, rhs = lambda_chain(p, d, e, f, u0)
    assert lhs == rhs


# -- induced factors --------------------------------------------------------

def test_induced_factor_shapes(sys_ramified, sys_unramified):
    for sys in (sys_ramified, sys_unramified):
        P = sys.P
        o2 = order_two_set(P)
        for gamma in sorted(o2.elements):
            if gamma == GAL_ID:
                continue
            w, a = induced_factor(sys, gamma, model_lambda(sys))
            assert w * w.conj() == Cyclotomic.one()
            assert a == P.f * (P.e - 1) + P.f * twist_conductor_predicted(P, gamma)


# -- the principal parameter ------------------------------------------------

@pytest.mark.parametrize("n,q,expected", [
    (2, 3, Fraction(9, 4)),
    (3, 3, Fraction(243, 13)),
    (4, 3, Fraction(19683, 40)),
    (5, 3, Fraction(4782969, 121)),
    (2, 5, Fraction(25, 6)),
    (8, 7, Fraction(378818692265664781682717625943, 960800)),
    (6, 13, Fraction(19004963774880799438801, 402234)),
])
def test_principal_gamma_at_zero(n, q, expected):
    assert principal_triple(n, q).gamma0 == expected


@pytest.mark.parametrize("n,q", [(2, 3), (3, 3), (4, 5), (6, 7)])
def test_principal_adjoint_structure(n, q):
    data = principal_triple(n, q)
    assert data.ad_eigen_exponents == tuple(range(1, n))
    assert data.a == n * (n - 1)
    # L has a simple factor (1 - q^{-k} u)^{-1} for each exponent
    l_inv = (Fraction(1),)
    for k in range(1, n):
        l_inv = tuple(c - Fraction(d, q ** k) for c, d in zip(l_inv + (0,), (0,) + l_inv))
    assert data.l_inv == l_inv


def _regular_nilpotent(n):
    return [[1 if j == i + 1 else 0 for j in range(n)] for i in range(n)]


def _dense_ad_kernel(n):
    """ker ad(N_0) from the whole n^2 x n^2 matrix of ad(N_0), in the
    coordinates E_ij -> i*n + j: the oracle of the graded kernel."""
    N0 = _regular_nilpotent(n)
    rows = []
    for i in range(n):
        for j in range(n):
            # image of E_ij under X -> N0 X - X N0, flattened
            img = [[0] * n for _ in range(n)]
            for k in range(n):
                img[k][j] += N0[k][i]
            for k in range(n):
                img[i][k] -= N0[j][k]
            rows.append([img[r][c] for r in range(n) for c in range(n)])
    return left_kernel_basis(rows)


def _dense(rows, ncols):
    return [[row.get(c, 0) for c in range(ncols)] for row in rows]


@pytest.mark.parametrize("n", range(2, 9))
def test_graded_centralizer_matches_the_dense_kernel(n):
    # the left kernels of the degree blocks, made dense and taken here by
    # Hermite forms, against the kernel of the whole matrix
    graded = []
    for d, block in _ad_blocks(_regular_nilpotent(n)).items():
        ncols = len(_degree_positions(n, d + 1))
        for v in left_kernel_basis(_dense(block, ncols)):
            flat = [0] * (n * n)
            for (i, j), c in zip(_degree_positions(n, d), v):
                flat[i * n + j] = c
            graded.append(flat)
    assert len(graded) == n
    assert hnf_row(graded)[0] == hnf_row(_dense_ad_kernel(n))[0]


@pytest.mark.parametrize("n", range(2, 9))
def test_rank_bound_of_each_block_is_its_rank(n):
    # in the graded basis the bound is exact: n - d - 1 for d >= 0 (the
    # kernel line), every row for d < 0
    for d, block in _ad_blocks(_regular_nilpotent(n)).items():
        ncols = len(_degree_positions(n, d + 1))
        rank = _rank_over_q(_dense(block, ncols))
        assert _rank_lower_bound(block) == rank == len(block) - (d >= 0)


sparse_rows = st.integers(1, 5).flatmap(lambda ncols: st.lists(
    st.dictionaries(st.integers(0, ncols - 1), st.integers(-3, 3), max_size=ncols),
    min_size=1, max_size=5).map(lambda rows: (rows, ncols)))


@given(sparse_rows)
def test_rank_lower_bound_never_exceeds_the_rank(rows_ncols):
    rows, ncols = rows_ncols
    assert _rank_lower_bound(rows) <= _rank_over_q(_dense(rows, ncols))


def test_principal_gamma_zero_against_eps_l_ratio():
    # gamma(0) = eps * L(1)/L(0) evaluated exactly, for n = 3
    data = principal_triple(3, 5)
    assert gamma_at_zero_abs(5, data.a, data.l_inv) == data.gamma0


def test_gamma_at_zero_evaluates_the_l_factor():
    # L = 1/(1 + u^2): L(1)/L(0) = P(1)/P(1/3) = 2/(10/9) = 9/5, |eps| = 3^{a/2}
    assert gamma_at_zero_abs(3, 0, (1, 0, 1)) == Fraction(9, 5)
    assert gamma_at_zero_abs(3, 2, (1, 0, 1)) == Fraction(27, 5)


def gamma_at_zero_abs_fractions(q, a, l_inv):
    """|gamma(0)| by evaluating P at u = 1 and u = 1/q in Fractions and
    taking the square root of q^a (P(1)/P(1/q))^2: the oracle of the
    integer Horner form."""
    def P(u0):
        value = Fraction(0)
        for c in reversed(l_inv):
            value = value * u0 + c
        if not value:
            raise PoleAtPoint(f"L has a pole at u = {u0}")
        return value

    square = q ** a * (P(Fraction(1)) / P(Fraction(1, q))) ** 2
    root = (isqrt(square.numerator), isqrt(square.denominator))
    if root[0] ** 2 != square.numerator or root[1] ** 2 != square.denominator:
        raise VerificationError("not a rational square: %s" % square)
    return Fraction(*root)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except PoleAtPoint as ex:
        return str(ex)
    except VerificationError:
        return VerificationError


def _times(poly, factor):
    out = [Fraction(0)] * (len(poly) + len(factor) - 1)
    for i, x in enumerate(poly):
        for j, y in enumerate(factor):
            out[i + j] += x * y
    return tuple(out)


@given(st.sampled_from([3, 5, 7, 9, 13, 25, 27]), st.integers(0, 12),
       st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=6),
                min_size=1, max_size=6),
       st.sampled_from(["none", "s=0", "s=1"]))
def test_gamma_at_zero_matches_the_fraction_oracle(q, a, l_inv, pole):
    # 1 - u vanishes at u = 1 (s = 0), 1 - q u at u = 1/q (s = 1); an odd a
    # with q not a square has no rational |eps|
    if pole != "none":
        l_inv = _times(l_inv, (1, -1) if pole == "s=0" else (1, -q))
    expected = _outcome(gamma_at_zero_abs_fractions, q, a, l_inv)
    assert _outcome(gamma_at_zero_abs, q, a, l_inv) == expected
    if pole != "none":
        assert isinstance(expected, str)


@pytest.mark.parametrize("l_inv", [(1, -3), (1, -1)], ids=["s=1", "s=0"])
def test_gamma_at_zero_raises_at_a_pole(l_inv):
    # 1 - 3u vanishes at u = 1/3 (s = 1); 1 - u vanishes at u = 1 (s = 0)
    with pytest.raises(PoleAtPoint):
        gamma_at_zero_abs(3, 0, l_inv)


# -- symmetric power pairing ------------------------------------------------

def test_sym_pairing_antidiagonal():
    n = 3
    for i in range(n + 1):
        for j in range(n + 1):
            if i + j != n:
                assert sym_pairing(n, i, j) == 0
    assert sym_pairing(n, 0, n) == -sym_pairing(n, n, 0)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_sym_pairing_invariance(n):
    one = Cyclotomic.one()
    zero = Cyclotomic.zero()
    i = Cyclotomic.root_of_unity(4)
    gs = [
        [[one, zero], [zero, one]],
        [[zero, one], [-one, zero]],
        [[i, zero], [zero, i.conj()]],
        [[one, one], [zero, one]],
    ]
    assert sym_pairing_check(n, gs)


def test_wd_assembly_of_the_principal_descriptor():
    n, q = 4, 3
    pieces = principal_descriptor(n)
    # each piece is the trivial character: a = 0, L = (1 - u)^{-1}, w = 1
    assert pieces == [(0, (1, -1), Cyclotomic.one(), 2 * k) for k in range(1, n)]
    direct = principal_triple(n, q)
    # the Steinberg parameter's eps is q^{a/2}, so its root number is 1
    assert wd_factors(pieces, q) == (direct.a, direct.l_inv, Cyclotomic.one())
