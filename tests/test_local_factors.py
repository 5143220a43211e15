"""Local L-, epsilon- and lambda-factors, and the Weil-Deligne assembly
for the principal parameter."""

import re
from fractions import Fraction
from math import gcd, isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tame_llc import local_factors
from tame_llc.exactnum import Cyclotomic, PoleAtPoint, VerificationError
from tame_llc.intlinalg import hnf_row
from tame_llc.local_factors import (
    BruteForceUnsupported,
    _ad_degree,
    _sym_matrix,
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

from test_exactnum import turn_value
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
        assert turn_value(closed) == brute


def test_lambda_of_odd_degree_is_trivial():
    assert turn_value(lambda_tame(3, 1, 1, 0)) == Cyclotomic.one()
    assert turn_value(lambda_tame(7, 1, 3, 1, "closed")) == Cyclotomic.one()


def test_lambda_fourth_power_is_a_sign():
    lam = turn_value(lambda_tame(3, 1, 2, 0))
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
    rhs = turn_value(lambda_tame(p, d * f, e, u0_log, "closed")) * lambda_unramified(p ** d, f) ** e
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
            assert turn_value(w) * turn_value(w).conj() == Cyclotomic.one()
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


# -- the block oracle: ad(N_0) built row by row, degree by degree ------------

def _degree_positions(n, d):
    """The positions (i, i + d) of gl_n of degree d, i ascending."""
    return [(i, i + d) for i in range(max(0, -d), min(n, n - d))]


def _ad_block(N0, d):
    """The block d -> d + 1 of ad(N_0) on gl_n over Z, N_0 dense, as sparse
    rows {column: nonzero entry}, rows `_degree_positions(n, d)` and
    columns `_degree_positions(n, d + 1)`; an image that leaves degree
    d + 1 raises."""
    n = len(N0)
    first = max(0, -d - 1)
    rows = []
    for i, j in _degree_positions(n, d):
        img = {}
        for k in range(n):
            if N0[k][i]:
                img[k, j] = img.get((k, j), 0) + N0[k][i]
            if N0[j][k]:
                img[i, k] = img.get((i, k), 0) - N0[j][k]
        row = {}
        for (r, c), v in img.items():
            if v:
                if c - r != d + 1:
                    raise VerificationError(
                        f"ad(N_0) sends E_{i},{j} outside degree {d + 1}")
                row[r - first] = v
        rows.append(row)
    return rows


def _ad_blocks(N0):
    """ad(N_0) as its 2n - 1 blocks d -> d + 1."""
    n = len(N0)
    return {d: _ad_block(N0, d) for d in range(1 - n, n)}


def _rank_lower_bound(rows):
    """The number of distinct last nonzero columns of sparse rows, a lower
    bound on their rank over Q."""
    return len({max(c for c, v in row.items() if v)
                for row in rows if any(row.values())})


def _powers(N0):
    """N_0^0, ..., N_0^{n-1}, dense, multiplied through the nonzero entries
    of N_0."""
    n = len(N0)
    nonzero = [(m, j, x) for m, row in enumerate(N0) for j, x in enumerate(row) if x]
    pw = [[int(i == j) for j in range(n)] for i in range(n)]
    out = []
    for _ in range(n):
        out.append(pw)
        pw = [[0] * n for _ in range(n)]
        for m, j, x in nonzero:
            for i in range(n):
                pw[i][j] += out[-1][i][m] * x
    return out


def _oracle_certificate(N0):
    """The centralizer certificate from the oracle's blocks and dense
    powers, degree by degree in `_certify_centralizer`'s order: None, or
    the message of the check that fails."""
    n = len(N0)
    powers, corank = _powers(N0), 0
    try:
        for d in range(1 - n, n):
            v = []
            if d >= 0:
                if any(x and j - i != d for i, row in enumerate(powers[d])
                       for j, x in enumerate(row)):
                    return f"N_0^{d} has an entry off its diagonal"
                v = [powers[d][i][j] for i, j in _degree_positions(n, d)]
            block = _ad_block(N0, d)
            corank += len(block) - _rank_lower_bound(block)
            if any(_image(block, v, len(_degree_positions(n, d + 1)))):
                return f"N_0^{d} is not in the kernel of ad(N_0)"
            if v and gcd(*v) != 1:
                return f"N_0^{d} is not primitive"
    except VerificationError as ex:
        return str(ex)
    if corank != n:
        return "regular nilpotent centralizer must have dimension n"
    return None


def _sparse_rows(N0):
    return [[(j, x) for j, x in enumerate(row) if x] for row in N0]


def _image(rows, v, ncols):
    out = [0] * ncols
    for x, row in zip(v, rows):
        for c, entry in row.items():
            out[c] += x * entry
    return out


def _certificate_by_degree(n, monkeypatch):
    """{d: (v, image, rank)} of each `_ad_degree` call that
    `principal_triple` makes through `_certify_centralizer`."""
    seen = {}

    def recorded(d, v, *args):
        seen[d] = (list(v),) + _ad_degree(d, v, *args)
        return seen[d][1:]

    monkeypatch.setattr(local_factors, "_ad_degree", recorded)
    principal_triple(n, 3)
    monkeypatch.undo()
    return seen


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
def test_graded_centralizer_matches_the_dense_kernel(n, monkeypatch):
    # the kernel vectors the one pass certifies, N_0^k in degree k, and the
    # left kernels of the oracle's blocks, taken by Hermite forms, each
    # against the kernel of the whole matrix
    dense = hnf_row(_dense_ad_kernel(n))[0]
    certified, graded = [], []
    for d, (v, _, _) in _certificate_by_degree(n, monkeypatch).items():
        if v:
            certified.append([0] * (n * n))
            for (i, j), c in zip(_degree_positions(n, d), v):
                certified[-1][i * n + j] = c
    for d, block in _ad_blocks(_regular_nilpotent(n)).items():
        ncols = len(_degree_positions(n, d + 1))
        for v in left_kernel_basis(_dense(block, ncols)):
            flat = [0] * (n * n)
            for (i, j), c in zip(_degree_positions(n, d), v):
                flat[i * n + j] = c
            graded.append(flat)
    assert len(certified) == len(graded) == n
    assert hnf_row(certified)[0] == hnf_row(graded)[0] == dense


@pytest.mark.parametrize("n", range(2, 9))
def test_rank_bound_of_each_block_is_its_rank(n, monkeypatch):
    # in the graded basis the bound is exact: n - d - 1 for d >= 0 (the
    # kernel line), every row for d < 0; the one pass finds the same bound
    certificate = _certificate_by_degree(n, monkeypatch)
    for d, block in _ad_blocks(_regular_nilpotent(n)).items():
        ncols = len(_degree_positions(n, d + 1))
        rank = _rank_over_q(_dense(block, ncols))
        assert certificate[d][2] == _rank_lower_bound(block) == rank == len(block) - (d >= 0)


def test_one_pass_agrees_with_the_block_oracle_up_to_n_64(monkeypatch):
    # per degree: the kernel vector is N_0^d, its image is the oracle's
    # image of it (zero), and the corank is the oracle's
    for n in range(2, 65):
        N0 = _regular_nilpotent(n)
        powers = {k: [pw[i][j] for i, j in _degree_positions(n, k)]
                  for k, pw in enumerate(_powers(N0))}
        certificate = _certificate_by_degree(n, monkeypatch)
        blocks = _ad_blocks(N0)
        assert sorted(certificate) == sorted(blocks) == list(range(1 - n, n))
        coranks = 0
        for d, block in blocks.items():
            v, image, rank = certificate[d]
            ncols = len(_degree_positions(n, d + 1))
            assert v == powers.get(d, [])
            assert image == _image(block, v, ncols) == [0] * ncols
            assert len(block) - rank == len(block) - _rank_lower_bound(block) == (d >= 0)
            coranks += len(block) - rank
        assert coranks == n


sparse_rows = st.integers(1, 5).flatmap(lambda ncols: st.lists(
    st.dictionaries(st.integers(0, ncols - 1), st.integers(-3, 3), max_size=ncols),
    min_size=1, max_size=5).map(lambda rows: (rows, ncols)))


@given(sparse_rows)
def test_rank_lower_bound_never_exceeds_the_rank(rows_ncols):
    rows, ncols = rows_ncols
    assert _rank_lower_bound(rows) <= _rank_over_q(_dense(rows, ncols))


# c 1 + the superdiagonal a, plus up to two entries anywhere: of degree
# one or close to it, so that each check of the certificate can fail
near_degree_one = st.integers(2, 5).flatmap(lambda n: st.tuples(
    st.integers(-2, 2), st.lists(st.integers(-2, 2), min_size=n - 1, max_size=n - 1),
    st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(-2, 2)),
             max_size=2)))


def _near_degree_one_matrix(c, a, extra):
    n = len(a) + 1
    N0 = [[c if i == j else a[i] if j == i + 1 else 0 for j in range(n)] for i in range(n)]
    for i, j, x in extra:
        N0[i][j] += x
    return N0


@given(near_degree_one, st.data())
def test_one_pass_matches_the_blocks_near_degree_one(c_a_extra, data):
    # up[i] = N_0[i-1][i] and right[j] = N_0[j][j+1], or None where column
    # i or row j has a nonzero entry off the diagonal and superdiagonal
    N0 = _near_degree_one_matrix(*c_a_extra)
    n = len(N0)
    up = [None if any(N0[k][i] for k in range(n) if k not in (i - 1, i))
          else N0[i - 1][i] if i else 0 for i in range(n)]
    right = [None if any(N0[j][k] for k in range(n) if k not in (j, j + 1))
             else N0[j][j + 1] if j + 1 < n else 0 for j in range(n)]
    diag = [N0[i][i] for i in range(n)]
    for d in range(1 - n, n):
        rows = len(_degree_positions(n, d))
        v = data.draw(st.lists(st.integers(-3, 3), min_size=rows, max_size=rows))
        try:
            block = _ad_block(N0, d)
        except VerificationError as ex:
            with pytest.raises(VerificationError, match=f"^{re.escape(str(ex))}$"):
                _ad_degree(d, v, diag, up, right)
            continue
        ncols = len(_degree_positions(n, d + 1))
        image, rank = _ad_degree(d, v, diag, up, right)
        assert image == _image(block, v, ncols)
        assert rank == _rank_lower_bound(block) <= _rank_over_q(_dense(block, ncols))


@settings(max_examples=300)
@given(near_degree_one)
def test_certificate_matches_the_oracle_near_degree_one(c_a_extra):
    N0 = _near_degree_one_matrix(*c_a_extra)
    try:
        local_factors._certify_centralizer(_sparse_rows(N0))
        outcome = None
    except VerificationError as ex:
        outcome = str(ex)
    assert outcome == _oracle_certificate(N0)


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


def _sym_matrix_by_dicts(n, g):
    """Sym^n(g) on X^{n-i} Y^i, each column (aX + cY)^{n-i} (bX + dY)^i
    expanded one linear factor at a time into a dict keyed by the power
    of Y."""
    (a, b), (c, d) = g
    cols = []
    for i in range(n + 1):
        poly = {0: Cyclotomic.one()}
        for fac0, fac1 in [(a, c)] * (n - i) + [(b, d)] * i:
            nxt = {}
            for k, coef in poly.items():
                for dk, fac in ((0, fac0), (1, fac1)):
                    nxt[k + dk] = nxt.get(k + dk, Cyclotomic.zero()) + coef * fac
            poly = nxt
        cols.append([poly.get(k, Cyclotomic.zero()) for k in range(n + 1)])
    return [[cols[j][i] for j in range(n + 1)] for i in range(n + 1)]


@pytest.mark.parametrize("n", range(6))
def test_sym_matrix_matches_the_dict_expansion(n):
    one, zero = Cyclotomic.one(), Cyclotomic.zero()
    z3, i = Cyclotomic.root_of_unity(3), Cyclotomic.root_of_unity(4)
    gs = [
        [[one, zero], [zero, one]],
        [[zero, one], [-one, zero]],
        [[i, zero], [zero, i.conj()]],
        [[one, one], [zero, one]],
        [[z3 + 2, i], [z3 * Fraction(1, 2), -z3 - i]],
    ]
    for g in gs:
        assert _sym_matrix(n, g) == _sym_matrix_by_dicts(n, g), g


def test_wd_assembly_of_the_principal_descriptor():
    n, q = 4, 3
    pieces = principal_descriptor(n)
    # each piece is the trivial character: a = 0, L = (1 - u)^{-1}, w = 1
    assert pieces == [(0, (1, -1), Cyclotomic.one(), 2 * k) for k in range(1, n)]
    direct = principal_triple(n, q)
    # the Steinberg parameter's eps is q^{a/2}, so its root number is 1
    assert wd_factors(pieces, q) == (direct.a, direct.l_inv, Cyclotomic.one())
