"""The explicit ring model R = coefficient ring with a tame uniformizer pi,
its Galois action, and unit-group presentations."""

import os
import random
import re
import subprocess
import sys
import textwrap
import time
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tame_llc import intlinalg, ring_model
from tame_llc.conjectures import root_number_supported, valid_tuples
from tame_llc.exactnum import TooLarge, VerificationError, _factorize
from tame_llc.intlinalg import SubgroupPresentation, kernel_subgroup
from tame_llc.ring_model import (
    MAX_BABY_STEPS,
    GaloisRing,
    Model,
    UnitGroupPresentation,
    _base_p_digits,
    _fp_irreducible,
    _fp_poly_mulmod,
    _least_irreducible,
    build_model,
    centralizer_bruteforce,
    find_beta,
    kernel_of_norm,
    one_unit_order,
    regular_rep_matrix,
    residue_generator,
    symplectic_check,
)
from tame_llc.tame_galois import GAL_ID, GalElt, gal_elements, norm_index, params_from_q
from test_intlinalg import smith_over_z
from test_mutations import _root_number_box

RINGS = [(3, 2, 1), (3, 2, 2), (5, 2, 1), (5, 3, 2), (7, 2, 2), (3, 4, 3)]


@pytest.fixture(scope="module", params=[(3, 2, 1, 0, 4), (3, 1, 2, 0, 3),
                                        (5, 2, 1, 0, 3), (3, 2, 2, 1, 2)])
def model(request):
    return build_model(params_from_q(*request.param))


@given(st.sampled_from(RINGS), st.data())
@settings(max_examples=60)
def test_galois_ring_axioms(prd, data):
    gf = GaloisRing(*prd)
    p, r, d = prd

    def rand():
        return tuple(data.draw(st.integers(0, p ** r - 1)) for _ in range(d))

    x, y, z = rand(), rand(), rand()
    assert gf.mul(x, gf.add(y, z)) == gf.add(gf.mul(x, y), gf.mul(x, z))
    assert gf.mul(x, y) == gf.mul(y, x)
    assert gf.sub(gf.add(x, y), y) == x


# -- the absolute Frobenius F as the oracle for rho and for the trace ---------

def _teichmuller(gf, x):
    """The Teichmuller element congruent to x mod p: x^{q_K^r} = x^{(p^r)^d}."""
    return gf.pow(x, gf.mod ** gf.d)


def _digits(gf, x):
    """The Teichmuller digits t_i of x = sum p^i t_i, each taken by a power."""
    out, ppow = [], 1
    while ppow < gf.mod:
        t = _teichmuller(gf, x)
        diff = gf.sub(x, t)
        assert not gf.is_unit(diff)
        out.append(t)
        x = tuple(a // gf.p for a in diff)
        ppow *= gf.p
    return out


def _frobenius_matrix(gf):
    """Columns F(x)^b of F, which raises each Teichmuller digit to the p-th
    power: F(x) = sum p^i t_i^p over the digits t_i of x."""
    if gf.d == 1:
        return [gf.one]
    fx = gf.zero
    for i, t in enumerate(_digits(gf, gf._x_powers[1])):
        fx = gf.add(fx, gf.scalar(gf.p ** i, gf.pow(t, gf.p)))
    return [gf.pow(fx, b) for b in range(gf.d)]


def _frobenius(gf, x, k=1, cols=None):
    """F^k(x) by the Frobenius matrix, applied k mod d times."""
    cols = cols or _frobenius_matrix(gf)
    for _ in range(k % gf.d):
        x = tuple(sum(xb * col[i] for xb, col in zip(x, cols)) % gf.mod
                  for i in range(gf.d))
    return x


@given(st.sampled_from(RINGS), st.data())
@settings(max_examples=30)
def test_frobenius_is_a_ring_map_of_order_d(prd, data):
    gf = GaloisRing(*prd)
    p, r, d = prd
    x = tuple(data.draw(st.integers(0, p ** r - 1)) for _ in range(d))
    y = tuple(data.draw(st.integers(0, p ** r - 1)) for _ in range(d))
    cols = _frobenius_matrix(gf)

    def frob(z):
        return _frobenius(gf, z, 1, cols)

    assert frob(gf.mul(x, y)) == gf.mul(frob(x), frob(y))
    assert frob(gf.add(x, y)) == gf.add(frob(x), frob(y))
    z = x
    for _ in range(d):
        z = frob(z)
    assert z == x


@pytest.mark.parametrize("prd", RINGS)
def test_teichmuller_is_multiplicative_torsion(prd):
    gf = GaloisRing(*prd)
    p, r, d = prd
    q = p ** d
    for code in [1, 2, min(q - 1, 5)]:
        coeffs = tuple(_base_p_digits(code, p, d))
        t = _teichmuller(gf, coeffs)
        assert gf.pow(t, q - 1) == gf.one
        assert gf.residue(t) == gf.residue(coeffs)
        # F raises a Teichmuller element to the p-th power
        assert _frobenius(gf, t) == gf.pow(t, p)


@given(st.sampled_from(RINGS), st.data())
@settings(max_examples=30)
def test_trace_is_additive_and_frobenius_invariant(prd, data):
    gf = GaloisRing(*prd)
    p, r, d = prd
    x = tuple(data.draw(st.integers(0, p ** r - 1)) for _ in range(d))
    y = tuple(data.draw(st.integers(0, p ** r - 1)) for _ in range(d))
    mod = p ** r
    assert gf.trace_abs(gf.add(x, y)) == (gf.trace_abs(x) + gf.trace_abs(y)) % mod
    assert gf.trace_abs(_frobenius(gf, x)) == gf.trace_abs(x)


# (p, a, f, r) with q_K = p^{af} <= 3^9, and the model of its first valid
# tuple (p^a, e, f, 0, r), e = 1 or, at f = 1, e = 2; d = af = 1 included
RHO_CASES = [(p, a, f, r) for p in (3, 5, 7) for a in (1, 2, 3) for f in (1, 2, 3, 4)
             for r in (2, 3) if p ** (a * f) <= 3 ** 9 and f % p]
_RHO_MODELS = {}


def _rho_model(case):
    if case not in _RHO_MODELS:
        p, a, f, r = case
        _RHO_MODELS[case] = build_model(params_from_q(p ** a, 1 + (f == 1), f, 0, r))
    return _RHO_MODELS[case]


def test_rho_cases_cover_a_up_to_3_and_d_1():
    assert {a for _, a, _, _ in RHO_CASES} == {1, 2, 3}
    assert any(a * f == 1 for _, a, f, _ in RHO_CASES)
    assert any(a == 3 and f > 1 for _, a, f, _ in RHO_CASES)


@given(st.sampled_from(RHO_CASES), st.data())
@settings(max_examples=150, deadline=None)
def test_rho_is_the_inverse_q_frobenius_and_the_trace_sums_the_conjugates(case, data):
    # rho^j = F^{a(f-1)j} on coefficients, and Tr = sum_s F^s
    M = _rho_model(case)
    p, a, f, r = case
    gf = M.gr
    cols = _frobenius_matrix(gf)
    z = tuple(data.draw(st.integers(0, gf.mod - 1)) for _ in range(gf.d))
    j = data.draw(st.integers(0, 2 * f))
    assert M._rho_gr(z, j) == _frobenius(gf, z, a * (f - 1) * j, cols)
    conjugates = gf.zero
    for s in range(gf.d):
        conjugates = gf.add(conjugates, _frobenius(gf, z, s, cols))
    assert conjugates == gf.from_int(gf.trace_abs(z))


def test_tau_is_the_teichmuller_lift_of_the_residue_generator():
    for case in RHO_CASES[:8]:
        M = _rho_model(case)
        assert M.tau == _teichmuller(M.gr, residue_generator(M.gr)), case


# -- Rabin's irreducibility test, with the polynomial Euclid as its oracle -----

def fp_poly_gcd(a, b, p):
    """A gcd of a and b over F_p (coefficient lists, low degree first) by
    the polynomial Euclid, not made monic; [] when both are zero."""
    def trim(x):
        while x and x[-1] == 0:
            x.pop()
        return x

    a, b = trim([c % p for c in a]), trim([c % p for c in b])
    while b:
        inv = pow(b[-1], -1, p)
        while len(a) >= len(b):
            c = a[-1] * inv % p
            shift = len(a) - len(b)
            for j, bj in enumerate(b):
                a[shift + j] = (a[shift + j] - c * bj) % p
            if not trim(a):
                break
        a, b = b, a
    return a


def fp_poly_powmod(a, n, h, p):
    """a^n mod h over F_p by its own square-and-multiply loop."""
    result = [1] + [0] * (len(h) - 2)
    base = list(a)
    while n:
        if n & 1:
            result = _fp_poly_mulmod(result, base, h, p)
        base = _fp_poly_mulmod(base, base, h, p)
        n >>= 1
    return result


def rabin_by_euclid(h, p):
    """Rabin's test with a gcd per prime l | d: h of degree d is irreducible
    iff x^{p^d} = x mod h and gcd(x^{p^{d/l}} - x, h) = 1."""
    d = len(h) - 1
    if d == 1:
        return True
    x = [0, 1] + [0] * (d - 2)
    if fp_poly_powmod(x, p ** d, h, p) != x:
        return False
    for ell in _factorize(d):
        g = fp_poly_powmod(x, p ** (d // ell), h, p)
        g[1] -= 1
        if len(fp_poly_gcd(g, h, p)) != 1:
            return False
    return True


def test_rank_test_matches_the_euclid_test():
    # every monic h of degree d >= 2 over F_p, p odd, with p^d <= 3000
    checked = 0
    for p in (p for p in range(3, 55) if _factorize(p) == {p: 1}):
        d = 2
        while p ** d <= 3000:
            for code in range(p ** d):
                h = _base_p_digits(code, p, d) + [1]
                assert _fp_irreducible(h, p) == rabin_by_euclid(h, p), (p, h)
            checked += p ** d
            d += 1
    assert checked == 23560


def test_least_irreducible_matches_the_euclid_search():
    pairs = [(p, d) for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31)
             for d in range(1, 19) if p ** d <= 10 ** 9]
    assert len(pairs) == 88
    for p, d in pairs:
        least = next(h for h in (_base_p_digits(code, p, d) + [1]
                                 for code in range(p ** d))
                     if rabin_by_euclid(h, p))
        assert _least_irreducible(p, d) == least, (p, d)


# -- oracles: the schoolbook products and the coefficient-wise action --------

def _schoolbook_gr_mul(gf, x, y):
    """x y in GR(p^r, d): the convolution, then long division by the monic h."""
    d, mod, h = gf.d, gf.mod, gf.h
    conv = [0] * (2 * d - 1)
    for i, xi in enumerate(x):
        for j, yj in enumerate(y):
            conv[i + j] += xi * yj
    for k in range(2 * d - 2, d - 1, -1):
        top = conv[k]
        for j in range(d + 1):
            conv[k - d + j] -= top * h[j]
    return tuple(c % mod for c in conv[:d])


def _nested(M, x):
    d = M.gr.d
    return [tuple(x[i * d:(i + 1) * d]) for i in range(M.e)]


def _flat(blocks):
    return tuple(a for block in blocks for a in block)


def _nested_mul(M, x, y):
    """The product on the nested layout, one GR product per pair of pi^i
    coefficients, folding pi^{e+i} into c p pi^i."""
    gf, e = M.gr, M.e
    cp = gf.scalar(M.P.p, M.tau_power(M.c_exp))
    acc = [gf.zero] * e
    for i, xi in enumerate(_nested(M, x)):
        for j, yj in enumerate(_nested(M, y)):
            prod = _schoolbook_gr_mul(gf, xi, yj)
            k = i + j
            if k >= e:
                prod = _schoolbook_gr_mul(gf, prod, cp)
                k -= e
            acc[k] = gf.add(acc[k], prod)
    return _flat(acc)


def _pi_multiplier_by_frobenius(M, g):
    """g(pi)/pi as t rho(t) ... rho^{j-1}(t) zeta^i, each rho^s(t) through
    the Frobenius matrix of the Galois ring and t = tau^t_exp."""
    gf = M.gr
    t = gf.pow(M.tau, M.t_exp)
    u = gf.one
    for s in range(g.j):
        u = gf.mul(u, M._rho_gr(t, s))
    return gf.mul(u, gf.pow(M.tau_power(M.zeta_exp), g.i))


@pytest.mark.parametrize("tup", [(3, 2, 4, 1, 4), (9, 2, 2, 1, 4),
                                 (5, 4, 3, 0, 12), (13, 4, 4, 0, 12)])
def test_pi_multiplier_matches_the_frobenius_product(tup):
    # t != 1 on the first two, at f = 4 and at a = 2
    M = build_model(params_from_q(*tup))
    assert (M.t_exp % (M.P.q_K - 1) != 0) == (tup[3] == 1)
    for g in gal_elements(M.P):
        k = M.pi_multiplier(g)
        assert 0 <= k < M.P.q_K - 1, g
        assert M.tau_power(k) == _pi_multiplier_by_frobenius(M, g), g


def _coefficientwise_act(M, g, x):
    """g(x): rho^j on each pi^i coefficient, times u^i, where g(pi) = u pi."""
    gf = M.gr
    u = M.tau_power(M.pi_multiplier(g))
    out = []
    upow = gf.one
    for xi in _nested(M, x):
        out.append(_schoolbook_gr_mul(gf, M._rho_gr(xi, g.j), upow))
        upow = _schoolbook_gr_mul(gf, upow, u)
    return _flat(out)


# every (e, d, r) of the tuples q <= 11, n <= 6, r in {2, 4, 8}, q_K <= 5000,
# with its first tuple; d = 1 and e = 1 are among them
SHAPES = {}
for _P in valid_tuples([3, 5, 7, 9, 11], 6, [2, 4, 8]):
    if _P.q_K <= 5000:
        SHAPES.setdefault((_P.e, _P.a * _P.f, _P.r), _P)
_MODELS = {}


def _shape_model(shape):
    if shape not in _MODELS:
        _MODELS[shape] = build_model(SHAPES[shape])
    return _MODELS[shape]


def test_shapes_cover_both_degenerate_cases():
    assert len(SHAPES) == 42
    assert any(e == 1 for e, _, _ in SHAPES) and any(d == 1 for _, d, _ in SHAPES)


@given(st.sampled_from(sorted(SHAPES)), st.data())
@settings(max_examples=200, deadline=None)
def test_flat_product_matches_the_nested_product(shape, data):
    # 0 and p^r - 1 are drawn often: all-(p^r - 1) operands give the
    # largest slot sums
    M = _shape_model(shape)
    top = M.gr.mod - 1
    coeff = st.one_of(st.sampled_from([0, top]), st.integers(0, top))
    x, y = (tuple(data.draw(coeff) for _ in range(M.n)) for _ in range(2))
    assert M.mul(x, y) == _nested_mul(M, x, y)


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_flat_product_at_the_largest_slot_sums(shape):
    M = _shape_model(shape)
    top = (M.gr.mod - 1,) * M.n
    assert M.mul(top, top) == _nested_mul(M, top, top)
    for k in range(M.n):
        # a single top coefficient against every other one
        x = tuple(M.gr.mod - 1 if j == k else 0 for j in range(M.n))
        assert M.mul(x, top) == _nested_mul(M, x, top)


@given(st.sampled_from([(p, r, d) for p, r in [(3, 2), (5, 4), (7, 8), (11, 2)]
                        for d in range(1, 7)]), st.data())
@settings(max_examples=200, deadline=None)
def test_galois_ring_product_matches_the_schoolbook(prd, data):
    gf = GaloisRing(*prd)
    top = gf.mod - 1
    coeff = st.one_of(st.sampled_from([0, top]), st.integers(0, top))
    x, y = (tuple(data.draw(coeff) for _ in range(gf.d)) for _ in range(2))
    assert gf.mul(x, y) == _schoolbook_gr_mul(gf, x, y)


def test_galois_ring_product_past_the_int_str_limit():
    # p^r has 4,342 decimal digits: a kernel that wrote it into its source
    # would fail here
    gf = GaloisRing(3, 9100, 2)
    with pytest.raises(ValueError):
        str(gf.mod)
    rng = random.Random(9100)
    top = (gf.mod - 1,) * 2
    pairs = [(top, top)] + [(tuple(rng.randrange(gf.mod) for _ in range(2)),
                             tuple(rng.randrange(gf.mod) for _ in range(2)))
                            for _ in range(20)]
    for x, y in pairs:
        assert gf.mul(x, y) == _schoolbook_gr_mul(gf, x, y)


def _residue_generator_from_one(gr):
    """residue_generator's walk from code 1, constants included: the oracle
    for the walk that skips them at d >= 2."""
    order = gr.p ** gr.d - 1
    one = gr.residue(gr.one)
    primes = list(_factorize(order))
    for code in range(1, order + 1):
        cand = tuple(_base_p_digits(code, gr.p, gr.d))
        if all(gr.residue(gr.pow(cand, order // ell)) != one for ell in primes):
            return cand


@pytest.mark.parametrize("pd", [(3, 4), (7, 2), (11, 2), (13, 6), (10007, 2), (5, 1), (13, 1)])
def test_residue_generator_powers_no_constant(pd, monkeypatch):
    # at d >= 2 no constant can generate F_{p^d}^x, so none is powered;
    # at d = 1 the walk is the one from code 1
    p, d = pd
    gr = GaloisRing(p, 1, d)
    expected = _residue_generator_from_one(gr)
    powered = []
    pow_ = GaloisRing.pow

    def recording(self, x, n):
        powered.append(x)
        return pow_(self, x, n)

    monkeypatch.setattr(GaloisRing, "pow", recording)
    assert residue_generator(gr) == expected
    if d >= 2:
        assert powered and not any(any(x[1:]) == 0 for x in powered)


@pytest.mark.parametrize("tup", [(13, 12, 1, 0, 3), (13, 12, 2, 0, 2)],
                         ids=["n12", "n24"])
def test_large_flat_product_matches_the_nested_product(tup):
    M = build_model(params_from_q(*tup))
    assert M.n == tup[1] * tup[2]
    images = ring_model._fold_images(M.gr, M.e, M.gr.scalar(M.P.p, M.tau_power(M.c_exp)))
    builds = []
    for _ in range(3):
        start = time.perf_counter()
        ring_model._product_kernel(M.e, M.gr.d, M.gr.mod, images)
        builds.append(time.perf_counter() - start)
    assert min(builds) < 0.02
    rng = random.Random(M.n)
    top = (M.gr.mod - 1,) * M.n
    pairs = [(top, top)] + [(tuple(rng.randrange(M.gr.mod) for _ in range(M.n)),
                             tuple(rng.randrange(M.gr.mod) for _ in range(M.n)))
                            for _ in range(20)]
    for x, y in pairs:
        assert M.mul(x, y) == _nested_mul(M, x, y)


@pytest.mark.parametrize("shape", [(1, 3, 2), (2, 2, 2)])
def test_product_refuses_an_operand_of_the_wrong_length(shape):
    M = _shape_model(shape)
    one = M.one()
    for bad in (one[:-1], one + (0,)):
        with pytest.raises(ValueError):
            M.mul(bad, one)
        with pytest.raises(ValueError):
            M.mul(one, bad)
    gf_one = M.gr.one
    with pytest.raises(ValueError):
        M.gr.mul(gf_one + (0,), gf_one)


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_galois_matrices_match_the_coefficientwise_action(shape):
    M = _shape_model(shape)
    basis = [M.monomial(b, i) for i in range(M.e) for b in range(M.gr.d)]
    for g in gal_elements(M.P):
        for x in basis:
            assert M.galois_act(g, x) == _coefficientwise_act(M, g, x), (g, x)


# -- the pi-adic model ------------------------------------------------------

def test_pi_power_is_unit_times_p(model):
    M = model
    P = M.P
    pe = M.pow(M.pi(), P.e)
    assert pe == M.mul(M.from_gr(M.tau_power(M.c_exp)), M.from_int(P.p))


def test_unramified_model_is_the_galois_ring():
    # at e = 1 the search's first candidate (c, zeta, t) = (1, 1, 1) is
    # consistent, pi = c p is p, and the fold table is the Galois ring's own
    shapes = [shape for shape in sorted(SHAPES) if shape[0] == 1]
    assert len(shapes) == 12
    for shape in shapes:
        M = _shape_model(shape)
        assert (M.c_exp, M.zeta_exp, M.t_exp) == (0, 0, 0), shape
        assert M.pi() == M.from_int(M.P.p), shape
        assert M._product is M.gr._product, shape


def test_galois_action_commutes_with_multiplication(model):
    M = model
    P = M.P
    x = M.add(M.one(), M.pi())
    y = M.add(M.from_int(2), M.pow(M.pi(), 2))
    for g in gal_elements(P):
        lhs = M.galois_act(g, M.mul(x, y))
        rhs = M.mul(M.galois_act(g, x), M.galois_act(g, y))
        assert lhs == rhs


def norm_K_F(M, x):
    """N_{K/F}(x) as the product of the conjugates of x, returned as its
    GR-coefficient: the oracle for the norm matrix I + sum A_gamma of
    kernel_of_norm."""
    acc = M.one()
    for g in gal_elements(M.P):
        acc = M.mul(acc, M.galois_act(g, x))
    assert not any(acc[M.gr.d:]), "norm not in F"
    return acc[:M.gr.d]


def norm_one_subgroup(U):
    """U-bar from the Galois matrices, as CharacterSystem builds it."""
    acts = {g: U.act_matrix(g) for g in gal_elements(U.M.P) if g != GAL_ID}
    return kernel_of_norm(U, acts)


def test_norm_and_trace_land_in_the_base(model):
    M = model
    P = M.P
    x = M.add(M.one(), M.pi())
    nx = norm_K_F(M, x)
    tx = M.trace_K_F(x)
    # base elements are fixed by every Galois element, so norm is multiplicative
    y = M.add(M.from_int(1), M.pow(M.pi(), 2))
    assert norm_K_F(M, M.mul(x, y)) == M.gr.mul(nx, norm_K_F(M, y))
    assert M.trace_K_F(M.add(x, y)) == M.gr.add(tx, M.trace_K_F(y))


def trace_by_galois_sums(M, x):
    """T_{K/Q_p}(x) mod p^r through the tower: the n Galois conjugates of x
    summed to T_{K/F}(x), then GR's absolute trace, which counts each
    conjugate of an element of F f times, times f^{-1}."""
    gr = M.gr
    return gr.trace_abs(M.trace_K_F(x)) * pow(M.P.f, -1, gr.mod) % gr.mod


def test_trace_of_multiplication_matches_the_galois_sums():
    # both sides are Z/p^r-linear, so the basis monomials decide; q = 25
    # and 27 put a >= 2 in, where F is not Q_p
    rng = random.Random(5)
    tuples = valid_tuples([3, 5, 7, 9, 11, 13, 25, 27], 4, range(3, 7))
    assert len(tuples) == 312
    for P in tuples:
        M = build_model(P)
        basis = [M.monomial(b, i) for i in range(P.e) for b in range(M.gr.d)]
        x = tuple(rng.randrange(M.gr.mod) for _ in range(M.n))
        for y in basis + [x]:
            assert M.trace(y) == trace_by_galois_sums(M, y), (P, y)


def test_unit_presentation_round_trip(model):
    M = model
    P = M.P
    U = UnitGroupPresentation(M, P.e * P.r)
    total = 1
    for d in U.orders:
        total *= d
    assert total == U.order()
    # dlog and element_from_coords are mutually inverse
    for probe in [M.add(M.one(), M.pi()),
                  M.add(M.from_int(2), M.pow(M.pi(), 3)),
                  M.sub(M.zero(), M.one())]:
        w = U.dlog(probe)
        assert U.element_from_coords(w) == probe


def test_act_matrix_tracks_the_action(model):
    M = model
    P = M.P
    U = UnitGroupPresentation(M, P.e * P.r)
    gamma = GalElt(1 % P.e, 1 % P.f)
    A = U.act_matrix(gamma)
    x = M.add(M.one(), M.pi())
    w = U.dlog(x)
    moved = [
        sum(w[i] * A[i][j] for i in range(len(w))) % U.orders[j]
        for j in range(len(w))
    ]
    assert moved == U.dlog(M.galois_act(gamma, x))


def test_norm_one_subgroup_members_have_norm_one(model):
    M = model
    P = M.P
    U = UnitGroupPresentation(M, P.e * P.r)
    Ubar = norm_one_subgroup(U)
    for b in Ubar.basis:
        x = U.element_from_coords(list(b))
        assert norm_K_F(M, x) == M.gr.one


def test_norm_matrix_rows_are_the_dlogs_of_the_norms(model):
    # row k of I + sum A_gamma is U.dlog(N(h_k)), so the kernel from the
    # Galois matrices is the kernel of the product of conjugates, basis and
    # all
    M = model
    U = UnitGroupPresentation(M, M.P.e * M.P.r)
    rows = [U.dlog(M.from_gr(norm_K_F(M, h))) for h in U.inv_gens]
    oracle = SubgroupPresentation(U.orders, kernel_subgroup(U.orders, rows, U.orders))
    Ubar = norm_one_subgroup(U)
    assert (Ubar.basis, Ubar.orders) == (oracle.basis, oracle.orders)


def test_norm_kernel_is_the_whole_kernel():
    # U / U-bar is the norm image, of index norm_index(P) in the
    # (q - 1) q^{r-1} units of O_F / p^r; a = 2 (q = 9) is included
    tuples = [P for P in valid_tuples([3, 5, 7, 9], 4, [2, 3, 4]) if P.q_K <= 2000]
    assert len(tuples) == 105
    for P in tuples:
        M = build_model(P)
        U = UnitGroupPresentation(M, P.e * P.r)
        Ubar = norm_one_subgroup(U)
        assert (prod(Ubar.orders) * (P.q - 1) * P.q ** (P.r - 1)
                == U.order() * norm_index(P)), P


def test_beta_generates_and_is_regular(model):
    M = model
    beta = find_beta(M)
    B = regular_rep_matrix(M, beta, 1)
    n = M.P.n
    # the matrix of beta acting on R/pi is traceless (beta is in sl_n)
    assert sum(B[i][i] for i in range(n)) % M.P.p == 0
    if M.P.p ** (n * n) <= 10 ** 7:
        assert centralizer_bruteforce(M, beta, 1)


@pytest.mark.parametrize("tup", [(3, 2, 1, 0, 2), (5, 2, 1, 0, 2)])
def test_symplectic_pairing_is_nondegenerate(tup):
    M = build_model(params_from_q(*tup))
    ok, rank = symplectic_check(M, find_beta(M))
    assert ok


def test_brute_force_checks_refuse_a_above_one_as_a_broken_precondition():
    # q = 9 has a = 2: O_F/p is not the prime field, which these checks
    # assume; that is a wrong call, not a refused size
    M = build_model(params_from_q(9, 2, 1, 0, 2))
    assert M.P.a == 2
    beta = find_beta(M)
    for check in (lambda: symplectic_check(M, beta), lambda: regular_rep_matrix(M, beta, 1),
                  lambda: centralizer_bruteforce(M, beta, 1)):
        with pytest.raises(ValueError, match="needs a = 1"):
            check()


@pytest.mark.parametrize("tup", [(3, 1, 2, 0, 3), (3, 2, 1, 0, 4), (9, 2, 1, 0, 2),
                                 (3, 2, 2, 1, 2)])
def test_enumerate_yields_each_unit_once(tup):
    P = params_from_q(*tup)
    M = build_model(P)
    U = UnitGroupPresentation(M, P.e * P.r)
    for k in range(1, P.e * P.r + 1):
        seen = set()
        for digits, elt in U.enumerate(k):
            assert digits not in seen
            seen.add(digits)
            # the element is the product of the generators to its digits
            assert U._raw_dlog(elt) == list(digits) + [0] * (len(U.gens) - len(digits))
        assert len(seen) == (P.q_K - 1) * P.q_K ** (k - 1)


def test_generator_coordinates_are_their_dlogs(model):
    U = UnitGroupPresentation(model, model.P.e * model.P.r)
    assert U.gen_coords == [U.dlog(g) for g in U.gens]


def test_dlog_matches_the_smith_transform(monkeypatch):
    # the oracle reads raw exponents w through the exact Smith column
    # transform V of smith_over_z: coordinate j is sum_i w_i V[i][j] mod the
    # j-th invariant factor other than 1, where dlog reads them through
    # gen_coords
    smith_normal_form = ring_model.smith_normal_form
    relations = []

    def recorded(rows, modulus):
        relations.append(rows)
        return smith_normal_form(rows, modulus)

    monkeypatch.setattr(ring_model, "smith_normal_form", recorded)
    for P in _root_number_box():
        M = build_model(P)
        U = UnitGroupPresentation(M, P.e * P.r)
        s, v, _ = smith_over_z(relations[-1])
        kept = [j for j in range(len(s)) if s[j][j] != 1]
        probes = U.gens + U.inv_gens + _random_units(M, 20, seed=P.q_K + P.r)
        probes += [M.galois_act(g, h) for g in gal_elements(P) for h in U.inv_gens]
        for x in probes:
            w = U._raw_dlog(x)
            by_v = [sum(wi * v[i][j] for i, wi in enumerate(w)) % s[j][j] for j in kept]
            assert U.dlog(x) == by_v, (P, x)


@pytest.mark.parametrize("tup", [(3, 2, 1, 0, 4), (3, 4, 2, 0, 3),
                                 (5, 2, 2, 1, 5), (7, 3, 1, 0, 3)])
def test_invariant_generators_match_raw_exponents(tup, monkeypatch):
    # inv_gens reduces its exponents by orders that hold exactly in the
    # model ring, so every generator is the one the raw exponents give
    P = params_from_q(*tup)
    M = build_model(P)
    top = P.e * P.r
    relations = []
    smith_normal_form = ring_model.smith_normal_form

    def recorded(rows, modulus):
        relations.append(rows)
        return smith_normal_form(rows, modulus)

    monkeypatch.setattr(ring_model, "smith_normal_form", recorded)
    for N in range(1, top + 1):
        U = UnitGroupPresentation(M, N)
        # the exact V^{-1}: the product keeps its rows at the invariant
        # factors other than 1, modulo a multiple of U's exponent only
        s, _, vinv = smith_over_z(relations[-1])
        # tau = gens[0] is raised by tau_power, which reads a negative
        # exponent; Model.inv inverts the one-units only
        raw = []
        for k in (k for k in range(len(s)) if s[k][k] != 1):
            h = M.from_gr(M.tau_power(vinv[k][0]))
            for g, ex in zip(U.gens[1:], vinv[k][1:]):
                h = M.mul(h, M.pow(g, ex) if ex >= 0 else M.pow(M.inv(g), -ex))
            raw.append(h)
        assert U.inv_gens == raw
        # a one-unit 1 + y at level i has order dividing p^t, t the number
        # of steps of v -> min(v + e, p v) from i to er
        for g, i in zip(U.gens[1:], U.levels[1:]):
            v, t = i, 0
            while v < top:
                v, t = min(v + P.e, P.p * v), t + 1
            assert M.pow(g, P.p ** t) == M.one()


def test_unit_group_order_is_checked(model, monkeypatch):
    # the invariant factors must multiply to |U| = (q_K - 1) q_K^{N-1}, the
    # modulus the Smith transforms are kept in
    smith_normal_form = ring_model.smith_normal_form

    def doubled(rows, modulus):
        s, v, vinv = smith_normal_form(rows, modulus)
        s[-1][-1] *= 2
        return s, v, vinv

    monkeypatch.setattr(ring_model, "smith_normal_form", doubled)
    with pytest.raises(VerificationError, match="invariant factors multiply to"):
        UnitGroupPresentation(model, model.P.e * model.P.r)


def test_unit_group_transforms_stay_below_the_group_order(monkeypatch):
    # V and V^{-1} are kept modulo (q_K - 1) one_unit_order(M, 1), a
    # multiple of U's exponent; over Z they reached 15,226 and 18,145 bits
    # at (3,1,2,0,100), against 317 bits for |U| and 160 for that modulus
    P = params_from_q(3, 1, 2, 0, 100)
    N = P.e * P.r
    results = []
    smith_normal_form = ring_model.smith_normal_form

    def recorded(rows, modulus):
        results.append(smith_normal_form(rows, modulus))
        return results[-1]

    monkeypatch.setattr(ring_model, "smith_normal_form", recorded)
    M = build_model(P)
    UnitGroupPresentation(M, N)
    _, v, vinv = results[0]
    bits = ((P.q_K - 1) * one_unit_order(M, 1)).bit_length()
    assert max(abs(x).bit_length() for mat in (v, vinv) for row in mat for x in row) <= bits


@pytest.mark.parametrize("tup", [(11, 2, 2, 1, 8), (3, 2, 2, 0, 8)])
def test_unit_group_presentation_factors_once(tup, monkeypatch):
    # the SNF hands back V^{-1}, so no Hermite form is taken; and no
    # Model.pow is called, since the relation rows' p-th powers and the
    # invariant generators multiply from the shared lists of squares
    P = params_from_q(*tup)
    M = build_model(P)
    calls = {"hnf_row": 0, "pow": 0}
    hnf_row, model_pow = intlinalg.hnf_row, Model.pow

    def counting_hnf_row(mat):
        calls["hnf_row"] += 1
        return hnf_row(mat)

    def counting_pow(self, x, n):
        calls["pow"] += 1
        return model_pow(self, x, n)

    monkeypatch.setattr(intlinalg, "hnf_row", counting_hnf_row)
    monkeypatch.setattr(Model, "pow", counting_pow)
    U = UnitGroupPresentation(M, P.e * P.r)
    monkeypatch.undo()
    assert calls == {"hnf_row": 0, "pow": 0}
    # a negative coordinate is refused, never fed to the squaring loop
    with pytest.raises(ValueError):
        U.element_from_coords([0] * (len(U.orders) - 1) + [-1])


def _random_units(M, count, seed):
    rng = random.Random(seed)
    mod = M.gr.mod
    units = []
    while len(units) < count:
        x = tuple(rng.randrange(mod) for _ in range(M.e * M.gr.d))
        if M.is_unit(x):
            units.append(x)
    return units


def test_dlog_inverts_once_per_generator(monkeypatch):
    # deterministic counters of the dlog hot path, never wall time
    M = build_model(params_from_q(3, 2, 1, 0, 4))
    U = UnitGroupPresentation(M, 8)
    units = _random_units(M, 200, seed=4)
    calls = {"Model.inv": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(Model, "inv", counted("Model.inv", Model.inv))
    one_units = len(U.gens) - 1
    logs = [U.dlog(x) for x in units]
    assert calls["Model.inv"] <= one_units
    # with the tables built, no digit inverts anything
    calls["Model.inv"] = 0
    assert [U.dlog(x) for x in units] == logs
    assert calls == {"Model.inv": 0}


def _raw_dlog_multiplicative(U, x):
    """_raw_dlog with every digit divided out by a ring product, at every
    level: the oracle for the additive digits above half level."""
    M = U.M
    d, p = M.gr.d, M.P.p
    w = [0] * len(U.gens)
    w[0] = k0 = M.residue_log(x)
    cur = M.mul(x, M.from_gr(M.tau_power(-k0))) if k0 else x
    for i, off, pk, base in U._plan:
        coeff = cur[off:off + d]
        if not off:
            coeff = (coeff[0] - 1,) + coeff[1:]
        for b, a in enumerate(coeff):
            c, rest = divmod(a, pk)
            if rest:
                raise VerificationError(f"dlog: level {i} digit not divisible by p^{i // M.e}")
            c %= p
            if c:
                w[base + b] = c
                cur = M.mul(cur, U._inverse_power(base + b, c))
    if not U._is_one_mod(cur):
        raise VerificationError("dlog failed to terminate")
    return w


def test_additive_digits_match_the_multiplicative_digits(chi_data_heavy):
    # above half level a digit is subtracted from its coefficient, below
    # it divided out by a product; the all-product loop is the oracle, at
    # every level N, odd N and N < e r included
    for P in _root_number_box() + chi_data_heavy:
        M = build_model(P)
        units = _random_units(M, 3, seed=P.q_K + P.r)
        for N in range(1, P.e * P.r + 1):
            U = UnitGroupPresentation(M, N)
            probes = U.gens + U.inv_gens + units
            probes += [M.galois_act(g, h) for g in gal_elements(P) if g != GAL_ID
                       for h in U.inv_gens]
            for x in probes:
                assert U._raw_dlog(x) == _raw_dlog_multiplicative(U, x), (P, N, x)


@pytest.mark.parametrize("tup", [(3, 1, 2, 0, 3), (3, 2, 1, 0, 4), (5, 2, 2, 1, 5),
                                 (7, 3, 1, 0, 3)])
def test_undivisible_digit_above_half_level_raises(tup):
    # a level i below half level left out of the plan leaves its digit in
    # the coefficient, which level i + e, above half level, cannot divide
    P = params_from_q(*tup)
    M = build_model(P)
    levels = 0
    for N in range(3, P.e * P.r + 1):
        U = UnitGroupPresentation(M, N)
        i = (N + 1) // 2 - 1
        if i + P.e >= N:
            continue
        levels += 1
        entry = next(t for t in U._plan if t[0] == i)
        U._plan.remove(entry)
        x = U.gens[entry[3]]
        for dlog in (U._raw_dlog, lambda y: _raw_dlog_multiplicative(U, y)):
            with pytest.raises(VerificationError, match=re.escape(
                    f"dlog: level {i + P.e} digit not divisible by p^{(i + P.e) // P.e}")):
                dlog(x)
    assert levels


def test_tau_exponents_are_the_residue_logs_of_the_invariant_generators():
    # the chi-data reads each inv_gens[k]'s parity off tau_exps[k]; its
    # residue_log is the oracle, on the root-number box
    for P in _root_number_box():
        M = build_model(P)
        U = UnitGroupPresentation(M, P.e * P.r)
        assert len(U.tau_exps) == len(U.inv_gens)
        for h, t in zip(U.inv_gens, U.tau_exps):
            assert 0 <= t < P.q_K - 1
            assert M.residue_log(h) == t, P


def _root_number_box_fields():
    """One model per residue field F_{q_K} of the root-number box (the
    supported tuples of q <= 7, n <= 4, r in {3, 4})."""
    first = {}
    for P in valid_tuples([3, 5, 7], 4, [3, 4]):
        if root_number_supported(P) is None:
            first.setdefault(P.q_K, P)
    assert sorted(first) == [3, 5, 7, 9, 25, 49, 81, 125, 343, 625, 2401]
    return [build_model(P) for P in first.values()]


def test_residue_log_matches_the_power_table():
    # the oracle is the table of tau^k mod p over all k < q_K - 1
    for M in _root_number_box_fields():
        gr = M.gr
        tau = gr.residue(M.tau)
        one = cur = gr.residue(gr.one)
        table = {}
        for k in range(M.P.q_K - 1):
            table[cur] = k
            cur = gr.residue(gr.mul(cur, tau))
        assert cur == one and len(table) == M.P.q_K - 1
        for res, k in table.items():
            x = M.from_gr(res)
            assert M.residue_log(x) == k, (M.P, res)
            # only the residue counts: p and pi add nothing
            assert M.residue_log(M.add(x, M.add(M.from_int(M.P.p), M.pi()))) == k


def test_tau_power_reads_its_exponent_modulo_the_order_of_tau():
    for M in _root_number_box_fields():
        gr, L = M.gr, M.P.q_K - 1
        assert M.tau_power(L) == gr.one
        assert M.tau_power(0) == gr.one
        ks = sorted({1, 2, L - 1, L // 2, L // 3 + 1, 7 % L, 100 % L})
        for k in ks:
            assert M.tau_power(k) == gr.pow(M.tau, k), (M.P, k)
            assert M.tau_power(k + L) == M.tau_power(k) == M.tau_power(k - 3 * L)
            assert gr.mul(M.tau_power(k), M.tau_power(-k)) == gr.one, (M.P, k)
        # c and zeta_e are the powers of tau at their exponents: pi^e = c p
        # and delta(pi) = zeta_e pi
        c, zeta = gr.pow(M.tau, M.c_exp), gr.pow(M.tau, M.zeta_exp)
        assert M.pow(M.pi(), M.e) == M.from_gr(gr.scalar(M.P.p, c)), M.P
        assert M.galois_act(GalElt(1 % M.e, 0), M.pi()) == M.mul(M.from_gr(zeta), M.pi()), M.P


def test_tau_coords_match_the_dlog_of_a_power_of_tau():
    # the dlog of tau^k is the oracle, and -1 = tau^{(q_K - 1)/2}; k is read
    # modulo q_K - 1, negative k included
    for P in _root_number_box():
        M = build_model(P)
        U = UnitGroupPresentation(M, P.e * P.r)
        L = P.q_K - 1
        rng = random.Random(L)
        ks = {0, 1, -1, L // 2, L - 1, L + 2, -3 * L - 5,
              *(rng.randrange(-2 * L, 2 * L) for _ in range(5))}
        for k in sorted(ks):
            assert U.tau_coords(k) == U.dlog(M.from_gr(M.tau_power(k))), (P, k)
        assert U.tau_coords(L // 2) == U.dlog(M.sub(M.zero(), M.one())), P


def test_residue_log_of_a_non_unit_raises():
    for M in _root_number_box_fields():
        for x in (M.zero(), M.pi(), M.from_int(M.P.p)):
            with pytest.raises(VerificationError, match="residue_log of a non-unit"):
                M.residue_log(x)


_INV_MODELS = {tup: build_model(params_from_q(*tup))
               for tup in [(3, 2, 1, 0, 8), (7, 3, 1, 0, 4), (3, 1, 2, 0, 3)]}


@given(st.sampled_from(sorted(_INV_MODELS)), st.data())
@settings(max_examples=60, deadline=None)
def test_model_inv_round_trip(tup, data):
    # Model.inv inverts one-units: x = 1 + pi z for any z
    M = _INV_MODELS[tup]
    z = tuple(data.draw(st.integers(0, M.gr.mod - 1)) for _ in range(M.e * M.gr.d))
    x = M.add(M.one(), M.mul(M.pi(), z))
    y = M.inv(x)
    assert M.mul(x, y) == M.one()
    assert M.inv(y) == x


def test_model_inv_of_a_non_unit_raises():
    # a non-unit, and a unit that is not 1 mod pi, are no one-units: like
    # a negative exponent of mul_power, they raise ValueError
    for M in _INV_MODELS.values():
        for x in (M.zero(), M.pi(), M.from_int(M.P.p), M.add(M.pi(), M.from_int(M.P.p)),
                  M.from_int(2), M.from_gr(M.tau), M.sub(M.zero(), M.one())):
            with pytest.raises(ValueError, match="not a one-unit"):
                M.inv(x)


def test_baby_step_bound_is_checked_before_any_ring_is_built(monkeypatch):
    # 5^16 needs 390,625 baby steps and passes the bound, so the build
    # reaches the ring; 7^16 needs 5,764,801 and is refused before it
    class RingBuilt(Exception):
        pass

    def ring(*args):
        raise RingBuilt

    monkeypatch.setattr(ring_model, "GaloisRing", ring)
    assert 390625 <= MAX_BABY_STEPS < 5764801
    with pytest.raises(RingBuilt):
        build_model(params_from_q(5, 1, 16, 0, 3))
    with pytest.raises(TooLarge, match="residue_log needs 5764801 baby steps"):
        build_model(params_from_q(7, 1, 16, 0, 3))


def test_model_pow_refuses_a_negative_exponent():
    # like every other power, Model.pow takes n >= 0 and inverts nothing
    for M in _INV_MODELS.values():
        assert M.pow(M.one(), 0) == M.one()
        with pytest.raises(ValueError):
            M.pow(M.one(), -1)


def test_model_inv_checks_that_newton_converged(monkeypatch):
    # Newton's step read as y (3 - x y): x y = 2 mod pi after the first
    # step, so 1 - x y stays a unit
    M = build_model(params_from_q(3, 2, 1, 0, 8))
    from_int = M.from_int
    monkeypatch.setattr(M, "from_int", lambda c: from_int(c + 1))
    with pytest.raises(VerificationError, match="Newton's inverse did not converge"):
        M.inv(M.add(M.one(), M.pi()))


def _pi_valuation(M, x):
    """Largest N <= er with x in pi^N R (er if x = 0)."""
    e, d = M.e, M.gr.d
    er = e * M.P.r
    for N in range(er):
        k, i = divmod(N, e)
        # coefficient of pi^i must vanish mod p^{k+1} for val > N
        pk1 = M.P.p ** (k + 1)
        if any(v % pk1 for v in x[i * d:(i + 1) * d]):
            return N
    return er


def test_is_one_mod_matches_the_pi_valuation():
    for tup in [(3, 1, 2, 0, 3), (3, 2, 1, 0, 4), (5, 4, 1, 0, 3), (7, 3, 1, 0, 3)]:
        M = build_model(params_from_q(*tup))
        er = M.e * M.P.r
        probes = [M.add(M.one(), M.monomial(b, i)) for i in range(er) for b in range(M.gr.d)]
        probes += [M.sub(M.one(), M.monomial(0, i)) for i in range(er)]
        probes += [M.one(), M.zero()] + _random_units(M, 20, seed=sum(tup))
        for N in range(1, er + 1):
            U = UnitGroupPresentation(M, N)
            for x in probes:
                assert U._is_one_mod(x) == (_pi_valuation(M, M.sub(x, M.one())) >= N), (tup, N, x)


def test_dlog_round_trip_past_a_million_residues():
    # q_K = 13^6 = 4,826,809: the model holds ceil(sqrt(q_K - 1)) baby
    # steps for residue_log, not a table of q_K - 1 logarithms
    P = params_from_q(13, 1, 6, 0, 3)
    M = build_model(P)
    m = len(M._baby_steps)
    assert (m - 1) ** 2 < P.q_K - 1 <= m ** 2
    U = UnitGroupPresentation(M, P.e * P.r)
    for h in U.gens + U.inv_gens:
        for g in gal_elements(P):
            x = M.galois_act(g, h)
            assert U.element_from_coords(U.dlog(x)) == x, (g, h)


def test_dlog_check_survives_python_O():
    # under -O every assert vanishes; the termination check must still raise
    code = textwrap.dedent("""
        from tame_llc.exactnum import VerificationError
        from tame_llc.ring_model import UnitGroupPresentation, build_model
        from tame_llc.tame_galois import params_from_q
        assert False, "asserts are on"
        M = build_model(params_from_q(3, 1, 2, 0, 3))
        U = UnitGroupPresentation(M, 3)
        U._is_one_mod = lambda x: False
        try:
            U.dlog(M.add(M.one(), M.pi()))
        except VerificationError:
            print("raised")
    """)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "raised\n"


def test_model_checks_survive_python_O():
    # the model, beta and Galois-ring checks raise VerificationError, which
    # -O does not remove
    code = textwrap.dedent("""
        from tame_llc.exactnum import VerificationError
        from tame_llc.ring_model import _verify_model, build_model, find_beta
        from tame_llc.tame_galois import params_from_q
        assert False, "asserts are on"

        def raises(name, fn):
            try:
                fn()
            except VerificationError:
                print(name)

        M = build_model(params_from_q(3, 2, 2, 0, 4))
        gr = M.gr
        zeta_exp, c_exp, t_exp = M.zeta_exp, M.c_exp, M.t_exp
        M.zeta_exp = 1  # tau has order q_K - 1 = 8, not e = 2
        raises("zeta^e", lambda: _verify_model(M))
        M.zeta_exp = 0
        raises("zeta order", lambda: _verify_model(M))
        M.zeta_exp, M.c_exp = zeta_exp, c_exp + 1
        raises("pi^e", lambda: _verify_model(M))
        M.c_exp, M.t_exp = c_exp, t_exp + 1
        raises("homomorphism", lambda: _verify_model(M))
        M.t_exp = t_exp
        _verify_model(M)
        M.trace_K_F = lambda x: gr.one
        raises("beta trace", lambda: find_beta(M))
        M.residue_log = lambda x: 0
        raises("Teichmuller digit", M._rho_matrix)
    """)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split("\n")[:-1] == [
        "zeta^e", "zeta order", "pi^e", "homomorphism", "beta trace",
        "Teichmuller digit"]
