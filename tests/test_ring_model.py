"""The explicit ring model R = coefficient ring with a tame uniformizer pi,
its Galois action, and unit-group presentations."""

import os
import random
import subprocess
import sys
import textwrap

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tame_llc import intlinalg
from tame_llc.conjectures import valid_tuples
from tame_llc.ring_model import (
    GaloisRing,
    Model,
    UnitGroupPresentation,
    build_model,
    centralizer_bruteforce,
    find_beta,
    kernel_of_norm,
    regular_rep_matrix,
    symplectic_check,
)
from tame_llc.tame_galois import GalElt, gal_elements, norm_index, params_from_q
from test_intlinalg import invert_unimodular

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
    if gf.is_unit(x):
        assert gf.mul(x, gf.inv(x)) == gf.one


@given(st.sampled_from(RINGS), st.data())
@settings(max_examples=30)
def test_frobenius_is_a_ring_map_of_order_d(prd, data):
    gf = GaloisRing(*prd)
    p, r, d = prd
    x = tuple(data.draw(st.integers(0, p ** r - 1)) for _ in range(d))
    y = tuple(data.draw(st.integers(0, p ** r - 1)) for _ in range(d))
    assert gf.frobenius(gf.mul(x, y)) == gf.mul(gf.frobenius(x), gf.frobenius(y))
    assert gf.frobenius(gf.add(x, y)) == gf.add(gf.frobenius(x), gf.frobenius(y))
    z = x
    for _ in range(d):
        z = gf.frobenius(z)
    assert z == x


@pytest.mark.parametrize("prd", RINGS)
def test_teichmuller_is_multiplicative_torsion(prd):
    gf = GaloisRing(*prd)
    p, r, d = prd
    q = p ** d
    for code in [1, 2, min(q - 1, 5)]:
        coeffs = []
        cc = code
        for _ in range(d):
            coeffs.append(cc % p)
            cc //= p
        t = gf.teichmuller(tuple(coeffs))
        assert gf.pow(t, q - 1) == gf.one
        assert gf.residue(t) == gf.residue(tuple(coeffs))


@given(st.sampled_from(RINGS), st.data())
@settings(max_examples=30)
def test_trace_is_additive_and_frobenius_invariant(prd, data):
    gf = GaloisRing(*prd)
    p, r, d = prd
    x = tuple(data.draw(st.integers(0, p ** r - 1)) for _ in range(d))
    y = tuple(data.draw(st.integers(0, p ** r - 1)) for _ in range(d))
    mod = p ** r
    assert gf.trace_abs(gf.add(x, y)) % mod == (gf.trace_abs(x) + gf.trace_abs(y)) % mod
    assert gf.trace_abs(gf.frobenius(x)) % mod == gf.trace_abs(x) % mod


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
    cp = gf.scalar(M.P.p, M.c)
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


def _coefficientwise_act(M, g, x):
    """g(x): rho^j on each pi^i coefficient, times u^i, where g(pi) = u pi."""
    gf = M.gr
    u = M.pi_multiplier(g)
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
    assert pe == M.mul(M.from_gr(M.c), M.from_int(P.p))


def test_galois_action_commutes_with_multiplication(model):
    M = model
    P = M.P
    x = M.add(M.one(), M.pi())
    y = M.add(M.from_int(2), M.pow(M.pi(), 2))
    for g in gal_elements(P):
        lhs = M.galois_act(g, M.mul(x, y))
        rhs = M.mul(M.galois_act(g, x), M.galois_act(g, y))
        assert lhs == rhs


def test_norm_and_trace_land_in_the_base(model):
    M = model
    P = M.P
    x = M.add(M.one(), M.pi())
    nx = M.norm_K_F(x)
    tx = M.trace_K_F(x)
    # base elements are fixed by every Galois element, so norm is multiplicative
    y = M.add(M.from_int(1), M.pow(M.pi(), 2))
    assert M.norm_K_F(M.mul(x, y)) == M.gr.mul(nx, M.norm_K_F(y))
    assert M.trace_K_F(M.add(x, y)) == M.gr.add(tx, M.trace_K_F(y))


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
                  M.neg(M.one())]:
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
    Ubar = kernel_of_norm(M, U)
    for b in Ubar.basis:
        x = U.element_from_coords(list(b))
        assert M.norm_K_F(x) == M.gr.one


def test_norm_kernel_is_the_whole_kernel():
    # U / U-bar is the norm image, of index norm_index(P) in the
    # (q - 1) q^{r-1} units of O_F / p^r; a = 2 (q = 9) is included
    tuples = [P for P in valid_tuples([3, 5, 7, 9], 4, [2, 3, 4]) if P.q_K <= 2000]
    assert len(tuples) == 105
    for P in tuples:
        M = build_model(P)
        U = UnitGroupPresentation(M, P.e * P.r)
        Ubar = kernel_of_norm(M, U)
        assert (Ubar.order * (P.q - 1) * P.q ** (P.r - 1)
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


@pytest.mark.parametrize("tup", [(3, 1, 2, 0, 3), (3, 2, 1, 0, 4)])
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


@pytest.mark.parametrize("tup", [(3, 2, 1, 0, 4), (3, 4, 2, 0, 3),
                                 (5, 2, 2, 1, 5), (7, 3, 1, 0, 3)])
def test_invariant_generators_match_raw_exponents(tup):
    # inv_gens reduces its exponents by orders that hold exactly in the
    # model ring, so every generator is the one the raw exponents give
    P = params_from_q(*tup)
    M = build_model(P)
    top = P.e * P.r
    for N in range(1, top + 1):
        U = UnitGroupPresentation(M, N)
        vinv = invert_unimodular(U._v)
        raw = []
        for k in U._keep:
            h = M.one()
            for g, ex in zip(U.gens, vinv[k]):
                h = M.mul(h, M.pow(g, ex))
            raw.append(h)
        assert U.inv_gens == raw
        # a one-unit 1 + y at level i has order dividing p^t, t the number
        # of steps of v -> min(v + e, p v) from i to er
        for g, (i, _) in zip(U.gens[1:], U.levels[1:]):
            v, t = i, 0
            while v < top:
                v, t = min(v + P.e, P.p * v), t + 1
            assert M.pow(g, P.p ** t) == M.one()


@pytest.mark.parametrize("tup", [(11, 2, 2, 1, 8), (3, 2, 2, 0, 8)])
def test_unit_group_presentation_factors_once(tup, monkeypatch):
    # the SNF hands back V^{-1}, so no Hermite form is taken; the only
    # Model.pow calls are the p-th powers of the relation rows, since the
    # invariant generators multiply from shared lists of squares
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
    assert calls == {"hnf_row": 0, "pow": len(U.gens) - 1}
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
    calls = {"Model.inv": 0, "GaloisRing.inv": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(Model, "inv", counted("Model.inv", Model.inv))
    monkeypatch.setattr(GaloisRing, "inv", counted("GaloisRing.inv", GaloisRing.inv))
    one_units = len(U.gens) - 1
    logs = [U.dlog(x) for x in units]
    assert calls["Model.inv"] <= one_units
    assert calls["GaloisRing.inv"] <= calls["Model.inv"]
    # with the tables built, no digit inverts anything
    calls.update({"Model.inv": 0, "GaloisRing.inv": 0})
    assert [U.dlog(x) for x in units] == logs
    assert calls == {"Model.inv": 0, "GaloisRing.inv": 0}


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
        zeta, c, t = M.zeta, M.c, M.t
        M.zeta = gr.from_int(2)
        raises("zeta^e", lambda: _verify_model(M))
        M.zeta = gr.one
        raises("zeta order", lambda: _verify_model(M))
        M.zeta, M.c = zeta, gr.from_int(2)
        raises("pi^e", lambda: _verify_model(M))
        M.c, M.t = c, gr.from_int(2)
        raises("homomorphism", lambda: _verify_model(M))
        M.t = t
        _verify_model(M)
        M.trace_K_F = lambda x: gr.one
        raises("beta trace", lambda: find_beta(M))
        gr.teichmuller = lambda x: gr.zero
        raises("digits", lambda: gr.digits(gr.one))
        gr.frobenius = lambda x, k=1: x
        raises("trace", lambda: gr.trace_abs(gr.gen))
    """)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split("\n")[:-1] == [
        "zeta^e", "zeta order", "pi^e", "homomorphism", "beta trace",
        "digits", "trace"]
