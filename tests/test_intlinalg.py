"""Integer linear algebra: normal forms, kernels and finite abelian
subgroup presentations."""

import itertools
from fractions import Fraction
from math import lcm, prod
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tame_llc import intlinalg
from tame_llc.exactnum import VerificationError
from tame_llc.intlinalg import (
    SubgroupPresentation,
    diag,
    extend_character,
    fp_echelon,
    hnf_mod,
    hnf_row,
    intersect_subgroups,
    kernel_subgroup,
    mat_mul,
    smith_normal_form,
    solve_left,
)


def invert_unimodular(mat):
    """Inverse of a unimodular integer matrix, via HNF against the identity:
    an oracle for the inverse whose rows smith_normal_form returns in part."""
    h, u = hnf_row(mat)
    if h != diag([1] * len(mat)):
        raise ValueError("matrix is not unimodular")
    return u


def left_kernel_basis(mat):
    """Basis rows of {y : y*mat = 0} over the integers: the rows of U beside
    the zero rows of H."""
    h, u = hnf_row(mat)
    return [ui for hi, ui in zip(h, u) if not any(hi)]


def smith_over_z(mat):
    """smith_normal_form with exact, full transforms, pivot by pivot as the
    product takes it: the oracle for its S and, modulo the modulus, for the
    columns of V and rows of V^{-1} it returns."""
    s = [list(r) for r in mat]
    n = len(s)
    m = len(s[0]) if s else 0
    v = diag([1] * m)
    vinv = diag([1] * m)

    def swap_cols(i, j):
        for row in s:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]
        vinv[i], vinv[j] = vinv[j], vinv[i]

    def addmul_row(dst, src, c):
        s[dst] = [x + c * y for x, y in zip(s[dst], s[src])]

    def addmul_col(dst, src, c):
        for row in s:
            row[dst] += c * row[src]
        for row in v:
            row[dst] += c * row[src]
        vinv[src] = [x - c * y for x, y in zip(vinv[src], vinv[dst])]

    def diagonalize(lo, hi_r, hi_c):
        t = lo
        while t < min(hi_r, hi_c):
            piv = None
            for i in range(t, hi_r):
                for j in range(t, hi_c):
                    if s[i][j] and (piv is None or abs(s[i][j]) < abs(s[piv[0]][piv[1]])):
                        piv = (i, j)
            if piv is None:
                break
            while True:
                s[t], s[piv[0]] = s[piv[0]], s[t]
                swap_cols(t, piv[1])
                for i in range(t + 1, hi_r):
                    q = s[i][t] // s[t][t]
                    if q:
                        addmul_row(i, t, -q)
                for j in range(t + 1, hi_c):
                    q = s[t][j] // s[t][t]
                    if q:
                        addmul_col(j, t, -q)
                piv = None
                for i in range(t, hi_r):
                    for j in range(t, hi_c):
                        if (i, j) != (t, t) and s[i][j] and (i == t or j == t):
                            if piv is None or abs(s[i][j]) < abs(s[piv[0]][piv[1]]):
                                piv = (i, j)
                if piv is None:
                    break
            if s[t][t] < 0:
                s[t] = [-x for x in s[t]]
            t += 1

    diagonalize(0, n, m)
    while True:
        bad = next((i for i in range(min(n, m) - 1)
                    if s[i][i] and s[i + 1][i + 1] % s[i][i]), None)
        if bad is None:
            break
        addmul_row(bad, bad + 1, 1)
        diagonalize(bad, bad + 2, bad + 2)
    return s, v, vinv


def presentation_over_z(ambient_orders, gen_rows):
    """(Hermite basis, basis, orders) of the subgroup that gen_rows generate,
    by hnf_row and smith_over_z: the oracle for SubgroupPresentation."""
    s = len(ambient_orders)
    h = [r for r in hnf_row([list(g) for g in gen_rows] + diag(ambient_orders))[0] if any(r)]
    rel = []
    for target in diag(ambient_orders):
        y, _ = solve_left(h, target)
        rel.append(y)
    snf, _, vinv = smith_over_z(rel)
    basis, orders = [], []
    for j in range(s):
        if snf[j][j] != 1:
            row = mat_mul([vinv[j]], h)[0]
            basis.append([c % d for c, d in zip(row, ambient_orders)])
            orders.append(snf[j][j])
    return h, basis, orders


small_matrices = st.integers(1, 4).flatmap(
    lambda n: st.integers(1, 4).flatmap(
        lambda m: st.lists(
            st.lists(st.integers(-9, 9), min_size=m, max_size=m),
            min_size=n, max_size=n,
        )
    )
)


tall_matrices = st.integers(1, 8).flatmap(
    lambda n: st.integers(1, 4).flatmap(
        lambda m: st.lists(
            st.lists(st.integers(-50, 50), min_size=m, max_size=m),
            min_size=n, max_size=n,
        )
    )
)


@given(small_matrices)
def test_smith_normal_form_is_a_change_of_basis(mat):
    # the exact oracle: the product's S and, modulo the modulus, its parts
    # of V and V^{-1} are checked against it below
    s, v, vinv = smith_over_z(mat)
    m = len(mat[0])
    # V is invertible over the integers, and the returned inverse is exact
    assert mat_mul(v, vinv) == diag([1] * m)
    assert mat_mul(v, invert_unimodular(v)) == diag([1] * m)
    assert vinv == invert_unimodular(v)
    # U*A*V = S for a unimodular U: A*V and S have one row lattice
    assert hnf_row(mat_mul(mat, v))[0] == hnf_row(s)[0]


@given(st.one_of(small_matrices, tall_matrices), st.integers(2, 10 ** 6))
@settings(max_examples=300, deadline=None)
def test_smith_normal_form_takes_the_exact_path_modulo(mat, modulus):
    # the same pivots, so the same S; V's columns and V^{-1}'s rows at the
    # invariant factors other than 1 agree with the exact transforms'
    # modulo the modulus, and no entry reaches it
    s, v, vinv = smith_normal_form(mat, modulus)
    s_z, v_z, vinv_z = smith_over_z(mat)
    assert s == s_z
    kept = [j for j in range(len(mat[0])) if j >= len(mat) or s_z[j][j] != 1]
    v_kept = [[row[j] for j in kept] for row in v_z]
    vinv_kept = [vinv_z[j] for j in kept]
    assert (len(v), len(v[0]) if v else 0, len(vinv)) == (len(v_z), len(kept), len(kept))
    for got, exact in ((v, v_kept), (vinv, vinv_kept)):
        assert all((x - y) % modulus == 0 for r, rz in zip(got, exact) for x, y in zip(r, rz))
        assert all(abs(x) < modulus for r in got for x in r)


@given(small_matrices, st.integers(2, 100))
def test_smith_diagonal_divisibility_chain(mat, modulus):
    s, _, _ = smith_normal_form(mat, modulus)
    diag = [s[i][i] for i in range(min(len(s), len(s[0])))]
    for i in range(len(diag)):
        for j in range(len(s[0])):
            if j != i:
                assert s[i][j] == 0
    for a, b in zip(diag, diag[1:]):
        assert a >= 0 and (a == 0 and b == 0 or b % max(a, 1) == 0 or a == 0)


@given(small_matrices)
def test_hnf_transform_reproduces_the_form(mat):
    h, t = hnf_row(mat)
    assert mat_mul(t, mat) == h


def _hnf_slot_euclid(mat):
    """H by Euclid steps that always divide by the row in the pivot slot:
    a second elimination order, for reference on small matrices only (its
    intermediate entries blow up on large ones)."""
    h = [list(r) for r in mat]
    n, m = len(h), len(h[0])
    row = 0
    for col in range(m):
        piv = next((i for i in range(row, n) if h[i][col]), None)
        if piv is None:
            continue
        h[row], h[piv] = h[piv], h[row]
        for i in range(row + 1, n):
            while h[i][col]:
                q = h[row][col] // h[i][col]
                h[row] = [x - q * y for x, y in zip(h[row], h[i])]
                h[row], h[i] = h[i], h[row]
        if h[row][col] < 0:
            h[row] = [-x for x in h[row]]
        for i in range(row):
            q = h[i][col] // h[row][col]
            h[i] = [x - q * y for x, y in zip(h[i], h[row])]
        row += 1
        if row == n:
            break
    return h


@given(st.one_of(small_matrices, tall_matrices))
def test_hnf_is_the_canonical_form(mat):
    h, u = hnf_row(mat)
    assert mat_mul(u, mat) == h
    assert mat_mul(invert_unimodular(u), u) == diag([1] * len(mat))
    nonzero = [r for r in h if any(r)]
    # zero rows last, then echelon form with positive, reduced pivots
    assert h[: len(nonzero)] == nonzero
    pivots = [next(j for j, x in enumerate(r) if x) for r in nonzero]
    assert pivots == sorted(set(pivots))
    for i, j in enumerate(pivots):
        assert h[i][j] > 0
        assert all(0 <= h[k][j] < h[i][j] for k in range(i))
    # the HNF is unique, so any correct elimination order gives the same H
    assert h == _hnf_slot_euclid(mat)


matrices_with_moduli = st.one_of(small_matrices, tall_matrices).flatmap(
    lambda mat: st.tuples(st.just(mat), st.lists(
        st.integers(1, 60), min_size=len(mat[0]), max_size=len(mat[0]))))


@given(matrices_with_moduli)
@example(([[3, -7, 5], [4, 2, -9]], [1, 6, 4]))
@example(([[5, 10], [-3, 12], [7, 1]], [12, 1]))
@settings(max_examples=300, deadline=None)
def test_hnf_mod_is_the_hermite_form_of_the_lattice(mat_moduli):
    # rows and diag(moduli) span a lattice; its unique Hermite form is
    # hnf_row's nonzero rows, each pivot divides its column's modulus, and
    # every other entry stays below it, a modulus of 1 or one below the
    # lcm of the others included
    mat, moduli = mat_moduli
    m = len(moduli)
    h = hnf_mod(mat, moduli)
    assert h == [r for r in hnf_row(mat + diag(moduli))[0] if any(r)]
    assert all(moduli[i] % h[i][i] == 0 for i in range(m))
    assert all(0 <= x < moduli[j] for i, r in enumerate(h) for j, x in enumerate(r) if j != i)
    assert hnf_mod([], moduli) == diag(moduli)


@given(small_matrices)
def test_left_kernel_annihilates(mat):
    for row in left_kernel_basis(mat):
        assert all(x == 0 for x in mat_mul([row], mat)[0])


def _rank_over_q(mat):
    """Rank by Gaussian elimination over Q, independent of hnf_row."""
    rows = [[Fraction(x) for x in r] for r in mat]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][col] / rows[rank][col]
            rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


@given(small_matrices, st.lists(st.integers(-5, 5), min_size=1, max_size=4))
def test_solve_left_round_trip(mat, coeffs):
    coeffs = (coeffs + [0] * len(mat))[: len(mat)]
    target = mat_mul([coeffs], mat)[0]
    sol, kernel = solve_left(mat, target)
    assert sol is not None
    assert mat_mul([sol], mat)[0] == list(target)
    # the kernel returned beside the solution: k*mat = 0, rows - rank of them
    for row in kernel:
        assert all(x == 0 for x in mat_mul([row], mat)[0])
    assert len(kernel) == len(mat) - _rank_over_q(mat)


@given(small_matrices)
def test_fp_echelon_is_the_reduced_form(mat):
    # p exceeds every minor of these matrices, so rank mod p is rank over Q
    p = 2 ** 31 - 1
    rows, pivots, det = fp_echelon(mat, p, len(mat[0]))
    assert len(pivots) == _rank_over_q(mat)
    for i, c in enumerate(pivots):
        assert all(x == 0 for x in rows[i][:c]) and rows[i][c] == 1
        assert all(rows[k][c] == 0 for k in range(len(rows)) if k != i)
    assert not any(x % p for row in rows[len(pivots):] for x in row)
    if len(mat) == len(mat[0]):
        assert det == _det_over_q(mat) % p


def _det_over_q(mat):
    """Determinant by Laplace expansion along the first row."""
    if len(mat) == 1:
        return mat[0][0]
    return sum((-1) ** j * mat[0][j] * _det_over_q([r[:j] + r[j + 1:] for r in mat[1:]])
               for j in range(len(mat)))


def _fp_echelon_two_passes(rows, p, ncols):
    """fp_echelon before it cleared each pivot's column in every row at
    once: below each pivot first, then above, last pivot first."""
    rows = [list(r) for r in rows]
    pivots, det = [], 1

    def clear(rr, c, others):
        for r2 in others:
            fac = rows[r2][c] % p
            if fac:
                rows[r2] = [(x - fac * y) % p for x, y in zip(rows[r2], rows[rr])]

    for c in range(ncols):
        rr = len(pivots)
        piv = next((r2 for r2 in range(rr, len(rows)) if rows[r2][c] % p), None)
        if piv is None:
            det = 0
            continue
        if piv != rr:
            rows[rr], rows[piv] = rows[piv], rows[rr]
            det = -det
        det = det * rows[rr][c] % p
        inv = pow(rows[rr][c], -1, p)
        rows[rr] = [(x * inv) % p for x in rows[rr]]
        clear(rr, c, range(rr + 1, len(rows)))
        pivots.append(c)
    for rr in reversed(range(len(pivots))):
        clear(rr, pivots[rr], range(rr))
    return rows, pivots, det


@given(small_matrices, st.sampled_from([2, 3, 5, 7]), st.integers(0, 2))
@settings(max_examples=300, deadline=None)
def test_one_elimination_pass_matches_the_two_it_replaces(mat, p, extra):
    # a small p leaves rank-deficient blocks, and the columns past ncols
    # (an augmented right-hand side) carry what the non-pivot rows keep
    ncols = max(1, len(mat[0]) - extra)
    assert fp_echelon(mat, p, ncols) == _fp_echelon_two_passes(mat, p, ncols)


def test_solve_left_detects_unsolvable():
    assert solve_left([[2, 0], [0, 2]], [1, 0]) == (None, [])


# -- subgroup presentations -------------------------------------------------

def test_subgroup_of_z6_z4():
    ambient = [6, 4]
    sub = SubgroupPresentation(ambient, [[2, 0], [0, 2]])
    assert prod(sub.orders) == 6
    assert sub.coords([4, 2]) is not None
    assert sub.coords([1, 0]) is None
    coords = sub.coords([2, 2])
    assert coords is not None


@given(st.lists(st.sampled_from([2, 3, 4, 6, 9]), min_size=1, max_size=3),
       st.data())
@settings(max_examples=40)
def test_subgroup_coords_invert_membership(orders, data):
    rows = [
        [data.draw(st.integers(0, d - 1)) for d in orders]
        for _ in range(len(orders))
    ]
    sub = SubgroupPresentation(orders, rows)
    # an arbitrary integer combination of the generators is a member
    combo = [0] * len(orders)
    for row in rows:
        c = data.draw(st.integers(-3, 3))
        combo = [(x + c * y) % d for x, y, d in zip(combo, row, orders)]
    assert sub.coords(combo) is not None
    coords = sub.coords(combo)
    rebuilt = [0] * len(orders)
    for c, b in zip(coords, sub.basis):
        rebuilt = [(x + c * y) % d for x, y, d in zip(rebuilt, b, orders)]
    assert rebuilt == combo


def _coords_by_stacked_solve(ambient_orders, sub, x):
    """SubgroupPresentation.coords by the former route: solve against the
    Hermite basis stacked on diag(d), then apply the exact SNF transform V
    of smith_over_z at the invariant factors other than 1."""
    s = len(ambient_orders)
    y, _ = solve_left(sub._m + diag(ambient_orders), list(x))
    if y is None:
        return None
    snf, v, _ = smith_over_z([solve_left(sub._m, t)[0] for t in diag(ambient_orders)])
    w = mat_mul([y[:s]], v)[0]
    return [w[j] % snf[j][j] for j in range(s) if snf[j][j] != 1]


@given(st.lists(st.sampled_from([2, 3, 4, 6]), min_size=1, max_size=3),
       st.data())
@settings(max_examples=40, deadline=None)
def test_subgroup_coords_match_the_stacked_solve(orders, data):
    # every element of the ambient group, shifted by multiples of the d_i:
    # members and non-members alike
    count = data.draw(st.integers(0, 3))
    rows = [[data.draw(st.integers(-9, 9)) for _ in orders] for _ in range(count)]
    sub = SubgroupPresentation(orders, rows)
    members = 0
    for x in itertools.product(*(range(d) for d in orders)):
        shift = [data.draw(st.integers(-2, 2)) * d for d in orders]
        x = [a + b for a, b in zip(x, shift)]
        coords = sub.coords(x)
        assert coords == _coords_by_stacked_solve(orders, sub, x)
        members += coords is not None
    assert members == prod(sub.orders)


def _back_substitute_two_loops(h, target):
    """The solve y*h = target before it shared the reduction's loop in
    _divmod_lattice: it stops at the first pivot that leaves a remainder."""
    t = list(target)
    y = []
    for i, hi in enumerate(h):
        c, rem = divmod(t[i], hi[i])
        if rem:
            return None
        y.append(c)
        if c:
            for j in range(i + 1, len(t)):
                t[j] -= c * hi[j]
    return y


def _reduce_mod_lattice_two_loops(h, x):
    """The remainder of x modulo the row lattice of h before it shared the
    solve's loop in _divmod_lattice."""
    out = list(x)
    for i in range(len(h)):
        q = out[i] // h[i][i]
        if q:
            out = [a - q * b for a, b in zip(out, h[i])]
    return out


@st.composite
def triangular_systems(draw):
    """A square upper-triangular h with positive diagonal, and a target
    in its row lattice or shifted off it."""
    n = draw(st.integers(1, 4))
    h = [[0] * i + [draw(st.integers(1, 9))] + [draw(st.integers(-9, 9)) for _ in range(n - i - 1)]
         for i in range(n)]
    x = mat_mul([[draw(st.integers(-9, 9)) for _ in range(n)]], h)[0]
    if draw(st.booleans()):
        x = [a + draw(st.integers(-3, 3)) for a in x]
    return h, x


@given(triangular_systems())
@settings(max_examples=300, deadline=None)
def test_one_triangular_loop_matches_the_two_it_replaces(system):
    h, x = system
    y, r = intlinalg._divmod_lattice(h, x)
    assert (None if any(r) else y) == _back_substitute_two_loops(h, x)
    assert r == _reduce_mod_lattice_two_loops(h, x)


NOT_A_CHARACTER = "prescribed values are not a character of the subgroup"


def _extend_character_two_hnf(ambient_orders, subgroup_rows, value_fracs):
    """extend_character over Z, before the modular Hermite forms: one
    Hermite form of the transposed system stacked on big*I gives a
    particular solution and the homogeneous kernel, and a second one, of
    that kernel with diag(d), reduces the solution."""
    d = list(ambient_orders)
    s = len(d)
    big = lcm(*(d + [den for _, den in value_fracs]))
    k = len(subgroup_rows)
    at = [[subgroup_rows[j][i] * (big // d[i]) for j in range(k)] for i in range(s)]
    rhs = [(big // den) * num for num, den in value_fracs]
    stacked = at + diag([big] * k)
    y, kernel = solve_left(stacked, rhs)
    if y is None:
        raise ValueError(NOT_A_CHARACTER)
    hom_w = [row[:s] for row in kernel] + diag(d)
    h = [r for r in hnf_row(hom_w)[0] if any(r)]
    if len(h) != s:
        raise VerificationError("solution lattice is not full rank")
    w = intlinalg._divmod_lattice(h, y[:s])[1]
    return [w[i] % d[i] for i in range(s)]


def kernel_subgroup_over_z(src_orders, map_rows, dst_orders):
    """kernel_subgroup before the modular Hermite forms: the left kernel of
    the map stacked on diag(t), over Z, presented by presentation_over_z."""
    s = len(src_orders)
    if not dst_orders:
        return presentation_over_z(src_orders, diag([1] * s))
    ker = left_kernel_basis([list(r) for r in map_rows] + diag(dst_orders))
    return presentation_over_z(src_orders, [row[:s] for row in ker])


def intersect_subgroups_over_z(ambient_orders, rows1, rows2):
    """intersect_subgroups before the modular Hermite forms: both Hermite
    bases, and the left kernel of one stacked on the other's negative."""
    d_rows = diag(ambient_orders)
    ha = [r for r in hnf_row([list(r) for r in rows1] + d_rows)[0] if any(r)]
    hb = [r for r in hnf_row([list(r) for r in rows2] + d_rows)[0] if any(r)]
    ker = left_kernel_basis(ha + [[-x for x in r] for r in hb])
    return presentation_over_z(ambient_orders, mat_mul([row[:len(ha)] for row in ker], ha))


group_orders = st.lists(st.sampled_from([1, 2, 3, 4, 6, 8, 9, 12]), min_size=1, max_size=3)


@given(group_orders, group_orders, st.data())
@settings(max_examples=200, deadline=None)
def test_kernel_subgroup_matches_the_z_route(src, dst, data):
    # rows need not define a homomorphism: both routes take the kernel
    # lattice {x : x A = 0 mod t} plus diag(s)
    rows = [[data.draw(st.integers(-20, 20)) for _ in dst] for _ in src]
    ker = SubgroupPresentation(src, kernel_subgroup(src, rows, dst))
    assert (ker._m, ker.basis, ker.orders) == kernel_subgroup_over_z(src, rows, dst)


@given(group_orders, st.data())
@settings(max_examples=200, deadline=None)
def test_intersect_subgroups_matches_the_z_route(orders, data):
    def gens():
        count = data.draw(st.integers(0, 3))
        return [[data.draw(st.integers(-20, 20)) for _ in orders] for _ in range(count)]

    a, b = gens(), gens()
    sub = SubgroupPresentation(orders, a)
    assert (sub._m, sub.basis, sub.orders) == presentation_over_z(orders, a)
    cap = SubgroupPresentation(orders, intersect_subgroups(orders, a, b))
    assert (cap._m, cap.basis, cap.orders) == intersect_subgroups_over_z(orders, a, b)


@given(st.lists(st.sampled_from([2, 3, 4, 6, 8, 9]), min_size=1, max_size=3),
       st.data())
@settings(max_examples=300, deadline=None)
def test_extend_character_matches_the_two_hnf_route(orders, data):
    count = data.draw(st.integers(1, 3))
    rows = [[data.draw(st.integers(0, d - 1)) for d in orders] for _ in range(count)]
    if data.draw(st.booleans()):
        # the values of an actual character of the whole group
        w0 = [data.draw(st.integers(0, d - 1)) for d in orders]
        fracs = []
        for row in rows:
            den = lcm(*orders)
            num = sum(a * b * (den // d) for a, b, d in zip(w0, row, orders)) % den
            fracs.append((num, den))
    else:
        # arbitrary values, often not a character of the subgroup
        fracs = []
        for _ in rows:
            den = data.draw(st.integers(1, 12))
            fracs.append((data.draw(st.integers(0, den - 1)), den))
    # extend_character takes each value as a Fraction and rejects with
    # VerificationError; the oracle takes a pair and rejects with ValueError
    try:
        got = extend_character(orders, rows, [Fraction(num, den) for num, den in fracs])
    except VerificationError as ex:
        got = str(ex)
    try:
        expected = _extend_character_two_hnf(orders, rows, fracs)
    except ValueError as ex:
        expected = str(ex)
    assert got == expected


@given(st.lists(st.sampled_from([2, 3, 4, 6, 8, 9, 12]), min_size=1, max_size=4),
       st.data())
@settings(max_examples=80, deadline=None)
def test_extend_character_does_not_depend_on_the_generating_set(orders, data):
    # the extension is the HNF-reduced point of the solution coset, a
    # function of the subgroup and of the character on it; so another
    # generating set of the same subgroup, with the same character's values,
    # gives the same exponents.  The printed root numbers rest on this, and
    # on U's and U-bar's Smith bases, which no such argument pins
    den = lcm(*orders)
    w0 = [data.draw(st.integers(0, d - 1)) for d in orders]

    def value(row):
        return Fraction(sum(a * b * (den // d) for a, b, d in zip(w0, row, orders)) % den, den)

    count = data.draw(st.integers(2, 4))
    rows = [[data.draw(st.integers(0, d - 1)) for d in orders] for _ in range(count)]
    # shuffle the rows, add the sum of two of them, and negate one, mod d
    other = data.draw(st.permutations(rows))
    i, j = data.draw(st.lists(st.integers(0, count - 1), min_size=2, max_size=2,
                              unique=True))
    other.append([(a + b) % d for a, b, d in zip(other[i], other[j], orders)])
    k = data.draw(st.integers(0, count))
    other[k] = [-a % d for a, d in zip(other[k], orders)]
    assert (extend_character(orders, rows, [value(r) for r in rows])
            == extend_character(orders, other, [value(r) for r in other]))


def _hermite_forms(fn):
    """The Hermite forms fn() takes through hnf_mod, in order."""
    forms = []

    def recording(rows, moduli):
        forms.append(hnf_mod(rows, moduli))
        return forms[-1]

    with patch.object(intlinalg, "hnf_mod", recording):
        try:
            fn()
        except VerificationError as ex:
            if str(ex) != NOT_A_CHARACTER:
                raise
    return forms


@st.composite
def plumbing_inputs(draw):
    """Orders src and dst, a map src -> dst, two generating sets in src and
    values on the first: a character's or arbitrary fractions."""
    src, dst = draw(group_orders), draw(group_orders)

    def rows(orders, count):
        return [[draw(st.integers(-20, 20)) for _ in orders] for _ in range(count)]

    map_rows = rows(dst, len(src))
    a, b = rows(src, draw(st.integers(0, 3))), rows(src, draw(st.integers(0, 3)))
    if draw(st.booleans()):
        den = lcm(*src)
        w0 = [draw(st.integers(0, d - 1)) for d in src]
        fracs = [Fraction(sum(x * y * (den // d) for x, y, d in zip(w0, g, src)), den)
                 for g in a]
    else:
        fracs = [Fraction(draw(st.integers(0, 11)), draw(st.integers(1, 12))) for _ in a]
    return src, dst, map_rows, a, b, fracs


@given(plumbing_inputs())
# a map that is no homomorphism, and generating sets that do not hold
# diag(d): there a caller that passed the wrong orders would meet another
# lattice
@example(([2, 4], [4], [[1], [1]], [[1, 1]], [[1, 1]], [Fraction(1, 2)]))
@settings(max_examples=150, deadline=None)
def test_group_plumbing_matches_the_diag_row_construction(inputs):
    # the oracle is each caller's lattice as it was built with the rows of
    # diag(orders) written out and one modulus, their lcm; a Hermite form
    # is unique for its lattice, and each caller reads only its forms, so
    # equal forms give equal kernels, intersections, extensions and bases
    src, dst, map_rows, a, b, fracs = inputs
    s, t = len(src), len(dst)

    graph = [[*row, *unit] for row, unit in zip(map_rows, diag([1] * s))]
    graph += [[*row, *[0] * s] for row in diag(dst)] + [[*[0] * t, *row] for row in diag(src)]
    kernel = _hermite_forms(lambda: kernel_subgroup(src, map_rows, dst))
    assert kernel == [hnf_mod(graph, [lcm(*src, *dst)] * (t + s))]
    graph = [[*x, *x] for x in [*a, *diag(src)]] + [[*x, *[0] * s] for x in [*b, *diag(src)]]
    cap = _hermite_forms(lambda: intersect_subgroups(src, a, b))
    assert cap == [hnf_mod(graph, [lcm(*src)] * 2 * s)]
    big = lcm(*src, *(v.denominator for v in fracs))
    graph = [[*g, v.numerator * (big // v.denominator)] for g, v in zip(a, fracs)]
    graph += [[*row, 0] for row in diag(src)]
    ext = _hermite_forms(lambda: extend_character(src, a, fracs))
    assert ext[0] == hnf_mod(graph, [big] * (s + 1))
    sub = _hermite_forms(lambda: SubgroupPresentation(src, a))
    assert sub == [hnf_mod([*a, *diag(src)], [lcm(*src)] * s)]


def test_kernel_subgroup_members_map_to_zero():
    # reduction map Z/8 x Z/4 -> Z/4, (x, y) -> x + 2 y
    src = [8, 4]
    rows = [[1], [2]]
    ker = SubgroupPresentation(src, kernel_subgroup(src, rows, [4]))
    assert prod(ker.orders) == 8
    for b in ker.basis:
        assert (b[0] * 1 + b[1] * 2) % 4 == 0


def test_intersection_is_contained_in_both():
    ambient = [12]
    a = SubgroupPresentation(ambient, [[2]])
    b = SubgroupPresentation(ambient, [[3]])
    cap = SubgroupPresentation(ambient, intersect_subgroups(ambient, a.basis, b.basis))
    assert prod(cap.orders) == 2
    for row in cap.basis:
        assert a.coords(row) is not None and b.coords(row) is not None


def test_extend_character_reproduces_prescribed_values():
    ambient = [4, 2]
    rows = [[2, 0], [0, 1]]
    values = [Fraction(1, 2), Fraction(0)]  # -1 on the first generator, +1 on the second
    exps = extend_character(ambient, rows, values)

    for row, value in zip(rows, values):
        frac = sum(Fraction(e * x, d) for e, x, d in zip(exps, row, ambient))
        assert frac % 1 == value


def test_extend_character_rejects_inconsistent_values():
    with pytest.raises(VerificationError, match=NOT_A_CHARACTER):
        # the generator has order 2 but is sent to a primitive 4th root
        extend_character([4], [[2]], [Fraction(1, 4)])


@given(st.lists(st.sampled_from([2, 3, 4, 6, 8, 9]), min_size=1, max_size=3),
       st.data())
@settings(max_examples=100, deadline=None)
def test_extend_character_reads_a_value_modulo_one(orders, data):
    # a value is a turn: a Fraction outside [0, 1) gives the exponents of
    # its residue mod 1, and those are the pair route's on the unreduced
    # pair (c num, c den)
    count = data.draw(st.integers(1, 3))
    rows = [[data.draw(st.integers(0, d - 1)) for d in orders] for _ in range(count)]
    den = lcm(*orders)
    w0 = [data.draw(st.integers(0, d - 1)) for d in orders]
    nums = [sum(a * b * (den // d) for a, b, d in zip(w0, row, orders)) % den for row in rows]
    shifts = [data.draw(st.integers(-3, 3)) for _ in rows]
    scale = data.draw(st.integers(1, 4))
    expected = extend_character(orders, rows, [Fraction(num, den) for num in nums])
    assert extend_character(
        orders, rows, [Fraction(num, den) + k for num, k in zip(nums, shifts)]) == expected
    assert _extend_character_two_hnf(
        orders, rows, [(scale * num, scale * den) for num in nums]) == expected
