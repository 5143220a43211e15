"""Integer linear algebra: normal forms, kernels and finite abelian
subgroup presentations."""

import itertools
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tame_llc.exactnum import VerificationError
from tame_llc.intlinalg import (
    SubgroupPresentation,
    diag,
    extend_character,
    fp_echelon,
    hnf_row,
    identity_matrix,
    intersect_subgroups,
    kernel_subgroup,
    left_kernel_basis,
    mat_mul,
    reduce_mod_lattice,
    smith_normal_form,
    solve_left,
    vec_mat,
)


def invert_unimodular(mat):
    """Inverse of a unimodular integer matrix, via HNF against the identity:
    an oracle for the inverse that smith_normal_form keeps alongside V."""
    h, u = hnf_row(mat)
    if h != identity_matrix(len(mat)):
        raise ValueError("matrix is not unimodular")
    return u


small_matrices = st.integers(1, 4).flatmap(
    lambda n: st.integers(1, 4).flatmap(
        lambda m: st.lists(
            st.lists(st.integers(-9, 9), min_size=m, max_size=m),
            min_size=n, max_size=n,
        )
    )
)


@given(small_matrices)
def test_smith_normal_form_is_a_change_of_basis(mat):
    s, v, vinv = smith_normal_form(mat)
    m = len(mat[0])
    # V is invertible over the integers, and the returned inverse is exact
    assert mat_mul(v, vinv) == identity_matrix(m)
    assert mat_mul(v, invert_unimodular(v)) == identity_matrix(m)
    assert vinv == invert_unimodular(v)
    # U*A*V = S for a unimodular U: A*V and S have one row lattice
    assert hnf_row(mat_mul(mat, v))[0] == hnf_row(s)[0]


@given(small_matrices)
def test_smith_diagonal_divisibility_chain(mat):
    s, _, _ = smith_normal_form(mat)
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


tall_matrices = st.integers(1, 8).flatmap(
    lambda n: st.integers(1, 4).flatmap(
        lambda m: st.lists(
            st.lists(st.integers(-50, 50), min_size=m, max_size=m),
            min_size=n, max_size=n,
        )
    )
)


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
    assert mat_mul(invert_unimodular(u), u) == identity_matrix(len(mat))
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


@given(small_matrices)
def test_left_kernel_annihilates(mat):
    for row in left_kernel_basis(mat):
        assert all(x == 0 for x in vec_mat(row, mat))


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
    target = vec_mat(coeffs, mat)
    sol, kernel = solve_left(mat, target)
    assert sol is not None
    assert vec_mat(sol, mat) == list(target)
    # the kernel returned beside the solution: k*mat = 0, rows - rank of them
    for row in kernel:
        assert all(x == 0 for x in vec_mat(row, mat))
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


def test_solve_left_detects_unsolvable():
    assert solve_left([[2, 0], [0, 2]], [1, 0]) == (None, [])


# -- subgroup presentations -------------------------------------------------

def test_subgroup_of_z6_z4():
    ambient = [6, 4]
    sub = SubgroupPresentation(ambient, [[2, 0], [0, 2]])
    assert sub.order == 6
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


def _coords_by_stacked_solve(sub, x):
    """SubgroupPresentation.coords by the former route: solve against the
    Hermite basis stacked on diag(d), then apply the SNF transform V."""
    s = len(sub.ambient_orders)
    y, _ = solve_left(sub._m + diag(sub.ambient_orders), list(x))
    if y is None:
        return None
    w = vec_mat(y[:s], sub._v)
    return [w[j] % d for j, d in enumerate(sub._snf_orders) if d != 1]


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
        assert coords == _coords_by_stacked_solve(sub, x)
        members += coords is not None
    assert members == sub.order


def _extend_character_two_hnf(ambient_orders, subgroup_rows, value_fracs):
    """extend_character as it was with one Hermite form per question: a
    particular solution by solve_left, the homogeneous kernel by
    left_kernel_basis, both of the same stacked matrix."""
    d = list(ambient_orders)
    s = len(d)
    big = lcm(*(d + [den for _, den in value_fracs]))
    k = len(subgroup_rows)
    at = [[subgroup_rows[j][i] * (big // d[i]) for j in range(k)] for i in range(s)]
    rhs = [(big // den) * num for num, den in value_fracs]
    stacked = at + diag([big] * k)
    y, _ = solve_left(stacked, rhs)
    if y is None:
        raise ValueError("prescribed values are not a character of the subgroup")
    hom_w = [row[:s] for row in left_kernel_basis(stacked)] + diag(d)
    h = [r for r in hnf_row(hom_w)[0] if any(r)]
    if len(h) != s:
        raise VerificationError("solution lattice is not full rank")
    w = reduce_mod_lattice(h, y[:s])
    return [w[i] % d[i] for i in range(s)]


@given(st.lists(st.sampled_from([2, 3, 4, 6, 8, 9]), min_size=1, max_size=3),
       st.data())
@settings(max_examples=60, deadline=None)
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
    outcomes = []
    for fn in (extend_character, _extend_character_two_hnf):
        try:
            outcomes.append(fn(orders, rows, fracs))
        except ValueError:
            outcomes.append(ValueError)
    assert outcomes[0] == outcomes[1]


def test_kernel_subgroup_members_map_to_zero():
    # reduction map Z/8 x Z/4 -> Z/4, (x, y) -> x + 2 y
    src = [8, 4]
    rows = [[1], [2]]
    ker = kernel_subgroup(src, rows, [4])
    assert ker.order == 8
    for b in ker.basis:
        assert (b[0] * 1 + b[1] * 2) % 4 == 0


def test_intersection_is_contained_in_both():
    ambient = [12]
    a = SubgroupPresentation(ambient, [[2]])
    b = SubgroupPresentation(ambient, [[3]])
    cap = intersect_subgroups(ambient, a.basis, b.basis)
    assert cap.order == 2
    for row in cap.basis:
        assert a.coords(row) is not None and b.coords(row) is not None


def test_extend_character_reproduces_prescribed_values():
    ambient = [4, 2]
    rows = [[2, 0], [0, 1]]
    values = [(1, 2), (0, 1)]  # -1 on the first generator, +1 on the second
    exps = extend_character(ambient, rows, values)
    from fractions import Fraction

    for row, (num, den) in zip(rows, values):
        frac = sum(Fraction(e * x, d) for e, x, d in zip(exps, row, ambient))
        assert frac % 1 == Fraction(num, den)


def test_extend_character_rejects_inconsistent_values():
    with pytest.raises(ValueError):
        # the generator has order 2 but is sent to a primitive 4th root
        extend_character([4], [[2]], [(1, 4)])
