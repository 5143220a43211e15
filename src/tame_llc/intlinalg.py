"""Small exact linear algebra: Hermite and Smith normal forms with
transforms, integer linear solving, the one row echelon form over F_p, and
finite-abelian-group plumbing (subgroup presentations, homomorphism
kernels, character extension).

All matrices here are tiny (at most a few dozen rows), so the classical
cubic algorithms with exact big integers suffice, provided each Euclid step
divides by the smallest entry of its column: dividing always by the row in
the pivot slot lets the transforms of the chi-data systems grow to millions
of bits.

Each lattice is factored once.  `smith_normal_form` returns the column
transform V together with its inverse, kept up to date operation by
operation, so no transform is ever inverted afterwards.  A subgroup keeps
its square Hermite basis and solves against it by back-substitution, and
`solve_left` returns a particular solution together with the homogeneous
kernel of the same Hermite form, which `extend_character` reduces by.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from .exactnum import VerificationError

Matrix = List[List[int]]


def diag(d: Sequence[int]) -> Matrix:
    """The square diagonal matrix with diagonal d."""
    return [[d[i] if j == i else 0 for j in range(len(d))] for i in range(len(d))]


def identity_matrix(n: int) -> Matrix:
    return diag([1] * n)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    if not a or not b:
        return [[]] * len(a)
    rows, inner, cols = len(a), len(b), len(b[0])
    out = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        ai = a[i]
        oi = out[i]
        for k in range(inner):
            c = ai[k]
            if c:
                bk = b[k]
                for j in range(cols):
                    oi[j] += c * bk[j]
    return out


def vec_mat(v: Sequence[int], a: Matrix) -> List[int]:
    if not a:
        return []
    cols = len(a[0])
    out = [0] * cols
    for i, c in enumerate(v):
        if c:
            ai = a[i]
            for j in range(cols):
                out[j] += c * ai[j]
    return out


def hnf_row(mat: Matrix) -> Tuple[Matrix, Matrix]:
    """Row Hermite normal form.

    Returns (H, U) with U unimodular, U*mat = H, H in row-echelon form with
    positive pivots and reduced entries above each pivot.  Zero rows sink to
    the bottom.
    """
    h = [list(r) for r in mat]
    n = len(h)
    m = len(h[0]) if h else 0
    u = identity_matrix(n)
    row = 0
    for col in range(m):
        # Euclid on the whole column: move the smallest nonzero |entry| to
        # the pivot slot and reduce every row below by it, until the pivot
        # is alone.  Dividing by the smallest entry keeps H and U small.
        while True:
            live = [i for i in range(row, n) if h[i][col]]
            if not live:
                break
            piv = min(live, key=lambda i: abs(h[i][col]))
            h[row], h[piv] = h[piv], h[row]
            u[row], u[piv] = u[piv], u[row]
            if len(live) == 1:
                break
            for i in range(row + 1, n):
                q = h[i][col] // h[row][col]
                if q:
                    h[i] = [x - q * y for x, y in zip(h[i], h[row])]
                    u[i] = [x - q * y for x, y in zip(u[i], u[row])]
        if not live:
            continue
        if h[row][col] < 0:
            h[row] = [-x for x in h[row]]
            u[row] = [-x for x in u[row]]
        # reduce entries above the pivot
        for i in range(row):
            q = h[i][col] // h[row][col]
            if q:
                h[i] = [x - q * y for x, y in zip(h[i], h[row])]
                u[i] = [x - q * y for x, y in zip(u[i], u[row])]
        row += 1
        if row == n:
            break
    return h, u


def left_kernel_basis(mat: Matrix) -> Matrix:
    """Basis rows of {y : y*mat = 0} over the integers."""
    h, u = hnf_row(mat)
    out = []
    for hi, ui in zip(h, u):
        if not any(hi):
            out.append(ui)
    return out


def solve_left(mat: Matrix, target: Sequence[int]) -> Tuple[Optional[List[int]], Matrix]:
    """An integer row y with y*mat = target (None when there is none), and
    a basis of the left kernel {k : k*mat = 0}, both from one Hermite form:
    the kernel rows are the rows of U beside the zero rows of H."""
    h, u = hnf_row(mat)
    kernel = [ui for hi, ui in zip(h, u) if not any(hi)]
    y = [0] * len(h)
    t = list(target)
    m = len(t)
    for i, hi in enumerate(h):
        piv = next((j for j in range(m) if hi[j]), None)
        if piv is None:
            break
        if t[piv] % hi[piv]:
            continue  # cannot clear with this pivot; keep going (other rows have later pivots)
        c = t[piv] // hi[piv]
        if c:
            t = [x - c * yv for x, yv in zip(t, hi)]
            y[i] = c
    if any(t):
        return None, kernel
    return vec_mat(y, u), kernel


def fp_echelon(rows: Sequence[Sequence[int]], p: int, ncols: int):
    """Reduced row echelon form over F_p, pivoting in the first ncols columns.

    Returns (reduced rows, pivot columns, det); the rank is the number of
    pivots.  det is the determinant of the first ncols columns mod p when
    there are ncols rows (0 when a column has no pivot).  Rows are cleared
    below each pivot first and above it afterwards, last pivot first, so
    a banded matrix stays banded until the echelon form is reached.
    """
    rows = [list(r) for r in rows]
    pivots: List[int] = []
    det = 1

    def clear(rr, c, others):
        # subtract multiples of pivot row rr to zero column c in the others
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


def _back_substitute(h: Matrix, target: Sequence[int]) -> Optional[List[int]]:
    """The row y with y*h = target, for h square, upper triangular and of
    full rank, or None when y is not integral (target outside the row
    lattice of h).  Exact back-substitution; y is unique."""
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


def smith_normal_form(mat: Matrix) -> Tuple[Matrix, Matrix, Matrix]:
    """Smith normal form: returns (S, V, V^{-1}) with S = U*mat*V diagonal
    for some unimodular U, the diagonal entries nonnegative with
    d1 | d2 | ...  V is unimodular, and its inverse is kept alongside it:
    each column operation on V is one row operation on V^{-1}."""
    s = [list(r) for r in mat]
    n = len(s)
    m = len(s[0]) if s else 0
    v = identity_matrix(m)
    vinv = identity_matrix(m)

    def swap_rows(i, j):
        s[i], s[j] = s[j], s[i]

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
        # V (I + c E_{src,dst}) has inverse (I - c E_{src,dst}) V^{-1}
        vinv[src] = [x - c * y for x, y in zip(vinv[src], vinv[dst])]

    def diagonalize(lo, hi_r, hi_c):
        # Diagonalize the block [lo:hi_r] x [lo:hi_c].  At each pivot step
        # move the entry of minimal absolute value to (t, t) and reduce its
        # row and column by remainders; any surviving nonzero is strictly
        # smaller than the pivot, so the loop terminates.
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
                swap_rows(t, piv[0])
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
    # enforce the divisibility chain: folding row i+1 into row i and
    # re-diagonalizing the local 2x2 block replaces (d_i, d_{i+1}) by
    # (gcd, lcm); repeated passes settle as in bubble sort.
    while True:
        bad = None
        for i in range(min(n, m) - 1):
            a, b = s[i][i], s[i + 1][i + 1]
            if a and b % a:
                bad = i
                break
        if bad is None:
            break
        addmul_row(bad, bad + 1, 1)
        diagonalize(bad, bad + 2, bad + 2)
    return s, v, vinv


def reduce_mod_lattice(h: Matrix, x: Sequence[int]) -> List[int]:
    """Canonical representative of x modulo the full-rank row lattice with
    row-HNF basis h (square, upper triangular, positive diagonal)."""
    out = list(x)
    n = len(h)
    for i in range(n):
        q = out[i] // h[i][i]
        if q:
            out = [a - q * b for a, b in zip(out, h[i])]
    return out


# ---------------------------------------------------------------------------
# Finite abelian groups presented as Z^s / diag(d) with extra relations
# ---------------------------------------------------------------------------

class SubgroupPresentation:
    """A subgroup of G = (+) Z/d_i, with its own invariant-factor basis.

    Attributes:
        ambient_orders: the d_i of the ambient group.
        orders: invariant factors of the subgroup (trivial factors dropped).
        basis: rows expressing each subgroup basis element in ambient coords.
        order: the subgroup's cardinality.
    """

    def __init__(self, ambient_orders: Sequence[int], gen_rows: Sequence[Sequence[int]]):
        self.ambient_orders = list(ambient_orders)
        s = len(self.ambient_orders)
        lattice_rows = [list(g) for g in gen_rows] + diag(self.ambient_orders)
        h, _ = hnf_row(lattice_rows)
        basis_m = [r for r in h if any(r)]
        if len(basis_m) != s:
            raise ValueError("subgroup lattice is not full rank (bad ambient orders?)")
        self._m = basis_m  # lattice basis rows, HNF: square, upper triangular
        # relation lattice of the generators y -> y*M mod diag(d):
        # rows of diag(d)*M^{-1}, integral because diag(d) sits inside the lattice
        rel = []
        for target in diag(self.ambient_orders):
            y = _back_substitute(basis_m, target)
            if y is None:
                raise VerificationError("diag(d) must lie in the subgroup lattice")
            rel.append(y)
        snf, v, vinv = smith_normal_form(rel)
        self._v = v
        self._snf_orders = [snf[i][i] for i in range(s)]
        self.basis: List[List[int]] = []
        self.orders: List[int] = []
        for j in range(s):
            if self._snf_orders[j] == 1:
                continue
            row = vec_mat(vinv[j], basis_m)
            self.basis.append([c % d for c, d in zip(row, self.ambient_orders)])
            self.orders.append(self._snf_orders[j])
        self.order = 1
        for d in self.orders:
            self.order *= d

    def coords(self, x: Sequence[int]) -> Optional[List[int]]:
        """Coordinates of ambient element x in the subgroup basis, or None.

        x is a member exactly when it lies in the row lattice of _m, which
        contains diag(d); its unique lattice coordinates then come by
        back-substitution.
        """
        s = len(self.ambient_orders)
        y = _back_substitute(self._m, x)
        if y is None:
            return None
        w = vec_mat(y, self._v)
        out = []
        for j in range(s):
            if self._snf_orders[j] == 1:
                continue
            out.append(w[j] % self._snf_orders[j])
        return out


def kernel_subgroup(
    src_orders: Sequence[int],
    map_rows: Sequence[Sequence[int]],
    dst_orders: Sequence[int],
) -> SubgroupPresentation:
    """Kernel of a homomorphism (+) Z/s_i -> (+) Z/t_j given by map_rows.

    Row i of map_rows is the image of the i-th source generator in
    destination coordinates.
    """
    s = len(src_orders)
    if not dst_orders:
        return SubgroupPresentation(list(src_orders), identity_matrix(s))
    stacked = [list(r) for r in map_rows] + diag(dst_orders)
    ker = left_kernel_basis(stacked)
    gen_rows = [row[:s] for row in ker]
    return SubgroupPresentation(list(src_orders), gen_rows)


def intersect_subgroups(
    ambient_orders: Sequence[int],
    rows1: Sequence[Sequence[int]],
    rows2: Sequence[Sequence[int]],
) -> SubgroupPresentation:
    """Intersection of two subgroups given by generator rows."""
    d_rows = diag(ambient_orders)
    a = [list(r) for r in rows1] + d_rows
    b = [list(r) for r in rows2] + d_rows
    ha, _ = hnf_row(a)
    hb, _ = hnf_row(b)
    ha = [r for r in ha if any(r)]
    hb = [r for r in hb if any(r)]
    stacked = ha + [[-x for x in r] for r in hb]
    ker = left_kernel_basis(stacked)
    gen_rows = [vec_mat(row[: len(ha)], ha) for row in ker]
    return SubgroupPresentation(list(ambient_orders), gen_rows)


def extend_character(
    ambient_orders: Sequence[int],
    subgroup_rows: Sequence[Sequence[int]],
    value_fracs: Sequence[Tuple[int, int]],
) -> List[int]:
    """Extend a character from a subgroup to the whole group.

    The subgroup is generated by `subgroup_rows` (ambient coordinates); the
    character takes value exp(2*pi*i*num/den) on each generator.  Returns the
    exponent vector w (value zeta_{d_i}^{w_i} on e_i) of an extension, chosen
    canonically (HNF-reduced representative of the solution coset).

    Raises ValueError if the prescribed values are inconsistent (not an
    actual character of the subgroup).
    """
    from math import lcm

    d = list(ambient_orders)
    s = len(d)
    big = lcm(*(list(d) + [den for _, den in value_fracs])) if d else 1
    # unknowns w_i; equations sum_i b_ji * (big/d_i) * w_i = (big/den_j)*num_j (mod big)
    k = len(subgroup_rows)
    a_mat: Matrix = []
    rhs: List[int] = []
    for j in range(k):
        a_mat.append([subgroup_rows[j][i] * (big // d[i]) for i in range(s)])
        num, den = value_fracs[j]
        rhs.append((big // den) * num)
    # solve a_mat * w == rhs (mod big), w over Z.
    # Transpose to row form: find w with w * A^T = rhs + big*t.
    at = [[a_mat[j][i] for j in range(k)] for i in range(s)]  # s x k
    stacked = at + diag([big] * k)  # (s+k) x k
    # one Hermite form gives a particular solution and the homogeneous kernel
    y, kernel = solve_left(stacked, rhs)
    if y is None:
        raise ValueError("prescribed values are not a character of the subgroup")
    w = y[:s]
    # canonical representative: reduce modulo the homogeneous solution lattice
    hom_w = [row[:s] for row in kernel]
    # the lattice also contains d_i * e_i (changing w_i by d_i changes nothing)
    hom_w += diag(d)
    h, _ = hnf_row(hom_w)
    h = [r for r in h if any(r)]
    if len(h) != s:
        raise VerificationError("solution lattice of a character extension is not full rank")
    w = reduce_mod_lattice(h, w)
    return [w[i] % d[i] for i in range(s)]
