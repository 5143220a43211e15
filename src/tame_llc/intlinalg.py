"""Small exact linear algebra, one copy of each piece: the matrix product
`mat_mul`, the Hermite forms `hnf_row` (with its transform, for
`solve_left`) and `hnf_mod`, the Smith form `smith_normal_form`, the
triangular solve `_divmod_lattice`, the reduced echelon form over F_p
`fp_echelon`, and finite-abelian-group plumbing: `SubgroupPresentation`,
`kernel_subgroup` and `intersect_subgroups` (both read a graph lattice's
lower Hermite block, `_lower_block`) and `extend_character`.
Only ring_model and characters import it: the formal-degree path does
not enter it.

Group computations stay at the size of their group.  A Hermite form is
unique for its lattice, so a lattice that holds diag(n), n its columns'
orders (a subgroup, a kernel's, an intersection's or a character's graph),
takes `hnf_mod` with column j modulo n_j and no row of diag(n) written
out, and no entry exceeds its column's order.  `smith_normal_form` keeps S
exact, so its pivots are those of the elimination over Z, and logs its
column steps instead of updating two transforms.  Each Euclid step divides
by the smallest entry, in `hnf_row` and in the Smith form alike.

Each lattice is factored once, and only U-bar's `SubgroupPresentation`
takes a Smith form of a subgroup: a kernel or an intersection is the
Hermite rows that generate it, since `extend_character` is canonical for
the subgroup it is given.  A subgroup solves against its square Hermite
basis by `_divmod_lattice`, which also gives the canonical representative
modulo a lattice.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import List, Optional, Sequence, Tuple

from .exactnum import VerificationError

Matrix = List[List[int]]


def diag(d: Sequence[int]) -> Matrix:
    """The square diagonal matrix with diagonal d."""
    return [[d[i] if j == i else 0 for j in range(len(d))] for i in range(len(d))]


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


def hnf_row(mat: Matrix) -> Tuple[Matrix, Matrix]:
    """Row Hermite normal form.

    Returns (H, U) with U unimodular, U*mat = H, H in row-echelon form with
    positive pivots and reduced entries above each pivot.  Zero rows sink to
    the bottom.
    """
    h = [list(r) for r in mat]
    n = len(h)
    m = len(h[0]) if h else 0
    u = diag([1] * n)
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


def _xgcd(a: int, b: int) -> Tuple[int, int, int]:
    """(g, x, y) with g = gcd(a, b) = a*x + b*y, for a, b >= 0."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return a, x0, y0


def hnf_mod(rows: Sequence[Sequence[int]], moduli: Sequence[int]) -> Matrix:
    """The square row Hermite normal form of the lattice spanned by `rows`
    and diag(moduli) (Domich, Kannan and Trotter, Math. Oper. Res. 12, 1987;
    Cohen, A Course in Computational Algebraic Number Theory, Alg. 2.4.8).

    The form is unique for its lattice, so it is the nonzero part of
    hnf_row(rows + diag(moduli)).  Entry j of every row is kept modulo
    moduli[j], which moves the row by a vector of diag(moduli), inside the
    lattice; so each pivot divides its column's modulus and every other
    entry lies in [0, moduli[j]).
    """
    if any(n < 1 for n in moduli):
        raise ValueError("a Hermite form modulo n needs every n >= 1")
    m = len(moduli)
    live = [[x % n for x, n in zip(r, moduli)] for r in rows]
    h: Matrix = []
    for c in range(m):
        # moduli[c] e_c lies in the lattice: fold every live row with a
        # nonzero in column c into it by an extended gcd, a unimodular 2x2 step
        piv = [0] * m
        piv[c] = moduli[c]
        rest = []
        for r in live:
            x, a = r[c], piv[c]
            if x % a == 0:
                q = x // a
                if q:
                    r = [(z - q * y) % n for y, z, n in zip(piv, r, moduli)]
            else:
                g, u, w = _xgcd(a, x)
                ag, xg = a // g, x // g
                piv, r = ([(u * y + w * z) % n for y, z, n in zip(piv, r, moduli)],
                          [(ag * z - xg * y) % n for y, z, n in zip(piv, r, moduli)])
            if any(r):
                rest.append(r)
        live = rest
        # reduce column c above the pivot; columns left of c are untouched
        for hi in h:
            q = hi[c] // piv[c]
            if q:
                hi[c:] = [(y - q * z) % n for y, z, n in zip(hi[c:], piv[c:], moduli[c:])]
        h.append(piv)
    return h


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
    return mat_mul([y], u)[0], kernel


def fp_echelon(rows: Sequence[Sequence[int]], p: int, ncols: int):
    """Reduced row echelon form over F_p, pivoting in the first ncols columns.

    Returns (reduced rows, pivot columns, det); the rank is the number of
    pivots.  det is the determinant of the first ncols columns mod p when
    there are ncols rows (0 when a column has no pivot).  Each pivot clears
    its column in every other row when it is taken.
    """
    rows = [list(r) for r in rows]
    pivots: List[int] = []
    det = 1
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
        pr = rows[rr] = [(x * inv) % p for x in rows[rr]]
        for r2, row in enumerate(rows):
            fac = row[c] % p
            if fac and r2 != rr:
                rows[r2] = [(x - fac * y) % p for x, y in zip(row, pr)]
        pivots.append(c)
    return rows, pivots, det


def _divmod_lattice(h: Matrix, x: Sequence[int]) -> Tuple[List[int], List[int]]:
    """(y, r) with x = y*h + r and 0 <= r_i < h_ii, for h square, upper
    triangular with positive diagonal: the quotient by each pivot in turn.
    r is the canonical representative of x modulo the row lattice of h."""
    r = list(x)
    y = []
    for i, hi in enumerate(h):
        c, r[i] = divmod(r[i], hi[i])
        y.append(c)
        if c:
            for j in range(i + 1, len(r)):
                r[j] -= c * hi[j]
    return y, r


def _least_nonzero(row: List[int], lo: int, hi: int) -> Optional[Tuple[int, int]]:
    """(|x|, j) for the first entry x of least nonzero |x| in row[lo:hi]."""
    seg = row[lo:hi]
    a = min(map(abs, filter(None, seg)), default=0)
    if not a:
        return None
    return a, lo + next(j for j, x in enumerate(seg) if x == a or x == -a)


def smith_normal_form(mat: Matrix, modulus: int) -> Tuple[Matrix, Matrix, Matrix]:
    """Smith normal form: returns (S, V, W) with S = U*mat*T diagonal for
    some unimodular U and T, the diagonal entries nonnegative with
    d1 | d2 | ...  V is T without its columns j with d_j = 1, and W is
    T^{-1} without its rows j with d_j = 1: the parts an invariant-factor
    basis reads.  The divisibility chain puts those d_j first, so V and W
    keep the last columns and rows; a column j >= len(mat) is kept.

    S is exact, so the pivots depend on mat alone.  Each column step is
    logged rather than applied to T and T^{-1}; a kept column of T (a row
    of T^{-1}) replays the log backwards on a unit vector (Cohen, A Course
    in Computational Algebraic Number Theory, Alg. 2.4.14).  V and W are
    the exact transforms' entries reduced into [0, modulus), which every
    order they are read by must divide."""
    s = [list(r) for r in mat]
    n = len(s)
    m = len(s[0]) if s else 0
    mod = modulus
    log = []  # (t, js, qs): column js[k] -= qs[k] * column t; (i, j, None): a swap

    def swap_cols(i, j):
        for row in s:
            row[i], row[j] = row[j], row[i]
        log.append((i, j, None))

    def clear_col_steps(t, hi_c):
        # column j -= q_j * column t for every j > t in the block, with q_j
        # from row t.  Column t is the only source and no step changes it,
        # so the quotients are those of the steps taken one at a time.
        piv = s[t][t]
        steps = [(j, q) for j in range(t + 1, hi_c) for q in (s[t][j] // piv,) if q]
        if not steps:
            return
        for row in s:
            x = row[t]
            if x:
                for j, q in steps:
                    row[j] -= q * x
        js, qs = zip(*steps)
        log.append((t, js, tuple(q % mod for q in qs)))

    def diagonalize(lo, hi_r, hi_c):
        # Diagonalize the block [lo:hi_r] x [lo:hi_c].  At each pivot step
        # move the entry of least absolute value (the first in row-major
        # order on ties) to (t, t) and reduce its row and column by
        # remainders; any surviving nonzero is strictly smaller than the
        # pivot, so the loop terminates.
        t = lo
        while t < min(hi_r, hi_c):
            piv = None
            for i in range(t, hi_r):
                least = _least_nonzero(s[i], t, hi_c)
                if least and (piv is None or least[0] < piv[0]):
                    piv = (least[0], i, least[1])
                    if least[0] == 1:
                        break  # no later entry is smaller
            if piv is None:
                break
            while piv is not None:
                _, pi, pj = piv
                s[t], s[pi] = s[pi], s[t]
                if pj != t:
                    swap_cols(t, pj)
                st = s[t]
                # rows below t are zero left of column t, as is row t
                for i in range(t + 1, hi_r):
                    q = s[i][t] // st[t]
                    if q:
                        si = s[i]
                        si[t:] = [x - q * y for x, y in zip(si[t:], st[t:])]
                clear_col_steps(t, hi_c)
                least = _least_nonzero(st, t + 1, hi_c)
                piv = least and (least[0], t, least[1])
                for i in range(t + 1, hi_r):
                    x = s[i][t]
                    if x and (piv is None or abs(x) < piv[0]):
                        piv = (abs(x), i, t)
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
        s[bad] = [x + y for x, y in zip(s[bad], s[bad + 1])]
        diagonalize(bad, bad + 2, bad + 2)
    kept = [j for j in range(m) if j >= n or s[j][j] != 1]
    # T = E_1 ... E_K and T^{-1} = E_K^{-1} ... E_1^{-1} over the logged
    # steps E_k = I - sum q E_{t,j}: column j of T is E_1 (... (E_K e_j)),
    # and row j of T^{-1} is ((e_j E_K^{-1}) ...) E_1^{-1}
    cols, rows = [], []
    for j in kept:
        x = [0] * m
        y = [0] * m
        x[j] = y[j] = 1
        for t, js, qs in reversed(log):
            if qs is None:
                x[t], x[js], y[t], y[js] = x[js], x[t], y[js], y[t]
                continue
            x[t] = (x[t] - sum(q * x[k] for k, q in zip(js, qs))) % mod
            yt = y[t] % mod  # y is reduced where it is read, and at the end
            if yt:
                for k, q in zip(js, qs):
                    y[k] += q * yt
        cols.append(x)
        rows.append([c % mod for c in y])
    return s, [[c[i] for c in cols] for i in range(m)], rows


# ---------------------------------------------------------------------------
# Finite abelian groups presented as Z^s / diag(d) with extra relations
# ---------------------------------------------------------------------------

def _diag_over(h: Matrix, d: Sequence[int]) -> Matrix:
    """diag(d) * h^{-1}, row by row by back-substitution, for h the square
    Hermite basis of a lattice that holds diag(d), so that it is integral."""
    rows = []
    for target in diag(d):
        y, r = _divmod_lattice(h, target)
        if any(r):
            raise VerificationError("diag(d) must lie in the subgroup lattice")
        rows.append(y)
    return rows


class SubgroupPresentation:
    """A subgroup of G = (+) Z/d_i, with its own invariant-factor basis,
    for a subgroup whose coordinates reach the output (U-bar).

    Attributes:
        orders: invariant factors of the subgroup, none of them 1.
        basis: rows expressing each subgroup basis element in ambient coords.
    """

    def __init__(self, ambient_orders: Sequence[int], gen_rows: Sequence[Sequence[int]]):
        basis_m = hnf_mod(gen_rows, ambient_orders)
        self._m = basis_m  # lattice basis rows, HNF: square, upper triangular
        # relation lattice of the generators y -> y*M mod diag(d); the
        # subgroup's invariant factors divide the exponent of the ambient group
        snf, self._v, w = smith_normal_form(_diag_over(basis_m, ambient_orders),
                                            lcm(*ambient_orders))
        self.orders: List[int] = [snf[j][j] for j in range(len(snf) - len(w), len(snf))]
        self.basis: List[List[int]] = [
            [c % d for c, d in zip(row, ambient_orders)] for row in mat_mul(w, basis_m)]

    def coords(self, x: Sequence[int]) -> Optional[List[int]]:
        """Coordinates of ambient element x in the subgroup basis, or None.

        x is a member exactly when it lies in the row lattice of _m, which
        contains diag(d); its unique lattice coordinates then come by
        back-substitution.
        """
        y, r = _divmod_lattice(self._m, x)
        if any(r):
            return None
        return [c % d for c, d in zip(mat_mul([y], self._v)[0], self.orders)]


def _lower_block(graph: Matrix, top: Sequence[int], orders: Sequence[int]) -> Matrix:
    """Generator rows of the subgroup in which the lattice spanned by graph
    and diag(top | orders) meets 0 x Z^s, s = len(orders): its Hermite rows
    past the top block, cut to the last s columns, reduced modulo the
    orders, zero rows dropped."""
    t = len(top)
    h = hnf_mod(graph, [*top, *orders])
    return [r for r in ([x % d for x, d in zip(row[t:], orders)] for row in h[t:]) if any(r)]


def kernel_subgroup(
    src_orders: Sequence[int],
    map_rows: Sequence[Sequence[int]],
    dst_orders: Sequence[int],
) -> Matrix:
    """Generator rows of the kernel of a homomorphism (+) Z/s_i -> (+) Z/t_j.

    Row i of map_rows is the image of the i-th source generator in
    destination coordinates.  The graph lattice, spanned by (A_i | e_i) and
    diag(t | s), meets 0 x Z^s in 0 x (the kernel's lattice): its Hermite
    rows with their pivot among the last s columns.
    """
    graph = [list(row) + unit for row, unit in zip(map_rows, diag([1] * len(src_orders)))]
    return _lower_block(graph, dst_orders, src_orders)


def intersect_subgroups(
    ambient_orders: Sequence[int],
    rows1: Sequence[Sequence[int]],
    rows2: Sequence[Sequence[int]],
) -> Matrix:
    """Generator rows of the intersection of two subgroups given by theirs.

    The Zassenhaus lattice, spanned by (a | a) over A's generators, (b | 0)
    over B's and diag(d | d), meets 0 x Z^s in 0 x (A cap B): its Hermite
    rows with their pivot among the last s columns.
    """
    zero = [0] * len(ambient_orders)
    graph = [[*a, *a] for a in rows1] + [[*b, *zero] for b in rows2]
    return _lower_block(graph, ambient_orders, ambient_orders)


def extend_character(
    ambient_orders: Sequence[int],
    subgroup_rows: Sequence[Sequence[int]],
    values: Sequence[Fraction],
) -> List[int]:
    """Extend a character from a subgroup to the whole group.

    The subgroup is generated by `subgroup_rows` (ambient coordinates); the
    character takes the value `values[j]`, a fraction of a turn read mod 1,
    on generator j.  Returns the exponent vector w (value zeta_{d_i}^{w_i}
    on e_i) of an extension, chosen canonically (HNF-reduced representative
    of the solution coset).

    Raises VerificationError if the prescribed values are inconsistent (not
    an actual character of the subgroup).
    """
    d = list(ambient_orders)
    s = len(d)
    big = lcm(*d, *(v.denominator for v in values))
    # the character's graph in Z^s x Z/big: (b_j | value_j) and diag(d | big).
    # The values are a character exactly when it meets 0 x Z/big in 0 alone,
    # that is when the last pivot is big.
    graph = [[*b, v.numerator * (big // v.denominator)] for b, v in zip(subgroup_rows, values)]
    h = hnf_mod(graph, [*d, big])
    if h[s][s] != big:
        raise VerificationError("prescribed values are not a character of the subgroup")
    # an extension x -> sum_i x_i u_i / big must take the value h_{ks} / big
    # on each Hermite row k; back-substitute u up the triangular rows
    u = [0] * s
    for k in reversed(range(s)):
        rest = h[k][s] - sum(h[k][i] * u[i] for i in range(k + 1, s))
        q, rem = divmod(rest, h[k][k])
        if rem:
            raise VerificationError("a character's graph does not back-substitute")
        u[k] = q % big
    w = []
    for ui, di in zip(u, d):
        wi, rem = divmod(ui, big // di)
        if rem:
            raise VerificationError("an extended character is not trivial on d_i e_i")
        w.append(wi)
    # canonical representative: reduce modulo the annihilator of the
    # subgroup, {w : M diag(d)^{-1} w integral} for its Hermite basis M,
    # which the columns of diag(d) M^{-1} span
    rel = _diag_over([row[:s] for row in h[:s]], d)
    ann = hnf_mod([list(col) for col in zip(*rel)], [lcm(*d)] * s)
    w = _divmod_lattice(ann, w)[1]
    return [w[i] % d[i] for i in range(s)]
