"""Local L-, epsilon- and gamma-factor arithmetic.

|gamma(0)| from a conductor and an L-factor, lambda-factors of tame
extensions (closed form against brute-force inductivity), the root number
and conductor of induced twist characters, the principal (Steinberg)
parameter's adjoint factors, the invariant pairing on symmetric powers,
and the Weil-Deligne assembly formulas.

Everything is normalized at n(psi) = 0 with the O-selfdual measure.  An
L-factor is given through its inverse polynomial 1/L = P(u), u = q^{-s},
as ascending coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, gcd, isqrt, lcm
from typing import List, Sequence, Tuple

from .exactnum import (
    Cyclotomic,
    VerificationError,
    quadratic_gauss_phase,
    unit_part,
)
from .ring_model import GaloisRing, residue_generator


# ---------------------------------------------------------------------------
# L-factors and gamma at zero
# ---------------------------------------------------------------------------

def _poly_mul(a: Sequence, b: Sequence) -> Tuple:
    """The product of two polynomials given by ascending coefficients, over
    the ring their coefficients lie in (Fractions or Cyclotomics)."""
    out = [a[0] * 0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] = out[i + j] + ai * bj
    return tuple(out)


def gamma_at_zero_abs(q: int, a: int, l_inv: Sequence[Fraction]) -> Fraction:
    """|gamma(0)| = |eps| * L(1)/L(0) for conductor a and L = 1/P(u), u = q^{-s},
    where l_inv holds the rational coefficients of P, ascending.

    s = 1 is u = 1/q and s = 0 is u = 1, so L(1)/L(0) = P(1)/P(1/q); a zero
    of P at either point is a pole of L, a VerificationError: L(s, Ad phi) of
    a discrete parameter has no pole at s = 0 or 1.  Over a common denominator
    the coefficients are integers c_0..c_k, and P(1)/P(1/q) = q^k A/B with
    A = sum c_i and B = sum c_i q^{k-i}, both by integer Horner.
    |eps| = q^{a/2} must be rational: q^a is a square.
    """
    den = lcm(*(c.denominator for c in l_inv))
    coeffs = [c.numerator * (den // c.denominator) for c in l_inv]
    A = sum(coeffs)
    if not A:
        raise VerificationError("L has a pole at u = 1")
    B = 0
    for c in coeffs:
        B = B * q + c
    if not B:
        raise VerificationError(f"L has a pole at u = {Fraction(1, q)}")
    return Fraction(q ** (len(coeffs) - 1) * abs(A), abs(B)) * _fraction_sqrt(q ** a)


def _fraction_sqrt(x: Fraction) -> Fraction:
    n, d = x.numerator, x.denominator
    rn, rd = isqrt(n), isqrt(d)
    if rn * rn != n or rd * rd != d:
        raise VerificationError("not a rational square: %s" % x)
    return Fraction(rn, rd)


# ---------------------------------------------------------------------------
# lambda factors of tame extensions
# ---------------------------------------------------------------------------

def lambda_tame(p: int, d: int, e: int, u0_log: int, method: str = "closed"):
    """lambda(K/K_0, psi_{K_0}) for the totally ramified degree-e piece.

    The base has residue field F_Q, Q = p^d, and d-valuation 0; the prime
    element below is pi_0 = u_0 * p with unit residue gen^u0_log.  Closed
    form, a fraction of a turn: 1 for e odd; for e even the parity sign times
    the Legendre symbol of u_0 times the quadratic Gauss sum of F_Q.  Brute
    force, a Cyclotomic: eps(Ind 1)/eps(1_K), for e | Q - 1 only, where the
    extension is cyclic; a ValueError otherwise.
    """
    Q = p ** d
    if method == "closed":
        if e % 2:
            return Fraction(0)
        sign_exp = ((Q - 1) // e) * (e * (e + 2) // 8)
        return (Fraction(sign_exp % 2 + u0_log % 2, 2) + quadratic_gauss_phase(p, d)) % 1
    if method != "bruteforce":
        raise ValueError(f"unknown method {method!r}")
    if e == 1:
        return Cyclotomic.one()
    if (Q - 1) % e != 0:
        raise ValueError(f"e = {e} does not divide Q - 1 = {Q - 1}: extension is not cyclic")
    gf = GaloisRing(p, 1, d)
    gen = residue_generator(gf)
    u0inv = gf.pow(gen, -u0_log % (Q - 1))
    out = Cyclotomic.one()
    for j in range(1, e):
        # chi_j(t) = zeta_e^{j log t}; epsilon of chi_j is the normalized
        # Gauss sum against t -> psi(-pi_0^{-1} t), i.e. shift -u0^{-1}
        total = Cyclotomic.zero()
        cur = gf.one
        for k in range(Q - 1):
            chi_inv = Cyclotomic.root_of_unity(e, (-j * k) % e)
            psi = Cyclotomic.root_of_unity(
                p, (-gf.trace_abs(gf.mul(cur, u0inv))) % p
            )
            total = total + chi_inv * psi
            cur = gf.mul(cur, gen)
        out = out * unit_part(total, 1, Q)
    return out


def model_lambda(sys) -> Fraction:
    """lambda(K/F, psi), a fraction of a turn, on the ring model's uniformizer data."""
    P = sys.P
    u0_log = (sys.M.zeta_exp * (P.e * (P.e - 1) // 2) + sys.M.c_exp) % (P.q_K - 1)
    return lambda_tame(P.p, P.a * P.f, P.e, u0_log, method="closed")


# ---------------------------------------------------------------------------
# induced characters
# ---------------------------------------------------------------------------

def induced_factor(sys, gamma, lam: Fraction) -> Tuple[Fraction, int]:
    """(w, a) over F of Ind_K^F of the twist character attached to gamma, w a turn.

    Conductor by the conductor-discriminant formula a = f(e-1) + f n(twist);
    root number by inductivity: w(twist, psi_K) * lam, lam = lambda(K/F, psi),
    where psi_K has level d_K = e - 1.  w(twist, psi_K) is the normalized
    Gauss sum at the twist's conductor k (one at k = 0) times the twist's
    value at the uniformizer to the power d_K + k.
    """
    from .characters import conductor_bruteforce, gauss_sum

    P = sys.P
    tw = sys.theta_tilde_twist(gamma)
    k = conductor_bruteforce(sys, tw)
    w = (gauss_sum(sys, tw, k) + tw.value_at_uniformizer * (P.e - 1 + k) + lam) % 1
    return w, P.f * (P.e - 1 + k)


# ---------------------------------------------------------------------------
# the principal parameter
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PrincipalData:
    a: int
    coeffs: Tuple[int, ...]  # scale * (1/L), ascending in u = q^{-s}
    scale: int
    gamma0: Fraction
    ad_eigen_exponents: Tuple[int, ...]  # Frobenius exponents on ker ad(N_0)

    @property
    def l_inv(self) -> Tuple[Fraction, ...]:
        """1/L, ascending in u = q^{-s}, built only when it is read."""
        return tuple(Fraction(c, self.scale) for c in self.coeffs)


def _ad_degree(d: int, v: Sequence[int], diag: Sequence[int], up: Sequence,
               right: Sequence) -> Tuple[List[int], int]:
    """The block d -> d + 1 of ad(N_0): X -> N_0 X - X N_0 on gl_n over Z,
    in one pass over its rows E_ij, j - i = d, i ascending, none of them
    built.  Returns the image of sum_t v_t E_{i_t, i_t + d} (zero for v
    empty) in the columns E_{r, r + d + 1}, r ascending, and the number of
    distinct last nonzero columns of the rows, a lower bound on the block's
    rank over Q (order such rows by that column: each has a nonzero entry
    where the earlier ones have none).

    The image of E_ij is sum_k N_0[k][i] E_kj - sum_k N_0[j][k] E_ik:
    up[i] E_{i-1,j} - right[j] E_{i,j+1} in degree d + 1 (up[i] =
    N_0[i-1][i], right[j] = N_0[j][j+1], 0 past the edge), then
    (diag[i] - diag[j]) E_ij, and a term for each nonzero entry of column i
    or row j off the diagonal and superdiagonal, which makes up[i] or
    right[j] None.  An image that leaves degree d + 1 raises.
    """
    n = len(diag)
    lo, first = max(0, -d), max(0, -d - 1)  # first: the row of column 0 in degree d + 1
    image = [0] * (n - abs(d + 1))
    lasts = set()
    for i in range(lo, min(n, n - d)):
        j = i + d
        u, w = up[i], right[j]
        if u is None or w is None or diag[i] != diag[j]:
            raise VerificationError(f"ad(N_0) sends E_{i},{j} outside degree {d + 1}")
        c = i - first  # the column of E_{i,j+1}; E_{i-1,j} is column c - 1
        if w:
            lasts.add(c)
        elif u:
            lasts.add(c - 1)
        if v:
            x = v[i - lo]
            if w:
                image[c] -= x * w
            if u:
                image[c - 1] += x * u
    return image, len(lasts)


def _certify_centralizer(N0: Sequence[Sequence[Tuple[int, int]]]) -> None:
    """Certify ker ad(N_0) = span_Z(N_0^0, ..., N_0^{n-1}) with no
    elimination, one pass per degree d = j - i of gl_n; row i of N0 holds
    the pairs (j, N_0[i][j]) of its nonzero entries.

    ad(N_0) raises the degree by one, so it is the direct sum of its 2n - 1
    blocks d -> d + 1 (`_ad_degree`).  N_0^k, of degree k, must lie in the
    kernel of block k and be primitive, and the blocks' coranks, bounded
    above by their distinct last columns, must sum to n (in the graded
    basis, all rows of block d but its last have distinct last columns).
    So each block k < n has a kernel of rank one, spanned over Z by N_0^k.
    """
    n = len(N0)
    diag, up, right, off = [0] * n, [0] * n, [0] * n, []
    for i, row in enumerate(N0):
        for j, c in row:
            if j == i:
                diag[i] = c
            elif j == i + 1:
                up[j] = right[i] = c
            elif c:
                off.append((i, j))
    for i, j in off:
        up[j] = right[i] = None
    corank = 0
    for d in range(1 - n, 0):
        corank += n + d - _ad_degree(d, [], diag, up, right)[1]
    pw = {(i, i): 1 for i in range(n)}  # N_0^d, sparse
    for d in range(n):
        v = [0] * (n - d)
        for (i, j), c in pw.items():
            if c:
                if j - i != d:
                    raise VerificationError(f"N_0^{d} has an entry off its diagonal")
                v[i] = c
        image, rank = _ad_degree(d, v, diag, up, right)
        corank += n - d - rank
        if any(image):
            raise VerificationError(f"N_0^{d} is not in the kernel of ad(N_0)")
        if gcd(*v) != 1:
            raise VerificationError(f"N_0^{d} is not primitive")
        nxt = {}
        for (i, m), c in pw.items():
            for j, c2 in N0[m]:
                nxt[i, j] = nxt.get((i, j), 0) + c * c2
        pw = nxt
    if corank != n:
        raise VerificationError("regular nilpotent centralizer must have dimension n")


def principal_triple(n: int, q: int) -> PrincipalData:
    """Adjoint factors of the Steinberg parameter Sym^{n-1} of SL_2.

    N_0 is the regular nilpotent.  `_certify_centralizer` reads ker ad(N_0)
    = span_Z(N_0^k), k < n, off the matrices on every call, one pass per
    degree d = j - i of gl_n.  Frobenius acts on degree d by q^{-d}
    (F N_0 F^{-1} = q^{-1} N_0), so the eigenvalues of adjoint Frobenius on
    the centralizer in sl_n are q^{-k}, k = 1..n-1, the trace line of
    degree 0 dropped.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    _certify_centralizer([[(i + 1, 1)] for i in range(n - 1)] + [[]])
    ad_exps = tuple(range(1, n))
    # 1/L = prod (1 - q^{-k} u) = q^{-s} prod (q^k - u), s the sum of the k,
    # multiplied over Z.  gamma(0) reads the integer coefficients: the scale
    # q^{-s} cancels in it, so the Fractions of l_inv are built only when read
    coeffs = [1]
    for k in ad_exps:
        qk = q ** k
        coeffs = [qk * x - y for x, y in zip(coeffs + [0], [0] + coeffs)]
    scale = q ** sum(ad_exps)
    a = n * (n - 1)
    return PrincipalData(a, tuple(coeffs), scale, gamma_at_zero_abs(q, a, coeffs), ad_exps)


# ---------------------------------------------------------------------------
# the invariant pairing on symmetric powers
# ---------------------------------------------------------------------------

def sym_pairing(n: int, i: int, j: int) -> int:
    """<X^{n-i}Y^i, X^{n-j}Y^j> = (-1)^{n-i} (n-i)! i! [i + j = n]."""
    if i + j != n:
        return 0
    return (-1) ** (n - i) * factorial(n - i) * factorial(i)


def _sym_matrix(n: int, g: Sequence[Sequence[Cyclotomic]]) -> List[List[Cyclotomic]]:
    """Matrix of Sym^n(g) on the basis X^{n-i} Y^i, i = 0..n."""
    (a, b), (c, d) = g
    cols: List[Tuple[Cyclotomic, ...]] = []
    for i in range(n + 1):
        # (aX + cY)^{n-i} (bX + dY)^i, ascending in the power of Y
        poly = (Cyclotomic.one(),)
        for lin in [(a, c)] * (n - i) + [(b, d)] * i:
            poly = _poly_mul(poly, lin)
        cols.append(poly)
    return [[cols[j][i] for j in range(n + 1)] for i in range(n + 1)]


def sym_pairing_check(n: int, gs: Sequence[Sequence[Sequence[Cyclotomic]]]) -> bool:
    """Invariance of the pairing under Sym^n(g) and its (-1)^n symmetry."""
    for i in range(n + 1):
        for j in range(n + 1):
            if sym_pairing(n, i, j) != (-1) ** n * sym_pairing(n, j, i):
                return False
    for g in gs:
        m = _sym_matrix(n, g)
        for i in range(n + 1):
            for j in range(n + 1):
                acc = Cyclotomic.zero()
                for k in range(n + 1):
                    for l in range(n + 1):
                        pk = sym_pairing(n, k, l)
                        if pk:
                            acc = acc + m[k][i] * m[l][j] * pk
                if acc != Cyclotomic.from_rational(sym_pairing(n, i, j)):
                    return False
    return True


# ---------------------------------------------------------------------------
# Weil-Deligne assembly
# ---------------------------------------------------------------------------

def wd_factors(pieces: Sequence[Tuple[int, Tuple[Fraction, ...], Cyclotomic, int]],
               q: int) -> Tuple[int, Tuple[Fraction, ...], Cyclotomic]:
    """(a, 1/L, w) of a sum of pieces V_n (tensor) Sym_n, each given as
    (a, 1/L, w) of V_n and n.

    a = sum (n+1) a(V_n) + n dim V_n^I; w = prod w(V_n)^{n+1}; the L-factor
    of a piece shifts the Frobenius eigenvalues of V_n by q^{-n/2} (only
    even n carry an L here, which covers every descriptor in this package).
    """
    total_a = 0
    total_w = Cyclotomic.one()
    poly: Tuple[Fraction, ...] = (Fraction(1),)
    for a, l_inv, w, sym_n in pieces:
        fixed_dim = len(l_inv) - 1
        total_a += (sym_n + 1) * a + sym_n * fixed_dim
        total_w = total_w * w ** (sym_n + 1)
        if fixed_dim:
            if sym_n % 2:
                raise ValueError("odd Sym index with nontrivial L is unsupported")
            scale = Fraction(1, q ** (sym_n // 2))
            poly = _poly_mul(poly, tuple(c * scale ** i for i, c in enumerate(l_inv)))
    return total_a, poly, total_w


def principal_descriptor(n: int) -> List[Tuple[int, Tuple[Fraction, ...], Cyclotomic, int]]:
    """The adjoint of the principal parameter as Sym-isotypic pieces:
    Ad of Sym^{n-1} decomposes as the sum of Sym_{2k}, k = 1..n-1, each with
    trivial Galois part, whose factors are a = 0, L = (1 - u)^{-1} and
    w = 1."""
    return [(0, (Fraction(1), Fraction(-1)), Cyclotomic.one(), 2 * k) for k in range(1, n)]
