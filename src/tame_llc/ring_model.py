"""Finite ring model R = GR(p^r, af)[pi]/(pi^e - c p) of O_K / p_K^{er}.

The base is the Galois ring GR(p^r, af) (unramified coefficient ring with
residue field F_{q^f}); the uniformizer pi carries the tame ramification.
The Galois action is delta(pi) = zeta_e pi on pi and the identity on
coefficients, while rho acts as pi -> t pi and on coefficients as the
inverse q-Frobenius, tau^k -> tau^{k q^{f-1}}, the one Galois action on
coefficients, by a matrix read off the Teichmuller digits of x.  The
triple (c, zeta_e, t) of Teichmuller units is found by a deterministic
lexicographic search over the consistency congruences, and kept only as
exponents of the Teichmuller generator tau, as is g(pi)/pi.  A Teichmuller
unit is raised by Model.tau_power of its exponent, every other power by
exactnum.mul_power, and no discrete log solves for a known exponent.

An element is one flat tuple of e * d integers mod p^r, the pi^i
coefficient in the slice [i d, (i + 1) d).  A product is straight-line
code, written and compiled once per model from its fold table; each Galois
element acts by its matrix, built once per model and checked by
_verify_model.

Unit groups of the quotients R / pi^N are presented by generators and a
relation lattice in Smith normal form, which gives exact discrete
logarithms; this one engine gives the Galois matrices on the unit group,
whose sum gives the norm kernel, and is behind character extension,
conductor brute forcing and Gauss sums.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import gcd, isqrt, prod
from operator import mod, mul
from typing import Callable, Dict, List, Sequence, Tuple

from .exactnum import TooLarge, VerificationError, _factorize, mul_power
from .intlinalg import (
    SubgroupPresentation,
    fp_echelon,
    kernel_subgroup,
    mat_mul,
    smith_normal_form,
)
from .tame_galois import GalElt, TameParams, gal_elements, gal_mul

GRElt = Tuple[int, ...]


# ---------------------------------------------------------------------------
# polynomial helpers over F_p (coefficient lists, low degree first)
# ---------------------------------------------------------------------------

def _fp_poly_mulmod(a, b, h, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    d = len(h) - 1
    # h is monic
    for k in range(len(out) - 1, d - 1, -1):
        c = out[k]
        if c:
            for j in range(d + 1):
                out[k - d + j] = (out[k - d + j] - c * h[j]) % p
    out = out[:d]
    while len(out) < d:
        out.append(0)
    return out


def _fp_irreducible(h, p):
    """Rabin test for a monic polynomial h over F_p (low degree first).

    gcd(g, h) = 1 exactly when multiplication by g is invertible on
    F_p[x]/(h), so each gcd of the test is the rank of that matrix, whose
    rows are g x^i mod h, by fp_echelon.  The powers of x share one list
    of repeated squares."""
    d = len(h) - 1
    if d == 1:
        return True

    def mul(a, b):
        return _fp_poly_mulmod(a, b, h, p)

    x = [0, 1] + [0] * (d - 2)
    one = [1] + [0] * (d - 1)
    squares = [x]
    if mul_power(mul, one, squares, p ** d, one) != x:
        return False
    for ell in _factorize(d):
        # a copy: at p = 2 the power is one of the shared squares
        g = list(mul_power(mul, one, squares, p ** (d // ell), one))
        g[1] = (g[1] - 1) % p
        rows = [g]
        for _ in range(d - 1):
            rows.append(mul(rows[-1], x))
        if fp_echelon(rows, p, d)[2] == 0:
            return False
    return True


def _base_p_digits(code: int, p: int, d: int) -> List[int]:
    """The d lowest base-p digits of code, least significant first."""
    digits = []
    for _ in range(d):
        digits.append(code % p)
        code //= p
    return digits


def _least_irreducible(p: int, d: int) -> List[int]:
    """Lexicographically least monic irreducible of degree d over F_p.

    Coefficient tuples (c_0, ..., c_{d-1}) are ordered as base-p counters.
    """
    for code in range(p ** d):
        h = _base_p_digits(code, p, d) + [1]
        if _fp_irreducible(h, p):
            return h
    raise VerificationError("no irreducible polynomial found")


# ---------------------------------------------------------------------------
# the product of flat coefficient tuples
# ---------------------------------------------------------------------------

def _product_kernel(e: int, d: int, mod: int,
                    images: Sequence[Sequence[Tuple[int, ...]]]) -> Callable:
    """x, y -> x y on flat tuples of n = e d integers mod `mod`, entry
    i d + b the coefficient of x^b pi^i, as straight-line code written and
    compiled once per ring.

    Slot (u, v), u < 2e - 1 and v < 2d - 1, is the coefficient of x^v pi^u
    in the unreduced product: the sum of x_{i d + b} y_{j d + c} over
    i + j = u and b + c = v.  images[u][v] is the reduced image of x^v pi^u
    as a flat tuple, so output coordinate k is the sum of the slots times
    the k-th entries of their images, mod `mod`.

    Each image entry is taken as its least absolute residue: 0 drops the
    slot, 1 and -1 add or subtract it, and any other is bound, like `mod`,
    as a keyword default.  No constant is written into the source as
    decimal text, for str() refuses an int of more than
    sys.get_int_max_str_digits() digits.  An operand of the wrong length
    fails to unpack and raises ValueError.
    """
    n = e * d
    row = 2 * d - 1
    slots: List[List[str]] = [[] for _ in range((2 * e - 1) * row)]
    for i in range(e):
        for b in range(d):
            for j in range(e):
                for c in range(d):
                    slots[(i + j) * row + b + c].append(f"x{i * d + b}*y{j * d + c}")
    consts: Dict[int, str] = {}
    outs = []
    for k in range(n):
        terms = []
        for u, imgs in enumerate(images):
            for v, img in enumerate(imgs):
                coeff = img[k]
                if not coeff:
                    continue
                sign = "-" if mod - coeff < coeff else "+"
                coeff = min(coeff, mod - coeff)
                term = f"s{u * row + v}"
                if coeff != 1:
                    term = f"{consts.setdefault(coeff, f'c{len(consts)}')}*{term}"
                terms.append(f"{sign} {term}")
        outs.append("(" + " ".join(terms).removeprefix("+ ") + ") % m")
    bound = {"m": mod, **{name: coeff for coeff, name in consts.items()}}
    source = "\n".join([
        f"def product(x, y, *, {', '.join(f'{name}={name}' for name in bound)}):",
        f"    {', '.join(f'x{k}' for k in range(n))}, = x",
        f"    {', '.join(f'y{k}' for k in range(n))}, = y",
        *(f"    s{s} = {' + '.join(terms)}" for s, terms in enumerate(slots)),
        f"    return ({', '.join(outs)},)",
    ])
    exec(compile(source, f"<product e={e} d={d}>", "exec"), bound)
    return bound["product"]


def _trace_vector(e: int, d: int, mod: int,
                  images: Sequence[Sequence[Tuple[int, ...]]]) -> List[int]:
    """Entry i d + b: the trace over Z/mod of multiplication by x^b pi^i,
    from the fold table _product_kernel reads.  x^b pi^i sends the basis
    element x^c pi^j to images[i + j][b + c], whose diagonal entry is its
    (j d + c)-th."""
    return [sum(images[i + j][b + c][j * d + c] for j in range(e) for c in range(d)) % mod
            for i in range(e) for b in range(d)]


# ---------------------------------------------------------------------------
# Galois ring GR(p^r, d)
# ---------------------------------------------------------------------------

class GaloisRing:
    """GR(p^r, d) = (Z/p^r)[x]/(h) with h a fixed monic irreducible lift.

    Elements are coefficient tuples of length d with entries mod p^r; the
    product is _product_kernel at e = 1.  The ring keeps only arithmetic:
    its one Galois action is rho's, which Model reads off the Teichmuller
    digits of x as powers of tau, and its trace is that of multiplication.
    """

    def __init__(self, p: int, r: int, d: int):
        self.p = p
        self.d = d
        self.mod = p ** r
        self.h = _least_irreducible(p, d)  # monic lift, entries in [0, p)
        # x^v mod h for v < 2d - 1: below d, x^v itself; from d on, x times
        # the previous power, reduced once by x^d = -(h_0 + ... + h_{d-1} x^{d-1})
        mod = self.mod
        top = tuple((-c) % mod for c in self.h[:d])
        xpow = [tuple(int(b == v) for b in range(d)) for v in range(d)]
        for _ in range(d - 1):
            last = xpow[-1]
            carry = last[d - 1]
            xpow.append(tuple(((last[b - 1] if b else 0) + carry * top[b]) % mod
                              for b in range(d)))
        self._x_powers: List[GRElt] = xpow
        self._product = _product_kernel(1, d, mod, [xpow])
        self._trace_vec = _trace_vector(1, d, mod, [xpow])
        self.zero: GRElt = tuple([0] * d)
        self.one: GRElt = xpow[0]

    def add(self, x: GRElt, y: GRElt) -> GRElt:
        mod = self.mod
        return tuple((a + b) % mod for a, b in zip(x, y))

    def sub(self, x: GRElt, y: GRElt) -> GRElt:
        mod = self.mod
        return tuple((a - b) % mod for a, b in zip(x, y))

    def scalar(self, c: int, x: GRElt) -> GRElt:
        mod = self.mod
        return tuple((c * a) % mod for a in x)

    def from_int(self, c: int) -> GRElt:
        return tuple([c % self.mod] + [0] * (self.d - 1))

    def mul(self, x: GRElt, y: GRElt) -> GRElt:
        return self._product(x, y)

    def pow(self, x: GRElt, n: int) -> GRElt:
        return mul_power(self.mul, self.one, [x], n, self.one)

    def residue(self, x: GRElt) -> GRElt:
        p = self.p
        return tuple(a % p for a in x)

    def is_unit(self, x: GRElt) -> bool:
        return any(a % self.p for a in x)

    def trace_abs(self, z: GRElt) -> int:
        """The absolute trace to Z/p^r, as the trace of multiplication by z.
        GR is unramified over Z/p^r, so this is the sum of the Frobenius
        conjugates."""
        return sum(map(mul, self._trace_vec, z)) % self.mod


def residue_generator(gr: GaloisRing) -> GRElt:
    """The least element (as a base-p counter) whose residue generates
    the multiplicative group of the residue field F_{p^d}."""
    order = gr.p ** gr.d - 1
    one = gr.residue(gr.one)
    primes = list(_factorize(order))
    # at d >= 2 the p - 1 constants (codes below p) lie in F_p^x, whose
    # order p - 1 is below p^d - 1, so none of them generates
    for code in range(1 if gr.d == 1 else gr.p, order + 1):
        cand = tuple(_base_p_digits(code, gr.p, gr.d))
        if all(gr.residue(gr.pow(cand, order // ell)) != one for ell in primes):
            return cand
    raise VerificationError("no residue field generator found")


# ---------------------------------------------------------------------------
# the tame model
# ---------------------------------------------------------------------------

Elt = Tuple[int, ...]  # flat: entry i d + b is the coefficient of x^b pi^i, i < e


@dataclass
class Model:
    P: TameParams
    gr: GaloisRing
    tau: GRElt                # Teichmuller generator of order q_K - 1
    c_exp: int                # pi^e = c p, c = tau^c_exp
    zeta_exp: int             # zeta_e = tau^zeta_exp
    t_exp: int                # t = tau^t_exp, read by pi_multiplier

    def __post_init__(self):
        gr = self.gr
        e, d = self.P.e, gr.d
        self._tau_squares: List[GRElt] = [self.tau]  # read by tau_power
        self.n = e * d
        self._pad = (0,) * (self.n - d)
        self._zero = (0,) * self.n
        self._one = gr.one + self._pad
        # at e = 1 the fold table is gr._x_powers, whose kernel and trace gr
        # already has
        if e == 1:
            self._product, self._trace_vec = gr._product, gr._trace_vec
        else:
            images = _fold_images(gr, e, gr.scalar(self.P.p, self.tau_power(self.c_exp)))
            self._product = _product_kernel(e, d, gr.mod, images)
            self._trace_vec = _trace_vector(e, d, gr.mod, images)
        self._gal_mats: Dict[GalElt, List[List[int]]] = {}  # filled by _verify_model
        # residue_log's baby steps: residue of tau^j -> j for j < m, with
        # m = ceil(sqrt(q_K - 1)); and its giant step, tau^{-m} mod p
        L = self.P.q_K - 1
        m = isqrt(L - 1) + 1
        tau_res = gr.residue(self.tau)
        cur = gr.residue(gr.one)
        self._baby_steps: Dict[GRElt, int] = {}
        for j in range(m):
            self._baby_steps[cur] = j
            cur = gr.residue(gr.mul(cur, tau_res))
        self._giant_step = gr.residue(self.tau_power(-m))
        # read by _rho_gr; at f = 1, rho fixes the coefficients
        self._rho_rows = self._rho_matrix() if self.P.f > 1 else []

    # -- element construction ----------------------------------------------

    @property
    def e(self) -> int:
        return self.P.e

    def zero(self) -> Elt:
        return self._zero

    def one(self) -> Elt:
        return self._one

    def from_gr(self, x: GRElt) -> Elt:
        return x + self._pad

    def from_int(self, c: int) -> Elt:
        return self.from_gr(self.gr.from_int(c))

    def monomial(self, b: int, i: int) -> Elt:
        """x^b p^k pi^j for i = ke + j: the b-th additive generator of
        pi^i R / pi^{i+1} R (equal to x^b pi^i when i < e)."""
        k, j = divmod(i, self.e)
        out = [0] * self.n
        out[j * self.gr.d + b] = self.P.p ** k
        return tuple(out)

    def pi(self) -> Elt:
        return self.monomial(0, 1)

    # -- ring operations ----------------------------------------------------

    def add(self, x: Elt, y: Elt) -> Elt:
        mod = self.gr.mod
        return tuple([(a + b) % mod for a, b in zip(x, y)])

    def sub(self, x: Elt, y: Elt) -> Elt:
        mod = self.gr.mod
        return tuple([(a - b) % mod for a, b in zip(x, y)])

    def mul(self, x: Elt, y: Elt) -> Elt:
        return self._product(x, y)

    def pow(self, x: Elt, n: int) -> Elt:
        """x^n for n >= 0; a negative n raises ValueError."""
        return mul_power(self.mul, self._one, [x], n, self._one)

    def tau_power(self, k: int) -> GRElt:
        """tau^k, k read modulo q_K - 1, the exact order of tau: every
        Teichmuller unit of the model is one, with k known when it is built."""
        gr = self.gr
        return mul_power(gr.mul, gr.one, self._tau_squares, k % (self.P.q_K - 1), gr.one)

    def is_unit(self, x: Elt) -> bool:
        return self.gr.is_unit(x[:self.gr.d])

    def residue_log(self, x: Elt) -> int:
        """The exponent k < q_K - 1 with x = tau^k mod pi, by Shanks' baby-step
        giant-step in the residue field: the first i with x tau^{-i m} a baby
        step tau^j gives k = i m + j.  A non-unit meets no baby step in m + 1
        giant steps and raises VerificationError."""
        gr = self.gr
        baby, giant = self._baby_steps, self._giant_step
        m = len(baby)
        y = gr.residue(x[:gr.d])
        for i in range(m + 1):
            j = baby.get(y)
            if j is not None:
                return i * m + j
            y = gr.residue(gr.mul(y, giant))
        raise VerificationError("residue_log of a non-unit")

    def inv(self, x: Elt) -> Elt:
        """The inverse of a one-unit by Newton's step y <- y (2 - x y) from
        y = 1 (an x != 1 mod pi raises ValueError, as a negative exponent does
        in mul_power).  Each step squares 1 - x y in pi R, so bit_length(e r)
        steps reach pi^{er} = 0; an x y != 1 after them raises VerificationError."""
        if any(a % self.P.p for a in self.sub(x, self._one)[:self.gr.d]):
            raise ValueError("not a one-unit")
        y = self._one
        two = self.from_int(2)
        for _ in range((self.e * self.P.r).bit_length() + 1):
            xy = self.mul(x, y)
            if xy == self._one:
                return y
            y = self.mul(y, self.sub(two, xy))
        raise VerificationError("Newton's inverse did not converge")

    # -- Galois action -------------------------------------------------------

    def _rho_matrix(self) -> List[Tuple[int, ...]]:
        """rho's matrix on GR over Z/p^r, row k the k-th coordinate of each
        rho(x^b) = rho(x)^b.

        x = sum_i p^i tau^{k_i} over its Teichmuller digits, k_i the
        residue_log of what is left (no digit where that is 0 mod p), so
        rho(x) = sum_i p^i tau^{k_i q^{f-1}}.  What a digit leaves must be
        divisible by p, or VerificationError is raised."""
        gr, P = self.gr, self.P
        p = P.p
        rest, rho_x = gr._x_powers[1], gr.zero
        for i in range(P.r):
            if gr.is_unit(rest):
                k = self.residue_log(rest)
                rest = gr.sub(rest, self.tau_power(k))
                rho_x = gr.add(rho_x, gr.scalar(p ** i, self.tau_power(k * P.q ** (P.f - 1))))
            if gr.is_unit(rest):
                raise VerificationError("Teichmuller digit is not congruent mod p")
            rest = tuple(a // p for a in rest)
        return list(zip(*(gr.pow(rho_x, b) for b in range(gr.d))))

    def _rho_gr(self, z: GRElt, j: int = 1) -> GRElt:
        """rho^j on a coefficient: rho's matrix applied j mod f times."""
        mod = self.gr.mod
        for _ in range(j % self.P.f):
            z = tuple([sum(map(mul, row, z)) % mod for row in self._rho_rows])
        return z

    def pi_multiplier(self, g: GalElt) -> int:
        """The exponent k < q_K - 1 with g(pi) = tau^k pi:
        rho^j(pi) = t rho(t) ... rho^{j-1}(t) pi, and delta^i adds zeta^i."""
        return (self.t_exp * _rho_sum(self.P, g.j) + self.zeta_exp * g.i) % (self.P.q_K - 1)

    def _galois_matrix(self, g: GalElt) -> List[List[int]]:
        """The matrix of g on R over Z/p^r: the coefficient of pi^i goes
        through rho^j and picks up u^i, u = tau^pi_multiplier(g) = g(pi)/pi.
        Row k holds the k-th coordinate of each basis image."""
        gr = self.gr
        d = gr.d
        u = self.tau_power(self.pi_multiplier(g))
        rho_basis = [self._rho_gr(xb, g.j) for xb in gr._x_powers[:d]]
        cols = []
        upow = gr.one
        for i in range(self.e):
            for img in rho_basis:
                img = gr.mul(img, upow)
                cols.append(self._zero[:i * d] + img + self._zero[(i + 1) * d:])
            upow = gr.mul(upow, u)
        return [list(row) for row in zip(*cols)]

    def galois_act(self, g: GalElt, x: Elt) -> Elt:
        mod = self.gr.mod
        return tuple([sum(map(mul, row, x)) % mod for row in self._gal_mats[g]])

    def trace_K_F(self, x: Elt) -> GRElt:
        """T_{K/F}(x), returned as its GR-coefficient, which must lie in the
        F-subring: the coefficients rho fixes."""
        acc = self.zero()
        for g in gal_elements(self.P):
            acc = self.add(acc, self.galois_act(g, x))
        d = self.gr.d
        if any(acc[d:]) or self._rho_gr(acc[:d]) != acc[:d]:
            raise VerificationError("trace not in F")
        return acc[:d]

    def trace(self, x: Elt) -> int:
        """T_{K/Q_p}(x) mod p^r, the trace of multiplication by x on R over
        Z/p^r, by transitivity T_{F/Q_p}(T_{K/F}(x))."""
        return sum(map(mul, self._trace_vec, x)) % self.gr.mod


def _fold_images(gr: GaloisRing, e: int, cp: GRElt) -> List[List[Elt]]:
    """images[u][v]: x^v pi^u reduced, for u < 2e - 1 and v < 2d - 1.

    x^v is reduced by h; from u = e on, pi^u = c p pi^{u - e}."""
    d = gr.d
    images = []
    for u in range(2 * e - 1):
        i = u % e
        pad_lo, pad_hi = (0,) * (i * d), (0,) * ((e - 1 - i) * d)
        images.append([
            pad_lo + (xv if u < e else gr.mul(cp, xv)) + pad_hi
            for xv in gr._x_powers
        ])
    return images


def _rho_sum(P: TameParams, j: int) -> int:
    """sum_{s < j} q^{(f-1)s} mod q_K - 1.  rho^s raises a Teichmuller unit
    to the power q^{(f-1)s}, so t rho(t) ... rho^{j-1}(t) = t^{this sum}."""
    L = P.q_K - 1
    return sum(pow(P.q, (P.f - 1) * s, L) for s in range(j)) % L


# The most baby steps residue_log may keep.  Its table of ceil(sqrt(q_K - 1))
# d-tuples is built before any answer, so past this bound a request exhausts
# time or memory instead: (7,1,16,0,3) would need 5.8e6 steps, (3,1,32,0,3)
# 4.3e7.  2^19 admits (5,1,16,0,3), at 390,625 steps.
MAX_BABY_STEPS = 1 << 19


def build_model(P: TameParams) -> Model:
    """Deterministic lexicographic search for a consistent (c, zeta_e, t).
    Raises TooLarge, before any ring is built, past MAX_BABY_STEPS."""
    steps = isqrt(P.q_K - 2) + 1  # Model's ceil(sqrt(q_K - 1))
    if steps > MAX_BABY_STEPS:
        raise TooLarge(f"residue_log needs {steps} baby steps, more than {MAX_BABY_STEPS}")
    gr = GaloisRing(P.p, P.r, P.a * P.f)
    qK = P.q_K
    # the Teichmuller generator, of order qK - 1: the lift of a residue-field
    # generator x is x^{qK^r}, since x^{qK} = x mod p and each p-th power
    # makes a congruence hold one power of p higher
    tau = gr.pow(residue_generator(gr), qK ** P.r)
    e, f, m, q = P.e, P.f, P.m, P.q
    L = qK - 1
    S = _rho_sum(P, f)
    for c_exp in range(L):
        rhs1 = (c_exp * (pow(q, f - 1, L) - 1)) % L
        g1 = gcd(e, L)
        if rhs1 % g1 != 0:
            continue
        t0 = (rhs1 // g1) * pow(e // g1, -1, L // g1) % (L // g1)
        for j in range(1, e + 1):
            if gcd(j, e) != 1:
                continue
            z_exp = (L // e) * j % L
            for k in range(g1):
                t_exp = (t0 + k * (L // g1)) % L
                if (S * t_exp - m * z_exp) % L == 0:
                    model = Model(
                        P, gr, tau,
                        c_exp=c_exp, zeta_exp=z_exp, t_exp=t_exp,
                    )
                    _verify_model(model)
                    return model
    raise VerificationError(f"no (c, zeta, t) for {P}")


def _verify_model(M: Model):
    P = M.P
    gr = M.gr
    # zeta_e has exact order e
    zeta = M.tau_power(M.zeta_exp)
    if gr.pow(zeta, P.e) != gr.one:
        raise VerificationError("zeta^e is not 1")
    for ell in _factorize(P.e):
        if gr.pow(zeta, P.e // ell) == gr.one:
            raise VerificationError("zeta order too small")
    pi = M.pi()
    # pi^e = c p, through the fold table Model.mul reads
    if M.pow(pi, P.e) != M.from_gr(gr.scalar(P.p, M.tau_power(M.c_exp))):
        raise VerificationError("pi^e is not c p")
    # the matrices galois_act reads, built from the current (zeta_exp,
    # t_exp); the action must be a group homomorphism on a generating pair,
    # on every basis element
    M._gal_mats = {g: M._galois_matrix(g) for g in gal_elements(P)}
    basis = [M.monomial(b, i) for i in range(P.e) for b in range(gr.d)]
    for g1 in (GalElt(1 % P.e, 0), GalElt(0, 1 % P.f)):
        for g2 in (GalElt(1 % P.e, 0), GalElt(0, 1 % P.f)):
            g12 = gal_mul(g1, g2, P)
            for x in basis:
                lhs = M.galois_act(g1, M.galois_act(g2, x))
                if lhs != M.galois_act(g12, x):
                    raise VerificationError("action not a homomorphism")


# ---------------------------------------------------------------------------
# unit group presentations
# ---------------------------------------------------------------------------

def one_unit_order(M: Model, i: int) -> int:
    """p^t with (1+y)^{p^t} = 1 in O_K/p_K^{er} for every v(y) >= i >= 1.

    (1+y)^p - 1 = py + ... + y^p has valuation at least min(v + e, p v) for
    v = v(y) (v(p) = e), so t is the number of steps of that bound from i
    to er.
    """
    P = M.P
    er = P.e * P.r
    v, t = i, 0
    while v < er:
        v = min(v + P.e, P.p * v)
        t += 1
    return P.p ** t


class UnitGroupPresentation:
    """Invariant-factor presentation of (R/pi^N)^x with exact discrete logs.

    Generators: the Teichmuller generator tau, then the one-units
    1 + x^b p^k pi^j for each level 1 <= i = ke + j < N and monomial basis
    index b.  The relation lattice (tau^{q_K - 1} = 1 and each one-unit's
    p-th power written in the generators) has determinant equal to the
    group order |U| = (q_K - 1) q_K^{N-1}, so it is the full lattice and
    Smith normal form yields the group structure; the invariant factors are
    checked to multiply to |U|.  The Smith form hands back only the columns
    of V and the rows of V^{-1} at the invariant factors other than 1, read
    as gen_coords and inv_gens, modulo (q_K - 1) one_unit_order(M, 1), a
    multiple of U's exponent.

    Every product of generator powers is _product over lists of repeated
    squares [g, g^2, g^4, ...], extended by exactnum.mul_power only as far
    as an exponent needs: _gen_squares, one list per raw generator, gives
    each relation's p-th power, inv_gens and enumerate; _inv_gen_squares,
    one list per invariant generator, gives element_from_coords.  The lists
    live on this presentation only.  A discrete log takes a ring product
    per digit below level ceil(N/2) only, and subtracts the digits above it.
    """

    def __init__(self, M: Model, N: int):
        if not 1 <= N <= M.e * M.P.r:
            raise ValueError("level out of range")
        self.M = M
        self.N = N
        gens: List[Elt] = [M.from_gr(M.tau)]
        self.levels: List[int] = [0]  # the level of each generator
        for i in range(1, N):
            for b in range(M.gr.d):
                gens.append(M.add(M.one(), M.monomial(b, i)))
                self.levels.append(i)
        self.gens = gens
        self._gen_squares: List[List[Elt]] = [[g] for g in gens]
        self._inv_pows: Dict[int, List[Elt]] = {}  # filled by _inverse_power
        # _raw_dlog's plan: level i = k e + j reads slice j of the flat tuple,
        # whose coefficients are p^k times the digits of gens[base:base + d];
        # and _is_one_mod's modulus of each coefficient, p^{ceil((N - j)/e)}
        # on slice j
        e, d, p = M.e, M.gr.d, M.P.p
        self._plan: List[Tuple[int, int, int, int]] = [
            (i, (i % e) * d, p ** (i // e), 1 + (i - 1) * d) for i in range(1, N)]
        self._one_mods: List[int] = [p ** -((j - N) // e) for j in range(e) for _ in range(d)]
        # relations: tau^{q_K - 1} = 1, and gens[i]^p written in the gens
        rows: List[List[int]] = [[M.P.q_K - 1] + [0] * (len(gens) - 1)]
        for idx in range(1, len(gens)):
            row = [-x for x in self._raw_dlog(self._product([self._gen_squares[idx]], [p]))]
            row[idx] += p
            rows.append(row)
        # V and V^{-1} are read modulo orders dividing this multiple of U's exponent
        order = (M.P.q_K - 1) * M.P.q_K ** (N - 1)
        s, v, w = smith_normal_form(rows, (M.P.q_K - 1) * one_unit_order(M, 1))
        # the invariant factors other than 1 are the last len(w)
        self.orders = [s[j][j] for j in range(len(gens) - len(w), len(gens))]
        if prod(self.orders) != order:
            raise VerificationError(
                f"unit group invariant factors multiply to {prod(self.orders)}, "
                f"not |U| = {order}")
        # gens[i] has raw exponents e_i, so its coordinates are row i of v,
        # reduced; _coords reads raw exponents through these rows
        self.gen_coords = [[x % d for x, d in zip(row, self.orders)] for row in v]
        # generators of the invariant-factor coordinates.  The exponents are
        # reduced by orders that hold exactly in the model ring O_K/p_K^{er},
        # so each h is the same element as with the raw exponents: tau has
        # exact order q_K - 1, and a one-unit at level i has order dividing
        # one_unit_order(M, i).
        exps = [M.P.q_K - 1] + [one_unit_order(M, i) for i in self.levels[1:]]
        # the one-unit generators add no Teichmuller digit, so inv_gens[k]
        # is tau^{tau_exps[k]} mod pi
        self.tau_exps = [row[0] % exps[0] for row in w]
        self.inv_gens: List[Elt] = [
            self._product(self._gen_squares, [x % n for x, n in zip(row, exps)]) for row in w]
        self._inv_gen_squares: List[List[Elt]] = [[h] for h in self.inv_gens]

    def _product(self, squares: Sequence[List[Elt]], exps: Sequence[int]) -> Elt:
        """prod g_k^{exps[k]}, exps >= 0, where squares[k] = [g_k, g_k^2, ...]."""
        M = self.M
        out = one = M.one()
        for sq, n in zip(squares, exps):
            out = mul_power(M.mul, out, sq, n, one)
        return out

    def order(self) -> int:
        return prod(self.orders)

    def tau_coords(self, k: int) -> List[int]:
        """Coordinates of tau^k: k times those of tau = gens[0], so no
        Teichmuller unit of known exponent is solved for by dlog."""
        return [k * c % d for c, d in zip(self.gen_coords[0], self.orders)]

    # -- discrete logs -------------------------------------------------------

    def _inverse_power(self, idx: int, c: int) -> Elt:
        """gens[idx]^{-c} for a dlog digit 1 <= c < p.

        The table of the p - 1 inverse powers of a generator is built on
        first use from one inversion, so a digit costs one multiplication.
        """
        table = self._inv_pows.get(idx)
        if table is None:
            M = self.M
            table = [M.inv(self.gens[idx])]
            for _ in range(M.P.p - 2):
                table.append(M.mul(table[-1], table[0]))
            self._inv_pows[idx] = table
        return table[c - 1]

    def _coords(self, w: Sequence[int]) -> List[int]:
        """Invariant-factor coordinates of raw exponents w: sum w_i gen_coords[i]."""
        return [sum(map(mul, w, col)) % d
                for col, d in zip(zip(*self.gen_coords), self.orders)]

    def _raw_dlog(self, x: Elt) -> List[int]:
        """Exponents of x in self.gens, one digit per generator.

        The Teichmuller digit k0 = residue_log(x) is divided out by
        tau_power(-k0).  Then each step of _plan reads level i = k e + j:
        once the digits below it are divided out, slice j of what is left
        (less 1 on slice 0) is p^k times the level's digits mod p, and one
        divmod by p^k gives both the divisibility check and a digit c.
        Below level ceil(N/2), c is divided out by gens[idx]^{-c} from
        _inverse_power, so no digit inverts anything.  From there on what
        is left is 1 + y with 2 v(y) >= N, and (1 + y)(1 + m)^{-c} =
        1 + y - c m modulo pi^N for a generator 1 + m of the level: c p^k
        is subtracted from the coefficient, with no ring product.
        """
        M = self.M
        d = M.gr.d
        p = M.P.p
        if not M.is_unit(x):
            raise VerificationError("dlog of a non-unit")
        w = [0] * len(self.gens)
        k0 = M.residue_log(x)
        w[0] = k0
        cur = x
        if k0:
            cur = M.mul(x, M.from_gr(M.tau_power(-k0)))
        half = (self.N + 1) // 2
        for i, off, pk, base in self._plan:
            if i == half:
                cur = list(cur)
            coeff = cur[off:off + d]
            if not off:
                coeff = [coeff[0] - 1, *coeff[1:]]
            for b, a in enumerate(coeff):
                c, rest = divmod(a, pk)
                if rest:
                    raise VerificationError(
                        f"dlog: level {i} digit not divisible by p^{i // M.e}")
                c %= p
                if c:
                    w[base + b] = c
                    if i < half:
                        cur = M.mul(cur, self._inverse_power(base + b, c))
                    else:
                        cur[off + b] -= c * pk  # additive above half level
        if not self._is_one_mod(cur):
            raise VerificationError("dlog failed to terminate")
        return w

    def _is_one_mod(self, x: Elt) -> bool:
        """x = 1 mod pi^N: each coefficient of x - 1 is divisible by its
        slice's modulus."""
        return not any(map(mod, (x[0] - 1, *x[1:]), self._one_mods))

    def dlog(self, x: Elt) -> List[int]:
        """Coordinates of x in the invariant-factor basis."""
        return self._coords(self._raw_dlog(x))

    def element_from_coords(self, coords: Sequence[int]) -> Elt:
        """The product of inv_gens[k]^coords[k]; coordinates are >= 0."""
        return self._product(self._inv_gen_squares, coords)

    def enumerate(self, k: int):
        """Yield (digits, element) once for each unit of R/pi^k.

        The element is tau^{d_0} times gens[i]^{d_i} over the one-unit
        generators below level k, with d_0 < q_K - 1 and d_i < p, built by
        _product from positive powers, so _raw_dlog(element) is the digits
        padded with zeros.
        """
        if not 1 <= k <= self.N:
            raise ValueError("level out of range")
        P = self.M.P
        ranges = [range(P.q_K - 1)] + [range(P.p)] * ((k - 1) * self.M.gr.d)
        for digits in product(*ranges):
            yield digits, self._product(self._gen_squares, digits)

    def act_matrix(self, g: GalElt) -> List[List[int]]:
        """Matrix of the Galois action of g in invariant coordinates."""
        return [self.dlog(self.M.galois_act(g, h)) for h in self.inv_gens]


def kernel_of_norm(U: UnitGroupPresentation,
                   acts: Dict[GalElt, List[List[int]]]) -> SubgroupPresentation:
    """The subgroup U-bar = ker(N_{K/F}) of the full unit group U(er).

    N(x) is the product of the conjugates of x, so on U's coordinates the
    norm is I + sum A_gamma over acts[gamma] = A_gamma, gamma != 1, from
    UnitGroupPresentation.act_matrix.  The norm lands in O_F/p^r, which
    embeds in the model ring because p_K^{er} meets O_F in p^r O_F; so its
    kernel as a map U -> U is ker(N_{K/F}).
    """
    orders = list(U.orders)
    rows = [[((i == j) + sum(A[i][j] for A in acts.values())) % d
             for j, d in enumerate(orders)] for i in range(len(orders))]
    return SubgroupPresentation(orders, kernel_subgroup(orders, rows, orders))


# ---------------------------------------------------------------------------
# the generator beta and brute-force structure checks
# ---------------------------------------------------------------------------

def find_beta(M: Model) -> Elt:
    """A trace-zero Shintani generator beta with O_K = O_F[beta]."""
    P = M.P
    gr = M.gr
    if P.f == 1:
        beta = M.pi()
    else:
        # tau minus the balanced trace correction; add pi when also ramified
        tau_elt = M.from_gr(M.tau)
        tr = M.trace_K_F(tau_elt)
        ninv = pow(P.n, -1, gr.mod)
        corr = M.from_gr(gr.scalar(ninv, tr))
        beta = M.sub(tau_elt, corr)
        if P.e > 1:
            beta = M.add(beta, M.pi())
    if M.trace_K_F(beta) != gr.zero:
        raise VerificationError("beta has nonzero trace")
    if not _is_generator(M, beta):
        raise VerificationError(f"search produced a non-generator for {P}")
    return beta


def _flatten(x: Elt, mod: int) -> List[int]:
    """x mod `mod` as a list of length e*d."""
    return [a % mod for a in x]


def _is_generator(M: Model, beta: Elt) -> bool:
    """Nakayama test: {w^c beta^k} spans R/pR over F_p, w a basis of F_q."""
    P = M.P
    omega = M.from_gr(M.tau_power((P.q_K - 1) // (P.q - 1)))
    vecs = []
    bpow = M.one()
    for k in range(P.n):
        opow = M.one()
        for c in range(P.a):
            vecs.append(_flatten(M.mul(opow, bpow), P.p))
            opow = M.mul(opow, omega)
        bpow = M.mul(bpow, beta)
    ncols = len(vecs[0])
    return len(fp_echelon(vecs, P.p, ncols)[1]) == ncols


def regular_rep_matrix(M: Model, beta: Elt, level: int) -> List[List[int]]:
    """Matrix of multiplication by beta on O_K over O_F mod p^level.

    Only supported for a = 1 (O_F/p^level = Z/p^level), where the flattened
    coordinates are already O_F-coordinates.
    """
    P = M.P
    if P.a != 1:
        raise ValueError("regular representation matrix needs a = 1")
    n = P.n
    # basis of R over Z/p^r: x^b pi^i flattens to the standard basis
    cols = [
        _flatten(M.mul(M.monomial(b, i), beta), P.p ** level)
        for i in range(P.e) for b in range(M.gr.d)
    ]
    # matrix with column j = image of basis j (n x n, row-major)
    return [[cols[j][i] for j in range(n)] for i in range(n)]


def centralizer_bruteforce(M: Model, beta: Elt, level: int) -> bool:
    """Check {X : [X, beta] = 0} = span(1, beta, ..., beta^{n-1}) in M_n(Z/p^level)."""
    P = M.P
    n = P.n
    mod = P.p ** level
    if mod ** (n * n) > 10 ** 7:
        raise TooLarge(f"{mod}^{n * n} matrices is beyond the brute-force bound")
    B = regular_rep_matrix(M, beta, level)

    def mat_mul_mod(A, C):
        return [[c % mod for c in row] for row in mat_mul(A, C)]

    # span of powers of beta
    span = set()
    pw = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    powers = []
    for _ in range(n):
        powers.append(pw)
        pw = mat_mul_mod(pw, B)
    for code in range(mod ** n):
        acc = [[0] * n for _ in range(n)]
        for lam, pk in zip(_base_p_digits(code, mod, n), powers):
            for i in range(n):
                for j in range(n):
                    acc[i][j] = (acc[i][j] + lam * pk[i][j]) % mod
        span.add(tuple(tuple(r) for r in acc))

    count = 0
    for code in range(mod ** (n * n)):
        digits = _base_p_digits(code, mod, n * n)
        X = [digits[i * n:(i + 1) * n] for i in range(n)]
        if mat_mul_mod(X, B) == mat_mul_mod(B, X):
            count += 1
            if tuple(tuple(r) for r in X) not in span:
                return False
    return count == len(span)


def symplectic_check(M: Model, beta: Elt) -> Tuple[bool, int]:
    """The form D(X, Y) = tr([X, Y] beta) on sl_n(F_p)/centralizer part.

    Returns (non-degenerate and alternating, quotient dimension).  Only for
    a = 1 so that the residue field of F is the prime field.
    """
    P = M.P
    if P.a != 1:
        raise ValueError("symplectic check needs a = 1")
    p = P.p
    n = P.n
    B = [[x % p for x in row] for row in regular_rep_matrix(M, beta, 1)]

    # basis of sl_n(F_p)
    basis = []
    for i in range(n):
        for j in range(n):
            if i != j:
                E = [[0] * n for _ in range(n)]
                E[i][j] = 1
                basis.append(E)
    for i in range(n - 1):
        E = [[0] * n for _ in range(n)]
        E[i][i] = 1
        E[i + 1][i + 1] = p - 1
        basis.append(E)

    def bracket(A, C):
        return [[x - y for x, y in zip(r, s)] for r, s in zip(mat_mul(A, C), mat_mul(C, A))]

    # D(X, Y) = tr([X, Y] B), reduced mod p
    gram = [[sum(row[i] for i, row in enumerate(mat_mul(bracket(X, Y), B))) % p
             for Y in basis] for X in basis]
    for i in range(len(basis)):
        if gram[i][i] % p:
            return False, -1
    rank = len(fp_echelon(gram, p, len(gram))[1])
    return rank == n * (n - 1), rank

