"""Finite ring model R = GR(p^r, af)[pi]/(pi^e - c p) of O_K / p_K^{er}.

The base is the Galois ring GR(p^r, af) (unramified coefficient ring with
residue field F_{q^f}); the uniformizer pi carries the tame ramification.
The Galois action is delta(pi) = zeta_e pi on pi and the identity on
coefficients, while rho acts as the inverse Frobenius on coefficients and
as pi -> t pi.  The triple (c, zeta_e, t) of Teichmuller units is found by
a deterministic lexicographic search over the consistency congruences.

An element is one flat tuple of e * d integers mod p^r, the pi^i
coefficient in the slice [i d, (i + 1) d).  A product is one integer
multiplication (Kronecker substitution) and one fold through a table built
once per model; each Galois element acts by its matrix, built once per
model and checked by _verify_model.

Unit groups of the quotients R / pi^N are presented by generators and a
relation lattice in Smith normal form, which gives exact discrete
logarithms; this one engine is behind the norm kernel, character
extension, conductor brute forcing and Gauss sums.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd, prod
from operator import itemgetter, lshift, mul
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .exactnum import VerificationError, _factorize
from .intlinalg import SubgroupPresentation, fp_echelon, kernel_subgroup, smith_normal_form
from .tame_galois import GalElt, TameParams, gal_elements, gal_mul

GRElt = Tuple[int, ...]


class NoConsistentModel(RuntimeError):
    pass


class NoGenerator(RuntimeError):
    pass


class TooLarge(RuntimeError):
    pass


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


def _fp_poly_powmod(a, n, h, p):
    result = [1] + [0] * (len(h) - 2)
    base = list(a)
    while n:
        if n & 1:
            result = _fp_poly_mulmod(result, base, h, p)
        base = _fp_poly_mulmod(base, base, h, p)
        n >>= 1
    return result


def _fp_poly_gcd(a, b, p):
    a, b = list(a), list(b)

    def trim(x):
        while x and x[-1] == 0:
            x.pop()
        return x

    a, b = trim(a), trim(b)
    while b:
        inv = pow(b[-1], -1, p)
        while len(a) >= len(b):
            c = (a[-1] * inv) % p
            shift = len(a) - len(b)
            for j in range(len(b)):
                a[shift + j] = (a[shift + j] - c * b[j]) % p
            a = trim(a)
            if not a:
                break
        a, b = b, a
    return a


def _fp_irreducible(h, p):
    """Rabin test for a monic polynomial h over F_p (low degree first)."""
    d = len(h) - 1
    x = [0, 1] if d > 1 else [0]
    if d == 1:
        return True
    xq = _fp_poly_powmod(x, p ** d, h, p)
    if xq != x[:d] + [0] * (d - len(x)):
        return False
    for ell in _factorize(d):
        xe = _fp_poly_powmod(x, p ** (d // ell), h, p)
        diff = [(xe[i] - (x + [0] * d)[i]) % p for i in range(d)]
        if any(diff):
            g = _fp_poly_gcd(diff, h, p)
            if len(g) > 1:
                return False
        else:
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

def _kronecker_product(e: int, d: int, mod: int,
                       images: Sequence[Sequence[Tuple[int, ...]]]) -> Callable:
    """x, y -> x y on flat tuples of n = e d integers mod `mod`, entry
    i d + b the coefficient of x^b pi^i: one integer product and one fold.

    Each operand is packed into one integer of W-bit slots, the pi^i row
    starting at slot i (2d - 1), so the product holds the coefficient of
    x^v pi^u, u < 2e - 1 and v < 2d - 1, in slot u (2d - 1) + v.  A slot
    sums at most n products, each below mod^2, so with
    W = 2 bitlen(mod) + bitlen(n) + 1 no slot carries into the next.
    images[u][v] is the reduced image of x^v pi^u as a flat tuple; output
    coordinate k is the dot product of the slots with the k-th entries of
    the images, over the slots where that entry is nonzero.
    """
    n = e * d
    width = 2 * mod.bit_length() + n.bit_length() + 1
    row = 2 * d - 1
    mask = (1 << width) - 1
    shifts = [width * (i * row + b) for i in range(e) for b in range(d)]
    slot_shifts = [width * j for j in range((2 * e - 1) * row)]
    fold = []
    for k in range(n):
        support = [(u * row + v, img[k]) for u, imgs in enumerate(images)
                   for v, img in enumerate(imgs) if img[k]]
        if len(support) == 1:
            # itemgetter of one index returns the item, not a 1-tuple
            support.append((support[0][0], 0))
        idx, coeffs = zip(*support)
        fold.append((itemgetter(*idx), coeffs))

    def product(x: Sequence[int], y: Sequence[int]) -> Tuple[int, ...]:
        z = sum(map(lshift, x, shifts)) * sum(map(lshift, y, shifts))
        slots = [z >> s & mask for s in slot_shifts]
        return tuple([sum(map(mul, coeffs, pick(slots))) % mod for pick, coeffs in fold])

    return product


# ---------------------------------------------------------------------------
# Galois ring GR(p^r, d)
# ---------------------------------------------------------------------------

class GaloisRing:
    """GR(p^r, d) = (Z/p^r)[x]/(h) with h a fixed monic irreducible lift.

    Elements are coefficient tuples of length d with entries mod p^r; the
    product is _kronecker_product at e = 1.
    """

    def __init__(self, p: int, r: int, d: int):
        self.p = p
        self.r = r
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
        self._product = _kronecker_product(1, d, mod, [xpow])
        self.zero: GRElt = tuple([0] * d)
        self.one: GRElt = xpow[0]
        self.gen: GRElt = tuple(([0, 1] + [0] * (d - 2))[:d])
        self._frob_matrix: Optional[List[GRElt]] = None
        self._teich_cache: Dict[GRElt, GRElt] = {}

    # -- basic arithmetic ---------------------------------------------------

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
        if n < 0:
            return self.pow(self.inv(x), -n)
        out = self.one
        base = x
        while n:
            if n & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            n >>= 1
        return out

    def residue(self, x: GRElt) -> GRElt:
        p = self.p
        return tuple(a % p for a in x)

    def is_unit(self, x: GRElt) -> bool:
        return any(a % self.p for a in x)

    def inv(self, x: GRElt) -> GRElt:
        if not self.is_unit(x):
            raise ZeroDivisionError("not a unit in GR")
        # inverse in the residue field, then Newton lifting
        y = self.pow(self.residue(x), self.p ** self.d - 2)
        y = self.residue(y)
        prec = 1
        while prec < self.r:
            y = self.sub(self.scalar(2, y), self.mul(x, self.mul(y, y)))
            prec *= 2
        return y

    # -- Teichmuller structure ---------------------------------------------

    def teichmuller(self, x: GRElt) -> GRElt:
        """The Teichmuller element congruent to x mod p."""
        key = self.residue(x)
        hit = self._teich_cache.get(key)
        if hit is not None:
            return hit
        z = x
        for _ in range(self.r):
            z = self.pow(z, self.p ** self.d)
        self._teich_cache[key] = z
        return z

    def digits(self, x: GRElt) -> List[GRElt]:
        """Teichmuller digits: x = sum digits[i] * p^i."""
        out = []
        cur = x
        for i in range(self.r):
            t = self.teichmuller(cur)
            out.append(t)
            diff = self.sub(cur, t)
            if any(a % self.p for a in diff):
                raise VerificationError("Teichmuller digit is not congruent mod p")
            cur = tuple(a // self.p for a in diff)
        return out

    def frobenius(self, x: GRElt, k: int = 1) -> GRElt:
        """The ring automorphism acting as t -> t^{p^k} on Teichmuller digits."""
        k %= self.d
        if k == 0:
            return x
        if self._frob_matrix is None:
            fx = self._frob_of_gen()
            # image of basis monomial x^b is Frob(x)^b; Frobenius is additive
            self._frob_matrix = [self.pow(fx, b) for b in range(self.d)]
        out = x
        for _ in range(k):
            cols = self._frob_matrix
            acc = [0] * self.d
            for b, xb in enumerate(out):
                if xb:
                    col = cols[b]
                    for i in range(self.d):
                        acc[i] = (acc[i] + xb * col[i]) % self.mod
            out = tuple(acc)
        return out

    def _frob_of_gen(self) -> GRElt:
        digs = self.digits(self.gen)
        out = self.zero
        ppow = 1
        for t in digs:
            out = self.add(out, self.scalar(ppow, self.pow(t, self.p)))
            ppow *= self.p
        return out

    def trace_abs(self, x: GRElt) -> int:
        """Absolute trace to Z/p^r (sum of all Frobenius conjugates)."""
        acc = self.zero
        cur = x
        for _ in range(self.d):
            acc = self.add(acc, cur)
            cur = self.frobenius(cur)
        if any(acc[1:]):
            raise VerificationError("trace did not land in Z/p^r")
        return acc[0]


def residue_generator(gr: GaloisRing) -> GRElt:
    """The least element (as a base-p counter) whose residue generates
    the multiplicative group of the residue field F_{p^d}."""
    order = gr.p ** gr.d - 1
    one = gr.residue(gr.one)
    primes = list(_factorize(order))
    for code in range(1, order + 1):
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
    tau_res_log: Dict[GRElt, int]  # residue -> exponent of tau
    c_exp: int
    zeta_exp: int             # zeta_e = tau^zeta_exp
    t_exp: int                # t = tau^t_exp

    # filled in __post_init__
    c: GRElt = field(default=())
    zeta: GRElt = field(default=())
    t: GRElt = field(default=())

    def __post_init__(self):
        gr = self.gr
        e, d = self.P.e, gr.d
        self.c = gr.pow(self.tau, self.c_exp)
        self.zeta = gr.pow(self.tau, self.zeta_exp)
        self.t = gr.pow(self.tau, self.t_exp)
        self.n = e * d
        self._pad = (0,) * (self.n - d)
        self._zero = (0,) * self.n
        self._one = gr.one + self._pad
        self._product = _kronecker_product(
            e, d, gr.mod, _fold_images(gr, e, gr.scalar(self.P.p, self.c)))
        self._gal_mats: Dict[GalElt, List[List[int]]] = {}  # filled by _verify_model
        self._trace_vec: Optional[List[int]] = None

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
        if self.e == 1:
            # pi^e = c p degenerates to pi = c p
            return self.from_gr(self.gr.scalar(self.P.p, self.c))
        return self.monomial(0, 1)

    # -- ring operations ----------------------------------------------------

    def add(self, x: Elt, y: Elt) -> Elt:
        mod = self.gr.mod
        return tuple([(a + b) % mod for a, b in zip(x, y)])

    def sub(self, x: Elt, y: Elt) -> Elt:
        mod = self.gr.mod
        return tuple([(a - b) % mod for a, b in zip(x, y)])

    def neg(self, x: Elt) -> Elt:
        mod = self.gr.mod
        return tuple([(-a) % mod for a in x])

    def mul(self, x: Elt, y: Elt) -> Elt:
        return self._product(x, y)

    def pow(self, x: Elt, n: int) -> Elt:
        if n < 0:
            return self.pow(self.inv(x), -n)
        out = self.one()
        base = x
        while n:
            if n & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            n >>= 1
        return out

    def is_unit(self, x: Elt) -> bool:
        return self.gr.is_unit(x[:self.gr.d])

    def residue_log(self, x: Elt) -> int:
        """The exponent k with x = tau^k mod pi, for a unit x."""
        return self.tau_res_log[self.gr.residue(x[:self.gr.d])]

    def inv(self, x: Elt) -> Elt:
        if not self.is_unit(x):
            raise ZeroDivisionError("not a unit")
        x0inv = self.from_gr(self.gr.inv(x[:self.gr.d]))
        w = self.sub(self.mul(x0inv, x), self.one())  # in pi R, nilpotent
        out = self.one()
        term = self.one()
        for _ in range(self.e * self.P.r):
            term = self.neg(self.mul(term, w))
            if term == self.zero():
                break
            out = self.add(out, term)
        return self.mul(x0inv, out)

    def pi_valuation(self, x: Elt) -> int:
        """Largest N <= er with x in pi^N R (er if x = 0)."""
        e, d = self.e, self.gr.d
        er = e * self.P.r
        for N in range(er):
            k, i = divmod(N, e)
            # coefficient of pi^i must vanish mod p^{k+1} for val > N
            pk1 = self.P.p ** (k + 1)
            if any(v % pk1 for v in x[i * d:(i + 1) * d]):
                return N
        return er

    # -- Galois action -------------------------------------------------------

    def _rho_gr(self, x: GRElt, j: int = 1) -> GRElt:
        # rho acts on coefficients as the inverse q-Frobenius
        return self.gr.frobenius(x, (self.P.a * (self.P.f - 1) * j) % self.gr.d)

    def pi_multiplier(self, g: GalElt) -> GRElt:
        """The Teichmuller unit u with g(pi) = u pi."""
        # rho^j(pi) = t rho(t) ... rho^{j-1}(t) pi; then delta^i adds zeta^i
        u = self.gr.one
        for s in range(g.j):
            u = self.gr.mul(u, self._rho_gr(self.t, s))
        u = self.gr.mul(u, self.gr.pow(self.zeta, g.i))
        return u

    def _galois_matrix(self, g: GalElt) -> List[List[int]]:
        """The matrix of g on R over Z/p^r, from the current (zeta, t): the
        coefficient of pi^i goes through rho^j and picks up u^i, where
        g(pi) = u pi.  Row k holds the k-th coordinate of each basis image."""
        gr = self.gr
        d = gr.d
        u = self.pi_multiplier(g)
        cols = []
        upow = gr.one
        for i in range(self.e):
            for b in range(d):
                img = gr.mul(self._rho_gr(gr._x_powers[b], g.j), upow)
                cols.append(self._zero[:i * d] + img + self._zero[(i + 1) * d:])
            upow = gr.mul(upow, u)
        return [list(row) for row in zip(*cols)]

    def galois_act(self, g: GalElt, x: Elt) -> Elt:
        mod = self.gr.mod
        return tuple([sum(map(mul, row, x)) % mod for row in self._gal_mats[g]])

    def trace_K_F(self, x: Elt) -> GRElt:
        """T_{K/F}(x), returned as its GR-coefficient (the F-subring part)."""
        acc = self.zero()
        for g in gal_elements(self.P):
            acc = self.add(acc, self.galois_act(g, x))
        d = self.gr.d
        if any(acc[d:]) or self.gr.frobenius(acc[:d], self.P.a) != acc[:d]:
            raise VerificationError("trace not in F")
        return acc[:d]

    def norm_K_F(self, x: Elt) -> GRElt:
        acc = self.one()
        for g in gal_elements(self.P):
            acc = self.mul(acc, self.galois_act(g, x))
        d = self.gr.d
        if any(acc[d:]):
            raise VerificationError("norm not in F")
        return acc[:d]

    def psi_exponent(self, z: GRElt) -> int:
        """Additive character exponent of z in the F-subring: T_{F/Q_p}(z) mod p^r.

        The absolute GR-trace of an F-element counts each conjugate f times,
        so divide by f (a unit mod p).
        """
        finv = pow(self.P.f, -1, self.gr.mod)
        return (self.gr.trace_abs(z) * finv) % self.gr.mod

    def trace_functional(self) -> Callable[[Elt], int]:
        """x -> T_{F/Q_p}(T_{K/F}(x)) mod p^r as a precomputed linear map."""
        if self._trace_vec is None:
            self._trace_vec = [
                self.psi_exponent(self.trace_K_F(self.monomial(b, i)))
                for i in range(self.e) for b in range(self.gr.d)
            ]
        vec = self._trace_vec
        mod = self.gr.mod

        def func(x: Elt) -> int:
            return sum(map(mul, vec, x)) % mod

        return func


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


def build_model(P: TameParams) -> Model:
    """Deterministic lexicographic search for a consistent (c, zeta_e, t)."""
    gr = GaloisRing(P.p, P.r, P.a * P.f)
    qK = P.q_K
    # Teichmuller generator of order qK - 1
    tau = gr.teichmuller(residue_generator(gr))
    res_log: Dict[GRElt, int] = {}
    cur = gr.one
    for k in range(qK - 1):
        res_log[gr.residue(cur)] = k
        cur = gr.mul(cur, tau)

    e, f, m, q = P.e, P.f, P.m, P.q
    L = qK - 1
    if e == 1:
        model = Model(P, gr, tau, res_log, c_exp=0, zeta_exp=0, t_exp=0)
        _verify_model(model)
        return model

    S = sum(pow(q, s * (f - 1), L) for s in range(f)) % L
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
                        P, gr, tau, res_log,
                        c_exp=c_exp, zeta_exp=z_exp, t_exp=t_exp,
                    )
                    _verify_model(model)
                    return model
    raise NoConsistentModel(f"no (c, zeta, t) for {P}")


def _verify_model(M: Model):
    P = M.P
    gr = M.gr
    # zeta_e has exact order e
    if gr.pow(M.zeta, P.e) != gr.one:
        raise VerificationError("zeta^e is not 1")
    for ell in _factorize(P.e):
        if gr.pow(M.zeta, P.e // ell) == gr.one:
            raise VerificationError("zeta order too small")
    pi = M.pi()
    # pi^e = c p, through the fold table Model.mul reads
    if M.pow(pi, P.e) != M.from_gr(gr.scalar(P.p, M.c)):
        raise VerificationError("pi^e is not c p")
    # the matrices galois_act reads, built from the current (zeta, t); the
    # action must be a group homomorphism on a generating pair, on every
    # basis element
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
    group order, so it is the full lattice and Smith normal form yields the
    group structure.

    Powers come from lists of repeated squares, one list per element,
    extended only as far as an exponent needs: the raw generators share
    theirs across all invariant generators inv_gens, and each inv_gens[k]
    has its own for element_from_coords.  The lists live on this
    presentation only.
    """

    def __init__(self, M: Model, N: int):
        if not 1 <= N <= M.e * M.P.r:
            raise ValueError("level out of range")
        self.M = M
        self.N = N
        gens: List[Elt] = [M.from_gr(M.tau)]
        self.levels: List[Tuple[int, int]] = [(0, 0)]
        for i in range(1, N):
            for b in range(M.gr.d):
                gens.append(M.add(M.one(), M.monomial(b, i)))
                self.levels.append((i, b))
        self.gens = gens
        self._inv_pows: Dict[int, List[Elt]] = {}  # filled by _inverse_power
        # relations: tau^{q_K - 1} = 1, and gens[i]^p written in the gens
        p = M.P.p
        rows: List[List[int]] = [[M.P.q_K - 1] + [0] * (len(gens) - 1)]
        for idx in range(1, len(gens)):
            row = [-x for x in self._raw_dlog(M.pow(gens[idx], p))]
            row[idx] += p
            rows.append(row)
        s, self._v, vinv = smith_normal_form(rows)
        self.all_orders = [s[i][i] for i in range(len(gens))]
        self._keep = [i for i, d in enumerate(self.all_orders) if d != 1]
        self.orders = [self.all_orders[i] for i in self._keep]
        # gens[i] has raw exponents e_i, so its coordinates _coords(e_i) are
        # row i of _v, reduced
        self.gen_coords: List[List[int]] = [
            [row[j] % self.all_orders[j] for j in self._keep] for row in self._v
        ]
        # generators of the invariant-factor coordinates.  The exponents are
        # reduced by orders that hold exactly in the model ring O_K/p_K^{er},
        # so each h is the same element as with the raw exponents: tau has
        # exact order q_K - 1, and a one-unit at level i has order dividing
        # one_unit_order(M, i).
        exps = [M.P.q_K - 1] + [one_unit_order(M, i) for i, _ in self.levels[1:]]
        gen_squares: List[List[Elt]] = [[g] for g in gens]
        self.inv_gens: List[Elt] = []
        for k in self._keep:
            h = M.one()
            for jj, ex in enumerate(vinv[k]):
                h = self._mul_power(h, gen_squares[jj], ex % exps[jj])
            self.inv_gens.append(h)
        self._inv_gen_squares: List[List[Elt]] = [[h] for h in self.inv_gens]

    def order(self) -> int:
        return prod(self.orders)

    def _mul_power(self, acc: Elt, squares: List[Elt], ex: int) -> Elt:
        """acc times g^ex, for ex >= 0 and squares = [g, g^2, g^4, ...],
        which grows in place to the bit length of ex."""
        if ex < 0:
            raise ValueError("negative exponent")
        M = self.M
        one = M.one()
        i = 0
        while ex:
            if i == len(squares):
                squares.append(M.mul(squares[-1], squares[-1]))
            if ex & 1:
                acc = squares[i] if acc == one else M.mul(acc, squares[i])
            ex >>= 1
            i += 1
        return acc

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
        """Invariant-factor coordinates of the raw exponents w."""
        return [
            sum(wi * self._v[i][j] for i, wi in enumerate(w)) % self.all_orders[j]
            for j in self._keep
        ]

    def _raw_dlog(self, x: Elt) -> List[int]:
        """Exponents of x in self.gens, one digit per generator.

        The Teichmuller digit k0 is divided out by tau^{L - k0}, L = q_K - 1
        the exact order of tau; each one-unit digit c by gens[idx]^{-c} from
        _inverse_power.  So no digit inverts anything.
        """
        M = self.M
        gr = M.gr
        d = gr.d
        p = M.P.p
        if not M.is_unit(x):
            raise VerificationError("dlog of a non-unit")
        w = [0] * len(self.gens)
        k0 = M.residue_log(x)
        w[0] = k0
        cur = x
        if k0:
            cur = M.mul(x, M.from_gr(gr.pow(M.tau, M.P.q_K - 1 - k0)))
        for i in range(1, self.N):
            # cur = 1 + v pi^i mod pi^{i+1}; read off v's residue coefficients
            k, ii = divmod(i, M.e)
            coeff = cur[ii * d:(ii + 1) * d]
            if ii == 0:
                coeff = gr.sub(coeff, gr.one)
            pk = p ** k
            if any(a % pk for a in coeff):
                raise VerificationError(f"dlog: level {i} digit not divisible by p^{k}")
            base = 1 + (i - 1) * d
            for b, a in enumerate(coeff):
                cb = (a // pk) % p
                if cb:
                    w[base + b] = cb
                    inv_pow = self._inverse_power(base + b, cb)
                    cur = M.mul(cur, inv_pow)
        if not self._is_one_mod(cur):
            raise VerificationError("dlog failed to terminate")
        return w

    def _is_one_mod(self, x: Elt) -> bool:
        diff = self.M.sub(x, self.M.one())
        return self.M.pi_valuation(diff) >= self.N

    def dlog(self, x: Elt) -> List[int]:
        """Coordinates of x in the invariant-factor basis."""
        return self._coords(self._raw_dlog(x))

    def element_from_coords(self, coords: Sequence[int]) -> Elt:
        """The product of inv_gens[k]^coords[k]; coordinates are >= 0."""
        out = self.M.one()
        for squares, c in zip(self._inv_gen_squares, coords):
            out = self._mul_power(out, squares, c)
        return out

    def enumerate(self, k: int):
        """Yield (digits, element) once for each unit of R/pi^k.

        The element is tau^{d_0} times gens[i]^{d_i} over the one-unit
        generators below level k, with d_0 < q_K - 1 and d_i < p, so
        _raw_dlog(element) is the digits padded with zeros.  The digits run
        as an odometer: a carry into digit j resets every d_i, i < j, from
        its top t_i to 0, so the step multiplies by gens[j] times each
        gens[i]^{-t_i}, one multiplication per element.  Once the last
        element is out, it times every reset must be exactly 1, or
        VerificationError is raised.
        """
        if not 1 <= k <= self.N:
            raise ValueError("level out of range")
        M = self.M
        p = M.P.p
        count = 1 + (k - 1) * M.gr.d
        tops = [M.P.q_K - 2] + [p - 1] * (count - 1)
        # tau^{-(q_K - 2)} = tau, since tau^{q_K - 1} = 1
        resets = [self.gens[0]]
        resets += [self._inverse_power(i, p - 1) for i in range(1, count)]
        steps = []
        acc = M.one()
        for g, reset in zip(self.gens, resets):
            steps.append(M.mul(acc, g))
            acc = M.mul(acc, reset)
        digits = [0] * count
        elt = M.one()
        yield tuple(digits), elt
        for _ in range(prod(t + 1 for t in tops) - 1):
            j = 0
            while digits[j] == tops[j]:
                digits[j] = 0
                j += 1
            digits[j] += 1
            elt = M.mul(elt, steps[j])
            yield tuple(digits), elt
        if M.mul(elt, acc) != M.one():
            raise VerificationError("unit-group enumeration did not close up")

    def act_matrix(self, g: GalElt) -> List[List[int]]:
        """Matrix of the Galois action of g in invariant coordinates."""
        return [self.dlog(self.M.galois_act(g, h)) for h in self.inv_gens]


def kernel_of_norm(M: Model, U: UnitGroupPresentation) -> SubgroupPresentation:
    """The subgroup U-bar = ker(N_{K/F}) of the full unit group U(er).

    The norm lands in O_F/p^r, which embeds in the model ring because
    p_K^{er} meets O_F in p^r O_F; so U itself reads the norm, and its
    kernel as a map U -> U is ker(N_{K/F}).
    """
    rows = [U.dlog(M.from_gr(M.norm_K_F(h))) for h in U.inv_gens]
    return kernel_subgroup(list(U.orders), rows, list(U.orders))


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
        raise NoGenerator(f"search produced a non-generator for {P}")
    return beta


def _flatten(x: Elt, mod: int) -> List[int]:
    """x mod `mod` as a list of length e*d."""
    return [a % mod for a in x]


def _is_generator(M: Model, beta: Elt) -> bool:
    """Nakayama test: {w^c beta^k} spans R/pR over F_p, w a basis of F_q."""
    P = M.P
    gr = M.gr
    qK = P.q_K
    omega = M.from_gr(gr.pow(M.tau, (qK - 1) // (P.q - 1)))
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
        raise TooLarge("regular representation matrix needs a = 1")
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
        return [
            [sum(A[i][k] * C[k][j] for k in range(n)) % mod for j in range(n)]
            for i in range(n)
        ]

    # span of powers of beta
    span = set()
    pw = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    powers = []
    for _ in range(n):
        powers.append(pw)
        pw = mat_mul_mod(pw, B)
    for code in range(mod ** n):
        cc = code
        acc = [[0] * n for _ in range(n)]
        for pk in powers:
            lam = cc % mod
            cc //= mod
            for i in range(n):
                for j in range(n):
                    acc[i][j] = (acc[i][j] + lam * pk[i][j]) % mod
        span.add(tuple(tuple(r) for r in acc))

    count = 0
    for code in range(mod ** (n * n)):
        cc = code
        X = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                X[i][j] = cc % mod
                cc //= mod
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
        raise TooLarge("symplectic check needs a = 1")
    p = P.p
    n = P.n
    B = [[x % p for x in row] for row in regular_rep_matrix(M, beta, 1)]

    def mmul(A, C):
        return [
            [sum(A[i][k] * C[k][j] for k in range(n)) % p for j in range(n)]
            for i in range(n)
        ]

    def tr(A):
        return sum(A[i][i] for i in range(n)) % p

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
        AC = mmul(A, C)
        CA = mmul(C, A)
        return [[(AC[i][j] - CA[i][j]) % p for j in range(n)] for i in range(n)]

    gram = [
        [tr(mmul(bracket(X, Y), B)) % p for Y in basis] for X in basis
    ]
    for i in range(len(basis)):
        if gram[i][i] % p:
            return False, -1
    rank = len(fp_echelon(gram, p, len(gram))[1])
    return rank == n * (n - 1), rank

