"""Combinatorics of the tame Galois group Gamma = <delta, rho>.

The group is presented by delta^e = 1, rho^f = delta^m and the Iwasawa
relation rho^{-1} delta rho = delta^q.  Everything here is finite and is
computed by exact integer arithmetic; enumeration is used as ground truth
wherever a closed form exists, so the two can be compared.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import log
from typing import Dict, FrozenSet, List, NamedTuple, Tuple

from .exactnum import VerificationError, _factorize
from .intlinalg import smith_normal_form


class InvalidParams(ValueError):
    """Raised when a parameter tuple violates a tameness constraint."""


class OutOfRange(ValueError):
    pass


@dataclass(frozen=True)
class TameParams:
    """The defining tuple (p, a, q=p^a, e, f, m, r) plus derived data.

    n = ef is the degree, l = ceil(r/2) and l_prime = floor(r/2) are the
    congruence levels, and supercuspidal_ok records l_prime >= 2(e-1).
    """

    p: int
    a: int
    q: int
    e: int
    f: int
    m: int
    r: int

    @property
    def n(self) -> int:
        return self.e * self.f

    @property
    def level_l(self) -> int:
        return (self.r + 1) // 2

    @property
    def level_l_prime(self) -> int:
        return self.r // 2

    @property
    def supercuspidal_ok(self) -> bool:
        return self.level_l_prime >= 2 * (self.e - 1)

    @property
    def q_K(self) -> int:
        """Residue field size of K."""
        return self.q ** self.f

    @property
    def l_twist(self) -> int:
        """The exponent l with rho delta rho^{-1} = delta^l, i.e. ql = 1 mod e.

        Representative chosen in (0, e].
        """
        if self.e == 1:
            return 1
        t = pow(self.q % self.e, -1, self.e)
        return t if t != 0 else self.e


def validate_params(p: int, a: int, e: int, f: int, m: int, r: int) -> TameParams:
    """Check all tameness constraints; raise InvalidParams naming the violation."""
    if _factorize(p) != {p: 1} or p == 2:
        raise InvalidParams(f"p = {p} must be an odd prime")
    if a < 1:
        raise InvalidParams(f"a = {a} must be positive")
    if e < 1 or f < 1:
        raise InvalidParams(f"e = {e}, f = {f} must be positive")
    q = p ** a
    n = e * f
    if n <= 1:
        raise InvalidParams(f"n = ef = {n} must exceed 1")
    if n % p == 0:
        raise InvalidParams(f"p = {p} divides n = {n} (wild ramification)")
    if (q ** f - 1) % e != 0:
        raise InvalidParams(f"e = {e} does not divide q^f - 1 = {q ** f - 1}")
    if not 0 <= m < e:
        raise InvalidParams(f"m = {m} not in [0, {e})")
    if (m * (q - 1)) % e != 0:
        raise InvalidParams(f"m(q-1) = {m * (q - 1)} is not 0 mod e = {e}")
    if r < 2:
        raise InvalidParams(f"r = {r} must be at least 2")
    return TameParams(p=p, a=a, q=q, e=e, f=f, m=m, r=r)


def params_from_q(q: int, e: int, f: int, m: int, r: int) -> TameParams:
    """Convenience wrapper: factor q = p^a and validate."""
    factors = _factorize(q)
    if len(factors) != 1:
        raise InvalidParams(f"q = {q} is not a prime power")
    (p, a), = factors.items()
    return validate_params(p, a, e, f, m, r)


class GalElt(NamedTuple):
    """Normal form delta^i rho^j."""

    i: int
    j: int


GAL_ID = GalElt(0, 0)


def gal_mul(g1: GalElt, g2: GalElt, P: TameParams) -> GalElt:
    # (i1,j1)(i2,j2) = delta^{i1} rho^{j1} delta^{i2} rho^{j2}
    #               = delta^{i1 + l^{j1} i2} rho^{j1+j2}, folding rho^f = delta^m.
    l = P.l_twist
    j = g1.j + g2.j
    carry = P.m if j >= P.f else 0
    i = (g1.i + pow(l, g1.j, P.e) * g2.i + carry) % P.e
    return GalElt(i, j % P.f)


def gal_inv(g: GalElt, P: TameParams) -> GalElt:
    for i in range(P.e):
        for j in range(P.f):
            cand = GalElt(i, j)
            if gal_mul(g, cand, P) == GAL_ID:
                return cand
    raise VerificationError("group law has no inverse; params inconsistent")


def gal_elements(P: TameParams) -> List[GalElt]:
    return [GalElt(i, j) for i in range(P.e) for j in range(P.f)]


@dataclass(frozen=True)
class OrderTwoData:
    """The elements gamma with gamma^2 = 1, by enumeration."""

    elements: FrozenSet[GalElt]
    # gamma -> True iff K/K_gamma is ramified, i.e. gamma lies in <delta>
    ramified: Dict[GalElt, bool]


def order_two_set(P: TameParams) -> OrderTwoData:
    """All gamma with gamma^2 = 1, by enumeration."""
    enumerated = frozenset(
        g for g in gal_elements(P) if gal_mul(g, g, P) == GAL_ID
    )
    ramified = {g: g.j == 0 for g in enumerated if g != GAL_ID}
    return OrderTwoData(elements=enumerated, ramified=ramified)


@lru_cache(maxsize=1)
def commutator_subgroup(P: TameParams) -> FrozenSet[GalElt]:
    """[Gamma, Gamma]; the last tuple's subgroup is kept, so the norm_index
    calls of one request build it once."""
    inv = {g: gal_inv(g, P) for g in gal_elements(P)}
    gens = set()
    for g in inv:
        for h in inv:
            c = gal_mul(
                gal_mul(g, h, P), gal_mul(inv[g], inv[h], P), P
            )
            gens.add(c)
    # close under multiplication
    sub = {GAL_ID}
    frontier = set(gens)
    while frontier:
        nxt = set()
        for x in frontier:
            for y in gens:
                z = gal_mul(x, y, P)
                if z not in sub:
                    sub.add(z)
                    nxt.add(z)
        frontier = nxt
    return frozenset(sub)


def abelianization_orders(P: TameParams) -> List[int]:
    """Invariant factors of Gamma^ab from the presentation matrix.

    Relations in additive (delta, rho) coordinates: e*d = 0, f*s = m*d,
    (l-1)*d = 0.  Cross-checked against commutator_subgroup by the tests.
    """
    rel = [[P.e, 0], [-P.m, P.f], [(P.l_twist - 1) % P.e, 0]]
    s, _, _ = smith_normal_form(rel)
    return [s[i][i] for i in range(2) if s[i][i] != 1]


def abelianization_order(P: TameParams) -> int:
    out = 1
    for d in abelianization_orders(P):
        out *= d
    return out


def norm_index(P: TameParams) -> int:
    """(O_F^x : N_{K/F}(O_K^x)) = |Gamma^ab| / f, via the commutator quotient."""
    ab = P.n // len(commutator_subgroup(P))
    if ab % P.f:
        raise VerificationError(f"|Gamma^ab| = {ab} is not a multiple of f = {P.f}")
    return ab // P.f


def filtration_data(P: TameParams, t: int) -> Tuple[Fraction, int]:
    """(|V_t|, dim of the fixed space of V_t on the adjoint space).

    V_t is the congruence filtration of the monomial parameter's source:
    |V_0| = e q^{nr}(1-q^{-f}) and |V_t| = q^{nr-fk} on the range
    q^{f(k-1)}-1 < t <= q^{fk}-1.  The fixed-space dimension follows the
    four-range table ending at the full n^2-1.
    """
    q, n, r, e, f = P.q, P.n, P.r, P.e, P.f
    if t < 0:
        raise OutOfRange(f"t = {t} outside [0, q^(fer)-1]")
    if t == 0:
        size = Fraction(e * q ** (n * r)) * (1 - Fraction(1, q ** f))
        fixdim = f - 1
        return size, fixdim
    # the k-range of t is the least k >= 1 with t <= Q^k - 1, Q = q^f, so
    # k - 1 is the integer logarithm floor(log_Q t): a float estimate, capped
    # at er, is off by at most one, and one exact power settles it.  Every
    # bound t <= Q^m - 1 below is then the comparison k <= m.
    big_q = q ** f
    j = min(int(log(t, big_q)), e * r)
    power = big_q ** j
    if power > t:
        j -= 1
    elif power * big_q <= t:
        j += 1
    k = j + 1
    if k > e * r:
        raise OutOfRange(f"t = {t} outside [0, q^(fer)-1]")
    size = Fraction(q ** (n * r - f * k))
    if k <= e * (r - 1) - 1:
        fixdim = n - 1
    elif k <= e * (r - 1):
        fixdim = f * e * e - 1
    else:
        fixdim = n * n - 1
    return size, fixdim


def weighted_conductor_sum(P: TameParams) -> Fraction:
    """Sum over t of (V_0 : V_t)^{-1} (n^2 - 1 - fixdim(t)); equals rn(n-1)."""
    q, f = P.q, P.f
    v0, fix0 = filtration_data(P, 0)
    total = Fraction(P.n * P.n - 1 - fix0)
    for k in range(1, P.e * P.r + 1):
        t_rep = q ** (f * k) - 1
        size, fixdim = filtration_data(P, t_rep)
        count = q ** (f * k) - q ** (f * (k - 1))
        total += count * (P.n * P.n - 1 - fixdim) * size / v0
    return total
