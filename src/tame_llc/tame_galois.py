"""Combinatorics of the tame Galois group Gamma = <delta, rho>.

The group is presented by delta^e = 1, rho^f = delta^m and the Iwasawa
relation rho^{-1} delta rho = delta^q.  Everything here is finite and is
computed by exact integer arithmetic.  Inverses and [Gamma, Gamma] are read
from the presentation and checked by gal_mul; the tests keep the
enumerations (the inverse scan, the closure of all commutators) as their
ground truth.  order_two_set still enumerates.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
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
    # (delta^i rho^j)^{-1} = delta^{-(i + m[j > 0]) q^j} rho^{-j}, since
    # rho^j delta^x rho^{-j} = delta^{l^j x}, lq = 1 mod e and rho^f = delta^m
    carry = P.m if g.j else 0
    inv = GalElt(-(g.i + carry) * pow(P.q, g.j, P.e) % P.e, -g.j % P.f)
    if gal_mul(g, inv, P) != GAL_ID:
        raise VerificationError("group law has no inverse; params inconsistent")
    return inv


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


def commutator_subgroup(P: TameParams) -> FrozenSet[GalElt]:
    """[Gamma, Gamma], the powers of c = [delta, rho] = (rho delta)^{-1} delta rho.

    The Iwasawa relation makes c = delta^{q-1}, so c lies in the cyclic
    normal subgroup <delta>.  A subgroup of a cyclic group is characteristic
    in it, so <c> is normal in Gamma.  delta and rho commute in Gamma/<c>,
    which is therefore abelian: [Gamma, Gamma] lies in <c>, and it contains
    c.  The products are taken by gal_mul; the powers must return to 1
    inside <delta>.
    """
    delta, rho = GalElt(1, 0), GalElt(0, 1)
    c = gal_mul(gal_inv(gal_mul(rho, delta, P), P), gal_mul(delta, rho, P), P)
    sub, x = {GAL_ID}, c
    while x not in sub:
        sub.add(x)
        x = gal_mul(x, c, P)
    if c.j or x != GAL_ID:
        raise VerificationError(f"[delta, rho] = {c} does not generate a subgroup "
                                "of <delta>; params inconsistent")
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


def filtration_data(P: TameParams, k: int) -> Tuple[int, int]:
    """(|V_t|, dim of the fixed space of V_t on the adjoint space) on range k.

    V_t is the congruence filtration of the monomial parameter's source.
    Range k = 0 is t = 0, with |V_0| = e q^{nr}(1-q^{-f}); range k in
    1..er is q^{f(k-1)}-1 < t <= q^{fk}-1, on which |V_t| = q^{nr-fk}.
    The fixed-space dimension follows the four-range table ending at the
    full n^2-1.
    """
    q, n, r, e, f = P.q, P.n, P.r, P.e, P.f
    if not 0 <= k <= e * r:
        raise OutOfRange(f"k = {k} outside [0, {e * r}]")
    if k == 0:
        return e * q ** (n * r - f) * (q ** f - 1), f - 1
    size = q ** (n * r - f * k)
    if k <= e * (r - 1) - 1:
        fixdim = n - 1
    elif k <= e * (r - 1):
        fixdim = f * e * e - 1
    else:
        fixdim = n * n - 1
    return size, fixdim


def weighted_conductor_sum(P: TameParams) -> Fraction:
    """Sum over t of (V_0 : V_t)^{-1} (n^2 - 1 - fixdim(t)); equals rn(n-1).

    |V_t| is constant on each range k of t, so the sum is one integer term
    per k, |V_t| times the count of t times the codimension, over the one
    denominator |V_0|."""
    q, f = P.q, P.f
    v0, fix0 = filtration_data(P, 0)
    total = (P.n * P.n - 1 - fix0) * v0
    for k in range(1, P.e * P.r + 1):
        size, fixdim = filtration_data(P, k)
        count = q ** (f * k) - q ** (f * (k - 1))
        total += count * (P.n * P.n - 1 - fixdim) * size
    return Fraction(total, v0)
