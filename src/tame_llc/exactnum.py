"""Exact arithmetic substrate: rationals, cyclotomic numbers, half powers
of q and the quadratic Gauss sums that give their square roots.

Every quantity downstream (character values, Gauss sums, epsilon factors)
lives in one of the types defined here, and every L-factor is 1/P(u) with
u = q^(-s), stored as the ascending coefficients of P, so no floating point
ever enters a verification path.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Tuple
import math


class PoleAtPoint(ArithmeticError):
    """Raised when an L-factor is evaluated at one of its poles."""


class VerificationError(ArithmeticError):
    """Raised when two computations that must agree do not."""


# ---------------------------------------------------------------------------
# Cyclotomic numbers
# ---------------------------------------------------------------------------

def _factorize(n: int) -> Dict[int, int]:
    out: Dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


class Cyclotomic:
    """An element of Q(zeta_M), stored in a canonical basis of Z[zeta_M].

    The basis consists of the exponents k mod M whose component modulo each
    maximal prime power p^a | M avoids the top coset: writing k mod p^a as
    c*p^(a-1) + d, we require c != p-1.  A bad term is rewritten through
    zeta_M^k = -sum_{t=1}^{p-1} zeta_M^(k + t*M/p), which fixes all other
    prime components.  Iterating gives a unique normal form of dimension
    phi(M) without ever factoring a cyclotomic polynomial.
    """

    __slots__ = ("order", "coeffs", "_prime_powers")

    def __init__(self, order: int, coeffs: Dict[int, Fraction], *, _canonical: bool = False):
        if order < 1:
            raise ValueError("order must be >= 1")
        self.order = order
        self._prime_powers = tuple(
            (p, p ** a, p ** (a - 1)) for p, a in sorted(_factorize(order).items())
        )
        if _canonical:
            self.coeffs = coeffs
        else:
            self.coeffs = self._canonicalize(coeffs)

    # -- construction -------------------------------------------------------

    @classmethod
    def from_rational(cls, x) -> "Cyclotomic":
        x = Fraction(x)
        return cls(1, {0: x} if x else {})

    @classmethod
    def zero(cls) -> "Cyclotomic":
        return cls(1, {})

    @classmethod
    def one(cls) -> "Cyclotomic":
        return cls.from_rational(1)

    @classmethod
    def root_of_unity(cls, order: int, k: int = 1) -> "Cyclotomic":
        """zeta_order^k, stored at the minimal order supporting it."""
        if order < 1:
            raise ValueError("order must be >= 1")
        k %= order
        g = math.gcd(k, order)
        if k:
            order //= g
            k //= g
        else:
            order = 1
        return cls(order, {k: Fraction(1)})

    # -- canonical form -----------------------------------------------------

    def _bad_prime(self, k: int):
        for p, pa, pa1 in self._prime_powers:
            if (k % pa) // pa1 == p - 1:
                return p
        return None

    def _canonicalize(self, raw: Dict[int, Fraction]) -> Dict[int, Fraction]:
        M = self.order
        out: Dict[int, Fraction] = {}
        stack: List[Tuple[int, Fraction]] = [(k % M, Fraction(c)) for k, c in raw.items() if c]
        while stack:
            k, c = stack.pop()
            p = self._bad_prime(k)
            if p is None:
                acc = out.get(k)
                acc = c if acc is None else acc + c
                if acc:
                    out[k] = acc
                elif k in out:
                    del out[k]
            else:
                step = M // p
                for t in range(1, p):
                    stack.append(((k + t * step) % M, -c))
        return out

    # -- ring operations ----------------------------------------------------

    def _promote(self, other) -> Tuple["Cyclotomic", "Cyclotomic"]:
        if not isinstance(other, Cyclotomic):
            other = Cyclotomic.from_rational(other)
        if self.order == other.order:
            return self, other
        M = self.order * other.order // math.gcd(self.order, other.order)
        return self.embed(M), other.embed(M)

    def embed(self, M: int) -> "Cyclotomic":
        """The same value stored at order M, a multiple of self.order."""
        if M == self.order:
            return self
        if M % self.order:
            raise ValueError("order %d does not divide %d" % (self.order, M))
        scale = M // self.order
        return Cyclotomic(M, {k * scale: c for k, c in self.coeffs.items()})

    def __add__(self, other) -> "Cyclotomic":
        a, b = self._promote(other)
        coeffs = dict(a.coeffs)
        for k, c in b.coeffs.items():
            acc = coeffs.get(k)
            acc = c if acc is None else acc + c
            if acc:
                coeffs[k] = acc
            elif k in coeffs:
                del coeffs[k]
        return Cyclotomic(a.order, coeffs, _canonical=True)

    __radd__ = __add__

    def __neg__(self) -> "Cyclotomic":
        return Cyclotomic(self.order, {k: -c for k, c in self.coeffs.items()}, _canonical=True)

    def __sub__(self, other) -> "Cyclotomic":
        a, b = self._promote(other)
        return a + (-b)

    def __rsub__(self, other) -> "Cyclotomic":
        return (-self) + other

    def __mul__(self, other) -> "Cyclotomic":
        if isinstance(other, (int, Fraction)):
            c0 = Fraction(other)
            if not c0:
                return Cyclotomic.zero()
            return Cyclotomic(
                self.order, {k: c * c0 for k, c in self.coeffs.items()}, _canonical=True
            )
        a, b = self._promote(other)
        M = a.order
        raw: Dict[int, Fraction] = {}
        for k1, c1 in a.coeffs.items():
            for k2, c2 in b.coeffs.items():
                k = (k1 + k2) % M
                acc = raw.get(k)
                prod = c1 * c2
                raw[k] = prod if acc is None else acc + prod
        return Cyclotomic(M, raw)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Cyclotomic":
        if n < 0:
            return self.inv() ** (-n)
        result = Cyclotomic.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def conj(self) -> "Cyclotomic":
        """Complex conjugation zeta -> zeta^(-1)."""
        M = self.order
        return Cyclotomic(M, {(-k) % M: c for k, c in self.coeffs.items()})

    def inv(self) -> "Cyclotomic":
        """Inverse, valid whenever x*conj(x) is a nonzero rational.

        This covers every value the package needs to invert (roots of unity
        and rational multiples thereof).
        """
        nrm = cyc_conj_norm(self)
        if not nrm.is_rational():
            raise ArithmeticError("inverse supported only when x*conj(x) is rational")
        r = nrm.rational_value()
        if not r:
            raise ZeroDivisionError("inverse of zero")
        return self.conj() * (1 / r)

    # -- predicates and conversions ----------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_rational(self) -> bool:
        return all(k == 0 for k in self.coeffs)

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("not a rational cyclotomic: %s" % self.to_text())
        return self.coeffs.get(0, Fraction(0))

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Cyclotomic.from_rational(other)
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        a, b = self._promote(other)
        return a.coeffs == b.coeffs

    def __hash__(self) -> int:
        # Hash through a canonical minimal embedding: strip exponent gcd.
        if not self.coeffs:
            return hash(0)
        g = self.order
        for k in self.coeffs:
            g = math.gcd(g, k)
        items = tuple(sorted((k // g, c) for k, c in self.coeffs.items()))
        return hash((self.order // g, items))

    def __repr__(self) -> str:
        return "Cyclotomic(%d, %s)" % (self.order, self.to_text())

    def to_text(self) -> str:
        """Render as a sum of c*z^k terms (z = zeta_order)."""
        if not self.coeffs:
            return "0"
        parts = ["%s*z^%d" % (c, k) for k, c in sorted(self.coeffs.items())]
        return " + ".join(parts)


def cyc_conj_norm(x: Cyclotomic) -> Cyclotomic:
    """x * conj(x); equals 1 for any root of unity."""
    return x * x.conj()


# perfbench/worker.py reports its size; no square root is memoized
_SQRT_CACHE: Dict[int, Cyclotomic] = {}


def quadratic_gauss_sum_prime(p: int) -> Cyclotomic:
    """g_p = sum over y in F_p of zeta_p^{y^2}, at order p."""
    counts: Dict[int, int] = {}
    for y in range(p):
        counts[y * y % p] = counts.get(y * y % p, 0) + 1
    return Cyclotomic(p, {key: Fraction(v) for key, v in counts.items()})


def sqrt_as_cyclotomic(n: int) -> Cyclotomic:
    """Exact square root of a positive integer inside a cyclotomic field.

    Built multiplicatively from prime square roots; sqrt(p) comes from the
    classical evaluation of the quadratic Gauss sum: g_p equals sqrt(p) for
    p = 1 mod 4 and i*sqrt(p) for p = 3 mod 4.
    """
    if n < 1:
        raise ValueError("need a positive integer")
    out = Cyclotomic.one()
    for p, a in _factorize(n).items():
        out = out * Fraction(p ** (a // 2))
        if a % 2:
            if p == 2:
                # sqrt(2) = zeta_8 + zeta_8^(-1)
                root = Cyclotomic.root_of_unity(8, 1) + Cyclotomic.root_of_unity(8, 7)
            else:
                root = quadratic_gauss_sum_prime(p)
                if p % 4 == 3:
                    root = root * Cyclotomic.root_of_unity(4, 3)  # divide by i
            out = out * root
    return out


# ---------------------------------------------------------------------------
# Half-integer powers of q
# ---------------------------------------------------------------------------

class HalfPowerScalar:
    """A value coef * q^(half_exp/2) with exact cyclotomic coef.

    Epsilon factors are w * q^(a/2) with |w| = 1; carrying the half exponent
    formally means q^(1/2) never needs a numeric value.
    """

    __slots__ = ("coef", "half_exp", "q")

    def __init__(self, coef: Cyclotomic, half_exp: int, q: int):
        if q < 2:
            raise ValueError("q must be >= 2")
        if not isinstance(coef, Cyclotomic):
            coef = Cyclotomic.from_rational(coef)
        self.coef = coef
        self.half_exp = half_exp
        self.q = q

    @classmethod
    def one(cls, q: int) -> "HalfPowerScalar":
        return cls(Cyclotomic.one(), 0, q)

    def _check(self, other: "HalfPowerScalar"):
        if self.q != other.q:
            raise ValueError("mixed q bases: %d vs %d" % (self.q, other.q))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Cyclotomic)):
            return HalfPowerScalar(self.coef * other, self.half_exp, self.q)
        self._check(other)
        return HalfPowerScalar(self.coef * other.coef, self.half_exp + other.half_exp, self.q)

    __rmul__ = __mul__

    def __truediv__(self, other: "HalfPowerScalar") -> "HalfPowerScalar":
        self._check(other)
        return HalfPowerScalar(self.coef * other.coef.inv(), self.half_exp - other.half_exp, self.q)

    def __pow__(self, n: int) -> "HalfPowerScalar":
        coef = self.coef ** n
        return HalfPowerScalar(coef, self.half_exp * n, self.q)

    def normalized(self) -> "HalfPowerScalar":
        """Fold even half exponents into the coefficient when coef is rational-scaled.

        Only the canonical (coef, half_exp) pair with coef of modulus 1 is
        meaningful for root numbers, so this helper moves integer powers of q
        out of the coefficient: coef = c * q^j becomes (c, half_exp + 2j).
        """
        # Extract the largest power of q dividing all numerators (or multiplying
        # all denominators) of the coefficient.
        if self.coef.is_zero():
            return self
        shift = 0
        coeffs = self.coef.coeffs
        while all(c.denominator % self.q == 0 for c in coeffs.values()):
            coeffs = {k: c * self.q for k, c in coeffs.items()}
            shift -= 2
        while all(c.numerator % self.q == 0 for c in coeffs.values()):
            coeffs = {k: c / self.q for k, c in coeffs.items()}
            shift += 2
        half_exp = self.half_exp + shift
        coef = Cyclotomic(self.coef.order, dict(coeffs))
        root = math.isqrt(self.q)
        if root * root == self.q:
            # q^(1/2) is the integer root: the half exponent folds away
            coef = coef * Fraction(root) ** half_exp
            half_exp = 0
        return HalfPowerScalar(coef, half_exp, self.q)

    def exact_value(self) -> Cyclotomic:
        """The exact cyclotomic value coef * q^(half_exp/2)."""
        s = self.normalized()
        root = sqrt_as_cyclotomic(self.q)
        if s.half_exp >= 0:
            return s.coef * root ** s.half_exp
        return s.coef * root.inv() ** (-s.half_exp)

    def root_number(self) -> Cyclotomic:
        """The value as a modulus-one cyclotomic, asserting |value| = 1."""
        s = self.normalized()
        c = s.coef if s.half_exp == 0 else s.exact_value()
        if cyc_conj_norm(c) != Cyclotomic.one():
            raise ArithmeticError("value does not have modulus 1: %r" % self)
        return c

    def __eq__(self, other) -> bool:
        if not isinstance(other, HalfPowerScalar):
            return NotImplemented
        a, b = self.normalized(), other.normalized()
        if a.coef.is_zero() and b.coef.is_zero():
            return True
        if a.q == b.q and a.half_exp == b.half_exp:
            return a.coef == b.coef
        return a.exact_value() == b.exact_value()

    def __repr__(self) -> str:
        return "HalfPowerScalar(%s, q=%d, halfExp=%d)" % (
            self.coef.to_text(), self.q, self.half_exp,
        )


def quadratic_gauss_sum_field(p: int, d: int) -> HalfPowerScalar:
    """Normalized quadratic Gauss sum over F_{p^d}, with the canonical
    additive character, by Davenport-Hasse: g(F_{p^d}) = (-1)^{d-1} g_p^d.
    Stored at order 2p, where the sum of its terms lives."""
    g = quadratic_gauss_sum_prime(p) ** d * (-1) ** (d - 1)
    return HalfPowerScalar(g.embed(2 * p), -1, p ** d).normalized()
