"""The package's three exception types and its exact arithmetic substrate:
rationals, mul_power, the one square-and-multiply ladder every power in
the package goes through, _prime_factors, the one trial division, and as
oracles cyclotomic numbers, the quadratic Gauss sums that give square
roots of integers and the unit part w = total * q^(-k/2) of a Gauss sum.

Every character value, Gauss sum and root number is a root of unity, a
Fraction mod 1 (a turn) that becomes a Cyclotomic only to be printed, and
every L-factor is 1/P(u), u = q^(-s), stored as the ascending coefficients
of P, so no floating point ever enters a verification path.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Dict, Iterator, List, Tuple
import math


class VerificationError(ArithmeticError):
    """A failed claim: two computations that must agree do not."""


class InvalidParams(ValueError):
    """A usage error: a parameter tuple violates a tameness constraint."""


class TooLarge(RuntimeError):
    """A stated refusal: a request is past a size bound."""


def mul_power(mul: Callable, acc, squares: List, n: int, one):
    """acc * g^n for n >= 0, where squares = [g, g^2, g^4, ...] under the
    product `mul`.

    squares grows in place only to the bit length of n, so callers that
    raise one g to several exponents share it.  An acc that is the object
    `one` costs no product: it is replaced by the first square it meets.
    """
    if n < 0:
        raise ValueError("negative exponent %d" % n)
    i = 0
    while n:
        if i == len(squares):
            squares.append(mul(squares[-1], squares[-1]))
        if n & 1:
            acc = squares[i] if acc is one else mul(acc, squares[i])
        n >>= 1
        i += 1
    return acc


# ---------------------------------------------------------------------------
# Cyclotomic numbers
# ---------------------------------------------------------------------------

def _prime_factors(n: int) -> Iterator[int]:
    """The prime factors of n >= 1, least first and with multiplicity, by
    trial division up to 10^6.  A cofactor above 10^12 with no prime factor
    that small raises InvalidParams when it is reached: trial division has
    not decided whether it is prime."""
    d = 2
    while d <= 10 ** 6 and d * d <= n:
        while n % d == 0:
            yield d
            n //= d
        d += 1
    if n > 10 ** 12:
        raise InvalidParams(f"{n} > 10^12 has no prime factor up to 10^6, "
                            "the trial-division bound")
    if n > 1:
        yield n


def _factorize(n: int) -> Dict[int, int]:
    """n >= 1 as {prime: exponent}, from _prime_factors."""
    out: Dict[int, int] = {}
    for ell in _prime_factors(n):
        out[ell] = out.get(ell, 0) + 1
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

    @classmethod
    def from_turn(cls, turn: Fraction) -> "Cyclotomic":
        """The root of unity a turn names: the one place a turn becomes a Cyclotomic."""
        return cls.root_of_unity(turn.denominator, turn.numerator)

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
        one = Cyclotomic.one()
        return mul_power(Cyclotomic.__mul__, one, [self], n, one)

    def conj(self) -> "Cyclotomic":
        """Complex conjugation zeta -> zeta^(-1)."""
        M = self.order
        return Cyclotomic(M, {(-k) % M: c for k, c in self.coeffs.items()})

    # -- predicates and conversions ----------------------------------------

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

    def __repr__(self) -> str:
        return "Cyclotomic(%d, %s)" % (self.order, self.to_text())

    def to_text(self) -> str:
        """Render as a sum of c*z^k terms, named " (z = zeta_N)", N = order,
        unless the number is rational (its one term is z^0)."""
        if not self.coeffs:
            return "0"
        text = " + ".join("%s*z^%d" % (c, k) for k, c in sorted(self.coeffs.items()))
        return text if self.is_rational() else f"{text} (z = zeta_{self.order})"


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


def unit_part(total: Cyclotomic, k: int, q: int) -> Cyclotomic:
    """total * q^(-k/2) for k >= 0, which must have modulus 1: the root
    number w of an epsilon factor w * q^(k/2) (Tate, Corvallis 1979,
    section 3).

    At odd k, q^(1/2) is sqrt_as_cyclotomic(q).  Raises VerificationError
    unless the result has modulus 1.
    """
    w = total * Fraction(1, q ** ((k + 1) // 2))
    if k % 2:
        # q^(-k/2) = q^(-(k+1)/2) q^(1/2)
        w = w * sqrt_as_cyclotomic(q)
    if w * w.conj() != Cyclotomic.one():
        raise VerificationError("a sum times %d^(-%d/2) does not have modulus 1"
                                % (q, k))
    return w


def quadratic_gauss_sum_field(p: int, d: int) -> Cyclotomic:
    """Normalized quadratic Gauss sum over F_{p^d}, with the canonical
    additive character, as a modulus-one value: by Davenport-Hasse,
    g(F_{p^d}) = (-1)^{d-1} g_p^d, times (p^d)^(-1/2)."""
    return unit_part(quadratic_gauss_sum_prime(p) ** d * (-1) ** (d - 1), 1, p ** d)


def quadratic_gauss_phase(p: int, d: int) -> Fraction:
    """quadratic_gauss_sum_field(p, d) as a fraction of a turn: g_p is
    sqrt(p) for p = 1 mod 4 and i sqrt(p) for p = 3 mod 4 (Gauss)."""
    return Fraction(2 * (d - 1) + (d if p % 4 == 3 else 0), 4) % 1
