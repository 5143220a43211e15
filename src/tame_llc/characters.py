"""Characters on the ring model: theta, the chi-data sign c, twists and
Gauss sums.

All multiplicative characters are stored as exponent vectors against the
invariant-factor generators of a unit-group presentation, so every value
is a Fraction, a fraction of a full turn, and becomes a Cyclotomic only at
the one edge, Cyclotomic.from_turn, to be printed or to meet an oracle.
There is one presentation, U at level e*r: a character trivial on 1 + pi^k
is read through its values on U's generators below level k.
U and U-bar alone carry invariant-factor bases: H is its Hermite rows, from
which theta extends canonically.  The chi-data sign c needs no extension:
each chi_gamma is eta o res or trivial, read off U's tau-exponents.
Each Galois action gamma != 1 is read once, as its matrix A_gamma on U's
coordinates, when the system is built; the norm-one subgroup U-bar is the
kernel of I + sum A_gamma.
Gauss sums are evaluated by stationary phase, as fractions of a turn.  At
odd conductor the residue-field tail left over is a quadratic Gauss sum
over F_p^d, whose phase is read off in closed form.  The literal sum over
the units of R/pi^k, a Cyclotomic, is kept for small unit groups: `selftest`
and the tests compare stationary phase against it.  The tests keep the
term-by-term tail and field sums.
The chi-data character of each order-two gamma is checked at -1 against
the closed parity of (q_K - 1)/2 as it is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from operator import mul
from typing import Dict, List, Optional, Sequence, Tuple

from .exactnum import Cyclotomic, VerificationError, quadratic_gauss_phase, unit_part
from .intlinalg import extend_character, fp_echelon, intersect_subgroups, solve_left
from .ring_model import (
    Elt,
    Model,
    TooLarge,
    UnitGroupPresentation,
    find_beta,
    kernel_of_norm,
)
from .tame_galois import GAL_ID, GalElt, gal_elements, order_two_set

LITERAL_GAUSS_THRESHOLD = 20000


class NotInSubgroup(VerificationError):
    pass


class PrecisionTooLow(RuntimeError):
    pass


@dataclass(frozen=True)
class MultCharacter:
    """Character of (+) Z/d_i by exponents: value on e_i is zeta_{d_i}^{w_i}."""

    orders: Tuple[int, ...]
    exps: Tuple[int, ...]
    value_at_uniformizer: Optional[Fraction] = None

    @cached_property
    def _turn(self) -> Tuple[int, Tuple[int, ...]]:
        """L = lcm(orders), and each exponent w_i / d_i as a multiple of 1/L."""
        L = lcm(*self.orders)
        return L, tuple(w * (L // d) for w, d in zip(self.exps, self.orders))

    def fraction_on_coords(self, coords: Sequence[int]) -> Fraction:
        L, weights = self._turn
        return Fraction(sum(map(mul, weights, coords)) % L, L)

    def value_on_coords(self, coords: Sequence[int]) -> Cyclotomic:
        return Cyclotomic.from_turn(self.fraction_on_coords(coords))


# ---------------------------------------------------------------------------
# theta: extension of chi_beta from the congruence subgroup to U-bar
# ---------------------------------------------------------------------------

def chi_beta_fraction(M: Model, beta: Elt, x: Elt) -> Fraction:
    """chi_beta(x) = psi(varpi_F^{-l'} T_{K/F}(y beta)) for x = 1 + varpi_F^l y,
    as a fraction of a full turn."""
    P = M.P
    l, lp = P.level_l, P.level_l_prime
    pl = P.p ** l
    # x - 1 = sum c pi^i (i < e) lies in pi^{el} R iff p^l divides every c
    diff = M.sub(x, M.one())
    if any(a % pl for a in diff):
        raise NotInSubgroup("x is not in 1 + p^l O_K")
    y = tuple(a // pl for a in diff)
    plp = P.p ** lp
    return Fraction(M.trace_functional()(M.mul(y, beta)) % plp, plp)


class CharacterSystem:
    """Everything attached to one parameter tuple on the ring model:

    the full unit group U = (R/pi^{er})^x, the norm-one subgroup U-bar,
    the generator beta, the character theta on U-bar extending chi_beta,
    the chi-data sign character c, and the Galois twists.
    """

    def __init__(self, M: Model):
        self.M = M
        self.P = M.P
        self.U = UnitGroupPresentation(M, M.P.e * M.P.r)
        # A_gamma, gamma != 1: row j holds the U coordinates of gamma(h_j)
        self.acts: Dict[GalElt, List[List[int]]] = {
            g: self.U.act_matrix(g) for g in gal_elements(M.P) if g != GAL_ID
        }
        self.Ubar = kernel_of_norm(self.U, self.acts)
        self.beta = find_beta(M)
        self._theta: Optional[MultCharacter] = None
        # (U-bar coordinates, chi_beta as a turn) of each generator b of H,
        # filled with theta
        self.chi_beta_on_h: List[Tuple[List[int], Fraction]] = []
        self._c_char: Optional[MultCharacter] = None
        self._theta_tilde: Optional[MultCharacter] = None

    # -- coordinates ---------------------------------------------------------

    def ubar_coords(self, w: Sequence[int]) -> List[int]:
        """U-bar coordinates of the norm-one unit with U coordinates w."""
        coords = self.Ubar.coords(w)
        if coords is None:
            raise NotInSubgroup("element is not norm-one")
        return coords

    def values_on_gens(self, chi: MultCharacter) -> List[Fraction]:
        """chi on each raw generator of U, as fractions of a full turn."""
        return [chi.fraction_on_coords(c) for c in self.U.gen_coords]

    def minus_one_coords(self) -> List[int]:
        """U coordinates of -1 = tau^{(q_K - 1)/2}."""
        return self.U.tau_coords((self.P.q_K - 1) // 2)

    # -- theta ---------------------------------------------------------------

    def congruence_subgroup(self) -> List[List[int]]:
        """H = U-bar cap (1 + pi^{el}), as its Hermite rows in U coordinates."""
        el = self.P.e * self.P.level_l
        rows = [c for c, i in zip(self.U.gen_coords, self.U.levels) if i >= el]
        return intersect_subgroups(list(self.U.orders), self.Ubar.basis, rows)

    @property
    def theta(self) -> MultCharacter:
        if self._theta is None:
            rows_sub, fracs = [], []
            for b in self.congruence_subgroup():
                coords = self.Ubar.coords(b)
                if coords is None:
                    raise VerificationError("H must sit inside U-bar")
                rows_sub.append(coords)
                fracs.append(chi_beta_fraction(self.M, self.beta, self.U.element_from_coords(b)))
            exps = extend_character(list(self.Ubar.orders), rows_sub, fracs)
            self._theta = MultCharacter(tuple(self.Ubar.orders), tuple(exps))
            self.chi_beta_on_h = list(zip(rows_sub, fracs))
        return self._theta

    def vartheta(self, w: Sequence[int]) -> Fraction:
        """vartheta = c * theta at the norm-one unit with U coordinates w,
        as a fraction of a full turn."""
        fr = self.theta.fraction_on_coords(self.ubar_coords(w))
        fr += self.c_char().fraction_on_coords(w)
        return fr % 1

    # -- chi-data ------------------------------------------------------------

    def chi_gamma(self, gamma: GalElt) -> MultCharacter:
        """chi_gamma of an order-two gamma != 1, on U: eta o res when K/K_gamma
        is ramified (gamma in <delta>; K and K_gamma share their residue
        field), trivial when it is not.  h_k is tau^{tau_exps[k]} mod pi, so
        eta is half a turn on h_k exactly when tau_exps[k] is odd."""
        U = self.U
        odd = [t % 2 * (gamma.j == 0) for t in U.tau_exps]
        if any(o and d % 2 for o, d in zip(odd, U.orders)):
            raise VerificationError("eta o res is not a character of U: "
                                    "an odd tau-exponent on an odd order")
        return MultCharacter(tuple(U.orders), tuple(d // 2 * o for o, d in zip(odd, U.orders)))

    def _build_chi_data(self):
        """c = prod chi_gamma^{-1}.  Each chi_gamma(-1) reads U's V at -1 and
        its V^{-1} through tau_exps, and must be the closed parity of
        (q_K - 1)/2 when K/K_gamma is ramified, and trivial when it is not."""
        P, U = self.P, self.U
        exps = [0] * len(U.orders)
        for gamma in sorted(order_two_set(P) - {GAL_ID}):
            chi_gamma = self.chi_gamma(gamma)
            at_minus_one = chi_gamma.fraction_on_coords(self.minus_one_coords())
            closed = Fraction((P.q_K - 1) // 2 % 2, 2) if gamma.j == 0 else 0
            if at_minus_one != closed:
                raise VerificationError(f"chi-data character for {gamma} has value "
                                        f"{at_minus_one} at -1, not {closed}")
            exps = [(t - a) % d for t, a, d in zip(exps, chi_gamma.exps, U.orders)]
        self._c_char = MultCharacter(tuple(U.orders), tuple(exps))

    def c_char(self) -> MultCharacter:
        if self._c_char is None:
            self._build_chi_data()
        return self._c_char

    # -- extension to the full unit group and twists ------------------------

    @property
    def theta_tilde(self) -> MultCharacter:
        """Deterministic extension of vartheta = c * theta from U-bar to U.

        The value at the uniformizer is a free choice; the trivial value is
        recorded, and nothing downstream may depend on it.
        """
        if self._theta_tilde is None:
            rows = [list(b) for b in self.Ubar.basis]
            fracs = [self.vartheta(b) for b in rows]
            exps = extend_character(list(self.U.orders), rows, fracs)
            self._theta_tilde = MultCharacter(
                tuple(self.U.orders), tuple(exps), Fraction(0)
            )
        return self._theta_tilde

    def theta_tilde_twist(self, gamma: GalElt) -> MultCharacter:
        """The character x -> vartheta(x^{1-gamma}), with its uniformizer value.

        This is canonical: x^{1-gamma} lies in ker(N), so no extension choice
        enters.  h_j^{1-gamma} has the U coordinates e_j - A_gamma[j].  The
        value at pi is vartheta(tau^{-k}) where gamma(pi) = tau^k pi.
        """
        orders = self.U.orders
        exps = []
        for j, (row, d) in enumerate(zip(self.acts[gamma], orders)):
            w = [((i == j) - a) % di for i, (a, di) in enumerate(zip(row, orders))]
            ex = self.vartheta(w) * d
            if ex.denominator != 1:
                raise VerificationError("twist is not a character of U")
            exps.append(int(ex) % d)
        fr = self.vartheta(self.U.tau_coords(-self.M.pi_multiplier(gamma)))
        return MultCharacter(tuple(orders), tuple(exps), fr)


# ---------------------------------------------------------------------------
# conductors
# ---------------------------------------------------------------------------

def conductor_bruteforce(sys: CharacterSystem, chi: MultCharacter) -> int:
    """Minimal k with chi trivial on the (1 + pi^k)-units, by generator tests.

    A generator at level i (tau at level 0) is a unit of level i + 1, and
    the generators at levels >= k generate 1 + pi^k.
    """
    vals = sys.values_on_gens(chi)
    return max((i + 1 for i, v in zip(sys.U.levels, vals) if v), default=0)


# ---------------------------------------------------------------------------
# Gauss sums
# ---------------------------------------------------------------------------

def _psi_K_data(M: Model, k: int):
    """Precompute the additive character t -> psi_K(pi^{-(d_K+k)} t).

    Returns (level, func) with func giving the exponent mod p^level.
    """
    P = M.P
    dK = P.e - 1  # valuation of the different of K/F (tame, d(F) = 0)
    shift = dK + k
    lev = -(-shift // P.e)  # ceil
    if lev > P.r:
        raise PrecisionTooLow(f"need p-level {lev} > r = {P.r}")
    pi_pow = P.e * lev - shift
    # c^{-lev} = tau^{-c_exp lev}
    prefac = M.mul(M.pow(M.pi(), pi_pow), M.from_gr(M.tau_power(-M.c_exp * lev)))
    tracef = M.trace_functional()
    plev = P.p ** lev

    def func(t: Elt) -> int:
        return tracef(M.mul(prefac, t)) % plev

    return lev, func


def _values_below(sys: CharacterSystem, chi: MultCharacter, k: int) -> List[Fraction]:
    """chi on U's generators, checked to be trivial at levels >= k."""
    vals = sys.values_on_gens(chi)
    if any(v for i, v in zip(sys.U.levels, vals) if i >= k):
        raise VerificationError("character does not factor through level")
    return vals


def gauss_sum(sys: CharacterSystem, chi: MultCharacter, k: int) -> Fraction:
    """Normalized Gauss sum q_K^{-k/2} sum chi^{-1}(t) psi_K(pi^{-(d_K+k)} t).

    chi is a character of U(er) trivial on (1 + pi^k); the sum runs over the
    units of R/pi^k and is evaluated by stationary phase, which needs
    k = 0 or k >= 2.  For chi of conductor exactly k it is the root number
    of chi, a root of unity, returned as a fraction of a turn.
    """
    if k == 0:
        return Fraction(0)
    vals = _values_below(sys, chi, k)
    if k < 2:
        raise VerificationError("stationary phase needs conductor at least 2")
    lev, psi = _psi_K_data(sys.M, k)
    return _gauss_stationary(sys, chi, vals, psi, lev, k)


def gauss_sum_literal(sys: CharacterSystem, chi: MultCharacter, k: int) -> Cyclotomic:
    """The same Gauss sum by literal summation, the oracle gauss_sum is
    tested against; refused (TooLarge) above LITERAL_GAUSS_THRESHOLD units.

    Each unit t of R/pi^k is written by its digits d_i on U's generators,
    so chi(t) is the sum of d_i times chi(gens[i]).
    """
    P = sys.P
    qK = P.q_K
    if k == 0:
        return Cyclotomic.one()
    order = (qK - 1) * qK ** (k - 1)  # |(R/pi^k)^x|
    if order > LITERAL_GAUSS_THRESHOLD:
        raise TooLarge(f"{order} units exceed the literal Gauss-sum bound")
    vals = _values_below(sys, chi, k)
    lev, psi = _psi_K_data(sys.M, k)
    plev = P.p ** lev
    N = lcm(plev, *(v.denominator for v in vals))
    wts = [int(v * N) for v in vals]
    step = N // plev
    buckets: Dict[int, int] = {}
    for digits, elt in sys.U.enumerate(k):
        key = (psi(elt) * step - sum(w * d for w, d in zip(wts, digits))) % N
        buckets[key] = buckets.get(key, 0) + 1
    coeffs = {key: Fraction(v) for key, v in buckets.items()}
    total = Cyclotomic(N, coeffs)
    return unit_part(total, k, qK)


def _critical_point(sys, vals, psi, lev, l1, l2, k):
    """The unique unit b mod pi^{l1} with chi(1+v) = psi_K-shift(b v) for all
    one-units 1+v at levels l2 <= i < k.

    The psi side is additive in b, so writing b against the additive basis
    x^s pi^i of R/pi^{l1} turns the matching conditions into an integer
    linear system mod p^lev; one Hermite form gives b and, through its
    kernel, the proof that b is the only solution.
    """
    M = sys.M
    P = sys.P
    plev = P.p ** lev
    test_gens = [
        (g, v)
        for g, i, v in zip(sys.U.gens, sys.U.levels, vals)
        if l2 <= i < k
    ]
    # additive basis of R/pi^{l1} with the p-precision of each line
    basis = []
    for i in range(P.e):
        prec = -(-(l1 - i) // P.e)
        if prec <= 0:
            continue
        for s in range(M.gr.d):
            basis.append((M.monomial(s, i), P.p ** prec))
    vs = [M.sub(g, M.one()) for g, _ in test_gens]
    rows = [[psi(M.mul(m, v)) for v in vs] for m, _ in basis]
    slack = [
        [plev if t == g else 0 for t in range(len(vs))]
        for g in range(len(vs))
    ]
    # no b matches a value of chi that is no p^lev-th root of unity
    targets = [v * plev for _, v in test_gens]
    sol, kernel = None, []
    if all(t.denominator == 1 for t in targets):
        sol, kernel = solve_left(rows + slack, [int(t) % plev for t in targets])
    if sol is None:
        raise VerificationError(
            "stationary phase found 0 critical points; "
            "character is not primitive at this level"
        )
    # the critical point is unique when every homogeneous solution is zero
    # in R/pi^{l1}: each kernel row vanishes modulo the basis precisions
    if any(c % prec for row in kernel for c, (_, prec) in zip(row, basis)):
        raise VerificationError(
            "stationary phase found more than one critical point; "
            "character is not primitive at this level"
        )
    b = M.zero()
    for c, (m, prec) in zip(sol, basis):
        b = M.add(b, M.mul(M.from_int(c % prec), m))
    if not M.is_unit(b):
        raise VerificationError("critical point must be a unit")
    return b


def _gauss_stationary(sys, chi, vals, psi, lev, k) -> Fraction:
    """Split t = b(1+v): the inner sum over v at half level kills everything
    except the critical point b with chi(1+v) = psi_K-shift(b v)."""
    P = sys.P
    l2 = -(-k // 2)  # ceil(k/2)
    l1 = k - l2
    b = _critical_point(sys, vals, psi, lev, l1, l2, k)
    head = -chi.fraction_on_coords(sys.U.dlog(b)) + Fraction(psi(b), P.p ** lev)
    if k % 2:
        # odd conductor: one residue-field Gauss sum remains
        head += _closed_tail(sys, chi, psi, lev, b, l1)
    return head % 1


def _tail_form(sys, chi, psi, lev, b, l1) -> Tuple[List[List[int]], List[int]]:
    """The odd-conductor tail f(w) = psi_K-shift(b x) chi^{-1}(1 + x),
    x = w pi^{l1}, as a quadratic function on F_{q_K} = F_p^d.

    Since 1 + x + x' = (1+x)(1+x')(1 - x x') mod pi^k and chi(1 + v) =
    psi_K-shift(b v) at v in pi^{l1+1}, f(w + w') = f(w) f(w') B(w, w') with
    B(w, w') = psi_K-shift(b w w' pi^{2 l1}).  So log_{zeta_p} f(y) =
    y^T A y + l . y, A = B/2, on the coordinates y of w against the basis
    x^s of the residue field.  Returns (A, l) mod p; raises
    VerificationError if a pairing or a value of f is no p-th root of unity.
    """
    M = sys.M
    p = sys.P.p
    step = p ** (lev - 1)  # psi exponents of p-th roots of unity
    half = pow(2, -1, p)
    pi_l1 = M.pow(M.pi(), l1)
    xs = [M.mul(M.monomial(s, 0), pi_l1) for s in range(M.gr.d)]
    bxs = [M.mul(b, x) for x in xs]
    A = []
    for bx in bxs:
        row = []
        for x in xs:
            val = psi(M.mul(bx, x))
            if val % step:
                raise VerificationError("tail pairing is not p-torsion")
            row.append(val // step * half % p)
        A.append(row)
    lin = []
    for s, (x, bx) in enumerate(zip(xs, bxs)):
        fr = Fraction(psi(bx), step * p)
        fr -= chi.fraction_on_coords(sys.U.dlog(M.add(M.one(), x)))
        if (fr * p).denominator != 1:
            raise VerificationError("tail value is not a p-th root of unity")
        lin.append((int(fr * p) - A[s][s]) % p)
    return A, lin


def _complete_square(A: List[List[int]], lin: List[int], p: int) -> Tuple[int, int]:
    """(det A, -l^T A^{-1} l / 4) mod p for a symmetric A, so that
    y^T A y + l . y = z^T A z - l^T A^{-1} l / 4 at z = y + A^{-1} l / 2.
    Raises VerificationError if A is singular mod p."""
    d = len(A)
    rows, _, det = fp_echelon([row + [v] for row, v in zip(A, lin)], p, d)
    if det == 0:
        raise VerificationError("tail quadratic form is degenerate")
    sol = [row[d] for row in rows]  # A sol = l
    return det, -sum(a * c for a, c in zip(lin, sol)) * pow(4, -1, p) % p


def _legendre(a: int, p: int) -> int:
    """eta(a) = (a/p) = +-1 for a unit a mod p."""
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def _tail_phase(p: int, d: int, const: int, eta: int) -> Fraction:
    """eta zeta_p^const g_p^d p^(-d/2) as a turn, g_p^d = (-1)^{d-1} g(F_{p^d})."""
    half_turns = (1 - eta) // 2 + d - 1
    return (Fraction(const, p) + Fraction(half_turns, 2) + quadratic_gauss_phase(p, d)) % 1


def _closed_tail(sys, chi, psi, lev, b, l1) -> Fraction:
    """The sum of f(w) over w in F_{q_K} (see _tail_form) over sqrt(q_K), in
    closed form: sum_y zeta_p^{y^T A y + l . y} = eta(det A)
    zeta_p^{-l^T A^{-1} l / 4} g_p^d (diagonalize A; Lidl-Niederreiter,
    Finite Fields, 5.2), from d dlogs instead of one per residue.
    """
    p = sys.P.p
    A, lin = _tail_form(sys, chi, psi, lev, b, l1)
    det, const = _complete_square(A, lin, p)
    return _tail_phase(p, len(A), const, _legendre(det, p))


# ---------------------------------------------------------------------------
# regularity
# ---------------------------------------------------------------------------

def regularity_check(sys: CharacterSystem, chi: MultCharacter) -> bool:
    """True iff every nontrivial Galois conjugate of chi differs from chi:
    chi(sigma(h_j)), read on row j of A_sigma, differs from chi(h_j) for
    some invariant generator h_j."""
    for sigma in gal_elements(sys.P):
        if sigma == GAL_ID:
            continue
        rows = sys.acts[sigma]
        if all((chi.fraction_on_coords(row) - Fraction(w, d)) % 1 == 0
               for row, w, d in zip(rows, chi.exps, chi.orders)):
            return False
    return True
