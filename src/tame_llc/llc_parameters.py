"""Assembly of the Langlands parameter data.

The parameter is only ever handled through finite data: the trace of
phi_1 = Ind theta-tilde, the adjoint decomposition into induced pieces,
and the conductor / L-factor / gamma / root number computed by
independent methods that the tests compare.

The cocycle alpha of the induction is never evaluated.  The trace checks
that sigma permutes the basis v_gamma and raises where a fixed basis
vector would carry alpha(sigma, gamma) with sigma != 1, so every number
that leaves this module is cocycle-independent.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Tuple

from .exactnum import Cyclotomic, VerificationError
from .local_factors import (
    _poly_mul,
    gamma_at_zero_abs,
    induced_factor,
    model_lambda,
)
from .tame_galois import (
    GAL_ID,
    GalElt,
    TameParams,
    abelianization_order,
    gal_elements,
    gal_inv,
    gal_mul,
    norm_index,
    order_two_set,
    weighted_conductor_sum,
)


class CocycleDependent(ArithmeticError):
    """A quantity depends on the cocycle of the induction, never evaluated."""


# ---------------------------------------------------------------------------
# the induced representation phi_1 = Ind theta-tilde
# ---------------------------------------------------------------------------

def phi1_trace(sys, sigma: GalElt, x) -> Cyclotomic:
    """Trace of phi_1 at (sigma, x) on the basis v_gamma of the induced
    representation: sigma sends v_gamma to alpha(sigma, gamma) v_{sigma gamma}
    and x scales it by theta-tilde(x^gamma).  Raises VerificationError if
    gamma -> sigma gamma is no permutation, and CocycleDependent at a gamma
    fixed by a sigma != 1, as the cocycle is never evaluated; alpha(1, .) = 1
    is the stated normalization."""
    P = sys.P
    gammas = gal_elements(P)
    images = [gal_mul(sigma, g, P) for g in gammas]
    if set(images) != set(gammas):
        raise VerificationError("not a monomial matrix")
    fixed = [g for g, image in zip(gammas, images) if image == g]
    if fixed and sigma != GAL_ID:
        raise CocycleDependent(f"the trace at sigma = {sigma} carries the "
                               f"cocycle alpha(sigma, {fixed[0]})")
    return sum((sys.theta_tilde.value_on_coords(sys.U.dlog(sys.M.galois_act(g, x)))
                for g in fixed), Cyclotomic.zero())


# ---------------------------------------------------------------------------
# adjoint decomposition
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AdjointDecomposition:
    """Pieces of Ad of phi: (Ind_K^F 1 - 1) plus Ind of each twist character.

    unramified_frob_values are the Frobenius eigenvalues of the inertia-fixed
    part (the nontrivial characters of the unramified quotient); paired lists
    each {gamma, gamma^{-1}} orbit once; order_two are the self-paired gamma.
    """

    P: TameParams
    unramified_frob_values: Tuple[Cyclotomic, ...]
    base_change_conductor: int
    induced: Tuple[GalElt, ...]
    paired: Tuple[Tuple[GalElt, GalElt], ...]
    order_two: Tuple[GalElt, ...]

    @property
    def total_dim(self) -> int:
        n = self.P.n
        return (n - 1) + n * len(self.induced)


def adjoint_decompose(P: TameParams) -> AdjointDecomposition:
    f = P.f
    frob_vals = tuple(Cyclotomic.root_of_unity(f, j) for j in range(1, f))
    o2 = order_two_set(P)
    induced = tuple(g for g in sorted(gal_elements(P)) if g != GAL_ID)
    paired = []
    order_two = []
    seen = set()
    for g in induced:
        if g in seen:
            continue
        gi = gal_inv(g, P)
        if gi == g:
            order_two.append(g)
            seen.add(g)
        else:
            paired.append((g, gi))
            seen.add(g)
            seen.add(gi)
    if set(order_two) != set(o2.elements) - {GAL_ID}:
        raise VerificationError("self-inverse twists differ from the order-two set")
    dec = AdjointDecomposition(
        P=P,
        unramified_frob_values=frob_vals,
        base_change_conductor=f * (P.e - 1),
        induced=induced,
        paired=tuple(paired),
        order_two=tuple(order_two),
    )
    if dec.total_dim != P.n * P.n - 1:
        raise VerificationError(f"decomposition has dimension {dec.total_dim}")
    return dec


# ---------------------------------------------------------------------------
# adjoint L-factor: three methods
# ---------------------------------------------------------------------------

def frobenius_matrix(f: int) -> List[List[int]]:
    """The matrix of Frobenius on the (f-1)-dimensional fixed space, in the
    basis where the regular representation of Z/f drops the invariant line."""
    return [
        [-1 if j == 0 else (1 if j == i + 1 else 0) for j in range(f - 1)]
        for i in range(f - 1)
    ]


def adjoint_L(P: TameParams, method: str = "closed") -> Tuple[Fraction, ...]:
    """L(s, Ad phi) = 1/P(u), u = q^{-s}, as the ascending coefficients of P.

    closed: P = 1 + u + ... + u^{f-1}.  decomposition: P = prod (1 - z u)
    over the Frobenius eigenvalues z on the inertia-fixed part; the z are
    f-th roots of unity, so the product is taken over Cyclotomic
    coefficients and only then recognized as rational.  matrix:
    P = det(1 - u M) for the Frobenius matrix M.
    """
    f = P.f
    if method == "closed":
        return (Fraction(1),) * f
    if method == "decomposition":
        poly = (Cyclotomic.one(),)
        for val in adjoint_decompose(P).unramified_frob_values:
            poly = _poly_mul(poly, (Cyclotomic.one(), -val))
        if not all(c.is_rational() for c in poly):
            raise VerificationError("L-factor has irrational coefficients: %s"
                                    % [c.to_text() for c in poly])
        return tuple(c.rational_value() for c in poly)
    if method == "matrix":
        # det(1 - u M) lists the coefficients of det(x - M) from the top.
        # M is lower Hessenberg, so on its leading blocks M_j (Cohen, 2.2.4)
        # det(x - M_{j+1}) = x det(x - M_j) - sum_{i <= j} M[j][i]
        # M[i][i+1] ... M[j-1][j] det(x - M_i), over the nonzero M[j][i]
        m = frobenius_matrix(f)
        chars = [[1]]  # ascending coefficients of det(x - M_j)
        for j, row in enumerate(m):
            nxt, chain = [0] + chars[j], 1  # chain = M[i][i+1] ... M[j-1][j]
            for i in range(j, -1, -1):
                if row[i]:
                    for t, c in enumerate(chars[i]):
                        nxt[t] -= row[i] * chain * c
                chain *= m[i - 1][i] if i else 0
                if not chain:
                    break
            chars.append(nxt)
        return tuple(map(Fraction, reversed(chars[-1])))
    raise ValueError(f"unknown method {method!r}")


# ---------------------------------------------------------------------------
# adjoint conductor: two methods
# ---------------------------------------------------------------------------

def twist_conductor_predicted(P: TameParams, gamma: GalElt) -> int:
    """The conductor break of the twist character: e(r-1) when gamma fixes
    the unramified part (gamma in <delta>), e(r-1) + 1 otherwise."""
    base = P.e * (P.r - 1)
    return base if gamma.j == 0 else base + 1


def adjoint_conductor(P: TameParams, method: str = "filtration") -> int:
    if method == "filtration":
        total = weighted_conductor_sum(P)
        if total.denominator != 1:
            raise VerificationError(f"filtration conductor {total} is not an integer")
        return int(total)
    if method == "additivity":
        f, e = P.f, P.e
        total = f * (e - 1)
        for g in gal_elements(P):
            if g == GAL_ID:
                continue
            total += f * (e - 1) + f * twist_conductor_predicted(P, g)
        return total
    raise ValueError(f"unknown method {method!r}")


# ---------------------------------------------------------------------------
# gamma at zero and the root number
# ---------------------------------------------------------------------------

def adjoint_gamma0_abs(P: TameParams) -> Fraction:
    """|gamma(0, Ad phi)| from the matrix L-factor and the filtration conductor."""
    return gamma_at_zero_abs(
        P.q, adjoint_conductor(P, "filtration"), adjoint_L(P, "matrix")
    )


def adjoint_root_number(sys, method: str = "closed") -> Fraction:
    """w(Ad of phi) as a turn, by the closed formula or assembled from Gauss sums.

    closed: vartheta((-1)^{n-1}) times (-1)^{(q-1)f/2} for e even (1 for e
    odd).  assembled: by additivity of eps and of the conductor over the
    pieces of adjoint_decompose, lambda(K/F) for Ind_K^F 1 - 1 (whose
    unramified characters have eps = 1) times the root number of each
    induced twist piece (lambda(K/F) times its Gauss-sum value, by
    inductivity).  f(e - 1) and the pieces' conductors must add up to the
    filtration conductor a(Ad phi), or it raises.
    """
    P = sys.P
    if method == "closed":
        val = Fraction(0) if P.n % 2 else sys.vartheta(sys.minus_one_coords())
        if P.e % 2 == 0:
            val += Fraction((P.q - 1) * P.f // 2 % 2, 2)
        return val % 1
    if method == "assembled":
        dec = adjoint_decompose(P)
        lam = model_lambda(sys)
        val, a = lam, dec.base_change_conductor
        for g in dec.induced:
            w, a_piece = induced_factor(sys, g, lam)
            val += w
            a += a_piece
        expected = adjoint_conductor(P, "filtration")
        if a != expected:
            raise VerificationError(
                f"twist conductors add up to {a}, not a(Ad phi) = {expected}")
        return val % 1
    raise ValueError(f"unknown method {method!r}")


# ---------------------------------------------------------------------------
# the centralizer group A_phi
# ---------------------------------------------------------------------------

def centralizer_order(P: TameParams) -> int:
    """|A_phi| = (O_F^x : N(O_K^x)) * f, realized as |Gamma^ab|."""
    out = abelianization_order(P)
    expected = norm_index(P) * P.f
    if out != expected:
        raise VerificationError(f"|Gamma^ab| = {out} but norm index * f = {expected}")
    return out


# ---------------------------------------------------------------------------
# character identity of the adjoint
# ---------------------------------------------------------------------------

def ad_character_identity(sys, x) -> Tuple[Cyclotomic, Cyclotomic]:
    """(|tr phi_1(1,x)|^2 - 1, character of the decomposition at (1,x)).

    The two must be equal for every unit x; this is a cocycle-independent
    sample of Ad of phi's character.
    """
    tr = phi1_trace(sys, GAL_ID, x)
    lhs = tr * tr.conj() - Cyclotomic.one()
    P = sys.P
    rhs = Cyclotomic.from_rational(P.n - 1)
    for g in gal_elements(P):
        if g == GAL_ID:
            continue
        tw = sys.theta_tilde_twist(g)
        for sigma in gal_elements(P):
            rhs = rhs + tw.value_on_coords(
                sys.U.dlog(sys.M.galois_act(sigma, x))
            )
    return lhs, rhs
