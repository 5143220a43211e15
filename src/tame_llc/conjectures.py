"""Both sides of the formal degree identity and the root number identity.

The formal degree's counting side (dimensions, unit-group indices) reads
the norm index; its gamma side, assembled in local_factors and
llc_parameters, reads |Gamma^ab|, which must equal the norm index times f.
The root number's routes share theta and c: once c(-1) passes its check,
the closed route theta(-1) + c(-1) + [e even] (q - 1) f / 4 is theta(-1) =
theta_at_eps, so the one independent comparison is assembled (lambda(K/F)
and the twists' Gauss sums) against theta(-1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Iterator, List, Optional, Sequence

from .exactnum import Cyclotomic, InvalidParams, TooLarge, VerificationError
from .llc_parameters import (
    adjoint_gamma0_abs,
    adjoint_root_number,
    centralizer_order,
)
from .local_factors import principal_triple
from .ring_model import build_model
from .tame_galois import TameParams, norm_index

PAPER_TYPO_NOTES = [
    "dimension product: the source's (1-k^-k) factor is read as (1-q^-k), "
    "the proof-consistent form",
    "ramified abelian epsilon: exponent sign corrected to +(n(psi)+f(chi))/2 "
    "under the n(psi)=0 normalization",
]


@dataclass
class CheckResult:
    name: str
    method_values: Dict[str, str]
    status: str  # "OK", "FAIL", or "SKIP: reason"


@dataclass
class ConjectureReport:
    params: TameParams
    checks: List[CheckResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.status == "OK" or c.status.startswith("SKIP")
                   for c in self.checks)

    def to_json_dict(self) -> dict:
        P = self.params
        return {
            "params": {"p": P.p, "a": P.a, "q": P.q, "e": P.e, "f": P.f,
                       "m": P.m, "r": P.r, "n": P.n},
            "checks": [
                {"name": c.name, "method_values": c.method_values,
                 "status": c.status}
                for c in self.checks
            ],
            "paper_typo_notes": PAPER_TYPO_NOTES,
        }


REFUSED = "SKIP: too large: "  # the status prefix of a check a resource bound refused


def number_text(x) -> str:
    """str(x) of an int or a Fraction for a report.  Python refuses to print
    an int past its digit limit (4,300 digits by default) with a ValueError;
    that refusal is raised here as TooLarge."""
    try:
        return str(x)
    except ValueError:
        raise TooLarge("a report number exceeds Python's limit on the digits "
                       "of an int-to-str conversion") from None


# ---------------------------------------------------------------------------
# dimension of the depth-zero-at-level-r representation
# ---------------------------------------------------------------------------

def _over(num: int, den: int, q: int, s: int) -> Fraction:
    """num * q^s / den, one Fraction."""
    return Fraction(num * q ** s, den) if s >= 0 else Fraction(num, den * q ** -s)


def dim_delta(P: TameParams, method: str = "closed") -> Fraction:
    """The dimension of the representation at level r, in integers over one
    denominator.  closed: q^{r N} prod_{k=1}^{n} (1 - q^{-k}) / ((1 - q^{-f})
    (O_F^x : N O_K^x)), N = n(n-1)/2.  index: (SL_n(F_q) : G_beta) times
    q^{(r-2) N}, with |SL_n(F_q)| = q^{n^2-1} prod_{k=2}^{n} (1 - q^{-k}) and
    |G_beta| = (O_F^x : N O_K^x) q^{n-1} (1 - q^{-f}) / (1 - q^{-1})."""
    q, n, r, f = P.q, P.n, P.r, P.f
    ni = norm_index(P)
    N = n * (n - 1) // 2
    if method == "closed":
        num = 1
        for k in range(1, n + 1):
            num *= q ** k - 1
        return _over(num, (q ** f - 1) * ni, q, r * N + f - n * (n + 1) // 2)
    if method == "index":
        sl = 1  # |SL_n(F_q)| / q^N
        for k in range(2, n + 1):
            sl *= q ** k - 1
        g_beta = ni * (q ** f - 1)  # |G_beta| (q - 1) / q^{n - f}
        # |SL_n(F_q)| / |G_beta| = sl (q - 1) q^{N - (n - f)} / g_beta
        return _over(sl * (q - 1), g_beta, q, N - (n - f) + (r - 2) * N)
    raise ValueError(f"unknown method {method!r}")


def verify_dim_delta(P: TameParams) -> CheckResult:
    """The closed form against the index form of dim_delta; both must give
    the same integer."""
    closed, index = dim_delta(P, "closed"), dim_delta(P, "index")
    return CheckResult(
        "dim_delta",
        {"closed": number_text(closed), "index": number_text(index)},
        "OK" if closed == index and closed.denominator == 1 else "FAIL",
    )


# ---------------------------------------------------------------------------
# formal degree
# ---------------------------------------------------------------------------

def formal_degree_EP(P: TameParams) -> Fraction:
    """Formal degree w.r.t. the Euler-Poincare measure, by counting: dim_delta
    over q^N prod_{k=1}^{n-1} (1 - q^{-k}) = prod_{k=1}^{n-1} (q^k - 1),
    N = n(n-1)/2, against the closed form q^{(r-1) N} (1 - q^{-n}) /
    ((O_F^x : N O_K^x)(1 - q^{-f}))."""
    q, n, f = P.q, P.n, P.f
    dim = dim_delta(P, "index")
    den = dim.denominator
    for k in range(1, n):
        den *= q ** k - 1
    out = Fraction(dim.numerator, den)
    N = n * (n - 1) // 2
    closed = _over(q ** n - 1, norm_index(P) * (q ** f - 1), q, (P.r - 1) * N + f - n)
    if out != closed:
        raise VerificationError(f"formal degree {out} differs from its closed form {closed}")
    return out


def verify_formal_degree(P: TameParams) -> CheckResult:
    """Counting side against the gamma-factor side of the degree identity."""
    lhs = formal_degree_EP(P)
    rhs = adjoint_gamma0_abs(P) / (
        centralizer_order(P) * principal_triple(P.n, P.q).gamma0
    )
    return CheckResult(
        name="formal_degree",
        method_values={"counting": number_text(lhs), "gamma_ratio": number_text(rhs)},
        status="OK" if lhs == rhs else "FAIL",
    )


# ---------------------------------------------------------------------------
# root number
# ---------------------------------------------------------------------------

def theta_at_eps(P: TameParams, sys) -> Fraction:
    """theta((-1)^{n-1}) as a turn: 0 for odd n; a unit-group evaluation for even n."""
    if P.n % 2:
        return Fraction(0)
    return sys.theta.fraction_on_coords(sys.ubar_coords(sys.minus_one_coords()))


def root_number_supported(P: TameParams) -> Optional[str]:
    """None if the root number identity can be checked, else the reason."""
    if P.r < 3:
        return "needs r >= 3"
    if not P.supercuspidal_ok:
        return "needs l' >= 2(e-1)"
    return None


def verify_root_number(P: TameParams) -> CheckResult:
    reason = root_number_supported(P)
    if reason is not None:
        return CheckResult("root_number", {}, f"SKIP: {reason}")
    from .characters import CharacterSystem

    sys = CharacterSystem(build_model(P))
    theta = sys.theta
    if any(theta.fraction_on_coords(coords) != fr for coords, fr in sys.chi_beta_on_h):
        raise VerificationError("theta does not extend chi_beta on H")
    turns = [adjoint_root_number(sys, "closed"), adjoint_root_number(sys, "assembled"),
             theta_at_eps(P, sys)]
    # each side is a fraction of a turn, printed as the root of unity it names
    texts = [Cyclotomic.from_turn(t).to_text() for t in turns]
    names = ("closed", "assembled", "theta_at_eps")
    return CheckResult("root_number", dict(zip(names, texts)),
                       "OK" if len(set(turns)) == 1 else "FAIL")


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def valid_tuples(
    q_values: Sequence[int],
    max_n: int,
    r_values: Sequence[int],
) -> List[TameParams]:
    """All valid parameter tuples of 2 <= n <= max_n in the box, in
    deterministic order, each once however often its q or r is listed."""
    from .tame_galois import prime_power_of_q, validate_tuple

    out = []
    for q in sorted(set(q_values)):
        try:
            p, a = prime_power_of_q(q)
        except InvalidParams:
            continue
        for n in range(2, max_n + 1):
            for e in range(1, n + 1):
                if n % e:
                    continue
                f = n // e
                for m in range(e):
                    for r in sorted(set(r_values)):
                        try:
                            out.append(validate_tuple(p, a, e, f, m, r))
                        except InvalidParams:
                            continue
    return out


def sweep_report(
    q_values: Sequence[int],
    max_n: int,
    r_values: Sequence[int],
    include_root_number: bool = False,
) -> Iterator[ConjectureReport]:
    """The report of each valid tuple of the box, built when it is asked for;
    a check refused as TooLarge is a SKIP that starts with REFUSED."""
    checks = [("formal_degree", verify_formal_degree), ("dim_delta", verify_dim_delta)]
    if include_root_number:
        checks.append(("root_number", verify_root_number))
    for P in valid_tuples(q_values, max_n, r_values):
        rep = ConjectureReport(P)
        for name, verify in checks:
            try:
                rep.checks.append(verify(P))
            except TooLarge as ex:
                rep.checks.append(CheckResult(name, {}, REFUSED + str(ex)))
        yield rep
