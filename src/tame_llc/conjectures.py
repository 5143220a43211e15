"""Both sides of the formal degree identity and the root number identity.

The left sides come from counting (dimensions, orbit sizes, unit-group
indices); the right sides from the factor assembly in local_factors and
llc_parameters.  The two pipelines share no intermediate quantities, so
agreement is a genuine cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence

from .exactnum import Cyclotomic, VerificationError
from .llc_parameters import (
    adjoint_gamma0_abs,
    adjoint_root_number,
    centralizer_order,
)
from .local_factors import principal_triple
from .ring_model import TooLarge, build_model
from .tame_galois import InvalidParams, TameParams, norm_index

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

def theta_at_eps(P: TameParams, sys) -> Cyclotomic:
    """theta((-1)^{n-1}): 1 for odd n; a unit-group evaluation for even n."""
    if P.n % 2:
        return Cyclotomic.one()
    return sys.theta.value_on_coords(sys.ubar_coords(sys.minus_one_coords()))


def root_number_supported(P: TameParams) -> Optional[str]:
    """None if the root number identity can be checked, else the reason."""
    if P.r < 3:
        return "needs r >= 3"
    if not P.supercuspidal_ok:
        return "needs l' >= 2(e-1)"
    return None


def verify_root_number(P: TameParams, sys=None) -> CheckResult:
    reason = root_number_supported(P)
    if reason is not None:
        return CheckResult("root_number", {}, f"SKIP: {reason}")
    if sys is None:
        from .characters import CharacterSystem

        sys = CharacterSystem(build_model(P))
    w_closed = adjoint_root_number(sys, "closed")
    w_assembled = adjoint_root_number(sys, "assembled")
    te = theta_at_eps(P, sys)
    ok = w_closed == w_assembled == te
    return CheckResult(
        name="root_number",
        method_values={
            "closed": w_closed.to_text(),
            "assembled": w_assembled.to_text(),
            "theta_at_eps": te.to_text(),
        },
        status="OK" if ok else "FAIL",
    )


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def valid_tuples(
    q_values: Sequence[int],
    max_n: int,
    r_values: Sequence[int],
) -> List[TameParams]:
    """All valid parameter tuples of 2 <= n <= max_n in the box, in
    deterministic order."""
    from .tame_galois import params_from_q

    out = []
    for q in sorted(q_values):
        for n in range(2, max_n + 1):
            for e in range(1, n + 1):
                if n % e:
                    continue
                f = n // e
                for m in range(e):
                    for r in sorted(r_values):
                        try:
                            out.append(params_from_q(q, e, f, m, r))
                        except InvalidParams:
                            continue
    return out


def sweep_report(
    q_values: Sequence[int],
    max_n: int,
    r_values: Sequence[int],
    include_root_number: bool = False,
) -> List[ConjectureReport]:
    reports = []
    for P in valid_tuples(q_values, max_n, r_values):
        rep = ConjectureReport(P)
        rep.checks.append(verify_formal_degree(P))
        rep.checks.append(verify_dim_delta(P))
        if include_root_number:
            rep.checks.append(verify_root_number(P))
        reports.append(rep)
    return reports
