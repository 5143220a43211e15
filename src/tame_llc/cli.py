"""Command-line interface: verification reports, sweeps, self-tests.

Reports are deterministic: the same arguments produce byte-identical
output. Measured timings are therefore opt-in (--timing): with the flag,
each JSON report's timing_ms is the wall time spent building that report,
so a sweep times each tuple; without it, timing_ms is 0.

The argument parser is built once per process, on the first call, and
shared by every later call of `main`; it holds no result, model or report
between requests.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, List, Optional, Sequence, Tuple

from .conjectures import (
    PAPER_TYPO_NOTES,
    REFUSED,
    CheckResult,
    ConjectureReport,
    number_text,
    sweep_report,
    verify_dim_delta,
    verify_formal_degree,
    verify_root_number,
)
from .llc_parameters import (
    adjoint_conductor,
    adjoint_gamma0_abs,
    adjoint_L,
    centralizer_order,
)
from .local_factors import gamma_at_zero_abs
from .ring_model import TooLarge
from .tame_galois import InvalidParams, TameParams, params_from_q

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


def _parse_int_list(text: str) -> List[int]:
    """Accepts '3,5' and '2..4' forms; raises ValueError on anything else,
    including an empty range such as '5..2'."""
    out: List[int] = []
    for part in text.split(","):
        lo, dots, hi = part.partition("..")
        try:
            values = range(int(lo), int(hi) + 1) if dots else [int(part)]
        except ValueError:
            raise ValueError(f"{part!r} is neither an integer nor lo..hi") from None
        if not values:
            raise ValueError(f"{part!r} is an empty range")
        out.extend(values)
    return out


def _add_param_args(sp):
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--e", type=int, required=True)
    sp.add_argument("--f", type=int, required=True)
    sp.add_argument("--m", type=int, default=0)
    sp.add_argument("--r", type=int, required=True)


def _add_output_args(sp):
    sp.add_argument("--out", default=None)
    sp.add_argument("--format", dest="fmt", choices=["json", "csv", "text"],
                    default="text")
    sp.add_argument("--timing", action="store_true")


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared after that.

    argparse writes only to the fresh namespace of each parse_args call,
    so the shared parser carries nothing from one request to the next.
    """
    parser = argparse.ArgumentParser(
        prog="tame-llc",
        description="Exact verification of formal degree and root number "
        "identities for tame supercuspidal parameters.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="verify one identity on one tuple")
    p_verify.add_argument("which", choices=["formal-degree", "root-number"])
    _add_param_args(p_verify)
    _add_output_args(p_verify)

    p_fact = sub.add_parser("factors", help="print the adjoint factor data")
    _add_param_args(p_fact)
    _add_output_args(p_fact)

    p_sweep = sub.add_parser("sweep", help="verify over a parameter box")
    p_sweep.add_argument("--q", required=True, help="comma list, e.g. 3,5")
    p_sweep.add_argument("--max-n", type=int, default=4)
    p_sweep.add_argument("--r", required=True, help="comma list or lo..hi")
    p_sweep.add_argument("--root-number", action="store_true")
    _add_output_args(p_sweep)

    p_self = sub.add_parser("selftest", help="run the desk-scale invariant suite")
    _add_output_args(p_self)
    return parser


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def _render_json(reports: List[ConjectureReport], timing_ms: List[int]) -> str:
    payload = [dict(r.to_json_dict(), timing_ms=ms) for r, ms in zip(reports, timing_ms)]
    body = payload[0] if len(payload) == 1 else payload
    return json.dumps(body, indent=2, sort_keys=True) + "\n"


def _render_csv(reports: List[ConjectureReport]) -> str:
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["p", "a", "q", "e", "f", "m", "r", "n",
                "check", "method", "value", "status"])
    for rep in reports:
        P = rep.params
        base = [P.p, P.a, P.q, P.e, P.f, P.m, P.r, P.n]
        for c in rep.checks:
            for method in sorted(c.method_values):
                w.writerow(base + [c.name, method, c.method_values[method],
                                   c.status])
            if not c.method_values:
                w.writerow(base + [c.name, "", "", c.status])
    return buf.getvalue()


def _render_text(reports: List[ConjectureReport]) -> str:
    lines = []
    for rep in reports:
        P = rep.params
        lines.append(
            f"(q={P.q}, e={P.e}, f={P.f}, m={P.m}, r={P.r})  n={P.n}"
        )
        for c in rep.checks:
            vals = ", ".join(f"{k}={v}" for k, v in sorted(c.method_values.items()))
            lines.append(f"  {c.name}: {c.status}  [{vals}]")
    lines.append("notes: " + "; ".join(PAPER_TYPO_NOTES))
    return "\n".join(lines) + "\n"


def _emit(reports: List[ConjectureReport], ns: argparse.Namespace,
          timing_ms: List[int]) -> bool:
    """Write the rendered reports in ns.fmt, the JSON ones with their
    timing_ms; False, with one line on stderr, if ns.out cannot be written."""
    if ns.fmt == "json":
        text = _render_json(reports, timing_ms)
    elif ns.fmt == "csv":
        text = _render_csv(reports)
    else:
        text = _render_text(reports)
    if not ns.out:
        sys.stdout.write(text)
        return True
    try:
        with open(ns.out, "w") as fh:
            fh.write(text)
    except OSError as ex:
        print(f"cannot write {ns.out}: {ex.strerror}", file=sys.stderr)
        return False
    return True


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------

def _l_text(l_inv: Tuple[Fraction, ...]) -> str:
    """L = 1/P(u) as "(1)/(P)", the terms of P ascending; "1" when P = 1."""
    if l_inv == (1,):
        return "1"
    terms = []
    for i, c in enumerate(l_inv):
        if c:
            power = "u" if i == 1 else f"u^{i}"
            terms.append(str(c) if i == 0 else power if c == 1 else f"{c}*{power}")
    return "(1)/(%s)" % " + ".join(terms)


def _factors_report(P: TameParams) -> ConjectureReport:
    rep = ConjectureReport(P)
    L = {m: adjoint_L(P, m) for m in ("closed", "decomposition", "matrix")}
    rep.checks.append(CheckResult(
        "adjoint_L",
        {m: _l_text(v) for m, v in L.items()},
        "OK" if L["closed"] == L["decomposition"] == L["matrix"] else "FAIL",
    ))
    c1 = adjoint_conductor(P, "filtration")
    c2 = adjoint_conductor(P, "additivity")
    rep.checks.append(CheckResult(
        "adjoint_conductor",
        {"filtration": number_text(c1), "additivity": number_text(c2)},
        "OK" if c1 == c2 == P.r * P.n * (P.n - 1) else "FAIL",
    ))
    # the matrix L with the filtration conductor against the closed L with
    # the additivity conductor
    g0 = adjoint_gamma0_abs(P)
    rep.checks.append(CheckResult(
        "gamma0_abs", {"value": number_text(g0)},
        "OK" if g0 == gamma_at_zero_abs(P.q, c2, L["closed"]) else "FAIL",
    ))
    rep.checks.append(CheckResult(
        "centralizer_order", {"value": number_text(centralizer_order(P))}, "OK"))
    rep.checks.append(verify_dim_delta(P))
    return rep


def _selftest_reports() -> Iterator[ConjectureReport]:
    from .characters import (
        CharacterSystem,
        conductor_bruteforce,
        gauss_sum,
        gauss_sum_literal,
        regularity_check,
    )
    from .exactnum import Cyclotomic, quadratic_gauss_phase, quadratic_gauss_sum_field
    from .llc_parameters import ad_character_identity, phi1_trace
    from .local_factors import (
        lambda_tame,
        principal_descriptor,
        principal_triple,
        sym_pairing_check,
        wd_factors,
    )
    from .ring_model import build_model, centralizer_bruteforce, find_beta, symplectic_check
    from .tame_galois import GAL_ID, gal_elements

    yield from sweep_report([3, 5], 4, [2, 3])

    def checks(rows):
        return [CheckResult(name, {}, "OK" if passed else "FAIL")
                for name, passed in rows]

    def at(turn):  # the root of unity a fraction of a turn names
        return Cyclotomic.root_of_unity(turn.denominator, turn.numerator)

    # quadratic Gauss sum law on small fields, and its closed phase
    ok = True
    vals = {}
    for (p, d) in [(3, 1), (5, 1), (7, 1), (3, 2)]:
        g = quadratic_gauss_sum_field(p, d)
        vals[f"q={p ** d}"] = (g ** 2).to_text()
        ok = ok and g ** 2 == (-1) ** (p ** d // 2) and g == at(quadratic_gauss_phase(p, d))
    # the paper's checks that neither identity runs, each on one small case,
    # as (check name, passed)
    P = params_from_q(3, 2, 1, 0, 2)
    M = build_model(P)
    beta = find_beta(M)
    one, zero, i = Cyclotomic.one(), Cyclotomic.zero(), Cyclotomic.root_of_unity(4)
    sl2 = [[[one, zero], [zero, one]], [[zero, one], [-one, zero]],
           [[i, zero], [zero, i.conj()]], [[one, one], [zero, one]]]
    steinberg = principal_triple(4, 3)
    yield ConjectureReport(P, [
        CheckResult("quadratic_gauss_square", vals, "OK" if ok else "FAIL"),
        *checks([
            ("lambda_closed_vs_bruteforce", all(
                at(lambda_tame(p, 1, 2, u0, "closed")) == lambda_tame(p, 1, 2, u0, "bruteforce")
                for p in (3, 5) for u0 in (0, 1))),
            ("symplectic_check", symplectic_check(M, beta)[0]),
            ("centralizer_bruteforce", centralizer_bruteforce(M, beta, 1)),
            ("sym_pairing_check", sym_pairing_check(3, sl2)),
            # the Steinberg side's eps is q^{a/2}: its root number is 1
            ("wd_factors", wd_factors(principal_descriptor(4), 3)
             == (steinberg.a, steinberg.l_inv, Cyclotomic.one())),
        ]),
    ])
    cs = CharacterSystem(build_model(params_from_q(3, 2, 1, 0, 4)))
    twists = [cs.theta_tilde_twist(g) for g in gal_elements(cs.P) if g != GAL_ID]
    conductors = [conductor_bruteforce(cs, tw) for tw in twists]
    units = [cs.M.one(), cs.M.add(cs.M.one(), cs.M.pi()), cs.M.from_gr(cs.M.tau)]
    yield ConjectureReport(cs.P, checks([
        ("gauss_sum_literal", all(
            gauss_sum_literal(cs, tw, k) == at(gauss_sum(cs, tw, k))
            for tw, k in zip(twists, conductors))),
        ("ad_character_identity", all(
            lhs == rhs for lhs, rhs in (ad_character_identity(cs, x) for x in units))),
        ("phi1_trace_off_identity", all(
            phi1_trace(cs, g, x) == zero
            for g in gal_elements(cs.P) if g != GAL_ID for x in units)),
        ("regularity_check", regularity_check(cs, cs.theta_tilde)),
    ]))


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        ns = _parser().parse_args(sys.argv[1:] if argv is None else list(argv))
    except SystemExit as ex:
        return ex.code if isinstance(ex.code, int) else EXIT_USAGE
    # lazy: each report is built when the loop below asks for it, and timed
    if ns.command == "selftest":
        built = _selftest_reports()
    elif ns.command == "sweep":
        try:
            q_values, r_values = _parse_int_list(ns.q), _parse_int_list(ns.r)
        except ValueError as ex:
            print(f"invalid box: {ex}", file=sys.stderr)
            return EXIT_USAGE
        built = sweep_report(q_values, ns.max_n, r_values,
                             include_root_number=ns.root_number)
    else:
        try:
            P = params_from_q(ns.q, ns.e, ns.f, ns.m, ns.r)
        except InvalidParams as ex:
            print(f"invalid parameters: {ex}", file=sys.stderr)
            return EXIT_USAGE
        if ns.command == "factors":
            built = map(_factors_report, [P])
        else:
            verify = (verify_formal_degree if ns.which == "formal-degree"
                      else verify_root_number)
            built = (ConjectureReport(P, [verify(P)]) for P in [P])
    reports, laps = [], [time.monotonic()]
    try:
        for rep in built:
            reports.append(rep)
            laps.append(time.monotonic())
    except TooLarge as ex:
        print(f"too large: {ex}", file=sys.stderr)
        return EXIT_INTERNAL
    except (ArithmeticError, AssertionError, RuntimeError) as ex:
        print(f"internal error: {type(ex).__name__}: {ex}", file=sys.stderr)
        return EXIT_INTERNAL
    if not reports:
        print("no valid tuple in the box", file=sys.stderr)
        return EXIT_USAGE
    timing_ms = [int((end - start) * 1000) if ns.timing else 0
                 for start, end in zip(laps, laps[1:])]
    if not _emit(reports, ns, timing_ms):
        return EXIT_USAGE
    if not all(r.ok for r in reports):
        return EXIT_CHECK_FAILED
    # a SKIP of `verify`, or of a check too large to decide, is a refusal
    refusal = "SKIP" if ns.command == "verify" else REFUSED
    refused = any(c.status.startswith(refusal) for r in reports for c in r.checks)
    return EXIT_INTERNAL if refused else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
