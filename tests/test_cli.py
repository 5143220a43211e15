"""The command-line entry point: argument handling, output formats and
exit codes."""

import contextlib
import csv
import io
import itertools
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tame_llc import characters, cli, conjectures, llc_parameters, local_factors


def run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_verify_formal_degree_ok(capsys):
    code, out, _ = run(["verify", "formal-degree", "--q", "3", "--e", "2",
                        "--f", "1", "--m", "0", "--r", "4"], capsys)
    assert code == cli.EXIT_OK
    assert "formal_degree: OK" in out


def test_verify_formal_degree_json_is_stable(capsys):
    argv = ["verify", "formal-degree", "--q", "3", "--e", "2", "--f", "1",
            "--r", "4", "--format", "json"]
    code, out1, _ = run(argv, capsys)
    _, out2, _ = run(argv, capsys)
    assert code == cli.EXIT_OK
    assert out1 == out2  # byte-identical without --timing
    payload = json.loads(out1)
    assert payload["params"] == {"p": 3, "a": 1, "q": 3, "e": 2, "f": 1,
                                 "m": 0, "r": 4, "n": 2}
    assert payload["timing_ms"] == 0
    assert payload["checks"][0]["status"] == "OK"


def test_shared_parser_carries_nothing_between_requests(capsys):
    first = ["verify", "formal-degree", "--q", "3", "--e", "2", "--f", "1",
             "--r", "4", "--format", "json"]
    runs = [run(argv, capsys) for argv in (
        first,
        first[:-1] + ["xml"],
        ["--help"],
        ["sweep", "--q", "3", "--r", "5..2"],
        first,
    )]
    assert [code for code, _, _ in runs] == [
        cli.EXIT_OK, cli.EXIT_USAGE, cli.EXIT_OK, cli.EXIT_USAGE, cli.EXIT_OK]
    assert runs[0][1] == runs[-1][1]
    assert cli._parser() is cli._parser()
    fresh = cli._parser.__wrapped__()
    assert cli._parser().format_help() == fresh.format_help()
    assert cli._parser().format_usage() == fresh.format_usage()


def test_invalid_parameters_exit_usage(capsys):
    code, _, err = run(["verify", "formal-degree", "--q", "3", "--e", "3",
                        "--f", "1", "--r", "2"], capsys)
    assert code == cli.EXIT_USAGE
    assert "invalid parameters" in err


def test_unsupported_root_number_reports_skip(capsys):
    code, out, _ = run(["verify", "root-number", "--q", "3", "--e", "2",
                        "--f", "1", "--r", "2"], capsys)
    assert code == cli.EXIT_INTERNAL
    assert "SKIP" in out


def test_skip_with_an_out_that_cannot_be_written_exits_usage(tmp_path, capsys):
    target = tmp_path / "missing" / "report.txt"
    code, out, err = run(["verify", "root-number", "--q", "3", "--e", "2",
                          "--f", "1", "--r", "2", "--out", str(target)], capsys)
    assert code == cli.EXIT_USAGE
    assert out == ""
    assert err == f"cannot write {target}: No such file or directory\n"


def test_timing_fills_timing_ms_and_changes_no_other_byte(monkeypatch, capsys):
    # every reading of the clock is 0.25 s after the one before
    clock = itertools.count(100.0, 0.25)
    monkeypatch.setattr(cli.time, "monotonic", lambda: next(clock))
    argv = ["sweep", "--q", "3", "--max-n", "2", "--r", "3..4", "--root-number"]
    code, out, _ = run(argv + ["--format", "json", "--timing"], capsys)
    assert code == cli.EXIT_OK
    assert [rep["timing_ms"] for rep in json.loads(out)] == [250] * 6
    for fmt in ("text", "csv"):
        plain = run(argv + ["--format", fmt], capsys)
        timed = run(argv + ["--format", fmt, "--timing"], capsys)
        assert timed == plain, fmt


def test_timing_ms_is_each_reports_own_time(monkeypatch, capsys):
    # the k-th step between readings of the clock is k / 4 s, so the six
    # reports of the sweep took 250, 500, ..., 1500 ms each
    clock = itertools.accumulate(itertools.count(0.25, 0.25), initial=100.0)
    monkeypatch.setattr(cli.time, "monotonic", lambda: next(clock))
    argv = ["sweep", "--q", "3", "--max-n", "2", "--r", "3..4", "--root-number",
            "--format", "json", "--timing"]
    code, out, _ = run(argv, capsys)
    assert code == cli.EXIT_OK
    assert [rep["timing_ms"] for rep in json.loads(out)] == [250 * k for k in range(1, 7)]


def test_root_number_ok_on_reference_tuple(capsys):
    code, out, _ = run(["verify", "root-number", "--q", "3", "--e", "1",
                        "--f", "2", "--r", "3"], capsys)
    assert code == cli.EXIT_OK
    assert "root_number: OK" in out


def test_factors_report(capsys):
    code, out, _ = run(["factors", "--q", "3", "--e", "2", "--f", "1",
                        "--r", "3"], capsys)
    assert code == cli.EXIT_OK
    for name in ("adjoint_L", "adjoint_conductor", "gamma0_abs",
                 "centralizer_order", "dim_delta"):
        assert name in out


@pytest.mark.parametrize("tup,expected", [
    (("3", "2", "1"), "1"),
    (("3", "1", "2"), "(1)/(1 + u)"),
    (("5", "1", "4"), "(1)/(1 + u + u^2 + u^3)"),
], ids=["f1", "f2", "f4"])
def test_factors_report_prints_the_adjoint_L(tup, expected, capsys):
    q, e, f = tup
    code, out, _ = run(["factors", "--q", q, "--e", e, "--f", f, "--r", "3",
                        "--format", "json"], capsys)
    assert code == cli.EXIT_OK
    check = json.loads(out)["checks"][0]
    assert check["name"] == "adjoint_L"
    assert check["status"] == "OK"
    assert check["method_values"] == {
        "closed": expected, "decomposition": expected, "matrix": expected}


def test_sweep_csv_output(capsys):
    code, out, _ = run(["sweep", "--q", "3", "--max-n", "2", "--r", "2..3",
                        "--format", "csv"], capsys)
    assert code == cli.EXIT_OK
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["p", "a", "q", "e", "f", "m", "r", "n",
                       "check", "method", "value", "status"]
    assert all(row[11] == "OK" for row in rows[1:])


def test_sweep_writes_to_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(["sweep", "--q", "3", "--max-n", "2", "--r", "2",
                        "--format", "json", "--out", str(target)], capsys)
    assert code == cli.EXIT_OK
    assert out == ""
    payload = json.loads(target.read_text())
    assert isinstance(payload, list) and payload


@pytest.mark.parametrize("repeated,once,reports", [
    (["--q", "3,3", "--r", "3"], ["--q", "3", "--r", "3"], 3),
    (["--q", "3", "--r", "2..4,3"], ["--q", "3", "--r", "2..4"], 9),
])
def test_sweep_checks_a_repeated_value_once(repeated, once, reports, capsys):
    argv = ["sweep", "--max-n", "2", "--format", "json"]
    code, out, _ = run(argv + repeated, capsys)
    assert code == cli.EXIT_OK
    assert out == run(argv + once, capsys)[1]
    assert len(json.loads(out)) == reports


def test_parse_int_list_forms():
    assert cli._parse_int_list("3,5") == [3, 5]
    assert cli._parse_int_list("2..4") == [2, 3, 4]
    assert cli._parse_int_list("2..3,7") == [2, 3, 7]


def test_missing_subcommand_is_a_usage_error(capsys):
    code = cli.main([])
    capsys.readouterr()
    assert code == cli.EXIT_USAGE


def test_parse_int_list_rejects_malformed_parts():
    for text in ("3,x", "", "3,,5", "1..2..3", "5..2"):
        with pytest.raises(ValueError):
            cli._parse_int_list(text)


@pytest.mark.parametrize("q", ["0", "1", "-3", "6", "12"])
def test_q_that_is_not_a_prime_power_exits_usage(q, capsys):
    code, _, err = run(["verify", "formal-degree", "--q", q, "--e", "1",
                        "--f", "2", "--r", "2"], capsys)
    assert code == cli.EXIT_USAGE
    assert "not a prime power" in err


@pytest.mark.parametrize("q,reason", [
    # 2^61 - 1 is prime, and above 10^12 trial division up to 10^6 does not
    # decide it
    (2 ** 61 - 1, "> 10^12 has no prime factor up to 10^6"),
    # q's least prime factor 3 is divided out; the cofactor is never factored
    (3 * (2 ** 61 - 1), "is not a prime power"),
])
def test_large_q_is_refused_quickly(q, reason):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run(
        [sys.executable, "-m", "tame_llc.cli", "verify", "formal-degree",
         "--q", str(q), "--e", "1", "--f", "2", "--r", "2"],
        env=env, capture_output=True, text=True, timeout=10)
    assert out.returncode == cli.EXIT_USAGE
    assert out.stdout == ""
    assert len(out.stderr.splitlines()) == 1 and reason in out.stderr


@pytest.mark.parametrize("q,code,lines", [
    # refused at the first trial division, not once per tuple
    (2 ** 61 - 1, cli.EXIT_USAGE, 0),
    # a prime: 168 of the box's 385 (n, e, m, r) are valid tuples
    (999999999989, cli.EXIT_OK, 505),
])
def test_large_q_sweep_factors_q_once(q, code, lines):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run(
        [sys.executable, "-m", "tame_llc.cli", "sweep", "--q", str(q),
         "--max-n", "8", "--r", "2..8"],
        env=env, capture_output=True, text=True, timeout=10)
    assert out.returncode == code
    assert len(out.stdout.splitlines()) == lines


@pytest.mark.parametrize("argv,reason", [
    (["--q", "3,x", "--r", "2"], "'x' is neither an integer nor lo..hi"),
    (["--q", "3", "--r", "5..2"], "'5..2' is an empty range"),
    (["--q", "3", "--max-n", "1", "--r", "2"], "no valid tuple in the box"),
    (["--q", "1", "--r", "2"], "no valid tuple in the box"),
])
def test_bad_or_empty_sweep_box_exits_usage(argv, reason, capsys):
    code, out, err = run(["sweep"] + argv, capsys)
    assert code == cli.EXIT_USAGE
    assert out == ""
    assert len(err.splitlines()) == 1 and reason in err


@pytest.mark.parametrize("tup", [(9, 1, 2, 0, 3), (9, 2, 1, 1, 4)])
def test_root_number_ok_for_q9(tup, capsys):
    q, e, f, m, r = (str(x) for x in tup)
    code, out, _ = run(["verify", "root-number", "--q", q, "--e", e, "--f", f,
                        "--m", m, "--r", r, "--format", "json"], capsys)
    assert code == cli.EXIT_OK
    check = json.loads(out)["checks"][0]
    vals = check["method_values"]
    assert check["status"] == "OK"
    assert vals["closed"] == vals["assembled"] == vals["theta_at_eps"]


@pytest.mark.parametrize("argv", [
    ["verify", "formal-degree", "--q", "13", "--e", "1", "--f", "8", "--r", "160"],
    ["factors", "--q", "13", "--e", "1", "--f", "8", "--r", "160"],
])
def test_report_number_past_the_digit_limit_exits_3(argv, capsys):
    code, out, err = run(argv, capsys)
    assert code == cli.EXIT_INTERNAL
    assert out == ""
    assert len(err.splitlines()) == 1 and "digits" in err


@pytest.mark.parametrize("q,f,steps", [(7, 16, 5764801), (3, 32, 43046721)])
def test_residue_field_past_the_baby_step_bound_exits_3(q, f, steps):
    # refused before any ring is built: without the bound the baby-step
    # table alone exhausts time or memory
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run(
        [sys.executable, "-m", "tame_llc.cli", "verify", "root-number",
         "--q", str(q), "--e", "1", "--f", str(f), "--r", "3"],
        env=env, capture_output=True, text=True, timeout=20)
    assert out.returncode == cli.EXIT_INTERNAL
    assert out.stdout == ""
    assert out.stderr == (f"too large: residue_log needs {steps} baby steps, "
                          "more than 524288\n")


@pytest.mark.parametrize("q,max_n,r,extra,refused,reason", [
    # residue_log's baby-step bound: the root number of (2187,1,4,0,3) alone
    ("2187", 4, "3", ["--root-number"], {(2187, 1, 4, 0, 3): ["root_number"]},
     "residue_log needs 4782969 baby steps, more than 524288"),
    # Python's int-to-str digit limit: both numbered checks of each n = 8 tuple
    ("13", 8, "160", [], {(13, 1, 8, 0, 160): ["formal_degree", "dim_delta"],
                          (13, 2, 4, 0, 160): ["formal_degree", "dim_delta"],
                          (13, 2, 4, 1, 160): ["formal_degree", "dim_delta"],
                          (13, 4, 2, 0, 160): ["formal_degree", "dim_delta"],
                          (13, 4, 2, 1, 160): ["formal_degree", "dim_delta"],
                          (13, 4, 2, 2, 160): ["formal_degree", "dim_delta"],
                          (13, 4, 2, 3, 160): ["formal_degree", "dim_delta"]},
     "a report number exceeds Python's limit on the digits of an int-to-str conversion"),
])
def test_sweep_answers_tuple_by_tuple_when_a_check_is_refused(q, max_n, r, extra, refused,
                                                              reason, capsys):
    # the refused checks are SKIPs with their reason, the other tuples'
    # reports are those of the box without n = max_n, and the sweep exits 3
    argv = ["sweep", "--q", q, "--r", r, "--format", "json"] + extra
    code, out, err = run(argv + ["--max-n", str(max_n)], capsys)
    assert (code, err) == (cli.EXIT_INTERNAL, "")
    reports = json.loads(out)
    skipped = {}
    for rep in reports:
        P = rep["params"]
        for c in rep["checks"]:
            if c["status"].startswith("SKIP: too large"):
                assert (c["status"], c["method_values"]) == (f"SKIP: too large: {reason}", {})
                skipped.setdefault((P["q"], P["e"], P["f"], P["m"], P["r"]), []).append(c["name"])
    assert skipped == refused
    code, out, _ = run(argv + ["--max-n", str(max_n - 1)], capsys)
    assert code == cli.EXIT_OK
    assert [rep for rep in reports if rep["params"]["n"] < max_n] == json.loads(out)


def test_non_square_gamma_exits_3(monkeypatch, capsys):
    # |gamma(0)|^2 that is not a rational square must be a VerificationError
    fraction_sqrt = local_factors._fraction_sqrt
    monkeypatch.setattr(local_factors, "_fraction_sqrt",
                        lambda x: fraction_sqrt(2 * x))
    code, out, err = run(["verify", "formal-degree", "--q", "3", "--e", "2",
                          "--f", "1", "--r", "4"], capsys)
    assert code == cli.EXIT_INTERNAL
    assert out == ""
    assert len(err.splitlines()) == 1
    assert "VerificationError: not a rational square" in err


def test_element_outside_the_norm_one_subgroup_exits_3(monkeypatch, capsys):
    # a wrong U-bar shows as NotInSubgroup, a VerificationError
    def refused(self, w):
        raise characters.NotInSubgroup("element is not norm-one")

    monkeypatch.setattr(characters.CharacterSystem, "ubar_coords", refused)
    code, out, err = run(["verify", "root-number", "--q", "3", "--e", "2",
                          "--f", "1", "--r", "4"], capsys)
    assert code == cli.EXIT_INTERNAL
    assert out == ""
    assert err == "internal error: NotInSubgroup: element is not norm-one\n"


def test_failed_character_extension_exits_3(monkeypatch, capsys):
    # H is a 5-group at (5,2,1,0,4), so a third of a turn on each of its
    # generators is no character of H, and theta cannot extend it
    monkeypatch.setattr(characters, "chi_beta_fraction",
                        lambda M, beta, x: Fraction(1, 3))
    code, out, err = run(["verify", "root-number", "--q", "5", "--e", "2",
                          "--f", "1", "--r", "4"], capsys)
    assert code == cli.EXIT_INTERNAL
    assert out == ""
    assert err == ("internal error: VerificationError: prescribed values are "
                   "not a character of the subgroup\n")


def test_any_other_exception_is_an_internal_error(monkeypatch, capsys):
    # an exception outside the error model, here pow's ValueError, is
    # answered like a failed claim: exit 3 and one line, never a traceback
    def fault(self, w):
        raise ValueError("base is not invertible for the given modulus")

    monkeypatch.setattr(characters.CharacterSystem, "ubar_coords", fault)
    code, out, err = run(["verify", "root-number", "--q", "3", "--e", "2",
                          "--f", "1", "--r", "4"], capsys)
    assert code == cli.EXIT_INTERNAL
    assert out == ""
    assert err == ("internal error: ValueError: base is not invertible for "
                   "the given modulus\n")


def test_a_conductor_past_the_precision_is_a_failed_claim(monkeypatch, capsys):
    # a twist conductor is at most e(r - 1) + 1; one of e r asks psi_K for
    # p-level r + 1 at e = 2, a failed claim that stops the sweep, never a
    # refusal that would skip the tuple
    monkeypatch.setattr(characters, "conductor_bruteforce",
                        lambda sys, chi: sys.P.e * sys.P.r)
    code, out, err = run(["sweep", "--q", "3,5", "--max-n", "2", "--r", "4..5",
                          "--root-number", "--format", "json"], capsys)
    assert (code, out) == (cli.EXIT_INTERNAL, "")
    assert err == "internal error: VerificationError: need p-level 5 > r = 4\n"


def test_factors_dim_delta_needs_an_integer(monkeypatch, capsys):
    dim_delta = conjectures.dim_delta
    monkeypatch.setattr(conjectures, "dim_delta",
                        lambda P, method="closed": dim_delta(P, method) + Fraction(1, 2))
    code, out, _ = run(["factors", "--q", "3", "--e", "2", "--f", "1",
                        "--r", "3", "--format", "json"], capsys)
    assert code == cli.EXIT_CHECK_FAILED
    check = {c["name"]: c for c in json.loads(out)["checks"]}["dim_delta"]
    assert check["method_values"] == {"closed": "25/2", "index": "25/2"}
    assert check["status"] == "FAIL"


def test_factors_gamma0_abs_is_checked(monkeypatch, capsys):
    # |gamma(0, Ad phi)| from the matrix L and the filtration conductor
    # must equal the one from the closed L and the additivity conductor
    monkeypatch.setattr(cli, "adjoint_gamma0_abs", lambda P: 12345)
    code, out, _ = run(["factors", "--q", "3", "--e", "2", "--f", "1",
                        "--r", "3"], capsys)
    assert code == cli.EXIT_CHECK_FAILED
    assert "  gamma0_abs: FAIL  [value=12345]\n" in out


def test_failing_root_number_names_the_order_of_z(monkeypatch, capsys):
    # the first twist piece's root number a quarter turn off: the assembled
    # side is -i, and its text names z; the +-1 sides print as before
    induced_factor = llc_parameters.induced_factor
    turned = []

    def mutated(sys, gamma, lam):
        w, a = induced_factor(sys, gamma, lam)
        if not turned:
            turned.append(gamma)
            w = (w + Fraction(1, 4)) % 1
        return w, a

    monkeypatch.setattr(llc_parameters, "induced_factor", mutated)
    code, out, _ = run(["verify", "root-number", "--q", "3", "--e", "1", "--f", "2",
                        "--r", "3"], capsys)
    assert code == cli.EXIT_CHECK_FAILED
    assert ("  root_number: FAIL  [assembled=-1*z^1 (z = zeta_4), closed=-1*z^0, "
            "theta_at_eps=-1*z^0]\n") in out


@pytest.mark.parametrize("where,reason", [
    ("missing/report.txt", "No such file or directory"),
    (".", "Is a directory"),
])
def test_out_that_cannot_be_written_exits_usage(where, reason, tmp_path, capsys):
    target = tmp_path / where
    code, out, err = run(["selftest", "--out", str(target)], capsys)
    assert code == cli.EXIT_USAGE
    assert out == ""
    assert err == f"cannot write {target}: {reason}\n"


SELFTEST_ROWS = ["lambda_closed_vs_bruteforce", "symplectic_check",
                 "centralizer_bruteforce", "sym_pairing_check", "wd_factors",
                 "gauss_sum_literal", "ad_character_identity",
                 "phi1_trace_off_identity", "regularity_check"]


def test_selftest_runs_every_row(capsys):
    code, out, _ = run(["selftest", "--format", "json"], capsys)
    assert code == cli.EXIT_OK
    status = {c["name"]: c["status"] for rep in json.loads(out)
              for c in rep["checks"]}
    assert all(status[name] == "OK" for name in SELFTEST_ROWS), status
    assert set(status.values()) == {"OK"}


# the one stderr line of a request that prints no report: a usage error or a
# stated refusal; "internal error: ..." is a fault and fails the contract
ANSWERS_WITHOUT_A_REPORT = ("invalid parameters: ", "invalid box: ", "too large: ",
                            "no valid tuple in the box")


def answers_0_2_or_3(argv):
    """Run argv with JSON output and check the exit-code contract: 0, 2 or
    3, never 1 or a traceback.  An empty stdout comes with one line on
    stderr and a nonzero code, and that line is a usage error or a stated
    refusal, never an internal error; a report comes with no stderr and no
    FAIL, and exits 3 exactly when a check is refused (any SKIP of `verify`)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv + ["--format", "json"])
    assert code in (cli.EXIT_OK, cli.EXIT_USAGE, cli.EXIT_INTERNAL), (argv, err.getvalue())
    if not out.getvalue():
        assert code != cli.EXIT_OK
        assert len(err.getvalue().splitlines()) == 1 and err.getvalue().endswith("\n")
        assert err.getvalue().startswith(ANSWERS_WITHOUT_A_REPORT), (argv, err.getvalue())
        return code
    assert err.getvalue() == ""
    reports = json.loads(out.getvalue())
    statuses = [c["status"] for rep in (reports if argv[0] == "sweep" else [reports])
                for c in rep["checks"]]
    assert "FAIL" not in statuses, argv
    refusal = "SKIP" if argv[0] == "verify" else conjectures.REFUSED
    refused = any(s.startswith(refusal) for s in statuses)
    assert code == (cli.EXIT_INTERNAL if refused else cli.EXIT_OK), (argv, statuses)
    return code


def tuple_args(q, e, f, m, r):
    return ["--q", str(q), "--e", str(e), "--f", str(f), "--m", str(m), "--r", str(r)]


@settings(max_examples=200, deadline=5000)
@given(st.integers(-3, 130) | st.sampled_from([243, 343, 625]),
       st.integers(-1, 9), st.integers(-1, 9), st.integers(-1, 9), st.integers(-1, 12))
def test_generated_formal_degree_argv_answers_0_2_or_3(q, e, f, m, r):
    # every input gets a result, a usage error or a refusal: no traceback,
    # no FAIL, and one line on stderr whenever stdout is empty
    answers_0_2_or_3(["verify", "formal-degree"] + tuple_args(q, e, f, m, r))


# the generated root-number, factors and sweep requests: q up to 31 with
# non-prime-powers among them, e, f, m in -1..4 and r in -1..8; the slowest
# supported tuple of that box, (27,2,4,1,8), takes about 2.4 s
# Each is drawn half the time from its valid values, so that about a
# third of the generated tuples are valid
SMALL_Q = st.sampled_from([3, 5, 7, 9, 11, 13, 25, 27, 31]) | st.integers(-3, 31)
SMALL = st.integers(1, 4) | st.integers(-1, 4)
SMALL_M = st.just(0) | st.integers(-1, 4)
SMALL_R = st.integers(3, 8) | st.integers(-1, 8)


@settings(max_examples=200, deadline=5000)
@given(st.sampled_from([["verify", "root-number"], ["factors"]]),
       SMALL_Q, SMALL, SMALL, SMALL_M, SMALL_R)
def test_generated_root_number_and_factors_argv_answer_0_2_or_3(command, q, e, f, m, r):
    answers_0_2_or_3(command + tuple_args(q, e, f, m, r))


@settings(max_examples=60, deadline=5000)
@given(SMALL_Q, SMALL, SMALL_R, st.booleans())
def test_generated_sweep_argv_answers_0_2_or_3(q, max_n, r, root_number):
    answers_0_2_or_3(["sweep", "--q", str(q), "--max-n", str(max_n), "--r", str(r)]
                     + ["--root-number"] * root_number)
