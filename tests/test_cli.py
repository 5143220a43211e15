"""The command-line entry point: argument handling, output formats and
exit codes."""

import csv
import importlib.util
import io
import json
import pathlib
from fractions import Fraction

import pytest

from tame_llc import cli, conjectures, local_factors


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


def test_root_number_survey_script_runs(capsys):
    path = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "root_number_survey.py"
    spec = importlib.util.spec_from_file_location("root_number_survey", path)
    survey = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(survey)
    code = survey.main(["--q", "3", "--max-n", "2", "--r", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "(q=3, e=1, f=2, m=0, r=3)" in out and "  OK  " in out
    assert out.rstrip().endswith("1 tuples, 0 failures")


@pytest.mark.parametrize("argv", [
    ["verify", "formal-degree", "--q", "13", "--e", "1", "--f", "8", "--r", "160"],
    ["factors", "--q", "13", "--e", "1", "--f", "8", "--r", "160"],
])
def test_report_number_past_the_digit_limit_exits_3(argv, capsys):
    code, out, err = run(argv, capsys)
    assert code == cli.EXIT_INTERNAL
    assert out == ""
    assert len(err.splitlines()) == 1 and "digits" in err


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
