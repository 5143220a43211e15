"""The CLI output of every benchmark request, byte for byte.

perfbench/reference.json records, for each request of the benchmark
workloads, the exit code and the sha256 of stdout of
`verify <identity> --q Q --e E --f F --m M --r R --format json`.  Each
request that exits 0 there must print the same bytes here.  The file is
only read; nothing of perfbench/ is imported.  PINNED holds the same
digest for commands outside the benchmark.
"""

import contextlib
import hashlib
import io
import json
import pathlib

import pytest

from tame_llc import cli

REFERENCE = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"

# the selftest report (28,356 bytes), and two `factors` reports whose
# adjoint L-factors the decomposition route multiplies out of cube and of
# fourth roots of unity
PINNED = {
    "selftest --format json":
        "90af7b013cbb548fa3c3e3b5165aa050f0b31dbf773adaff95cb26ede59b605b",
    "factors --q 7 --e 2 --f 3 --r 4":
        "c576f07cce19e1686606540907a26f0b4d13efe509f76e065b702561471fc0c4",
    "factors --q 5 --e 1 --f 4 --r 3":
        "b580e40ad0c9f29055e811e915ad5387d9d09db177336d9560aa5aecdf2c3e1d",
}


@pytest.mark.parametrize("command", sorted(PINNED))
def test_pinned_command_prints_its_reference_bytes(command):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(command.split())
    assert rc == cli.EXIT_OK
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == PINNED[command]


def test_every_exit_zero_request_prints_its_reference_bytes():
    requests = [r for reqs in json.loads(REFERENCE.read_text()).values()
                for r in reqs if r["exit"] == cli.EXIT_OK]
    assert len(requests) == 1096
    wrong = []
    for r in requests:
        q, e, f, m, rr = r["tuple"]
        argv = ["verify", r["identity"], "--q", str(q), "--e", str(e), "--f", str(f),
                "--m", str(m), "--r", str(rr), "--format", "json"]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = cli.main(argv)
        if rc != cli.EXIT_OK or hashlib.sha256(out.getvalue().encode()).hexdigest() != r["sha256"]:
            wrong.append(" ".join(argv))
    assert not wrong, f"{len(wrong)} requests differ:\n  " + "\n  ".join(wrong[:10])
