"""The CLI output of every benchmark request, byte for byte.

perfbench/reference.json records, for each request of the benchmark
workloads, the exit code and the sha256 of stdout of
`verify <identity> --q Q --e E --f F --m M --r R --format json`.  Each
request that exits 0 there must print the same bytes here.  The file is
only read; nothing of perfbench/ is imported.
"""

import contextlib
import hashlib
import io
import json
import pathlib

from tame_llc import cli

REFERENCE = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"


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
