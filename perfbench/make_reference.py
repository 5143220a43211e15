"""Write reference.json: every request with its exit code and stdout digest.

    PYTHONPATH=src python3 perfbench/make_reference.py

Run it only to define the benchmark anew; the gate in worker.py compares
every later run against this file.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import worker  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    import tame_llc.cli as cli
    from tame_llc import conjectures, tame_galois

    sets = {}
    for name, reqs in workloads.generate(conjectures, tame_galois).items():
        sets[name] = []
        for identity, tup in reqs:
            request = {"identity": identity, "tuple": tup}
            rc, stdout, _, _ = worker.call(cli, request)
            sets[name].append(dict(request, exit=rc,
                                   sha256=hashlib.sha256(stdout.encode()).hexdigest()))
        print(f"{name}: {len(reqs)} requests", file=sys.stderr)
    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        json.dump(sets, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
