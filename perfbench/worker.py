"""One workload in one fresh interpreter: a closed loop over `cli.main`.

One client sends one request at a time and waits for it to finish.  Each
request is `tame_llc.cli.main(argv)` in this process, with stdout and stderr
captured, timed from the call to its return.  Every result passes the
correctness gate against `reference.json`.  The last line of stdout is a
JSON object that `run.py` reads.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1

needs `src` on PYTHONPATH; `run.py` sets it.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import resource
import sys
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from speed import SpeedSampler  # noqa: E402
from tracer import Tracer  # noqa: E402

EXIT_OK, EXIT_FAIL = 0, 1


class GateAbort(Exception):
    """A request exited 1 (FAIL): an identity did not hold."""


def load_reference(path: str = os.path.join(HERE, "reference.json")) -> dict:
    with open(path) as fh:
        return json.load(fh)


def requests_of(reference: dict, workload: str) -> List[dict]:
    return [dict(r, tuple=tuple(r["tuple"])) for r in reference[workload]]


def call(cli, request: dict):
    """Run one request; returns (exit code, stdout, stderr, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    argv = workloads.argv((request["identity"], request["tuple"]))
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as ex:
            rc = ex.code if isinstance(ex.code, int) else EXIT_FAIL
        except Exception as ex:  # an uncaught exception is exit 1 in the CLI
            print(f"{type(ex).__name__}: {ex}", file=err)
            rc = EXIT_FAIL
        seconds = time.perf_counter() - start
    return rc, out.getvalue(), err.getvalue(), seconds


def all_ok(stdout: str) -> bool:
    try:
        report = json.loads(stdout)
    except ValueError:
        return False
    reports = report if isinstance(report, list) else [report]
    return all(c["status"] == "OK" for r in reports for c in r["checks"])


def gate(request: dict, rc: int, stdout: str) -> str:
    """Classify one result against the reference: "ok", "failed" or "wrong".

    Exit 1 (FAIL) raises GateAbort.  Any other non-zero exit is "failed".
    An exit 0 is "ok" when its stdout is byte-identical to the reference;
    for a request that exited 3 in the reference it is "ok" when every
    status in the report is OK, since both sides of each identity are
    computed independently.  Otherwise it is "wrong".
    """
    if rc == EXIT_FAIL:
        raise GateAbort(f"{' '.join(workloads.argv((request['identity'], request['tuple'])))}"
                        " exited 1")
    if rc != EXIT_OK:
        return "failed"
    if request["exit"] == EXIT_OK:
        same = hashlib.sha256(stdout.encode()).hexdigest() == request["sha256"]
        return "ok" if same else "wrong"
    return "ok" if all_ok(stdout) else "wrong"


def run_pass(cli, requests: List[dict], order: List[int], tracer=None,
             sampler: Optional[SpeedSampler] = None) -> dict:
    """One closed-loop pass.  With a sampler running, the sampler's own time
    is taken out of each request's time."""
    results = []
    start = time.perf_counter()
    for i in order:
        if tracer is not None:
            tracer.request = i
        spent = sampler.spent if sampler else 0.0
        begin = time.perf_counter()
        rc, stdout, _, seconds = call(cli, requests[i])
        end = time.perf_counter()
        if sampler:
            seconds -= sampler.spent - spent
        results.append({"index": i, "exit": rc, "seconds": seconds, "begin": begin,
                        "end": end, "outcome": gate(requests[i], rc, stdout)})
    return {"wall_s": time.perf_counter() - start, "results": results}


def paired_pass(cli, requests: List[dict], order: List[int], tracer: Tracer,
                sampler: Optional[SpeedSampler] = None):
    """Each request untraced, then at once again under `tracer`; (untraced
    pass, traced pass).  The two calls of a request run back to back, at
    nearly the same machine speed, and the untraced one fills every cache
    first, so the traced counts do not depend on the order."""
    plain, traced = [], []
    for i in order:
        plain += run_pass(cli, requests, [i], sampler=sampler)["results"]
        with tracer.installed():
            traced += run_pass(cli, requests, [i], tracer, sampler)["results"]
    return ({"wall_s": sum(r["seconds"] for r in plain), "results": plain},
            {"wall_s": sum(r["seconds"] for r in traced), "results": traced})


def sqrt_cache_size() -> int:
    from tame_llc import exactnum
    return len(exactnum._SQRT_CACHE)


def run(workload: str, seed: int, seconds: float, trace: bool,
        spans_path: Optional[str] = None) -> Dict:
    import tame_llc.cli as cli

    requests = requests_of(load_reference(), workload)
    rng = random.Random(seed)

    def shuffled() -> List[int]:
        order = list(range(len(requests)))
        rng.shuffle(order)
        return order

    # warm-up: the first request of the fixed list, unmeasured; it imports
    # the lazily imported modules
    call(cli, requests[0])
    out: Dict = {"requests": len(requests), "sqrt_cache_after_warmup": sqrt_cache_size()}
    passes = []
    with SpeedSampler() as sampler:
        if not trace:
            begin = time.perf_counter()
            while not passes or time.perf_counter() - begin < seconds:
                passes.append(run_pass(cli, requests, shuffled(), sampler=sampler))
        else:
            # the sampler's own time is taken out of every span too
            tracer = Tracer(clock=sampler.clock_ns)
            passes += paired_pass(cli, requests, shuffled(), tracer, sampler)
    for r in (r for p in passes for r in p["results"]):
        r["ref_seconds"] = sampler.reference(r["seconds"], r["begin"], r["end"])
    if trace:
        plain, traced = (sum(r["ref_seconds"] for r in p["results"]) for p in passes)
        out["trace_overhead"] = traced / plain
        out["layers"] = tracer.metrics()
        out["spans"] = len(tracer.spans)
        if spans_path:
            tracer.write_spans(spans_path)
    out["passes"] = passes
    out["sqrt_cache_after_run"] = sqrt_cache_size()
    out["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--spans", default=None)
    ns = ap.parse_args()
    try:
        out = run(ns.workload, ns.seed, ns.seconds, bool(ns.trace), ns.spans)
    except GateAbort as ex:
        print(f"correctness gate: {ex}", file=sys.stderr)
        return 1
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
