"""Benchmark of the tame-llc checker.  Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Untraced (--trace 0): set-up time is the median of 15 fresh interpreters
importing `tame_llc.cli`; then one fresh worker process runs whole passes
over the workload's requests, each pass in a seeded order, until S seconds
have passed, and the end-to-end metrics are computed from its requests.
Traced (--trace 1): the worker runs each request untraced and then traced,
back to back, and reports the per-layer metrics of the traced calls.  The
last line of stdout is the JSON result; the lines above it are the same
numbers for a reader.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import speed  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 15
SETUP_SLICES = 25
DEADLINE_S = 170  # the whole run, set-up probes included

END_TO_END = {
    "setup_s": "s",
    "verified_per_s": "1/s",
    "request_p50_ms": "ms",
    "request_tail_ms": "ms",
    "ok_share": "ratio",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "cli.main.self_s": "s",
    "conjectures.verify_formal_degree.calls": "count",
    "conjectures.verify_formal_degree.self_s": "s",
    "conjectures.verify_root_number.calls": "count",
    "conjectures.verify_root_number.self_s": "s",
    "conjectures.formal_degree_EP.self_s": "s",
    "conjectures.dim_delta.self_s": "s",
    "tame_galois.params_from_q.self_s": "s",
    "tame_galois.norm_index.calls": "count",
    "tame_galois.norm_index.self_s": "s",
    "tame_galois.norm_index.distinct_ratio": "ratio",
    "tame_galois.order_two_set.self_s": "s",
    "tame_galois.abelianization_order.self_s": "s",
    "exactnum.Cyclotomic.init.calls": "count",
    "exactnum.Cyclotomic.mul.calls": "count",
    "exactnum.Cyclotomic.add.calls": "count",
    "local_factors.principal_triple.calls": "count",
    "local_factors.principal_triple.self_s": "s",
    "local_factors.induced_factor.calls": "count",
    "local_factors.induced_factor.self_s": "s",
    "local_factors.lambda_tame.self_s": "s",
    "llc_parameters.adjoint_root_number.closed.self_s": "s",
    "llc_parameters.adjoint_root_number.assembled.self_s": "s",
    "llc_parameters.centralizer_order.self_s": "s",
    "llc_parameters.adjoint_gamma0_abs.self_s": "s",
    "intlinalg.hnf_row.calls": "count",
    "intlinalg.hnf_row.self_s": "s",
    "intlinalg.hnf_row.max_bits": "bits",
    "intlinalg.smith_normal_form.calls": "count",
    "intlinalg.smith_normal_form.self_s": "s",
    "intlinalg.smith_normal_form.max_bits": "bits",
    "intlinalg.extend_character.self_s": "s",
    "intlinalg.solve_left.self_s": "s",
    "intlinalg.kernel_subgroup.self_s": "s",
    "ring_model.build_model.calls": "count",
    "ring_model.build_model.self_s": "s",
    "ring_model.UnitGroupPresentation.init.calls": "count",
    "ring_model.UnitGroupPresentation.init.self_s": "s",
    "ring_model.UnitGroupPresentation.init.distinct_ratio": "ratio",
    "ring_model.UnitGroupPresentation.enumerate.elements": "count",
    "ring_model.UnitGroupPresentation.enumerate.self_s": "s",
    "ring_model.UnitGroupPresentation.element_from_coords.calls": "count",
    "ring_model.UnitGroupPresentation.element_from_coords.self_s": "s",
    "ring_model.UnitGroupPresentation.dlog.calls": "count",
    "ring_model.UnitGroupPresentation.dlog.self_s": "s",
    "ring_model.kernel_of_norm.self_s": "s",
    "ring_model.find_beta.self_s": "s",
    "ring_model.Model.mul.calls": "count",
    "ring_model.Model.inv.calls": "count",
    "ring_model.Model.pow.calls": "count",
    "characters.CharacterSystem.init.self_s": "s",
    "characters.CharacterSystem.theta.self_s": "s",
    "characters.CharacterSystem.c_char.self_s": "s",
    "characters.CharacterSystem.theta_tilde.self_s": "s",
    "characters.gauss_sum.calls": "count",
    "characters.gauss_sum.self_s": "s",
    "characters.gauss_sum.errors": "count",
    "characters.gauss_sum.literal": "count",
    "characters.gauss_sum.stationary": "count",
    "characters.conductor_bruteforce.self_s": "s",
    "trace_overhead": "ratio",
}


class BenchError(Exception):
    pass


def worker_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    # bytecode caches on and inside the checkout, whatever the caller's
    # setting: set-up time is always a .pyc load, after the first probe
    for name in ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX"):
        env.pop(name, None)
    return env


def run_child(argv: List[str], deadline: float) -> Tuple[float, str]:
    """Run a fresh interpreter to completion; (start time, stdout)."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time")
    start = time.monotonic()
    try:
        proc = subprocess.run([sys.executable] + argv, env=worker_env(), cwd=ROOT,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as ex:
        raise BenchError(f"{argv[0]} did not finish in {timeout:.0f} s") from ex
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(argv[:2])} exited {proc.returncode}:\n{proc.stderr}")
    return start, proc.stdout


def measure_setup(deadline: float) -> List[Tuple[float, float]]:
    """(seconds, reference seconds) from spawning an interpreter until
    `tame_llc.cli` is imported, per probe.

    The machine's speed comes from calibration slices timed just before and
    just after each probe.  The first probe only fills the bytecode caches
    and is not counted.
    """
    code = "import time, tame_llc.cli; print(time.monotonic())"
    out = []
    for _ in range(SETUP_PROBES + 1):
        before = speed.time_slices(SETUP_SLICES)
        start, stdout = run_child(["-c", code], deadline)
        seconds = float(stdout.split()[-1]) - start
        local = statistics.median(before + speed.time_slices(SETUP_SLICES))
        out.append((seconds, seconds * speed.REFERENCE_SLICE_S / local))
    return out[1:]


def tail_cut(n: int) -> int:
    """Of n requests, the highest percentile with at least 10 requests
    beyond it is cut point tail_cut(n) of n."""
    return max(n - 10, 1)


def latency_metrics(results: List[dict], key: str) -> Dict[str, float]:
    """Throughput and latency over `results`, whole passes over the same
    requests, timed by `key`.  Each request has one latency, so the
    percentiles are over the request list, whatever the number of passes.
    They interpolate between the two requests around the percentile, as
    `statistics.quantiles` does."""
    busy = sum(r[key] for r in results)
    ok = sum(r["outcome"] == "ok" for r in results)
    times: Dict[int, List[float]] = {}
    for r in results:
        # a failed request misses any latency limit: it ranks above every
        # completed one, at the length of all the requests together
        times.setdefault(r["index"], []).append(r[key] if r["outcome"] == "ok" else busy)
    n = len(times)
    # A request's work is the same in every pass.  The median takes each
    # request's median time.  The tail falls among many requests of about
    # the same cost and would pick whichever the machine slowed most, so it
    # takes each request's least time.
    tail = statistics.quantiles([min(t) for t in times.values()], n=n)[tail_cut(n) - 1]
    return {
        "verified_per_s": ok / busy,
        "request_p50_ms": statistics.median(statistics.median(t) for t in times.values()) * 1e3,
        "request_tail_ms": tail * 1e3,
    }


def counts(results: List[dict]) -> Dict[str, int]:
    return {
        "attempted": len(results),
        "ok": sum(r["outcome"] == "ok" for r in results),
        "failed": sum(r["outcome"] == "failed" for r in results),
        "wrong": sum(r["outcome"] == "wrong" for r in results),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="tame-llc checker benchmark")
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ns = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not os.path.isfile(os.path.join(SRC, "tame_llc", "cli.py")):
        print(f"no tame_llc sources under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{ns.workload}-seed{ns.seed}-trace{ns.trace}")
    try:
        setup = measure_setup(deadline) if not ns.trace else []
        child = [os.path.join(HERE, "worker.py"), "--workload", ns.workload,
                 "--seed", str(ns.seed), "--seconds", str(ns.seconds),
                 "--trace", str(ns.trace)]
        if ns.trace:
            child += ["--spans", stem + ".spans.tsv.gz"]
        _, stdout = run_child(child, deadline)
    except BenchError as ex:
        print(f"benchmark failed: {ex}", file=sys.stderr)
        return 1
    out = json.loads(stdout.splitlines()[-1])
    out["setup"] = setup

    raw: Dict[str, float] = {}
    if ns.trace:
        traced = out["passes"][1]["results"]
        n = counts(traced)
        values = dict(out["layers"], trace_overhead=out["trace_overhead"])
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in PER_LAYER.items()}
    else:
        results = [r for p in out["passes"] for r in p["results"]]
        n = counts(results)
        ref = latency_metrics(results, "ref_seconds")
        raw = latency_metrics(results, "seconds")
        raw["setup_s"] = statistics.median(s for s, _ in setup)
        values = dict(ref, setup_s=statistics.median(r for _, r in setup),
                      ok_share=n["ok"] / n["attempted"],
                      peak_rss_mb=out["maxrss_kb"] / 1024)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
        out["raw_metrics"] = raw
    with open(stem + ".json", "w") as fh:
        json.dump(out, fh)

    print(f"workload {ns.workload}  seed {ns.seed}  trace {ns.trace}  "
          f"passes {len(out['passes'])}  requests {n['attempted']}  "
          f"wall {sum(p['wall_s'] for p in out['passes']):.3f} s")
    if raw:
        print(f"  {'metric':58s} {'value':>14s}       {'raw wall time':>14s}")
    for name, m in metrics.items():
        extra = f" {raw[name]:>14.6g}" if name in raw else ""
        print(f"  {name:58s} {m['value']:>14.6g} {m['unit']:5s}{extra}")
    print(f"  {'failed_share':58s} {n['failed'] / n['attempted']:>14.6g} ratio"
          f"  ({n['failed']} of {n['attempted']} exited non-zero)")
    if not ns.trace:
        print(f"  request_tail_ms is p{100 * tail_cut(out['requests']) / out['requests']:.1f} of "
              f"{out['requests']} requests, each its least time over "
              f"{len(out['passes'])} passes")
    else:
        print(f"  {out['spans']} spans written to {os.path.relpath(stem, ROOT)}.spans.tsv.gz")
    print(f"  exactnum._SQRT_CACHE entries: {out['sqrt_cache_after_warmup']} after "
          f"warm-up, {out['sqrt_cache_after_run']} after the run")
    print(json.dumps({
        "correct": n["wrong"] == 0,
        "attempted": n["attempted"],
        "failed": n["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
