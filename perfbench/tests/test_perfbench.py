"""Tests of the benchmark itself.  From the repository root:

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import os
import random
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)

import run  # noqa: E402
import tracer as tracer_mod  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

import tame_llc.cli as cli  # noqa: E402
from tame_llc import conjectures, ring_model, tame_galois  # noqa: E402

COUNT_STATS = (".calls", ".elements", ".max_bits", ".literal", ".stationary",
               ".errors", ".distinct_ratio")


@pytest.fixture(scope="module")
def reference():
    return worker.load_reference()


def test_request_counts_are_pinned(reference):
    assert {name: len(reqs) for name, reqs in reference.items()} == {
        "formal_degree_box": 1043,
        "root_number_box": 28,
        "chi_data_heavy": 25,
        "known_defect": 7,
    }


def test_reference_holds_the_generated_requests(reference):
    generated = workloads.generate(conjectures, tame_galois)
    for name, reqs in generated.items():
        assert [(r["identity"], tuple(r["tuple"])) for r in reference[name]] == reqs
    for name in workloads.NAMES:
        assert all(r["exit"] == 0 for r in reference[name])
    assert all(r["exit"] == 3 for r in reference["known_defect"])
    assert workloads.HNF_OUTLIER not in {
        tuple(r["tuple"]) for reqs in reference.values() for r in reqs
        if r["identity"] == "root-number"}


def test_benchmark_json_lists_the_reported_metrics():
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_tracer_reports_every_layer_metric_even_when_idle():
    t = tracer_mod.Tracer()
    with t.installed():
        pass
    assert set(run.PER_LAYER) - {"trace_overhead"} <= set(t.metrics())


def _originals():
    mods = tracer_mod.load_package()
    out = []
    for module, path, _ in (tracer_mod.SPANS + tracer_mod.PROPERTIES + tracer_mod.COUNTS
                            + [tracer_mod.METHOD_SPLIT[:3], tracer_mod.GENERATOR]):
        if "." in path:
            cls, attr = path.split(".")
            out.append(vars(getattr(mods[module], cls))[attr])
        else:
            out.append(getattr(mods[module], path))
    return out


def _bindings(originals):
    """Every (owner, attribute) in the package still bound to an original."""
    ids = {id(o) for o in originals}
    found = []
    for name, mod in list(sys.modules.items()):
        if not name.startswith("tame_llc"):
            continue
        for attr, value in vars(mod).items():
            if id(value) in ids:
                found.append((name, attr))
            if isinstance(value, type) and value.__module__ == name:
                found += [(f"{name}.{attr}", a) for a, v in vars(value).items()
                          if id(v) in ids]
    return found


def test_tracer_leaves_no_listed_function_unwrapped():
    originals = _originals()
    before = _bindings(originals)
    # the class operators bound twice, and the cross-module imports
    assert ("tame_llc.exactnum.Cyclotomic", "__rmul__") in before
    assert ("tame_llc.conjectures", "adjoint_root_number") in before
    assert ("tame_llc.cli", "verify_root_number") in before
    t = tracer_mod.Tracer()
    with t.installed():
        assert _bindings(originals) == []
    assert sorted(_bindings(originals)) == sorted(before)


def test_route_inference_uses_the_unit_group_order():
    # the tracer infers the Gauss-sum route from |(O_K/pi^k)^x| without
    # building the presentation the library builds
    for tup in [(3, 1, 2, 0, 3), (5, 2, 1, 0, 4), (3, 2, 2, 1, 4)]:
        M = ring_model.build_model(tame_galois.params_from_q(*tup))
        qK = M.P.q_K
        for k in range(1, M.e * M.P.r + 1):
            assert ring_model.UnitGroupPresentation(M, k).order() == (qK - 1) * qK ** (k - 1)


def _sample(reference):
    """A few seconds of requests that reach every layer, both Gauss routes
    and the HNF of the chi-data."""
    picks = {
        "root_number_box": [(3, 1, 2, 0, 3), (5, 1, 2, 0, 4), (7, 1, 2, 0, 3),
                            (3, 2, 2, 1, 4), (5, 1, 3, 0, 4)],
        "chi_data_heavy": [(3, 2, 2, 0, 5), (5, 2, 2, 1, 5)],
    }
    reqs = worker.requests_of(reference, "formal_degree_box")[::150]
    for name, tuples in picks.items():
        reqs += [r for r in worker.requests_of(reference, name) if r["tuple"] in tuples]
    return reqs


def _traced_counts(requests, seed):
    order = list(range(len(requests)))
    random.Random(seed).shuffle(order)
    t = tracer_mod.Tracer()
    plain, traced = worker.paired_pass(cli, requests, order, t)
    assert {r["outcome"] for r in plain["results"] + traced["results"]} == {"ok"}
    return {k: v for k, v in t.metrics().items() if k.endswith(COUNT_STATS)}, t


def test_counts_repeat_across_seeds_and_runs(reference):
    requests = _sample(reference)
    first, t = _traced_counts(requests, 1)
    assert first["characters.gauss_sum.literal"] > 0
    assert first["characters.gauss_sum.stationary"] > 0
    assert first["intlinalg.hnf_row.max_bits"] > 0
    assert first["ring_model.Model.mul.calls"] > 0
    assert first["tame_galois.norm_index.calls"] == 3 * 7  # 3 per formal-degree request
    assert first == _traced_counts(requests, 1)[0]
    assert first == _traced_counts(requests, 2)[0]
    # every span's parent is a span of the same request, or none
    by_id = {s[1]: s for s in t.spans}
    assert all(p == -1 or by_id[p][0] == req for req, _, p, *_ in t.spans)


def test_known_defect_is_recorded(reference):
    requests = worker.requests_of(reference, "known_defect")
    t = tracer_mod.Tracer()
    _, traced = worker.paired_pass(cli, requests, list(range(len(requests))), t)
    outcomes = [r["outcome"] for r in traced["results"]]
    # one-directional: a fix may turn these into verified OKs, never FAILs
    assert set(outcomes) <= {"failed", "ok"}
    assert t.metrics()["characters.gauss_sum.errors"] == outcomes.count("failed")
    for r in requests:
        rc, _, err, _ = worker.call(cli, r)
        assert rc == 0 or "stationary phase found 0 critical points" in err


def test_gate_runs_in_one_direction():
    ok_ref = {"identity": "root-number", "tuple": (3, 1, 2, 0, 3), "exit": 0,
              "sha256": "0" * 64}
    refused_ref = dict(ok_ref, exit=3)
    ok_json = json.dumps({"checks": [{"status": "OK"}]})
    fail_json = json.dumps({"checks": [{"status": "FAIL"}]})
    with pytest.raises(worker.GateAbort):
        worker.gate(ok_ref, 1, "")
    assert worker.gate(ok_ref, 0, "changed output") == "wrong"
    assert worker.gate(ok_ref, 3, "") == "failed"
    assert worker.gate(refused_ref, 3, "") == "failed"
    assert worker.gate(refused_ref, 0, ok_json) == "ok"
    assert worker.gate(refused_ref, 0, fail_json) == "wrong"


def test_tail_percentile_has_ten_requests_beyond_it():
    for n in (25, 28, 1043):
        assert n - run.tail_cut(n) == 10
    assert run.tail_cut(5) == 1


def test_percentiles_interpolate_between_requests():
    results = [{"index": i, "outcome": "ok", "seconds": float(i + 1)} for i in range(28)]
    m = run.latency_metrics(results, "seconds")
    assert m["request_p50_ms"] == pytest.approx(14.5e3)
    # cut point 18 of 28 sits at rank 29 * 18 / 28 = 18.64
    assert m["request_tail_ms"] == pytest.approx((18 + 0.6428571) * 1e3)


def test_latencies_do_not_depend_on_the_number_of_passes():
    rng = random.Random(0)
    for n in (25, 28, 1043):
        one = [{"index": i, "outcome": "ok", "seconds": rng.uniform(0.001, 1.0)}
               for i in range(n)]
        for passes in (2, 3):
            many = run.latency_metrics(one * passes, "seconds")
            for name, value in run.latency_metrics(one, "seconds").items():
                assert many[name] == pytest.approx(value)


def test_a_pause_in_one_pass_does_not_move_the_percentiles():
    first = [{"index": i, "outcome": "ok", "seconds": 0.01 * (i + 1)} for i in range(20)]
    second = [dict(r, seconds=5.0 if r["index"] == 0 else r["seconds"]) for r in first]
    one, two, three = (run.latency_metrics(passes, "seconds")
                       for passes in (first, first + second, first + second + first))
    # the tail takes each request's least time, the median its median time
    assert two["request_tail_ms"] == one["request_tail_ms"]
    assert three["request_p50_ms"] == one["request_p50_ms"]


def test_failed_request_ranks_above_every_completed_one():
    results = [{"index": i, "outcome": "ok", "seconds": 0.01 * i} for i in range(1, 41)]
    clean = run.latency_metrics(results, "seconds")
    results[0] = {"index": 1, "outcome": "failed", "seconds": 0.0}
    failed = run.latency_metrics(results, "seconds")
    assert failed["request_tail_ms"] > clean["request_tail_ms"]
    assert failed["request_p50_ms"] > clean["request_p50_ms"]
    assert failed["verified_per_s"] == pytest.approx(39 / (sum(range(2, 41)) * 0.01))
