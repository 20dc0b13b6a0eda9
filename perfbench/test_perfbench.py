"""Smoke tests of the benchmark itself: python3 -m pytest perfbench"""
import json
import math
import os
import re
import sys
from types import SimpleNamespace

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402  (pins BLAS threads before numpy loads)
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, make_pass  # noqa: E402

zc = run.load_library()
with open(os.path.join(run.ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def _names(key):
    return [m["name"] for m in SPEC[key]]


def _run_pass(workload, seed=5):
    tracer = Tracer()
    tracer.install(traced=False)
    records = []
    try:
        run.run_pass(zc, tracer, make_pass(WORKLOADS[workload], seed, 0),
                     records, traced=False, window=True)
    finally:
        tracer.restore()
    return records


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_one_pass_emits_every_named_metric(workload, trace):
    key = "per_layer" if trace else "end_to_end"
    _, result = run.measure(zc, workload, seed=3, seconds=0, trace=trace,
                            metric_names=_names(key), probes=0 if trace else 1,
                            count_passes=1)
    assert set(_names(key)) <= set(result["metrics"])
    assert all(math.isfinite(v) for v in result["metrics"].values())
    assert result["attempted"] > 0 and result["correct"] is True


def test_traced_run_keeps_the_count_window_spans():
    lines, result = run.measure(zc, "locate", seed=4, seconds=1.0,
                                trace=True, metric_names=_names("per_layer"),
                                probes=0, count_passes=1)
    assert int(re.search(r"(\d+) passes", lines[1]).group(1)) > 1
    assert result["attempted"] == 24         # the window's pass, twice
    with open(os.path.join(run.SPANS_DIR, "locate-seed4.json")) as fh:
        spans = json.load(fh)["spans"]
    # the first pass runs 12 tasks untraced, then the same 12 traced
    assert spans and {s[4] for s in spans} == set(range(12, 24))
    assert {"mapspec.parse_map", "mapspec.evaluate"} <= {s[0] for s in spans}


def test_count_metrics_repeat_exactly_for_a_seed():
    counts = ("evals_per_task", "points_per_task", "success_rate",
              "certified_rate")
    results = [run.measure(zc, "locate", seed=11, seconds=0, trace=False,
                           metric_names=counts, probes=0, count_passes=1)[1]
               for _ in range(2)]
    assert [{k: r["metrics"][k] for k in counts} for r in results] == \
        [{k: results[0]["metrics"][k] for k in counts}] * 2


def test_attempted_and_failed_do_not_depend_on_run_length():
    short, long = (run.measure(zc, "certify-sphere", seed=2, seconds=seconds,
                               trace=False, metric_names=["success_rate"],
                               probes=0, count_passes=1)
                   for seconds in (0, 3.0))
    assert int(re.search(r"(\d+) passes", long[0][1]).group(1)) > 1
    assert {k: short[1][k] for k in ("attempted", "failed")} == \
        {k: long[1][k] for k in ("attempted", "failed")} == \
        {"attempted": 32, "failed": round(32 * (1.0 - short[1]["metrics"]
                                               ["success_rate"]))}


def test_flipped_verdict_counts_as_failure(monkeypatch):
    real = zc.certify_existence

    def flipped(*args, **kwargs):
        cert = real(*args, **kwargs)
        cert.verdict = ("NoConclusion" if cert.verdict == "ZeroGuaranteed"
                        else "ZeroGuaranteed")
        return cert

    monkeypatch.setattr(zc, "certify_existence", flipped)
    records = _run_pass("certify-plane")
    assert records and not any(r["ok"] or r["known"] for r in records)


def test_false_certificate_fails_whatever_its_rigor():
    tasks = make_pass(WORKLOADS["certify-sphere"], 5, 0)
    assert any(not t.has_zero for t in tasks)
    for task in tasks:
        for rigor in ("heuristic", "rigorous"):
            claim = SimpleNamespace(verdict="ZeroGuaranteed", obstruction=None,
                                    rigor=rigor)
            assert task.check(claim)[0] == task.has_zero


def test_wrong_located_point_counts_as_failure(monkeypatch):
    for name in ("locate_zero", "brouwer_fixed_point"):
        real = getattr(zc, name)

        def shifted(*args, _real=real, **kwargs):
            res = _real(*args, **kwargs)
            res.point = res.point + 1e-3
            return res

        monkeypatch.setattr(zc, name, shifted)
    records = _run_pass("locate")
    assert records and not any(r["ok"] for r in records)


def test_task_that_skips_evaluate_aborts_the_run(monkeypatch):
    canned = zc.certify_existence(zc.parse_map("x1, x2", 2),
                                  zc.Region.disk([0.0, 0.0], 1.0))
    monkeypatch.setattr(zc, "certify_existence", lambda *a, **k: canned)
    with pytest.raises(run.GuardError):
        _run_pass("certify-plane")


def test_missing_function_is_reported_absent(monkeypatch):
    monkeypatch.delattr(zc.homotopy, "radial_extension")
    tracer = Tracer()
    tracer.install(traced=True)
    try:
        assert tracer.absent == ["homotopy.radial_extension"]
        metric = "homotopy.radial_extension.self_ms"
        assert tracer.layer_metric(metric, tracer.self_ms()) == 0
    finally:
        tracer.restore()
    assert zc.certify_existence is zc.criteria.certify_existence
