from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_ab", ROOT / "tools" / "bench_ab.py")
bench_ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_ab)

SPEC = {"end_to_end": [
    {"name": "qps", "unit": "queries/s", "better": "higher", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.05},
]}


def _result(qps, rss, correct=True, failed=0):
    return {"correct": correct, "attempted": 128, "failed": failed, "metrics": {
        "qps": {"value": qps, "unit": "queries/s"}, "peak_rss_mb": {"value": rss, "unit": "MB"}}}


def _runs(rows, workload="retrieve_100k"):
    """rows: (parent_qps, parent_rss, change_qps, change_rss) per pair."""
    runs = []
    for pair, (pq, pr, cq, cr) in enumerate(rows):
        for side, result in (("parent", _result(pq, pr)), ("change", _result(cq, cr))):
            runs.append({"workload": workload, "pair": pair, "seed": 1000 + pair, "side": side,
                         "first": (side == "parent") == (pair % 2 == 0), "result": result})
    return runs


def test_summarize_medians_iqr_and_wins():
    rows = [(50, 330, 150, 264), (60, 331, 140, 264), (55, 331, 55, 264),
            (58, 330, 160, 265), (52, 332, 150, 264)]
    got = bench_ab.summarize(_runs(rows), SPEC)["retrieve_100k"]
    assert got["pairs"] == 5 and got["seeds"] == [1000, 1001, 1002, 1003, 1004]
    qps = got["metrics"]["qps"]
    assert qps["parent_median"] == 55 and qps["change_median"] == 150
    assert qps["parent_quartiles"] == [52, 58] and qps["parent_iqr"] == 6
    assert (qps["change_wins"], qps["change_losses"], qps["ties"]) == (4, 0, 1)
    assert qps["gain_fraction"] == pytest.approx(95 / 55)
    assert not qps["gain_shown"]  # 4 of 5 pairs is short of nine tenths
    rss = got["metrics"]["peak_rss_mb"]  # lower is better
    assert (rss["change_wins"], rss["change_losses"]) == (5, 0)
    assert rss["gain_shown"] and not rss["worse_than_bound"]
    assert [(r["side"], r["first"]) for r in got["runs"][:4]] == [
        ("parent", True), ("change", False), ("parent", False), ("change", True)]
    assert got["runs"][1]["metrics"] == {"qps": 150, "peak_rss_mb": 264}


def test_summarize_flags_a_regression_beyond_its_bound():
    rows = [(50, 300, 50, 330), (50, 300, 50, 331), (50, 300, 50, 329)]
    rss = bench_ab.summarize(_runs(rows), SPEC)["retrieve_100k"]["metrics"]["peak_rss_mb"]
    assert rss["worse_than_bound"] and rss["change_losses"] == 3 and rss["gain_fraction"] < 0


def test_summarize_marks_a_spread_wider_than_its_bound_unresolved():
    # A parent qps median of 50 with a 0.25 bound: an IQR up to 12.5 resolves it.
    rows = [(40, 300, 41, 300), (50, 300, 50, 300), (60, 300, 59, 300)]
    metrics = bench_ab.summarize(_runs(rows), SPEC)["retrieve_100k"]["metrics"]
    assert metrics["qps"]["parent_iqr"] == 10 and not metrics["qps"]["unresolved"]
    rows = [(20, 300, 20, 300), (50, 300, 50, 300), (80, 300, 80, 300)]
    metrics = bench_ab.summarize(_runs(rows), SPEC)["retrieve_100k"]["metrics"]
    assert metrics["qps"]["parent_iqr"] == 30 and metrics["qps"]["unresolved"]
    assert not metrics["qps"]["worse_than_bound"]
    assert not metrics["peak_rss_mb"]["unresolved"]  # no spread at all
    rows = [(20, 300, 90, 300), (50, 300, 95, 300), (80, 300, 99, 300)]
    metrics = bench_ab.summarize(_runs(rows), SPEC)["retrieve_100k"]["metrics"]
    assert metrics["qps"]["parent_iqr"] == 30 and not metrics["qps"]["unresolved"]


def test_summarize_keeps_workloads_apart():
    runs = _runs([(1, 1, 2, 1)], "core_http") + _runs([(3, 1, 4, 1)], "offline_eval")
    got = bench_ab.summarize(runs, SPEC)
    assert list(got) == ["core_http", "offline_eval"]
    assert got["offline_eval"]["metrics"]["qps"]["parent_median"] == 3


def test_all_correct_needs_correct_runs_without_failures():
    runs = _runs([(1, 1, 2, 1)])
    assert bench_ab.all_correct(runs)
    runs[1]["result"] = _result(2, 1, correct=False)
    assert not bench_ab.all_correct(runs)
    runs[1]["result"] = _result(2, 1, failed=1)
    assert not bench_ab.all_correct(runs)


def test_plan_alternates_sides_on_fresh_seeds():
    steps = bench_ab.plan([("retrieve_100k", 3), ("core_http", 2)], 1000)
    assert [(name, seed) for name, _, seed, _ in steps] == [
        ("retrieve_100k", 1000), ("retrieve_100k", 1001), ("retrieve_100k", 1002),
        ("core_http", 1003), ("core_http", 1004)]
    assert [order[0] for *_, order in steps] == ["parent", "change", "parent", "parent", "change"]


def test_used_seeds_reads_committed_bench_files(tmp_path):
    (tmp_path / "BENCH_a.json").write_text(json.dumps(
        {"workloads": {"x": {"seeds": [1000, 1001]}, "y": {"seeds": [1005]}}}))
    assert bench_ab.used_seeds(tmp_path) == {1000, 1001, 1005}


def _self_baseline(root, metrics):
    (root / bench_ab.SELF_BASELINE).write_text(json.dumps({"workloads": {"core_http": {
        "metrics": metrics}}}))


def test_self_spread_is_the_wider_of_the_iqr_and_the_side_gap(tmp_path):
    assert bench_ab.self_spread(tmp_path) == {}
    _self_baseline(tmp_path, {
        "qps": {"parent_median": 50.0, "parent_iqr": 2.0, "gain_fraction": 0.01},
        "peak_rss_mb": {"parent_median": 100.0, "parent_iqr": 0.1, "gain_fraction": -0.03},
        "output_kb_per_query": {"parent_median": 0.0, "parent_iqr": 0.0, "gain_fraction": 0.0},
    })
    spread = bench_ab.self_spread(tmp_path)
    assert spread["core_http"] == pytest.approx({"qps": 0.04, "peak_rss_mb": 0.03})


def test_report_flags_a_gain_within_the_self_baseline_spread():
    # qps gains 10% and peak_rss_mb 20% (lower is better).
    rows = [(50, 300, 55, 240), (50, 300, 55, 240), (50, 300, 55, 240)]
    workloads = bench_ab.summarize(_runs(rows, "core_http"), SPEC)
    bench_ab.add_self_spread(workloads, {"core_http": {"qps": 0.12, "peak_rss_mb": 0.05}})
    assert workloads["core_http"]["metrics"]["qps"]["self_baseline_spread"] == 0.12
    qps, rss = bench_ab.report_lines(workloads)
    assert qps == ("core_http qps: 50 -> 55 queries/s (+10.0%, 3/3 pairs won), "
                   "self-baseline spread 12.0%: GAIN WITHIN THE SELF-BASELINE SPREAD")
    assert rss == ("core_http peak_rss_mb: 300 -> 240 MB (+20.0%, 3/3 pairs won), "
                   "self-baseline spread 5.0%")
    bench_ab.add_self_spread(workloads, {})
    workloads["core_http"]["metrics"]["qps"].pop("self_baseline_spread")
    assert bench_ab.report_lines(workloads)[0].endswith("pairs won), no self-baseline")
