"""Smoke test of the benchmark: every workload at the smallest trial count.

    python3 -m pytest benchmarks/test_bench.py

Checks that each run emits every metric BENCHMARK.json names, with its
unit, and that every output check ran and passed.
"""

import json

import pytest

import bench

SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

CSV_CHECKS = {"exit", "rows", "finite", "range", "n_trials", "deterministic"}


def expected_checks(workload: str, trace: bool) -> set[str]:
    w = bench.WORKLOADS[workload]
    names = CSV_CHECKS | ({"density"} if trace else {"setup"})
    if w.csv == "prp_sweep.csv":
        names.add("la_dominance")
    if w.oracle_distances:
        names.add("oracle")
    return names


def test_workloads_match_benchmark_json():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(bench.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("workload", sorted(bench.WORKLOADS))
def test_smoke(workload, trace):
    result = bench.run(workload, seed=11, seconds=0.0, trace=trace,
                       trials=bench.WARMUP_TRIALS)
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        value, unit = result["metrics"][m["name"]]
        assert unit == m["unit"], m["name"]
        assert isinstance(value, float) and value == value, m["name"]
    assert set(result["checks"]) == expected_checks(workload, trace)
    assert all(attempted >= 1 for attempted, _ in result["checks"].values())
    assert result["failures"] == []
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == sum(a for a, _ in result["checks"].values())
