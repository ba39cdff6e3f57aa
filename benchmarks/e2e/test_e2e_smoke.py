"""Smoke test of the end-to-end benchmark (collected by tier-1).

Runs ``run.py --quick`` — all four workloads at 2 % scale with a 2 s
time floor — in a subprocess with a cleaned environment and checks the
shape of what it reports, not the numbers.
"""

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
WORKLOADS = ("svc_point", "svc_stream", "db_analytic", "durable_mixed")
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
TIMINGS = ["ops_per_s", "latency_p50_ms", "latency_p95_ms", "cpu_ms_per_op", "cold_first_ms"]


def test_quick_run_reports_every_workload_and_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fp:
        spec = json.load(fp)
    assert spec["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert spec["paths"] == ["benchmarks/e2e"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    assert len(units) == len(spec["end_to_end"]) + len(spec["per_layer"])
    for name in units:
        assert NAME.fullmatch(name), name
    # The eight whole-stack metrics: the bounded ones, and the timings
    # that carry no bound (README, "Why the timings carry no bound").
    eight = [m["name"] for m in spec["end_to_end"]] + TIMINGS
    assert len(set(eight)) == 8 and "setup_s" in eight

    # pytest's REPRO_PLAN_VERIFY=1 stays in the environment: the
    # benchmark strips every REPRO_* variable from its children itself.
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--quick"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["correct"] is True and summary["failed"] == 0
    assert summary["attempted"] > 0
    assert set(summary["metrics"]) == {f"{w}/{m}" for w in WORKLOADS for m in eight}
    for key, metric in summary["metrics"].items():
        name = key.split("/")[1]
        assert metric["unit"] == units[name]
        if metric["value"] is None:
            # withheld: a quick run may end with fewer than 200 samples
            assert name == "latency_p95_ms", key
        else:
            assert metric["value"] > 0, key

    for workload in WORKLOADS:
        with open(os.path.join(HERE, "out", f"result-{workload}.json")) as fp:
            report = json.load(fp)
        assert report["failed"] == 0 and report["naive_mismatches"] == []
        assert report["details"]["result_cache_hit_ratio"] == 0
        assert report["details"]["plan_cache_hit_ratio"] >= 0.5
        assert report["details"]["oracle_checked"] >= 1
        assert report["env"]["PYTHONHASHSEED"] == "0"
