"""Tests for the benchmark's own code: span arithmetic, output checks, smoke runs.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import re
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.import_program()

import checks  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402

ROOT = BENCH.parent
TINY_N = 400  # smallest size at which both planted rules meet their 2pp quota
WORKLOADS = ("ingest-100k", "agt-100k", "sweep-1k")


def benchmark_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_self_times_on_a_hand_built_span_tree():
    # 0 root [0, 10]: children 1 [1, 4] and 3 [5, 7]; 4 [6, 8] overlaps 3
    # 2 [2, 3] is a grandchild under 1; 5 [9, 12] sticks out of the root
    parents = [-1, 0, 1, 0, 0, 0]
    starts = [0.0, 1.0, 2.0, 5.0, 6.0, 9.0]
    ends = [10.0, 4.0, 3.0, 7.0, 8.0, 12.0]
    assert spans.self_times(parents, starts, ends) == [
        10.0 - (3.0 + 3.0 + 1.0),  # children cover [1, 4], [5, 8] and [9, 10]
        2.0,
        1.0,
        2.0,
        2.0,
        3.0,
    ]


def test_tracer_records_parents_and_splits_time_into_self_times():
    tracer = spans.Tracer()
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(inner(x)))
    assert outer(1) == 3
    assert [tracer.span_names[i] for i in tracer.names] == ["outer", "inner", "inner"]
    assert list(tracer.parents) == [-1, 0, 0]
    calls, total, self_s, _ = tracer.totals()
    assert calls == {"outer": 1, "inner": 2}
    assert self_s["outer"] + self_s["inner"] == pytest.approx(total["outer"])


def test_normalise_takes_out_the_handler_and_scales_by_the_reference_speed():
    sampler = speed.Sampler()
    sampler.samples = [1.5 * speed.REF_S, 2.5 * speed.REF_S]  # a core at half speed
    assert sampler.slowdown() == pytest.approx(2.0)
    assert sampler.normalise(3.0, 0.2) == pytest.approx(1.4)


def test_sampler_samples_while_started_and_restores_the_alarm_handler():
    previous = signal.getsignal(signal.SIGALRM)
    sampler = speed.Sampler()
    sampler.start()
    deadline = time.perf_counter() + 10 * speed.PERIOD_S
    while time.perf_counter() < deadline:
        pass
    busy = sampler.stop()
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(sampler.samples) >= 6  # one at each end, the rest from the alarm
    assert busy == pytest.approx(sum(sampler.samples[1:-1]))
    assert sampler.slowdown() > 0


def tamper_support(workdir: Path) -> None:
    """Lower the support of the first rule in the captured stdout by one."""
    path = checks.output_path(workdir, "stdout")
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    lines[0] = re.sub(r"support=(\d+)/", lambda m: "support=%d/" % (int(m[1]) - 1), lines[0])
    path.write_text("".join(lines), encoding="utf-8")


def test_tampered_rule_support_counts_as_a_failed_operation(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path)
    real_run_op = run.run_op

    def run_op_then_tamper(argv, workdir, traced, timeout):
        result = real_run_op(argv, workdir, traced, timeout)
        tamper_support(workdir)
        return result

    monkeypatch.setattr(run, "run_op", run_op_then_tamper)
    result = run.run("agt-100k", 3, 0, False, n=TINY_N)
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 1, 1)


def test_output_digest_other_than_the_recorded_one_is_a_failure(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path)
    monkeypatch.setattr(run, "recorded_digests", lambda name, seed, n: {
        "stdout": "0" * 64, "report.json": "0" * 64})
    result = run.run("sweep-1k", 3, 0, False, n=TINY_N)
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 1, 1)


def test_untampered_rules_pass_the_recount(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path)
    result = run.run("agt-100k", 3, 0, False, n=TINY_N)
    assert (result["correct"], result["failed"]) == (True, 0)
    spec = json.loads((BENCH / "spec.json").read_text(encoding="utf-8"))
    workload = spec["workloads"]["agt-100k"]
    workdir = tmp_path / "agt-100k"
    ds = run.make_inputs(spec, workload, 3, TINY_N, workdir)
    assert checks.check_outputs(workdir, ds, workload["argv"]) == []
    tamper_support(workdir)
    problems = checks.check_outputs(workdir, ds, workload["argv"])
    assert len(problems) == 1 and "recounts to" in problems[0]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_smoke_run_prints_every_end_to_end_metric(workload, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path)
    result = run.run(workload, 5, 0, False, n=TINY_N)
    assert (result["correct"], result["attempted"], result["failed"]) == (True, 1, 0)
    expected = {m["name"]: m["unit"] for m in benchmark_json()["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_tiny_traced_run_prints_every_per_layer_metric(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path)
    result = run.run("agt-100k", 5, 0, True, n=TINY_N)
    assert (result["correct"], result["attempted"], result["failed"]) == (True, 2, 0)
    expected = {m["name"]: m["unit"] for m in benchmark_json()["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["agt.build_tree_calls"] == 1
    assert metrics["agt.nodes"] > 1 and metrics["datamodel.subset_calls"] > 0
    assert metrics["apriori.filter_calls"] == 0
    trace = (tmp_path / "agt-100k" / "trace.csv").read_text(encoding="utf-8").splitlines()
    assert trace[0] == "span,parent,name,start_s,end_s,self_s"
    assert trace[1].startswith("0,-1,cli.main,")


def test_benchmark_json_matches_the_metric_tables():
    bench = benchmark_json()
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == list(
        spans.LAYER_METRICS)
    spec = json.loads((BENCH / "spec.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in bench["workloads"]] == list(spec["workloads"])


def test_run_without_the_program_source_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "agt-100k", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
