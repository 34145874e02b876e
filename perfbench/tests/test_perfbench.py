"""Tests of the benchmark itself: python3 -m pytest perfbench/tests -q"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import layers  # noqa: E402
import run  # noqa: E402  (pins BLAS, imports socnavsim from the checkout)
import tracing  # noqa: E402
import workloads  # noqa: E402
from socnavsim.evaluation import Metrics  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.fixture(scope="module")
def tiny_runs():
    """workload, trace -> parsed result of a one-second run, made on demand."""
    cache = {}

    def get(workload, trace, repeat=0):
        key = (workload, trace, repeat)
        if key not in cache:
            proc = bench("--workload", workload, "--seed", "0", "--seconds", "1",
                         "--trace", str(trace))
            assert proc.returncode == 0, proc.stderr
            cache[key] = json.loads(proc.stdout.strip().splitlines()[-1])
        return cache[key]

    return get


def installed_wrappers():
    """Targets whose attribute is not the original, i.e. holds a wrapper."""
    return [
        f"{t.owner}.{t.attr}"
        for t, original in zip(layers.TARGETS, ORIGINALS)
        if getattr(tracing.resolve(t.owner), t.attr) is not original
    ]


ORIGINALS = [getattr(tracing.resolve(t.owner), t.attr) for t in layers.TARGETS]


# ---------------------------------------------------------------------------
# span arithmetic


def inner():
    return "inner"


def outer():
    inner()
    inner()
    return "outer"


def scripted_clock(times):
    it = iter(times)
    return lambda: next(it)


def test_self_time_of_nested_calls():
    targets = [tracing.Target(__name__, "outer", "t.outer"),
               tracing.Target(__name__, "inner", "t.inner")]
    # outer [0, 10] holds inner [2, 4] and inner [5, 8]
    tracer = tracing.Tracer(targets, clock=scripted_clock([0.0, 2.0, 4.0, 5.0, 8.0, 10.0]))
    with tracer:
        assert outer() == "outer"
    assert [s[tracing.NAME] for s in tracer.spans] == ["t.outer", "t.inner", "t.inner"]
    assert [s[tracing.PARENT] for s in tracer.spans] == [-1, 0, 0]
    assert tracing.self_times(tracer.spans) == [5.0, 2.0, 3.0]

    stats = tracing.aggregate(tracer.spans)
    assert stats["t.inner"].calls == 2
    assert stats["t.inner"].mean_ms == pytest.approx(2500.0)
    assert stats["t.outer"].self_mean_ms == pytest.approx(5000.0)

    groups, other, wall = tracing.breakdown(tracer.spans, [(0, -1.0, 11.0)])
    assert groups == {"t": 10.0}
    assert (other, wall) == (2.0, 12.0)  # [-1, 0] and [10, 11] are outside every span


def test_covered_merges_overlaps_and_clips():
    assert tracing._covered([(0, 2), (1, 3), (5, 6)], 0, 10) == 4
    assert tracing._covered([(0, 2), (1, 3), (5, 6)], 1.5, 5.5) == 2
    assert tracing._covered([], 0, 1) == 0


def test_wrappers_are_removed_and_originals_restored():
    with tracing.Tracer(layers.TARGETS):
        assert len(installed_wrappers()) == len(layers.TARGETS)
    assert installed_wrappers() == []


# ---------------------------------------------------------------------------
# whole runs


def test_traced_run_removes_its_wrappers(capsys):
    assert run.main(["--workload", "eval-crowd20", "--seconds", "1", "--trace", "1"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"]
    assert result["metrics"]["crowd.orca_velocity.calls"]["value"] > 0
    assert installed_wrappers() == []


def test_untraced_run_installs_no_wrapper(monkeypatch, capsys):
    def refuse(self):
        raise AssertionError("untraced run installed wrappers")

    monkeypatch.setattr(tracing.Tracer, "install", refuse)
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    assert run.main(["--workload", "eval-mapless1080", "--seconds", "1", "--trace", "0"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"]


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_emits_every_metric_with_its_unit(tiny_runs, workload, trace):
    result = tiny_runs(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: v["unit"] for name, v in result["metrics"].items()
    }
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", ["eval-crowd20", "train-desk"])
def test_exact_counters_repeat_across_runs(tiny_runs, workload):
    first, second = tiny_runs(workload, 1), tiny_runs(workload, 1, repeat=1)
    for name in layers.EXACT:
        assert first["metrics"][name] == second["metrics"][name], name


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == [
        m[:3] for m in layers.LAYER_METRICS
    ]


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "eval-crowd20", "--seed", "0", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# ---------------------------------------------------------------------------
# the correctness checks can fail


def test_eval_pass_fails_when_tables_disagree(monkeypatch):
    w = workloads.make("eval-crowd20", ROOT, 0, 0.5)
    monkeypatch.setattr(workloads.evaluation, "metrics_from_tables",
                        lambda paths: Metrics(1, 0.0, None, None, 0.0, 0.0))
    result = w.run_pass(0)
    assert result.failed == 1 and "metrics_from_tables" in result.errors[0]


def test_eval_pass_fails_when_reference_differs(monkeypatch, tmp_path):
    table = json.load(open(workloads.REFERENCE_PATH))
    for row in table["eval-crowd20"]:
        row["steps"] += 1
    path = tmp_path / "reference.json"
    path.write_text(json.dumps(table))
    monkeypatch.setattr(workloads, "REFERENCE_PATH", str(path))
    result = workloads.make("eval-crowd20", ROOT, workloads.DEFAULT_SEED, 0.5).run_pass(0)
    assert result.failed == 1 and "reference" in result.errors[0]


def test_train_pass_fails_on_wrong_update_count():
    w = workloads.make("train-desk", ROOT, 0, 1)
    w.updates += 1
    result = w.run_pass(0)
    assert result.failed == 1 and "updates" in result.errors[0]
