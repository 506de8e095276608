"""Tests of the benchmark itself, at a tiny size.

Run from the repository root: python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

CB = run.load_package()

import plans  # noqa: E402

TINY = dict(horizon=2000, episodes=2)
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def tiny(workload, seed=1):
    return plans.build(workload, seed, **TINY)


def measure(plan, trace, reference=None):
    return run.measure(CB, plan, 0.01, trace, reference)


@pytest.mark.parametrize("workload", plans.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_printed_with_its_unit(workload, trace):
    plan = tiny(workload)
    correct, runner, metrics, provenance = measure(plan, trace)
    lines = run.report_lines(plan, trace, correct, runner, metrics, provenance)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: value["unit"] for name, value in result["metrics"].items()
    }
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(plans.WORKLOADS)
    if not trace:
        assert result["metrics"]["success_rate"]["value"] == 1.0


@pytest.mark.parametrize("workload", plans.WORKLOADS)
def test_per_layer_counts_repeat_exactly(workload):
    first = measure(tiny(workload), True)[2]
    second = measure(tiny(workload), True)[2]
    assert first["policies.step_calls"] > 0
    assert {k: first[k] for k in run.EXACT} == {k: second[k] for k in run.EXACT}


def test_pool_workers_report_their_layers():
    plan = tiny("scan_linear16")
    layers = measure(plan, True)[2]
    assert layers["envs.draw_calls"] + layers["policies.bulk_exploit_steps"] == plan.pulls
    assert layers["simulator.cell_max_s"] > 0
    assert 0 < layers["simulator.fanout_efficiency"] <= 1.0 + 1e-9
    assert layers["cli.bytes_written"] > 0


@pytest.mark.parametrize("workload", plans.WORKLOADS)
def test_output_check_fails_on_an_altered_digest(workload):
    plan = tiny(workload)
    runner = run.Runner(CB, plan, None)
    runner.once(traced=True)
    assert runner.correct()
    recorded = {"outputs": runner.digests.pop(), "pulls": runner.pull_digests.pop()}
    good = {workload: {str(plan.seed): recorded}}
    assert measure(plan, True, good)[0] is True

    altered = dict(recorded, outputs=recorded["outputs"][::-1])
    correct, runner, _, _ = measure(plan, False, {workload: {str(plan.seed): altered}})
    assert correct is False
    assert runner.failed == runner.attempted
    assert "output digest differs from the recorded reference" in runner.problems


def test_jobs_never_exceed_nproc(monkeypatch):
    for cores, jobs in ((1, 1), (2, 2), (64, 2)):
        monkeypatch.setattr(plans, "nproc", lambda: cores)
        plan = tiny("scan_linear16")
        assert plan.jobs == jobs
        assert plan.argv[plan.argv.index("--jobs") + 1] == str(jobs)
    for workload in ("ucb1_linear16", "verify_commit4"):
        assert tiny(workload).jobs == 1


def test_reference_covers_the_full_size_workloads():
    reference = json.loads(run.REFERENCE.read_text())
    assert set(reference) == set(plans.WORKLOADS)
    for table in reference.values():
        assert "0" in table and set(table["0"]) == {"outputs", "pulls"}


def test_fails_without_the_package(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "verify_commit4",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_a_raising_workload_fails_its_units(monkeypatch):
    import workloads

    def explode(plan, out_dir):
        raise RuntimeError("boom")

    monkeypatch.setattr(workloads, "execute", explode)
    correct, runner, metrics, _ = measure(tiny("verify_commit4"), False)
    assert correct is False
    assert runner.failed == runner.attempted > 0
    assert metrics["success_rate"] == 0.0
