"""Self-test of the benchmark itself, at tiny input sizes.

Run from the repository root::

    python3 -m pytest -q perfbench

It checks that every metric run.py prints is declared in BENCHMARK.json
with the same unit, that the untraced run has no tracer wrapper installed,
that a traced run leaves every patched attribute as the original function,
and that run.py refuses to run without the program's sources.
"""

import json
import shutil
import subprocess
import sys

import pytest

import run  # pins BLAS threads before numpy loads, as a benchmark run does

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
TINY = dict(
    setup_blocks=1,
    setup_block_seconds=0.0,
    train_images=4,
    train_task_steps=1,
    sweep_images=1,
    sweep_round_images=2,
    sweep_chunks=1,
    sweep_min_rounds=1,
    verify_identities=12,
    verify_per_identity=4,
    verify_max_imposter=1500,
    verify_task_calls=1,
)

tracer, workloads = run._import_program()


def _declared(kind):
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


def _printed(result):
    return {name: entry["unit"] for name, entry in result["metrics"].items()}


def _bindings():
    return {(mod.__name__, name): value for mod in tracer.facemark_modules() for name, value in vars(mod).items()}


def test_workload_names_agree():
    assert WORKLOADS == list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_declared_metrics_with_no_wrapper(workload):
    result, details = run.run_workload(workload, 1, 0, trace=False, sizes=workloads.Sizes(**TINY))
    assert result["correct"], details
    assert _printed(result) == _declared("end_to_end")
    assert all(entry["value"] > 0 for entry in result["metrics"].values())
    assert details["wrappers_in_untraced_run"] == []


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_prints_declared_metrics_and_restores_originals(workload):
    before = _bindings()
    result, details = run.run_workload(workload, 1, 0, trace=True, sizes=workloads.Sizes(**TINY))
    assert result["correct"], details
    assert _printed(result) == _declared("per_layer")
    after = _bindings()
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []
    assert tracer.installed_wrappers() == []


def test_compare_flags_drift_above_tolerance():
    reference = {"loss": 0.5, "reason": "None", "n": 3}
    assert workloads.compare({"loss": 0.5 * (1 + 1e-12), "reason": "None", "n": 3}, reference) == []
    assert len(workloads.compare({"loss": 0.5 * (1 + 1e-7), "reason": "None", "n": 3}, reference)) == 1
    assert len(workloads.compare({"loss": 0.5, "reason": "diverged", "n": 3}, reference)) == 1
    assert len(workloads.compare({"loss": 0.5, "reason": "None"}, reference)) == 1


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / run.HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{run.HERE.name}/run.py", "--workload", "verify", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
