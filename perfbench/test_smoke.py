"""Smoke run of the benchmark on two-slice phantoms.

    PYTHONPATH=src python -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import spans

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())
SETTINGS = {**json.loads((run.HERE / "workloads.json").read_text()), "setup_repeats": 1}


def tiny(name: str) -> dict:
    spec = json.loads(json.dumps(SETTINGS["workloads"][name]))
    spec["phantom"]["n_slices"] = 2
    spec["inputs"] = 2
    return spec


@pytest.fixture(autouse=True)
def work_dir(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(run.SRC))
    monkeypatch.setattr(run, "WORK", tmp_path / "work")


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(SETTINGS["workloads"]))
def test_every_named_metric_is_emitted(name, trace):
    record = run.run_workload(name, tiny(name), seed=3, seconds=0.0, trace=trace, settings=SETTINGS)
    assert record["failed"] == 0, record["errors"]
    line = run.result_line(record, BENCH)
    assert line["correct"] and line["attempted"] >= 3
    wanted = BENCH["per_layer" if trace else "end_to_end"]
    assert list(line["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        assert line["metrics"][m["name"]]["unit"] == m["unit"]
    assert json.loads(json.dumps(line)) == line
    assert set(record["metrics"]) == {m["name"] for m in BENCH["end_to_end"]} | {
        "error_rate", "boundary_mae_vox"
    }
    if trace and name != "desk-ablate":
        assert record["layer"]["fileio.write_volume.bytes"] > 0
    if trace and name == "paper-import":
        assert record["layer"]["layers.trace_boundary.calls"] == 0


def test_leaves_no_child_process_running():
    run.run_workload("paper-import", tiny("paper-import"), seed=3, seconds=0.0, trace=False, settings=SETTINGS)
    tasks = Path("/proc/self/task")
    if not any((task / "children").exists() for task in tasks.iterdir()):
        pytest.skip("the kernel does not list child processes")
    children = [pid for task in tasks.iterdir() for pid in (task / "children").read_text().split()]
    assert children == []


def test_layer_map_names_only_emitted_metrics():
    per_layer = {m["name"] for m in BENCH["per_layer"]}
    mapped = {name for row in SETTINGS["layer_map"] for name in row["metrics"]}
    assert mapped == per_layer


def test_self_time_subtracts_the_union_of_child_spans():
    span = spans.Span
    recorded = [
        span(0, "a", 0.0, 10.0, None, 0, {}),
        span(1, "b", 1.0, 4.0, 0, 0, {}),
        span(2, "b", 3.0, 6.0, 0, 0, {}),  # overlaps its sibling, as pool threads do
        span(3, "c", 2.0, 3.0, 1, 0, {}),
    ]
    assert spans.self_times(recorded) == {0: 5.0, 1: 2.0, 2: 3.0, 3: 1.0}


def test_corrupted_output_counts_as_error(monkeypatch):
    from oct_cascade import pipeline

    write_volume = pipeline.write_volume

    def corrupting(value, path):
        write_volume(value, path)
        if path.endswith("prob"):
            with open(path + ".raw", "r+b") as fh:
                fh.write(b"\x00\x00\x80\x3f")  # 1.0 at the first voxel

    monkeypatch.setattr(pipeline, "write_volume", corrupting)
    spec = tiny("paper-import")
    record = run.run_workload("paper-import", spec, seed=3, seconds=0.0, trace=False, settings=SETTINGS)
    assert record["failed"] == record["attempted"]
    assert record["metrics"]["error_rate"][0] == 1.0
    assert "prob.raw differs" in record["errors"][0]
    assert not run.result_line(record, BENCH)["correct"]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    argv = ["--workload", "desk-ablate", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *argv],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
