"""Tiny-duration runs of every workload print every named metric with its unit."""

import json
from pathlib import Path

import pytest
import run
from benchlib import workloads

BENCHMARK = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text()
)


@pytest.fixture
def tiny(monkeypatch):
    """Shrink every phase so a run takes seconds (metrics stay well-formed)."""
    monkeypatch.setattr(workloads, "MIN_REQUESTS", 40)
    monkeypatch.setattr(workloads, "SETUPS", 1)
    monkeypatch.setattr(workloads, "SETUP_MIN_S", 0.0)
    monkeypatch.setattr(workloads, "WARMUP_S", 0.05)


def _result(capsys, argv):
    code = run.main(argv)
    lines = capsys.readouterr().out.strip().splitlines()
    return code, lines, json.loads(lines[-1])


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_prints_every_metric(tiny, capsys, name, trace):
    argv = ["--workload", name, "--seed", "3", "--seconds", "0.3"]
    code, lines, result = _result(capsys, argv + ["--trace", str(trace)])
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert isinstance(reported["value"], float)
        printed = [line.split() for line in lines]
        assert [metric["name"], metric["unit"]] in [w[1:2] + w[-1:] for w in printed]
    stamp = json.loads(lines[0])["stamp"]
    assert stamp["seed"] == 3 and stamp["nproc"] >= 1
    assert stamp["blas_threads"] and stamp["runner_fingerprint"]


def test_missing_program_exits_non_zero(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "ROOT", str(tmp_path))
    assert run.main(["--workload", "mc_saturate"]) != 0
    assert capsys.readouterr().out == ""


def test_corrupted_output_fails_the_run(tiny, capsys, monkeypatch):
    """A served label that is not the argmax makes the run incorrect, exit 1."""
    from repro.serving.workers import threads

    original = threads.assemble_results

    def corrupt(out, response_stager=None):
        results = original(out, response_stager)
        for r in results:
            r.label = (r.label + 1) % len(r.probs)
        return results

    monkeypatch.setattr(threads, "assemble_results", corrupt)
    code, lines, result = _result(
        capsys, ["--workload", "mc_saturate", "--seconds", "0.3", "--trace", "0"]
    )
    assert code == 1
    assert not result["correct"] and result["failed"] > 0
    assert any("VIOLATION" in line for line in lines)


def test_worker_processes_trace_through_the_start_up_hook():
    """Spawned workers import run.py as __mp_main__ and record their spans."""
    import subprocess
    import sys

    root = Path(__file__).resolve().parents[2]
    argv = ["--workload", "exit_burst", "--seed", "5", "--seconds", "0.3"]
    argv += ["--trace", "1"]
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", *argv],
        cwd=root,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    # compute and the layer kinds run only inside the worker processes
    assert metrics["workers.compute_ms_p50"] > 0
    assert metrics["nn.conv2d.ms_per_req"] > 0
    assert metrics["workers.transport_us_p50"] > 0
    assert metrics["workers.ring_batch_ratio"] > 0.9
    assert 0 < metrics["inference.exit0_share"] < 1


def test_run_waits_for_every_process_it_started(tiny, capsys):
    """The process backend's workers and its resource tracker end with the run."""
    import multiprocessing
    from multiprocessing import resource_tracker

    argv = ["--workload", "exit_burst", "--seed", "3", "--seconds", "0.3"]
    code, _, _ = _result(capsys, argv + ["--trace", "0"])
    assert code == 0
    assert multiprocessing.active_children() == []
    assert resource_tracker._resource_tracker._pid is None
