"""Tests of the benchmark itself.

Run from the root of a checkout::

    python3 -m pytest perfbench -q
"""

import json
import os
import shutil
import subprocess
import sys
from types import SimpleNamespace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import bench  # noqa: E402
import rss  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

from repro.core.sequential import SequentialSimulator  # noqa: E402
from repro.circuits import build_fsm  # noqa: E402
from repro.vhdl import simulate  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)


class TinyFsm(workloads.GateWorkload):
    """A two-cycle FSM ring: the oracle machinery at test size."""

    name = "tiny"

    def make_jobs(self, rng):
        return [workloads.fsm_job(rng, workloads._seq, "seq", cycles=2)]


def _tiny(tmp_path):
    workload = TinyFsm(0, str(tmp_path))
    artifacts = workload.setup()
    workload.warm(artifacts)
    return workload, artifacts


def test_metric_and_workload_names_are_well_formed():
    names = [m["name"] for key in ("end_to_end", "per_layer")
             for m in SPEC[key]] + [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert bench.NAME.match(name), name
    assert {w["name"] for w in SPEC["workloads"]} == set(workloads.WORKLOADS)


def test_injected_digest_mismatch_is_a_failure(tmp_path):
    workload, artifacts = _tiny(tmp_path)
    assert workload.problems == []
    good = workload.round(artifacts)
    assert good.failed == 0 and good.events > 0
    workload.oracle["fsm"] = "0" * 64
    bad = workload.round(artifacts)
    assert bad.failed == 1
    # A failed call's time and events stay out of the throughput.
    assert bad.events == 0 and bad.wall == 0.0
    attempted, failed, errors = bench.counts(
        {"workload": workload, "plain": [good, bad], "traced": []})
    assert (attempted, failed) == (3, 1)
    assert "differ from the oracle" in errors[0]


def test_exception_is_a_failure(tmp_path):
    workload, artifacts = _tiny(tmp_path)

    def explode(artifact):
        raise RuntimeError("boom")

    workload.jobs[0].run = explode
    r = workload.round(artifacts)
    assert r.failed == 1 and "RuntimeError: boom" in r.calls[0].error


def test_model_count_drift_is_a_failure():
    workload = workloads.Workload(0, "")
    stats = SimpleNamespace(events_executed=10, rollbacks=1, gvt_rounds=3,
                            deadlock_recoveries=0)
    result = SimpleNamespace(traces={}, finals={"s": 1}, stats=stats,
                             parallel_time=12.5)
    workload.oracle["m"] = workloads.digest(result)
    first = workloads.Call("model", "m", 1.0)
    workload._check(first, result)
    assert first.error is None
    stats.rollbacks = 2
    again = workloads.Call("model", "m", 1.0)
    workload._check(again, result)
    assert "drifted" in again.error


def test_cross_process_drift_is_a_failure(monkeypatch):
    workload = workloads.ModelP14(0, "")
    workload.signatures = {"iir": (1.0, 2, 0, 3, 0),
                           "dct": (4.0, 5, 0, 6, 1)}
    there = dict(workload.signatures, dct=(4.0, 5, 0, 7, 1))
    monkeypatch.setattr(workloads, "elsewhere", lambda *args: there)
    workload.cross_check()
    assert workload.cross_checks == 2
    assert len(workload.problems) == 1
    assert workload.problems[0].startswith("dct:")


def test_model_counts_repeat_in_another_process(tmp_path):
    workload = workloads.ModelP14(0, str(tmp_path))
    here = {job.label: workloads.signature(job.run(artifact))
            for job, artifact in zip(workload.jobs, workload.setup())}
    assert workloads.elsewhere(workload.name, 0, str(tmp_path)) == here


def test_descendant_memory_is_proportional():
    assert 0 < rss.pss_kb(os.getpid())
    child = subprocess.Popen([sys.executable, "-c", "input()"],
                             stdin=subprocess.PIPE)
    try:
        assert rss.descendants_kb(os.getpid(), -1) > 0
    finally:
        child.communicate(b"\n")


def test_record_round_trips():
    for key in ("end_to_end", "per_layer"):
        specs = SPEC[key]
        values = {s["name"]: 0.5 + i for i, s in enumerate(specs)}
        rec = bench.record(values, specs, attempted=7, failed=0)
        back = json.loads(json.dumps(rec))
        assert back == rec
        bench.check_record(back, specs)
        assert back["correct"] is True


def test_malformed_records_are_rejected():
    specs = SPEC["end_to_end"]
    values = {s["name"]: 1.0 for s in specs}
    with pytest.raises(KeyError):
        bench.record({}, specs, 1, 0)
    rec = bench.record(values, specs, 1, 1)
    assert rec["correct"] is False
    with pytest.raises(ValueError):
        bench.check_record(dict(rec, extra=1), specs)
    with pytest.raises(ValueError):
        bench.check_record(dict(rec, attempted=0), specs)
    extra = dict(rec["metrics"], bogus={"value": 1, "unit": "s"})
    with pytest.raises(ValueError):
        bench.check_record(dict(rec, metrics=extra), specs)


def test_tracer_self_time_and_uninstall():
    original = SequentialSimulator.__dict__["run"]
    tracer = Tracer()
    tracer.install(("sequential.run", "process.simulate",
                    "signal.simulate"))
    tracer.phase = "round0"
    try:
        simulate(build_fsm(cells=3, cycles=2).design)
    finally:
        tracer.uninstall()
    assert SequentialSimulator.__dict__["run"] is original
    totals = tracer.totals("round0")
    count, total, own = totals["sequential.run"]
    children = totals["process.simulate"][1] + totals["signal.simulate"][1]
    assert count == 1
    assert own == pytest.approx(total - children)
    assert tracer.covered("round0") == pytest.approx(total)


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def test_traced_run_prints_every_per_layer_metric():
    done = _run(ROOT, "--workload", "seq-gate", "--seed", "3",
                "--seconds", "1", "--trace", "1")
    assert done.returncode == 0, done.stderr
    rec = json.loads(done.stdout.strip().splitlines()[-1])
    bench.check_record(rec, SPEC["per_layer"])
    assert rec["correct"] and rec["failed"] == 0
    assert rec["metrics"]["signal.events"]["value"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(tmp_path, "--workload", "seq-gate", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert done.stdout == ""
