"""Measure one workload: warm-up, timed set-up, timed rounds, metrics.

A run goes through these steps:

1. warm-up, untimed: one set-up, the sequential oracle of every design
   and, for the real backends, one small run (first fork, first
   daemon start);
2. rounds of simulation calls until the time budget is spent;
   ``events_per_s`` is the median over rounds of committed events per
   second of call wall time;
3. spread between those rounds, :data:`SETUP_REPEATS` timed set-ups,
   each after a full collection; ``setup_s`` is their median;
4. with tracing on, the budget is split: the first half runs untraced
   rounds (the base of ``tracing.overhead``), the second half installs
   the span wrappers and runs one traced set-up plus traced rounds,
   from which every per-layer metric is derived (median over rounds);
5. untimed, checks that need another process (``model-p14`` repeats
   its calls in a fresh interpreter and compares the counts).

Layers a workload bypasses report 0 for their metrics: that is the
"predict no change" row.
"""

from __future__ import annotations

import gc
import json
import os
import re
import resource
import shutil
import statistics
import tempfile
import time
from typing import Any, Dict, List, Optional, Tuple

from rss import Sampler
from tracing import Tracer
from workloads import WORKLOADS, Round

SETUP_REPEATS = 9
#: Rounds every timed pass makes at least (the model's determinism
#: check compares calls within a run).
MIN_ROUNDS = 2

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")


def timed_setup(workload) -> Tuple[Any, float]:
    """One set-up and its time.  A full collection comes first, as
    before a round, so that none owed by earlier work lands in it."""
    gc.collect()
    start = time.perf_counter()
    artifacts = workload.setup()
    return artifacts, time.perf_counter() - start


def run_rounds(workload, artifacts, budget: float,
               tracer: Optional[Tracer] = None,
               setups: Optional[List[float]] = None) -> List[Round]:
    """Rounds until the next one would overrun ``budget`` seconds.

    Given ``setups``, also makes :data:`SETUP_REPEATS` timed set-ups,
    spread evenly over the rounds and outside their budget, and appends
    their times to it; each round runs the newest artifacts.  A
    shared host's speed drifts over seconds, and a burst of set-ups
    would all land in one phase of it.
    """
    rounds: List[Round] = []
    begin = time.perf_counter()
    aside = 0.0  # time spent in set-ups
    spent: List[float] = []
    while True:
        if setups is not None:
            due = 1 + (SETUP_REPEATS - 1) * sum(spent) / budget
            while len(setups) < min(due, SETUP_REPEATS):
                artifacts, took = timed_setup(workload)
                setups.append(took)
                aside += took
        if tracer is not None:
            tracer.phase = f"round{len(rounds)}"
        # Every round starts from the same collector state, so that a
        # full collection owed by earlier rounds does not land in it.
        gc.collect()
        start = time.perf_counter()
        rounds.append(workload.round(artifacts))
        spent.append(time.perf_counter() - start)
        elapsed = time.perf_counter() - begin - aside
        if len(rounds) >= MIN_ROUNDS \
                and elapsed + statistics.median(spent) > budget:
            break
    while setups is not None and len(setups) < SETUP_REPEATS:
        setups.append(timed_setup(workload)[1])
    return rounds


def _rate(rounds: List[Round]) -> float:
    return statistics.median(r.events / r.wall if r.wall else 0.0
                             for r in rounds)


def measure(name: str, seed: int, seconds: float, trace: bool,
            scratch: str) -> Dict[str, Any]:
    """Run one workload; returns the raw measurements."""
    workload = WORKLOADS[name](seed, scratch)
    sampler = Sampler()
    try:
        artifacts = workload.setup()
        workload.warm(artifacts)
        setups: List[float] = []
        budget = seconds / 2 if trace else seconds
        plain = run_rounds(workload, artifacts, budget, setups=setups)
        traced, tracer, traced_artifacts = [], None, artifacts
        if trace:
            tracer = Tracer()
            tracer.install(workload.spans)
            try:
                traced_artifacts = workload.setup()
                traced = run_rounds(workload, traced_artifacts, budget,
                                    tracer)
            finally:
                tracer.uninstall()
    finally:
        workload.close()
        children_mb = sampler.stop()
    # After the sampler stops: the checking interpreter is the
    # benchmark's, not the program's, memory.
    workload.cross_check()
    self_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {"workload": workload, "setups": setups, "plain": plain,
            "traced": traced, "tracer": tracer,
            "traced_artifacts": traced_artifacts,
            "peak_rss_mb": self_mb + children_mb}


# ----------------------------------------------------------------------
def end_to_end(raw: Dict[str, Any]) -> Dict[str, float]:
    return {"events_per_s": _rate(raw["plain"]),
            "setup_s": statistics.median(raw["setups"]),
            "peak_rss_mb": raw["peak_rss_mb"]}


def _per_call_us(rounds: List[Round], kind: str, executed: bool) -> float:
    """Median over rounds of call wall per event of one call kind."""
    values = []
    for r in rounds:
        calls = [c for c in r.ok if c.kind == kind]
        events = sum(c.stats.events_executed if executed else c.events
                     for c in calls)
        if events:
            values.append(1e6 * sum(c.wall for c in calls) / events)
    return statistics.median(values) if values else 0.0


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return scale * num / den if den else 0.0


def _round_layers(tracer: Tracer, phase: str, r: Round) -> Dict[str, float]:
    spans = tracer.totals(phase)

    def count(n): return spans.get(n, (0, 0.0, 0.0))[0]
    def total(n): return spans.get(n, (0, 0.0, 0.0))[1]
    def own(n): return spans.get(n, (0, 0.0, 0.0))[2]

    def of(*kinds):
        return [c.stats for c in r.ok if c.kind in kinds]

    def add(stats, attr):
        return sum(getattr(s, attr) for s in stats)

    par, model = of("model", "procs", "dist"), of("model")
    core, dist, seq = of("procs", "dist"), of("dist"), of("seq")
    execs, events = count("process.simulate"), count("signal.simulate")
    dist_events = add(dist, "events_committed")
    rtt_samples = add(dist, "net_rtt_samples")
    return {
        "cache.hit_s": total("cache.hit"),
        "cache.hit_ratio": _ratio(r.cache_hits, r.resolves),
        "compile.lower_s": total("compile.lower"),
        "service.resolve_s": total("service.resolve"),
        "service.overhead_s": r.overhead,
        "process.execs": execs,
        "process.busy_s": total("process.simulate"),
        "process.us_per_exec": _ratio(total("process.simulate"), execs,
                                      1e6),
        "signal.events": events,
        "signal.busy_s": total("signal.simulate"),
        "signal.us_per_event": _ratio(total("signal.simulate"), events,
                                      1e6),
        "sequential.self_s": own("sequential.run"),
        "sequential.us_per_event": _ratio(
            own("sequential.run"), add(seq, "events_committed"), 1e6),
        "engine.executed": add(par, "events_executed"),
        "engine.efficiency": _ratio(add(par, "events_committed"),
                                    add(par, "events_executed")),
        "engine.rollbacks": add(par, "rollbacks"),
        "engine.antimessages": add(par, "antimessages"),
        "engine.snapshots": add(par, "snapshots"),
        "engine.peak_speculative": max(
            (s.peak_speculative for s in par), default=0),
        "engine.act_self_s": own("engine.act"),
        "engine.fossil_s": total("engine.fossil"),
        "engine.local_min_s": total("engine.local_min"),
        "machine.gvt_rounds": add(model, "gvt_rounds"),
        "machine.deadlock_recoveries": add(model, "deadlock_recoveries"),
        "machine.gvt_s": total("machine.gvt"),
        "machine.self_s": own("machine.run"),
        "modelled_makespan": sum(c.makespan for c in r.ok
                                 if c.kind == "model"),
        # The worker core is shared by procs and dist.
        "procs.envelopes": add(core, "ipc_batches"),
        "procs.events_per_envelope": _ratio(add(core, "ipc_events"),
                                            add(core, "ipc_batches")),
        "procs.token_waves": add(core, "token_waves"),
        "procs.gvt_commits": add(core, "gvt_rounds"),
        "wire.bytes_tx": add(dist, "net_bytes_tx"),
        "wire.bytes_rx": add(dist, "net_bytes_rx"),
        "wire.bytes_per_event": _ratio(add(dist, "net_bytes_tx")
                                       + add(dist, "net_bytes_rx"),
                                       dist_events),
        "wire.rtt_mean_ms": _ratio(add(dist, "net_rtt_sum"), rtt_samples,
                                   1e3),
        "wire.rtt_max_ms": 1e3 * max((s.net_rtt_max for s in dist),
                                     default=0.0),
        "wire.send_s": total("wire.send"),
        "wire.recv_wait_s": total("wire.recv"),
        "unattributed_s": r.wall - tracer.covered(phase),
    }


def per_layer(raw: Dict[str, Any]) -> Dict[str, float]:
    tracer: Tracer = raw["tracer"]
    traced, plain = raw["traced"], raw["plain"]
    rows = [_round_layers(tracer, f"round{i}", r)
            for i, r in enumerate(traced)]
    # median_low: every value is one round's actual measurement.
    out = {key: statistics.median_low(row[key] for row in rows)
           for key in rows[0]}
    setup = tracer.totals("setup")

    def setup_total(n): return setup.get(n, (0, 0.0, 0.0))[1]

    out.update({
        "circuits.build_s": setup_total("circuits.build"),
        "artifact.snapshot_s": setup_total("artifact.snapshot"),
        "artifact.instantiate_s": setup_total("artifact.instantiate"),
        "artifact.bytes": raw["workload"].artifact_bytes(
            raw["traced_artifacts"]),
        "design.elaborate_s": setup_total("design.elaborate"),
        "frontend.elab_s": setup_total("frontend.elab"),
        "frontend.designs": setup.get("frontend.elab", (0,))[0],
        "machine.us_per_executed_event": _per_call_us(plain, "model", True),
        "procs.us_per_event": _per_call_us(plain, "procs", False),
        "dist.us_per_event": _per_call_us(plain, "dist", False),
        "tracing.overhead": _ratio(
            statistics.median(r.wall for r in traced),
            statistics.median(r.wall for r in plain)),
    })
    return out


# ----------------------------------------------------------------------
def record(values: Dict[str, float], specs: List[Dict[str, Any]],
           attempted: int, failed: int) -> Dict[str, Any]:
    """The result line: exactly the declared metrics, with units."""
    missing = [s["name"] for s in specs if s["name"] not in values]
    if missing:
        raise KeyError(f"metrics not measured: {missing}")
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed,
            "metrics": {s["name"]: {"value": values[s["name"]],
                                    "unit": s["unit"]} for s in specs}}


def check_record(rec: Dict[str, Any], specs: List[Dict[str, Any]]) -> None:
    """Raise ValueError unless ``rec`` is a well-formed result line."""
    if set(rec) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError(f"record keys {sorted(rec)}")
    if not isinstance(rec["correct"], bool):
        raise ValueError("correct is not a bool")
    for key in ("attempted", "failed"):
        if not isinstance(rec[key], int) or isinstance(rec[key], bool):
            raise ValueError(f"{key} is not a whole number")
    if rec["attempted"] < 1:
        raise ValueError("nothing attempted")
    if set(rec["metrics"]) != {s["name"] for s in specs}:
        raise ValueError("metric names differ from the declared ones")
    for spec in specs:
        metric = rec["metrics"][spec["name"]]
        if not NAME.match(spec["name"]):
            raise ValueError(f"bad metric name {spec['name']!r}")
        if set(metric) != {"value", "unit"} \
                or metric["unit"] != spec["unit"] \
                or not isinstance(metric["value"], (int, float)):
            raise ValueError(f"bad metric {spec['name']}: {metric}")


def counts(raw: Dict[str, Any]) -> Tuple[int, int, List[str]]:
    """Attempted and failed operations, with the failures' reasons."""
    workload = raw["workload"]
    rounds = raw["plain"] + raw["traced"]
    errors = [f"{c.label}: {c.error}" for r in rounds for c in r.calls
              if c.error] + workload.problems
    attempted = sum(len(r.calls) for r in rounds) + len(workload.oracle) \
        + workload.cross_checks
    return attempted, len(errors), errors


def summary(raw: Dict[str, Any]) -> List[str]:
    """Human-readable lines: round walls and the model's clock."""
    lines = ["  set-up times (s): "
             + " ".join(f"{t:.3f}" for t in raw["setups"])]
    for label, rounds in (("untraced", raw["plain"]),
                          ("traced", raw["traced"])):
        if rounds:
            walls = " ".join(f"{r.wall:.3f}" for r in rounds)
            lines.append(f"  {label} round walls (s): {walls}")
    for label, signature in sorted(raw["workload"].signatures.items()):
        makespan, executed, rollbacks, gvt, recoveries = signature
        lines.append(
            f"  modelled_makespan[{label}] {makespan!r} cost "
            f"(executed={executed} rollbacks={rollbacks} "
            f"gvt_rounds={gvt} deadlock_recoveries={recoveries})")
    return lines


def write_trace(raw: Dict[str, Any], path: str) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as handle:
        json.dump(raw["tracer"].dump(), handle)


def scratch_dir(root: str) -> str:
    base = os.path.join(root, ".perfbench")
    os.makedirs(base, exist_ok=True)
    return tempfile.mkdtemp(prefix="run-", dir=base)


def remove(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)
