"""The benchmark's workloads, and the oracle every call is checked by.

Each workload turns the seed into inputs, resolves them to runnable
design artifacts (its set-up), and runs rounds of simulation calls
through the public API.  Every call's committed waves are digested
and compared with the sequential engine's; a call that raises, times
out or commits other waves is a failure, and its time and events are
left out of the throughput.

Why these five (also recorded in BENCHMARK.json):

* ``seq-gate``: the paper's three gate circuits on the sequential
  engine -- signal plumbing and the event queue, nothing else;
* ``model-p14``: the modelled machine at the paper's P=14, IIR under
  ``dynamic`` (rollbacks, snapshots, fossils) and DCT under
  ``conservative`` (blocking, deadlock recovery, release floors);
* ``procs-p2``: the multiprocess backend, the only layer beyond the
  shared engine being IPC and the token ring;
* ``dist-p2``: the same worker loop behind TCP daemons, the only
  workload that crosses the wire;
* ``vhdl-fleet``: the VHDL frontend, the elaboration cache, the
  compiler and the run service, which every gate workload bypasses.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

import repro
import repro.circuits as circuits
import repro.vhdl.cache as elab_cache
from repro.circuits import (bus_finals, reference_product,
                            reference_response, reference_taps)
from repro.circuits.vhdl_text import fsm_vhdl, random_behavioral_vhdl
from repro.service import BatchJob, RunService, RunSpec, VhdlJob
from repro.vhdl import simulate, simulate_parallel

#: Deadline handed to the real backends, so that a hung run is a
#: failed call rather than a hung benchmark.
CALL_TIMEOUT_S = 60.0
#: Deadline of the subprocess that repeats the model's calls.
CHECK_TIMEOUT_S = 90.0


def digest(result) -> str:
    """Digest of a run's committed waves and final signal values."""
    h = hashlib.sha256()
    for name in sorted(result.traces):
        h.update(name.encode())
        for time_, value in result.traces[name]:
            h.update(f"{time_[0]},{time_[1]},{value!s};".encode())
    for name in sorted(result.finals):
        h.update(f"{name}={result.finals[name]!s};".encode())
    return h.hexdigest()


def signature(result) -> tuple:
    """The modelled machine's counts that must repeat exactly."""
    stats = result.stats
    return (result.parallel_time, stats.events_executed, stats.rollbacks,
            stats.gvt_rounds, stats.deadlock_recoveries)


@dataclass
class Call:
    """One timed simulation call."""

    kind: str  # "seq" | "model" | "procs" | "dist"
    label: str
    wall: float
    events: int = 0
    stats: Any = None
    makespan: Optional[float] = None
    error: Optional[str] = None


@dataclass
class Round:
    """The calls of one pass over a workload's designs."""

    calls: List[Call] = field(default_factory=list)
    #: Batch wall time no single run accounts for (run service only).
    overhead: float = 0.0
    cache_hits: int = 0
    resolves: int = 0

    @property
    def ok(self) -> List[Call]:
        return [c for c in self.calls if c.error is None]

    @property
    def wall(self) -> float:
        return sum(c.wall for c in self.ok) + self.overhead

    @property
    def events(self) -> int:
        return sum(c.events for c in self.ok)

    @property
    def failed(self) -> int:
        return len(self.calls) - len(self.ok)


@dataclass
class Job:
    """One design of a workload and the call that runs it."""

    label: str
    kind: str
    build: Callable[[], Any]
    run: Callable[[Any], Any]
    #: Independent check of the oracle run against a pure-Python
    #: model of the circuit; returns a problem description or None.
    reference: Callable[[Any], Optional[str]] = lambda result: None


def _seq(artifact):
    return simulate(artifact)


def _parallel(backend: str, processors: int, protocol: str):
    def run(artifact):
        options = {} if backend == "model" else {"timeout_s": CALL_TIMEOUT_S}
        return simulate_parallel(artifact, processors, protocol=protocol,
                                 backend=backend, **options)
    return run


# ----------------------------------------------------------------------
# Gate circuits and their pure-Python references
# ----------------------------------------------------------------------
def fsm_job(rng: random.Random, run, kind: str, cycles: int = 32) -> Job:
    """The paper's FSM ring; the seed picks the ring length around the
    paper's 46 cells (554 LPs)."""
    cells = 46 + rng.randint(-2, 2)
    names: List[str] = []

    def build():
        circuit = circuits.build_fsm(cells=cells, cycles=cycles)
        names[:] = [wire.name for wire in circuit.taps]
        return circuit

    def reference(result):
        got = [1 if result.finals[n].to_bool() else 0 for n in names]
        if got != reference_taps(cells, cycles):
            return "fsm taps differ from reference_taps"
        return None

    return Job("fsm", kind, build, run, reference)


def iir_job(rng: random.Random, run, kind: str, samples: int = 16,
            extra_cycles: int = 4) -> Job:
    """The gate lattice IIR (1487 LPs) fed seed-drawn samples.

    Shaped like the default stimulus: a quarter of the samples are
    non-zero multiples of 16.  A dense full-range random stream keeps
    the resonant filter toggling on every edge, and its event count
    swings threefold from seed to seed.
    """
    stream = [0] * samples
    for _ in range(samples // 4):
        stream[rng.randrange(samples)] = 16 * rng.randrange(1, 16)
    stream = tuple(stream)
    coefficients = circuits.iir.DEFAULT_COEFFS

    def build():
        return circuits.build_iir(samples=stream,
                                  extra_cycles=extra_cycles)

    def reference(result):
        ref = reference_response(stream, coefficients,
                                 extra_cycles=extra_cycles)
        # One cycle of feed latency: after the last edge the
        # registered output holds the reference two cycles back.
        if bus_finals(result, "y", 8) != ref[len(ref) - 2]:
            return "iir output differs from reference_response"
        return None

    return Job("iir", kind, build, run, reference)


def dct_job(rng: random.Random, run, kind: str) -> Job:
    """The gate MAC-array DCT (1434 LPs) over a seed-drawn block."""
    block = tuple(tuple(rng.randrange(16) for _ in range(4))
                  for _ in range(4))

    def build():
        return circuits.build_dct(block=block)

    def reference(result):
        want = reference_product(block=block)
        got = [[bus_finals(result, f"acc{i}{k}", 4) for k in range(4)]
               for i in range(4)]
        if got != want:
            return "dct accumulators differ from reference_product"
        return None

    return Job("dct", kind, build, run, reference)


# ----------------------------------------------------------------------
class Workload:
    """Designs built from the seed, run as rounds of timed calls."""

    name = ""
    #: Span names the traced run wraps (see tracing.ENTRY_POINTS).
    spans: tuple = ()

    def __init__(self, seed: int, scratch: str) -> None:
        self.scratch = scratch
        self.oracle: Dict[str, str] = {}
        #: First call's deterministic counts per label (model only).
        self.signatures: Dict[str, tuple] = {}
        self.problems: List[str] = []
        #: Checks made by :meth:`cross_check`, for the attempted count.
        self.cross_checks = 0

    def setup(self) -> List[Any]:
        """Inputs -> runnable artifacts; the timed set-up."""
        raise NotImplementedError

    def warm(self, artifacts) -> None:
        """Untimed: compute the oracle digests, warm the backend."""
        raise NotImplementedError

    def round(self, artifacts) -> Round:
        raise NotImplementedError

    def artifact_bytes(self, artifacts) -> int:
        return sum(len(artifact.payload) for artifact in artifacts)

    def close(self) -> None:
        """Release what set-up left on disk."""

    def cross_check(self) -> None:
        """Untimed, after the rounds: checks that need another process."""

    # ------------------------------------------------------------------
    def _check(self, call: Call, result) -> None:
        """Oracle gate: waves, then the model's deterministic counts."""
        if digest(result) != self.oracle.get(call.label):
            call.error = "committed waves differ from the oracle"
            return
        if call.kind != "model":
            return
        counts = signature(result)
        first = self.signatures.setdefault(call.label, counts)
        if counts != first:
            call.error = (f"deterministic counts drifted: {counts} "
                          f"!= {first}")


class GateWorkload(Workload):
    """Programmatic gate circuits: build, snapshot, run per artifact."""

    #: Small design run once through the backend before timing, so the
    #: first fork or daemon start is not measured.
    warm_backend: Optional[Callable[[Any], Any]] = None

    def __init__(self, seed: int, scratch: str) -> None:
        super().__init__(seed, scratch)
        self.jobs = self.make_jobs(random.Random(seed))

    def make_jobs(self, rng: random.Random) -> List[Job]:
        raise NotImplementedError

    def setup(self) -> List[Any]:
        artifacts = [job.build().design.artifact() for job in self.jobs]
        for artifact in artifacts:
            artifact.instantiate().elaborate()
        return artifacts

    def warm(self, artifacts) -> None:
        for job, artifact in zip(self.jobs, artifacts):
            result = simulate(artifact)
            self.oracle[job.label] = digest(result)
            problem = job.reference(result)
            if problem:
                self.problems.append(problem)
        if self.warm_backend is not None:
            self.warm_backend(
                circuits.build_fsm(cells=4, cycles=2).design.artifact())

    def round(self, artifacts) -> Round:
        out = Round()
        for job, artifact in zip(self.jobs, artifacts):
            call = Call(job.kind, job.label, 0.0)
            start = time.perf_counter()
            try:
                result = job.run(artifact)
            except Exception as failure:  # noqa: BLE001 - counted, reported
                call.wall = time.perf_counter() - start
                call.error = f"{type(failure).__name__}: {failure}"
                out.calls.append(call)
                continue
            call.wall = time.perf_counter() - start
            call.events = result.stats.events_committed
            call.stats = result.stats
            call.makespan = result.parallel_time
            self._check(call, result)
            out.calls.append(call)
        return out


class SeqGate(GateWorkload):
    name = "seq-gate"
    spans = ("circuits.build", "artifact.snapshot", "artifact.instantiate",
             "design.elaborate", "sequential.run", "process.simulate",
             "signal.simulate")

    def make_jobs(self, rng):
        return [fsm_job(rng, _seq, "seq"), iir_job(rng, _seq, "seq"),
                dct_job(rng, _seq, "seq")]


class ModelP14(GateWorkload):
    name = "model-p14"
    spans = ("circuits.build", "artifact.snapshot", "artifact.instantiate",
             "design.elaborate", "machine.run", "machine.gvt",
             "engine.act", "engine.fossil", "engine.local_min",
             "process.simulate", "signal.simulate")

    def __init__(self, seed: int, scratch: str) -> None:
        super().__init__(seed, scratch)
        self.seed = seed

    def make_jobs(self, rng):
        return [iir_job(rng, _parallel("model", 14, "dynamic"), "model",
                        samples=8, extra_cycles=2),
                dct_job(rng, _parallel("model", 14, "conservative"),
                        "model")]

    def cross_check(self) -> None:
        """Compare the run's counts with a fresh interpreter's.

        Drift that depends on the process (hash seed, set or dict
        order) gives every call of one run the same counts, so the
        calls of a subprocess with another hash seed are the reference.
        """
        self.cross_checks += len(self.jobs)
        try:
            there = elsewhere(self.name, self.seed, self.scratch)
        except (subprocess.SubprocessError, ValueError) as failure:
            self.problems.append(f"cross-process check: {failure}")
            return
        for job in self.jobs:
            here = self.signatures.get(job.label)
            if here is not None and there.get(job.label) != here:
                self.problems.append(
                    f"{job.label}: deterministic counts differ in another "
                    f"process: {there.get(job.label)} != {here}")


def elsewhere(name: str, seed: int, scratch: str) -> Dict[str, tuple]:
    """Model counts of a gate workload's jobs, each run once in a
    subprocess whose hash seed differs from this one's."""
    hash_seed = "1" if os.environ.get("PYTHONHASHSEED") == "0" else "0"
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__), name, str(seed),
         scratch], env=env, capture_output=True, text=True,
        timeout=CHECK_TIMEOUT_S, check=True)
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise ValueError("no counts printed")
    return {label: tuple(counts)
            for label, counts in json.loads(lines[-1]).items()}


class ProcsP2(GateWorkload):
    name = "procs-p2"
    spans = ("circuits.build", "artifact.snapshot", "artifact.instantiate",
             "design.elaborate", "procs.run")
    warm_backend = staticmethod(_parallel("procs", 2, "conservative"))

    def make_jobs(self, rng):
        return [fsm_job(rng, self.warm_backend, "procs", cycles=12)]


class DistP2(GateWorkload):
    name = "dist-p2"
    spans = ("circuits.build", "artifact.snapshot", "artifact.instantiate",
             "design.elaborate", "wire.send", "wire.recv")
    warm_backend = staticmethod(_parallel("dist", 2, "conservative"))

    def make_jobs(self, rng):
        return [fsm_job(rng, self.warm_backend, "dist", cycles=3)]


class VhdlFleet(Workload):
    """Seed-drawn behavioural VHDL designs plus the VHDL FSM ring."""

    name = "vhdl-fleet"
    spans = ("frontend.elab", "artifact.instantiate", "design.elaborate",
             "compile.lower", "service.resolve", "service.run_batch",
             "sequential.run", "process.simulate", "signal.simulate")
    designs = 30

    def __init__(self, seed: int, scratch: str) -> None:
        super().__init__(seed, scratch)
        rng = random.Random(seed)
        self.sources = [
            (random_behavioral_vhdl(rng.randrange(1 << 30), processes=3,
                                    cycles=8), "behav_rand",
             ("taps", "data"))
            for _ in range(self.designs)]
        self.sources.append((fsm_vhdl(16 + rng.randint(-2, 2), 8),
                             "fsm_ring", ("taps",)))
        self.jobs = [
            BatchJob(design=VhdlJob(source=source, top=top, traced=traced),
                     runs=[RunSpec(label="interp"),
                           RunSpec(label="compiled", exec_mode="compiled")])
            for source, top, traced in self.sources]
        self.cache: Optional[elab_cache.ElabCache] = None

    def setup(self) -> List[Any]:
        """Cold-elaborate every design into a fresh cache."""
        self.close()
        self.cache = elab_cache.ElabCache(
            root=tempfile.mkdtemp(prefix="elab-", dir=self.scratch))
        artifacts = []
        for source, top, traced in self.sources:
            artifact, _hit = elab_cache.cached_elaborate(
                source, top, traced=traced, cache=self.cache)
            artifact.instantiate().elaborate()
            artifacts.append(artifact)
        return artifacts

    def warm(self, artifacts) -> None:
        for index, artifact in enumerate(artifacts):
            self.oracle[str(index)] = digest(simulate(artifact))

    def round(self, artifacts) -> Round:
        service = RunService(cache=self.cache, max_workers=1)
        start = time.perf_counter()
        batch = service.run_batch(self.jobs)
        wall = time.perf_counter() - start
        out = Round(cache_hits=batch.cache_hits,
                    resolves=batch.cache_hits + batch.elaborations)
        for outcome in batch.outcomes:
            call = Call("seq", str(outcome.job_index), outcome.duration_s,
                        error=outcome.error)
            if outcome.ok:
                call.events = outcome.result.stats.events_committed
                call.stats = outcome.result.stats
                self._check(call, outcome.result)
                cold = artifacts[outcome.job_index].content_hash
                if call.error is None and outcome.content_hash != cold:
                    call.error = "resolved artifact differs from cold one"
            out.calls.append(call)
        out.overhead = wall - sum(c.wall for c in out.calls)
        return out

    def close(self) -> None:
        if self.cache is not None:
            shutil.rmtree(self.cache.root, ignore_errors=True)
            self.cache = None


WORKLOADS = {cls.name: cls for cls in
             (SeqGate, ModelP14, ProcsP2, DistP2, VhdlFleet)}


def main(argv) -> int:
    """``python3 workloads.py WORKLOAD SEED SCRATCH``: run each job of a
    gate workload once and print the model counts of each as JSON."""
    workload = WORKLOADS[argv[1]](int(argv[2]), argv[3])
    artifacts = workload.setup()
    print(json.dumps({job.label: signature(job.run(artifact))
                      for job, artifact in zip(workload.jobs, artifacts)}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
