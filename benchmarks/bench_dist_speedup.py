"""Wall-clock speedup of the distributed backend (dist) — honestly.

Measures **real wall-clock time** of the dist backend (standalone
worker daemons over localhost TCP) against the sequential reference
engine and the multiprocess backend on the same circuits, with
identical committed results enforced.

Two regimes, because the honest story has two halves:

* **latency-weighted** — ``repro.circuits.build_pipeline_bank``: every
  stage event blocks for a few milliseconds, modelling external model
  evaluation (co-simulation, an RPC federate).  Blocking overlaps
  across workers, so both real backends beat sequential; dist pays TCP
  framing + the coordinator relay hop on top of what procs pays, and
  the gap between the procs and dist rows *is* that network tax.
* **fine-grained** — the paper's fsm circuit, where an event body is
  cheaper than the bookkeeping around it.  Here distribution can only
  lose on a single host: every event crosses the wire twice
  (worker -> coordinator -> worker) and the committed transcript
  records the slowdown rather than hiding it.  This regime is what
  the *modelled* benchmarks (bench_fsm_speedup etc.) are for; the row
  is here so nobody mistakes the dist backend for a free lunch.

The transcript lives at ``results/dist_speedup.txt``.
"""

import os
import time

from conftest import emit

from repro.circuits import build_fsm, build_pipeline_bank
from repro.core.sequential import SequentialSimulator
from repro.parallel.dist import run_dist
from repro.parallel.procs import run_procs
from repro.vhdl import simulate

#: Independent pipelines (the parallelism the backends can exploit).
CHAINS = 4
#: Weighted stages per pipeline.
STAGES = 3
#: Stimulus events injected per pipeline.
EVENTS = 60
#: Latency weight: blocking external-model wait per stage event (s).
WAIT_S = 0.004

TIMEOUT_S = float(os.environ.get("REPRO_TEST_TIMEOUT_S", "300"))


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def _bank():
    return build_pipeline_bank(chains=CHAINS, stages=STAGES,
                               events=EVENTS, wait_s=WAIT_S)


def run_weighted():
    """sequential / procs-2 / dist-2 / dist-4 on the weighted bank."""
    t_seq, stats = _timed(lambda: SequentialSimulator(_bank()).run())
    rows = [("sequential", 1, t_seq, 1.0, stats.events_committed, 0, 0.0)]
    runs = [
        ("procs", 2, lambda: run_procs(
            _bank(), 2, protocol="optimistic", partition="block",
            timeout_s=TIMEOUT_S)),
        ("dist", 2, lambda: run_dist(
            _bank(), 2, protocol="optimistic", partition="block",
            timeout_s=TIMEOUT_S)),
        ("dist", 4, lambda: run_dist(
            _bank(), 4, protocol="optimistic", partition="block",
            timeout_s=TIMEOUT_S)),
    ]
    for backend, workers, thunk in runs:
        dt, outcome = _timed(thunk)
        assert outcome.stats.events_committed == stats.events_committed, (
            backend, workers, outcome.stats.events_committed,
            stats.events_committed)
        rows.append((backend, workers, dt, t_seq / dt,
                     outcome.stats.events_committed,
                     *_wire_bytes(outcome.stats)))
    return rows


def _wire_bytes(stats):
    """(framed bytes, counted at both ends; the checkpoint-upload
    share of them)."""
    net = stats.net_bytes_tx + stats.net_bytes_rx
    return net, (stats.net_ckpt_bytes / stats.net_bytes_rx
                 if stats.net_bytes_rx else 0.0)


def run_fine_grained():
    """The paper's fsm circuit: fine-grained events over real TCP."""
    circuit = build_fsm(cells=6, cycles=12)
    t_seq, ref = _timed(lambda: simulate(circuit.design))
    rows = [("sequential", 1, t_seq, 1.0,
             ref.stats.events_committed, 0, 0.0)]
    model = build_fsm(cells=6, cycles=12).design.elaborate()
    dt, outcome = _timed(lambda: run_dist(
        model, 2, protocol="optimistic", timeout_s=TIMEOUT_S))
    assert outcome.stats.events_committed == ref.stats.events_committed
    rows.append(("dist", 2, dt, t_seq / dt,
                 outcome.stats.events_committed,
                 *_wire_bytes(outcome.stats)))
    return rows


def _table(title: str, rows) -> str:
    lines = [title,
             f"  {'backend':12s} {'workers':>7s} {'wall':>9s} "
             f"{'speedup':>8s} {'committed':>10s} {'wire-bytes':>11s} "
             f"{'ckpt-share':>10s}"]
    for backend, workers, dt, speedup, committed, net, share in rows:
        lines.append(f"  {backend:12s} {workers:7d} {dt:8.2f}s "
                     f"{speedup:7.2f}x {committed:10d} {net:11d} "
                     f"{share:10.0%}")
    return "\n".join(lines)


def test_dist_wall_clock_speedup(benchmark):
    cores = len(os.sched_getaffinity(0)) \
        if hasattr(os, "sched_getaffinity") else os.cpu_count()
    weighted_rows, fine_rows = benchmark.pedantic(
        lambda: (run_weighted(), run_fine_grained()),
        rounds=1, iterations=1)

    def row(rows, backend, workers):
        return next(r for r in rows if r[0] == backend
                    and r[1] == workers)

    events = CHAINS * STAGES * EVENTS
    ckpt_share = row(fine_rows, "dist", 2)[6]
    text = "\n\n".join([
        f"dist wall-clock speedup - localhost TCP workers\n"
        f"  host: {cores} usable core(s); every run commits identical "
        f"results (asserted)\n"
        f"  dist worker daemons are auto-spawned subprocesses; their "
        f"startup,\n  the coordinator relay hop and pickle framing are "
        f"all inside the\n  measured wall time — nothing is amortized "
        f"away",
        _table(f"latency-weighted pipeline bank ({CHAINS} chains x "
               f"{STAGES} stages,\n{events} events, "
               f"{WAIT_S * 1000:.0f} ms blocking model-evaluation "
               f"wait each):", weighted_rows),
        _table("fine-grained fsm (cells=6, cycles=12; no event "
               "weight):", fine_rows),
        "reading the numbers:\n"
        "  * on latency-weighted events both real backends beat\n"
        "    sequential: the blocking waits overlap across workers.\n"
        "    procs vs dist at 2 workers isolates the network tax:\n"
        "    every remote event is framed, pickled and relayed\n"
        "    through the coordinator (two TCP hops), and every GVT\n"
        "    commit uploads a durable checkpoint (ckpt-share is\n"
        "    the upload share of the wire bytes).\n"
        "  * on fine-grained events single-host distribution LOSES.\n"
        f"    {ckpt_share:.0%} of that row's wire bytes are checkpoint\n"
        "    uploads, not event framing: one processor image per\n"
        "    GVT commit, and a short optimistic run commits often.\n"
        "    Each upload is taken after the token has moved on and\n"
        "    carries a pruned journal, so it neither stalls the\n"
        "    ring nor grows with run length, but the wire still\n"
        "    pays for it.  The rest is the relay: two TCP hops per\n"
        "    event dwarf microseconds of event body.  That row is\n"
        "    committed on purpose — the dist backend buys host-\n"
        "    spanning scale and process isolation, not single-host\n"
        "    latency.  Multi-host runs (repro serve + --hosts) move\n"
        "    the workers where the cores are, which is the regime\n"
        "    the paper's title is about.",
    ])
    emit("dist_speedup", text)

    # The claims the transcript is committed for:
    dist2 = row(weighted_rows, "dist", 2)[3]
    procs2 = row(weighted_rows, "procs", 2)[3]
    # Real wall-clock speedup over TCP on weighted events.
    assert dist2 > 1.0, dist2
    # The network tax is real: dist must not beat procs by more than
    # noise on one host (if it does, something is being mismeasured).
    assert dist2 < procs2 * 1.25, (procs2, dist2)
    # Fine-grained dist moved real bytes.
    assert row(fine_rows, "dist", 2)[5] > 0
