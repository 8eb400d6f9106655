"""Distributed backend: the token ring over asyncio/TCP.

Differential policy mirrors ``tests/test_procs.py``: every dist run is
compared against a fresh sequential run of the same circuit and the
committed waves must be **byte-identical** — same traces, same commit
count.  On top of the OS interleaving, the transport itself misbehaves
for real here (TCP connections are severed and worker processes are
killed mid-run by deterministic injection), so each passing run is
evidence for the whole recovery stack: counted envelopes, token
custody, checkpoint upload, sent-tail splice and receive-mark restore.

Worker daemons are auto-spawned on localhost (one subprocess each plus
a TCP dial), so a dist run costs noticeably more wall clock than a
procs run.  Tier-1 keeps to the small fsm circuit; the wider protocol
and victim matrices are marked ``slow``.
"""

import os
import pickle

import pytest

from repro.circuits import (build_fsm, build_iir_from_vhdl,
                            build_random)
from repro.core.event import Event, EventId, EventKind
from repro.core.vtime import VirtualTime
from repro.fabric import wire
from repro.fabric.plan import FaultPlan, LinkFaults
from repro.fabric.wire import (HEADER_SIZE, WireError, decode_frame,
                               decode_header, encode_frame)
from repro.parallel.backend import WorkerCore, fresh_token
from repro.parallel.dist import DistMachine, run_dist
from repro.parallel.engine import ProtocolError
from repro.vhdl import simulate

RUN_BUDGET_S = float(os.environ.get("REPRO_TEST_TIMEOUT_S", "120"))


def run_with_budget(model, processors, protocol, **kwargs):
    """Run the dist backend under the module's deadline budget."""
    try:
        return run_dist(model, processors=processors, protocol=protocol,
                        timeout_s=RUN_BUDGET_S, **kwargs)
    except ProtocolError as failure:
        partial = getattr(failure, "partial_stats", None)
        detail = ""
        if partial is not None:
            detail = (f" (partial progress: "
                      f"{partial.events_committed} committed, "
                      f"{partial.events_executed} executed, "
                      f"{partial.rollbacks} rollbacks)")
        pytest.fail(f"dist run failed within {RUN_BUDGET_S:.0f}s "
                    f"budget: {failure}{detail}")


def assert_matches_sequential(build, protocol, processors=2, **kwargs):
    """One differential check: dist waves == sequential waves."""
    ref = simulate(getattr(built := build(), "design", built))
    design = getattr(built := build(), "design", built)
    outcome = run_with_budget(design.elaborate(), processors,
                              protocol, **kwargs)
    traces = {s.name: s.trace() for s in design.signals if s.traced}
    assert traces == ref.traces
    assert outcome.stats.events_committed == ref.stats.events_committed
    return outcome


# ---------------------------------------------------------------------------
# Wire codec (no network).
# ---------------------------------------------------------------------------
class TestWireCodec:
    def test_roundtrip(self):
        obj = ("relay", 3, ("c", 0, 17, ("batch", 1, [])))
        decoded, rest = decode_frame(encode_frame(obj))
        assert decoded == obj
        assert rest == b""

    def test_concatenated_frames_split_in_order(self):
        data = encode_frame("first") + encode_frame("second")
        one, rest = decode_frame(data)
        two, tail = decode_frame(rest)
        assert (one, two, tail) == ("first", "second", b"")

    def test_short_header_rejected(self):
        with pytest.raises(WireError, match="short frame header"):
            decode_header(b"RPRO")

    def test_bad_magic_rejected(self):
        frame = bytearray(encode_frame("x"))
        frame[:4] = b"HTTP"
        with pytest.raises(WireError, match="magic"):
            decode_frame(bytes(frame))

    def test_version_mismatch_rejected(self):
        frame = bytearray(encode_frame("x"))
        frame[4] = wire.VERSION + 1
        with pytest.raises(WireError, match="version mismatch"):
            decode_frame(bytes(frame))

    def test_truncated_payload_rejected(self):
        frame = encode_frame("a long enough payload")
        with pytest.raises(WireError, match="truncated frame"):
            decode_frame(frame[:-3])

    def test_corrupt_length_fails_fast(self):
        """A corrupt length field must fail before any allocation."""
        frame = bytearray(encode_frame("x"))
        frame[HEADER_SIZE - 4:HEADER_SIZE] = \
            (wire.MAX_FRAME + 1).to_bytes(4, "big")
        with pytest.raises(WireError, match="ceiling"):
            decode_frame(bytes(frame))

    def test_oversize_payload_rejected_on_encode(self, monkeypatch):
        monkeypatch.setattr(wire, "MAX_FRAME", 8)
        with pytest.raises(WireError, match="exceeds"):
            encode_frame("much too large for an 8-byte ceiling")


# ---------------------------------------------------------------------------
# Construction-time validation (no network).
# ---------------------------------------------------------------------------
class TestValidation:
    @pytest.fixture(scope="class")
    def model(self):
        return build_random(1).design.elaborate()

    def test_rejects_dynamic_protocol(self, model):
        with pytest.raises(ValueError, match="static protocols only"):
            DistMachine(model, 2, protocol="dynamic")

    def test_rejects_bad_quantum(self, model):
        with pytest.raises(ValueError, match="quantum"):
            DistMachine(model, 2, quantum=0)

    def test_rejects_recovery_off(self, model):
        with pytest.raises(ValueError, match="recovery"):
            DistMachine(model, 2, recovery=False)

    def test_rejects_more_hosts_than_workers(self, model):
        with pytest.raises(ValueError, match="hosts"):
            DistMachine(model, 2,
                        hosts=["a:1", "b:2", "c:3"])

    def test_rejects_kills_on_external_hosts(self, model):
        with pytest.raises(ValueError, match="kill injection"):
            DistMachine(model, 2, kills=[(3, 0)],
                        hosts=["somehost:7421", "otherhost:7421"])

    def test_rejects_unpicklable_partition(self, model):
        with pytest.raises(ValueError, match="partition"):
            DistMachine(model, 2,
                        partition=lambda m, p: [0] * len(m.lps))

    def test_rejects_nonpositive_timeout(self, model):
        with pytest.raises(ValueError, match="timeout_s"):
            DistMachine(model, 2).run(timeout_s=0.0)


# ---------------------------------------------------------------------------
# Kill-recovery machinery of the worker core (no network).
# ---------------------------------------------------------------------------
class _Recorder(WorkerCore):
    """A worker core whose transport records envelopes."""

    backend_name = "test"
    processors = 2
    recovery = True
    use_fabric = True
    watchdog_bound = 0.0
    _crash_schedule = []

    def __init__(self, plan):
        self.plan = plan
        self.sent = []
        self._setup_worker(0, proc=None, runtimes={}, placement={})

    def _send_envelope(self, target, envelope):
        self.sent.append((target, envelope))

    def _crash(self):  # reconciliation needs a processor; not tested here
        pass


def _event(seq):
    return Event(time=VirtualTime(seq, 0), kind=EventKind.USER, dst=1,
                 src=0, payload=seq, eid=EventId(0, seq))


class TestWithheldSends:
    """A dropped or held-back copy never reaches the wire, so the
    coordinator's sent-tail used to miss it: a worker killed before
    its next pump came back with a sequence gap its peer's reorder
    buffer waited on forever (the kill-recovery stall)."""

    def test_batch_carries_withheld_and_restore_closes_the_gap(self):
        dead = _Recorder(FaultPlan(drop=1.0, seed=1))
        # What the coordinator holds: the upload, frozen at send time.
        image = pickle.loads(pickle.dumps(dead._durable_image()))
        dead._outbox[1] = [_event(0)]
        dead._flush()
        # The link heals: seq 1 reaches the wire (and the tail).
        dead.endpoint._out_link(1).faults = LinkFaults(FaultPlan(), (0, 1))
        dead._outbox[1] = [_event(1)]
        dead._flush()
        tail = dead.sent
        (_, first), (_, second) = tail
        assert first[3] == ("batch", 0, [], [(0, _event(0))])
        assert second[3] == ("batch", 0, [(1, _event(1))])
        reborn = _Recorder(FaultPlan())
        reborn._restore_incarnation(image, list(tail), {})
        link = reborn.endpoint._out_link(1)
        assert sorted(link.journal) == [0, 1]
        assert sorted(link.unacked) == [0, 1]
        assert link.next_seq == 2
        assert reborn._sent_to == {1: 2}


class TestRingStallBreaker:
    """After a kill, a restored LP can hold a withheld cancellation whose
    send time is the GVT and have nothing left to execute: the entry
    pins GVT and nothing ever passes it.  The initiator detects the
    frozen ring and asks every worker to flush inclusively."""

    @staticmethod
    def completed(wave, moved=False, busy=True):
        token = fresh_token(wave, None)
        token.update(low=VirtualTime(35, 27), busy=busy, moved=moved,
                     anti_low=VirtualTime(35, 27))
        return token

    def initiate(self, core, token):
        core._completed_token = token
        core.sent.clear()
        core._initiate()
        (_, (_tag, fresh)), = core.sent
        return fresh

    def core(self):
        core = _Recorder(FaultPlan())
        core._visit = lambda token: None
        core._gvt_committed = VirtualTime(35, 27)
        return core

    def test_two_frozen_waves_request_a_flush(self):
        core = self.core()
        assert self.initiate(core, self.completed(5))["flush"] is None
        assert self.initiate(core, self.completed(6))["flush"] == \
            VirtualTime(35, 27)
        # One request per detection: the count starts over.
        assert self.initiate(core, self.completed(7))["flush"] is None

    def test_movement_resets_the_count(self):
        core = self.core()
        self.initiate(core, self.completed(5))
        self.initiate(core, self.completed(6, moved=True))
        assert self.initiate(core, self.completed(7))["flush"] is None

    def test_idle_ring_terminates_instead(self):
        core = self.core()
        core._completed_token = self.completed(5, busy=False)
        core._initiate()
        assert core._stop_info is not None


# ---------------------------------------------------------------------------
# Tier-1: differential conformance over real TCP workers.
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("protocol", ["optimistic", "conservative",
                                      "mixed"])
def test_dist_fsm_matches_sequential(protocol):
    outcome = assert_matches_sequential(
        lambda: build_fsm(cells=4, cycles=4), protocol)
    assert outcome.waves >= 1
    assert outcome.gvt_rounds >= 1
    assert outcome.wall_time_s > 0.0
    # The transport is TCP even on localhost: bytes must have moved.
    assert outcome.stats.net_bytes_tx > 0
    assert outcome.stats.net_bytes_rx > 0


def test_dist_fault_plan_drop_dup_reorder():
    """Lossy, duplicating, reordering fabric over TCP; still exact."""
    outcome = assert_matches_sequential(
        lambda: build_fsm(cells=4, cycles=4), "optimistic",
        fault_plan=FaultPlan(drop=0.08, duplicate=0.05, reorder=0.08,
                             seed=7))
    stats = outcome.stats
    assert stats.dropped > 0
    assert stats.retransmitted > 0
    assert stats.acks > 0


def test_dist_forced_disconnect_reconnect():
    """The coordinator severs a live worker connection mid-run; token
    custody and the retransmission pump must heal it exactly."""
    outcome = assert_matches_sequential(
        lambda: build_fsm(cells=4, cycles=4), "optimistic",
        disconnects=[(3, 1)])
    assert outcome.stats.net_reconnects >= 1


def test_dist_worker_kill_recovery():
    """A worker *process* dies mid-run; a fresh daemon restores from
    the last uploaded checkpoint + sent-tail and the committed waves
    still match the sequential oracle."""
    outcome = assert_matches_sequential(
        lambda: build_fsm(cells=4, cycles=4), "optimistic",
        kills=[(2, 1)])
    assert outcome.stats.recoveries >= 1
    assert outcome.stats.net_reconnects >= 1


def test_dist_deadline_raises_protocol_error():
    """A hopeless deadline surfaces as ProtocolError with partial
    stats, not a hang (the error path of the coordinator loop)."""
    model = build_fsm(cells=4, cycles=4).design.elaborate()
    with pytest.raises(ProtocolError, match="deadline"):
        run_dist(model, 2, protocol="optimistic", timeout_s=0.05)


# ---------------------------------------------------------------------------
# Slow matrix: wider circuits, crash faults, every protocol.
# ---------------------------------------------------------------------------
@pytest.mark.slow
@pytest.mark.parametrize("protocol", ["optimistic", "conservative",
                                      "mixed"])
def test_dist_iir_vhdl_matches_sequential(protocol):
    """The paper's IIR filter, compiled from VHDL text, across TCP.

    This is the behavioral iir-vhdl circuit (the one `repro check
    --circuit iir-vhdl --backend dist` gates on).  The *gate-level*
    ``build_iir`` under the optimistic protocol is a known pathology
    on dist: relay latency widens the virtual-time surface and
    unthrottled optimism turns it into a rollback storm (ROADMAP
    item 4 — adaptive throttling — is the designated fix).
    """
    assert_matches_sequential(lambda: build_iir_from_vhdl(),
                              protocol, processors=3)


@pytest.mark.slow
@pytest.mark.parametrize("protocol", ["optimistic", "conservative",
                                      "mixed"])
def test_dist_kill_matrix(protocol):
    """Kill each victim in turn under every protocol."""
    for victim in (0, 1):
        outcome = assert_matches_sequential(
            lambda: build_fsm(cells=4, cycles=4), protocol,
            kills=[(2, victim)])
        assert outcome.stats.recoveries >= 1


@pytest.mark.slow
def test_dist_drop_crash_disconnect_combo():
    """Everything at once: lossy fabric, an in-process crash, a severed
    connection and a killed worker in a single run."""
    outcome = assert_matches_sequential(
        lambda: build_fsm(cells=5, cycles=5), "optimistic",
        fault_plan=FaultPlan(drop=0.05, reorder=0.05,
                             seed=3).with_crashes((2, 0)),
        disconnects=[(4, 0)], kills=[(3, 1)])
    assert outcome.stats.crashes >= 1
    assert outcome.stats.recoveries >= 2
    assert outcome.stats.net_reconnects >= 2
