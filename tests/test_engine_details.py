"""Fine-grained engine mechanics: epochs, null promises, release floors,
lazy-cancellation plumbing."""

import pytest

from repro.core.event import Event, EventId, EventKind
from repro.core.lp import FunctionLP
from repro.core.model import Model, SyncMode
from repro.core.vtime import INFINITY, MINUS_INFINITY, VirtualTime
from repro.parallel.cost import CostModel
from repro.parallel.engine import LPRuntime, Processor
from repro.parallel.machine import ParallelMachine
from repro.vhdl import CombinationalBody, Design, SL_0


def ev(dst, pt, lt=0, src=99, seq=None, payload=None, epoch=-1,
       send=None):
    return Event(time=VirtualTime(pt, lt), kind=EventKind.USER, dst=dst,
                 src=src, payload=payload,
                 eid=EventId(src, seq if seq is not None else pt),
                 send_time=send or VirtualTime(pt, lt), epoch=epoch)


class TestEpochStamping:
    def test_stamped_copies_with_epoch(self):
        event = ev(0, 5)
        stamped = event.stamped(3)
        assert stamped.epoch == 3
        assert event.epoch == -1  # original untouched
        assert stamped.eid == event.eid
        assert stamped.time == event.time

    def test_antimessage_never_carries_promise(self):
        event = ev(0, 5).stamped(2)
        assert event.antimessage().epoch == -1

    def test_unstamped_message_updates_no_clock(self):
        model = Model()
        a = FunctionLP("a", lambda lp, e: None)
        b = FunctionLP("b", lambda lp, e: None)
        model.add_lp(a, SyncMode.CONSERVATIVE)
        model.add_lp(b, SyncMode.CONSERVATIVE)
        model.connect(a, b)
        proc = Processor(0, CostModel())
        runtimes = {}
        for lp in (a, b):
            rt = LPRuntime(lp, SyncMode.CONSERVATIVE,
                           model.predecessors(lp.lp_id),
                           model.successors(lp.lp_id))
            runtimes[lp.lp_id] = rt
            proc.adopt(rt)
        proc.runtime_of = runtimes.__getitem__
        proc.route = lambda e: None
        # Speculative (epoch -1) message: no channel promise recorded.
        proc.deliver(ev(b.lp_id, 9, src=a.lp_id, epoch=-1))
        assert runtimes[b.lp_id].channel_clocks == {}
        # Stamped message: promise recorded under the epoch.
        proc.deliver(ev(b.lp_id, 11, src=a.lp_id, seq=2, epoch=0))
        assert runtimes[b.lp_id].channel_clocks[a.lp_id] == (
            0, VirtualTime(11, 0))

    def test_newer_epoch_supersedes(self):
        model = Model()
        a = FunctionLP("a", lambda lp, e: None)
        b = FunctionLP("b", lambda lp, e: None)
        model.add_lp(a, SyncMode.CONSERVATIVE)
        model.add_lp(b, SyncMode.CONSERVATIVE)
        model.connect(a, b)
        proc = Processor(0, CostModel())
        runtimes = {}
        for lp in (a, b):
            rt = LPRuntime(lp, SyncMode.CONSERVATIVE,
                           model.predecessors(lp.lp_id),
                           model.successors(lp.lp_id))
            runtimes[lp.lp_id] = rt
            proc.adopt(rt)
        proc.runtime_of = runtimes.__getitem__
        proc.route = lambda e: None
        proc.deliver(ev(b.lp_id, 20, src=a.lp_id, seq=1, epoch=0))
        # A *newer* epoch's lower promise replaces the stale higher one.
        proc.deliver(ev(b.lp_id, 12, src=a.lp_id, seq=2, epoch=1,
                        send=VirtualTime(12, 0)))
        assert runtimes[b.lp_id].channel_clocks[a.lp_id] == (
            1, VirtualTime(12, 0))


class TestReleaseFloors:
    def build_chain(self):
        """a -> b -> c (VHDL LPs with 1-phase reaction lookahead)."""
        design = Design("chain")
        a = design.signal("a", SL_0)
        b = design.signal("b", SL_0)
        c = design.signal("c", SL_0)
        design.process("p1", CombinationalBody([a], [b], lambda v: v))
        design.process("p2", CombinationalBody([b], [c], lambda v: v))
        return design

    def test_floor_grows_with_distance(self):
        design = self.build_chain()
        machine = ParallelMachine(design.elaborate(), 2,
                                  protocol="conservative")
        # Seed one event at signal `a`, then compute floors.
        a_id = design["a"].lp_id
        rt_a = machine._runtimes[a_id]
        rt_a.queue = []
        machine._refresh_release_floors()
        floors = {lp.name: machine._runtimes[lp.lp_id].release_floor
                  for lp in design.model.lps}
        # p1 is downstream of a; p2 two hops further: each hop through a
        # kernel LP adds at least one logical phase.
        p1 = floors["p1"]
        p2 = floors["p2"]
        if p1 != INFINITY and p2 != INFINITY:
            assert p2 >= p1

    def test_no_events_means_infinite_floors(self):
        design = self.build_chain()
        machine = ParallelMachine(design.elaborate(), 2,
                                  protocol="conservative")
        for runtime in machine._runtimes.values():
            runtime.queue.clear()
            runtime.cancelled.clear()
        for proc in machine.procs:
            proc.inbox.clear()
            proc.local_fifo.clear()
        machine._refresh_release_floors()
        # With no potential events anywhere, every LP with predecessors
        # gets an unbounded floor.
        for lp in design.model.lps:
            runtime = machine._runtimes[lp.lp_id]
            if runtime.preds:
                assert runtime.release_floor == INFINITY


class TestLazyHelpers:
    def make_proc(self):
        model = Model()
        a = FunctionLP("a", lambda lp, e: None)
        model.add_lp(a)
        proc = Processor(0, CostModel(), lazy_cancellation=True)
        rt = LPRuntime(a, SyncMode.OPTIMISTIC, set(), set())
        proc.adopt(rt)
        proc.runtime_of = {a.lp_id: rt}.__getitem__
        sent = []
        proc.route = sent.append
        return proc, rt, sent

    def test_filter_reuses_identical_message(self):
        proc, rt, sent = self.make_proc()
        original = ev(5, 10, payload="x", seq=1)
        rt.lazy_pending = [original]
        regenerated = ev(5, 10, payload="x", seq=2)
        to_route, record = proc._lazy_filter(rt, [regenerated])
        assert to_route == []            # nothing resent
        assert record == [original]      # entry records the original
        assert rt.lazy_pending == []
        assert proc.stats.lazy_reused == 1

    def test_filter_routes_different_message(self):
        proc, rt, sent = self.make_proc()
        original = ev(5, 10, payload="x", seq=1)
        rt.lazy_pending = [original]
        different = ev(5, 10, payload="y", seq=2)
        to_route, record = proc._lazy_filter(rt, [different])
        assert to_route == [different]
        assert rt.lazy_pending == [original]  # still withheld

    def test_flush_cancels_below_bound(self):
        proc, rt, sent = self.make_proc()
        early = ev(5, 10, seq=1, send=VirtualTime(10, 0))
        late = ev(5, 30, seq=2, send=VirtualTime(30, 0))
        rt.lazy_pending = [early, late]
        proc.flush_lazy(rt, VirtualTime(20, 0))
        assert rt.lazy_pending == [late]
        assert len(sent) == 1
        assert sent[0].sign == -1
        assert sent[0].eid == early.eid

    def test_stalled_flush_is_inclusive(self):
        # The regular flush is strict, so an entry sent *at* GVT would
        # pin it forever; the stall breaker also releases it.
        proc, rt, sent = self.make_proc()
        at_gvt = ev(5, 20, seq=1, send=VirtualTime(20, 0))
        later = ev(5, 30, seq=2, send=VirtualTime(30, 0))
        rt.lazy_pending = [at_gvt, later]
        proc.flush_lazy(rt, VirtualTime(20, 0))
        assert rt.lazy_pending == [at_gvt, later] and sent == []
        assert proc.flush_lazy_stalled(VirtualTime(20, 0))
        assert rt.lazy_pending == [later]
        assert [(e.sign, e.eid) for e in sent] == [(-1, at_gvt.eid)]
        assert not proc.flush_lazy_stalled(VirtualTime(20, 0))
