"""Events: ordering, identities, antimessage pairing, pickling.

The pickling tests exist because the multiprocess backend ships events
across process boundaries inside pickled batches: an event (and every
value type a VHDL payload can carry) must round-trip with its ordering
key, its antimessage identity, and — for ``StdLogic`` — its interned
singleton identity intact.
"""

import copy
import pickle

import pytest
from hypothesis import given, strategies as st

from repro.core.event import Event, EventId, EventKind, fresh_event_id
from repro.core.vtime import INFINITY, MINUS_INFINITY, VirtualTime
from repro.fabric.batched import BatchedEndpoint
from repro.fabric.plan import FaultPlan
from repro.vhdl.values import SL_0, SL_X, StdLogic, sl, slv


def make(pt=0, lt=0, kind=EventKind.USER, dst=0, src=1, seq=0,
         payload=None, sign=1):
    return Event(time=VirtualTime(pt, lt), kind=kind, dst=dst, src=src,
                 payload=payload, sign=sign, eid=EventId(src, seq),
                 send_time=VirtualTime(0, 0))


class TestOrdering:
    def test_time_dominates(self):
        early = make(pt=1, lt=9, kind=EventKind.PROCESS_RUN)
        late = make(pt=2, lt=0, kind=EventKind.NULL)
        assert early < late

    def test_kind_breaks_time_ties_deterministically(self):
        a = make(kind=EventKind.SIGNAL_ASSIGN)
        b = make(kind=EventKind.PROCESS_RUN)
        assert a < b  # SIGNAL_ASSIGN has the lower kind priority value

    def test_eid_breaks_remaining_ties(self):
        a = make(seq=1)
        b = make(seq=2)
        assert a < b

    @given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5),
                              st.integers(0, 100)), min_size=2, max_size=20))
    def test_sort_is_total_and_stable(self, specs):
        events = [make(pt=p, lt=l, seq=s) for p, l, s in specs]
        ordered = sorted(events)
        for x, y in zip(ordered, ordered[1:]):
            assert x.sort_key() <= y.sort_key()


class TestAntimessages:
    def test_antimessage_mirrors_fields(self):
        e = make(pt=3, lt=2, payload="x")
        a = e.antimessage()
        assert a.sign == -1
        assert a.time == e.time
        assert a.eid == e.eid
        assert a.payload == e.payload
        assert a.is_antimessage

    def test_antimessage_of_antimessage_rejected(self):
        with pytest.raises(ValueError):
            make().antimessage().antimessage()

    def test_matches(self):
        e = make(seq=7)
        assert e.antimessage().matches(e)
        assert e.matches(e.antimessage())
        assert not e.matches(make(seq=8).antimessage())
        assert not e.matches(e)  # same sign never matches

    def test_null_flag(self):
        assert make(kind=EventKind.NULL).is_null
        assert not make(kind=EventKind.USER).is_null


class TestEventId:
    def test_fresh_ids_unique(self):
        ids = {fresh_event_id(3) for _ in range(100)}
        assert len(ids) == 100

    def test_ordering(self):
        assert EventId(1, 5) < EventId(2, 0)
        assert EventId(1, 5) < EventId(1, 6)


class TestPickling:
    """Round-trips across the multiprocess backend's IPC boundary."""

    def roundtrip(self, obj):
        return pickle.loads(pickle.dumps(obj))

    def test_event_roundtrip_preserves_ordering_key(self):
        e = make(pt=7, lt=3, kind=EventKind.SIGNAL_ASSIGN, dst=4,
                 src=2, seq=9, payload=("sig", 1))
        back = self.roundtrip(e)
        assert back.sort_key() == e.sort_key()
        assert back.time == e.time
        assert back.eid == e.eid
        assert back.kind is e.kind
        assert back.payload == e.payload
        assert back.send_time == e.send_time

    def test_antimessage_identity_survives(self):
        e = make(pt=3, seq=5, payload="x")
        anti = self.roundtrip(e.antimessage())
        assert anti.is_antimessage
        assert anti.matches(self.roundtrip(e))

    def test_virtual_time_roundtrip(self):
        t = VirtualTime(123, 45)
        assert self.roundtrip(t) == t
        assert isinstance(self.roundtrip(t), VirtualTime)

    def test_stdlogic_singletons_survive(self):
        """Interned scalars keep ``is`` identity across processes
        (StdLogic.__reduce__ re-routes unpickling through the
        constructor's intern table)."""
        for char in "UX01ZWLH-":
            value = sl(char)
            assert self.roundtrip(value) is value

    def test_vector_payload_roundtrip(self):
        vec = slv("01XZ")
        back = self.roundtrip(vec)
        assert back == vec
        assert all(b is v for b, v in zip(back, vec))

    def test_event_with_stdlogic_payload(self):
        e = make(kind=EventKind.SIGNAL_UPDATE, payload=(3, SL_0))
        back = self.roundtrip(e)
        assert back.payload[1] is SL_0
        assert back.payload[1] is not SL_X

    def test_batch_roundtrip_preserves_sort(self):
        events = [make(pt=p, lt=l, seq=s)
                  for p, l, s in [(2, 0, 1), (1, 3, 2), (1, 3, 1),
                                  (5, 0, 0)]]
        back = self.roundtrip(events)
        assert [e.sort_key() for e in sorted(back)] \
            == [e.sort_key() for e in sorted(events)]

    def test_stdlogic_rejects_bad_code_on_unpickle_path(self):
        with pytest.raises(ValueError):
            StdLogic(17)


class TestFlatPickleForms:
    """``VirtualTime``, ``EventId`` and ``Event`` pickle through flat
    module-level constructors (checkpoint images, pipe batches and
    dist frames hold thousands of them); the reconstructed objects must
    be indistinguishable from the originals."""

    def roundtrip(self, obj):
        return pickle.loads(pickle.dumps(obj, pickle.HIGHEST_PROTOCOL))

    @pytest.mark.parametrize("vt", [VirtualTime(0, 0), VirtualTime(7, 3),
                                    INFINITY, MINUS_INFINITY])
    def test_virtual_time(self, vt):
        back = self.roundtrip(vt)
        assert type(back) is VirtualTime
        assert back == vt and back.pt == vt.pt and back.lt == vt.lt

    def test_infinities_keep_float_pt_and_order(self):
        for vt in (INFINITY, MINUS_INFINITY):
            assert type(self.roundtrip(vt).pt) is float
        assert self.roundtrip(MINUS_INFINITY) < VirtualTime(0, 0) \
            < self.roundtrip(INFINITY)

    @pytest.mark.parametrize("kind", list(EventKind))
    @pytest.mark.parametrize("with_eid", [True, False])
    def test_event_every_kind_with_and_without_eid(self, kind, with_eid):
        event = Event(time=VirtualTime(11, 4), kind=kind, dst=3, src=8,
                      payload=(5, SL_0), sign=1,
                      eid=EventId(8, 42) if with_eid else None,
                      send_time=VirtualTime(9, 1), epoch=6)
        for e in (event, event.antimessage()) if with_eid else (event,):
            back = self.roundtrip(e)
            assert back == e
            assert back.kind is kind
            assert type(back.time) is VirtualTime
            assert type(back.send_time) is VirtualTime
            assert back.sign == e.sign and back.epoch == e.epoch
            assert back.payload[1] is SL_0
            if with_eid:
                assert type(back.eid) is EventId and back.eid == e.eid
            else:
                assert back.eid is None
            assert back.sort_key() == e.sort_key()
            assert hash(back) == hash(e)

    def test_event_id(self):
        back = self.roundtrip(EventId(3, 17))
        assert type(back) is EventId and back == EventId(3, 17)

    def test_journal_and_unacked_still_share_one_event(self):
        # An uploaded endpoint must not double in size (or split one
        # message into two objects) on the way through pickle.
        endpoint = BatchedEndpoint(FaultPlan(), 0)
        endpoint.encode(1, [make(pt=p, seq=p) for p in range(3)])
        back = self.roundtrip(endpoint)
        link = back._out_link(1)
        for seq, event in link.journal.items():
            assert link.unacked[seq][0] is event

    def test_copy_and_deepcopy(self):
        e = make(pt=4, lt=1, seq=2, payload=[1, 2])
        shallow, deep = copy.copy(e), copy.deepcopy(e)
        assert shallow == e and deep == e
        assert shallow.payload is e.payload
        assert deep.payload is not e.payload
        assert copy.deepcopy(VirtualTime(5, 2)) == VirtualTime(5, 2)
        assert type(copy.copy(INFINITY)) is VirtualTime

    def test_old_form_pickles_still_load(self, monkeypatch):
        e = make(pt=6, lt=2, kind=EventKind.SIGNAL_ASSIGN, seq=4,
                 payload=("a", 1))
        monkeypatch.delattr(Event, "__reduce__")
        monkeypatch.delattr(EventId, "__reduce__")
        monkeypatch.delattr(VirtualTime, "__reduce__")
        old = pickle.dumps(e, pickle.HIGHEST_PROTOCOL)
        monkeypatch.undo()
        assert b"_event" not in old
        back = pickle.loads(old)
        assert back == e and type(back.time) is VirtualTime

    def test_flat_form_is_smaller(self, monkeypatch):
        events = [make(pt=p, lt=p % 3, seq=p, payload=(p, SL_0))
                  for p in range(200)]
        flat = len(pickle.dumps(events, pickle.HIGHEST_PROTOCOL))
        for cls in (Event, EventId, VirtualTime):
            monkeypatch.delattr(cls, "__reduce__")
        generic = len(pickle.dumps(events, pickle.HIGHEST_PROTOCOL))
        assert flat < 0.6 * generic
