"""Exactness of the modelled machine's release floors.

``ParallelMachine._refresh_release_floors`` computes every LP's release
floor with a ``pt``-grouped bucket sweep.  The reference below is the
plain heap Dijkstra over ``(pt, lt)`` it replaced, followed by a second
pass over each LP's predecessors.  Both must give every LP the same
floor: on hand-made and random graphs (unit cases), and at every GVT
round of real runs (run-level cases).
"""

import heapq
import random

import pytest

from repro.circuits import build_dct, build_fsm, build_iir
from repro.core.event import Event, EventId, EventKind
from repro.core.lp import FunctionLP
from repro.core.model import Model, SyncMode
from repro.core.sequential import SequentialSimulator
from repro.core.vtime import INFINITY, MINUS_INFINITY, VirtualTime
from repro.parallel.machine import PROTOCOLS, ParallelMachine, run_parallel


def reference_floors(machine):
    """Release floor of every LP by heap Dijkstra (the reference)."""
    potentials = {}
    inflight_floor = {}

    def note(lp_id, time, arriving=False):
        if time < potentials.get(lp_id, INFINITY):
            potentials[lp_id] = time
        if arriving and time < inflight_floor.get(lp_id, INFINITY):
            inflight_floor[lp_id] = time

    for proc in machine.procs:
        for lp_id, runtime in proc.runtimes.items():
            t = runtime.queue_min_time()
            if t != INFINITY:
                note(lp_id, t)
            for negative in runtime.negatives.values():
                note(lp_id, negative.time, arriving=True)
            for pending in runtime.lazy_pending:
                note(pending.dst, pending.time, arriving=True)
        for _at, _seq, event in proc.inbox:
            note(event.dst, event.time, arriving=True)
        for event in proc.local_fifo:
            note(event.dst, event.time, arriving=True)
    for event in machine.fabric.pending_events():
        note(event.dst, event.time, arriving=True)

    model = machine.model
    settled = {}
    heap = [(time, lp_id) for lp_id, time in potentials.items()]
    heapq.heapify(heap)
    while heap:
        time, lp_id = heapq.heappop(heap)
        if lp_id in settled:
            continue
        settled[lp_id] = time
        for nxt in model.successors(lp_id):
            if nxt in settled:
                continue
            la = model.lps[nxt].react_lookahead_phases
            candidate = VirtualTime(time.pt, time.lt + la)
            if candidate < potentials.get(nxt, INFINITY):
                potentials[nxt] = candidate
                heapq.heappush(heap, (candidate, nxt))

    floors = {}
    for lp in model.lps:
        floor = inflight_floor.get(lp.lp_id, INFINITY)
        for j in model.predecessors(lp.lp_id):
            floor = min(floor, settled.get(j, INFINITY))
        floors[lp.lp_id] = floor
    return floors


def swept_floors(machine):
    """Run the machine's sweep from MINUS_INFINITY floors; return them.

    Afterwards each runtime holds max(previous floor, swept floor) —
    exactly what the sweep alone would have left — so a run that is
    checked this way proceeds as it would unchecked.
    """
    runtimes = machine._runtimes
    previous = {lp_id: rt.release_floor for lp_id, rt in runtimes.items()}
    for runtime in runtimes.values():
        runtime.release_floor = MINUS_INFINITY
    SWEEP(machine)
    floors = {lp_id: rt.release_floor for lp_id, rt in runtimes.items()}
    for lp_id, runtime in runtimes.items():
        runtime.release_floor = max(previous[lp_id], floors[lp_id])
    return floors


#: The implementation under test (unpatched, whatever the run-level
#: cases do to the class attribute).
SWEEP = ParallelMachine._refresh_release_floors


class _PendingFabric:
    """Stands in for a fabric that still owes ``events``."""

    def __init__(self, events):
        self.events = events

    def pending_events(self):
        return iter(self.events)


def _event(dst, pt, lt, src=0, seq=0):
    return Event(time=VirtualTime(pt, lt), kind=EventKind.USER, dst=dst,
                 src=src, eid=EventId(src, seq),
                 send_time=VirtualTime(pt, lt))


def _idle_machine(lookaheads, edges, processors=3):
    """A conservative machine over inert LPs with every queue empty."""
    model = Model()
    lps = []
    for i, la in enumerate(lookaheads):
        lp = FunctionLP(f"lp{i}", lambda lp, event: None)
        lp.react_lookahead_phases = la
        model.add_lp(lp, SyncMode.CONSERVATIVE)
        lps.append(lp)
    for src, dst in edges:
        model.connect(lps[src], lps[dst])
    machine = ParallelMachine(model, processors, protocol="conservative")
    machine.fabric = _PendingFabric([])
    return machine


class TestHandCases:
    def test_chain_values(self):
        # 0 -> 1 (la 0) -> 2 (la 1) -> 3 (la 2); 4 is isolated.
        machine = _idle_machine([0, 0, 1, 2, 0],
                                [(0, 1), (1, 2), (2, 3)])
        machine._runtimes[0].push(_event(0, 5, 2))
        floors = swept_floors(machine)
        assert floors == reference_floors(machine)
        assert floors[0] == INFINITY  # nothing feeds LP 0
        assert floors[1] == VirtualTime(5, 2)
        assert floors[2] == VirtualTime(5, 2)  # B_1 = B_0 + 0
        assert floors[3] == VirtualTime(5, 3)  # B_2 = B_1 + 1
        assert floors[4] == INFINITY

    def test_lower_pt_wins_over_closer_source(self):
        # LP 2 is one hop from a pt=3 source and two hops from pt=9.
        machine = _idle_machine([0, 2, 2, 0], [(0, 1), (1, 2), (3, 2)])
        machine._runtimes[0].push(_event(0, 3, 7))
        machine._runtimes[3].push(_event(3, 9, 0))
        floors = swept_floors(machine)
        assert floors == reference_floors(machine)
        # A_2 = min(B_1, B_3) = min((3, 7 + 2), (9, 0)).
        assert floors[2] == VirtualTime(3, 9)

    def test_arrival_caps_floor_directly(self):
        machine = _idle_machine([1, 1], [(0, 1)])
        machine._runtimes[0].push(_event(0, 4, 0))
        machine.procs[0].local_fifo.append(_event(1, 2, 5))
        floors = swept_floors(machine)
        assert floors == reference_floors(machine)
        assert floors[1] == VirtualTime(2, 5)


def _random_case(seed):
    rng = random.Random(seed)
    n = rng.randint(6, 40)
    lookaheads = [rng.choice((0, 1, 2)) for _ in range(n)]
    edges = {(rng.randrange(n), rng.randrange(n))
             for _ in range(rng.randint(0, 3 * n))}
    machine = _idle_machine(lookaheads, sorted(edges),
                            processors=rng.randint(1, 4))
    pts = rng.sample((0, 1, 5, 10, 11), rng.randint(1, 3))
    seq = 0

    def stamp():
        nonlocal seq
        seq += 1
        return rng.choice(pts), rng.randint(0, 8), seq

    runtimes = machine._runtimes
    for lp_id in rng.sample(range(n), rng.randint(0, n // 2)):
        pt, lt, seq_ = stamp()
        runtimes[lp_id].push(_event(lp_id, pt, lt, src=lp_id, seq=seq_))
        if rng.random() < 0.3:
            # An annihilated head below the live one: head() skips it.
            dead = _event(lp_id, pt, max(0, lt - 1), src=lp_id,
                          seq=seq_ + 10_000)
            runtimes[lp_id].push(dead)
            runtimes[lp_id].cancelled.add(dead.eid)
    for _ in range(rng.randint(0, 3)):
        lp_id = rng.randrange(n)
        pt, lt, seq_ = stamp()
        negative = _event(lp_id, pt, lt, seq=seq_)
        runtimes[lp_id].negatives[negative.eid] = negative
    for _ in range(rng.randint(0, 3)):
        owner, dst = rng.randrange(n), rng.randrange(n)
        pt, lt, seq_ = stamp()
        runtimes[owner].lazy_pending.append(
            _event(dst, pt, lt, src=owner, seq=seq_))
    for _ in range(rng.randint(0, 3)):
        proc = rng.choice(machine.procs)
        pt, lt, seq_ = stamp()
        heapq.heappush(proc.inbox,
                       (0.0, seq_, _event(rng.randrange(n), pt, lt,
                                          seq=seq_)))
    for _ in range(rng.randint(0, 2)):
        pt, lt, seq_ = stamp()
        rng.choice(machine.procs).local_fifo.append(
            _event(rng.randrange(n), pt, lt, seq=seq_))
    machine.fabric = _PendingFabric(
        [_event(rng.randrange(n), *stamp()[:2])
         for _ in range(rng.randint(0, 2))])
    return machine


class TestRandomGraphs:
    @pytest.mark.parametrize("seed", range(60))
    def test_matches_reference(self, seed):
        machine = _random_case(seed)
        assert swept_floors(machine) == reference_floors(machine)

    def test_cases_are_not_vacuous(self):
        """The random family reaches LPs through zero-lookahead edges,
        leaves some LPs unreached and spans several physical times."""
        zero_hops = unreached = multi_pt = 0
        for seed in range(60):
            machine = _random_case(seed)
            floors = reference_floors(machine)
            model = machine.model
            unreached += sum(1 for f in floors.values() if f == INFINITY)
            finite = {f.pt for f in floors.values() if f != INFINITY}
            multi_pt += len(finite) > 1
            for lp_id, floor in floors.items():
                if floor == INFINITY:
                    continue
                for nxt in model.successors(lp_id):
                    if model.lps[nxt].react_lookahead_phases == 0:
                        zero_hops += 1
        assert zero_hops > 50 and unreached > 50 and multi_pt > 10


class _Checked:
    """Wraps the sweep: compares with the reference at every round."""

    def __init__(self):
        self.rounds = 0
        self.mismatches = []

    def __call__(self, machine):
        self.rounds += 1
        expected = reference_floors(machine)
        got = swept_floors(machine)
        if got != expected:
            self.mismatches.append(
                {lp_id: (got[lp_id], expected[lp_id])
                 for lp_id in got if got[lp_id] != expected[lp_id]})


def _checked_run(monkeypatch, model, processors, protocol, **kwargs):
    checked = _Checked()
    monkeypatch.setattr(ParallelMachine, "_refresh_release_floors",
                        lambda machine: checked(machine))
    outcome = run_parallel(model, processors, protocol=protocol,
                           max_steps=10_000_000, **kwargs)
    assert checked.rounds > 0
    assert checked.mismatches == []
    return outcome


#: The paper's gate circuits, scaled down to keep the suite quick.
GATE_CIRCUITS = {
    "fsm": lambda: build_fsm(cells=16, cycles=4).design,
    "iir": lambda: build_iir(width=4, samples=(6, 1),
                             extra_cycles=1).design,
    "dct": lambda: build_dct(n=2, extra_cycles=0).design,
}


class TestRunLevel:
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    @pytest.mark.parametrize("circuit", sorted(GATE_CIRCUITS))
    def test_gate_circuits_at_p14(self, monkeypatch, circuit, protocol):
        model = GATE_CIRCUITS[circuit]().elaborate()
        _checked_run(monkeypatch, model, 14, protocol)

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    @pytest.mark.parametrize("seed", [3, 11])
    def test_random_netlist_with_zero_lookahead_lps(self, monkeypatch,
                                                    seed, protocol):
        model = _token_netlist(seed)
        assert any(lp.react_lookahead_phases == 0 for lp in model.lps)
        outcome = _checked_run(monkeypatch, model, 4, protocol,
                               gvt_interval=8)
        reference = _token_netlist(seed)
        SequentialSimulator(reference).run()
        assert outcome.stats.events_committed > 0
        assert ([lp.memory for lp in model.lps]
                == [lp.memory for lp in reference.lps])


def _token_netlist(seed, n=24, tokens=8, hops=40):
    """A random cyclic netlist of plain LPs forwarding hop-counted tokens.

    A third of the LPs keep the base class's zero lookahead; the rest
    declare one or two phases and honour it, so the release floors stay
    sound bounds and every protocol commits the same result.
    """
    rng = random.Random(seed)
    model = Model()
    lps = []

    def forward(lp, event):
        token, left = event.payload
        lp.memory[token] = lp.memory.get(token, 0) + 1
        if left == 0 or not lp.outputs:
            return
        dst = lp.outputs[(token + left) % len(lp.outputs)]
        delay = (token * 7 + left) % 3
        if delay == 2:
            time = VirtualTime(lp.now.pt + 1, 0)
        else:
            time = VirtualTime(lp.now.pt,
                               lp.now.lt + lp.react_lookahead_phases + delay)
        lp.send(dst, time, EventKind.USER, (token, left - 1))

    for i in range(n):
        lp = FunctionLP(f"t{i}", forward)
        lp.react_lookahead_phases = rng.choice((0, 1, 2))
        lp.outputs = []
        model.add_lp(lp, rng.choice(list(SyncMode)))
        lps.append(lp)
    for lp in lps:
        for dst in rng.sample(lps, rng.randint(1, 3)):
            if dst is not lp:
                lp.outputs.append(dst.lp_id)
                model.connect(lp, dst)
    starters = rng.sample(lps, tokens)
    for token, lp in enumerate(starters):
        pt = rng.choice((0, 0, 1, 2))

        def on_init(lp, token=token, pt=pt):
            lp.schedule(VirtualTime(pt, token % 3), EventKind.USER,
                        (token, hops))
        lp._on_init = on_init
    return model
