"""Tests for the discrete-event kernel (repro.des.core)."""

import gc
import heapq

import pytest
from hypothesis import given, strategies as st

from repro.des import (
    AllOf,
    AnyOf,
    Event,
    Interrupt,
    SimulationError,
    Simulator,
)


def test_clock_starts_at_zero():
    assert Simulator().now == 0.0


def test_timeout_advances_clock():
    sim = Simulator()

    def proc():
        yield sim.timeout(2.5)
        return sim.now

    assert sim.run_process(proc()) == 2.5


def test_zero_timeout_runs_at_current_time():
    sim = Simulator()

    def proc():
        yield sim.timeout(0.0)
        return sim.now

    assert sim.run_process(proc()) == 0.0


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.timeout(-1.0)


def test_events_fire_in_time_order():
    sim = Simulator()
    log = []

    def proc(name, delay):
        yield sim.timeout(delay)
        log.append(name)

    sim.spawn(proc("late", 3.0))
    sim.spawn(proc("early", 1.0))
    sim.spawn(proc("mid", 2.0))
    sim.run()
    assert log == ["early", "mid", "late"]


def test_simultaneous_events_fifo_deterministic():
    sim = Simulator()
    log = []

    def proc(name):
        yield sim.timeout(1.0)
        log.append(name)

    for name in "abcde":
        sim.spawn(proc(name))
    sim.run()
    assert log == list("abcde")


def test_run_until_stops_clock():
    sim = Simulator()
    fired = []

    def proc():
        yield sim.timeout(10.0)
        fired.append(True)

    sim.spawn(proc())
    assert sim.run(until=5.0) == 5.0
    assert not fired
    assert sim.run() == 10.0
    assert fired


def test_run_until_past_last_event_fast_forwards():
    sim = Simulator()
    assert sim.run(until=42.0) == 42.0
    assert sim.now == 42.0


def test_run_until_before_now_rejected():
    sim = Simulator()
    sim.run(until=5.0)
    with pytest.raises(SimulationError):
        sim.run(until=4.0)
    assert sim.now == 5.0


def test_call_at_into_the_past_rejected():
    sim = Simulator()
    sim.run(until=1.0)
    with pytest.raises(SimulationError):
        sim.call_at(0.5, lambda: None)


def test_event_value_passes_through_yield():
    sim = Simulator()
    ev = sim.event()

    def trigger():
        yield sim.timeout(1.0)
        ev.succeed("payload")

    def waiter():
        got = yield ev
        return got

    sim.spawn(trigger())
    assert sim.run_process(waiter()) == "payload"


def test_event_fires_once_only():
    sim = Simulator()
    ev = sim.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)


def test_event_value_before_trigger_raises():
    sim = Simulator()
    ev = sim.event()
    with pytest.raises(SimulationError):
        _ = ev.value
    with pytest.raises(SimulationError):
        _ = ev.ok


def test_callback_after_trigger_still_runs():
    sim = Simulator()
    ev = sim.event()
    ev.succeed(7)
    seen = []
    ev.add_callback(lambda e: seen.append(e.value))
    sim.run()
    assert seen == [7]


def test_failed_event_raises_in_process():
    sim = Simulator()
    ev = sim.event()

    def failer():
        yield sim.timeout(1.0)
        ev.fail(RuntimeError("boom"))

    def waiter():
        try:
            yield ev
        except RuntimeError as exc:
            return f"caught {exc}"

    sim.spawn(failer())
    assert sim.run_process(waiter()) == "caught boom"


def test_fail_requires_exception():
    sim = Simulator()
    with pytest.raises(TypeError):
        sim.event().fail("not an exception")  # type: ignore[arg-type]


def test_process_exception_propagates_via_run_process():
    sim = Simulator()

    def bad():
        yield sim.timeout(1.0)
        raise ValueError("inside process")

    with pytest.raises(ValueError, match="inside process"):
        sim.run_process(bad())


def test_process_is_waitable_event():
    sim = Simulator()

    def child():
        yield sim.timeout(2.0)
        return "child result"

    def parent():
        result = yield sim.spawn(child())
        return (sim.now, result)

    assert sim.run_process(parent()) == (2.0, "child result")


def test_yielding_non_event_fails_process():
    sim = Simulator()

    def bad():
        yield 42  # type: ignore[misc]

    proc = sim.spawn(bad())
    sim.run()
    assert proc.triggered and not proc.ok
    assert isinstance(proc.value, SimulationError)


def test_deadlock_detected_by_run_process():
    sim = Simulator()

    def stuck():
        yield sim.event()  # never triggered

    with pytest.raises(SimulationError, match="deadlock"):
        sim.run_process(stuck())


class TestAllOf:
    def test_waits_for_all(self):
        sim = Simulator()

        def proc():
            evs = [sim.timeout(d, value=d) for d in (3.0, 1.0, 2.0)]
            values = yield sim.all_of(evs)
            return (sim.now, values)

        t, values = sim.run_process(proc())
        assert t == 3.0
        assert values == [3.0, 1.0, 2.0]  # input order preserved

    def test_empty_fires_immediately(self):
        sim = Simulator()
        ev = AllOf(sim, [])
        assert ev.triggered and ev.value == []

    def test_failure_propagates(self):
        sim = Simulator()
        bad = sim.event()

        def proc():
            yield sim.all_of([sim.timeout(1.0), bad])

        def failer():
            yield sim.timeout(0.5)
            bad.fail(RuntimeError("nope"))

        sim.spawn(failer())
        with pytest.raises(RuntimeError, match="nope"):
            sim.run_process(proc())


class TestAnyOf:
    def test_first_wins(self):
        sim = Simulator()

        def proc():
            evs = [sim.timeout(3.0, "slow"), sim.timeout(1.0, "fast")]
            index, value = yield sim.any_of(evs)
            return (sim.now, index, value)

        assert sim.run_process(proc()) == (1.0, 1, "fast")

    def test_empty_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            AnyOf(sim, [])


class TestInterrupt:
    def test_interrupt_is_catchable(self):
        sim = Simulator()

        def sleeper():
            try:
                yield sim.timeout(100.0)
            except Interrupt as intr:
                return ("interrupted", sim.now, intr.cause)

        def interrupter(proc):
            yield sim.timeout(1.0)
            proc.interrupt("wake up")

        proc = sim.spawn(sleeper())
        sim.spawn(interrupter(proc))
        sim.run()
        assert proc.value == ("interrupted", 1.0, "wake up")

    def test_uncaught_interrupt_fails_process(self):
        sim = Simulator()

        def sleeper():
            yield sim.timeout(100.0)

        proc = sim.spawn(sleeper())

        def interrupter():
            yield sim.timeout(1.0)
            proc.interrupt()

        sim.spawn(interrupter())
        sim.run()
        assert proc.triggered and not proc.ok
        assert isinstance(proc.value, Interrupt)

    def test_interrupting_finished_process_raises(self):
        sim = Simulator()

        def quick():
            yield sim.timeout(0.0)

        proc = sim.spawn(quick())
        sim.run()
        with pytest.raises(SimulationError):
            proc.interrupt()

    def test_stale_wakeup_after_interrupt_ignored(self):
        sim = Simulator()
        log = []

        def sleeper():
            try:
                yield sim.timeout(5.0)
                log.append("timeout fired in process")
            except Interrupt:
                yield sim.timeout(10.0)
                log.append("post-interrupt sleep done")

        proc = sim.spawn(sleeper())

        def interrupter():
            yield sim.timeout(1.0)
            proc.interrupt()

        sim.spawn(interrupter())
        sim.run()
        # The original 5.0s timeout still fires at t=5, but must not resume
        # the process (which is now sleeping until t=11).
        assert log == ["post-interrupt sleep done"]
        assert sim.now == 11.0


@given(st.lists(st.floats(min_value=0.0, max_value=1e6, allow_nan=False), min_size=1, max_size=50))
def test_property_processes_complete_in_sorted_order(delays):
    sim = Simulator()
    completions = []

    def proc(i, d):
        yield sim.timeout(d)
        completions.append((sim.now, i))

    for i, d in enumerate(delays):
        sim.spawn(proc(i, d))
    sim.run()
    times = [t for t, _ in completions]
    assert times == sorted(times)
    assert len(completions) == len(delays)
    assert sim.now == max(delays)


@given(
    st.lists(
        st.tuples(st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
                  st.floats(min_value=0.0, max_value=100.0, allow_nan=False)),
        min_size=1,
        max_size=20,
    )
)
def test_property_sequential_timeouts_accumulate(pairs):
    sim = Simulator()

    def proc(a, b):
        yield sim.timeout(a)
        yield sim.timeout(b)
        return sim.now

    # Processes run concurrently; each finishes at its own a+b.
    procs = [sim.spawn(proc(a, b)) for a, b in pairs]
    sim.run()
    for (a, b), p in zip(pairs, procs):
        assert p.value == pytest.approx(a + b)


# -- queue order against a heap-only reference ---------------------------------


class _HeapScheduler:
    """The ``(t, seq)`` order on one heap, with no same-time lane.

    The :class:`Simulator` must fire every program in exactly this order.
    """

    def __init__(self):
        self.now = 0.0
        self.heap = []
        self.seq = 0
        self.events_processed = 0

    def call_at(self, t, fn, *args):
        assert t >= self.now
        self.seq += 1
        heapq.heappush(self.heap, (t, self.seq, fn, args))

    def call_soon(self, fn, *args):
        self.call_at(self.now, fn, *args)

    def run(self, until=None):
        while self.heap:
            if until is not None and self.heap[0][0] > until:
                break
            t, _, fn, args = heapq.heappop(self.heap)
            self.now = t
            self.events_processed += 1
            fn(*args)
        if until is not None:
            self.now = until
        return self.now


#: a scheduled call: (``"at"`` or ``"soon"``, delay for ``call_at``, the
#: calls its callback schedules when it fires); few distinct delays, zero
#: among them, so timestamps repeat and ``t == now`` is common
_CALL = st.recursive(
    st.tuples(st.sampled_from(["at", "soon"]),
              st.sampled_from([0.0, 0.5, 1.0, 1.5]), st.just(())),
    lambda children: st.tuples(
        st.sampled_from(["at", "soon"]),
        st.sampled_from([0.0, 0.5, 1.0, 1.5]),
        st.lists(children, max_size=3).map(tuple),
    ),
    max_leaves=24,
)
#: segments of (calls scheduled from outside, then ``run(until=now + dt)``,
#: or a run to completion for ``None``)
_PROGRAM = st.lists(
    st.tuples(st.lists(_CALL, max_size=4),
              st.one_of(st.none(), st.sampled_from([0.0, 0.25, 1.0, 2.5]))),
    min_size=1,
    max_size=4,
)


def _execute(sched, program):
    log = []

    def schedule(call, label):
        kind, delay, children = call
        if kind == "soon":
            sched.call_soon(fire, label, children)
        else:
            sched.call_at(sched.now + delay, fire, label, children)

    def fire(label, children):
        log.append((label, sched.now))
        for i, child in enumerate(children):
            schedule(child, label + (i,))

    segments = []
    for k, (calls, dt) in enumerate(program):
        for i, call in enumerate(calls):
            schedule(call, (k, i))
        until = None if dt is None else sched.now + dt
        returned = sched.run(until=until)
        segments.append((len(log), returned, sched.now, sched.events_processed))
    return log, segments


@given(_PROGRAM)
def test_property_queue_order_matches_heap_reference(program):
    assert _execute(Simulator(), program) == _execute(_HeapScheduler(), program)


class TestGarbageCollectorPause:
    """``run`` pauses the cyclic collector only for as long as it loops."""

    @pytest.fixture(autouse=True)
    def _restore_gc(self):
        was_enabled = gc.isenabled()
        gc.enable()
        yield
        if was_enabled:
            gc.enable()
        else:
            gc.disable()

    def test_off_inside_callbacks_on_after(self):
        sim = Simulator()
        seen = []
        sim.call_soon(lambda: seen.append(gc.isenabled()))
        sim.call_at(1.0, lambda: seen.append(gc.isenabled()))
        sim.run()
        assert seen == [False, False]
        assert gc.isenabled()

    def test_on_after_each_until_segment(self):
        sim = Simulator()
        seen = []
        for t in (1.0, 2.0, 3.0):
            sim.call_at(t, lambda: seen.append(gc.isenabled()))
        for until in (1.5, 2.5, None):
            sim.run(until=until)
            assert gc.isenabled()
        assert seen == [False, False, False]

    def test_on_after_a_callback_raises(self):
        sim = Simulator()

        def boom():
            raise ValueError("boom")

        sim.call_soon(boom)
        with pytest.raises(ValueError):
            sim.run()
        assert gc.isenabled()

    def test_caller_disabled_stays_disabled(self):
        gc.disable()
        sim = Simulator()
        seen = []
        sim.call_soon(lambda: seen.append(gc.isenabled()))
        sim.run()
        assert seen == [False]
        assert not gc.isenabled()

    def test_nested_run_leaves_outer_pause_alone(self):
        outer, inner = Simulator(), Simulator()
        seen = []
        inner.call_soon(lambda: seen.append(gc.isenabled()))

        def nest():
            inner.run()
            seen.append(gc.isenabled())

        outer.call_soon(nest)
        outer.run()
        assert seen == [False, False]
        assert gc.isenabled()
