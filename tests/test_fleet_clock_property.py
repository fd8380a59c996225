"""Property tests for the shared discrete-event kernel (:mod:`repro.sim`).

Three invariants the fleet (and everything else on the kernel) leans
on, driven by hypothesis:

* events fire in non-decreasing time order, FIFO within a timestamp;
* a cancelled event never fires — not even if cancelled mid-run by an
  earlier callback — and cancellation cannot resurrect a fired event;
* the fire sequence is a pure function of the scheduled events: two
  loops fed the same (seeded) schedule produce identical sequences.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FleetError, NPUError
from repro.sim import EventLoop, SimClock

# (delay, payload) schedules; delays are non-negative and finite
_delays = st.floats(min_value=0.0, max_value=1e6, allow_nan=False,
                    allow_infinity=False)
_schedules = st.lists(_delays, min_size=0, max_size=60)


def _run_schedule(delays, cancel_mask=None):
    loop = EventLoop()
    fired = []
    handles = []
    for i, delay in enumerate(delays):
        handles.append(loop.at(delay, lambda i=i: fired.append(
            (loop.now, i))))
    if cancel_mask:
        for i in cancel_mask:
            loop.cancel(handles[i])
    loop.run()
    return fired, handles


@given(_schedules)
@settings(max_examples=200, deadline=None)
def test_fire_order_non_decreasing(delays):
    fired, _ = _run_schedule(delays)
    assert len(fired) == len(delays)
    times = [t for t, _ in fired]
    assert times == sorted(times)
    # FIFO within a timestamp: equal-time events keep insertion order
    for (ta, ia), (tb, ib) in zip(fired, fired[1:]):
        if ta == tb:
            assert ia < ib


@given(_schedules, st.sets(st.integers(min_value=0, max_value=59)))
@settings(max_examples=200, deadline=None)
def test_cancellation_never_fires(delays, cancel_indices):
    cancel_mask = {i for i in cancel_indices if i < len(delays)}
    fired, handles = _run_schedule(delays, cancel_mask)
    fired_ids = {i for _, i in fired}
    assert fired_ids.isdisjoint(cancel_mask)
    assert fired_ids == set(range(len(delays))) - cancel_mask
    for i, handle in enumerate(handles):
        assert handle.cancelled == (i in cancel_mask)
        assert handle.fired == (i not in cancel_mask)


@given(_schedules)
@settings(max_examples=100, deadline=None)
def test_cancel_after_fire_does_not_resurrect(delays):
    loop = EventLoop()
    fired = []
    handles = [loop.at(d, lambda i=i: fired.append(i))
               for i, d in enumerate(delays)]
    loop.run()
    n_fired = loop.n_fired
    for handle in handles:
        assert loop.cancel(handle) is False
        assert handle.fired and not handle.cancelled
    loop.run()
    assert loop.n_fired == n_fired
    assert fired == sorted(range(len(delays)),
                           key=lambda i: (delays[i], i))


@given(_schedules, st.sets(st.integers(min_value=0, max_value=59)))
@settings(max_examples=100, deadline=None)
def test_same_schedule_identical_sequence(delays, cancel_indices):
    cancel_mask = {i for i in cancel_indices if i < len(delays)}
    first, _ = _run_schedule(delays, cancel_mask)
    second, _ = _run_schedule(delays, cancel_mask)
    assert first == second


@given(_schedules)
@settings(max_examples=100, deadline=None)
def test_mid_run_cancellation(delays):
    """An event cancelled by an earlier callback never fires."""
    if not delays:
        return
    loop = EventLoop()
    fired = []
    handles = []

    def make_cb(i):
        def cb():
            fired.append(i)
            # every callback cancels the latest still-pending event
            for handle in reversed(handles):
                if handle.pending:
                    loop.cancel(handle)
                    break
        return cb

    for i, delay in enumerate(delays):
        handles.append(loop.at(delay, make_cb(i)))
    loop.run()
    assert len(fired) + loop.n_cancelled == len(delays)
    for i, handle in enumerate(handles):
        assert handle.fired != handle.cancelled
        assert (i in fired) == handle.fired


def test_past_scheduling_rejected():
    loop = EventLoop()
    loop.at(5.0, lambda: None)
    loop.run()
    assert loop.now == 5.0
    with pytest.raises(FleetError):
        loop.at(4.0, lambda: None)
    # scheduling exactly at the current time is allowed
    loop.at(5.0, lambda: None)


def test_nan_scheduling_rejected():
    # NaN is neither before nor after now, so it must be named: on the
    # heap it would corrupt the (time, seq) order
    loop = EventLoop()
    with pytest.raises(FleetError, match="nan"):
        loop.at(float("nan"), lambda: None)
    with pytest.raises(FleetError, match="nan"):
        loop.after(float("nan"), lambda: None)
    assert len(loop) == 0


def test_run_until_leaves_future_events_pending():
    loop = EventLoop()
    fired = []
    for t in (1.0, 2.0, 3.0):
        loop.at(t, lambda t=t: fired.append(t))
    assert loop.run(until=2.0) == 2
    assert fired == [1.0, 2.0]
    assert len(loop) == 1
    assert loop.run() == 1
    assert fired == [1.0, 2.0, 3.0]


def test_negative_advance_raises():
    clock = SimClock()
    clock.advance(1.5)
    with pytest.raises(NPUError):
        clock.advance(-0.1)
    assert clock.total_seconds == 1.5
