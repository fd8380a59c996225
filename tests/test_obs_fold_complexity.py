"""Event-log folds make a bounded number of passes over the log.

A fold that queries the log once per request costs O(events x
requests).  Host time is too noisy to gate that, but the number of
events a fold visits is exact: these tests swap the log's event list
for one that counts what its iterator yields, and require every fold to
visit at most :data:`MAX_PASSES` times the log's length at n and 4n
fleet requests.
"""

from __future__ import annotations

import pytest

from repro.fleet import (AdmissionController, FleetSimulation, HedgePolicy,
                         TraceConfig, build_population, generate_trace)
from repro.obs.blame import explain_section
from repro.obs.critical_path import explain_log, validate_lifecycle
from repro.obs.monitor import _request_summaries, run_monitor
from repro.obs.stream import stream_from_log
from repro.obs.timeline import EventLog, set_event_log
from repro.resilience.faults import FaultPlan

#: Passes over the log any one fold may make.
MAX_PASSES = 8

FOLDS = {
    "validate_lifecycle": validate_lifecycle,
    "explain_log": explain_log,
    "explain_section": explain_section,
    "request_summaries": _request_summaries,
    "stream_from_log": stream_from_log,
}


class _CountingEvents(list):
    """An event list that counts the items its iterator yields."""

    visited = 0

    def __iter__(self):
        for event in list.__iter__(self):
            self.visited += 1
            yield event


def _fleet_log(n_requests: int) -> EventLog:
    """The events of an 8-device faulted, hedged fleet run."""
    requests = generate_trace(TraceConfig(qps=8.0, max_requests=n_requests,
                                          seed=3))
    log = EventLog(enabled=True)
    previous = set_event_log(log)
    try:
        FleetSimulation(
            build_population(8), requests,
            admission=AdmissionController(max_queue_depth=64),
            fault_plan=FaultPlan.parse("dev#0:crash@4:6,dev#3:drop@9"),
            hedge=HedgePolicy()).run()
    finally:
        set_event_log(previous)
    return log


@pytest.fixture(scope="module")
def fleet_logs():
    return {n: _fleet_log(n) for n in (150, 600)}


@pytest.mark.parametrize("n_requests", [150, 600])
@pytest.mark.parametrize("fold", sorted(FOLDS))
def test_fold_visits_a_bounded_multiple_of_the_log(fleet_logs, fold,
                                                    n_requests, monkeypatch):
    log = fleet_logs[n_requests]
    counting = _CountingEvents(log._events)
    monkeypatch.setattr(log, "_events", counting)
    FOLDS[fold](log)
    visited = counting.visited
    assert 0 < visited <= MAX_PASSES * len(log), (
        f"{fold} visited {visited} events of a {len(log)}-event log "
        f"({visited / len(log):.1f} passes)")


def _assert_chains_match_timelines(log: EventLog) -> None:
    chains = log.chains()
    assert chains == {rid: log.timeline(rid) for rid in log.request_ids()}
    assert list(chains) == sorted(chains)
    n_run_level = sum(1 for e in log.events() if e.request_id is None)
    assert sum(map(len, chains.values())) == len(log) - n_run_level


def test_chains_match_per_request_timelines_on_a_scheduler_log():
    log = run_monitor("chaos.waves").log
    assert any(e.request_id is None for e in log.events())
    _assert_chains_match_timelines(log)


def test_chains_match_per_request_timelines_on_a_fleet_log(fleet_logs):
    _assert_chains_match_timelines(fleet_logs[150])
