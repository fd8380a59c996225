"""Differential: the global event log only observes a run.

Serving runs always emit their timeline events and fold energy, SLO
histograms and counters from them; a fleet simulation folds its
tallies from its events the same way.  Enabling the global log only
changes *where* the events go.  Every number a run reports — each
energy float, every SLO histogram bucket, every counter, the candidate
tokens and the whole metrics snapshot — must be bitwise identical with
the global log enabled and disabled, for the scheduler (both
``scheduler_ledger`` golden configs), for lock-step ``engine.generate``
and for the fleet (both ``fleet_ledger`` golden configs).
"""

import json

import pytest

from repro.llm import InferenceEngine, Sampler
from repro.npu import DEVICES
from repro.obs.metrics import MetricsRegistry, set_metrics
from repro.obs.timeline import EventLog, set_event_log
from repro.testing.goldens import (
    FLEET_LEDGER_RUNS,
    SCHEDULER_LEDGER_RUNS,
    fleet_ledger,
    fleet_ledger_run,
    scheduler_ledger,
    scheduler_ledger_run,
)
from repro.testing.oracles import _tiny_model


def _with_log(enabled, run):
    log = EventLog(enabled=enabled)
    previous = set_event_log(log)
    try:
        return run(), len(log)
    finally:
        set_event_log(previous)


def _snapshot_bytes(registry):
    # json renders floats with repr, which round-trips exactly
    return json.dumps(registry.snapshot(), sort_keys=True)


@pytest.mark.parametrize("name", SCHEDULER_LEDGER_RUNS)
def test_scheduler_run_is_identical_with_log_on_and_off(name):
    (off, off_reg), off_events = _with_log(
        False, lambda: scheduler_ledger_run(name))
    (on, on_reg), on_events = _with_log(
        True, lambda: scheduler_ledger_run(name))
    assert off_events == 0 and on_events > 0
    assert scheduler_ledger(on, on_reg) == scheduler_ledger(off, off_reg)
    assert on.sequences == off.sequences
    assert ([c.tokens for c in on.candidates]
            == [c.tokens for c in off.candidates])
    assert on.sim_seconds.hex() == off.sim_seconds.hex()
    assert _snapshot_bytes(on_reg) == _snapshot_bytes(off_reg)


def _engine_generate():
    registry = MetricsRegistry()
    previous = set_metrics(registry)
    try:
        engine = InferenceEngine(_tiny_model(0), batch=4, max_context=32,
                                 device=DEVICES["oneplus_12"])
        result = engine.generate([3, 1, 4, 1, 5, 9, 2, 6], max_new_tokens=10,
                                 sampler=Sampler(temperature=0.8, seed=7))
    finally:
        set_metrics(previous)
    return result, registry


def test_engine_generate_is_identical_with_log_on_and_off():
    (off, off_reg), off_events = _with_log(False, _engine_generate)
    (on, on_reg), on_events = _with_log(True, _engine_generate)
    assert off_events == 0 and on_events > 0
    assert on.joules > 0.0
    assert on.joules.hex() == off.joules.hex()
    assert on.sim_seconds.hex() == off.sim_seconds.hex()
    assert on.sequences == off.sequences
    assert on.n_generated_tokens == off.n_generated_tokens
    assert _snapshot_bytes(on_reg) == _snapshot_bytes(off_reg)


@pytest.mark.parametrize("name", FLEET_LEDGER_RUNS)
def test_fleet_run_is_identical_with_log_on_and_off(name):
    off, off_events = _with_log(False, lambda: fleet_ledger_run(name))
    on, on_events = _with_log(True, lambda: fleet_ledger_run(name))
    assert off_events == 0 and on_events > 0
    assert fleet_ledger(on) == fleet_ledger(off)
