"""Tests for fleet-scale chaos: faults, failover, hedging, breakers."""

from __future__ import annotations

import pytest

from repro.errors import FaultError, FleetError
from repro.fleet import (AdmissionController, BatteryRail, CircuitBreaker,
                         DeviceHealth, FailoverPolicy, FleetRequest,
                         FleetSimulation, HedgePolicy, TraceConfig,
                         build_population, generate_trace, run_fleet)
from repro.fleet.health import (BREAKER_CLOSED, BREAKER_HALF_OPEN,
                                BREAKER_OPEN)
from repro.resilience.faults import (FaultEvent, FaultPlan,
                                     FLEET_FAULT_KINDS)


def _request(request_id, arrival=0.0, tenant="interactive", **kwargs):
    return FleetRequest(request_id=request_id, arrival_seconds=arrival,
                        tenant=tenant, **kwargs)


def _chaos_sim(n_devices=4, qps=6.0, n_requests=120, trace_seed=7,
               fault_spec="", failover=None, hedge=None, **kwargs):
    devices = build_population(n_devices)
    trace = generate_trace(TraceConfig(qps=qps, max_requests=n_requests,
                                       seed=trace_seed))
    plan = FaultPlan.parse(fault_spec) if fault_spec else None
    return FleetSimulation(
        devices, trace,
        admission=AdmissionController(max_queue_depth=64),
        fault_plan=plan, failover=failover, hedge=hedge, **kwargs)


# ----------------------------------------------------------------------
# fault grammar
# ----------------------------------------------------------------------
class TestFleetFaultGrammar:
    def test_fleet_kinds_registered(self):
        assert set(FLEET_FAULT_KINDS) == {"device_crash", "straggle",
                                          "dispatch_drop", "battery_drain"}

    def test_spec_round_trip(self):
        spec = ("dev#0:crash@2:5,dev#1:straggle@1:3:10,"
                "dev#2:drop@4,dev#3:battery@6.5")
        plan = FaultPlan.parse(spec)
        assert FaultPlan.parse(plan.spec()) == plan
        kinds = [e.kind for e in plan.fleet_events()]
        assert sorted(kinds) == ["battery_drain", "device_crash",
                                 "dispatch_drop", "straggle"]

    def test_mixed_plan_splits_cleanly(self):
        spec = "abort@3,dev#0:crash@2,dma@5"
        plan = FaultPlan.parse(spec)
        assert len(plan.fleet_events()) == 1
        scheduler = plan.scheduler_plan()
        assert all(e.device is None for e in scheduler.events)
        assert FaultPlan.parse(scheduler.spec()) == scheduler

    def test_crash_without_reboot(self):
        (event,) = FaultPlan.parse("dev#4:crash@7").fleet_events()
        assert event.kind == "device_crash"
        assert event.device == 4
        assert event.time_seconds == 7.0
        assert event.duration_seconds is None

    def test_validation(self):
        with pytest.raises(FaultError):  # straggle needs a duration
            FaultPlan.parse("dev#0:straggle@1:3")
        with pytest.raises(FaultError):  # factor must stretch, not shrink
            FaultEvent("straggle", "fleet.device", 0, device=0,
                       time_seconds=1.0, factor=0.5, duration_seconds=2.0)
        with pytest.raises(FaultError):  # fleet kinds need a device
            FaultEvent("device_crash", "fleet.device", 0, time_seconds=1.0)
        with pytest.raises(FaultError):  # scheduler kinds must not
            FaultEvent("session_abort", "scheduler.step", 3, device=0)

    @pytest.mark.parametrize("spec", [
        "dev#1:crash@nan", "dev#1:crash@inf", "dev#1:crash@1:nan",
        "dev#1:straggle@1:nan:3", "dev#1:straggle@1:inf:3",
        "dev#1:straggle@1:3:nan", "dev#1:drop@nan",
    ])
    def test_non_finite_fleet_fault_rejected(self, spec):
        # NaN passed every ordering check and ran to exit 0
        with pytest.raises(FaultError, match="finite"):
            FaultPlan.parse(spec)

    def test_random_seed0_spec_pinned(self):
        """Bitwise stability for pre-chaos seeds: pinned, not asserted
        loosely — any drift here invalidates every recorded repro."""
        assert (FaultPlan.random(0).spec()
                == "throttle@4:balanced:2,alloc@8,dma@10,abort@13")

    def test_random_fleet_draws_append_after_existing(self):
        plan = FaultPlan.random(0, n_crashes=2, n_straggles=1, n_drops=1,
                                n_battery=1, n_devices=8,
                                horizon_seconds=20.0)
        assert (plan.scheduler_plan().spec()
                == FaultPlan.random(0).spec())
        assert len(plan.fleet_events()) == 5
        assert FaultPlan.parse(plan.spec()) == plan


# ----------------------------------------------------------------------
# battery rail edges (satellite: negative draws, exact depletion)
# ----------------------------------------------------------------------
class TestBatteryRailEdges:
    def test_negative_draw_is_value_error(self):
        with pytest.raises(ValueError):
            BatteryRail(capacity_joules=10.0).draw(-0.001)

    def test_exact_depletion(self):
        rail = BatteryRail(capacity_joules=10.0)
        rail.draw(10.0)
        assert rail.depleted
        assert rail.remaining_fraction == 0.0

    def test_one_ulp_under_capacity_is_not_depleted(self):
        rail = BatteryRail(capacity_joules=10.0)
        rail.draw(10.0 - 1e-9)
        assert not rail.depleted
        assert rail.remaining_fraction > 0.0

    def test_overdraw_clamps_at_zero(self):
        rail = BatteryRail(capacity_joules=10.0)
        rail.draw(5.0)
        rail.draw(1e9)
        assert rail.depleted
        assert rail.remaining_fraction == 0.0

    def test_zero_draw_is_legal(self):
        rail = BatteryRail(capacity_joules=10.0)
        rail.draw(0.0)
        assert rail.remaining_fraction == 1.0

    def test_deplete_fault_path(self):
        rail = BatteryRail(capacity_joules=10.0)
        rail.deplete()
        assert rail.depleted


# ----------------------------------------------------------------------
# circuit breaker
# ----------------------------------------------------------------------
class TestCircuitBreaker:
    def test_opens_on_consecutive_failures(self):
        breaker = CircuitBreaker(0, failure_threshold=3)
        assert breaker.record_failure() is None
        assert breaker.record_failure() is None
        cooldown = breaker.record_failure()
        assert cooldown is not None and cooldown > 0
        assert breaker.state == BREAKER_OPEN
        assert not breaker.allows_dispatch

    def test_success_resets_consecutive_count(self):
        breaker = CircuitBreaker(0, failure_threshold=2)
        breaker.record_failure()
        breaker.record_success()
        assert breaker.record_failure() is None
        assert breaker.state == BREAKER_CLOSED

    def test_half_open_probe_closes_or_reopens(self):
        breaker = CircuitBreaker(0, failure_threshold=1,
                                 cooldown_seconds=1.0)
        first = breaker.record_failure()
        breaker.half_open()
        assert breaker.state == BREAKER_HALF_OPEN
        assert breaker.allows_dispatch
        second = breaker.record_failure()  # probe failed: re-open, longer
        assert breaker.state == BREAKER_OPEN
        assert second > first
        breaker.half_open()
        assert breaker.record_success()
        assert breaker.state == BREAKER_CLOSED

    def test_cooldown_is_deterministic_and_capped(self):
        a = CircuitBreaker(3, seed=9)
        b = CircuitBreaker(3, seed=9)
        assert [a.cooldown(t) for t in range(1, 6)] \
            == [b.cooldown(t) for t in range(1, 6)]
        capped = CircuitBreaker(0, cooldown_seconds=2.0,
                                max_cooldown_seconds=4.0)
        assert capped.cooldown(10) <= 4.0 * 1.25  # cap plus max jitter

    def test_validation(self):
        with pytest.raises(FleetError):
            CircuitBreaker(0, failure_threshold=0)
        with pytest.raises(FleetError):
            CircuitBreaker(0, cooldown_seconds=0.0)
        with pytest.raises(FleetError):
            CircuitBreaker(0, backoff_factor=0.5)


class TestPolicies:
    def test_failover_backoff_deterministic_and_growing(self):
        policy = FailoverPolicy(seed=4)
        again = FailoverPolicy(seed=4)
        delays = [policy.backoff(17, a) for a in range(4)]
        assert delays == [again.backoff(17, a) for a in range(4)]
        assert delays[1] > delays[0] * 0.9  # exponential modulo jitter

    def test_hedge_explicit_threshold(self):
        policy = HedgePolicy(threshold_seconds=0.5)
        from repro.obs.metrics import Histogram
        hist = Histogram("w")
        assert policy.should_hedge(0.6, hist)
        assert not policy.should_hedge(0.4, hist)

    def test_hedge_quantile_needs_samples_and_nonzero_tail(self):
        from repro.obs.metrics import Histogram
        from repro.obs.slo import hdr_buckets
        policy = HedgePolicy(min_samples=8)
        hist = Histogram("w", buckets=hdr_buckets(1e-4, 100.0,
                                                  precision_bits=2))
        assert not policy.should_hedge(5.0, hist)  # too few samples
        for _ in range(10):
            hist.observe(0.0)
        # an unloaded fleet (p99 wait == 0) must not hedge everything
        assert not policy.should_hedge(0.0, hist)
        for _ in range(10):
            hist.observe(1.0)
        assert policy.should_hedge(50.0, hist)

    def test_validation(self):
        with pytest.raises(FleetError):
            HedgePolicy(quantile=0.0)
        with pytest.raises(FleetError):
            HedgePolicy(min_samples=0)
        with pytest.raises(FleetError):
            FailoverPolicy(max_attempts=-1)


# ----------------------------------------------------------------------
# chaos simulation behavior
# ----------------------------------------------------------------------
class TestChaosSimulation:
    def test_crash_fails_over_and_reboots(self):
        sim = _chaos_sim(n_devices=2, qps=8.0, n_requests=60,
                         fault_spec="dev#0:crash@1:4")
        result = sim.run()
        assert result.n_crashes == 1
        assert result.n_reboots == 1
        assert result.n_fleet_faults == 1
        result.check_conservation()

    def test_straggle_stretches_makespan(self):
        base = _chaos_sim(n_devices=2, qps=8.0, n_requests=60).run()
        slow = _chaos_sim(n_devices=2, qps=8.0, n_requests=60,
                          fault_spec="dev#0:straggle@0:4:60,"
                                     "dev#1:straggle@0:4:60").run()
        assert slow.n_straggles == 2
        assert slow.makespan_seconds > base.makespan_seconds

    def test_drop_loses_only_inflight_dispatches(self):
        sim = _chaos_sim(n_devices=2, qps=8.0, n_requests=60,
                         fault_spec="dev#0:drop@1,dev#1:drop@500")
        result = sim.run()
        # the late drop fires on an idle device: nothing in flight
        assert result.n_fleet_faults == 2
        assert result.n_drops <= 1
        result.check_conservation()

    def test_battery_fault_removes_device(self):
        sim = _chaos_sim(n_devices=2, qps=8.0, n_requests=60,
                         fault_spec="dev#0:battery@0.5")
        result = sim.run()
        assert result.n_battery_faults == 1
        assert result.n_batteries_depleted >= 1
        result.check_conservation()

    def test_all_devices_dead_accounts_unserved_or_failed(self):
        sim = _chaos_sim(n_devices=2, qps=8.0, n_requests=40,
                         fault_spec="dev#0:battery@0.2,dev#1:battery@0.2",
                         failover=FailoverPolicy(max_attempts=1))
        result = sim.run()
        assert result.n_completed < result.n_arrivals
        assert (result.n_shed + result.n_unserved
                + result.n_failed) > 0
        result.check_conservation()

    def test_failover_budget_exhaustion(self):
        # every dispatch on the only device is dropped until the retry
        # budget runs out
        spec = ",".join(f"dev#0:drop@{t / 10.0:g}"
                        for t in range(1, 400, 2))
        devices = build_population(1)
        requests = [_request(0, arrival=0.0)]
        sim = FleetSimulation(devices, requests, fault_plan=FaultPlan.parse(spec),
                              failover=FailoverPolicy(max_attempts=2))
        result = sim.run()
        assert result.n_failed == 1
        assert result.n_failovers == 2
        assert result.n_completed == 0
        result.check_conservation()

    def test_breaker_opens_then_recovers(self):
        spec = "dev#0:drop@0.5,dev#0:drop@1.0,dev#0:drop@1.5"
        sim = _chaos_sim(n_devices=1, qps=4.0, n_requests=40,
                         fault_spec=spec,
                         breaker_failure_threshold=2,
                         breaker_cooldown_seconds=0.5)
        result = sim.run()
        assert result.n_breaker_opens >= 1
        assert result.n_breaker_closes >= 1
        result.check_conservation()

    def test_half_open_probe_success_closes_the_breaker_once(self):
        # one lost dispatch trips a threshold-1 breaker; after the
        # cooldown the half-open probe is served, closing it exactly once
        sim = _chaos_sim(n_devices=1, qps=4.0, n_requests=40,
                         fault_spec="dev#0:drop@0.5",
                         breaker_failure_threshold=1,
                         breaker_cooldown_seconds=0.5)
        result = sim.run()
        assert result.n_drops == 1
        assert result.n_breaker_opens == 1
        assert result.n_breaker_closes == 1
        result.check_conservation()

    def test_fault_plan_rejects_unknown_device(self):
        with pytest.raises(FleetError):
            _chaos_sim(n_devices=2, fault_spec="dev#9:crash@1")

    def test_no_request_served_twice_under_hedging(self):
        sim = _chaos_sim(n_devices=4, qps=6.0, n_requests=120,
                         fault_spec="dev#1:straggle@1:4:12",
                         failover=FailoverPolicy(max_attempts=2),
                         hedge=HedgePolicy(threshold_seconds=0.3))
        result = sim.run()  # raises FleetError on a double completion
        assert result.n_hedges > 0
        assert result.n_hedge_cancelled > 0
        assert result.n_hedges >= result.n_hedge_cancelled
        result.check_conservation()

    def test_chaos_run_is_deterministic(self):
        def once():
            return _chaos_sim(
                n_devices=4, qps=6.0, n_requests=120,
                fault_spec="dev#1:straggle@1:4:12,dev#0:crash@3:4,"
                           "dev#2:drop@5",
                failover=FailoverPolicy(max_attempts=2),
                hedge=HedgePolicy(threshold_seconds=0.3)).run()

        a, b = once(), once()
        for name in ("n_arrivals", "n_completed", "n_shed", "n_failed",
                     "n_unserved", "n_hedges", "n_hedge_cancelled",
                     "n_failovers", "n_breaker_opens", "tokens",
                     "joules", "makespan_seconds"):
            assert getattr(a, name) == getattr(b, name), name

    def test_conservation_mini_fuzz(self):
        for seed in range(8):
            plan = FaultPlan.random(seed, n_aborts=0, n_dma=0, n_allocs=0,
                                    n_throttles=0, n_crashes=2,
                                    n_straggles=2, n_drops=2, n_battery=1,
                                    n_devices=3, horizon_seconds=15.0)
            sim = _chaos_sim(n_devices=3, qps=10.0, n_requests=80,
                             trace_seed=seed, fault_spec=plan.spec(),
                             failover=FailoverPolicy(max_attempts=2),
                             hedge=HedgePolicy(threshold_seconds=0.5))
            sim.run().check_conservation()

    def test_empty_plan_matches_no_plan(self):
        plain = _chaos_sim().run()
        armed = _chaos_sim(failover=FailoverPolicy(), seed=99).run()
        for name in ("n_arrivals", "n_completed", "n_shed", "n_unserved",
                     "tokens", "joules", "makespan_seconds"):
            assert getattr(plain, name) == getattr(armed, name), name
        assert armed.n_fleet_faults == 0
        assert armed.n_hedges == 0


class TestChaosTimeline:
    def test_chaos_events_logged(self):
        from repro.obs import timeline as obs_timeline

        log = obs_timeline.EventLog(enabled=True)
        previous = obs_timeline.set_event_log(log)
        try:
            _chaos_sim(n_devices=2, qps=8.0, n_requests=60,
                       fault_spec="dev#0:crash@1:4",
                       breaker_failure_threshold=1,
                       breaker_cooldown_seconds=0.5).run()
        finally:
            obs_timeline.set_event_log(previous)
        kinds = {e.kind for e in log.events()}
        assert "device_down" in kinds
        assert "device_up" in kinds
        downs = log.by_kind("device_down")
        assert downs[0].attrs["device"] == 0

    def test_stream_folds_chaos_counters(self):
        from repro.obs import timeline as obs_timeline
        from repro.obs.stream import stream_from_log

        log = obs_timeline.EventLog(enabled=True)
        previous = obs_timeline.set_event_log(log)
        try:
            _chaos_sim(n_devices=2, qps=8.0, n_requests=60,
                       fault_spec="dev#0:crash@1:4").run()
        finally:
            obs_timeline.set_event_log(previous)
        stream = stream_from_log(log, window_seconds=60.0)
        totals = {}
        for window in stream.windows():
            for name, value in window.counters.items():
                totals[name] = totals.get(name, 0.0) + value
        assert totals.get("device_downs", 0) == 1
        assert totals.get("device_ups", 0) == 1


# ----------------------------------------------------------------------
# admission-controller edges (satellite)
# ----------------------------------------------------------------------
class TestAdmissionEdges:
    def test_zero_depth_rejected(self):
        with pytest.raises(FleetError):
            AdmissionController(max_queue_depth=0)

    def test_shed_tie_break_at_shared_priority(self):
        # at a full queue of equal-priority entries, the *incoming*
        # request sheds: its seq is larger, so its key is worst
        ctl = AdmissionController(max_queue_depth=2)
        ctl.offer(_request(0))
        ctl.offer(_request(1))
        admitted, shed = ctl.offer(_request(2))
        assert not admitted
        assert shed.request_id == 2
        assert [ctl.pop().request_id, ctl.pop().request_id] == [0, 1]

    def test_drain_returns_service_order(self):
        ctl = AdmissionController(max_queue_depth=8)
        for i, tenant in enumerate(["batch", "interactive", "batch",
                                    "interactive"]):
            ctl.offer(_request(i, tenant=tenant))
        drained = [r.request_id for r in ctl.drain()]
        assert drained == [1, 3, 0, 2]
        assert len(ctl) == 0

    def test_reoffered_batch_request_does_not_jump_interactive(self):
        ctl = AdmissionController(max_queue_depth=8)
        ctl.offer(_request(0, tenant="batch"))
        failed_over = ctl.pop()
        ctl.offer(_request(1, tenant="interactive"))
        ctl.offer(failed_over)  # re-offer keeps the tenant class
        ctl.offer(_request(2, tenant="interactive"))
        popped = [ctl.pop().request_id for _ in range(3)]
        assert popped == [1, 2, 0]


# ----------------------------------------------------------------------
# report + CLI surface
# ----------------------------------------------------------------------
class TestChaosReport:
    SPEC = "dev#0:crash@2:5,dev#1:straggle@1:3:8,dev#2:drop@4"

    def test_chaos_section_only_when_armed(self):
        plain = run_fleet(4, 6.0, horizon_seconds=8.0, seed=3,
                          with_capacity_plan=False)
        assert plain.chaos is None
        assert "chaos" not in plain.to_json()
        armed = run_fleet(4, 6.0, horizon_seconds=8.0, seed=3,
                          with_capacity_plan=False, fault_spec=self.SPEC,
                          hedge=True)
        assert armed.chaos is not None
        assert armed.to_json()["chaos"]["fault_spec"] == self.SPEC
        ledger = armed.chaos["conservation"]
        assert ledger["offered"] == sum(
            ledger[k] for k in ("completed", "shed", "failed_permanently",
                                "unserved"))

    def test_empty_plan_is_byte_noop(self):
        a = run_fleet(4, 6.0, horizon_seconds=8.0, seed=3,
                      with_capacity_plan=False)
        b = run_fleet(4, 6.0, horizon_seconds=8.0, seed=3,
                      with_capacity_plan=False, fault_spec="", hedge=False)
        assert a.to_json_text() == b.to_json_text()

    def test_chaos_report_replays_byte_identically(self):
        kwargs = dict(horizon_seconds=8.0, seed=3,
                      with_capacity_plan=False, fault_spec=self.SPEC,
                      hedge=True)
        assert (run_fleet(4, 6.0, **kwargs).to_json_text()
                == run_fleet(4, 6.0, **kwargs).to_json_text())

    def test_cli_faults_and_hedge_flags(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "fleet.json"
        code = main(["fleet", "--devices", "4", "--qps", "6",
                     "--horizon-seconds", "8", "--seed", "3",
                     "--no-capacity-plan", "--faults", self.SPEC,
                     "--hedge", "--json", str(out)])
        assert code == 0
        captured = capsys.readouterr().out
        assert "== chaos:" in captured
        assert "conservation" in captured
        import json
        report = json.loads(out.read_text())
        assert report["chaos"]["fault_spec"] == self.SPEC
        assert report["chaos"]["hedge"] is True

    def test_cli_rejects_bad_spec(self, capsys):
        from repro.cli import main

        code = main(["fleet", "--devices", "2", "--no-capacity-plan",
                     "--faults", "dev#0:warp@1"])
        assert code == 2
        assert "error" in capsys.readouterr().out
