"""The fleet simulation: one event loop driving the whole population.

Arrivals, dispatches and completions are events on a single shared
:class:`~repro.sim.EventLoop`; devices price each request's service
time synchronously at dispatch (analytic model or a real scheduler run
on the device-local clock) and the completion lands back on the global
timeline ``service_seconds`` later.  Dispatch order is deterministic:
the longest-idle available device (ties by device id) serves the most
urgent queued request.

Chaos (PR 8): a :class:`~repro.resilience.faults.FaultPlan` may carry
``fleet.device`` events — ``dev#K:crash@T[:D]`` / ``straggle@T:F:D`` /
``drop@T`` / ``battery@T`` — which the simulation schedules on the same
loop.  The recovery side lives in :mod:`repro.fleet.health`: per-device
circuit breakers quarantine repeat offenders, failed dispatches fail
over back through the :class:`AdmissionController` under a capped
retry budget with deterministic jittered backoff, and (optionally) the
p99 queue tail hedges onto a second device with first-completion-wins
cancellation.  Under **any** fault schedule the run upholds the
conservation invariant::

    offered == completed + shed + failed_permanently + unserved

with no request served twice (hedge losers are cancelled before their
completion fires) — checked at the end of every run and fuzzed by the
``fleet.chaos`` oracle.

Timeline integration: each fleet fact is recorded once, as a typed
:mod:`repro.obs.timeline` event (``queue`` / ``dispatch`` / ``shed`` /
``complete``, plus ``device_down`` / ``device_up`` / ``failover`` /
``hedge`` / ``breaker_open`` / ``breaker_close`` / ``fault`` under
chaos) that :meth:`FleetResult.apply` folds, so ``repro monitor`` and
explain read a fleet scenario exactly like a single-engine one.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..errors import FleetError
from ..obs.metrics import Histogram
from ..obs.slo import hdr_buckets
from ..obs.timeline import EventLog, TimelineEvent, run_event_log
from ..sim import EventHandle, EventLoop
from .devices import FleetDevice
from .health import FleetHealth, FailoverPolicy, HedgePolicy
from .requests import AdmissionController, FleetRequest

__all__ = ["FleetResult", "FleetSimulation"]

#: Fleet-wide aggregation resolution (4 sub-buckets/octave); device
#: histograms use generation-dependent bits, so merging into these
#: bounds is the mixed-resolution path by construction.
_FLEET_HDR_BITS = 2


def _fleet_histogram(name: str, lo: float, hi: float) -> Histogram:
    return Histogram(name, buckets=hdr_buckets(
        lo, hi, precision_bits=_FLEET_HDR_BITS))


@dataclass
class _Dispatch:
    """One in-flight (request, device) service; a hedged request has two."""

    request: FleetRequest
    device_id: int
    outcome: object  # ServiceOutcome
    handle: EventHandle
    start_seconds: float
    hedged: bool = False


@dataclass
class FleetResult:
    """Raw outcome of one simulated serving window: every tally but
    ``n_unserved``/``peak_queue_depth`` folds from the run's events."""

    devices: List[FleetDevice]
    n_arrivals: int = 0
    n_dispatched: int = 0
    n_completed: int = 0
    n_shed: int = 0
    n_unserved: int = 0
    makespan_seconds: float = 0.0
    peak_queue_depth: int = 0
    tokens: int = 0
    joules: float = 0.0
    n_faults: int = 0
    n_retries: int = 0
    # --- chaos / recovery counters (all zero on a fault-free run) ---
    n_failed: int = 0            #: requests whose failover budget ran out
    n_failovers: int = 0         #: re-dispatch attempts scheduled
    n_fleet_faults: int = 0      #: fleet.device fault events fired
    n_crashes: int = 0
    n_reboots: int = 0
    n_drops: int = 0             #: dispatches actually lost in flight
    n_straggles: int = 0
    n_battery_faults: int = 0
    n_hedges: int = 0            #: hedge dispatches issued
    n_hedge_cancelled: int = 0   #: losing hedge legs cancelled
    n_breaker_opens: int = 0
    n_breaker_closes: int = 0
    request_latency: Histogram = field(default_factory=lambda: _fleet_histogram(
        "fleet.request_latency_seconds", 1e-3, 1074.0))
    queue_wait: Histogram = field(default_factory=lambda: _fleet_histogram(
        "fleet.queue_wait_seconds", 1e-4, 1074.0))
    #: joules priced by each live (request, device) leg's dispatch
    _leg_joules: Dict[Tuple[int, int], float] = field(
        default_factory=dict, init=False, repr=False)

    def apply(self, event: TimelineEvent) -> None:
        """Fold one of the run's fleet events into the tallies (the only
        writer).  A leg's joules are charged at the event that ends it
        (``complete``, cancelled ``hedge``, ``failover``), in order."""
        kind, attrs, rid = event.kind, event.attrs, event.request_id
        if kind == "queue":
            if not attrs.get("reoffer"):
                self.n_arrivals += 1
        elif kind == "dispatch":
            self.n_dispatched += 1
            self._leg_joules[rid, attrs["device"]] = attrs["joules"]
            if not attrs.get("hedged"):  # zero waits: the first bucket
                self.queue_wait.observe(attrs["wait_seconds"])
        elif kind == "complete":
            self._end_leg(rid, attrs["device"], attrs)
            self.n_completed += 1
            self.tokens += attrs["tokens"]
            self.n_faults += attrs.get("n_faults", 0)
            self.n_retries += attrs.get("n_retries", 0)
            self.makespan_seconds = max(self.makespan_seconds,
                                        event.sim_time)
            self.request_latency.observe(attrs["latency_seconds"])
        elif kind == "shed":
            self.n_shed += 1
        elif kind == "hedge":
            if attrs.get("cancelled"):
                self._end_leg(rid, attrs["loser"], attrs)
                self.n_hedge_cancelled += 1
            else:
                self.n_hedges += 1
        elif kind == "failover":
            self._end_leg(rid, attrs["from_device"], attrs)
            if attrs["outcome"] == "retry":
                self.n_failovers += 1
            else:
                self.n_failed += 1
        elif kind == "device_down":
            self.n_fleet_faults += 1
            self.n_crashes += 1
        elif kind == "device_up":
            self.n_reboots += 1
        elif kind == "fault":
            self.n_fleet_faults += 1
            if attrs["fault_kind"] == "straggle":
                self.n_straggles += 1
            elif attrs["fault_kind"] == "battery_drain":
                self.n_battery_faults += 1
        elif kind == "breaker_open":
            self.n_breaker_opens += 1
        elif kind == "breaker_close":
            self.n_breaker_closes += 1

    def _end_leg(self, rid: int, device_id: int, attrs: Dict) -> None:
        # every leg drew its energy at dispatch: served, cancelled and
        # lost legs alike keep the fleet ledger honest about waste
        self.joules += self._leg_joules.pop((rid, device_id))
        if attrs.get("reason") == "drop":
            self.n_drops += 1

    def token_latency(self) -> Histogram:
        """All devices' token-latency histograms folded into one.

        Per-device instruments carry generation-matched resolutions
        (:data:`~repro.fleet.devices.GENERATION_HDR_BITS`), so this is
        the mixed-resolution :meth:`~repro.obs.metrics.Histogram.merge`
        running in production, not just in its regression test.
        """
        merged = _fleet_histogram("fleet.token_latency_seconds", 1e-4, 134.0)
        for device in self.devices:
            if device.histogram.count:
                merged.merge(device.histogram)
        return merged

    @property
    def n_throttle_events(self) -> int:
        return sum(d.thermal.n_throttles for d in self.devices)

    @property
    def n_batteries_depleted(self) -> int:
        return sum(1 for d in self.devices if d.battery.depleted)

    def busy_fraction(self) -> float:
        """Mean device utilization over the makespan."""
        if self.makespan_seconds <= 0.0 or not self.devices:
            return 0.0
        busy = sum(d.busy_seconds for d in self.devices)
        return busy / (len(self.devices) * self.makespan_seconds)

    # ------------------------------------------------------------------
    def conservation(self) -> Dict[str, int]:
        """The invariant's ledger: every offered request's terminal state."""
        return {
            "offered": self.n_arrivals,
            "completed": self.n_completed,
            "shed": self.n_shed,
            "failed_permanently": self.n_failed,
            "unserved": self.n_unserved,
        }

    def check_conservation(self) -> None:
        """Raise :class:`FleetError` unless every request is accounted."""
        ledger = self.conservation()
        terminal = (ledger["completed"] + ledger["shed"]
                    + ledger["failed_permanently"] + ledger["unserved"])
        if ledger["offered"] != terminal:
            raise FleetError(
                f"request conservation violated: offered "
                f"{ledger['offered']} != completed + shed + "
                f"failed_permanently + unserved = {terminal} ({ledger})")


class FleetSimulation:
    """Drives a device population through an arrival trace.

    ``fault_plan`` arms any ``fleet.device`` events it carries on the
    shared loop (its scheduler-level events are untouched here — engine
    devices arm those per run).  ``failover`` / ``hedge`` configure the
    recovery policies; with no plan and no hedging the health layer is
    inert and the simulation is bitwise-identical to the pre-chaos one.
    """

    def __init__(self, devices: Sequence[FleetDevice],
                 requests: Sequence[FleetRequest],
                 admission: Optional[AdmissionController] = None,
                 loop: Optional[EventLoop] = None,
                 fault_plan=None,
                 failover: Optional[FailoverPolicy] = None,
                 hedge: Optional[HedgePolicy] = None,
                 seed: int = 0,
                 breaker_failure_threshold: int = 3,
                 breaker_cooldown_seconds: float = 2.0) -> None:
        if not devices:
            raise FleetError("fleet simulation needs at least one device")
        ids = [d.device_id for d in devices]
        if len(set(ids)) != len(ids):
            raise FleetError(f"duplicate device ids in population: {ids}")
        self.devices = list(devices)
        self._by_id: Dict[int, FleetDevice] = {d.device_id: d
                                               for d in self.devices}
        self.requests = sorted(requests,
                               key=lambda r: (r.arrival_seconds,
                                              r.request_id))
        self.admission = (admission if admission is not None
                          else AdmissionController())
        self.loop = loop if loop is not None else EventLoop()
        self.health = FleetHealth(
            self._by_id, seed=seed, failover=failover, hedge=hedge,
            failure_threshold=breaker_failure_threshold,
            cooldown_seconds=breaker_cooldown_seconds)
        self._fault_events: Tuple = ()
        if fault_plan is not None:
            self._fault_events = fault_plan.fleet_events()
            unknown = sorted({e.device for e in self._fault_events}
                             - set(self._by_id))
            if unknown:
                raise FleetError(
                    f"fault plan addresses devices {unknown} not in the "
                    f"population (ids: {sorted(self._by_id)})")
        # (idle_since, device_id): longest-idle first, ties by id — a
        # device appears at most once (the _in_rotation mirror guards
        # the rejoin paths: reboot, breaker half-open, hedge release)
        self._idle: List[Tuple[float, int]] = [
            (0.0, d.device_id) for d in sorted(self.devices,
                                               key=lambda d: d.device_id)]
        heapq.heapify(self._idle)
        self._in_rotation: Set[int] = {d.device_id for d in self.devices}
        self._inflight: Dict[int, List[_Dispatch]] = {}
        self._attempts: Dict[int, int] = {}
        self._completed_ids: Set[int] = set()
        self._hedge_pending: List[int] = []
        self.result = FleetResult(devices=self.devices)
        self._log: Optional[EventLog] = None

    def _record(self, kind: str, now: float, **attrs) -> None:
        """Emit one fleet fact and fold it into the result."""
        self.result.apply(self._log.emit(kind, now, **attrs))

    # ------------------------------------------------------------------
    def run(self) -> FleetResult:
        self._log = run_event_log()
        # fault events enter the heap first: at equal timestamps a
        # fault fires before an arrival, deterministically
        for event in self._fault_events:
            self.loop.at(event.time_seconds, self._fault, event)
        for request in self.requests:
            self.loop.at(request.arrival_seconds, self._arrive, request)
        self.loop.run()
        # drop a run-private log now: the loop's handle/dispatch cycles
        # would otherwise keep it alive until the next gc
        self._log = None
        # whatever is still queued after the last completion can never
        # be served (every device depleted/offline): account, don't lose
        leftover = self.admission.drain()
        self.result.n_unserved = len(leftover)
        self.result.peak_queue_depth = self.admission.peak_depth
        self.result.check_conservation()
        return self.result

    # ------------------------------------------------------------------
    def _arrive(self, request: FleetRequest) -> None:
        now = self.loop.now
        self._record("queue", now, request_id=request.request_id,
                     tenant=request.tenant)
        admitted, shed = self.admission.offer(request)
        if not admitted:
            self._shed(request, now)
        elif shed is not None:
            self._shed(shed, now)
        self._dispatch()

    def _shed(self, request: FleetRequest, now: float) -> None:
        self._record("shed", now, request_id=request.request_id,
                     tenant=request.tenant, queue_depth=len(self.admission))

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def _dispatchable(self, device: FleetDevice) -> bool:
        return (not device.battery.depleted
                and self.health[device.device_id].dispatchable())

    def _pop_idle_device(self) -> Optional[FleetDevice]:
        """Longest-idle dispatchable device, or None; skipped entries
        drop out of the rotation until a rejoin path re-adds them."""
        while self._idle:
            _, device_id = heapq.heappop(self._idle)
            self._in_rotation.discard(device_id)
            device = self._by_id[device_id]
            if self._dispatchable(device):
                return device
        return None

    def _try_rejoin(self, device: FleetDevice, now: float) -> None:
        """Return a freed device to the idle rotation if it may serve."""
        if device.busy or device.device_id in self._in_rotation:
            return
        if not self._dispatchable(device):
            return
        heapq.heappush(self._idle, (now, device.device_id))
        self._in_rotation.add(device.device_id)

    def _dispatch(self) -> None:
        now = self.loop.now
        hedge = self.health.hedge
        while len(self.admission) > 0 and self._idle:
            device = self._pop_idle_device()
            if device is None:
                return
            request = self.admission.pop()
            assert request is not None
            wait = now - request.arrival_seconds
            # the dispatch event folds this wait into result.queue_wait
            # before the hedge decision reads it
            self._start_dispatch(request, device, now, wait, hedged=False)
            if (hedge is not None
                    and hedge.should_hedge(wait, self.result.queue_wait)):
                # p99 queue tail: eligible for a hedge copy once the
                # fleet has spare capacity
                self._hedge_pending.append(request.request_id)
        self._service_hedges(now)

    def _service_hedges(self, now: float) -> None:
        """Hedge the queue tail onto spare devices.

        A request whose queue wait landed in the policy's tail gets a
        second dispatch on another device as soon as the queue is empty
        and a device idles — never ahead of real queued work.  The two
        legs race; the first completion wins and cancels the other.
        """
        if self.health.hedge is None or not self._hedge_pending:
            return
        if len(self.admission) > 0:
            return
        while self._hedge_pending:
            rid = self._hedge_pending[0]
            legs = self._inflight.get(rid)
            if not legs or len(legs) != 1 or legs[0].hedged:
                self._hedge_pending.pop(0)  # completed or already hedged
                continue
            partner = self._pop_idle_device()
            if partner is None:
                return  # stays pending; retried when a device frees
            self._hedge_pending.pop(0)
            primary = legs[0]
            self._record(
                "hedge", now, request_id=rid,
                primary=primary.device_id,
                secondary=partner.device_id,
                elapsed_seconds=now - primary.request.arrival_seconds)
            self._start_dispatch(
                primary.request, partner, now,
                now - primary.request.arrival_seconds, hedged=True)

    def _start_dispatch(self, request: FleetRequest, device: FleetDevice,
                        now: float, wait: float, hedged: bool) -> None:
        multiplier = self.health[device.device_id].service_multiplier(now)
        outcome = device.serve(request, now,
                               service_multiplier=multiplier)
        attrs = dict(request_id=request.request_id,
                     device=device.device_id,
                     generation=device.generation,
                     wait_seconds=wait,
                     service_seconds=outcome.service_seconds,
                     joules=outcome.joules)
        if hedged:
            attrs["hedged"] = True
        self._record("dispatch", now, **attrs)
        dispatch = _Dispatch(request=request, device_id=device.device_id,
                             outcome=outcome, handle=None,  # set below
                             start_seconds=now, hedged=hedged)
        dispatch.handle = self.loop.after(outcome.service_seconds,
                                          self._complete, dispatch)
        self._inflight.setdefault(request.request_id, []).append(dispatch)

    # ------------------------------------------------------------------
    # completion (and first-completion-wins hedge cancellation)
    # ------------------------------------------------------------------
    def _complete(self, dispatch: _Dispatch) -> None:
        now = self.loop.now
        request = dispatch.request
        rid = request.request_id
        legs = self._inflight.pop(rid, [dispatch])
        losers = [leg for leg in legs if leg is not dispatch]
        for loser in losers:
            self._cancel_leg(loser, now)
            self._record("hedge", now, request_id=rid,
                         loser=loser.device_id, winner=dispatch.device_id,
                         cancelled=True)
        if rid in self._completed_ids:
            raise FleetError(
                f"request {rid} completed twice — hedge cancellation "
                f"failed to fire")
        self._completed_ids.add(rid)
        device = self._by_id[dispatch.device_id]
        outcome = dispatch.outcome
        device.complete(request, outcome, now)
        attrs = dict(request_id=rid, reason="served", tokens=outcome.tokens,
                     latency_seconds=now - request.arrival_seconds,
                     joules=outcome.joules, device=dispatch.device_id,
                     tenant=request.tenant)
        # an engine device's scheduler faults ride along only when
        # nonzero, so analytic devices' events carry no extra attrs
        if outcome.n_faults:
            attrs["n_faults"] = outcome.n_faults
        if outcome.n_retries:
            attrs["n_retries"] = outcome.n_retries
        self._record("complete", now, **attrs)
        breaker = self.health[device.device_id].breaker
        if breaker.record_success():  # half-open probe succeeded
            self._record("breaker_close", now, device=device.device_id)
        self._try_rejoin(device, now)
        for loser in losers:
            self._try_rejoin(self._by_id[loser.device_id], now)
        self._dispatch()

    # ------------------------------------------------------------------
    # fleet-level faults
    # ------------------------------------------------------------------
    def _fault(self, event) -> None:
        now = self.loop.now
        device = self._by_id[event.device]
        health = self.health[event.device]
        if event.kind == "device_crash":
            health.online = False
            self._record("device_down", now, device=event.device,
                         reboot_seconds=event.duration_seconds)
            self._fail_inflight_on(device, now, reason="crash")
            if event.duration_seconds is not None:
                self.loop.after(event.duration_seconds, self._reboot,
                                device)
        elif event.kind == "straggle":
            health.start_straggle(now, event.factor,
                                  event.duration_seconds)
            self._record("fault", now, fault_kind="straggle",
                         device=event.device, factor=event.factor,
                         duration_seconds=event.duration_seconds)
        elif event.kind == "dispatch_drop":
            self._record("fault", now, fault_kind="dispatch_drop",
                         device=event.device)
            if self._fail_inflight_on(device, now, reason="drop"):
                self._try_rejoin(device, now)
                self._dispatch()
        elif event.kind == "battery_drain":
            device.battery.deplete()
            self._record("fault", now, fault_kind="battery_drain",
                         device=event.device)
        else:  # pragma: no cover — grammar validation forbids this
            raise FleetError(f"unhandled fleet fault kind {event.kind!r}")

    def _fail_inflight_on(self, device: FleetDevice, now: float,
                          reason: str) -> int:
        """Cancel every live dispatch on ``device``; fail them over.

        Returns the number of dispatches lost.  A lost *hedge leg*
        whose sibling is still running is not a request failure — the
        request is still being served — but it does count against the
        device's breaker.
        """
        lost = 0
        for rid in list(self._inflight):
            legs = self._inflight.get(rid, [])
            victims = [leg for leg in legs
                       if leg.device_id == device.device_id
                       and leg.handle.pending]
            for victim in victims:
                self._cancel_leg(victim, now)
                legs.remove(victim)
                lost += 1
                self._record_device_failure(device, now)
                if legs:
                    # the sibling hedge leg races on — no failover
                    self._record("hedge", now, request_id=rid,
                                 loser=device.device_id, cancelled=True,
                                 reason=reason)
                else:
                    del self._inflight[rid]
                    self._failover(victim.request, device, now, reason)
        return lost

    def _cancel_leg(self, leg: _Dispatch, now: float) -> None:
        """Cancel a live leg; its device refunds the unfired busy tail."""
        self.loop.cancel(leg.handle)
        unused = leg.start_seconds + leg.outcome.service_seconds - now
        self._by_id[leg.device_id].release(now, unused_seconds=unused)

    def _record_device_failure(self, device: FleetDevice,
                               now: float) -> None:
        breaker = self.health[device.device_id].breaker
        cooldown = breaker.record_failure()
        if cooldown is not None:
            self._record(
                "breaker_open", now, device=device.device_id,
                cooldown_seconds=cooldown,
                consecutive_failures=breaker.consecutive_failures)
            self.loop.after(cooldown, self._half_open, device)

    def _half_open(self, device: FleetDevice) -> None:
        self.health[device.device_id].breaker.half_open()
        self._try_rejoin(device, self.loop.now)
        self._dispatch()

    def _reboot(self, device: FleetDevice) -> None:
        health = self.health[device.device_id]
        if health.online:
            return  # a later crash/reboot pair already brought it back
        health.online = True
        now = self.loop.now
        self._record("device_up", now, device=device.device_id)
        self._try_rejoin(device, now)
        self._dispatch()

    # ------------------------------------------------------------------
    # failover
    # ------------------------------------------------------------------
    def _failover(self, request: FleetRequest, from_device: FleetDevice,
                  now: float, reason: str) -> None:
        rid = request.request_id
        attempt = self._attempts.get(rid, 0)
        policy = self.health.failover
        if attempt >= policy.max_attempts:
            self._record("failover", now, request_id=rid,
                         from_device=from_device.device_id,
                         reason=reason, attempt=attempt,
                         outcome="exhausted")
            return
        self._attempts[rid] = attempt + 1
        delay = policy.backoff(rid, attempt)
        self._record("failover", now, request_id=rid,
                     from_device=from_device.device_id, reason=reason,
                     attempt=attempt, outcome="retry", backoff_seconds=delay)
        self.loop.after(delay, self._reoffer, request)

    def _reoffer(self, request: FleetRequest) -> None:
        """Re-enter the admission queue after a failover backoff.

        The request keeps its tenant class (a failed-over batch request
        must not jump interactive traffic) and takes a fresh arrival
        sequence number — the back of its priority class, like any
        other late arrival.  Re-offers do not recount as arrivals.
        """
        now = self.loop.now
        self._record("queue", now, request_id=request.request_id,
                     tenant=request.tenant, reoffer=True)
        admitted, shed = self.admission.offer(request)
        if not admitted:
            self._shed(request, now)
        elif shed is not None:
            self._shed(shed, now)
        self._dispatch()
