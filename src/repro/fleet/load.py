"""Trace-driven load generation: seeded Poisson and diurnal arrivals.

A fleet simulation is only as honest as its arrival process.  This
module generates request traces as a pure function of a
:class:`TraceConfig` — all randomness flows through one
``numpy.random.default_rng`` stream spawned from ``[seed, pattern]``,
so the same config always yields the byte-identical trace (the
determinism the fuzz oracle and the golden fixture pin).

Two arrival patterns:

* ``poisson`` — homogeneous: exponential inter-arrival times at
  ``qps``.
* ``diurnal`` — inhomogeneous: the rate swings sinusoidally around
  ``qps`` with ``diurnal_amplitude`` over ``diurnal_period_seconds``,
  realized by thinning a Poisson process at the peak rate (Lewis &
  Shedler), the standard exact method for non-homogeneous Poisson
  sampling.

Request shapes (prompt length, Best-of-N width, token budget) and the
tenant class draw from the same stream, so heterogeneous workloads are
reproducible too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..errors import FleetError
from .requests import FleetRequest

__all__ = ["ARRIVAL_PATTERNS", "TraceConfig", "generate_trace"]

ARRIVAL_PATTERNS = ("poisson", "diurnal")

#: Seed-stream discriminator per pattern: traces of different patterns
#: never share an RNG stream even at the same seed.
_PATTERN_STREAM = {"poisson": 0, "diurnal": 1}

#: (tenant, weight) mix of the generated load; priorities come from
#: :data:`~repro.fleet.requests.DEFAULT_TENANT_PRIORITIES`.
_TENANT_MIX: Tuple[Tuple[str, float], ...] = (("interactive", 0.7),
                                              ("batch", 0.3))


@dataclass(frozen=True)
class TraceConfig:
    """Parameters of one generated arrival trace.

    At least one of ``horizon_seconds`` / ``max_requests`` must bound
    the trace; with both set, generation stops at whichever bound hits
    first.  Shape ranges are inclusive ``(lo, hi)`` bounds.
    """

    qps: float
    horizon_seconds: Optional[float] = None
    max_requests: Optional[int] = None
    seed: int = 0
    pattern: str = "poisson"
    diurnal_period_seconds: float = 120.0
    diurnal_amplitude: float = 0.6
    prompt_tokens: Tuple[int, int] = (32, 192)
    n_candidates: Tuple[int, int] = (1, 8)
    max_new_tokens: Tuple[int, int] = (16, 96)

    def validate(self) -> None:
        # a NaN qps or horizon would pass "<= 0" and never end the trace
        if not 0 < self.qps < math.inf:
            raise FleetError(f"qps must be positive and finite, got "
                             f"{self.qps}")
        if self.pattern not in ARRIVAL_PATTERNS:
            raise FleetError(
                f"unknown arrival pattern {self.pattern!r}; known: "
                f"{ARRIVAL_PATTERNS}")
        if self.horizon_seconds is None and self.max_requests is None:
            raise FleetError(
                "trace needs horizon_seconds and/or max_requests to bound it")
        if (self.horizon_seconds is not None
                and not 0 < self.horizon_seconds < math.inf):
            raise FleetError(
                f"horizon_seconds must be positive and finite, got "
                f"{self.horizon_seconds}")
        if self.max_requests is not None and self.max_requests <= 0:
            raise FleetError(
                f"max_requests must be positive, got {self.max_requests}")
        if not 0.0 <= self.diurnal_amplitude < 1.0:
            raise FleetError(
                f"diurnal_amplitude must be in [0, 1), got "
                f"{self.diurnal_amplitude}")
        if self.diurnal_period_seconds <= 0:
            raise FleetError(
                f"diurnal_period_seconds must be positive, got "
                f"{self.diurnal_period_seconds}")
        for name, (lo, hi) in (("prompt_tokens", self.prompt_tokens),
                               ("n_candidates", self.n_candidates),
                               ("max_new_tokens", self.max_new_tokens)):
            if lo <= 0 or hi < lo:
                raise FleetError(
                    f"{name} range must satisfy 0 < lo <= hi, got "
                    f"({lo}, {hi})")


def _draw_shape(rng: np.random.Generator, lo: int, hi: int) -> int:
    return int(rng.integers(lo, hi + 1))


def generate_trace(config: TraceConfig) -> List[FleetRequest]:
    """The arrival trace of ``config`` — deterministic for a config."""
    config.validate()
    rng = np.random.default_rng(
        [config.seed, _PATTERN_STREAM[config.pattern]])
    # thinning rate: for poisson the peak rate IS qps and every
    # candidate arrival is accepted, so both patterns share one loop
    amplitude = (config.diurnal_amplitude
                 if config.pattern == "diurnal" else 0.0)
    peak_rate = config.qps * (1.0 + amplitude)
    omega = 2.0 * math.pi / config.diurnal_period_seconds
    out: List[FleetRequest] = []
    t = 0.0
    while True:
        t += float(rng.exponential(1.0 / peak_rate))
        if (config.horizon_seconds is not None
                and t > config.horizon_seconds):
            break
        if amplitude > 0.0:
            rate = config.qps * (1.0 + amplitude * math.sin(omega * t))
            if float(rng.random()) >= rate / peak_rate:
                continue
        tenant = (_TENANT_MIX[0][0]
                  if float(rng.random()) < _TENANT_MIX[0][1]
                  else _TENANT_MIX[1][0])
        out.append(FleetRequest(
            request_id=len(out),
            arrival_seconds=t,
            tenant=tenant,
            prompt_tokens=_draw_shape(rng, *config.prompt_tokens),
            n_candidates=_draw_shape(rng, *config.n_candidates),
            max_new_tokens=_draw_shape(rng, *config.max_new_tokens)))
        if (config.max_requests is not None
                and len(out) >= config.max_requests):
            break
    return out
