"""Outside-in span tracing of the layers the benchmark names.

The program under test is not edited.  A :class:`LayerTracer` replaces
each public callable listed in :data:`TARGETS` with a timing wrapper for
the duration of a ``with tracer.installed():`` block, then puts the
originals back.  A function imported by name (``from ..npu.hmx import
pad_to_tiles``) is resolved by its caller in the caller's own module, so
the wrapper is installed under *every* ``repro.*`` module attribute bound
to the original object, not only where it is defined.

Each wrapped call is a span.  Spans nest on one stack; a layer's self
time is its span duration minus the time covered by child spans, and
its inclusive time counts only its outermost span, so a layer that calls
itself (``awq_quantize`` -> ``quantize_tile_group``) is not counted
twice.  The benchmark opens one root span per iteration, so the self
times of all layers plus the root telescope to the traced iteration
time.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Tuple

ROOT = "bench.iteration"


@dataclass(frozen=True)
class Target:
    """One public callable and the layer it belongs to.  With
    ``collect`` the tracer keeps what each call returned."""

    layer: str
    module: str
    qualname: str
    collect: bool = False


#: Every callable the traced run wraps, grouped by layer name.
TARGETS: Tuple[Target, ...] = (
    Target("llm.scheduler", "repro.llm.scheduler",
           "ContinuousBatchingScheduler.generate"),
    Target("llm.engine", "repro.llm.engine", "InferenceEngine.prefill",
           collect=True),
    Target("llm.engine", "repro.llm.engine", "InferenceEngine.prefill_chunk",
           collect=True),
    Target("llm.engine", "repro.llm.engine", "InferenceEngine.decode_step",
           collect=True),
    Target("llm.model", "repro.llm.model", "NPUTransformer.forward"),
    Target("llm.model", "repro.llm.model", "reference_forward"),
    Target("llm.block_pool", "repro.llm.block_pool",
           "PagedLayerKVCache.append"),
    Target("llm.block_pool", "repro.llm.block_pool", "PagedLayerKVCache.view"),
    Target("llm.block_pool", "repro.llm.block_pool", "PagedLayerKVCache.fork"),
    Target("kernels.flash_attention", "repro.kernels.flash_attention",
           "FlashAttention.__call__"),
    Target("kernels.gemm", "repro.kernels.gemm", "MixedPrecisionGemm.__call__"),
    Target("kernels.dequant", "repro.kernels.dequant", "dequantize_stream"),
    Target("npu.hmx.gemm", "repro.npu.hmx", "HMXUnit.gemm"),
    Target("npu.hmx.pad_to_tiles", "repro.npu.hmx", "pad_to_tiles"),
    Target("npu.hmx.matrix_to_hmx_layout", "repro.npu.hmx",
           "matrix_to_hmx_layout"),
    Target("npu.timing", "repro.npu.timing", "TimingModel.seconds"),
    Target("quant", "repro.quant.awq", "awq_quantize"),
    Target("quant", "repro.quant.tile_quant", "quantize_tile_group"),
    Target("quant", "repro.quant.tile_quant", "quantize_conventional_group"),
    Target("quant", "repro.quant.tile_quant", "dequantize_weight"),
    Target("quant", "repro.quant.schemes", "quantize_per_channel"),
    Target("fleet.report", "repro.fleet.report", "run_fleet"),
    Target("fleet.report", "repro.fleet.report", "plan_capacity"),
    Target("fleet.simulation", "repro.fleet.simulation", "FleetSimulation.run"),
    Target("sim", "repro.sim", "EventLoop.step"),
    Target("fleet.devices", "repro.fleet.devices", "FleetDevice.serve"),
    Target("obs.timeline", "repro.obs.timeline", "EventLog.emit"),
    Target("obs.timeline", "repro.obs.timeline", "EventLog.timeline"),
    Target("obs.critical_path", "repro.obs.critical_path",
           "validate_lifecycle"),
    Target("obs.critical_path", "repro.obs.critical_path", "explain_log"),
    Target("obs.blame", "repro.obs.blame", "aggregate_blame"),
)

#: Layer names in report order (first appearance in :data:`TARGETS`).
LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(t.layer for t in TARGETS))


class LayerStats:
    """Per-layer accumulators of one traced iteration."""

    __slots__ = ("calls", "host_s", "self_host_s")

    def __init__(self) -> None:
        self.calls = 0
        self.host_s = 0.0
        self.self_host_s = 0.0


class LayerTracer:
    """Span stack plus per-layer call counts and host seconds."""

    def __init__(self) -> None:
        self.stats: Dict[str, LayerStats] = {}
        self.returned: Dict[str, List[Any]] = {}
        # one frame per open span: [layer, seconds covered by children]
        self._stack: List[List[Any]] = []
        self._open: Dict[str, int] = {}
        self._patches: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Start a fresh iteration's accumulators."""
        if self._stack:
            raise RuntimeError(f"reset with open spans: {self._stack}")
        self.stats = {layer: LayerStats() for layer in (ROOT,) + LAYERS}
        self.returned = {}

    def _enter(self, layer: str) -> None:
        self._stack.append([layer, 0.0])
        self._open[layer] = self._open.get(layer, 0) + 1

    def _exit(self, layer: str, seconds: float) -> None:
        _, children = self._stack.pop()
        self._open[layer] -= 1
        stats = self.stats[layer]
        stats.calls += 1
        stats.self_host_s += seconds - children
        if self._open[layer] == 0:
            stats.host_s += seconds
        if self._stack:
            self._stack[-1][1] += seconds

    @contextlib.contextmanager
    def root(self) -> Iterator[None]:
        """The iteration span every layer span nests under."""
        self._enter(ROOT)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._exit(ROOT, time.perf_counter() - start)

    def _wrap(self, target: Target, original: Callable) -> Callable:
        layer = target.layer
        collect = target.collect
        enter, exit_ = self._enter, self._exit
        clock = time.perf_counter

        @functools.wraps(original)
        def traced(*args, **kwargs):
            enter(layer)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                exit_(layer, clock() - start)
            if collect:
                self.returned.setdefault(layer, []).append(result)
            return result

        return traced

    # ------------------------------------------------------------------
    @contextlib.contextmanager
    def installed(self) -> Iterator["LayerTracer"]:
        """Wrap every target for the block's duration, then restore."""
        try:
            for target in TARGETS:
                self._install(target)
            yield self
        finally:
            for owner, name, original in reversed(self._patches):
                setattr(owner, name, original)
            self._patches.clear()

    def _install(self, target: Target) -> None:
        module = importlib.import_module(target.module)
        owner_name, _, attr = target.qualname.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            original = owner.__dict__[attr]
            if not callable(original):
                raise TypeError(f"{target.qualname} is not a plain method")
            self._patch(owner, attr, original, self._wrap(target, original))
            return
        original = getattr(module, attr)
        wrapper = self._wrap(target, original)
        # a by-name import binds the function in the importer's globals:
        # patch every repro module that holds this very object
        for name, mod in list(sys.modules.items()):
            if name != "repro" and not name.startswith("repro."):
                continue
            namespace = getattr(mod, "__dict__", {})
            for key, value in list(namespace.items()):
                if value is original:
                    self._patch(mod, key, original, wrapper)

    def _patch(self, owner: Any, name: str, original: Any,
               wrapper: Callable) -> None:
        setattr(owner, name, wrapper)
        self._patches.append((owner, name, original))

    # ------------------------------------------------------------------
    def telescoping_error(self) -> float:
        """|sum of self times - root time| as a share of root time."""
        total_self = sum(s.self_host_s for s in self.stats.values())
        root = self.stats[ROOT].host_s
        return abs(total_self - root) / root if root > 0 else 0.0


__all__ = ["LAYERS", "ROOT", "TARGETS", "LayerTracer", "Target"]
