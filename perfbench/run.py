"""Repo benchmark: host and simulated time on four workloads.

Run from the repository root:

    python3 perfbench/run.py --workload bon_decode --seed 0 --seconds 20 --trace 0

One process runs one workload.  It sets the workload up several times
(``setup_s`` is the median), runs one untimed warm-up iteration whose
outputs become the reference, then runs closed-loop iterations for
``--seconds`` seconds.  Every iteration is checked: its invariants, its
digest against the warm-up's, and at the default seed the warm-up
against the values committed in ``expected.json``.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` spends half the time untraced and half with every layer
of ``tracing.TARGETS`` wrapped, and reports the per-layer metrics,
including the tracing overhead.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

# one BLAS/OpenMP thread, fixed before numpy is first imported: the host
# has few cores and thread-pool wake-ups only add noise to host time
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from typing import Any, Dict, List, Optional, Tuple  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: Fewest timed iterations in a window, however slow the host.
MIN_ITERATIONS = 3
#: The seed whose outputs ``expected.json`` pins.
DEFAULT_SEED = 0
#: Largest |sum of self times - iteration time| / iteration time.
TELESCOPE_TOLERANCE = 1e-6


def _load_spec() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def fingerprint() -> Dict[str, Any]:
    """Enough to tell two hosts or two source trees apart."""
    import numpy

    sha = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10).stdout.strip() or "unknown"
        except (OSError, subprocess.SubprocessError):
            pass
    source = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "repro", "**",
                                              "*.py"), recursive=True)):
        source.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as fh:
            source.update(fh.read())
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "git_sha": sha,
        "src_sha256": source.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
    }


class Runner:
    """Runs one workload's iterations and keeps the failure ledger.

    The first outcome checked becomes the reference that every later
    iteration must reproduce exactly."""

    def __init__(self, bench: Any) -> None:
        from repro.obs import metrics as obs_metrics

        self._metrics = obs_metrics
        self.bench = bench
        self.reference: Any = None
        self.problems: List[str] = []
        self.attempted = 0
        self.failed = 0

    def once(self) -> Any:
        """One iteration on a fresh metrics registry; None if it raised."""
        self._metrics.set_metrics(self._metrics.MetricsRegistry())
        try:
            return self.bench.run()
        except Exception:  # an iteration that raises is one failed operation
            traceback.print_exc(file=sys.stderr)
            self.problems.append("iteration raised")
            self.attempted += 1
            self.failed += 1
            return None

    def check(self, outcome: Any, label: str) -> None:
        self.attempted += outcome.attempted
        self.failed += outcome.failed
        self.problems.extend(f"{label}: {p}" for p in outcome.problems)
        if self.reference is None:
            self.reference = outcome
            return
        if outcome.digest != self.reference.digest:
            self.problems.append(f"{label}: outputs differ from the warm-up")
        if outcome.sim != self.reference.sim:
            self.problems.append(f"{label}: simulated metrics differ from "
                                 "the warm-up")

    def untraced(self, window: float) -> List[float]:
        """Host seconds of each iteration run within ``window``."""
        times: List[float] = []
        start = time.perf_counter()
        while (len(times) < MIN_ITERATIONS
               or time.perf_counter() - start < window):
            t0 = time.perf_counter()
            outcome = self.once()
            times.append(time.perf_counter() - t0)
            if outcome is not None:
                self.check(outcome, "untraced")
        return times

    def traced(self, window: float, tracer: Any
               ) -> Tuple[List[Dict[str, Any]], Dict[str, List[Any]]]:
        """Layer stats of each traced iteration, and what the first
        traced iteration's collecting targets returned."""
        from tracing import ROOT as ROOT_SPAN

        stats: List[Dict[str, Any]] = []
        returned: Dict[str, List[Any]] = {}
        start = time.perf_counter()
        with tracer.installed():
            while (len(stats) < MIN_ITERATIONS
                   or time.perf_counter() - start < window):
                tracer.reset()
                with tracer.root():
                    outcome = self.once()
                if outcome is not None:
                    self.check(outcome, "traced")
                error = tracer.telescoping_error()
                if error > TELESCOPE_TOLERANCE:
                    self.problems.append(
                        f"traced: self times miss the iteration time by "
                        f"{error:.2e} of it")
                if not stats:
                    returned = tracer.returned
                stats.append(tracer.stats)
        counts = [{layer: s.calls for layer, s in st.items()} for st in stats]
        if any(c != counts[0] for c in counts):
            self.problems.append("traced: call counts differ between "
                                 "iterations")
        if not stats[0][ROOT_SPAN].host_s > 0.0:
            self.problems.append("traced: empty iteration")
        return stats, returned


def _check_expected(name: str, reference: Any) -> List[str]:
    with open(os.path.join(HERE, "expected.json")) as fh:
        expected = json.load(fh)["workloads"][name]
    problems = []
    if reference.digest != expected["digest"]:
        problems.append(f"default seed: digest {reference.digest} != "
                        f"expected {expected['digest']}")
    for key, value in expected["sim"].items():
        if reference.sim.get(key) != value:
            problems.append(f"default seed: {key} = {reference.sim.get(key)!r}"
                            f" != expected {value!r}")
    return problems


def _layer_metrics(stats: List[Dict[str, Any]],
                   returned: Dict[str, List[Any]], reference: Any,
                   untraced_s: float) -> Dict[str, float]:
    """Per-layer metrics from the traced iterations: calls and simulated
    counts of the first, host seconds averaged over all of them."""
    from repro.npu.timing import KernelCost, TimingModel
    from tracing import LAYERS, ROOT as ROOT_SPAN
    from workloads import DEVICE

    n = len(stats)
    out: Dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = float(stats[0][layer].calls)
        out[f"{layer}.host_s"] = sum(s[layer].host_s for s in stats) / n
        out[f"{layer}.self_host_s"] = sum(
            s[layer].self_host_s for s in stats) / n
    out["bench.unattributed_host_s"] = sum(
        s[ROOT_SPAN].self_host_s for s in stats) / n
    traced_s = statistics.median(s[ROOT_SPAN].host_s for s in stats)
    out["trace.iter_host_s"] = traced_s
    out["trace.overhead_ratio"] = traced_s / untraced_s

    # simulated NPU counts, from the (logits, StepCost) the engine returned
    timing = TimingModel(DEVICE.npu)
    costs = [cost.npu for _, cost in returned.get("llm.engine", [])]
    total = KernelCost().combined(*costs)
    out["npu.hmx.tile_macs"] = float(total.hmx_tile_macs)
    out["npu.hvx.packets"] = float(total.hvx_packets)
    out["npu.hvx.vgathers"] = float(total.vgather_instrs)
    out["npu.dma.bytes"] = float(total.dma_bytes)
    out["sim.hmx_s"] = sum(timing.hmx_seconds(c) for c in costs)
    out["sim.hvx_s"] = sum(timing.hvx_seconds(c) for c in costs)
    out["sim.dma_s"] = sum(timing.dma_seconds(c) for c in costs)
    sim_seconds = reference.sim.get("sim_seconds", 0.0)
    out["sim.hmx_util"] = (out["sim.hmx_s"] / sim_seconds
                           if costs and sim_seconds > 0.0 else 0.0)
    events = out["sim.calls"]
    out["sim.host_us_per_event"] = (
        out["fleet.simulation.host_s"] / events * 1e6 if events else 0.0)
    out["kernels.flash_attention.calls_per_token"] = (
        out["kernels.flash_attention.calls"] / reference.tokens
        if reference.tokens else 0.0)
    return out


def main(argv: Optional[List[str]] = None) -> int:
    spec = _load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import repro
    if not os.path.abspath(repro.__file__).startswith(
            os.path.join(ROOT, "src") + os.sep):
        raise SystemExit(f"repro imported from {repro.__file__}, "
                         f"not from this checkout's src/")
    from repro.obs import trace as repro_trace
    from tracing import LayerTracer
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    setup_times = []
    bench = None
    for _ in range(SETUP_REPEATS):
        bench = None  # release the previous set-up before timing the next
        t0 = time.perf_counter()
        bench = workload(args.seed)
        setup_times.append(time.perf_counter() - t0)

    runner = Runner(bench)
    reference = runner.once()  # warm-up: untimed, the run's reference
    if reference is None:
        raise SystemExit("the warm-up iteration raised")
    runner.check(reference, "warm-up")
    if args.seed == DEFAULT_SEED:
        runner.problems.extend(_check_expected(args.workload, reference))
    if repro_trace.enabled():
        runner.problems.append("repro's own tracer is on")

    window = args.seconds / 2 if args.trace else args.seconds
    times = runner.untraced(window)
    iter_host_s = statistics.median(times)
    if args.trace:
        stats, returned = runner.traced(window, LayerTracer())
        values = dict(reference.sim)
        values.update(_layer_metrics(stats, returned, reference, iter_host_s))
        values["failed_share"] = runner.failed / runner.attempted
        wanted = spec["per_layer"]
        samples = len(stats)
    else:
        values = {
            "setup_s": statistics.median(setup_times),
            "iter_host_s": iter_host_s,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        wanted = spec["end_to_end"]
        samples = len(times)
    # a workload reports 0 for a quantity it does not produce; the info
    # line names them so a misspelt metric cannot hide as a 0
    not_produced = [m["name"] for m in wanted if m["name"] not in values]
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)),
                           "unit": m["unit"]} for m in wanted}

    for problem in runner.problems:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "iterations": samples,
        "untraced_times": [round(t, 4) for t in times],
        "setup_times": [round(t, 4) for t in setup_times],
        "digest": reference.digest,
        "sim": reference.sim, "not_produced": not_produced,
        "problems": runner.problems[:20],
        "fingerprint": fingerprint()}, sort_keys=True))
    print(json.dumps({
        "correct": not runner.problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
