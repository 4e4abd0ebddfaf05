"""One fresh benchmark process: the reference, or a measured pass.

Usage (``run.py`` does this; the spec is a JSON file)::

    python3 perfbench/child.py <spec.json>

The spec names ``mode`` (``reference`` | ``measure``),
``workload``, ``seed``, ``streams`` (the requests, made by the parent),
``cache_dir``, ``out`` (where the result JSON is
written), ``trace`` (0/1) and ``spans_out`` (where a traced pass writes
its spans, one JSON object a line).  Set-up ends by printing ``READY`` on
stdout; the parent times set-up from spawning the process to that line.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

import spans
import workloads


def _event_tally(tracer: spans.Tracer):
    """A ``Session.subscribe`` processor counting the program's own
    events: kernel seconds, scheduler retries and task starts, remote
    connects and lost workers."""
    from repro.events.dispatch import EventProcessor
    from repro.events.model import (
        KernelTimed,
        TaskFailed,
        TaskStarted,
        WorkerConnected,
        WorkerLost,
    )

    class EventTally(EventProcessor):
        def __init__(self) -> None:
            self.kernel_s: dict[str, float] = {}
            self.retries = 0
            self.queue_wait_s = 0.0
            self.connects = 0
            self.worker_lost = 0

        def handle(self, event, seq, ts) -> None:
            if isinstance(event, KernelTimed):
                self.kernel_s[event.kernel] = (
                    self.kernel_s.get(event.kernel, 0.0) + event.seconds
                )
            elif isinstance(event, TaskStarted):
                # ``started`` is the offset from the scheduler run's
                # start; the serial runner emits the same event, so
                # count only tasks the graph scheduler dispatched.
                if tracer.inside("runner.scheduler"):
                    self.queue_wait_s += event.started
            elif isinstance(event, TaskFailed) and event.retrying:
                self.retries += 1
            elif isinstance(event, WorkerConnected):
                self.connects += 1
            elif isinstance(event, WorkerLost):
                self.worker_lost += 1

    return EventTally()


def _bytes_under(root: Path, skip: str) -> int:
    total = 0
    for path in root.rglob("*"):
        if path.is_file() and skip not in path.relative_to(root).parts:
            total += path.stat().st_size
    return total


def _layer_metrics(tracer, tally, wall_s: float, cache_dir: Path) -> dict:
    from repro.api.store import STORE_SUBDIR

    out = spans.summarize(tracer.spans, wall_s)
    for tier in spans.CACHE_TIERS:
        hits, misses = tracer.cache_lookups.get(tier, [0, 0])
        out[f"runner.cache.{tier}.hits"] = hits
        out[f"runner.cache.{tier}.misses"] = misses
        out[f"runner.cache.{tier}.hit_ratio"] = (
            hits / (hits + misses) if hits + misses else 0.0
        )
    out["runner.cache.bytes_written"] = _bytes_under(cache_dir, STORE_SUBDIR)
    out["runner.scheduler.queue_wait_s"] = tally.queue_wait_s
    out["runner.scheduler.retries"] = tally.retries
    out["runner.remote.connects"] = tally.connects
    out["runner.remote.worker_lost"] = tally.worker_lost
    out["kernel.schedule_dp_batch_s"] = tally.kernel_s.get("schedule_dp_batch", 0.0)
    out["kernel.simulation_s"] = tally.kernel_s.get("simulation", 0.0)
    # Cross-check: a kernel timer runs inside its layer's entry point,
    # so its seconds cannot exceed the time that layer's spans were open.
    out["check.kernel_within_spans"] = int(
        tally.kernel_s.get("schedule_dp_batch", 0.0)
        <= spans.cumulative(tracer.spans, "attack.schedule") + 1e-3
        and tally.kernel_s.get("simulation", 0.0)
        <= spans.cumulative(tracer.spans, "hvac.simulation") + 1e-3
    )
    return out


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    mode, workload, seed = spec["mode"], spec["workload"], spec["seed"]
    cache_dir = Path(spec["cache_dir"])
    streams = workloads.streams_from_wire(spec["streams"])

    t0 = time.perf_counter()
    import repro.api  # noqa: F401 - timed: part of set-up
    import repro.service  # noqa: F401
    from repro.runner import load_all

    load_all()
    import_s = time.perf_counter() - t0
    from repro.runner.cache import code_fingerprint

    t0 = time.perf_counter()
    code_fingerprint()
    fingerprint_s = time.perf_counter() - t0

    if mode == "reference":
        Path(spec["out"]).write_text(
            json.dumps({"reference": workloads.reference(streams)})
        )
        return 0

    if workload == "service_mixed":
        bench = workloads.ServiceWorkload(str(cache_dir))
        session = bench.plane.session
    else:
        bench = workloads.SessionWorkload(str(cache_dir))
        session = bench.session
    try:
        print("READY", flush=True)
        tracer = tally = None
        if spec["trace"]:
            tracer = spans.Tracer(run_id=f"{workload}-{seed}")
            tally = _event_tally(tracer)
            session.subscribe(tally)
            tracer.install()
        try:
            result = bench.run_pass(streams)
        finally:
            if tracer is not None:
                tracer.uninstall()
    finally:
        bench.close()

    layer = {"service.queue_wait_s": 0.0, "service.run_s": 0.0,
             "service.requeues": 0, **result.layer}
    layer["repro.import_s"] = import_s
    layer["runner.cache.fingerprint_s"] = fingerprint_s
    if tracer is not None:
        layer.update(_layer_metrics(tracer, tally, result.wall_s, cache_dir))
        tracer.write(Path(spec["spans_out"]))
    import numpy  # already loaded by repro; only its version is read

    Path(spec["out"]).write_text(
        json.dumps(
            {
                "wall_s": result.wall_s,
                "outcomes": [vars(o) for o in result.outcomes],
                "layer": layer,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                / 1024.0,
                "numpy": numpy.__version__,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
