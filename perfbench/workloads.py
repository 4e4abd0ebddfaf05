"""The benchmark's workloads: their requests, and how one pass runs.

Requests are plain data made from the seed alone (:func:`requests`), so
the parent process, the reference child and the measured child all see
the same inputs.  Everything that touches ``repro`` runs in a child
process (``child.py``) and imports it lazily.

Why each workload exists is in ``README.md``; in short:

* ``paper_suite`` — the 11 byte-checkable paper artifacts, serial and
  cold: attack execution, closed-loop simulation and BIoTA dominate.
* ``fleet_attack`` — one scaled-up fleet SHATTER sweep, serial and
  cold: trace generation, ADM fits and the batched schedule DP, with
  no attack execution at all.
* ``service_mixed`` — a ``repro serve`` control plane with one joined
  worker and two closed-loop clients: HTTP, job store, scheduler,
  remote wire and result-tier reads.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Any

WORKLOADS = ("paper_suite", "fleet_attack", "service_mixed")

PAPER_ARTIFACTS = (
    "fig3", "fig4", "fig5", "fig6", "fig10",
    "tab3", "tab4", "tab5", "tab6", "tab7", "sec6",
)
# The four artifacts that replay attacks day by day are evaluated on
# their last day only, and the others run at ``--days 6`` (the CI smoke
# size).  At registry defaults one cold suite takes ~25-30 s on a 2-CPU
# host, and the run must also compute the caching-off reference; that
# does not fit the benchmark's time budget.
PAPER_DAYS = 6
PAPER_ONE_EVAL_DAY = ("fig10", "tab5", "tab6", "tab7")

FLEET = {"n_homes": 48, "n_days": 8, "training_days": 4, "chunk": 8}

# The distinct (experiment, days, seed) jobs are dealt to the clients in
# a seeded shuffle.  Each client submits its share, then its share again
# in another order: the first round computes on the worker, the second
# replays from the result tier.  The fixed mix keeps a pass's work the
# same from seed to seed, and replays never race their computation.
SERVICE_EXPERIMENTS = ("fig3", "fig4", "fig6", "tab3", "sec6")
SERVICE_DAYS = (4, 5)
SERVICE_SEEDS = 4
SERVICE_CLIENTS = 2
SERVICE_POLL_S = 0.05
SERVICE_JOB_TIMEOUT_S = 60.0


@dataclass(frozen=True)
class Request:
    """One experiment run: the unit every output check compares."""

    experiment: str
    days: int | None = None
    params: tuple[tuple[str, Any], ...] = ()

    @property
    def key(self) -> str:
        return f"{self.experiment}|days={self.days}|{dict(self.params)}"

    @property
    def overrides(self) -> dict[str, Any]:
        return dict(self.params)


def requests(workload: str, seed: int) -> list[list[Request]]:
    """The request streams of one pass: one list per client (the serial
    workloads have one client).  Deterministic in ``seed``."""
    if workload == "paper_suite":
        suite = []
        for name in PAPER_ARTIFACTS:
            params: dict[str, Any] = {"seed": seed}
            if name in PAPER_ONE_EVAL_DAY:
                params["training_days"] = PAPER_DAYS - 1
            suite.append(Request(name, PAPER_DAYS, tuple(sorted(params.items()))))
        return [suite]
    if workload == "fleet_attack":
        params = {**FLEET, "seed": seed}
        return [[Request("fleet_attack", None, tuple(sorted(params.items())))]]
    if workload == "service_mixed":
        rng = random.Random(seed)
        jobs = [
            Request(name, days, (("seed", seed * SERVICE_SEEDS + i),))
            for name in SERVICE_EXPERIMENTS
            for days in SERVICE_DAYS
            for i in range(SERVICE_SEEDS)
        ]
        rng.shuffle(jobs)
        streams = []
        for client in range(SERVICE_CLIENTS):
            share = jobs[client::SERVICE_CLIENTS]
            streams.append(share + rng.sample(share, len(share)))
        return streams
    raise ValueError(f"unknown workload {workload!r}")


def work_units(workload: str, streams: list[list[Request]]) -> int:
    """What ``work_per_s`` counts: home-days (homes x evaluation days)
    on ``fleet_attack``, else requests (artifacts or jobs)."""
    if workload == "fleet_attack":
        return sum(
            p["n_homes"] * (p["n_days"] - p["training_days"])
            for p in (r.overrides for stream in streams for r in stream)
        )
    return sum(len(stream) for stream in streams)


def streams_to_wire(streams: list[list[Request]]) -> list:
    return [[[r.experiment, r.days, list(r.params)] for r in s] for s in streams]


def streams_from_wire(wire: list) -> list[list[Request]]:
    return [
        [Request(name, days, tuple(map(tuple, params))) for name, days, params in s]
        for s in wire
    ]


def distinct(streams: list[list[Request]]) -> list[Request]:
    return list(dict.fromkeys(r for stream in streams for r in stream))


# ----------------------------------------------------------------------
# Reference outputs (caching off, serial) — computed outside timed work
# ----------------------------------------------------------------------


def reference(streams: list[list[Request]]) -> dict[str, str]:
    from repro.runner import ArtifactCache, RunRequest, SerialRunner

    runner = SerialRunner(cache=ArtifactCache(memory=False, disk_dir=None))
    out = {}
    for request in distinct(streams):
        built = RunRequest.build(
            request.experiment, days=request.days, overrides=request.overrides
        )
        out[request.key] = runner.run([built])[0].rendered
    return out


# ----------------------------------------------------------------------
# One measured pass
# ----------------------------------------------------------------------


@dataclass
class Outcome:
    """One request as the client saw it."""

    key: str
    latency_s: float
    rendered: str | None = None
    error: str = ""


@dataclass
class PassResult:
    wall_s: float
    outcomes: list[Outcome]
    layer: dict[str, float] = field(default_factory=dict)


class SessionWorkload:
    """``paper_suite`` and ``fleet_attack``: one serial ``Session`` over a
    fresh cache dir, requests submitted one after another."""

    def __init__(self, cache_dir: str) -> None:
        from repro.api import Session

        self.session = Session(cache_dir=cache_dir, runner="serial")

    def run_pass(self, streams: list[list[Request]]) -> PassResult:
        outcomes = []
        started = time.perf_counter()
        for request in streams[0]:
            t0 = time.perf_counter()
            try:
                outcome = self.session.submit(
                    request.experiment, days=request.days, **request.overrides
                )
            except Exception as error:  # counted as a failed request
                outcomes.append(
                    Outcome(request.key, time.perf_counter() - t0, None, repr(error))
                )
                continue
            outcomes.append(
                Outcome(request.key, time.perf_counter() - t0, outcome.rendered)
            )
        return PassResult(time.perf_counter() - started, outcomes)

    def close(self) -> None:
        pass


class ServiceWorkload:
    """``service_mixed``: an in-process control plane, one ``repro worker
    --join`` subprocess, and closed-loop ``ServiceClient`` threads."""

    def __init__(self, cache_dir: str) -> None:
        import subprocess
        import sys

        from repro.api import ServiceClient
        from repro.service import ControlPlane

        self.plane = ControlPlane("127.0.0.1:0", cache_dir=cache_dir)
        self.worker: subprocess.Popen | None = None
        self.address = self.plane.start()
        try:
            self.worker = subprocess.Popen(
                [
                    sys.executable, "-m", "repro", "worker",
                    "--listen", "127.0.0.1:0",
                    "--join", self.address,
                    "--cache-dir", cache_dir,
                    "--jobs", "1",
                ],
                stdout=subprocess.DEVNULL,
            )
            client = ServiceClient(self.address)
            deadline = time.monotonic() + 60.0
            while not client.workers():
                if self.worker.poll() is not None or time.monotonic() > deadline:
                    raise RuntimeError("the worker never registered")
                time.sleep(0.01)
        except BaseException:
            self.close()
            raise

    def run_pass(self, streams: list[list[Request]]) -> PassResult:
        import threading

        from repro.api import ServiceClient

        done: list[list[tuple[Request, float, dict | None, str]]] = [
            [] for _ in streams
        ]

        def loop(index: int, stream: list[Request]) -> None:
            client = ServiceClient(self.address)
            for request in stream:
                t0 = time.perf_counter()
                try:
                    job = client.submit(
                        request.experiment,
                        days=request.days,
                        params=request.overrides,
                        client=f"client{index}",
                    )
                    view = client.wait(
                        job["job_id"],
                        timeout=SERVICE_JOB_TIMEOUT_S,
                        poll=SERVICE_POLL_S,
                    )
                except Exception as error:  # counted as a failed request
                    done[index].append(
                        (request, time.perf_counter() - t0, None, repr(error))
                    )
                    continue
                done[index].append((request, time.perf_counter() - t0, view, ""))

        threads = [
            threading.Thread(target=loop, args=(i, s), name=f"client{i}")
            for i, s in enumerate(streams)
        ]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - started

        # Results are fetched after the timed window: job latency ends
        # when the client sees a terminal state.
        client = ServiceClient(self.address)
        outcomes = []
        waits, runs, requeues = [], [], 0
        for per_client in done:
            for request, latency, view, error in per_client:
                rendered = None
                if view is not None:
                    requeues += max(0, int(view["attempts"]) - 1)
                    if view["state"] == "done":
                        waits.append(view["started"] - view["submitted"])
                        runs.append(view["finished"] - view["started"])
                        runs_out = client.result(view["job_id"])
                        rendered = runs_out[0]["rendered"] if runs_out else None
                    else:
                        error = f"job {view['state']}: {view['error']}"
                outcomes.append(Outcome(request.key, latency, rendered, error))
        layer = {
            "service.queue_wait_s": sum(waits),
            "service.run_s": sum(runs),
            "service.requeues": requeues,
        }
        return PassResult(wall, outcomes, layer)

    def close(self) -> None:
        """SIGTERM drain of the worker, then the plane; idempotent."""
        import signal
        import subprocess

        worker, self.worker = self.worker, None
        if worker is not None:
            if worker.poll() is None:
                worker.send_signal(signal.SIGTERM)
            try:
                worker.wait(timeout=30.0)
            except subprocess.TimeoutExpired:
                worker.kill()
                worker.wait()
        self.plane.stop()
