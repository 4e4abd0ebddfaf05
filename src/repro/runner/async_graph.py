"""Shard-graph execution: one scheduler interleaving every experiment.

:class:`AsyncShardRunner` decomposes each :class:`RunRequest` into a
shard-level task graph — prepare stages (trace generation, ADM fitting)
feeding per-shard compute, feeding a parent-side merge — and executes
the *union* of all requested experiments' graphs through one
:class:`~repro.runner.scheduler.GraphScheduler`.  Shards of different
experiments interleave, cache-warming I/O overlaps with compute, and
``jobs`` bounds total concurrency.

Three executors are available:

* ``"thread"`` (default) — work units run on worker threads.  Python's
  GIL serializes pure-Python compute, but cache I/O, NumPy kernels, and
  prepare stages overlap, and there is no pickling or process-spawn
  cost; this is also the mode whose cache telemetry a test can observe
  in-process.
* ``"process"`` — work units are forwarded to a
  :class:`~concurrent.futures.ProcessPoolExecutor` (each worker's cache
  configured like the coordinator's) for real multi-core scaling;
  prepare stages warm the shared disk tier so other workers load
  instead of recomputing.
* ``"remote"`` — work units are serialized (via
  :mod:`repro.core.serialization`) and shipped to ``repro worker``
  processes, possibly on other hosts, through
  :class:`~repro.runner.remote.RemoteExecutor`; the scheduler leases
  per-worker slots, and a worker crash mid-shard retries the shard on a
  survivor.  Workers share artifacts through a common disk cache dir
  (see :meth:`~repro.runner.cache.ArtifactCache.write_sync_beacon`).

Merging and rendering always happen in the coordinator, in shard
declaration order, which keeps the output byte-identical to
:class:`~repro.runner.serial.SerialRunner` no matter how the scheduler
interleaved the work.
"""

from __future__ import annotations

import inspect
import os
import threading
import time
import weakref
from concurrent.futures import ProcessPoolExecutor
from contextlib import ExitStack
from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.events.dispatch import emit, emit_cache_delta
from repro.events.history import CostModel, task_cost_key
from repro.events.model import RunFinished, RunStarted, WorkerLeased
from repro.runner.base import (
    BaseRunner,
    RunOutcome,
    RunRequest,
    RunnerCapabilities,
)
from repro.runner.cache import configure_cache, get_cache, set_cache
from repro.runner.registry import Experiment, get_experiment, load_all
from repro.runner.scheduler import (
    GraphScheduler,
    SchedulerProfile,
    Task,
    check_acyclic,
)


@dataclass
class RunProfile:
    """Telemetry for one ``AsyncShardRunner.run``: scheduler timings
    plus the cache traffic the run generated."""

    scheduler: SchedulerProfile
    cache_stats: dict[str, int] = field(default_factory=dict)

    def hit_rate(self, kind: str | None = None) -> float:
        """Cache hit rate overall, or for one tier (``"adm"``, …)."""
        prefix = f"{kind}." if kind else ""
        hits = self.cache_stats.get(f"{prefix}hits", 0)
        misses = self.cache_stats.get(f"{prefix}misses", 0)
        total = hits + misses
        return hits / total if total else 0.0


@dataclass(frozen=True)
class GraphSummary:
    """Shape of one request's task graph (for ``--dry-run``)."""

    name: str
    prepares: int
    shards: int
    tasks: int


def _prepare_token(run_prepare, kwargs: dict) -> tuple:
    """Identity of one prepare call, for cross-experiment dedup.

    Two prepare tasks are the same work iff they call the same function
    with the same *consumed* keyword arguments.  Arguments swallowed by
    a ``**kwargs`` catch-all (the registry convention for "ignore this
    experiment's unrelated parameters", as in ``standard_prepare``) are
    dropped — otherwise fig3's and fig4's identical trace warm-ups
    would differ just because fig4 also carries sweep parameters.
    """
    consumed = dict(kwargs)
    try:
        parameters = inspect.signature(run_prepare).parameters
    except (TypeError, ValueError):  # builtins / odd callables
        parameters = None
    if parameters is not None and any(
        p.kind is inspect.Parameter.VAR_KEYWORD for p in parameters.values()
    ):
        named = {
            name
            for name, p in parameters.items()
            if p.kind
            in (inspect.Parameter.POSITIONAL_OR_KEYWORD, inspect.Parameter.KEYWORD_ONLY)
        }
        consumed = {k: v for k, v in kwargs.items() if k in named}
    return (
        getattr(run_prepare, "__module__", ""),
        getattr(run_prepare, "__qualname__", repr(run_prepare)),
        repr(sorted(consumed.items())),
    )


def _init_worker(disk_dir: str | None, memory: bool) -> None:
    """Match a process-pool worker's cache configuration to the parent's."""
    current = get_cache()
    current_dir = str(current.disk_dir) if current.disk_dir else None
    if current_dir != disk_dir or current.memory_enabled != memory:
        configure_cache(memory=memory, disk_dir=disk_dir)


# Worker-side prepare dedup: a long-lived worker (remote ``repro
# worker`` process, process-pool member) sees the same prepare payloads
# again on every coordinator run and on crash-retries; re-executing one
# it already ran against the *same* cache is pure waste.  Keyed weakly
# by the cache object so a reconfigured cache (fresh memory tier, test
# fixture) correctly re-runs its warm-ups.
_prepares_done: "weakref.WeakKeyDictionary[Any, set[str]]" = (
    weakref.WeakKeyDictionary()
)
_prepares_lock = threading.Lock()


def _prepare_fingerprint(name: str, params: dict, unit: dict) -> str:
    merged = {**params, **{k: v for k, v in unit.items() if k != "after"}}
    return repr((name, sorted(merged.items())))


def _execute_payload(payload: tuple) -> tuple[Any, float]:
    """Run one work unit; returns ``(value, compute seconds)``.

    Module-level so the process executor can pickle it.  ``payload`` is
    ``(op, experiment name, params, extra)`` with op one of ``"plain"``
    (extra unused), ``"shard"`` (extra is the shard dict), or
    ``"prepare"`` (extra is the prepare unit; the value is discarded —
    prepares matter only for their effect on the shared cache).
    """
    op, name, params, extra = payload
    load_all()
    exp = get_experiment(name)
    started = time.perf_counter()
    if op == "plain":
        value = exp.execute(params)
    elif op == "shard":
        value = exp.execute_shard(params, extra)
    elif op == "prepare":
        _execute_prepare_once(exp, params, extra)
        value = None
    else:  # pragma: no cover - defends against graph-builder bugs
        raise ValueError(f"unknown task op {op!r}")
    return value, time.perf_counter() - started


def _execute_prepare_once(exp, params: dict, unit: dict) -> None:
    """Run a prepare unit unless this process already ran it against
    the currently active cache."""
    cache = get_cache()
    if not cache.enabled:
        exp.execute_prepare(params, unit)
        return
    fingerprint = _prepare_fingerprint(exp.name, params, unit)
    with _prepares_lock:
        done = _prepares_done.get(cache)
        if done is None:
            done = set()
            _prepares_done[cache] = done
        if fingerprint in done:
            return
    exp.execute_prepare(params, unit)
    with _prepares_lock:
        done.add(fingerprint)


def _execute_payload_with_stats(payload: tuple) -> tuple[Any, float, dict]:
    """As :func:`_execute_payload`, plus the worker-side cache-stats
    delta — a process-pool or remote worker's cache traffic is invisible
    to the coordinator, so it ships home with the result for
    ``--profile``.  The delta is collected per thread
    (:meth:`ArtifactCache.stats_delta`): a remote worker serving several
    slots runs tasks concurrently, and a global before/after snapshot
    would credit each task with its neighbours' traffic too."""
    with get_cache().stats_delta() as delta:
        value, seconds = _execute_payload(payload)
    return value, seconds, dict(delta)


def _execute_payload_shipping(payload: tuple) -> tuple[Any, str | None, float, dict]:
    """As :func:`_execute_payload_with_stats`, but a result above the
    cache's spill threshold is written to the shared disk tier and
    returned as ``(None, token, ...)`` — a process-pool member shares
    the coordinator's disk dir (see :func:`_init_worker`), so large
    arrays travel as a file name instead of being pickled through the
    pool's result pipe."""
    value, seconds, delta = _execute_payload_with_stats(payload)
    try:
        token = get_cache().maybe_spill(value)
    except Exception:
        token = None
    if token is not None:
        return None, token, seconds, delta
    return value, None, seconds, delta


class AsyncShardRunner(BaseRunner):
    """Runs experiments as one interleaved shard-level task graph."""

    def __init__(
        self,
        jobs: int | None = None,
        cache=None,
        executor: str = "thread",
        workers: str | Sequence[str] | None = None,
        cost_model: CostModel | None = None,
        remote_executor: Any = None,
        on_scheduler: Any = None,
    ) -> None:
        """``workers`` (remote executor only) is either a worker spec
        string — ``"host:port,host:port"`` or ``"local:N"`` to spawn N
        local worker subprocesses — or a sequence of addresses.
        ``cost_model`` (optional) feeds prior-run task estimates to the
        scheduler for critical-path ordering.

        ``remote_executor`` (remote only) injects an already *started*
        :class:`~repro.runner.remote.RemoteExecutor` — the service
        control plane builds one from its worker registry — in place of
        ``workers``; the caller owns its lifecycle (this runner never
        closes it).  ``on_scheduler`` (optional callable) receives each
        run's live :class:`GraphScheduler` just before dispatch, which
        is how the control plane attaches elastic slot-table control.
        """
        super().__init__(cache)
        if executor not in ("thread", "process", "remote"):
            raise ValueError(
                "executor must be 'thread', 'process', or 'remote', "
                f"got {executor!r}"
            )
        if executor == "remote" and not workers and remote_executor is None:
            raise ValueError(
                "the remote executor needs workers: pass "
                "workers='host:port,...' or workers='local:N'"
            )
        if executor != "remote" and (workers or remote_executor is not None):
            raise ValueError(f"workers={workers!r} requires executor='remote'")
        if workers and remote_executor is not None:
            raise ValueError("pass either workers or remote_executor, not both")
        self.jobs = max(1, jobs if jobs is not None else (os.cpu_count() or 1))
        self.executor = executor
        self.workers = workers
        self.cost_model = cost_model
        self.on_scheduler = on_scheduler
        self.last_profile: RunProfile | None = None
        self._pool: ProcessPoolExecutor | None = None
        self._injected_remote = remote_executor
        self._remote = None  # RemoteExecutor while dispatching
        self._worker_stats: list[dict] = []

    @property
    def capabilities(self) -> RunnerCapabilities:
        return RunnerCapabilities(
            name=f"async-graph[{self.executor}]", max_workers=self.jobs
        )

    # ------------------------------------------------------------------
    # Graph construction
    # ------------------------------------------------------------------

    def build_graph(
        self,
        requests: Sequence[RunRequest | str],
        include_prepares: bool = True,
    ) -> tuple[list[Task], list[GraphSummary]]:
        """The union task graph for ``requests`` (validated acyclic).

        Pure planning — nothing is executed and the cache is never
        consulted, so ``repro run --all --dry-run`` can call this to
        prove every registered experiment decomposes cleanly.

        Identical prepare units (same ``run_prepare`` callable, same
        merged kwargs) are deduplicated *across* experiments: fig10 and
        tab6 both warming house A's trace share one graph node, so a
        cold cache is never stampeded by concurrent identical work.
        Because prepares exist only to populate caches, the runner
        passes ``include_prepares=False`` when its cache is disabled —
        warming a cache nobody can read would double the compute.
        """
        tasks: list[Task] = []
        summaries: list[GraphSummary] = []
        # Payload identity -> canonical task key, for cross-experiment
        # prepare dedup; per-request keys alias into it.
        canonical: dict[tuple, tuple] = {}
        for index, request in enumerate(self._coerce(requests)):
            exp = get_experiment(request.experiment)
            before = len(tasks)
            prepares, shards = self._request_tasks(
                tasks, canonical, index, exp, request, include_prepares
            )
            summaries.append(
                GraphSummary(
                    name=exp.name,
                    prepares=prepares,
                    shards=shards,
                    tasks=len(tasks) - before,
                )
            )
        check_acyclic(tasks)
        return tasks, summaries

    def _request_tasks(
        self,
        tasks: list[Task],
        canonical: dict[tuple, tuple],
        index: int,
        exp: Experiment,
        request: RunRequest,
        include_prepares: bool,
    ) -> tuple[int, int]:
        """Append one request's tasks; returns (prepares, shards)."""
        params = request.params
        units = exp.prepare_units(params) if include_prepares else []
        # Local prepare key -> graph key (its own, or an earlier
        # identical unit's).  Resolved for every unit up front so
        # "after" edges may point forward (cycles are for check_acyclic
        # to report, not a lookup error here).
        alias: dict[tuple, tuple] = {}
        for unit_index, unit in enumerate(units):
            key = (index, "prep", unit_index)
            merged = {k: v for k, v in unit.items() if k != "after"}
            token = _prepare_token(exp.run_prepare, {**params, **merged})
            if token in canonical:
                alias[key] = canonical[token]
            else:
                alias[key] = canonical[token] = key
        for unit_index, unit in enumerate(units):
            key = (index, "prep", unit_index)
            if alias[key] != key:
                continue  # deduplicated into an earlier identical unit
            deps = tuple(
                dict.fromkeys(
                    alias[(index, "prep", dep)]
                    for dep in unit.get("after", ())
                )
            )
            merged = {k: v for k, v in unit.items() if k != "after"}
            label = f"{exp.name}/prep{unit_index}"
            tasks.append(
                Task(
                    key=key,
                    payload=("prepare", exp.name, params, unit),
                    deps=deps,
                    label=label,
                    cost_key=task_cost_key(label, {**params, **merged}),
                    client=request.client,
                )
            )

        prep_keys = tuple(dict.fromkeys(alias.values()))
        if not exp.shardable:
            tasks.append(
                Task(
                    key=(index, "run"),
                    payload=("plain", exp.name, params, None),
                    deps=prep_keys,
                    label=f"{exp.name}/run",
                    cost_key=task_cost_key(f"{exp.name}/run", params),
                    client=request.client,
                )
            )
            return len(units), 0

        shards = exp.shard_params(params)
        shard_keys = []
        for shard_index, shard in enumerate(shards):
            key = (index, "shard", shard_index)
            if units:
                needed = exp.shard_prepare_deps(params, shard, len(units))
                deps = tuple(
                    dict.fromkeys(alias[(index, "prep", dep)] for dep in needed)
                )
            else:
                deps = ()
            label = f"{exp.name}/shard{shard_index}"
            tasks.append(
                Task(
                    key=key,
                    payload=("shard", exp.name, params, shard),
                    deps=deps,
                    label=label,
                    cost_key=task_cost_key(label, params),
                    client=request.client,
                )
            )
            shard_keys.append(key)
        tasks.append(
            Task(
                key=(index, "merge"),
                payload=("merge", exp.name, params, shards),
                deps=tuple(shard_keys),
                label=f"{exp.name}/merge",
                local=True,
                cost_key=task_cost_key(f"{exp.name}/merge", params),
                client=request.client,
            )
        )
        return len(units), len(shards)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def run(self, requests: Sequence[RunRequest | str]) -> list[RunOutcome]:
        previous = get_cache()
        set_cache(self.cache)
        try:
            return self._run_all(requests)
        finally:
            set_cache(previous)

    def _run_all(self, requests: Sequence[RunRequest | str]) -> list[RunOutcome]:
        coerced = self._coerce(requests)
        emit(
            RunStarted(
                experiments=tuple(request.experiment for request in coerced),
                runner=self.capabilities.name,
                jobs=self.jobs,
            )
        )
        stats_before = dict(self.cache.stats)
        outcomes: list[RunOutcome | None] = [None] * len(coerced)
        live: list[tuple[int, RunRequest, Experiment]] = []
        for index, request in enumerate(coerced):
            exp = get_experiment(request.experiment)
            cached = self._cached_outcome(exp, request)
            if cached is not None:
                outcomes[index] = cached
            else:
                live.append((index, request, exp))

        profile = SchedulerProfile(jobs=self.jobs)
        self._worker_stats = []
        if live:
            # Prepares only help when the workers running the shards can
            # read what they warmed: any tier under the thread executor
            # (shared memory), the disk tier under the process and
            # remote executors.
            prepares_sharable = (
                self.cache.enabled
                if self.executor == "thread"
                else self.cache.disk_dir is not None
            )
            tasks, _ = self.build_graph(
                [request for _, request, _ in live],
                include_prepares=prepares_sharable,
            )
            # build_graph keys tasks by position within `live`; map back
            # to the original request index for outcome placement.
            results, profile = self._dispatch(tasks)
            for position, (index, request, exp) in enumerate(live):
                outcomes[index] = self._collect(exp, request, position, results)
        cache_stats = {
            key: value - stats_before.get(key, 0)
            for key, value in self.cache.stats.items()
        }
        for delta in self._worker_stats:
            for key, value in delta.items():
                cache_stats[key] = cache_stats.get(key, 0) + value
        self.last_profile = RunProfile(scheduler=profile, cache_stats=cache_stats)
        emit(
            RunFinished(
                wall_seconds=profile.wall_seconds,
                busy_seconds=profile.busy_seconds,
            )
        )
        return [outcome for outcome in outcomes if outcome is not None]

    def _dispatch(self, tasks: list[Task]) -> tuple[dict, SchedulerProfile]:
        """Execute the graph under this runner's executor; returns the
        scheduler results and the run's profile."""
        with ExitStack() as stack:
            remote = self._open_remote(stack)
            if remote is None:
                emit(WorkerLeased(worker="local", capacity=self.jobs))
            scheduler = self._track(
                GraphScheduler(
                    slots=remote.slots if remote is not None else {"local": self.jobs},
                    execute=self._execute_task,
                    pass_worker=True,
                    cost_model=self.cost_model,
                )
            )
            if self.executor == "process":
                disk_dir = str(self.cache.disk_dir) if self.cache.disk_dir else None
                self._pool = stack.enter_context(
                    ProcessPoolExecutor(
                        max_workers=self.jobs,
                        initializer=_init_worker,
                        initargs=(disk_dir, self.cache.memory_enabled),
                    )
                )
            self._remote = remote
            try:
                return self._scheduler_run(scheduler, tasks), scheduler.profile
            finally:
                self._pool = None
                self._remote = None
                if remote is not None:
                    # Persistent-connection telemetry: how many TCP dials
                    # the run actually needed (~capacity per worker when
                    # pooling works; ~task count means reconnect churn).
                    scheduler.profile.worker_connects = dict(remote.connects)

    def _open_remote(self, stack: ExitStack) -> Any:
        """The remote executor this run dispatches to, or ``None`` for
        the thread and process executors.  An injected executor (the
        service control plane's) is already started and outlives the
        run; an owned one is opened here and closed with ``stack``."""
        if self.executor != "remote":
            return None
        if self._injected_remote is not None:
            return self._injected_remote
        # Imported lazily: remote.py imports this module's payload
        # helpers for the worker side.
        from repro.runner.remote import RemoteExecutor

        assert self.workers is not None
        return stack.enter_context(RemoteExecutor(self.workers, cache=self.cache))

    def _scheduler_run(self, scheduler: GraphScheduler, tasks: list[Task]) -> dict:
        if self.on_scheduler is not None:
            self.on_scheduler(scheduler)
        try:
            return scheduler.run(tasks)
        finally:
            if self.on_scheduler is not None:
                self.on_scheduler(None)

    def _track(self, scheduler: GraphScheduler) -> GraphScheduler:
        """Expose the scheduler's (in-place mutated) profile as
        ``last_profile`` *before* running, so a failed run still leaves
        its telemetry — including the failed task records — inspectable;
        a successful run replaces it with the cache-stats-enriched one.
        """
        self.last_profile = RunProfile(scheduler=scheduler.profile)
        return scheduler

    def _execute_task(self, task: Task, deps: dict, worker: str) -> tuple[Any, float]:
        """Scheduler callback: run one task's payload.

        Called on a worker thread for prepare/shard/plain tasks (routed
        to ``worker`` under the remote executor) and on the event loop
        for merge tasks (``local=True``) — merges never leave the
        coordinator, which preserves byte-identical rendering.
        """
        if task.payload[0] == "merge":
            _, name, params, shards = task.payload
            exp = get_experiment(name)
            assert exp.merge is not None
            # A merge's deps are exactly its shard keys, (position,
            # "shard", index); sorting restores declaration order.
            ordered = sorted(deps)
            parts = [deps[key][0] for key in ordered]
            started = time.perf_counter()
            value = exp.merge(params, shards, parts)
            # Merge outcomes carry the *compute* seconds of their
            # shards, not the wall time the scheduler spent on them.
            shard_seconds = sum(deps[key][1] for key in ordered)
            return value, shard_seconds + time.perf_counter() - started
        if self._remote is not None:
            value, seconds, delta = self._remote.run_payload(worker, task.payload)
            if delta:
                # list.append is atomic; folded after the run completes.
                self._worker_stats.append(delta)
                emit_cache_delta(delta)
            return value, seconds
        if self.executor == "process" and self._pool is not None:
            value, token, seconds, delta = self._pool.submit(
                _execute_payload_shipping, task.payload
            ).result()
            if token is not None:
                value = self.cache.take_spill(token)
            if delta:
                self._worker_stats.append(delta)
                emit_cache_delta(delta)
            return value, seconds
        return _execute_payload(task.payload)

    def _collect(
        self,
        exp: Experiment,
        request: RunRequest,
        position: int,
        results: dict,
    ) -> RunOutcome:
        """Turn one request's scheduler results into a RunOutcome."""
        if exp.shardable:
            value, seconds = results[(position, "merge")]
            shards = len(exp.shard_params(request.params))
        else:
            value, seconds = results[(position, "run")]
            shards = 1
        return self._finish(exp, request, value, seconds=seconds, shards=shards)
