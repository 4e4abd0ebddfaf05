"""Experiment registry, pluggable runners, and the shared artifact cache.

The subsystem every results-surface interface goes through:

* :mod:`repro.runner.registry` — declarative :class:`Experiment` specs,
  one per paper table/figure, in a decorator-based global registry;
* :mod:`repro.runner.serial` / :mod:`repro.runner.async_graph` —
  execution backends behind the :class:`BaseRunner` capability-declaring
  API (the serial oracle, and the graph runner that schedules a
  shard-level dependency graph across all requests, with thread,
  process, or remote-worker executors);
* :mod:`repro.runner.remote` — the remote-worker protocol
  (``repro worker`` server, :class:`RemoteExecutor` coordinator side);
* :mod:`repro.runner.cache` — content-keyed memoization of house
  traces, fitted ADMs, and whole experiment results;
* :mod:`repro.runner.experiments` — the per-artifact modules.

Typical use::

    from repro.runner import AsyncShardRunner, RunRequest

    runner = AsyncShardRunner(jobs=8, executor="process")
    outcomes = runner.run([RunRequest.for_days("tab5", days=12), "fig3"])
    text = outcomes[0].rendered

Higher-level callers (the CLI, :class:`repro.api.Session`) describe the
backend with a :class:`RunnerPolicy` and let :func:`build_runner`
construct it.
"""

from repro.events.history import CostModel
from repro.runner.async_graph import AsyncShardRunner, RunProfile
from repro.runner.base import (
    BaseRunner,
    CachePolicy,
    RunnerCapabilities,
    RunnerPolicy,
    RunOutcome,
    RunRequest,
)
from repro.runner.cache import (
    ArtifactCache,
    cache_disabled,
    configure_cache,
    default_disk_dir,
    get_cache,
    set_cache,
)
from repro.runner.remote import (
    LocalWorkerPool,
    RemoteExecutor,
    RemoteTaskError,
    WorkerServer,
    spawn_local_workers,
)
from repro.runner.registry import (
    Experiment,
    Param,
    all_experiments,
    experiment,
    experiment_names,
    experiments_by_tag,
    get_experiment,
    load_all,
    register,
)
from repro.runner.serial import SerialRunner


def build_runner(
    policy: RunnerPolicy | None = None,
    *,
    cache: ArtifactCache | None = None,
    cost_model: CostModel | None = None,
) -> BaseRunner:
    """Construct the execution backend a :class:`RunnerPolicy` names.

    The single factory every entry point shares: the CLI and
    :class:`repro.api.Session` both turn their knobs into a policy and
    call this, so backend-selection rules live in exactly one place.
    ``cache`` (optional) becomes the runner's private cache instead of
    the process-global one.  ``cost_model`` (optional) gives the graph
    backends historical task-duration estimates so ready tasks are
    dispatched longest-critical-path-first; the serial backend has no
    scheduling freedom and ignores it.
    """
    policy = policy if policy is not None else RunnerPolicy()
    backend = policy.resolved_backend()
    if backend == "remote":
        return AsyncShardRunner(
            jobs=policy.jobs,
            executor="remote",
            workers=policy.workers,
            cache=cache,
            cost_model=cost_model,
        )
    if backend == "serial":
        return SerialRunner(cache=cache)
    return AsyncShardRunner(
        jobs=policy.jobs,
        executor="process" if policy.jobs > 1 else "thread",
        cache=cache,
        cost_model=cost_model,
    )


__all__ = [
    "ArtifactCache",
    "AsyncShardRunner",
    "BaseRunner",
    "CachePolicy",
    "CostModel",
    "Experiment",
    "LocalWorkerPool",
    "Param",
    "RemoteExecutor",
    "RemoteTaskError",
    "RunOutcome",
    "RunProfile",
    "RunRequest",
    "RunnerCapabilities",
    "RunnerPolicy",
    "SerialRunner",
    "WorkerServer",
    "build_runner",
    "all_experiments",
    "cache_disabled",
    "configure_cache",
    "default_disk_dir",
    "experiment",
    "experiment_names",
    "experiments_by_tag",
    "get_cache",
    "get_experiment",
    "load_all",
    "register",
    "set_cache",
    "spawn_local_workers",
]
