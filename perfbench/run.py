#!/usr/bin/env python3
"""The SHATTER end-to-end benchmark (see ``perfbench/README.md``).

Run from the repository root::

    python3 perfbench/run.py --workload paper_suite --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` adds one
traced pass after the untraced ones and prints the per-layer metrics.  Every
pass is a fresh process (``child.py``) over a fresh cache directory,
and every rendered artifact is checked byte for byte against the
caching-off ``SerialRunner`` rendering, which is computed first,
outside every timed window.  The last stdout line is one JSON object;
the exit code is non-zero when any output is wrong or missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import selectors
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
RUN_DEADLINE_S = 170.0
# Passes are seconds long and the host's speed drifts between them; the
# median of three rejects one slow pass, where that of two cannot.  Each
# pass's set-up is also a set-up sample.
MIN_PASSES = 3

END_TO_END = {
    "setup_s": "s",
    "suite_s": "s",
    "work_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def per_layer_names() -> dict[str, str]:
    """Every per-layer metric and its unit (the same on every workload)."""
    names = {"repro.import_s": "s", "runner.cache.fingerprint_s": "s"}
    for layer in spans.LAYERS:
        names[f"{layer}.calls"] = "count"
        names[f"{layer}.self_s"] = "s"
    names["runner.cache.get.self_s"] = "s"
    names["runner.cache.put.self_s"] = "s"
    for tier in spans.CACHE_TIERS:
        names[f"runner.cache.{tier}.hit_ratio"] = "ratio"
        names[f"runner.cache.{tier}.hits"] = "count"
        names[f"runner.cache.{tier}.misses"] = "count"
    names.update(
        {
            "runner.cache.bytes_written": "bytes",
            "runner.scheduler.queue_wait_s": "s",
            "runner.scheduler.retries": "count",
            "runner.remote.connects": "count",
            "runner.remote.worker_lost": "count",
            "service.queue_wait_s": "s",
            "service.run_s": "s",
            "service.requeues": "count",
            "service.jobs": "count",
            "service.job_p50_s": "s",
            "service.job_p90_s": "s",
            "kernel.schedule_dp_batch_s": "s",
            "kernel.simulation_s": "s",
            "trace.unattributed_s": "s",
            "trace.overhead_ratio": "ratio",
        }
    )
    return names


class ChildFailed(Exception):
    pass


class Bench:
    """One benchmark run.  ``streams`` replaces the seeded requests and
    ``min_passes`` the least number of measured passes (the self-tests
    shrink both)."""

    def __init__(
        self,
        args: argparse.Namespace,
        run_dir: Path,
        streams: list[list[workloads.Request]] | None = None,
        min_passes: int = MIN_PASSES,
    ) -> None:
        self.workload = args.workload
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = args.trace
        self.run_dir = run_dir
        self.streams = (
            streams
            if streams is not None
            else workloads.requests(args.workload, args.seed)
        )
        self.min_passes = min_passes
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = str(ROOT / "src")
        # Nothing may write outside the checkout: no fallback to the
        # user's cache directory, no temporary files elsewhere.
        self.env["REPRO_CACHE_DIR"] = str(run_dir / "default-cache")
        self.env["TMPDIR"] = str(run_dir)
        self.children = 0
        self.errors: list[str] = []
        (WORK / "traces").mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------
    # Child processes
    # ------------------------------------------------------------------

    def spawn(self, mode: str, trace: int = 0) -> tuple[float | None, dict]:
        """Run one child to completion; returns (set-up seconds, result).

        The child leads its own process group, so the worker it may
        start goes down with it on a timeout, and a process left behind
        after a clean exit is found and counted as a failure.
        """
        self.children += 1
        tag = f"{mode}{self.children}"
        spec = {
            "mode": mode,
            "workload": self.workload,
            "seed": self.seed,
            "streams": workloads.streams_to_wire(self.streams),
            "cache_dir": str(self.run_dir / f"cache-{tag}"),
            "out": str(self.run_dir / f"{tag}.json"),
            "spans_out": str(
                WORK / "traces" / f"{self.workload}-seed{self.seed}.spans.jsonl"
            ),
            "trace": trace,
        }
        spec_path = self.run_dir / f"{tag}.spec.json"
        spec_path.write_text(json.dumps(spec))
        started = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), str(spec_path)],
            stdout=subprocess.PIPE,
            cwd=ROOT,
            env=self.env,
            start_new_session=True,
        )
        ready_s = None
        try:
            with selectors.DefaultSelector() as selector:
                selector.register(proc.stdout, selectors.EVENT_READ)
                seen = b""
                while ready_s is None:
                    remaining = self.deadline - time.monotonic()
                    if remaining <= 0:
                        raise ChildFailed(f"{tag}: no READY before the deadline")
                    if not selector.select(remaining):
                        continue
                    chunk = os.read(proc.stdout.fileno(), 4096)
                    if not chunk:
                        break
                    seen += chunk
                    if b"READY\n" in seen:
                        ready_s = time.perf_counter() - started
            try:
                code = proc.wait(timeout=max(0.0, self.deadline - time.monotonic()))
            except subprocess.TimeoutExpired as error:
                raise ChildFailed(f"{tag}: still running at the deadline") from error
            if code != 0:
                raise ChildFailed(f"{tag}: exited with code {code}")
            if mode != "reference" and ready_s is None:
                raise ChildFailed(f"{tag}: exited without READY")
        finally:
            leaked = _kill_group(proc.pid)
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            proc.stdout.close()
        if leaked:
            raise ChildFailed(f"{tag}: left processes running after it exited")
        out = Path(spec["out"])
        result = json.loads(out.read_text()) if out.exists() else {}
        shutil.rmtree(spec["cache_dir"], ignore_errors=True)
        return ready_s, result

    # ------------------------------------------------------------------
    # The run
    # ------------------------------------------------------------------

    def run(self) -> dict:
        streams = self.streams
        per_pass = sum(len(stream) for stream in streams)
        load_before = os.getloadavg()

        try:
            _, ref = self.spawn("reference")
            reference = ref["reference"]
        except ChildFailed as error:
            # Nothing can be checked without a reference: run nothing.
            self.errors.append(str(error))
            reference = None

        setups: list[float] = []
        passes: list[dict] = []
        traced: dict | None = None
        attempted = failed = 0
        measuring = time.perf_counter()
        while reference is not None:
            try:
                setup_s, result = self.spawn("measure")
            except ChildFailed as error:
                self.errors.append(str(error))
                attempted += per_pass
                failed += per_pass
                break
            setups.append(setup_s)
            passes.append(result)
            if (
                len(passes) >= self.min_passes
                and time.perf_counter() - measuring >= self.seconds
            ):
                break
        if self.trace and passes:
            try:
                _, traced = self.spawn("measure", trace=1)
            except ChildFailed as error:
                self.errors.append(str(error))
                attempted += per_pass
                failed += per_pass
        checked_runs = passes + ([traced] if traced else [])
        outcomes = [o for r in checked_runs for o in r["outcomes"]]
        checked, wrong = verify(outcomes, reference or {}, self.errors)
        attempted += checked
        failed += wrong

        metrics: dict[str, float] = {}
        if passes:
            units = workloads.work_units(self.workload, streams)
            metrics = {
                "setup_s": statistics.median(setups),
                "suite_s": statistics.median(r["wall_s"] for r in passes),
                "work_per_s": statistics.median(units / r["wall_s"] for r in passes),
                "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in passes),
            }
        layer: dict[str, float] = {}
        if traced:
            layer = dict(traced["layer"])
            layer["trace.overhead_ratio"] = (
                traced["wall_s"] / statistics.median(r["wall_s"] for r in passes) - 1.0
            )
            # Job latency comes from the untraced passes.
            latencies = [o["latency_s"] for r in passes for o in r["outcomes"]]
            service = self.workload == "service_mixed"
            layer["service.jobs"] = len(latencies) if service else 0
            layer["service.job_p50_s"] = (
                statistics.median(latencies) if service else 0.0
            )
            layer["service.job_p90_s"] = (
                statistics.quantiles(latencies, n=10)[8] if service else 0.0
            )
            if not layer.pop("check.kernel_within_spans", 1):
                self.errors.append("kernel timers exceed their layer's span time")

        correct = bool(passes) and failed == 0 and not self.errors
        if self.trace:
            correct = correct and traced is not None
        return {
            "correct": correct,
            "attempted": max(attempted, 1),
            "failed": failed if attempted else 1,
            "metrics": metrics,
            "layer": layer,
            "samples": {"passes": len(passes), "requests_per_pass": per_pass},
            "raw": {
                "setup_s": setups,
                "pass_wall_s": [r["wall_s"] for r in passes],
            },
            "env": {
                "workload": self.workload,
                "seed": self.seed,
                "seconds": self.seconds,
                "trace": self.trace,
                "nproc": os.cpu_count(),
                "loadavg_before": load_before,
                "loadavg_after": os.getloadavg(),
                "python": platform.python_version(),
                "numpy": passes[0]["numpy"] if passes else "",
                "commit": _commit(),
            },
            "errors": self.errors,
        }


def verify(
    outcomes: list[dict], reference: dict[str, str], errors: list[str]
) -> tuple[int, int]:
    """Compare every outcome with its reference rendering; returns
    (checked, failed) and appends one message per failure."""
    failed = 0
    for outcome in outcomes:
        if outcome["error"] or outcome["rendered"] != reference.get(outcome["key"]):
            failed += 1
            errors.append(
                f"{outcome['key']}: "
                + (outcome["error"] or "rendered output differs from reference")
            )
    return len(outcomes), failed


def _kill_group(pgid: int) -> bool:
    """SIGKILL whatever is left in a process group; True if any was."""
    try:
        os.killpg(pgid, 0)
    except (ProcessLookupError, PermissionError):
        return False
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return False
    return True


def _commit() -> str:
    """The checkout's commit, read from ``.git`` without running git;
    ``unknown`` in an exported tree."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an error, so every child group is still killed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro sources under {ROOT / 'src'}; nothing to measure",
              file=sys.stderr)
        return 2
    for sub in ("tmp", "results"):
        (WORK / sub).mkdir(parents=True, exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK / "tmp"))
    try:
        record = Bench(args, run_dir).run()
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    units = per_layer_names() if args.trace else END_TO_END
    source = record["layer"] if args.trace else record["metrics"]
    metrics = {
        name: {"value": source[name], "unit": unit}
        for name, unit in units.items()
        if name in source
    }
    if len(metrics) != len(units):
        record["correct"] = False
    result_path = WORK / "results" / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    )
    result_path.write_text(json.dumps(record, indent=1))
    for error in record["errors"]:
        print(f"error: {error}", file=sys.stderr)
    print("env " + json.dumps(record["env"]))
    print(f"fail_ratio {record['failed'] / record['attempted']:.4f} "
          f"({record['failed']}/{record['attempted']} requests); "
          f"samples {json.dumps(record['samples'])}")
    for name, metric in metrics.items():
        print(f"{name:34s} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
