"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench/selftest.py -q

The smoke tests run each workload end to end (reference, untraced
pass, traced pass) on tiny request streams.
"""

from __future__ import annotations

import argparse
import asyncio
import time

import pytest

import run
import spans
from workloads import Request


def _args(workload: str, trace: int = 1) -> argparse.Namespace:
    return argparse.Namespace(workload=workload, seed=1, seconds=0, trace=trace)


TINY = {
    "paper_suite": [[
        Request("fig3", 3, (("seed", 1),)),
        Request("sec6", 3, (("seed", 1),)),
    ]],
    "fleet_attack": [[
        Request(
            "fleet_attack", None,
            (("chunk", 1), ("n_days", 4), ("n_homes", 2), ("seed", 1),
             ("training_days", 2)),
        ),
    ]],
    "service_mixed": [
        [Request("fig6", 4, (("seed", 1),)), Request("fig6", 4, (("seed", 1),))],
        [Request("sec6", 4, (("seed", 2),)), Request("tab3", 4, (("seed", 2),))],
    ],
}


@pytest.mark.parametrize("workload", sorted(TINY))
def test_tiny_workload_runs_traced_and_correct(workload, tmp_path):
    record = run.Bench(
        _args(workload), tmp_path, streams=TINY[workload], min_passes=1,
    ).run()
    assert record["errors"] == []
    assert record["correct"] and record["failed"] == 0
    # one untraced and one traced pass, every request checked
    assert record["attempted"] == 2 * sum(len(s) for s in TINY[workload])
    assert set(record["metrics"]) == set(run.END_TO_END)
    assert all(record["metrics"][name] > 0 for name in run.END_TO_END)
    layer = record["layer"]
    assert set(run.per_layer_names()) <= set(layer)
    assert layer["api.calls"] > 0
    if workload == "fleet_attack":
        assert layer["attack.realtime.calls"] == 0
        assert layer["attack.schedule.calls"] > 0
    if workload == "service_mixed":
        assert layer["service.jobs"] == 4
        assert layer["runner.remote.calls"] > 0
        assert layer["runner.cache.result.hits"] >= 1  # the repeated fig6


def test_tampered_artifact_raises_fail_ratio(tmp_path):
    class Tampered(run.Bench):
        def spawn(self, mode, trace=0):
            ready, result = super().spawn(mode, trace)
            if mode == "reference":
                key = next(iter(result["reference"]))
                result["reference"][key] += "tampered"
            return ready, result

    streams = [[
        Request("fig6", 4, (("seed", 1),)),
        Request("sec6", 4, (("seed", 1),)),
    ]]
    record = Tampered(
        _args("paper_suite", trace=0), tmp_path, streams=streams, min_passes=1,
    ).run()
    assert record["failed"] == 1 and record["attempted"] == 2
    assert not record["correct"]
    assert "differs from reference" in record["errors"][0]


def _span(span_id, start, end, parent=None):
    return spans.Span(span_id, f"layer{span_id}", start, end, parent, "r", "t")


def test_self_time_subtracts_merged_children():
    # root [0, 10] has two overlapping children (as when it fans out to
    # threads): [1, 4] and [3, 6] cover [1, 6], so root keeps 5 s.
    # Child 2 has a grandchild [2, 3]; a child running past its parent's
    # end is clipped to the parent.
    tree = [
        _span(1, 0.0, 10.0),
        _span(2, 1.0, 4.0, parent=1),
        _span(3, 3.0, 6.0, parent=1),
        _span(4, 2.0, 3.0, parent=2),
        _span(5, 11.0, 12.0),
        _span(6, 11.5, 13.0, parent=5),
    ]
    selfs = spans.self_times(tree)
    assert selfs == {1: 5.0, 2: 2.0, 3: 3.0, 4: 1.0, 5: 0.5, 6: 1.5}
    summary = spans.summarize(tree, wall_s=14.0)
    # top-level spans cover [0, 10] and [11, 12]: 3 s of 14 unexplained
    assert summary["trace.unattributed_s"] == pytest.approx(3.0)
    assert summary["layer2.calls"] == 1 and summary["layer2.self_s"] == 2.0


def test_tracer_parents_follow_context_into_threads():
    tracer = spans.Tracer("t")

    def leaf():
        time.sleep(0.001)

    def items():
        yield 1
        yield 2

    leaf = tracer.wrap("leaf", leaf)
    items = tracer.wrap("items", items)

    async def fan_out():
        await asyncio.gather(asyncio.to_thread(leaf), asyncio.to_thread(leaf))

    root = tracer.wrap("root", lambda: asyncio.run(fan_out()))
    root()
    assert list(items()) == [1, 2]
    by_name = {}
    for span in tracer.spans:
        by_name.setdefault(span.name, []).append(span)
    (root_span,) = by_name["root"]
    assert [s.parent for s in by_name["leaf"]] == [root_span.span_id] * 2
    assert len(by_name["items"]) == 3  # two items and the final resumption
    assert all(s.parent is None for s in by_name["items"])
