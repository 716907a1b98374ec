"""Self-tests of the benchmark's own arithmetic.

Run from the repository root with ``python3 -m pytest bench/test_bench.py``.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from run import CAL_REF_S, MIN_BEYOND, MIN_PASSES, Pass, Passes, pass_count, quality, tail_percentile
from tracing import covered_length, self_times, summarize

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from workloads import Outcome  # noqa: E402  (imports kcat0 from src/)


def span(name, start, end, parent, rows=1):
    return [name, start, end, parent, 0, rows]


def test_self_time_subtracts_children():
    spans = [
        span("query", 0.0, 10.0, -1),
        span("a", 1.0, 4.0, 0),
        span("b", 2.0, 3.0, 1),
        span("c", 5.0, 9.0, 0),
    ]
    assert self_times(spans) == pytest.approx([10.0 - 3.0 - 4.0, 3.0 - 1.0, 1.0, 4.0])
    # self times of a proper span tree add up to the root's duration
    assert math.fsum(self_times(spans)) == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once():
    assert covered_length([(1.0, 3.0), (2.0, 5.0), (7.0, 8.0)], 0.0, 10.0) == pytest.approx(5.0)
    assert covered_length([(-1.0, 2.0), (9.0, 12.0)], 0.0, 10.0) == pytest.approx(3.0)
    assert covered_length([], 0.0, 1.0) == 0.0


def test_summarize_counts_outermost_calls_only():
    spans = [
        span("query", 0.0, 10.0, -1),
        span("support", 1.0, 4.0, 0, rows=3),
        span("support", 1.5, 2.0, 1, rows=2),   # a node delegating to a member
        span("support", 5.0, 6.0, 0, rows=1),
    ]
    s = summarize(spans)
    assert s["support"]["calls"] == 2
    assert s["support"]["rows"] == 4
    assert s["support"]["busy_s"] == pytest.approx(4.0)
    assert s["support"]["self_s"] == pytest.approx(4.0)
    assert s["query"]["self_s"] == pytest.approx(6.0)


@pytest.mark.parametrize("n, percentile, beyond", [
    (20, 50, 10),
    (39, 50, 19),
    (40, 75, 10),
    (100, 90, 10),
    (250, 95, 12),
    (1000, 99, 10),
    (20000, 99.9, 20),
])
def test_tail_percentile_rung(n, percentile, beyond):
    samples = [float(i) for i in range(n, 0, -1)]  # order must not matter
    p, value, count = tail_percentile(samples)
    assert (p, count) == (percentile, beyond)
    assert count >= MIN_BEYOND
    assert sum(s > value for s in samples) == count


def test_tail_percentile_needs_enough_samples():
    assert tail_percentile([1.0] * 19) is None
    assert tail_percentile([]) is None


def test_pass_count_is_fixed_by_the_arguments():
    assert pass_count(20, 3.5) == 6
    assert pass_count(20, 5.0) == 4
    assert pass_count(20, 10.0) == MIN_PASSES
    assert pass_count(1, 3.5) == MIN_PASSES


def test_latencies_are_scaled_by_each_pass_speed_then_averaged():
    # the second pass ran at half speed (median burst twice the reference)
    fast = Pass(latencies=[1.0, 2.0], bursts=[CAL_REF_S] * 3)
    slow = Pass(latencies=[2.0, 4.0], bursts=[2 * CAL_REF_S, 2 * CAL_REF_S, 9.0])
    res = Passes(["a", "b"], passes=[fast, slow])
    assert res.latencies() == pytest.approx([1.0, 2.0])
    assert res.latencies(scaled=False) == pytest.approx([1.5, 3.0])
    # an uncalibrated pass (a traced run) keeps its raw times
    assert Passes(["a"], passes=[Pass(latencies=[3.0])]).latencies() == [3.0]


def test_known_defect_is_unsound_but_not_failed():
    known = ["hi below exact"]
    res = Passes(["known", "known-and-new", "raised", "clean"], passes=[Pass(outcomes=[
        Outcome([], known=known),
        Outcome(["lo above exact"], known=known),
        Outcome(["ValueError: boom"], raised=True),
        Outcome([]),
    ])])
    q = quality(res)
    assert (q["attempted"], q["failed"], q["raised"]) == (4, 2, 1)
    assert (q["known_defects"], q["unsound_count"]) == (1, 2)


def _traced(seed):
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sandwich-intersection",
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    lines = out.stdout.splitlines()
    return json.loads(lines[-2])["run_record"], json.loads(lines[-1])


def test_traced_runs_repeat():
    """Two traced runs on one seed agree on every count and result; only
    timings may differ."""
    (rec1, res1), (rec2, res2) = _traced(7), _traced(7)
    assert rec1["results_sha256"] == rec2["results_sha256"]
    assert rec1["trace"]["results_match_untraced"] and rec2["trace"]["results_match_untraced"]
    assert rec1["trace"]["spans"] == rec2["trace"]["spans"]
    # span self times plus the separately timed harness work cover the wall
    assert abs(rec1["trace"]["residual_share"]) < 1e-3
    for name, m in res1["metrics"].items():
        if m["unit"] != "s":
            assert m["value"] == res2["metrics"][name]["value"], name
