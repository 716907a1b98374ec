"""kcat0 benchmark: one workload, one process, one closed-loop client.

Run from the repository root:

    python3 bench/run.py --workload sandwich-intersection --seed 1 --seconds 15 --trace 0

The workload's query list is generated from ``--seed`` before any timing
starts.  Queries run one after another (a closed loop with a single client
and no think time): each starts when the previous one has returned and been
checked against its reference.  A run makes a fixed number of whole passes
over the list, each from freshly built domains: ``--seconds`` divided by the
workload's nominal pass time, and at least ``MIN_PASSES``.  Every result is
checked; a failed check or a raised error is counted, never fatal.  A failed
check that a documented defect of kcat0 explains (``Outcome.known``) is
reported in ``unsound_count`` and the run record, but not as ``failed``.

Linear algebra runs on one thread (``BLAS_THREADS``), so the process is a
single client in fact as well as in name.  Times are the process's CPU time
(``time.process_time``), which leaves out the time a shared host's
hypervisor keeps the virtual CPU away; with one thread it is the query's
wall time less that stolen time.

On a shared host the CPU time of the same work still drifts, by tens of
percent over seconds to minutes, with what the neighbours run.  So a timed
run also times a fixed pure-Python kernel in short bursts spread over each
pass (``speed_burst``), and scales the pass's CPU times by the median of its
bursts: a latency reads as the CPU time the query would take with the
kernel at its reference time ``CAL_REF_S``.  A change to kcat0 moves these
figures as it moves the raw ones; host drift, which slows the kernel too,
largely cancels.  The run record keeps the raw figures and every burst.

A query's latency is its mean scaled time over the passes, which are the
same in number on every run.  (The host's speed moves between a few levels
for seconds at a time; with a handful of passes, the mean is steadier from
run to run than the fastest pass, which jumps with whether any pass caught
the fast level.)  The end-to-end metrics:

* ``setup_s``: median time to import kcat0 (in this process, and in
  fresh interpreters between passes, so that the samples are spread over
  the run) plus the median per-pass set-up (building the workload's domains
  and one warm-up query per domain), both scaled like the queries;
* ``queries_per_s``: queries in the list divided by the sum of their
  latencies, i.e. the rate of the mean pass;
* ``query_p50_ms``: the median latency over the list;
* ``peak_rss_mb``: the process's peak resident memory.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` makes one pass
untraced and one traced (see ``tracing.py``) and reports the per-layer
metrics; the difference in wall time between the two passes is
``trace.overhead_s``, and the spans are written to ``.bench_trace/`` when
the run ends.

Standard output ends with a run record (one JSON line) followed by the
result line: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# one BLAS thread; set before numpy loads, and inherited by the import probes
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

TRACE_DIR = ROOT / ".bench_trace"

# dependencies kcat0 imports on first use; importing them here keeps that
# one-time cost in set-up rather than in the first timed query
LAZY_IMPORTS = ("kcat0.cli", "scipy.optimize", "scipy.spatial", "sympy")

MIN_PASSES = 3      # passes over the query list in a timed run, at least
IMPORT_PROBES = 1   # fresh-interpreter import timings per timed run, between passes

# query_tail_ms: the highest of these percentiles (in tenths of a percent)
# with at least MIN_BEYOND samples above it; nearest-rank, in integer
# arithmetic so that a rung never moves by round-off
TAIL_LADDER = (500, 750, 900, 950, 980, 990, 995, 999)
MIN_BEYOND = 10


# host speed: the kernel's median CPU time over one burst, against CAL_REF_S.
# A pass has a burst at its start, after its set-up, after every CAL_EVERY_S
# of query time and at its end.
CAL_BURST_S = 0.1
CAL_EVERY_S = 1.5
CAL_REF_S = 1.8e-3  # the kernel's CPU time at the reference speed (its median on a 2-vCPU KVM guest)


def _kernel() -> int:
    s = 0
    for i in range(20_000):
        s += i * i % 7
    return s


def speed_burst() -> float:
    """Median CPU seconds of one ``_kernel`` call over a CAL_BURST_S burst."""
    samples = []
    end = time.perf_counter() + CAL_BURST_S
    while len(samples) < 3 or time.perf_counter() < end:
        t0 = time.process_time()
        _kernel()
        samples.append(time.process_time() - t0)
    return statistics.median(samples)


def scale(bursts) -> float:
    """Factor from CPU time around ``bursts`` to CPU time at the reference speed."""
    return CAL_REF_S / statistics.median(bursts)


def import_time() -> tuple[float, float]:
    """(scaled, raw) CPU seconds to import kcat0 and what it loads on first use."""
    before = speed_burst()
    t0 = time.process_time()
    importlib.import_module("kcat0")
    for name in LAZY_IMPORTS:
        importlib.import_module(name)
    raw = time.process_time() - t0
    return raw * scale([before, speed_burst()]), raw


_IMPORT_PROBE = f"""
import sys
sys.path.insert(0, sys.argv[1])
sys.path.insert(0, {str(Path(__file__).resolve().parent)!r})
from run import import_time
print(*import_time())
"""


def declared_metrics(section: str) -> dict[str, str]:
    """Metric names and units, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def tail_percentile(samples) -> tuple[float, float, int] | None:
    """(percentile, value, samples beyond it) for the highest ladder rung
    with at least MIN_BEYOND samples above it; None with too few samples."""
    ordered = sorted(samples)
    n = len(ordered)
    best = None
    for p in TAIL_LADDER:
        rank = -(-p * n // 1000)
        if rank >= 1 and n - rank >= MIN_BEYOND:
            best = (p / 10, ordered[rank - 1], n - rank)
    return best


def _float_key(x) -> str:
    if isinstance(x, complex):
        return f"{x.real.hex()}{x.imag.hex()}j"
    return float(x).hex()


def _flatten(obj):
    if isinstance(obj, (list, tuple)):
        for item in obj:
            yield from _flatten(item)
    elif hasattr(obj, "tolist"):
        yield from _flatten(obj.tolist())
    else:
        yield obj


def digest(items) -> str:
    """sha256 over nested numbers, exact to the last bit."""
    h = hashlib.sha256()
    for item in _flatten(items):
        h.update((item if isinstance(item, str) else _float_key(item)).encode())
        h.update(b";")
    return h.hexdigest()


@dataclass
class Pass:
    """One pass over the query list: set-up, then every query in order.

    Times are raw CPU seconds; a calibrated pass also holds its speed
    bursts, which scale them."""

    setup: float = 0.0
    latencies: list = field(default_factory=list)
    outcomes: list = field(default_factory=list)
    bursts: list = field(default_factory=list)

    def scale(self) -> float:
        return scale(self.bursts) if self.bursts else 1.0


@dataclass
class Passes:
    kinds: list
    passes: list = field(default_factory=list)
    wall: float = 0.0
    unspanned: float = 0.0   # traced runs: harness time outside the root spans
    runtime_warnings: int = 0

    @property
    def outcomes(self):
        return [o for p in self.passes for o in p.outcomes]

    def latencies(self, scaled: bool = True) -> list[float]:
        """Each query's mean latency over the passes."""
        return [statistics.fmean(col) for col in zip(*(
            [t * (p.scale() if scaled else 1.0) for t in p.latencies] for p in self.passes))]


def pass_count(seconds: float, pass_s: float) -> int:
    """Passes a timed run makes: ``seconds`` of nominal ``pass_s`` passes, at
    least MIN_PASSES.  It depends on nothing measured, so every run of a
    workload takes its fastest over the same number of passes."""
    return max(MIN_PASSES, math.ceil(seconds / pass_s))


def import_probe() -> tuple[float, float]:
    """``import_time`` in a fresh interpreter."""
    out = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(ROOT / "src")],
                         capture_output=True, text=True, check=True, timeout=120)
    scaled, raw = out.stdout.split()
    return float(scaled), float(raw)


def run_passes(workload, queries, passes: int, tracer=None, between=None,
               calibrate: bool = False) -> Passes:
    """``passes`` closed-loop passes over ``queries``, calling ``between(n)``
    after pass ``n``; with ``calibrate``, speed bursts run between items."""
    from workloads import Outcome

    res = Passes([q.kind for q in queries])
    start = gap = time.perf_counter()

    def root_begin(name):
        # harness time between root spans is measured here, apart from the
        # spans, so that trace_accounting can check the spans against the wall
        nonlocal gap
        res.unspanned += time.perf_counter() - gap
        return tracer.begin(name)

    def root_end(span):
        nonlocal gap
        tracer.end(span)
        gap = time.perf_counter()

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for n in range(passes):
            one = Pass()
            if calibrate:
                one.bursts.append(speed_burst())
            span = root_begin("bench.setup") if tracer else None
            t0 = time.process_time()
            doms = workload.setup()
            one.setup = time.process_time() - t0
            if tracer:
                root_end(span)
            if calibrate:
                one.bursts.append(speed_burst())
            since = 0.0
            for i, q in enumerate(queries):
                if tracer:
                    tracer.query = i
                    span = root_begin("bench.query")
                t0 = time.process_time()
                try:
                    result, error = q.run(doms), None
                except Exception as exc:  # counted as a failed query
                    result, error = None, f"{type(exc).__name__}: {exc}"
                one.latencies.append(time.process_time() - t0)
                if tracer:
                    root_end(span)
                    tracer.query = -1
                if error is None:
                    try:
                        outcome = q.inspect(result)
                    except Exception as exc:  # a malformed result fails its check
                        outcome = Outcome([f"unreadable result: {type(exc).__name__}: {exc}"])
                else:
                    outcome = Outcome([error], raised=True)
                one.outcomes.append(outcome)
                since += one.latencies[-1]
                if calibrate and (since >= CAL_EVERY_S or i == len(queries) - 1):
                    one.bursts.append(speed_burst())
                    since = 0.0
            res.passes.append(one)
            if between is not None:
                between(n)
    end = time.perf_counter()
    res.wall = end - start
    res.unspanned += end - gap
    res.runtime_warnings = sum(issubclass(w.category, RuntimeWarning) for w in caught)
    return res


def quality(res: Passes) -> dict:
    """Correctness and interval quality over every query executed.

    ``failed`` counts queries that raised or failed a check that no known
    defect explains; ``unsound_count`` counts every result that contradicts
    its reference, known defects included."""
    attempted = len(res.outcomes)
    raised = sum(o.raised for o in res.outcomes)
    failed = sum(bool(o.problems) for o in res.outcomes)
    known = sum(bool(o.known) and not o.problems for o in res.outcomes)
    widths = [(iv.hi - iv.lo) / iv.hi for o in res.outcomes for iv in o.intervals
              if not iv.is_exact and iv.hi > 0]
    defects = [o.certified_defect for o in res.outcomes if o.certified_defect is not None]
    return {
        "attempted": attempted,
        "failed": failed,
        "raised": raised,
        "known_defects": known,
        "unsound_count": failed - raised + known,
        "failed_share": failed / attempted if attempted else 0.0,
        "rel_width_mean": statistics.fmean(widths) if widths else 0.0,
        "rel_width_samples": len(widths),
        "certified_defect_min": min(defects) if defects else 0.0,
        "certified_triples": len(defects),
    }


def results_digest(one: Pass, kinds) -> str:
    return digest([[k, o.values, len(o.problems), len(o.known)]
                   for k, o in zip(kinds, one.outcomes)])


def by_kind(res: Passes) -> dict:
    groups: dict[str, list] = {}
    for k, t in zip(res.kinds, res.latencies()):
        groups.setdefault(k, []).append(t)
    return {k: {"count": len(v), "p50_ms": 1e3 * statistics.median(v)}
            for k, v in sorted(groups.items())}


def failures(res: Passes, known: bool = False) -> list:
    """Every distinct failure (with ``known``, every known defect), with the
    passes it occurred in."""
    seen: dict[tuple, dict] = {}
    for n, one in enumerate(res.passes):
        for i, (k, o) in enumerate(zip(res.kinds, one.outcomes)):
            problems = o.known if known else o.problems
            if problems:
                entry = seen.setdefault((i, tuple(problems)),
                                        {"query": i, "kind": k, "problems": problems,
                                         "passes": []})
                entry["passes"].append(n)
    return list(seen.values())


def per_layer(tracer, untraced: Passes, traced: Passes) -> dict:
    from tracing import summarize

    s = summarize(tracer.spans)
    c = tracer.counters

    def get(name, key):
        return s[name][key] if name in s else 0

    def ratio(num, den):
        return num / den if den else 0.0

    geo_calls = get("metric.geodesic_approx", "calls")
    incl_calls = get("metric.inclusion_upper", "calls")
    out = {
        "domains.support_upper.calls": get("domains.support_upper", "calls"),
        "domains.support_upper.self_s": get("domains.support_upper", "self_s"),
        "domains.graph_support.distinct_ratio": tracer.graph_distinct_ratio(),
        "domains.r_evals": c["domains.r_evals"],
        "domains.boundary_points.calls": get("domains.boundary_points", "calls"),
        "domains.boundary_points.self_s": get("domains.boundary_points", "self_s"),
        "domains.contains_batch.rows": get("domains.contains_batch", "rows"),
        "domains.contains_batch.self_s": get("domains.contains_batch", "self_s"),
        "domains.delta.calls": get("domains.delta", "calls"),
        "domains.delta.self_s": get("domains.delta", "self_s"),
        "domains.delta_dir.rows": get("domains.delta_dir", "rows"),
        "domains.delta_dir.self_s": get("domains.delta_dir", "self_s"),
        "domains.runtime_warnings": traced.runtime_warnings,
        "planar.exact_chart.calls": get("planar.exact_chart", "calls"),
        "planar.exact_chart.self_s": get("planar.exact_chart", "self_s"),
        "planar.planar_distance.calls": get("planar.planar_distance", "calls"),
        "planar.planar_distance.self_s": get("planar.planar_distance", "self_s"),
        "metric.distance.calls": get("metric.distance", "calls"),
        "metric.distance.busy_s": get("metric.distance", "busy_s"),
        "metric.exact_distance.self_s": get("metric.exact_distance", "self_s"),
        "metric.metric_bounds_batch.rows": get("metric.metric_bounds_batch", "rows"),
        "metric.metric_bounds_batch.self_s": get("metric.metric_bounds_batch", "self_s"),
        "metric.half_plane_lower.calls": get("metric.half_plane_lower", "calls"),
        "metric.half_plane_lower.self_s": get("metric.half_plane_lower", "self_s"),
        "metric.slice_upper.self_s": get("metric.slice_upper", "self_s"),
        "metric.inclusion_upper.calls": incl_calls,
        "metric.inclusion_upper.self_s": get("metric.inclusion_upper", "self_s"),
        "metric.inclusion_upper.win_ratio": ratio(c["metric.inclusion_upper.wins"], incl_calls),
        "metric.geodesic_approx.calls": geo_calls,
        "metric.geodesic_approx.self_s": get("metric.geodesic_approx", "self_s"),
        "metric.geodesic_approx.improved_ratio": ratio(
            geo_calls - c["metric.geodesic_approx.no_improvement"], geo_calls),
        "metric.path_objective.evals": c["metric.path_objective.evals"],
        "metric.midpoint_search.calls": get("metric.midpoint_search", "calls"),
        "metric.midpoint_search.self_s": get("metric.midpoint_search", "self_s"),
        "metric.sandwich.collapsed": c["metric.sandwich.collapsed"],
        "cat0.midpoint_defect.calls": get("cat0.midpoint_defect", "calls"),
        "cat0.midpoint_defect.self_s": get("cat0.midpoint_defect", "self_s"),
        "cat0.product_certificate.self_s": get("cat0.product_certificate", "self_s"),
        "convexity.local_m_convex_check.self_s": get("convexity.local_m_convex_check", "self_s"),
        "convexity.line_type.self_s": get("convexity.line_type", "self_s"),
        "limits.hausdorff.self_s": get("limits.hausdorff", "self_s"),
        "limits.frankel_2b.self_s": get("limits.frankel_2b", "self_s"),
        "limits.convergence_check.self_s": get("limits.convergence_check", "self_s"),
        "trace.overhead_s": traced.wall - untraced.wall,
    }
    q = quality(traced)
    for key in ("rel_width_mean", "certified_defect_min", "unsound_count", "failed_share"):
        out[key] = q[key]
    return out


def trace_accounting(tracer, traced: Passes) -> dict:
    """Self times of all spans plus the separately measured harness time
    outside them, against the wall time of the traced pass."""
    from tracing import self_times

    self_sum = math.fsum(self_times(tracer.spans))
    residual = traced.wall - (self_sum + traced.unspanned)
    return {"spans": len(tracer.spans), "wall_s": traced.wall, "self_sum_s": self_sum,
            "unspanned_s": traced.unspanned, "residual_s": residual,
            "residual_share": residual / traced.wall}


def machine() -> dict:
    import numpy
    import scipy

    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__}


def git_commit() -> str | None:
    """The checkout's commit; None when the checkout is not a git repository."""
    # the ceiling keeps git from reporting a repository that merely contains ROOT
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "kcat0" / "__init__.py").is_file():
        print(f"error: no kcat0 sources under {ROOT / 'src'}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 1
    sys.path.insert(0, str(ROOT / "src"))

    import_samples = [import_time()]

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    import numpy as np

    queries = workload.queries(np.random.default_rng(args.seed))

    record = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": {**machine(), "blas_threads": BLAS_THREADS},
        "git_commit": git_commit(),
        "inputs": {"sha256": digest([[q.kind, q.inputs] for q in queries]),
                   "queries": len(queries)},
    }

    if args.trace:
        from tracing import Tracer

        untraced = run_passes(workload, queries, 1)
        tracer = Tracer()
        tracer.install()
        try:
            res = run_passes(workload, queries, 1, tracer)
        finally:
            tracer.uninstall()
        metrics = per_layer(tracer, untraced, res)
        TRACE_DIR.mkdir(exist_ok=True)
        trace_file = TRACE_DIR / f"{workload.name}-seed{args.seed}.json"
        tracer.write(trace_file)
        record["wall"] = {"untraced_s": untraced.wall, "traced_s": res.wall}
        record["trace"] = {**trace_accounting(tracer, res),
                           "file": str(trace_file.relative_to(ROOT)),
                           "results_match_untraced": results_digest(untraced.passes[0], res.kinds)
                           == results_digest(res.passes[0], res.kinds)}
    else:
        passes = pass_count(args.seconds, workload.pass_s)
        step = math.ceil(passes / IMPORT_PROBES)

        def between(n):
            if n % step == 0:
                import_samples.append(import_probe())

        res = run_passes(workload, queries, passes, between=between, calibrate=True)

        def timings(scaled):
            lat = res.latencies(scaled)
            return lat, {
                "setup_s": statistics.median(scaled_s if scaled else raw_s
                                             for scaled_s, raw_s in import_samples)
                + statistics.median(p.setup * (p.scale() if scaled else 1.0)
                                    for p in res.passes),
                "queries_per_s": len(lat) / math.fsum(lat),
                "query_p50_ms": 1e3 * statistics.median(lat),
            }

        lat, metrics = timings(True)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        tail = tail_percentile(lat)
        record["raw"] = timings(False)[1]
        record["wall"] = {"untraced_s": res.wall,
                          "pass_query_cpu_s": [math.fsum(p.latencies) for p in res.passes]}
        record["setup"] = {"import_cpu_s": [raw for _, raw in import_samples],
                           "import_scaled_s": [scaled for scaled, _ in import_samples],
                           "pass_setup_cpu_s": [p.setup for p in res.passes]}
        record["speed_bursts_ms"] = [[1e3 * b for b in p.bursts] for p in res.passes]
        record["query_ms"] = [1e3 * t for t in lat]
        record["query_tail_ms"] = None if tail is None else {
            "percentile": tail[0], "value": 1e3 * tail[1], "queries_beyond": tail[2],
            "queries": len(lat)}

    declared = declared_metrics("per_layer" if args.trace else "end_to_end")
    if set(declared) != set(metrics):
        raise RuntimeError(f"metrics {sorted(metrics)} differ from BENCHMARK.json {sorted(declared)}")
    q = quality(res)
    digests = {results_digest(p, res.kinds) for p in res.passes}
    record.update({
        "passes": len(res.passes), "queries_by_kind": by_kind(res), "quality": q,
        "runtime_warnings": res.runtime_warnings, "failures": failures(res),
        "known_defects": failures(res, known=True),
        "results_sha256": digests.pop() if len(digests) == 1 else None,
    })
    print(json.dumps({"run_record": record}))
    print(json.dumps({
        "correct": q["failed"] == 0,
        "attempted": q["attempted"],
        "failed": q["failed"],
        "metrics": {k: {"value": metrics[k], "unit": unit} for k, unit in declared.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
