"""wfcover benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload ladder --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the library is imported from its
``src`` directory.  A timed run (``--trace 0``) makes whole passes of the
workload, at least MIN_PASSES, until ``--seconds`` have passed, checks
every output against the pinned invariants in ``workloads.py``, and
reports the end-to-end metrics, with times at reference speed (see
``speed.py``).  A traced run (``--trace 1``) makes an untraced phase of
half the time, then the same number of passes again with the wfcover entry
points wrapped in span recorders, reports per-layer metrics, and writes the
spans to ``.bench_out/trace_<workload>.json``.  The last stdout
line is the JSON result.  Exit code 0 means the run completed, whether or
not outputs were correct; 2 means it could not run.
"""

from __future__ import annotations

import argparse
import importlib
import json
import random
import resource
import statistics
import sys
import time
from pathlib import Path

import spans
import speed
from workloads import WORKLOADS, PassResult, load_program

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
MODULES = ("graphs", "products", "forests", "independence", "theorems", "examples", "search", "cli")
# Each segment of work is timed at reference speed (speed.py) and reported
# as its median over the passes that repeat it, and set-up likewise over the
# set-ups made at points spread over the run.
MIN_PASSES = 2
SPARE_SET_UPS = 2  # at each set-up point
SET_UP_POINTS = 6  # spare set-ups after the first set-up, then each 1/6 of the run


def wfcover_modules() -> dict:
    """The wfcover modules (the benchmark's layers) by short name."""
    return {name: importlib.import_module(f"wfcover.{name}") for name in MODULES}


def import_wfcover() -> dict:
    """Import wfcover afresh from SRC, so each set-up pays for the import."""
    for name in [n for n in sys.modules if n == "wfcover" or n.startswith("wfcover.")]:
        del sys.modules[name]
    package = importlib.import_module("wfcover")
    if Path(package.__file__).resolve().parent != SRC / "wfcover":
        raise ImportError(f"wfcover imported from {package.__file__}, not from {SRC}")
    return wfcover_modules()


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def set_up(workload, seed: int, traced: bool) -> tuple[float, object, object]:
    """One set-up, timed at reference speed: a fresh import of wfcover, then
    the workload's inputs."""
    before = speed.probe()
    t0 = time.perf_counter()
    program = load_program(import_wfcover())
    inputs = workload.setup(program, random.Random(seed), OUT_DIR, traced)
    seconds = time.perf_counter() - t0
    return seconds * speed.factor(before, speed.probe()), program, inputs


def spare_set_ups(workload, seed: int) -> list[float]:
    """Time SPARE_SET_UPS more set-ups, then bind the measured program's modules again."""
    measured = {n: m for n, m in sys.modules.items() if n == "wfcover" or n.startswith("wfcover.")}
    times = [set_up(workload, seed, False)[0] for _ in range(SPARE_SET_UPS)]
    sys.modules.update(measured)
    return times


def measure(workload, program, inputs, seconds: float, rec=None, passes: int | None = None,
            min_passes: int = 1, after_pass=None):
    """Whole passes, at least ``min_passes``, until ``seconds`` have passed, or
    exactly ``passes``; returns (results, wall seconds).  ``after_pass`` is
    called with the seconds passed after each pass, outside the timing."""
    results: list[PassResult] = []
    t0 = time.perf_counter()
    paused = 0.0
    while True:
        done = len(results)
        if passes is not None and done == passes:
            break
        if passes is None and done >= min_passes and time.perf_counter() - t0 - paused >= seconds:
            break
        results.append(workload.run_pass(program, inputs, done, rec))
        if after_pass is not None:
            t1 = time.perf_counter()
            after_pass(t1 - t0 - paused)
            paused += time.perf_counter() - t1
    return results, time.perf_counter() - t0 - paused


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated between the samples."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def stream_metrics(results: list[PassResult]) -> dict:
    streams = [s for r in results for s in r.streams if s]
    gaps = [b - a for s in streams for a, b in zip([0.0] + s, s)]
    return {
        "first_result_s": statistics.median(s[0] for s in streams) if streams else 0.0,
        "gap_max_s": max(gaps, default=0.0),
    }


def end_to_end(results: list[PassResult], setup_times: list[float]) -> tuple[dict, int]:
    """The end-to-end metrics, and the number of latency samples.

    Every segment's time, at reference speed, is its median over the run's
    repetitions of the same input, and every operation's CPU likewise; each
    operation the run made then counts once with those times.
    """
    seg_times: dict = {}
    cpu_times: dict = {}
    for r in results:
        for key, (seconds, _) in r.segments.items():
            seg_times.setdefault(key, []).append(seconds)
        for op, seconds in r.op_cpu.items():
            cpu_times.setdefault(op, []).append(seconds)
    typical = {key: statistics.median(times) for key, times in seg_times.items()}
    cpu = {op: statistics.median(times) for op, times in cpu_times.items()}
    latencies: list[float] = []
    checks = 0
    for r in results:
        per_op: dict = {}
        for (op, part), (_, n) in r.segments.items():
            per_op[op] = per_op.get(op, 0.0) + typical[(op, part)]
            checks += n
        latencies += per_op.values()
    if not latencies:
        raise RuntimeError("no operation completed, so nothing was timed")
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "checks_per_s": (checks / sum(latencies), "1/s"),
        "check_ms_p50": (1000 * quantile(latencies, 50), "ms"),
        "check_ms_p90": (1000 * quantile(latencies, 90), "ms"),
        "cpu_s": (sum(cpu[op] for r in results for op in r.op_cpu) / len(results), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    return metrics, len(latencies)


def per_layer(rec: spans.Recorder, traced: list[PassResult], wall_t: float, wall_u: float) -> dict:
    """Per-layer metrics from the spans, per pass unless a ratio."""
    n = len(traced)
    tot = spans.totals(rec)

    def calls(name: str) -> float:
        return tot.get(name, (0, 0.0))[0] / n

    def self_s(*names: str) -> float:
        return sum(tot.get(name, (0, 0.0))[1] for name in names) / n

    checks = sum(r.checks for r in traced) / n
    catalogue_s = self_s("forests.catalogue")
    kept = rec.counters.get("forests.kept", 0) / n
    wall = wall_t / n
    streams = stream_metrics(traced)
    return {
        "forests.catalogue_s": (catalogue_s, "s"),
        "forests.catalogue_share": (catalogue_s / wall, "ratio"),
        "forests.kept": (kept, "count"),
        "forests.kept_per_s": (kept / catalogue_s if catalogue_s else 0.0, "1/s"),
        "forests.verify_calls": (calls("forests.verify"), "count"),
        "forests.verify_s": (self_s("forests.verify"), "s"),
        "products.builds": (calls("products.build"), "count"),
        "products.builds_per_check": (calls("products.build") / checks if checks else 0.0, "count"),
        "products.self_s": (self_s("products.build"), "s"),
        "theorems.witnesses": (calls("theorems.witness"), "count"),
        "theorems.witness_s": (self_s("theorems.witness"), "s"),
        "theorems.check_self_s": (self_s("theorems.check"), "s"),
        "independence.calls": (calls("independence.catalogue") + calls("independence.verify"), "count"),
        "independence.self_s": (self_s("independence.catalogue", "independence.verify"), "s"),
        "graphs.decode_calls": (calls("graphs.decode"), "count"),
        "graphs.decode_s": (self_s("graphs.decode"), "s"),
        "graphs.encode_calls": (calls("graphs.encode"), "count"),
        "graphs.encode_s": (self_s("graphs.encode"), "s"),
        "cli.render_s": (self_s("cli.render"), "s"),
        "cli.self_s": (self_s(spans.CLI_RUN), "s"),
        "cli.stdout_bytes": (sum(r.stdout_bytes for r in traced) / n, "bytes"),
        "examples.self_s": (self_s("examples.audit"), "s"),
        "search.self_s": (self_s(spans.SEARCH_READ, spans.SEARCH_SCAN), "s"),
        "search.first_result_s": (streams["first_result_s"], "s"),
        "search.gap_max_s": (streams["gap_max_s"], "s"),
        "search.findings_written": (sum(r.findings_written for r in traced) / n, "count"),
        "bench.self_s": (self_s(spans.ROOT), "s"),
        "trace.wall_s": (wall, "s"),
        "trace.untraced_wall_s": (wall_u / n, "s"),
        "trace.overhead_s": ((wall_t - wall_u) / n, "s"),
        "trace.spans": (len(rec) / n, "count"),
    }


SELF_TIME_METRICS = (
    "graphs.decode_s", "graphs.encode_s", "products.self_s", "forests.catalogue_s",
    "forests.verify_s", "independence.self_s", "theorems.witness_s", "theorems.check_self_s",
    "examples.self_s", "search.self_s", "cli.render_s", "cli.self_s", "bench.self_s",
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "wfcover" / "__init__.py").is_file():
        print(f"error: no wfcover sources in {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT_DIR.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload]
    traced_run = args.trace == 1

    try:
        seconds, program, inputs = set_up(workload, args.seed, traced_run)
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    rec = None
    if not traced_run:
        # Set-ups at points spread over the run, so one slow spell cannot hold them all.
        setup_times = [seconds] + spare_set_ups(workload, args.seed)
        points = [args.seconds * k / SET_UP_POINTS for k in range(1, SET_UP_POINTS)]

        def set_up_point(elapsed: float) -> None:
            if points and elapsed >= points[0]:
                while points and elapsed >= points[0]:
                    points.pop(0)
                setup_times.extend(spare_set_ups(workload, args.seed))

        results, _ = measure(workload, program, inputs, args.seconds,
                             min_passes=MIN_PASSES, after_pass=set_up_point)
        setup_times += spare_set_ups(workload, args.seed)
    else:
        # The untraced phase, half the run, sets the pass count and the wall
        # to compare with; the traced phase repeats as many passes.
        results, wall_u = measure(workload, program, inputs, args.seconds / 2)
        rec = spans.Recorder()
        triples, missing = spans.bindings(program.modules, rec)
        for name in missing:
            print(f"trace: {name} not found, not traced", file=sys.stderr)
        with spans.patched(triples):
            root = rec.open(spans.ROOT)
            traced, wall_t = measure(workload, program, inputs, args.seconds, rec, len(results))
            rec.close(root)
        results += traced

    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    for problem in [p for r in results for p in r.problems][:20]:
        print(f"FAILED {problem}", file=sys.stderr)
    print(f"workload {workload.name}, seed {args.seed}: {len(results)} passes, "
          f"{attempted} operations attempted, {failed} failed")
    if traced_run:
        metrics = per_layer(rec, traced, wall_t, wall_u)
        rec.write(OUT_DIR / f"trace_{workload.name}.json")
        layer_sum = sum(metrics[name][0] for name in SELF_TIME_METRICS)
        print(f"  self times sum to {layer_sum:.4f} s per pass; traced wall {metrics['trace.wall_s'][0]:.4f} s, "
              f"untraced {metrics['trace.untraced_wall_s'][0]:.4f} s, overhead {metrics['trace.overhead_s'][0]:.4f} s")
    else:
        metrics, samples = end_to_end(results, setup_times)
        print(f"  check_ms_p50 and check_ms_p90 over {samples} samples")
        print(f"  error_rate {failed / attempted if attempted else 0.0:.6f} ({failed}/{attempted})")
        scales = [f for r in results for f in r.speed]
        measured = sum(r.measured_s for r in results)
        scaled = sum(s for r in results for s, _ in r.segments.values())
        print(f"  operation time {measured:.3f} s as measured, {scaled:.3f} s at reference speed; "
              f"factors {min(scales):.3f}-{max(scales):.3f}, median {statistics.median(scales):.3f}")
        streams = stream_metrics(results)
        findings = statistics.median(r.findings_written for r in results)
        print(f"  search.first_result_s {streams['first_result_s']:.4f} s, search.gap_max_s "
              f"{streams['gap_max_s']:.4f} s, search.findings_written {findings:g} per pass")
    for name, (value, unit) in metrics.items():
        print(f"  {name} {value:.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
