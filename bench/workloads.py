"""The benchmark's workloads: inputs made from a seed, one pass of work, and
the pinned outputs every pass is checked against.

Each workload runs passes.  A pass runs the workload's whole item list
once, so every pass does the same amount of work and rates are comparable
across seeds.  Verdicts, forest numbers, forest orders and finding counts
do not change under isomorphism, so one pinned set of expected values
checks every seed.

Every CLI command starts with empty catalogue caches, as a separate
``wfcover`` process would: relabelling alone cannot keep ``dense`` cold,
because a complete graph has one labelling and C4 only three.
"""

from __future__ import annotations

import io
import json
import os
import resource
import time
from dataclasses import dataclass, field
from itertools import accumulate
from pathlib import Path
from types import ModuleType

import speed
from spans import CLI_RUN, SEARCH_READ, SEARCH_SCAN, Recorder

DATA = Path(__file__).resolve().parent / "data"
SCAN_WINDOW = 32  # findings per timed segment of a scan


def cpu_seconds() -> float:
    """CPU seconds of this process and of its children that have been waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


@dataclass
class Program:
    """The imported wfcover modules, by short name, and their catalogue caches."""

    modules: dict[str, ModuleType]
    caches: list

    def clear_caches(self) -> None:
        for cache in self.caches:
            cache.cache_clear()


def load_program(modules: dict[str, ModuleType]) -> Program:
    caches = {}
    for mod in modules.values():
        for value in vars(mod).values():
            if hasattr(value, "cache_info") and callable(getattr(value, "cache_clear", None)):
                caches[id(value)] = value
    return Program(modules, list(caches.values()))


@dataclass
class PassResult:
    """What one pass did, as seen from outside the program.

    An operation is one CLI command, or one theorem's scan.  Its time is
    kept in segments, keyed (operation, part), that recur in every pass
    that repeats the operation, so a run can take each segment's median.
    Segment and CPU times are at reference speed (see ``speed.py``);
    ``speed`` holds the factors that scaled them, and ``measured_s`` the
    segments' total time as measured.
    """

    attempted: int = 0
    failed: int = 0
    checks: int = 0  # CLI commands, or scanned pairs
    segments: dict[tuple, tuple[float, int]] = field(default_factory=dict)  # (seconds, checks)
    op_cpu: dict[str, float] = field(default_factory=dict)  # CPU seconds per operation
    speed: list[float] = field(default_factory=list)
    measured_s: float = 0.0
    streams: list[list[float]] = field(default_factory=list)  # result arrival times
    findings_written: int = 0
    stdout_bytes: int = 0
    problems: list[str] = field(default_factory=list)


@dataclass(frozen=True)
class Command:
    """One CLI command of a pass and its pinned outputs."""

    name: str
    theorem: str | None  # None for verify-paper
    g: str = ""
    h: str = ""
    expect: dict = field(default_factory=dict)


def _thm(name, theorem, g, h, verdict, f_product, orders, witnesses) -> Command:
    expect = {
        "verdict": verdict,
        "f_product": f_product,
        "maximal_forest_orders": orders,
        "witnesses": witnesses,
    }
    return Command(name, theorem, g, h, expect)


CONSISTENT = "consistent"
NON_SUFFICIENT = "non_sufficiency_witness"

# Pinned from the library at the commit that introduced the benchmark.
LADDER_ITEMS = (
    _thm("thm32 P12x2", "thm32", "path:12", "empty:2", CONSISTENT, 16, [12, 13, 14, 15, 16], 1),
    _thm("thm32 P8x3", "thm32", "path:8", "empty:3", CONSISTENT, 15, [10, 11, 12, 13, 14, 15], 1),
    _thm("thm32 C6x4", "thm32", "cycle:6", "empty:4", CONSISTENT, 13, [10, 11, 13], 6),
    _thm("thm32 C8x3", "thm32", "cycle:8", "empty:3", CONSISTENT, 14, [10, 11, 12, 14], 8),
    _thm("thm35 C8oP3", "thm35", "cycle:8", "path:3", CONSISTENT, 12, [7, 8, 9, 10, 11, 12], 26),
    _thm("thm35 C6oC4", "thm35", "cycle:6", "cycle:4", CONSISTENT, 9, [6, 7, 8, 9], 17),
    _thm("thm35 C5oC4", "thm35", "cycle:5", "cycle:4", NON_SUFFICIENT, 6, [5, 6], 15),
    Command(
        "verify-paper",
        None,
        expect={"verdict": CONSISTENT, "claims": {"confirmed": 14, "corrected": 2, "refuted": 2}},
    ),
)

DENSE_ITEMS = (
    _thm("thm35 K4oC5", "thm35", "complete:4", "cycle:5", CONSISTENT, 4, [3, 4], 34),
    _thm("thm35 K5oC4", "thm35", "complete:5", "cycle:4", CONSISTENT, 3, [3], 25),
    _thm("thm35 K6oC4", "thm35", "complete:6", "cycle:4", CONSISTENT, 3, [3], 36),
    _thm("thm35 K8oP3", "thm35", "complete:8", "path:3", CONSISTENT, 3, [2, 3], 64),
    _thm("thm35 K6oP4", "thm35", "complete:6", "path:4", CONSISTENT, 4, [3, 4], 51),
    _thm("thm35 K5oP4", "thm35", "complete:5", "path:4", CONSISTENT, 4, [3, 4], 35),
    _thm("thm35 K4oP6", "thm35", "complete:4", "path:6", CONSISTENT, 6, [3, 4, 6], 34),
)

# Per theorem: pairs checked and verdict counts over atlas<=5 x atlas<=4.
SCAN_EXPECT = {
    "thm35": {"pairs": 658, "verdicts": {CONSISTENT: 638, NON_SUFFICIENT: 20}},
    "thm32": {"pairs": 208, "verdicts": {CONSISTENT: 156, NON_SUFFICIENT: 52}},
}


def relabel(graphs: ModuleType, g, rng):
    """A copy of ``g`` with its vertices renumbered by a random permutation."""
    perm = list(range(g.order))
    rng.shuffle(perm)
    return graphs.Graph.from_edges(g.order, [(perm[u], perm[v]) for u, v in g.edges()])


def _graph6(graphs: ModuleType, family: str, rng=None) -> str:
    g = graphs.generate(graphs.parse_family(family))
    if rng is not None:
        g = relabel(graphs, g, rng)
    return graphs.to_graph6(g).decode("ascii")


def check_output(expect: dict, code: int, text: str) -> str | None:
    """Why a check-theorem or verify-paper result breaks its pinned invariants, or None."""
    try:
        doc = json.loads(text)
    except ValueError as exc:
        return f"stdout is not a JSON document ({exc})"
    want_code = 0 if expect["verdict"] == CONSISTENT else 1
    if code != want_code:
        return f"exit code {code}, expected {want_code}"
    if doc.get("verdict") != expect["verdict"]:
        return f"verdict {doc.get('verdict')!r}, expected {expect['verdict']!r}"
    if "claims" in expect:
        statuses: dict[str, int] = {}
        for claim in doc.get("claims", ()):
            statuses[claim["status"]] = statuses.get(claim["status"], 0) + 1
        if statuses != expect["claims"]:
            return f"claim statuses {statuses}, expected {expect['claims']}"
        return None
    truth = doc.get("ground_truth", {})
    for key in ("f_product", "maximal_forest_orders"):
        if truth.get(key) != expect[key]:
            return f"{key} {truth.get(key)!r}, expected {expect[key]!r}"
    witnesses = doc.get("witnesses", ())
    if len(witnesses) != expect["witnesses"]:
        return f"{len(witnesses)} witnesses, expected {expect['witnesses']}"
    if not all(w.get("verified") for w in witnesses):
        return "a witness failed verification"
    return None


def run_command(program: Program, argv: list[str], rec: Recorder | None) -> tuple[int, str, float]:
    """Run one cold CLI command in-process: (exit code, stdout, seconds)."""
    program.clear_caches()
    run = program.modules["cli"].run
    stdout, stderr = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    if rec is None:
        code = run(argv, stdout, stderr)
    else:
        code = rec.call(CLI_RUN, run, argv, stdout, stderr)
    return code, stdout.getvalue(), time.perf_counter() - t0


class CliWorkload:
    """Cold ``check-theorem`` and ``verify-paper`` commands, one pass over ``items``."""

    def __init__(self, name: str, items: tuple[Command, ...], relabelled: bool) -> None:
        self.name = name
        self.items = items
        self.relabelled = relabelled

    # Input variants made per item; passes cycle through them, so each input
    # recurs and its median can be taken.  Labellings move a dense check's
    # cost by under 10 %, so eight of them represent an item.
    variants = 8

    def setup(self, program: Program, rng, out_dir: Path, traced: bool) -> list[list[tuple]]:
        """Per variant: the commands as (item, argv), in a seeded order."""
        graphs = program.modules["graphs"]
        passes = []
        for _ in range(self.variants):
            batch = []
            for item in self.items:
                if item.theorem is None:
                    batch.append((item, ["verify-paper"]))
                    continue
                g = _graph6(graphs, item.g, rng if self.relabelled else None)
                h = _graph6(graphs, item.h, rng if self.relabelled else None)
                batch.append((item, ["check-theorem", item.theorem, "--g", g, "--h", h]))
            rng.shuffle(batch)
            passes.append(batch)
        return passes

    def run_pass(self, program: Program, inputs, index: int, rec: Recorder | None) -> PassResult:
        res = PassResult()
        variant = index % len(inputs)
        latencies = []
        with speed.on_one_cpu(), speed.sampled() as samples:
            before = speed.probe()
            for item, argv in inputs[variant]:
                if rec is not None:
                    rec.check_id += 1
                res.attempted += 1
                op = " ".join(argv)  # repeats of the same input share a key
                cpu0 = cpu_seconds()
                t0 = time.perf_counter()
                try:
                    code, text, seconds = run_command(program, argv, rec)
                except Exception as exc:  # a crash is a failed operation, not the end of the run
                    res.failed += 1
                    res.problems.append(f"{item.name}: raised {exc!r}")
                    continue
                cpu = cpu_seconds() - cpu0
                during = [p for t, p in samples if t >= t0]
                after = speed.probe()
                scale = speed.factor(before, *during, after)
                before = after
                res.speed.append(scale)
                res.op_cpu[op] = cpu * scale
                res.segments[(op, 0)] = (seconds * scale, 1)
                res.measured_s += seconds
                res.checks += 1
                latencies.append(seconds)
                res.stdout_bytes += len(text.encode("utf-8"))
                problem = check_output(item.expect, code, text)
                if problem is not None:
                    res.failed += 1
                    res.problems.append(f"{item.name}: {problem}")
        res.streams.append(list(accumulate(latencies)))
        return res


@dataclass(frozen=True)
class ScanInputs:
    g_path: Path
    h_path: Path
    out_dir: Path
    workers: int


def _shuffled_copy(src: Path, dst: Path, rng) -> None:
    lines = src.read_text(encoding="ascii").splitlines()
    rng.shuffle(lines)
    dst.write_text("".join(line + "\n" for line in lines), encoding="ascii")


def check_findings(theorem: str, verdicts: dict[str, int], lines: list[str]) -> str | None:
    """Why one theorem's scan breaks its pinned counts, or None."""
    expect = SCAN_EXPECT[theorem]
    if sum(verdicts.values()) != expect["pairs"]:
        return f"{sum(verdicts.values())} pairs checked, expected {expect['pairs']}"
    if verdicts != expect["verdicts"]:
        return f"verdicts {verdicts}, expected {expect['verdicts']}"
    written: dict[str, int] = {}
    for line in lines:
        verdict = json.loads(line)["verdict"]
        written[verdict] = written.get(verdict, 0) + 1
    noteworthy = {k: v for k, v in verdicts.items() if k != CONSISTENT}
    if written != noteworthy:
        return f"findings file holds {written}, expected {noteworthy}"
    return None


class ScanWorkload:
    """``search.scan`` over atlas graphs of order <=5 x order <=4, thm35 then thm32.

    The seed shuffles the lines of both input files.
    """

    name = "scan"
    theorems = ("thm35", "thm32")

    def setup(self, program: Program, rng, out_dir: Path, traced: bool) -> ScanInputs:
        g_path, h_path = out_dir / "scan_g.g6", out_dir / "scan_h.g6"
        _shuffled_copy(DATA / "atlas_le5.g6", g_path, rng)
        _shuffled_copy(DATA / "atlas_le4.g6", h_path, rng)
        # The traced run keeps every span in this process.
        workers = 1 if traced else min(2, len(os.sched_getaffinity(0)))
        return ScanInputs(g_path, h_path, out_dir, workers)

    def run_pass(self, program: Program, inputs: ScanInputs, index: int, rec: Recorder | None) -> PassResult:
        search = program.modules["search"]
        res = PassResult()
        program.clear_caches()
        for theorem in self.theorems:
            expected_pairs = SCAN_EXPECT[theorem]["pairs"]
            res.attempted += expected_pairs
            findings_path = inputs.out_dir / f"findings_{theorem}.jsonl"
            findings_path.unlink(missing_ok=True)
            verdicts: dict[str, int] = {}
            arrivals: list[float] = []
            probes = [speed.probe_each_cpu()]  # at each window's bounds
            cpu0 = cpu_seconds()
            t0 = time.perf_counter()
            try:
                pairs = self._pairs(search, inputs, rec)
                config = search.ScanConfig(
                    theorem=theorem, workers=inputs.workers, findings_path=findings_path
                )
                results = search.scan(pairs, config)
                while True:
                    if rec is None:
                        finding = next(results, None)
                    else:
                        rec.check_id += 1
                        finding = rec.call(SEARCH_SCAN, next, results, None)
                    if finding is None:
                        break
                    arrivals.append(time.perf_counter() - t0)
                    if len(arrivals) % SCAN_WINDOW == 0:
                        probes.append(speed.probe_each_cpu())
                    verdicts[finding.verdict] = verdicts.get(finding.verdict, 0) + 1
            except Exception as exc:  # a crash fails the whole scan, not the run
                res.failed += expected_pairs
                res.problems.append(f"scan {theorem}: raised {exc!r}")
                continue
            seconds = time.perf_counter() - t0
            cpu = cpu_seconds() - cpu0
            if len(arrivals) % SCAN_WINDOW or not arrivals:
                probes.append(speed.probe_each_cpu())
            # Windows of consecutive findings; the last one runs to the end of the scan.
            bounds = list(range(0, len(arrivals), SCAN_WINDOW)) + [len(arrivals)]
            raw = scaled = 0.0
            for part, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
                begin = arrivals[lo - 1] if lo else 0.0
                end = seconds if hi == len(arrivals) else arrivals[hi - 1]
                scale = speed.factor(probes[part], probes[part + 1])
                res.speed.append(scale)
                res.segments[(theorem, part)] = ((end - begin) * scale, hi - lo)
                raw += end - begin
                scaled += (end - begin) * scale
            res.op_cpu[theorem] = cpu * scaled / raw if raw else cpu
            res.measured_s += raw
            res.checks += len(arrivals)
            res.streams.append(arrivals)
            lines = findings_path.read_text(encoding="ascii").splitlines() if findings_path.exists() else []
            res.findings_written += len(lines)
            problem = check_findings(theorem, verdicts, lines)
            if problem is not None:
                res.failed += expected_pairs
                res.problems.append(f"scan {theorem}: {problem}")
        return res

    @staticmethod
    def _pairs(search: ModuleType, inputs: ScanInputs, rec: Recorder | None) -> list[tuple]:
        def read(path: Path) -> list:
            return list(search.read_graph6_stream(path))

        if rec is None:
            gs, hs = read(inputs.g_path), read(inputs.h_path)
        else:
            gs, hs = rec.call(SEARCH_READ, read, inputs.g_path), rec.call(SEARCH_READ, read, inputs.h_path)
        return [(g, h) for g in gs for h in hs]


# Why each workload exists is recorded in BENCHMARK.json and README.md.
# ladder and scan keep the factors' own labelling: the kernel's cost depends
# on the vertex order (P8x3 took 0.37-6.05 s over six relabellings), so
# relabelled inputs would make those runs measure the seed, not the code.
WORKLOADS = {
    w.name: w
    for w in (
        CliWorkload("ladder", LADDER_ITEMS, relabelled=False),
        CliWorkload("dense", DENSE_ITEMS, relabelled=True),
        ScanWorkload(),
    )
}
