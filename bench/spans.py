"""Outside-in span recorder for the traced benchmark run.

During a traced run, chosen wfcover entry points are replaced, in every
wfcover module namespace that binds them, by wrappers that record one span
per call: name, start, end, parent span and check id.  Spans stay in flat
arrays until the run ends.  The originals are bound again afterwards.

A span's self time is its duration minus the part of it that its child
spans cover, so the self times of all spans under one root add up to the
root's duration.  Layers are the wfcover modules; a span's layer is the
part of its name before the first dot.
"""

from __future__ import annotations

import json
import time
from array import array
from contextlib import contextmanager
from functools import wraps
from pathlib import Path
from types import ModuleType
from typing import Callable, Iterator

# (defining module, function, span name).  The functions are patched wherever
# a wfcover module binds them, so calls through any import path are seen.
TARGETS = (
    ("graphs", "from_graph6", "graphs.decode"),
    ("graphs", "to_graph6", "graphs.encode"),
    ("products", "lexicographic", "products.build"),
    ("forests", "forest_number", "forests.catalogue"),
    ("forests", "is_well_f_covered", "forests.catalogue"),
    ("forests", "maximal_forest_order_histogram", "forests.catalogue"),
    ("forests", "enumerate_maximal_induced_forests", "forests.catalogue"),
    ("forests", "is_maximal_induced_forest", "forests.verify"),
    ("independence", "enumerate_maximal_independent_sets", "independence.catalogue"),
    ("independence", "independence_number", "independence.catalogue"),
    ("independence", "is_well_covered", "independence.catalogue"),
    ("independence", "is_maximal_independent_set", "independence.verify"),
    ("theorems", "construct_vm", "theorems.witness"),
    ("theorems", "construct_vstar_empty_second", "theorems.witness"),
    ("theorems", "construct_vstar_nonempty_second", "theorems.witness"),
    ("theorems", "check_thm31", "theorems.check"),
    ("theorems", "check_thm32", "theorems.check"),
    ("theorems", "check_thm35", "theorems.check"),
    ("examples", "verify_paper_examples", "examples.audit"),
    ("cli", "report_to_dict", "cli.render"),
)

# Spans the benchmark records around its own calls into the program.
CLI_RUN = "cli.run"
SEARCH_READ = "search.read"
SEARCH_SCAN = "search.scan"
ROOT = "bench"


class Recorder:
    """In-memory spans, kept as parallel arrays to keep recording cheap."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.check = array("i")
        self.check_id = -1
        self.counters: dict[str, int] = {}
        self._stack: list[int] = []

    def __len__(self) -> int:
        return len(self.start)

    def open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.check.append(self.check_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(self.clock())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = self.clock()
        if self._stack.pop() != idx:
            raise RuntimeError("spans closed out of order")

    def call(self, name: str, fn: Callable, *args, **kwargs):
        idx = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(idx)

    def count(self, key: str, n: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def wrap(self, name: str, fn: Callable, on_result: Callable | None = None) -> Callable:
        @wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if on_result is not None:
                on_result(self, result)
            return result

        return traced

    def write(self, path: Path) -> None:
        """Write every span as [name, start, end, parent, check] rows."""
        rows = [
            [self.names[n], s, e, p, c]
            for n, s, e, p, c in zip(self.name_id, self.start, self.end, self.parent, self.check)
        ]
        path.write_text(
            json.dumps({"fields": ["name", "start", "end", "parent", "check"], "spans": rows}),
            encoding="ascii",
        )


def self_times(start, end, parent) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: list[list[int]] = [[] for _ in start]
    for i, p in enumerate(parent):
        if p >= 0:
            children[p].append(i)
    out = []
    for i, kids in enumerate(children):
        lo, hi = start[i], end[i]
        covered = 0.0
        run_lo = run_hi = None
        for c in sorted(kids, key=start.__getitem__):
            s, e = max(start[c], lo), min(end[c], hi)
            if e <= s:
                continue
            if run_hi is None or s > run_hi:
                if run_hi is not None:
                    covered += run_hi - run_lo
                run_lo, run_hi = s, e
            elif e > run_hi:
                run_hi = e
        if run_hi is not None:
            covered += run_hi - run_lo
        out.append(hi - lo - covered)
    return out


def totals(rec: Recorder) -> dict[str, tuple[int, float]]:
    """Per span name: (number of spans, summed self time)."""
    selfs = self_times(rec.start, rec.end, rec.parent)
    out: dict[str, list] = {name: [0, 0.0] for name in rec.names}
    for nid, st in zip(rec.name_id, selfs):
        acc = out[rec.names[nid]]
        acc[0] += 1
        acc[1] += st
    return {name: (n, s) for name, (n, s) in out.items()}


class _JsonProxy:
    """Stands in for the json module in one namespace, with a traced dumps."""

    def __init__(self, module: ModuleType, dumps: Callable) -> None:
        self._module = module
        self.dumps = dumps

    def __getattr__(self, name: str):
        return getattr(self._module, name)


def _count_kept(rec: Recorder, histogram: dict) -> None:
    rec.count("forests.kept", sum(histogram.values()))


def bindings(modules: dict[str, ModuleType], rec: Recorder) -> tuple[list, list[str]]:
    """The (module, attribute, wrapper) triples that trace TARGETS, and the targets not found."""
    replacements = {}
    missing = []
    for mod_name, attr, span in TARGETS:
        fn = getattr(modules.get(mod_name), attr, None)
        if fn is None:
            missing.append(f"wfcover.{mod_name}.{attr}")
            continue
        hook = _count_kept if attr == "maximal_forest_order_histogram" else None
        replacements[id(fn)] = (fn, rec.wrap(span, fn, hook))
    triples = []
    for mod in modules.values():
        for attr, value in vars(mod).items():
            rep = replacements.get(id(value))
            if rep is not None and rep[0] is value:
                triples.append((mod, attr, rep[1]))
    cli = modules.get("cli")
    cli_json = getattr(cli, "json", None)
    if cli_json is not None:
        triples.append((cli, "json", _JsonProxy(cli_json, rec.wrap("cli.render", cli_json.dumps))))
    else:
        missing.append("wfcover.cli.json")
    return triples, missing


@contextmanager
def patched(triples: list) -> Iterator[None]:
    """Bind each wrapper in place of the original for the duration of the block."""
    undo = []
    try:
        for mod, attr, wrapper in triples:
            undo.append((mod, attr, getattr(mod, attr)))
            setattr(mod, attr, wrapper)
        yield
    finally:
        for mod, attr, original in reversed(undo):
            setattr(mod, attr, original)
