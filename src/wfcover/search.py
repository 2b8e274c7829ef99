"""Batch scanning of graph pairs for non-sufficiency witnesses.

Pairs are filtered by the selected check's hypotheses and by the product
order bound ``ScanConfig.max_order`` (the checks take none), checked, and
reported as Findings in input order.  A run of consecutive pairs that
share their first factor is always checked whole, in one process; a
process pool takes the runs in batches of several whole runs, about eight
batches per worker, and never starts more workers than there are runs.
Findings with a non-consistent verdict are also appended to a JSON Lines
file so long scans can stream their results.

The process-pool machinery (``concurrent.futures.process`` and
``multiprocessing``) is imported only when a scan starts a pool, so a
command that does not fork never loads it.  A pool whose worker dies
raises ``concurrent.futures.BrokenExecutor`` from the scan, which the CLI
reports as an error (exit 2).
"""

from __future__ import annotations

import json
import logging
import math
import os
from concurrent.futures import Executor
from dataclasses import dataclass, fields
from functools import lru_cache
from itertools import chain, groupby
from operator import itemgetter
from pathlib import Path
from typing import IO, Iterable, Iterator

from .graphs import DEFAULT_MAX_ORDER, Graph, Graph6Error, from_graph6, is_int, to_graph6
from .forests import forest_number
from .independence import independence_number
from .theorems import THEOREM_IDS, check, hypothesis_filter
from .theorems import VERDICT_CONSISTENT, VERDICT_NON_SUFFICIENCY, VERDICT_VIOLATION

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class Finding:
    """One checked pair: identity, verdict, and the headline scalars."""

    g_graph6: str
    h_graph6: str
    theorem_id: str
    verdict: str
    f_product: int
    alpha_g: int
    f_h: int
    witness_orders: tuple[int, ...]

    def to_dict(self) -> dict:
        """The record as one JSON object, ``witness_orders`` as a list."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["witness_orders"] = list(self.witness_orders)
        return out

    @classmethod
    def from_dict(cls, data: dict) -> Finding:
        """The record of a JSON object; keys that name no field are ignored.
        A missing field raises KeyError; a value of the wrong JSON type, or a
        theorem id or verdict that no check gives, ValueError naming the field."""
        values = {f.name: data[f.name] for f in fields(cls)}
        for f in fields(cls):
            valid, kind = _JSON_TYPES[f.type]
            if not valid(values[f.name]):
                raise ValueError(f"finding field {f.name!r} is not {kind}")
        for name, known in (("theorem_id", THEOREM_IDS), ("verdict", _VERDICTS)):
            if values[name] not in known:
                raise ValueError(f"finding field {name!r} is not one of {known}")
        values["witness_orders"] = tuple(values["witness_orders"])
        return cls(**values)


# the verdicts a check gives
_VERDICTS = (VERDICT_CONSISTENT, VERDICT_NON_SUFFICIENCY, VERDICT_VIOLATION)

# the JSON value of each field annotation of Finding, and its name in errors;
# a bool, though an int in Python, is no count
_JSON_TYPES = {
    "str": (lambda value: type(value) is str, "a string"),
    "int": (lambda value: type(value) is int, "an integer"),
    "tuple[int, ...]": (
        lambda value: type(value) is list and all(type(item) is int for item in value),
        "a list of integers",
    ),
}


@dataclass(frozen=True)
class ScanConfig:
    """Check selection and resource limits for a scan."""

    theorem: str
    max_order: int = DEFAULT_MAX_ORDER
    workers: int = 1
    findings_path: str | Path | None = None

    def __post_init__(self) -> None:
        if self.theorem not in THEOREM_IDS:
            raise ValueError(f"theorem must be one of {THEOREM_IDS}, got {self.theorem!r}")
        if not is_int(self.max_order) or self.max_order < 1:
            raise ValueError(f"max_order must be an int of at least 1, got {self.max_order!r}")
        if not is_int(self.workers) or self.workers < 1:
            raise ValueError(f"workers must be an int of at least 1, got {self.workers!r}")
        # open() takes an int as a file descriptor, and the scan would close it
        if not (self.findings_path is None or isinstance(self.findings_path, (str, os.PathLike))):
            raise ValueError(f"findings_path must be None, a str or a path, got {self.findings_path!r}")


@lru_cache(maxsize=256)
def _graph6_text(g: Graph) -> str:
    """The graph6 text of a factor, encoded once per graph in each process."""
    return to_graph6(g).decode("ascii")


def _check_pair(theorem: str, g: Graph, h: Graph) -> Finding:
    report = check(theorem, g, h)
    truth = report.ground_truth
    # alpha(G) and f(H) are not part of every report's ground truth; they are
    # cheap, and no factor outgrows the pair the scan admitted.
    alpha_g = truth.get("alpha_g")
    if alpha_g is None:
        alpha_g = independence_number(g)
    f_h = truth.get("f_h")
    if f_h is None:
        f_h = forest_number(h)
    return Finding(
        g_graph6=_graph6_text(g),
        h_graph6=_graph6_text(h),
        theorem_id=theorem,
        verdict=report.verdict,
        f_product=truth["f_product"],
        alpha_g=alpha_g,
        f_h=f_h,
        witness_orders=tuple(truth["maximal_forest_orders"]),
    )


# Each batch a pool worker takes costs a round trip through the executor's
# queues and threads in both processes, so few large batches spend the least
# CPU; but a worker that ends its last batch early idles while the other
# finishes a straggling one.  On the bench scan with 2 workers, 8 batches per
# worker gave more checks per second than 4 (10 of 11 paired runs) and 2,
# for about 2 % more CPU than 4.
BATCHES_PER_WORKER = 8


def _check_run(task: tuple[str, Graph, tuple[Graph, ...]]) -> list[Finding]:
    """Check G against each second factor of one run, in order: the
    catalogues, role tables and graph6 text of G are made once, in one process."""
    theorem, g, hs = task
    return [_check_pair(theorem, g, h) for h in hs]


def scan(pairs: Iterable[tuple[Graph, Graph]], config: ScanConfig) -> Iterator[Finding]:
    """Check each applicable pair, yielding Findings in input order.

    Pairs failing the hypothesis filter are skipped silently (they are out
    of the selected check's scope); pairs whose product exceeds the
    enumeration bound are skipped with a logged warning that names the
    pair by its input position, counted from 1, and its factor orders; they
    are never dropped silently.

    A pool has at most as many workers as this process may use CPUs, and
    no more than there are runs of a first factor; with one worker or fewer
    the scan runs in this process, reading the pairs as it goes, one run at
    a time.  A pool is handed every run up front, in batches of whole runs,
    ``BATCHES_PER_WORKER`` batches per worker.
    """
    def in_scope() -> Iterator[tuple[Graph, Graph]]:
        for position, (g, h) in enumerate(pairs, start=1):
            if not hypothesis_filter(config.theorem, g, h):
                continue
            if g.order * h.order > config.max_order:
                # named by position and orders, as graph6 here encodes at most 62 vertices
                logger.warning(
                    "skipping pair %d (G of order %d, H of order %d): product order %d exceeds bound %d",
                    position, g.order, h.order, g.order * h.order, config.max_order,
                )
                continue
            yield g, h

    # lazy, so one worker reads a run (and the first pair after it) per step
    tasks: Iterable[tuple[str, Graph, tuple[Graph, ...]]] = (
        (config.theorem, g, tuple(h for _, h in run))
        for g, run in groupby(in_scope(), key=itemgetter(0))
    )

    out_file: IO[str] | None = None
    pool: Executor | None = None
    if config.findings_path is not None:
        out_file = open(config.findings_path, "a", encoding="ascii")
    # more processes than usable CPUs only add start-up cost and memory;
    # only some systems can tell which CPUs this process may use
    if hasattr(os, "sched_getaffinity"):
        usable = len(os.sched_getaffinity(0))
    else:
        usable = os.cpu_count() or 1
    workers = min(config.workers, usable)
    try:
        if workers > 1:
            # a pool takes every run up front; a worker without a run is not started
            tasks = list(tasks)
            workers = min(workers, len(tasks))
        if workers <= 1:
            runs: Iterable[list[Finding]] = map(_check_run, tasks)
        else:
            # imported here, so a scan that does not fork never loads multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            pool = ProcessPoolExecutor(max_workers=workers)
            # a batch holds whole runs, so each G's records are built in one worker
            batch = math.ceil(len(tasks) / (BATCHES_PER_WORKER * workers))
            runs = pool.map(_check_run, tasks, chunksize=batch)
        for finding in chain.from_iterable(runs):
            if finding.verdict != VERDICT_CONSISTENT and out_file is not None:
                out_file.write(json.dumps(finding.to_dict(), sort_keys=True) + "\n")
                out_file.flush()
            yield finding
    finally:
        if pool is not None:
            # an abandoned scan (closed generator, Ctrl-C) drops its queued pairs
            pool.shutdown(cancel_futures=True)
        if out_file is not None:
            out_file.close()


def read_findings(path: str | Path) -> list[Finding]:
    """Load a JSON Lines findings file.  A line with a non-ASCII byte, a line
    that is not a JSON object, and a record that lacks a field, holds a value
    of the wrong type, or names a theorem or verdict that no scan writes raise
    ValueError naming their line number."""
    out = []
    # Non-ASCII bytes decode to lone surrogates, so they are found on their
    # own line and not at an offset into the file.
    with open(path, encoding="ascii", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            if not line.isascii():
                column, char = next((i, c) for i, c in enumerate(line, start=1) if not c.isascii())
                raise ValueError(f"line {lineno}: non-ASCII byte {ord(char) - 0xDC00:#04x} (column {column})")
            try:
                record = json.loads(line)
                if not isinstance(record, dict):
                    raise ValueError("finding is not a JSON object")
                out.append(Finding.from_dict(record))
            except json.JSONDecodeError as exc:
                raise ValueError(f"line {lineno}: {exc.msg} (column {exc.colno})") from exc
            except KeyError as exc:
                raise ValueError(f"line {lineno}: finding has no field {exc.args[0]!r}") from exc
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from exc
    return out


def read_graph6_stream(
    source: str | Path | IO[str], strict: bool = True
) -> Iterator[Graph]:
    """Yield graphs from a file of one graph6 record per line.

    Blank lines are skipped and an optional ``>>graph6<<`` prefix is
    tolerated.  A malformed line raises Graph6Error naming the line number
    in strict mode, or is skipped with a logged warning otherwise.
    """
    if isinstance(source, (str, Path)):
        # Non-ASCII bytes decode to lone surrogates, so the record check of
        # their own line rejects them, at their byte offset.
        with open(source, encoding="ascii", errors="surrogateescape") as fh:
            yield from read_graph6_stream(fh, strict=strict)
        return
    for lineno, line in enumerate(source, start=1):
        text = line.strip()
        if not text:
            continue
        if text.startswith(">>graph6<<"):
            text = text[len(">>graph6<<") :]
            if not text:
                continue
        try:
            yield from_graph6(text)
        except Graph6Error as exc:
            if strict:
                raise Graph6Error(f"line {lineno}: {exc}") from exc
            logger.warning("skipping malformed graph6 on line %d: %s", lineno, exc)
