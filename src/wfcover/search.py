"""Batch scanning of graph pairs for non-sufficiency witnesses.

Pairs are filtered by the selected check's hypotheses, checked (optionally
by a process pool, one task per run of consecutive pairs that share their
first factor), and reported as Findings in input order.  Findings with
a non-consistent verdict are also appended to a JSON Lines file so long
scans can stream their results.

The process-pool machinery (``concurrent.futures.process`` and
``multiprocessing``) is imported only when a scan starts a pool, so a
command that does not fork never loads it.  A pool whose worker dies
raises ``concurrent.futures.BrokenExecutor`` from the scan, which the CLI
reports as an error (exit 2).
"""

from __future__ import annotations

import json
import logging
import os
from concurrent.futures import Executor
from dataclasses import dataclass, fields
from functools import lru_cache
from itertools import chain, groupby
from operator import itemgetter
from pathlib import Path
from typing import IO, Iterable, Iterator

from .graphs import Graph, Graph6Error, from_graph6, to_graph6
from .forests import DEFAULT_MAX_ORDER, forest_number
from .independence import independence_number
from .theorems import THEOREM_IDS, check, hypothesis_filter

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
        A missing field raises KeyError, a value of the wrong JSON type
        ValueError naming the field."""
        values = {f.name: data[f.name] for f in fields(cls)}
        for f in fields(cls):
            valid, kind = _JSON_TYPES[f.type]
            if not valid(values[f.name]):
                raise ValueError(f"finding field {f.name!r} is not {kind}")
        values["witness_orders"] = tuple(values["witness_orders"])
        return cls(**values)


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
        if self.workers < 1:
            raise ValueError("workers must be at least 1")


@lru_cache(maxsize=256)
def _graph6_text(g: Graph) -> str:
    """The graph6 text of a factor, encoded once per graph in each process."""
    return to_graph6(g).decode("ascii")


def _check_pair(theorem: str, g: Graph, h: Graph, max_order: int) -> Finding:
    report = check(theorem, g, h, max_order)
    truth = report.ground_truth
    # alpha(G) and f(H) are not part of every report's ground truth; they are
    # cheap for hypothesis-filtered pairs, so fill the gaps here.
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


def _check_run(task: tuple[str, Graph, tuple[Graph, ...], int]) -> list[Finding]:
    """Check G against each second factor of one run, in order: the
    catalogues, role tables and graph6 text of G are made once, in one process."""
    theorem, g, hs, max_order = task
    return [_check_pair(theorem, g, h, max_order) for h in hs]


def scan(pairs: Iterable[tuple[Graph, Graph]], config: ScanConfig) -> Iterator[Finding]:
    """Check each applicable pair, yielding Findings in input order.

    Pairs failing the hypothesis filter are skipped silently (they are out
    of the selected check's scope); pairs whose product exceeds the
    enumeration bound are skipped with a logged warning that names the
    pair by its input position, counted from 1, and its factor orders; they
    are never dropped silently.  The pool has at most as many workers as this process may
    use CPUs.  With one worker the pairs are read as the scan goes, one run
    of a first factor at a time; a pool is handed every run up front.
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
    tasks = (
        (config.theorem, g, tuple(h for _, h in run), config.max_order)
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
        if workers == 1:
            runs: Iterable[list[Finding]] = map(_check_run, tasks)
        else:
            # imported here, so a scan that does not fork never loads multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            pool = ProcessPoolExecutor(max_workers=workers)
            runs = pool.map(_check_run, tasks)
        for finding in chain.from_iterable(runs):
            if finding.verdict != "consistent" and out_file is not None:
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
    that is not a JSON object, and a record that lacks a field or holds a
    value of the wrong type raise ValueError naming their line number."""
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
