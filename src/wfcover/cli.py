"""Command-line surface: deterministic JSON reports over the pure library.

Every subcommand returns the text of one JSON document (sorted keys,
``schema: 1``), a short human summary and its exit code; ``run`` writes the
document on stdout and then the summary on stderr, so reports are byte-stable
for golden-file comparison.  Every document is byte-identical to
``json.dumps(doc, sort_keys=True, indent=2)``: ``_report_text`` writes a
check report's record rows and their ``VStarDetail`` and ``VmDetail``
witness details, one template each, with each distinct vertex or detail
list written once, and ``json.dumps(sort_keys=True, indent=2)`` everything
else: claims, a report's free-form members and the other commands'
documents.  Exit codes: 0 success/consistent, 1 findings or property
failures, 2 usage, I/O or worker-pool errors.  Each command's arguments
are declared once, in ``_COMMANDS``: a plain command line is read
from that table directly, and any other by the argparse parser built from
it, which alone writes usage, help and error text.  The library takes no
enumeration bound; ``--max-order`` alone sets it, and ``run`` checks its
range before any graph is read.  analyze tests |G| and check-theorem
|G|·|H| before any other check of their input, and search hands the bound
to the scan.
"""

from __future__ import annotations

import contextlib
import json
import logging
import sys
from concurrent.futures import BrokenExecutor
from functools import lru_cache
from types import SimpleNamespace
from typing import IO, TYPE_CHECKING, Callable

from .graphs import DEFAULT_MAX_ORDER, FAMILY_KINDS, GRAPH6_MAX_ORDER, EnumerationBoundError, Graph
from .graphs import from_graph6, generate, parse_family, to_graph6
from .products import lexicographic
from .forests import Z_CHOICES, forest_number, is_well_f_covered
from .forests import maximal_forest_order_histogram
from .independence import independence_number, is_well_covered
from .theorems import THEOREM_IDS, VERDICT_CONSISTENT, ConditionRecord, TheoremReport, WitnessRecord, check
from .theorems import VmDetail, VStarDetail
from .examples import verify_paper_examples
from .search import ScanConfig, read_graph6_stream, scan

if TYPE_CHECKING:
    import argparse

SCHEMA_VERSION = 1


def _within_bound(order: int, bound: int) -> None:
    """Raise EnumerationBoundError if ``order``, of a graph or a product, exceeds ``bound``."""
    if order > bound:
        raise EnumerationBoundError(order, bound)


def _first_graph(path: str) -> Graph:
    """The first graph6 record of a file; the lines after it are not read."""
    records = read_graph6_stream(path)
    try:
        return next(records)
    except StopIteration:
        raise ValueError(f"no graph6 records in {path!r}") from None
    finally:
        records.close()


def _graph_from_arg(text: str) -> Graph:
    """Accept family syntax (path:4, fig1), g6:<record>, file:<path>, or bare graph6."""
    kind, sep, _ = text.partition(":")
    if text == "fig1" or (sep and kind in FAMILY_KINDS):
        return generate(parse_family(text))
    if text.startswith("g6:"):
        return from_graph6(text[3:])
    if text.startswith("file:"):
        return _first_graph(text[5:])
    return from_graph6(text)


def _graph_from_flags(args) -> Graph:
    if args.family is not None:
        return generate(parse_family(args.family))
    if args.graph6 is not None:
        return from_graph6(args.graph6)
    return _first_graph(args.file)


# _BYTE_BITS[b]: the set bit positions of the byte value b, in ascending order
_BYTE_BITS = tuple(tuple(v for v in range(8) if b >> v & 1) for b in range(256))


def _list_text(mask: int, indent: str) -> str:
    """The vertex list of ``mask`` as ``json.dumps`` writes it at ``indent``.
    The mask is read a byte at a time, lowest first, and each nonzero byte's
    vertices are its ``_BYTE_BITS`` entry plus the byte's offset, so a sparse
    witness costs its set bits and its bytes, not one step per vertex of the
    host."""
    if not mask:
        return "[]"
    vertices = []
    base = 0
    for byte in mask.to_bytes((mask.bit_length() + 7) >> 3, "little"):
        if byte:
            for v in _BYTE_BITS[byte]:
                vertices.append(str(base + v))
        base += 8
    return f"[\n{indent}  " + f",\n{indent}  ".join(vertices) + f"\n{indent}]"


@lru_cache(maxsize=1024)
def _mask_text(mask: int) -> str:
    """The vertex list of ``mask`` in a record row: a pure function of the
    mask, so a report writes each distinct list once."""
    return _list_text(mask, "      ")


@lru_cache(maxsize=1024)
def _detail_mask_text(mask: int) -> str:
    """The vertex list of ``mask`` in a witness's detail, one level deeper
    than a row's: each distinct list of a report is written once."""
    return _list_text(mask, "        ")


def _vstar_detail_text(d: VStarDetail) -> str:
    error = "" if d.error is None else f"\n        \"error\": {_encode_str(d.error)},"
    m_h = "" if d.m_h is None else f"\n        \"m_h\": {_detail_mask_text(d.m_h.mask)},"
    return f"""{{
        "anchor": {_int_repr(d.anchor)},{error}
        "forest": {_detail_mask_text(d.forest.mask)},{m_h}
        "z_choice": {_encode_str(d.z_choice)}
      }}"""


def _vm_detail_text(d: VmDetail) -> str:
    error = "" if d.error is None else f"\n        \"error\": {_encode_str(d.error)},"
    holds = d.quotient_holds
    quotient = "" if holds is None else f',\n        "quotient_holds": {"true" if holds else "false"}'
    return f"""{{{error}
        "f_h": {_detail_mask_text(d.f_h.mask)},
        "m": {_detail_mask_text(d.m.mask)}{quotient}
      }}"""


def _condition_text(rec: ConditionRecord) -> str:
    s = rec.stats
    m_h = "" if rec.m_h is None else f'\n      "m_h": {_mask_text(rec.m_h.mask)},'
    return f"""{{
      "forest": {_mask_text(rec.forest.mask)},
      "holds": {"true" if rec.holds else "false"},
      "lhs": {rec.lhs},{m_h}
      "rhs": {rec.rhs},
      "stats": {{
        "internal": {s.internal},
        "isolated": {s.isolated},
        "k2_components": {s.k2_components},
        "outer_leaves": {s.outer_leaves}
      }}
    }}"""


def _witness_text(rec: WitnessRecord) -> str:
    detail = rec.detail
    text = _vstar_detail_text(detail) if type(detail) is VStarDetail else _vm_detail_text(detail)
    return f"""{{
      "detail": {text},
      "kind": {_encode_str(rec.kind)},
      "size": {rec.size},
      "subset": {_mask_text(rec.subset.mask)},
      "verified": {"true" if rec.verified else "false"}
    }}"""


def _rows_text(render: Callable, records: tuple) -> str:
    return "[\n    " + ",\n    ".join(map(render, records)) + "\n  ]" if records else "[]"


def _report_text(report: TheoremReport) -> str:
    """The report document, as ``json.dumps(doc, sort_keys=True, indent=2)``
    writes it, from the records.  Its members, sorted, are claims,
    condition_values, conditions through verdict, and witnesses; the
    ``json.dumps`` text of the run from conditions to verdict, less its
    braces, is their lines at the document's indent."""
    claims = f'  "claims": {_dumps([vars(c) for c in report.claims], "  ")},\n' if report.claims else ""
    middle = {"conditions": report.conditions, "ground_truth": report.ground_truth,
              "hypotheses": report.hypotheses, "schema": SCHEMA_VERSION,
              "theorem": report.theorem_id, "verdict": report.verdict}
    return (
        f'{{\n{claims}  "condition_values": {_rows_text(_condition_text, report.condition_values)},\n'
        + json.dumps(middle, sort_keys=True, indent=2)[2:-2]
        + f',\n  "witnesses": {_rows_text(_witness_text, report.witnesses)}\n}}'
    )


def report_to_dict(report: TheoremReport) -> dict:
    """The report document as a fresh dict: the parse of ``_report_text``."""
    return json.loads(_report_text(report))


def _dumps(obj, indent: str = "") -> str:
    """``json.dumps(obj, sort_keys=True, indent=2)`` nested at ``indent``."""
    return json.dumps(obj, sort_keys=True, indent=2).replace("\n", "\n" + indent)


_encode_str = json.encoder.encode_basestring_ascii
_int_repr = int.__repr__


def _graph_summary(g: Graph) -> dict:
    return {
        "graph6": to_graph6(g).decode("ascii"),
        "name": g.name,
        "order": g.order,
        "edges": g.edge_count,
    }


def _cmd_gen(args) -> tuple[str, str, int]:
    g = generate(parse_family(args.family))
    doc = {
        "schema": SCHEMA_VERSION,
        "family": args.family,
        "edge_list": [list(e) for e in g.edges()],
        **_graph_summary(g),
    }
    return _dumps(doc), f"gen {args.family}: order {g.order}, {g.edge_count} edges", 0


def _cmd_product(args) -> tuple[str, str, int]:
    g = _graph_from_arg(args.g)
    h = _graph_from_arg(args.h)
    product, index_map = lexicographic(g, h)
    product_g6 = None
    if product.order > GRAPH6_MAX_ORDER:
        # the products logger carries the warnings about product sizes
        logging.getLogger("wfcover.products").warning(
            "product order %d exceeds the graph6 export limit %d", product.order, GRAPH6_MAX_ORDER
        )
    else:
        product_g6 = to_graph6(product).decode("ascii")
    doc = {
        "schema": SCHEMA_VERSION,
        "graph6": product_g6,
        "order": product.order,
        "edges": product.edge_count,
        "g": _graph_summary(g),
        "h": _graph_summary(h),
        "index_map": {
            "g_order": index_map.g_order,
            "h_order": index_map.h_order,
            "encoding": "g * h_order + h",
            "legend": [[v, list(index_map.decode(v))] for v in range(product.order)],
        },
    }
    summary = f"product: order {product.order}, {product.edge_count} edges"
    return _dumps(doc), summary + ("" if product_g6 else " (too large for graph6)"), 0


def _cmd_analyze(args) -> tuple[str, str, int]:
    g = _graph_from_flags(args)
    _within_bound(g.order, args.max_order)
    wfc, wfc_witness = is_well_f_covered(g)
    wc, _ = is_well_covered(g)
    hist = maximal_forest_order_histogram(g)
    doc = {
        "schema": SCHEMA_VERSION,
        **_graph_summary(g),
        "forest_number": forest_number(g),
        "well_f_covered": wfc,
        "witness": None
        if wfc_witness is None
        else {
            "orders": [len(wfc_witness[0]), len(wfc_witness[1])],
            "forests": [list(wfc_witness[0]), list(wfc_witness[1])],
        },
        "independence_number": independence_number(g),
        "well_covered": wc,
        "maximal_forest_orders_histogram": {str(k): v for k, v in hist.items()},
    }
    summary = (
        f"analyze: order {g.order}, f={doc['forest_number']}, "
        f"well-f-covered={wfc}, alpha={doc['independence_number']}, well-covered={wc}"
    )
    return _dumps(doc), summary, 0


def _cmd_check_theorem(args) -> tuple[str, str, int]:
    g = _graph_from_arg(args.g)
    h = _graph_from_arg(args.h)
    _within_bound(g.order * h.order, args.max_order)
    report = check(args.theorem, g, h, z_choice=args.z_tiebreak, anchor=args.anchor)
    summary = f"check-theorem {args.theorem}: verdict {report.verdict}"
    return _report_text(report), summary, 0 if report.verdict == VERDICT_CONSISTENT else 1


def _cmd_verify_paper(args) -> tuple[str, str, int]:
    report = verify_paper_examples()
    statuses = {}
    for claim in report.claims:
        statuses[claim.status] = statuses.get(claim.status, 0) + 1
    summary = ", ".join(f"{k}={v}" for k, v in sorted(statuses.items()))
    code = 0 if report.verdict == VERDICT_CONSISTENT else 1
    return _report_text(report), f"verify-paper: {summary}; verdict {report.verdict}", code


def _cmd_search(args) -> tuple[str, str, int]:
    strict = not args.skip_malformed
    g_graphs = list(read_graph6_stream(args.g_file, strict=strict))
    if args.h_file is None:
        h_graphs = g_graphs
    else:
        h_graphs = list(read_graph6_stream(args.h_file, strict=strict))
    pairs = ((g, h) for g in g_graphs for h in h_graphs)
    scan_config = ScanConfig(
        theorem=args.theorem,
        max_order=args.max_order,
        workers=args.workers,
        findings_path=args.out,
    )
    verdicts: dict[str, int] = {}
    checked = 0
    for finding in scan(pairs, scan_config):
        checked += 1
        verdicts[finding.verdict] = verdicts.get(finding.verdict, 0) + 1
    doc = {
        "schema": SCHEMA_VERSION,
        "theorem": args.theorem,
        "pairs_supplied": len(g_graphs) * len(h_graphs),
        "pairs_checked": checked,
        "verdicts": verdicts,
        "findings_file": args.out,
    }
    noteworthy = checked - verdicts.get(VERDICT_CONSISTENT, 0)
    summary = f"search {args.theorem}: {checked} pairs checked, {noteworthy} findings"
    return _dumps(doc), summary, 1 if noteworthy else 0


_BOUND = ("--max-order", dict(
    type=int, default=DEFAULT_MAX_ORDER, help=f"enumeration bound, 1 to {DEFAULT_MAX_ORDER} (default)"
))

# Each command's handler, help line, required mutually exclusive group and
# other arguments, in declaration order (the group is declared first).
# ``build_parser`` makes its argparse calls from this table and
# ``_read_plain`` reads plain command lines from it.
_COMMANDS: dict[str, tuple[Callable, str, tuple, tuple]] = {
    "gen": (_cmd_gen, "generate a family graph and print it", (), (
        ("--family", dict(required=True, help="path:4, cycle:5, empty:3, complete:4, fig1")),
    )),
    "product": (_cmd_product, "build a lexicographic product", (), (
        ("--g", dict(required=True, help="first factor (family, g6:..., file:..., or graph6)")),
        ("--h", dict(required=True, help="second factor")),
    )),
    "analyze": (_cmd_analyze, "forest/independence analysis of one graph", (
        ("--family", dict(help="family syntax, e.g. cycle:4")),
        ("--graph6", dict(help="a graph6 record")),
        ("--file", dict(help="file with graph6 records (first is analyzed)")),
    ), (_BOUND,)),
    "check-theorem": (_cmd_check_theorem, "evaluate one condition set on a pair", (), (
        ("theorem", dict(choices=list(THEOREM_IDS))),
        ("--g", dict(required=True, help="first factor")),
        ("--h", dict(required=True, help="second factor")),
        ("--z-tiebreak", dict(choices=list(Z_CHOICES), default=None)),
        ("--anchor", dict(type=int, default=None, help="second-factor anchor vertex override")),
        _BOUND,
    )),
    "verify-paper": (_cmd_verify_paper, "re-check the bundled case studies", (), ()),
    "search": (_cmd_search, "scan graph6 files for non-sufficiency witnesses", (), (
        ("--g-file", dict(required=True, help="graph6 file for first factors")),
        ("--h-file", dict(default=None, help="graph6 file for second factors (default: --g-file)")),
        ("--theorem", dict(required=True, choices=list(THEOREM_IDS))),
        ("--out", dict(default=None, help="JSON Lines file for non-consistent findings")),
        ("--workers", dict(type=int, default=1)),
        ("--skip-malformed", dict(
            action="store_true", default=False, help="skip malformed graph6 lines instead of aborting"
        )),
        _BOUND,
    )),
}


def build_parser() -> argparse.ArgumentParser:
    """The parser of ``wfcover``, made from ``_COMMANDS``: it reads every
    command line that is not plain, and alone writes usage, help and error
    text."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="wfcover",
        description="Exact well-f-coveredness analysis of graphs and lexicographic products.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (_, help, exclusive, arguments) in _COMMANDS.items():
        p = sub.add_parser(name, help=help)
        if exclusive:
            group = p.add_mutually_exclusive_group(required=True)
            for flag, spec in exclusive:
                group.add_argument(flag, **spec)
        for flag, spec in arguments:
            p.add_argument(flag, **spec)
    return parser


def _read_plain(argv: list[str]) -> SimpleNamespace | None:
    """What ``build_parser().parse_args(argv)`` returns, read off ``_COMMANDS``
    without argparse, when ``argv`` is a plain command line; else None.

    Plain means: a command name, then in any order exactly its positionals,
    each one of its choices, and options given once each by their full name,
    each followed by one value that does not start with ``-`` (a flag takes
    none); every required argument present, exactly one argument of a
    required group, and every ``int`` value converting with ``int()``.
    Every other line (help, errors, abbreviations, ``--opt=value``, ``--``,
    repeated options, values that start with ``-``) is argparse's, so what
    a line prints does not depend on which of the two read it."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    _, _, exclusive, arguments = _COMMANDS[argv[0]]
    declared = exclusive + arguments
    options = {flag: spec for flag, spec in declared if flag.startswith("-")}
    given: dict[str, str | bool] = {}
    positional_values = []
    tokens = iter(argv[1:])
    for token in tokens:
        if not token.startswith("-"):
            positional_values.append(token)
            continue
        spec = options.get(token)
        if spec is None or token in given:
            return None
        if spec.get("action") == "store_true":
            given[token] = True
            continue
        value = next(tokens, None)
        if value is None or value.startswith("-"):
            return None
        given[token] = value
    positionals = [flag for flag, _ in declared if flag not in options]
    if len(positional_values) != len(positionals):
        return None
    given.update(zip(positionals, positional_values))
    if exclusive and sum(flag in given for flag, _ in exclusive) != 1:
        return None
    args = {"subcommand": argv[0]}
    for flag, spec in declared:
        if flag in given:
            value = given[flag]
            if "type" in spec:
                try:
                    value = spec["type"](value)
                except ValueError:
                    return None
            if "choices" in spec and value not in spec["choices"]:
                return None
        elif spec.get("required"):
            return None
        else:
            value = spec.get("default")
        args[flag.lstrip("-").replace("-", "_")] = value
    return SimpleNamespace(**args)


def run(argv: list[str], stdout: IO[str] | None = None, stderr: IO[str] | None = None) -> int:
    """Parse arguments and run one subcommand; returns the exit code.  A plain
    command line is read by ``_read_plain``, any other by argparse; usage,
    help and argument errors go to ``stdout`` and ``stderr`` too."""
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    args = _read_plain(argv)
    if args is None:
        parser = build_parser()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                args = parser.parse_args(argv)
        except SystemExit as exc:
            return int(exc.code or 0)
    try:
        if hasattr(args, "max_order") and not 1 <= args.max_order <= DEFAULT_MAX_ORDER:
            raise ValueError(f"enumeration bound must be between 1 and {DEFAULT_MAX_ORDER}, got {args.max_order}")
        text, summary, code = _COMMANDS[args.subcommand][0](args)
        stdout.write(text + "\n")
        print(summary, file=stderr)
    # FamilyError, Graph6Error and the rest are ValueErrors; a search pool whose
    # worker died raises BrokenExecutor, which is no finding either
    except (ValueError, OSError, BrokenExecutor) as exc:
        print(f"error: {exc}", file=stderr)
        return 2
    return code


def main() -> None:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    sys.exit(run(sys.argv[1:]))
