"""Command-line surface: deterministic JSON reports over the pure library.

Every subcommand returns one JSON document (sorted keys, ``schema: 1``), a
short human summary and its exit code; ``run`` writes the document on stdout
and then the summary on stderr, so reports are byte-stable for golden-file
comparison.  Documents are rendered by ``_dumps``, whose output is
byte-identical to ``json.dumps(doc, sort_keys=True, indent=2)``.  Exit
codes: 0 success/consistent, 1 findings or property failures, 2 usage, I/O
or worker-pool errors.  Each command's arguments are declared once, in
``_COMMANDS``: a plain command line is read from that table directly, and
any other by the argparse parser built from it, which alone writes usage,
help and error text.
"""

from __future__ import annotations

import contextlib
import json
import logging
import os
import sys
from concurrent.futures import BrokenExecutor
from types import SimpleNamespace
from typing import IO, TYPE_CHECKING, Callable

from .graphs import (
    FAMILY_KINDS,
    GRAPH6_MAX_ORDER,
    Graph,
    from_graph6,
    generate,
    parse_family,
    to_graph6,
)
from .products import lexicographic
from .forests import (
    DEFAULT_MAX_ORDER,
    Z_CHOICES,
    forest_number,
    is_well_f_covered,
    maximal_forest_order_histogram,
)
from .independence import independence_number, is_well_covered
from .theorems import (
    THEOREM_IDS,
    ConditionRecord,
    TheoremReport,
    WitnessRecord,
    check,
)
from .examples import verify_paper_examples
from .search import ScanConfig, read_graph6_stream, scan

if TYPE_CHECKING:
    import argparse

SCHEMA_VERSION = 1
MAX_ORDER_ENV = "WFCOVER_MAX_ORDER"

logger = logging.getLogger(__name__)


def _max_order(value: int | None) -> int:
    """The enumeration bound: ``value``, else ``WFCOVER_MAX_ORDER``, else
    ``DEFAULT_MAX_ORDER``, which is also its cap."""
    if value is None:
        raw = os.environ.get(MAX_ORDER_ENV)
        try:
            value = DEFAULT_MAX_ORDER if raw is None else int(raw)
        except ValueError:
            raise ValueError(f"{MAX_ORDER_ENV} must be an integer, got {raw!r}") from None
    if not 1 <= value <= DEFAULT_MAX_ORDER:
        raise ValueError(f"enumeration bound must be between 1 and {DEFAULT_MAX_ORDER}, got {value}")
    return value


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


def _subset_json(subset) -> list[int]:
    return list(subset.vertices())


def _condition_json(rec: ConditionRecord) -> dict:
    out = {
        "forest": _subset_json(rec.forest),
        "stats": vars(rec.stats).copy(),
        "lhs": rec.lhs,
        "rhs": rec.rhs,
        "holds": rec.holds,
    }
    if rec.m_h is not None:
        out["m_h"] = _subset_json(rec.m_h)
    return out


def _witness_json(rec: WitnessRecord) -> dict:
    return {
        "kind": rec.kind,
        "subset": None if rec.subset is None else _subset_json(rec.subset),
        "size": rec.size,
        "verified": rec.verified,
        "detail": rec.detail,
    }


def report_to_dict(report: TheoremReport) -> dict:
    out = {
        "schema": SCHEMA_VERSION,
        "theorem": report.theorem_id,
        "hypotheses": report.hypotheses,
        "conditions": report.conditions,
        "condition_values": [_condition_json(r) for r in report.condition_values],
        "ground_truth": report.ground_truth,
        "witnesses": [_witness_json(w) for w in report.witnesses],
        "verdict": report.verdict,
    }
    if report.claims:
        out["claims"] = [vars(c).copy() for c in report.claims]
    return out


def _dumps(obj, indent: str = "") -> str:
    """``json.dumps(obj, sort_keys=True, indent=2)``, byte for byte, nested at
    ``indent``.

    With ``indent`` set, ``json.dumps`` runs the stdlib's pure-Python
    encoder.  This writer dispatches on exact type instead and joins each
    all-int list (the vertex lists of a report) in one call.  Anything else
    (floats, dicts with a key that is not a str, subclasses, unknown types)
    goes to ``json.dumps`` itself, so it renders, or raises, exactly as
    there.
    """
    kind = type(obj)
    if kind is str:
        return _encode_str(obj)
    if kind is int:
        return _int_repr(obj)
    if kind is bool:
        return "true" if obj else "false"
    if obj is None:
        return "null"
    inner = indent + "  "
    if kind is dict:
        if not obj:
            return "{}"
        try:
            # _encode_str raises TypeError on a key that is not a str
            items = [f"{_encode_str(key)}: {_dumps(obj[key], inner)}" for key in sorted(obj)]
        except TypeError:
            return _json_dumps(obj, indent)
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "}"
    if kind is list or kind is tuple:
        if not obj:
            return "[]"
        if all(type(item) is int for item in obj):
            items = map(_int_repr, obj)
        else:
            items = [_dumps(item, inner) for item in obj]
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "]"
    return _json_dumps(obj, indent)


def _json_dumps(obj, indent: str) -> str:
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


def _cmd_gen(args) -> tuple[dict, str, int]:
    g = generate(parse_family(args.family))
    doc = {
        "schema": SCHEMA_VERSION,
        "family": args.family,
        "edge_list": [list(e) for e in g.edges()],
        **_graph_summary(g),
    }
    return doc, f"gen {args.family}: order {g.order}, {g.edge_count} edges", 0


def _cmd_product(args) -> tuple[dict, str, int]:
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
    return doc, summary + ("" if product_g6 else " (too large for graph6)"), 0


def _cmd_analyze(args) -> tuple[dict, str, int]:
    g = _graph_from_flags(args)
    bound = args.max_order
    wfc, wfc_witness = is_well_f_covered(g, bound)
    wc, _ = is_well_covered(g, bound)
    hist = maximal_forest_order_histogram(g, bound)
    doc = {
        "schema": SCHEMA_VERSION,
        **_graph_summary(g),
        "forest_number": forest_number(g, bound),
        "well_f_covered": wfc,
        "witness": None
        if wfc_witness is None
        else {
            "orders": [len(wfc_witness[0]), len(wfc_witness[1])],
            "forests": [_subset_json(wfc_witness[0]), _subset_json(wfc_witness[1])],
        },
        "independence_number": independence_number(g, bound),
        "well_covered": wc,
        "maximal_forest_orders_histogram": {str(k): v for k, v in hist.items()},
    }
    summary = (
        f"analyze: order {g.order}, f={doc['forest_number']}, "
        f"well-f-covered={wfc}, alpha={doc['independence_number']}, well-covered={wc}"
    )
    return doc, summary, 0


def _cmd_check_theorem(args) -> tuple[dict, str, int]:
    g = _graph_from_arg(args.g)
    h = _graph_from_arg(args.h)
    report = check(
        args.theorem, g, h, max_order=args.max_order, z_choice=args.z_tiebreak, anchor=args.anchor
    )
    summary = f"check-theorem {args.theorem}: verdict {report.verdict}"
    return report_to_dict(report), summary, 0 if report.verdict == "consistent" else 1


def _cmd_verify_paper(args) -> tuple[dict, str, int]:
    report = verify_paper_examples(max_order=args.max_order)
    statuses = {}
    for claim in report.claims:
        statuses[claim.status] = statuses.get(claim.status, 0) + 1
    summary = ", ".join(f"{k}={v}" for k, v in sorted(statuses.items()))
    code = 0 if report.verdict == "consistent" else 1
    return report_to_dict(report), f"verify-paper: {summary}; verdict {report.verdict}", code


def _cmd_search(args) -> tuple[dict, str, int]:
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
    noteworthy = checked - verdicts.get("consistent", 0)
    summary = f"search {args.theorem}: {checked} pairs checked, {noteworthy} findings"
    return doc, summary, 1 if noteworthy else 0


def _arg(flag: str, **spec) -> tuple[str, dict]:
    """One declared argument: its option string or positional name, and the
    keywords of its ``add_argument`` call."""
    return flag, spec


_BOUND = _arg(
    "--max-order",
    type=int,
    default=None,
    help=f"enumeration bound (default {MAX_ORDER_ENV} or {DEFAULT_MAX_ORDER}, cap {DEFAULT_MAX_ORDER})",
)

# Each command's handler, help line, required mutually exclusive group and
# other arguments, in declaration order (the group is declared first).
# ``build_parser`` makes its argparse calls from this table and
# ``_read_plain`` reads plain command lines from it.
_COMMANDS: dict[str, tuple[Callable, str, tuple, tuple]] = {
    "gen": (_cmd_gen, "generate a family graph and print it", (), (
        _arg("--family", required=True, help="path:4, cycle:5, empty:3, complete:4, fig1"),
    )),
    "product": (_cmd_product, "build a lexicographic product", (), (
        _arg("--g", required=True, help="first factor (family, g6:..., file:..., or graph6)"),
        _arg("--h", required=True, help="second factor"),
    )),
    "analyze": (_cmd_analyze, "forest/independence analysis of one graph", (
        _arg("--family", help="family syntax, e.g. cycle:4"),
        _arg("--graph6", help="a graph6 record"),
        _arg("--file", help="file with graph6 records (first is analyzed)"),
    ), (_BOUND,)),
    "check-theorem": (_cmd_check_theorem, "evaluate one condition set on a pair", (), (
        _arg("theorem", choices=list(THEOREM_IDS)),
        _arg("--g", required=True, help="first factor"),
        _arg("--h", required=True, help="second factor"),
        _arg("--z-tiebreak", choices=list(Z_CHOICES), default=None),
        _arg("--anchor", type=int, default=None, help="second-factor anchor vertex override"),
        _BOUND,
    )),
    "verify-paper": (_cmd_verify_paper, "re-check the bundled case studies", (), (_BOUND,)),
    "search": (_cmd_search, "scan graph6 files for non-sufficiency witnesses", (), (
        _arg("--g-file", required=True, help="graph6 file for first factors"),
        _arg("--h-file", default=None, help="graph6 file for second factors (default: --g-file)"),
        _arg("--theorem", required=True, choices=list(THEOREM_IDS)),
        _arg("--out", default=None, help="JSON Lines file for non-consistent findings"),
        _arg("--workers", type=int, default=1),
        _arg(
            "--skip-malformed",
            action="store_true",
            default=False,
            help="skip malformed graph6 lines instead of aborting",
        ),
        _BOUND,
    )),
}


def build_parser(argv: list[str] | None = None) -> argparse.ArgumentParser:
    """The parser of ``wfcover``.  Given ``argv``, only the first token that
    names a subcommand gets a parser object: the top-level parser has no
    option that takes a value, so no later token can be the subcommand, and
    argparse parses only with the parser of the name it selects.  The others
    have no parser object, only a name and help line, which is all argparse's
    choices, usage, help and "invalid choice" error read of them, so those are
    the full parser's, ``build_parser()``'s."""
    import argparse

    running = None if argv is None else next((arg for arg in argv if arg in _COMMANDS), None)
    parser = argparse.ArgumentParser(
        prog="wfcover",
        description="Exact well-f-coveredness analysis of graphs and lexicographic products.",
    )

    def parser_class(build: bool, **kwargs) -> argparse.ArgumentParser | None:
        # add_parser forwards its unknown keywords, ``build`` among them
        return argparse.ArgumentParser(**kwargs) if build else None

    sub = parser.add_subparsers(dest="subcommand", required=True, parser_class=parser_class)
    for name, (_, help, exclusive, arguments) in _COMMANDS.items():
        p = sub.add_parser(name, help=help, build=argv is None or name == running)
        if p is None:
            continue
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
        parser = build_parser(argv)
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                args = parser.parse_args(argv)
        except SystemExit as exc:
            return int(exc.code or 0)
    try:
        if hasattr(args, "max_order"):
            args.max_order = _max_order(args.max_order)
        doc, summary, code = _COMMANDS[args.subcommand][0](args)
        stdout.write(_dumps(doc) + "\n")
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
