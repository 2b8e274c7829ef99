"""CLI behaviour: JSON shape, exit codes, golden-file byte equality."""

from __future__ import annotations

import argparse
import concurrent.futures
import io
import json
import logging
import os
import subprocess
import sys
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import wfcover.forests as forests
import wfcover.independence as independence
from wfcover import cli
from wfcover.cli import build_parser, run

import cli_parity
from conftest import clear_wfcover_caches

GOLDEN = Path(__file__).parent / "golden"


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def invoke_json(argv):
    code, out, err = invoke(argv)
    return code, json.loads(out), err


class TestGoldenFiles:
    @pytest.mark.parametrize(
        "argv,golden",
        [
            (["analyze", "--family", "cycle:4"], "analyze_cycle4.json"),
            (
                ["check-theorem", "thm31", "--g", "empty:3", "--h", "cycle:4"],
                "check_thm31_empty3_cycle4.json",
            ),
            (["verify-paper"], "verify_paper.json"),
            (["gen", "--family", "fig1"], "gen_fig1.json"),
            (
                ["check-theorem", "thm35", "--g", "complete:4", "--h", "cycle:5"],
                "check_thm35_complete4_cycle5.json",
            ),
            (
                ["check-theorem", "thm32", "--g", "path:8", "--h", "empty:3"],
                "check_thm32_path8_empty3.json",
            ),
            (["product", "--g", "cycle:4", "--h", "path:3"], "product_cycle4_path3.json"),
            (
                # K5∘C4 is well-f-covered, so its V_M details carry quotient_holds
                ["check-theorem", "thm35", "--g", "complete:5", "--h", "cycle:4"],
                "check_thm35_complete5_cycle4.json",
            ),
        ],
    )
    def test_byte_equality(self, argv, golden):
        code, out, _ = invoke(argv)
        assert code == 0
        assert out.encode() == (GOLDEN / golden).read_bytes()

    def test_output_is_deterministic(self):
        _, first, _ = invoke(["verify-paper"])
        _, second, _ = invoke(["verify-paper"])
        assert first == second

    def test_cli_is_a_thin_shell_over_the_library(self, tmp_path):
        # byte-identical reports come from library calls plus the renderer
        from wfcover import check_thm31, generate, parse_family, verify_paper_examples
        from wfcover.cli import report_to_dict

        _, out, _ = invoke(["check-theorem", "thm31", "--g", "empty:3", "--h", "cycle:4"])
        report = check_thm31(generate(parse_family("empty:3")), generate(parse_family("cycle:4")))
        assert out == json.dumps(report_to_dict(report), sort_keys=True, indent=2) + "\n"

        _, out, _ = invoke(["verify-paper"])
        assert out == json.dumps(report_to_dict(verify_paper_examples()), sort_keys=True, indent=2) + "\n"

        # one more input per subcommand, each rendered as json.dumps renders it
        g_file = tmp_path / "g.g6"
        g_file.write_text("Ch\nA_\n")  # P4, K2
        commands = [
            ["gen", "--family", "cycle:6"],
            ["product", "--g", "fig1", "--h", "path:3"],
            ["product", "--g", "complete:8", "--h", "complete:8"],  # 64 vertices, graph6 null
            ["analyze", "--graph6", "Dlc"],
            ["check-theorem", "thm32", "--g", "path:4", "--h", "empty:2"],
            ["check-theorem", "thm35", "--g", "cycle:5", "--h", "cycle:4", "--z-tiebreak", "max"],
            ["search", "--g-file", str(g_file), "--theorem", "thm35", "--out", str(tmp_path / "f.jsonl")],
        ]
        for argv in commands:
            code, out, err = invoke(argv)
            assert code in (0, 1), err
            assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n", argv


# any code point, lone surrogates included, around a run of the characters
# JSON escapes or encodes specially; each part is a plain character-class
# strategy, which hypothesis draws whole, not one character at a time
_ANY_TEXT = st.text(st.characters(exclude_categories=()))
_TEXT = st.tuples(
    _ANY_TEXT, st.text("\x00\x1f\x7f\n\t\"\\/\u00e9\u2028\ud800\udfff\U0001f600"), _ANY_TEXT
).map("".join)
_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(-(2**100), 2**100),
    st.floats(),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 0.0]),
    _TEXT,
)
_KEYS = st.one_of(_TEXT, st.integers(), st.booleans(), st.none(), st.floats())
_VALUES = st.recursive(
    _SCALARS,
    lambda children: st.one_of(
        st.lists(children),
        st.lists(children).map(tuple),
        st.lists(st.integers()),
        st.lists(st.one_of(st.integers(), st.booleans())),
        st.dictionaries(_TEXT, children),
        st.dictionaries(st.integers(), children),
        st.dictionaries(_KEYS, children, max_size=3),
    ),
    max_leaves=30,
)


class TestReportToDict:
    def test_rendered_records_are_copies(self):
        from dataclasses import astuple

        from wfcover import check_thm35, generate, parse_family, verify_paper_examples
        from wfcover.cli import report_to_dict

        checked = check_thm35(generate(parse_family("cycle:5")), generate(parse_family("cycle:4")))
        stats = checked.condition_values[0].stats
        before = astuple(stats)
        report_to_dict(checked)["condition_values"][0]["stats"].clear()
        assert astuple(stats) == before

        audited = verify_paper_examples()
        record = audited.claims[0]
        before = astuple(record)
        doc = report_to_dict(audited)
        doc["claims"][0]["status"] = "mutated"
        doc["claims"][0].pop("text")
        assert astuple(record) == before


def reference_report_dict(report):
    """The report document, built field by field as a dict: the oracle of
    ``cli._report_text`` and ``cli.report_to_dict``.  A witness detail
    becomes a dict of its fields, an optional one only when it is set."""
    from wfcover.theorems import VStarDetail

    def subset_json(subset):
        return list(subset.vertices())

    def condition_json(rec):
        out = {
            "forest": subset_json(rec.forest),
            "stats": vars(rec.stats).copy(),
            "lhs": rec.lhs,
            "rhs": rec.rhs,
            "holds": rec.holds,
        }
        if rec.m_h is not None:
            out["m_h"] = subset_json(rec.m_h)
        return out

    def detail_json(detail):
        if type(detail) is VStarDetail:
            out = {
                "forest": subset_json(detail.forest),
                "anchor": detail.anchor,
                "z_choice": detail.z_choice,
            }
            if detail.m_h is not None:
                out["m_h"] = subset_json(detail.m_h)
        else:
            out = {"m": subset_json(detail.m), "f_h": subset_json(detail.f_h)}
            if detail.quotient_holds is not None:
                out["quotient_holds"] = detail.quotient_holds
        if detail.error is not None:
            out["error"] = detail.error
        return out

    def witness_json(rec):
        return {
            "kind": rec.kind,
            "subset": subset_json(rec.subset),
            "size": rec.size,
            "verified": rec.verified,
            "detail": detail_json(rec.detail),
        }

    out = {
        "schema": cli.SCHEMA_VERSION,
        "theorem": report.theorem_id,
        "hypotheses": report.hypotheses,
        "conditions": report.conditions,
        "condition_values": [condition_json(r) for r in report.condition_values],
        "ground_truth": report.ground_truth,
        "witnesses": [witness_json(w) for w in report.witnesses],
        "verdict": report.verdict,
    }
    if report.claims:
        out["claims"] = [vars(c).copy() for c in report.claims]
    return out


_MASKS = st.integers(0, 2**24 - 1)
_RECORD_DICTS = st.dictionaries(_TEXT, _VALUES, max_size=3)


@st.composite
def _reports(draw):
    from wfcover.forests import ForestStats
    from wfcover.graphs import VertexSubset
    from wfcover.theorems import ClaimRecord, ConditionRecord, TheoremReport, VmDetail, VStarDetail
    from wfcover.theorems import WitnessRecord

    subsets = _MASKS.map(lambda mask: VertexSubset(24, mask))
    ints = st.integers(-(2**70), 2**70)
    conditions = st.builds(
        ConditionRecord, subsets, st.builds(ForestStats, ints, ints, ints, ints), ints, ints,
        st.booleans(), st.none() | subsets,
    )
    details = st.one_of(
        st.builds(VStarDetail, subsets, ints, _TEXT, st.none() | subsets, st.none() | _TEXT),
        st.builds(VmDetail, subsets, subsets, st.none() | st.booleans(), st.none() | _TEXT),
    )
    witnesses = st.builds(WitnessRecord, _TEXT, subsets, ints, st.booleans(), details)
    claims = st.builds(ClaimRecord, _TEXT, _TEXT, _TEXT, _TEXT, _TEXT, _RECORD_DICTS)
    return TheoremReport(
        draw(_TEXT), draw(_RECORD_DICTS), draw(_RECORD_DICTS),
        tuple(draw(st.lists(conditions, max_size=3))), draw(_RECORD_DICTS),
        tuple(draw(st.lists(witnesses, max_size=3))), draw(_TEXT),
        tuple(draw(st.lists(claims, max_size=2))),
    )


class TestReportText:
    """``_report_text`` and ``report_to_dict`` against ``reference_report_dict``
    and ``json.dumps(sort_keys=True, indent=2)`` of it."""

    @staticmethod
    def assert_matches_reference(report):
        expected = reference_report_dict(report)
        assert cli._report_text(report) == json.dumps(expected, sort_keys=True, indent=2)
        assert cli.report_to_dict(report) == expected

    @pytest.mark.parametrize("theorem", ["thm31", "thm32", "thm35"])
    def test_atlas_sample(self, theorem, atlas_le4):
        import random

        from wfcover.theorems import check, hypothesis_filter

        pairs = [(g, h) for g in atlas_le4 for h in atlas_le4 if hypothesis_filter(theorem, g, h)]
        options = [{}] if theorem == "thm31" else [{}, {"z_choice": "max"}, {"anchor": 1}]
        checked = 0
        for g, h in random.Random(2501).sample(pairs, min(len(pairs), 40)):
            for kwargs in options:
                try:
                    report = check(theorem, g, h, **kwargs)
                except ValueError as exc:
                    # vertex 1 of H is not in every M_H
                    assert "anchor" in kwargs, exc
                    continue
                self.assert_matches_reference(report)
                checked += 1
        assert checked >= 40

    def test_verify_paper(self):
        from wfcover import verify_paper_examples

        report = verify_paper_examples()
        assert report.claims
        self.assert_matches_reference(report)

    def test_thm31_rows_are_empty(self):
        from wfcover import check_thm31, generate, parse_family

        report = check_thm31(generate(parse_family("empty:3")), generate(parse_family("cycle:4")))
        assert report.condition_values == () and report.witnesses == ()
        self.assert_matches_reference(report)

    def test_failed_witness_and_missing_subset(self):
        from dataclasses import replace

        from wfcover import check_thm35, generate, parse_family
        from wfcover.graphs import VertexSubset
        from wfcover.theorems import VStarDetail, WitnessRecord

        report = check_thm35(generate(parse_family("cycle:5")), generate(parse_family("cycle:4")))
        failed = WitnessRecord(
            "vstar", VertexSubset(20, 0b1011), 3, False,
            VStarDetail(VertexSubset(5, 0b11), 0, "min", error="not maximal: é\n"),
        )
        empty = replace(report.condition_values[0], forest=VertexSubset(20, 0), m_h=None)
        for witnesses in ((failed,), (failed, *report.witnesses)):
            self.assert_matches_reference(replace(report, witnesses=witnesses))
        self.assert_matches_reference(replace(report, condition_values=(empty,)))

    @staticmethod
    def assert_written_as_json_dumps(report):
        # json.dumps of the reference raises where a dict mixes key types,
        # and _report_text must raise the same TypeError
        try:
            expected = json.dumps(reference_report_dict(report), sort_keys=True, indent=2)
        except TypeError as exc:
            with pytest.raises(TypeError) as got:
                cli._report_text(report)
            assert str(got.value) == str(exc)
        else:
            assert cli._report_text(report) == expected

    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(_reports())
    def test_drawn_reports(self, report):
        self.assert_written_as_json_dumps(report)

    def test_report_past_the_cli_bound(self):
        # 72 vertices: masks of nine bytes, and numerals past the CLI's bound
        from wfcover import check_thm35, generate, parse_family

        report = check_thm35(generate(parse_family("complete:9")), generate(parse_family("path:8")))
        assert len(report.witnesses) == 333
        assert max(w.subset.mask.bit_length() for w in report.witnesses) == 72
        self.assert_matches_reference(report)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 200).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(0, 2**n - 1) | st.sampled_from([0, 1 << (n - 1)]))
    ))
    @example((200, 0))
    @example((200, 1 << 199))
    @example((64, (1 << 64) - 1))
    def test_mask_text_is_the_json_dumps_row_text(self, order_mask):
        order, mask = order_mask
        vertices = [v for v in range(order) if mask >> v & 1]
        row = json.dumps({"witnesses": [{"subset": vertices}]}, sort_keys=True, indent=2)
        expected = row.removeprefix('{\n  "witnesses": [\n    {\n      "subset": ').removesuffix("\n    }\n  ]\n}")
        assert cli._mask_text.__wrapped__(mask) == expected
        assert cli._mask_text(mask) == expected


class TestAnalyze:
    def test_cycle4_fields(self):
        code, doc, err = invoke_json(["analyze", "--family", "cycle:4"])
        assert code == 0
        assert doc["schema"] == 1
        assert doc["forest_number"] == 3
        assert doc["well_f_covered"] is True
        assert doc["witness"] is None
        assert doc["independence_number"] == 2
        assert doc["well_covered"] is True
        assert doc["maximal_forest_orders_histogram"] == {"3": 4}
        assert "well-f-covered=True" in err

    def test_graph6_input(self):
        code, doc, _ = invoke_json(["analyze", "--graph6", "Dlc"])
        assert code == 0
        assert doc["order"] == 5
        assert doc["forest_number"] == 4
        assert doc["well_f_covered"] is False
        assert sorted(doc["witness"]["orders"]) == [3, 4]

    def test_analyze_a_product_end_to_end(self):
        # pipe the product subcommand's graph6 back into analyze
        code, product_doc, _ = invoke_json(["product", "--g", "cycle:5", "--h", "cycle:4"])
        assert code == 0
        code, doc, _ = invoke_json(["analyze", "--graph6", product_doc["graph6"]])
        assert code == 0
        assert doc["forest_number"] == 6
        assert doc["well_f_covered"] is False
        assert doc["maximal_forest_orders_histogram"] == {"5": 80, "6": 720}

    def test_file_input(self, tmp_path):
        path = tmp_path / "in.g6"
        path.write_text("Cl\n")
        code, doc, _ = invoke_json(["analyze", "--file", str(path)])
        assert code == 0
        assert doc["order"] == 4

    # The file's first record, Cl, has order 4; its product with P2 has order 8.
    FILE_COMMANDS = [
        (["analyze", "--file", "{path}"], 4),
        (["product", "--g", "file:{path}", "--h", "path:2"], 8),
    ]

    @pytest.mark.parametrize("argv,order", FILE_COMMANDS)
    def test_file_input_reads_only_the_first_record(self, tmp_path, argv, order):
        path = tmp_path / "in.g6"
        path.write_bytes("Cl\n\u00e9\n".encode("utf-8"))
        code, out, err = invoke([a.format(path=path) for a in argv])
        assert code == 0, err
        assert json.loads(out)["order"] == order

    @pytest.mark.parametrize("argv", [argv for argv, _ in FILE_COMMANDS])
    def test_empty_file_input_is_rejected(self, tmp_path, argv):
        path = tmp_path / "empty.g6"
        path.write_text("\n")
        code, _, err = invoke([a.format(path=path) for a in argv])
        assert code == 2
        assert "no graph6 records in" in err


class TestGenAndProduct:
    def test_gen_path(self):
        code, doc, _ = invoke_json(["gen", "--family", "path:4"])
        assert code == 0
        assert doc["edge_list"] == [[0, 1], [1, 2], [2, 3]]

    def test_product_emits_graph6_and_legend(self):
        code, doc, _ = invoke_json(["product", "--g", "path:2", "--h", "empty:2"])
        assert code == 0
        assert doc["order"] == 4 and doc["edges"] == 4
        assert doc["index_map"]["legend"][3] == [3, [1, 1]]
        assert doc["graph6"]

    def test_product_above_graph6_limit_reports_null(self):
        code, doc, _ = invoke_json(["product", "--g", "complete:8", "--h", "complete:8"])
        assert code == 0
        assert doc["order"] == 64
        assert doc["graph6"] is None

    @pytest.mark.parametrize("g,h,warnings", [("cycle:8", "cycle:8", 1), ("cycle:8", "path:7", 0)])
    def test_product_warns_once_when_graph6_cannot_hold_it(self, caplog, g, h, warnings):
        with caplog.at_level(logging.WARNING, logger="wfcover"):
            code, doc, err = invoke_json(["product", "--g", g, "--h", h])
        assert code == 0 and (doc["graph6"] is None) == bool(warnings)
        expected = [("wfcover.products", logging.WARNING, "product order 64 exceeds the graph6 export limit 62")]
        assert caplog.record_tuples == expected * warnings
        assert err.startswith(f"product: order {doc['order']}")

    def test_g_h_accept_graph6_and_prefixes(self, tmp_path):
        path = tmp_path / "h.g6"
        path.write_text("A?\n")
        code, doc, _ = invoke_json(["product", "--g", "g6:A_", "--h", f"file:{path}"])
        assert code == 0
        assert doc["order"] == 4


class TestCheckTheorem:
    def test_thm31_consistent_exit_zero(self):
        code, doc, _ = invoke_json(
            ["check-theorem", "thm31", "--g", "empty:3", "--h", "cycle:4"]
        )
        assert code == 0
        assert doc["verdict"] == "consistent"
        assert doc["ground_truth"]["f_product"] == 9

    def test_thm32_finding_exit_one(self):
        code, doc, _ = invoke_json(
            ["check-theorem", "thm32", "--g", "path:4", "--h", "empty:2"]
        )
        assert code == 1
        assert doc["verdict"] == "non_sufficiency_witness"

    def test_thm35_finding_exit_one(self):
        code, doc, _ = invoke_json(
            ["check-theorem", "thm35", "--g", "cycle:5", "--h", "cycle:4"]
        )
        assert code == 1
        assert doc["verdict"] == "non_sufficiency_witness"
        assert doc["conditions"]["condition_4"] is True

    def test_thm32_rejects_nonempty_h(self):
        code, _, err = invoke(["check-theorem", "thm32", "--g", "path:4", "--h", "path:2"])
        assert code == 2
        assert "edgeless" in err

    def test_thm31_rejects_nonempty_g(self):
        code, _, err = invoke(["check-theorem", "thm31", "--g", "path:2", "--h", "cycle:4"])
        assert code == 2

    @pytest.mark.parametrize(
        "theorem,g,h,reason",
        [
            ("thm31", "path:2", "cycle:4", "thm31 requires an edgeless first factor"),
            ("thm32", "path:4", "path:2", "thm32 requires an edgeless second factor"),
            ("thm35", "empty:2", "cycle:4", "thm35 requires a first factor with at least one edge"),
            ("thm35", "cycle:4", "empty:2", "thm35 requires a second factor with at least one edge"),
        ],
    )
    def test_hypothesis_failure_names_the_broken_hypothesis(self, theorem, g, h, reason):
        code, out, err = invoke(["check-theorem", theorem, "--g", g, "--h", h])
        assert (code, out, err) == (2, "", f"error: {reason}\n")

    def test_z_tiebreak_flag_accepted(self):
        code, doc, _ = invoke_json(
            ["check-theorem", "thm35", "--g", "complete:2", "--h", "complete:2",
             "--z-tiebreak", "max"]
        )
        assert code == 0
        assert all(w["verified"] for w in doc["witnesses"])

    @pytest.mark.parametrize(
        "options", [["--anchor", "99"], ["--anchor", "0"], ["--z-tiebreak", "min"], ["--z-tiebreak", "max"]]
    )
    def test_thm31_rejects_witness_options(self, options):
        code, out, err = invoke(["check-theorem", "thm31", "--g", "empty:2", "--h", "cycle:4", *options])
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "--anchor" in err and "--z-tiebreak" in err

    @pytest.mark.parametrize("theorem,h", [("thm32", "empty:3"), ("thm35", "path:3")])
    def test_anchor_out_of_range_is_named(self, theorem, h):
        code, out, err = invoke(
            ["check-theorem", theorem, "--g", "path:3", "--h", h, "--anchor", "5"]
        )
        assert (code, out, err) == (2, "", "error: anchor 5 out of range for second factor of order 3\n")

    @pytest.mark.parametrize(
        "g,h,options,order",
        [
            # H alone is past the bound: the error names the product, not H
            ("complete:2", "path:25", [], 50),
            # an anchor outside some M_H of P9: the bound is checked first
            ("complete:3", "path:9", ["--anchor", "1"], 27),
        ],
    )
    def test_bound_names_the_product_before_any_enumeration(self, g, h, options, order):
        code, out, err = invoke(["check-theorem", "thm35", "--g", g, "--h", h, *options])
        assert (code, out, err) == (2, "", f"error: graph order {order} exceeds the enumeration bound 24\n")

    @pytest.mark.parametrize(
        "argv,order",
        [
            # P5 has an edge, which thm31 forbids in G: the bound is reported first
            (["thm31", "--g", "path:5", "--h", "path:5"], 25),
            # 5 is no vertex of 3K1: the bound is reported first
            (["thm32", "--g", "path:9", "--h", "empty:3", "--anchor", "5"], 27),
        ],
    )
    def test_bound_is_tested_before_any_other_argument(self, argv, order):
        code, out, err = invoke(["check-theorem", *argv])
        assert (code, out, err) == (2, "", f"error: graph order {order} exceeds the enumeration bound 24\n")


class TestSearchCommand:
    def test_finding_exit_one_and_jsonl(self, tmp_path):
        g_file = tmp_path / "g.g6"
        h_file = tmp_path / "h.g6"
        g_file.write_text("Ch\n")  # P4
        h_file.write_text("A?\n")  # 2K1
        out = tmp_path / "findings.jsonl"
        code, doc, _ = invoke_json(
            ["search", "--g-file", str(g_file), "--h-file", str(h_file),
             "--theorem", "thm32", "--out", str(out)]
        )
        assert code == 1
        assert doc["pairs_checked"] == 1
        assert doc["verdicts"] == {"non_sufficiency_witness": 1}
        lines = [json.loads(l) for l in out.read_text().splitlines()]
        assert lines[0]["verdict"] == "non_sufficiency_witness"

    def test_all_consistent_exit_zero(self, tmp_path):
        g_file = tmp_path / "g.g6"
        g_file.write_text("A_\n")  # K2 against itself
        code, doc, _ = invoke_json(
            ["search", "--g-file", str(g_file), "--theorem", "thm35"]
        )
        assert code == 0
        assert doc["verdicts"] == {"consistent": 1}

    def test_broken_pool_exit_two(self, tmp_path, monkeypatch):
        class BrokenPool:
            """Its results raise as a pool's do once a worker has died."""

            def __init__(self, max_workers):
                pass

            def map(self, fn, items, chunksize=1):
                raise BrokenProcessPool("a worker died")
                yield

            def shutdown(self, wait=True, *, cancel_futures=False):
                pass

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", BrokenPool)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        g_file = tmp_path / "g.g6"
        g_file.write_text("Ch\nA_\n")
        code, out, err = invoke(["search", "--g-file", str(g_file), "--theorem", "thm35", "--workers", "2"])
        assert (code, out, err) == (2, "", "error: a worker died\n")

    def test_missing_file_exit_two(self, tmp_path):
        code, _, err = invoke(
            ["search", "--g-file", str(tmp_path / "missing.g6"), "--theorem", "thm35"]
        )
        assert code == 2
        assert "error" in err

    def test_skip_malformed_flag(self, tmp_path):
        g_file = tmp_path / "g.g6"
        g_file.write_text("A_\nbroken-line-#\n")
        code, doc, _ = invoke_json(
            ["search", "--g-file", str(g_file), "--theorem", "thm35", "--skip-malformed"]
        )
        assert code == 0
        assert doc["pairs_supplied"] == 1

    def test_g_file_read_once_without_h_file(self, tmp_path, caplog):
        g_file = tmp_path / "g.g6"
        g_file.write_text("A_\nbroken-line-#\nBw\n")
        with caplog.at_level(logging.WARNING, logger="wfcover.search"):
            code, doc, _ = invoke_json(
                ["search", "--g-file", str(g_file), "--theorem", "thm35", "--skip-malformed"]
            )
        assert code == 0
        assert doc["pairs_supplied"] == 4
        messages = [rec.getMessage() for rec in caplog.records]
        assert len(messages) == 1
        assert messages[0].startswith("skipping malformed graph6 on line 2: ")


class TestUsageAndBounds:
    def test_unknown_subcommand_exit_two(self):
        code, _, _ = invoke(["frobnicate"])
        assert code == 2

    def test_missing_required_flag_exit_two(self):
        code, _, _ = invoke(["analyze"])
        assert code == 2

    def test_bad_family_exit_two(self):
        code, _, err = invoke(["analyze", "--family", "cycle:2"])
        assert code == 2
        assert "error" in err

    def test_family_error_in_a_factor_is_named(self):
        code, out, err = invoke(["product", "--g", "fig1:3", "--h", "path:2"])
        assert (code, out) == (2, "")
        assert err == "error: fig1 takes no size parameter\n"

    def test_bad_graph6_exit_two(self):
        code, _, err = invoke(["analyze", "--graph6", "!!"])
        assert code == 2

    @pytest.mark.parametrize("bound", ["30", "0"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "--family", "cycle:2"],
            ["check-theorem", "thm35", "--g", "cycle:2", "--h", "path:3"],
            ["search", "--g-file", "no-such-file.g6", "--theorem", "thm35"],
        ],
        ids=["analyze", "check-theorem", "search"],
    )
    def test_max_order_cap(self, argv, bound):
        # the range is checked before any graph is read: the bad family and
        # the missing file are never reached
        code, out, err = invoke(argv + ["--max-order", bound])
        assert (code, out, err) == (2, "", f"error: enumeration bound must be between 1 and 24, got {bound}\n")

    def test_bound_violation_exit_two(self):
        code, _, err = invoke(["analyze", "--family", "empty:20", "--max-order", "10"])
        assert code == 2
        assert "bound" in err

    def test_analyze_tests_the_bound_before_any_query(self):
        # the queries take no bound; analyze tests |G| once, before the first
        clear_wfcover_caches()
        code, out, err = invoke(["analyze", "--family", "empty:25"])
        assert (code, out, err) == (2, "", "error: graph order 25 exceeds the enumeration bound 24\n")
        assert forests._forest_catalogue.cache_info().currsize == 0
        assert independence._independent_catalogue.cache_info().currsize == 0

    @pytest.mark.parametrize("value", ["1", "12", "lots"])
    def test_the_environment_sets_no_bound(self, monkeypatch, value):
        # the bound is argv's alone: an exported WFCOVER_MAX_ORDER changes
        # no command's result
        argv = ["check-theorem", "thm35", "--g", "complete:4", "--h", "cycle:5"]
        want = invoke(argv)
        monkeypatch.setenv("WFCOVER_MAX_ORDER", value)
        assert invoke(argv) == want and want[0] == 0

    def test_commands_that_do_not_enumerate_resolve_no_bound(self):
        assert invoke(["gen", "--family", "path:3"])[0] == 0
        assert invoke(["product", "--g", "path:3", "--h", "path:2"])[0] == 0

    @pytest.mark.parametrize(
        "argv", [["gen", "--family", "path:3"], ["product", "--g", "path:3", "--h", "path:2"]]
    )
    def test_commands_that_do_not_enumerate_take_no_bound(self, argv, capsys):
        code, out, err = invoke(argv + ["--max-order", "99"])
        # the top-level parser reports what the subcommand's parser left over
        usage = build_parser().format_usage()
        assert (code, out, err) == (2, "", usage + "wfcover: error: unrecognized arguments: --max-order 99\n")
        assert capsys.readouterr() == ("", "")

    def test_broken_pipe_on_stdout_exit_two(self):
        class ClosedPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        err = io.StringIO()
        code = run(["gen", "--family", "path:3"], stdout=ClosedPipe(), stderr=err)
        assert (code, err.getvalue()) == (2, "error: [Errno 32] Broken pipe\n")

    def test_verify_paper_takes_no_bound(self):
        # its three products are fixed in the code; no flag bounds them
        assert invoke(["verify-paper"])[0] == 0
        code, out, err = invoke(["verify-paper", "--max-order", "24"])
        usage = build_parser().format_usage()
        assert (code, out, err) == (2, "", usage + "wfcover: error: unrecognized arguments: --max-order 24\n")

    def test_verify_paper_exit_zero(self):
        code, doc, _ = invoke_json(["verify-paper"])
        assert code == 0
        assert doc["verdict"] == "consistent"


_COMMAND_NAMES = list(cli._COMMANDS)
# command names, option strings and good and bad values, for drawn argv
_ARGV_TOKENS = _COMMAND_NAMES + [
    "--family", "--g", "--h", "--graph6", "--file", "--max-order", "--z-tiebreak", "--anchor",
    "--g-file", "--h-file", "--theorem", "--out", "--workers", "--skip-malformed",
    "--", "-h", "--help", "--frob",
    "thm31", "thm32", "thm35", "thm9", "path:3", "cycle:4", "empty:2", "complete:2", "cycle:2",
    "Bw", "!!", "min", "max", "mid", "0", "1", "-1", "99", "x", "missing.g6",
]


class TestParserSurface:
    """``run`` reads a plain command line without argparse, and any other
    with the parser.  The parser reading every argv, ``_read_plain`` declining
    each, is the reference: every argv gives the same exit code, stdout and
    stderr through both, at each terminal width, whether argparse writes to
    the streams given to ``run`` or to the process's own."""

    ARGV = [
        [], ["-h"], ["--help"], ["--he"], ["-h", "gen"], ["--help", "check-theorem"],
        *([name, "-h"] for name in _COMMAND_NAMES),
        *([name] for name in _COMMAND_NAMES),
        ["frobnicate"], ["frobnicate", "gen"], ["check"], ["Gen"], ["--frob"],
        ["--frob", "gen", "--family", "path:3"],
        ["gen", "--frob"],
        ["gen", "--family", "path:3"],
        ["gen", "--fam", "path:3"],
        ["gen", "--family", "check-theorem"],
        ["gen", "--family", "path:3", "verify-paper"],
        ["gen", "--family", "path:3", "--max-order", "99"],
        ["--", "gen", "--family", "path:3"],
        ["gen", "--", "--family", "path:3"],
        ["--", "-h"],
        ["product", "--g", "gen", "--h", "verify-paper"],
        ["product", "--g", "path:2", "--h", "path:2"],
        ["analyze", "--family", "cycle:4"],
        ["analyze", "--family", "path:3", "--graph6", "Bw"],
        ["analyze", "--family", "path:3", "--max-order", "ten"],
        ["check-theorem", "thm35", "--g", "path:3", "--h", "cycle:4"],
        ["check-theorem", "thm35", "--g", "path:3", "--h", "path:2", "--z", "max"],
        ["check-theorem", "thm35", "--g", "path:3", "--h", "path:2", "--frob"],
        ["check-theorem", "thm99", "--g", "path:3", "--h", "path:2"],
        ["check-theorem", "thm35", "--g", "path:3", "--h", "path:2", "--z-tiebreak", "mid"],
        ["check-theorem", "thm35", "--g", "path:3", "--h", "path:2", "--anchor", "x"],
        ["check-theorem", "--g", "path:3", "--h", "path:2", "thm35", "-h"],
        ["verify-paper", "gen"],
        ["verify-paper", "--max-order", "x"],
        ["search", "--g-file", "missing.g6", "--theorem", "thm4"],
        ["search", "--g-file", "missing.g6", "--theorem", "thm35", "--workers", "two"],
        ["verify-paper", "--max-order", "24"],
    ]

    @staticmethod
    def outcome(argv, capsys):
        out, err = io.StringIO(), io.StringIO()
        code = run(argv, stdout=out, stderr=err)
        leaked = capsys.readouterr()
        return code, out.getvalue(), err.getvalue(), leaked.out, leaked.err

    def assert_same_as_full_parser(self, argv, capsys, monkeypatch, columns="80"):
        # usage and help wrap at the terminal width
        monkeypatch.setenv("COLUMNS", columns)
        shipped = self.outcome(argv, capsys)
        with monkeypatch.context() as patch:
            patch.setattr(cli, "_read_plain", lambda argv: None)
            assert self.outcome(argv, capsys) == shipped

    # 80 columns is the default case, named by its argv alone
    @pytest.mark.parametrize(
        "argv,columns",
        [
            pytest.param(argv, columns, id=f"argv{i}" if columns == "80" else f"argv{i}-{columns}")
            for i, argv in enumerate(ARGV)
            for columns in ("80", "40", "200")
        ],
    )
    def test_listed_argv(self, argv, columns, capsys, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)
        self.assert_same_as_full_parser(argv, capsys, monkeypatch, columns)

    @settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(argv=st.lists(st.sampled_from(_ARGV_TOKENS), max_size=8))
    def test_drawn_argv(self, argv, capsys, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)
        self.assert_same_as_full_parser(argv, capsys, monkeypatch)


class TestPlainReader:
    """``_read_plain`` declines an argv, or returns exactly the attributes the
    full parser returns for it."""

    @staticmethod
    def assert_reads_as_full_parser(argv, parser):
        plain = cli._read_plain(argv)
        if plain is None:
            return False
        try:
            expected = vars(parser.parse_args(argv))
        except SystemExit:
            expected = "rejected by argparse"
        assert vars(plain) == expected
        return True

    def test_parity_commands(self, monkeypatch):
        monkeypatch.chdir(cli_parity.ROOT)
        parser = build_parser()
        argvs = cli_parity.commands()
        declined = [argv for argv in argvs if not self.assert_reads_as_full_parser(argv, parser)]
        # a value that starts with "-" is argparse's to read
        assert declined == [["check-theorem", "thm32", "--g", "path:3", "--h", "empty:2", "--anchor", "-1"]]

    @pytest.mark.parametrize(
        "argv", [pytest.param(argv, id=f"argv{i}") for i, argv in enumerate(TestParserSurface.ARGV)]
    )
    def test_listed_argv(self, argv):
        self.assert_reads_as_full_parser(argv, build_parser())

    @pytest.mark.parametrize(
        "argv",
        [
            ["check-theorem", "--anchor", "1", "--g", "path:3", "--z-tiebreak", "max", "--h", "cycle:4", "thm35"],
            ["check-theorem", "thm32", "--g", "path:3", "--h", "empty:2", "--max-order", "12"],
            ["analyze", "--max-order", "9", "--file", "missing.g6"],
            ["product", "--h", "", "--g", "path:2"],
            ["search", "--skip-malformed", "--g-file", "a.g6", "--workers", "+2", "--theorem", "thm31", "--out", "f"],
        ],
    )
    def test_reads_plain_lines(self, argv):
        assert self.assert_reads_as_full_parser(argv, build_parser())

    @settings(max_examples=200, deadline=None)
    @given(
        name=st.sampled_from(_COMMAND_NAMES),
        tokens=st.lists(st.sampled_from(_ARGV_TOKENS), max_size=8),
    )
    @example(name="check-theorem", tokens=["--g", "path:3", "--h", "cycle:4"])
    @example(name="search", tokens=["--g-file", "x", "--theorem", "thm35", "--skip-malformed", "x"])
    def test_drawn_argv(self, name, tokens):
        self.assert_reads_as_full_parser([name, *tokens], build_parser())


class TestParserCounters:
    """Exact parser work, as ``TestKernelCounters`` pins kernel work: the
    ``ArgumentParser`` objects built and the ``add_argument`` calls made (the
    automatic ``-h`` among them) by one ``run``, and by ``build_parser``.  A
    plain command line builds none; any other builds the whole parser."""

    @pytest.mark.parametrize(
        "argv,expected",
        [
            (None, (7, 27)),
            (["check-theorem", "thm35", "--g", "path:3", "--h", "cycle:4"], (0, 0)),
            (["gen", "--family", "path:3"], (0, 0)),
            (["verify-paper"], (0, 0)),
            (["--help"], (7, 27)),
            # an abbreviation is not plain: argparse reads it
            (["gen", "--fam", "path:3"], (7, 27)),
        ],
    )
    def test_parsers_and_arguments(self, argv, expected, monkeypatch):
        counts = [0, 0]

        def counted(method, slot):
            def wrapper(*args, **kwargs):
                counts[slot] += 1
                return method(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted(argparse.ArgumentParser.__init__, 0))
        # parsers and argument groups share this one add_argument
        container = argparse._ActionsContainer
        monkeypatch.setattr(container, "add_argument", counted(container.add_argument, 1))
        if argv is None:
            build_parser()
        else:
            assert invoke(argv)[0] in (0, 1)
        assert tuple(counts) == expected


class TestRenderCounters:
    """Exact rendering work, as ``TestParserCounters`` pins parser work, on
    the thm35 K8∘P3 document (56 condition rows, 64 witnesses): the calls of
    the stdlib writer ``_dumps``, and the vertex and detail lists written
    and reused by the memos ``_mask_text`` and ``_detail_mask_text``.  A
    witness detail is a ``VStarDetail`` or a ``VmDetail`` record, each
    written by its template, so no row or detail goes through ``_dumps``."""

    @staticmethod
    def k8_p3():
        from wfcover import check_thm35, generate, parse_family

        report = check_thm35(generate(parse_family("complete:8")), generate(parse_family("path:3")))
        assert (len(report.condition_values), len(report.witnesses)) == (56, 64)
        return report

    def test_stdlib_fallback_calls(self, monkeypatch):
        from dataclasses import replace

        report = self.k8_p3()
        calls = []
        dumps = cli._dumps
        monkeypatch.setattr(cli, "_dumps", lambda obj, indent="": calls.append(obj) or dumps(obj, indent))

        def counted(rendered):
            calls.clear()
            cli._report_text(rendered)
            return len(calls)

        assert counted(report) == 0
        assert counted(replace(report, witnesses=())) == 0

    def test_lists_written_once(self):
        report = self.k8_p3()
        for memo in (cli._mask_text, cli._detail_mask_text):
            memo.cache_clear()
        text = cli._report_text(report)
        # 176 vertex lists: a forest and an M_H per condition row, a subset
        # per witness; 128 detail lists: forest and m_h of each V*, m and f_h
        # of each V_M
        assert cli._mask_text.cache_info()[:2] == (86, 90)
        assert cli._detail_mask_text.cache_info()[:2] == (91, 37)
        assert cli._report_text(report) == text
        assert cli._mask_text.cache_info()[:2] == (86 + 176, 90)
        assert cli._detail_mask_text.cache_info()[:2] == (91 + 128, 37)


class TestEntryPoint:
    """``python -m wfcover`` as a process gives what ``run`` gives in-process."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["--help"],
            ["check-theorem", "-h"],
            ["frobnicate"],
            ["gen", "--family", "path:3"],
            ["check-theorem", "thm35", "--g", "path:3", "--h", "cycle:4"],
        ],
    )
    def test_process_matches_run(self, argv, monkeypatch, tmp_path):
        monkeypatch.setenv("COLUMNS", "80")
        monkeypatch.chdir(tmp_path)
        src = Path(cli.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(src)}
        proc = subprocess.run(
            [sys.executable, "-m", "wfcover", *argv], capture_output=True, text=True, env=env, check=False
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == invoke(argv)


class TestImportFootprint:
    def test_commands_that_do_not_fork_load_no_process_pool(self, tmp_path):
        # a fresh interpreter: the process-pool modules load only when a scan
        # forks, and argparse only when a command line is not plain; one
        # first factor is one run, which two workers would not share
        atlas = Path(__file__).resolve().parents[1] / "bench" / "data" / "atlas_le4.g6"
        c5 = tmp_path / "c5.g6"
        c5.write_text("Dhc\n")
        script = f"""
import io, json, sys
from wfcover.cli import run
out = io.StringIO()
codes = [
    run(["check-theorem", "thm35", "--g", "complete:4", "--h", "cycle:5"], out, out),
    run(["check-theorem", "thm35", "--g", "cycle:5", "--h", "cycle:4"], out, out),
    run(["search", "--g-file", {str(atlas)!r}, "--theorem", "thm35", "--workers", "1"], out, out),
    run(["search", "--g-file", {str(c5)!r}, "--h-file", {str(atlas)!r}, "--theorem", "thm35",
         "--workers", "2"], out, out),
]
print(json.dumps({{"codes": codes, "modules": sorted(sys.modules)}}))
"""
        src = Path(cli.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(src)}
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True)
        result = json.loads(proc.stdout)
        assert result["codes"] == [0, 1, 1, 1]
        assert "wfcover.search" in result["modules"]
        # every module the interpreter holds, its startup's too
        pool = [
            name for name in result["modules"]
            if name.split(".")[0] in ("multiprocessing", "_multiprocessing") or name == "concurrent.futures.process"
        ]
        assert pool == []
        assert {"argparse", "gettext"}.isdisjoint(result["modules"])
