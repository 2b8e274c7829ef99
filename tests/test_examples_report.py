"""The bundled case-study audit: statuses, facts, and pinned adjudications."""

from __future__ import annotations

import pytest

from wfcover import examples, verify_paper_examples
from wfcover.examples import _claim


@pytest.fixture(scope="module")
def report():
    return verify_paper_examples()


def claim(report, example, name):
    for c in report.claims:
        if c.example == example and c.claim == name:
            return c
    raise AssertionError(f"claim {example}/{name} missing")


class TestOverall:
    def test_verdict_consistent(self, report):
        assert report.verdict == "consistent"
        assert report.conditions == {"all_claims_as_pinned": True}

    def test_all_statuses_match_pins(self, report):
        for c in report.claims:
            assert c.status == c.expected, (c.example, c.claim)

    def test_examples_covered(self, report):
        assert {c.example for c in report.claims} == {"p4_2k1", "fig1_c4", "c5_c4"}


class TestAdjudication:
    @pytest.mark.parametrize(
        "holds,repaired,status",
        [
            (True, True, "confirmed"),
            (True, False, "confirmed"),
            (False, True, "corrected"),
            (False, False, "refuted"),
        ],
    )
    def test_printed_sentence_ranks_above_its_repair(self, holds, repaired, status):
        record = _claim("x", "y", "z", holds=holds, repaired=repaired, expected="confirmed", facts={})
        assert record.status == status


class TestP4Audit:
    def test_forest_number_confirmed(self, report):
        c = claim(report, "p4_2k1", "forest_number")
        assert c.status == "confirmed"
        assert c.facts["f_product"] == 6

    def test_not_wfc_confirmed_with_orders(self, report):
        c = claim(report, "p4_2k1", "not_well_f_covered")
        assert c.status == "confirmed"
        assert c.facts["maximal_forest_orders"] == [5, 6]

    def test_p3_sentence_refuted(self, report):
        c = claim(report, "p4_2k1", "maximal_forests_are_p3")
        assert c.status == "refuted"
        assert c.facts["actual_maximal_forests"] == [[0, 1, 2, 3]]
        # the printed total 6 matches P4's own stats, not an induced P3's
        assert c.facts["p3_reading_value"] == 5
        assert c.facts["actual_values"] == [6]

    def test_non_sufficiency_verdict(self, report):
        c = claim(report, "p4_2k1", "non_sufficiency")
        assert c.status == "confirmed"
        assert c.facts["verdict"] == "non_sufficiency_witness"


class TestFig1Audit:
    def test_well_covered_with_alpha_two(self, report):
        c = claim(report, "fig1_c4", "g_well_covered")
        assert c.status == "confirmed"
        assert c.facts["alpha_g"] == 2

    def test_abc_sentence_refuted(self, report):
        c = claim(report, "fig1_c4", "abc_maximal_forest")
        assert c.status == "refuted"
        assert c.facts["is_induced_forest"] is True
        assert c.facts["extends_with"] == [4]  # adding e keeps it a forest

    def test_condition4_values_corrected(self, report):
        c = claim(report, "fig1_c4", "condition4_values")
        assert c.status == "corrected"
        assert c.facts["printed_first_is_maximal"] is False
        assert c.facts["maximal_forests"] == [[0, 1, 3], [0, 1, 2, 4]]
        assert c.facts["values"] == [5, 6]

    def test_product_not_wfc(self, report):
        c = claim(report, "fig1_c4", "not_well_f_covered")
        assert c.status == "confirmed"

    def test_non_maximal_printed_set_gives_a_claim(self, monkeypatch):
        # {a, b} is a forest of fig1 but not a maximal one, so no check record has it
        monkeypatch.setattr(examples, "_FIG1_ABD", (0, 1))
        patched = verify_paper_examples()
        c = claim(patched, "fig1_c4", "condition4_values")
        assert c.status == "refuted"
        assert c.facts["values"] == [None, 6]
        assert patched.verdict == "theorem_violation"


class TestC5Audit:
    def test_forest_number_and_alpha(self, report):
        c = claim(report, "c5_c4", "product_forest_number")
        assert c.status == "confirmed"
        assert c.facts == {"f_product": 6, "alpha_g": 2, "f_h": 3}

    def test_first_listed_set_confirmed(self, report):
        c = claim(report, "c5_c4", "first_listed_set")
        assert c.status == "confirmed"
        assert c.facts["order"] == 6

    def test_second_listed_set_corrected(self, report):
        c = claim(report, "c5_c4", "second_listed_set")
        assert c.status == "corrected"
        assert c.facts["printed_is_forest"] is False
        assert c.facts["fixed_is_maximal"] is True

    def test_not_wfc_with_orders(self, report):
        c = claim(report, "c5_c4", "not_well_f_covered")
        assert c.status == "confirmed"
        assert c.facts["maximal_forest_orders"] == [5, 6]
