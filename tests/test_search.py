"""Pair scanning, findings persistence, and graph6 stream input."""

from __future__ import annotations

import concurrent.futures
import io
import json
import logging
import math
from itertools import groupby
from pathlib import Path

import pytest

from wfcover import (
    Finding,
    Graph,
    Graph6Error,
    ScanConfig,
    check,
    enumerate_maximal_induced_forests,
    from_graph6,
    generate,
    hypothesis_filter,
    lexicographic,
    parse_family,
    read_graph6_stream,
    scan,
    to_graph6,
)
import wfcover.forests as forests
import wfcover.search as search
import wfcover.theorems as theorems
from wfcover.search import read_findings

from conftest import clear_wfcover_caches


DATA = Path(__file__).resolve().parents[1] / "bench" / "data"


def fam(text: str) -> Graph:
    return generate(parse_family(text))


def recording_pool(started: list) -> type:
    """A stand-in for ProcessPoolExecutor that appends each pool's worker
    count to ``started`` and maps in this process."""

    class RecordingPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

        def shutdown(self, wait=True, *, cancel_futures=False):
            pass

    return RecordingPool


class TestHypothesisFilter:
    def test_by_theorem(self):
        empty, edgy = fam("empty:3"), fam("path:3")
        assert hypothesis_filter("thm31", empty, edgy)
        assert not hypothesis_filter("thm31", edgy, edgy)
        assert hypothesis_filter("thm32", edgy, empty)
        assert not hypothesis_filter("thm32", edgy, edgy)
        assert hypothesis_filter("thm35", edgy, edgy)
        assert not hypothesis_filter("thm35", empty, edgy)


class TestScan:
    def test_p4_with_2k1_is_a_finding(self, tmp_path):
        out = tmp_path / "findings.jsonl"
        config = ScanConfig(theorem="thm32", findings_path=out)
        findings = list(scan([(fam("path:4"), fam("empty:2"))], config))
        assert len(findings) == 1
        f = findings[0]
        assert f.verdict == "non_sufficiency_witness"
        assert f.f_product == 6
        assert f.witness_orders == (5, 6)
        assert from_graph6(f.g_graph6) == fam("path:4")
        assert from_graph6(f.h_graph6) == fam("empty:2")
        persisted = read_findings(out)
        assert persisted == findings

    def test_c5_c4_is_a_finding(self):
        config = ScanConfig(theorem="thm35")
        findings = list(scan([(fam("cycle:5"), fam("cycle:4"))], config))
        assert findings[0].verdict == "non_sufficiency_witness"
        assert findings[0].alpha_g == 2
        assert findings[0].f_h == 3

    def test_input_order_preserved_and_filtered(self):
        pairs = [
            (fam("cycle:4"), fam("path:2")),
            (fam("empty:2"), fam("path:2")),  # fails the thm35 filter
            (fam("path:4"), fam("path:2")),
        ]
        config = ScanConfig(theorem="thm35")
        findings = list(scan(pairs, config))
        assert [f.g_graph6 for f in findings] == [
            to_graph6(fam("cycle:4")).decode(),
            to_graph6(fam("path:4")).decode(),
        ]

    def test_consistent_pairs_not_persisted(self, tmp_path):
        out = tmp_path / "findings.jsonl"
        config = ScanConfig(theorem="thm35", findings_path=out)
        findings = list(scan([(fam("complete:2"), fam("complete:2"))], config))
        assert findings[0].verdict == "consistent"
        assert read_findings(out) == []

    def test_oversized_pair_skipped_with_warning(self, caplog):
        config = ScanConfig(theorem="thm35", max_order=8)
        pairs = [
            (fam("cycle:5"), fam("cycle:4")),  # 20 > 8: skipped
            (fam("complete:2"), fam("complete:2")),
        ]
        with caplog.at_level(logging.WARNING, logger="wfcover.search"):
            findings = list(scan(pairs, config))
        assert len(findings) == 1
        assert any("exceeds bound" in rec.message for rec in caplog.records)

    @pytest.mark.parametrize(
        "theorem,g,h,scalars",
        [
            pytest.param("thm35", "complete:2", "path:25", (25, 1, 25), id="thm35"),
            # alpha(G) and f(H) are filled in by the scan, under its bound too
            pytest.param("thm32", "complete:25", "empty:2", (3, 1, 2), id="thm32"),
            pytest.param("thm31", "empty:25", "path:2", (50, 25, 2), id="thm31"),
        ],
    )
    def test_factor_past_the_default_bound_is_checked_under_the_configured_one(
        self, theorem, g, h, scalars
    ):
        # a factor of order 25 exceeds the default bound of 24; the product
        # is within the bound of 50
        config = ScanConfig(theorem=theorem, max_order=50)
        findings = list(scan([(fam(g), fam(h))], config))
        assert [(f.verdict, (f.f_product, f.alpha_g, f.f_h)) for f in findings] == [
            ("consistent", scalars)
        ]

    @pytest.mark.parametrize("big_first", [True, False])
    def test_pair_beyond_graph6_skipped_with_warning(self, caplog, big_first):
        big, _ = lexicographic(fam("cycle:8"), fam("cycle:8"))
        pair = (big, fam("complete:2")) if big_first else (fam("complete:2"), big)
        pairs = [(fam("complete:2"), fam("complete:2")), pair]
        with caplog.at_level(logging.WARNING, logger="wfcover.search"):
            findings = list(scan(pairs, ScanConfig(theorem="thm35")))
        assert len(findings) == 1
        orders = (64, 2) if big_first else (2, 64)
        assert [rec.getMessage() for rec in caplog.records if rec.name == "wfcover.search"] == [
            f"skipping pair 2 (G of order {orders[0]}, H of order {orders[1]}): "
            "product order 128 exceeds bound 24"
        ]

    @pytest.mark.parametrize(
        "theorem,written", [("thm31", 0), ("thm32", 52), ("thm35", 20)], ids=["thm31", "thm32", "thm35"]
    )
    def test_worker_pool_matches_sequential(self, tmp_path, monkeypatch, theorem, written):
        monkeypatch.setattr(search.os, "sched_getaffinity", lambda pid: {0, 1})
        # the order-5 atlas and edgeless graphs of order 6-24 give every
        # theorem more runs than two workers take batches, so batches hold
        # several runs; the edgeless ones past order 12 pair only with K1
        gs = list(read_graph6_stream(DATA / "atlas_le5.g6"))
        gs += [fam(f"empty:{n}") for n in range(6, 25)]
        hs = list(read_graph6_stream(DATA / "atlas_le4.g6"))
        pairs = [(g, h) for g in gs for h in hs]
        runs = []
        for workers in (1, 2):
            out = tmp_path / f"findings{workers}.jsonl"
            config = ScanConfig(theorem=theorem, workers=workers, findings_path=out)
            runs.append((list(scan(pairs, config)), out.read_bytes()))
        assert runs[0] == runs[1]
        assert runs[0][1].count(b"\n") == written
        first_factors = [g for g, _ in groupby(f.g_graph6 for f in runs[0][0])]
        assert len(first_factors) > 2 * search.BATCHES_PER_WORKER

    # four runs, so the CPU cap binds before the run count
    CAPPED_PAIRS = [("path:4", "empty:2"), ("path:3", "empty:2"), ("cycle:4", "empty:2"),
                    ("complete:3", "empty:2")]
    CAPPED_VERDICTS = ["non_sufficiency_witness", "non_sufficiency_witness", "consistent",
                       "consistent"]

    @pytest.mark.parametrize("cpus,workers,expected", [(2, 64, [2]), (3, 2, [2]), (1, 8, [])])
    def test_pool_is_capped_at_usable_cpus(self, monkeypatch, cpus, workers, expected):
        started = []
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", recording_pool(started))
        monkeypatch.setattr(search.os, "sched_getaffinity", lambda pid: set(range(cpus)))
        pairs = [(fam(g), fam(h)) for g, h in self.CAPPED_PAIRS]
        findings = list(scan(pairs, ScanConfig(theorem="thm32", workers=workers)))
        assert started == expected
        assert [f.verdict for f in findings] == self.CAPPED_VERDICTS

    @pytest.mark.parametrize("cpus,workers,expected", [(3, 8, [3]), (4, 2, [2]), (None, 8, [])])
    def test_pool_is_capped_at_cpu_count_without_affinity(
        self, monkeypatch, cpus, workers, expected
    ):
        # macOS and Windows have no sched_getaffinity; os.cpu_count() may be None
        started = []
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", recording_pool(started))
        monkeypatch.delattr(search.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(search.os, "cpu_count", lambda: cpus)
        pairs = [(fam(g), fam(h)) for g, h in self.CAPPED_PAIRS]
        findings = list(scan(pairs, ScanConfig(theorem="thm32", workers=workers)))
        assert started == expected
        assert [f.verdict for f in findings] == self.CAPPED_VERDICTS

    @pytest.mark.parametrize("gs,expected", [([], []), (["path:4"], []), (["path:4", "path:3"], [2])])
    def test_pool_is_capped_at_the_number_of_runs(self, monkeypatch, gs, expected):
        # one G against many H is one run: a pool would leave every worker but one idle
        started = []
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", recording_pool(started))
        monkeypatch.setattr(search.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
        hs = [fam(t) for t in ("empty:1", "empty:2", "empty:3")]
        pairs = [(fam(g), h) for g in gs for h in hs]
        findings = list(scan(pairs, ScanConfig(theorem="thm32", workers=3)))
        assert started == expected
        assert findings == list(scan(pairs, ScanConfig(theorem="thm32", workers=1)))
        assert len(findings) == len(pairs)

    @pytest.mark.parametrize("atlas", [False, True], ids=["two-runs", "atlas-runs"])
    def test_pool_gets_one_task_per_run_of_a_first_factor(self, monkeypatch, atlas):
        tasks, chunksizes = [], []

        class RecordingPool:
            def __init__(self, max_workers):
                pass

            def map(self, fn, items, chunksize=1):
                items = list(items)
                tasks.extend(items)
                chunksizes.append(chunksize)
                return map(fn, items)

            def shutdown(self, wait=True, *, cancel_futures=False):
                pass

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(search.os, "sched_getaffinity", lambda pid: {0, 1})
        # the order-5 atlas has 47 graphs with an edge: batches of 3 runs
        gs = list(read_graph6_stream(DATA / "atlas_le5.g6")) if atlas else [fam("path:3"), fam("cycle:4")]
        hs = [fam("path:2"), fam("path:3"), fam("cycle:3")]
        pairs = [(g, h) for g in gs for h in hs]
        findings = list(scan(pairs, ScanConfig(theorem="thm35", workers=2)))
        runs = [g for g in gs if g.edge_count]
        assert [task[1] for task in tasks] == runs
        assert chunksizes == [math.ceil(len(runs) / (2 * search.BATCHES_PER_WORKER))]
        assert chunksizes == [3 if atlas else 1]
        sequential = list(scan(pairs, ScanConfig(theorem="thm35", workers=1)))
        assert findings == sequential
        assert [(f.g_graph6, f.h_graph6) for f in findings] == [
            (to_graph6(g).decode(), to_graph6(h).decode()) for g, h in pairs if g.edge_count
        ]

    def test_first_factor_is_encoded_once_per_run(self, monkeypatch):
        encoded = []
        real = search.to_graph6

        def counting(g):
            encoded.append(g)
            return real(g)

        monkeypatch.setattr(search, "to_graph6", counting)
        clear_wfcover_caches()
        gs = [fam("path:4"), fam("cycle:4")]
        hs = [fam("path:2"), fam("path:3"), fam("cycle:3")]
        findings = list(scan([(g, h) for g in gs for h in hs], ScanConfig(theorem="thm35")))
        assert len(findings) == 6
        assert [encoded.count(g) for g in gs] == [1, 1]

    def test_second_factor_is_encoded_once_per_process(self, monkeypatch):
        # every H recurs once per G; its graph6 text is made at its first pair
        encoded = []
        real = search.to_graph6

        def counting(g):
            encoded.append(g)
            return real(g)

        monkeypatch.setattr(search, "to_graph6", counting)
        clear_wfcover_caches()
        gs = [fam("path:4"), fam("cycle:4"), fam("cycle:5")]
        hs = [fam("path:2"), fam("path:3"), fam("cycle:3")]
        findings = list(scan([(g, h) for g in gs for h in hs], ScanConfig(theorem="thm35")))
        assert [(f.g_graph6, f.h_graph6) for f in findings] == [
            (real(g).decode(), real(h).decode()) for g in gs for h in hs
        ]
        assert [encoded.count(h) for h in hs] == [1, 1, 1]
        assert len(encoded) == len(gs) + len(hs)

    def test_factor_records_are_built_once_per_factor(self, monkeypatch):
        # P3 and K1,3 share a signature (an edge, a universal vertex, an MIS
        # of two or more vertices); C4 has no universal vertex
        g = fam("cycle:5")
        hs = (fam("path:3"), Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)]), fam("cycle:4"))
        partitioned = []
        real = theorems.forest_partition

        def counting(graph, forest, **kwargs):
            partitioned.append(forest)
            return real(graph, forest, **kwargs)

        monkeypatch.setattr(theorems, "forest_partition", counting)
        clear_wfcover_caches()
        findings = search._check_run(("thm35", g, hs))
        assert [f.verdict for f in findings] == [check("thm35", g, h).verdict for h in hs]
        assert sorted(f.mask for f in partitioned) == [f.mask for f in enumerate_maximal_induced_forests(g)]
        assert forests._fibres.cache_info().misses == len(hs)

    def test_closing_the_scan_cancels_queued_pairs(self, monkeypatch):
        checked, cancelled = [], []

        class QueueingPool:
            """Queues every pair at map() time, as a process pool does; shutdown
            runs what is still queued unless cancel_futures drops it."""

            def __init__(self, max_workers):
                self.queue = []

            def map(self, fn, items, chunksize=1):
                self.queue = [(fn, item) for item in items]

                def results():
                    while self.queue:
                        fn, item = self.queue.pop(0)
                        checked.append(item)
                        yield fn(item)

                return results()

            def shutdown(self, wait=True, *, cancel_futures=False):
                if cancel_futures:
                    cancelled.extend(item for _, item in self.queue)
                    self.queue = []
                for fn, item in self.queue:
                    checked.append(item)
                    fn(item)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", QueueingPool)
        monkeypatch.setattr(search.os, "sched_getaffinity", lambda pid: {0, 1})
        pairs = [(fam(g), fam("empty:2")) for g in ("path:4", "path:3", "cycle:4", "complete:3")]
        findings = scan(pairs, ScanConfig(theorem="thm32", workers=2))
        assert next(findings).verdict == "non_sufficiency_witness"
        findings.close()
        assert len(checked) == 1
        assert len(cancelled) == 3

    def test_one_worker_reads_pairs_as_it_goes(self):
        # the first finding needs the first run and the pair that ends it
        gs = [fam(t) for t in ("path:2", "path:3", "path:4", "path:5", "cycle:3", "cycle:4",
                               "cycle:5", "complete:4")]
        hs = [fam(t) for t in ("path:2", "path:3", "path:4", "cycle:3", "cycle:4")]
        pulled = []

        def counting():
            for pair in ((g, h) for g in gs for h in hs):
                pulled.append(pair)
                yield pair

        findings = scan(counting(), ScanConfig(theorem="thm35", workers=1))
        first = next(findings)
        findings.close()
        assert (first.g_graph6, first.h_graph6) == (to_graph6(gs[0]).decode(), to_graph6(hs[0]).decode())
        assert len(pulled) == len(hs) + 1 < len(gs) * len(hs)

    def test_finding_roundtrips_through_json(self):
        config = ScanConfig(theorem="thm32")
        finding = next(iter(scan([(fam("path:4"), fam("empty:2"))], config)))
        again = Finding.from_dict(json.loads(json.dumps(finding.to_dict())))
        assert again == finding

    def test_findings_line_is_pinned(self, tmp_path):
        out = tmp_path / "findings.jsonl"
        list(scan([(fam("path:4"), fam("empty:2"))], ScanConfig(theorem="thm32", findings_path=out)))
        assert out.read_bytes() == (
            b'{"alpha_g": 2, "f_h": 2, "f_product": 6, "g_graph6": "Ch", "h_graph6": "A?", '
            b'"theorem_id": "thm32", "verdict": "non_sufficiency_witness", '
            b'"witness_orders": [5, 6]}\n'
        )
        data = json.loads(out.read_text())
        data["unknown"] = 1
        assert Finding.from_dict(data).witness_orders == (5, 6)

    def test_truncated_findings_line_names_its_line(self, tmp_path):
        out = tmp_path / "findings.jsonl"
        list(scan([(fam("path:4"), fam("empty:2"))], ScanConfig(theorem="thm32", findings_path=out)))
        line = out.read_text()
        out.write_text(line + line[:20] + "\n")
        with pytest.raises(ValueError, match=r"^line 2: .* \(column 21\)$"):
            read_findings(out)

    def test_findings_record_without_a_field_names_it(self, tmp_path):
        out = tmp_path / "findings.jsonl"
        list(scan([(fam("path:4"), fam("empty:2"))], ScanConfig(theorem="thm32", findings_path=out)))
        data = json.loads(out.read_text())
        del data["g_graph6"]
        out.write_text("\n" + json.dumps(data) + "\n")
        with pytest.raises(ValueError, match=r"^line 2: finding has no field 'g_graph6'$"):
            read_findings(out)

    def test_findings_record_that_is_not_an_object_names_its_line(self, tmp_path):
        out = tmp_path / "findings.jsonl"
        list(scan([(fam("path:4"), fam("empty:2"))], ScanConfig(theorem="thm32", findings_path=out)))
        out.write_text(out.read_text() + "[1, 2]\n")
        with pytest.raises(ValueError, match=r"^line 2: finding is not a JSON object$"):
            read_findings(out)

    @pytest.mark.parametrize(
        "field,value,kind",
        [
            ("witness_orders", 5, "a list of integers"),
            ("witness_orders", [5, "6"], "a list of integers"),
            ("f_product", True, "an integer"),
            ("alpha_g", "2", "an integer"),
            ("g_graph6", 3, "a string"),
            ("verdict", None, "a string"),
        ],
    )
    def test_findings_field_of_the_wrong_type_names_it(self, tmp_path, field, value, kind):
        out = tmp_path / "findings.jsonl"
        list(scan([(fam("path:4"), fam("empty:2"))], ScanConfig(theorem="thm32", findings_path=out)))
        data = json.loads(out.read_text())
        data[field] = value
        out.write_text(json.dumps(data) + "\n")
        with pytest.raises(ValueError, match=rf"^line 1: finding field '{field}' is not {kind}$"):
            read_findings(out)

    @pytest.mark.parametrize(
        "field,value,known",
        [
            ("theorem_id", "thm99", "('thm31', 'thm32', 'thm35')"),
            ("verdict", "bogus", "('consistent', 'non_sufficiency_witness', 'theorem_violation')"),
        ],
        ids=["theorem_id", "verdict"],
    )
    def test_findings_field_that_no_scan_writes_names_it(self, tmp_path, field, value, known):
        out = tmp_path / "findings.jsonl"
        list(scan([(fam("path:4"), fam("empty:2"))], ScanConfig(theorem="thm32", findings_path=out)))
        data = json.loads(out.read_text())
        data[field] = value
        out.write_text(out.read_text() + json.dumps(data) + "\n")
        with pytest.raises(ValueError) as exc:
            read_findings(out)
        assert str(exc.value) == f"line 2: finding field '{field}' is not one of {known}"

    @pytest.mark.parametrize(
        "line,message",
        [
            (b"\xff", r"non-ASCII byte 0xff \(column 1\)"),
            (b'{"g_graph6": "C\xe9"}', r"non-ASCII byte 0xe9 \(column 16\)"),
        ],
    )
    def test_findings_line_with_a_non_ascii_byte_names_its_line(self, tmp_path, line, message):
        out = tmp_path / "findings.jsonl"
        list(scan([(fam("path:4"), fam("empty:2"))], ScanConfig(theorem="thm32", findings_path=out)))
        out.write_bytes(out.read_bytes() + line + b"\n")
        with pytest.raises(ValueError, match=rf"^line 2: {message}$"):
            read_findings(out)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ScanConfig(theorem="thm99")
        with pytest.raises(ValueError):
            ScanConfig(theorem="thm31", workers=0)

    @pytest.mark.parametrize(
        "field,value",
        [("max_order", None), ("max_order", 0), ("max_order", -3), ("max_order", 24.0),
         ("workers", "2"), ("workers", 2.5), ("max_order", True), ("workers", True)],
    )
    def test_config_rejects_a_bad_field_by_name(self, field, value):
        # at construction, not at the first pair of a scan
        with pytest.raises(ValueError, match=rf"^{field} must be an int of at least 1, got "):
            ScanConfig(theorem="thm35", **{field: value})

    @pytest.mark.parametrize("value", [3, 0, True, 2.5, b"findings.jsonl"])
    def test_config_rejects_a_findings_path_that_is_not_a_path(self, value):
        # open() would take an int or a bool as a file descriptor and close it
        with pytest.raises(ValueError, match=r"^findings_path must be None, a str or a path, got "):
            ScanConfig(theorem="thm35", findings_path=value)


class TestReadGraph6Stream:
    def test_reads_in_order_skipping_blanks(self):
        source = io.StringIO("@\n\nA_\n   \nA?\n")
        graphs = list(read_graph6_stream(source))
        assert [g.order for g in graphs] == [1, 2, 2]
        assert graphs[1].edge_count == 1

    def test_header_prefix_tolerated(self):
        source = io.StringIO(">>graph6<<A_\n")
        graphs = list(read_graph6_stream(source))
        assert graphs[0].edge_count == 1

    def test_bare_header_line_is_skipped(self):
        # a prefix with no record after it is a blank line, in strict mode too
        source = io.StringIO("@\n>>graph6<<\n  >>graph6<<  \nA_\n")
        assert [g.order for g in read_graph6_stream(source)] == [1, 2]

    def test_strict_mode_names_line(self):
        source = io.StringIO("@\nnot-a-graph\n")
        with pytest.raises(Graph6Error, match="line 2"):
            list(read_graph6_stream(source))

    def test_skip_mode_logs_and_continues(self, caplog):
        source = io.StringIO("@\nnot-a-graph\nA_\n")
        with caplog.at_level(logging.WARNING, logger="wfcover.search"):
            graphs = list(read_graph6_stream(source, strict=False))
        assert [g.order for g in graphs] == [1, 2]
        assert any("line 2" in rec.message for rec in caplog.records)

    def test_reads_from_path(self, tmp_path):
        path = tmp_path / "graphs.g6"
        path.write_text("Cl\nDlc\n")
        graphs = list(read_graph6_stream(path))
        assert [g.order for g in graphs] == [4, 5]

    def test_non_ascii_line_in_file_is_rejected_per_line(self, tmp_path, caplog):
        path = tmp_path / "graphs.g6"
        # mixed line endings: every one of them ends a line
        path.write_bytes("Cl\r\n\u00e9\rDlc\n".encode("utf-8"))
        with pytest.raises(Graph6Error, match=r"line 2: .*byte offset 0"):
            list(read_graph6_stream(path))
        with caplog.at_level(logging.WARNING, logger="wfcover.search"):
            graphs = list(read_graph6_stream(path, strict=False))
        assert [g.order for g in graphs] == [4, 5]
        assert any("line 2" in rec.message for rec in caplog.records)
