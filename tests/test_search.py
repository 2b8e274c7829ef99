"""Pair scanning, findings persistence, and graph6 stream input."""

from __future__ import annotations

import concurrent.futures
import io
import json
import logging

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


def fam(text: str) -> Graph:
    return generate(parse_family(text))


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

    def test_worker_pool_matches_sequential(self, tmp_path, monkeypatch):
        monkeypatch.setattr(search.os, "sched_getaffinity", lambda pid: {0, 1})
        graphs = [fam("path:2"), fam("path:3"), fam("cycle:3"), fam("cycle:4"), fam("path:4")]
        pairs = [(g, h) for g in graphs for h in graphs]
        runs = []
        for workers in (1, 2):
            out = tmp_path / f"findings{workers}.jsonl"
            config = ScanConfig(theorem="thm35", workers=workers, findings_path=out)
            runs.append((list(scan(pairs, config)), out.read_bytes()))
        assert runs[0] == runs[1]
        assert runs[0][1]  # some finding was written

    @pytest.mark.parametrize("cpus,workers,expected", [(2, 64, [2]), (3, 2, [2]), (1, 8, [])])
    def test_pool_is_capped_at_usable_cpus(self, monkeypatch, cpus, workers, expected):
        started = []

        class RecordingPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def map(self, fn, items, chunksize=1):
                return map(fn, items)

            def shutdown(self, wait=True, *, cancel_futures=False):
                pass

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(search.os, "sched_getaffinity", lambda pid: set(range(cpus)))
        pairs = [(fam("path:4"), fam("empty:2"))]
        findings = list(scan(pairs, ScanConfig(theorem="thm32", workers=workers)))
        assert started == expected
        assert [f.verdict for f in findings] == ["non_sufficiency_witness"]

    @pytest.mark.parametrize("cpus,workers,expected", [(3, 8, [3]), (4, 2, [2]), (None, 8, [])])
    def test_pool_is_capped_at_cpu_count_without_affinity(
        self, monkeypatch, cpus, workers, expected
    ):
        # macOS and Windows have no sched_getaffinity; os.cpu_count() may be None
        started = []

        class RecordingPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def map(self, fn, items, chunksize=1):
                return map(fn, items)

            def shutdown(self, wait=True, *, cancel_futures=False):
                pass

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.delattr(search.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(search.os, "cpu_count", lambda: cpus)
        pairs = [(fam("path:4"), fam("empty:2"))]
        findings = list(scan(pairs, ScanConfig(theorem="thm32", workers=workers)))
        assert started == expected
        assert [f.verdict for f in findings] == ["non_sufficiency_witness"]

    def test_pool_gets_one_task_per_run_of_a_first_factor(self, monkeypatch):
        tasks = []

        class RecordingPool:
            def __init__(self, max_workers):
                pass

            def map(self, fn, items, chunksize=1):
                items = list(items)
                tasks.extend(items)
                return map(fn, items)

            def shutdown(self, wait=True, *, cancel_futures=False):
                pass

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(search.os, "sched_getaffinity", lambda pid: {0, 1})
        gs = [fam("path:3"), fam("cycle:4")]
        hs = [fam("path:2"), fam("path:3"), fam("cycle:3")]
        pairs = [(g, h) for g in gs for h in hs]
        findings = list(scan(pairs, ScanConfig(theorem="thm35", workers=2)))
        assert len(tasks) == 2
        sequential = list(scan(pairs, ScanConfig(theorem="thm35", workers=1)))
        assert findings == sequential
        assert [(f.g_graph6, f.h_graph6) for f in findings] == [
            (to_graph6(g).decode(), to_graph6(h).decode()) for g, h in pairs
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
        findings = search._check_run(("thm35", g, hs, 24))
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
