"""Tests of the benchmark harness: pinned checks, span self times, patching."""

from __future__ import annotations

import json
import random
import signal
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from run import end_to_end, wfcover_modules  # noqa: E402
from workloads import (  # noqa: E402
    DENSE_ITEMS,
    LADDER_ITEMS,
    CliWorkload,
    PassResult,
    check_findings,
    check_output,
    load_program,
    run_command,
)


def item(items, name):
    return next(i for i in items if i.name == name)


@pytest.fixture(scope="module")
def program():
    return load_program(wfcover_modules())


SMALL = (
    item(LADDER_ITEMS, "thm35 C5oC4"),
    item(DENSE_ITEMS, "thm35 K5oC4"),
    item(DENSE_ITEMS, "thm35 K4oC5"),
)


@pytest.mark.parametrize("seed", [3, 11])
def test_relabelled_inputs_keep_pinned_invariants(program, seed):
    workload = CliWorkload("small", SMALL, relabelled=True)
    inputs = workload.setup(program, random.Random(seed), BENCH, traced=False)
    argvs = {tuple(argv) for batch in inputs[:2] for _, argv in batch}
    assert len(argvs) > len(SMALL)  # the seed really relabels
    for index in range(2):
        result = workload.run_pass(program, inputs, index, None)
        assert result.problems == []
        assert (result.attempted, result.failed, result.checks) == (3, 0, 3)


def test_tampered_report_is_a_failure(program):
    target = item(LADDER_ITEMS, "thm35 C5oC4")
    workload = CliWorkload("one", (target,), relabelled=False)
    inputs = workload.setup(program, random.Random(1), BENCH, traced=False)
    code, text, _ = run_command(program, inputs[0][0][1], None)
    assert check_output(target.expect, code, text) is None

    doc = json.loads(text)
    doc["ground_truth"]["f_product"] += 1
    tampered_text = json.dumps(doc)
    assert "f_product" in check_output(target.expect, code, tampered_text)

    def tampered_run(argv, stdout, stderr):
        stdout.write(tampered_text)
        return code

    fake = load_program(dict(program.modules, cli=SimpleNamespace(run=tampered_run)))
    result = workload.run_pass(fake, inputs, 0, None)
    assert (result.attempted, result.failed) == (1, 1)


def test_wrong_exit_code_and_verdicts_are_failures():
    expect = item(DENSE_ITEMS, "thm35 K5oC4").expect
    doc = {"verdict": "consistent", "ground_truth": {"f_product": 3, "maximal_forest_orders": [3]},
           "witnesses": [{"verified": True}] * 25}
    assert check_output(expect, 0, json.dumps(doc)) is None
    assert "exit code" in check_output(expect, 2, json.dumps(doc))
    assert "verdict" in check_output(expect, 0, json.dumps(dict(doc, verdict="theorem_violation")))
    assert "verification" in check_output(
        expect, 0, json.dumps(dict(doc, witnesses=[{"verified": False}] * 25))
    )
    assert check_output(expect, 0, "not json") is not None


def test_scan_counts_are_checked():
    good = {"consistent": 156, "non_sufficiency_witness": 52}
    lines = [json.dumps({"verdict": "non_sufficiency_witness"})] * 52
    assert check_findings("thm32", good, lines) is None
    assert check_findings("thm32", {"consistent": 157, "non_sufficiency_witness": 51}, lines)
    assert check_findings("thm32", {"consistent": 155, "non_sufficiency_witness": 52}, lines)
    assert check_findings("thm32", good, lines[:-1])


def test_pass_times_are_scaled_to_reference_speed(program, monkeypatch):
    target = item(DENSE_ITEMS, "thm35 K5oC4")
    workload = CliWorkload("one", (target,), relabelled=False)
    inputs = workload.setup(program, random.Random(1), BENCH, traced=False)
    code, text, _ = run_command(program, inputs[0][0][1], None)
    monkeypatch.setattr(workloads, "run_command", lambda *args: (code, text, 0.5))
    monkeypatch.setattr(speed, "probe", lambda: 2 * speed.REFERENCE_S)  # a machine at half speed
    result = workload.run_pass(program, inputs, 0, None)
    assert result.speed == [0.5]
    assert list(result.segments.values()) == [(0.25, 1)]


def test_sampling_probes_while_work_runs_then_restores_the_alarm():
    previous = signal.getsignal(signal.SIGALRM)
    with speed.sampled() as samples:
        end = time.perf_counter() + 3.5 * speed.SAMPLE_INTERVAL_S
        while time.perf_counter() < end:
            pass
    assert len(samples) >= 2
    assert all(seconds > 0 for _, seconds in samples)
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_end_to_end_takes_each_segments_median():
    passes = []
    for a, b in [(1.0, 4.0), (3.0, 4.0), (2.0, 4.0)]:
        passes.append(PassResult(checks=2, segments={("a", 0): (a, 1), ("b", 0): (b, 1)},
                                 op_cpu={"a": a, "b": b}, speed=[1.0, 1.0]))
    metrics, samples = end_to_end(passes, [0.2, 0.1, 0.3])
    assert samples == 6  # each operation of each pass, at its median of 2.0 or 4.0 s
    assert metrics["checks_per_s"][0] == pytest.approx(6 / (3 * 2.0 + 3 * 4.0))
    assert metrics["check_ms_p50"][0] == pytest.approx(3000.0)
    assert metrics["cpu_s"][0] == pytest.approx(6.0)
    assert metrics["setup_s"][0] == 0.2


def test_self_time_on_a_synthetic_tree():
    # root [0,10]; a [1,4] and b [3,6] overlap, so together they cover [1,6];
    # a has child c [2,3]; d [9,12] runs past the root and is clipped to [9,10].
    start = [0.0, 1.0, 3.0, 2.0, 9.0]
    end = [10.0, 4.0, 6.0, 3.0, 12.0]
    parent = [-1, 0, 0, 1, 0]
    assert spans.self_times(start, end, parent) == pytest.approx([4.0, 2.0, 3.0, 1.0, 3.0])


def test_recorded_self_times_add_up_to_the_root():
    ticks = iter(range(100))
    rec = spans.Recorder(clock=lambda: float(next(ticks)))

    def leaf():
        return "x"

    def middle():
        return rec.call("inner", leaf) + rec.call("inner", leaf)

    root = rec.open("root")
    rec.call("outer", middle)
    rec.call("outer", leaf)
    rec.close(root)
    totals = spans.totals(rec)
    assert totals["inner"][0] == 2 and totals["outer"][0] == 2
    assert sum(s for _, s in totals.values()) == pytest.approx(rec.end[root] - rec.start[root])
    assert list(rec.parent) == [-1, 0, 1, 1, 0]


def test_patching_records_spans_and_restores_every_binding(program):
    modules = program.modules
    before = {name: dict(vars(mod)) for name, mod in modules.items()}
    rec = spans.Recorder()
    triples, missing = spans.bindings(modules, rec)
    assert missing == []
    theorems = modules["theorems"]
    with spans.patched(triples):
        assert theorems.lexicographic is not before["theorems"]["lexicographic"]
        run_command(program, ["check-theorem", "thm35", "--g", "cycle:5", "--h", "cycle:4"], rec)
    names = {rec.names[n] for n in rec.name_id}
    assert {"cli.run", "cli.render", "theorems.check", "theorems.witness", "products.build",
            "forests.catalogue", "forests.verify", "independence.catalogue"} <= names
    assert rec.counters["forests.kept"] == 800  # maximal forests of C5oC4
    for name, mod in modules.items():
        after = vars(mod)
        assert after.keys() == before[name].keys()
        changed = [k for k in after if after[k] is not before[name][k]]
        assert changed == [], f"wfcover.{name} still rebinds {changed}"


def test_cli_output_is_unchanged_by_tracing(program):
    argv = ["check-theorem", "thm35", "--g", "complete:5", "--h", "cycle:4"]
    code, plain, _ = run_command(program, argv, None)
    rec = spans.Recorder()
    with spans.patched(spans.bindings(program.modules, rec)[0]):
        traced_code, traced, _ = run_command(program, argv, rec)
    assert (traced_code, traced) == (code, plain)
