"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import importlib
import json
import signal
import sys
from pathlib import Path
from time import perf_counter

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import calibrate  # noqa: E402
import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Span, Tracer, self_times  # noqa: E402

from sl2magical import crosscheck, linalg, matrixoracle  # noqa: E402
from sl2magical.orbits import Partition  # noqa: E402
from sl2magical.rootsystems import LieType  # noqa: E402

_run = workloads.run_cli


@pytest.mark.parametrize("workload", ["verify", "classify", "slodowy"])
def test_same_seed_same_commands(workload):
    assert workloads.generate(workload, 7) == workloads.generate(workload, 7)


def test_command_counts():
    assert len(workloads.generate("classify", 0)) == 141 + 12
    cmds = workloads.generate("slodowy", 0)
    assert len(cmds) == 889
    assert sum(c.argv[1] == "sl" for c in cmds) == 270


def test_seed_changes_only_order_and_genus():
    a, b = workloads.generate("classify", 1), workloads.generate("classify", 2)
    assert a != b and sorted(a) == sorted(b)
    a, b = workloads.generate("slodowy", 1), workloads.generate("slodowy", 2)
    assert [c.argv[:-4] for c in a] != [c.argv[:-4] for c in b]
    assert {c.argv[:-4] for c in a} == {c.argv[:-4] for c in b}


@pytest.mark.parametrize("workload", ["classify", "slodowy"])
def test_commands_exit_and_check_clean(workload):
    reference = checks.load_reference()
    checker = checks.check_classify if workload == "classify" else checks.check_slodowy
    bad = []
    for cmd in workloads.generate(workload, 0):
        if cmd.argv[1] in workloads.NO_RECORD_TOKENS:
            continue  # known defect, see test_no_record_tokens_exit_3
        code, out = _run(cmd.argv)
        reason = checker(cmd.argv, cmd.expect_exit, code, out, reference)
        if reason is not None:
            bad.append((cmd.argv, reason))
    assert bad == []


@pytest.mark.xfail(reason="classify prints 0 rows and exits 0 for forms with no curated "
                          "record; it should exit 3", strict=False)
def test_no_record_tokens_exit_3():
    assert [_run(("classify", tok, "--format", "json"))[0]
            for tok in workloads.NO_RECORD_TOKENS] == [3] * len(workloads.NO_RECORD_TOKENS)


def test_verify_command_checks_clean():
    (cmd,) = workloads.generate("verify", 0)
    assert checks.check_verify(crosscheck.run_all(int(cmd.argv[1]))) is None


def test_checks_reject_wrong_outputs():
    reference = checks.load_reference()
    argv = ("classify", "su", "2", "3", "--format", "json")
    good = '{"realform": "su(2,3)", "rows": [{"orbit": "[2^2,1]", "verdict": "OddMagical", ' \
           '"m_minus_h": 0, "g0_minus_2c": 0, "centralizer_compact": true, ' \
           '"even_triple": false, "source": "formula"}]}'
    assert checks.check_classify(argv, 0, 0, good, reference) is None
    assert checks.check_classify(argv, 0, 2, good, reference) is not None
    wrong = good.replace("OddMagical", "EvenMagical")
    assert checks.check_classify(argv, 0, 0, wrong, reference) is not None


def test_partition_label_matches_package():
    for parts in [(2, 2, 1), (3,), (2, 1, 1), (4, 4, 2, 1, 1, 1)]:
        assert checks.partition_label(parts) == str(Partition.of(*parts))


def test_self_times_on_nested_tree():
    spans = [
        Span("root", 0.0, 10.0, -1),
        Span("a", 1.0, 4.0, 0),
        Span("b", 2.0, 3.0, 1),
        Span("a", 5.0, 6.0, 0),
        Span("root", 11.0, 12.0, -1),
    ]
    assert self_times(spans) == {"root": 10.0 - 3.0 - 1.0 + 1.0, "a": 2.0 + 1.0, "b": 1.0}


def test_speed_is_relative_to_the_reference_chunk():
    ref = calibrate.REFERENCE_CHUNK_S
    assert calibrate.speed([ref, ref]) == pytest.approx(1.0)
    assert calibrate.speed([2 * ref, 2 * ref]) == pytest.approx(0.5)


def test_sampler_time_is_left_out_and_rescaled():
    def call(argv):
        end = perf_counter() + 0.2
        while perf_counter() < end:
            pass
        return 0, ""

    previous = signal.getsignal(signal.SIGALRM)
    with calibrate.Sampler() as sampler:
        _, latencies, _, wall = run._timed([workloads.Command(("x",), 0)], call, sampler)
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(sampler.chunks) >= 5
    assert sampler.busy >= sum(sampler.chunks)
    assert latencies[0] == pytest.approx(wall, abs=1e-3)
    assert wall == pytest.approx(0.2 - sampler.busy, abs=0.02)


def test_rescaled_pass_times_are_raw_times_times_speed(throwaway, monkeypatch):
    monkeypatch.setattr(run, "executor", lambda workload: (lambda argv: (0, ""),
                                                           lambda cmd, result: None))
    result = run.run_pass([workloads.Command(("x",), 0)], "classify", rescale=True)
    assert result["speed"] > 0
    assert result["wall"] == pytest.approx(result["raw_wall"] * result["speed"])


def test_tracer_rebinds_imported_copies():
    orig = linalg.integer_rank
    assert matrixoracle.integer_rank is orig
    tracer = Tracer()
    tracer.install()
    try:
        assert matrixoracle.integer_rank is linalg.integer_rank is not orig
        matrixoracle.oracle_sl2_data(matrixoracle.build_matrix_triple(
            LieType.of("A", 2), Partition.of(2, 1)))
    finally:
        tracer.uninstall()
    assert matrixoracle.integer_rank is linalg.integer_rank is orig
    counts = tracer.pass_counts()
    assert counts["linalg.integer_rank.calls"] > 0
    assert counts["matrixoracle.build_matrix_triple.distinct_ratio"] == 1.0
    names = {s.name: s for s in tracer.spans}
    rank_parent = tracer.spans[names["linalg.integer_rank"].parent].name
    assert rank_parent == "matrixoracle.oracle_sl2_data"


@pytest.fixture
def throwaway(tmp_path, monkeypatch):
    """A package with a module-level memo, benchmarked in place of sl2magical."""
    pkg = tmp_path / "throwaway_pkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "memo.py").write_text("CALLS = []\n\n\ndef remember(argv):\n"
                                 "    CALLS.append(argv)\n    return len(CALLS)\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    monkeypatch.setattr(run, "PACKAGE", "throwaway_pkg")
    yield
    for name in [n for n in sys.modules if n.startswith("throwaway_pkg")]:
        del sys.modules[name]


def test_module_memo_does_not_carry_over_between_passes(throwaway, monkeypatch):
    def executor(workload):
        memo = importlib.import_module("throwaway_pkg.memo")
        return memo.remember, lambda cmd, n: None if n == 1 else f"memo holds {n} calls"

    monkeypatch.setattr(run, "executor", executor)
    cmds = [workloads.Command(("anything",), 0)]
    assert [run.run_pass(cmds, "classify")["failures"] for _ in range(3)] == [[]] * 3


@pytest.mark.parametrize("outcome, exempt", [("exit 0", True), ("exit 2", False),
                                             ("raise", False)])
def test_only_the_known_defect_is_exempt(throwaway, monkeypatch, outcome, exempt):
    def call(argv):
        if outcome == "raise":
            raise RuntimeError("broken")
        return int(outcome.split()[1]), ""

    def check(cmd, result):
        return checks.check_classify(cmd.argv, cmd.expect_exit, *result, {})

    monkeypatch.setattr(run, "executor", lambda workload: (call, check))
    cmd = workloads.Command(("classify", workloads.NO_RECORD_TOKENS[0], "--format", "json"), 3)
    failures = run.run_pass([cmd], "classify")["failures"]
    assert len(failures) == 1
    assert (run.unexpected_failures("classify", failures) == []) == exempt


def test_benchmark_json_lists_the_emitted_metrics():
    with open(Path(__file__).resolve().parent.parent / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    tracer = Tracer()
    layer_names = {n for n in tracer.pass_counts() if not n.endswith(".errors")}
    layer_names |= set(tracer.pass_self_times()) | {"trace_overhead_s"}
    assert {m["name"] for m in spec["per_layer"]} == layer_names
    assert {m["name"] for m in spec["end_to_end"]} == set(run.END_TO_END)
