"""Tests of the benchmark's own code; run with ``python3 -m pytest perfbench/tests``."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
import speed
import workloads as wl
from tracer import Span, Tracer

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_self_time_subtracts_direct_children_only():
    t = Tracer()
    t.spans = [Span(0, 0, None, "root", 0.0, 10.0),
               Span(0, 1, 0, "a", 1.0, 4.0),
               Span(0, 2, 1, "a.inner", 2.0, 3.0),
               Span(0, 3, 0, "b", 5.0, 9.0)]
    assert t.self_times() == [3.0, 2.0, 1.0, 4.0]
    assert t.totals()["a"] == {"calls": 1, "total_s": 3.0, "self_s": 2.0}
    assert t.root_coverage() == pytest.approx(1.0)


def test_patch_records_nested_spans_and_restore_puts_originals_back():
    import voicequal
    from voicequal import llf
    original = llf.frame_signal
    signal = voicequal.generate_synthetic("clean", duration=0.5)
    t = Tracer()
    assert t.patch("llf", "extract_llf_vector", "llf.extract_llf_vector")
    assert t.patch("llf", "frame_signal", "framing.frame_signal", capture=True)
    assert not t.patch("llf", "no_such_function", "x")
    try:
        t.trace_id = 7
        traced = llf.extract_llf_vector(signal)
    finally:
        t.restore()
    assert llf.frame_signal is original
    assert traced == llf.extract_llf_vector(signal)
    names = [s.name for s in t.spans]
    assert names == ["llf.extract_llf_vector", "framing.frame_signal"]
    assert {s.trace_id for s in t.spans} == {7}
    assert t.spans[1].parent_id == t.spans[0].span_id
    (name, args, result), = t.captured
    assert name == "framing.frame_signal" and args[0] is signal and result.n_frames > 0


def test_p90_interpolates_and_handles_one_sample():
    assert run.p90([5.0]) == 5.0
    assert run.p90([float(i) for i in range(11)]) == pytest.approx(9.0)


class _Op:
    files, audio_s = 1, 1.0

    def __init__(self, id, outputs, reference=(1.0,)):
        self.id, self._outputs, self.reference = id, list(outputs), reference

    def run(self, tick):
        tick()
        value = self._outputs.pop(0)
        if isinstance(value, Exception):
            raise value
        return value

    def output(self, raw):
        return (raw,)

    def values(self, output):
        return list(output)

    def check(self, output):
        return None if wl.close(output, self.reference, 0.0, 0.5) else "mismatch"


def test_book_counts_errors_mismatches_and_changed_outputs():
    book = run.Book()
    op = _Op("x", [1.0, RuntimeError("boom"), 3.0, 1.25])
    for _ in range(4):
        book.attempt(op)
    assert book.attempted == 4
    assert len(book.failures) == 3  # exception, reference mismatch, changed output
    assert "boom" in book.failures[0]


def test_speed_clock_scales_each_stretch_by_the_kernel_times_around_it(monkeypatch):
    # kernel times in units of REFERENCE_S: warm-up, before, after stretch 1, after stretch 2
    kernel = iter([2.0, 2.0, 4.0, 6.0])
    monkeypatch.setattr(speed, "kernel_s", lambda: next(kernel) * speed.REFERENCE_S)
    now = iter([0.0, 1.0, 1.0, 3.0, 3.0])  # stretch 1 lasts 1 s, stretch 2 lasts 2 s
    monkeypatch.setattr(speed.time, "perf_counter", lambda: next(now))
    clock = speed.SpeedClock(warmup=1)
    clock.start()
    clock.tick()
    raw, scaled = clock.stop()
    assert raw == 3.0
    assert scaled == pytest.approx(1.0 * 2 / (2 + 4) + 2.0 * 2 / (4 + 6))


def test_book_scales_only_with_a_speed_clock():
    book = run.Book()
    elapsed, scaled, raw = book.attempt(_Op("x", [1.0]))
    assert scaled == elapsed and raw == 1.0


def test_pick_variants_is_seeded_interleaved_and_distinct_per_kind():
    a = wl.pick_variants(3, 40, 30)
    assert a == wl.pick_variants(3, 40, 30)
    assert a != wl.pick_variants(4, 40, 30)
    assert [k for k, _ in a[:4]] == list(wl.KINDS)
    for kind in wl.KINDS:
        chosen = [v for k, v in a if k == kind]
        assert len(set(chosen)) == 30 and all(0 <= v < 40 for v in chosen)


def test_every_pool_input_has_a_reference():
    ref = wl.load_reference()
    assert ref["llf_keys"] == list(wl.voicequal.LLF_KEYS)
    ids = [wl.long_clip(k, v, s).id for k in wl.KINDS for v in range(wl.LONG_VARIANTS)
           for s in (False, True)]
    ids += [wl.rank_clip(k, v).id for k in wl.KINDS for v in range(wl.RANK_POOL)]
    assert all(i in ref["llf"] for i in ids)
    assert all(wl.batch_clip(k, v).id in ref["scores"]
               for k in wl.KINDS for v in range(wl.BATCH_POOL))


def test_reference_ranking_agrees_with_the_library():
    import voicequal
    from voicequal import evaluation
    rng = np.random.default_rng(0)
    labels = ["Jit"] * 3 + ["Shim"] * 3 + ["Brea"] * 3 + [evaluation.NEUTRAL_LABEL] * 4
    vectors = rng.normal(size=(len(labels), len(voicequal.LLF_KEYS)))
    samples = [evaluation.LabeledSample(f"s{i}", lab, dict(zip(voicequal.LLF_KEYS, row)))
               for i, (lab, row) in enumerate(zip(labels, vectors.tolist()))]
    table = voicequal.load_table()
    expected = wl.reference_ranking(samples, vectors, table)
    stats = voicequal.fit_stats([s.llf for s in samples])
    for q in wl.RANK_QUALITIES:
        report = evaluation.evaluate_pairs(evaluation.form_pairs(samples, q), stats, table)
        assert report.per_quality[q].total_pairs == expected["total"][q]
        assert report.per_quality[q].correct == expected["correct"][q]
    lib = [[voicequal.score_all(s.llf, stats, table).scores[q] for q in voicequal.QUALITY_IDS]
           for s in samples]
    assert wl.close(lib, expected["scores"], 1e-9, 1e-12)


def _run(args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("workload", ["extract-long", "score-batch", "rank-corpus"])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_prints_the_listed_metrics_and_passes_its_checks(workload, trace):
    proc = _run(["--workload", workload, "--seed", "5", "--seconds", "1",
                 "--trace", trace, "--smoke"])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == \
        {k: v["unit"] for k, v in result["metrics"].items()}
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_exits_nonzero_without_printing_a_result_when_sources_are_missing():
    bare = ROOT / ".bench_build" / "perfbench-test-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = _run(["--workload", "score-batch", "--seed", "1", "--seconds", "1",
                     "--trace", "0"], cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout == ""
