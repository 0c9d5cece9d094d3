import multiprocessing
import os
import sys
import threading
import time
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from voicequal import formants
from voicequal.audio_io import AudioSignal
from voicequal.errors import AudioIOError, InsufficientVoicingError
from voicequal.formants import LPC_BLOCK, MAX_WORKERS, estimate_formants
from voicequal.framing import frame_signal
from voicequal.llf import LLF_KEYS, extract_llf_vector, validate_llf
from voicequal.periods import compute_period_llfs
from voicequal.pitch import PitchTrack, track_pitch
from voicequal.spectral import compute_spectral_llfs
from voicequal.synth import generate_synthetic

from conftest import sine_signal


@pytest.fixture(scope="module", autouse=True)
def most_blocks_in_flight():
    """The voiced-frame pass runs with as many blocks at once as it ever
    does, whatever the number of CPUs here, so the memory bars below hold
    for the pooled pass and the results for both paths."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(formants, "WORKERS", MAX_WORKERS)
        yield


@pytest.fixture(scope="module")
def vowel():
    return generate_synthetic("clean", f0=150.0, duration=1.0, seed=0)


def test_vector_complete_and_finite(vowel):
    vector = extract_llf_vector(vowel)
    assert list(vector) == list(LLF_KEYS)
    assert all(np.isfinite(v) for v in vector.values())
    assert vector["jitterLocal"] >= 0
    assert vector["shimmerLocaldB"] >= 0
    for n in (1, 2, 3):
        assert vector[f"F{n}frequency"] > 0
        assert vector[f"F{n}bandwidth"] > 0


def test_determinism(vowel):
    a = extract_llf_vector(vowel)
    b = extract_llf_vector(vowel)
    assert a == b


def test_too_short_rejected():
    sig = generate_synthetic("clean", f0=150.0, duration=0.5, seed=0)
    short = AudioSignal(sig.samples[:3200], sig.sample_rate_hz, "short")  # 200 ms
    with pytest.raises(AudioIOError, match="too short"):
        extract_llf_vector(short)


@pytest.mark.parametrize("stage", [frame_signal, extract_llf_vector])
@pytest.mark.parametrize("make", [
    lambda: sine_signal(220, duration=0.5, fs=44100),
    lambda: sine_signal(220, duration=0.5, fs=8000),
    lambda: generate_synthetic("clean", f0=130.0, duration=0.5, seed=3, sample_rate=44100),
], ids=["sine-44.1k", "sine-8k", "synthetic-44.1k"])
def test_other_sample_rates_rejected(stage, make):
    # LLFs are only comparable from one analysis rate; load_audio converts to it
    sig = make()
    with pytest.raises(AudioIOError, match=rf"{sig.sample_rate_hz} Hz.*load_audio"):
        stage(sig)


def test_unvoiced_rejected():
    rng = np.random.default_rng(0)
    noise = AudioSignal(0.5 * rng.standard_normal(16000), 16000, "noise")
    with pytest.raises(InsufficientVoicingError):
        extract_llf_vector(noise)


def test_amplitude_scaling_invariances(vowel):
    full = extract_llf_vector(vowel)
    half = extract_llf_vector(
        AudioSignal(0.5 * vowel.samples, vowel.sample_rate_hz, "half"))
    assert full["Loudness"] - half["Loudness"] == pytest.approx(6.02, abs=0.1)
    for key in ("jitterLocal", "F0semitoneFrom27.5Hz", "alphaRatio",
                "hammarbergIndex", "slope0-500", "slope500-1500",
                "logRelF0-H1-H2", "F1frequency", "F2frequency", "F3frequency"):
        assert half[key] == pytest.approx(full[key], abs=1e-6), key


def test_time_reversal_stationary():
    sig = generate_synthetic("clean", f0=140.0, duration=1.0, seed=1)
    fwd = extract_llf_vector(sig)
    rev = extract_llf_vector(
        AudioSignal(sig.samples[::-1].copy(), sig.sample_rate_hz, "rev"))
    for key in ("Loudness", "alphaRatio", "hammarbergIndex"):
        assert abs(fwd[key] - rev[key]) < 0.15, key


def test_jitter_monotone_in_perturbation():
    measured = []
    for pct in (0.0, 1.0, 2.0, 4.0):
        kind = "clean" if pct == 0 else "jittered"
        sig = generate_synthetic(kind, f0=150.0, duration=1.0, seed=9,
                                 jitter_pct=pct)
        measured.append(extract_llf_vector(sig)["jitterLocal"])
    assert all(b >= a for a, b in zip(measured, measured[1:])), measured


def test_validate_llf_rejects_bad_vectors(vowel):
    vector = extract_llf_vector(vowel)
    incomplete = dict(vector)
    del incomplete["HNRdBACF"]
    with pytest.raises(ValueError, match="HNRdBACF"):
        validate_llf(incomplete)
    nonfinite = dict(vector)
    nonfinite["mfcc1"] = float("nan")
    with pytest.raises(ValueError, match="mfcc1"):
        validate_llf(nonfinite)


def _peak_bytes(fn, *args):
    """tracemalloc peak of one call, beyond what was allocated before it."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _stage_peaks(sig):
    """Peak bytes of each stage function on one signal. Each stage runs once
    before the measured call, so one-off allocations (lazy imports, caches)
    do not count toward a peak, whatever ran earlier in the session."""
    frames = frame_signal(sig)
    pitch = track_pitch(frames)
    calls = {
        "framing": (frame_signal, sig),
        "pitch": (track_pitch, frames),
        "spectral": (compute_spectral_llfs, frames),
        "periods": (compute_period_llfs, sig, pitch),
        "voiced frames": (estimate_formants, frames, pitch),
    }
    peaks = {}
    for stage, (fn, *args) in calls.items():
        fn(*args)
        peaks[stage] = _peak_bytes(fn, *args)
    return peaks


# the shortest clean vowel below, in 10 ms steps, with a second block of
# voiced frames: the shortest whose voiced-frame pass runs two blocks at once
POOLED_S = 0.67


@pytest.fixture(scope="module")
def stage_peaks():
    """(signal, stage peaks) of a clean vowel, by duration in seconds."""
    signals = {d: generate_synthetic("clean", f0=130.0, duration=d, seed=4)
               for d in (1.0, POOLED_S, 10.0, 40.0)}
    return {d: (sig, _stage_peaks(sig)) for d, sig in signals.items()}


def test_block_stages_stay_below_spectral_peak_memory(stage_peaks):
    # the per-frame stages work in fixed frame blocks, so none of them may
    # allocate more at its peak than the spectral stage, whose blocks hold
    # the most per frame
    for duration in (1.0, 10.0):
        peaks = stage_peaks[duration][1]
        for stage in ("pitch", "voiced frames"):
            assert peaks[stage] < peaks["spectral"], (duration, stage)
    # from POOLED_S on, two voiced-frame blocks at once
    sig, peaks = stage_peaks[POOLED_S]
    assert track_pitch(frame_signal(sig)).voiced.sum() == LPC_BLOCK + 1
    assert peaks["voiced frames"] < peaks["spectral"]


def test_widest_voiced_frame_windows_stay_below_spectral_peak_memory(stage_peaks):
    # f0 alternating 55 and 1000 Hz puts the most A3 harmonics (padded to
    # the longest row) and the widest bin windows in every spectrum sub-block
    sig, peaks = stage_peaks[10.0]
    frames = frame_signal(sig)
    pitch = track_pitch(frames)
    f0 = np.where(np.cumsum(pitch.voiced) % 2, 55.0, 1000.0) * pitch.voiced
    alternating = PitchTrack(f0, pitch.harmonicity)
    estimate_formants(frames, alternating)
    assert _peak_bytes(estimate_formants, frames, alternating) < peaks["spectral"]


def test_extraction_memory_below_half_the_signal(stage_peaks):
    # beyond the signal, extraction holds fixed-size frame blocks and
    # per-frame and per-period results, never a copy of the signal
    sig = stage_peaks[40.0][0]
    assert _peak_bytes(extract_llf_vector, sig) < 0.5 * sig.samples.nbytes


def test_stage_memory_does_not_grow_with_the_signal(stage_peaks):
    (short, at_10s), (long, at_40s) = stage_peaks[10.0], stage_peaks[40.0]
    added_signal = long.samples.nbytes - short.samples.nbytes
    for stage, peak in at_40s.items():
        # no temporary the size of the signal: a stage grows by its
        # per-frame or per-period results only
        assert peak - at_10s[stage] < 0.1 * added_signal, stage
        # the period stage keeps every mark and period, since jitter and
        # shimmer are means over all of them; every other stage is bounded
        # by its block working set
        if stage != "periods":
            assert peak < 1.5 * at_10s[stage], stage


class WorkerError(Exception):
    pass


def _fail_a_block(on_pool, monkeypatch):
    """Extract a 2 s vowel (four voiced-frame blocks) with the first block
    the pool runs (on_pool) or the first the caller runs failing while the
    other is still running: the error reaches the caller after the other
    block finished, no later block starts, and the next extraction gets the
    serial vector."""
    sig = generate_synthetic("clean", f0=130.0, duration=2.0, seed=4)
    with monkeypatch.context() as patch:
        patch.setattr(formants, "WORKERS", 1)
        serial = extract_llf_vector(sig)
    voiced = np.nonzero(track_pitch(frame_signal(sig)).voiced)[0]
    assert len(list(formants._even_blocks(voiced))) == 4
    started, finished = [], []
    caller_started, pool_started = threading.Event(), threading.Event()
    block_sums = formants._block_sums

    def watched(raw_frames, f0_hz, rows, idx):
        pool_side = threading.current_thread().name.startswith("voicequal-voiced")
        started.append(pool_side)
        # each side's first block waits for the other side's, so both run
        (pool_started if pool_side else caller_started).set()
        (caller_started if pool_side else pool_started).wait(timeout=10)
        if pool_side == on_pool:
            raise WorkerError("failed in a block")
        time.sleep(0.05)  # still running when the failure reaches the caller
        sums = block_sums(raw_frames, f0_hz, rows, idx)
        finished.append(pool_side)
        return sums

    with monkeypatch.context() as patch:
        patch.setattr(formants, "_block_sums", watched)
        with pytest.raises(WorkerError, match="failed in a block"):
            extract_llf_vector(sig)
        awaited = list(finished)
    assert awaited == [not on_pool]
    assert sorted(started) == [False, True]
    assert extract_llf_vector(sig) == serial
    assert len(started) == 2


def test_an_error_in_the_callers_block_reaches_the_caller(monkeypatch):
    _fail_a_block(False, monkeypatch)


def test_an_error_in_a_pool_worker_reaches_the_caller(monkeypatch):
    _fail_a_block(True, monkeypatch)


def test_pooled_results_come_in_item_order():
    # the slow first item finishes after the other side took the rest, so
    # results in finishing order would be out of order
    def slow_first(n):
        if n == 0:
            time.sleep(0.1)
        return n

    assert formants._pooled(slow_first, iter(range(6))) == list(range(6))


def test_threads_extracting_at_once_get_the_serial_vectors():
    # more caller threads than CPUs share the pool, switching often; each
    # must get its own vectors, the same as one call at a time
    signals = [generate_synthetic(kind, f0=f0, duration=2.0, seed=5)
               for kind, f0 in (("clean", 120.0), ("breathy", 190.0),
                                ("jittered", 150.0), ("shimmered", 230.0))]
    serial = [extract_llf_vector(sig) for sig in signals]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(len(signals)) as callers:
            for _ in range(3):
                futures = [callers.submit(extract_llf_vector, sig) for sig in signals]
                assert [future.result(timeout=60) for future in futures] == serial
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="no fork() on this platform")
def test_a_forked_child_extracts_after_its_parent_used_the_pool():
    sig = generate_synthetic("clean", f0=130.0, duration=2.0, seed=4)
    want = extract_llf_vector(sig)  # the parent's pool threads are running now
    with warnings.catch_warnings():
        # newer Pythons warn on fork() in a process with threads
        warnings.filterwarnings("ignore", ".*multi-threaded.*", DeprecationWarning)
        with multiprocessing.get_context("fork").Pool(1) as child:
            assert child.apply_async(extract_llf_vector, (sig,)).get(timeout=60) == want


def _voiced_frame_workers():
    return formants.WORKERS


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="no fork() on this platform")
@pytest.mark.parametrize("cpus", [{0}, {0, 1, 2}])
def test_a_forked_child_reads_the_cpus_it_may_run_on(cpus, monkeypatch):
    # the parent read other CPUs at import; a child, perhaps pinned to
    # fewer, reads them again, so on one CPU it runs the voiced-frame pass
    # inline
    monkeypatch.setattr(formants, "WORKERS", 1 if len(cpus) > 1 else MAX_WORKERS)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", ".*multi-threaded.*", DeprecationWarning)
        with multiprocessing.get_context("fork").Pool(1) as child:
            workers = child.apply_async(_voiced_frame_workers).get(timeout=60)
    assert workers == min(MAX_WORKERS, len(cpus))
