import gc
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

# the CPU read of each voiced-frame pass, before the fixture below fixes it
UNPATCHED_WORKERS = formants._workers


@pytest.fixture(scope="module", autouse=True)
def most_blocks_in_flight():
    """The voiced-frame pass runs with as many blocks at once as it ever
    does, whatever the number of CPUs here, so the memory bars below hold
    for two threads and the results for one and two."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(formants, "_workers", lambda: MAX_WORKERS)
        yield


@pytest.fixture(scope="module")
def vowel():
    return generate_synthetic("clean", f0=150.0, duration=1.0, seed=0)


# the schema every output shares (JSONL, stats files, table rows, the
# benchmark's reference), spelled out here apart from the stages' key tuples
EXPECTED_KEYS = [
    "Loudness", "alphaRatio", "hammarbergIndex", "slope0-500", "slope500-1500",
    "spectralFlux", "mfcc1", "mfcc2", "mfcc3", "mfcc4",
    "F0semitoneFrom27.5Hz", "jitterLocal", "shimmerLocaldB", "HNRdBACF",
    "logRelF0-H1-H2", "logRelF0-H1-A3",
    "F1frequency", "F1bandwidth", "F1amplitudeLogRelF0",
    "F2frequency", "F2bandwidth", "F2amplitudeLogRelF0",
    "F3frequency", "F3bandwidth", "F3amplitudeLogRelF0",
]


def test_llf_keys_are_the_25_names_in_order():
    assert isinstance(LLF_KEYS, tuple)
    assert list(LLF_KEYS) == EXPECTED_KEYS


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
    """Peak bytes of each stage function on one signal, the voiced-frame
    pass on the caller alone as well. Each stage runs once before the
    measured call, so one-off allocations (lazy imports, caches) do not
    count toward a peak, whatever ran earlier in the session."""
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
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(formants, "_workers", lambda: 1)
        peaks["voiced frames, one thread"] = _peak_bytes(estimate_formants, frames, pitch)
    return peaks


# the shortest clean vowel below, in 10 ms steps, with a second block of
# voiced frames: the shortest whose voiced-frame pass runs two blocks at once
POOLED_S = 0.67


@pytest.fixture(scope="module")
def stage_peaks():
    """(signal, stage peaks) of a clean vowel, by duration in seconds."""
    signals = {d: generate_synthetic("clean", f0=130.0, duration=d, seed=4)
               for d in (1.0, POOLED_S, 2.0, 10.0, 40.0)}
    return {d: (sig, _stage_peaks(sig)) for d, sig in signals.items()}


# One traced-memory budget per duration, in bytes, for every stage, the
# voiced-frame pass on two threads and on one. Each is below the spectral
# stage's peak while it and the pass kept arrays they no longer read (0.80,
# 0.93 and 1.22 MB), and below pitch's 0.64-0.66 MB while its 32-frame
# autocorrelation block was transformed whole, so no bound is looser than
# those were. The highest stage is now the pass on two threads, two blocks
# of voiced frames in flight, followed by spectral at 10 s, whose per-frame
# terms grow with the utterance.
MEMORY_BUDGET = {POOLED_S: 0.47e6, 1.0: 0.47e6, 10.0: 0.47e6}


def test_block_stages_stay_within_the_memory_budget(stage_peaks):
    # the per-frame stages work in fixed frame blocks, so none of them may
    # allocate more at its peak than the budget; the pooled pass's peak
    # depends on how its two threads interleave, so it is the highest of
    # five calls
    for duration, budget in MEMORY_BUDGET.items():
        sig, peaks = stage_peaks[duration]
        frames = frame_signal(sig)
        pitch = track_pitch(frames)
        pooled = max(_peak_bytes(estimate_formants, frames, pitch) for _ in range(5))
        for stage, peak in {**peaks, "voiced frames": pooled}.items():
            assert peak < budget, (duration, stage, peak)
    # from POOLED_S on, two voiced-frame blocks at once
    sig = stage_peaks[POOLED_S][0]
    assert track_pitch(frame_signal(sig)).voiced.sum() == LPC_BLOCK + 1


def test_widest_voiced_frame_windows_stay_within_the_memory_budget(stage_peaks):
    # f0 alternating 55 and 1000 Hz puts the most A3 harmonics (padded to
    # the longest row) and the widest bin windows in every spectrum sub-block
    sig = stage_peaks[10.0][0]
    frames = frame_signal(sig)
    pitch = track_pitch(frames)
    f0 = np.where(np.cumsum(pitch.voiced) % 2, 55.0, 1000.0) * pitch.voiced
    alternating = PitchTrack(f0, pitch.harmonicity)
    for workers in (1, MAX_WORKERS):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(formants, "_workers", lambda: workers)
            estimate_formants(frames, alternating)
            peak = max(_peak_bytes(estimate_formants, frames, alternating) for _ in range(3))
        assert peak < MEMORY_BUDGET[10.0], workers


def test_spectral_memory_grows_only_by_its_per_frame_terms(stage_peaks):
    # a spectral block's arrays are freed before the next block's are made,
    # so from 1 s (two blocks) on the stage's peak grows by its per-frame
    # terms only (nine, 72 B a frame, within the 80 B allowed), plus at most
    # 4 kB: the one-row unit spectrum (2 kB) that carries the flux from one
    # block to the next
    at_1s = stage_peaks[1.0][1]["spectral"]
    n_1s = frame_signal(stage_peaks[1.0][0]).n_frames
    for duration in (2.0, 10.0):
        sig, peaks = stage_peaks[duration]
        added_frames = frame_signal(sig).n_frames - n_1s
        assert peaks["spectral"] - at_1s <= 80 * added_frames + 4096, duration


def test_extraction_memory_below_half_the_signal(stage_peaks):
    # beyond the signal, extraction holds fixed-size frame blocks and
    # per-frame and per-period results, never a copy of the signal
    sig = stage_peaks[40.0][0]
    assert _peak_bytes(extract_llf_vector, sig) < 0.5 * sig.samples.nbytes


def test_stage_memory_does_not_grow_with_the_signal(stage_peaks):
    # no temporary the size of the signal: from 10 s to 40 s, a stage's peak
    # grows only by its per-frame or per-period results, at most 10 kB per
    # second of audio (spectral's nine terms a frame are 7.2 kB), where a
    # float64 copy of the signal would add 128 kB
    (short, at_10s), (long, at_40s) = stage_peaks[10.0], stage_peaks[40.0]
    added_s = long.duration_s - short.duration_s
    for stage, peak in at_40s.items():
        assert peak - at_10s[stage] <= 10_000 * added_s, (stage, peak, at_10s[stage])


class WorkerError(Exception):
    pass


def _helper_threads():
    return [t.name for t in threading.enumerate() if t.name.startswith("voicequal-voiced")]


def _fail_a_block(failing, monkeypatch):
    """Extract a 2 s vowel (four voiced-frame blocks) on the caller and a
    helper thread, with block ``failing`` (0 or 1) raising while the other
    thread's first block is still running. Returns the blocks started and
    those finished when the error reached the caller, after checking that
    it did, that every block started then had run to its end, that no
    helper thread is left and that the next extraction gets the serial
    vector."""
    sig = generate_synthetic("clean", f0=130.0, duration=2.0, seed=4)
    with monkeypatch.context() as patch:
        patch.setattr(formants, "_workers", lambda: 1)
        serial = extract_llf_vector(sig)
    voiced = np.nonzero(track_pitch(frame_signal(sig)).voiced)[0]
    firsts = [int(block[0]) for block in formants._even_blocks(voiced)]
    assert len(firsts) == 4
    started, finished, both_running = [], [], threading.Barrier(2)
    block_sums = formants._block_sums

    def watched(raw_frames, f0_hz, idx):
        block = firsts.index(int(idx[0]))
        started.append(block)
        if block < 2:  # the two threads' first blocks wait for each other
            both_running.wait(timeout=10)
        if block == failing:
            raise WorkerError("failed in a block")
        time.sleep(0.05)  # still running when the failure is raised
        sums = block_sums(raw_frames, f0_hz, idx)
        finished.append(block)
        return sums

    with monkeypatch.context() as patch:
        patch.setattr(formants, "_block_sums", watched)
        with pytest.raises(WorkerError, match="failed in a block"):
            extract_llf_vector(sig)
        at_error = sorted(started), sorted(finished)
    assert at_error[1] == [b for b in at_error[0] if b != failing]
    assert _helper_threads() == []
    assert extract_llf_vector(sig) == serial
    assert sorted(started) == at_error[0]
    return at_error


def test_an_error_in_the_first_block_reaches_the_caller(monkeypatch):
    # block 0 fails while block 1 runs: the failing thread takes no more
    # blocks, the other finishes block 1 and takes none, and the error is
    # raised once it has; blocks 2 and 3 never start
    started, finished = _fail_a_block(0, monkeypatch)
    assert started == [0, 1]
    assert finished == [1]


def test_an_error_in_a_later_block_reaches_the_caller(monkeypatch):
    # block 1 fails while block 0 runs: the error is raised after block 0
    # has run to its end, and blocks 2 and 3 never start
    started, finished = _fail_a_block(1, monkeypatch)
    assert started == [0, 1]
    assert finished == [0]


def test_pooled_results_come_in_item_order(monkeypatch):
    # block k's H1-H2 term is the k-th of 1, 2**53, -2**53, 0: summed in
    # block order they give 0, while 1 added last gives 1; the slow first
    # block finishes after the other thread took the rest
    sig = generate_synthetic("clean", f0=130.0, duration=2.0, seed=4)
    frames = frame_signal(sig)
    pitch = track_pitch(frames)
    firsts = [int(b[0]) for b in formants._even_blocks(np.nonzero(pitch.voiced)[0])]
    terms, finished = [1.0, 2.0**53, -2.0**53, 0.0], []
    assert len(firsts) == len(terms)

    def term_of(raw_frames, f0_hz, idx):
        block = firsts.index(int(idx[0]))
        if block == 0:
            time.sleep(0.1)
        finished.append(block)
        return np.r_[terms[block], np.zeros(len(formants.FORMANT_KEYS) - 1), 1.0]

    monkeypatch.setattr(formants, "_block_sums", term_of)
    track = estimate_formants(frames, pitch)
    assert finished == [1, 2, 3, 0]
    assert track.values["logRelF0-H1-H2"] == 0.0


def test_an_error_leaves_no_cyclic_garbage(monkeypatch):
    # the error's traceback holds the frames of the thread it was raised on
    # and of the caller; anything of the pass that kept it would make a
    # cycle only the cyclic collector frees
    sig = generate_synthetic("clean", f0=130.0, duration=2.0, seed=4)
    frames = frame_signal(sig)
    pitch = track_pitch(frames)
    third = int(list(formants._even_blocks(np.nonzero(pitch.voiced)[0]))[2][0])
    block_sums = formants._block_sums

    def fail_third(raw_frames, f0_hz, idx):
        if idx[0] == third:
            raise WorkerError("failed in a block")
        return block_sums(raw_frames, f0_hz, idx)

    monkeypatch.setattr(formants, "_block_sums", fail_third)
    gc.collect()
    gc.disable()
    try:
        with pytest.raises(WorkerError):
            estimate_formants(frames, pitch)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_threads_extracting_at_once_get_the_serial_vectors():
    # more caller threads than CPUs, each pass with its own helper thread,
    # switching often; each must get its own vectors, the same as one call
    # at a time
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
    want = extract_llf_vector(sig)  # a pass on the parent's caller and helper
    with warnings.catch_warnings():
        # newer Pythons warn on fork() in a process with threads, should
        # anything have left one running
        warnings.filterwarnings("ignore", ".*multi-threaded.*", DeprecationWarning)
        with multiprocessing.get_context("fork").Pool(1) as child:
            assert child.apply_async(extract_llf_vector, (sig,)).get(timeout=60) == want


def _voiced_frame_threads(duration, monkeypatch):
    """Extract a clean vowel of ``duration`` seconds. Returns, per block,
    whether it ran on the caller's thread; and the name of each thread
    started. With two threads, the first block waits until the second
    starts, so both threads run one."""
    sig = generate_synthetic("clean", f0=130.0, duration=duration, seed=4)
    calls, started, second_started = [], [], threading.Event()
    caller, block_sums = threading.current_thread(), formants._block_sums
    start = threading.Thread.start

    def recorded(raw_frames, f0_hz, idx):
        calls.append(threading.current_thread() is caller)
        if len(calls) == 2:
            second_started.set()
        elif len(calls) == 1 and started:
            second_started.wait(timeout=10)
        return block_sums(raw_frames, f0_hz, idx)

    def counted_start(thread):
        started.append(thread.name)
        start(thread)

    with monkeypatch.context() as patch:
        patch.setattr(formants, "_block_sums", recorded)
        patch.setattr(threading.Thread, "start", counted_start)
        extract_llf_vector(sig)
    return calls, started


@pytest.mark.parametrize("cpus, duration, n_blocks", [
    pytest.param({0}, 2.0, 4, id="cpus0"),
    pytest.param({0, 1, 2}, 2.0, 4, id="cpus1"),
    pytest.param({0, 1}, 1.0, 2, id="two-blocks"),
    pytest.param({0, 1, 2}, 0.5, 1, id="one-block"),
])
def test_the_voiced_frame_pass_reads_the_cpus_it_may_run_on(cpus, duration, n_blocks,
                                                            monkeypatch):
    # each pass reads the CPUs again, so a process pinned after import, or
    # a forked child, runs every block on the caller and starts no thread on
    # one CPU, and on more runs blocks on the caller and one helper; a pass
    # of one block (64 voiced frames or fewer) starts none on any
    monkeypatch.setattr(formants, "_workers", UNPATCHED_WORKERS)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
    calls, started = _voiced_frame_threads(duration, monkeypatch)
    assert len(calls) == n_blocks
    threads = min(len(cpus), MAX_WORKERS, n_blocks)
    assert started == ["voicequal-voiced"] * (threads - 1)
    if threads == 1:
        assert all(calls)
    else:
        assert set(calls) == {True, False}


def test_no_helper_thread_outlives_a_pass(monkeypatch):
    # the helper thread is joined before the pass returns, whether its
    # blocks succeeded or one raised on either thread, so a later fork()
    # forks one thread
    calls, started = _voiced_frame_threads(2.0, monkeypatch)
    assert set(calls) == {True, False}
    assert started == ["voicequal-voiced"]
    assert _helper_threads() == []
    block_sums, caller = formants._block_sums, threading.current_thread()
    helper_failed, helper_running = threading.Event(), threading.Event()

    def failing_on_the_helper(raw_frames, f0_hz, idx):
        if threading.current_thread() is not caller:
            helper_failed.set()
            raise WorkerError("failed in a block")
        helper_failed.wait(timeout=10)  # so the helper gets a block to fail
        return block_sums(raw_frames, f0_hz, idx)

    def failing_on_the_caller(raw_frames, f0_hz, idx):
        if threading.current_thread() is caller:
            helper_running.wait(timeout=10)  # so the helper is inside a block
            raise WorkerError("failed in a block")
        helper_running.set()
        time.sleep(0.05)  # still running when the caller's block fails
        return block_sums(raw_frames, f0_hz, idx)

    sig = generate_synthetic("clean", f0=130.0, duration=2.0, seed=4)
    for failing, ran in ((failing_on_the_helper, helper_failed),
                         (failing_on_the_caller, helper_running)):
        monkeypatch.setattr(formants, "_block_sums", failing)
        with pytest.raises(WorkerError, match="failed in a block"):
            extract_llf_vector(sig)
        assert ran.is_set()
        assert _helper_threads() == []
