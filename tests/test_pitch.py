import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scipy.fft

import voicequal.pitch
from voicequal.audio_io import CANONICAL_RATE, AudioSignal
from voicequal.framing import FRAME_LENGTH, HOP, frame_signal
from voicequal.pitch import (ACF_BLOCK, ACF_DIRECT_BELOW, F0_MAX, F0_MIN, LAG_MAX, LAG_MIN,
                             MAX_LAG, PEAK_PREFERENCE, _harmonicity, _interior_maxima,
                             _pick_peaks, frame_autocorrelation, track_pitch)
from voicequal.synth import KINDS, generate_synthetic, pulse_train, vowel_filter

from conftest import raw_pulse_train, sine_signal


def test_sine_220_tracked():
    pitch = track_pitch(frame_signal(sine_signal(220, duration=0.5)))
    interior = pitch.voiced[1:-1]
    assert interior.all()
    f0 = pitch.f0_hz[pitch.voiced]
    assert np.all(np.abs(f0 - 220) < 2)


def test_white_noise_mostly_unvoiced():
    rng = np.random.default_rng(0)
    sig = AudioSignal(0.5 * rng.standard_normal(8000), 16000, "noise")
    pitch = track_pitch(frame_signal(sig))
    assert np.count_nonzero(~pitch.voiced) >= 0.9 * len(pitch)


def test_silence_all_unvoiced():
    sig = AudioSignal(np.full(8000, 1e-30), 16000, "quiet")
    pitch = track_pitch(frame_signal(sig))
    assert not pitch.voiced.any()
    assert np.all(pitch.f0_hz == 0)


def test_voiced_f0_within_range():
    for freq in (80, 150, 300, 440):
        pitch = track_pitch(frame_signal(sine_signal(freq, duration=0.3)))
        f0 = pitch.f0_hz[pitch.voiced]
        assert np.all((f0 >= F0_MIN) & (f0 <= F0_MAX))


def test_pulse_train_no_subharmonic():
    # a pulse train autocorrelates equally well at period multiples; the
    # tracker must keep the fundamental
    sig = raw_pulse_train(200, duration=0.5)
    pitch = track_pitch(frame_signal(sig))
    f0 = pitch.f0_hz[pitch.voiced]
    assert np.all(np.abs(f0 - 200) < 4)


def test_track_length_matches_frames():
    frames = frame_signal(sine_signal(150, duration=0.4))
    pitch = track_pitch(frames)
    assert len(pitch) == frames.n_frames


def _direct_acf(x):
    """Per-lag normalized autocorrelation by direct correlation of one frame."""
    x = x - x.mean()
    n = len(x)
    num = np.correlate(x, x, mode="full")[n - 1:]
    e = np.concatenate(([0.0], np.cumsum(x * x)))
    lags = np.arange(n)
    den = np.sqrt(e[n - lags] * (e[n] - e[lags]))
    return np.divide(num, den, out=np.zeros(n), where=den > 0)


def test_frame_autocorrelation_matches_direct_reference():
    rng = np.random.default_rng(3)
    frames = rng.standard_normal((6, 400))
    frames[1] = 0.25                                   # zero variance
    frames[2, :300] *= 1e-7                            # near-silent lead
    frames[3] = sine_signal(220, duration=0.025).samples
    frames[4, ::2] = 0.0
    for max_lag in (2, 292, 398, 399):
        acf = frame_autocorrelation(frames, max_lag)
        assert acf.shape == (len(frames), max_lag + 1)
        for row, frame in zip(acf, frames):
            np.testing.assert_allclose(row, _direct_acf(frame)[:max_lag + 1], rtol=0, atol=1e-12)
        assert not acf[1].any()
        assert np.all(np.abs(acf) <= 1.0 + 1e-12)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(n=st.integers(3, 400), data=st.data(), seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(["normal", "constant", "quiet head", "quiet tail"]),
       quiet=st.floats(0.05, 0.95))
def test_frame_autocorrelation_matches_direct_reference_at_any_lag(n, data, seed, kind, quiet):
    max_lag = data.draw(st.integers(2, n - 1), label="max_lag")
    frames = np.random.default_rng(seed).standard_normal((3, n))
    cut = int(quiet * n)
    if kind == "constant":
        frames[1] = frames[1, 0]
    elif kind == "quiet head":
        frames[1, :cut] *= 1e-7
    elif kind == "quiet tail":
        frames[1, cut:] *= 1e-7
    acf = frame_autocorrelation(frames, max_lag)
    assert acf.shape == (3, max_lag + 1)
    for row, frame in zip(acf, frames):
        np.testing.assert_allclose(row, _direct_acf(frame)[:max_lag + 1], rtol=0, atol=1e-12)


def _whole_block_autocorrelation(raw_frames, max_lag):
    """Reference: frame_autocorrelation with every row transformed at once
    and the power spectrum cast back to complex by the inverse transform,
    whose bits the half-block transforms must keep."""
    x = raw_frames - raw_frames.mean(axis=1, keepdims=True)
    n = x.shape[1]
    nfft = scipy.fft.next_fast_len(n + max_lag, real=True)
    power = np.fft.rfft(x, nfft, axis=1)
    power = power.real ** 2 + power.imag ** 2
    num = np.fft.irfft(power, nfft, axis=1)[:, :max_lag + 1].copy()
    cs = np.zeros((len(x), n + 1))
    np.square(x, out=cs[:, 1:])
    np.cumsum(cs[:, 1:], axis=1, out=cs[:, 1:])
    den = cs[:, n:] - cs[:, :max_lag + 1]
    den *= cs[:, n - max_lag:][:, ::-1]
    np.sqrt(den, out=den)
    for row, tau in zip(*np.nonzero((den > 0) & (den < ACF_DIRECT_BELOW * cs[:, n:]))):
        num[row, tau] = np.dot(x[row, :n - tau], x[row, tau:])
    np.divide(num, den, out=num, where=den > 0)
    num[den <= 0] = 0.0
    return num


def _dense_pick_peaks(r):
    """Reference: _pick_peaks with the multiple tested at every column."""
    peaks = _interior_maxima(r)
    best = np.argmax(peaks, axis=1)
    r_max = peaks[np.arange(len(r)), best]
    ratio = (LAG_MIN + 1 + best)[:, None] / (LAG_MIN + 1 + np.arange(peaks.shape[1]))
    candidate = ((peaks >= PEAK_PREFERENCE * r_max[:, None])
                 & (np.abs(ratio - np.round(ratio)) <= 0.12))
    return np.where(r_max > 0, np.argmax(candidate, axis=1) + 1, -1)


def _assert_block_bits(block, max_lag=MAX_LAG):
    acf = frame_autocorrelation(block, max_lag)
    assert np.array_equal(acf, _whole_block_autocorrelation(block, max_lag))
    if max_lag > LAG_MAX:
        r = acf[:, LAG_MIN:LAG_MAX + 1]
        assert np.array_equal(_pick_peaks(r), _dense_pick_peaks(r))


@pytest.mark.parametrize("duration", [0.5, 0.67, 1.0, 10.0])
@pytest.mark.parametrize("kind", KINDS)
def test_autocorrelation_blocks_keep_the_whole_block_bits(kind, duration):
    # every first-pass block of track_pitch, and the frames its second pass
    # re-picks, gathered as it gathers them
    frames = frame_signal(generate_synthetic(kind, f0=130.0, duration=duration, seed=4))
    for start in range(0, frames.n_frames, ACF_BLOCK):
        _assert_block_bits(frames.raw_frames[start:start + ACF_BLOCK])
    f0 = track_pitch(frames).f0_hz
    median = np.median(f0[f0 > 0])
    far = np.nonzero((f0 > 0) & (np.abs(f0 - median) > 0.2 * median))[0]
    for start in range(0, len(far), ACF_BLOCK):
        _assert_block_bits(frames.raw_frames[far[start:start + ACF_BLOCK]])


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(kinds=st.lists(st.sampled_from(["normal", "constant", "quiet head", "quiet tail",
                                       "silent"]), min_size=1, max_size=ACF_BLOCK),
       seed=st.integers(0, 2**32 - 1), quiet=st.floats(0.05, 0.95),
       max_lag=st.sampled_from([MAX_LAG, 2, 150, FRAME_LENGTH - 1]))
def test_autocorrelation_block_of_any_height_keeps_the_whole_block_bits(kinds, seed, quiet,
                                                                       max_lag):
    # 1 to ACF_BLOCK rows, across the half-block edge; a quiet head or tail
    # leaves lags whose normalizer is small next to the frame energy, which
    # take the direct sums
    block = np.random.default_rng(seed).standard_normal((len(kinds), FRAME_LENGTH))
    cut = int(quiet * FRAME_LENGTH)
    for row, kind in zip(block, kinds):
        if kind == "constant":
            row[:] = row[0]
        elif kind == "quiet head":
            row[:cut] *= 1e-7
        elif kind == "quiet tail":
            row[cut:] *= 1e-7
        elif kind == "silent":
            row[:] = 0.0
    _assert_block_bits(block, max_lag)


def test_quiet_heads_take_the_direct_sums(monkeypatch):
    # the case the property test above relies on to reach the direct sums,
    # each summed by np.dot
    block = np.random.default_rng(5).standard_normal((ACF_BLOCK, FRAME_LENGTH))
    block[:, :300] *= 1e-7
    sums, dot = [], np.dot
    monkeypatch.setattr(np, "dot", lambda a, b: sums.append(len(a)) or dot(a, b))
    frame_autocorrelation(block, MAX_LAG)
    monkeypatch.undo()
    assert sums
    _assert_block_bits(block)


def test_harmonicity_reads_no_lag_beyond_the_autocorrelation(monkeypatch):
    # track_pitch computes the autocorrelation only up to the longest lag it
    # reads; at the lowest f0, _harmonicity reads exactly that lag
    passed = []

    def recording(raw_frames, max_lag):
        passed.append(max_lag)
        return frame_autocorrelation(raw_frames, max_lag)

    monkeypatch.setattr(voicequal.pitch, "frame_autocorrelation", recording)
    frames = frame_signal(sine_signal(60, duration=0.5))
    track_pitch(frames)
    max_lag = passed[0]
    assert set(passed) == {max_lag} and max_lag < FRAME_LENGTH
    fs = CANONICAL_RATE
    acf = np.tile(np.arange(max_lag + 1.0), (2, 1))  # each lag reads as itself
    read = _harmonicity(acf, np.array([F0_MIN, F0_MAX]))
    assert read[0] == max_lag == np.rint(fs / F0_MIN) + 1


def test_harmonicity_is_the_acf_max_around_the_pitch_lag():
    # the second pass re-picks a few frames of this jittered vowel; their
    # harmonicity must follow the new f0 (or drop to 0 if unvoiced)
    frames = frame_signal(generate_synthetic("jittered", f0=120.0, duration=1.0, seed=1))
    pitch = track_pitch(frames)
    fs = CANONICAL_RATE
    acf = frame_autocorrelation(frames.raw_frames[:], int(fs / F0_MIN) + 2)
    expected = np.zeros(len(pitch))
    for i in np.nonzero(pitch.voiced)[0]:
        lag = int(np.rint(fs / pitch.f0_hz[i]))
        expected[i] = max(acf[i, max(tau, 2)] for tau in (lag - 1, lag, lag + 1))
    assert pitch.n_voiced > 0.9 * len(pitch)
    assert np.array_equal(pitch.harmonicity, expected)


@pytest.mark.parametrize("kind", KINDS)
def test_voicing_is_nonzero_f0_and_unvoiced_frames_have_no_harmonicity(kind):
    # a vowel between two stretches of silence, so both decisions occur
    vowel = generate_synthetic(kind, f0=150.0, duration=0.5, seed=1).samples
    gap = np.zeros(1600)
    pitch = track_pitch(frame_signal(AudioSignal(np.concatenate([gap, vowel, gap]), 16000)))
    assert np.array_equal(pitch.voiced, pitch.f0_hz > 0)
    assert 0 < pitch.n_voiced < len(pitch)
    assert np.all(pitch.harmonicity[pitch.f0_hz == 0] == 0)
    assert np.all(pitch.harmonicity[pitch.f0_hz > 0] > 0)


def test_second_pass_repicks_frames_far_from_the_median(monkeypatch):
    # the first pass analyses every frame once; the frames far from the
    # voiced median f0 are analysed a second time, in the median-lag window
    rows = []

    def recording(raw_frames, max_lag):
        rows.append(len(raw_frames))
        return frame_autocorrelation(raw_frames, max_lag)

    monkeypatch.setattr(voicequal.pitch, "frame_autocorrelation", recording)
    frames = frame_signal(generate_synthetic("jittered", f0=120.0, duration=10.0, seed=1,
                                             jitter_pct=5.0))
    pitch = track_pitch(frames)
    assert frames.n_frames == 998
    assert sum(rows) - frames.n_frames == 438
    assert pitch.n_voiced == 871


def test_second_pass_peaks_within_64_kb_of_a_clean_vowel():
    # the second pass gathers the frames it re-picks, a copy, half an
    # ACF_BLOCK at a time, so a vowel whose far frames it re-picks (438 of
    # 998 here) peaks about as high as a clean one, whose first pass sets
    # the peak
    import tracemalloc

    peaks = {}
    for kind in ("clean", "jittered"):
        frames = frame_signal(generate_synthetic(kind, f0=120.0, duration=10.0, seed=1,
                                                 jitter_pct=5.0))
        track_pitch(frames)  # one-off allocations do not count
        tracemalloc.start()
        try:
            track_pitch(frames)
            peaks[kind] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks["jittered"] < peaks["clean"] + 64_000, peaks


def _glide(f_start, f_end, duration=2.0, fs=CANONICAL_RATE):
    """A clean vowel whose f0 moves exponentially from f_start to f_end Hz,
    and the true f0 at the centre of each of its frames.

    f0(t) = f_start e^(rate t), so the phase f_start (e^(rate t) - 1) / rate
    reaches k cycles at t_k = ln(1 + k rate / f_start) / rate: synth.pulse_train
    places a unit pulse there, and the train is filtered as a clean
    synthetic vowel is."""
    n = int(round(duration * fs))
    rate = np.log(f_end / f_start) / duration
    cycles = np.arange(1, int(f_start * np.expm1(rate * duration) / rate) + 1)
    at = np.log1p(cycles * rate / f_start) / rate * fs
    at = at[at < n - 1]
    x = vowel_filter(pulse_train(at, np.ones(len(at)), n, fs), fs)
    frames = frame_signal(AudioSignal(0.9 * x / np.abs(x).max(), fs, "glide"))
    centres = (np.arange(frames.n_frames) * HOP + FRAME_LENGTH / 2) / fs
    return frames, f_start * np.exp(rate * centres)


# Intonation spans more than +/-20 % around an utterance's median f0; the
# second pass re-picks frames beyond that only within 0.8-1.25x the median
# lag, so wider glides lose frames or take wrong peaks there.
WIDE_GLIDE = pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="the second pitch pass re-picks frames more than 20 % from the median f0"
           " inside 0.8-1.25x its lag")


@pytest.mark.parametrize("f_start, f_end", [
    (100.0, 120.0),
    (100.0, 150.0),
    pytest.param(100.0, 200.0, marks=WIDE_GLIDE),
    pytest.param(200.0, 100.0, marks=WIDE_GLIDE),
    pytest.param(90.0, 270.0, marks=WIDE_GLIDE),
])
def test_a_pitch_glide_is_tracked_in_every_frame(f_start, f_end):
    # ground truth: every frame of a clean glide is voiced at its own f0;
    # at least 98 % of frames must be voiced, and at most 2 % of those more
    # than 5 % off it
    frames, truth = _glide(f_start, f_end)
    pitch = track_pitch(frames)
    off = np.abs(pitch.f0_hz[pitch.voiced] / truth[pitch.voiced] - 1.0) > 0.05
    assert pitch.voiced.mean() >= 0.98
    assert off.mean() <= 0.02
