import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import voicequal.pitch
from voicequal.audio_io import AudioSignal
from voicequal.framing import frame_signal
from voicequal.pitch import F0_MAX, F0_MIN, _harmonicity, frame_autocorrelation, track_pitch
from voicequal.synth import generate_synthetic

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
    assert set(passed) == {max_lag} and max_lag < frames.frame_length
    fs = frames.sample_rate_hz
    acf = np.tile(np.arange(max_lag + 1.0), (2, 1))  # each lag reads as itself
    read = _harmonicity(acf, np.array([F0_MIN, F0_MAX]), np.array([True, True]), fs)
    assert read[0] == max_lag == np.rint(fs / F0_MIN) + 1


def test_harmonicity_is_the_acf_max_around_the_pitch_lag():
    # the second pass re-picks a few frames of this jittered vowel; their
    # harmonicity must follow the new f0 (or drop to 0 if unvoiced)
    frames = frame_signal(generate_synthetic("jittered", f0=120.0, duration=1.0, seed=1))
    pitch = track_pitch(frames)
    fs = frames.sample_rate_hz
    acf = frame_autocorrelation(frames.raw_frames, int(fs / F0_MIN) + 2)
    expected = np.zeros(len(pitch))
    for i in np.nonzero(pitch.voiced)[0]:
        lag = int(np.rint(fs / pitch.f0_hz[i]))
        expected[i] = max(acf[i, max(tau, 2)] for tau in (lag - 1, lag, lag + 1))
    assert pitch.n_voiced > 0.9 * len(pitch)
    assert np.array_equal(pitch.harmonicity, expected)
