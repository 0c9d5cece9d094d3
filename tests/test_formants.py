import numpy as np
import pytest

from voicequal.audio_io import AudioSignal
from voicequal.errors import InsufficientVoicingError
from voicequal.formants import estimate_formants, levinson_durbin, lpc_coefficients
from voicequal.framing import frame_signal
from voicequal.pitch import track_pitch
from voicequal.synth import pulse_train, vowel_filter

TARGET = ((700.0, 80.0), (1220.0, 100.0), (2600.0, 120.0))


def _synthetic_vowel(f0=120.0, resonances=TARGET, seed=0, fs=16000):
    rng = np.random.default_rng(seed)
    x = vowel_filter(pulse_train(f0, 1.0, fs, rng), fs, resonances)
    return AudioSignal(0.9 * x / np.abs(x).max(), fs, "vowel")


def test_lpc_recovers_ar_coefficients():
    # second-order AR process: the recursion must return its coefficients
    rng = np.random.default_rng(0)
    a_true = np.array([1.0, -1.3, 0.6])
    x = rng.standard_normal(20000)
    for i in range(2, len(x)):
        x[i] = x[i] - a_true[1] * x[i - 1] - a_true[2] * x[i - 2]
    a = lpc_coefficients(x[1000:], 2)
    assert np.allclose(a, a_true, atol=0.02)


def test_synthetic_vowel_frequencies():
    sig = _synthetic_vowel()
    track = estimate_formants(frame_signal(sig), track_pitch(frame_signal(sig)))
    means = track.frequencies_hz.mean(axis=0)
    for got, (want, _) in zip(means, TARGET):
        assert abs(got - want) < 60


def test_synthetic_vowel_bandwidths():
    sig = _synthetic_vowel()
    track = estimate_formants(frame_signal(sig), track_pitch(frame_signal(sig)))
    means = track.bandwidths_hz.mean(axis=0)
    for got, (_, want) in zip(means, TARGET):
        assert abs(got - want) < 40


def test_frequencies_strictly_ordered_bandwidths_positive():
    sig = _synthetic_vowel(f0=140.0, seed=3)
    track = estimate_formants(frame_signal(sig), track_pitch(frame_signal(sig)))
    assert np.all(track.frequencies_hz[:, 0] < track.frequencies_hz[:, 1])
    assert np.all(track.frequencies_hz[:, 1] < track.frequencies_hz[:, 2])
    assert np.all(track.frequencies_hz[:, 0] > 0)
    assert np.all(track.bandwidths_hz > 0)


def test_unvoiced_only_raises():
    rng = np.random.default_rng(0)
    noise = AudioSignal(0.5 * rng.standard_normal(8000), 16000, "noise")
    frames = frame_signal(noise)
    with pytest.raises(InsufficientVoicingError):
        estimate_formants(frames, track_pitch(frames))


def test_sparse_pole_frames_are_skipped():
    # a pure sine offers one resonance at most: no frame reaches 3 formants,
    # and the all-skipped case reports insufficient voicing
    t = np.arange(8000) / 16000
    sig = AudioSignal(0.5 * np.sin(2 * np.pi * 220 * t), 16000, "sine")
    frames = frame_signal(sig)
    with pytest.raises(InsufficientVoicingError):
        estimate_formants(frames, track_pitch(frames))


def _levinson_row(r):
    """Per-row Levinson-Durbin reference: stops once the error is not positive."""
    order = len(r) - 1
    a = np.zeros(order + 1)
    a[0] = 1.0
    err = r[0]
    if err <= 0:
        return a
    for m in range(1, order + 1):
        k = -(r[m] + np.dot(a[1:m], r[m - 1:0:-1])) / err
        a[1:m + 1] = a[1:m + 1] + k * a[m - 1::-1][:m]
        err *= 1.0 - k * k
        if err <= 0:
            break
    return a


def test_batched_levinson_matches_per_row_reference():
    rng = np.random.default_rng(1)
    order = 18
    x = rng.standard_normal((4, 400))
    x[1] = np.cumsum(x[1])                         # strongly correlated row
    r = np.array([[np.dot(row[:400 - k], row[k:]) for k in range(order + 1)] for row in x])
    r = np.vstack([r, np.zeros(order + 1), np.ones(order + 1)])
    a = levinson_durbin(r)
    for got, row in zip(a, r):
        np.testing.assert_allclose(got, _levinson_row(row), rtol=1e-10, atol=1e-12)
    # zero energy: untouched; constant lags: error reaches 0 after one step
    np.testing.assert_array_equal(a[4], np.eye(1, order + 1)[0])
    np.testing.assert_array_equal(a[5], np.r_[1.0, -1.0, np.zeros(order - 1)])


def test_lpc_coefficients_is_one_row_of_the_batch():
    rng = np.random.default_rng(2)
    x = rng.standard_normal(400)
    r = np.array([[np.dot(x[:400 - k], x[k:]) for k in range(11)]])
    r[:, 0] *= 1.0 + 1e-9
    np.testing.assert_allclose(lpc_coefficients(x, 10), levinson_durbin(r)[0],
                               rtol=1e-12, atol=1e-14)
    with pytest.raises(ValueError, match="zero-energy"):
        lpc_coefficients(np.zeros(400), 10)
