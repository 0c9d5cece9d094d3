import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voicequal.audio_io import AudioSignal
from voicequal.errors import InsufficientVoicingError
from voicequal.formants import (
    LPC_BLOCK,
    _even_blocks,
    _lag_products,
    _lpc_formants,
    estimate_formants,
    levinson_durbin,
)
from voicequal.framing import frame_signal
from voicequal.pitch import track_pitch
from voicequal.synth import KINDS, generate_synthetic, pulse_train, vowel_filter

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
    a = levinson_durbin(_lag_products(x[None, 1000:], 2))[0]
    assert np.allclose(a, a_true, atol=0.02)


def test_synthetic_vowel_frequencies():
    sig = _synthetic_vowel()
    values = estimate_formants(frame_signal(sig), track_pitch(frame_signal(sig))).values
    for n, (want, _) in enumerate(TARGET):
        assert abs(values[f"F{n + 1}frequency"] - want) < 60


def test_synthetic_vowel_bandwidths():
    sig = _synthetic_vowel()
    values = estimate_formants(frame_signal(sig), track_pitch(frame_signal(sig))).values
    for n, (_, want) in enumerate(TARGET):
        assert abs(values[f"F{n + 1}bandwidth"] - want) < 40


def test_even_blocks_partition_the_voiced_frames():
    # the fewest blocks of at most LPC_BLOCK frames, as even as they can be,
    # joining back into the voiced indices in order
    for n in range(1, 401):
        voiced = 3 * np.arange(n) + 5
        blocks = list(_even_blocks(voiced))
        sizes = [len(block) for block in blocks]
        assert len(blocks) == -(-n // LPC_BLOCK), n
        assert max(sizes) - min(sizes) <= 1, n
        assert max(sizes) <= LPC_BLOCK, n
        assert np.array_equal(np.concatenate(blocks), voiced), n
    assert [len(block) for block in _even_blocks(np.arange(98))] == [49, 49]
    assert sorted({len(block) for block in _even_blocks(np.arange(998))}) == [62, 63]
    assert list(_even_blocks(np.arange(0))) == []


def test_frequencies_strictly_ordered_bandwidths_positive():
    sig = _synthetic_vowel(f0=140.0, seed=3)
    frames = frame_signal(sig)
    pitch = track_pitch(frames)
    voiced = np.nonzero(pitch.voiced)[0]
    n_kept = 0
    for block in _even_blocks(voiced):
        raw = frames.raw_frames[block]
        freqs, bws, kept = _lpc_formants(raw)
        freqs, bws = freqs[kept], bws[kept]
        assert np.all(freqs[:, 0] < freqs[:, 1])
        assert np.all(freqs[:, 1] < freqs[:, 2])
        assert np.all(freqs[:, 0] > 0)
        assert np.all(bws > 0)
        n_kept += len(freqs)
    assert n_kept == len(estimate_formants(frames, pitch)) > 0


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


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(kind=st.sampled_from(KINDS), f0=st.floats(90.0, 300.0), k=st.integers(0, 20))
def test_voiced_frame_llfs_invariant_under_power_of_two_gain(kind, f0, k):
    # scaling by 2**-k is exact in floating point, so every frame quantity
    # scales exactly: frequencies and bandwidths stay equal, and levels move
    # only through the 1e-12 floor added to magnitudes before taking dB
    sig = generate_synthetic(kind, f0=f0, duration=0.5, seed=0)
    quiet = AudioSignal(sig.samples * 2.0 ** -k, sig.sample_rate_hz, "quiet")
    loud_frames, quiet_frames = frame_signal(sig), frame_signal(quiet)
    loud = estimate_formants(loud_frames, track_pitch(loud_frames)).values
    values = estimate_formants(quiet_frames, track_pitch(quiet_frames)).values
    assert len(values) == 11
    for key, want in loud.items():
        if key.endswith(("frequency", "bandwidth")):
            assert values[key] == want, key
        else:
            assert values[key] == pytest.approx(want, abs=1e-4), key
