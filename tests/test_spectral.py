import numpy as np
import pytest
from scipy.fft import dct

from voicequal.audio_io import AudioSignal
from voicequal.framing import FRAME_BLOCK, frame_signal, framing
from voicequal.spectral import (NFFT, N_MEL_BANDS, SPECTRAL_KEYS, _band_slope,
                                compute_spectral_llfs, mel_filterbank)
from voicequal.synth import generate_synthetic

from conftest import sine_signal


def _bandlimited_noise(lo, hi, n=16000, seed=0, fs=16000):
    rng = np.random.default_rng(seed)
    spec = np.zeros(n // 2 + 1, dtype=complex)
    freqs = np.fft.rfftfreq(n, 1 / fs)
    band = (freqs >= lo) & (freqs <= hi)
    spec[band] = rng.standard_normal(band.sum()) + 1j * rng.standard_normal(band.sum())
    x = np.fft.irfft(spec, n)
    x = 0.5 * x / np.sqrt(np.mean(x ** 2))
    return AudioSignal(x, fs, f"noise{lo}-{hi}")


def test_all_keys_present_and_finite():
    values = compute_spectral_llfs(frame_signal(sine_signal(200, 0.5)))
    assert set(values) == set(SPECTRAL_KEYS)
    assert all(np.isfinite(v) for v in values.values())


def test_flux_stationary_sine_vs_noise():
    sine = compute_spectral_llfs(frame_signal(sine_signal(500, 0.5)))
    rng = np.random.default_rng(1)
    noise = AudioSignal(0.5 * rng.standard_normal(8000), 16000, "n")
    noisy = compute_spectral_llfs(frame_signal(noise))
    assert sine["spectralFlux"] < 1e-3 * noisy["spectralFlux"]


def test_alpha_ratio_band_ordering():
    # equal-RMS noise in 50-1000 Hz vs 1-5 kHz: the low band wins alphaRatio
    low = compute_spectral_llfs(frame_signal(_bandlimited_noise(50, 1000)))
    high = compute_spectral_llfs(frame_signal(_bandlimited_noise(1000, 5000)))
    assert low["alphaRatio"] > high["alphaRatio"]


def test_slope_shift_invariant_under_gain():
    sig = _bandlimited_noise(50, 4000, seed=2)
    doubled = AudioSignal(np.clip(2 * sig.samples, -1, 1), 16000, "x2")
    # avoid the clip: scale down instead
    halved = AudioSignal(0.5 * sig.samples, 16000, "x0.5")
    a = compute_spectral_llfs(frame_signal(sig))
    b = compute_spectral_llfs(frame_signal(halved))
    assert a["slope0-500"] == pytest.approx(b["slope0-500"], abs=1e-9)
    assert a["slope500-1500"] == pytest.approx(b["slope500-1500"], abs=1e-9)


def test_loudness_gain_response():
    sig = sine_signal(200, 0.5, amp=0.8)
    half = AudioSignal(0.5 * sig.samples, 16000, "half")
    a = compute_spectral_llfs(frame_signal(sig))
    b = compute_spectral_llfs(frame_signal(half))
    assert a["Loudness"] - b["Loudness"] == pytest.approx(6.02, abs=0.1)


def test_mel_filterbank_shape_and_coverage():
    fb = mel_filterbank(26, 512, 16000)
    assert fb.shape == (26, 257)
    assert np.all(fb >= 0)
    # every band has some weight
    assert np.all(fb.sum(axis=1) > 0)


def test_mel_filterbank_is_cached_read_only_and_unchanged():
    fb = mel_filterbank(N_MEL_BANDS, NFFT, 16000)
    assert mel_filterbank(N_MEL_BANDS, NFFT, 16000) is fb
    assert not fb.flags.writeable
    with pytest.raises(ValueError):
        fb[0, 0] = 1.0
    compute_spectral_llfs(frame_signal(sine_signal(440, 0.5)))
    assert np.array_equal(fb, mel_filterbank.__wrapped__(N_MEL_BANDS, NFFT, 16000))


def test_hammarberg_prefers_low_band_peak():
    low = compute_spectral_llfs(frame_signal(sine_signal(500, 0.5)))
    high = compute_spectral_llfs(frame_signal(sine_signal(3000, 0.5)))
    assert low["hammarbergIndex"] > high["hammarbergIndex"]


def test_hamming_window_limits_leakage():
    # 220 Hz leaves a partial period in each 25 ms frame; the Hamming window
    # keeps the leakage into 2-5 kHz about 61 dB below the peak, where an
    # unwindowed frame leaves it only about 45 dB below
    values = compute_spectral_llfs(frame_signal(sine_signal(220, 0.5)))
    assert values["hammarbergIndex"] > 55


def _all_frame_spectral(frames):
    """Reference: the spectral features from one all-frame spectrum matrix."""
    eps = 1e-12
    freqs = np.fft.rfftfreq(NFFT, 1.0 / frames.sample_rate_hz)
    mag = np.abs(np.fft.rfft(frames.raw_frames * frames.window, NFFT, axis=1))
    power = mag ** 2
    low = (freqs >= 50) & (freqs <= 1000)
    high = (freqs > 1000) & (freqs <= 5000)
    pk_low = power[:, (freqs >= 0) & (freqs <= 2000)].max(axis=1)
    pk_high = power[:, (freqs > 2000) & (freqs <= 5000)].max(axis=1)
    db = 10.0 * np.log10(power + eps)
    norms = np.linalg.norm(mag, axis=1, keepdims=True)
    unit = mag / np.where(norms > 0, norms, 1.0)
    fb = mel_filterbank(N_MEL_BANDS, NFFT, frames.sample_rate_hz)
    ceps = dct(np.log(power @ fb.T + eps), type=2, axis=1, norm="ortho")
    values = {
        "Loudness": np.mean(20.0 * np.log10(frames.rms + eps)),
        "alphaRatio": np.mean(10.0 * np.log10(
            (power[:, low].sum(axis=1) + eps) / (power[:, high].sum(axis=1) + eps))),
        "hammarbergIndex": np.mean(10.0 * np.log10((pk_low + eps) / (pk_high + eps))),
        "slope0-500": np.mean(_band_slope(db, freqs, 0.0, 500.0)),
        "slope500-1500": np.mean(_band_slope(db, freqs, 500.0, 1500.0)),
        "spectralFlux": (np.mean(np.linalg.norm(np.diff(unit, axis=0), axis=1))
                         if len(unit) > 1 else 0.0),
    }
    for n in range(4):
        values[f"mfcc{n + 1}"] = ceps[:, n + 1].mean()
    return {k: float(v) for k, v in values.items()}


@pytest.mark.parametrize("n_frames", [1, FRAME_BLOCK, FRAME_BLOCK + 1, 2 * FRAME_BLOCK + 1])
def test_blocked_spectrum_matches_all_frame_reference(n_frames):
    frame_len, hop = framing(16000)
    x = generate_synthetic("jittered", f0=140.0, duration=1.5, seed=6).samples.copy()
    x = x[:frame_len + (n_frames - 1) * hop]
    # silence around the first block boundary: a zero spectrum carried into
    # the next block's flux, and a zero one taken from it
    x[(FRAME_BLOCK - 1) * hop:FRAME_BLOCK * hop + frame_len] = 0.0
    frames = frame_signal(AudioSignal(x, 16000, "blocks"))
    assert frames.n_frames == n_frames
    got = compute_spectral_llfs(frames)
    want = _all_frame_spectral(frames)
    assert list(got) == list(SPECTRAL_KEYS)
    for key in SPECTRAL_KEYS:
        assert got[key] == pytest.approx(want[key], rel=1e-12, abs=0.0), key
    if n_frames > FRAME_BLOCK:
        assert got["spectralFlux"] > 0
