import numpy as np
import pytest

from voicequal.audio_io import AudioSignal
from voicequal.framing import frame_signal
from voicequal.spectral import SPECTRAL_KEYS, compute_spectral_llfs, mel_filterbank

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
