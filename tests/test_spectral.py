import numpy as np
import pytest
from scipy.fft import dct

from voicequal.audio_io import AudioSignal
from voicequal.framing import FRAME_BLOCK, FRAME_LENGTH, HOP, WINDOW, frame_signal
from voicequal.spectral import (ALPHA_HIGH, ALPHA_LOW, MEL_FILTERBANK, NFFT, N_MEL_BANDS,
                                PEAK_HIGH, PEAK_LOW, SLOPE_BINS, SLOPE_HIGH, SLOPE_LOW,
                                SPECTRAL_KEYS, _band_slope, _block_terms, compute_spectral_llfs,
                                mel_filterbank)
from voicequal.synth import KINDS, generate_synthetic

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
    fb = mel_filterbank(26, 512)
    assert fb.shape == (26, 257)
    assert np.all(fb >= 0)
    # every band has some weight
    assert np.all(fb.sum(axis=1) > 0)


def test_mel_filterbank_is_read_only_and_unchanged():
    fb = MEL_FILTERBANK
    assert not fb.flags.writeable
    with pytest.raises(ValueError):
        fb[0, 0] = 1.0
    compute_spectral_llfs(frame_signal(sine_signal(440, 0.5)))
    assert np.array_equal(fb, mel_filterbank(N_MEL_BANDS, NFFT))


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
    freqs = np.fft.rfftfreq(NFFT, 1.0 / 16000)
    mag = np.abs(np.fft.rfft(frames.raw_frames * WINDOW, NFFT, axis=1))
    power = mag ** 2
    low = (freqs >= 50) & (freqs <= 1000)
    high = (freqs > 1000) & (freqs <= 5000)
    pk_low = power[:, (freqs >= 0) & (freqs <= 2000)].max(axis=1)
    pk_high = power[:, (freqs > 2000) & (freqs <= 5000)].max(axis=1)
    db = 10.0 * np.log10(power + eps)
    norms = np.linalg.norm(mag, axis=1, keepdims=True)
    unit = mag / np.where(norms > 0, norms, 1.0)
    fb = mel_filterbank(N_MEL_BANDS, NFFT)
    ceps = dct(np.log(power @ fb.T + eps), type=2, axis=1, norm="ortho")
    values = {
        "Loudness": np.mean(20.0 * np.log10(frames.rms + eps)),
        "alphaRatio": np.mean(10.0 * np.log10(
            (power[:, low].sum(axis=1) + eps) / (power[:, high].sum(axis=1) + eps))),
        "hammarbergIndex": np.mean(10.0 * np.log10((pk_low + eps) / (pk_high + eps))),
        "slope0-500": np.mean(_band_slope(db, (freqs >= 0.0) & (freqs <= 500.0))),
        "slope500-1500": np.mean(_band_slope(db, (freqs >= 500.0) & (freqs <= 1500.0))),
        "spectralFlux": (np.mean(np.linalg.norm(np.diff(unit, axis=0), axis=1))
                         if len(unit) > 1 else 0.0),
    }
    for n in range(4):
        values[f"mfcc{n + 1}"] = ceps[:, n + 1].mean()
    return {k: float(v) for k, v in values.items()}


@pytest.mark.parametrize("n_frames", [1, FRAME_BLOCK, FRAME_BLOCK + 1, 2 * FRAME_BLOCK + 1])
def test_blocked_spectrum_matches_all_frame_reference(n_frames):
    frame_len, hop = FRAME_LENGTH, HOP
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


def _whole_block_terms(raw, prev_unit, out):
    """Reference: _block_terms with the whole block's spectra taken at once,
    whose bits the quarter-block spectra must keep."""
    eps = 1e-12
    mag = np.abs(np.fft.rfft(raw * WINDOW, NFFT, axis=1))
    power = mag ** 2
    out[0] = 10.0 * np.log10(
        (power[:, ALPHA_LOW].sum(axis=1) + eps) / (power[:, ALPHA_HIGH].sum(axis=1) + eps))
    out[1] = 10.0 * np.log10(
        (power[:, PEAK_LOW].max(axis=1) + eps) / (power[:, PEAK_HIGH].max(axis=1) + eps))
    db = 10.0 * np.log10(power[:, :SLOPE_BINS] + eps)
    out[2] = _band_slope(db, SLOPE_LOW)
    out[3] = _band_slope(db, SLOPE_HIGH)
    log_mel = np.log(power @ MEL_FILTERBANK.T + eps)
    out[5:] = dct(log_mel, type=2, axis=1, norm="ortho")[:, 1:5].T
    norms = np.sqrt(power.sum(axis=1, keepdims=True))
    unit = np.divide(mag, np.where(norms > 0, norms, 1.0), out=mag)
    steps = power
    np.subtract(unit[:1], unit[:1] if prev_unit is None else prev_unit, out=steps[:1])
    np.subtract(unit[1:], unit[:-1], out=steps[1:])
    out[4] = np.sqrt(np.square(steps, out=steps).sum(axis=1))
    return unit[-1:].copy()


def _assert_blocks_keep_bits(frames):
    """Every block's terms and last unit spectrum, each block led by the
    unit spectrum the block before it left, keep the reference's bits."""
    got, want = np.empty((9, frames.n_frames)), np.empty((9, frames.n_frames))
    got_unit = want_unit = None
    for start in range(0, frames.n_frames, FRAME_BLOCK):
        block = slice(start, start + FRAME_BLOCK)
        got_unit = _block_terms(frames.raw_frames[block], got_unit, got[:, block])
        want_unit = _whole_block_terms(frames.raw_frames[block], want_unit, want[:, block])
        assert np.array_equal(got_unit, want_unit)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("duration", [0.5, 0.67, 1.0, 10.0])
@pytest.mark.parametrize("kind", KINDS)
def test_spectral_blocks_keep_the_whole_block_bits(kind, duration):
    # the last block short
    frames = frame_signal(generate_synthetic(kind, f0=130.0, duration=duration, seed=4))
    _assert_blocks_keep_bits(frames)


def test_spectral_blocks_keep_the_whole_block_bits_across_silence():
    # zero spectra, whose unit spectra stay zero, on both sides of a
    # quarter-block edge and of the first block's end
    x = generate_synthetic("breathy", f0=170.0, duration=1.5, seed=6).samples.copy()
    for first, last in ((10, 20), (FRAME_BLOCK - 2, FRAME_BLOCK + 2)):
        x[first * HOP:last * HOP + FRAME_LENGTH] = 0.0
    frames = frame_signal(AudioSignal(x, 16000, "gaps"))
    _assert_blocks_keep_bits(frames)
