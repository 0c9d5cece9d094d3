import numpy as np
import pytest

from voicequal.audio_io import AudioSignal
from voicequal.errors import InsufficientVoicingError
from voicequal.formants import FormantTrack
from voicequal.framing import frame_signal
from voicequal.harmonics import HARMONIC_KEYS, compute_harmonic_llfs
from voicequal.pitch import track_pitch


def _harmonic_series(f0, amps, fs=16000, duration=0.5):
    t = np.arange(int(duration * fs)) / fs
    x = sum(a * np.sin(2 * np.pi * f0 * (k + 1) * t) for k, a in enumerate(amps))
    x = 0.8 * x / np.abs(x).max()
    return AudioSignal(x, fs, "harmonics")


def _analyze(sig):
    frames = frame_signal(sig)
    return compute_harmonic_llfs(frames, track_pitch(frames))


def test_h1_h2_halved_second_harmonic():
    # amplitude ratio 2 -> 20 log10(2) = 6.02 dB
    values = _analyze(_harmonic_series(200, [1.0, 0.5, 0.1]))
    assert values["logRelF0-H1-H2"] == pytest.approx(6.02, abs=0.5)


def test_h1_h2_equal_amplitudes():
    values = _analyze(_harmonic_series(200, [0.5] * 5))
    assert values["logRelF0-H1-H2"] == pytest.approx(0.0, abs=0.5)


def test_h1_a3_uses_high_band_harmonic():
    # strong 3 kHz harmonic (15th of 200 Hz) inside the fallback F3 region
    amps = [1.0, 0.5] + [0.01] * 12 + [0.25]
    values = _analyze(_harmonic_series(200, amps))
    assert values["logRelF0-H1-A3"] == pytest.approx(20 * np.log10(1.0 / 0.25), abs=1.0)


def test_unvoiced_only_raises():
    rng = np.random.default_rng(0)
    noise = AudioSignal(0.5 * rng.standard_normal(8000), 16000, "noise")
    frames = frame_signal(noise)
    with pytest.raises(InsufficientVoicingError):
        compute_harmonic_llfs(frames, track_pitch(frames))


def _reference_levels(frames, pitch, track):
    """Per-frame loop reference: one 4096-point spectrum per voiced frame."""
    bin_hz = frames.sample_rate_hz / 4096

    def peak(spectrum_db, freq, half_width):
        lo = max(0, int(np.floor((freq - half_width) / bin_hz)))
        hi = min(len(spectrum_db) - 1, int(np.ceil((freq + half_width) / bin_hz)))
        return spectrum_db[lo:hi + 1].max()

    f3_region = {int(i): (f - b, f + b) for i, f, b in zip(
        track.frame_indices, track.frequencies_hz[:, 2], track.bandwidths_hz[:, 2])}
    rows = {int(i): row for row, i in enumerate(track.frame_indices)}
    h1_h2, h1_a3, amps = [], [], np.zeros((len(track), 3))
    for i in np.nonzero(pitch.voiced)[0]:
        f0 = pitch.f0_hz[i]
        spectrum = np.fft.rfft(frames.raw_frames[i] * frames.window, 4096)
        spectrum_db = 20.0 * np.log10(np.abs(spectrum) + 1e-12)
        if i in rows:
            level_f0 = spectrum_db[int(round(f0 / bin_hz))]
            for n, f in enumerate(track.frequencies_hz[rows[i]]):
                b = min(int(round(max(1, int(round(f / f0))) * f0 / bin_hz)), 2048)
                amps[rows[i], n] = spectrum_db[b] - level_f0
        h1, h2 = peak(spectrum_db, f0, f0 / 4), peak(spectrum_db, 2 * f0, f0 / 4)
        lo, hi = f3_region.get(int(i), (2000.0, 4000.0))
        ks = np.arange(max(1, int(np.ceil(lo / f0))), int(hi / f0) + 1)
        if len(ks) == 0:
            ks = np.array([max(1, int(round((lo + hi) / 2 / f0)))])
        h1_h2.append(h1 - h2)
        h1_a3.append(h1 - max(peak(spectrum_db, k * f0, f0 / 4) for k in ks))
    return np.mean(h1_h2), np.mean(h1_a3), amps.mean(axis=0)


def _narrow_f3_track(pitch):
    # F3 +/- 20 Hz at 2440 Hz holds no harmonic of 200 Hz: the nearest (2400 Hz) counts
    voiced = np.nonzero(pitch.voiced)[0]
    rows = np.ones((len(voiced), 1))
    return FormantTrack(voiced, rows * [500.0, 1500.0, 2440.0], rows * [60.0, 80.0, 20.0])


def test_block_levels_match_per_frame_reference():
    from voicequal.formants import estimate_formants
    from voicequal.synth import generate_synthetic

    series = frame_signal(_harmonic_series(200, [1.0, 0.6, *np.linspace(0.5, 0.05, 15)]))
    cases = [(series, _narrow_f3_track(track_pitch(series)))]
    for kind, f0 in (("clean", 120.0), ("breathy", 210.0)):
        frames = frame_signal(generate_synthetic(kind, f0=f0, duration=0.6, seed=2))
        cases.append((frames, estimate_formants(frames, track_pitch(frames))))
    for frames, track in cases:
        pitch = track_pitch(frames)
        values = compute_harmonic_llfs(frames, pitch, track)
        h1_h2, h1_a3, amps = _reference_levels(frames, pitch, track)
        assert values["logRelF0-H1-H2"] == pytest.approx(h1_h2, rel=1e-12, abs=1e-12)
        assert values["logRelF0-H1-A3"] == pytest.approx(h1_a3, rel=1e-12, abs=1e-12)
        for n in range(3):
            assert values[f"F{n + 1}amplitudeLogRelF0"] == pytest.approx(
                amps[n], rel=1e-12, abs=1e-12)


def test_formant_amplitudes_only_with_a_track():
    frames = frame_signal(_harmonic_series(200, [1.0, 0.5, 0.1]))
    assert set(compute_harmonic_llfs(frames, track_pitch(frames))) == set(HARMONIC_KEYS)
