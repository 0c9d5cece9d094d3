import threading

import numpy as np
import pytest

from voicequal import formants
from voicequal.audio_io import AudioSignal
from voicequal.formants import (
    DEFAULT_F3_REGION,
    LPC_BLOCK,
    PREEMPHASIS,
    SPECTRUM_BLOCK,
    _pole_formants,
    _spectrum_levels,
    estimate_formants,
    levinson_durbin,
)
from voicequal.framing import WINDOW, frame_signal
from voicequal.pitch import PitchTrack, track_pitch
from voicequal.synth import generate_synthetic


def _harmonic_series(f0, amps, fs=16000, duration=0.5):
    t = np.arange(int(duration * fs)) / fs
    x = sum(a * np.sin(2 * np.pi * f0 * (k + 1) * t) for k, a in enumerate(amps))
    x = 0.8 * x / np.abs(x).max()
    return AudioSignal(x, fs, "harmonics")


def _analyze(sig, region=DEFAULT_F3_REGION):
    """Mean H1-H2 and H1-A3 from the spectrum kernel over every voiced frame,
    with one F3 region for all of them."""
    frames = frame_signal(sig)
    pitch = track_pitch(frames)
    idx = np.nonzero(pitch.voiced)[0]
    lo, hi = (np.full(len(idx), edge) for edge in region)
    formants = np.full((len(idx), 3), 1000.0)  # amplitudes are not read here
    _, h1_h2, h1_a3 = _spectrum_levels(frames.raw_frames[idx], pitch.f0_hz[idx], formants, lo, hi)
    return {"logRelF0-H1-H2": h1_h2.mean(), "logRelF0-H1-A3": h1_a3.mean()}


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


def _reference_harmonics(spectrum_db, f0, lo, hi, bin_hz):
    """H1-H2 and H1-A3 of one frame's dB spectrum, with F3 region lo..hi."""

    def peak(freq, half_width):
        lo_bin = max(0, int(np.floor((freq - half_width) / bin_hz)))
        hi_bin = min(len(spectrum_db) - 1, int(np.ceil((freq + half_width) / bin_hz)))
        return spectrum_db[lo_bin:hi_bin + 1].max()

    h1, h2 = peak(f0, f0 / 4), peak(2 * f0, f0 / 4)
    ks = np.arange(max(1, int(np.ceil(lo / f0))), int(hi / f0) + 1)
    if len(ks) == 0:
        ks = np.array([max(1, int(round((lo + hi) / 2 / f0)))])
    return h1 - h2, h1 - max(peak(k * f0, f0 / 4) for k in ks)


def _spectrum_db(frames, i):
    spectrum = np.fft.rfft(frames.raw_frames[i] * WINDOW, 4096)
    return 20.0 * np.log10(np.abs(spectrum) + 1e-12)


def _reference_stage(frames, pitch):
    """Per-frame loop reference for the whole voiced-frame stage: one LPC fit
    and one 4096-point spectrum per voiced frame."""
    fs = 16000
    bin_hz = fs / 4096
    order = 2 + fs // 1000
    h1_h2, h1_a3, formants = [], [], []
    for i in np.nonzero(pitch.voiced)[0]:
        f0 = pitch.f0_hz[i]
        x = frames.raw_frames[i]
        e = np.r_[x[0], x[1:] - PREEMPHASIS * x[:-1]] * WINDOW
        r = np.array([np.dot(e[:len(e) - k], e[k:]) for k in range(order + 1)])
        r[0] *= 1.0 + 1e-9
        freqs, bws, kept = _pole_formants(levinson_durbin(r[None]))
        spectrum_db = _spectrum_db(frames, i)
        lo, hi = 2000.0, 4000.0
        if r[0] > 0 and kept[0]:
            level_f0 = spectrum_db[int(round(f0 / bin_hz))]
            amps = [spectrum_db[min(int(round(max(1, int(round(f / f0))) * f0 / bin_hz)), 2048)]
                    - level_f0 for f in freqs[0]]
            formants.append((freqs[0], bws[0], amps))
            lo, hi = freqs[0, 2] - bws[0, 2], freqs[0, 2] + bws[0, 2]
        d2, d3 = _reference_harmonics(spectrum_db, f0, lo, hi, bin_hz)
        h1_h2.append(d2)
        h1_a3.append(d3)
    means = np.mean(formants, axis=0)
    values = {"logRelF0-H1-H2": np.mean(h1_h2), "logRelF0-H1-A3": np.mean(h1_a3)}
    for n in range(3):
        values[f"F{n + 1}frequency"] = means[0, n]
        values[f"F{n + 1}bandwidth"] = means[1, n]
        values[f"F{n + 1}amplitudeLogRelF0"] = means[2, n]
    return values


def test_narrow_f3_region_takes_the_nearest_harmonic():
    # F3 +/- 20 Hz at 2440 Hz holds no harmonic of 200 Hz: the nearest (2400 Hz) counts
    sig = _harmonic_series(200, [1.0, 0.6, *np.linspace(0.5, 0.05, 15)])
    frames = frame_signal(sig)
    pitch = track_pitch(frames)
    reference = [_reference_harmonics(_spectrum_db(frames, i), pitch.f0_hz[i],
                                      2420.0, 2460.0, sig.sample_rate_hz / 4096)
                 for i in np.nonzero(pitch.voiced)[0]]
    values = _analyze(sig, region=(2420.0, 2460.0))
    h1_h2, h1_a3 = np.mean(reference, axis=0)
    assert values["logRelF0-H1-H2"] == pytest.approx(h1_h2, rel=1e-12, abs=1e-12)
    assert values["logRelF0-H1-A3"] == pytest.approx(h1_a3, rel=1e-12, abs=1e-12)


def test_block_levels_match_per_frame_reference():
    signals = [generate_synthetic(kind, f0=f0, duration=0.6, seed=2)
               for kind, f0 in (("clean", 120.0), ("breathy", 210.0))]
    # a vowel, then three harmonics without three formants: 98 voiced frames
    # over two LPC blocks, half of them searched for A3 in the 2-4 kHz region
    vowel = generate_synthetic("clean", f0=200.0, duration=0.5, seed=2)
    signals.append(AudioSignal(np.concatenate(
        [vowel.samples, _harmonic_series(200, [1.0, 0.5, 0.1]).samples]), 16000))
    inputs = [(frames, track_pitch(frames)) for frames in map(frame_signal, signals)]
    # the last signal's first 7 and last 6 voiced frames (3 formants, then
    # none) at f0 alternating 55 and 1000 Hz: the most A3 harmonics and the
    # widest windows in one spectrum sub-block
    frames, pitch = inputs[-1]
    voiced = np.nonzero(pitch.voiced)[0]
    chosen = np.concatenate((voiced[:7], voiced[-6:]))
    mask = np.zeros(len(pitch), dtype=bool)
    mask[chosen] = True
    f0 = np.zeros(len(pitch))
    f0[chosen] = np.resize([55.0, 1000.0], len(chosen))
    alternating = PitchTrack(f0, pitch.harmonicity.copy())
    assert len(estimate_formants(frames, alternating)) == 7
    inputs.append((frames, alternating))
    for frames, pitch in inputs:
        values = estimate_formants(frames, pitch).values
        reference = _reference_stage(frames, pitch)
        assert set(values) == set(reference)
        for key, want in reference.items():
            assert values[key] == pytest.approx(want, rel=1e-12, abs=1e-12), key


def _partly_voiced(n_voiced):
    """Frames of a vowel followed by three bare harmonics, and a pitch track
    voicing the first n_voiced - 1 voiced frames of the vowel and, past the
    first, one bare-harmonic frame, which has no three formants."""
    vowel = generate_synthetic("clean", f0=200.0, duration=2.0, seed=2)
    sig = AudioSignal(np.concatenate(
        [vowel.samples, _harmonic_series(200, [1.0, 0.5, 0.1]).samples]), 16000)
    frames = frame_signal(sig)
    pitch = track_pitch(frames)
    voiced = np.nonzero(pitch.voiced)[0]
    chosen = voiced[:n_voiced]
    if n_voiced > 1:
        chosen[-1] = voiced[-10]
    mask = np.zeros(len(pitch), dtype=bool)
    mask[chosen] = True
    return frames, PitchTrack(np.where(mask, pitch.f0_hz, 0.0), pitch.harmonicity.copy())


@pytest.mark.parametrize("n_voiced", [1, 7, 8, 9, 63, 64, 65, 66, 95, 96, 97, 98, 127, 128,
                                     129, 193])
def test_stage_matches_per_frame_reference_at_block_edges(n_voiced, monkeypatch):
    # n_voiced frames across the edges of the spectrum sub-blocks and the
    # even LPC blocks (65: 32 + 33; 129: 3 x 43), inline and, from a second
    # block on, two blocks at a time on the caller and the pool
    frames, part = _partly_voiced(n_voiced)
    reference = _reference_stage(frames, part)
    for workers in (1, 2):
        monkeypatch.setattr(formants, "WORKERS", workers)
        track = estimate_formants(frames, part)
        assert track.n_frames == max(1, n_voiced - 1)
        assert set(track.values) == set(reference)
        for key, want in reference.items():
            assert track.values[key] == pytest.approx(want, rel=1e-12, abs=1e-12), key


@pytest.mark.parametrize("n_voiced", [1, 63, 64, 65, 66, 95, 96, 97, 98, 127, 128, 129, 193])
def test_same_values_on_one_worker_and_two(n_voiced, monkeypatch):
    # the blocks depend on the voiced frames only, and their sums are added
    # in block order on the caller's thread, so the pool changes no bit; from
    # a second block on, the caller and the pool share the blocks, each
    # taking its spectra half as many frames at a time
    frames, part = _partly_voiced(n_voiced)
    calls = []
    block_sums = formants._block_sums

    def recorded(raw_frames, f0_hz, rows, idx):
        calls.append((int(idx[0]), threading.current_thread(), rows))
        return block_sums(raw_frames, f0_hz, rows, idx)

    monkeypatch.setattr(formants, "_block_sums", recorded)
    results = []
    for workers in (1, 2):
        monkeypatch.setattr(formants, "WORKERS", workers)
        calls.clear()
        track = estimate_formants(frames, part)
        results.append((len(track), track.values))
        pooled = workers > 1 and n_voiced > LPC_BLOCK
        assert len({first for first, _, _ in calls}) == len(calls) == -(-n_voiced // LPC_BLOCK)
        for _, thread, rows in calls:
            if pooled:
                assert thread is threading.current_thread() or thread.name.startswith(
                    "voicequal-voiced")
            else:
                assert thread is threading.current_thread()
            assert rows == (SPECTRUM_BLOCK // 2 if pooled else SPECTRUM_BLOCK)
    assert results[0] == results[1]
