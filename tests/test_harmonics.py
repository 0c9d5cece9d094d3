import threading

import numpy as np
import pytest

from voicequal import formants
from voicequal.audio_io import AudioSignal
from voicequal.formants import (
    BIN_HZ,
    DEFAULT_F3_REGION,
    LPC_BLOCK,
    LPC_ORDER,
    N_BINS,
    N_FORMANTS,
    PREEMPHASIS,
    SPECTRUM_BLOCK,
    SPECTRUM_NFFT,
    _even_blocks,
    _lpc_formants,
    _pole_formants,
    _spectrum_levels,
    estimate_formants,
    levinson_durbin,
)
from voicequal.framing import WINDOW, frame_signal
from voicequal.pitch import PitchTrack, track_pitch
from voicequal.synth import KINDS, generate_synthetic


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
    _, h1_h2, h1_a3 = _spectrum_levels(frames.raw_frames, idx, pitch.f0_hz[idx], formants, lo, hi)
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


def _whole_block_lpc_formants(raw_frames, idx):
    """Reference: _lpc_formants with the block's frames gathered,
    pre-emphasized, windowed and reduced to lag products all at once, each
    row's products summed as stacked matrix products."""
    x = raw_frames[idx]
    x[:, 1:] -= PREEMPHASIS * x[:, :-1]
    x *= WINDOW
    n = x.shape[1]
    r = np.stack([np.matmul(x[:, None, :n - k], x[:, k:, None])[:, 0, 0]
                  for k in range(LPC_ORDER + 1)], axis=1)
    r[:, 0] *= 1.0 + 1e-9
    return _pole_formants(levinson_durbin(r))


def _padded_spectrum_levels(raw_frames, idx, f0, freqs, f3_lo, f3_hi):
    """Reference: _spectrum_levels with each sub-block's spectra taken at
    once and their magnitudes in a padded block, whose bits the half
    sub-block spectra and the row-after-row magnitudes must keep."""
    f0_col = f0[:, None]
    k_lo = np.maximum(1, np.ceil(f3_lo / f0).astype(int))
    k_hi = (f3_hi / f0).astype(int)
    narrow = k_hi < k_lo
    k_lo = np.where(narrow, np.maximum(1, np.rint((f3_lo + f3_hi) / 2 / f0).astype(int)), k_lo)
    k_hi = np.where(narrow, k_lo, k_hi)
    harmonic = np.maximum(1, np.rint(freqs / f0_col).astype(int)) * f0_col
    at = np.minimum(np.rint(np.hstack((f0_col, harmonic)) / BIN_HZ).astype(int), N_BINS - 1)
    a3 = np.minimum(k_lo[:, None] + np.arange((k_hi - k_lo).max() + 1), k_hi[:, None])
    mid = np.hstack((np.ones_like(f0_col), np.full_like(f0_col, 2.0), a3)) * f0_col
    lo = np.maximum(0, np.floor((mid - f0_col / 4.0) / BIN_HZ).astype(int))
    hi = np.minimum(N_BINS - 1, np.ceil((mid + f0_col / 4.0) / BIN_HZ).astype(int))
    width = N_BINS + 1
    offset = np.arange(len(f0))[:, None] % SPECTRUM_BLOCK * width
    bounds = np.stack((offset + np.hstack((at, lo)), offset + np.hstack((at, hi)) + 1), axis=2)
    peaks, padded = np.empty(bounds.shape[:2]), np.zeros((SPECTRUM_BLOCK, width))
    for start in range(0, len(f0), SPECTRUM_BLOCK):
        x = raw_frames[idx[start:start + SPECTRUM_BLOCK]]
        x *= WINDOW
        block = padded[:len(x)]
        np.abs(np.fft.rfft(x, SPECTRUM_NFFT, axis=1), out=block[:, :N_BINS])
        picked = np.maximum.reduceat(block.ravel(), bounds[start:start + len(x)].ravel())
        peaks[start:start + len(x)] = picked[::2].reshape(len(x), -1)
    levels = 20.0 * np.log10(peaks + 1e-12)
    h1, h2 = levels[:, N_FORMANTS + 1], levels[:, N_FORMANTS + 2]
    return (levels[:, 1:N_FORMANTS + 1] - levels[:, :1], h1 - h2,
            h1 - levels[:, N_FORMANTS + 3:].max(axis=1))


def _assert_block_bits(frames, pitch):
    """Each block of the voiced-frame pass keeps the references' bits."""
    for idx in _even_blocks(np.nonzero(pitch.voiced)[0]):
        fitted = _lpc_formants(frames.raw_frames, idx)
        for got, want in zip(fitted, _whole_block_lpc_formants(frames.raw_frames, idx)):
            assert np.array_equal(got, want)
        freqs, bws, kept = fitted
        args = (frames.raw_frames, idx, pitch.f0_hz[idx], freqs,
                np.where(kept, freqs[:, 2] - bws[:, 2], DEFAULT_F3_REGION[0]),
                np.where(kept, freqs[:, 2] + bws[:, 2], DEFAULT_F3_REGION[1]))
        for got, want in zip(_spectrum_levels(*args), _padded_spectrum_levels(*args)):
            assert np.array_equal(got, want)


@pytest.mark.parametrize("duration", [0.5, 0.67, 1.0, 10.0])
@pytest.mark.parametrize("kind", KINDS)
def test_voiced_frame_blocks_keep_the_whole_block_bits(kind, duration):
    frames = frame_signal(generate_synthetic(kind, f0=130.0, duration=duration, seed=4))
    pitch = track_pitch(frames)
    _assert_block_bits(frames, pitch)
    # f0 alternating 55 and 1000 Hz: the most A3 harmonics and the widest
    # windows in every sub-block
    f0 = np.where(np.cumsum(pitch.voiced) % 2, 55.0, 1000.0) * pitch.voiced
    _assert_block_bits(frames, PitchTrack(f0, pitch.harmonicity))


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


@pytest.mark.parametrize("n_voiced", [1, SPECTRUM_BLOCK - 1, SPECTRUM_BLOCK, SPECTRUM_BLOCK + 1,
                                     63, 64, 65, 66, 95, 96, 97, 98, 127, 128, 129, 193])
def test_stage_matches_per_frame_reference_at_block_edges(n_voiced, monkeypatch):
    # n_voiced frames across the edges of the spectrum sub-blocks and the
    # even LPC blocks (65: 32 + 33; 129: 3 x 43), on the caller alone and,
    # from a second block on, two blocks at a time on the caller and a helper
    frames, part = _partly_voiced(n_voiced)
    reference = _reference_stage(frames, part)
    for workers in (1, 2):
        monkeypatch.setattr(formants, "_workers", lambda: workers)
        track = estimate_formants(frames, part)
        assert track.n_frames == max(1, n_voiced - 1)
        assert set(track.values) == set(reference)
        for key, want in reference.items():
            assert track.values[key] == pytest.approx(want, rel=1e-12, abs=1e-12), key


def test_stage_matches_per_frame_reference_with_gaps_inside_sub_blocks(monkeypatch):
    # 40 consecutive voiced frames, then voiced frames in pairs with one
    # unvoiced frame between: past the first 40, every spectrum sub-block
    # spans more frames than it takes, and it gathers only those; 136 voiced
    # frames make three blocks, so two workers share them
    vowel = generate_synthetic("clean", f0=150.0, duration=2.5, seed=2)
    frames = frame_signal(vowel)
    pitch = track_pitch(frames)
    voiced = np.nonzero(pitch.voiced)[0]
    later = voiced[40:]
    chosen = np.concatenate((voiced[:40], later[later % 3 != 1][:96]))
    assert np.all(np.diff(chosen[40:])[1::2] == 2)
    f0 = np.zeros(len(pitch))
    f0[chosen] = pitch.f0_hz[chosen]
    gapped = PitchTrack(f0, pitch.harmonicity.copy())
    reference = _reference_stage(frames, gapped)
    results = []
    for workers in (1, 2):
        monkeypatch.setattr(formants, "_workers", lambda: workers)
        track = estimate_formants(frames, gapped)
        for key, want in reference.items():
            assert track.values[key] == pytest.approx(want, rel=1e-12, abs=1e-12), key
        results.append((len(track), track.values))
    assert results[0] == results[1]


@pytest.mark.parametrize("n_voiced", [1, 63, 64, 65, 66, 95, 96, 97, 98, 127, 128, 129, 193])
def test_same_values_on_one_worker_and_two(n_voiced, monkeypatch):
    # the blocks depend on the voiced frames only, and their sums are added
    # in block order on the caller's thread, so the helper thread changes no
    # bit; a pass of one block, or on one worker, runs on the caller alone
    # and starts no thread, and from a second block on the caller and one
    # helper share the blocks
    frames, part = _partly_voiced(n_voiced)
    calls, started = [], []
    block_sums, start = formants._block_sums, threading.Thread.start

    def recorded(raw_frames, f0_hz, idx):
        calls.append((int(idx[0]), threading.current_thread()))
        return block_sums(raw_frames, f0_hz, idx)

    def counted_start(thread):
        started.append(thread.name)
        start(thread)

    monkeypatch.setattr(formants, "_block_sums", recorded)
    monkeypatch.setattr(threading.Thread, "start", counted_start)
    results = []
    n_blocks = -(-n_voiced // LPC_BLOCK)
    for workers in (1, 2):
        monkeypatch.setattr(formants, "_workers", lambda: workers)
        calls.clear()
        started.clear()
        track = estimate_formants(frames, part)
        results.append((len(track), track.values))
        threads = min(workers, n_blocks)
        assert started == ["voicequal-voiced"] * (threads - 1)
        assert len({first for first, _ in calls}) == len(calls) == n_blocks
        for _, thread in calls:
            if threads == 1:
                assert thread is threading.current_thread()
            else:
                assert thread is threading.current_thread() or thread.name == "voicequal-voiced"
    assert results[0] == results[1]
