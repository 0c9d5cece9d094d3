import numpy as np
import pytest

from voicequal.audio_io import AudioSignal
from voicequal.errors import InsufficientVoicingError
from voicequal.framing import frame_signal, framing
from voicequal.periods import (ANCHOR_BLOCK, MARK_BLOCK, PERIOD_KEYS, SEARCH_FRACTION,
                               compute_period_llfs, find_period_marks, voiced_runs)
from voicequal.pitch import PitchTrack, parabolic_peak, track_pitch
from voicequal.synth import generate_synthetic, pulse_train

from conftest import raw_pulse_train, sine_signal


def _analyze(sig):
    pitch = track_pitch(frame_signal(sig))
    return compute_period_llfs(sig, pitch)


def test_keys():
    values = _analyze(sine_signal(220, 0.5))
    assert set(values) == set(PERIOD_KEYS)


def test_clean_pulse_train_near_zero_jitter_shimmer():
    values = _analyze(raw_pulse_train(200))
    assert values["jitterLocal"] < 0.005
    assert values["shimmerLocaldB"] < 0.05


def test_jittered_pulse_train_in_expected_range():
    # oracle: mean |dT| of uniform +/-2% periods is 0.02 * (2/3) of the period
    values = _analyze(raw_pulse_train(200, jitter_pct=2.0, seed=1))
    assert 0.01 <= values["jitterLocal"] <= 0.03


def test_jitter_matches_generated_periods():
    rng = np.random.default_rng(5)
    fs = 16000
    x = pulse_train(180, 1.0, fs, rng, jitter_pct=3.0)
    # reconstruct the generator's own pulse times with the same seed
    rng2 = np.random.default_rng(5)
    period = fs / 180
    t, times = period, []
    n = int(fs * 1.0)
    while t < n - 1:
        times.append(t)
        t += period * (1.0 + rng2.uniform(-3.0, 3.0) / 100.0)
    periods = np.diff(times)
    expected = np.mean(np.abs(np.diff(periods))) / np.mean(periods)
    sig = AudioSignal(0.9 * x / np.abs(x).max(), fs, "jit3")
    measured = _analyze(sig)["jitterLocal"]
    assert measured == pytest.approx(expected, rel=0.25)


def test_shimmered_pulse_train_positive_shimmer():
    clean = _analyze(raw_pulse_train(200))
    shim = _analyze(raw_pulse_train(200, shimmer_db=1.0, seed=2))
    assert shim["shimmerLocaldB"] > clean["shimmerLocaldB"]
    # mean |dA| in dB of uniform +/-1 dB perturbations is 2/3 dB
    assert 0.3 <= shim["shimmerLocaldB"] <= 1.1


def test_semitone_mean_220():
    # 12 * log2(220 / 27.5) = 36 exactly
    values = _analyze(sine_signal(220, 0.5))
    assert values["F0semitoneFrom27.5Hz"] == pytest.approx(36.0, abs=0.2)


def test_hnr_sine_high_noise_low():
    assert _analyze(sine_signal(220, 0.5))["HNRdBACF"] > 30

    # 150 Hz, 5 equal harmonics plus white noise at a known power ratio: the
    # HNR in dB is that ratio in dB (measured 3.11, 9.93 and 19.27)
    fs = 16000
    t = np.arange(fs // 2) / fs
    harmonic = sum(np.sin(2 * np.pi * 150 * k * t) for k in range(1, 6))
    rng = np.random.default_rng(0)
    for snr in (2, 10, 100):
        noise = rng.standard_normal(len(t)) * np.sqrt(np.mean(harmonic ** 2) / snr)
        x = harmonic + noise
        hnr = _analyze(AudioSignal(0.9 * x / np.abs(x).max(), fs, f"snr{snr}"))["HNRdBACF"]
        assert hnr == pytest.approx(10 * np.log10(snr), abs=1.0)


def test_insufficient_voicing_raises():
    rng = np.random.default_rng(0)
    noise = AudioSignal(0.5 * rng.standard_normal(8000), 16000, "noise")
    pitch = track_pitch(frame_signal(noise))
    with pytest.raises(InsufficientVoicingError):
        compute_period_llfs(noise, pitch)


def test_voiced_runs_detection():
    v = np.array([0, 1, 1, 1, 0, 1, 1, 0, 1, 1, 1, 1], dtype=bool)
    assert voiced_runs(v) == [(1, 4), (8, 12)]
    assert voiced_runs(np.zeros(5, dtype=bool)) == []


def test_jitter_shimmer_nonnegative():
    for seed in range(3):
        values = _analyze(raw_pulse_train(160, jitter_pct=1.0,
                                          shimmer_db=0.5, seed=seed))
        assert values["jitterLocal"] >= 0
        assert values["shimmerLocaldB"] >= 0


def _two_loop_marks(signal, pitch):
    """Reference march: the forward loop and the backward loop written apart,
    searching a whole-signal |x| and refining all marks at once."""
    fs, x = signal.sample_rate_hz, signal.samples
    magnitude = np.abs(x)
    frame_len, hop = framing(fs)

    def period_at(pos, lo_frame, hi_frame):
        frame = min(max(round((pos - frame_len / 2) / hop), lo_frame), hi_frame - 1)
        f0 = pitch.f0_hz[frame]
        return fs / f0 if f0 > 0 else fs / 100.0

    regions = []
    for lo_frame, hi_frame in voiced_runs(pitch.voiced):
        start = lo_frame * hop
        end = min((hi_frame - 1) * hop + frame_len, len(x))
        if not np.any(magnitude[start:end]):
            continue
        anchor = start + int(magnitude[start:end].argmax())
        marks = [anchor]
        pos = anchor
        while True:
            t = period_at(pos, lo_frame, hi_frame)
            lo = int(round(pos + t * (1 - SEARCH_FRACTION)))
            hi = int(round(pos + t * (1 + SEARCH_FRACTION))) + 1
            if hi > end or lo <= pos:
                break
            pos = lo + int(magnitude[lo:hi].argmax())
            marks.append(pos)
        pos = anchor
        while True:
            t = period_at(pos, lo_frame, hi_frame)
            lo = int(round(pos - t * (1 + SEARCH_FRACTION)))
            hi = int(round(pos - t * (1 - SEARCH_FRACTION))) + 1
            if lo < start or hi >= pos:
                break
            pos = lo + int(magnitude[lo:hi].argmax())
            marks.append(pos)
        marks = np.sort(marks)
        inner = (marks > 0) & (marks < len(x) - 1)
        m = np.clip(marks, 1, len(x) - 2)
        sign = np.where(x[m] >= 0, 1.0, -1.0)
        delta, amp = parabolic_peak(sign * x[m - 1], sign * x[m], sign * x[m + 1])
        positions = np.where(inner, marks + delta, marks)
        amplitudes = np.abs(np.where(inner, amp, x[marks]))
        keep = amplitudes > 0
        if np.count_nonzero(keep) >= 2:
            regions.append((positions[keep], amplitudes[keep]))
    return regions


def _comb_cases():
    """Pulse combs whose period is 0.65, 1 and 1.35 times the tracked one
    (160 Hz), at every phase: each search window bound and each region edge
    is hit exactly by some pulse or step."""
    n = 4000
    n_frames = (n - 400) // 160 + 1
    voiced = np.zeros(n_frames, dtype=bool)
    voiced[2:-2] = True
    pitch = PitchTrack(np.where(voiced, 160.0, 0.0), voiced, np.zeros(n_frames))
    for period in (65, 100, 135):
        for offset in range(period):
            k = np.arange(offset, n, period)
            x = np.zeros(n)
            x[k] = 1.0 - 0.5 * np.abs(k - n / 2) / n  # the anchor is the middle pulse
            yield AudioSignal(x, 16000, "comb"), pitch


def _tie_cases():
    """Regions whose largest positive and negative samples tie in magnitude,
    in either order, within one anchor block and across a block boundary."""
    n = 3 * ANCHOR_BLOCK
    n_frames = (n - 400) // 160 + 1
    voiced = np.zeros(n_frames, dtype=bool)
    voiced[2:-2] = True
    pitch = PitchTrack(np.where(voiced, 160.0, 0.0), voiced, np.zeros(n_frames))
    start = 2 * 160
    k = np.arange(start + 50, n - 450, 100)
    for first, second in ((500, 700), (ANCHOR_BLOCK - 1, ANCHOR_BLOCK),
                          (ANCHOR_BLOCK - 50, 2 * ANCHOR_BLOCK + 50)):
        for sign in (1.0, -1.0):
            x = np.zeros(n)
            x[k] = 0.5
            x[start + first], x[start + second] = sign, -sign
            yield AudioSignal(x, 16000, "tie"), pitch


def test_period_marks_match_two_loop_reference():
    gap = np.zeros(2000)
    vowel = generate_synthetic("clean", f0=180.0, duration=0.5, seed=3).samples
    gapped = AudioSignal(np.concatenate([vowel, gap, vowel[::-1], gap]), 16000, "gapped")
    signals = [gapped, raw_pulse_train(200, duration=0.5, jitter_pct=3.0, seed=4),
               raw_pulse_train(420, duration=3.0, jitter_pct=2.0, seed=5)]
    signals += [generate_synthetic(kind, f0=f0, duration=1.0, seed=1)
                for kind, f0 in (("jittered", 120.0), ("shimmered", 150.0), ("breathy", 210.0))]
    cases = [(sig, track_pitch(frame_signal(sig))) for sig in signals]
    assert len(voiced_runs(cases[0][1].voiced)) == 2  # the gaps split the first signal
    assert max(len(marks.positions) for marks in find_period_marks(*cases[2])) > MARK_BLOCK
    for sig, pitch in cases + list(_comb_cases()) + list(_tie_cases()):
        got = find_period_marks(sig, pitch)
        want = _two_loop_marks(sig, pitch)
        assert len(got) == len(want) > 0
        for marks, (positions, amplitudes) in zip(got, want):
            assert np.array_equal(marks.positions, positions)
            assert np.array_equal(marks.amplitudes, amplitudes)
