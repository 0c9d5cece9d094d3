"""Synthetic vowel generator for verifiable ground truth.

A pulse train (optionally period- or amplitude-perturbed) excites a cascade of
three second-order resonators; the breathy variant mixes aspiration noise and
widens the first resonance.
"""

from __future__ import annotations

import numpy as np
from scipy.signal import lfilter

from .audio_io import CANONICAL_RATE, MAX_RATE, AudioSignal

KINDS = ("clean", "jittered", "shimmered", "breathy")

# vowel-like resonances (Hz) and bandwidths (Hz)
RESONANCES = ((700.0, 80.0), (1220.0, 100.0), (2600.0, 120.0))
BREATHY_F1_BANDWIDTH = 300.0
GLOTTAL_DECAY_S = 0.0005
MIN_DURATION_S = 0.5
MAX_DURATION_S = 600.0  # synthesis holds several float64 copies of the whole signal
MAX_SHIMMER_DB = 40.0   # pulse amplitudes from 1/100 to 100 times the clean pulse's


def pulse_times(f0: float, duration: float, sample_rate: int, rng,
                jitter_pct: float = 0.0, shimmer_db: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Ground truth of a train at nominal f0: pulse times in samples and amplitudes.

    Each step is the period perturbed uniformly by +/- jitter_pct percent;
    each amplitude is 1 perturbed uniformly by +/- shimmer_db dB.
    """
    n = int(round(duration * sample_rate))
    period = sample_rate / f0
    t = period
    times, amplitudes = [], []
    while t < n - 1:
        amp = 1.0
        if shimmer_db > 0:
            amp *= 10.0 ** (rng.uniform(-shimmer_db, shimmer_db) / 20.0)
        times.append(t)
        amplitudes.append(amp)
        step = period
        if jitter_pct > 0:
            step *= 1.0 + rng.uniform(-jitter_pct, jitter_pct) / 100.0
        t += step
    return np.array(times), np.array(amplitudes)


def pulse_train(times, amplitudes, n_samples: int, sample_rate: int) -> np.ndarray:
    """Excitation: impulses at the given times smoothed by a short decay.

    A pulse at time t in [0, n_samples - 1) samples with amplitude a is split
    as (1 - frac) a at floor(t) and frac a at floor(t) + 1, so clean trains
    stay exactly periodic at non-integer periods.
    """
    times = np.asarray(times, dtype=float)
    if times.size and not (times.min() >= 0 and times.max() < n_samples - 1):
        raise ValueError(f"pulse times must lie in [0, {n_samples - 1}) samples")
    i = times.astype(int)
    frac = times - i
    x = np.zeros(n_samples)
    # both shares of each pulse in pulse order: the sums of a scalar loop
    np.add.at(x, np.column_stack((i, i + 1)).ravel(),
              np.column_stack(((1.0 - frac) * amplitudes, frac * amplitudes)).ravel())
    decay = np.exp(-1.0 / (GLOTTAL_DECAY_S * sample_rate))
    return lfilter([1.0], [1.0, -decay], x)


def vowel_filter(x: np.ndarray, sample_rate: int,
                 resonances=RESONANCES) -> np.ndarray:
    """Cascade of all-pole resonator sections."""
    for f, bw in resonances:
        r = np.exp(-np.pi * bw / sample_rate)
        x = lfilter([1.0], [1.0, -2.0 * r * np.cos(2.0 * np.pi * f / sample_rate), r * r], x)
    return x


def generate_synthetic(kind: str, f0: float = 150.0, duration: float = 1.0,
                       seed: int = 0, sample_rate: int = CANONICAL_RATE,
                       jitter_pct: float = 2.0, shimmer_db: float = 1.0,
                       noise_ratio: float = 0.25) -> AudioSignal:
    """Seeded synthetic vowel of one of four kinds.

    clean: exactly periodic; jittered: periods perturbed +/- jitter_pct %;
    shimmered: pulse amplitudes perturbed +/- shimmer_db dB; breathy:
    aspiration noise mixed at energy ratio noise_ratio with a widened first
    resonance.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown kind {kind!r}, expected one of {KINDS}")
    if not MIN_DURATION_S <= duration <= MAX_DURATION_S:
        raise ValueError(f"duration must be in [{MIN_DURATION_S:g}, {MAX_DURATION_S:g}] s,"
                         f" got {duration}")
    if not 55.0 <= f0 <= 500.0:
        raise ValueError(f"f0 {f0} Hz outside the sensible range [55, 500]")
    if not 0 <= jitter_pct < 100:  # 100 % would allow periods of zero or less
        raise ValueError(f"jitter_pct must be nonnegative and below 100, got {jitter_pct}")
    if not 0 <= shimmer_db <= MAX_SHIMMER_DB:
        raise ValueError(f"shimmer_db must be in [0, {MAX_SHIMMER_DB:g}] dB, got {shimmer_db}")
    if not 0 <= noise_ratio <= 10:
        raise ValueError(f"noise_ratio must be in [0, 10], got {noise_ratio}")
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    if not (isinstance(sample_rate, (int, np.integer)) and 8000 <= sample_rate <= MAX_RATE):
        raise ValueError(f"sample_rate must be an integer in [8000, {MAX_RATE}] Hz, got {sample_rate!r}")

    rng = np.random.default_rng(seed)
    times, amplitudes = pulse_times(
        f0, duration, sample_rate, rng,
        jitter_pct=jitter_pct if kind == "jittered" else 0.0,
        shimmer_db=shimmer_db if kind == "shimmered" else 0.0)
    excitation = pulse_train(times, amplitudes, int(round(duration * sample_rate)), sample_rate)

    resonances = RESONANCES
    if kind == "breathy":
        resonances = ((RESONANCES[0][0], BREATHY_F1_BANDWIDTH),) + RESONANCES[1:]
    x = vowel_filter(excitation, sample_rate, resonances)

    if kind == "breathy" and noise_ratio > 0:
        noise = rng.standard_normal(len(x))
        noise *= np.sqrt(noise_ratio * np.mean(x ** 2) / np.mean(noise ** 2))
        x = x + noise

    x = 0.9 * x / np.max(np.abs(x))
    label = f"synth:{kind}:f0={f0:g}:dur={duration:g}:seed={seed}"
    return AudioSignal(x, sample_rate, source_id=label)
