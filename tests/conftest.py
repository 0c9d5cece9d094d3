import numpy as np
import pytest

from voicequal.audio_io import CANONICAL_RATE, AudioSignal
from voicequal.llf import LLF_KEYS
from voicequal.quality import effective_coefficient
from voicequal.stats import FeatureStats
from voicequal.synth import pulse_times, pulse_train


def sine_signal(freq, duration=0.5, amp=0.5, fs=CANONICAL_RATE, label="sine"):
    t = np.arange(int(round(duration * fs))) / fs
    return AudioSignal(amp * np.sin(2 * np.pi * freq * t), fs, label)


def raw_pulse_train(f0, duration=1.0, jitter_pct=0.0, shimmer_db=0.0, seed=0,
                    fs=CANONICAL_RATE, label="pulses"):
    """Unfiltered smoothed pulse train; peaks sit exactly at the pulse times."""
    rng = np.random.default_rng(seed)
    x = pulse_train(*pulse_times(f0, duration, fs, rng, jitter_pct=jitter_pct,
                                 shimmer_db=shimmer_db), int(round(duration * fs)), fs)
    return AudioSignal(0.9 * x / np.abs(x).max(), fs, label)


def random_llf(rng):
    return dict(zip(LLF_KEYS, rng.normal(0.0, 5.0, len(LLF_KEYS)).tolist()))


def random_stats(rng):
    mu = dict(zip(LLF_KEYS, rng.normal(0.0, 5.0, len(LLF_KEYS)).tolist()))
    sigma = dict(zip(LLF_KEYS, rng.uniform(0.5, 4.0, len(LLF_KEYS)).tolist()))
    return FeatureStats(mu=mu, sigma=sigma, corpus="random", n_utterances=2)


def loop_score(vector, stats, table, quality_id):
    """Reference scorer: the per-cell dict loop over the table's categories.

    Returns (score, contributions) for one quality, with the contributions
    keyed by the active features in LLF_KEYS order.
    """
    contributions = {}
    for key in LLF_KEYS:
        c = effective_coefficient(table.category(quality_id, key))
        if c != 0.0:
            contributions[key] = c * ((vector[key] - stats.mu[key]) / stats.sigma[key])
    return sum(contributions.values()) / len(contributions), contributions


@pytest.fixture(scope="session")
def default_table():
    from voicequal.quality import load_table
    return load_table()
