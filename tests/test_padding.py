"""Padding gate: the LLFs of a vowel must not depend on the silence around it.

A 1 s vowel at 130 Hz of each kind (seed 1) is padded on both ends with
0.05, 0.25 or 0.5 s of zeros, or with 0.25 s of Gaussian noise of RMS 1e-3
(-60 dBFS). Rule: each LLF may move, on every kind, by at most its pooled
seed spread: the square root of the mean, over the jittered, shimmered and
breathy kinds, of the LLF's sample variance across seeds 1-5 of the
unpadded vowel. Clean synthesis draws no random numbers, so the clean vowel
is held to that same pooled spread. A padding may move an LLF by no more
than a new seed typically does.

Each (LLF, padding) pair is one case. The strict xfails are the cases that
fail today: the ten spectral LLFs are means over every frame, silent frames
included, and jitter and shimmer take the mark pairs at a region's abrupt
edges. They are not to pass by a wider tolerance or a smaller grid.
"""

import numpy as np
import pytest

from voicequal.audio_io import CANONICAL_RATE, AudioSignal
from voicequal.llf import LLF_KEYS, extract_llf_vector
from voicequal.spectral import SPECTRAL_KEYS
from voicequal.synth import KINDS, generate_synthetic

PADDINGS = {  # name: (seconds on each end, noise RMS; 0 pads with zeros)
    "zeros-0.05s": (0.05, 0.0),
    "zeros-0.25s": (0.25, 0.0),
    "zeros-0.5s": (0.5, 0.0),
    "noise-0.25s": (0.25, 1e-3),
}
SEEDS = range(1, 6)
PERTURBED = [kind for kind in KINDS if kind != "clean"]
# the LLFs that a padding moves beyond the pooled seed spread today
MOVED_BY_PADDING = set(SPECTRAL_KEYS) | {"jitterLocal", "shimmerLocaldB"}


def _vowel(kind, seed):
    return generate_synthetic(kind, f0=130.0, duration=1.0, seed=seed)


def _padded(x, seconds, noise_rms):
    n = int(round(seconds * CANONICAL_RATE))
    rng = np.random.default_rng(0)
    ends = [noise_rms * rng.standard_normal(n) if noise_rms else np.zeros(n) for _ in range(2)]
    return AudioSignal(np.concatenate((ends[0], x, ends[1])), CANONICAL_RATE)


@pytest.fixture(scope="module")
def extracted():
    """Unpadded vectors by (kind, seed), the pooled seed spread of each LLF,
    and the padded seed-1 vectors by (kind, padding)."""
    unpadded = {(kind, seed): extract_llf_vector(_vowel(kind, seed))
                for kind, seed in [("clean", 1)] + [(k, s) for k in PERTURBED for s in SEEDS]}
    spread = {key: np.sqrt(np.mean([np.var([unpadded[kind, seed][key] for seed in SEEDS], ddof=1)
                                    for kind in PERTURBED]))
              for key in LLF_KEYS}
    padded = {(kind, name): extract_llf_vector(_padded(_vowel(kind, 1).samples, *padding))
              for kind in KINDS for name, padding in PADDINGS.items()}
    return unpadded, spread, padded


@pytest.mark.parametrize("key, padding", [
    pytest.param(key, name, id=f"{key}-{name}", marks=pytest.mark.xfail(
        strict=True, reason="moved by the padding today") if key in MOVED_BY_PADDING else ())
    for key in LLF_KEYS for name in PADDINGS])
def test_padding_moves_no_llf_beyond_its_seed_spread(extracted, key, padding):
    unpadded, spread, padded = extracted
    moved = {kind: abs(padded[kind, padding][key] - unpadded[kind, 1][key]) for kind in KINDS}
    assert max(moved.values()) <= spread[key], (moved, spread[key])
