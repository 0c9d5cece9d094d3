"""Noise gate: aspiration noise must not read as jitter or shimmer.

Breathy vowels carry no period or amplitude perturbation: their pulses are
exactly periodic and of equal amplitude, and only additive noise is mixed
in. Over four of them (1 s, f0 120 and 136 Hz, seeds 1 and 2) at each
noise ratio, the mean jitterLocal must stay below what 0.5 % period jitter
reads, 2 * 0.5 / 300 (uniform +/-p % periods give a mean absolute period
difference of 2p/300 of the period), and the mean shimmerLocaldB below
what 0.5 dB shimmer reads, 2 * 0.5 / 3 dB.

Noise ratio 0 is the control and passes. Every noisy level is a strict
xfail today, with its measured mean: the period marks take the largest |x|
near each expected mark, and additive noise moves that peak. They are not
to pass by a wider bound or a smaller grid.
"""

import numpy as np
import pytest

from voicequal.llf import extract_llf_vector
from voicequal.synth import generate_synthetic

BOUNDS = {"jitterLocal": 2 * 0.5 / 300, "shimmerLocaldB": 2 * 0.5 / 3}
NOISE_RATIOS = (0.0, 0.05, 0.1, 0.3, 0.8)
# the mean each noisy level reads today
MEASURED = {"jitterLocal": {0.05: 0.0072, 0.1: 0.0093, 0.3: 0.0130, 0.8: 0.0206},
            "shimmerLocaldB": {0.05: 0.411, 0.1: 0.553, 0.3: 0.869, 0.8: 1.226}}


@pytest.fixture(scope="module")
def means():
    """The mean of each bounded LLF over the four vowels, by noise ratio."""
    result = {}
    for ratio in NOISE_RATIOS:
        vectors = [extract_llf_vector(generate_synthetic("breathy", f0=f0, duration=1.0,
                                                         seed=seed, noise_ratio=ratio))
                   for f0 in (120.0, 136.0) for seed in (1, 2)]
        result[ratio] = {key: np.mean([v[key] for v in vectors]) for key in BOUNDS}
    return result


def _case(key, ratio):
    marks = () if ratio == 0 else pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason=f"reads {MEASURED[key][ratio]} today")
    return pytest.param(key, ratio, id=f"{key}-noise{ratio:g}", marks=marks)


@pytest.mark.parametrize("key, ratio", [_case(key, ratio) for key in BOUNDS
                                        for ratio in NOISE_RATIOS])
def test_noise_reads_as_less_than_half_a_percent_of_perturbation(means, key, ratio):
    assert means[ratio][key] <= BOUNDS[key], means[ratio][key]
