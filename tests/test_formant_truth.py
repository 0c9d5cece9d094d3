"""Formant ground-truth gate: F1-F3 must read the resonances a vowel was
synthesized with.

Grid A: clean, jittered and breathy vowels from ``generate_synthetic``, 2 s,
seed 1, at f0 80-320 Hz, whose resonances are ``synth.RESONANCES``
(700/1220/2600 Hz). Grid B: the male means of Peterson & Barney (JASA 1952)
for /i/, /a/ and /u/, at f0 100 and 130 Hz, built from the same pulse train
and resonator cascade with the synthesizer's bandwidths. /a/ and /u/ have F1
and F2 close together.

Rule: each frequency LLF lies within f0 / 2 of its resonance, half the
harmonic spacing, beyond which a formant reads nearer another harmonic than
its own. Each (vowel, f0, formant) is one case. The strict xfails are the
cases that fail today, each with its measured value: at 220 and 280 Hz a
pole locks onto a harmonic near 1,340 Hz and reads as F3, and the breathy
vowels' widened first resonance reads high at low f0. They are not to pass
by a wider tolerance or a smaller grid.
"""

import functools

import numpy as np
import pytest

from voicequal.audio_io import CANONICAL_RATE, AudioSignal
from voicequal.llf import extract_llf_vector
from voicequal.synth import RESONANCES, generate_synthetic, pulse_times, pulse_train, vowel_filter

DURATION_S = 2.0
KINDS = ("clean", "jittered", "breathy")
F0S = (80.0, 100.0, 120.0, 150.0, 200.0, 220.0, 250.0, 280.0, 320.0)
PETERSON_BARNEY = {"i": (270.0, 2290.0, 3010.0), "a": (730.0, 1090.0, 2440.0),
                   "u": (300.0, 870.0, 2240.0)}
VOWEL_F0S = (100.0, 130.0)
# (vowel, f0, formant): the frequency LLF it reads today (Hz)
MISSES = {
    ("clean", 220.0, 3): 1334.1, ("clean", 280.0, 2): 1059.4, ("clean", 280.0, 3): 1349.2,
    ("clean", 320.0, 3): 2297.0,
    ("jittered", 220.0, 3): 1371.5, ("jittered", 280.0, 2): 1071.4,
    ("jittered", 280.0, 3): 1346.5, ("jittered", 320.0, 3): 1879.9,
    ("breathy", 80.0, 1): 769.8, ("breathy", 100.0, 1): 765.6, ("breathy", 120.0, 1): 766.8,
    ("breathy", 220.0, 3): 2727.4, ("breathy", 280.0, 2): 1458.6,
    ("breathy", 280.0, 3): 2961.4,
}


@functools.lru_cache(maxsize=None)
def _frequencies(vowel, f0):
    """The F1-F3 frequency LLFs of the vowel at f0, and their truth."""
    if vowel in KINDS:
        signal = generate_synthetic(vowel, f0=f0, duration=DURATION_S, seed=1)
        truth = tuple(f for f, _ in RESONANCES)
    else:
        truth = PETERSON_BARNEY[vowel]
        n = int(round(DURATION_S * CANONICAL_RATE))
        times, amplitudes = pulse_times(f0, DURATION_S, CANONICAL_RATE, np.random.default_rng(1))
        x = vowel_filter(pulse_train(times, amplitudes, n, CANONICAL_RATE), CANONICAL_RATE,
                         resonances=tuple(zip(truth, (bw for _, bw in RESONANCES))))
        signal = AudioSignal(0.9 * x / np.abs(x).max(), CANONICAL_RATE)
    vector = extract_llf_vector(signal)
    return tuple(vector[f"F{i}frequency"] for i in (1, 2, 3)), truth


def _case(vowel, f0, formant):
    miss = MISSES.get((vowel, f0, formant))
    marks = () if miss is None else pytest.mark.xfail(
        strict=True, raises=AssertionError, reason=f"F{formant} reads {miss} Hz today")
    return pytest.param(vowel, f0, formant, id=f"{vowel}-{f0:g}Hz-F{formant}", marks=marks)


@pytest.mark.parametrize("vowel, f0, formant",
                         [_case(kind, f0, i) for kind in KINDS for f0 in F0S for i in (1, 2, 3)]
                         + [_case(vowel, f0, i) for vowel in PETERSON_BARNEY
                            for f0 in VOWEL_F0S for i in (1, 2, 3)])
def test_formant_frequency_within_half_the_harmonic_spacing(vowel, f0, formant):
    measured, truth = _frequencies(vowel, f0)
    got, want = measured[formant - 1], truth[formant - 1]
    assert abs(got - want) <= f0 / 2, (got, want)
