"""The 25-entry low-level feature vector and the full extraction pipeline."""

from __future__ import annotations

import numpy as np

from .audio_io import AudioSignal
from .errors import AudioIOError, InsufficientVoicingError
from .formants import estimate_formants
from .framing import frame_signal
from .periods import compute_period_llfs, voiced_runs
from .pitch import track_pitch
from .spectral import compute_spectral_llfs

MIN_DURATION_S = 0.3

# canonical key order; every LlfVector carries exactly these keys
LLF_KEYS = (
    "Loudness",
    "alphaRatio",
    "hammarbergIndex",
    "slope0-500",
    "slope500-1500",
    "spectralFlux",
    "mfcc1",
    "mfcc2",
    "mfcc3",
    "mfcc4",
    "F0semitoneFrom27.5Hz",
    "jitterLocal",
    "shimmerLocaldB",
    "HNRdBACF",
    "logRelF0-H1-H2",
    "logRelF0-H1-A3",
    "F1frequency",
    "F1bandwidth",
    "F1amplitudeLogRelF0",
    "F2frequency",
    "F2bandwidth",
    "F2amplitudeLogRelF0",
    "F3frequency",
    "F3bandwidth",
    "F3amplitudeLogRelF0",
)

LlfVector = dict[str, float]


def validate_llf(vector: LlfVector) -> None:
    """Check key completeness and finiteness; raises ValueError on failure."""
    missing = [k for k in LLF_KEYS if k not in vector]
    if missing:
        raise ValueError(f"missing feature keys: {missing}")
    extra = [k for k in vector if k not in LLF_KEYS]
    if extra:
        raise ValueError(f"unknown feature keys: {extra}")
    bad = [k for k, v in vector.items() if not np.isfinite(v)]
    if bad:
        raise ValueError(f"non-finite feature values: {bad}")


def extract_llf_vector(signal: AudioSignal) -> LlfVector:
    """Run the full pipeline and return the complete 25-entry vector.

    Voiced-only features are averaged over voiced frames, spectral features
    over all frames. Requires a CANONICAL_RATE signal (load_audio resamples
    to it) of at least 300 ms with three consecutive voiced frames.
    """
    if signal.duration_s < MIN_DURATION_S:
        # whole milliseconds rounded down, so a signal short of the limit
        # never reads as the limit
        raise AudioIOError(
            f"signal too short: {len(signal.samples) * 1000 // signal.sample_rate_hz} ms, "
            f"need {MIN_DURATION_S * 1000:.0f} ms")

    frames = frame_signal(signal)
    pitch = track_pitch(frames)
    if not voiced_runs(pitch.voiced):
        raise InsufficientVoicingError(
            "insufficient voicing: need 3 consecutive voiced frames")

    values: LlfVector = {}
    values.update(compute_spectral_llfs(frames))
    values.update(compute_period_llfs(signal, pitch))
    values.update(estimate_formants(frames, pitch).values)

    ordered = {k: values[k] for k in LLF_KEYS}
    validate_llf(ordered)
    return ordered
