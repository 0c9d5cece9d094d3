"""The 25-entry low-level feature vector and the full extraction pipeline."""

from __future__ import annotations

import operator
import reprlib
import struct
from itertools import starmap
from typing import Sequence

import numpy as np

from .audio_io import AudioSignal
from .errors import AudioIOError, InsufficientVoicingError
from .formants import FORMANT_KEYS, estimate_formants
from .framing import frame_signal
from .periods import PERIOD_KEYS, compute_period_llfs, voiced_runs
from .pitch import track_pitch
from .spectral import SPECTRAL_KEYS, compute_spectral_llfs

MIN_DURATION_S = 0.3

# canonical key order; every LlfVector carries exactly these keys, each named
# once, in the key tuple of the stage that computes it
LLF_KEYS = SPECTRAL_KEYS + PERIOD_KEYS + FORMANT_KEYS

LlfVector = dict[str, float]

# one vector's values in LLF_KEYS order, looked up in C; a missing key
# raises KeyError naming the first one missing
llf_values = operator.itemgetter(*LLF_KEYS)

# one vector's values as its 200-byte float64 row, packed in C
_pack_row = struct.Struct(f"{len(LLF_KEYS)}d").pack


def llf_row(vector: LlfVector) -> bytes:
    """The vector's float64 row as bytes; ValueError names the first key
    missing ("missing key 'X'") or the first value that is not a real number,
    such as None, a string or an int beyond float64 ("value of 'X' is ...")."""
    try:
        values = llf_values(vector)
    except KeyError as exc:
        raise ValueError(f"missing key {exc.args[0]!r}") from None
    try:
        return _pack_row(*values)
    except struct.error:
        for key, value in zip(LLF_KEYS, values):
            try:
                struct.pack("d", value)
            except struct.error:
                raise ValueError(f"value of {key!r} is not a real number: "
                                 f"{reprlib.repr(value)}") from None
        raise


def llf_matrix(vectors: Sequence[LlfVector]) -> np.ndarray:
    """The vectors as the rows of an (n, 25) float64 array in LLF_KEYS order,
    packed in C and returned as a read-only view of the joined rows; the first
    vector with no row raises ``llf_row``'s ValueError, its position as ``index``."""
    try:
        rows = b"".join(starmap(_pack_row, map(llf_values, vectors)))
    except (KeyError, struct.error):
        for index, vector in enumerate(vectors):
            try:
                llf_row(vector)
            except ValueError as exc:
                exc.index = index
                raise
        raise
    return np.frombuffer(rows, float).reshape(-1, len(LLF_KEYS))


def validate_llf(vector: LlfVector) -> None:
    """Check key completeness and finiteness; raises ValueError on failure."""
    try:
        row = np.frombuffer(llf_row(vector), float)
    except ValueError:
        missing = [k for k in LLF_KEYS if k not in vector]
        if missing:
            raise ValueError(f"missing feature keys: {missing}") from None
        raise
    if len(vector) > len(LLF_KEYS):
        extra = [k for k in vector if k not in LLF_KEYS]
        raise ValueError(f"unknown feature keys: {extra}")
    finite = dict(zip(LLF_KEYS, np.isfinite(row).tolist()))
    if not all(finite.values()):
        raise ValueError(f"non-finite feature values: {[k for k in vector if not finite[k]]}")


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

    # each stage returns its keys in its tuple's order, so the merge is in
    # LLF_KEYS order
    values: LlfVector = {**compute_spectral_llfs(frames),
                         **compute_period_llfs(signal, pitch),
                         **estimate_formants(frames, pitch).values}
    validate_llf(values)
    return values
