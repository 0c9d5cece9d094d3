"""Short-time framing: 25 ms Hamming frames with a 10 ms hop, at 16 kHz."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .audio_io import CANONICAL_RATE, AudioSignal
from .errors import AudioIOError

# Every stage analyses CANONICAL_RATE signals, so the frame geometry is fixed:
# 25 ms frames with a 10 ms hop.
FRAME_LENGTH = 400
HOP = 160
WINDOW = np.hamming(FRAME_LENGTH)
WINDOW.setflags(write=False)
# Frames per block for the passes over every frame (RMS here, the 512-point
# spectrum in spectral): their temporaries stay a fixed size, about 0.2 MB per
# array, whatever the utterance length. One spectral block, its windowed
# frames and their complex spectrum, peaks near 0.47 MB traced, below the
# pitch stage's 0.64 MB.
FRAME_BLOCK = 64


class RawFrames:
    """The unwindowed frames of a sample sequence, read from it by range.

    ``frames[a:b]`` is a read-only (b - a, FRAME_LENGTH) strided view over
    one read of the samples those frames span. ``frames[idx]``, for an
    index array, copies its frames, reading one range per run of
    consecutive indices; ``frames[i]`` is one frame, and
    ``np.asarray(frames)`` all of them.
    """

    def __init__(self, samples, n_frames: int):
        self._samples = samples
        self._n_frames = n_frames

    def __len__(self) -> int:
        return self._n_frames

    def __getitem__(self, key) -> np.ndarray:
        if isinstance(key, slice):
            start, stop, step = key.indices(self._n_frames)
            if step != 1:
                raise IndexError("RawFrames slices take no step")
            if stop <= start:
                return np.empty((0, FRAME_LENGTH))
            span = self._samples[start * HOP:(stop - 1) * HOP + FRAME_LENGTH]
            # frame i starts HOP samples after frame i - 1, in the same memory
            frames = np.ndarray((stop - start, FRAME_LENGTH), np.float64, span,
                                strides=(HOP * span.itemsize, span.itemsize))
            frames.setflags(write=False)
            return frames
        if np.ndim(key) == 0:
            i = range(self._n_frames)[key]
            return self[i:i + 1][0]
        idx = np.asarray(key)
        frames = np.empty((len(idx), FRAME_LENGTH))
        edges = [0, *(np.nonzero(idx[1:] - idx[:-1] != 1)[0] + 1).tolist(), len(idx)]
        for lo, hi in zip(edges[:-1], edges[1:]):
            frames[lo:hi] = self[idx[lo]:idx[lo] + hi - lo]
        return frames

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        return np.array(self[:], dtype=dtype)


@dataclass(frozen=True)
class FrameSequence:
    """Unwindowed analysis frames; each spectral stage multiplies in
    ``WINDOW`` where it needs it, so no windowed copy is stored.

    Stages read ``raw_frames`` in blocks or by index, which reads only the
    samples of the frames they take.
    """

    raw_frames: RawFrames     # n_frames frames of FRAME_LENGTH samples, unwindowed
    rms: np.ndarray           # (n_frames,) raw-frame RMS, for voicing and loudness

    @property
    def n_frames(self) -> int:
        return len(self.raw_frames)


def frame_signal(signal: AudioSignal) -> FrameSequence:
    """Cut a CANONICAL_RATE signal into 25 ms frames with a 10 ms hop.

    The trailing partial frame is dropped; a signal at another rate, or
    shorter than one frame, is rejected.
    """
    if signal.sample_rate_hz != CANONICAL_RATE:
        raise AudioIOError(
            f"unsupported analysis rate {signal.sample_rate_hz} Hz: extraction analyses "
            f"{CANONICAL_RATE} Hz signals, and load_audio resamples any WAV to that rate")
    n_samples = len(signal.samples)
    if n_samples < FRAME_LENGTH:
        raise AudioIOError(
            f"signal too short: {n_samples} samples, need at least {FRAME_LENGTH}")

    raw = RawFrames(signal.samples, (n_samples - FRAME_LENGTH) // HOP + 1)
    rms = np.empty(len(raw))
    for start in range(0, len(raw), FRAME_BLOCK):
        block = raw[start:start + FRAME_BLOCK]
        rms[start:start + FRAME_BLOCK] = np.sqrt(np.mean(block ** 2, axis=1))
    return FrameSequence(raw, rms)
