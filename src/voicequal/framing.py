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
# array, whatever the utterance length. A spectral block takes its spectra a
# quarter block at a time and peaks near 0.29 MB traced, below the
# voiced-frame pass on two threads.
FRAME_BLOCK = 64


@dataclass(frozen=True)
class FrameSequence:
    """Unwindowed analysis frames; each spectral stage multiplies in
    ``WINDOW`` where it needs it, so no windowed copy is stored.

    ``raw_frames`` is a read-only strided view over the signal's samples:
    a slice of it is a view too, and only indexing by an array copies.
    """

    raw_frames: np.ndarray    # (n_frames, FRAME_LENGTH) frames, unwindowed
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

    raw = np.lib.stride_tricks.sliding_window_view(signal.samples, FRAME_LENGTH)[::HOP]
    rms = np.empty(len(raw))
    for start in range(0, len(raw), FRAME_BLOCK):
        block = raw[start:start + FRAME_BLOCK]
        rms[start:start + FRAME_BLOCK] = np.sqrt(np.mean(block ** 2, axis=1))
    return FrameSequence(raw, rms)
