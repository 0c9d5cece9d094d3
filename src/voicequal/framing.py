"""Short-time framing: 25 ms Hamming frames with a 10 ms hop."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .audio_io import AudioSignal
from .errors import AudioIOError

FRAME_LENGTH_S = 0.025
HOP_S = 0.010
# Frames per block for the passes over every frame (RMS here, the 512-point
# spectrum in spectral): their temporaries stay a fixed size, about 0.2 MB per
# array at 16 kHz, whatever the utterance length.
FRAME_BLOCK = 64


@dataclass(frozen=True)
class FrameSequence:
    """Unwindowed analysis frames; each spectral stage multiplies in
    ``window`` where it needs it, so no windowed copy is stored.

    ``raw_frames`` is a read-only strided view of the signal, not a copy:
    consumers slice it in blocks or fancy-index it, which copies only the
    frames they take.
    """

    raw_frames: np.ndarray    # (n_frames, frame_length) view, unwindowed
    sample_rate_hz: int
    rms: np.ndarray           # (n_frames,) raw-frame RMS, for voicing and loudness

    @property
    def n_frames(self) -> int:
        return self.raw_frames.shape[0]

    @property
    def frame_length(self) -> int:
        return self.raw_frames.shape[1]

    @property
    def window(self) -> np.ndarray:
        """The Hamming window of one frame."""
        return np.hamming(self.frame_length)

    @property
    def hop_length(self) -> int:
        return framing(self.sample_rate_hz)[1]


def framing(sample_rate_hz: int) -> tuple[int, int]:
    """Frame length and hop in samples at the given sample rate."""
    return int(round(FRAME_LENGTH_S * sample_rate_hz)), int(round(HOP_S * sample_rate_hz))


def frame_signal(signal: AudioSignal) -> FrameSequence:
    """Cut a signal into 25 ms frames with a 10 ms hop.

    The trailing partial frame is dropped; a signal shorter than one frame
    is rejected.
    """
    fs = signal.sample_rate_hz
    frame_len, hop = framing(fs)
    x = signal.samples
    if len(x) < frame_len:
        raise AudioIOError(
            f"signal too short: {len(x)} samples, need at least {frame_len}")

    raw = np.lib.stride_tricks.sliding_window_view(x, frame_len)[::hop]
    rms = np.empty(len(raw))
    for start in range(0, len(raw), FRAME_BLOCK):
        block = raw[start:start + FRAME_BLOCK]
        rms[start:start + FRAME_BLOCK] = np.sqrt(np.mean(block ** 2, axis=1))
    return FrameSequence(raw, fs, rms)
