"""WAV decoding and normalization into a canonical in-memory signal.

All downstream analysis runs at a single canonical sample rate; multichannel
input is averaged to mono and out-of-range samples trigger peak normalization.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass

import numpy as np
from scipy.io import wavfile
from scipy.signal import firwin, resample_poly

from .errors import AudioIOError, SilentInputError

CANONICAL_RATE = 16000


@dataclass(frozen=True)
class AudioSignal:
    """Mono PCM samples in [-1, 1] at a fixed sample rate."""

    samples: np.ndarray
    sample_rate_hz: int
    source_id: str = ""

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        samples.setflags(write=False)
        object.__setattr__(self, "samples", samples)
        if self.sample_rate_hz <= 0:
            raise AudioIOError(f"invalid sample rate {self.sample_rate_hz}")
        if samples.size == 0:
            raise AudioIOError("empty signal")
        if not np.all(np.isfinite(samples)):
            raise AudioIOError("non-finite samples")

    @property
    def duration_s(self) -> float:
        return len(self.samples) / self.sample_rate_hz


# (offset, scale) per sample type: x = (sample - offset) / scale; the float
# entries are exact identities
_SCALES = {
    np.dtype(np.uint8): (128.0, 128.0),   # 8-bit WAV is unsigned, offset binary
    np.dtype(np.int16): (0.0, 32768.0),
    np.dtype(np.int32): (0.0, 2147483648.0),  # scipy widens 24-bit PCM to int32
    np.dtype(np.float32): (0.0, 1.0),
    np.dtype(np.float64): (0.0, 1.0),
}
# Sample frames per decoding block: each block is converted to float64 and
# averaged over its channels before the next, so no float64 copy of every
# channel is ever made.
DECODE_BLOCK = 8192


def _decode(data: np.ndarray, offset: float, scale: float) -> np.ndarray:
    """(data - offset) / scale as float64, with channels averaged."""
    x = np.empty(len(data))
    for start in range(0, len(data), DECODE_BLOCK):
        block = data[start:start + DECODE_BLOCK].astype(np.float64)
        block -= offset
        block /= scale
        x[start:start + DECODE_BLOCK] = block if block.ndim == 1 else block.mean(axis=1)
    return x


@functools.lru_cache(maxsize=16)
def _resampling_filter(up: int, down: int) -> np.ndarray:
    """resample_poly's default low-pass filter for up/down, designed once."""
    h = firwin(20 * max(up, down) + 1, 1.0 / max(up, down), window=("kaiser", 5.0))
    h.setflags(write=False)  # resample_poly scales a copy
    return h


def load_audio(path: str | os.PathLike) -> AudioSignal:
    """Decode a PCM WAV file into a mono AudioSignal at CANONICAL_RATE.

    Rates below 8 kHz and non-finite samples are rejected. Channels are
    averaged, the result is resampled with a polyphase (band-limited)
    resampler, and peak-normalized only if any sample exceeds full scale.
    Every error reads "<path>: <reason>".
    """
    try:
        rate, data = wavfile.read(os.fspath(path))
    except FileNotFoundError:
        raise AudioIOError(f"{path}: cannot read: file not found")
    except Exception as exc:
        raise AudioIOError(f"{path}: cannot read: {exc}")
    if rate < 8000:  # before resampling: a bogus rate of 1 Hz would upsample 16000x
        raise AudioIOError(f"{path}: unsupported sample rate {rate} Hz: need at least 8000 Hz")

    if data.dtype not in _SCALES:
        raise AudioIOError(f"{path}: unsupported encoding {data.dtype}")
    if data.size == 0:
        raise AudioIOError(f"{path}: zero-length audio")
    # NaN propagates through both extremes; checked before the channel mean
    # and the resampler, which would warn on inf
    if not (np.isfinite(data.min()) and np.isfinite(data.max())):
        raise AudioIOError(f"{path}: non-finite samples")
    x = _decode(data, *_SCALES[data.dtype])
    del data
    if not np.any(x):
        raise SilentInputError(f"{path}: silent input")

    if rate != CANONICAL_RATE:
        g = math.gcd(int(rate), CANONICAL_RATE)
        up, down = CANONICAL_RATE // g, rate // g
        x = resample_poly(x, up, down, window=_resampling_filter(up, down))

    peak = max(x.max(), -x.min())
    if peak > 1.0:
        x /= peak

    return AudioSignal(x, CANONICAL_RATE, source_id=os.fspath(path))


def save_wav(signal: AudioSignal, path: str | os.PathLike) -> None:
    """Write a signal as 32-bit float WAV (lossless enough for round trips)."""
    wavfile.write(os.fspath(path), signal.sample_rate_hz,
                  signal.samples.astype(np.float32))
