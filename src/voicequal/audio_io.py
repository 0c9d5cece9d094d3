"""WAV decoding and normalization into a canonical signal.

All downstream analysis runs at a single canonical sample rate; multichannel
input is averaged to mono and out-of-range samples trigger peak normalization.
Every WAV is decoded once, chunk by chunk (and resampled, unless it is at the
canonical rate already), into one anonymous map sized before the first chunk;
the source WAV is not read again once it is loaded.
"""

from __future__ import annotations

import functools
import math
import mmap
import os
from dataclasses import dataclass

import numpy as np
from scipy.io import wavfile
from scipy.signal import firwin, upfirdn

from .errors import AudioIOError, SilentInputError

CANONICAL_RATE = 16000
# The highest standard WAV rate. The resampling filter's length grows with
# the rate (640 GiB for a 32-bit header's 4 GHz), so a higher one is rejected.
MAX_RATE = 384000


@dataclass(frozen=True)
class AudioSignal:
    """Mono PCM samples in [-1, 1] at a fixed sample rate, held read-only as
    a float64 array. The array of a loaded WAV lies over its anonymous map.
    A C-contiguous float64 array is kept as given, not copied, so the
    caller's array becomes read-only too; any other array is copied, and the
    caller's stays writable."""

    samples: np.ndarray
    sample_rate_hz: int
    source_id: str = ""

    def __post_init__(self):
        if self.sample_rate_hz <= 0:
            raise AudioIOError(f"invalid sample rate {self.sample_rate_hz}")
        samples = np.ascontiguousarray(self.samples, dtype=np.float64)
        if samples.ndim != 1:
            raise AudioIOError(f"samples must be 1-D, got shape {samples.shape}")
        samples.setflags(write=False)
        object.__setattr__(self, "samples", samples)
        if samples.size == 0:
            raise AudioIOError("empty signal")
        if not (np.isfinite(samples.min()) and np.isfinite(samples.max())):
            raise AudioIOError("non-finite samples")  # NaN propagates through both

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
# Sample frames per chunk when a WAV is decoded, about as many per chunk
# when it is resampled (_resampled), and samples per |x| block in the period
# search: no float64 copy of the file, or of every channel, is held in
# memory, and a chunk's temporaries do not grow with the sample rate.
DECODE_BLOCK = 8192


def _decode(data: np.ndarray, offset: float, scale: float) -> np.ndarray:
    """(data - offset) / scale as float64, with channels averaged: summed in
    order, then divided by their count, as a mean over them would.

    The channels are summed before the offset and the scale are applied,
    one pass each for the whole sum: for integer samples every step up to
    the division by the count is exact, as their sums are integers well
    within float64's 53 bits, each offset an integer and each scale a
    power of two; float samples have no offset and a scale of 1."""
    if data.ndim == 1:
        data = data[:, None]  # a mono WAV as one column
    channels = data.shape[1]
    x = data[:, 0].astype(np.float64)
    for c in range(1, channels):
        x += data[:, c]  # cast exactly to float64 as it is added
    if offset:  # subtracting 0 and dividing by 1 leave every float as it is
        x -= offset * channels
    if scale != 1.0:
        x /= scale
    if channels > 1:
        x /= channels
    return x


def _page_release(data: np.ndarray):
    """A function of lo that releases the mapped WAV's pages wholly before
    data[lo]; the map is private and never written, so a page touched again
    reads the file's bits back. It does nothing for a WAV read into memory,
    or where the platform has no MADV_DONTNEED."""
    mm = data
    while isinstance(mm, np.ndarray):  # a stereo WAV's memmap is a reshaped one
        mm = mm.base
    if not (hasattr(mm, "madvise") and hasattr(mmap, "MADV_DONTNEED")):
        return lambda lo: None
    at, page = data.ctypes.data - np.frombuffer(mm, np.uint8, 1).ctypes.data, mmap.PAGESIZE
    return lambda lo: mm.madvise(mmap.MADV_DONTNEED, 0, (at + lo * data.strides[0]) // page * page)


def _checked_range(data: np.ndarray, path, lo: int, hi: int) -> np.ndarray:
    """Decoded data[lo:hi], or AudioIOError if a sample in it is not finite."""
    raw = data[lo:hi]
    # integer PCM cannot hold NaN or inf; in float data, NaN propagates
    # through both extremes. Checked before the channel mean and the
    # resampler, which would warn on inf
    if raw.dtype.kind == "f" and not (np.isfinite(raw.min()) and np.isfinite(raw.max())):
        raise AudioIOError(f"{path}: non-finite samples")
    return _decode(raw, *_SCALES[data.dtype])


def _decoded(data: np.ndarray, path):
    """The decoded data, DECODE_BLOCK sample frames at a time."""
    release = _page_release(data)
    for lo in range(0, len(data), DECODE_BLOCK):
        yield _checked_range(data, path, lo, lo + DECODE_BLOCK)
        release(lo)


@functools.lru_cache(maxsize=16)
def _resampling_filter(up: int, down: int) -> np.ndarray:
    """resample_poly's default low-pass filter for up/down, designed once."""
    h = firwin(20 * max(up, down) + 1, 1.0 / max(up, down), window=("kaiser", 5.0))
    h.setflags(write=False)  # shared by every load
    return h


def _resampled(data: np.ndarray, rate: int, n_out: int, path):
    """The decoded data resampled from rate to CANONICAL_RATE, its n_out =
    ceil(len(data) * up / down) samples equal to scipy's resample_poly with
    _resampling_filter, in chunks sized by what they read:
    min(DECODE_BLOCK, DECODE_BLOCK * up // down) outputs (at least one),
    which read at most DECODE_BLOCK input frames plus the filter's span
    (len(h) / up inputs, and up to down more that put m0 on the output
    grid), whatever the rate.

    resample_poly filters with h, its filter scaled by up and zero-padded:
    output o is upfirdn(h, x, up, down)[o + pre]. So outputs [o0, o1) come
    from upfirdn over the inputs from m0 through the last one output o1 - 1
    reads, m0 being a multiple of down, which keeps the output grid, at or
    before the first input output o0 reads. Each chunk's inputs are read
    through _checked_range; the first chunk starts at input 0 and the last
    one ends at the last input, so every input is checked.
    """
    g = math.gcd(rate, CANONICAL_RATE)
    up, down = CANONICAL_RATE // g, rate // g
    n_in = len(data)
    window = _resampling_filter(up, down)
    half_len = (len(window) - 1) // 2
    pre_pad = down - half_len % down
    pre = (half_len + pre_pad) // down
    # resample_poly pads h at the end until upfirdn yields n_out + pre outputs
    post_pad = max(0, (n_out + pre - 1) * down + 1 - (n_in - 1) * up - len(window) - pre_pad)
    h = np.concatenate((np.zeros(pre_pad), window * up, np.zeros(post_pad)))

    step = max(1, min(DECODE_BLOCK, DECODE_BLOCK * up // down))
    release = _page_release(data)
    for o0 in range(0, n_out, step):
        o1 = min(o0 + step, n_out)
        m_lo = -(-((o0 + pre) * down - len(h) + 1) // up)
        m0 = max(0, m_lo // down * down)
        m_hi = n_in - 1 if o1 == n_out else (o1 + pre - 1) * down // up
        skip = o0 + pre - m0 * up // down
        yield upfirdn(h, _checked_range(data, path, m0, m_hi + 1), up, down)[skip:skip + o1 - o0]
        release(m0)  # no later chunk starts before m0


def _buffered(chunks, n: int, path) -> tuple[np.ndarray, float]:
    """The n float64 samples of the chunks, one after another, as a writable
    array over an anonymous map, and the largest magnitude among them."""
    try:
        samples = np.frombuffer(mmap.mmap(-1, 8 * n), dtype=np.float64)
    except OSError as exc:
        raise AudioIOError(f"{path}: cannot buffer audio: {exc.strerror or exc}") from None
    peak, at = 0.0, 0
    for chunk in chunks:
        samples[at:at + len(chunk)] = chunk
        at += len(chunk)
        peak = max(peak, chunk.max(), -chunk.min())
        del chunk  # freed before the next chunk is made
    return samples, peak


def _read_wav(path: str) -> tuple[int, np.ndarray]:
    try:
        rate, data = wavfile.read(path, mmap=True)
    except ValueError:  # 24-bit and empty data chunks cannot be mapped
        return wavfile.read(path)
    # a plain array over the mapping, which keeps it open: slicing a memmap
    # costs as much as converting the slice
    return rate, data.view(np.ndarray)


def load_audio(path: str | os.PathLike) -> AudioSignal:
    """Decode a PCM WAV file into a mono AudioSignal at CANONICAL_RATE.

    Rates below 8 kHz or above MAX_RATE, non-finite samples and a decoded
    signal that is all zero (SilentInputError) are rejected. Channels are
    averaged, the result is resampled with a polyphase (band-limited)
    resampler unless it is at CANONICAL_RATE, and peak-normalized only if
    any sample exceeds full scale. The WAV is decoded once, range by range,
    into an anonymous map (128 kB per second of audio while the signal
    lives), and not read again; the peak taken as it is written is the one
    scan for silence and for full scale. Every error reads "<path>: <reason>".
    """
    try:
        rate, data = _read_wav(os.fspath(path))
    except FileNotFoundError:
        raise AudioIOError(f"{path}: cannot read: file not found")
    except Exception as exc:
        raise AudioIOError(f"{path}: cannot read: {exc}")
    if rate < 8000:  # before resampling: a bogus rate of 1 Hz would upsample 16000x
        raise AudioIOError(f"{path}: unsupported sample rate {rate} Hz: need at least 8000 Hz")
    if rate > MAX_RATE:
        raise AudioIOError(f"{path}: unsupported sample rate {rate} Hz: need at most {MAX_RATE} Hz")

    if data.dtype not in _SCALES:
        raise AudioIOError(f"{path}: unsupported encoding {data.dtype}")
    if data.size == 0:
        raise AudioIOError(f"{path}: zero-length audio")

    n = -(-len(data) * CANONICAL_RATE // rate)
    chunks = _decoded(data, path) if rate == CANONICAL_RATE else _resampled(data, rate, n, path)
    del data  # the WAV is unmapped once its last chunk is read
    samples, peak = _buffered(chunks, n, path)
    if peak == 0.0:
        raise SilentInputError(f"{path}: silent input")
    if peak > 1.0:
        samples /= peak
    return AudioSignal(samples, CANONICAL_RATE, source_id=os.fspath(path))


def save_wav(signal: AudioSignal, path: str | os.PathLike) -> None:
    """Write a signal as 32-bit float WAV (lossless enough for round trips)."""
    wavfile.write(os.fspath(path), signal.sample_rate_hz,
                  np.asarray(signal.samples, dtype=np.float32))
