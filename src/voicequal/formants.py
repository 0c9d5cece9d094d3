"""The voiced-frame LLFs in one pass: formants from the roots of an LPC fit on
pre-emphasized frames, and harmonic levels from one 4096-point spectrum of
the same frames: H1-H2, H1-A3, and the level of the harmonic nearest each
formant re the f0 level."""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from functools import partial

import numpy as np

from .audio_io import CANONICAL_RATE
from .errors import InsufficientVoicingError
from .framing import WINDOW, FrameSequence
from .pitch import PitchTrack

PREEMPHASIS = 0.97
FORMANT_FMIN = 90.0
FORMANT_FMAX = 5500.0
MAX_BANDWIDTH = 700.0
N_FORMANTS = 3
LPC_ORDER = 2 + CANONICAL_RATE // 1000
# At most this many voiced frames per LPC block: the pre-emphasized frames
# and the stacked companion matrices of one block stay near 200 kB.
LPC_BLOCK = 64

SPECTRUM_NFFT = 4096
BIN_HZ = CANONICAL_RATE / SPECTRUM_NFFT
N_BINS = SPECTRUM_NFFT // 2 + 1
# Voiced frames per spectrum sub-block of an LPC block: one sub-block's
# complex spectrum and magnitudes stay near 0.4 MB, below the all-frame
# spectral stage's peak. With two LPC blocks in flight, each takes half as
# many, so both blocks together stay below that peak too.
SPECTRUM_BLOCK = 8
# F3 search region used for a frame without three formants
DEFAULT_F3_REGION = (2000.0, 4000.0)

# LPC blocks in flight at once: the caller's and one on _POOL. Batched
# eigvals and rfft release the GIL, so two blocks run on two CPUs; two
# blocks' working sets fit where the spectral stage peaks, more would not.
MAX_WORKERS = 2


def _new_pool() -> None:
    """Set WORKERS from the CPUs this process may run on, and replace _POOL.
    Its thread starts at the first block submitted, so one CPU starts none.
    A child process after fork() runs this again: its parent's thread does
    not exist in it, and it may have been pinned to fewer CPUs."""
    global WORKERS, _POOL
    try:
        WORKERS = min(MAX_WORKERS, len(os.sched_getaffinity(0)))
    except AttributeError:  # no CPU affinity on this platform
        WORKERS = min(MAX_WORKERS, os.cpu_count() or 1)
    _POOL = ThreadPoolExecutor(MAX_WORKERS - 1, thread_name_prefix="voicequal-voiced")


_new_pool()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_new_pool)


@dataclass(frozen=True)
class FormantTrack:
    """The 11 voiced-frame LLFs and the number of frames with three formants.

    F1-F3 frequency, bandwidth and amplitude are means over those
    ``n_frames`` frames; H1-H2 and H1-A3 are means over every voiced frame.
    """

    n_frames: int
    values: dict[str, float]

    def __len__(self) -> int:
        return self.n_frames


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per row, the dot product of a and b, summed exactly as np.dot sums one row."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def _lag_products(x: np.ndarray, order: int) -> np.ndarray:
    """Per row, r[k] = sum(x[n] x[n+k]) for k = 0..order, r[0] slightly loaded."""
    n = x.shape[1]
    r = np.stack([_row_dots(x[:, :n - k], x[:, k:]) for k in range(order + 1)], axis=1)
    r[:, 0] *= 1.0 + 1e-9  # slight diagonal loading for numerical safety
    return r


def levinson_durbin(r: np.ndarray) -> np.ndarray:
    """Levinson-Durbin recursion on each row of lag products r[:, 0..order].

    Returns the polynomials [1, a1, ..., a_order], one per row. A row stops
    updating once its prediction error is no longer positive; a row with
    r[0] <= 0 stays at [1, 0, ..., 0].
    """
    n_rows, order = r.shape[0], r.shape[1] - 1
    a = np.zeros((n_rows, order + 1))
    a[:, 0] = 1.0
    err = r[:, 0].copy()
    active = err > 0
    reversed_r = np.ascontiguousarray(r[:, ::-1])  # r[m-1], ..., r[1] as one slice
    for m in range(1, order + 1):
        acc = r[:, m] + _row_dots(a[:, 1:m], reversed_r[:, order - m + 1:order])
        # k = 0 leaves a stopped row's coefficients and error unchanged
        k = np.where(active, -acc / np.where(active, err, 1.0), 0.0)
        a[:, 1:m + 1] += k[:, None] * a[:, m - 1::-1][:, :m]
        err *= 1.0 - k * k
        active &= err > 0
    return a


def _pole_formants(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per row of LPC polynomials: the three lowest valid pole (frequencies,
    bandwidths), and whether the row has three valid poles at all."""
    order = a.shape[1] - 1
    companion = np.zeros((len(a), order, order))
    companion[:, 0, :] = -a[:, 1:]
    companion[:, np.arange(1, order), np.arange(order - 1)] = 1.0
    roots = np.linalg.eigvals(companion)
    freqs = np.angle(roots) * CANONICAL_RATE / (2.0 * np.pi)
    bws = -(CANONICAL_RATE / np.pi) * np.log(np.clip(np.abs(roots), 1e-12, None))
    valid = ((np.imag(roots) > 0) & (freqs >= FORMANT_FMIN) & (freqs <= FORMANT_FMAX)
             & (bws < MAX_BANDWIDTH) & (bws > 0))
    lowest = np.argsort(np.where(valid, freqs, np.inf), axis=1)[:, :N_FORMANTS]
    return (np.take_along_axis(freqs, lowest, axis=1),
            np.take_along_axis(bws, lowest, axis=1),
            np.count_nonzero(valid, axis=1) >= N_FORMANTS)


def _preemphasized(raw: np.ndarray) -> np.ndarray:
    """Rows of raw frames pre-emphasized and Hamming-windowed, built in one
    array over its flat, contiguous view, so no ufunc buffers a strided
    operand."""
    x = np.empty_like(raw)
    flat_x, flat_raw = x.reshape(-1), raw.reshape(-1)
    np.multiply(flat_raw[:-1], -PREEMPHASIS, out=flat_x[1:])
    flat_x[1:] += flat_raw[1:]
    x[:, 0] = raw[:, 0]  # a row's first sample has no predecessor
    x *= WINDOW
    return x


def _lpc_formants(raw: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """_pole_formants of each row of raw frames, from a pre-emphasized,
    Hamming-windowed LPC fit of order LPC_ORDER.

    A zero-energy frame keeps the polynomial [1, 0, ..., 0], whose roots at
    0 are no valid poles. The pre-emphasized frames are freed before the
    pole fit.
    """
    r = _lag_products(_preemphasized(raw), LPC_ORDER)
    return _pole_formants(levinson_durbin(r))


def _spectrum_levels(raw: np.ndarray, f0: np.ndarray, freqs: np.ndarray,
                     f3_lo: np.ndarray, f3_hi: np.ndarray,
                     rows: int = SPECTRUM_BLOCK) -> tuple[np.ndarray, ...]:
    """Per row of raw frames, from its 4096-point spectrum: the level at the
    harmonic nearest each formant in freqs in dB re the level at f0; H1-H2;
    and H1-A3, with A3 the strongest harmonic in f3_lo..f3_hi, or the one
    nearest its centre if none is inside. Each is searched within f0 / 4;
    f0 <= F0_MAX keeps the second harmonic below Nyquist.

    Each level is the peak of a bin window, in dB once picked. All rows have
    the same windows, so each sub-block of ``rows`` rows picks its peaks from
    one slice of the bounds with one reduceat; a padding column keeps ends
    inside.
    """
    f0_col = f0[:, None]
    k_lo = np.maximum(1, np.ceil(f3_lo / f0).astype(int))
    k_hi = (f3_hi / f0).astype(int)
    narrow = k_hi < k_lo
    k_lo = np.where(narrow, np.maximum(1, np.rint((f3_lo + f3_hi) / 2 / f0).astype(int)), k_lo)
    k_hi = np.where(narrow, k_lo, k_hi)
    # width-0 windows at f0 and at each formant's harmonic; then H1, H2 and
    # the A3 harmonics, padded to the longest row by repeating the row's last
    harmonic = np.maximum(1, np.rint(freqs / f0_col).astype(int)) * f0_col
    at = np.minimum(np.rint(np.hstack((f0_col, harmonic)) / BIN_HZ).astype(int), N_BINS - 1)
    a3 = np.minimum(k_lo[:, None] + np.arange((k_hi - k_lo).max() + 1), k_hi[:, None])
    mid = np.hstack((np.ones_like(f0_col), np.full_like(f0_col, 2.0), a3)) * f0_col
    lo = np.maximum(0, np.floor((mid - f0_col / 4.0) / BIN_HZ).astype(int))
    hi = np.minimum(N_BINS - 1, np.ceil((mid + f0_col / 4.0) / BIN_HZ).astype(int))
    width = N_BINS + 1
    offset = np.arange(len(f0))[:, None] % rows * width
    bounds = np.stack((offset + np.hstack((at, lo)), offset + np.hstack((at, hi)) + 1), axis=2)
    peaks, padded = np.empty(bounds.shape[:2]), np.zeros((rows, width))
    for start in range(0, len(f0), rows):
        x = raw[start:start + rows]
        block = padded[:len(x)]
        np.abs(np.fft.rfft(x * WINDOW, SPECTRUM_NFFT, axis=1), out=block[:, :N_BINS])
        picked = np.maximum.reduceat(block.ravel(), bounds[start:start + len(x)].ravel())
        peaks[start:start + len(x)] = picked[::2].reshape(len(x), -1)
    levels = 20.0 * np.log10(peaks + 1e-12)
    h1, h2 = levels[:, N_FORMANTS + 1], levels[:, N_FORMANTS + 2]
    return (levels[:, 1:N_FORMANTS + 1] - levels[:, :1], h1 - h2,
            h1 - levels[:, N_FORMANTS + 3:].max(axis=1))


def _block_sums(raw_frames, f0_hz: np.ndarray, rows: int, idx: np.ndarray):
    """One block's terms of the pass's running sums: F1-F3 frequency,
    bandwidth and amplitude summed over the frames with formants (3 x 3), the
    number of those frames, and H1-H2 and H1-A3 summed over every frame.
    The spectra are taken ``rows`` frames at a time."""
    raw = raw_frames[idx]  # fancy indexing copies
    freqs, bws, kept = _lpc_formants(raw)
    f3_lo = np.where(kept, freqs[:, 2] - bws[:, 2], DEFAULT_F3_REGION[0])
    f3_hi = np.where(kept, freqs[:, 2] + bws[:, 2], DEFAULT_F3_REGION[1])
    amplitudes, h1_h2, h1_a3 = _spectrum_levels(raw, f0_hz[idx], freqs, f3_lo, f3_hi, rows)
    return (np.stack((freqs, bws, amplitudes))[:, kept].sum(axis=1),
            np.count_nonzero(kept), np.array([h1_h2.sum(), h1_a3.sum()]))


def _even_blocks(voiced: np.ndarray):
    """voiced cut into the fewest contiguous blocks of at most LPC_BLOCK
    items, whose sizes differ by at most one."""
    n, n_blocks = len(voiced), -(-len(voiced) // LPC_BLOCK)
    return (voiced[i * n // n_blocks:(i + 1) * n // n_blocks] for i in range(n_blocks))


def _pooled(fn, items) -> list:
    """fn of each item, in order. The caller and one _POOL thread each take
    the next item when they finish one, so neither waits for the other
    before the last. An error stops both from taking more; the other's
    running call is waited for and the error raised here."""
    items, lock, stop, results = enumerate(items), threading.Lock(), threading.Event(), {}

    def take_items():
        while True:
            with lock:  # one generator, advanced from two threads
                taken = None if stop.is_set() else next(items, None)
            if taken is None:
                return
            try:
                results[taken[0]] = fn(taken[1])
            except BaseException:
                stop.set()
                raise

    future = _POOL.submit(take_items)
    try:
        take_items()
    finally:
        stop.set()
        future.cancel()
        wait((future,))
    if not future.cancelled():
        future.result()
    return [results[n] for n in range(len(results))]


def estimate_formants(frames: FrameSequence, pitch: PitchTrack) -> FormantTrack:
    """The 11 voiced-frame LLFs from one pass over blocks of voiced frames.

    The voiced frames are cut into _even_blocks, each gathered once. F1-F3
    come from the roots of an LPC fit (_lpc_formants); frames with fewer than
    three valid poles have no formants. Their spectra (_spectrum_levels) give
    H1-H2; H1-A3 over F3 +/- its bandwidth, or 2-4 kHz for a frame without
    formants; and FnamplitudeLogRelF0. Only running sums outlive a block.

    With WORKERS > 1 and two or more blocks, the caller and the pool share
    the blocks (_pooled), each taking its spectra SPECTRUM_BLOCK / WORKERS
    frames at a time. The blocks depend on the voiced frames only and their
    sums are added in block order, so the values do not depend on WORKERS.
    """
    voiced = np.nonzero(pitch.voiced)[0]
    blocks = _even_blocks(voiced)
    pooled = WORKERS > 1 and len(voiced) > LPC_BLOCK
    block_sums = partial(_block_sums, frames.raw_frames, pitch.f0_hz,
                         SPECTRUM_BLOCK // WORKERS if pooled else SPECTRUM_BLOCK)
    parts = _pooled(block_sums, blocks) if pooled else map(block_sums, blocks)

    # rows: frequency, bandwidth and amplitude of F1-F3, summed over the
    # frames with formants; and H1-H2, H1-A3 summed over every voiced frame
    formant_sums, n_formant = np.zeros((3, N_FORMANTS)), 0
    harmonic_sums = np.zeros(2)
    for block_formants, block_kept, block_harmonics in parts:
        formant_sums += block_formants
        n_formant += block_kept
        harmonic_sums += block_harmonics

    if n_formant == 0:
        raise InsufficientVoicingError("no frames yielded three valid formants")
    h1_h2, h1_a3 = harmonic_sums / len(voiced)
    values = {"logRelF0-H1-H2": float(h1_h2), "logRelF0-H1-A3": float(h1_a3)}
    for n, (freq, bw, amplitude) in enumerate((formant_sums / n_formant).T):
        values[f"F{n + 1}frequency"] = float(freq)
        values[f"F{n + 1}bandwidth"] = float(bw)
        values[f"F{n + 1}amplitudeLogRelF0"] = float(amplitude)
    return FormantTrack(n_formant, values)
