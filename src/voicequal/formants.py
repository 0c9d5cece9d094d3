"""The voiced-frame LLFs in one pass: formants from the roots of an LPC fit on
pre-emphasized frames, and harmonic levels from one 4096-point spectrum of
the same frames: H1-H2, H1-A3, and the level of the harmonic nearest each
formant re the f0 level."""

from __future__ import annotations

import os
import threading
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
# At most this many voiced frames per LPC block, whose poles are found in one
# batched eigvals: its stacked companion matrices stay near 160 kB and a half
# block's gathered frames near 100 kB, and neither lives while the block's
# spectra are taken.
LPC_BLOCK = 64

SPECTRUM_NFFT = 4096
BIN_HZ = CANONICAL_RATE / SPECTRUM_NFFT
N_BINS = SPECTRUM_NFFT // 2 + 1
# Voiced frames per spectrum sub-block of an LPC block, whose bin windows are
# read with one reduceat: its magnitudes and half its complex spectra, 66 kB
# each, are held at once, so a block's spectra stay below its pole fit.
SPECTRUM_BLOCK = 4
# F3 search region used for a frame without three formants
DEFAULT_F3_REGION = (2000.0, 4000.0)

FORMANT_KEYS = (
    "logRelF0-H1-H2", "logRelF0-H1-A3",
    "F1frequency", "F1bandwidth", "F1amplitudeLogRelF0",
    "F2frequency", "F2bandwidth", "F2amplitudeLogRelF0",
    "F3frequency", "F3bandwidth", "F3amplitudeLogRelF0",
)

# Most threads in a voiced-frame pass, the caller's included, and so LPC
# blocks in flight. Batched eigvals and rfft release the GIL, so two blocks
# run on two CPUs.
# A block holds at most about 0.21 MB at once, in its pole fit, so two in
# flight set extraction's traced peak (0.42 MB at 10 s); a third would raise
# it by half.
MAX_WORKERS = 2


def _workers() -> int:
    """Blocks to run at once: MAX_WORKERS, or fewer if this process may run
    on fewer CPUs. Read at each pass, so a forked child or a process pinned
    since import runs on the CPUs it has."""
    try:
        return min(MAX_WORKERS, len(os.sched_getaffinity(0)))
    except AttributeError:  # no CPU affinity on this platform
        return min(MAX_WORKERS, os.cpu_count() or 1)


@dataclass(frozen=True)
class FormantTrack:
    """The 11 voiced-frame LLFs, in FORMANT_KEYS order, and the number of
    frames with three formants.

    F1-F3 frequency, bandwidth and amplitude are means over those
    ``n_frames`` frames; H1-H2 and H1-A3 are means over every voiced frame.
    """

    n_frames: int
    values: dict[str, float]

    def __len__(self) -> int:
        return self.n_frames


def _lag_products(x: np.ndarray, order: int) -> np.ndarray:
    """Per row, r[k] = sum(x[n] x[n+k]) for k = 0..order, r[0] slightly loaded."""
    n = x.shape[1]
    r = np.stack([np.vecdot(x[:, :n - k], x[:, k:]) for k in range(order + 1)], axis=1)
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
        acc = r[:, m] + np.vecdot(a[:, 1:m], reversed_r[:, order - m + 1:order])
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
    del companion  # freed before the roots' temporaries are made
    freqs = np.angle(roots) * CANONICAL_RATE / (2.0 * np.pi)
    bws = -(CANONICAL_RATE / np.pi) * np.log(np.clip(np.abs(roots), 1e-12, None))
    valid = ((np.imag(roots) > 0) & (freqs >= FORMANT_FMIN) & (freqs <= FORMANT_FMAX)
             & (bws < MAX_BANDWIDTH) & (bws > 0))
    lowest = np.argsort(np.where(valid, freqs, np.inf), axis=1)[:, :N_FORMANTS]
    return (np.take_along_axis(freqs, lowest, axis=1),
            np.take_along_axis(bws, lowest, axis=1),
            np.count_nonzero(valid, axis=1) >= N_FORMANTS)


def _preemphasize(x: np.ndarray) -> np.ndarray:
    """Pre-emphasize and Hamming-window the rows of frames x in place and
    return x. The shifted rows are scaled SPECTRUM_BLOCK rows at a time, so
    that temporary stays one sub-block's size. A row's first sample has no
    predecessor."""
    for start in range(0, len(x), SPECTRUM_BLOCK):
        part = x[start:start + SPECTRUM_BLOCK]
        part[:, 1:] -= PREEMPHASIS * part[:, :-1]
    x *= WINDOW
    return x


def _lpc_formants(raw_frames, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """_pole_formants of the frames idx of raw_frames, from a
    pre-emphasized, Hamming-windowed LPC fit of order LPC_ORDER.

    The frames are taken in two halves: each is gathered once,
    pre-emphasized in that copy and reduced to its lag products before the
    next is gathered. The polynomials are then fitted, and their poles found,
    for the whole block at once. A zero-energy frame keeps the polynomial
    [1, 0, ..., 0], whose roots at 0 are no valid poles.
    """
    r = np.concatenate([_lag_products(_preemphasize(raw_frames[half]), LPC_ORDER)
                        for half in np.array_split(idx, 2)])  # indexing copies
    return _pole_formants(levinson_durbin(r))


def _level_windows(f0: np.ndarray, freqs: np.ndarray, f3_lo: np.ndarray,
                   f3_hi: np.ndarray) -> np.ndarray:
    """Per frame, the bin windows whose peaks _spectrum_levels reads, as
    (start, end) pairs: width-0 windows at f0 and at the harmonic nearest
    each formant in freqs; then H1, H2 and the A3 harmonics, padded to the
    longest row by repeating the row's last. Each start and end is offset
    by the frame's row in its sub-block's SPECTRUM_BLOCK x N_BINS
    magnitudes. Only the bounds outlive this call, not the arrays they are
    worked out from."""
    f0_col = f0[:, None]
    k_lo = np.maximum(1, np.ceil(f3_lo / f0).astype(int))
    k_hi = (f3_hi / f0).astype(int)
    narrow = k_hi < k_lo
    k_lo = np.where(narrow, np.maximum(1, np.rint((f3_lo + f3_hi) / 2 / f0).astype(int)), k_lo)
    k_hi = np.where(narrow, k_lo, k_hi)
    harmonic = np.maximum(1, np.rint(freqs / f0_col).astype(int)) * f0_col
    at = np.minimum(np.rint(np.hstack((f0_col, harmonic)) / BIN_HZ).astype(int), N_BINS - 1)
    a3 = np.minimum(k_lo[:, None] + np.arange((k_hi - k_lo).max() + 1), k_hi[:, None])
    mid = np.hstack((np.ones_like(f0_col), np.full_like(f0_col, 2.0), a3)) * f0_col
    lo = np.maximum(0, np.floor((mid - f0_col / 4.0) / BIN_HZ).astype(int))
    hi = np.minimum(N_BINS - 1, np.ceil((mid + f0_col / 4.0) / BIN_HZ).astype(int))
    offset = np.arange(len(f0))[:, None] % SPECTRUM_BLOCK * N_BINS
    return np.stack((offset + np.hstack((at, lo)), offset + np.hstack((at, hi)) + 1), axis=2)


def _spectrum_levels(raw_frames, idx: np.ndarray, f0: np.ndarray, freqs: np.ndarray,
                     f3_lo: np.ndarray, f3_hi: np.ndarray) -> tuple[np.ndarray, ...]:
    """Per frame idx (ascending) of raw_frames, from its 4096-point spectrum:
    the level at the harmonic nearest each formant in freqs in dB re the
    level at f0; H1-H2; and H1-A3, with A3 the strongest harmonic in
    f3_lo..f3_hi, or the one nearest its centre if none is inside. Each is
    searched within f0 / 4; f0 <= F0_MAX keeps the second harmonic below
    Nyquist.

    Each level is the peak of a bin window (_level_windows), in dB once
    picked. All rows have the same windows, so each sub-block of
    SPECTRUM_BLOCK frames picks its peaks from one slice of the bounds with
    one reduceat over the sub-block's magnitudes, laid out row after row; a
    padding element after the last row keeps its last end inside. A
    sub-block's frames are gathered when its spectra are taken and windowed
    in that copy. Its spectra are taken half a sub-block at a time into one
    buffer, made once per block like the magnitudes', so a block holds one
    sub-block's magnitudes and half its complex spectra.
    """
    bounds = _level_windows(f0, freqs, f3_lo, f3_hi)
    peaks = np.empty(bounds.shape[:2])
    half = SPECTRUM_BLOCK // 2
    spectra = np.empty((half, N_BINS), complex)
    flat = np.zeros(SPECTRUM_BLOCK * N_BINS + 1)
    magnitudes = flat[:-1].reshape(SPECTRUM_BLOCK, N_BINS)
    for start in range(0, len(f0), SPECTRUM_BLOCK):
        x = raw_frames[idx[start:start + SPECTRUM_BLOCK]]  # indexing copies
        x *= WINDOW
        rows = len(x)
        for row in range(0, rows, half):
            frames = x[row:row + half]
            np.fft.rfft(frames, SPECTRUM_NFFT, axis=1, out=spectra[:len(frames)])
            np.abs(spectra[:len(frames)], out=magnitudes[row:row + len(frames)])
        del x, frames
        picked = np.maximum.reduceat(flat, bounds[start:start + rows].ravel())
        peaks[start:start + rows] = picked[::2].reshape(rows, -1)
    del spectra, flat, magnitudes  # freed before the levels are made
    levels = 20.0 * np.log10(peaks + 1e-12)
    h1, h2 = levels[:, N_FORMANTS + 1], levels[:, N_FORMANTS + 2]
    return (levels[:, 1:N_FORMANTS + 1] - levels[:, :1], h1 - h2,
            h1 - levels[:, N_FORMANTS + 3:].max(axis=1))


def _block_sums(raw_frames, f0_hz: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """One block's terms of the pass's sums, as one float64 vector: H1-H2
    and H1-A3 summed over every frame; F1-F3 frequency, bandwidth and
    amplitude, in FORMANT_KEYS order, summed over the frames with formants;
    and the number of those frames. The frames are read twice: all at once
    for the LPC fit, then SPECTRUM_BLOCK at a time for their spectra, so the
    gathered block is freed before any spectrum is taken."""
    freqs, bws, kept = _lpc_formants(raw_frames, idx)
    f3_lo = np.where(kept, freqs[:, 2] - bws[:, 2], DEFAULT_F3_REGION[0])
    f3_hi = np.where(kept, freqs[:, 2] + bws[:, 2], DEFAULT_F3_REGION[1])
    amplitudes, h1_h2, h1_a3 = _spectrum_levels(raw_frames, idx, f0_hz[idx], freqs,
                                                f3_lo, f3_hi)
    formant_sums = np.stack((freqs, bws, amplitudes))[:, kept].sum(axis=1)
    return np.hstack(([h1_h2.sum(), h1_a3.sum()], formant_sums.T.ravel(),
                      [np.count_nonzero(kept)]))


def _even_blocks(voiced: np.ndarray):
    """voiced cut into the fewest contiguous blocks of at most LPC_BLOCK
    items, whose sizes differ by at most one."""
    n, n_blocks = len(voiced), -(-len(voiced) // LPC_BLOCK)
    return (voiced[i * n // n_blocks:(i + 1) * n // n_blocks] for i in range(n_blocks))


def _map_shared(fn, items: list) -> list:
    """fn of each item, in order, on min(_workers(), len(items)) threads:
    the caller and one fewer helper threads, started here and joined before
    this returns, each take the next item when they finish one; with one
    item or one worker, none is started. The first error stops every thread
    from taking more; calls already running finish, and the error is raised
    here."""
    taken, lock, errors = enumerate(items), threading.Lock(), []
    results = [None] * len(items)

    def take_items():
        try:
            while not errors:
                with lock:  # one iterator, advanced from every thread
                    n, item = next(taken, (None, None))
                if n is None:
                    return
                results[n] = fn(item)
        except BaseException as exc:
            errors.append(exc)

    helpers = [threading.Thread(target=take_items, name="voicequal-voiced")
               for _ in range(min(_workers(), len(items)) - 1)]
    for helper in helpers:
        helper.start()
    take_items()
    for helper in helpers:
        helper.join()
    if errors:
        try:
            raise errors[0]
        finally:
            errors.clear()  # its traceback's frames hold errors: no cycle left
    return results


def estimate_formants(frames: FrameSequence, pitch: PitchTrack) -> FormantTrack:
    """The 11 voiced-frame LLFs from one pass over blocks of voiced frames.

    The voiced frames are cut into _even_blocks (_block_sums). F1-F3
    come from the roots of an LPC fit (_lpc_formants); frames with fewer than
    three valid poles have no formants. Their spectra (_spectrum_levels) give
    H1-H2; H1-A3 over F3 +/- its bandwidth, or 2-4 kHz for a frame without
    formants; and FnamplitudeLogRelF0. Only one sum vector outlives a block.

    The blocks run on the caller and the helper threads of _map_shared, so a
    pass of one block or on one CPU starts none. Each thread takes the next
    block when it finishes one. A block's error is raised here once the
    blocks running beside it have finished; blocks not yet taken by then
    never start. The blocks depend on the voiced frames only and their sum
    vectors are added in block order, so the values do not depend on the
    number of CPUs.
    """
    voiced = np.nonzero(pitch.voiced)[0]
    block_sums = partial(_block_sums, frames.raw_frames, pitch.f0_hz)
    # no voiced frame: no block, and every sum stays 0
    sums = sum(_map_shared(block_sums, list(_even_blocks(voiced))),
               np.zeros(len(FORMANT_KEYS) + 1))
    n_formant = int(sums[-1])
    if n_formant == 0:
        raise InsufficientVoicingError("no frames yielded three valid formants")
    means = np.hstack((sums[:2] / len(voiced), sums[2:-1] / n_formant)).tolist()
    return FormantTrack(n_formant, dict(zip(FORMANT_KEYS, means)))
