"""Formant analysis via linear prediction on pre-emphasized voiced frames."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InsufficientVoicingError
from .framing import FrameSequence
from .pitch import PitchTrack

PREEMPHASIS = 0.97
FORMANT_FMIN = 90.0
FORMANT_FMAX = 5500.0
MAX_BANDWIDTH = 700.0
N_FORMANTS = 3
# Voiced frames per LPC block: the pre-emphasized frames and the stacked
# companion matrices of one block stay near 200 kB.
LPC_BLOCK = 64


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


def lpc_coefficients(x: np.ndarray, order: int) -> np.ndarray:
    """Autocorrelation-method LPC via the Levinson-Durbin recursion.

    Returns the full polynomial [1, a1, ..., a_order].
    """
    r = _lag_products(x[None, :], order)
    if r[0, 0] <= 0:
        raise ValueError("zero-energy frame")
    return levinson_durbin(r)[0]


@dataclass(frozen=True)
class FormantTrack:
    """Per voiced frame: frequency and bandwidth of formants 1-3.

    Frames where fewer than three valid poles survive are skipped; the frame
    indices of the retained frames are kept for alignment.
    """

    frame_indices: np.ndarray                # (n,)
    frequencies_hz: np.ndarray               # (n, 3)
    bandwidths_hz: np.ndarray                # (n, 3)

    def __len__(self) -> int:
        return len(self.frame_indices)


def _pole_formants(a: np.ndarray, fs: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per row of LPC polynomials: the three lowest valid pole (frequencies,
    bandwidths), and whether the row has three valid poles at all."""
    order = a.shape[1] - 1
    companion = np.zeros((len(a), order, order))
    companion[:, 0, :] = -a[:, 1:]
    companion[:, np.arange(1, order), np.arange(order - 1)] = 1.0
    roots = np.linalg.eigvals(companion)
    freqs = np.angle(roots) * fs / (2.0 * np.pi)
    bws = -(fs / np.pi) * np.log(np.clip(np.abs(roots), 1e-12, None))
    valid = ((np.imag(roots) > 0) & (freqs >= FORMANT_FMIN) & (freqs <= FORMANT_FMAX)
             & (bws < MAX_BANDWIDTH) & (bws > 0))
    lowest = np.argsort(np.where(valid, freqs, np.inf), axis=1)[:, :N_FORMANTS]
    return (np.take_along_axis(freqs, lowest, axis=1),
            np.take_along_axis(bws, lowest, axis=1),
            np.count_nonzero(valid, axis=1) >= N_FORMANTS)


def estimate_formants(frames: FrameSequence, pitch: PitchTrack) -> FormantTrack:
    """Estimate F1-F3 per voiced frame from the roots of a pre-emphasized,
    Hamming-windowed LPC fit of order 2 + fs / 1000."""
    if pitch.n_voiced == 0:
        raise InsufficientVoicingError("no voiced frames for formant analysis")

    fs = frames.sample_rate_hz
    order = 2 + fs // 1000
    window = frames.window
    voiced = np.nonzero(pitch.voiced)[0]

    indices, freq_rows, bw_rows = [], [], []
    for start in range(0, len(voiced), LPC_BLOCK):
        idx = voiced[start:start + LPC_BLOCK]
        emphasized = frames.raw_frames[idx]  # fancy indexing copies
        emphasized[:, 1:] -= PREEMPHASIS * emphasized[:, :-1]
        emphasized *= window
        r = _lag_products(emphasized, order)
        live = r[:, 0] > 0  # zero-energy frames are skipped
        idx, r = idx[live], r[live]
        freqs, bws, kept = _pole_formants(levinson_durbin(r), fs)
        indices.append(idx[kept])
        freq_rows.append(freqs[kept])
        bw_rows.append(bws[kept])

    indices = np.concatenate(indices)
    if len(indices) == 0:
        raise InsufficientVoicingError("no frames yielded three valid formants")
    return FormantTrack(indices, np.concatenate(freq_rows), np.concatenate(bw_rows))
