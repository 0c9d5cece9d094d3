"""The voiced-frame LLFs in one pass: formants from the roots of an LPC fit on
pre-emphasized frames, and harmonic levels from one 4096-point spectrum of
the same frames: H1-H2, H1-A3, and the level of the harmonic nearest each
formant re the f0 level."""

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

SPECTRUM_NFFT = 4096
# Voiced frames per spectrum sub-block of an LPC block: one sub-block's
# complex spectrum and magnitudes stay under 0.6 MB, below the all-frame
# spectral stage's peak.
SPECTRUM_BLOCK = 8
# F3 search region used for a frame without three formants
DEFAULT_F3_REGION = (2000.0, 4000.0)


@dataclass(frozen=True)
class FormantTrack:
    """The 11 voiced-frame LLFs and the number of frames with three formants.

    F1-F3 frequency, bandwidth and amplitude are means over those
    ``n_frames`` frames; H1-H2 and H1-A3 are means over every voiced frame
    whose second harmonic lies below Nyquist.
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


def _lpc_formants(raw: np.ndarray, window: np.ndarray,
                  fs: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """_pole_formants of each row of raw frames, from a pre-emphasized,
    Hamming-windowed LPC fit of order 2 + fs / 1000.

    A zero-energy frame keeps the polynomial [1, 0, ..., 0], whose roots at
    0 are no valid poles.
    """
    x = raw.copy()
    x[:, 1:] -= PREEMPHASIS * raw[:, :-1]
    x *= window
    return _pole_formants(levinson_durbin(_lag_products(x, 2 + fs // 1000)), fs)


def _db(magnitude: np.ndarray) -> np.ndarray:
    return 20.0 * np.log10(magnitude + 1e-12)


def _window_max(magnitude: np.ndarray, rows: np.ndarray, freq_hz: np.ndarray,
                half_width_hz: np.ndarray, bin_hz: float) -> np.ndarray:
    """Per window j, the largest magnitude[rows[j]] within +/- half_width_hz[j]
    of freq_hz[j].

    magnitude carries one padding column past the last bin, so every
    window's end stays inside the flattened block.
    """
    width = magnitude.shape[1]
    lo = np.maximum(0, np.floor((freq_hz - half_width_hz) / bin_hz).astype(int))
    hi = np.minimum(width - 2, np.ceil((freq_hz + half_width_hz) / bin_hz).astype(int))
    bounds = np.stack([rows * width + lo, rows * width + hi + 1], axis=1).ravel()
    return np.maximum.reduceat(magnitude.ravel(), bounds)[::2]


def _a3_harmonics(f0: np.ndarray, lo_hz: np.ndarray,
                  hi_hz: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Harmonic numbers inside each frame's F3 region, flattened, and their
    count per frame. A region narrower than one harmonic spacing takes the
    harmonic nearest its centre."""
    k_lo = np.maximum(1, np.ceil(lo_hz / f0).astype(int))
    k_hi = (hi_hz / f0).astype(int)
    nearest = np.maximum(1, np.rint((lo_hz + hi_hz) / 2 / f0).astype(int))
    narrow = k_hi < k_lo
    k_lo = np.where(narrow, nearest, k_lo)
    counts = np.where(narrow, 1, k_hi - k_lo + 1)
    first = np.cumsum(counts) - counts
    return np.repeat(k_lo - first, counts) + np.arange(counts.sum()), counts


def _harmonic_levels(magnitude: np.ndarray, f0: np.ndarray, lo_hz: np.ndarray,
                     hi_hz: np.ndarray, bin_hz: float) -> tuple[np.ndarray, np.ndarray]:
    """H1-H2 and H1-A3 in dB of each row of a block of magnitude spectra
    (padded as _window_max needs) whose second harmonic lies below Nyquist.

    H1 and H2 are the spectral peaks near f0 and 2 f0, searched within a
    quarter-f0 window, which absorbs small pitch-tracking error; A3 is the
    strongest harmonic inside the row's F3 region lo_hz..hi_hz. Levels are
    compared as magnitudes and converted to dB only once picked: the dB
    scale is monotonic, so the maxima are the same.
    """
    use = np.nonzero(2 * f0 / bin_hz < magnitude.shape[1] - 1)[0]
    m = len(use)
    ks, counts = _a3_harmonics(f0[use], lo_hz[use], hi_hz[use])
    # windows: H1 of each used row, then H2, then its A3 harmonics
    owner = np.concatenate((use, use, np.repeat(use, counts)))
    number = np.concatenate((np.ones(m, dtype=int), np.full(m, 2), ks))
    levels = _db(_window_max(magnitude, owner, number * f0[owner], f0[owner] / 4.0, bin_hz))
    h1 = levels[:m]
    a3 = np.maximum.reduceat(levels[2 * m:], np.cumsum(counts) - counts)
    return h1 - levels[m:2 * m], h1 - a3


def estimate_formants(frames: FrameSequence, pitch: PitchTrack) -> FormantTrack:
    """The 11 voiced-frame LLFs from one pass over blocks of voiced frames.

    Each LPC_BLOCK of voiced frames is gathered once. F1-F3 come from the
    roots of an LPC fit (_lpc_formants); frames with fewer than three valid
    poles have no formants. One 4096-point spectrum per frame,
    SPECTRUM_BLOCK frames at a time, then gives H1-H2; H1-A3 over F3 +/-
    its bandwidth, or 2-4 kHz for a frame without formants; and
    FnamplitudeLogRelF0, the level at the harmonic nearest formant n in dB
    re the level at f0. Only running sums outlive a block.
    """
    fs = frames.sample_rate_hz
    bin_hz = fs / SPECTRUM_NFFT
    n_bins = SPECTRUM_NFFT // 2 + 1
    window = frames.window
    voiced = np.nonzero(pitch.voiced)[0]

    # rows: frequency, bandwidth and amplitude of F1-F3, summed over the
    # frames with formants; and H1-H2, H1-A3 summed over the frames used
    formant_sums, n_formant = np.zeros((3, N_FORMANTS)), 0
    harmonic_sums, n_harmonic = np.zeros(2), 0
    padded = np.zeros((SPECTRUM_BLOCK, n_bins + 1))
    block_rows = np.arange(SPECTRUM_BLOCK)[:, None]
    for start in range(0, len(voiced), LPC_BLOCK):
        idx = voiced[start:start + LPC_BLOCK]
        raw = frames.raw_frames[idx]  # fancy indexing copies
        freqs, bws, kept = _lpc_formants(raw, window, fs)
        formant_sums[0] += freqs[kept].sum(axis=0)
        formant_sums[1] += bws[kept].sum(axis=0)
        n_formant += np.count_nonzero(kept)
        f3_lo = np.where(kept, freqs[:, 2] - bws[:, 2], DEFAULT_F3_REGION[0])
        f3_hi = np.where(kept, freqs[:, 2] + bws[:, 2], DEFAULT_F3_REGION[1])
        f0 = pitch.f0_hz[idx]

        for sub in range(0, len(idx), SPECTRUM_BLOCK):
            rows = slice(sub, sub + SPECTRUM_BLOCK)
            block = padded[:len(raw[rows])]
            np.abs(np.fft.rfft(raw[rows] * window, SPECTRUM_NFFT, axis=1),
                   out=block[:, :n_bins])
            h1_h2, h1_a3 = _harmonic_levels(block, f0[rows], f3_lo[rows], f3_hi[rows], bin_hz)
            harmonic_sums += h1_h2.sum(), h1_a3.sum()
            n_harmonic += len(h1_h2)

            f0_col, row = f0[rows, None], block_rows[:len(block)]
            level_f0 = _db(block[row, np.rint(f0_col / bin_hz).astype(int)])
            harmonic = np.maximum(1, np.rint(freqs[rows] / f0_col).astype(int)) * f0_col
            bins = np.minimum(np.rint(harmonic / bin_hz).astype(int), n_bins - 1)
            amplitudes = _db(block[row, bins]) - level_f0
            formant_sums[2] += amplitudes[kept[rows]].sum(axis=0)

    if n_formant == 0:
        raise InsufficientVoicingError("no frames yielded three valid formants")
    if n_harmonic == 0:
        raise InsufficientVoicingError("no usable voiced frames for harmonic analysis")
    h1_h2, h1_a3 = harmonic_sums / n_harmonic
    values = {"logRelF0-H1-H2": float(h1_h2), "logRelF0-H1-A3": float(h1_a3)}
    for n, (freq, bw, amplitude) in enumerate((formant_sums / n_formant).T):
        values[f"F{n + 1}frequency"] = float(freq)
        values[f"F{n + 1}bandwidth"] = float(bw)
        values[f"F{n + 1}amplitudeLogRelF0"] = float(amplitude)
    return FormantTrack(n_formant, values)
