"""Autocorrelation pitch tracking with a normalized-peak voicing decision."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.fft

from .audio_io import CANONICAL_RATE
from .framing import FrameSequence

F0_MIN = 55.0
F0_MAX = 1000.0
VOICING_PEAK_THRESHOLD = 0.45
VOICING_RMS_FRACTION = 0.01
# Shorter-lag peaks nearly as tall as the global maximum win, which keeps the
# tracker off subharmonics of pulse-like excitation.
PEAK_PREFERENCE = 0.85
# Frames per autocorrelation block, whose peaks are picked together. Its
# transforms run half a block at a time (frame_autocorrelation), as do the
# second pass's gathers, so the stage peaks at 0.26-0.30 MB traced from
# 0.67 s to 10 s, jittered vowels included, below the voiced-frame pass on
# two threads, which sets extraction's peak there.
ACF_BLOCK = 32
# Lags whose normalizer falls below this fraction of the frame energy get an
# exact (direct-sum) numerator instead of the FFT one.
ACF_DIRECT_BELOW = 1e-3
# Lags of f0 in [F0_MIN, F0_MAX] at CANONICAL_RATE: 16..290. The peak search
# reads lags up to LAG_MAX, _harmonicity up to LAG_MAX + 2 = MAX_LAG.
LAG_MIN = int(CANONICAL_RATE / F0_MAX)
LAG_MAX = int(CANONICAL_RATE / F0_MIN)
MAX_LAG = LAG_MAX + 2


@dataclass(frozen=True)
class PitchTrack:
    """Per-frame fundamental frequency and harmonicity; a frame is voiced iff
    its f0 is nonzero, and an unvoiced frame's harmonicity is 0. A voiced
    frame's harmonicity is the largest normalized autocorrelation over the
    integer lags round(CANONICAL_RATE / f0) - 1 .. + 1, the r of HNRdBACF.
    """

    f0_hz: np.ndarray
    harmonicity: np.ndarray

    def __post_init__(self):
        for arr in (self.f0_hz, self.harmonicity):
            arr.setflags(write=False)

    def __len__(self) -> int:
        return len(self.f0_hz)

    @property
    def voiced(self) -> np.ndarray:
        return self.f0_hz > 0

    @property
    def n_voiced(self) -> int:
        return int(np.count_nonzero(self.f0_hz))


def frame_autocorrelation(raw_frames: np.ndarray, max_lag: int) -> np.ndarray:
    """Normalized autocorrelation of each row for lags 0..max_lag (< frame_len).

    Each row is mean-removed, then r[tau] = sum(x[n] x[n+tau]) /
    sqrt(sum_head(x^2) * sum_tail(x^2)), which stays comparable across lags
    despite the shrinking overlap; lags with no energy on either side read 0.
    Numerators come from one FFT per row, n + max_lag points or more. Where
    the normalizer is small next to the frame energy, the FFT's rounding
    (about 1e-15 of that energy) would dominate the ratio, so those lags
    are summed directly instead.

    The rows are taken half an ACF_BLOCK at a time (_acf_rows), so only the
    result is as tall as raw_frames.
    """
    acf = np.empty((len(raw_frames), max_lag + 1))
    half = ACF_BLOCK // 2
    for start in range(0, len(raw_frames), half):
        _acf_rows(raw_frames[start:start + half], acf[start:start + half])
    return acf


def _acf_rows(raw_frames: np.ndarray, out: np.ndarray) -> None:
    """frame_autocorrelation of raw_frames, written into out, whose columns
    are the lags. The normalizer and the direct sums are taken before the
    FFT, so the mean-removed copy is freed before the inverse transform;
    the power spectrum is written into the forward transform's output, the
    complex array that the inverse transform reads without a cast."""
    n, max_lag = raw_frames.shape[1], out.shape[1] - 1
    x = raw_frames - raw_frames.mean(axis=1, keepdims=True)
    cs = np.zeros((len(x), n + 1))
    np.square(x, out=cs[:, 1:])
    np.cumsum(cs[:, 1:], axis=1, out=cs[:, 1:])
    den = np.subtract(cs[:, n:], cs[:, :max_lag + 1], out=out)  # lag tau: sum of e[tau .. n-1]
    den *= cs[:, n - max_lag:][:, ::-1]                         # lag tau: sum of e[0 .. n-tau-1]
    np.sqrt(den, out=den)
    direct = [(row, tau, np.dot(x[row, :n - tau], x[row, tau:])) for row, tau in
              zip(*np.nonzero((den > 0) & (den < ACF_DIRECT_BELOW * cs[:, n:])))]
    del cs
    nfft = scipy.fft.next_fast_len(n + max_lag, real=True)
    power = np.fft.rfft(x, nfft, axis=1)
    del x
    np.square(power.real, out=power.real)
    power.real += np.square(power.imag, out=power.imag)
    power.imag = 0.0
    num = np.fft.irfft(power, nfft, axis=1)
    del power
    for row, tau, value in direct:
        num[row, tau] = value
    np.divide(num[:, :max_lag + 1], den, out=den, where=den > 0)


def parabolic_peak(y0: np.ndarray, y1: np.ndarray,
                   y2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Offset in [-0.5, 0.5] and height of the parabola through three
    equally spaced samples around a peak at y1, elementwise."""
    denom = y0 - 2 * y1 + y2
    delta = np.divide(0.5 * (y0 - y2), denom, out=np.zeros_like(denom), where=denom != 0)
    delta = np.clip(delta, -0.5, 0.5)
    return delta, y1 - 0.25 * (y0 - y2) * delta


def _interior_maxima(r: np.ndarray) -> np.ndarray:
    """Per row, r at its interior local maxima (column j is r[:, j + 1]), -inf elsewhere."""
    inner = r[:, 1:-1]
    return np.where((inner >= r[:, :-2]) & (inner >= r[:, 2:]), inner, -np.inf)


def _pick_peaks(r: np.ndarray) -> np.ndarray:
    """Per row of r, the column of the chosen interior local maximum, or -1.

    Among near-maximal peaks, the shortest lag wins only when the
    best-correlated lag is close to an integer multiple of it; that steps
    down from period multiples without being fooled by high-frequency
    ripple peaks next to the true period. The multiple is tested only at
    the near-maximal peaks of rows with a positive maximum.
    """
    peaks = _interior_maxima(r)
    best = np.argmax(peaks, axis=1)
    r_max = peaks[np.arange(len(r)), best]
    # rows without a positive maximum have no candidate and stay -1
    floor = np.where(r_max > 0, PEAK_PREFERENCE * r_max, np.inf)
    rows, cols = np.nonzero(peaks >= floor[:, None])
    ratio = (LAG_MIN + 1 + best[rows]) / (LAG_MIN + 1 + cols)
    # a row's best peak is a candidate with ratio 1, so every row left keeps one
    ok = np.abs(ratio - np.round(ratio)) <= 0.12
    rows, cols = rows[ok], cols[ok]
    first = np.ones(len(rows), bool)
    first[1:] = rows[1:] != rows[:-1]
    chosen = np.full(len(r), -1)
    chosen[rows[first]] = cols[first] + 1
    return chosen


def _harmonicity(acf: np.ndarray, f0: np.ndarray) -> np.ndarray:
    """Per row of acf, the PitchTrack harmonicity for f0 (0 or in [F0_MIN, F0_MAX])."""
    voiced = f0 > 0
    lags = np.rint(CANONICAL_RATE / np.where(voiced, f0, F0_MAX)).astype(int)
    cols = lags[:, None] + np.arange(-1, 2)
    return np.where(voiced, np.take_along_axis(acf, cols, axis=1).max(axis=1), 0.0)


def _decide(acf: np.ndarray, lag: np.ndarray, ok: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """f0 and harmonicity per row of acf from its peak at column lag, refined
    parabolically; a row is voiced where ok and the peak reaches VOICING_PEAK_THRESHOLD."""
    rows = np.arange(len(acf))
    delta, r_peak = parabolic_peak(acf[rows, lag - 1], acf[rows, lag], acf[rows, lag + 1])
    voiced = ok & (r_peak >= VOICING_PEAK_THRESHOLD)
    f0 = np.where(voiced, np.clip(CANONICAL_RATE / (lag + delta), F0_MIN, F0_MAX), 0.0)
    return f0, _harmonicity(acf, f0)


def track_pitch(frames: FrameSequence) -> PitchTrack:
    """Estimate per-frame f0 in [55, 1000] Hz with parabolic lag refinement.

    A frame is voiced iff its normalized autocorrelation peak reaches 0.45
    and its RMS reaches 1% of the loudest frame's RMS.
    """
    n_frames = frames.n_frames
    rms_floor = VOICING_RMS_FRACTION * frames.rms.max()

    f0 = np.zeros(n_frames)
    harmonicity = np.zeros(n_frames)
    for start in range(0, n_frames, ACF_BLOCK):
        block = slice(start, start + ACF_BLOCK)
        acf = frame_autocorrelation(frames.raw_frames[block], MAX_LAG)
        peak = _pick_peaks(acf[:, LAG_MIN:LAG_MAX + 1])
        found = peak >= 0
        f0[block], harmonicity[block] = _decide(
            acf, LAG_MIN + np.where(found, peak, 1),
            found & (frames.rms[block] >= rms_floor) & (rms_floor > 0))
        del acf  # freed before the next block's is made

    # Second pass: frames far from the voiced median get re-picked within a
    # window around the median lag, which suppresses occasional period
    # multiples/submultiples on heavily perturbed signals. The median f0 is
    # at most F0_MAX, so the window spans at least 4 lags (16..20 at F0_MAX).
    # The far frames are gathered, a copy, half an ACF_BLOCK at a time: the
    # rows frame_autocorrelation transforms together, so the pass peaks no
    # higher than the first.
    if f0.any():
        median_f0 = float(np.median(f0[f0 > 0]))
        win_lo = max(LAG_MIN, int(CANONICAL_RATE / (median_f0 * 1.25)))
        win_hi = min(LAG_MAX, int(np.ceil(CANONICAL_RATE / (median_f0 * 0.8))))
        far = np.nonzero((f0 > 0) & (np.abs(f0 - median_f0) > 0.2 * median_f0))[0]
        for start in range(0, len(far), ACF_BLOCK // 2):
            idx = far[start:start + ACF_BLOCK // 2]
            acf = frame_autocorrelation(frames.raw_frames[idx], MAX_LAG)
            peaks = _interior_maxima(acf[:, win_lo:win_hi + 1])
            f0[idx], harmonicity[idx] = _decide(
                acf, win_lo + 1 + np.argmax(peaks, axis=1), np.isfinite(peaks).any(axis=1))
            del acf, peaks

    return PitchTrack(f0, harmonicity)
