"""Autocorrelation pitch tracking with a normalized-peak voicing decision."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.fft

from .framing import FrameSequence

F0_MIN = 55.0
F0_MAX = 1000.0
VOICING_PEAK_THRESHOLD = 0.45
VOICING_RMS_FRACTION = 0.01
# Shorter-lag peaks nearly as tall as the global maximum win, which keeps the
# tracker off subharmonics of pulse-like excitation.
PEAK_PREFERENCE = 0.85
# Frames per autocorrelation block: bounds the FFT temporaries whatever the
# utterance length, below the spectral stage's peak.
ACF_BLOCK = 32
# Lags whose normalizer falls below this fraction of the frame energy get an
# exact (direct-sum) numerator instead of the FFT one.
ACF_DIRECT_BELOW = 1e-3


@dataclass(frozen=True)
class PitchTrack:
    """Per-frame fundamental frequency, voicing flag, and harmonicity.

    Unvoiced frames carry f0 = 0 and harmonicity 0. A voiced frame's
    harmonicity is the largest normalized autocorrelation over the integer
    lags round(fs / f0) - 1 .. round(fs / f0) + 1 (none below 2), the r of
    HNRdBACF.
    """

    f0_hz: np.ndarray
    voiced: np.ndarray
    harmonicity: np.ndarray

    def __post_init__(self):
        for arr in (self.f0_hz, self.voiced, self.harmonicity):
            arr.setflags(write=False)

    def __len__(self) -> int:
        return len(self.f0_hz)

    @property
    def n_voiced(self) -> int:
        return int(np.count_nonzero(self.voiced))


def frame_autocorrelation(raw_frames: np.ndarray, max_lag: int) -> np.ndarray:
    """Normalized autocorrelation of each row for lags 0..max_lag (< frame_len).

    Each row is mean-removed, then r[tau] = sum(x[n] x[n+tau]) /
    sqrt(sum_head(x^2) * sum_tail(x^2)), which stays comparable across lags
    despite the shrinking overlap; lags with no energy on either side read 0.
    Numerators come from one FFT per row, n + max_lag points or more. Where
    the normalizer is small next to the frame energy, the FFT's rounding
    (about 1e-15 of that energy) would dominate the ratio, so those lags
    are summed directly instead.
    """
    x = raw_frames - raw_frames.mean(axis=1, keepdims=True)
    n = x.shape[1]
    nfft = scipy.fft.next_fast_len(n + max_lag, real=True)
    power = np.fft.rfft(x, nfft, axis=1)
    power = power.real ** 2 + power.imag ** 2  # frees the complex spectrum
    num = np.fft.irfft(power, nfft, axis=1)[:, :max_lag + 1]
    cs = np.zeros((len(x), n + 1))
    np.cumsum(x * x, axis=1, out=cs[:, 1:])
    head = cs[:, n - max_lag:][:, ::-1]     # per lag tau: sum of e[0 .. n-tau-1]
    tail = cs[:, n:] - cs[:, :max_lag + 1]  # per lag tau: sum of e[tau .. n-1]
    den = np.sqrt(head * tail)
    for row, tau in zip(*np.nonzero((den > 0) & (den < ACF_DIRECT_BELOW * cs[:, n:]))):
        num[row, tau] = np.dot(x[row, :n - tau], x[row, tau:])
    return np.divide(num, den, out=np.zeros_like(num), where=den > 0)


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


def _pick_peaks(r: np.ndarray, lag_min: int) -> np.ndarray:
    """Per row of r, the column of the chosen interior local maximum, or -1.

    Among near-maximal peaks, the shortest lag wins only when the
    best-correlated lag is close to an integer multiple of it; that steps
    down from period multiples without being fooled by high-frequency
    ripple peaks next to the true period.
    """
    peaks = _interior_maxima(r)
    best = np.argmax(peaks, axis=1)
    r_max = peaks[np.arange(len(r)), best]
    ratio = (lag_min + 1 + best)[:, None] / (lag_min + 1 + np.arange(peaks.shape[1]))
    # the best peak itself always qualifies, so argmax finds a candidate
    candidate = ((peaks >= PEAK_PREFERENCE * r_max[:, None])
                 & (np.abs(ratio - np.round(ratio)) <= 0.12))
    return np.where(r_max > 0, np.argmax(candidate, axis=1) + 1, -1)


def _refine(r: np.ndarray, peak: np.ndarray, lag_min: int) -> tuple[np.ndarray, np.ndarray]:
    """Parabolic refinement of each row's peak lag and correlation value."""
    rows = np.arange(len(r))
    delta, r_peak = parabolic_peak(r[rows, peak - 1], r[rows, peak], r[rows, peak + 1])
    return lag_min + peak + delta, r_peak


def _harmonicity(acf: np.ndarray, f0: np.ndarray, voiced: np.ndarray, fs: int) -> np.ndarray:
    """Per row of acf, the PitchTrack harmonicity for f0 (>= F0_MIN) and voiced."""
    lags = np.rint(fs / np.where(voiced, f0, F0_MAX)).astype(int)  # unvoiced f0 is 0
    cols = np.maximum(lags[:, None] + np.arange(-1, 2), 2)
    return np.where(voiced, np.take_along_axis(acf, cols, axis=1).max(axis=1), 0.0)


def track_pitch(frames: FrameSequence) -> PitchTrack:
    """Estimate per-frame f0 in [55, 1000] Hz with parabolic lag refinement.

    A frame is voiced iff its normalized autocorrelation peak reaches 0.45
    and its RMS reaches 1% of the loudest frame's RMS.
    """
    fs = frames.sample_rate_hz
    n_frames = frames.n_frames
    frame_len = frames.frame_length
    lag_min = max(2, int(fs / F0_MAX))
    lag_max = min(int(fs / F0_MIN), frame_len - 2)
    # the peak search reads lags up to lag_max, _harmonicity up to lag_max + 2
    max_lag = min(lag_max + 2, frame_len - 1)

    rms_floor = VOICING_RMS_FRACTION * (frames.rms.max() if n_frames else 0.0)

    f0 = np.zeros(n_frames)
    voiced = np.zeros(n_frames, dtype=bool)
    harmonicity = np.zeros(n_frames)
    if lag_max - lag_min < 2:  # too few lags for an interior peak
        return PitchTrack(f0, voiced, harmonicity)

    for start in range(0, n_frames, ACF_BLOCK):
        block = slice(start, start + ACF_BLOCK)
        acf = frame_autocorrelation(frames.raw_frames[block], max_lag)
        r = acf[:, lag_min:lag_max + 1]
        peak = _pick_peaks(r, lag_min)
        found = peak >= 0
        lag, r_peak = _refine(r, np.where(found, peak, 1), lag_min)
        v = (found & (r_peak >= VOICING_PEAK_THRESHOLD)
             & (frames.rms[block] >= rms_floor) & (rms_floor > 0))
        voiced[block] = v
        f0[block] = np.where(v, np.clip(fs / lag, F0_MIN, F0_MAX), 0.0)
        harmonicity[block] = _harmonicity(acf, f0[block], v, fs)

    # Second pass: frames far from the voiced median get re-picked within a
    # window around the median lag, which suppresses occasional period
    # multiples/submultiples on heavily perturbed signals.
    if voiced.any():
        median_f0 = float(np.median(f0[voiced]))
        win_lo = max(lag_min, int(fs / (median_f0 * 1.25)))
        win_hi = min(lag_max, int(np.ceil(fs / (median_f0 * 0.8))))
        far = np.nonzero(voiced & (np.abs(f0 - median_f0) > 0.2 * median_f0))[0]
        if win_hi - win_lo < 2:
            far = far[:0]
        a, b = win_lo - lag_min, win_hi - lag_min
        for start in range(0, len(far), ACF_BLOCK):
            idx = far[start:start + ACF_BLOCK]
            acf = frame_autocorrelation(frames.raw_frames[idx], max_lag)
            r = acf[:, lag_min:lag_max + 1]
            peaks = _interior_maxima(r[:, a:b + 1])
            found = np.isfinite(peaks).any(axis=1)
            lag, r_peak = _refine(r, a + 1 + np.argmax(peaks, axis=1), lag_min)
            keep = found & (r_peak >= VOICING_PEAK_THRESHOLD)
            voiced[idx] = keep
            f0[idx] = np.where(keep, np.clip(fs / lag, F0_MIN, F0_MAX), 0.0)
            harmonicity[idx] = _harmonicity(acf, f0[idx], keep, fs)

    return PitchTrack(f0, voiced, harmonicity)
