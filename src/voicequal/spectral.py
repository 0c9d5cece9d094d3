"""Frame-averaged spectral features: loudness, band ratios, slopes, flux, MFCCs."""

from __future__ import annotations

import functools

import numpy as np
from scipy.fft import dct

from .framing import FRAME_BLOCK, FrameSequence

NFFT = 512
N_MEL_BANDS = 26
MEL_FMIN = 20.0
MEL_FMAX = 8000.0
_EPS = 1e-12

SPECTRAL_KEYS = (
    "Loudness", "alphaRatio", "hammarbergIndex", "slope0-500", "slope500-1500",
    "spectralFlux", "mfcc1", "mfcc2", "mfcc3", "mfcc4",
)


def _hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f) / 700.0)


def _mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m) / 2595.0) - 1.0)


@functools.lru_cache(maxsize=8)
def mel_filterbank(n_bands: int, nfft: int, fs: float) -> np.ndarray:
    """Triangular mel filterbank weights from MEL_FMIN to MEL_FMAX, shape
    (n_bands, nfft // 2 + 1); built once per process, so read-only."""
    mel_pts = np.linspace(_hz_to_mel(MEL_FMIN), _hz_to_mel(MEL_FMAX), n_bands + 2)
    hz_pts = _mel_to_hz(mel_pts)
    bins = np.fft.rfftfreq(nfft, 1.0 / fs)
    fb = np.zeros((n_bands, len(bins)))
    for b in range(n_bands):
        lo, mid, hi = hz_pts[b], hz_pts[b + 1], hz_pts[b + 2]
        up = (bins - lo) / (mid - lo)
        down = (hi - bins) / (hi - mid)
        fb[b] = np.clip(np.minimum(up, down), 0.0, None)
    fb.setflags(write=False)
    return fb


def _band_slope(db: np.ndarray, freqs: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Per-frame least-squares slope of the dB spectrum over [lo, hi] Hz."""
    sel = (freqs >= lo) & (freqs <= hi)
    f = freqs[sel]
    y = db[:, sel]
    f_c = f - f.mean()
    return (y @ f_c) / np.dot(f_c, f_c)


def compute_spectral_llfs(frames: FrameSequence) -> dict[str, float]:
    """The ten spectral features, each averaged over all frames.

    Loudness is frame RMS in dB re full scale; alphaRatio compares summed
    energy in 50-1000 Hz against 1-5 kHz; hammarbergIndex compares the
    strongest peak in 0-2 kHz against the strongest in 2-5 kHz; the slopes
    are linear fits to the dB spectrum in dB/Hz; spectralFlux is the norm of
    consecutive unit-normalized magnitude-spectrum differences; mfcc1..4 come
    from a 26-band mel log filterbank cepstrum.

    The spectrum is taken FRAME_BLOCK frames at a time; each frame's terms
    are kept and averaged at the end.
    """
    fs = frames.sample_rate_hz
    freqs = np.fft.rfftfreq(NFFT, 1.0 / fs)
    window = frames.window
    fb_t = mel_filterbank(N_MEL_BANDS, NFFT, fs).T
    low = (freqs >= 50) & (freqs <= 1000)
    high = (freqs > 1000) & (freqs <= 5000)
    peak_low = (freqs >= 0) & (freqs <= 2000)
    peak_high = (freqs > 2000) & (freqs <= 5000)

    n = frames.n_frames
    # each frame's term of each feature, in SPECTRAL_KEYS order; the flux
    # term is a frame's step from the frame before it, 0 for the first
    terms = np.empty((len(SPECTRAL_KEYS), n))
    terms[0] = 20.0 * np.log10(frames.rms + _EPS)
    last_unit = None
    for start in range(0, n, FRAME_BLOCK):
        block = slice(start, start + FRAME_BLOCK)
        mag = np.abs(np.fft.rfft(frames.raw_frames[block] * window, NFFT, axis=1))
        power = mag ** 2
        terms[1, block] = 10.0 * np.log10(
            (power[:, low].sum(axis=1) + _EPS) / (power[:, high].sum(axis=1) + _EPS))
        terms[2, block] = 10.0 * np.log10(
            (power[:, peak_low].max(axis=1) + _EPS) / (power[:, peak_high].max(axis=1) + _EPS))

        db = 10.0 * np.log10(power + _EPS)
        terms[3, block] = _band_slope(db, freqs, 0.0, 500.0)
        terms[4, block] = _band_slope(db, freqs, 500.0, 1500.0)

        norms = np.linalg.norm(mag, axis=1, keepdims=True)
        unit = mag / np.where(norms > 0, norms, 1.0)
        # the previous block's last frame leads this block's steps
        steps = np.diff(unit, axis=0, prepend=unit[:1] if last_unit is None else last_unit)
        terms[5, block] = np.linalg.norm(steps, axis=1)
        last_unit = unit[-1:]

        log_mel = np.log(power @ fb_t + _EPS)
        terms[6:, block] = dct(log_mel, type=2, axis=1, norm="ortho")[:, 1:5].T

    values = dict(zip(SPECTRAL_KEYS, terms.mean(axis=1).tolist()))
    values["spectralFlux"] = float(np.mean(terms[5, 1:])) if n > 1 else 0.0
    return values
