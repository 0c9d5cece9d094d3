"""Frame-averaged spectral features: loudness, band ratios, slopes, flux, MFCCs."""

from __future__ import annotations

import numpy as np
from scipy.fft import dct

from .framing import FrameSequence

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


def mel_filterbank(n_bands: int, nfft: int, fs: float,
                   fmin: float = MEL_FMIN, fmax: float = MEL_FMAX) -> np.ndarray:
    """Triangular mel filterbank weights, shape (n_bands, nfft // 2 + 1)."""
    mel_pts = np.linspace(_hz_to_mel(fmin), _hz_to_mel(fmax), n_bands + 2)
    hz_pts = _mel_to_hz(mel_pts)
    bins = np.fft.rfftfreq(nfft, 1.0 / fs)
    fb = np.zeros((n_bands, len(bins)))
    for b in range(n_bands):
        lo, mid, hi = hz_pts[b], hz_pts[b + 1], hz_pts[b + 2]
        up = (bins - lo) / (mid - lo)
        down = (hi - bins) / (hi - mid)
        fb[b] = np.clip(np.minimum(up, down), 0.0, None)
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
    """
    fs = frames.sample_rate_hz
    freqs = np.fft.rfftfreq(NFFT, 1.0 / fs)
    mag = np.abs(np.fft.rfft(frames.raw_frames * frames.window, NFFT, axis=1))
    power = mag ** 2

    loudness = float(np.mean(20.0 * np.log10(frames.rms + _EPS)))

    low = (freqs >= 50) & (freqs <= 1000)
    high = (freqs > 1000) & (freqs <= 5000)
    alpha = float(np.mean(10.0 * np.log10(
        (power[:, low].sum(axis=1) + _EPS) / (power[:, high].sum(axis=1) + _EPS))))

    pk_low = power[:, (freqs >= 0) & (freqs <= 2000)].max(axis=1)
    pk_high = power[:, (freqs > 2000) & (freqs <= 5000)].max(axis=1)
    hammarberg = float(np.mean(10.0 * np.log10((pk_low + _EPS) / (pk_high + _EPS))))

    db = 10.0 * np.log10(power + _EPS)
    slope_low = float(np.mean(_band_slope(db, freqs, 0.0, 500.0)))
    slope_mid = float(np.mean(_band_slope(db, freqs, 500.0, 1500.0)))

    norms = np.linalg.norm(mag, axis=1, keepdims=True)
    unit = mag / np.where(norms > 0, norms, 1.0)
    if len(unit) > 1:
        flux = float(np.mean(np.linalg.norm(np.diff(unit, axis=0), axis=1)))
    else:
        flux = 0.0

    fb = mel_filterbank(N_MEL_BANDS, NFFT, fs)
    log_mel = np.log(power @ fb.T + _EPS)
    ceps = dct(log_mel, type=2, axis=1, norm="ortho")
    mfcc = ceps[:, 1:5].mean(axis=0)

    return {
        "Loudness": loudness,
        "alphaRatio": alpha,
        "hammarbergIndex": hammarberg,
        "slope0-500": slope_low,
        "slope500-1500": slope_mid,
        "spectralFlux": flux,
        "mfcc1": float(mfcc[0]),
        "mfcc2": float(mfcc[1]),
        "mfcc3": float(mfcc[2]),
        "mfcc4": float(mfcc[3]),
    }
