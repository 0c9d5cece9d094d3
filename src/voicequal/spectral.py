"""Frame-averaged spectral features: loudness, band ratios, slopes, flux, MFCCs."""

from __future__ import annotations

import numpy as np
from scipy.fft import dct

from .audio_io import CANONICAL_RATE
from .framing import FRAME_BLOCK, WINDOW, FrameSequence

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


def mel_filterbank(n_bands: int, nfft: int) -> np.ndarray:
    """Triangular mel filterbank weights from MEL_FMIN to MEL_FMAX at
    CANONICAL_RATE, shape (n_bands, nfft // 2 + 1), read-only."""
    mel_pts = np.linspace(_hz_to_mel(MEL_FMIN), _hz_to_mel(MEL_FMAX), n_bands + 2)
    hz_pts = _mel_to_hz(mel_pts)
    bins = np.fft.rfftfreq(nfft, 1.0 / CANONICAL_RATE)
    fb = np.zeros((n_bands, len(bins)))
    for b in range(n_bands):
        lo, mid, hi = hz_pts[b], hz_pts[b + 1], hz_pts[b + 2]
        up = (bins - lo) / (mid - lo)
        down = (hi - bins) / (hi - mid)
        fb[b] = np.clip(np.minimum(up, down), 0.0, None)
    fb.setflags(write=False)
    return fb


# The NFFT-point spectrum's bin frequencies, its bands and the mel filterbank,
# built once at import.
FREQS = np.fft.rfftfreq(NFFT, 1.0 / CANONICAL_RATE)
ALPHA_LOW = (FREQS >= 50) & (FREQS <= 1000)
ALPHA_HIGH = (FREQS > 1000) & (FREQS <= 5000)
PEAK_LOW = (FREQS >= 0) & (FREQS <= 2000)
PEAK_HIGH = (FREQS > 2000) & (FREQS <= 5000)
# the slopes read the dB spectrum of the bins up to 1500 Hz only
SLOPE_BINS = int(np.count_nonzero(FREQS <= 1500))
SLOPE_LOW = FREQS[:SLOPE_BINS] <= 500
SLOPE_HIGH = FREQS[:SLOPE_BINS] >= 500
MEL_FILTERBANK = mel_filterbank(N_MEL_BANDS, NFFT)


def _band_slope(db: np.ndarray, sel: np.ndarray) -> np.ndarray:
    """Per-frame least-squares slope of the dB spectrum over the bins sel,
    for db holding the first len(sel) bins."""
    f = FREQS[:len(sel)][sel]
    y = db[:, sel]
    f_c = f - f.mean()
    return (y @ f_c) / np.dot(f_c, f_c)


def _block_terms(raw: np.ndarray, prev_unit: np.ndarray | None,
                 out: np.ndarray) -> np.ndarray:
    """Each frame's terms of the features after Loudness, for one block of
    raw frames, written into out (one row per feature, one column per
    frame). A frame's flux term is its step from the frame before it:
    prev_unit leads the block, or the first frame itself when None.

    The spectra are taken a quarter block at a time: a quarter's windowed
    frames, spectra and unit spectra are freed before the next quarter's
    are made, and only its power spectra are kept, for the terms that read
    the whole block. Returns the block's last unit spectrum, a one-row
    copy, so that nothing else of the block outlives it.
    """
    power = np.empty((len(raw), NFFT // 2 + 1))
    quarter = FRAME_BLOCK // 4
    for start in range(0, len(raw), quarter):
        part = slice(start, start + quarter)
        mag = np.abs(np.fft.rfft(raw[part] * WINDOW, NFFT, axis=1))
        np.square(mag, out=power[part])
        # the magnitudes become unit spectra in place; the sum of power is
        # the one np.linalg.norm takes of the magnitudes
        norms = np.sqrt(power[part].sum(axis=1, keepdims=True))
        unit = np.divide(mag, np.where(norms > 0, norms, 1.0), out=mag)
        steps = np.empty_like(unit)
        np.subtract(unit[:1], unit[:1] if prev_unit is None else prev_unit, out=steps[:1])
        np.subtract(unit[1:], unit[:-1], out=steps[1:])
        out[4, part] = np.sqrt(np.square(steps, out=steps).sum(axis=1))
        prev_unit = unit[-1:].copy()
        del mag, unit, steps

    out[0] = 10.0 * np.log10(
        (power[:, ALPHA_LOW].sum(axis=1) + _EPS) / (power[:, ALPHA_HIGH].sum(axis=1) + _EPS))
    out[1] = 10.0 * np.log10(
        (power[:, PEAK_LOW].max(axis=1) + _EPS) / (power[:, PEAK_HIGH].max(axis=1) + _EPS))

    db = 10.0 * np.log10(power[:, :SLOPE_BINS] + _EPS)
    out[2] = _band_slope(db, SLOPE_LOW)
    out[3] = _band_slope(db, SLOPE_HIGH)

    log_mel = np.log(power @ MEL_FILTERBANK.T + _EPS)
    out[5:] = dct(log_mel, type=2, axis=1, norm="ortho")[:, 1:5].T
    return prev_unit


def compute_spectral_llfs(frames: FrameSequence) -> dict[str, float]:
    """The ten spectral features, each averaged over all frames.

    Loudness is frame RMS in dB re full scale; alphaRatio compares summed
    energy in 50-1000 Hz against 1-5 kHz; hammarbergIndex compares the
    strongest peak in 0-2 kHz against the strongest in 2-5 kHz; the slopes
    are linear fits to the dB spectrum in dB/Hz; spectralFlux is the norm of
    consecutive unit-normalized magnitude-spectrum differences; mfcc1..4 come
    from a 26-band mel log filterbank cepstrum.

    The spectrum is taken FRAME_BLOCK frames at a time (_block_terms), and
    a block's arrays are freed before the next block's are made; each
    frame's terms of the features after Loudness are kept and averaged at
    the end. Loudness is averaged first, so its terms are not kept.
    """
    n = frames.n_frames
    loudness = float(np.mean(20.0 * np.log10(frames.rms + _EPS)))
    # each frame's term of each feature after Loudness, in SPECTRAL_KEYS
    # order; the flux term is a frame's step from the frame before it, 0 for
    # the first
    terms = np.empty((len(SPECTRAL_KEYS) - 1, n))
    last_unit = None
    for start in range(0, n, FRAME_BLOCK):
        block = slice(start, start + FRAME_BLOCK)
        last_unit = _block_terms(frames.raw_frames[block], last_unit, terms[:, block])

    values = dict(zip(SPECTRAL_KEYS, [loudness, *terms.mean(axis=1).tolist()]))
    values["spectralFlux"] = float(np.mean(terms[4, 1:])) if n > 1 else 0.0
    return values
