"""Harmonic levels from one 4096-point spectrum per voiced frame: H1-H2,
H1-A3, and the level of the harmonic nearest each formant re the f0 level."""

from __future__ import annotations

import numpy as np

from .errors import InsufficientVoicingError
from .formants import N_FORMANTS, FormantTrack
from .framing import FrameSequence
from .pitch import PitchTrack

SPECTRUM_NFFT = 4096
# Voiced frames per spectrum block: one block's complex spectrum and
# magnitudes stay under 0.6 MB, below the all-frame spectral stage's peak.
SPECTRUM_BLOCK = 8

# F3 search region used when no formant estimate is available for a frame
DEFAULT_F3_REGION = (2000.0, 4000.0)

HARMONIC_KEYS = ("logRelF0-H1-H2", "logRelF0-H1-A3")


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


def compute_harmonic_llfs(frames: FrameSequence, pitch: PitchTrack,
                          formant_track: FormantTrack | None = None) -> dict[str, float]:
    """Mean H1-H2 and H1-A3 in dB over voiced frames, plus the formant
    amplitudes when a formant track is given.

    H1 and H2 are the spectral peak levels near f0 and 2 f0 (searched within
    a quarter-f0 window, which absorbs small pitch-tracking error); A3 is the
    strongest harmonic inside the F3 +/- bandwidth region (falling back to a
    fixed 2-4 kHz region when the frame has no formant estimate).
    FnamplitudeLogRelF0 is the level at the harmonic nearest formant n in dB
    relative to the level at f0, averaged over the track's frames.
    """
    if pitch.n_voiced == 0:
        raise InsufficientVoicingError("no voiced frames for harmonic analysis")

    fs = frames.sample_rate_hz
    bin_hz = fs / SPECTRUM_NFFT
    n_bins = SPECTRUM_NFFT // 2 + 1
    voiced = np.nonzero(pitch.voiced)[0]
    f3_lo = np.full(frames.n_frames, DEFAULT_F3_REGION[0])
    f3_hi = np.full(frames.n_frames, DEFAULT_F3_REGION[1])
    track_row = np.full(frames.n_frames, -1)
    if formant_track is not None:
        rows = formant_track.frame_indices
        f3 = formant_track.frequencies_hz[:, 2]
        bw = formant_track.bandwidths_hz[:, 2]
        f3_lo[rows], f3_hi[rows] = f3 - bw, f3 + bw
        track_row[rows] = np.arange(len(formant_track))
        amplitudes = np.zeros((len(formant_track), N_FORMANTS))

    # Levels are compared as magnitudes and converted to dB only once
    # picked: the dB scale is monotonic, so the maxima are the same.
    h1_h2, h1_a3 = [], []
    window = frames.window
    padded = np.zeros((SPECTRUM_BLOCK, n_bins + 1))
    for start in range(0, len(voiced), SPECTRUM_BLOCK):
        idx = voiced[start:start + SPECTRUM_BLOCK]
        block = padded[:len(idx)]
        spectrum = np.fft.rfft(frames.raw_frames[idx] * window, SPECTRUM_NFFT, axis=1)
        np.abs(spectrum, out=block[:, :n_bins])
        f0 = pitch.f0_hz[idx]

        use = np.nonzero(2 * f0 / bin_hz < n_bins)[0]
        m = len(use)
        ks, counts = _a3_harmonics(f0[use], f3_lo[idx[use]], f3_hi[idx[use]])
        # windows: H1 of each used frame, then H2, then its A3 harmonics
        owner = np.concatenate((use, use, np.repeat(use, counts)))
        number = np.concatenate((np.ones(m, dtype=int), np.full(m, 2), ks))
        levels = _db(_window_max(block, owner, number * f0[owner], f0[owner] / 4.0, bin_hz))
        h1 = levels[:m]
        h1_h2.append(h1 - levels[m:2 * m])
        h1_a3.append(h1 - np.maximum.reduceat(levels[2 * m:], np.cumsum(counts) - counts))

        if formant_track is not None:
            in_track = np.nonzero(track_row[idx] >= 0)[0]
            t_rows = track_row[idx[in_track]]
            f0t = f0[in_track, None]
            level_f0 = _db(block[in_track, np.rint(f0[in_track] / bin_hz).astype(int)])
            harmonic = np.maximum(1, np.rint(formant_track.frequencies_hz[t_rows] / f0t)
                                  .astype(int)) * f0t
            bins = np.minimum(np.rint(harmonic / bin_hz).astype(int), n_bins - 1)
            amplitudes[t_rows] = _db(block[in_track[:, None], bins]) - level_f0[:, None]

    h1_h2, h1_a3 = np.concatenate(h1_h2), np.concatenate(h1_a3)
    if len(h1_h2) == 0:
        raise InsufficientVoicingError("no usable voiced frames for harmonic analysis")
    values = {
        "logRelF0-H1-H2": float(np.mean(h1_h2)),
        "logRelF0-H1-A3": float(np.mean(h1_a3)),
    }
    if formant_track is not None:
        for n in range(N_FORMANTS):
            values[f"F{n + 1}amplitudeLogRelF0"] = float(amplitudes[:, n].mean())
    return values
