"""Glottal-period features: jitter, shimmer, HNR, and the semitone pitch mean.

Period marks are found by peak-picking inside voiced regions, stepping by the
locally tracked pitch period and refining each peak to sub-sample precision.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

import numpy as np

from .audio_io import AudioSignal
from .errors import InsufficientVoicingError
from .framing import framing
from .pitch import PitchTrack, parabolic_peak

F0_REFERENCE_HZ = 27.5
MIN_CONSECUTIVE_VOICED = 3
# half-width of the peak search window, as a fraction of the local period
SEARCH_FRACTION = 0.35
# Samples per block in the search for a voiced region's largest magnitude:
# neither |x| nor the argmax of a read-only region (which NumPy copies) is
# ever taken whole.
ANCHOR_BLOCK = 8192
# Marks per block in the sub-sample refinement.
MARK_BLOCK = 1024

PERIOD_KEYS = ("F0semitoneFrom27.5Hz", "jitterLocal", "shimmerLocaldB", "HNRdBACF")


@dataclass(frozen=True)
class PeriodMarks:
    """Sub-sample peak positions and amplitudes for one voiced region."""

    positions: np.ndarray
    amplitudes: np.ndarray

    @property
    def periods(self) -> np.ndarray:
        return np.diff(self.positions)


def voiced_runs(voiced: np.ndarray, min_len: int = MIN_CONSECUTIVE_VOICED):
    """(start, end) frame-index pairs of voiced runs of at least min_len."""
    edges = np.diff(np.concatenate(([0], np.asarray(voiced, dtype=np.int8), [0])))
    starts, ends = np.nonzero(edges == 1)[0], np.nonzero(edges == -1)[0]
    return [(int(a), int(b)) for a, b in zip(starts, ends) if b - a >= min_len]


def _refine_marks(x: np.ndarray, marks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Parabolic sub-sample refinement of the peaks at sample indices marks,
    MARK_BLOCK marks at a time.

    Returns (positions, absolute amplitudes); a mark on the signal's edge
    keeps its integer position and sample value.
    """
    positions, amplitudes = np.empty(len(marks)), np.empty(len(marks))
    for i in range(0, len(marks), MARK_BLOCK):
        block = marks[i:i + MARK_BLOCK]
        inner = (block > 0) & (block < len(x) - 1)
        m = np.clip(block, 1, len(x) - 2)
        s = np.where(x[m] >= 0, 1.0, -1.0)
        delta, amp = parabolic_peak(s * x[m - 1], s * x[m], s * x[m + 1])
        positions[i:i + MARK_BLOCK] = np.where(inner, block + delta, block)
        amplitudes[i:i + MARK_BLOCK] = np.abs(np.where(inner, amp, x[block]))
    return positions, amplitudes


def _largest_magnitude(x: np.ndarray, start: int, end: int) -> int:
    """Index of the first sample of largest |x| in x[start:end], or -1 if
    all are zero; |x| is taken ANCHOR_BLOCK samples at a time."""
    best, anchor = 0.0, -1
    for lo in range(start, end, ANCHOR_BLOCK):
        block = np.abs(x[lo:min(lo + ANCHOR_BLOCK, end)])
        i = int(block.argmax())
        if block[i] > best:
            best, anchor = block[i], lo + i
    return anchor


def find_period_marks(signal: AudioSignal, pitch: PitchTrack) -> list[PeriodMarks]:
    """Locate one glottal peak per pitch period within each voiced region."""
    fs = signal.sample_rate_hz
    x = signal.samples
    frame_len, hop = framing(fs)
    f0_hz = pitch.f0_hz.tolist()

    def period_at(pos: float, lo_frame: int, hi_frame: int) -> float:
        frame = min(max(round((pos - frame_len / 2) / hop), lo_frame), hi_frame - 1)
        f0 = f0_hz[frame]
        return fs / f0 if f0 > 0 else fs / 100.0

    regions = []
    for lo_frame, hi_frame in voiced_runs(pitch.voiced):
        start = lo_frame * hop
        end = min((hi_frame - 1) * hop + frame_len, len(x))
        anchor = _largest_magnitude(x, start, end)
        if anchor < 0:
            continue

        marks = array("q", [anchor])  # 8 bytes a mark, not a list of int objects
        # march forward, then backward, one expected period at a time; each
        # direction stops when its window leaves the region or fails to step
        for sign in (1, -1):
            pos = float(anchor)
            while True:
                t = sign * period_at(pos, lo_frame, hi_frame)
                near = int(round(pos + t * (1 - SEARCH_FRACTION)))
                far = int(round(pos + t * (1 + SEARCH_FRACTION)))
                lo, hi = min(near, far), max(near, far) + 1
                if (hi > end or lo <= int(pos)) if sign > 0 else (lo < start or hi >= int(pos)):
                    break
                m = lo + int(np.abs(x[lo:hi]).argmax())
                marks.append(m)
                pos = float(m)

        marks = np.sort(marks)
        positions, amplitudes = _refine_marks(x, marks)
        keep = amplitudes > 0
        if np.count_nonzero(keep) >= 2:
            regions.append(PeriodMarks(positions[keep], amplitudes[keep]))
    return regions


def _hnr_db(pitch: PitchTrack) -> float:
    """Mean over voiced frames of 10 log10(r / (1 - r)), r being each
    frame's harmonicity from the pitch pass."""
    r = np.clip(pitch.harmonicity[pitch.voiced], 1e-6, 1.0 - 1e-7)
    return float(np.mean(10.0 * np.log10(r / (1.0 - r))))


def compute_period_llfs(signal: AudioSignal, pitch: PitchTrack) -> dict[str, float]:
    """jitterLocal, shimmerLocaldB, HNRdBACF, and the mean semitone pitch.

    jitterLocal is mean |T_i - T_i+1| / mean T over consecutive periods;
    shimmerLocaldB is mean |20 log10(A_i+1 / A_i)| over consecutive period
    peak amplitudes; both pool period pairs across voiced regions.
    """
    if not voiced_runs(pitch.voiced):
        raise InsufficientVoicingError(
            f"need {MIN_CONSECUTIVE_VOICED} consecutive voiced frames")

    f0_voiced = pitch.f0_hz[pitch.voiced]
    f0_semitone = float(np.mean(12.0 * np.log2(f0_voiced / F0_REFERENCE_HZ)))

    regions = find_period_marks(signal, pitch)
    if not regions:  # a region keeps at least two marks: one period
        raise InsufficientVoicingError("no period marks found in voiced regions")
    periods = np.concatenate([marks.periods for marks in regions])
    period_diffs = np.concatenate([np.abs(np.diff(marks.periods)) for marks in regions])
    amp_ratios_db = np.concatenate([np.abs(20.0 * np.log10(m.amplitudes[1:] / m.amplitudes[:-1]))
                                    for m in regions])
    jitter = float(np.mean(period_diffs) / np.mean(periods)) if len(period_diffs) else 0.0
    shimmer = float(np.mean(amp_ratios_db))

    return {
        "F0semitoneFrom27.5Hz": f0_semitone,
        "jitterLocal": jitter,
        "shimmerLocaldB": shimmer,
        "HNRdBACF": _hnr_db(pitch),
    }
