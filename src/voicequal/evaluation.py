"""Pairwise ranking evaluation: labeled samples, pair formation, accuracy report."""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .audio_io import AudioSignal
from .errors import ManifestError
from .llf import LLF_KEYS, LlfVector, extract_llf_vector, llf_row
from .quality import QUALITY_IDS, CorrelationTable, scores_from_z
from .stats import FeatureStats
from .synth import generate_synthetic

NEUTRAL_LABEL = "NEUTRAL-VOICE"


@dataclass(frozen=True)
class LabeledSample:
    """One utterance with its dominant quality label and cached features.

    The features are read once, when the sample is made: ``row`` holds the
    vector's float64 row (``llf_row``), packed then, so a later edit of the
    ``llf`` dict is not seen. A vector with no row raises ManifestError
    naming the sample, with ``llf_row``'s reason.
    """

    source_id: str
    dominant_quality: str  # a quality id or NEUTRAL_LABEL
    llf: LlfVector
    row: bytes = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.dominant_quality not in QUALITY_IDS and self.dominant_quality != NEUTRAL_LABEL:
            raise ManifestError(
                f"unknown quality label {self.dominant_quality!r} "
                f"for {self.source_id}")
        try:
            object.__setattr__(self, "row", llf_row(self.llf))
        except ValueError as exc:
            raise ManifestError(f"scoring failed for {self.source_id}: "
                                f"feature vector {exc}") from None


@dataclass(frozen=True)
class PairGrid:
    """Every (dominant, non-dominant) pair for one target quality: the cross
    product of ``positives`` and ``negatives``, each sorted by source_id."""

    quality: str
    positives: tuple[LabeledSample, ...]
    negatives: tuple[LabeledSample, ...]

    def __len__(self) -> int:
        return len(self.positives) * len(self.negatives)


@dataclass(frozen=True)
class QualityResult:
    total_pairs: int
    correct: int

    @property
    def accuracy_percent(self) -> float:
        return 100.0 * self.correct / self.total_pairs


@dataclass(frozen=True)
class PairwiseEvalReport:
    """Per-quality pair counts and accuracies, plus their unweighted mean."""

    per_quality: dict[str, QualityResult]

    @property
    def mean_accuracy_percent(self) -> float:
        accs = [r.accuracy_percent for r in self.per_quality.values()]
        return sum(accs) / len(accs)


def form_pairs(samples: list[LabeledSample], quality: str) -> PairGrid:
    """Full cross product of dominant-in-quality samples against all others,
    ordered deterministically by source_id."""
    ordered = sorted(samples, key=lambda s: s.source_id)
    positives = tuple(s for s in ordered if s.dominant_quality == quality)
    negatives = tuple(s for s in ordered if s.dominant_quality != quality)
    if not positives:
        raise ManifestError(f"no samples labeled {quality!r}")
    if not negatives:
        raise ManifestError(f"no non-{quality!r} samples to pair against")
    return PairGrid(quality, positives, negatives)


def evaluate_pairs(grid: PairGrid, stats: FeatureStats,
                   table: CorrelationTable) -> PairwiseEvalReport:
    """Score each sample of the grid once and count the pairs whose dominant
    sample scores strictly higher (ties count as wrong): the Mann-Whitney U
    statistic without credit for ties, from one sort of the negatives' scores
    and one binary search per positive. The samples' rows, packed when they
    were made, are joined into the score matrix."""
    if grid.quality not in QUALITY_IDS:
        raise ManifestError(f"unknown quality id {grid.quality!r} in pair grid")
    if not len(grid):
        raise ManifestError("no pairs to evaluate")
    values = np.frombuffer(b"".join([s.row for s in grid.positives + grid.negatives]), float)
    z = values.reshape(-1, len(LLF_KEYS)) - stats.mu_vector
    del values  # freed before the division, which runs in place
    z /= stats.sigma_vector
    scores = scores_from_z(z, table)[:, QUALITY_IDS.index(grid.quality)]
    positive, negative = np.split(scores, [len(grid.positives)])
    positive = positive[~np.isnan(positive)]  # a NaN wins no pair, as under `>`
    correct = int(np.searchsorted(np.sort(negative), positive, side="left").sum())
    return PairwiseEvalReport({grid.quality: QualityResult(len(grid), correct)})


def read_manifest(path: str | os.PathLike) -> list[tuple[str, str]]:
    """Parse a `path,label` CSV manifest into (audio path, label) rows.

    Paths are relative to the manifest's directory. Every row is checked
    (shape, label, a regular file at the path) before any audio is loaded;
    errors name `manifest:line`.
    """
    base = os.path.dirname(os.fspath(path))
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            rows = [(reader.line_num, row) for row in reader
                    if row and not row[0].lstrip().startswith("#")]
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise ManifestError(f"cannot read manifest {path}: {exc}")

    checked = []
    for lineno, row in rows:
        if len(row) != 2:
            raise ManifestError(f"{path}:{lineno}: expected 'path,label'")
        label = row[1].strip()
        if label not in QUALITY_IDS and label != NEUTRAL_LABEL:
            raise ManifestError(f"{path}:{lineno}: unknown quality label {label!r}")
        file_path = os.path.join(base, row[0].strip())  # an absolute path stays as it is
        if not os.path.isfile(file_path):
            raise ManifestError(f"{path}:{lineno}: missing file {file_path}")
        checked.append((file_path, label))
    return checked


# quality targeted by each synthetic suite
SUITE_QUALITY = {"jittered": "Jit", "shimmered": "Shim", "breathy": "Brea"}

# perturbations strong enough that the target feature's z-separation
# dominates the measurement noise of the untargeted features
SUITE_PARAMS = {"jittered": {"jitter_pct": 4.0},
                "shimmered": {"shimmer_db": 5.0},
                "breathy": {"noise_ratio": 0.3}}

# narrow grid: low f0 keeps harmonic sampling of the resonances dense,
# which stabilizes the formant measures across utterances
SUITE_F0_BASE = 120.0
SUITE_F0_STEP = 4.0


def synthetic_suite_pairs(kind: str, count: int, seed: int
                          ) -> Iterator[tuple[AudioSignal, AudioSignal]]:
    """(perturbed, clean) vowel pairs of a suite; pair i shares its f0 on the grid."""
    for i in range(count):
        f0 = SUITE_F0_BASE + SUITE_F0_STEP * (i % 8)
        yield (generate_synthetic(kind, f0=f0, seed=seed + i, **SUITE_PARAMS[kind]),
               generate_synthetic("clean", f0=f0, seed=seed + 1000 + i))


def build_synthetic_suite(kind: str, count: int = 8,
                          seed: int = 0) -> list[LabeledSample]:
    """Generate a labeled suite of perturbed vowels against clean vowels.

    Positives and negatives share the same f0 grid so the target perturbation
    is the dominant difference between the groups.
    """
    if kind not in SUITE_QUALITY:
        raise ManifestError(f"unknown suite kind {kind!r}")
    positives, negatives = [], []
    for i, (pos, neg) in enumerate(synthetic_suite_pairs(kind, count, seed)):
        positives.append(LabeledSample(f"{pos.source_id}#p{i}", SUITE_QUALITY[kind],
                                       extract_llf_vector(pos)))
        negatives.append(LabeledSample(f"{neg.source_id}#n{i}", NEUTRAL_LABEL,
                                       extract_llf_vector(neg)))
    return positives + negatives


def format_report(report: PairwiseEvalReport) -> str:
    """Fixed-width text table: quality, pair count, accuracy percent."""
    lines = [f"{'Voice Quality':<16}{'Total Pairs':>12}{'Acc (%)':>10}"]
    for quality, result in report.per_quality.items():
        lines.append(f"{quality:<16}{result.total_pairs:>12}"
                     f"{result.accuracy_percent:>10.2f}")
    lines.append(f"{'Average':<16}{'':>12}{report.mean_accuracy_percent:>10.2f}")
    return "\n".join(lines)
