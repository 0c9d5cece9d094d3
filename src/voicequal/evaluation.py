"""Pairwise ranking evaluation: labeled samples, pair formation, accuracy report."""

from __future__ import annotations

import csv
import logging
import os
from collections import Counter
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .audio_io import AudioSignal, load_audio
from .errors import ManifestError, VoiceQualityError
from .llf import LlfVector, extract_llf_vector
from .quality import QUALITY_IDS, CorrelationTable, scores_from_z, z_scores
from .stats import FeatureStats
from .synth import generate_synthetic

log = logging.getLogger(__name__)

NEUTRAL_LABEL = "NEUTRAL-VOICE"


@dataclass(frozen=True)
class LabeledSample:
    """One utterance with its dominant quality label and cached features."""

    source_id: str
    dominant_quality: str  # a quality id or NEUTRAL_LABEL
    llf: LlfVector

    def __post_init__(self):
        if self.dominant_quality not in QUALITY_IDS and self.dominant_quality != NEUTRAL_LABEL:
            raise ManifestError(
                f"unknown quality label {self.dominant_quality!r} "
                f"for {self.source_id}")


@dataclass(frozen=True)
class EvalPair:
    """A (dominant, non-dominant) sample pair for one target quality."""

    positive: LabeledSample
    negative: LabeledSample
    quality: str


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


def form_pairs(samples: list[LabeledSample], quality: str) -> list[EvalPair]:
    """Full cross product of dominant-in-quality samples against all others,
    ordered deterministically by source_id."""
    positives = sorted((s for s in samples if s.dominant_quality == quality),
                       key=lambda s: s.source_id)
    negatives = sorted((s for s in samples if s.dominant_quality != quality),
                       key=lambda s: s.source_id)
    if not positives:
        raise ManifestError(f"no samples labeled {quality!r}")
    if not negatives:
        raise ManifestError(f"no non-{quality!r} samples to pair against")
    return [EvalPair(p, n, quality) for p in positives for n in negatives]


def evaluate_pairs(pairs: list[EvalPair], stats: FeatureStats,
                   table: CorrelationTable) -> PairwiseEvalReport:
    """Score each distinct sample once, then compare the sides of every pair.

    A pair is correct iff the dominant sample scores strictly higher; ties
    count as wrong.
    """
    if not pairs:
        raise ManifestError("no pairs to evaluate")
    rows: dict[int, int] = {}  # id(sample) -> its row of z
    z = []
    for pair in pairs:
        if pair.quality not in QUALITY_IDS:
            raise ManifestError(f"unknown quality id {pair.quality!r} in pair "
                                f"({pair.positive.source_id}, {pair.negative.source_id})")
        for sample in (pair.positive, pair.negative):
            if id(sample) not in rows:
                try:
                    z.append(z_scores(sample.llf, stats))
                except ValueError as exc:
                    raise ManifestError(f"scoring failed for {sample.source_id}: {exc}")
                rows[id(sample)] = len(z) - 1
    scores = scores_from_z(np.array(z), table).tolist()
    totals, corrects = Counter(), Counter()
    for pair in pairs:
        col = QUALITY_IDS.index(pair.quality)
        totals[pair.quality] += 1
        corrects[pair.quality] += (scores[rows[id(pair.positive)]][col]
                                   > scores[rows[id(pair.negative)]][col])
    per_quality = {q: QualityResult(totals[q], corrects[q]) for q in sorted(totals)}
    return PairwiseEvalReport(per_quality)


def load_manifest(path: str | os.PathLike) -> tuple[list[LabeledSample], int]:
    """Load a `path,label` CSV manifest, extracting features per row.

    Rows whose audio fails to load or extract are skipped with a warning;
    returns (samples, skipped_count). Unknown labels are hard errors.
    """
    base = os.path.dirname(os.fspath(path))
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            rows = [(reader.line_num, row) for row in reader
                    if row and not row[0].lstrip().startswith("#")]
    except (OSError, UnicodeDecodeError) as exc:
        raise ManifestError(f"cannot read manifest {path}: {exc}")

    samples: list[LabeledSample] = []
    skipped = 0
    for lineno, row in rows:
        if len(row) != 2:
            raise ManifestError(f"{path}:{lineno}: expected 'path,label'")
        file_path, label = row[0].strip(), row[1].strip()
        if label not in QUALITY_IDS and label != NEUTRAL_LABEL:
            raise ManifestError(f"{path}:{lineno}: unknown quality label {label!r}")
        if not os.path.isabs(file_path):
            file_path = os.path.join(base, file_path)
        if not os.path.exists(file_path):
            raise ManifestError(f"{path}:{lineno}: missing file {file_path}")
        try:
            llf = extract_llf_vector(load_audio(file_path))
        except VoiceQualityError as exc:
            log.warning("skipping %s: %s", file_path, exc)
            skipped += 1
            continue
        samples.append(LabeledSample(file_path, label, llf))
    return samples, skipped


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
