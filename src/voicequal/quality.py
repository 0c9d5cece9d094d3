"""Voice-quality scoring: the correlation table, weight palette, and the
normalized weighted z-score sum that maps 25 features to 24 quality scores."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property
from importlib import resources
from operator import attrgetter

import numpy as np

from .errors import TableError
from .llf import LLF_KEYS, LlfVector, llf_row
from .stats import FeatureStats

QUALITY_IDS = (
    "Cov", "Aph", "Biph", "Brea", "Crea", "Dip", "Flu", "Glo",
    "Hoa", "Rou", "Nas", "Jit", "Pre", "Pul", "Res", "Shim",
    "Stra", "Stro", "Tre", "Twa", "Ven", "Wob", "Yaw", "Lou",
)

DEFAULT_TABLE_RESOURCE = "correlations_v1.txt"


class CorrelationCategory(enum.Enum):
    SN = "SN"
    N = "N"
    WN = "WN"
    NEUTRAL = "-"
    WP = "WP"
    P = "P"
    SP = "SP"
    IC = "IC"


# a dict lookup per table cell, not an enum call
_CATEGORY_BY_CODE = {c.value: c for c in CorrelationCategory}

# signed coefficient c * w of each category, by its code: looking a member
# up by itself would call the enum's Python-level __hash__
_COEFFICIENTS = {"SN": -1.0, "N": -0.75, "WN": -0.25, "-": 0.0,
                 "WP": 0.25, "P": 0.75, "SP": 1.0, "IC": 0.0}
# the table's cells in coefficient-matrix order, rows QUALITY_IDS
_CELLS = [(q, k) for q in QUALITY_IDS for k in LLF_KEYS]


def effective_coefficient(category: CorrelationCategory) -> float:
    """Signed coefficient c * w for one table cell."""
    return _COEFFICIENTS[category.value]


@dataclass(frozen=True)
class CorrelationTable:
    """Complete 24 x 25 map of correlation categories, plus a version string.

    ``coefficients`` is the map as signed coefficients (rows QUALITY_IDS,
    columns LLF_KEYS); ``active_counts`` holds each row's nonzero count |A_i|,
    as float64, so that dividing by it casts nothing.
    """

    entries: dict[tuple[str, str], CorrelationCategory]
    version: str = "unversioned"
    coefficients: np.ndarray = field(init=False, repr=False, compare=False)
    active_counts: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # each cell's code straight to its coefficient, in C-level maps
        codes = map(attrgetter("_value_"), map(self.entries.__getitem__, _CELLS))
        coefficients = np.fromiter(map(_COEFFICIENTS.__getitem__, codes), float, len(_CELLS))
        coefficients = coefficients.reshape(len(QUALITY_IDS), len(LLF_KEYS))
        counts = np.count_nonzero(coefficients, axis=1).astype(float)
        empty = [q for q, n in zip(QUALITY_IDS, counts) if n == 0]
        if empty:
            raise TableError(f"qualities with no active features: {empty}")
        object.__setattr__(self, "coefficients", coefficients)
        object.__setattr__(self, "active_counts", counts)

    def category(self, quality_id: str, feature_key: str) -> CorrelationCategory:
        return self.entries[(quality_id, feature_key)]

    def coefficient(self, quality_id: str, feature_key: str) -> float:
        return float(self.coefficients[QUALITY_IDS.index(quality_id),
                                       LLF_KEYS.index(feature_key)])

    def active_features(self, quality_id: str) -> list[str]:
        """Features with a nonzero coefficient for this quality."""
        row = self.coefficients[QUALITY_IDS.index(quality_id)]
        return [k for k, c in zip(LLF_KEYS, row.tolist()) if c != 0.0]


def _parse_table(lines, origin: str) -> CorrelationTable:
    version = "unversioned"
    qualities: list[str] | None = None
    entries: dict[tuple[str, str], CorrelationCategory] = {}
    seen_features: set[str] = set()

    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "version":
            version = " ".join(parts[1:]) or version
            continue
        if parts[0] == "qualities":
            if qualities is not None:
                raise TableError(f"{origin}:{lineno}: duplicate qualities header")
            qualities = parts[1:]
            unknown = [q for q in qualities if q not in QUALITY_IDS]
            if unknown:
                raise TableError(f"{origin}:{lineno}: unknown quality ids {unknown}")
            if len(set(qualities)) != len(qualities):
                raise TableError(f"{origin}:{lineno}: duplicate quality column")
            continue
        if qualities is None:
            raise TableError(f"{origin}:{lineno}: feature row before qualities header")
        feature = parts[0]
        if feature not in LLF_KEYS:
            raise TableError(f"{origin}:{lineno}: unknown feature key {feature!r}")
        if feature in seen_features:
            raise TableError(f"{origin}:{lineno}: duplicate row for {feature!r}")
        seen_features.add(feature)
        codes = parts[1:]
        if len(codes) != len(qualities):
            raise TableError(
                f"{origin}:{lineno}: row {feature!r} has {len(codes)} cells, "
                f"expected {len(qualities)}")
        for quality, code in zip(qualities, codes):
            cat = _CATEGORY_BY_CODE.get(code)
            if cat is None:
                raise TableError(
                    f"{origin}:{lineno}: row {feature!r}, column {quality!r}: "
                    f"unknown category code {code!r}")
            entries[(quality, feature)] = cat

    if qualities is None:
        raise TableError(f"{origin}: missing qualities header")
    missing_q = [q for q in QUALITY_IDS if q not in qualities]
    if missing_q:
        raise TableError(f"{origin}: missing quality columns {missing_q}")
    missing_f = [f for f in LLF_KEYS if f not in seen_features]
    if missing_f:
        raise TableError(f"{origin}: missing feature rows {missing_f}")
    try:
        return CorrelationTable(entries, version)
    except TableError as exc:
        raise TableError(f"{origin}: {exc}") from None


def load_table(path: str | None = None) -> CorrelationTable:
    """Load a correlation table file; ``None`` loads the bundled default."""
    if path is None:
        ref = resources.files("voicequal.data") / DEFAULT_TABLE_RESOURCE
        with ref.open("r", encoding="utf-8") as fh:
            return _parse_table(fh, DEFAULT_TABLE_RESOURCE)
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            return _parse_table(fh, str(path))
    except (OSError, UnicodeDecodeError) as exc:
        raise TableError(f"cannot read table {path}: {exc}")


@dataclass(frozen=True)
class QualityScores:
    """All 24 scores for one utterance, from its z-vector (LLF_KEYS order)
    and the table that scored it."""

    scores: dict[str, float]
    z: np.ndarray = field(repr=False, compare=False)
    table: CorrelationTable = field(repr=False, compare=False)

    @cached_property
    def z_contributions(self) -> dict[str, dict[str, float]]:
        """Per quality, the terms c_ij * z_j of its active features; built
        on first access, since most callers read only the scores."""
        terms = (self.table.coefficients * self.z).tolist()
        active = (self.table.coefficients != 0.0).tolist()
        return {q: {k: t for k, t, a in zip(LLF_KEYS, row, mask) if a}
                for q, row, mask in zip(QUALITY_IDS, terms, active)}


def z_scores(vector: LlfVector, stats: FeatureStats) -> np.ndarray:
    """z_j = (v_j - mu_j) / sigma_j in LLF_KEYS order; a missing key or a
    value that is not a real number raises ValueError."""
    try:
        values = np.frombuffer(llf_row(vector), float)
    except ValueError as exc:
        raise ValueError(f"feature vector {exc}") from None
    return (values - stats.mu_vector) / stats.sigma_vector


def scores_from_z(z: np.ndarray, table: CorrelationTable) -> np.ndarray:
    """S = Z C^T / |A|: the 24 scores (QUALITY_IDS order) of each z row, each
    row multiplied alone, so a row of a matrix scores the bits of score_all."""
    if z.ndim == 1:  # the same one-row product, without the stacked form's views
        return z @ table.coefficients.T / table.active_counts
    scores = (z[:, None, :] @ table.coefficients.T)[:, 0, :]
    scores /= table.active_counts
    return scores


def score_all(vector: LlfVector, stats: FeatureStats,
              table: CorrelationTable) -> QualityScores:
    """Score every quality for one feature vector; the contributions of
    quality i are the terms c_ij * z_j of its active features."""
    z = z_scores(vector, stats)
    return QualityScores(dict(zip(QUALITY_IDS, scores_from_z(z, table).tolist())), z, table)


def score_quality(vector: LlfVector, stats: FeatureStats, table: CorrelationTable,
                  quality_id: str) -> tuple[float, dict[str, float]]:
    """Score one quality: its entry of ``score_all``, with its contributions."""
    if quality_id not in QUALITY_IDS:
        raise TableError(f"unknown quality id {quality_id!r}")
    result = score_all(vector, stats, table)
    return result.scores[quality_id], result.z_contributions[quality_id]
