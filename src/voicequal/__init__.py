"""Objective voice-quality scoring from low-level acoustic features."""

# the codec of every utf-8-sig read, imported with the package, not by the first read
import encodings.utf_8_sig  # noqa: F401

from .audio_io import CANONICAL_RATE, AudioSignal, load_audio, save_wav
from .errors import (
    AudioIOError,
    InsufficientVoicingError,
    ManifestError,
    OutputError,
    SilentInputError,
    StatsError,
    TableError,
    VoiceQualityError,
)
from .llf import LLF_KEYS, LlfVector, extract_llf_vector
from .quality import (
    QUALITY_IDS,
    CorrelationCategory,
    CorrelationTable,
    QualityScores,
    effective_coefficient,
    load_table,
    score_all,
    score_quality,
)
from .stats import FeatureStats, fit_stats, load_stats, save_stats
from .synth import generate_synthetic

__version__ = "0.1.0"

__all__ = [
    "AudioSignal", "CANONICAL_RATE", "load_audio", "save_wav",
    "LLF_KEYS", "LlfVector", "extract_llf_vector",
    "FeatureStats", "fit_stats", "save_stats", "load_stats",
    "QUALITY_IDS", "CorrelationCategory", "CorrelationTable", "QualityScores",
    "effective_coefficient", "load_table", "score_quality", "score_all",
    "generate_synthetic",
    "VoiceQualityError", "AudioIOError", "SilentInputError", "OutputError",
    "InsufficientVoicingError", "StatsError", "TableError", "ManifestError",
]
