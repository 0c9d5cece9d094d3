"""Exception hierarchy. Each class carries the CLI exit code for its failure class."""


class VoiceQualityError(Exception):
    exit_code = 1


class AudioIOError(VoiceQualityError):
    """Unreadable, unsupported, malformed, or too-short audio input."""
    exit_code = 3


class SilentInputError(AudioIOError):
    """The decoded signal is all zero."""
    exit_code = 3


class InsufficientVoicingError(VoiceQualityError):
    """Too few voiced frames for the voiced-only features."""
    exit_code = 4


class StatsError(VoiceQualityError):
    """Reference statistics could not be fitted or loaded."""
    exit_code = 5


class TableError(VoiceQualityError):
    """Correlation table file is malformed or incomplete."""
    exit_code = 6


class ManifestError(VoiceQualityError):
    """Evaluation manifest is malformed or references bad data."""
    exit_code = 7


class OutputError(VoiceQualityError):
    """An output file or directory could not be written."""
    exit_code = 8
