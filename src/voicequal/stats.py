"""Reference statistics: per-feature mean and standard deviation over a corpus."""

from __future__ import annotations

import datetime
import math
import os
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import StatsError
from .llf import LLF_KEYS, LlfVector

SCHEMA_VERSION = 1
MIN_SIGMA = 1e-9


@dataclass(frozen=True)
class FeatureStats:
    """Per-feature mu and sigma fitted over a reference corpus, also held as
    the read-only arrays ``mu_vector`` and ``sigma_vector`` in LLF_KEYS order."""

    mu: dict[str, float]
    sigma: dict[str, float]
    corpus: str = ""
    n_utterances: int = 0
    created: str = ""
    mu_vector: np.ndarray = field(init=False, repr=False, compare=False)
    sigma_vector: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name, d in (("mu", self.mu), ("sigma", self.sigma)):
            missing = [k for k in LLF_KEYS if k not in d]
            if missing:
                raise StatsError(f"stats {name} missing keys: {missing}")
            vector = np.array([d[k] for k in LLF_KEYS], dtype=float)
            vector.flags.writeable = False
            object.__setattr__(self, f"{name}_vector", vector)
        bad = [k for k, s in self.sigma.items() if not s >= MIN_SIGMA]
        if bad:
            raise StatsError(f"sigma below {MIN_SIGMA:g} for: {bad}")


def fit_stats(vectors: Sequence[LlfVector], corpus: str = "") -> FeatureStats:
    """Sample mean and (n-1)-denominator standard deviation per feature.

    A feature whose spread collapses below 1e-9 makes the reference corpus
    unusable for z-scoring and is rejected.
    """
    vectors = list(vectors)
    if len(vectors) < 2:
        raise StatsError(f"fewer than 2 vectors: got {len(vectors)}")
    data = np.array([[v[k] for k in LLF_KEYS] for v in vectors])
    mu = data.mean(axis=0)
    sigma = data.std(axis=0, ddof=1)
    degenerate = [k for k, s in zip(LLF_KEYS, sigma) if s < MIN_SIGMA]
    if degenerate:
        raise StatsError(f"degenerate feature (zero variance): {degenerate}")
    return FeatureStats(
        mu=dict(zip(LLF_KEYS, mu.tolist())),
        sigma=dict(zip(LLF_KEYS, sigma.tolist())),
        corpus=corpus,
        n_utterances=len(vectors),
        created=datetime.datetime.now(datetime.timezone.utc).isoformat(),
    )


def save_stats(stats: FeatureStats, path: str | os.PathLike) -> None:
    """Write stats as a human-readable key/value file; floats keep full precision."""
    lines = [
        "# voicequal reference feature statistics",
        f"schema-version {SCHEMA_VERSION}",
        f"corpus {stats.corpus}",
        f"utterances {stats.n_utterances}",
        f"created {stats.created}",
    ]
    for key in LLF_KEYS:
        lines.append(f"stat {key} {stats.mu[key]!r} {stats.sigma[key]!r}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_stats(path: str | os.PathLike) -> FeatureStats:
    """Read a stats file written by save_stats; validates keys and sigmas."""
    mu: dict[str, float] = {}
    sigma: dict[str, float] = {}
    corpus, n_utt, created = "", 0, ""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise StatsError(f"cannot read stats {path}: {exc}")

    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        directive, *args = line.split()
        where = f"{path}:{lineno}"
        if directive == "schema-version":
            if args != [str(SCHEMA_VERSION)]:
                raise StatsError(f"{where}: unsupported schema version")
        elif directive == "corpus":
            corpus = " ".join(args)
        elif directive == "utterances":
            if len(args) != 1 or not (args[0].isascii() and args[0].isdigit()):
                raise StatsError(f"{where}: utterances needs one non-negative integer")
            n_utt = int(args[0])
        elif directive == "created":
            if len(args) > 1:
                raise StatsError(f"{where}: created takes one timestamp")
            created = args[0] if args else ""
        elif directive == "stat":
            if len(args) != 3:
                raise StatsError(f"{where}: malformed stat line")
            key = args[0]
            if key not in LLF_KEYS:
                raise StatsError(f"{where}: unknown feature key {key!r}")
            if key in mu:
                raise StatsError(f"{where}: duplicate key {key!r}")
            try:
                mu[key], sigma[key] = float(args[1]), float(args[2])
            except ValueError:
                raise StatsError(f"{where}: malformed number for {key!r}")
            if not (math.isfinite(mu[key]) and math.isfinite(sigma[key])):
                raise StatsError(f"{where}: non-finite number for {key!r}")
        else:
            raise StatsError(f"{where}: unknown directive {directive!r}")

    missing = [k for k in LLF_KEYS if k not in mu]
    if missing:
        raise StatsError(f"{path}: missing keys {missing}")
    return FeatureStats(mu=mu, sigma=sigma, corpus=corpus,
                        n_utterances=n_utt, created=created)
