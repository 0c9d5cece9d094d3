"""Reference statistics: per-feature mean and standard deviation over a corpus."""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import OutputError, StatsError
from .llf import LLF_KEYS, LlfVector, llf_matrix, llf_row

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
    mu_vector: np.ndarray = field(init=False, repr=False, compare=False)
    sigma_vector: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name, d in (("mu", self.mu), ("sigma", self.sigma)):
            try:
                vector = np.frombuffer(llf_row(d), float)
            except ValueError as exc:
                missing = [k for k in LLF_KEYS if k not in d]
                if missing:
                    raise StatsError(f"stats {name} missing keys: {missing}") from None
                raise StatsError(f"stats {name} {exc}") from None
            object.__setattr__(self, f"{name}_vector", vector)
        if not (self.sigma_vector >= MIN_SIGMA).all():
            bad = [k for k, s in zip(LLF_KEYS, self.sigma_vector.tolist()) if not s >= MIN_SIGMA]
            raise StatsError(f"sigma below {MIN_SIGMA:g} for: {bad}")
        # an infinite sigma would read every z of its feature as 0; a NaN one
        # is named above, as below the floor
        for name, vector in (("mu", self.mu_vector), ("sigma", self.sigma_vector)):
            finite = np.isfinite(vector)
            if not finite.all():
                j = finite.argmin()
                raise StatsError(f"stats {name} value of {LLF_KEYS[j]!r} is not finite: "
                                 f"{float(vector[j])}")


def fit_stats(vectors: Sequence[LlfVector], corpus: str = "") -> FeatureStats:
    """Sample mean and (n-1)-denominator standard deviation per feature.

    A vector missing a key, or holding a value that is not a finite real
    number, is named by its index. A feature whose spread collapses below
    1e-9 makes the reference corpus unusable for z-scoring and is rejected,
    and so is one whose mean or spread overflows to infinity.
    """
    vectors = list(vectors)
    if len(vectors) < 2:
        raise StatsError(f"fewer than 2 vectors: got {len(vectors)}")
    try:
        data = llf_matrix(vectors)
    except ValueError as exc:
        raise StatsError(f"vector {exc.index} {exc}") from None
    finite = np.isfinite(data)
    if not finite.all():
        i, j = np.argwhere(~finite)[0].tolist()
        raise StatsError(f"vector {i} value of {LLF_KEYS[j]!r} is not finite: "
                         f"{float(data[i, j])}")
    with np.errstate(over="ignore"):  # an overflow to inf is named by FeatureStats
        mu = data.mean(axis=0)
        sigma = data.std(axis=0, ddof=1)
    if (sigma < MIN_SIGMA).any():
        degenerate = [k for k, s in zip(LLF_KEYS, sigma) if s < MIN_SIGMA]
        raise StatsError(f"degenerate feature (zero variance): {degenerate}")
    return FeatureStats(
        mu=dict(zip(LLF_KEYS, mu.tolist())),
        sigma=dict(zip(LLF_KEYS, sigma.tolist())),
        corpus=corpus,
        n_utterances=len(vectors),
    )


def stats_text(stats: FeatureStats) -> str:
    """Stats as a human-readable key/value text; floats keep full precision.

    A corpus label of words joined by single spaces is written as it is;
    any other, which that line would not give back, as an ASCII JSON string.
    """
    corpus = stats.corpus
    plain = corpus == " ".join(corpus.split()) and not any(
        "\ud800" <= c <= "\udfff" for c in corpus)  # lone surrogates have no UTF-8
    lines = [
        "# voicequal reference feature statistics",
        f"schema-version {SCHEMA_VERSION}",
        f"corpus {corpus}" if plain else f"corpus-json {json.dumps(corpus)}",
        f"utterances {stats.n_utterances}",
    ]
    for key in LLF_KEYS:
        lines.append(f"stat {key} {stats.mu[key]!r} {stats.sigma[key]!r}")
    return "\n".join(lines) + "\n"


def save_stats(stats: FeatureStats, path: str | os.PathLike) -> None:
    """Write stats_text(stats) to ``path``; OutputError names a path it cannot write."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(stats_text(stats))
    except OSError as exc:
        raise OutputError(f"cannot write {path}: {exc}")


def load_stats(path: str | os.PathLike) -> FeatureStats:
    """Read a stats file written by save_stats; validates keys and sigmas."""
    mu: dict[str, float] = {}
    sigma: dict[str, float] = {}
    corpus, n_utt = "", 0
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
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
        elif directive == "corpus-json":
            try:
                corpus = json.loads(line[len(directive):])
            except (ValueError, RecursionError):  # RecursionError: arrays nested too deep
                corpus = None
            if not isinstance(corpus, str):
                raise StatsError(f"{where}: corpus-json needs one JSON string")
        elif directive == "utterances":
            if len(args) != 1 or not (args[0].isascii() and args[0].isdigit()):
                raise StatsError(f"{where}: utterances needs one non-negative integer")
            try:
                n_utt = int(args[0])
            except ValueError:  # more digits than int() converts
                raise StatsError(f"{where}: utterances out of range") from None
        elif directive == "created":  # a timestamp older versions wrote; not kept
            if len(args) > 1:
                raise StatsError(f"{where}: created takes one timestamp")
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

    try:
        return FeatureStats(mu=mu, sigma=sigma, corpus=corpus, n_utterances=n_utt)
    except StatsError as exc:
        raise StatsError(f"{path}: {exc}") from None
