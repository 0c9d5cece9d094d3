"""The benchmark's workloads: seeded inputs, set-up, timed operations, output checks.

Inputs are synthetic vowels from ``voicequal.generate_synthetic``. The seed
picks them from fixed pools, so the committed references in
``reference.json`` cover every seed: the same seed gives the same inputs, and
any seed is checked against the same reference values.

extract-long   eight 10 s vowels, two per kind, 16 kHz mono float32 WAV; each
               operation is one ``voicequal extract`` call through ``cli.main``.
               Per-frame DSP dominates; no resampling, no scoring.
score-batch    120 vowels of 1 s, 44.1 kHz stereo int16 WAV; each operation is
               one ``voicequal score --stats`` call, against stats fitted in
               set-up on a separate fit set. Per-call costs take a large share.
rank-corpus    set-up extracts LLF vectors of 160 vowels of 0.5 s (40 per kind);
               each operation fits stats, scores every vector and evaluates
               the 14,400 Jit/Shim/Brea pairs, one evaluate_pairs call per
               quality. No DSP in the timed part.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass

import numpy as np
from scipy.io import wavfile

import voicequal
from voicequal import cli as vq_cli
from voicequal import evaluation as vq_eval
from voicequal import llf as vq_llf
from voicequal import quality as vq_quality
from voicequal import stats as vq_stats

KINDS = ("clean", "jittered", "shimmered", "breathy")
RANK_LABELS = {"clean": vq_eval.NEUTRAL_LABEL, "jittered": "Jit",
               "shimmered": "Shim", "breathy": "Brea"}
RANK_QUALITIES = ("Jit", "Shim", "Brea")

# 80 s of long audio per pass, as eight files of 10 s: long enough that
# per-frame DSP dominates, short enough that a run times about 25 operations,
# each against the machine speed measured right around it
LONG_S = 10.0
SMOKE_LONG_S = 2.0
LONG_F0 = {"clean": 110.0, "jittered": 130.0, "shimmered": 150.0, "breathy": 170.0}
LONG_VARIANTS = 3
LONG_PER_KIND = 2

BATCH_RATE = 44100
BATCH_POOL = 40          # variants per kind in the pool
BATCH_PER_KIND = 30      # drawn per kind by the seed: 120 files
FIT_PER_KIND = 3         # separate fit set for the score-batch stats
RANK_POOL = 50
RANK_PER_KIND = 40       # 160 vowels, 40 x 120 x 3 = 14,400 pairs
# Ranking cost does not depend on vowel length, only set-up's extraction does;
# half-second vowels keep two set-ups per run inside the run-time budget.
RANK_S = 0.5
SMOKE_PER_KIND = {"score-batch": 2, "rank-corpus": 4}

# Output tolerances. LLF vectors follow the roadmap's 1e-9 relative gate;
# scores divide feature differences by sigma, so they get an absolute floor.
LLF_RTOL = 1e-9
LLF_ATOL = 1e-12
SCORE_ATOL = 1e-6
# score margins this small may rank either way after an LLF change within tolerance
RANK_TIE = 1e-6

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

# category codes of the correlation table and their signed weights, as the
# paper defines them; used by the independent reference ranking below
CATEGORY_COEFFICIENT = {"SN": -1.0, "N": -0.75, "WN": -0.25, "-": 0.0,
                        "WP": 0.25, "P": 0.75, "SP": 1.0, "IC": 0.0}


class OpFailed(Exception):
    """An operation returned an error or an output that is not usable."""


@dataclass(frozen=True)
class Clip:
    """One synthetic input, fully determined by its fields."""

    id: str
    kind: str
    f0: float
    synth_seed: int
    duration_s: float
    rate: int = voicequal.CANONICAL_RATE
    params: tuple = ()

    def signal(self) -> voicequal.AudioSignal:
        return voicequal.generate_synthetic(
            self.kind, f0=self.f0, duration=self.duration_s, seed=self.synth_seed,
            sample_rate=self.rate, **dict(self.params))


def long_clip(kind: str, variant: int, smoke: bool = False) -> Clip:
    prefix, duration = ("smoke-long", SMOKE_LONG_S) if smoke else ("long", LONG_S)
    return Clip(f"{prefix}/{kind}/{variant}", kind, LONG_F0[kind] + 6.0 * variant,
                10 * KINDS.index(kind) + variant, duration)


def batch_clip(kind: str, variant: int) -> Clip:
    return Clip(f"batch/{kind}/{variant}", kind, 100.0 + 3.0 * variant,
                1000 + 100 * KINDS.index(kind) + variant, 1.0, BATCH_RATE)


def fit_clip(kind: str, j: int) -> Clip:
    return Clip(f"fit/{kind}/{j}", kind, 115.0 + 35.0 * j,
                5000 + 100 * KINDS.index(kind) + j, 1.0, BATCH_RATE)


def rank_clip(kind: str, variant: int) -> Clip:
    # the suite's f0 range (120-148 Hz) on a finer grid, so clean vowels differ
    f0 = vq_eval.SUITE_F0_BASE + 8 * vq_eval.SUITE_F0_STEP * variant / RANK_POOL
    return Clip(f"rank/{kind}/{variant}", kind, f0, 2000 + 100 * KINDS.index(kind) + variant,
                RANK_S, params=tuple(vq_eval.SUITE_PARAMS.get(kind, {}).items()))


def pick_variants(seed: int, pool: int, per_kind: int) -> list[tuple[str, int]]:
    """Seeded draw of per_kind pool variants per kind, interleaved kind by kind."""
    rng = np.random.default_rng(seed)
    chosen = {k: rng.choice(pool, per_kind, replace=False) for k in KINDS}
    return [(k, int(chosen[k][i])) for i in range(per_kind) for k in KINDS]


def write_float_wav(clip: Clip, path: str) -> None:
    voicequal.save_wav(clip.signal(), path)


def write_stereo_int16_wav(clip: Clip, path: str) -> None:
    x = clip.signal().samples
    stereo = np.stack([x, 0.8 * x], axis=1)
    wavfile.write(path, clip.rate, np.round(stereo * 32767.0).astype(np.int16))


def no_tick() -> None:
    pass


def write_fit_stats(work_dir: str, tick=no_tick) -> str:
    """Fit and save the score-batch stats on the fixed fit set; returns the stats path."""
    vectors = []
    for j in range(FIT_PER_KIND):
        for kind in KINDS:
            path = os.path.join(work_dir, f"fit_{kind}_{j}.wav")
            write_stereo_int16_wav(fit_clip(kind, j), path)
            vectors.append(voicequal.extract_llf_vector(voicequal.load_audio(path)))
            tick()
    stats_path = os.path.join(work_dir, "stats.txt")
    voicequal.save_stats(voicequal.fit_stats(vectors, corpus="perfbench fit set"), stats_path)
    return stats_path


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def close(actual, expected, rtol: float, atol: float) -> bool:
    a, e = np.asarray(actual, dtype=float), np.asarray(expected, dtype=float)
    return a.shape == e.shape and bool(np.all(np.abs(a - e) <= atol + rtol * np.abs(e)))


def fingerprint(outputs: dict) -> str:
    """SHA-256 over every output value at 10 significant digits, by input id."""
    lines = [f"{key} " + " ".join(format(float(v), ".10g") for v in outputs[key])
             for key in sorted(outputs)]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


class CliFileOp:
    """One ``cli.main`` call on one WAV, from the file to its JSONL line."""

    files = 1

    def __init__(self, clip: Clip, argv: list[str], out_path: str, reference, scores: bool):
        self.id = clip.id
        self.audio_s = clip.duration_s
        self.argv = argv
        self.out_path = out_path
        self.reference = reference
        self.scores = scores

    def run(self, tick=no_tick):
        return vq_cli.main(self.argv)

    def output(self, rc) -> tuple:
        if rc != 0:
            raise OpFailed(f"{self.id}: voicequal exited with {rc}")
        with open(self.out_path, encoding="utf-8") as fh:
            record = json.loads(fh.readline())
        if record.get("source") != self.argv[1]:
            raise OpFailed(f"{self.id}: output names {record.get('source')!r}")
        if self.scores:
            return tuple(record["scores"][q] for q in voicequal.QUALITY_IDS)
        return tuple(record[k] for k in voicequal.LLF_KEYS)

    def values(self, output: tuple) -> list[float]:
        return list(output)

    def check(self, values: tuple) -> str | None:
        if self.reference is None:
            return f"{self.id}: no reference"
        if self.scores:
            ok = close(values, self.reference, LLF_RTOL, SCORE_ATOL)
        else:
            ok = close(values, self.reference, LLF_RTOL, LLF_ATOL)
        return None if ok else f"{self.id}: output differs from reference"


class ExtractOp:
    """Library extraction of one in-memory signal (rank-corpus set-up, traced)."""

    files = 1

    def __init__(self, clip: Clip, signal, reference):
        self.id = clip.id
        self.audio_s = clip.duration_s
        self.signal = signal
        self.reference = reference

    def run(self, tick=no_tick):
        return vq_llf.extract_llf_vector(self.signal)

    def output(self, vector) -> tuple:
        return tuple(vector[k] for k in voicequal.LLF_KEYS)

    def values(self, output: tuple) -> list[float]:
        return list(output)

    def check(self, values: tuple) -> str | None:
        if self.reference is None or not close(values, self.reference, LLF_RTOL, LLF_ATOL):
            return f"{self.id}: LLF vector differs from reference"
        return None


@dataclass
class RankResult:
    report: object
    scores: list
    n_pairs: int
    pair_s: float     # fit_stats + form_pairs + evaluate_pairs
    score_s: float    # score_all over every vector


class RankOp:
    """Fit stats, score every vector once, then form and evaluate each quality's pairs.

    ``tick`` runs between the five steps, so that a step is timed against the
    machine speed right around it (see ``speed.py``).
    """

    id = "rank"

    def __init__(self, samples: list, audio_s: float, table, expected: dict):
        self.samples = samples
        self.vectors = [s.llf for s in samples]
        self.table = table
        self.expected = expected
        self.files = len(samples)
        self.audio_s = audio_s

    def run(self, tick=no_tick) -> RankResult:
        t0 = time.perf_counter()
        stats = vq_stats.fit_stats(self.vectors, corpus="perfbench rank-corpus")
        pair_s = time.perf_counter() - t0
        tick()
        t0 = time.perf_counter()
        scores = [vq_quality.score_all(v, stats, self.table) for v in self.vectors]
        score_s = time.perf_counter() - t0
        per_quality, n_pairs = {}, 0
        for q in RANK_QUALITIES:
            tick()
            t0 = time.perf_counter()
            pairs = vq_eval.form_pairs(self.samples, q)
            per_quality.update(vq_eval.evaluate_pairs(pairs, stats, self.table).per_quality)
            pair_s += time.perf_counter() - t0
            n_pairs += len(pairs)
        report = vq_eval.PairwiseEvalReport(per_quality)
        return RankResult(report, scores, n_pairs, pair_s, score_s)

    def output(self, result: RankResult) -> tuple:
        per_q = result.report.per_quality
        counts = tuple(float(x) for q in RANK_QUALITIES
                       for x in (per_q[q].total_pairs, per_q[q].correct))
        scores = np.array([[r.scores[q] for q in voicequal.QUALITY_IDS] for r in result.scores])
        return counts, scores

    def values(self, output) -> list[float]:
        counts, scores = output
        return list(counts) + scores.ravel().tolist()

    def check(self, output) -> str | None:
        counts, scores = output
        exp = self.expected
        if not close(scores, exp["scores"], LLF_RTOL, SCORE_ATOL):
            return "rank: score_all differs from the reference scores"
        for i, q in enumerate(RANK_QUALITIES):
            total, correct = counts[2 * i], counts[2 * i + 1]
            lo = exp["correct"][q]
            if total != exp["total"][q] or not lo <= correct <= lo + exp["ties"][q]:
                return (f"rank: {q} {correct:.0f}/{total:.0f} correct, expected "
                        f"{lo}..{lo + exp['ties'][q]}/{exp['total'][q]}")
        return None


def reference_ranking(samples: list, vectors: np.ndarray, table) -> dict:
    """Scores and pair counts computed directly from the formula, for checking.

    score_i = (1/|A_i|) sum_j c_ij (v_j - mu_j) / sigma_j, with mu and the
    (n-1) sigma of the corpus; a pair is correct when the positive scores
    strictly higher. Margins within RANK_TIE are counted separately as ties.
    """
    coef = np.array([[CATEGORY_COEFFICIENT[table.category(q, k).value]
                      for k in voicequal.LLF_KEYS] for q in voicequal.QUALITY_IDS])
    z = (vectors - vectors.mean(axis=0)) / vectors.std(axis=0, ddof=1)
    scores = z @ coef.T / np.count_nonzero(coef, axis=1)
    labels = np.array([s.dominant_quality for s in samples])
    out = {"scores": scores, "total": {}, "correct": {}, "ties": {}}
    for q in RANK_QUALITIES:
        col = voicequal.QUALITY_IDS.index(q)
        margin = scores[labels == q, col][:, None] - scores[labels != q, col][None, :]
        out["total"][q] = int(margin.size)
        out["correct"][q] = int(np.count_nonzero(margin > RANK_TIE))
        out["ties"][q] = int(np.count_nonzero(np.abs(margin) <= RANK_TIE))
    return out


class Workload:
    """Set-up builds ``ops``, the cycle of timed operations, and ``trace_ops``."""

    name = ""
    round_size = 1      # operations per round; timing stops only between rounds
    warmup_rounds = 0   # untimed rounds after the memory pass

    def __init__(self, seed: int, work_dir: str, smoke: bool = False):
        self.seed = seed
        self.work_dir = work_dir
        self.smoke = smoke
        self.reference = load_reference()
        self.ops: list = []

    def setup(self, tick=no_tick) -> None:
        """Build the inputs and ``ops``; ``tick`` runs after each input."""
        raise NotImplementedError

    def trace_ops(self) -> list:
        return self.ops

    def setup_outputs(self) -> list:
        """(op, output) pairs produced by set-up itself, checked like timed ones."""
        return []

    def inputs(self) -> dict:
        """Durations and sample rates of the inputs, for the results file."""
        raise NotImplementedError


class ExtractLong(Workload):
    name = "extract-long"
    round_size = len(KINDS)

    def clips(self) -> list[Clip]:
        picks = pick_variants(self.seed, LONG_VARIANTS, LONG_PER_KIND)
        return [long_clip(k, v, self.smoke) for k, v in picks]

    def setup(self, tick=no_tick) -> None:
        ref = self.reference["llf"]
        out_path = os.path.join(self.work_dir, "extract.jsonl")
        self.ops = []
        for i, clip in enumerate(self.clips()):
            path = os.path.join(self.work_dir, f"long_{i}.wav")
            write_float_wav(clip, path)
            self.ops.append(CliFileOp(clip, ["extract", path, "--output", out_path],
                                      out_path, ref.get(clip.id), scores=False))
            tick()

    def inputs(self) -> dict:
        clips = self.clips()
        return {"files": len(clips), "duration_s": sorted({c.duration_s for c in clips}),
                "sample_rate_hz": [voicequal.CANONICAL_RATE], "format": "mono float32 WAV",
                "ids": [c.id for c in clips]}


class ScoreBatch(Workload):
    name = "score-batch"
    round_size = len(KINDS)
    warmup_rounds = 1

    def clips(self) -> list[Clip]:
        per_kind = SMOKE_PER_KIND[self.name] if self.smoke else BATCH_PER_KIND
        return [batch_clip(k, v) for k, v in pick_variants(self.seed, BATCH_POOL, per_kind)]

    def setup(self, tick=no_tick) -> None:
        stats_path = write_fit_stats(self.work_dir, tick)
        ref = self.reference["scores"]
        out_path = os.path.join(self.work_dir, "score.jsonl")
        self.ops = []
        for i, clip in enumerate(self.clips()):
            path = os.path.join(self.work_dir, f"batch_{i:03d}.wav")
            write_stereo_int16_wav(clip, path)
            argv = ["score", path, "--stats", stats_path, "--output", out_path]
            self.ops.append(CliFileOp(clip, argv, out_path, ref.get(clip.id), scores=True))
            tick()

    def inputs(self) -> dict:
        clips = self.clips()
        return {"files": len(clips), "duration_s": [1.0], "sample_rate_hz": [BATCH_RATE],
                "format": "stereo int16 WAV",
                "fit_set": {"files": FIT_PER_KIND * len(KINDS), "duration_s": [1.0],
                            "sample_rate_hz": [BATCH_RATE]}}


class RankCorpus(Workload):
    name = "rank-corpus"
    trace_ranks = 3

    def clips(self) -> list[Clip]:
        per_kind = SMOKE_PER_KIND[self.name] if self.smoke else RANK_PER_KIND
        return [rank_clip(k, v) for k, v in pick_variants(self.seed, RANK_POOL, per_kind)]

    def setup(self, tick=no_tick) -> None:
        table = voicequal.load_table()
        self.extract_ops = []
        samples = []
        for clip in self.clips():
            signal = clip.signal()
            vector = vq_llf.extract_llf_vector(signal)
            samples.append(vq_eval.LabeledSample(clip.id, RANK_LABELS[clip.kind], vector))
            self.extract_ops.append(ExtractOp(clip, signal, self.reference["llf"].get(clip.id)))
            tick()
        self.samples = samples
        audio_s = sum(op.audio_s for op in self.extract_ops)
        self.ops = [RankOp(samples, audio_s, table, self._expected(samples, table))]

    def _expected(self, samples: list, table) -> dict:
        ref = self.reference["llf"]
        if not all(s.source_id in ref for s in samples):
            return {"scores": np.zeros((0,)), "total": {}, "correct": {}, "ties": {}}
        vectors = np.array([ref[s.source_id] for s in samples])
        return reference_ranking(samples, vectors, table)

    def setup_outputs(self) -> list:
        # the set-up vectors feed every ranking, so they are checked too
        return [(op, op.output(s.llf)) for op, s in zip(self.extract_ops, self.samples)]

    def trace_ops(self) -> list:
        return self.extract_ops + self.ops * self.trace_ranks

    def inputs(self) -> dict:
        clips = self.clips()
        return {"files": len(clips), "duration_s": [RANK_S],
                "sample_rate_hz": [voicequal.CANONICAL_RATE], "format": "in-memory signals",
                "per_label": {RANK_LABELS[k]: sum(c.kind == k for c in clips) for k in KINDS}}


WORKLOADS = {w.name: w for w in (ExtractLong, ScoreBatch, RankCorpus)}
