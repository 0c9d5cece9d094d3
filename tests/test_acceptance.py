"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (visible with `pytest -s tests/test_acceptance.py`)."""

import functools
import json
import time

import numpy as np
import pytest

from voicequal.audio_io import save_wav
from voicequal.cli import main
from voicequal.evaluation import (
    NEUTRAL_LABEL,
    SUITE_QUALITY,
    LabeledSample,
    PairGrid,
    build_synthetic_suite,
    evaluate_pairs,
    form_pairs,
)
from voicequal.framing import frame_signal
from voicequal.formants import estimate_formants
from voicequal.llf import LLF_KEYS, extract_llf_vector
from voicequal.periods import compute_period_llfs
from voicequal.pitch import track_pitch
from voicequal.quality import (
    QUALITY_IDS,
    CorrelationCategory,
    effective_coefficient,
    load_table,
    score_all,
    score_quality,
)
from voicequal.stats import fit_stats, load_stats, save_stats
from voicequal.synth import generate_synthetic

from conftest import random_llf, random_stats, raw_pulse_train, sine_signal
from test_quality import BREATHINESS_COEFFICIENTS, PALETTE


def criterion(number, description):
    def wrap(fn):
        @functools.wraps(fn)
        def inner(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"FAIL criterion {number}: {description}", flush=True)
                raise
            print(f"PASS criterion {number}: {description}", flush=True)
        return inner
    return wrap


@criterion(1, "weight palette reproduced exactly for all 8 categories")
def test_criterion_1_palette():
    assert len(PALETTE) == len(CorrelationCategory)
    for category, coefficient in PALETTE.items():
        assert effective_coefficient(category) == coefficient


@criterion(2, "breathiness column: Z = 21 and term-by-term coefficient match")
def test_criterion_2_breathiness_golden():
    table = load_table()
    active = table.active_features("Brea")
    assert len(active) == 21
    assert set(active) == set(BREATHINESS_COEFFICIENTS)
    for key, coefficient in BREATHINESS_COEFFICIENTS.items():
        assert table.coefficient("Brea", key) == coefficient, key


@criterion(3, "scoring properties on 1000 randomized instances (tol 1e-9)")
def test_criterion_3_scoring_properties():
    table = load_table()
    rng = np.random.default_rng(2024)
    start = time.time()
    alphas = (0.5, 2.0, -1.5, 0.25)
    for i in range(1000):
        stats = random_stats(rng)
        vector = random_llf(rng)

        at_mean = score_all(dict(stats.mu), stats, table).scores
        assert all(abs(s) < 1e-9 for s in at_mean.values())

        base = score_all(vector, stats, table).scores
        alpha = alphas[i % len(alphas)]
        blended = {k: stats.mu[k] + alpha * (vector[k] - stats.mu[k])
                   for k in LLF_KEYS}
        scores = score_all(blended, stats, table).scores
        mirrored = score_all({k: 2 * stats.mu[k] - vector[k] for k in LLF_KEYS},
                             stats, table).scores
        for quality in QUALITY_IDS:
            assert abs(scores[quality] - alpha * base[quality]) < 1e-9
            assert abs(mirrored[quality] + base[quality]) < 1e-9

        quality = QUALITY_IDS[i % len(QUALITY_IDS)]
        active = table.active_features(quality)
        key = active[i % len(active)]
        perturbed = dict(stats.mu)
        perturbed[key] = stats.mu[key] + stats.sigma[key]
        score, _ = score_quality(perturbed, stats, table, quality)
        assert abs(score - table.coefficient(quality, key) / len(active)) < 1e-9
    assert time.time() - start < 10


@criterion(4, "DSP unit suite: pitch, jitter, shimmer, formants, H1-H2")
def test_criterion_4_dsp_units():
    start = time.time()

    sine = sine_signal(220, duration=0.5)
    pitch = track_pitch(frame_signal(sine))
    f0 = pitch.f0_hz[pitch.voiced]
    assert np.all(np.abs(f0 - 220) < 2)
    values = compute_period_llfs(sine, pitch)
    assert values["F0semitoneFrom27.5Hz"] == pytest.approx(36.0, abs=0.2)

    clean = raw_pulse_train(200)
    values = compute_period_llfs(clean, track_pitch(frame_signal(clean)))
    assert values["jitterLocal"] < 0.005
    assert values["shimmerLocaldB"] < 0.05

    jittered = raw_pulse_train(200, jitter_pct=2.0, seed=1)
    values = compute_period_llfs(jittered, track_pitch(frame_signal(jittered)))
    assert 0.01 <= values["jitterLocal"] <= 0.03

    frames = frame_signal(generate_synthetic("clean", f0=120.0, seed=0))
    values = estimate_formants(frames, track_pitch(frames)).values
    for n, want in enumerate((700, 1220, 2600)):
        assert abs(values[f"F{n + 1}frequency"] - want) < 60

    from voicequal.audio_io import AudioSignal
    t = np.arange(8000) / 16000
    h = 0.5 * np.sin(2 * np.pi * 200 * t) + 0.25 * np.sin(2 * np.pi * 400 * t)
    pair = AudioSignal(h, 16000, "pair")
    frames = frame_signal(pair)
    values = estimate_formants(frames, track_pitch(frames)).values
    assert values["logRelF0-H1-H2"] == pytest.approx(6.02, abs=0.5)

    assert time.time() - start < 30


@criterion(5, "synthetic suites: jitter 100%, shimmer 100%, breathy > 50%")
def test_criterion_5_synthetic_suites():
    start = time.time()
    table = load_table()
    for kind, requirement in (("jittered", 100.0), ("shimmered", 100.0),
                              ("breathy", 50.0)):
        quality = SUITE_QUALITY[kind]
        samples = build_synthetic_suite(kind, seed=42)
        stats = fit_stats([s.llf for s in samples], corpus=f"{kind} suite")
        pairs = form_pairs(samples, quality)
        assert len(pairs) >= 50
        report = evaluate_pairs(pairs, stats, table)
        accuracy = report.per_quality[quality].accuracy_percent
        if requirement == 100.0:
            assert accuracy == 100.0, (kind, accuracy)
        else:
            assert accuracy > requirement, (kind, accuracy)
    assert time.time() - start < 120


@criterion(6, "pairwise protocol: strict rule, ties wrong, cross-product counts")
def test_criterion_6_protocol():
    table = load_table()
    rng = np.random.default_rng(6)
    stats = random_stats(rng)
    at_mean = dict(stats.mu)
    above = dict(stats.mu)
    above["jitterLocal"] = stats.mu["jitterLocal"] + stats.sigma["jitterLocal"]

    winner = LabeledSample("winner", "Jit", above)
    tied = LabeledSample("tied", "Jit", at_mean)
    neutral = LabeledSample("neutral", NEUTRAL_LABEL, at_mean)

    report = evaluate_pairs(PairGrid("Jit", (winner,), (neutral,)), stats, table)
    assert report.per_quality["Jit"].correct == 1
    report = evaluate_pairs(PairGrid("Jit", (tied,), (neutral,)), stats, table)
    assert report.per_quality["Jit"].correct == 0

    positives = [LabeledSample(f"p{i}", "Jit", above) for i in range(4)]
    negatives = [LabeledSample(f"n{i}", NEUTRAL_LABEL, at_mean) for i in range(7)]
    pairs = form_pairs(positives + negatives, "Jit")
    assert len(pairs) == 4 * 7
    report = evaluate_pairs(pairs, stats, table)
    assert report.per_quality["Jit"].total_pairs == 28


@criterion(7, "stats fitting matches a two-pass oracle; file round-trips exactly")
def test_criterion_7_stats(tmp_path):
    rng = np.random.default_rng(7)
    vectors = [random_llf(rng) for _ in range(1000)]
    stats = fit_stats(vectors, corpus="acceptance")
    for key in LLF_KEYS:
        xs = [v[key] for v in vectors]
        mean = sum(xs) / len(xs)
        var = sum((x - mean) ** 2 for x in xs) / (len(xs) - 1)
        assert abs(stats.mu[key] - mean) < 1e-9
        assert abs(stats.sigma[key] - var ** 0.5) < 1e-9

    path = tmp_path / "stats.txt"
    save_stats(stats, path)
    loaded = load_stats(path)
    assert loaded.mu == stats.mu
    assert loaded.sigma == stats.sigma


@criterion(8, "end-to-end determinism: extract and score twice byte-identical")
def test_criterion_8_determinism(tmp_path):
    paths = []
    for i in range(3):
        path = tmp_path / f"v{i}.wav"
        save_wav(generate_synthetic("clean", f0=128.0 + 8 * i, seed=i), path)
        paths.append(str(path))
    stats_path = tmp_path / "stats.txt"
    assert main(["fit-stats", *paths, "--output", str(stats_path)]) == 0

    outputs = []
    for run in range(2):
        llf_path = tmp_path / f"llf{run}.jsonl"
        score_path = tmp_path / f"scores{run}.jsonl"
        assert main(["extract", *paths, "--output", str(llf_path)]) == 0
        assert main(["score", *paths, "--stats", str(stats_path),
                     "--output", str(score_path)]) == 0
        outputs.append((llf_path.read_bytes(), score_path.read_bytes()))
    assert outputs[0] == outputs[1]
    # and the records stay parseable
    json.loads(outputs[0][0].splitlines()[0])
