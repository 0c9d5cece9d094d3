import numpy as np
import pytest

from voicequal.audio_io import save_wav
from voicequal.errors import ManifestError
from voicequal.evaluation import (
    NEUTRAL_LABEL,
    EvalPair,
    LabeledSample,
    PairwiseEvalReport,
    QualityResult,
    evaluate_pairs,
    form_pairs,
    format_report,
    load_manifest,
)
from voicequal.llf import LLF_KEYS
from voicequal.synth import generate_synthetic

from conftest import loop_score, random_stats


def _sample(source_id, label, llf=None):
    return LabeledSample(source_id, label, llf or {k: 0.0 for k in LLF_KEYS})


def test_form_pairs_cross_product():
    samples = ([_sample(f"p{i}", "Jit") for i in range(3)]
               + [_sample(f"n{i}", NEUTRAL_LABEL) for i in range(5)])
    pairs = form_pairs(samples, "Jit")
    assert len(pairs) == 15
    assert all(p.positive.dominant_quality == "Jit" for p in pairs)
    assert all(p.negative.dominant_quality != "Jit" for p in pairs)


def test_form_pairs_single_pair():
    pairs = form_pairs([_sample("p", "Brea"), _sample("n", NEUTRAL_LABEL)], "Brea")
    assert len(pairs) == 1


def test_form_pairs_deterministic_order():
    samples = ([_sample(f"p{i}", "Jit") for i in (2, 0, 1)]
               + [_sample(f"n{i}", NEUTRAL_LABEL) for i in (1, 0)])
    pairs = form_pairs(samples, "Jit")
    assert [(p.positive.source_id, p.negative.source_id) for p in pairs[:2]] == [
        ("p0", "n0"), ("p0", "n1")]


def test_form_pairs_requires_both_sides():
    with pytest.raises(ManifestError, match="no samples"):
        form_pairs([_sample("n", NEUTRAL_LABEL)], "Jit")
    with pytest.raises(ManifestError, match="to pair against"):
        form_pairs([_sample("p", "Jit")], "Jit")


def test_unknown_label_rejected():
    with pytest.raises(ManifestError, match="Sparkly"):
        _sample("x", "Sparkly")


def test_strict_rule_tie_counts_wrong(default_table):
    rng = np.random.default_rng(0)
    stats = random_stats(rng)
    at_mean = dict(stats.mu)
    above = dict(stats.mu)
    above["jitterLocal"] = stats.mu["jitterLocal"] + stats.sigma["jitterLocal"]

    winner = _sample("winner", "Jit", above)
    neutral = _sample("neutral", NEUTRAL_LABEL, at_mean)
    tied = _sample("tied", "Jit", at_mean)

    report = evaluate_pairs([EvalPair(winner, neutral, "Jit")], stats, default_table)
    assert report.per_quality["Jit"].correct == 1
    report = evaluate_pairs([EvalPair(tied, neutral, "Jit")], stats, default_table)
    assert report.per_quality["Jit"].correct == 0  # tie is wrong


def test_swap_inverts_accuracy_minus_ties(default_table):
    rng = np.random.default_rng(1)
    stats = random_stats(rng)
    pairs, swapped = [], []
    for i in range(10):
        a = {k: stats.mu[k] + rng.normal() * stats.sigma[k] for k in LLF_KEYS}
        b = {k: stats.mu[k] + rng.normal() * stats.sigma[k] for k in LLF_KEYS}
        pos = _sample(f"a{i}", "Brea", a)
        neg = _sample(f"b{i}", NEUTRAL_LABEL, b)
        pairs.append(EvalPair(pos, neg, "Brea"))
        swapped.append(EvalPair(_sample(f"b{i}", "Brea", b),
                                _sample(f"a{i}", NEUTRAL_LABEL, a), "Brea"))
    fwd = evaluate_pairs(pairs, stats, default_table).per_quality["Brea"]
    rev = evaluate_pairs(swapped, stats, default_table).per_quality["Brea"]
    # no exact ties among random continuous scores
    assert fwd.correct + rev.correct == fwd.total_pairs


def test_accuracy_invariant_under_stats_choice(default_table):
    # comparisons are invariant to any positive affine transform of scores;
    # rescaling every sigma by a common factor is one such transform
    rng = np.random.default_rng(2)
    stats = random_stats(rng)
    scaled = type(stats)(mu=stats.mu,
                         sigma={k: 3.0 * s for k, s in stats.sigma.items()},
                         corpus=stats.corpus, n_utterances=stats.n_utterances)
    pairs = []
    for i in range(10):
        a = {k: stats.mu[k] + rng.normal() * stats.sigma[k] for k in LLF_KEYS}
        b = {k: stats.mu[k] + rng.normal() * stats.sigma[k] for k in LLF_KEYS}
        pairs.append(EvalPair(_sample(f"a{i}", "Rou", a),
                              _sample(f"b{i}", NEUTRAL_LABEL, b), "Rou"))
    acc1 = evaluate_pairs(pairs, stats, default_table).per_quality["Rou"]
    acc2 = evaluate_pairs(pairs, scaled, default_table).per_quality["Rou"]
    assert acc1.correct == acc2.correct


def test_evaluate_pairs_matches_per_pair_reference(default_table):
    rng = np.random.default_rng(3)
    stats = random_stats(rng)

    def draw():
        return {k: stats.mu[k] + rng.normal() * stats.sigma[k] for k in LLF_KEYS}

    shared = draw()
    samples = ([_sample(f"j{i}", "Jit", draw()) for i in range(4)]
               + [_sample(f"s{i}", "Shim", draw()) for i in range(3)]
               + [_sample(f"n{i}", NEUTRAL_LABEL, draw()) for i in range(5)]
               + [_sample("t-pos", "Jit", dict(shared)),
                  _sample("t-neg", NEUTRAL_LABEL, dict(shared))])
    pairs = form_pairs(samples, "Jit") + form_pairs(samples, "Shim")

    # reference: score both sides of every pair with the dict loop
    totals, corrects, ties = {}, {}, 0
    for pair in pairs:
        s1, _ = loop_score(pair.positive.llf, stats, default_table, pair.quality)
        s2, _ = loop_score(pair.negative.llf, stats, default_table, pair.quality)
        totals[pair.quality] = totals.get(pair.quality, 0) + 1
        corrects[pair.quality] = corrects.get(pair.quality, 0) + (s1 > s2)
        ties += s1 == s2
    assert ties >= 1

    report = evaluate_pairs(pairs, stats, default_table)
    assert {q: (r.total_pairs, r.correct) for q, r in report.per_quality.items()} == {
        q: (totals[q], corrects[q]) for q in sorted(totals)}


def test_scoring_failure_names_the_sample(default_table):
    stats = random_stats(np.random.default_rng(4))
    partial = dict(stats.mu)
    del partial["HNRdBACF"]
    pairs = [EvalPair(_sample("whole", "Brea", dict(stats.mu)),
                      _sample("partial", NEUTRAL_LABEL, partial), "Brea")]
    with pytest.raises(ManifestError, match="partial.*HNRdBACF"):
        evaluate_pairs(pairs, stats, default_table)


def test_report_mean_is_unweighted():
    report = PairwiseEvalReport({
        "Jit": QualityResult(10, 10),
        "Shim": QualityResult(100, 50),
    })
    assert report.mean_accuracy_percent == pytest.approx(75.0)
    text = format_report(report)
    assert "Jit" in text and "100.00" in text and "Average" in text


def test_load_manifest(tmp_path):
    for i in range(2):
        save_wav(generate_synthetic("clean", f0=130.0 + 10 * i, seed=i),
                 tmp_path / f"v{i}.wav")
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("v0.wav,Jit\nv1.wav,NEUTRAL-VOICE\n")
    samples, skipped = load_manifest(manifest)
    assert len(samples) == 2
    assert skipped == 0
    assert samples[0].dominant_quality == "Jit"
    assert list(samples[0].llf) == list(LLF_KEYS)


def test_manifest_unknown_label(tmp_path):
    save_wav(generate_synthetic("clean", seed=0), tmp_path / "v.wav")
    manifest = tmp_path / "m.csv"
    manifest.write_text("v.wav,Sparkly\n")
    with pytest.raises(ManifestError, match="Sparkly"):
        load_manifest(manifest)


def test_manifest_error_reports_the_file_line(tmp_path):
    (tmp_path / "a.wav").write_bytes(b"not audio")  # skipped with a warning
    manifest = tmp_path / "m.csv"
    manifest.write_text("# c\n\na.wav,Jit\nb.wav,NOPE\n")
    with pytest.raises(ManifestError, match=r"m\.csv:4: unknown quality label 'NOPE'"):
        load_manifest(manifest)


def test_manifest_missing_file(tmp_path):
    manifest = tmp_path / "m.csv"
    manifest.write_text("ghost.wav,Jit\n")
    with pytest.raises(ManifestError, match="ghost.wav"):
        load_manifest(manifest)


def test_manifest_skips_bad_rows_with_count(tmp_path):
    import numpy as np
    from scipy.io import wavfile
    save_wav(generate_synthetic("clean", seed=0), tmp_path / "good.wav")
    wavfile.write(tmp_path / "flat.wav", 16000, np.zeros(16000, dtype=np.int16))
    manifest = tmp_path / "m.csv"
    manifest.write_text("good.wav,Jit\nflat.wav,NEUTRAL-VOICE\n")
    samples, skipped = load_manifest(manifest)
    assert len(samples) == 1
    assert skipped == 1
