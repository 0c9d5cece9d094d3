import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voicequal.audio_io import save_wav
from voicequal.cli import main
from voicequal.errors import ManifestError
from voicequal.evaluation import (
    NEUTRAL_LABEL,
    LabeledSample,
    PairGrid,
    PairwiseEvalReport,
    QualityResult,
    evaluate_pairs,
    form_pairs,
    format_report,
    read_manifest,
)
from voicequal.llf import LLF_KEYS, llf_row
from voicequal.quality import QUALITY_IDS, score_all
from voicequal.stats import MIN_SIGMA, FeatureStats, load_stats
from voicequal.synth import generate_synthetic

from conftest import loop_score, random_stats


def _sample(source_id, label, llf=None):
    return LabeledSample(source_id, label, llf or {k: 0.0 for k in LLF_KEYS})


def test_form_pairs_cross_product():
    samples = ([_sample(f"p{i}", "Jit") for i in range(3)]
               + [_sample(f"n{i}", NEUTRAL_LABEL) for i in range(5)])
    grid = form_pairs(samples, "Jit")
    assert len(grid) == 15
    assert grid.quality == "Jit"
    assert all(p.dominant_quality == "Jit" for p in grid.positives)
    assert all(n.dominant_quality != "Jit" for n in grid.negatives)
    assert (len(grid.positives), len(grid.negatives)) == (3, 5)


def test_form_pairs_single_pair():
    grid = form_pairs([_sample("p", "Brea"), _sample("n", NEUTRAL_LABEL)], "Brea")
    assert len(grid) == 1


def test_form_pairs_deterministic_order():
    samples = ([_sample(f"p{i}", "Jit") for i in (2, 0, 1)]
               + [_sample(f"n{i}", NEUTRAL_LABEL) for i in (1, 0)])
    grid = form_pairs(samples, "Jit")
    assert [s.source_id for s in grid.positives] == ["p0", "p1", "p2"]
    assert [s.source_id for s in grid.negatives] == ["n0", "n1"]


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

    report = evaluate_pairs(PairGrid("Jit", (winner,), (neutral,)), stats, default_table)
    assert report.per_quality["Jit"].correct == 1
    report = evaluate_pairs(PairGrid("Jit", (tied,), (neutral,)), stats, default_table)
    assert report.per_quality["Jit"].correct == 0  # tie is wrong


def test_swap_inverts_accuracy_minus_ties(default_table):
    rng = np.random.default_rng(1)
    stats = random_stats(rng)
    a = [{k: stats.mu[k] + rng.normal() * stats.sigma[k] for k in LLF_KEYS} for _ in range(10)]
    b = [{k: stats.mu[k] + rng.normal() * stats.sigma[k] for k in LLF_KEYS} for _ in range(10)]

    def side(prefix, vectors, label):
        return tuple(_sample(f"{prefix}{i}", label, v) for i, v in enumerate(vectors))

    grid = PairGrid("Brea", side("a", a, "Brea"), side("b", b, NEUTRAL_LABEL))
    swapped = PairGrid("Brea", side("b", b, "Brea"), side("a", a, NEUTRAL_LABEL))
    fwd = evaluate_pairs(grid, stats, default_table).per_quality["Brea"]
    rev = evaluate_pairs(swapped, stats, default_table).per_quality["Brea"]
    assert fwd.total_pairs == rev.total_pairs == 100
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
    samples = []
    for i in range(10):
        a = {k: stats.mu[k] + rng.normal() * stats.sigma[k] for k in LLF_KEYS}
        b = {k: stats.mu[k] + rng.normal() * stats.sigma[k] for k in LLF_KEYS}
        samples += [_sample(f"a{i}", "Rou", a), _sample(f"b{i}", NEUTRAL_LABEL, b)]
    grid = form_pairs(samples, "Rou")
    acc1 = evaluate_pairs(grid, stats, default_table).per_quality["Rou"]
    acc2 = evaluate_pairs(grid, scaled, default_table).per_quality["Rou"]
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
    grids = [form_pairs(samples, "Jit"), form_pairs(samples, "Shim")]

    # reference: score both sides of every pair with the dict loop
    totals, corrects, ties = {}, {}, 0
    for grid in grids:
        for pos in grid.positives:
            for neg in grid.negatives:
                s1, _ = loop_score(pos.llf, stats, default_table, grid.quality)
                s2, _ = loop_score(neg.llf, stats, default_table, grid.quality)
                totals[grid.quality] = totals.get(grid.quality, 0) + 1
                corrects[grid.quality] = corrects.get(grid.quality, 0) + (s1 > s2)
                ties += s1 == s2
    assert ties >= 1

    report = {q: (r.total_pairs, r.correct) for grid in grids
              for q, r in evaluate_pairs(grid, stats, default_table).per_quality.items()}
    assert report == {q: (totals[q], corrects[q]) for q in sorted(totals)}


# Integer features, integer means and power-of-two sigmas keep every score
# exact up to its final division by |A|, so the matrix path and the dict loop
# agree bit for bit, and distinct vectors often tie as well as duplicated ones.
_INT_VECTORS = st.lists(st.integers(-3, 3), min_size=len(LLF_KEYS), max_size=len(LLF_KEYS))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data(), quality=st.sampled_from(QUALITY_IDS),
       pool=st.lists(_INT_VECTORS, min_size=1, max_size=8),
       mu=_INT_VECTORS, sigma_exp=_INT_VECTORS)
def test_grid_count_matches_brute_force_strict_count(default_table, data, quality,
                                                     pool, mu, sigma_exp):
    stats = FeatureStats(mu={k: float(m) for k, m in zip(LLF_KEYS, mu)},
                         sigma={k: 2.0 ** (e % 4 - 2) for k, e in zip(LLF_KEYS, sigma_exp)})
    picks = st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=30)

    def side(prefix, label):
        return tuple(_sample(f"{prefix}{i:02d}", label, dict(zip(LLF_KEYS, map(float, pool[j]))))
                     for i, j in enumerate(data.draw(picks)))

    grid = PairGrid(quality, side("p", quality), side("n", NEUTRAL_LABEL))
    pos = [loop_score(s.llf, stats, default_table, quality)[0] for s in grid.positives]
    neg = [loop_score(s.llf, stats, default_table, quality)[0] for s in grid.negatives]
    expected = sum(p > n for p in pos for n in neg)

    result = evaluate_pairs(grid, stats, default_table).per_quality[quality]
    assert (result.total_pairs, result.correct) == (len(pos) * len(neg), expected)


def test_nan_score_wins_no_pair(default_table):
    # a huge feature value overflows z to inf even at the smallest sigma, and
    # a zero coefficient times inf makes the matrix score NaN; as under `>`,
    # a NaN side wins no pair
    stats = random_stats(np.random.default_rng(8))
    stats = FeatureStats(stats.mu, dict(stats.sigma, Loudness=MIN_SIGMA))
    quality = next(q for q in QUALITY_IDS if default_table.coefficient(q, "Loudness") == 0.0)
    far = _sample("far", quality, dict(stats.mu, Loudness=1e308))
    near = _sample("near", quality, dict(stats.mu))
    with np.errstate(over="ignore", invalid="ignore"):
        assert math.isnan(score_all(far.llf, stats, default_table).scores[quality])
        for pos, neg in ((far, near), (near, far)):
            grid = PairGrid(quality, (pos,), (neg, neg))
            assert evaluate_pairs(grid, stats, default_table).per_quality[quality].correct == 0


def test_large_grid_evaluates_in_bounded_memory(default_table):
    rng = np.random.default_rng(9)
    stats = random_stats(rng)
    rows = rng.normal(size=(4000, len(LLF_KEYS))).tolist()
    samples = [_sample(f"s{i:04d}", "Jit" if i < 2000 else NEUTRAL_LABEL,
                       dict(zip(LLF_KEYS, row))) for i, row in enumerate(rows)]
    grid = form_pairs(samples, "Jit")
    tracemalloc.start()
    try:
        result = evaluate_pairs(grid, stats, default_table).per_quality["Jit"]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.total_pairs == len(grid) == 4_000_000
    assert 0 < result.correct < result.total_pairs
    assert peak < 3e6, f"traced peak {peak / 1e6:.2f} MB"


def test_scoring_failure_names_the_sample():
    stats = random_stats(np.random.default_rng(4))
    partial = dict(stats.mu)
    del partial["HNRdBACF"]
    _sample("whole", "Brea", dict(stats.mu))
    with pytest.raises(ManifestError, match="partial.*HNRdBACF"):
        _sample("partial", NEUTRAL_LABEL, partial)


def test_a_sample_packs_its_row_once_when_made(default_table):
    rng = np.random.default_rng(5)
    stats = random_stats(rng)
    samples = [_sample(f"s{i}", "Jit" if i < 3 else NEUTRAL_LABEL,
                       dict(zip(LLF_KEYS, row)))
               for i, row in enumerate(rng.normal(size=(8, len(LLF_KEYS))).tolist())]
    rows = [llf_row(s.llf) for s in samples]
    copies = [_sample(s.source_id, s.dominant_quality, dict(s.llf)) for s in samples]
    for s in samples:  # an edit after the sample is made, before any read, is not seen
        s.llf.update(dict.fromkeys(LLF_KEYS, 0.0) if s.dominant_quality == "Jit"
                     else dict.fromkeys(LLF_KEYS, 1e6))
        del s.llf["HNRdBACF"]
    assert [s.row for s in samples] == rows
    assert (evaluate_pairs(form_pairs(samples, "Jit"), stats, default_table)
            == evaluate_pairs(form_pairs(copies, "Jit"), stats, default_table))


def test_report_mean_is_unweighted():
    report = PairwiseEvalReport({
        "Jit": QualityResult(10, 10),
        "Shim": QualityResult(100, 50),
    })
    assert report.mean_accuracy_percent == pytest.approx(75.0)
    text = format_report(report)
    assert "Jit" in text and "100.00" in text and "Average" in text


def test_load_manifest(tmp_path, capsys):
    for i in range(2):
        save_wav(generate_synthetic("clean", f0=130.0 + 10 * i, seed=i),
                 tmp_path / f"v{i}.wav")
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("v0.wav,Jit\nv1.wav,NEUTRAL-VOICE\n")
    rows = read_manifest(manifest)
    assert rows == [(str(tmp_path / "v0.wav"), "Jit"),
                    (str(tmp_path / "v1.wav"), NEUTRAL_LABEL)]
    # every row extracts: the stats cover both, with every LLF, none skipped
    stats_path = tmp_path / "stats.txt"
    assert main(["fit-stats", "--manifest", str(manifest), "--output", str(stats_path)]) == 0
    stats = load_stats(stats_path)
    assert stats.n_utterances == 2
    assert list(stats.mu) == list(LLF_KEYS)
    assert capsys.readouterr().err == ""


def test_manifest_unknown_label(tmp_path):
    save_wav(generate_synthetic("clean", seed=0), tmp_path / "v.wav")
    manifest = tmp_path / "m.csv"
    manifest.write_text("v.wav,Sparkly\n")
    with pytest.raises(ManifestError, match="Sparkly"):
        read_manifest(manifest)


def test_manifest_error_reports_the_file_line(tmp_path):
    (tmp_path / "a.wav").write_bytes(b"not audio")  # never loaded: rows are only parsed
    manifest = tmp_path / "m.csv"
    manifest.write_text("# c\n\na.wav,Jit\nb.wav,NOPE\n")
    with pytest.raises(ManifestError, match=r"m\.csv:4: unknown quality label 'NOPE'"):
        read_manifest(manifest)


def test_manifest_with_a_utf8_bom_reads_as_without(tmp_path):
    # spreadsheet "CSV UTF-8" exports start with a byte order mark
    (tmp_path / "a.wav").write_bytes(b"not audio")  # never loaded: rows are only parsed
    manifest = tmp_path / "m.csv"
    manifest.write_bytes("\ufeffa.wav,Jit\n".encode("utf-8"))
    assert read_manifest(manifest) == [(str(tmp_path / "a.wav"), "Jit")]


def test_manifest_missing_file(tmp_path):
    manifest = tmp_path / "m.csv"
    manifest.write_text("ghost.wav,Jit\n")
    with pytest.raises(ManifestError, match="ghost.wav"):
        read_manifest(manifest)


def test_manifest_skips_bad_rows_with_count(tmp_path, capsys):
    from scipy.io import wavfile
    for i in range(2):
        save_wav(generate_synthetic("clean", f0=130.0 + 10 * i, seed=i),
                 tmp_path / f"good{i}.wav")
    flat = tmp_path / "flat.wav"
    wavfile.write(flat, 16000, np.zeros(16000, dtype=np.int16))
    manifest = tmp_path / "m.csv"
    manifest.write_text("good0.wav,Jit\nflat.wav,NEUTRAL-VOICE\ngood1.wav,NEUTRAL-VOICE\n")
    stats_path = tmp_path / "stats.txt"
    assert main(["fit-stats", "--manifest", str(manifest), "--output", str(stats_path)]) == 0
    assert load_stats(stats_path).n_utterances == 2  # 3 rows, 1 skipped
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("warning: skipping ") and str(flat) in err[0]
