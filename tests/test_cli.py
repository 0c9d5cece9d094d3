import json
import warnings

import numpy as np
import pytest
from scipy.io import wavfile

from voicequal.audio_io import AudioSignal, save_wav
from voicequal.cli import main
from voicequal.llf import LLF_KEYS
from voicequal.quality import QUALITY_IDS
from voicequal.stats import load_stats
from voicequal.synth import generate_synthetic


@pytest.fixture()
def corpus(tmp_path):
    paths = []
    for i in range(3):
        path = tmp_path / f"v{i}.wav"
        save_wav(generate_synthetic("clean", f0=130.0 + 8 * i, seed=i), path)
        paths.append(str(path))
    return paths


def test_extract_records(corpus, tmp_path, capsys):
    out = tmp_path / "llf.jsonl"
    assert main(["extract", *corpus, "--output", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 3
    record = json.loads(lines[0])
    assert record["source"] == corpus[0]
    assert list(record)[1:] == list(LLF_KEYS)


def test_fit_stats_then_score(corpus, tmp_path, capsys):
    stats_path = tmp_path / "stats.txt"
    assert main(["fit-stats", *corpus, "--output", str(stats_path),
                 "--corpus-label", "cli test"]) == 0
    stats = load_stats(stats_path)
    assert stats.n_utterances == 3

    scores_path = tmp_path / "scores.jsonl"
    assert main(["score", corpus[0], "--stats", str(stats_path),
                 "--output", str(scores_path), "--with-contributions"]) == 0
    record = json.loads(scores_path.read_text().splitlines()[0])
    assert set(record["scores"]) == set(QUALITY_IDS)
    assert "z_contributions" in record


def test_fit_stats_single_file_errors(corpus, tmp_path, capsys):
    code = main(["fit-stats", corpus[0], "--output", str(tmp_path / "s.txt")])
    assert code == 5
    assert "fewer than 2" in capsys.readouterr().err


def test_score_with_denormal_sigma_exits_5(corpus, tmp_path, capsys):
    # a denormal sigma would overflow z-scores and write NaN scores as JSON
    stats_path = tmp_path / "stats.txt"
    assert main(["fit-stats", *corpus, "--output", str(stats_path)]) == 0
    lines = stats_path.read_text().splitlines()
    stats_path.write_text("\n".join(
        " ".join(line.split()[:3] + ["5e-324"]) if line.startswith("stat Loudness ") else line
        for line in lines) + "\n")
    scores_path = tmp_path / "scores.jsonl"
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["score", corpus[0], "--stats", str(stats_path),
                     "--output", str(scores_path)])
    assert code == 5
    captured = capsys.readouterr()
    assert "Loudness" in captured.err and not captured.out
    assert not scores_path.exists()


def test_score_without_stats_errors(corpus, capsys, monkeypatch):
    monkeypatch.delenv("VOICEQUAL_STATS", raising=False)
    assert main(["score", corpus[0]]) == 5


def test_stats_env_var(corpus, tmp_path, monkeypatch, capsys):
    stats_path = tmp_path / "stats.txt"
    main(["fit-stats", *corpus, "--output", str(stats_path)])
    monkeypatch.setenv("VOICEQUAL_STATS", str(stats_path))
    assert main(["score", corpus[0], "--output", str(tmp_path / "s.jsonl")]) == 0


def test_extract_determinism(corpus, tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    main(["extract", *corpus, "--output", str(a)])
    main(["extract", *corpus, "--output", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_score_matches_manual_recomputation(corpus, tmp_path):
    from voicequal.quality import load_table, score_all
    stats_path = tmp_path / "stats.txt"
    main(["fit-stats", *corpus, "--output", str(stats_path)])
    llf_path = tmp_path / "llf.jsonl"
    main(["extract", corpus[1], "--output", str(llf_path)])
    scores_path = tmp_path / "scores.jsonl"
    main(["score", corpus[1], "--stats", str(stats_path),
          "--output", str(scores_path)])

    llf_record = json.loads(llf_path.read_text())
    vector = {k: llf_record[k] for k in LLF_KEYS}
    expected = score_all(vector, load_stats(stats_path), load_table()).scores
    got = json.loads(scores_path.read_text())["scores"]
    for quality in QUALITY_IDS:
        assert abs(got[quality] - expected[quality]) < 1e-9


def test_synth_and_evaluate_manifest(tmp_path, capsys):
    suite_dir = tmp_path / "suite"
    assert main(["synth", "--suite", "jittered", "--output-dir", str(suite_dir),
                 "--count", "4", "--seed", "11"]) == 0
    manifest = suite_dir / "manifest.csv"
    assert manifest.exists()
    capsys.readouterr()

    report_path = tmp_path / "report.json"
    assert main(["evaluate", "--manifest", str(manifest),
                 "--output", str(report_path)]) == 0
    out = capsys.readouterr().out
    assert "Jit" in out
    report = json.loads(report_path.read_text())
    assert report["per_quality"]["Jit"]["total_pairs"] == 16


def test_evaluate_builtin_suite(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    assert main(["evaluate", "--suite", "jittered",
                 "--output", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    assert report["per_quality"]["Jit"]["accuracy_percent"] == 100.0


def test_synth_single_file(tmp_path, capsys):
    out = tmp_path / "v.wav"
    assert main(["synth", "--kind", "breathy", "--f0", "140",
                 "--output", str(out)]) == 0
    assert out.exists()


def test_audio_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.wav"
    bad.write_bytes(b"nope")
    assert main(["extract", str(bad)]) == 3
    wavfile.write(bad, 0, np.ones(32, dtype=np.int16))
    assert main(["extract", str(bad)]) == 3


@pytest.mark.parametrize("argv, exit_code", [
    (["evaluate", "--suite", "jittered", "--table", "{bad}"], 6),
    (["score", "unused.wav", "--stats", "{bad}"], 5),
    (["evaluate", "--manifest", "{bad}"], 7),
], ids=["table", "stats", "manifest"])
def test_non_utf8_input_exit_code(tmp_path, capsys, argv, exit_code):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\xff\xfe not utf-8\n")
    assert main([a.format(bad=bad) for a in argv]) == exit_code
    assert str(bad) in capsys.readouterr().err


def test_table_with_inactive_quality_exits_6(tmp_path, capsys):
    table = tmp_path / "table.txt"
    rows = [key + " " + " ".join("-" if q == "Jit" else "SP" for q in QUALITY_IDS)
            for key in LLF_KEYS]
    table.write_text("qualities " + " ".join(QUALITY_IDS) + "\n" + "\n".join(rows) + "\n")
    assert main(["evaluate", "--suite", "jittered", "--table", str(table)]) == 6
    err = capsys.readouterr().err
    assert "Jit" in err
    assert str(table) in err


def test_manifest_directory_row_exits_7(corpus, tmp_path, capsys):
    (tmp_path / "dir.wav").mkdir()
    manifest = tmp_path / "m.csv"
    manifest.write_text("v0.wav,Jit\nv1.wav,NEUTRAL-VOICE\n"
                        "v2.wav,NEUTRAL-VOICE\ndir.wav,NEUTRAL-VOICE\n")
    assert main(["evaluate", "--manifest", str(manifest)]) == 7
    err = capsys.readouterr().err
    assert f"{manifest}:4:" in err and "dir.wav" in err


def test_manifest_without_quality_labels_exits_7(corpus, tmp_path, capsys):
    manifest = tmp_path / "m.csv"
    manifest.write_text("".join(f"v{i}.wav,NEUTRAL-VOICE\n" for i in range(3)))
    assert main(["evaluate", "--manifest", str(manifest)]) == 7
    assert str(manifest) in capsys.readouterr().err


def test_evaluate_needs_input(capsys):
    assert main(["evaluate"]) == 7


@pytest.mark.parametrize("rate", [16000, 44100])
@pytest.mark.parametrize("bad_value", [np.nan, np.inf], ids=["nan", "inf"])
def test_non_finite_wav_exits_3_with_its_path(tmp_path, capsys, rate, bad_value):
    x = np.full(rate // 2, 0.1, dtype=np.float32)
    x[100] = bad_value
    path = tmp_path / "bad.wav"
    wavfile.write(path, rate, x)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["extract", str(path)]) == 3
    err = capsys.readouterr().err
    assert "non-finite samples" in err
    assert str(path) in err


@pytest.mark.parametrize("command", ["extract", "fit-stats"])
def test_extraction_errors_name_their_file(tmp_path, capsys, command):
    stats = ["--output", str(tmp_path / "stats.txt")] if command == "fit-stats" else []
    rng = np.random.default_rng(0)
    noise = tmp_path / "noise.wav"
    wavfile.write(noise, 16000, (0.5 * rng.standard_normal(16000)).astype(np.float32))
    short = tmp_path / "short.wav"
    vowel = generate_synthetic("clean", f0=150.0, duration=0.5, seed=0)
    save_wav(AudioSignal(vowel.samples[:3008], 16000), short)  # 188 ms
    for path, exit_code, message in ((noise, 4, "insufficient voicing"),
                                     (short, 3, "signal too short: 188 ms")):
        assert main([command, str(path), *stats]) == exit_code
        err = capsys.readouterr().err
        assert f"error: {path}: {message}" in err
        assert err.count(str(path)) == 1
