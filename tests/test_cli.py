import errno
import gc
import json
import mmap
import os
import warnings
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from scipy.io import wavfile

from voicequal import audio_io
from voicequal.audio_io import AudioSignal, load_audio, save_wav
from voicequal.cli import main
from voicequal.llf import LLF_KEYS, extract_llf_vector
from voicequal.quality import DEFAULT_TABLE_RESOURCE, QUALITY_IDS
from voicequal.stats import SCHEMA_VERSION, load_stats
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
    assert list(record) == ["source", *LLF_KEYS]


def test_extract_converts_a_44k_stereo_wav(tmp_path):
    # the library analyses 16 kHz only; the CLI loads through load_audio,
    # which resamples, so any WAV rate still extracts
    path, out = tmp_path / "stereo44k.wav", tmp_path / "llf.jsonl"
    _write_stereo_44k(path, 1.0)
    assert main(["extract", str(path), "--output", str(out)]) == 0
    record = json.loads(out.read_text())
    assert list(record)[1:] == list(LLF_KEYS)
    assert record == {"source": str(path), **extract_llf_vector(load_audio(path))}


@pytest.mark.parametrize("rate", [384_001, 4_294_967_291])
def test_extract_rejects_a_sample_rate_above_384k_with_exit_3(tmp_path, capsys, rate):
    # an 8-bit mono header can state any 32-bit rate; 4,294,967,291 Hz would
    # design a 640 GiB resampling filter for 20 ms of audio
    path = tmp_path / "fast.wav"
    wavfile.write(path, rate, (128 + 100 * np.sin(np.arange(320) / 3)).astype(np.uint8))
    assert main(["extract", str(path), "--output", str(tmp_path / "llf.jsonl")]) == 3
    reason = f"unsupported sample rate {rate} Hz: need at most 384000 Hz"
    assert f"error: {path}: {reason}" in capsys.readouterr().err


def _write_stereo_44k(path, duration, seed=3):
    x = generate_synthetic("clean", f0=130.0, duration=duration, seed=seed, sample_rate=44100).samples
    wavfile.write(path, 44100, np.round(np.stack([x, 0.8 * x], axis=1) * 32767).astype(np.int16))


def test_a_failed_audio_buffer_exits_3_and_keeps_the_earlier_lines(tmp_path, capsys, monkeypatch):
    good, bad, out = tmp_path / "good16k.wav", tmp_path / "bad44k.wav", tmp_path / "out.jsonl"
    save_wav(generate_synthetic("clean", f0=130.0, duration=1.0, seed=3), good)
    _write_stereo_44k(bad, 1.0)
    anonymous_map, opened = mmap.mmap, []

    def second_buffer_fails(fileno, *args, **kwargs):
        # memory runs out once the first file's buffer is mapped; scipy maps
        # each WAV file itself, which is left alone
        if fileno == -1:
            opened.append(fileno)
            if len(opened) == 2:
                raise OSError(errno.ENOMEM, os.strerror(errno.ENOMEM))
        return anonymous_map(fileno, *args, **kwargs)

    monkeypatch.setattr(audio_io.mmap, "mmap", second_buffer_fails)
    assert main(["extract", str(good), str(bad), "--output", str(out)]) == 3
    reason = os.strerror(errno.ENOMEM)
    assert f"error: {bad}: cannot buffer audio: {reason}" in capsys.readouterr().err
    assert len(opened) == 2
    assert [json.loads(line)["source"] for line in out.read_text().splitlines()] == [str(good)]


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


def test_fit_stats_writes_identical_bytes_run_to_run(corpus, tmp_path, capsys):
    first, second = tmp_path / "a.txt", tmp_path / "b.txt"
    for path in (first, second):
        assert main(["fit-stats", *corpus, "--output", str(path)]) == 0
    assert first.read_bytes() == second.read_bytes()


@pytest.mark.parametrize("target", ["missing/s.txt", "."], ids=["no-directory", "a-directory"])
def test_fit_stats_to_unwritable_path_exits_8(corpus, tmp_path, capsys, monkeypatch, target):
    path = tmp_path / target
    calls = _count_extractions(monkeypatch)
    assert main(["fit-stats", *corpus, "--output", str(path)]) == 8
    assert f"error: cannot write {path}: " in capsys.readouterr().err
    assert calls == []
    assert not (tmp_path / "missing").exists()


def test_fit_stats_keeps_an_existing_stats_file_when_a_file_fails(corpus, tmp_path, capsys):
    stats = tmp_path / "stats.txt"
    assert main(["fit-stats", *corpus, "--output", str(stats)]) == 0
    before = stats.read_bytes()
    noise = _noise_wav(tmp_path / "noise.wav")
    assert main(["fit-stats", corpus[0], noise, corpus[1], "--output", str(stats)]) == 4
    assert stats.read_bytes() == before


def test_evaluate_keeps_an_existing_report_when_no_labeled_sample_loads(corpus, tmp_path,
                                                                       capsys):
    manifest, report = tmp_path / "m.csv", tmp_path / "report.json"
    manifest.write_text("v0.wav,Jit\nv1.wav,NEUTRAL-VOICE\nv2.wav,NEUTRAL-VOICE\n")
    assert main(["evaluate", "--manifest", str(manifest), "--output", str(report)]) == 0
    before = report.read_bytes()
    wavfile.write(tmp_path / "silent.wav", 16000, np.zeros(16000, dtype=np.float32))
    manifest.write_text("silent.wav,Jit\nv1.wav,NEUTRAL-VOICE\nv2.wav,NEUTRAL-VOICE\n")
    assert main(["evaluate", "--manifest", str(manifest), "--output", str(report)]) == 7
    assert "no sample labeled with a quality" in capsys.readouterr().err
    assert report.read_bytes() == before


def test_fit_stats_write_that_fails_at_the_end_exits_8(corpus, tmp_path, capsys, monkeypatch):
    import voicequal.cli as cli
    # as if the path passed the check and could no longer be written at the end
    monkeypatch.setattr(cli, "_check_writable", lambda path: None)
    assert main(["fit-stats", *corpus, "--output", str(tmp_path)]) == 8
    assert f"error: cannot write {tmp_path}: " in capsys.readouterr().err


def test_main_leaves_no_cyclic_garbage(corpus, tmp_path):
    # garbage that only the cyclic collector frees is freed whenever it
    # runs, which shifts the traced peak of whatever runs next
    out = str(tmp_path / "llf.jsonl")
    main(["extract", corpus[0], "--output", out])
    gc.collect()
    gc.disable()
    try:
        main(["extract", corpus[0], "--output", out])
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_fit_stats_output_dash_writes_the_stats_to_stdout(corpus, tmp_path, capsysbinary, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["fit-stats", *corpus, "--output", "s.txt"]) == 0
    capsysbinary.readouterr()
    assert main(["fit-stats", *corpus, "--output", "-"]) == 0
    captured = capsysbinary.readouterr()
    assert captured.out == (tmp_path / "s.txt").read_bytes()
    assert captured.err == b"fitted stats over 3 utterances -> -\n"
    assert not (tmp_path / "-").exists()


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
    assert f"{stats_path}: " in captured.err
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


@pytest.mark.parametrize("label", ["clinic A\nsession 2", "a\rb", "x  y", " lead", "tab\tx"])
def test_a_corpus_label_of_any_text_reaches_score(corpus, tmp_path, capsys, label):
    stats = tmp_path / "s.txt"
    assert main(["fit-stats", *corpus, "--corpus-label", label, "--output", str(stats)]) == 0
    assert load_stats(stats).corpus == label
    assert main(["score", corpus[0], "--stats", str(stats)]) == 0


def test_synth_and_evaluate_manifest(tmp_path, capsys):
    suite_dir = tmp_path / "suite"
    assert main(["suite", "jittered", "--output-dir", str(suite_dir),
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
    for rate in (16000, 44100):  # read from the file, and resampled
        wavfile.write(bad, rate, np.zeros((3 * rate, 2), dtype=np.int16))
        assert main(["extract", str(bad)]) == 3
        assert capsys.readouterr().err.endswith(f"error: {bad}: silent input\n")


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


def test_too_short_message_never_reads_the_limit(tmp_path, capsys):
    # 4,799 samples at 16 kHz are 299.94 ms: shown rounded down, not up to
    # the 300 ms they fall short of
    vowel = generate_synthetic("clean", f0=150.0, duration=0.5, seed=0)
    path = tmp_path / "edge.wav"
    save_wav(AudioSignal(vowel.samples[:4799], 16000), path)
    assert main(["extract", str(path)]) == 3
    assert f"error: {path}: signal too short: 299 ms, need 300 ms" in capsys.readouterr().err
    save_wav(AudioSignal(vowel.samples[:4800], 16000), path)
    assert main(["extract", str(path)]) == 0


def _noise_wav(path):
    rng = np.random.default_rng(0)
    wavfile.write(path, 16000, (0.5 * rng.standard_normal(16000)).astype(np.float32))
    return str(path)


@pytest.mark.parametrize("command", ["extract", "score"])
def test_lines_written_before_a_failing_file_are_kept(corpus, tmp_path, capsys, command):
    stats = []
    if command == "score":
        stats = ["--stats", str(tmp_path / "stats.txt")]
        assert main(["fit-stats", *corpus, "--output", stats[1]]) == 0
    noise = _noise_wav(tmp_path / "noise.wav")
    alone, batch = tmp_path / "alone.jsonl", tmp_path / "batch.jsonl"
    assert main([command, corpus[0], *stats, "--output", str(alone)]) == 0
    assert main([command, corpus[0], noise, corpus[1], *stats, "--output", str(batch)]) == 4
    assert batch.read_bytes() == alone.read_bytes()
    assert f"error: {noise}: insufficient voicing" in capsys.readouterr().err


def _count_extractions(monkeypatch):
    import voicequal.cli as cli
    import voicequal.evaluation as evaluation
    calls = []
    for module, name in ((cli, "load_audio"), (evaluation, "extract_llf_vector")):
        real = getattr(module, name)
        monkeypatch.setattr(module, name,
                            lambda *a, real=real, name=name: calls.append(name) or real(*a))
    return calls


@pytest.mark.parametrize("argv", [
    ["extract", "{wav}"],
    ["score", "{wav}", "--stats", "{stats}"],
    ["evaluate", "--suite", "jittered"],
    ["evaluate", "--manifest", "{manifest}"],
], ids=["extract", "score", "evaluate-suite", "evaluate-manifest"])
def test_unwritable_output_exits_8_before_extraction(corpus, tmp_path, capsys, monkeypatch, argv):
    stats, manifest = tmp_path / "stats.txt", tmp_path / "m.csv"
    assert main(["fit-stats", *corpus, "--output", str(stats)]) == 0
    manifest.write_text("v0.wav,Jit\nv1.wav,NEUTRAL-VOICE\n")
    calls = _count_extractions(monkeypatch)
    target = tmp_path / "nodir" / "out.jsonl"
    argv = [a.format(wav=corpus[0], stats=stats, manifest=manifest) for a in argv]
    assert main([*argv, "--output", str(target)]) == 8
    assert f"error: cannot write {target}" in capsys.readouterr().err
    assert calls == []


@pytest.mark.parametrize("argv, parameter", [
    (["--kind", "jittered", "--jitter-pct", "nan"], "jitter_pct"),
    (["--kind", "jittered", "--jitter-pct", "100"], "jitter_pct"),
    (["--kind", "jittered", "--jitter-pct", "1e308"], "jitter_pct"),
    (["--kind", "shimmered", "--shimmer-db", "nan"], "shimmer_db"),
    (["--kind", "breathy", "--noise-ratio", "nan"], "noise_ratio"),
    (["--duration", "inf"], "duration"),
    (["--duration", "nan"], "duration"),
    (["--seed", "-5"], "seed"),
    (["--kind", "shimmered", "--shimmer-db", "1e308"], "shimmer_db"),
    (["--kind", "shimmered", "--shimmer-db", "7000"], "shimmer_db"),
    (["--duration", "1e300"], "duration"),
], ids=["jitter-nan", "jitter-100", "jitter-1e308", "shimmer-nan", "noise-nan", "duration-inf",
        "duration-nan", "seed-negative", "shimmer-1e308", "shimmer-7000", "duration-1e300"])
def test_bad_synth_parameters_exit_2_naming_the_parameter(tmp_path, capsys, argv, parameter):
    target = tmp_path / "v.wav"
    assert main(["synth", *argv, "--output", str(target)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {parameter} must be")
    assert not target.exists()


def test_synth_accepts_the_largest_shimmer_on_the_shortest_vowel(tmp_path):
    target = tmp_path / "v.wav"
    assert main(["synth", "--kind", "shimmered", "--shimmer-db", "40", "--duration", "0.5",
                 "--output", str(target)]) == 0
    assert len(load_audio(target).samples) == 8000


def test_a_bad_synth_suite_seed_writes_nothing(tmp_path, capsys):
    suite_dir = tmp_path / "suite"
    assert main(["suite", "jittered", "--output-dir", str(suite_dir),
                 "--seed", "-5"]) == 2
    assert "seed must be nonnegative, got -5" in capsys.readouterr().err
    assert not suite_dir.exists()
    # an earlier suite's manifest is left as it was
    assert main(["suite", "jittered", "--output-dir", str(suite_dir),
                 "--count", "1"]) == 0
    manifest = (suite_dir / "manifest.csv").read_bytes()
    assert main(["suite", "jittered", "--output-dir", str(suite_dir),
                 "--count", "1", "--seed", "-5"]) == 2
    assert (suite_dir / "manifest.csv").read_bytes() == manifest


def test_unwritable_synth_output_exits_8(tmp_path, capsys):
    target = tmp_path / "nodir" / "v.wav"
    assert main(["synth", "--output", str(target)]) == 8
    assert str(target) in capsys.readouterr().err
    a_file = tmp_path / "file"
    a_file.write_text("")
    assert main(["suite", "jittered", "--output-dir", str(a_file), "--count", "1"]) == 8
    assert str(a_file) in capsys.readouterr().err


def test_synth_takes_no_suite_and_suite_needs_an_output_dir(tmp_path, capsys, monkeypatch):
    # a suite is its own command, and a suite with no directory is a usage error
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["synth", "--suite", "jittered", "--output-dir", "d"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["suite", "jittered"])
    assert exc.value.code == 2
    assert "--output-dir" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("count", ["0", "-1"])
def test_synth_suite_count_below_1_exits_7(tmp_path, capsys, count):
    suite_dir = tmp_path / "suite"
    assert main(["suite", "jittered", "--output-dir", str(suite_dir),
                 "--count", count]) == 7
    assert f"--count must be at least 1, got {count}" in capsys.readouterr().err
    assert not suite_dir.exists()


def test_manifest_is_checked_in_full_before_any_audio_loads(corpus, tmp_path, capsys, monkeypatch):
    manifest = tmp_path / "m.csv"
    manifest.write_text("v0.wav,Jit\nv1.wav,NEUTRAL-VOICE\nv2.wav,Sparkly\n")
    calls = _count_extractions(monkeypatch)
    for argv in (["evaluate", "--manifest", str(manifest)],
                 ["fit-stats", "--manifest", str(manifest), "--output", str(tmp_path / "s.txt")]):
        assert main(argv) == 7
        assert f"{manifest}:3: unknown quality label 'Sparkly'" in capsys.readouterr().err
    assert calls == []


@pytest.mark.parametrize("command", ["evaluate", "fit-stats"])
def test_each_skipped_manifest_row_prints_one_line(corpus, tmp_path, capsys, caplog, command):
    bad = [_noise_wav(tmp_path / "noise.wav"), str(tmp_path / "junk.wav")]
    (tmp_path / "junk.wav").write_bytes(b"not audio")
    manifest = tmp_path / "m.csv"
    manifest.write_text("v0.wav,Jit\nnoise.wav,Jit\nv1.wav,NEUTRAL-VOICE\n"
                        "junk.wav,NEUTRAL-VOICE\nv2.wav,NEUTRAL-VOICE\n")
    output = ["--output", str(tmp_path / "s.txt")] if command == "fit-stats" else []
    assert main([command, "--manifest", str(manifest), *output]) == 0
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2
    for line, path in zip(err, bad):
        assert line.startswith("warning: skipping ") and line.count(path) == 1
    assert caplog.records == []


@pytest.mark.parametrize("argv,target", [
    (["extract", "{wav}"], "{wav}"),
    (["extract", "{dir}"], "{wav}"),
    (["score", "{wav}", "--stats", "{stats}"], "{wav}"),
    (["fit-stats", "{wav}", "{wav1}"], "{wav}"),
    (["fit-stats", "--manifest", "{manifest}"], "{manifest}"),
    (["evaluate", "--manifest", "{manifest}"], "{manifest}"),
    (["evaluate", "--manifest", "{manifest}"], "{wav}"),
    (["score", "{wav}", "--stats", "{stats}"], "{stats}"),
    (["score", "{wav}", "--stats", "{stats}", "--table", "{table}"], "{table}"),
    (["evaluate", "--manifest", "{manifest}", "--stats", "{stats}"], "{stats}"),
    (["evaluate", "--manifest", "{manifest}", "--table", "{table}"], "{table}"),
    (["evaluate", "--suite", "jittered", "--stats", "{stats}"], "{stats}"),
], ids=["extract", "extract-dir", "score", "fit-stats", "fit-stats-manifest",
        "evaluate-manifest", "evaluate-manifest-row", "score-stats", "score-table",
        "evaluate-stats", "evaluate-table", "evaluate-suite-stats"])
def test_output_that_is_an_input_exits_8_and_leaves_it_intact(corpus, tmp_path, capsys,
                                                              monkeypatch, argv, target):
    stats, manifest, table = tmp_path / "stats.txt", tmp_path / "m.csv", tmp_path / "table.txt"
    assert main(["fit-stats", *corpus, "--output", str(stats)]) == 0
    manifest.write_text("v0.wav,Jit\nv1.wav,NEUTRAL-VOICE\n")
    table.write_bytes((resources.files("voicequal.data") / DEFAULT_TABLE_RESOURCE).read_bytes())
    fields = {"wav": corpus[0], "wav1": corpus[1], "dir": tmp_path, "stats": stats,
              "manifest": manifest, "table": table}
    target = target.format(**fields)
    before = Path(target).read_bytes()
    calls = _count_extractions(monkeypatch)
    assert main([*(a.format(**fields) for a in argv), "--output", target]) == 8
    assert f"error: cannot write {target}: it is one of the inputs" in capsys.readouterr().err
    assert Path(target).read_bytes() == before
    assert calls == []


@pytest.mark.parametrize("argv", [
    ["evaluate", "--suite", "jittered", "--manifest", "{manifest}", "--output", "{manifest}"],
    ["fit-stats", "{wav}", "--manifest", "{manifest}", "--output", "{stats}"],
], ids=["evaluate", "fit-stats"])
def test_two_sample_sources_exit_2_before_anything_is_read(corpus, tmp_path, capsys,
                                                          monkeypatch, argv):
    manifest, stats = tmp_path / "m.csv", tmp_path / "s.txt"
    manifest.write_text("v0.wav,Jit\nv1.wav,NEUTRAL-VOICE\n")
    before = manifest.read_bytes()
    calls = _count_extractions(monkeypatch)
    with pytest.raises(SystemExit) as caught:
        main([a.format(wav=corpus[0], manifest=manifest, stats=stats) for a in argv])
    assert caught.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err
    assert manifest.read_bytes() == before
    assert not stats.exists()
    assert calls == []


def test_evaluate_reads_no_stats_from_the_environment(tmp_path, capsys, monkeypatch):
    stats, report = tmp_path / "stats.txt", tmp_path / "r.json"
    vowels = [str(tmp_path / f"s{i}.wav") for i in range(3)]
    for i, (path, shimmer_db) in enumerate(zip(vowels, (0.2, 2.0, 6.0))):
        save_wav(generate_synthetic("shimmered", shimmer_db=shimmer_db, seed=i), path)
    assert main(["fit-stats", *vowels, "--output", str(stats)]) == 0  # Jit ranks 39 % with it
    monkeypatch.delenv("VOICEQUAL_STATS", raising=False)
    reports = []
    for _ in range(2):
        assert main(["evaluate", "--suite", "jittered", "--output", str(report)]) == 0
        reports.append(report.read_bytes())
        monkeypatch.setenv("VOICEQUAL_STATS", str(stats))
    assert reports[0] == reports[1]


def test_extract_dir_collects_only_wavs_in_sorted_order(tmp_path, capsys):
    vowel = generate_synthetic("clean", f0=150.0, duration=0.5, seed=0)
    for name in ("b.wav", "a.wav", "C.WAV"):
        save_wav(vowel, tmp_path / name)
    (tmp_path / "notes.txt").write_text("not audio")
    (tmp_path / "a.wav.bak").write_bytes(b"not audio")
    assert main(["extract", str(tmp_path)]) == 0
    sources = [json.loads(line)["source"] for line in capsys.readouterr().out.splitlines()]
    assert sources == [str(tmp_path / name) for name in ("C.WAV", "a.wav", "b.wav")]


def test_a_directory_without_wavs_exits_3_before_any_extraction(corpus, tmp_path, capsys):
    # the directory comes after a good file, which must not be extracted
    # (no line printed) and no output file is made
    stats = tmp_path / "stats.txt"
    assert main(["fit-stats", *corpus, "--output", str(stats)]) == 0
    empty = tmp_path / "empty"
    empty.mkdir()
    (empty / "notes.txt").write_text("not audio")
    capsys.readouterr()
    for command in (["extract"], ["score", "--stats", str(stats)], ["fit-stats"]):
        out = tmp_path / "out.txt"
        assert main([*command, corpus[0], str(empty), "--output", str(out)]) == 3, command
        captured = capsys.readouterr()
        assert f"{empty}: no .wav file in the directory" in captured.err, command
        assert captured.out == "" and not out.exists(), command
        assert main([*command, str(empty), "--output", str(out)]) == 3, command
        assert not out.exists(), command


def test_evaluate_manifest_warnings_lead_with_the_row_path(corpus, tmp_path, capsys):
    bad = [str(tmp_path / name) for name in ("junk.wav", "noise.wav", "flat.wav")]
    (tmp_path / "junk.wav").write_bytes(b"not audio")
    _noise_wav(tmp_path / "noise.wav")
    wavfile.write(tmp_path / "flat.wav", 16000, np.zeros(8000, dtype=np.int16))
    manifest = tmp_path / "m.csv"
    manifest.write_text("v0.wav,Jit\njunk.wav,Jit\nv1.wav,NEUTRAL-VOICE\n"
                        "noise.wav,NEUTRAL-VOICE\nflat.wav,Jit\nv2.wav,NEUTRAL-VOICE\n")
    assert main(["evaluate", "--manifest", str(manifest)]) == 0
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 3
    for line, path, reason in zip(err, bad, ("cannot read", "insufficient voicing",
                                             "silent input")):
        assert line.startswith(f"warning: skipping {path}: {reason}")
        assert line.count(path) == 1


def _table(header=QUALITY_IDS, rows=LLF_KEYS):
    """Correlation table text: a header, then one all-SP row per key."""
    return f"qualities {' '.join(header)}\n" + "".join(
        f"{key}{' SP' * len(header)}\n" for key in rows)


@pytest.mark.parametrize("text, line, reason", [
    (_table(("Jit", "Sparkle", *QUALITY_IDS[1:])), 1, "unknown quality ids ['Sparkle']"),
    (_table((*QUALITY_IDS, "Jit")), 1, "duplicate quality column"),
    ("Loudness SP\n" + _table(), 1, "feature row before qualities header"),
    (_table(rows=("Loudness", "Sparkle")), 3, "unknown feature key 'Sparkle'"),
    (_table(rows=()) + "Loudness" + " SP" * 23 + "\n", 2, "row 'Loudness' has 23 cells, expected 24"),
    ("version v9\n", None, "missing qualities header"),
    (_table(QUALITY_IDS[:-1]), None, f"missing quality columns ['{QUALITY_IDS[-1]}']"),
    (_table(QUALITY_IDS[:-1], LLF_KEYS[:1]) + _table(rows=LLF_KEYS[1:]), 3,
     "duplicate qualities header"),
], ids=["unknown-quality", "duplicate-quality", "row-before-header", "unknown-feature",
        "cell-count", "missing-header", "missing-quality", "second-header"])
def test_malformed_table_exits_6_naming_file_and_line(tmp_path, capsys, text, line, reason):
    table = tmp_path / "table.txt"
    table.write_text(text)
    assert main(["evaluate", "--suite", "jittered", "--table", str(table)]) == 6
    where = f"{table}:{line}" if line else str(table)
    assert f"error: {where}: {reason}" in capsys.readouterr().err


@pytest.mark.parametrize("bad_line, reason", [
    ("stat Sparkle 0 1", "unknown feature key 'Sparkle'"),
    ("stat Loudness 2 3", "duplicate key 'Loudness'"),
    ("stat mfcc1 0 one", "malformed number for 'mfcc1'"),
], ids=["unknown-key", "duplicate-key", "malformed-number"])
def test_malformed_stats_exits_5_naming_file_and_line(tmp_path, capsys, bad_line, reason):
    stats = tmp_path / "stats.txt"
    stats.write_text(f"schema-version {SCHEMA_VERSION}\nstat Loudness 0 1\n{bad_line}\n")
    assert main(["score", "unused.wav", "--stats", str(stats)]) == 5
    assert f"error: {stats}:3: {reason}" in capsys.readouterr().err


@pytest.mark.parametrize("row", ["v1.wav", "v1.wav,NEUTRAL-VOICE,extra"],
                         ids=["one-field", "three-fields"])
def test_malformed_manifest_row_exits_7_naming_file_and_line(corpus, tmp_path, capsys, row):
    manifest = tmp_path / "m.csv"
    manifest.write_text(f"v0.wav,Jit\n{row}\n")
    assert main(["evaluate", "--manifest", str(manifest)]) == 7
    assert f"error: {manifest}:2: expected 'path,label'" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["evaluate", "fit-stats"])
def test_manifest_field_over_the_csv_limit_exits_7(corpus, tmp_path, capsys, command):
    manifest = tmp_path / "m.csv"
    manifest.write_text(f"v0.wav,Jit\n{'v' * 200_000}.wav,NEUTRAL-VOICE\n")
    output = ["--output", str(tmp_path / "s.txt")] if command == "fit-stats" else []
    assert main([command, "--manifest", str(manifest), *output]) == 7
    assert f"error: cannot read manifest {manifest}: field larger" in capsys.readouterr().err


def _traced_peak(fn, *args):
    import tracemalloc
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("case", ["nan-in-last-chunk", "all-zero"])
def test_wav_failures_are_found_at_open_without_holding_the_file(tmp_path, capsys, case):
    x = np.zeros(30 * 16000, dtype=np.float32)
    if case == "nan-in-last-chunk":
        x[:] = 0.5 * np.sin(2 * np.pi * 150 * np.arange(len(x)) / 16000)
        x[-5] = np.nan
    path = tmp_path / "bad.wav"
    wavfile.write(path, 16000, x)
    rc, peak = _traced_peak(main, ["extract", str(path)])
    assert rc == 3
    reason = "non-finite samples" if case == "nan-in-last-chunk" else "silent input"
    assert f"error: {path}: {reason}" in capsys.readouterr().err
    # checked chunk by chunk from the mapped file, never read or decoded whole
    assert peak < 0.5 * x.nbytes


def test_extract_memory_does_not_grow_with_a_16k_wav(tmp_path):
    # a 16 kHz WAV is read from the file by range: from 10 s to 60 s, the
    # traced peak grows only by the per-frame and per-period results, at
    # most 10 kB per second of audio
    peaks = {}
    for duration in (10.0, 60.0):
        path = tmp_path / f"v{duration:.0f}.wav"
        save_wav(generate_synthetic("clean", f0=130.0, duration=duration, seed=4), path)
        argv = ["extract", str(path), "--output", str(tmp_path / "out.jsonl")]
        main(argv)  # warm-up
        rc, peaks[duration] = _traced_peak(main, argv)
        assert rc == 0
    assert peaks[60.0] - peaks[10.0] <= 50 * 10_000, peaks


def test_extract_of_a_10s_16k_wav_stays_below_half_a_megabyte(tmp_path):
    # each block stage transforms a part of its block at a time, into
    # buffers it owns, and the voiced-frame pass gathers half a block at a
    # time: a 10 s file peaks near 0.46 MB traced, where whole-block
    # transforms held 0.68 MB
    path = tmp_path / "v10.wav"
    save_wav(generate_synthetic("clean", f0=130.0, duration=10.0, seed=4), path)
    argv = ["extract", str(path), "--output", str(tmp_path / "out.jsonl")]
    main(argv)  # warm-up
    rc, peak = _traced_peak(main, argv)
    assert rc == 0
    assert peak <= 0.52e6


def test_extract_memory_does_not_grow_with_a_44k_wav(tmp_path):
    # a resampled WAV is buffered in a mapped temporary file, which is read
    # by range as a 16 kHz WAV is: from 10 s to 60 s, the traced peak grows
    # only by the per-frame and per-period results, at most 10 kB per second
    # of audio
    peaks = {}
    for duration in (10.0, 60.0):
        path = tmp_path / f"v{duration:.0f}.wav"
        _write_stereo_44k(path, duration, seed=4)
        argv = ["extract", str(path), "--output", str(tmp_path / "out.jsonl")]
        main(argv)  # warm-up
        rc, peaks[duration] = _traced_peak(main, argv)
        assert rc == 0
    assert peaks[60.0] - peaks[10.0] <= 50 * 10_000, peaks
