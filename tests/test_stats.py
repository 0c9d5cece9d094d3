import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from voicequal.errors import StatsError
from voicequal.llf import LLF_KEYS
from voicequal.stats import MIN_SIGMA, FeatureStats, fit_stats, load_stats, save_stats

from conftest import random_llf


def _constant_vector(value):
    return {k: value for k in LLF_KEYS}


def _varied_vectors(rng, n):
    return [random_llf(rng) for _ in range(n)]


def test_two_vector_hand_example():
    stats = fit_stats([_constant_vector(1.0), _constant_vector(3.0)])
    assert stats.mu["Loudness"] == pytest.approx(2.0)
    assert stats.sigma["Loudness"] == pytest.approx(1.4142, abs=1e-4)


def test_matches_two_pass_oracle():
    rng = np.random.default_rng(0)
    vectors = _varied_vectors(rng, 1000)
    stats = fit_stats(vectors)
    for key in LLF_KEYS:
        xs = [v[key] for v in vectors]
        mean = sum(xs) / len(xs)
        var = sum((x - mean) ** 2 for x in xs) / (len(xs) - 1)
        assert stats.mu[key] == pytest.approx(mean, abs=1e-9)
        assert stats.sigma[key] == pytest.approx(var ** 0.5, abs=1e-9)


def test_fewer_than_two_rejected():
    with pytest.raises(StatsError, match="fewer than 2"):
        fit_stats([_constant_vector(1.0)])


def test_vector_missing_a_key_is_named_with_the_stats_code():
    vectors = _varied_vectors(np.random.default_rng(3), 3)
    del vectors[2]["jitterLocal"], vectors[1]["mfcc3"]
    with pytest.raises(StatsError, match=r"^vector 1 missing key 'mfcc3'$") as caught:
        fit_stats(vectors)
    assert caught.value.exit_code == 5


def test_degenerate_feature_rejected():
    with pytest.raises(StatsError, match="degenerate"):
        fit_stats([_constant_vector(1.0)] * 5)


def test_permutation_invariant():
    rng = np.random.default_rng(1)
    vectors = _varied_vectors(rng, 50)
    a = fit_stats(vectors)
    b = fit_stats(list(reversed(vectors)))
    for key in a.mu:
        assert a.mu[key] == pytest.approx(b.mu[key], rel=1e-12, abs=1e-12)
        assert a.sigma[key] == pytest.approx(b.sigma[key], rel=1e-12, abs=1e-12)


def test_scaling_covariance():
    rng = np.random.default_rng(2)
    vectors = _varied_vectors(rng, 20)
    scaled = [{k: -3.0 * v for k, v in vec.items()} for vec in vectors]
    a, b = fit_stats(vectors), fit_stats(scaled)
    for key in LLF_KEYS:
        assert b.mu[key] == pytest.approx(-3.0 * a.mu[key], rel=1e-12)
        assert b.sigma[key] == pytest.approx(3.0 * a.sigma[key], rel=1e-12)


def test_save_load_round_trip_exact(tmp_path):
    rng = np.random.default_rng(3)
    stats = fit_stats(_varied_vectors(rng, 30), corpus="unit test corpus")
    path = tmp_path / "stats.txt"
    save_stats(stats, path)
    loaded = load_stats(path)
    assert loaded.mu == stats.mu
    assert loaded.sigma == stats.sigma
    assert loaded.corpus == stats.corpus
    assert loaded.n_utterances == stats.n_utterances


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(corpus=st.text(), mu=st.lists(_FINITE, min_size=len(LLF_KEYS), max_size=len(LLF_KEYS)),
       sigma=st.lists(st.floats(MIN_SIGMA, allow_infinity=False),
                      min_size=len(LLF_KEYS), max_size=len(LLF_KEYS)))
@example(corpus="clinic A\nsession 2", mu=[0.0] * len(LLF_KEYS), sigma=[1.0] * len(LLF_KEYS))
@example(corpus="a\rb \ud800", mu=[0.0] * len(LLF_KEYS), sigma=[1.0] * len(LLF_KEYS))
def test_any_corpus_label_and_finite_stats_survive_a_round_trip(tmp_path_factory, corpus, mu,
                                                                sigma):
    stats = FeatureStats(dict(zip(LLF_KEYS, mu)), dict(zip(LLF_KEYS, sigma)), corpus, 7)
    path = tmp_path_factory.mktemp("stats") / "stats.txt"
    save_stats(stats, path)
    loaded = load_stats(path)
    assert (loaded.mu, loaded.sigma, loaded.corpus, loaded.n_utterances) == (
        stats.mu, stats.sigma, corpus, 7)


@pytest.mark.parametrize("corpus", ["", "clinic", "clinic A session 2", "Zürich #2 -- x"])
def test_a_label_of_single_spaced_words_is_written_as_it_is(tmp_path, corpus):
    # the line older versions wrote, which they also read back
    stats = fit_stats(_varied_vectors(np.random.default_rng(3), 5), corpus=corpus)
    path = tmp_path / "stats.txt"
    save_stats(stats, path)
    assert path.read_bytes().split(b"\n")[2] == f"corpus {corpus}".encode()
    assert load_stats(path).corpus == corpus


@pytest.mark.parametrize("line", ["corpus-json", "corpus-json clinic", "corpus-json 3",
                                  'corpus-json "a" "b"'])
def test_a_malformed_corpus_json_line_is_named(tmp_path, line):
    stats = fit_stats(_varied_vectors(np.random.default_rng(3), 5), corpus="x")
    path = tmp_path / "stats.txt"
    save_stats(stats, path)
    path.write_text(path.read_text().replace("corpus x\n", line + "\n"))
    with pytest.raises(StatsError, match=r"stats\.txt:3: corpus-json needs one JSON string"):
        load_stats(path)


def test_stats_file_with_a_created_line_loads(tmp_path):
    # files from versions that stamped the fitting time still load
    stats = fit_stats(_varied_vectors(np.random.default_rng(3), 5), corpus="old")
    path = tmp_path / "stats.txt"
    save_stats(stats, path)
    assert "created" not in path.read_text()
    lines = path.read_text().splitlines()
    lines.insert(4, "created 2024-01-01T00:00:00+00:00")
    path.write_text("\n".join(lines) + "\n")
    loaded = load_stats(path)
    assert (loaded.mu, loaded.sigma, loaded.corpus) == (stats.mu, stats.sigma, "old")
    assert loaded.n_utterances == 5


def test_load_missing_key_named(tmp_path):
    rng = np.random.default_rng(4)
    stats = fit_stats(_varied_vectors(rng, 5))
    path = tmp_path / "stats.txt"
    save_stats(stats, path)
    text = path.read_text()
    path.write_text("\n".join(
        line for line in text.splitlines() if "HNRdBACF" not in line) + "\n")
    with pytest.raises(StatsError, match="HNRdBACF"):
        load_stats(path)


def test_load_nonpositive_sigma_rejected(tmp_path):
    # so is any sigma below the floor fit_stats enforces: a denormal one
    # overflows z-scores to inf, which scoring turns into NaN
    rng = np.random.default_rng(5)
    stats = fit_stats(_varied_vectors(rng, 5))
    path = tmp_path / "stats.txt"
    save_stats(stats, path)
    original = path.read_text()
    for sigma in ("0.0", "5e-324", "1e-300", "9.99e-10", repr(MIN_SIGMA)):
        path.write_text(original.replace(
            f"stat Loudness {stats.mu['Loudness']!r} {stats.sigma['Loudness']!r}",
            f"stat Loudness {stats.mu['Loudness']!r} {sigma}"))
        if float(sigma) == MIN_SIGMA:
            assert load_stats(path).sigma["Loudness"] == MIN_SIGMA
        else:
            with pytest.raises(StatsError, match=r"sigma below 1e-09 for: \['Loudness'\]"):
                load_stats(path)


def test_load_malformed_file(tmp_path):
    path = tmp_path / "garbage.txt"
    path.write_text("not a stats file\n")
    with pytest.raises(StatsError):
        load_stats(path)


def test_constructor_validates_keys():
    with pytest.raises(StatsError, match="missing"):
        FeatureStats(mu={}, sigma={})


@pytest.mark.parametrize("bad_line", [
    "utterances abc",
    "utterances",
    "utterances -3",
    "utterances 4 5",
    "created 2024-01-01 extra",
    "schema-version",
    "stat Loudness 1.0",
    "stat Loudness nan 1.0",
])
def test_malformed_directive_exits_with_stats_code(tmp_path, capsys, bad_line):
    from voicequal.audio_io import save_wav
    from voicequal.cli import main
    from voicequal.synth import generate_synthetic

    rng = np.random.default_rng(6)
    path = tmp_path / "stats.txt"
    save_stats(fit_stats(_varied_vectors(rng, 5)), path)
    directive = bad_line.split()[0]
    lines = path.read_text().splitlines()
    # replace the first line of the same directive (for stat: the Loudness
    # line); a directive save_stats no longer writes (created) goes in
    # before the first stat line
    target = next((n for n, line in enumerate(lines) if line.startswith(directive)
                   and (directive != "stat" or "Loudness" in line)), None)
    if target is None:
        target = next(n for n, line in enumerate(lines) if line.startswith("stat "))
        lines.insert(target, bad_line)
    else:
        lines[target] = bad_line
    path.write_text("\n".join(lines) + "\n")

    with pytest.raises(StatsError, match=rf"stats\.txt:{target + 1}:"):
        load_stats(path)
    wav = tmp_path / "v.wav"
    save_wav(generate_synthetic("clean", f0=140.0, seed=0), wav)
    assert main(["score", str(wav), "--stats", str(path)]) == 5
    assert f"stats.txt:{target + 1}" in capsys.readouterr().err
