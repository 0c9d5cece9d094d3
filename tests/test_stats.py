import numpy as np
import pytest

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
    # replace the first line of the same directive (for stat: the Loudness line)
    target = next(n for n, line in enumerate(lines)
                  if line.startswith(directive) and (directive != "stat" or "Loudness" in line))
    lines[target] = bad_line
    path.write_text("\n".join(lines) + "\n")

    with pytest.raises(StatsError, match=rf"stats\.txt:{target + 1}:"):
        load_stats(path)
    wav = tmp_path / "v.wav"
    save_wav(generate_synthetic("clean", f0=140.0, seed=0), wav)
    assert main(["score", str(wav), "--stats", str(path)]) == 5
    assert f"stats.txt:{target + 1}" in capsys.readouterr().err
