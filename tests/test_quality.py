import numpy as np
import pytest

from voicequal.errors import TableError
from voicequal.llf import LLF_KEYS
from voicequal.quality import (
    QUALITY_IDS,
    CorrelationCategory,
    CorrelationTable,
    effective_coefficient,
    load_table,
    score_all,
    score_quality,
    scores_from_z,
)
from voicequal.stats import FeatureStats

from conftest import loop_score, random_llf, random_stats

PALETTE = {
    CorrelationCategory.SP: 1.0,
    CorrelationCategory.P: 0.75,
    CorrelationCategory.WP: 0.25,
    CorrelationCategory.NEUTRAL: 0.0,
    CorrelationCategory.IC: 0.0,
    CorrelationCategory.WN: -0.25,
    CorrelationCategory.N: -0.75,
    CorrelationCategory.SN: -1.0,
}

# reference coefficient expansion for the breathiness formula: 21 active
# features (the four inconclusive MFCCs drop out), signed weight each
BREATHINESS_COEFFICIENTS = {
    "Loudness": -0.25,
    "alphaRatio": -0.75,
    "hammarbergIndex": -1.0,
    "slope0-500": -0.75,
    "slope500-1500": -0.75,
    "spectralFlux": 1.0,
    "F0semitoneFrom27.5Hz": -0.25,
    "jitterLocal": 0.75,
    "shimmerLocaldB": 0.75,
    "HNRdBACF": -0.75,
    "logRelF0-H1-H2": -0.75,
    "logRelF0-H1-A3": -0.75,
    "F1frequency": 1.0,
    "F1bandwidth": 0.75,
    "F1amplitudeLogRelF0": -0.75,
    "F2frequency": -1.0,
    "F2bandwidth": 1.0,
    "F2amplitudeLogRelF0": -0.75,
    "F3frequency": -1.0,
    "F3bandwidth": 0.75,
    "F3amplitudeLogRelF0": -1.0,
}


def test_effective_coefficients_match_palette():
    for category, coefficient in PALETTE.items():
        assert effective_coefficient(category) == coefficient


def test_default_table_complete(default_table):
    assert len(default_table.entries) == 600
    for quality in QUALITY_IDS:
        for key in LLF_KEYS:
            assert (quality, key) in default_table.entries


def test_default_table_known_cells(default_table):
    assert default_table.category("Brea", "spectralFlux") == CorrelationCategory.SP
    assert default_table.category("Jit", "jitterLocal") == CorrelationCategory.SP
    assert default_table.category("Shim", "shimmerLocaldB") == CorrelationCategory.SP
    assert default_table.category("Lou", "Loudness") == CorrelationCategory.SP
    assert default_table.category("Res", "alphaRatio") == CorrelationCategory.NEUTRAL


def test_breathiness_expansion(default_table):
    active = default_table.active_features("Brea")
    assert len(active) == 21
    assert set(active) == set(BREATHINESS_COEFFICIENTS)
    for key, coefficient in BREATHINESS_COEFFICIENTS.items():
        assert default_table.coefficient("Brea", key) == coefficient, key


def test_every_quality_has_active_features(default_table):
    for quality in QUALITY_IDS:
        assert default_table.active_features(quality)


def test_coefficients_are_each_cells_palette_value(tmp_path, default_table):
    # rows QUALITY_IDS and columns LLF_KEYS, whatever the order of the file's
    # header and rows, and for a table built from its entries alone
    want = np.array([[PALETTE[default_table.category(q, k)] for k in LLF_KEYS]
                     for q in QUALITY_IDS])
    assert default_table.coefficients.dtype == want.dtype
    assert np.array_equal(default_table.coefficients, want)
    assert np.array_equal(CorrelationTable(default_table.entries).coefficients, want)
    path = tmp_path / "table.txt"
    qualities = QUALITY_IDS[::-1]
    path.write_text("qualities " + " ".join(qualities) + "\n" + "".join(
        key + " " + " ".join(default_table.category(q, key).value for q in qualities) + "\n"
        for key in LLF_KEYS[::-1]))
    assert np.array_equal(load_table(str(path)).coefficients, want)


def test_bad_cell_code_named(tmp_path, default_table):
    path = tmp_path / "table.txt"
    for column in (0, 17):
        codes = ["-"] * 24
        codes[column] = "XX"
        path.write_text(
            "qualities " + " ".join(QUALITY_IDS) + "\n" + "Loudness " + " ".join(codes) + "\n")
        with pytest.raises(TableError) as err:
            load_table(str(path))
        message = str(err.value)
        assert f"row 'Loudness', column {QUALITY_IDS[column]!r}" in message and "XX" in message


def test_table_with_a_utf8_bom_reads_as_without(tmp_path, default_table):
    path = tmp_path / "table.txt"
    path.write_text("\ufeffqualities " + " ".join(QUALITY_IDS) + "\n" + "".join(
        key + " " + " ".join(default_table.category(q, key).value for q in QUALITY_IDS) + "\n"
        for key in LLF_KEYS), encoding="utf-8")
    assert np.array_equal(load_table(str(path)).coefficients, default_table.coefficients)


def test_missing_row_rejected(tmp_path):
    path = tmp_path / "table.txt"
    path.write_text("qualities " + " ".join(QUALITY_IDS) + "\n")
    with pytest.raises(TableError, match="missing feature rows"):
        load_table(str(path))


def test_duplicate_row_rejected(tmp_path):
    path = tmp_path / "table.txt"
    row = "Loudness " + " ".join(["-"] * 24) + "\n"
    path.write_text("qualities " + " ".join(QUALITY_IDS) + "\n" + row + row)
    with pytest.raises(TableError, match="duplicate"):
        load_table(str(path))


def test_score_at_mean_is_zero(default_table):
    rng = np.random.default_rng(0)
    stats = random_stats(rng)
    result = score_all(dict(stats.mu), stats, default_table)
    for quality, score in result.scores.items():
        assert score == pytest.approx(0.0, abs=1e-12), quality


def test_single_feature_toy_response(default_table):
    # +1 coefficient, single active feature: +2 sigma perturbation scores 2.0
    rng = np.random.default_rng(1)
    stats = random_stats(rng)
    vector = dict(stats.mu)
    vector["jitterLocal"] = stats.mu["jitterLocal"] + 2 * stats.sigma["jitterLocal"]
    score, contributions = score_quality(vector, stats, default_table, "Jit")
    assert contributions["jitterLocal"] == pytest.approx(2.0, abs=1e-12)
    z = len(default_table.active_features("Jit"))
    assert score == pytest.approx(2.0 / z, abs=1e-12)


def test_score_equals_contribution_sum(default_table):
    rng = np.random.default_rng(2)
    stats = random_stats(rng)
    vector = random_llf(rng)
    result = score_all(vector, stats, default_table)
    for quality in QUALITY_IDS:
        z = len(default_table.active_features(quality))
        total = sum(result.z_contributions[quality].values())
        assert result.scores[quality] == pytest.approx(total / z, abs=1e-12)


def test_score_all_matches_dict_loop_reference(default_table):
    rng = np.random.default_rng(7)
    for _ in range(50):
        stats = random_stats(rng)
        vector = random_llf(rng)
        result = score_all(vector, stats, default_table)
        for quality in QUALITY_IDS:
            score, contributions = loop_score(vector, stats, default_table, quality)
            assert abs(result.scores[quality] - score) < 1e-12, quality
            assert list(result.z_contributions[quality].items()) == list(
                contributions.items()), quality


def test_scores_of_a_matrix_are_the_bits_of_each_row_alone(default_table):
    # evaluate_pairs ranks rows of a matrix by the scores that score_all,
    # and so `voicequal score`, computes for each vector alone
    rng = np.random.default_rng(11)
    for n in (1, 2, 3, 7, 8, 160):
        z = rng.normal(size=(n, len(LLF_KEYS)))
        rows = np.array([scores_from_z(row, default_table) for row in z])
        assert scores_from_z(z, default_table).tobytes() == rows.tobytes(), n


def test_contributions_built_on_first_access(default_table):
    rng = np.random.default_rng(8)
    stats = random_stats(rng)
    result = score_all(random_llf(rng), stats, default_table)
    assert "z_contributions" not in vars(result)  # scoring alone builds none
    first = result.z_contributions
    assert result.z_contributions is first
    assert list(first) == list(QUALITY_IDS)


def test_linearity_and_antisymmetry(default_table):
    rng = np.random.default_rng(3)
    for _ in range(20):
        stats = random_stats(rng)
        vector = random_llf(rng)
        base = score_all(vector, stats, default_table).scores
        for alpha in (0.5, 2.0, -1.0):
            blended = {k: stats.mu[k] + alpha * (vector[k] - stats.mu[k])
                       for k in LLF_KEYS}
            scores = score_all(blended, stats, default_table).scores
            for quality in QUALITY_IDS:
                assert scores[quality] == pytest.approx(
                    alpha * base[quality], abs=1e-9), quality


def test_sign_response_is_weight_over_z(default_table):
    rng = np.random.default_rng(4)
    stats = random_stats(rng)
    for quality in QUALITY_IDS:
        for key in default_table.active_features(quality):
            vector = dict(stats.mu)
            vector[key] = stats.mu[key] + stats.sigma[key]
            score, _ = score_quality(vector, stats, default_table, quality)
            z = len(default_table.active_features(quality))
            expected = default_table.coefficient(quality, key) / z
            assert score == pytest.approx(expected, abs=1e-12)


def test_missing_feature_key_rejected(default_table):
    rng = np.random.default_rng(5)
    stats = random_stats(rng)
    vector = dict(stats.mu)
    del vector["spectralFlux"]
    with pytest.raises(ValueError, match="spectralFlux"):
        score_quality(vector, stats, default_table, "Brea")


def test_unknown_quality_rejected(default_table):
    rng = np.random.default_rng(6)
    stats = random_stats(rng)
    with pytest.raises(TableError, match="Sparkly"):
        score_quality(dict(stats.mu), stats, default_table, "Sparkly")
