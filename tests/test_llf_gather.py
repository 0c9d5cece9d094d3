"""The C-level gathers of LLF vectors (`llf_values`, `llf_row`, `llf_matrix`)
against the per-key dict loops they replace: every fitted value, score and
pair count is bit-identical, and every error names the same keys and samples."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voicequal.errors import ManifestError, StatsError
from voicequal.evaluation import NEUTRAL_LABEL, LabeledSample, evaluate_pairs, form_pairs
from voicequal.llf import LLF_KEYS, llf_matrix, llf_row, llf_values, validate_llf
from voicequal.quality import QUALITY_IDS, score_all, z_scores
from voicequal.stats import MIN_SIGMA, FeatureStats, fit_stats

_VALUE = st.floats(-1e6, 1e6, allow_nan=False)
_EXTRA_KEY = st.text(min_size=1, max_size=8).filter(lambda k: k not in LLF_KEYS)
_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@st.composite
def llf_vectors(draw):
    """A finite vector with its keys in any order, sometimes with extra keys."""
    order = draw(st.permutations(LLF_KEYS))
    vector = dict(zip(order, draw(st.lists(_VALUE, min_size=len(LLF_KEYS),
                                           max_size=len(LLF_KEYS)))))
    vector.update(draw(st.dictionaries(_EXTRA_KEY, _VALUE, max_size=2)))
    return vector


@st.composite
def feature_stats(draw):
    values = st.lists(_VALUE, min_size=len(LLF_KEYS), max_size=len(LLF_KEYS))
    sigmas = st.lists(st.floats(MIN_SIGMA, 1e3), min_size=len(LLF_KEYS),
                      max_size=len(LLF_KEYS))
    return FeatureStats(mu=dict(zip(LLF_KEYS, draw(values))),
                        sigma=dict(zip(LLF_KEYS, draw(sigmas))))


def _loop_rows(vectors):
    return np.array([[v[k] for k in LLF_KEYS] for v in vectors], dtype=float)


def _loop_scores(z, table):
    """One vector's scores as the per-key loops computed them, with z from
    dict lookups and the integer active counts as the divisor."""
    return z @ table.coefficients.T / np.count_nonzero(table.coefficients, axis=1)


def _loop_z(vectors, stats):
    mu = np.array([stats.mu[k] for k in LLF_KEYS], dtype=float)
    sigma = np.array([stats.sigma[k] for k in LLF_KEYS], dtype=float)
    return (_loop_rows(vectors) - mu) / sigma


def _bits(values):
    return np.asarray(values, dtype=float).tobytes()


@_SETTINGS
@given(vectors=st.lists(llf_vectors(), max_size=12))
def test_llf_matrix_equals_the_per_key_rows(vectors):
    matrix = llf_matrix(vectors)
    assert matrix.shape == (len(vectors), len(LLF_KEYS)) and matrix.dtype == np.float64
    assert _bits(matrix) == _bits(_loop_rows(vectors).reshape(-1, len(LLF_KEYS)))
    for vector, row in zip(vectors, matrix):
        assert _bits(llf_values(vector)) == _bits(row)


@_SETTINGS
@given(vectors=st.lists(llf_vectors(), min_size=2, max_size=12))
def test_fit_stats_equals_the_per_key_fit(vectors):
    data = _loop_rows(vectors)
    mu, sigma = data.mean(axis=0), data.std(axis=0, ddof=1)
    if (sigma < MIN_SIGMA).any():
        with pytest.raises(StatsError, match="degenerate feature"):
            fit_stats(vectors)
        return
    stats = fit_stats(vectors)
    assert _bits(stats.mu_vector) == _bits(mu) and _bits(stats.sigma_vector) == _bits(sigma)
    assert _bits([stats.mu[k] for k in LLF_KEYS]) == _bits(mu)
    assert _bits([stats.sigma[k] for k in LLF_KEYS]) == _bits(sigma)


@_SETTINGS
@given(vectors=st.lists(llf_vectors(), min_size=1, max_size=6), stats=feature_stats())
def test_score_all_equals_the_per_key_scores(default_table, vectors, stats):
    for vector, z in zip(vectors, _loop_z(vectors, stats)):
        scores = score_all(vector, stats, default_table).scores
        assert list(scores) == list(QUALITY_IDS)
        assert _bits(list(scores.values())) == _bits(_loop_scores(z, default_table))


@_SETTINGS
@given(vectors=st.lists(llf_vectors(), min_size=2, max_size=12), stats=feature_stats(),
       quality=st.sampled_from(QUALITY_IDS), data=st.data())
def test_evaluate_pairs_equals_the_per_key_count(default_table, vectors, stats, quality, data):
    labels = data.draw(st.lists(st.sampled_from([quality, NEUTRAL_LABEL]),
                                min_size=len(vectors), max_size=len(vectors)))
    labels[:2] = [quality, NEUTRAL_LABEL]
    grid = form_pairs([LabeledSample(f"s{i:02d}", label, v)
                       for i, (label, v) in enumerate(zip(labels, vectors))], quality)
    # wins counted from the scores `voicequal score` prints for each sample
    positive, negative = ([score_all(s.llf, stats, default_table).scores[quality] for s in side]
                          for side in (grid.positives, grid.negatives))
    expected = sum(int(p > n) for p in positive for n in negative)
    result = evaluate_pairs(grid, stats, default_table).per_quality[quality]
    assert (result.total_pairs, result.correct) == (len(grid), expected)


def _drop(vector, keys):
    return {k: v for k, v in vector.items() if k not in keys}


_MISSING = st.sets(st.sampled_from(LLF_KEYS), min_size=1, max_size=4)


@_SETTINGS
@given(vector=llf_vectors(), stats=feature_stats(), missing=_MISSING)
def test_z_scores_names_the_first_missing_key(vector, stats, missing):
    first = next(k for k in LLF_KEYS if k in missing)
    with pytest.raises(ValueError) as caught:
        z_scores(_drop(vector, missing), stats)
    assert str(caught.value) == f"feature vector missing key {first!r}"


@_SETTINGS
@given(vector=llf_vectors(), missing=_MISSING, which=st.sampled_from(["mu", "sigma"]))
def test_feature_stats_names_every_missing_key(vector, missing, which):
    sigma = dict.fromkeys(LLF_KEYS, 1.0)
    parts = {"mu": vector, "sigma": sigma}
    parts[which] = _drop(parts[which], missing)
    with pytest.raises(StatsError) as caught:
        FeatureStats(**parts)
    names = [k for k in LLF_KEYS if k in missing]
    assert str(caught.value) == f"stats {which} missing keys: {names}"


def test_feature_stats_names_every_small_sigma():
    sigma = dict.fromkeys(LLF_KEYS, 1.0)
    sigma.update({"HNRdBACF": 0.0, "Loudness": float("nan"), "mfcc2": MIN_SIGMA / 2})
    with pytest.raises(StatsError) as caught:
        FeatureStats(mu=dict.fromkeys(LLF_KEYS, 0.0), sigma=sigma)
    assert str(caught.value) == "sigma below 1e-09 for: ['Loudness', 'mfcc2', 'HNRdBACF']"


@_SETTINGS
@given(vectors=st.lists(llf_vectors(), min_size=2, max_size=8), missing=_MISSING, data=st.data())
def test_fit_stats_names_the_vector_missing_a_key(vectors, missing, data):
    index = data.draw(st.integers(0, len(vectors) - 1))
    vectors[index] = _drop(vectors[index], missing)
    first = next(k for k in LLF_KEYS if k in missing)
    with pytest.raises(StatsError) as caught:
        fit_stats(vectors)
    assert str(caught.value) == f"vector {index} missing key {first!r}"


@_SETTINGS
@given(vectors=st.lists(llf_vectors(), min_size=2, max_size=8), missing=_MISSING, data=st.data())
def test_making_a_sample_names_the_sample_missing_a_key(vectors, missing, data):
    index = data.draw(st.integers(0, len(vectors) - 1))
    vectors[index] = _drop(vectors[index], missing)
    first = next(k for k in LLF_KEYS if k in missing)
    with pytest.raises(ManifestError) as caught:
        [LabeledSample(f"s{i:02d}", NEUTRAL_LABEL, v) for i, v in enumerate(vectors)]
    assert str(caught.value) == (f"scoring failed for s{index:02d}: "
                                 f"feature vector missing key {first!r}")


@_SETTINGS
@given(vectors=st.lists(llf_vectors(), min_size=1, max_size=8), missing=_MISSING, data=st.data())
def test_llf_matrix_names_the_vector_missing_a_key(vectors, missing, data):
    index = data.draw(st.integers(0, len(vectors) - 1))
    vectors[index] = _drop(vectors[index], missing)
    vectors.append({})  # a later vector missing every key is not the one named
    with pytest.raises(ValueError) as caught:
        llf_matrix(vectors)
    assert str(caught.value) == f"missing key {next(k for k in LLF_KEYS if k in missing)!r}"
    assert caught.value.index == index


@_SETTINGS
@given(vector=llf_vectors(), missing=_MISSING)
def test_validate_llf_lists_every_missing_key(vector, missing):
    with pytest.raises(ValueError) as caught:
        validate_llf(_drop(vector, missing))
    assert str(caught.value) == f"missing feature keys: {[k for k in LLF_KEYS if k in missing]}"


@_SETTINGS
@given(vector=llf_vectors(), extra=st.dictionaries(_EXTRA_KEY, _VALUE, min_size=1, max_size=3))
def test_validate_llf_lists_every_unknown_key(vector, extra):
    vector.update(extra)
    with pytest.raises(ValueError) as caught:
        validate_llf(vector)
    assert str(caught.value) == f"unknown feature keys: {[k for k in vector if k not in LLF_KEYS]}"


@_SETTINGS
@given(vector=llf_vectors(), bad=st.dictionaries(
    st.sampled_from(LLF_KEYS), st.sampled_from([np.nan, np.inf, -np.inf]), min_size=1, max_size=4))
def test_validate_llf_lists_every_non_finite_value(vector, bad):
    vector = {k: v for k, v in vector.items() if k in LLF_KEYS}
    vector.update(bad)
    with pytest.raises(ValueError) as caught:
        validate_llf(vector)
    assert str(caught.value) == f"non-finite feature values: {[k for k in vector if k in bad]}"


@_SETTINGS
@given(vector=llf_vectors())
def test_validate_llf_accepts_a_complete_finite_vector(vector):
    validate_llf({k: v for k, v in vector.items() if k in LLF_KEYS})


# every kind of value that converts to float64: ints and bools, numpy
# scalars, signed zeros, NaN, infinities and subnormals
_MIXED = [3, True, False, -7, 2**60 + 1, np.float32(1.1), np.float64(-2.5), -0.0,
          np.float32(-0.0), np.nan, np.float32(np.nan), np.inf, -np.inf, np.float32(-np.inf),
          5e-324, -2.225e-308, np.float32(1e-45), np.float64(1e-310), 1e308, -1e-300,
          np.float32(3.4e38), 0.1, np.float64(np.nan), 0, 1.0]


def test_mixed_values_pack_to_the_bits_of_fromiter():
    vector = dict(zip(LLF_KEYS[::-1], _MIXED[::-1]))  # keys in reverse order
    want = np.fromiter(llf_values(vector), float).tobytes()
    assert llf_row(vector) == want
    matrix = llf_matrix([vector, dict(zip(LLF_KEYS, _MIXED[::-1]))])
    assert matrix[0].tobytes() == want
    assert matrix[1].tobytes() == np.array(_MIXED[::-1], dtype=float).tobytes()
    assert not matrix.flags.writeable


def test_no_vectors_give_an_empty_matrix():
    matrix = llf_matrix([])
    assert matrix.shape == (0, len(LLF_KEYS)) and matrix.dtype == np.float64


# each value and how the message shows it: a long one is cut
_NOT_REAL = [pytest.param(None, "None", id="None"), pytest.param("1.5", "'1.5'", id="str"),
             pytest.param(10**400, "1" + "0" * 17 + "..." + "0" * 19, id="10**400")]


def _finite(shift):
    return dict(zip(LLF_KEYS, (np.linspace(-1.0, 1.0, len(LLF_KEYS)) + shift).tolist()))


def _broken(key, value):
    """A finite vector whose ``key`` holds ``value``, and a later key None."""
    vector = _finite(0.0)
    vector[key] = value
    vector[LLF_KEYS[-1]] = None
    return vector


@pytest.mark.parametrize("value, shown", _NOT_REAL)
@pytest.mark.parametrize("key", ["Loudness", "mfcc2"])
def test_a_value_that_is_not_a_real_number_is_named_at_every_entry_point(key, value, shown):
    reason = f"value of {key!r} is not a real number: {shown}"
    vectors = [_finite(0.0), _finite(0.5)]
    stats = fit_stats(vectors)
    vectors.insert(1, _broken(key, value))
    vectors.append({})  # a later vector missing every key is not the one named
    with pytest.raises(ValueError) as caught:
        llf_matrix(vectors)
    assert str(caught.value) == reason
    assert caught.value.index == 1
    with pytest.raises(ValueError) as caught:
        validate_llf(vectors[1])
    assert str(caught.value) == reason
    with pytest.raises(ValueError) as caught:
        z_scores(vectors[1], stats)
    assert str(caught.value) == f"feature vector {reason}"
    with pytest.raises(StatsError) as caught:
        fit_stats(vectors)
    assert str(caught.value) == f"vector 1 {reason}"
    with pytest.raises(StatsError) as caught:
        FeatureStats(mu=vectors[1], sigma=dict.fromkeys(LLF_KEYS, 1.0))
    assert str(caught.value) == f"stats mu {reason}"
    with pytest.raises(ManifestError) as caught:
        [LabeledSample(f"s{i:02d}", "Jit" if i == 0 else NEUTRAL_LABEL, v)
         for i, v in enumerate(vectors)]
    assert str(caught.value) == f"scoring failed for s01: feature vector {reason}"


@pytest.mark.parametrize("value", [0.0, "abc"])
def test_feature_stats_ignores_a_key_outside_the_vector(value):
    mu, sigma = _finite(0.0), dict.fromkeys(LLF_KEYS, 1.0)
    stats = FeatureStats(mu=mu, sigma={**sigma, "extra": value})
    assert _bits(stats.sigma_vector) == _bits(list(sigma.values()))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=str)
def test_a_value_that_is_not_finite_is_named_by_fit_stats_and_feature_stats(value):
    vectors = [_finite(0.0), _finite(0.5), _finite(1.0)]
    vectors[1]["mfcc2"] = vectors[1]["F3bandwidth"] = vectors[2]["Loudness"] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning of the mean or spread escapes
        with pytest.raises(StatsError) as caught:
            fit_stats(vectors)
    assert str(caught.value) == f"vector 1 value of 'mfcc2' is not finite: {float(value)}"
    with pytest.raises(StatsError) as caught:
        FeatureStats(mu=vectors[1], sigma=dict.fromkeys(LLF_KEYS, 1.0))
    assert str(caught.value) == f"stats mu value of 'mfcc2' is not finite: {float(value)}"


@pytest.mark.parametrize("loudness", [[-1.7e308, 0.0, 1.7e308], [1.7e308, 1.7e308, 0.0]],
                         ids=["spread", "mean"])
def test_a_fit_that_overflows_to_inf_is_named_without_a_warning(loudness):
    vectors = [_finite(shift) for shift in (0.0, 0.5, 1.0)]
    for vector, value in zip(vectors, loudness):
        vector["Loudness"] = value
    name = "sigma" if loudness[0] < 0 else "mu"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the overflow warns only if it escapes
        with pytest.raises(StatsError) as caught:
            fit_stats(vectors)
    assert str(caught.value) == f"stats {name} value of 'Loudness' is not finite: inf"


def test_feature_stats_names_an_infinite_sigma():
    # inf passes the floor, and would read every z of its feature as 0
    sigma = {**dict.fromkeys(LLF_KEYS, 1.0), "mfcc2": np.inf}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(StatsError) as caught:
            FeatureStats(mu=_finite(0.0), sigma=sigma)
    assert str(caught.value) == "stats sigma value of 'mfcc2' is not finite: inf"
