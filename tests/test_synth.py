import numpy as np
import pytest

from voicequal.llf import extract_llf_vector
from voicequal.synth import generate_synthetic


def test_same_seed_bit_identical():
    a = generate_synthetic("jittered", f0=150.0, seed=7)
    b = generate_synthetic("jittered", f0=150.0, seed=7)
    assert np.array_equal(a.samples, b.samples)


def test_different_seed_differs():
    a = generate_synthetic("jittered", f0=150.0, seed=7)
    b = generate_synthetic("jittered", f0=150.0, seed=8)
    assert not np.array_equal(a.samples, b.samples)


def test_clean_vowel_low_measured_jitter():
    vector = extract_llf_vector(generate_synthetic("clean", f0=150.0, seed=0))
    assert vector["jitterLocal"] < 0.005


def test_jittered_exceeds_clean():
    clean = extract_llf_vector(generate_synthetic("clean", f0=150.0, seed=0))
    jit = extract_llf_vector(
        generate_synthetic("jittered", f0=150.0, seed=0, jitter_pct=3.0))
    assert jit["jitterLocal"] > clean["jitterLocal"]


def test_shimmered_exceeds_clean():
    clean = extract_llf_vector(generate_synthetic("clean", f0=150.0, seed=0))
    shim = extract_llf_vector(
        generate_synthetic("shimmered", f0=150.0, seed=0, shimmer_db=2.0))
    assert shim["shimmerLocaldB"] > clean["shimmerLocaldB"]


def test_breathy_lowers_hnr():
    clean = extract_llf_vector(generate_synthetic("clean", f0=150.0, seed=0))
    breathy = extract_llf_vector(
        generate_synthetic("breathy", f0=150.0, seed=0, noise_ratio=0.3))
    assert breathy["HNRdBACF"] < clean["HNRdBACF"]
    assert breathy["spectralFlux"] > clean["spectralFlux"]


def test_parameter_validation():
    with pytest.raises(ValueError, match="kind"):
        generate_synthetic("warbly")
    with pytest.raises(ValueError, match="duration"):
        generate_synthetic("clean", duration=0.2)
    with pytest.raises(ValueError, match="f0"):
        generate_synthetic("clean", f0=2000.0)
    with pytest.raises(ValueError, match="nonnegative"):
        generate_synthetic("jittered", jitter_pct=-1.0)
    for name, value in (("duration", float("inf")), ("jitter_pct", 100.0),
                        ("jitter_pct", float("nan")), ("shimmer_db", float("inf")),
                        ("noise_ratio", float("nan")), ("seed", -1),
                        ("shimmer_db", 40.5), ("duration", 600.5)):
        with pytest.raises(ValueError, match=f"^{name} must be"):
            generate_synthetic("breathy", **{name: value})


def test_output_in_range_and_duration():
    sig = generate_synthetic("breathy", f0=130.0, duration=0.7, seed=3)
    assert np.max(np.abs(sig.samples)) <= 0.9 + 1e-12
    assert len(sig.samples) == int(0.7 * sig.sample_rate_hz)
