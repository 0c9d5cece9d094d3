import numpy as np
import pytest
from scipy.signal import lfilter

from voicequal.audio_io import MAX_RATE
from voicequal.llf import extract_llf_vector
from voicequal.synth import (BREATHY_F1_BANDWIDTH, GLOTTAL_DECAY_S, KINDS, RESONANCES,
                             generate_synthetic, pulse_times, pulse_train, vowel_filter)


def _scalar_pulse_train(f0, duration, sample_rate, rng, jitter_pct=0.0, shimmer_db=0.0):
    """Reference: the constant-f0 train drawn and placed in one scalar loop,
    whose samples pulse_train(*pulse_times(...)) must keep bit for bit."""
    n = int(round(duration * sample_rate))
    x = np.zeros(n + 2)
    period = sample_rate / f0
    t = period
    while t < n - 1:
        amp = 1.0
        if shimmer_db > 0:
            amp *= 10.0 ** (rng.uniform(-shimmer_db, shimmer_db) / 20.0)
        i = int(t)
        frac = t - i
        x[i] += (1.0 - frac) * amp
        x[i + 1] += frac * amp
        step = period
        if jitter_pct > 0:
            step *= 1.0 + rng.uniform(-jitter_pct, jitter_pct) / 100.0
        t += step
    decay = np.exp(-1.0 / (GLOTTAL_DECAY_S * sample_rate))
    x = lfilter([1.0], [1.0, -decay], x)
    return x[:n]


def _scalar_vowel(kind, f0, sample_rate, jitter_pct, shimmer_db, seed=0, duration=0.5,
                  noise_ratio=0.25):
    """generate_synthetic's samples, built on _scalar_pulse_train."""
    rng = np.random.default_rng(seed)
    excitation = _scalar_pulse_train(
        f0, duration, sample_rate, rng,
        jitter_pct=jitter_pct if kind == "jittered" else 0.0,
        shimmer_db=shimmer_db if kind == "shimmered" else 0.0)
    resonances = RESONANCES
    if kind == "breathy":
        resonances = ((RESONANCES[0][0], BREATHY_F1_BANDWIDTH),) + RESONANCES[1:]
    x = vowel_filter(excitation, sample_rate, resonances)
    if kind == "breathy":
        noise = rng.standard_normal(len(x))
        noise *= np.sqrt(noise_ratio * np.mean(x ** 2) / np.mean(noise ** 2))
        x = x + noise
    return 0.9 * x / np.max(np.abs(x))


@pytest.mark.parametrize("sample_rate", [8000, 16000, 44100])
@pytest.mark.parametrize("f0", [55.0, 500.0])
def test_samples_are_byte_equal_to_the_scalar_loop(sample_rate, f0):
    # perfbench's reference outputs rest on these bytes
    for kind in KINDS:
        sig = generate_synthetic(kind, f0=f0, duration=0.5, sample_rate=sample_rate,
                                 jitter_pct=99.0, shimmer_db=40.0)
        assert sig.samples.tobytes() == _scalar_vowel(kind, f0, sample_rate, 99.0, 40.0).tobytes()
    for seed in range(3):  # both perturbations at once, with pulses less than a sample apart
        times, amplitudes = pulse_times(f0, 0.5, sample_rate, np.random.default_rng(seed),
                                        jitter_pct=99.0, shimmer_db=40.0)
        want = _scalar_pulse_train(f0, 0.5, sample_rate, np.random.default_rng(seed),
                                   jitter_pct=99.0, shimmer_db=40.0)
        assert pulse_train(times, amplitudes, len(want), sample_rate).tobytes() == want.tobytes()


@pytest.mark.parametrize("jitter_pct, shimmer_db", [(0.0, 0.0), (3.0, 0.0), (0.0, 6.0),
                                                    (40.0, 12.0)])
def test_pulse_times_and_train_carry_their_ground_truth(jitter_pct, shimmer_db):
    fs, f0 = 16000, 137.0
    times, amplitudes = pulse_times(f0, 1.0, fs, np.random.default_rng(9),
                                    jitter_pct=jitter_pct, shimmer_db=shimmer_db)
    period = fs / f0
    steps = np.diff(np.concatenate(([0.0], times)))
    assert len(times) > 100
    assert np.all(np.abs(steps / period - 1.0) <= jitter_pct / 100 + 1e-12)
    assert np.all(np.abs(20.0 * np.log10(amplitudes)) <= shimmer_db + 1e-12)
    # inverse-filtering the decay gives back each pulse's two shares
    x = pulse_train(times, amplitudes, fs, fs)
    impulses = lfilter([1.0, -np.exp(-1.0 / (GLOTTAL_DECAY_S * fs))], [1.0], x)
    i, frac = np.floor(times).astype(int), times - np.floor(times)
    want = np.zeros(fs)
    want[i] = (1.0 - frac) * amplitudes
    want[i + 1] = frac * amplitudes
    np.testing.assert_allclose(impulses, want, rtol=0, atol=1e-12)


def test_pulse_train_rejects_times_outside_the_signal():
    for times in ([-0.5], [99.0], [np.nan]):
        with pytest.raises(ValueError, match="pulse times"):
            pulse_train(times, [1.0], 100, 16000)


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
                        ("shimmer_db", 40.5), ("duration", 600.5),
                        ("sample_rate", 0), ("sample_rate", -16000), ("sample_rate", 100),
                        ("sample_rate", 7999), ("sample_rate", MAX_RATE + 1),
                        ("sample_rate", 16000.0)):
        with pytest.raises(ValueError, match=f"^{name} must be"):
            generate_synthetic("breathy", **{name: value})


def test_output_in_range_and_duration():
    sig = generate_synthetic("breathy", f0=130.0, duration=0.7, seed=3)
    assert np.max(np.abs(sig.samples)) <= 0.9 + 1e-12
    assert len(sig.samples) == int(0.7 * sig.sample_rate_hz)
