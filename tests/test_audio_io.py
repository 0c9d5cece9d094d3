import math

import numpy as np
import pytest
from scipy.io import wavfile
from scipy.signal import resample_poly

from voicequal.audio_io import CANONICAL_RATE, DECODE_BLOCK, AudioSignal, load_audio, save_wav
from voicequal.errors import AudioIOError, SilentInputError


def _write_int16(path, rate, x):
    wavfile.write(path, rate, (x * 32767).astype(np.int16))


def test_identity_load_16k_mono(tmp_path):
    x = 0.5 * np.sin(2 * np.pi * 220 * np.arange(8000) / 16000)
    path = tmp_path / "a.wav"
    _write_int16(path, 16000, x)
    sig = load_audio(path)
    assert sig.sample_rate_hz == 16000
    assert len(sig.samples) == 8000


def test_resample_length_oracle(tmp_path):
    # oracle: round(N * 16000 / 48000)
    n = 48000
    x = 0.5 * np.sin(2 * np.pi * 220 * np.arange(n) / 48000)
    stereo = np.stack([x, x], axis=1)
    path = tmp_path / "a.wav"
    _write_int16(path, 48000, stereo)
    sig = load_audio(path)
    assert sig.sample_rate_hz == 16000
    assert abs(len(sig.samples) - round(n * 16000 / 48000)) <= 1


@pytest.mark.parametrize("rate", [0, 1, 7999])
def test_sample_rate_below_8k_rejected(tmp_path, rate):
    path = tmp_path / "slow.wav"
    _write_int16(path, rate, 0.5 * np.sin(np.arange(32)))
    with pytest.raises(AudioIOError, match="sample rate"):
        load_audio(path)


def test_silent_input_rejected(tmp_path):
    path = tmp_path / "z.wav"
    _write_int16(path, 16000, np.zeros(4000))
    with pytest.raises(SilentInputError, match="silent input"):
        load_audio(path)


def test_zero_length_rejected(tmp_path):
    path = tmp_path / "z.wav"
    wavfile.write(path, 16000, np.zeros(0, dtype=np.int16))
    with pytest.raises(AudioIOError):
        load_audio(path)


def test_missing_file():
    with pytest.raises(AudioIOError, match="not found"):
        load_audio("/no/such/file.wav")


def test_not_a_wav(tmp_path):
    path = tmp_path / "bad.wav"
    path.write_bytes(b"this is not audio")
    with pytest.raises(AudioIOError):
        load_audio(path)


def test_round_trip_canonical_rate(tmp_path):
    rng = np.random.default_rng(3)
    x = 0.8 * rng.uniform(-1, 1, 5000)
    sig = AudioSignal(x, CANONICAL_RATE, "orig")
    path = tmp_path / "rt.wav"
    save_wav(sig, path)
    loaded = load_audio(path)
    assert np.max(np.abs(loaded.samples - x)) < 1e-6


def test_channel_averaging_is_linear(tmp_path):
    x = 0.5 * np.sin(2 * np.pi * 100 * np.arange(4000) / 16000)
    mono_path, stereo_path = tmp_path / "m.wav", tmp_path / "s.wav"
    wavfile.write(mono_path, 16000, x.astype(np.float32))
    wavfile.write(stereo_path, 16000, np.stack([x, x], axis=1).astype(np.float32))
    mono = load_audio(mono_path)
    stereo = load_audio(stereo_path)
    assert np.max(np.abs(mono.samples - stereo.samples)) < 1e-6


def test_peak_normalization_only_when_needed(tmp_path):
    x = 1.5 * np.sin(2 * np.pi * 100 * np.arange(4000) / 16000)
    path = tmp_path / "loud.wav"
    wavfile.write(path, 16000, x.astype(np.float32))
    sig = load_audio(path)
    assert np.max(np.abs(sig.samples)) <= 1.0 + 1e-12
    assert np.max(np.abs(sig.samples)) == pytest.approx(1.0)


def test_24bit_and_8bit_supported(tmp_path):
    x = (0.5 * np.sin(2 * np.pi * 100 * np.arange(4000) / 16000))
    p8 = tmp_path / "u8.wav"
    wavfile.write(p8, 16000, ((x + 1) * 127.5).astype(np.uint8))
    sig = load_audio(p8)
    assert np.corrcoef(sig.samples, x)[0, 1] > 0.999


def _reference_load(path, target_rate=CANONICAL_RATE):
    """The whole-array decode: every channel converted, then averaged."""
    rate, data = wavfile.read(path)
    scales = {np.dtype(np.uint8): (128.0, 128.0), np.dtype(np.int16): (0.0, 32768.0),
              np.dtype(np.int32): (0.0, 2147483648.0)}
    if data.dtype in scales:
        offset, scale = scales[data.dtype]
        x = (data.astype(np.float64) - offset) / scale
    else:
        x = data.astype(np.float64)
    if x.ndim == 2:
        x = x.mean(axis=1)
    if rate != target_rate:
        g = math.gcd(rate, target_rate)
        x = resample_poly(x, target_rate // g, rate // g)
    peak = np.max(np.abs(x))
    return x / peak if peak > 1.0 else x


@pytest.mark.parametrize("dtype,rate,channels,amp", [
    (np.uint8, 16000, 1, 0.9), (np.int16, 16000, 1, 0.9), (np.int32, 22050, 1, 0.9),
    (np.float32, 16000, 1, 0.9), (np.float32, 16000, 1, 1.7), (np.float64, 48000, 1, 1.3),
    (np.uint8, 8000, 2, 0.9), (np.int16, 44100, 2, 0.9), (np.int32, 16000, 3, 0.9),
    (np.float32, 16000, 2, 1.7), (np.int16, 11025, 1, 0.9),
])
def test_decode_matches_whole_array_reference(tmp_path, dtype, rate, channels, amp):
    rng = np.random.default_rng(channels)
    # more sample frames than one decode block, so the block loop turns over
    x = amp * np.clip(rng.standard_normal((DECODE_BLOCK + 1000, channels)) / 3, -1, 1)
    if dtype == np.uint8:
        data = np.round((x + 1) * 127.5).astype(np.uint8)
    elif np.issubdtype(dtype, np.integer):
        data = np.round(x * (np.iinfo(dtype).max - 1)).astype(dtype)
    else:
        data = x.astype(dtype)
    path = tmp_path / "d.wav"
    wavfile.write(path, rate, data[:, 0] if channels == 1 else data)
    got = load_audio(path).samples
    want = _reference_load(path)
    assert np.array_equal(got, want)
    # the resampling filter is designed once per rate pair: a second load
    # takes it from the cache and must resample the same
    assert np.array_equal(load_audio(path).samples, want)
    if amp > 1 and rate == CANONICAL_RATE:  # over full scale: normalized
        assert np.max(np.abs(got)) == 1.0


def test_load_peak_memory_below_twice_the_signal(tmp_path):
    import tracemalloc

    path = tmp_path / "long.wav"
    t = np.arange(40 * CANONICAL_RATE) / CANONICAL_RATE
    wavfile.write(path, CANONICAL_RATE, (0.5 * np.sin(2 * np.pi * 150 * t)).astype(np.float32))
    del t
    tracemalloc.start()
    try:
        sig = load_audio(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the float32 WAV data (half the signal) and the signal itself
    assert peak < 2 * sig.samples.nbytes



def test_unsupported_sample_type_rejected(tmp_path):
    path = tmp_path / "i64.wav"
    wavfile.write(path, 16000, np.ones(4000, dtype=np.int64))
    with pytest.raises(AudioIOError, match=f"^{path}: unsupported encoding int64$"):
        load_audio(path)
