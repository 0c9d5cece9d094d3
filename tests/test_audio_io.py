import gc
import math
import mmap
import os
import re
import struct
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from scipy.io import wavfile
from scipy.signal import resample_poly

import voicequal.audio_io as audio_io
from voicequal.audio_io import (CANONICAL_RATE, DECODE_BLOCK, MAX_RATE, AudioSignal,
                                load_audio, save_wav)
from voicequal.cli import main
from voicequal.errors import AudioIOError, SilentInputError
from voicequal.llf import extract_llf_vector
from voicequal.synth import KINDS, generate_synthetic


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


def test_highest_standard_sample_rate_loads(tmp_path):
    path = tmp_path / "fast.wav"
    t = np.arange(MAX_RATE // 10) / MAX_RATE
    _write_int16(path, MAX_RATE, 0.5 * np.sin(2 * np.pi * 150 * t))
    sig = load_audio(path)
    assert len(sig.samples) == CANONICAL_RATE // 10


def test_silent_input_rejected(tmp_path):
    path = tmp_path / "z.wav"
    _write_int16(path, 16000, np.zeros(4000))
    with pytest.raises(SilentInputError, match="silent input"):
        load_audio(path)
    # read as one chunk and as several, at 16 kHz and resampled
    for rate in (16000, 22050, 44100):
        for n in (4000, 3 * rate):
            _write_int16(path, rate, np.zeros((n, 2)))
            with pytest.raises(SilentInputError, match=f"^{path}: silent input$"):
                load_audio(path)
    # silence is the decoded 16 kHz signal's: a lone subnormal sample
    # resamples to exactly zero
    x = np.zeros(44100)
    x[22050] = 5e-324
    wavfile.write(path, 44100, x)
    with pytest.raises(SilentInputError, match=f"^{path}: silent input$"):
        load_audio(path)
    assert main(["extract", str(path), "--output", os.devnull]) == 3


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


def test_a_float64_contiguous_array_is_kept_and_made_read_only():
    x = np.linspace(-0.5, 0.5, 4000)
    sig = AudioSignal(x, CANONICAL_RATE)
    assert sig.samples is x
    assert not x.flags.writeable
    with pytest.raises(ValueError):
        x[0] = 0.0


@pytest.mark.parametrize("shape", [(16000, 2), (1, 16000)], ids=["two-channels", "one-row"])
def test_samples_that_are_not_one_dimensional_are_rejected(shape):
    x = np.full(shape, 0.25)
    with pytest.raises(AudioIOError, match=re.escape(f"1-D, got shape {shape}")):
        AudioSignal(x, CANONICAL_RATE)
    assert x.flags.writeable


@pytest.mark.parametrize("make", [lambda x: x.astype(np.float32), lambda x: x[::2]],
                         ids=["float32", "strided"])
def test_other_arrays_are_copied_and_stay_writable(make):
    x = make(np.linspace(-0.5, 0.5, 8000))
    sig = AudioSignal(x, CANONICAL_RATE)
    assert not np.shares_memory(sig.samples, x)
    assert sig.samples.dtype == np.float64 and not sig.samples.flags.writeable
    x[0] = 0.25
    assert x.flags.writeable and sig.samples[0] == -0.5


def test_channel_averaging_is_linear(tmp_path):
    x = 0.5 * np.sin(2 * np.pi * 100 * np.arange(4000) / 16000)
    mono_path, stereo_path = tmp_path / "m.wav", tmp_path / "s.wav"
    wavfile.write(mono_path, 16000, x.astype(np.float32))
    wavfile.write(stereo_path, 16000, np.stack([x, x], axis=1).astype(np.float32))
    mono = load_audio(mono_path)
    stereo = load_audio(stereo_path)
    assert np.max(np.abs(np.asarray(mono.samples) - np.asarray(stereo.samples))) < 1e-6


def test_peak_normalization_only_when_needed(tmp_path):
    x = 1.5 * np.sin(2 * np.pi * 100 * np.arange(4000) / 16000)
    path = tmp_path / "loud.wav"
    wavfile.write(path, 16000, x.astype(np.float32))
    sig = load_audio(path)
    assert np.max(np.abs(sig.samples)) <= 1.0 + 1e-12
    assert np.max(np.abs(sig.samples)) == pytest.approx(1.0)


def _write_24bit(path, rate, x):
    """Mono 24-bit PCM WAV, which scipy cannot map and reads whole."""
    ints = np.round(x * (2 ** 23 - 1)).astype("<i4")
    data = ints.view(np.uint8).reshape(-1, 4)[:, :3].tobytes()
    fmt = struct.pack("<HHIIHH", 1, 1, rate, 3 * rate, 3, 24)
    path.write_bytes(b"RIFF" + struct.pack("<I", 36 + len(data)) + b"WAVEfmt "
                     + struct.pack("<I", len(fmt)) + fmt + b"data"
                     + struct.pack("<I", len(data)) + data)


def test_24bit_and_8bit_supported(tmp_path):
    x = (0.5 * np.sin(2 * np.pi * 100 * np.arange(4000) / 16000))
    p8 = tmp_path / "u8.wav"
    wavfile.write(p8, 16000, ((x + 1) * 127.5).astype(np.uint8))
    sig = load_audio(p8)
    assert np.corrcoef(sig.samples, x)[0, 1] > 0.999
    p24 = tmp_path / "i24.wav"
    _write_24bit(p24, 16000, x)
    assert np.max(np.abs(np.asarray(load_audio(p24).samples) - x)) < 1e-6


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
    # more sample frames than one decode block, so the block loop turns over,
    # and several blocks
    for n_frames in (DECODE_BLOCK + 1000, 4 * DECODE_BLOCK + 3):
        x = amp * np.clip(rng.standard_normal((n_frames, channels)) / 3, -1, 1)
        path = tmp_path / f"d{n_frames}.wav"
        wavfile.write(path, rate, _encode(x[:, 0] if channels == 1 else x, dtype))
        got = load_audio(path).samples
        want = _reference_load(path)
        assert np.array_equal(got, want)
        # the resampling filter is designed once per rate pair: a second load
        # takes it from the cache and must resample the same
        assert np.array_equal(load_audio(path).samples, want)
        if amp > 1 and rate == CANONICAL_RATE:  # over full scale: normalized
            assert np.max(np.abs(got)) == 1.0


def _encode(x, dtype):
    """Samples in about [-1, 1] (floats may exceed it) as WAV data of dtype."""
    if dtype == np.uint8:
        return np.round((x + 1) * 127.5).clip(0, 255).astype(np.uint8)
    if np.issubdtype(dtype, np.integer):
        return np.round(x * (np.iinfo(dtype).max - 1)).astype(dtype)
    return x.astype(dtype)


@pytest.mark.parametrize("block", [1000, 4096, 16384])
@pytest.mark.parametrize("rate", [8000, 11025, 22050, 32000, 44100, 48000, 96000, 192000,
                                  384000])
def test_resampling_chunk_by_chunk_matches_whole_file_resample_poly(tmp_path, monkeypatch,
                                                                    rate, block):
    # each chunk reads at most `block` input frames plus the filter's span
    # (its taps over the inputs, and up to `down` more that align the
    # chunk's first input to the output grid), at any rate, and the chunks
    # equal resample_poly over the whole file across every chunk edge
    monkeypatch.setattr(audio_io, "DECODE_BLOCK", block)
    calls = []
    upfirdn = audio_io.upfirdn
    monkeypatch.setattr(audio_io, "upfirdn", lambda h, x, up, down: calls.append(
        (len(x), len(h), up, down)) or upfirdn(h, x, up, down))
    rng = np.random.default_rng(rate)
    x = np.clip(rng.standard_normal((int(3.2 * rate), 2)) / 3, -1, 1)
    path = tmp_path / "r.wav"
    wavfile.write(path, rate, _encode(x, np.int16))
    want = _reference_load(path)
    assert np.array_equal(load_audio(path).samples, want)
    up, down = calls[0][2:]
    step = max(1, min(block, block * up // down))  # outputs per chunk
    assert len(calls) == -(-len(want) // step) > 3
    for n_in, h_len, _, _ in calls:
        assert n_in <= block + -(-h_len // up) + down


# (dtype, channels, rate) cases that are also extracted at 30 s
_LONG_CASES = {(np.float32, 1, 16000), (np.uint8, 2, 16000), (np.int32, 1, 22050),
               (np.int16, 2, 44100), (np.float64, 2, 48000)}


@pytest.mark.parametrize("rate", [16000, 22050, 44100, 48000])
@pytest.mark.parametrize("channels", [1, 2])
@pytest.mark.parametrize("dtype", [np.float32, np.float64, np.int16, np.int32, np.uint8])
def test_loaded_signal_extracts_as_its_samples_held_in_one_array(tmp_path, dtype, channels,
                                                                 rate):
    # every rate is decoded (and resampled) chunk by chunk into a mapped
    # temporary file; every LLF is the float extracted from the same
    # samples held as one array in memory
    lengths = [4960, DECODE_BLOCK - 1, DECODE_BLOCK + 1]  # at 16 kHz
    if (dtype, channels, rate) in _LONG_CASES:
        lengths.append(30 * CANONICAL_RATE)
    for i, n in enumerate(lengths):
        vowel = generate_synthetic(KINDS[i], f0=110.0 + 20 * i, duration=max(0.6, n / 16000),
                                   seed=i, sample_rate=rate).samples[:round(n * rate / 16000)]
        # float data above full scale, to be peak-normalized
        x = (1.7 if np.issubdtype(dtype, np.floating) else 0.9) * vowel / np.abs(vowel).max()
        path = tmp_path / f"v{n}.wav"
        wavfile.write(path, rate, _encode(np.stack([x, 0.8 * x], axis=1) if channels == 2
                                          else x, dtype))
        sig = load_audio(path)
        assert isinstance(sig.samples, np.ndarray)
        assert isinstance(sig.samples.base.obj, mmap.mmap)
        held = AudioSignal(np.array(sig.samples), CANONICAL_RATE)
        got, want = extract_llf_vector(sig), extract_llf_vector(held)
        assert [v.hex() for v in got.values()] == [v.hex() for v in want.values()], n


def test_load_peak_memory_below_twice_the_signal(tmp_path):
    import tracemalloc

    # a rate other than 16 kHz, which load_audio resamples chunk by chunk
    rate = 44100
    path = tmp_path / "long.wav"
    t = np.arange(40 * rate) / rate
    x = 0.5 * np.sin(2 * np.pi * 150 * t)
    _write_int16(path, rate, np.stack([x, 0.8 * x], axis=1))
    del t, x
    tracemalloc.start()
    try:
        sig = load_audio(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one chunk's temporaries: the signal is written to a mapped temporary
    # file, and neither the whole file nor a float64 copy of it at 44.1 kHz
    # (4.2 times the signal if decoded whole) is ever held
    assert peak < 0.25 * sig.samples.nbytes


def _load_peak(path):
    """tracemalloc peak of loading path, after a load that designs and
    caches its resampling filter."""
    import tracemalloc

    load_audio(path)
    tracemalloc.start()
    try:
        load_audio(path)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_resampling_memory_does_not_grow_with_the_sample_rate(tmp_path):
    # each resampling chunk reads about DECODE_BLOCK input frames whatever
    # the rate, so a 1 s stereo int16 WAV loads within 16 kB of the 48 kHz
    # one's peak at up to 8 times its rate, and a 44.1 kHz one, whose
    # filter has 8,821 taps, below 0.32 MB
    peaks = {}
    for rate in (44100, 48000, 96000, 192000, 384000):
        x = generate_synthetic("clean", f0=130.0, duration=1.0, seed=4, sample_rate=rate).samples
        path = tmp_path / f"v{rate}.wav"
        _write_int16(path, rate, np.stack([x, 0.8 * x], axis=1))
        peaks[rate] = _load_peak(path)
    for rate in (96000, 192000, 384000):
        assert peaks[rate] < peaks[48000] + 16_000, (rate, peaks)
    assert peaks[44100] < 320_000, peaks


def test_resampled_audio_leaves_nothing_in_the_temporary_directory(tmp_path, monkeypatch):
    # a 16 kHz WAV, which needs no resampling, is buffered the same way
    buffers = tmp_path / "tmp"
    buffers.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(buffers))
    for rate in (16000, 44100):
        path = tmp_path / f"a{rate}.wav"
        _write_int16(path, rate, 0.5 * np.sin(2 * np.pi * 150 * np.arange(rate) / rate))
        sig = load_audio(path)
        assert isinstance(sig.samples.base.obj, mmap.mmap)  # buffered, in an unlinked file
        assert list(buffers.iterdir()) == []
        del sig
        gc.collect()
        assert list(buffers.iterdir()) == []


@pytest.mark.parametrize("rate", [16000, 44100, 384000])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("bad_value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_non_finite_float_samples_exit_3_from_any_chunk(tmp_path, capsys, rate, dtype,
                                                        bad_value):
    # only float data can hold NaN or inf, and every chunk of it is checked:
    # the first sample, one past the first chunk edge and the last sample
    path = tmp_path / "bad.wav"
    for at in (0, DECODE_BLOCK + 1, rate - 1):
        x = np.full(rate, 0.1, dtype=dtype)
        x[at] = bad_value
        wavfile.write(path, rate, x)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no warning from the channel mean or the resampler
            assert main(["extract", str(path)]) == 3
        assert f"error: {path}: non-finite samples" in capsys.readouterr().err


def test_unsupported_sample_type_rejected(tmp_path):
    path = tmp_path / "i64.wav"
    wavfile.write(path, 16000, np.ones(4000, dtype=np.int64))
    with pytest.raises(AudioIOError, match=f"^{path}: unsupported encoding int64$"):
        load_audio(path)


def _run_python(code, *args):
    """Run code in a new interpreter that imports this package."""
    package_root = os.path.dirname(os.path.dirname(audio_io.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (package_root, os.environ.get("PYTHONPATH")))))
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=300)


_LOAD_UNDER_64_FILES = """
import resource
import sys
from voicequal.audio_io import load_audio
from voicequal.errors import AudioIOError
soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
resource.setrlimit(resource.RLIMIT_NOFILE, (64 if hard == resource.RLIM_INFINITY
                                            else min(64, hard), hard))
paths = sys.argv[1:]
for path in paths:
    signal = load_audio(path)
    assert len(signal.samples) and signal.samples[:100].shape == (100,)
    del signal
print("loaded", len(paths))
held = []
try:
    for path in paths:
        held.append(load_audio(path))
except AudioIOError as exc:
    print("held", len(held), "Too many open files" in str(exc))
"""


def test_signals_loaded_one_at_a_time_stay_within_64_open_files(tmp_path):
    # each live signal holds one descriptor through its map; dropping each
    # one before the next load, as the command line does, holds one at a
    # time, so 400 loads fit under a limit of 64 while holding them fails
    pytest.importorskip("resource")
    vowel = generate_synthetic("clean", f0=130.0, duration=0.5, seed=1)
    x = generate_synthetic("clean", f0=130.0, duration=0.5, seed=1, sample_rate=44100).samples
    pcm = np.round(np.stack([x, 0.8 * x], axis=1) * 32767).astype(np.int16)
    paths = []
    for i in range(200):
        paths += [str(tmp_path / f"a{i:03d}.wav"), str(tmp_path / f"b{i:03d}.wav")]
        save_wav(vowel, paths[-2])
        wavfile.write(paths[-1], 44100, pcm)
    result = _run_python(_LOAD_UNDER_64_FILES, *paths)
    assert result.returncode == 0, result.stderr
    loaded, held = result.stdout.splitlines()
    assert loaded == "loaded 400"
    count, named = held.split()[1:]
    assert int(count) < 64 and named == "True"


_EXTRACT_AFTER_TRUNCATION = """
import os
import re
import sys
from voicequal.audio_io import load_audio
from voicequal.llf import extract_llf_vector
path, truncate = sys.argv[1], sys.argv[2] == "truncate"
signal = load_audio(path)
if truncate:
    os.truncate(path, 0)
print(" ".join(v.hex() for v in extract_llf_vector(signal).values()))
"""


@pytest.mark.parametrize("rate", [16000, 44100])
def test_a_loaded_wav_is_not_read_again(tmp_path, rate):
    # once loaded, the source WAV may shrink: a read from a map past the end
    # of its file would kill the process with SIGBUS
    x = generate_synthetic("clean", f0=130.0, duration=2.0, seed=1, sample_rate=rate).samples
    lines = []
    for action in ("keep", "truncate"):
        path = tmp_path / f"{action}.wav"
        _write_int16(path, rate, 0.9 * x)
        result = _run_python(_EXTRACT_AFTER_TRUNCATION, str(path), action)
        assert result.returncode == 0, (result.returncode, result.stderr)
        lines.append(result.stdout)
    assert path.stat().st_size == 0
    assert lines[0] == lines[1] and len(lines[0].split()) == 25
