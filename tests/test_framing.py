import numpy as np
import pytest

from voicequal.audio_io import AudioSignal, load_audio, save_wav
from voicequal.errors import AudioIOError
from voicequal.framing import FRAME_BLOCK, FRAME_LENGTH, HOP, WINDOW, frame_signal
from voicequal.synth import generate_synthetic

from conftest import sine_signal


def test_frame_count_one_second():
    sig = sine_signal(220, duration=1.0)
    frames = frame_signal(sig)
    # floor((16000 - 400) / 160) + 1
    assert frames.n_frames == 98
    assert FRAME_LENGTH == 400
    assert HOP == 160


def test_single_frame_boundary():
    sig = sine_signal(220, duration=0.025)
    assert frame_signal(sig).n_frames == 1


def test_too_short_rejected():
    sig = sine_signal(220, duration=0.010)
    with pytest.raises(AudioIOError, match="too short"):
        frame_signal(sig)


def test_window_applied():
    sig = sine_signal(220, duration=0.1)
    frames = frame_signal(sig)
    window = np.hamming(FRAME_LENGTH)
    windowed = frames.raw_frames * WINDOW
    assert np.allclose(windowed[0], frames.raw_frames[0] * window)


def test_all_frames_equal_length_partial_dropped():
    # 0.5 s + 100 extra samples: the tail partial frame must be dropped
    sig = sine_signal(220, duration=0.5)
    x = np.concatenate([sig.samples, sig.samples[:100]])
    frames = frame_signal(AudioSignal(x, sig.sample_rate_hz, "padded"))
    assert frames.n_frames == (len(x) - 400) // 160 + 1
    assert (frames.raw_frames * WINDOW).shape == (frames.n_frames, 400)


def test_rms_is_the_per_frame_formula():
    frames = frame_signal(sine_signal(220, duration=0.2))
    expected = [np.sqrt(np.mean(raw ** 2)) for raw in frames.raw_frames]
    assert frames.rms.tolist() == expected


def test_frames_of_a_16k_wav_are_its_sample_windows(tmp_path):
    path = tmp_path / "v.wav"
    save_wav(generate_synthetic("jittered", f0=130.0, duration=3.0, seed=1), path)
    sig = load_audio(path)
    frames = frame_signal(sig)
    assert frames.n_frames > 4 * FRAME_BLOCK
    whole = np.lib.stride_tricks.sliding_window_view(np.array(sig.samples), FRAME_LENGTH)[::HOP]
    assert np.array_equal(frames.raw_frames[:], whole)
    assert not frames.raw_frames.flags.writeable
    assert np.array_equal(frames.raw_frames[50:120], whole[50:120])
    idx = np.array([0, 1, 2, 50, 51, 52, 53, 200, 203, len(whole) - 1])
    assert np.array_equal(frames.raw_frames[idx], whole[idx])
    assert np.array_equal(frames.raw_frames[-1], whole[-1])
