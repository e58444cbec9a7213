"""Audio pipeline tests: WAV parsing, peak cropping, resampling, Mel maps.

Oracles: hand-assembled RIFF byte strings for the parser, FFT spectra
for the resampler, and an independently coded triangular filterbank for
the Mel tone test.
"""

import struct

import numpy as np
import pytest

from pineq import audio
from pineq.audio import (
    MalformedWavError,
    SilentInputError,
    UnsupportedRateError,
    UnsupportedWavError,
    crop_segment,
    detect_peak,
    mel_spectrogram,
    normalize_amplitude,
    preprocess_audio,
    read_wav,
    resample,
    write_wav,
)


def make_wav(samples_i16, sample_rate=48000, channels=1, bits=16, fmt=1,
             data_override=None):
    """Assemble a RIFF/WAVE byte string from scratch."""
    data = data_override
    if data is None:
        data = struct.pack(f"<{len(samples_i16)}h", *samples_i16)
    block = channels * bits // 8
    fmt_chunk = struct.pack(
        "<HHIIHH", fmt, channels, sample_rate, sample_rate * block, block, bits
    )
    body = (
        b"WAVE"
        + b"fmt " + struct.pack("<I", len(fmt_chunk)) + fmt_chunk
        + b"data" + struct.pack("<I", len(data)) + data
    )
    return b"RIFF" + struct.pack("<I", len(body)) + body


# ---------------------------------------------------------------------------
# WAV parsing
# ---------------------------------------------------------------------------


def test_read_wav_scaling_is_exact():
    wav = make_wav([0, 16384, -16384, 32767, -32768])
    np.testing.assert_array_equal(
        read_wav(wav),
        np.array([0.0, 0.5, -0.5, 32767 / 32768, -1.0]),
    )


def test_read_wav_stereo_averages_channels():
    # interleaved L/R pairs
    wav = make_wav([1000, 3000, -2000, 2000], channels=2)
    np.testing.assert_allclose(
        read_wav(wav), np.array([2000.0, 0.0]) / 32768, rtol=0, atol=0
    )


@pytest.mark.parametrize("channels, data", [
    (1, b"\x01\x02\x03"),
    (2, struct.pack("<3h", 1, 2, 3)),
], ids=["mono-odd-bytes", "stereo-three-samples"])
def test_read_wav_rejects_partial_frames(channels, data):
    with pytest.raises(MalformedWavError, match="not whole"):
        read_wav(make_wav([], channels=channels, data_override=data))


def test_read_wav_skips_unknown_chunks():
    plain = make_wav([1, 2, 3])
    # splice a junk chunk between fmt and data
    head, data_part = plain.split(b"data", 1)
    junk = b"LIST" + struct.pack("<I", 4) + b"info"
    spliced = head + junk + b"data" + data_part
    spliced = spliced[:4] + struct.pack("<I", len(spliced) - 8) + spliced[8:]
    assert len(read_wav(spliced)) == 3


def test_read_wav_rejects_bad_magic():
    wav = bytearray(make_wav([0, 1]))
    wav[:4] = b"JUNK"
    with pytest.raises(MalformedWavError):
        read_wav(bytes(wav))


def test_read_wav_rejects_truncated_data():
    wav = make_wav([0] * 100)
    with pytest.raises(MalformedWavError):
        read_wav(wav[:-10])


def test_read_wav_rejects_float_format():
    with pytest.raises(UnsupportedWavError):
        read_wav(make_wav([0, 1], fmt=3))


def test_read_wav_rejects_non_16bit():
    with pytest.raises(UnsupportedWavError):
        read_wav(make_wav([], bits=8, data_override=b"\x80\x80"))


def test_read_wav_rejects_three_channels():
    with pytest.raises(UnsupportedWavError):
        read_wav(make_wav([0, 0, 0], channels=3))


def test_read_wav_rejects_other_rates():
    # the chain's one rate check: every later stage assumes 48 kHz input
    wav = make_wav([0, 1], sample_rate=44100)
    with pytest.raises(UnsupportedRateError, match="capture rate 44100, expected 48000"):
        read_wav(wav)
    with pytest.raises(UnsupportedRateError):
        preprocess_audio(wav)


def test_write_wav_roundtrip():
    rng = np.random.default_rng(3)
    x = rng.uniform(-1, 1, 500)
    back = read_wav(write_wav(x, 48000))
    # quantized to int16, so exact to within one step
    np.testing.assert_allclose(back, x, atol=1.0 / 32768)


# ---------------------------------------------------------------------------
# normalization / peak / crop
# ---------------------------------------------------------------------------


def test_normalize_amplitude_to_unit_interval():
    n = normalize_amplitude(np.array([-0.5, 0.0, 0.25, 1.0]))
    np.testing.assert_allclose(n, np.array([0.0, 1 / 3, 0.5, 1.0]))
    assert n.min() == 0.0 and n.max() == 1.0


def test_normalize_amplitude_rejects_constant_signal():
    with pytest.raises(SilentInputError):
        normalize_amplitude(np.full(100, 0.25))


def test_detect_peak_first_of_ties():
    assert detect_peak(np.array([0.1, 0.9, 0.3, 0.9, 0.0])) == 1


def test_crop_window_for_centred_peak():
    x = np.zeros(3 * 48000)
    x[48000] = 1.0
    seg = crop_segment(x, 48000)
    assert len(seg) == 19200
    # the window is [peak - 0.1 s, peak + 0.3 s) == [43200, 62400)
    marker = np.zeros(3 * 48000)
    marker[43200] = 0.5
    marker[62399] = 0.25
    seg2 = crop_segment(marker, 48000)
    assert seg2[0] == 0.5
    assert seg2[-1] == 0.25


def test_crop_zero_pads_leading_edge():
    x = np.arange(1, 3 * 48000 + 1, dtype=np.float64) / 1e9
    seg = crop_segment(x, 1000)
    assert len(seg) == 19200
    np.testing.assert_array_equal(seg[:3800], np.zeros(3800))
    assert seg[3800] == x[0]


def test_crop_zero_pads_trailing_edge():
    n = 2 * 48000
    x = np.ones(n)
    seg = crop_segment(x, n - 1)
    assert len(seg) == 19200
    np.testing.assert_array_equal(seg[-14399:], np.zeros(14399))
    assert seg[4800] == 1.0


def test_crop_length_invariant_for_random_peaks():
    rng = np.random.default_rng(5)
    x = rng.uniform(0, 1, 48000)
    for _ in range(20):
        peak = int(rng.integers(0, len(x)))
        seg = crop_segment(x, peak)
        assert len(seg) == 19200


def test_crop_rejects_out_of_range_peak():
    with pytest.raises(ValueError):
        crop_segment(np.zeros(100), 100)


# ---------------------------------------------------------------------------
# resampling
# ---------------------------------------------------------------------------


def test_resample_length_formula():
    rng = np.random.default_rng(7)
    assert len(resample(np.zeros(19200))) == 8820
    for _ in range(100):
        n = int(rng.integers(64, 100_000))
        out = resample(rng.uniform(-1, 1, n))
        expected = (n * 147 + 160) // 320  # round(n * 147/320), half away from zero
        assert len(out) == expected


def test_resample_preserves_dc_exactly():
    for c in (0.37, -1.0, 123.456):
        out = resample(np.full(19200, c))
        np.testing.assert_array_equal(out, np.full(8820, c))


def test_resample_keeps_1khz_tone_at_1khz():
    t = np.arange(48000) / 48000.0
    tone = np.sin(2 * np.pi * 1000.0 * t)
    out = resample(tone)
    spec = np.abs(np.fft.rfft(out * np.hanning(len(out))))
    freqs = np.fft.rfftfreq(len(out), 1 / 22050.0)
    peak_hz = freqs[spec.argmax()]
    assert abs(peak_hz - 1000.0) <= freqs[1]  # within one FFT bin


def test_resample_attenuates_out_of_band_noise():
    rng = np.random.default_rng(11)
    x = rng.standard_normal(48000)
    out = resample(x)
    # energy above the 11.025 kHz cutoff must mostly vanish; compare the
    # variance ratio to the ideal 22050/48000 band fraction
    assert out.var() < 0.55 * x.var()
    assert out.var() > 0.25 * x.var()


# ---------------------------------------------------------------------------
# Mel spectrogram
# ---------------------------------------------------------------------------


def reference_filterbank():
    """Independently coded 128-triangle filterbank over 0..11025 Hz."""
    def hz_to_mel(f):
        return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)

    def mel_to_hz(m):
        return 700.0 * (10.0 ** (np.asarray(m) / 2595.0) - 1.0)

    pts = mel_to_hz(np.linspace(hz_to_mel(0.0), hz_to_mel(11025.0), 130))
    freqs = np.arange(257) * 22050.0 / 512.0
    fb = np.zeros((128, 257))
    for b in range(128):
        lo, mid, hi = pts[b], pts[b + 1], pts[b + 2]
        up = (freqs - lo) / (mid - lo)
        down = (hi - freqs) / (hi - mid)
        fb[b] = np.clip(np.minimum(up, down), 0.0, None)
    return fb, pts


def test_mel_shape_is_exactly_1024_by_128():
    rng = np.random.default_rng(13)
    for n in (1, 100, 8192, 8820, 19200):
        m = mel_spectrogram(rng.uniform(0, 1, n))
        assert m.shape == (1024, 128)
        assert m.dtype == np.float32


def test_mel_of_silence_is_floor_everywhere():
    m = mel_spectrogram(np.zeros(8820))
    np.testing.assert_array_equal(m, np.full((1024, 128), np.log(1e-10), np.float32))


def test_mel_entries_never_below_floor():
    rng = np.random.default_rng(17)
    m = mel_spectrogram(rng.uniform(0, 1, 8820))
    assert (m >= np.float32(np.log(1e-10))).all()


def test_mel_monotone_in_signal_scale():
    rng = np.random.default_rng(19)
    x = rng.uniform(-1, 1, 8820)
    m1 = mel_spectrogram(x)
    m2 = mel_spectrogram(2.0 * x)
    assert (m2 >= m1).all()


def test_mel_is_deterministic():
    rng = np.random.default_rng(23)
    x = rng.uniform(-1, 1, 8820)
    a = mel_spectrogram(x)
    b = mel_spectrogram(x.copy())
    assert a.tobytes() == b.tobytes()


def test_mel_tone_lands_in_expected_band():
    fb, _ = reference_filterbank()
    # expected bin: feed an independently computed windowed-tone power
    # spectrum through the reference filterbank
    n = np.arange(512)
    frame = np.sin(2 * np.pi * 1000.0 / 22050.0 * n) * (
        0.5 - 0.5 * np.cos(2 * np.pi * n / 512)
    )
    power = np.abs(np.fft.rfft(frame)) ** 2
    expected = int((fb @ power).argmax())

    t = np.arange(8820) / 22050.0
    tone = np.sin(2 * np.pi * 1000.0 * t)
    m = mel_spectrogram(tone)
    interior = m[64:960]
    hits = (interior.argmax(axis=1) == expected).mean()
    assert hits == 1.0, f"argmax band drifted: {hits:.3f} agree, expected bin {expected}"


# ---------------------------------------------------------------------------
# full chain
# ---------------------------------------------------------------------------


def test_preprocess_audio_impulse_chain():
    x = np.zeros(3 * 48000)
    x[48000] = 1.0
    feat = preprocess_audio(write_wav(x, 48000))
    assert feat.shape == (1024, 128)
    assert feat.dtype == np.float32
    assert np.isfinite(feat).all()


def test_preprocess_audio_is_deterministic():
    rng = np.random.default_rng(29)
    x = rng.uniform(-0.5, 0.5, 48000)
    x[24000] = 1.0
    wav = write_wav(x, 48000)
    assert preprocess_audio(wav).tobytes() == preprocess_audio(wav).tobytes()
