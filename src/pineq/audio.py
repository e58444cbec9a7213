"""Tap-audio signal chain: WAV in, log-Mel map out.

The chain mirrors how the recordings are used downstream:

1. :func:`read_wav` parses RIFF/PCM16 bytes into float samples and
   rejects any capture rate but 48 kHz, the one rate check of the chain.
2. :func:`normalize_amplitude` min-max scales into [0, 1].
3. :func:`detect_peak` finds the tap (global maximum, first on ties).
4. :func:`crop_segment` keeps 0.1 s before to 0.3 s after the peak,
   zero-padding where the window leaves the recording.
5. :func:`resample` brings 48 kHz material down to 22 050 Hz with a
   polyphase windowed-sinc kernel at the exact 147/320 ratio.
6. :func:`mel_spectrogram` produces the fixed 1024x128 log-Mel map.

Every stage takes and returns a plain float array; the rate each one
reads is fixed (48 kHz up to the resampler, 22 050 Hz after it).

Frame-count note: a centred STFT with hop 8 would give 1 + len//8
frames, which for the canonical 8820-sample crop is 1103.  To pin the
map at exactly 1024 frames for any input length, signals shorter than
8184 samples are symmetrically zero-padded up to it and longer signals
contribute their middle 1024 frame positions.
"""

from __future__ import annotations

import struct
from functools import lru_cache

import numpy as np

__all__ = [
    "MalformedWavError",
    "UnsupportedWavError",
    "UnsupportedRateError",
    "SilentInputError",
    "read_wav",
    "write_wav",
    "normalize_amplitude",
    "detect_peak",
    "crop_segment",
    "resample",
    "mel_spectrogram",
    "preprocess_audio",
]

##### chain constants #####

CAPTURE_RATE = 48000
TARGET_RATE = 22050
CROP_BEFORE_S = 0.1
CROP_TOTAL_S = 0.4
_CROP_BEFORE = round(CROP_BEFORE_S * CAPTURE_RATE)  # 4800 samples
_CROP_TOTAL = round(CROP_TOTAL_S * CAPTURE_RATE)  # 19200 samples

MEL_FRAMES = 1024
MEL_BANDS = 128
MEL_WIN = 512
MEL_HOP = 8
MEL_FLOOR = 1e-10
MEL_FMAX = 11025.0

# resampler geometry: 22050/48000 reduced
_UP = 147
_DOWN = 320
_HALF_TAPS = 16  # sinc half-width in input samples


class MalformedWavError(ValueError):
    """The byte stream is not a structurally valid RIFF/WAVE file."""


class UnsupportedWavError(ValueError):
    """Valid WAV, but not PCM16 mono/stereo."""


class UnsupportedRateError(ValueError):
    """The chain only handles 48 kHz capture material."""


class SilentInputError(ValueError):
    """Amplitude normalization is undefined for an all-equal signal."""


# ---------------------------------------------------------------------------
# RIFF / WAVE
# ---------------------------------------------------------------------------


def read_wav(data: bytes) -> np.ndarray:
    """Parse 48 kHz PCM16 WAV bytes into mono samples; stereo is averaged.

    Samples are scaled by 1/32768 so full-scale negative maps to -1.0.
    Unknown chunks are skipped.  Raises :class:`MalformedWavError` for
    structural problems, :class:`UnsupportedWavError` for valid but
    unsupported encodings and :class:`UnsupportedRateError` for any
    rate but :data:`CAPTURE_RATE`.
    """
    if len(data) < 12 or data[:4] != b"RIFF" or data[8:12] != b"WAVE":
        raise MalformedWavError("missing RIFF/WAVE header")
    pos = 12
    fmt = None
    raw = None
    while pos + 8 <= len(data):
        cid = data[pos : pos + 4]
        (size,) = struct.unpack("<I", data[pos + 4 : pos + 8])
        body = data[pos + 8 : pos + 8 + size]
        if len(body) < size:
            raise MalformedWavError(f"chunk {cid!r} truncated")
        if cid == b"fmt ":
            if size < 16:
                raise MalformedWavError("fmt chunk too small")
            fmt = struct.unpack("<HHIIHH", body[:16])
        elif cid == b"data":
            raw = body
        pos += 8 + size + (size & 1)  # chunks are word-aligned
    if fmt is None or raw is None:
        raise MalformedWavError("fmt or data chunk missing")
    codec, channels, rate, _byte_rate, _block, bits = fmt
    if codec != 1:
        raise UnsupportedWavError(f"compression code {codec}, expected PCM")
    if bits != 16:
        raise UnsupportedWavError(f"{bits}-bit samples, expected 16")
    if channels not in (1, 2):
        raise UnsupportedWavError(f"{channels} channels, expected 1 or 2")
    if rate != CAPTURE_RATE:
        raise UnsupportedRateError(f"capture rate {rate}, expected {CAPTURE_RATE}")
    if len(raw) % (2 * channels):
        raise MalformedWavError(
            f"data chunk of {len(raw)} bytes is not whole {channels}-channel PCM16 frames")
    frames = np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32768.0
    if channels == 2:
        frames = frames.reshape(-1, 2).mean(axis=1)
    return frames


def write_wav(samples: np.ndarray, sample_rate: int) -> bytes:
    """Encode float samples in [-1, 1] as mono PCM16 WAV bytes."""
    q = np.clip(np.asarray(samples, dtype=np.float64) * 32768.0, -32768, 32767)
    data = q.astype("<i2").tobytes()
    fmt_chunk = struct.pack(
        "<HHIIHH", 1, 1, sample_rate, sample_rate * 2, 2, 16
    )
    body = (
        b"WAVE"
        + b"fmt " + struct.pack("<I", len(fmt_chunk)) + fmt_chunk
        + b"data" + struct.pack("<I", len(data)) + data
    )
    return b"RIFF" + struct.pack("<I", len(body)) + body


# ---------------------------------------------------------------------------
# normalization, peak, crop
# ---------------------------------------------------------------------------


def normalize_amplitude(x: np.ndarray) -> np.ndarray:
    """Min-max scale the samples onto [0, 1]."""
    x = np.asarray(x, dtype=np.float64)
    lo = x.min()
    hi = x.max()
    if hi == lo:
        raise SilentInputError("all samples equal; nothing to normalize")
    return (x - lo) / (hi - lo)


def detect_peak(x: np.ndarray) -> int:
    """Index of the global maximum; the first index wins ties."""
    return int(np.argmax(x))


def crop_segment(x: np.ndarray, peak: int) -> np.ndarray:
    """Window [peak - 0.1 s, peak + 0.3 s) of 48 kHz samples, zero-padded
    at the edges.

    The result always has exactly 19 200 samples.
    """
    x = np.asarray(x)
    if not 0 <= peak < len(x):
        raise ValueError(f"peak {peak} outside signal of length {len(x)}")
    start = peak - _CROP_BEFORE
    out = np.zeros(_CROP_TOTAL, dtype=np.float64)
    lo = max(start, 0)
    hi = min(start + _CROP_TOTAL, len(x))
    if hi > lo:
        out[lo - start : hi - start] = x[lo:hi]
    return out


# ---------------------------------------------------------------------------
# resampling 48000 -> 22050
# ---------------------------------------------------------------------------


@lru_cache(maxsize=1)
def _phase_table() -> np.ndarray:
    """Per-phase windowed-sinc taps, each row normalized to unit sum."""
    cutoff = _UP / _DOWN
    taps = 2 * _HALF_TAPS
    rows = np.empty((_UP, taps))
    i = np.arange(taps)
    for p in range(_UP):
        u = i - (_HALF_TAPS - 1) - p / _UP  # offset from the output instant
        h = cutoff * np.sinc(cutoff * u) * (0.5 + 0.5 * np.cos(np.pi * u / _HALF_TAPS))
        h[np.abs(u) >= _HALF_TAPS] = 0.0
        rows[p] = h / h.sum()
    return rows


def resample(x: np.ndarray) -> np.ndarray:
    """Polyphase windowed-sinc resample of 48 kHz samples to 22 050 Hz.

    Output length is round(len * 147/320), rounding half away from
    zero.  A constant signal resamples to exactly the same constant:
    the kernel is applied to differences around a reference sample, so
    unit-sum rounding error never leaks into flat regions.
    """
    x = np.asarray(x, dtype=np.float64)
    n_in = len(x)
    n_out = (n_in * _UP + _DOWN // 2) // _DOWN
    if n_out == 0:
        return np.zeros(0)
    pos = np.arange(n_out, dtype=np.int64) * _DOWN
    base = pos // _UP
    phase = pos % _UP
    taps = 2 * _HALF_TAPS
    idx = base[:, None] + (np.arange(taps) - (_HALF_TAPS - 1))
    np.clip(idx, 0, n_in - 1, out=idx)  # replicate edges
    weights = _phase_table()[phase]
    ref = x[np.clip(np.rint(pos / _UP).astype(np.int64), 0, n_in - 1)]
    out = ref + ((x[idx] - ref[:, None]) * weights).sum(axis=1)
    return out


# ---------------------------------------------------------------------------
# Mel spectrogram
# ---------------------------------------------------------------------------


def _hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def _mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


@lru_cache(maxsize=1)
def mel_filterbank() -> np.ndarray:
    """(128, 257) triangular filters spanning 0..11025 Hz, peak 1."""
    pts = _mel_to_hz(np.linspace(0.0, _hz_to_mel(MEL_FMAX), MEL_BANDS + 2))
    freqs = np.arange(MEL_WIN // 2 + 1) * (TARGET_RATE / MEL_WIN)
    lo = pts[:-2, None]
    mid = pts[1:-1, None]
    hi = pts[2:, None]
    rising = (freqs[None] - lo) / (mid - lo)
    falling = (hi - freqs[None]) / (hi - mid)
    return np.clip(np.minimum(rising, falling), 0.0, None)


@lru_cache(maxsize=1)
def _hann_window() -> np.ndarray:
    n = np.arange(MEL_WIN)
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * n / MEL_WIN)


def mel_spectrogram(x: np.ndarray) -> np.ndarray:
    """Log-scaled Mel map of 22 050 Hz samples, exactly (1024, 128)
    float32 for any input length.

    Window 512, hop 8, periodic Hann, centred frames over
    reflect-padded signal, power spectra through the triangular
    filterbank, then natural log of (energy + 1e-10).
    """
    x = np.asarray(x, dtype=np.float64)
    if x.size < 1:
        raise ValueError("mel_spectrogram needs at least one sample")
    canonical = (MEL_FRAMES - 1) * MEL_HOP  # 8184
    if x.size < canonical:
        pad = canonical - x.size
        x = np.pad(x, (pad // 2, pad - pad // 2))
        offset = 0
    else:
        natural = 1 + x.size // MEL_HOP
        offset = (natural - MEL_FRAMES) // 2
    xp = np.pad(x, MEL_WIN // 2, mode="reflect")
    starts = (offset + np.arange(MEL_FRAMES)) * MEL_HOP
    frames = np.lib.stride_tricks.sliding_window_view(xp, MEL_WIN)[starts]
    spectra = np.fft.rfft(frames * _hann_window(), axis=1)
    power = spectra.real**2 + spectra.imag**2
    energies = power @ mel_filterbank().T
    return np.log(energies + MEL_FLOOR).astype(np.float32)


def preprocess_audio(data: bytes) -> np.ndarray:
    """Full chain from WAV bytes to the (1024, 128) float32 Mel map."""
    x = normalize_amplitude(read_wav(data))
    seg = crop_segment(x, detect_peak(x))
    return mel_spectrogram(resample(seg))
