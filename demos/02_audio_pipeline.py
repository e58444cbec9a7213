"""Walk a synthetic tap recording through every audio stage.

A fruit tap is modelled as a damped oscillation buried in a longer noisy
capture. Each preprocessing stage runs separately so its effect is
visible, then the one-shot helper is shown to match the manual chain.
"""

import numpy as np

from pineq.audio import (
    CAPTURE_RATE,
    TARGET_RATE,
    crop_segment,
    detect_peak,
    mel_spectrogram,
    normalize_amplitude,
    preprocess_audio,
    read_wav,
    resample,
    write_wav,
)

rng = np.random.default_rng(42)

# --- synthesize a 3 s capture with the tap 1.2 s in ----------------------
t = np.arange(3 * CAPTURE_RATE) / CAPTURE_RATE
onset = 1.2
tap = np.exp(-40.0 * np.clip(t - onset, 0, None)) * np.sin(
    2 * np.pi * 420.0 * (t - onset))
tap[t < onset] = 0.0
capture = 0.7 * tap + 0.005 * rng.normal(size=t.shape)
wav_bytes = write_wav(capture, CAPTURE_RATE)
print(f"capture: {len(wav_bytes)} bytes of WAV at {CAPTURE_RATE} Hz")

# --- stage by stage -------------------------------------------------------
x = read_wav(wav_bytes)  # any rate but CAPTURE_RATE is rejected here
print(f"decoded: {len(x)} samples, range [{x.min():.3f}, {x.max():.3f}]")

x = normalize_amplitude(x)
print(f"normalized: range [{x.min():.3f}, {x.max():.3f}]")

peak = detect_peak(x)
print(f"peak index {peak} = {peak / CAPTURE_RATE:.3f} s "
      f"(tap onset was {onset} s)")

seg = crop_segment(x, peak)
print(f"crop: {len(seg)} samples "
      f"({len(seg) / CAPTURE_RATE:.1f} s around the peak)")

ds = resample(seg)
print(f"resampled: {len(ds)} samples at {TARGET_RATE} Hz")

mel = mel_spectrogram(ds)
print(f"log-mel map: {mel.shape}, dtype {mel.dtype}, "
      f"range [{mel.min():.2f}, {mel.max():.2f}]")
# the [0,1] amplitude normalization parks broadband offset energy in the
# lowest bands, so look above them for the tap's resonance
band = 4 + int(np.argmax(mel.mean(axis=0)[4:]))
print(f"strongest band above the offset floor: {band} of 128 "
      f"(420 Hz tap resonance)")

# --- the one-shot helper is exactly the composition above -----------------
assert np.array_equal(preprocess_audio(wav_bytes), mel)
print("preprocess_audio(bytes) == manual five-stage chain: OK")
