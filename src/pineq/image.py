"""Photo preparation: PPM decoding, bilinear resize to 224x224.

Only binary PPM (P6, maxval 255) is decoded; any other byte stream is
rejected with an error that says why.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "MalformedImageError",
    "UnsupportedImageError",
    "read_image",
    "write_ppm",
    "resize_bilinear",
    "preprocess_image",
]

TARGET_SIZE = 224


class MalformedImageError(ValueError):
    """Not a parseable image byte stream."""


class UnsupportedImageError(ValueError):
    """Parseable, but not 3-channel 8-bit data."""


def _header_tokens(data: bytes, count: int) -> tuple[list[bytes], int]:
    """Read whitespace/comment-separated header tokens, return end offset."""
    tokens: list[bytes] = []
    i = 0
    while len(tokens) < count:
        if i >= len(data):
            raise MalformedImageError("truncated header")
        c = data[i : i + 1]
        if c == b"#":
            while i < len(data) and data[i : i + 1] != b"\n":
                i += 1
        elif c.isspace():
            i += 1
        else:
            j = i
            while j < len(data) and not data[j : j + 1].isspace() and data[j : j + 1] != b"#":
                j += 1
            tokens.append(data[i:j])
            i = j
    return tokens, i


def read_image(data: bytes) -> np.ndarray:
    """Decode a P6 PPM to an (H, W, 3) float64 array in [0, 1].

    P5 (grayscale) raises :class:`UnsupportedImageError`; any other
    leading bytes raise :class:`MalformedImageError`.
    """
    if data[:2] == b"P5":
        raise UnsupportedImageError("grayscale PGM; need 3-channel data")
    if data[:2] != b"P6":
        raise MalformedImageError(f"not a P6 PPM (starts {data[:2]!r})")
    tokens, end = _header_tokens(data[2:], 3)
    try:
        width, height, maxval = (int(t) for t in tokens)
    except ValueError as exc:
        raise MalformedImageError(f"non-numeric header fields {tokens}") from exc
    if maxval != 255:
        raise UnsupportedImageError(f"maxval {maxval}, expected 255")
    if width < 1 or height < 1:
        raise MalformedImageError(f"bad dimensions {width}x{height}")
    start = 2 + end + 1  # single whitespace byte after maxval
    need = width * height * 3
    raw = data[start : start + need]
    if len(raw) < need:
        raise MalformedImageError(
            f"pixel data truncated: need {need} bytes, have {len(raw)}"
        )
    img = np.frombuffer(raw, dtype=np.uint8).reshape(height, width, 3)
    return img.astype(np.float64) / 255.0


def write_ppm(img: np.ndarray) -> bytes:
    """Encode an (H, W, 3) float array in [0, 1] as binary PPM."""
    arr = np.clip(np.asarray(img, dtype=np.float64), 0.0, 1.0)
    q = np.rint(arr * 255.0).astype(np.uint8)
    h, w, _ = q.shape
    return b"P6\n" + f"{w} {h}\n255\n".encode() + q.tobytes()


def _axis_lerp(n_src: int, n_dst: int):
    centers = (np.arange(n_dst) + 0.5) * (n_src / n_dst) - 0.5
    centers = np.clip(centers, 0.0, n_src - 1.0)
    i0 = centers.astype(np.int64)
    i1 = np.minimum(i0 + 1, n_src - 1)
    frac = centers - i0
    return i0, i1, frac


def resize_bilinear(img: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Bilinear resize with half-pixel-aligned sample centers.

    Same-size calls return the input values bit-exactly, and outputs
    never leave the input value range (convex interpolation).
    """
    h, w = img.shape[:2]
    if out_h == h and out_w == w:
        return img.copy()
    y0, y1, fy = _axis_lerp(h, out_h)
    x0, x1, fx = _axis_lerp(w, out_w)
    fy = fy[:, None, None]
    fx = fx[None, :, None]
    top = img[np.ix_(y0, x0)] * (1 - fx) + img[np.ix_(y0, x1)] * fx
    bot = img[np.ix_(y1, x0)] * (1 - fx) + img[np.ix_(y1, x1)] * fx
    return top * (1 - fy) + bot * fy


def preprocess_image(data: bytes) -> np.ndarray:
    """Bytes to standardized (224, 224, 3) float32: resize, then (x-0.5)/0.5."""
    resized = resize_bilinear(read_image(data), TARGET_SIZE, TARGET_SIZE)
    return ((resized - 0.5) / 0.5).astype(np.float32)
