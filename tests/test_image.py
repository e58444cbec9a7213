"""Image pipeline tests: PPM parsing, bilinear resize."""

import numpy as np
import pytest

from pineq.image import (
    MalformedImageError,
    UnsupportedImageError,
    preprocess_image,
    read_image,
    resize_bilinear,
    write_ppm,
)


def make_ppm(pixels: np.ndarray, header=b"P6") -> bytes:
    h, w, _ = pixels.shape
    return header + f"\n{w} {h}\n255\n".encode() + pixels.astype(np.uint8).tobytes()


def naive_resize(img, oh, ow):
    """Per-pixel bilinear resize with half-pixel centers (loop oracle)."""
    h, w, c = img.shape
    out = np.zeros((oh, ow, c))
    for y in range(oh):
        for x in range(ow):
            sy = min(max((y + 0.5) * h / oh - 0.5, 0.0), h - 1.0)
            sx = min(max((x + 0.5) * w / ow - 0.5, 0.0), w - 1.0)
            y0, x0 = int(sy), int(sx)
            y1, x1 = min(y0 + 1, h - 1), min(x0 + 1, w - 1)
            fy, fx = sy - y0, sx - x0
            top = img[y0, x0] * (1 - fx) + img[y0, x1] * fx
            bot = img[y1, x0] * (1 - fx) + img[y1, x1] * fx
            out[y, x] = top * (1 - fy) + bot * fy
    return out


def test_read_ppm_values_and_shape():
    px = np.arange(2 * 3 * 3, dtype=np.uint8).reshape(2, 3, 3)
    img = read_image(make_ppm(px))
    assert img.shape == (2, 3, 3)
    np.testing.assert_allclose(img, px / 255.0)


def test_read_ppm_accepts_comments_and_whitespace():
    px = np.full((2, 2, 3), 128, dtype=np.uint8)
    data = b"P6   # a comment\n# another\n 2\t2 \n255\n" + px.tobytes()
    img = read_image(data)
    np.testing.assert_allclose(img, np.full((2, 2, 3), 128 / 255.0))


def test_read_ppm_rejects_bad_magic():
    with pytest.raises(MalformedImageError):
        read_image(b"JUNKJUNKJUNK")


def test_read_ppm_rejects_grayscale():
    with pytest.raises(UnsupportedImageError):
        read_image(b"P5\n2 2\n255\n" + bytes(4))


def test_read_ppm_rejects_truncated_pixels():
    px = np.zeros((4, 4, 3), dtype=np.uint8)
    with pytest.raises(MalformedImageError):
        read_image(make_ppm(px)[:-5])


def test_read_ppm_rejects_unusual_maxval():
    px = np.zeros((1, 1, 3), dtype=np.uint8)
    data = b"P6\n1 1\n65535\n" + bytes(6)
    with pytest.raises(UnsupportedImageError):
        read_image(data)


def test_decode_hook_handles_foreign_formats():
    with pytest.raises(MalformedImageError):
        read_image(b"\x89OTHER")  # not a PPM


def test_write_ppm_roundtrip():
    rng = np.random.default_rng(4)
    px = rng.integers(0, 256, (5, 7, 3), dtype=np.uint8)
    back = read_image(write_ppm(px / 255.0))
    np.testing.assert_allclose(back, px / 255.0)


def test_resize_identity_is_exact():
    rng = np.random.default_rng(6)
    img = rng.uniform(0, 1, (9, 11, 3))
    out = resize_bilinear(img, 9, 11)
    np.testing.assert_array_equal(out, img)


def test_resize_matches_naive_loop():
    rng = np.random.default_rng(8)
    img = rng.uniform(0, 1, (7, 5, 3))
    for oh, ow in [(14, 10), (3, 4), (224, 224), (7, 9)]:
        got = resize_bilinear(img, oh, ow)
        np.testing.assert_allclose(got, naive_resize(img, oh, ow), atol=1e-12)


def test_resize_preserves_value_range():
    rng = np.random.default_rng(9)
    img = rng.uniform(0.2, 0.8, (16, 16, 3))
    out = resize_bilinear(img, 50, 33)
    assert out.min() >= img.min() - 1e-12
    assert out.max() <= img.max() + 1e-12


def test_resize_constant_stays_constant():
    img = np.full((10, 20, 3), 0.4)
    out = resize_bilinear(img, 224, 224)
    np.testing.assert_allclose(out, 0.4, rtol=0, atol=1e-12)


def test_preprocess_image_standardization():
    px = np.zeros((8, 8, 3), dtype=np.uint8)
    px[..., 0] = 255   # red channel full on
    feat = preprocess_image(make_ppm(px))
    assert feat.shape == (224, 224, 3)
    assert feat.dtype == np.float32
    np.testing.assert_allclose(feat[..., 0], 1.0)
    np.testing.assert_allclose(feat[..., 1], -1.0)


def test_preprocess_image_is_deterministic():
    rng = np.random.default_rng(10)
    data = write_ppm(rng.uniform(0, 1, (33, 47, 3)))
    assert preprocess_image(data).tobytes() == preprocess_image(data).tobytes()
