"""Binary tensor container and checkpoint round-trips."""

import struct

import numpy as np
import pytest

from pineq.tensorio import (
    FormatError,
    load_checkpoint,
    save_checkpoint,
    tensor_from_bytes,
    tensor_to_bytes,
)


def golden_bytes():
    """Hand-assembled container for [[1,2,3],[4,5,6]] float32."""
    payload = struct.pack("<6f", 1, 2, 3, 4, 5, 6)
    return b"PQCT" + struct.pack("<HH", 1, 2) + struct.pack("<II", 2, 3) + payload


def test_encoding_matches_golden_bytes():
    arr = np.arange(1, 7, dtype=np.float32).reshape(2, 3)
    assert tensor_to_bytes(arr) == golden_bytes()


def test_decoding_golden_bytes():
    arr = tensor_from_bytes(golden_bytes())
    assert arr.dtype == np.float32
    np.testing.assert_array_equal(arr, np.arange(1, 7, dtype=np.float32).reshape(2, 3))


def test_file_roundtrip_exact():
    rng = np.random.default_rng(0)
    for shape in [(7,), (3, 4), (2, 3, 4), (1, 2, 3, 4)]:
        arr = rng.standard_normal(shape).astype(np.float32)
        back = tensor_from_bytes(tensor_to_bytes(arr))
        assert back.shape == arr.shape
        np.testing.assert_array_equal(back, arr)


def test_float64_input_is_stored_as_f32():
    arr = np.array([[1.25, 2.5]], dtype=np.float64)
    back = tensor_from_bytes(tensor_to_bytes(arr))
    assert back.dtype == np.float32
    np.testing.assert_array_equal(back, arr.astype(np.float32))


@pytest.mark.parametrize(
    "mutate",
    [
        lambda b: b"XXXX" + b[4:],                 # bad magic
        lambda b: b[:4] + struct.pack("<H", 9) + b[6:],  # unknown version
        lambda b: b[:-3],                          # truncated payload
        lambda b: b[:10],                          # truncated header
    ],
)
def test_malformed_container_raises(mutate):
    with pytest.raises(FormatError):
        tensor_from_bytes(mutate(golden_bytes()))


def test_checkpoint_roundtrip_and_index(tmp_path):
    rng = np.random.default_rng(1)
    named = {
        "head.w": rng.standard_normal((4, 3)).astype(np.float32),
        "head.b": rng.standard_normal((3,)).astype(np.float32),
        "emb": rng.standard_normal((2, 5, 2)).astype(np.float32),
        "scale": np.float32(0.5),
    }
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(ckpt, named)
    idx_lines = (tmp_path / "model.ckpt.idx").read_text().strip().splitlines()
    assert len(idx_lines) == 4
    # each line: name, byte offset, shape
    name, offset, shape = idx_lines[0].split()
    assert name == "head.w" and offset == "0" and shape == "4x3"
    back = load_checkpoint(ckpt)
    assert list(back) == list(named)  # order preserved
    for key in named:
        np.testing.assert_array_equal(back[key], named[key])


def test_checkpoint_rejects_index_shape_mismatch(tmp_path):
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(ckpt, {"w": np.ones((2, 3), dtype=np.float32)})
    idx = tmp_path / "model.ckpt.idx"
    assert idx.read_text() == "w 0 2x3\n"
    idx.write_text("w 0 7x7\n")
    with pytest.raises(FormatError, match="w has shape 2x3, index says 7x7"):
        load_checkpoint(ckpt)


def test_checkpoint_truncated_payload_names_the_file(tmp_path):
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(ckpt, {"w": np.ones((2, 3), dtype=np.float32),
                           "b": np.ones((200,), dtype=np.float32)})
    ckpt.write_bytes(ckpt.read_bytes()[:100])
    with pytest.raises(FormatError) as info:
        load_checkpoint(ckpt)
    assert str(info.value).startswith(f"{ckpt}: tensor b (index line 2): truncated payload")


def test_extents_whose_product_overflows_int64_are_a_truncated_payload(tmp_path):
    blob = b"PQCT" + struct.pack("<HH", 1, 4) + struct.pack("<4I", *[65536] * 4)
    with pytest.raises(FormatError, match="truncated payload"):  # 2**64 elements
        tensor_from_bytes(blob)
    ckpt = tmp_path / "model.ckpt"
    ckpt.write_bytes(blob)
    (tmp_path / "model.ckpt.idx").write_text("w 0 65536x65536x65536x65536\n")
    with pytest.raises(FormatError) as info:
        load_checkpoint(ckpt)
    assert str(info.value).startswith(f"{ckpt}: tensor w (index line 1): truncated payload")


def test_checkpoint_malformed_index_line_names_the_index(tmp_path):
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(ckpt, {"w": np.ones((2, 3), dtype=np.float32)})
    idx = tmp_path / "model.ckpt.idx"
    for junk in ("junk", "w zero 2x3"):
        idx.write_text("w 0 2x3\n" + junk + "\n")
        with pytest.raises(FormatError) as info:
            load_checkpoint(ckpt)
        assert str(info.value) == (
            f"{idx}: line 2 is not 'name offset shape': {junk!r}")


def test_checkpoint_negative_offset_names_the_index_line(tmp_path):
    # a negative slice start would read from the end of the file
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(ckpt, {"w": np.ones((2, 3), dtype=np.float32),
                           "b": np.ones((7,), dtype=np.float32)})
    idx = tmp_path / "model.ckpt.idx"
    bad = "b -40 7"  # the file's last 40 bytes are b's container
    idx.write_text(idx.read_text().splitlines()[0] + "\n" + bad + "\n")
    with pytest.raises(FormatError) as info:
        load_checkpoint(ckpt)
    assert str(info.value) == f"{idx}: line 2 has a negative offset: {bad!r}"


def test_checkpoint_index_naming_a_tensor_twice_names_the_line(tmp_path):
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(ckpt, {"a": np.zeros((2, 2), dtype=np.float32),
                           "b": np.ones((2, 2), dtype=np.float32)})
    idx = tmp_path / "model.ckpt.idx"
    b_line = idx.read_text().splitlines()[1]
    repeat = "a " + b_line.split(" ", 1)[1]  # a second "a" at b's offset
    idx.write_text(idx.read_text() + repeat + "\n")
    with pytest.raises(FormatError) as info:
        load_checkpoint(ckpt)
    assert str(info.value) == f"{idx}: line 3 repeats tensor 'a': {repeat!r}"


def test_checkpoint_offsets_are_real_containers(tmp_path):
    named = {"a": np.zeros((2, 2), dtype=np.float32),
             "b": np.ones((3,), dtype=np.float32)}
    ckpt = tmp_path / "m.ckpt"
    save_checkpoint(ckpt, named)
    blob = ckpt.read_bytes()
    for line in (tmp_path / "m.ckpt.idx").read_text().splitlines():
        name, off, _ = line.split()
        sub = tensor_from_bytes(blob[int(off):])
        np.testing.assert_array_equal(sub, named[name])
