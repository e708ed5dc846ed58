"""File formats: binary containers, config text, CSV/PGM emitters.

Container tests compare against hand-built byte strings so any layout
drift shows up as a golden mismatch, not just a roundtrip failure.
"""

import struct
from dataclasses import dataclass

import numpy as np
import pytest

from casskit.io import (
    CKPT_VERSION,
    MAGIC_CKPT,
    MAGIC_CUBE,
    MAGIC_MASK,
    ConfigError,
    FormatError,
    coerce_dataclass,
    format_config,
    load_checkpoint,
    load_cube,
    load_mask,
    parse_config,
    save_checkpoint,
    save_cube,
    save_mask,
    write_histogram_csv,
    write_loss_log_csv,
    write_metrics_csv,
    write_pgm,
)


# ---------------------------------------------------------------- cubes


def test_cube_roundtrip_is_f32_quantization(tmp_path):
    rng = np.random.default_rng(0)
    v = rng.uniform(0.0, 1.0, size=(5, 7, 3))
    p = tmp_path / "a.hsc"
    save_cube(p, v)
    back = load_cube(p)
    assert back.dtype == np.float64
    np.testing.assert_array_equal(back, v.astype("<f4").astype(np.float64))


def test_cube_golden_bytes(tmp_path):
    v = np.arange(12, dtype=np.float64).reshape(2, 3, 2)
    p = tmp_path / "a.hsc"
    save_cube(p, v)
    expected = MAGIC_CUBE + struct.pack("<III", 2, 3, 2)
    for c in range(2):
        expected += np.ascontiguousarray(v[:, :, c], dtype="<f4").tobytes()
    assert p.read_bytes() == expected


def test_cube_rejects_wrong_rank(tmp_path):
    with pytest.raises(ValueError, match="3-D"):
        save_cube(tmp_path / "a.hsc", np.zeros((4, 4)))


def test_cube_bad_magic(tmp_path):
    p = tmp_path / "a.hsc"
    p.write_bytes(b"NOPE" + struct.pack("<III", 1, 1, 1) + b"\0" * 4)
    with pytest.raises(FormatError, match="bad magic"):
        load_cube(p)


def test_cube_truncated_header(tmp_path):
    p = tmp_path / "a.hsc"
    p.write_bytes(MAGIC_CUBE + struct.pack("<II", 2, 2))
    with pytest.raises(FormatError, match="truncated at offset 12"):
        load_cube(p)


def test_cube_truncated_data(tmp_path):
    p = tmp_path / "a.hsc"
    save_cube(p, np.zeros((3, 3, 2)))
    whole = p.read_bytes()
    p.write_bytes(whole[:-1])
    with pytest.raises(FormatError, match="truncated"):
        load_cube(p)


def test_cube_trailing_bytes(tmp_path):
    p = tmp_path / "a.hsc"
    save_cube(p, np.zeros((2, 2, 1)))
    p.write_bytes(p.read_bytes() + b"\0")
    with pytest.raises(FormatError, match="trailing"):
        load_cube(p)


def test_cube_zero_dimension_rejected(tmp_path):
    p = tmp_path / "a.hsc"
    p.write_bytes(MAGIC_CUBE + struct.pack("<III", 0, 4, 4))
    with pytest.raises(FormatError, match="out of range"):
        load_cube(p)


def test_cube_element_cap_blocks_huge_header(tmp_path):
    # header alone must trip the cap, before any allocation is attempted
    p = tmp_path / "a.hsc"
    p.write_bytes(MAGIC_CUBE + struct.pack("<III", 1 << 20, 1 << 20, 1))
    with pytest.raises(FormatError, match="cap"):
        load_cube(p)


# ---------------------------------------------------------------- masks


def test_mask_roundtrip_and_golden(tmp_path):
    v = np.array([[0.0, 0.25], [0.5, 1.0]])
    p = tmp_path / "m.msk"
    save_mask(p, v)
    assert p.read_bytes() == (
        MAGIC_MASK
        + struct.pack("<II", 2, 2)
        + np.ascontiguousarray(v, dtype="<f4").tobytes()
    )
    np.testing.assert_array_equal(load_mask(p), v)


def test_mask_f32_quantization(tmp_path):
    rng = np.random.default_rng(3)
    v = rng.uniform(0.0, 1.0, size=(6, 4))
    p = tmp_path / "m.msk"
    save_mask(p, v)
    np.testing.assert_array_equal(load_mask(p), v.astype("<f4").astype(np.float64))


def test_mask_rejects_wrong_rank(tmp_path):
    with pytest.raises(ValueError, match="2-D"):
        save_mask(tmp_path / "m.msk", np.zeros((2, 2, 2)))


def test_mask_bad_magic(tmp_path):
    p = tmp_path / "m.msk"
    p.write_bytes(b"MSKX" + struct.pack("<II", 1, 1) + b"\0" * 4)
    with pytest.raises(FormatError, match="bad magic"):
        load_mask(p)


# ----------------------------------------------------------- checkpoints


def test_checkpoint_roundtrip_exact_f64(tmp_path):
    blobs = {
        "w": np.array([0.1, 1.0 / 3.0, np.pi]),
        "b": np.array(3.5),  # 0-d survives
        "grid": np.arange(6.0).reshape(2, 3),
        "cfg": "alpha=3\n",
        "name with spaces": "ok",
    }
    p = tmp_path / "c.ckp"
    save_checkpoint(p, blobs)
    back = load_checkpoint(p)
    assert set(back) == set(blobs)
    for k, v in blobs.items():
        if isinstance(v, np.ndarray):
            assert back[k].shape == v.shape
            np.testing.assert_array_equal(back[k], v)
        else:
            assert back[k] == v


def test_checkpoint_bytes_independent_of_insertion_order(tmp_path):
    a = {"x": np.ones(2), "y": "t", "z": np.zeros((1, 1))}
    b = {"z": np.zeros((1, 1)), "y": "t", "x": np.ones(2)}
    pa, pb = tmp_path / "a.ckp", tmp_path / "b.ckp"
    save_checkpoint(pa, a)
    save_checkpoint(pb, b)
    assert pa.read_bytes() == pb.read_bytes()


def test_checkpoint_golden_bytes(tmp_path):
    arr = np.arange(3.0)
    p = tmp_path / "c.ckp"
    save_checkpoint(p, {"b": arr, "a": "hi"})
    expected = MAGIC_CKPT + struct.pack("<I", CKPT_VERSION)
    expected += struct.pack("<I", 1) + b"a" + struct.pack("<B", 1)
    expected += struct.pack("<Q", 2) + b"hi"
    arr_payload = struct.pack("<B", 1) + struct.pack("<I", 3) + arr.astype("<f8").tobytes()
    expected += struct.pack("<I", 1) + b"b" + struct.pack("<B", 0)
    expected += struct.pack("<Q", len(arr_payload)) + arr_payload
    assert p.read_bytes() == expected


def test_checkpoint_non_contiguous_array(tmp_path):
    base = np.arange(12.0).reshape(3, 4)
    view = base[::2, ::2]
    p = tmp_path / "c.ckp"
    save_checkpoint(p, {"v": view})
    np.testing.assert_array_equal(load_checkpoint(p)["v"], view)


def test_checkpoint_rejects_non_blob_value(tmp_path):
    with pytest.raises(TypeError, match="ndarray or str"):
        save_checkpoint(tmp_path / "c.ckp", {"n": 3})


def test_checkpoint_version_mismatch(tmp_path):
    p = tmp_path / "c.ckp"
    p.write_bytes(MAGIC_CKPT + struct.pack("<I", CKPT_VERSION + 1))
    with pytest.raises(FormatError, match="unsupported version"):
        load_checkpoint(p)


def test_checkpoint_unknown_kind(tmp_path):
    p = tmp_path / "c.ckp"
    body = struct.pack("<I", 1) + b"q" + struct.pack("<B", 7)
    body += struct.pack("<Q", 0)
    p.write_bytes(MAGIC_CKPT + struct.pack("<I", CKPT_VERSION) + body)
    with pytest.raises(FormatError, match="unknown blob kind 7"):
        load_checkpoint(p)


def test_checkpoint_rejects_a_repeated_blob_name(tmp_path):
    # two text blobs named "a"; a later one must not overwrite the earlier
    def text_blob(name, value):
        return (struct.pack("<I", len(name)) + name + struct.pack("<B", 1)
                + struct.pack("<Q", len(value)) + value)

    first = text_blob(b"a", b"x")
    p = tmp_path / "c.ckp"
    p.write_bytes(MAGIC_CKPT + struct.pack("<I", CKPT_VERSION) + first + text_blob(b"a", b"y"))
    with pytest.raises(FormatError, match=f"repeated blob 'a' at offset {8 + len(first)}"):
        load_checkpoint(p)


@pytest.mark.parametrize("name, text, what, offset", [
    (b"\xffa", b"x", "blob name", 12),
    (b"a", b"ok\xff", "text payload of 'a'", 24),
])
def test_checkpoint_names_the_offset_of_bytes_that_are_not_utf8(tmp_path, name, text,
                                                                 what, offset):
    body = (struct.pack("<I", len(name)) + name + struct.pack("<B", 1)
            + struct.pack("<Q", len(text)) + text)
    p = tmp_path / "c.ckp"
    p.write_bytes(MAGIC_CKPT + struct.pack("<I", CKPT_VERSION) + body)
    with pytest.raises(FormatError, match=f"{what} is not utf-8 at offset {offset}$"):
        load_checkpoint(p)


def test_checkpoint_truncated_payload(tmp_path):
    # entry declares a 5-element vector but carries only one value
    inner = struct.pack("<B", 1) + struct.pack("<I", 5) + b"\0" * 8
    body = struct.pack("<I", 1) + b"q" + struct.pack("<B", 0)
    body += struct.pack("<Q", len(inner)) + inner
    p = tmp_path / "c.ckp"
    p.write_bytes(MAGIC_CKPT + struct.pack("<I", CKPT_VERSION) + body)
    with pytest.raises(FormatError, match="truncated"):
        load_checkpoint(p)


def test_checkpoint_truncated_entry(tmp_path):
    p = tmp_path / "c.ckp"
    save_checkpoint(p, {"w": np.ones(4)})
    whole = p.read_bytes()
    p.write_bytes(whole[:-3])
    with pytest.raises(FormatError, match="truncated"):
        load_checkpoint(p)


# ---------------------------------------------------------------- config


def test_parse_config_basics():
    text = "# header\nalpha = 3  # trailing\n\n beta=x=y \ngamma=\n"
    assert parse_config(text) == {"alpha": "3", "beta": "x=y", "gamma": ""}


def test_parse_config_errors():
    with pytest.raises(ConfigError, match="line 1.*key=value"):
        parse_config("just words\n")
    with pytest.raises(ConfigError, match="line 2.*duplicate key 'a'"):
        parse_config("a=1\na=2\n")
    with pytest.raises(ConfigError, match="empty key"):
        parse_config("=5\n")


def test_format_config_sorted_and_typed():
    out = format_config({"b": 0.25, "a": 3, "s": "hi", "neg": -1e-3})
    assert out == "a=3\nb=0.25\nneg=-0.001\ns=hi\n"


def test_format_parse_roundtrip():
    d = {"n": 7, "rate": 0.0004, "tag": "run1"}
    back = parse_config(format_config(d))
    assert back == {"n": "7", "rate": "0.0004", "tag": "run1"}


@dataclass
class _Opts:
    n: int = 1
    rate: float = 0.5
    tag: str = "x"


def test_coerce_casts_by_field_type():
    (got,) = coerce_dataclass({"n": "7", "rate": "2.5", "tag": "run"}, _Opts)
    assert got == _Opts(n=7, rate=2.5, tag="run")


def test_coerce_bad_values():
    with pytest.raises(ConfigError, match="config key 'n'"):
        coerce_dataclass({"n": "seven"}, _Opts)
    with pytest.raises(ConfigError, match="config key 'rate'"):
        coerce_dataclass({"rate": "fast"}, _Opts)


@dataclass
class _Knobs:
    deep: bool = False
    shape: tuple = (1, 2)


@pytest.mark.parametrize("key, raw", [("deep", "false"), ("deep", "true"), ("shape", "3,4")])
def test_coerce_refuses_text_for_a_type_it_cannot_read(key, raw):
    # only int, float and str fields read text: "false" must not become a truthy str
    with pytest.raises(ConfigError, match=f"config key '{key}': cannot read a "):
        coerce_dataclass({key: raw}, _Knobs)


def test_coerce_unknown_key_lists_valid_ones():
    with pytest.raises(ConfigError, match="unknown config keys: nn; valid keys: n, rate, tag"):
        coerce_dataclass({"nn": "7"}, _Opts)


def test_coerce_routes_each_key_to_the_class_that_declares_it():
    assert coerce_dataclass({"n": "2", "deep": True}, _Opts, _Knobs) == (
        _Opts(n=2), _Knobs(deep=True))


def test_coerce_passes_typed_values_through():
    assert coerce_dataclass({"rate": 0.125, "n": 4}, _Opts) == (_Opts(n=4, rate=0.125),)


# ------------------------------------------------------------- emitters


def test_metrics_csv_golden(tmp_path):
    p = tmp_path / "metrics.csv"
    write_metrics_csv(p, [(0, 1, 12.345678912, 0.5), (1, 0, float("inf"), 1.0)])
    assert p.read_text() == (
        "scene,trial,psnr_db,ssim\n"
        "0,1,12.345678912,0.500000000\n"
        "1,0,inf,1.000000000\n"
    )


def test_loss_log_csv_blank_entropy(tmp_path):
    p = tmp_path / "loss_log.csv"
    write_loss_log_csv(p, [
        {"phase": "pretrain", "round": 0, "epoch": 0, "loss": 1.5, "entropy": None},
        {"phase": "val", "round": 2, "epoch": 1, "loss": 0.25, "entropy": -3.5},
    ])
    assert p.read_text() == (
        "phase,round,epoch,loss,entropy\n"
        "pretrain,0,0,1.500000000,\n"
        "val,2,1,0.250000000,-3.500000000\n"
    )


def test_histogram_csv_golden(tmp_path):
    p = tmp_path / "hist.csv"
    write_histogram_csv(p, [2, 3], [0.0, 0.5, 1.0])
    assert p.read_text() == (
        "bin_lo,bin_hi,count\n"
        "0.000000000,0.500000000,2\n"
        "0.500000000,1.000000000,3\n"
    )


def test_pgm_golden(tmp_path):
    p = tmp_path / "map.pgm"
    write_pgm(p, np.array([[0.0, 0.5], [1.0, 0.25]]))
    assert p.read_bytes() == b"P5\n2 2\n255\n" + bytes([0, 128, 255, 64])


def test_pgm_negative_values_clip_to_black(tmp_path):
    p = tmp_path / "map.pgm"
    write_pgm(p, np.array([[-1.0, 2.0]]))
    assert p.read_bytes()[-2:] == bytes([0, 255])


def test_pgm_constant_maps(tmp_path):
    pos, zero = tmp_path / "pos.pgm", tmp_path / "zero.pgm"
    write_pgm(pos, np.full((2, 2), 3.0))
    write_pgm(zero, np.zeros((2, 2)))
    assert pos.read_bytes()[-4:] == bytes([255] * 4)
    assert zero.read_bytes()[-4:] == bytes([0] * 4)


def test_pgm_rejects_wrong_rank(tmp_path):
    with pytest.raises(ValueError, match="2-D"):
        write_pgm(tmp_path / "map.pgm", np.zeros(4))
