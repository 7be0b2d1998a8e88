import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import retroclass
from retroclass import errors
from retroclass.bank import (MAGIC, CaptionRecord, EmbeddingBank, bank_append,
                             bank_create, bank_load, bank_save, check_norms,
                             join_metadata)

HEADER_FMT = struct.Struct("<8sIIIQH")


def make_bank(rng, n=7, d=5, tag="llm-text", records=None):
    m = rng.standard_normal((n, d))
    return EmbeddingBank.from_matrix(m, tag, records=records)


def test_from_matrix_normalizes_rows(rng):
    m = rng.standard_normal((10, 6)) * 3.0
    bank = EmbeddingBank.from_matrix(m, "llm-text")
    norms = np.linalg.norm(np.asarray(bank.vectors, np.float64), axis=1)
    assert np.allclose(norms, 1.0, atol=1e-6)
    assert bank.vectors.dtype == np.float32
    assert bank.dim == 6 and bank.count == 10


def test_normalization_is_float64_then_float32(rng):
    m = rng.standard_normal((4, 8)).astype(np.float32)
    bank = EmbeddingBank.from_matrix(m, "llm-text")
    expected = (m.astype(np.float64)
                / np.linalg.norm(m.astype(np.float64), axis=1, keepdims=True))
    assert np.array_equal(np.asarray(bank.vectors),
                          expected.astype(np.float32))


def test_zero_row_rejected():
    m = np.zeros((3, 4))
    m[0, 0] = 1.0
    m[2, 1] = 1.0
    with pytest.raises(errors.ZeroVector, match="row 1"):
        EmbeddingBank.from_matrix(m, "llm-text")


def test_nonfinite_row_rejected():
    m = np.ones((2, 3))
    m[1, 2] = np.nan
    with pytest.raises(errors.ValidationError, match="row 1"):
        EmbeddingBank.from_matrix(m, "llm-text")


def test_empty_bank_is_valid_container(tmp_path):
    # count is non-negative; emptiness only errors at search time
    bank = EmbeddingBank.from_matrix(np.empty((0, 4)), "llm-text")
    assert bank.count == 0 and bank.dim == 4
    path = tmp_path / "empty.bank"
    bank_save(bank, path)
    loaded = bank_load(path)
    assert loaded.count == 0 and loaded.dim == 4


def test_bad_space_tag_rejected(rng):
    with pytest.raises(errors.ValidationError):
        make_bank(rng, tag="")


def test_vectors_are_read_only(rng):
    bank = make_bank(rng)
    with pytest.raises(ValueError):
        bank.vectors[0, 0] = 9.0


def test_row_accessor(rng):
    bank = make_bank(rng)
    assert np.array_equal(bank.row(3), np.asarray(bank.vectors)[3])
    with pytest.raises(errors.IdOutOfRange):
        bank.row(bank.count)
    with pytest.raises(errors.IdOutOfRange):
        bank.row(-1)


def test_roundtrip_bitwise(tmp_path, rng):
    records = [CaptionRecord(i, f"cap {i}", "unit") for i in range(7)]
    bank = make_bank(rng, records=records)
    path = tmp_path / "a.bank"
    bank_save(bank, path)
    loaded = bank_load(path)
    assert loaded.space_tag == bank.space_tag
    assert loaded.dim == bank.dim and loaded.count == bank.count
    assert np.array_equal(np.asarray(loaded.vectors).view(np.uint32),
                          np.asarray(bank.vectors).view(np.uint32))
    assert loaded.metadata([0, 6]) == [records[0], records[6]]


def test_save_load_save_identical_bytes(tmp_path, rng):
    bank = make_bank(rng, n=12, d=9, tag="vlm-text")
    p1, p2 = tmp_path / "one.bank", tmp_path / "two.bank"
    bank_save(bank, p1)
    bank_save(bank_load(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()
    meta1 = p1.with_name(p1.name + ".meta.jsonl")
    meta2 = p2.with_name(p2.name + ".meta.jsonl")
    assert meta1.read_bytes() == meta2.read_bytes()


def test_save_onto_own_memmapped_file_keeps_it_intact(tmp_path, rng):
    """bank_save(bank_load(p), p) once truncated the file under its own
    memmap and died of SIGBUS; it runs in a child so a crash fails the test."""
    records = [CaptionRecord(i, f"caption {i}", "unit") for i in range(20000)]
    bank = make_bank(rng, n=20000, d=64, records=records)
    path = tmp_path / "self.bank"
    bank_save(bank, path)
    meta = path.with_name("self.bank.meta.jsonl")
    meta_bytes = meta.read_bytes()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(retroclass.__file__).parents[1]),
                    env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; from retroclass.bank import bank_load, bank_save; "
         "bank_save(bank_load(sys.argv[1]), sys.argv[1])", str(path)],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded = bank_load(path)
    assert np.array_equal(np.asarray(loaded.vectors).view(np.uint32),
                          np.asarray(bank.vectors).view(np.uint32))
    assert meta.read_bytes() == meta_bytes
    assert sorted(p.name for p in tmp_path.iterdir()) == \
        ["self.bank", "self.bank.meta.jsonl"]


def test_failed_save_leaves_old_file(tmp_path, rng, monkeypatch):
    path = tmp_path / "keep.bank"
    bank_save(make_bank(rng), path)
    before = path.read_bytes()
    other = make_bank(rng, n=3)

    def no_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", no_replace)
    with pytest.raises(errors.IoError, match="disk full"):
        bank_save(other, path)
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == \
        ["keep.bank", "keep.bank.meta.jsonl"]


def test_load_memmaps_payload(tmp_path, rng):
    bank = make_bank(rng)
    path = tmp_path / "m.bank"
    bank_save(bank, path)
    loaded = bank_load(path)
    assert isinstance(loaded.vectors, np.memmap)


def test_sidecar_synthesized_when_no_records(tmp_path, rng):
    bank = make_bank(rng, n=3)
    path = tmp_path / "plain.bank"
    bank_save(bank, path)
    lines = path.with_name("plain.bank.meta.jsonl").read_text().splitlines()
    assert json.loads(lines[2]) == {"id": 2, "text": "item-2", "source": None}


def test_metadata_is_lazy_and_joins(tmp_path, rng):
    records = [CaptionRecord(i, f"t{i}") for i in range(5)]
    bank = make_bank(rng, n=5, records=records)
    path = tmp_path / "j.bank"
    bank_save(bank, path)
    loaded = bank_load(path)
    got = join_metadata(loaded, np.array([4, 0]))
    assert [r.text for r in got] == ["t4", "t0"]
    with pytest.raises(errors.IdOutOfRange):
        join_metadata(loaded, [5])


def test_missing_sidecar_errors_only_on_metadata_access(tmp_path, rng):
    bank = make_bank(rng)
    path = tmp_path / "nosc.bank"
    bank_save(bank, path)
    path.with_name("nosc.bank.meta.jsonl").unlink()
    loaded = bank_load(path)
    assert loaded.count == bank.count
    with pytest.raises(errors.RetroclassError):
        loaded.metadata([0])


def test_sidecar_count_mismatch(tmp_path, rng):
    bank = make_bank(rng, n=4)
    path = tmp_path / "c.bank"
    bank_save(bank, path)
    meta = path.with_name("c.bank.meta.jsonl")
    meta.write_text(meta.read_text() + '{"id": 4, "text": "extra"}\n')
    with pytest.raises(errors.CorruptBank, match="5 rows"):
        bank_load(path).metadata([0])


def test_sidecar_id_mismatch(tmp_path, rng):
    bank = make_bank(rng, n=2)
    path = tmp_path / "i.bank"
    bank_save(bank, path)
    meta = path.with_name("i.bank.meta.jsonl")
    lines = meta.read_text().splitlines()
    obj = json.loads(lines[1])
    obj["id"] = 7
    meta.write_text(lines[0] + "\n" + json.dumps(obj) + "\n")
    with pytest.raises(errors.CorruptBank, match="carries id 7"):
        bank_load(path).metadata([1])


# corruption detection, one header field at a time

def _saved(tmp_path, rng, name="x.bank"):
    path = tmp_path / name
    bank_save(make_bank(rng), path)
    return path


def _patch(path, offset, data):
    raw = bytearray(path.read_bytes())
    raw[offset:offset + len(data)] = data
    path.write_bytes(bytes(raw))


def test_corrupt_magic(tmp_path, rng):
    path = _saved(tmp_path, rng)
    _patch(path, 0, b"WRONGMAG")
    with pytest.raises(errors.CorruptBank, match="magic") as exc:
        bank_load(path)
    assert exc.value.byte_offset == 0
    assert "byte offset 0" in str(exc.value)


def test_corrupt_version(tmp_path, rng):
    path = _saved(tmp_path, rng)
    _patch(path, 8, struct.pack("<I", 99))
    with pytest.raises(errors.CorruptBank, match="version") as exc:
        bank_load(path)
    assert exc.value.byte_offset == 8


def test_corrupt_dtype(tmp_path, rng):
    path = _saved(tmp_path, rng)
    _patch(path, 12, struct.pack("<I", 7))
    with pytest.raises(errors.CorruptBank, match="dtype") as exc:
        bank_load(path)
    assert exc.value.byte_offset == 12


def test_corrupt_dim_zero(tmp_path, rng):
    path = _saved(tmp_path, rng)
    _patch(path, 16, struct.pack("<I", 0))
    with pytest.raises(errors.CorruptBank, match="dim") as exc:
        bank_load(path)
    assert exc.value.byte_offset == 16


def test_truncated_header(tmp_path, rng):
    path = _saved(tmp_path, rng)
    path.write_bytes(path.read_bytes()[:20])
    with pytest.raises(errors.CorruptBank, match="too small"):
        bank_load(path)


def test_truncated_payload(tmp_path, rng):
    path = _saved(tmp_path, rng)
    raw = path.read_bytes()
    path.write_bytes(raw[:-8])
    with pytest.raises(errors.CorruptBank, match="truncated payload") as exc:
        bank_load(path)
    assert exc.value.byte_offset == len(raw) - 8


def test_trailing_bytes(tmp_path, rng):
    path = _saved(tmp_path, rng)
    path.write_bytes(path.read_bytes() + b"\x00\x00")
    with pytest.raises(errors.CorruptBank, match="trailing"):
        bank_load(path)


def test_truncated_tag(tmp_path, rng):
    path = _saved(tmp_path, rng)
    header_and_partial_tag = path.read_bytes()[:HEADER_FMT.size + 2]
    path.write_bytes(header_and_partial_tag)
    with pytest.raises(errors.CorruptBank, match="tag"):
        bank_load(path)


def test_check_norms_catches_denormalized_payload(tmp_path, rng):
    path = _saved(tmp_path, rng)
    loaded = bank_load(path)
    assert check_norms(loaded)
    tag_len = len(loaded.space_tag.encode())
    _patch(path, HEADER_FMT.size + tag_len,
           struct.pack("<f", 40.0))
    assert not check_norms(bank_load(path))


# builder path

def test_builder_matches_from_matrix(rng):
    m = rng.standard_normal((6, 4))
    builder = bank_create(4, "llm-text")
    for row in m:
        bank_append(builder, row)
    built = builder.finalize()
    direct = EmbeddingBank.from_matrix(m, "llm-text")
    assert np.array_equal(np.asarray(built.vectors), np.asarray(direct.vectors))


def test_builder_rejects_wrong_dim():
    builder = bank_create(3, "llm-text")
    with pytest.raises(errors.DimensionMismatch):
        builder.append(np.ones(4))


def test_builder_empty_finalize_yields_empty_bank():
    bank = bank_create(3, "llm-text").finalize()
    assert bank.count == 0 and bank.dim == 3


def test_builder_returns_dense_ids(rng):
    builder = bank_create(2, "llm-text")
    ids = [builder.append(rng.standard_normal(2)) for _ in range(4)]
    assert ids == [0, 1, 2, 3]


@given(st.integers(1, 30), st.integers(2, 12), st.integers(0, 2**32 - 1))
def test_roundtrip_property(tmp_path_factory, n, d, seed):
    rng = np.random.default_rng(seed)
    bank = EmbeddingBank.from_matrix(rng.standard_normal((n, d)), "llm-text")
    path = tmp_path_factory.mktemp("prop") / "p.bank"
    bank_save(bank, path)
    loaded = bank_load(path)
    assert np.array_equal(np.asarray(loaded.vectors).view(np.uint32),
                          np.asarray(bank.vectors).view(np.uint32))
    assert loaded.space_tag == bank.space_tag
