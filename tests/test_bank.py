import json
import os
import struct
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import retroclass
import retroclass.bank as bank_mod
from retroclass import cli, errors
from retroclass.bank import (MAGIC, CaptionRecord, EmbeddingBank,
                             bank_build, bank_load, bank_save, check_norms)
from retroclass.classify import Prediction, write_predictions
from retroclass.harness import accuracy, emit_report

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


def test_from_matrix_needs_a_real_numeric_matrix(rng):
    m = rng.standard_normal((3, 4))
    for bad in (m + 1j, m.astype(str), m.astype(object),
                np.zeros((3, 4), "f4,f4")):
        with pytest.raises(errors.ValidationError):
            EmbeddingBank.from_matrix(bad, "llm-text")
    ones = np.ones((3, 4))
    for good in (ones > 0, -ones.astype(np.int16), ones.astype(np.uint8)):
        assert EmbeddingBank.from_matrix(good, "llm-text").count == 3


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


def test_norm_overflow_rejected():
    """A finite row whose float64 norm overflows is refused, not saved as a
    row of zeros, and numpy warns of nothing."""
    m = np.array([[1e200, 1e200], [3.0, 4.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(errors.ValidationError,
                           match="^row 0 norm overflows$"):
            EmbeddingBank.from_matrix(m, "llm-text")


@pytest.mark.parametrize("d", [2, 64])
@pytest.mark.parametrize("value,message", [
    (np.nan, "contains non-finite values"),
    (-np.inf, "contains non-finite values"),
    (1e300, "norm overflows"),
    (0.0, "has near-zero norm"),
])
def test_first_bad_row_is_named_by_its_row_number(d, value, message):
    """Past the first normalization step and the first 65536 rows, the
    first bad row is named, whatever faults follow it."""
    row = 65536 + 3 * (bank_mod._NORMALIZE_VALUES // d) + 5
    m = np.ones((row + 4, d))
    if value == 0.0:
        m[row] = 0.0
    else:
        m[row, 1] = value
    m[row + 1, 0] = np.nan
    m[row + 2, 0] = 1e300
    m[row + 3] = 0.0
    with pytest.raises(errors.ValidationError, match=f"^row {row} {message}$"):
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
    """Every artifact writer: a failed rename keeps the old bytes in place."""
    src = tmp_path / "src"
    src.mkdir()
    for v, n in enumerate((7, 3)):
        bank_save(make_bank(rng, n=n), src / f"b{v}.bank")
    preds = [[Prediction(0, ((v, 0.5), (1 - v, 0.25)), False)] for v in (0, 1)]
    reports = [[accuracy(preds[v], [0], dataset=f"d{v}")] for v in (0, 1)]

    def cli_writer(*argv):
        args = cli.build_parser().parse_args([str(a) for a in argv])
        args.func(args)

    writers = {
        "bank": lambda path, v: bank_save(make_bank(rng, n=7 - 4 * v), path),
        "predictions": lambda path, v: write_predictions(preds[v], path),
        "json-report": lambda path, v: emit_report(reports[v], "json", path),
        "csv-report": lambda path, v: emit_report(reports[v], "csv", path),
        "hits": lambda path, v: cli_writer(
            "retrieve", "--bank", src / "b0.bank", "--queries",
            src / "b0.bank", "--k", 1 + v, "--out", path),
        "bank-info": lambda path, v: cli_writer(
            "bank", "inspect", "--bank", src / f"b{v}.bank", "--out", path),
    }

    def no_replace(src, dst):
        raise OSError("disk full")

    for name, write in writers.items():
        out = tmp_path / name
        out.mkdir()
        write(out / "keep", 0)
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        monkeypatch.setattr(os, "replace", no_replace)
        with pytest.raises(errors.IoError, match="disk full"):
            write(out / "keep", 1)
        monkeypatch.undo()
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before, name


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


def _json_lines(records) -> bytes:
    return "".join(json.dumps({"id": r.id, "text": r.text, "source": r.source},
                              ensure_ascii=False) + "\n"
                   for r in records).encode("utf-8")


@pytest.mark.parametrize("rows", ["none", "one", "over_a_block"])
def test_placeholder_sidecar_bytes_are_the_json_dumps_form(tmp_path, rows):
    n = {"none": 0, "one": 1, "over_a_block": bank_mod._SIDECAR_BLOCK + 2}[rows]
    bank = EmbeddingBank.from_matrix(np.ones((n, 1)), "llm-text")
    path = tmp_path / "p.bank"
    bank_save(bank, path)
    expected = _json_lines(CaptionRecord(i, f"item-{i}") for i in range(n))
    assert path.with_name("p.bank.meta.jsonl").read_bytes() == expected


def test_sidecar_with_records_is_json_dumps(tmp_path, rng):
    records = [CaptionRecord(0, "caf\u00e9 \u201cquoted\u201d \\ \U0001f600"),
               CaptionRecord(1, "item-1"),
               CaptionRecord(2, 'line\nbreak "x"', "web/\u00fcber")]
    bank = make_bank(rng, n=3, records=records)
    path = tmp_path / "r.bank"
    bank_save(bank, path)
    sidecar = path.with_name("r.bank.meta.jsonl")
    assert sidecar.read_bytes() == _json_lines(records)
    bank_save(bank_load(path), tmp_path / "again.bank")  # records re-read
    assert (tmp_path / "again.bank.meta.jsonl").read_bytes() == \
        sidecar.read_bytes()


def test_metadata_is_lazy_and_joins(tmp_path, rng):
    records = [CaptionRecord(i, f"t{i}") for i in range(5)]
    bank = make_bank(rng, n=5, records=records)
    path = tmp_path / "j.bank"
    bank_save(bank, path)
    loaded = bank_load(path)
    got = loaded.metadata(np.array([4, 0]))
    assert [r.text for r in got] == ["t4", "t0"]
    with pytest.raises(errors.IdOutOfRange):
        loaded.metadata([5])


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
    """The first payload value, after the file's padding."""
    bank = make_bank(rng)
    path = tmp_path / "a.bank"
    bank_save(bank, path)
    assert check_norms(bank_load(path))
    _patch(path, path.stat().st_size - bank.count * bank.dim * 4,
           struct.pack("<f", 40.0))
    assert not check_norms(bank_load(path))


@pytest.mark.parametrize("scale, ok", [
    (1 + 0.9 * bank_mod.NORM_ATOL, True), (1 - 0.9 * bank_mod.NORM_ATOL, True),
    (1 + 1.1 * bank_mod.NORM_ATOL, False), (1 - 1.1 * bank_mod.NORM_ATOL, False),
    (np.nan, False), (np.inf, False)])
def test_check_norms_reads_every_step(rng, scale, ok):
    """One row past the first step of 1,024 rows at d 256, just inside or
    outside ``NORM_ATOL``, or not finite, decides the check."""
    step = bank_mod._NORMALIZE_VALUES // 256
    rows = np.array(make_bank(rng, n=2 * step + 300, d=256).vectors)
    rows[step + 517] *= np.float32(scale)
    assert check_norms(EmbeddingBank(rows, "llm-text")) is ok


def test_check_norms_keeps_float64_temporaries_small(rng):
    """The check copies a step of rows to float64 at a time, not a 65,536-row
    block (128 MB at d 256)."""
    rows = make_bank(rng, n=20000, d=256).vectors  # 20 MB as float32
    tracemalloc.start()
    try:
        assert check_norms(EmbeddingBank(rows, "llm-text"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20


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


# format version 2: the payload starts at a multiple of 64 bytes

@pytest.mark.parametrize("tag", ["t", "llm-text", "x" * 34, "y" * 35])
def test_payload_starts_at_a_multiple_of_64(tmp_path, rng, tag):
    """Zero padding follows the 30-byte header and the tag, so the mapped
    payload is aligned (no padding after a 34-byte tag)."""
    bank = make_bank(rng, tag=tag)
    path = tmp_path / "a.bank"
    bank_save(bank, path)
    raw = path.read_bytes()
    start = len(raw) - bank.count * bank.dim * 4
    assert start % 64 == 0 and 0 <= start - HEADER_FMT.size - len(tag) < 64
    assert raw[HEADER_FMT.size + len(tag):start] == \
        bytes(start - HEADER_FMT.size - len(tag))
    assert HEADER_FMT.unpack_from(raw)[1:] == (2, 1, bank.dim, bank.count,
                                                len(tag))
    loaded = bank_load(path)
    assert loaded.vectors.flags.aligned
    assert np.array_equal(loaded.vectors, bank.vectors)


@pytest.mark.parametrize("at", [[38], [50], [63], [45, 60]])
def test_nonzero_padding_is_corrupt(tmp_path, rng, at):
    """After the "llm-text" tag, bytes 38 to 63 are padding; the first
    non-zero one is named."""
    path = _saved(tmp_path, rng)
    for offset in at:
        _patch(path, offset, b"\x01")
    with pytest.raises(errors.CorruptBank, match="non-zero padding") as exc:
        bank_load(path)
    assert exc.value.byte_offset == at[0]


@pytest.mark.parametrize("size", [38, 39, 63])
def test_truncated_padding_is_corrupt(tmp_path, rng, size):
    path = _saved(tmp_path, rng)
    path.write_bytes(path.read_bytes()[:size])
    with pytest.raises(errors.CorruptBank, match="truncated padding") as exc:
        bank_load(path)
    assert exc.value.byte_offset == size


def test_version_1_bank_is_refused_at_its_version(tmp_path, rng, save_v1,
                                                  capsys):
    """A version-1 file (payload right after the tag) is corrupt at its
    version field, for the loader and for every command that loads it."""
    bank = make_bank(rng, n=300, d=16)
    save_v1(bank, tmp_path / "v1.bank")
    bank_save(bank, tmp_path / "v2.bank")
    with pytest.raises(errors.CorruptBank,
                       match="^unsupported version 1 ") as exc:
        bank_load(tmp_path / "v1.bank")
    assert exc.value.byte_offset == 8
    v1, v2 = str(tmp_path / "v1.bank"), str(tmp_path / "v2.bank")
    out = str(tmp_path / "hits.jsonl")
    for argv in (["bank", "inspect", "--bank", v1],
                 ["index", "build", "--bank", v1, "--clusters", "2",
                  "--out", str(tmp_path / "a.ivf")],
                 ["retrieve", "--bank", v1, "--queries", v2, "--k", "3",
                  "--out", out],
                 ["retrieve", "--bank", v2, "--queries", v1, "--k", "3",
                  "--out", out]):
        assert cli.main(argv) == errors.EXIT_CORRUPT
        assert "unsupported version 1 (byte offset 8)" in \
            capsys.readouterr().err



# bank_build: streamed ingest, and the order in which a save commits

def _small_buffers(monkeypatch, d, step_rows, steps):
    """Steps of ``step_rows`` rows at width ``d``, ``steps`` per buffer."""
    monkeypatch.setattr(bank_mod, "_NORMALIZE_VALUES", step_rows * d)
    monkeypatch.setattr(bank_mod, "_INGEST_STEPS", steps)


@pytest.mark.parametrize("n", [1, 2, 7, 12, 13, 25, 36])
def test_streamed_ingest_writes_the_whole_matrix_normalization(
        tmp_path, rng, monkeypatch, n):
    """Steps of 3 rows, buffers of 12: the payload is ``_normalize_rows`` of
    the whole matrix, and the files are those ``bank_save`` writes."""
    m = 10 * rng.standard_normal((n, 5))
    want = bank_mod._normalize_rows(m)
    bank_save(EmbeddingBank.from_matrix(m, "llm-text"), tmp_path / "s.bank")
    _small_buffers(monkeypatch, 5, 3, 4)
    bank_build(m, "llm-text", tmp_path / "b.bank")
    raw = (tmp_path / "b.bank").read_bytes()
    assert raw[-n * 5 * 4:] == want.astype("<f4").tobytes()
    assert raw == (tmp_path / "s.bank").read_bytes()
    assert (tmp_path / "b.bank.meta.jsonl").read_bytes() == \
        (tmp_path / "s.bank.meta.jsonl").read_bytes()


@pytest.mark.parametrize("value,error,message", [
    (np.nan, errors.ValidationError, "contains non-finite values"),
    (1e300, errors.ValidationError, "norm overflows"),
    (0.0, errors.ZeroVector, "has near-zero norm"),
])
def test_bad_row_in_a_later_buffer_keeps_the_old_pair(tmp_path, rng,
                                                      monkeypatch, value,
                                                      error, message):
    """Row 29 lies in the third 12-row buffer: it is named by its row in the
    matrix, and the old bank and sidecar stay as they were, with no
    temporary file left beside them."""
    path = tmp_path / "b.bank"
    bank_save(make_bank(rng, n=4, d=5), path)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    m = rng.standard_normal((40, 5))
    if value == 0.0:
        m[29] = 0.0
    else:
        m[29, 1] = value
    m[33] = 0.0
    _small_buffers(monkeypatch, 5, 3, 4)
    with pytest.raises(error, match=f"^row 29 {message}$"):
        bank_build(m, "llm-text", path)
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_failed_sidecar_rename_keeps_the_old_pair(tmp_path, rng,
                                                  monkeypatch):
    """The sidecar is renamed into place before the bank, so when its
    rename fails the old bank keeps its old captions."""
    path = tmp_path / "b.bank"
    old = make_bank(rng, n=4, d=3,
                    records=[CaptionRecord(i, f"old {i}") for i in range(4)])
    bank_save(old, path)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    new_records = [CaptionRecord(i, f"new {i}") for i in range(4)]
    real = os.replace

    def replace(src, dst):
        if str(dst).endswith(".meta.jsonl"):
            raise OSError("disk full")
        return real(src, dst)

    monkeypatch.setattr(os, "replace", replace)
    with pytest.raises(errors.IoError, match="disk full"):
        bank_save(make_bank(rng, n=4, d=3, records=new_records), path)
    with pytest.raises(errors.IoError, match="disk full"):
        bank_build(rng.standard_normal((4, 3)), "llm-text", path, new_records)
    monkeypatch.undo()
    loaded = bank_load(path)
    assert [r.text for r in loaded.metadata(range(4))] == \
        [f"old {i}" for i in range(4)]
    assert np.array_equal(loaded.vectors, old.vectors)
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_streamed_ingest_reuses_one_small_buffer(tmp_path, rng, monkeypatch):
    """Buffers of two 1,024-row steps at d 256 (2 MB): ingesting 20 MB of
    rows never holds an output of its size."""
    m = rng.standard_normal((20000, 256)).astype(np.float32)
    monkeypatch.setattr(bank_mod, "_INGEST_STEPS", 2)
    tracemalloc.start()
    try:
        bank_build(m, "llm-text", tmp_path / "b.bank")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20
