"""The shared readers and writers, and what damaged files turn into."""

import itertools
import os
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from retroclass import errors
from retroclass.bank import CaptionRecord, EmbeddingBank, bank_load, bank_save
from retroclass.classify import Prediction, read_predictions, write_predictions
from retroclass.files import read_json, read_jsonl, replace_atomically
from retroclass.harness import SweepGrid
from retroclass.index import build_ivf, load_index, save_index

# (offset, struct format) of the count fields in each binary header: a bank's
# dim, count and tag length; an index's n_clusters, dim and its three list
# offsets, which follow the 28-byte header and the corpus index's 2 x 4
# centroids (the last one is the id count)
BANK_COUNTS = [(16, "<I"), (20, "<Q"), (28, "<H")]
INDEX_COUNTS = [(12, "<I"), (16, "<I"), (60, "<Q"), (68, "<Q"), (76, "<Q")]


class Corpus:
    """Intact artifacts, plus fresh paths for damaged copies of them."""

    def __init__(self, root):
        self.root = root
        self._names = itertools.count()
        rng = np.random.default_rng(5)
        records = [CaptionRecord(i, f"caption {i}", "unit") for i in range(6)]
        self.bank = EmbeddingBank.from_matrix(rng.standard_normal((6, 4)),
                                              "llm-text", records=records)
        bank_save(self.bank, root / "bank.bank")
        self.bank_bytes = (root / "bank.bank").read_bytes()
        self.sidecar_bytes = (root / "bank.bank.meta.jsonl").read_bytes()
        save_index(build_ivf(self.bank, 2, seed=0), root / "bank.ivf")
        self.index_bytes = (root / "bank.ivf").read_bytes()
        write_predictions([Prediction(q, ((q % 3, 0.75), (2, 0.5), (1, -0.25)),
                                      q % 2 == 0) for q in range(3)],
                          root / "preds.jsonl")
        self.predictions_bytes = (root / "preds.jsonl").read_bytes()

    def write(self, suffix: str, data: bytes):
        path = self.root / f"case{next(self._names)}{suffix}"
        path.write_bytes(data)
        return path


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    return Corpus(tmp_path_factory.mktemp("files"))


def damage(counts=()):
    """Truncations, bit flips, non-UTF-8 bytes and oversized header counts."""
    kinds = [st.tuples(st.just("truncate"), st.integers(0, 2**16)),
             st.tuples(st.just("flip"), st.integers(0, 2**16), st.integers(0, 7)),
             st.tuples(st.just("byte"), st.integers(0, 2**16),
                       st.sampled_from([0x80, 0xC3, 0xFF]))]
    if counts:
        kinds.append(st.tuples(st.just("count"), st.sampled_from(counts),
                               st.integers(0, 2**64 - 1)))
    return st.one_of(kinds)


def apply(data: bytes, change) -> bytes:
    kind, where, *rest = change
    if kind == "truncate":
        return data[:where % len(data)]
    buf = bytearray(data)
    if kind == "flip":
        buf[where % len(buf)] ^= 1 << rest[0]
    elif kind == "byte":
        buf[where % len(buf)] = rest[0]
    else:
        offset, fmt = where
        struct.pack_into(fmt, buf, offset,
                         rest[0] % 2 ** (8 * struct.calcsize(fmt)))
    return bytes(buf)


def loads_or_reports_corruption(load):
    try:
        load()
    except errors.CorruptData:
        pass


@settings(max_examples=200)
@given(change=damage(BANK_COUNTS))
def test_damaged_bank_is_corrupt_or_loads(corpus, change):
    path = corpus.write(".bank", apply(corpus.bank_bytes, change))
    loads_or_reports_corruption(lambda: bank_load(path))


@settings(max_examples=200)
@given(change=damage())
def test_damaged_sidecar_is_corrupt_or_loads(corpus, change):
    path = corpus.write(".bank", corpus.bank_bytes)
    path.with_name(path.name + ".meta.jsonl").write_bytes(
        apply(corpus.sidecar_bytes, change))
    loads_or_reports_corruption(lambda: bank_load(path).metadata(range(6)))


@settings(max_examples=200)
@given(change=damage(INDEX_COUNTS))
def test_damaged_index_is_corrupt_or_loads(corpus, change):
    path = corpus.write(".ivf", apply(corpus.index_bytes, change))
    loads_or_reports_corruption(lambda: load_index(path, corpus.bank))


@settings(max_examples=200)
@given(change=damage())
def test_damaged_predictions_are_corrupt_or_load(corpus, change):
    path = corpus.write(".jsonl", apply(corpus.predictions_bytes, change))
    loads_or_reports_corruption(lambda: read_predictions(path))


def test_bank_with_empty_space_tag_is_corrupt(corpus):
    tag_len = struct.unpack_from("<H", corpus.bank_bytes, 28)[0]
    header = bytearray(corpus.bank_bytes[:30])
    struct.pack_into("<H", header, 28, 0)
    path = corpus.write(".bank", bytes(header) + corpus.bank_bytes[30 + tag_len:])
    with pytest.raises(errors.CorruptBank, match="empty space tag"):
        bank_load(path)


def test_sidecar_id_that_is_not_a_number_is_corrupt(corpus):
    path = corpus.write(".bank", corpus.bank_bytes)
    lines = corpus.sidecar_bytes.splitlines(keepends=True)
    lines[2] = b'{"id": "x", "text": "caption 2"}\n'
    path.with_name(path.name + ".meta.jsonl").write_bytes(b"".join(lines))
    with pytest.raises(errors.CorruptBank, match="line 2"):
        bank_load(path).metadata([0])


def test_predictions_that_are_not_utf8_are_corrupt(corpus):
    path = corpus.write(".jsonl", corpus.predictions_bytes.replace(b"true", b"\xff"))
    with pytest.raises(errors.CorruptData, match="line 0"):
        read_predictions(path)


def test_caption_with_unicode_line_separator_round_trips(tmp_path, rng):
    """JSON leaves U+2028 unescaped; a line may only end at \\n."""
    records = [CaptionRecord(0, "left\u2028right"), CaptionRecord(1, "x\x85y")]
    bank = EmbeddingBank.from_matrix(rng.standard_normal((2, 3)), "llm-text",
                                     records=records)
    bank_save(bank, tmp_path / "u.bank")
    assert bank_load(tmp_path / "u.bank").metadata([0, 1]) == records


def test_readers_map_every_failure(tmp_path):
    with pytest.raises(errors.IoError, match="cannot read grid"):
        read_json(tmp_path / "missing.json", "grid", dict)
    path = tmp_path / "x.json"
    for raw in (b"{not json", b"\xff", b"[" * 100_000, b"[1e999]"):
        path.write_bytes(raw)
        with pytest.raises(errors.ValidationError, match="labels .* is invalid"):
            read_json(path, "labels", lambda obj: [int(x) for x in obj])
    path.write_bytes(b'{"a": 1}\n{"b": 2}\n')
    with pytest.raises(errors.CorruptData, match="line 1 is invalid"):
        read_jsonl(path, "records", lambda i, obj: obj["a"], errors.CorruptData)
    with pytest.raises(errors.ValidationError, match="has 2 rows, expected 3"):
        read_jsonl(path, "records", lambda i, obj: obj, count=3)
    assert read_jsonl(path, "records", lambda i, obj: (i, obj)) == \
        [(0, {"a": 1}), (1, {"b": 2})]


def test_readers_keep_a_typed_error_the_parser_raised(tmp_path):
    path = tmp_path / "grid.json"
    path.write_text('{"alphas": [], "betas": [0]}')
    with pytest.raises(errors.EmptyGrid, match="grid .* is invalid"):
        SweepGrid.load(path)
    path.write_text('{"text": "a"}\n{"id": -1, "text": "b"}\n')

    def parse(i, obj):
        return CaptionRecord(obj.get("id", i), obj["text"])

    with pytest.raises(errors.IdOutOfRange, match="line 1 is invalid"):
        read_jsonl(path, "records", parse)
    # in a file the package wrote, any damaged line is corrupt data
    with pytest.raises(errors.CorruptBank, match="line 1 is invalid"):
        read_jsonl(path, "records", parse, errors.CorruptBank)


def test_writer_keeps_mode_and_writes_through_non_regular_files(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("old")
    path.chmod(0o640)
    with replace_atomically(path, "text") as fh:
        fh.write("new")
    assert path.read_text() == "new"
    assert path.stat().st_mode & 0o777 == 0o640
    with replace_atomically(os.devnull, "text") as fh:
        fh.write("discarded")
    assert not os.path.isfile(os.devnull)
    with pytest.raises(errors.IoError, match="cannot write text"):
        with replace_atomically(tmp_path, "text") as fh:
            fh.write("x")
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]
