"""Embedding bank storage.

A bank is an immutable, flat float32 matrix with a fixed row width plus a
JSON-lines metadata sidecar keyed by dense row id. Every row is
L2-normalized on ingest (norm computed in float64, then rounded to float32)
so that dot product equals cosine similarity everywhere downstream.

On-disk layout, all little-endian:

    8 bytes   magic  b"RTRCBANK"
    u32       format version (2)
    u32       dtype code (1 = float32)
    u32       dim
    u64       count
    u16       space-tag byte length, followed by the UTF-8 tag bytes
    padding   zero bytes up to a multiple of 64
    payload   count * dim float32 values, row-major

The padding aligns the payload, so numpy reads it in place once mapped.
Any other version is corrupt; a version-1 file, whose payload follows the
tag, is rebuilt from its vectors with ``bank build``.

The metadata sidecar lives at ``<bankfile>.meta.jsonl`` with one JSON object
per row: ``{"id": int, "text": str, "source": str | null}``. It is only read
when metadata is actually requested.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from . import errors
from .files import (PAYLOAD_ALIGN, payload_start, read_jsonl,
                    replace_atomically, windows)

MAGIC = b"RTRCBANK"
FORMAT_VERSION = 2
DTYPE_F32 = 1
NORM_ATOL = 1e-4
ZERO_NORM_EPS = 1e-8

# magic, version, dtype, dim, count, tag byte length
_HEADER = struct.Struct("<8sIIIQH")
# float64 values normalized or checked per step: 2 MB, so a step's
# temporaries stay in a core's L2 cache. numpy sums each row of a row-major
# block on its own, so a row's norm does not depend on the step.
_NORMALIZE_VALUES = 1 << 18
_INGEST_STEPS = 32  # steps per buffer bank_build writes: 32 MB of float32
_SIDECAR_BLOCK = 65536  # placeholder sidecar lines formatted per write
_PLACEHOLDER = '{"id": %d, "text": "item-%d", "source": null}\n'


def _meta_path(path: Path) -> Path:
    return path.with_name(path.name + ".meta.jsonl")


@dataclass(frozen=True)
class CaptionRecord:
    """One metadata row: dense id, caption text, optional provenance."""

    id: int
    text: str
    source: str | None = None

    def __post_init__(self):
        if self.id < 0:
            raise errors.IdOutOfRange(f"record id must be >= 0, got {self.id}")
        if not isinstance(self.text, str) or not self.text:
            raise errors.ValidationError("record text must be a non-empty string")


def parse_caption_record(i: int, obj) -> CaptionRecord:
    """Line ``i`` of a caption JSON-lines file: ``{"id", "text", "source"}``.

    ``id`` is optional and defaults to ``i``, the only value it may hold, so
    each record stays aligned with bank row ``i``.
    """
    rid = obj.get("id", i)
    if type(rid) is not int or rid != i:
        raise ValueError(f"carries id {json.dumps(rid)}, expected {i}")
    return CaptionRecord(i, obj["text"], obj.get("source"))


def _check_tag(space_tag: str) -> str:
    if not isinstance(space_tag, str) or not space_tag:
        raise errors.ValidationError("space tag must be a non-empty string")
    if len(space_tag.encode("utf-8")) > 0xFFFF:
        raise errors.ValidationError("space tag longer than 65535 bytes")
    return space_tag


def _check_matrix(matrix) -> np.ndarray:
    matrix = np.asarray(matrix)
    if matrix.dtype.kind not in "biuf":
        raise errors.ValidationError(
            f"expected a real numeric matrix, got dtype {matrix.dtype}")
    if matrix.ndim != 2:
        raise errors.InvalidDimension("expected a 2-D matrix")
    if matrix.shape[1] < 1:
        raise errors.InvalidDimension("bank dim must be >= 1")
    return matrix


def _normalize_rows(matrix: np.ndarray, out: np.ndarray | None = None,
                    first: int = 0) -> np.ndarray:
    """Unit-normalize rows in float64, round to float32, into ``out``.

    Rejects the first row, in row order, that is non-finite, whose float64
    norm overflows, or that is too short to carry a direction, naming it
    as row ``first + i``. A non-finite value makes its row's norm
    non-finite, so only that row's values are scanned.
    """
    if out is None:
        out = np.empty(matrix.shape, dtype=np.float32)
    step = max(1, _NORMALIZE_VALUES // matrix.shape[1])
    for start in range(0, matrix.shape[0], step):
        block = np.asarray(matrix[start:start + step], dtype=np.float64)
        with np.errstate(over="ignore"):
            norms = np.linalg.norm(block, axis=1)
        ok = np.isfinite(norms) & (norms > ZERO_NORM_EPS)
        if not ok.all():
            bad = int(np.argmin(ok))
            row = first + start + bad
            if np.isfinite(norms[bad]):
                raise errors.ZeroVector(f"row {row} has near-zero norm")
            if np.isfinite(block[bad]).all():
                raise errors.ValidationError(f"row {row} norm overflows")
            raise errors.ValidationError(f"row {row} contains non-finite values")
        # divides in float64 and rounds once, with no float64 quotient copy
        np.divide(block, norms[:, None], out=out[start:start + step],
                  casting="same_kind")
    return out


class EmbeddingBank:
    """Immutable collection of unit-norm float32 rows in one embedding space."""

    def __init__(self, vectors: np.ndarray, space_tag: str,
                 records: list[CaptionRecord] | None = None,
                 meta_path: Path | None = None):
        vectors = np.asanyarray(vectors, dtype=np.float32)
        if vectors.ndim != 2:
            raise errors.InvalidDimension("bank vectors must be a 2-D matrix")
        if vectors.shape[1] < 1:
            raise errors.InvalidDimension("bank dim must be >= 1")
        if not isinstance(vectors, np.memmap):
            vectors.setflags(write=False)
        self._vectors = vectors
        self.space_tag = _check_tag(space_tag)
        if records is not None and len(records) != vectors.shape[0]:
            raise errors.LengthMismatch(
                f"{len(records)} records for {vectors.shape[0]} rows")
        self._records = records
        self._meta_path = meta_path

    @property
    def vectors(self) -> np.ndarray:
        return self._vectors

    @property
    def dim(self) -> int:
        return int(self._vectors.shape[1])

    @property
    def count(self) -> int:
        return int(self._vectors.shape[0])

    @cached_property
    def norm_bound(self) -> float:
        """:func:`norm_bound` of the rows, computed once per bank: it is a
        full pass, and ``bank_load`` does not re-check norms, so a mapped
        bank's rows need not be unit norm."""
        return norm_bound(self._vectors)

    def row(self, row_id: int) -> np.ndarray:
        if not 0 <= row_id < self.count:
            raise errors.IdOutOfRange(f"id {row_id} outside [0, {self.count})")
        return self._vectors[row_id]

    @classmethod
    def from_matrix(cls, matrix: np.ndarray, space_tag: str,
                    records: list[CaptionRecord] | None = None) -> "EmbeddingBank":
        """Bulk constructor from a real numeric matrix; rows are normalized."""
        return cls(_normalize_rows(_check_matrix(matrix)), space_tag,
                   records=records)

    # -- metadata ----------------------------------------------------------

    def _load_records(self) -> list[CaptionRecord]:
        if self._records is None:
            if self._meta_path is None:
                raise errors.CorruptBank("bank has no metadata sidecar")
            self._records = read_jsonl(self._meta_path, "metadata sidecar",
                                       parse_caption_record,
                                       errors.CorruptBank, count=self.count)
        return self._records

    def metadata(self, ids: list[int] | np.ndarray) -> list[CaptionRecord]:
        records = self._load_records()
        out = []
        for row_id in ids:
            row_id = int(row_id)
            if not 0 <= row_id < self.count:
                raise errors.IdOutOfRange(f"id {row_id} outside [0, {self.count})")
            out.append(records[row_id])
        return out


# ---------------------------------------------------------------------------
# module-level operations


def _write(path: Path, space_tag: str, shape: tuple[int, int], payload,
           records: list[CaptionRecord] | None) -> None:
    """Write a bank file, whose rows ``payload(fh)`` writes, and its
    sidecar. Both go to temporary files; the sidecar is renamed into place,
    then the bank, so a failure before that last rename keeps the old
    pair."""
    count, dim = shape
    tag_bytes = _check_tag(space_tag).encode("utf-8")
    header = _HEADER.pack(MAGIC, FORMAT_VERSION, DTYPE_F32, dim, count,
                          len(tag_bytes)) + tag_bytes
    with replace_atomically(path, "bank", "wb") as fh:
        fh.write(header + bytes(-len(header) % PAYLOAD_ALIGN))
        payload(fh)
        with replace_atomically(_meta_path(path), "metadata sidecar") as meta:
            if records is None:
                # the bytes json.dumps writes for CaptionRecord(i, f"item-{i}")
                for start in range(0, count, _SIDECAR_BLOCK):
                    stop = min(start + _SIDECAR_BLOCK, count)
                    meta.write("".join(_PLACEHOLDER % (i, i)
                                       for i in range(start, stop)))
            else:
                for rec in records:
                    meta.write(json.dumps(
                        {"id": rec.id, "text": rec.text, "source": rec.source},
                        ensure_ascii=False) + "\n")


def bank_save(bank: EmbeddingBank, path) -> None:
    """Write the bank file and its metadata sidecar.

    A bank loaded with a sidecar keeps its records; a bank without records
    gets ``item-<id>`` placeholders. The rows are written window by window
    (:func:`files.windows`), so a mapped bank's pages do not all stay
    resident.
    """
    records = bank._records
    if records is None and bank._meta_path is not None:
        records = bank._load_records()

    def payload(fh):
        for _, window in windows(bank.vectors):
            fh.write(np.ascontiguousarray(window, dtype="<f4"))
    _write(Path(path), bank.space_tag, bank.vectors.shape, payload, records)


def bank_build(matrix: np.ndarray, space_tag: str, path,
               records: list[CaptionRecord] | None = None) -> None:
    """``bank_save(EmbeddingBank.from_matrix(matrix, space_tag, records),
    path)``, without holding the normalized rows: they are normalized into
    one reused buffer of ``_INGEST_STEPS`` steps, and each buffer is
    written before the next is filled. A mapped ``matrix`` (an ``.npy``
    loaded with ``mmap_mode="r"``) is read buffer by buffer through
    :func:`files.windows`, so at most ``_MAP_BYTES`` of it plus one buffer
    stays resident."""
    matrix = _check_matrix(matrix)
    count, dim = matrix.shape
    if records is not None and len(records) != count:
        raise errors.LengthMismatch(f"{len(records)} records for {count} rows")
    rows = max(1, _NORMALIZE_VALUES // dim) * _INGEST_STEPS

    def payload(fh):
        buf = np.empty((min(rows, count), dim), "<f4")
        for start, block in windows(matrix, rows):
            fh.write(_normalize_rows(block, buf[:len(block)], start))
    _write(Path(path), space_tag, matrix.shape, payload, records)


def bank_load(path) -> EmbeddingBank:
    """Load a bank, memory-mapping the payload.

    Structural checks (magic, version, dtype, dim, padding, payload size)
    run here; row norms are an ingest-time guarantee and are not re-scanned,
    so loading stays cheap for very large banks.
    """
    path = Path(path)
    try:
        file_size = path.stat().st_size
        with open(path, "rb") as fh:
            fixed = fh.read(_HEADER.size)
            if len(fixed) < _HEADER.size:
                raise errors.CorruptBank("file too small for header",
                                         byte_offset=len(fixed))
            magic, version, dtype, dim, count, tag_len = _HEADER.unpack(fixed)
            if magic != MAGIC:
                raise errors.CorruptBank(f"bad magic {magic!r}", byte_offset=0)
            if version != FORMAT_VERSION:
                raise errors.CorruptBank(f"unsupported version {version}",
                                         byte_offset=8)
            if dtype != DTYPE_F32:
                raise errors.CorruptBank(f"unsupported dtype code {dtype}",
                                         byte_offset=12)
            if dim < 1:
                raise errors.CorruptBank("dim must be >= 1", byte_offset=16)
            if tag_len == 0:
                raise errors.CorruptBank("empty space tag", byte_offset=28)
            tag_bytes = fh.read(tag_len)
            if len(tag_bytes) < tag_len:
                raise errors.CorruptBank("truncated space tag",
                                         byte_offset=_HEADER.size + len(tag_bytes))
            try:
                space_tag = tag_bytes.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise errors.CorruptBank("space tag is not valid UTF-8",
                                         byte_offset=_HEADER.size) from exc
            start = payload_start(fh, file_size, count * dim,
                                  errors.CorruptBank)
    except OSError as exc:
        raise errors.IoError(f"cannot read bank at {path}: {exc}") from exc

    if count == 0:
        vectors = np.empty((0, dim), dtype=np.float32)
    else:
        vectors = np.memmap(path, dtype="<f4", mode="r",
                            offset=start, shape=(count, dim))
    meta = _meta_path(path)
    return EmbeddingBank(vectors, space_tag,
                         meta_path=meta if meta.exists() else None)


def row_norms(rows: np.ndarray) -> np.ndarray:
    """L2 norm of each row, ``sqrt(row.dot(row))`` of the C-contiguous
    float64 row, as ``np.linalg.norm`` computes for one vector. One stacked
    ``matmul`` runs that ``ddot`` per row, so a row's norm depends neither
    on the rows stacked around it nor on the strides it came in."""
    r = np.ascontiguousarray(rows, dtype=np.float64)
    return np.sqrt(np.matmul(r[:, None, :], r[:, :, None])[:, 0, 0])


def norm_bound(rows: np.ndarray) -> float:
    """An upper bound on the largest row norm: NaN if a row is NaN, and
    inf if a row is infinite or its norm exceeds float32's largest finite
    value, where its own scores can overflow.

    Each row's float32 sum of squares is within ``dim * 2**-24`` of the
    true one, whatever the rows around it, and the bound is widened by
    twice that. A window whose float32 squares overflow is summed again in
    float64, where a finite row's cannot. No float64 copy of a block is
    made. The rows are read through :func:`files.windows` in windows of at
    most ``_MAP_BYTES``, at any width.
    """
    top = np.float64(0)
    for _, block in windows(rows):
        squares = np.einsum("ij,ij->i", block, block).max()
        if squares == np.inf:
            squares = np.einsum("ij,ij->i", block, block, dtype="f8").max()
        top = np.maximum(top, squares)  # not max(): a NaN must stay NaN
    bound = float(np.sqrt(top)) * (1 + rows.shape[1] * 2.0 ** -23)
    return np.inf if bound > float(np.finfo(np.float32).max) else bound


def check_norms(bank: EmbeddingBank, atol: float = NORM_ATOL) -> bool:
    """Full scan verifying the unit-norm invariant. Opt-in, O(count * dim).

    It takes the steps :func:`_normalize_rows` takes, so that its float64
    temporaries stay in L2, through :func:`files.windows`.
    """
    step = max(1, _NORMALIZE_VALUES // bank.dim)
    for _, block in windows(bank.vectors, step):
        norms = np.linalg.norm(np.asarray(block, np.float64), axis=1)
        if not np.all(np.abs(norms - 1.0) <= atol):
            return False
    return True
