"""Embedding bank storage.

A bank is an immutable, flat float32 matrix with a fixed row width plus a
JSON-lines metadata sidecar keyed by dense row id. Every row is
L2-normalized on ingest (norm computed in float64, then rounded to float32)
so that dot product equals cosine similarity everywhere downstream.

On-disk layout, all little-endian:

    8 bytes   magic  b"RTRCBANK"
    u32       format version (1)
    u32       dtype code (1 = float32)
    u32       dim
    u64       count
    u16       space-tag byte length, followed by the UTF-8 tag bytes
    payload   count * dim float32 values, row-major

The metadata sidecar lives at ``<bankfile>.meta.jsonl`` with one JSON object
per row: ``{"id": int, "text": str, "source": str | null}``. It is only read
when metadata is actually requested.
"""

from __future__ import annotations

import json
import os
import struct
import uuid
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import errors

MAGIC = b"RTRCBANK"
FORMAT_VERSION = 1
DTYPE_F32 = 1
NORM_ATOL = 1e-4
ZERO_NORM_EPS = 1e-8

# magic, version, dtype, dim, count, tag byte length
_HEADER = struct.Struct("<8sIIIQH")
_NORM_BLOCK = 65536  # rows normalized per pass, caps float64 temporaries


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


@dataclass(frozen=True)
class BankHeader:
    version: int
    dtype: int
    dim: int
    count: int
    space_tag: str

    @property
    def header_size(self) -> int:
        return _HEADER.size + len(self.space_tag.encode("utf-8"))

    @property
    def payload_size(self) -> int:
        return self.count * self.dim * 4


def _check_tag(space_tag: str) -> str:
    if not isinstance(space_tag, str) or not space_tag:
        raise errors.ValidationError("space tag must be a non-empty string")
    if len(space_tag.encode("utf-8")) > 0xFFFF:
        raise errors.ValidationError("space tag longer than 65535 bytes")
    return space_tag


def _normalize_rows(matrix: np.ndarray) -> np.ndarray:
    """Unit-normalize rows in float64, round to float32.

    Rejects rows that are non-finite or too short to carry a direction.
    """
    out = np.empty(matrix.shape, dtype=np.float32)
    for start in range(0, matrix.shape[0], _NORM_BLOCK):
        block = np.asarray(matrix[start:start + _NORM_BLOCK], dtype=np.float64)
        if not np.all(np.isfinite(block)):
            bad = start + int(np.flatnonzero(~np.isfinite(block).all(axis=1))[0])
            raise errors.ValidationError(f"row {bad} contains non-finite values")
        norms = np.linalg.norm(block, axis=1)
        small = norms <= ZERO_NORM_EPS
        if np.any(small):
            bad = start + int(np.flatnonzero(small)[0])
            raise errors.ZeroVector(f"row {bad} has near-zero norm")
        out[start:start + _NORM_BLOCK] = block / norms[:, None]
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

    def row(self, row_id: int) -> np.ndarray:
        if not 0 <= row_id < self.count:
            raise errors.IdOutOfRange(f"id {row_id} outside [0, {self.count})")
        return self._vectors[row_id]

    @classmethod
    def from_matrix(cls, matrix: np.ndarray, space_tag: str,
                    records: list[CaptionRecord] | None = None,
                    normalize: bool = True) -> "EmbeddingBank":
        """Bulk constructor. Rows are normalized unless already unit norm."""
        matrix = np.asarray(matrix)
        if matrix.ndim != 2:
            raise errors.InvalidDimension("expected a 2-D matrix")
        if matrix.shape[1] < 1:
            raise errors.InvalidDimension("bank dim must be >= 1")
        data = _normalize_rows(matrix) if normalize else np.asarray(matrix, np.float32)
        return cls(data, space_tag, records=records)

    # -- metadata ----------------------------------------------------------

    def _load_records(self) -> list[CaptionRecord]:
        if self._records is None:
            if self._meta_path is None:
                raise errors.CorruptBank("bank has no metadata sidecar")
            self._records = _read_sidecar(self._meta_path, self.count)
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


class BankBuilder:
    """Accumulates rows one at a time, then freezes into an EmbeddingBank."""

    def __init__(self, dim: int, space_tag: str):
        if dim < 1:
            raise errors.InvalidDimension(f"dim must be >= 1, got {dim}")
        self.dim = int(dim)
        self.space_tag = _check_tag(space_tag)
        self._rows: list[np.ndarray] = []
        self._records: list[CaptionRecord | None] = []
        self._finalized = False

    @property
    def count(self) -> int:
        return len(self._rows)

    def append(self, vector, record: CaptionRecord | None = None) -> int:
        if self._finalized:
            raise errors.ValidationError("builder already finalized")
        vec = np.asarray(vector, dtype=np.float64).reshape(-1)
        if vec.shape[0] != self.dim:
            raise errors.DimensionMismatch(
                f"vector has {vec.shape[0]} dims, bank expects {self.dim}")
        if not np.all(np.isfinite(vec)):
            raise errors.ValidationError("vector contains non-finite values")
        norm = np.linalg.norm(vec)
        if norm <= ZERO_NORM_EPS:
            raise errors.ZeroVector("cannot normalize a zero vector")
        row_id = len(self._rows)
        if record is not None and record.id != row_id:
            raise errors.IdOutOfRange(
                f"record id {record.id} does not match next row id {row_id}")
        self._rows.append((vec / norm).astype(np.float32))
        self._records.append(record)
        return row_id

    def finalize(self) -> EmbeddingBank:
        if self._finalized:
            raise errors.ValidationError("builder already finalized")
        self._finalized = True
        if self._rows:
            matrix = np.vstack(self._rows)
        else:
            matrix = np.empty((0, self.dim), dtype=np.float32)
        records = [
            rec if rec is not None else CaptionRecord(i, f"item-{i}")
            for i, rec in enumerate(self._records)
        ]
        return EmbeddingBank(matrix, self.space_tag, records=records)


# ---------------------------------------------------------------------------
# module-level operations


def bank_create(dim: int, space_tag: str) -> BankBuilder:
    return BankBuilder(dim, space_tag)


def bank_append(builder: BankBuilder, vector, record: CaptionRecord | None = None) -> int:
    return builder.append(vector, record)


@contextmanager
def replace_atomically(path: Path, mode: str):
    """Write to a new file beside ``path`` that replaces it once complete.

    A reader that memory-maps the old file keeps the old inode, so saving a
    bank onto the file it was loaded from cannot truncate the pages being
    read, and a failed write leaves the old file as it was. There is no
    fsync: this does not make the file durable across a power loss.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{uuid.uuid4().hex[:12]}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, mode, encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def bank_save(bank: EmbeddingBank, path) -> None:
    """Write the bank file and its metadata sidecar.

    A bank loaded with a sidecar keeps its records; a bank without records
    gets ``item-<id>`` placeholders.
    """
    path = Path(path)
    tag_bytes = bank.space_tag.encode("utf-8")
    header = _HEADER.pack(MAGIC, FORMAT_VERSION, DTYPE_F32,
                          bank.dim, bank.count, len(tag_bytes))
    payload = np.ascontiguousarray(bank.vectors, dtype="<f4")
    records = bank._records
    if records is None and bank._meta_path is not None:
        records = bank._load_records()
    try:
        with replace_atomically(path, "wb") as fh:
            fh.write(header)
            fh.write(tag_bytes)
            fh.write(payload.tobytes())
        with replace_atomically(_meta_path(path), "w") as fh:
            for i in range(bank.count):
                rec = records[i] if records is not None else None
                if rec is None:
                    rec = CaptionRecord(i, f"item-{i}")
                fh.write(json.dumps(
                    {"id": rec.id, "text": rec.text, "source": rec.source},
                    ensure_ascii=False) + "\n")
    except OSError as exc:
        raise errors.IoError(f"cannot write bank to {path}: {exc}") from exc


def bank_load(path) -> EmbeddingBank:
    """Load a bank, memory-mapping the payload.

    Structural checks (magic, version, dtype, dim, payload size) run here;
    row norms are an ingest-time guarantee and are not re-scanned, so loading
    stays cheap for very large banks.
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
            tag_bytes = fh.read(tag_len)
            if len(tag_bytes) < tag_len:
                raise errors.CorruptBank("truncated space tag",
                                         byte_offset=_HEADER.size + len(tag_bytes))
            try:
                space_tag = tag_bytes.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise errors.CorruptBank("space tag is not valid UTF-8",
                                         byte_offset=_HEADER.size) from exc
    except OSError as exc:
        raise errors.IoError(f"cannot read bank at {path}: {exc}") from exc

    header_size = _HEADER.size + tag_len
    expected = count * dim * 4
    actual = file_size - header_size
    if actual != expected:
        kind = "truncated payload" if actual < expected else "trailing bytes after payload"
        raise errors.CorruptBank(
            f"{kind}: expected {expected} payload bytes, found {actual}",
            byte_offset=header_size + min(actual, expected))
    if count == 0:
        vectors = np.empty((0, dim), dtype=np.float32)
    else:
        vectors = np.memmap(path, dtype="<f4", mode="r",
                            offset=header_size, shape=(count, dim))
    meta = _meta_path(path)
    return EmbeddingBank(vectors, space_tag,
                         meta_path=meta if meta.exists() else None)


def _read_sidecar(path: Path, expected_count: int) -> list[CaptionRecord]:
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise errors.IoError(f"cannot read metadata sidecar {path}: {exc}") from exc
    if len(lines) != expected_count:
        raise errors.CorruptBank(
            f"sidecar has {len(lines)} rows, bank has {expected_count}")
    records = []
    for i, line in enumerate(lines):
        try:
            obj = json.loads(line)
            rec = CaptionRecord(int(obj["id"]), obj["text"], obj.get("source"))
        except (json.JSONDecodeError, KeyError, TypeError,
                errors.RetroclassError) as exc:
            raise errors.CorruptBank(f"sidecar line {i} is invalid: {exc}") from exc
        if rec.id != i:
            raise errors.CorruptBank(
                f"sidecar line {i} carries id {rec.id}, expected {i}")
        records.append(rec)
    return records


def join_metadata(bank: EmbeddingBank, ids) -> list[CaptionRecord]:
    """Resolve row ids to their caption records, preserving input order."""
    return bank.metadata(ids)


def check_norms(bank: EmbeddingBank, atol: float = NORM_ATOL) -> bool:
    """Full scan verifying the unit-norm invariant. Opt-in, O(count * dim)."""
    for start in range(0, bank.count, _NORM_BLOCK):
        block = np.asarray(bank.vectors[start:start + _NORM_BLOCK], np.float64)
        norms = np.linalg.norm(block, axis=1)
        if not np.all(np.abs(norms - 1.0) <= atol):
            return False
    return True
