"""Exact and inverted-file cosine retrieval over embedding banks.

Scores are plain float32 dot products (rows are unit norm, so dot == cosine).
Both the exact scan and the IVF candidate scan push rows through one blocked
scoring helper with a fixed block size: BLAS kernels pick different
accumulation orders for different call shapes, so sharing the block shape is
what makes ``ivf_search`` with ``nprobe == n_clusters`` return results that
are bit-for-bit identical to ``exact_topk``.

Ordering contract everywhere: hits sorted by descending score, ties broken
by ascending id.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import errors
from .bank import EmbeddingBank, NORM_ATOL, replace_atomically

INDEX_MAGIC = b"RTRCIVF1"
INDEX_VERSION = 1
SCAN_BLOCK = 131072  # rows per scoring call; fixed so kernel shape is stable
DEFAULT_MAX_ITERS = 25
_TRAIN_ROWS_PER_CLUSTER = 256

_INDEX_HEADER = struct.Struct("<8sIIIQ")  # magic, version, n_clusters, dim, seed


@dataclass(frozen=True)
class RetrievalHit:
    id: int
    score: float


@dataclass(frozen=True)
class QueryEmbedding:
    """A unit-norm query carrying the tag of the space it lives in."""

    vector: np.ndarray
    space_tag: str

    def __post_init__(self):
        vec = np.asarray(self.vector, dtype=np.float32).reshape(-1)
        norm = float(np.linalg.norm(np.asarray(vec, np.float64)))
        if norm <= 1e-8:
            raise errors.ZeroVector("query vector has near-zero norm")
        if abs(norm - 1.0) > NORM_ATOL:
            raise errors.ValidationError(
                f"query vector norm {norm:.6f} is not unit within {NORM_ATOL}")
        object.__setattr__(self, "vector", vec)

    @classmethod
    def from_raw(cls, vector, space_tag: str) -> "QueryEmbedding":
        """Normalize an arbitrary non-zero vector into a query."""
        vec = np.asarray(vector, dtype=np.float64).reshape(-1)
        norm = np.linalg.norm(vec)
        if norm <= 1e-8:
            raise errors.ZeroVector("cannot normalize a zero vector")
        return cls((vec / norm).astype(np.float32), space_tag)


def _check_query(query: QueryEmbedding, bank: EmbeddingBank) -> np.ndarray:
    if bank.count == 0:
        raise errors.EmptyBank("bank holds no vectors")
    qv = query.vector
    if qv.shape[0] != bank.dim:
        raise errors.DimensionMismatch(
            f"query has {qv.shape[0]} dims, bank has {bank.dim}")
    if query.space_tag != bank.space_tag:
        raise errors.SpaceMismatch(
            f"query space {query.space_tag!r} != bank space {bank.space_tag!r}")
    return qv


def _block_candidates(scores: np.ndarray, k: int) -> np.ndarray:
    """Positions of the block's top-k scores, including boundary ties."""
    n = scores.shape[0]
    if n <= k:
        return np.arange(n)
    part = np.argpartition(scores, n - k)[n - k:]
    kth = scores[part].min()
    return np.flatnonzero(scores >= kth)


def _topk_merge(ids: np.ndarray, scores: np.ndarray, k: int) -> list[RetrievalHit]:
    order = np.lexsort((ids, -scores))[:k]
    return [RetrievalHit(int(ids[i]), float(scores[i])) for i in order]


def exact_topk(query: QueryEmbedding, bank: EmbeddingBank, k: int) -> list[RetrievalHit]:
    """Exhaustive scan. Returns min(k, count) hits, score-desc, ties id-asc."""
    if k < 1:
        raise errors.ValidationError(f"k must be >= 1, got {k}")
    qv = _check_query(query, bank)
    vectors = bank.vectors
    cand_ids = []
    cand_scores = []
    for start in range(0, bank.count, SCAN_BLOCK):
        scores = vectors[start:start + SCAN_BLOCK] @ qv
        pos = _block_candidates(scores, k)
        cand_ids.append(pos.astype(np.int64) + start)
        cand_scores.append(scores[pos])
    ids = np.concatenate(cand_ids)
    scores = np.concatenate(cand_scores)
    return _topk_merge(ids, scores, min(k, bank.count))


@dataclass
class IvfIndex:
    """Inverted-file index: unit-norm centroids plus per-cluster id lists."""

    n_clusters: int
    dim: int
    seed: int
    centroids: np.ndarray                 # (n_clusters, dim) float32
    lists: list[np.ndarray]               # uint64 ids, ascending within a list
    bank: EmbeddingBank | None = field(default=None, repr=False)

    def attach(self, bank: EmbeddingBank) -> "IvfIndex":
        if bank.dim != self.dim:
            raise errors.DimensionMismatch(
                f"index dim {self.dim} != bank dim {bank.dim}")
        total = sum(len(lst) for lst in self.lists)
        if total != bank.count:
            raise errors.BankMisalignment(
                f"index covers {total} ids, bank has {bank.count} rows")
        self.bank = bank
        return self


def _spherical_kmeans(train: np.ndarray, n_clusters: int, seed: int,
                      max_iters: int) -> np.ndarray:
    """Lloyd iterations on the unit sphere; deterministic for a fixed seed."""
    rng = np.random.default_rng(seed)
    n = train.shape[0]

    # k-means++ seeding on angular distance; chosen rows get weight 0 so a
    # row cannot be picked twice even when cos(v, v) rounds just below 1
    first = int(rng.integers(n))
    chosen = np.zeros(n, dtype=bool)
    chosen[first] = True
    centers = [train[first].copy()]
    d2 = np.maximum(2.0 - 2.0 * (train @ centers[0]).astype(np.float64), 0.0)
    d2[chosen] = 0.0
    for _ in range(1, n_clusters):
        total = d2.sum()
        if total > 0.0:
            pick = int(rng.choice(n, p=d2 / total))
        else:
            # every remaining row duplicates a chosen one; take the lowest id
            pick = int(np.flatnonzero(~chosen)[0])
        chosen[pick] = True
        centers.append(train[pick].copy())
        d2 = np.minimum(d2, np.maximum(
            2.0 - 2.0 * (train @ centers[-1]).astype(np.float64), 0.0))
        d2[chosen] = 0.0
    centroids = np.vstack(centers)

    labels = None
    for _ in range(max_iters):
        new_labels = _assign(train, centroids)
        if labels is not None and np.array_equal(new_labels, labels):
            break
        labels = new_labels
        labels = _fix_empty_clusters(train, centroids, labels, n_clusters)
        centroids = _update_centroids(train, labels, centroids, n_clusters)
    return centroids


def _assign(rows: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Argmax-cosine assignment; ties go to the lowest cluster id."""
    out = np.empty(rows.shape[0], dtype=np.int64)
    for start in range(0, rows.shape[0], SCAN_BLOCK):
        block = rows[start:start + SCAN_BLOCK]
        out[start:start + SCAN_BLOCK] = np.argmax(block @ centroids.T, axis=1)
    return out


def _fix_empty_clusters(rows: np.ndarray, centroids: np.ndarray,
                        labels: np.ndarray, n_clusters: int) -> np.ndarray:
    sizes = np.bincount(labels, minlength=n_clusters)
    for empty in np.flatnonzero(sizes == 0):
        donor = int(np.argmax(sizes))  # argmax takes the lowest id on ties
        members = np.flatnonzero(labels == donor)
        member_scores = rows[members] @ centroids[donor]
        far = members[int(np.lexsort((members, member_scores))[0])]
        labels[far] = empty
        centroids[empty] = rows[far]
        sizes[donor] -= 1
        sizes[empty] += 1
    return labels


def _update_centroids(rows: np.ndarray, labels: np.ndarray,
                      old: np.ndarray, n_clusters: int) -> np.ndarray:
    """Mean of members, renormalized. Deterministic ascending-id accumulation."""
    order = np.argsort(labels, kind="stable")
    sorted_rows = rows[order].astype(np.float64)
    sorted_labels = labels[order]
    boundaries = np.flatnonzero(np.diff(sorted_labels)) + 1
    starts = np.concatenate(([0], boundaries))
    sums = np.add.reduceat(sorted_rows, starts, axis=0)
    present = sorted_labels[starts]
    counts = np.bincount(labels, minlength=n_clusters)

    new = old.astype(np.float64).copy()
    new[present] = sums / counts[present, None]
    norms = np.linalg.norm(new, axis=1)
    degenerate = norms <= 1e-12
    new[degenerate] = old[degenerate]
    norms[degenerate] = 1.0
    return (new / norms[:, None]).astype(np.float32)


def build_ivf(bank: EmbeddingBank, n_clusters: int, seed: int,
              max_iters: int = DEFAULT_MAX_ITERS) -> IvfIndex:
    """Train a spherical k-means coarse quantizer and invert the assignment.

    Training runs on a seeded subsample of at most 256 rows per centroid;
    the final assignment pass always covers the full bank.
    """
    if bank.count == 0:
        raise errors.EmptyBank("cannot index an empty bank")
    if n_clusters < 1:
        raise errors.ValidationError(f"n_clusters must be >= 1, got {n_clusters}")
    if n_clusters > bank.count:
        raise errors.TooManyClusters(
            f"{n_clusters} clusters for {bank.count} vectors")
    if max_iters < 1:
        raise errors.ValidationError(f"max_iters must be >= 1, got {max_iters}")

    rng = np.random.default_rng(seed)
    budget = _TRAIN_ROWS_PER_CLUSTER * n_clusters
    if bank.count > budget:
        train_idx = np.sort(rng.choice(bank.count, size=budget, replace=False))
        train = np.ascontiguousarray(bank.vectors[train_idx])
    else:
        train = np.asarray(bank.vectors)

    centroids = _spherical_kmeans(train, n_clusters, seed, max_iters)
    labels = _assign(np.asarray(bank.vectors), centroids)
    lists = [np.flatnonzero(labels == c).astype(np.uint64)
             for c in range(n_clusters)]
    return IvfIndex(n_clusters=n_clusters, dim=bank.dim, seed=int(seed),
                    centroids=centroids, lists=lists, bank=bank)


def ivf_search(index: IvfIndex, query: QueryEmbedding, k: int,
               nprobe: int) -> list[RetrievalHit]:
    """Scan the nprobe clusters whose centroids best match the query."""
    if index.bank is None:
        raise errors.ValidationError("index is not attached to a bank")
    if k < 1:
        raise errors.ValidationError(f"k must be >= 1, got {k}")
    if nprobe < 1 or nprobe > index.n_clusters:
        raise errors.InvalidProbe(
            f"nprobe must be in [1, {index.n_clusters}], got {nprobe}")
    bank = index.bank
    qv = _check_query(query, bank)

    cscores = index.centroids @ qv
    probed = np.lexsort((np.arange(index.n_clusters), -cscores))[:nprobe]
    if nprobe == index.n_clusters:
        cand = np.arange(bank.count, dtype=np.int64)
    else:
        parts = [index.lists[c] for c in probed]
        cand = np.sort(np.concatenate(parts).astype(np.int64))
    if cand.shape[0] == 0:
        return []

    vectors = bank.vectors
    cand_ids = []
    cand_scores = []
    for start in range(0, cand.shape[0], SCAN_BLOCK):
        chunk = cand[start:start + SCAN_BLOCK]
        scores = np.ascontiguousarray(vectors[chunk]) @ qv
        pos = _block_candidates(scores, k)
        cand_ids.append(chunk[pos])
        cand_scores.append(scores[pos])
    ids = np.concatenate(cand_ids)
    scores = np.concatenate(cand_scores)
    return _topk_merge(ids, scores, min(k, cand.shape[0]))


def recall_at_k(approx: list[RetrievalHit], exact: list[RetrievalHit]) -> float:
    """|approx ids ∩ exact ids| / |exact ids|."""
    if len(exact) == 0:
        raise errors.EmptyBaseline("exact hit list is empty")
    exact_ids = {h.id for h in exact}
    got = sum(1 for h in approx if h.id in exact_ids)
    return got / len(exact_ids)


class Retriever:
    """Binds a bank (and optionally an IVF index) behind one top-k call."""

    def __init__(self, bank: EmbeddingBank, index: IvfIndex | None = None,
                 nprobe: int | None = None):
        if index is not None:
            if index.bank is not bank:
                index = IvfIndex(index.n_clusters, index.dim, index.seed,
                                 index.centroids, index.lists).attach(bank)
            if nprobe is None:
                raise errors.InvalidProbe("nprobe is required with an index")
        self.bank = bank
        self.index = index
        self.nprobe = nprobe

    def topk(self, vector: np.ndarray, k: int, space_tag: str | None = None) -> list[RetrievalHit]:
        query = QueryEmbedding(np.asarray(vector, np.float32),
                               space_tag if space_tag is not None else self.bank.space_tag)
        if self.index is None:
            return exact_topk(query, self.bank, k)
        return ivf_search(self.index, query, k, self.nprobe)


def check_threads(threads: int) -> None:
    """Validate a ``threads`` argument.

    The value never changes results and starts no workers: queries run one
    after another and BLAS does its own threading (OPENBLAS_NUM_THREADS).
    """
    if threads < 0:
        raise errors.ValidationError(f"threads must be >= 0, got {threads}")


def batch_topk(queries: list[QueryEmbedding], bank: EmbeddingBank, k: int,
               index: IvfIndex | None = None, nprobe: int | None = None,
               threads: int = 1) -> list[list[RetrievalHit]]:
    """Per-query top-k with order-preserving output.

    ``threads`` is validated by :func:`check_threads` and otherwise unused.
    """
    check_threads(threads)
    retriever = Retriever(bank, index, nprobe)
    out = []
    for i, q in enumerate(queries):
        try:
            if retriever.index is None:
                out.append(exact_topk(q, bank, k))
            else:
                out.append(ivf_search(retriever.index, q, k, retriever.nprobe))
        except errors.RetroclassError as exc:
            raise type(exc)(f"query {i}: {exc}") from exc
    return out


# ---------------------------------------------------------------------------
# index file round-trip


def save_index(index: IvfIndex, path) -> None:
    path = Path(path)
    header = _INDEX_HEADER.pack(INDEX_MAGIC, INDEX_VERSION,
                                index.n_clusters, index.dim, index.seed)
    try:
        with replace_atomically(path, "wb") as fh:
            fh.write(header)
            fh.write(np.ascontiguousarray(index.centroids, "<f4").tobytes())
            for lst in index.lists:
                fh.write(struct.pack("<Q", len(lst)))
                fh.write(np.ascontiguousarray(lst, "<u8").tobytes())
    except OSError as exc:
        raise errors.IoError(f"cannot write index to {path}: {exc}") from exc


def load_index(path, bank: EmbeddingBank | None = None) -> IvfIndex:
    path = Path(path)
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise errors.IoError(f"cannot read index at {path}: {exc}") from exc

    if len(data) < _INDEX_HEADER.size:
        raise errors.CorruptIndex("file too small for header",
                                  byte_offset=len(data))
    magic, version, n_clusters, dim, seed = _INDEX_HEADER.unpack_from(data, 0)
    if magic != INDEX_MAGIC:
        raise errors.CorruptIndex(f"bad magic {magic!r}", byte_offset=0)
    if version != INDEX_VERSION:
        raise errors.CorruptIndex(f"unsupported version {version}", byte_offset=8)
    if n_clusters < 1 or dim < 1:
        raise errors.CorruptIndex("degenerate cluster count or dim",
                                  byte_offset=12)
    offset = _INDEX_HEADER.size
    cbytes = n_clusters * dim * 4
    if len(data) < offset + cbytes:
        raise errors.CorruptIndex("truncated centroid payload",
                                  byte_offset=len(data))
    centroids = np.frombuffer(data, dtype="<f4", count=n_clusters * dim,
                              offset=offset).reshape(n_clusters, dim).copy()
    offset += cbytes
    lists = []
    for _ in range(n_clusters):
        if len(data) < offset + 8:
            raise errors.CorruptIndex("truncated list header",
                                      byte_offset=len(data))
        (length,) = struct.unpack_from("<Q", data, offset)
        offset += 8
        lbytes = length * 8
        if len(data) < offset + lbytes:
            raise errors.CorruptIndex("truncated id list", byte_offset=len(data))
        lists.append(np.frombuffer(data, dtype="<u8", count=length,
                                   offset=offset).copy())
        offset += lbytes
    if offset != len(data):
        raise errors.CorruptIndex("trailing bytes after id lists",
                                  byte_offset=offset)

    ids = np.sort(np.concatenate(lists)) if lists else np.array([], np.uint64)
    total = int(ids.shape[0])
    if total and not np.array_equal(ids, np.arange(total, dtype=np.uint64)):
        raise errors.CorruptIndex("id lists do not cover a dense range")

    index = IvfIndex(n_clusters=n_clusters, dim=dim, seed=int(seed),
                     centroids=centroids, lists=lists)
    if bank is not None:
        index.attach(bank)
    return index
