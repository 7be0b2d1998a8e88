"""Exact and inverted-file cosine retrieval over embedding banks.

Scores are plain float32 dot products (rows are unit norm, so dot == cosine).
:func:`search` is the one retrieval path, and one loop (:func:`_scan`) runs
every scan over blocks of at most ``SCAN_BLOCK`` rows: the exact scan over
contiguous blocks, the IVF centroid probe as an exact scan of the
centroids, and the IVF candidate scan, which reads each probed list once
per search and scores it against every row that probes it. A loaded index
reads a list as one slice of the rows its file stores in list order (the
layout of FAISS's IVFFlat); an index built in memory gathers the list's
rows from its bank.

An exact scan gives each row the bits of a one-thread ``block @ query``
per block, whatever the batch, the row's place in it, or
``OPENBLAS_NUM_THREADS``. It selects, then re-scores, as FAISS's
``IndexRefineFlat`` and ScaNN's reorder step do. One ``Q @ block.T`` per run
of query rows keeps each row's candidates (one ``sgemv`` per row for runs of
fewer than 4). A run over an m-row block holds ``QUERY_BLOCK * SCAN_BLOCK //
m`` rows, a budget of selection scores: 64 rows at a full block, every row
of a 256-row batch over an 8192-row bank. A row's candidates are the block
rows scoring at or above a lower bound on its k-th score minus ``4 * dim *
2**-23 * N``, where ``N`` bounds the largest row norm (cached per bank,
computed per call for the centroids); the bound is the k-th largest
maximum of 256 strided column groups, one ``np.partition`` per run. Then
each run's candidates are gathered at once, each row's into its own
zero-padded segment of a multiple of 16 rows, and each row is scored
exactly with one ``sgemv`` over its segment; a block's last ``m mod 8``
rows are scored as its last ``(m mod 8) + 8`` rows. This is measured with
OpenBLAS 0.3.31 at 1 and 2 BLAS threads: its SkylakeX core, and its
Haswell, Zen and Nehalem cores, give these bits, and its Sandybridge core
does not; OpenBLAS's splits at 3 or more threads are untested. An IVF
list is scored in tiles of ``_TILE_BYTES`` (a multiple of 16 rows, the
last tile taking the rest), each tile against every row that probes the
list before the next tile is read, so the rows after the first find the
tile in L2. At one BLAS thread a tile's scores are the bits of the whole
list block's ``block @ query``; at more, OpenBLAS splits a tile's product
between threads, so a list's bits can move with the thread count, but
every list is tiled alike however many rows probe it. A list's final
scores keep the cells at or above the same bound, with no margin, and one
merge cuts every row's candidates to k, the exact scan's and the lists'.

So a row's hits are bitwise the same in a batch of any size, and probing
every IVF list is the exact scan.

A mapped bank or index file is read in pieces of at most ``_MAP_BYTES``
(64 MiB), whatever its size or row width: the exact scan's selection and
re-score windows, the IVF tiles and the assignment's products, each
counted in one :class:`files.PageBudget`, so a scan or a build keeps at
most twice the budget of the file resident.

Ordering contract everywhere: hits sorted by descending score, ties broken
by ascending id.
"""

from __future__ import annotations

import os
import struct
import weakref
from dataclasses import dataclass, field

import numpy as np

from . import errors
from .bank import EmbeddingBank, NORM_ATOL, norm_bound, row_norms
from .errors import row_error
from .files import (PAYLOAD_ALIGN, PageBudget, payload_start,
                    replace_atomically, window_rows, windows)

INDEX_MAGIC = b"RTRCIVF1"
INDEX_VERSION = 2
SCAN_BLOCK = 131072  # rows per scoring call; fixed so kernel shape is stable
QUERY_BLOCK = 64  # query rows per selection product at SCAN_BLOCK rows: 32 MB
_RESCORE_ROWS = 4096  # candidate rows per exact re-score gather
_GROUPS = 256  # strided column groups whose maxima bound a k-th score
_TILE_BYTES = 1 << 20  # IVF list bytes per tile: half a 2 MiB per-core L2
_PREFILL_BYTES = 4 << 20  # zero bytes per write that save_index prefills
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
        check_unit_rows(vec[None, :], "query")
        object.__setattr__(self, "vector", vec)

    @classmethod
    def from_raw(cls, vector, space_tag: str) -> "QueryEmbedding":
        """Normalize an arbitrary non-zero vector into a query."""
        vec = np.asarray(vector, dtype=np.float64).reshape(-1)
        norm = np.linalg.norm(vec)
        if norm <= 1e-8:
            raise errors.ZeroVector("cannot normalize a zero vector")
        return cls((vec / norm).astype(np.float32), space_tag)


def check_unit_rows(queries: np.ndarray, what: str) -> None:
    """Every row of the float32 stack is unit norm within ``NORM_ATOL``; an
    error about one row of several names it as ``what i``."""
    norms = row_norms(queries)
    # written so that a NaN norm fails it too
    bad = np.flatnonzero(~(np.abs(norms - 1.0) <= NORM_ATOL))
    if bad.size:
        row, norm = int(bad[0]), float(norms[bad[0]])
        if norm <= 1e-8:
            raise row_error(errors.ZeroVector, what, row, len(norms),
                            "query vector has near-zero norm")
        raise row_error(errors.ValidationError, what, row, len(norms),
                        f"query vector norm {norm:.6f} is not unit within "
                        f"{NORM_ATOL}")


@dataclass(frozen=True)
class HitTable:
    """Top-k retrieval results of n queries, as arrays.

    The table is (n, min(k, bank rows)) wide: no row can hold more hits than
    the bank has rows, so a large k never sizes it. Row i holds
    ``counts[i]`` hits in its first columns, score-desc with ties id-asc. An
    IVF probe can return fewer hits, or none; the unused cells are 0.
    """

    ids: np.ndarray      # (n, width) int64
    scores: np.ndarray   # (n, width) float64, the float32 scores widened
    counts: np.ndarray   # (n,) int64

    def hits(self, row: int) -> list[RetrievalHit]:
        c = int(self.counts[row])
        return [RetrievalHit(i, s) for i, s in
                zip(self.ids[row, :c].tolist(), self.scores[row, :c].tolist())]


def _check_finite(scores: np.ndarray, ids: np.ndarray, what: str) -> None:
    """Unit-norm rows only give finite scores, so a non-finite one means a
    corrupt row. Raise for the first non-finite cell of ``scores`` in row
    order, naming its column as ``what`` and its id: ``ids`` holds the id
    of each of the m columns of an (n, m) buffer, or of each score of a
    flat gather. The error is :class:`CorruptBank` for a ``"bank row"``
    and :class:`CorruptIndex` for a centroid or an index file's row."""
    finite = np.isfinite(scores)
    if not finite.all():
        at = int(np.argmin(finite))  # the first False, in row order
        error = errors.CorruptBank if what == "bank row" else errors.CorruptIndex
        raise error(f"{what} {int(ids[at % len(ids)])} gives a non-finite "
                    f"score ({scores.flat[at]})")


def _kth_lower_bound(scores: np.ndarray, k: int) -> np.ndarray:
    """A lower bound on the k-th largest score of each row of ``scores``,
    for ``1 <= k <= m`` columns: the bound that every scan selects with.

    Column j falls in group ``j % _GROUPS``. The k largest group maxima
    are k scores of distinct columns, so the k-th largest of them is at
    most the row's k-th largest score. The groups are strided because a
    bank keeps related rows together (a class's captions): contiguous
    groups put a row's top scores into a few groups and lower the bound.
    With k at least the group count, or m at most it, this is the exact
    k-th score. NaN ranks above every number, as in ``np.sort``. Each
    ``np.partition`` copies at most ``SCAN_BLOCK`` scores, not the buffer.
    """
    n, m = scores.shape
    if k < _GROUPS < m:
        body = m - m % _GROUPS
        top = scores[:, :body].reshape(n, -1, _GROUPS).max(axis=1)
        if body < m:
            np.maximum(top[:, :m - body], scores[:, body:],
                       out=top[:, :m - body])
        scores = top
    cut = scores.shape[1] - k
    step = max(1, SCAN_BLOCK // scores.shape[1])
    out = np.empty(n, scores.dtype)
    for lo in range(0, n, step):
        out[lo:lo + step] = np.partition(scores[lo:lo + step], cut,
                                         axis=1)[:, cut]
    return out


def _candidates(scores: np.ndarray, k: int, margin: float) -> np.ndarray:
    """The candidate mask of a selection run, or of an IVF list buffer at
    ``margin`` 0: the cells at or above their row's :func:`_kth_lower_bound`
    minus ``margin``; every cell when the block has at most k rows, or when
    ``margin`` is not finite (a row is not finite, or its norm exceeds
    float32's largest finite value, the only ways a score can fail to be)."""
    if scores.shape[1] <= k or not np.isfinite(margin):
        return np.ones(scores.shape, bool)
    return scores >= (_kth_lower_bound(scores, k) - margin)[:, None]


def _cells(mask: np.ndarray, whole_rows: bool = False):
    """(rows, positions) of the candidate cells of an (n, m) selection run,
    row by row and ascending within a row, at most ``_RESCORE_ROWS`` at a
    time; ``mask`` is :func:`_candidates`'. Each ``np.flatnonzero`` covers
    the rows whose cells start in one ``_RESCORE_ROWS`` stretch, so no
    array holds more than that plus one row's cells. With ``whole_rows``
    that stretch is yielded whole, so no row's cells are split: for rows
    of at most 8 values, which :func:`_rescore` scores with one whole-block
    product per query row and call."""
    n, m = mask.shape
    if np.count_nonzero(mask) <= _RESCORE_ROWS:
        firsts = [0]
    else:
        counts = np.count_nonzero(mask, axis=1)
        stretch = (np.cumsum(counts) - counts) // _RESCORE_ROWS
        firsts = np.flatnonzero(np.diff(stretch, prepend=-1)).tolist()
    for a, b in zip(firsts, firsts[1:] + [n]):
        cells = np.flatnonzero(mask[a:b]) + a * m
        if whole_rows:
            yield np.divmod(cells, m)
            continue
        for lo in range(0, cells.shape[0], _RESCORE_ROWS):
            yield np.divmod(cells[lo:lo + _RESCORE_ROWS], m)


def _row_edges(rows: np.ndarray) -> np.ndarray:
    """Row ``rows[0] + i`` of the ascending ``rows`` holds its entries
    ``edges[i]:edges[i + 1]``."""
    return np.searchsorted(rows, np.arange(rows[0], rows[-1] + 2))


def _row_spans(rows: np.ndarray) -> list[tuple[int, int, int]]:
    """(row, start, stop) of each row that the ascending ``rows`` holds."""
    if not rows.size:
        return []
    edges = _row_edges(rows).tolist()
    return [(int(rows[0]) + i, a, b)
            for i, (a, b) in enumerate(zip(edges, edges[1:])) if b > a]


def _rescore(block: np.ndarray, rows: np.ndarray, pos: np.ndarray,
             queries: np.ndarray) -> np.ndarray:
    """``(block @ queries[r])[p]`` for each candidate (r, p), with the bits
    of a one-thread ``block @ queries[r]``. The candidates come row by row,
    ascending within a row.

    This rests on the sgemv kernels of OpenBLAS 0.3.31, measured at 1 and 2
    threads on a Xeon with AVX-512, which runs its SkylakeX core; its
    Haswell, Zen and Nehalem cores gave the same bits, and its Sandybridge
    core does not. In one thread a row's bits do not depend on its place in
    the product, except for the product's last ``m mod 8`` rows, and two
    threads split a product of a multiple of 16 rows on an 8-row boundary.
    So the body candidates are gathered into one zero-padded buffer, each
    row's into a segment of a multiple of 16 rows that starts at a multiple
    of 16, and each row is scored with one ``sgemv`` over its segment. A
    block's tail rows are scored as the block's last ``(m mod 8) + 8`` rows.
    The kernel scores a product of more than 16384 rows of 2, 3 or 5 to 8
    values in another way, whose bits no gathered product gives, so rows of
    at most 8 values are scored whole, once per query row of the call,
    which costs about as much as a gather; :func:`_scan` passes all of
    such a row's candidates in one call. OpenBLAS's splits at 3 or more threads are untested.
    """
    m, dim = block.shape
    body_end = m - m % 8 if dim > 8 else 0
    out = np.empty(pos.shape[0], np.float32)
    at = slice(None) if body_end == m else np.flatnonzero(pos < body_end)
    rows_b, pos_b = rows[at], pos[at]
    if pos_b.size:
        edges = _row_edges(rows_b)
        counts = edges[1:] - edges[:-1]
        padded = -(-counts // 16) * 16
        seg = np.cumsum(padded) - padded
        dest = np.arange(pos_b.shape[0]) + np.repeat(seg - edges[:-1], counts)
        src = np.full(int(seg[-1] + padded[-1]), -1)
        src[dest] = pos_b
        # one gather straight into the buffer, then its padding (read from
        # the block's last row) zeroed: faster than a gather and a scatter.
        # Not np.take(..., out=): it buffers out, 1.75 against 0.75 ms for
        # 4112 rows of a mapped 131072 x 256 block (numpy 2.4, Xeon), and
        # with mode="wrap" it is no faster than this gather
        gathered = block[src]
        gathered[src < 0] = 0.0
        scores = np.empty(src.shape[0], np.float32)
        for r, lo, hi in zip(range(int(rows_b[0]), int(rows_b[-1]) + 1),
                             seg.tolist(), (seg + padded).tolist()):
            if hi > lo:
                scores[lo:hi] = gathered[lo:hi] @ queries[r]
        out[at] = scores[dest]
    if body_end < m:
        rest = np.flatnonzero(pos >= body_end)
        first = max(0, body_end - 8)
        for r, a, b in _row_spans(rows[rest]):
            at = rest[a:b]
            out[at] = (block[first:] @ queries[r])[pos[at] - first]
    return out


def _cuts(m: int, step: int) -> list[int]:
    """The edges of m rows cut into pieces of ``step`` rows, the last one
    taking the rest, so that only a piece of all m rows is shorter."""
    return list(range(0, m, step))[:max(1, m // step)] + [m]


def _merge(rows: np.ndarray, ids: np.ndarray, scores: np.ndarray,
           k: int) -> tuple[np.ndarray, ...]:
    """(rows, ids, scores, ranks) of each row's k best entries, sorted by
    row, then score descending, then id ascending."""
    order = np.lexsort((ids, -scores, rows))
    rows, ids, scores = rows[order], ids[order], scores[order]
    rank = np.arange(rows.shape[0]) - np.searchsorted(rows, rows)
    keep = rank < k
    return rows[keep], ids[keep], scores[keep], rank[keep]


def _scan(vectors, queries: np.ndarray, k: int, groups=None,
          what: str = "bank row", bound: float | None = None) -> HitTable:
    """Top-k rows of ``vectors`` for each row of ``queries``.

    ``groups`` lists (vector ids, query rows, first) triples; ``None``
    scores every row against every vector. A group reads each block of at
    most ``SCAN_BLOCK`` ids once: the ids' rows are ``vectors[first:first +
    len(ids)]`` when ``first`` is a row, and are gathered as
    ``vectors[ids]`` tile by tile when it is ``None``. When ``vectors`` is
    a mapped file (a bank's payload, or a loaded index's rows from
    ``_IndexFile.rows``), every pass over it counts what it reads in one
    :class:`files.PageBudget`, which drops the mapping's resident pages
    once ``_MAP_BYTES`` have been read, and no piece it counts is larger
    than ``_MAP_BYTES`` (or than one tile, where the budget holds fewer
    rows), so at most twice the budget stays resident, and a pass that
    read more than the budget drops the rest at its end. A group scores
    its block into one score buffer per run of at most ``QUERY_BLOCK *
    SCAN_BLOCK // m`` of its rows, tile by tile: each tile of
    ``_TILE_BYTES`` (a multiple of 16 rows; the last one takes the rest,
    and rows of at most 8 values keep the block whole, as
    :func:`_rescore` requires) gets one ``tile @ query`` per row before
    the next tile is read, so it is read from memory once and from L2
    after, and is counted in the budget once its rows are scored. A slice
    and a gather of the same rows give the same bits, and at one BLAS
    thread those of one ``block @ query``. Each buffer is checked by
    :func:`_check_finite` and keeps its :func:`_candidates` at margin 0.

    The whole-bank scan gives each row the bits of a one-thread
    ``block @ query``, whatever the batch and the BLAS thread count (as far
    as :func:`_rescore` holds). One ``Q @ block.T`` per run of
    ``QUERY_BLOCK * SCAN_BLOCK // m`` rows for an m-row block (one ``sgemv``
    per row for runs of fewer than 4, where the GEMM is slower) selects,
    and :func:`_rescore` scores the selected cells exactly. A block larger
    than ``_MAP_BYTES`` is selected in products over windows of the rows
    of :func:`files.window_rows`, and re-scored window by window, each
    window counted in the budget after each pass over it: the fault on a
    candidate's row maps the page cache's whole folio, up to 2 MiB, so a
    run's candidates could otherwise map most of a block. The run width
    and the windows only size the selection products, which pick
    candidates and give no final score. Any float32 dot product of a unit
    query with a row of norm at most ``bound`` is within about ``dim * 2**-24 * bound`` of the true
    one (Higham's bound), so a selection score and an exact score differ
    by at most twice that, and a row of the exact top k scores at least
    the k-th selection score minus ``4 * dim * 2**-24 * bound``. ``margin``
    is twice that, and the k-th selection score is bounded from below by
    the k-th largest maximum of 256 strided column groups
    (:func:`_kth_lower_bound`): one ``np.partition`` per run over the group
    maxima, exact when k is at least 256. A run's candidates are found with
    one ``np.flatnonzero`` over its mask and re-scored in gathers of at most
    ``_RESCORE_ROWS``. ``bound`` defaults to ``norm_bound(vectors)``. A
    finite bound bounds every score, so no score can then be non-finite.
    Only a non-finite row, or a norm above float32's largest finite value,
    makes it infinite or NaN; then the mask holds every cell. Each
    re-scored gather goes through :func:`_check_finite`, which names the
    first non-finite score's row as ``what`` and its id, gather by gather
    in row order.

    Both scans' candidates go into flat (row, id, score) arrays, which one
    :func:`_merge` sorts into the table; they are merged down to each row's
    top k whenever they outgrow twice the table plus ``_RESCORE_ROWS``.
    """
    n = queries.shape[0]
    width = min(k, vectors.shape[0])
    found, limit = [], 2 * n * width + _RESCORE_ROWS
    held = 0

    def keep(rows, ids, scores):
        nonlocal held
        found.append((rows, ids, scores))
        held += rows.shape[0]
        if held > limit:
            found[:] = [_merge(*map(np.concatenate, zip(*found)), k)[:3]]
            held = found[0][0].shape[0]

    pages = PageBudget(vectors)
    if groups is None:
        bound = norm_bound(vectors) if bound is None else bound
        margin = 4 * vectors.shape[1] * 2.0 ** -23 * bound
        step = window_rows(vectors)
        # the block boundaries are SCAN_BLOCK's: _rescore's tail rule
        # depends on them
        for start in range(0, vectors.shape[0], SCAN_BLOCK):
            block = vectors[start:start + SCAN_BLOCK]
            m = block.shape[0]
            # a cell budget: at most QUERY_BLOCK * SCAN_BLOCK selection
            # scores per run, so a short block takes more rows at once
            run = QUERY_BLOCK * SCAN_BLOCK // m
            for lo in range(0, n, run):
                hi = min(lo + run, n)
                select = np.empty((hi - lo, m), np.float32)
                for a in range(0, m, step):
                    window = block[a:a + step]
                    out = select[:, a:a + step]
                    if hi - lo < 4:
                        for i in range(hi - lo):
                            np.matmul(window, queries[lo + i], out=out[i])
                    else:
                        np.matmul(queries[lo:hi], window.T, out=out)
                    pages.read(window.nbytes)
                mask = _candidates(select, k, margin)
                del select  # the re-score needs only the mask
                # re-score window by window too: the fault on a candidate's
                # row maps the page cache's whole folio, up to 2 MiB
                for a in range(0, m, step):
                    cells = _cells(mask[:, a:a + step], block.shape[1] <= 8)
                    for rows, pos in cells:
                        rows += lo
                        pos += a
                        scores = _rescore(block, rows, pos, queries)
                        _check_finite(scores, pos + start, what)
                        keep(rows, pos + start, scores)
                    pages.read(block[a:a + step].nbytes)
    for ids, rows, first in groups or ():
        for start in range(0, len(ids), SCAN_BLOCK):
            chunk = ids[start:start + SCAN_BLOCK]
            m, dim = len(chunk), vectors.shape[1]
            # tiles of a multiple of 16 rows
            step = m if dim <= 8 else max(16, _TILE_BYTES // (64 * dim) * 16)
            cuts = _cuts(m, step)
            run = QUERY_BLOCK * SCAN_BLOCK // m
            for lo in range(0, len(rows), run):
                part = rows[lo:lo + run]
                scores = np.empty((len(part), m), np.float32)
                for a, b in zip(cuts, cuts[1:]):
                    if a:  # the tile before, scored against every row
                        pages.read(tile.nbytes)
                    tile = vectors[chunk[a:b]] if first is None else \
                        vectors[first + start + a:first + start + b]
                    for i, r in enumerate(part.tolist()):
                        np.matmul(tile, queries[r], out=scores[i, a:b])
                _check_finite(scores, chunk, what)
                cells = np.flatnonzero(_candidates(scores, k, 0.0))
                at, pos = np.divmod(cells, m)
                keep(part[at], chunk[pos], scores.ravel()[cells])
                pages.read(tile.nbytes)
    pages.close()
    table = HitTable(np.zeros((n, width), np.int64), np.zeros((n, width)),
                     np.zeros(n, np.int64))
    if found:
        rows, ids, scores, rank = _merge(*map(np.concatenate, zip(*found)), k)
        table.ids[rows, rank], table.scores[rows, rank] = ids, scores
        table.counts[:] = np.bincount(rows, minlength=n)
    return table


def search(bank: EmbeddingBank, queries, k: int, index: IvfIndex | None = None,
           nprobe: int | None = None, space_tag: str | None = None,
           what: str = "query") -> HitTable:
    """Top-k bank rows of each unit-norm row of an (n, dim) query stack.

    With ``index`` (attached to ``bank``) a row scans the ids of its
    ``nprobe`` best lists; otherwise, or when every list is probed, the whole
    bank. A loaded index scores its lists from its own file, mapped for this
    call only (its pages released after every ``_MAP_BYTES`` of rows read,
    tile by tile), and never reads the bank's rows. A mapped bank is read
    in windows of at most ``_MAP_BYTES``. ``space_tag``, when given, must
    be the bank's. An error about one row names it as ``what i``.
    """
    if k < 1:
        raise errors.ValidationError(f"k must be >= 1, got {k}")
    if index is not None and index.bank is not bank:
        raise errors.ValidationError("index is not attached to this bank")
    if index is not None and (nprobe is None or not 1 <= nprobe <= index.n_clusters):
        raise errors.InvalidProbe(
            f"nprobe must be in [1, {index.n_clusters}], got {nprobe}")
    queries = np.asarray(queries, dtype=np.float32)
    if bank.count == 0:
        raise errors.EmptyBank("bank holds no vectors")
    if queries.ndim != 2 or queries.shape[1] != bank.dim:
        raise errors.DimensionMismatch(
            f"queries have shape {queries.shape}, bank has {bank.dim} dims")
    if space_tag is not None and space_tag != bank.space_tag:
        raise errors.SpaceMismatch(
            f"query space {space_tag!r} != bank space {bank.space_tag!r}")
    check_unit_rows(queries, what)

    if index is None or nprobe == index.n_clusters:
        return _scan(bank.vectors, queries, k, bound=bank.norm_bound)
    # group the rows by probed list, so that each list is read once
    probed = _scan(index.centroids, queries, nprobe, what="centroid").ids.ravel()
    order = np.argsort(probed, kind="stable")
    lists, starts = np.unique(probed[order], return_index=True)
    file = index.file
    groups = [(index.lists[c], rows,
               None if file is None else int(file.offsets[c]))
              for c, rows in zip(lists.tolist(),
                                 np.split(order // nprobe, starts[1:]))]
    if file is None:
        return _scan(bank.vectors, queries, k, groups)
    return _scan(file.rows(), queries, k, groups, what="index row")


def exact_topk(query: QueryEmbedding, bank: EmbeddingBank, k: int) -> list[RetrievalHit]:
    """Exhaustive scan. Returns min(k, count) hits, score-desc, ties id-asc."""
    return search(bank, query.vector[None, :], k,
                  space_tag=query.space_tag).hits(0)


class _IndexFile:
    """The open file of a loaded index, whose rows it scores.

    Row ``offsets[c] + j`` of :meth:`rows` is the bank row ``ids[offsets[c]
    + j]``, the j-th id of list c. The file stays open until the object is
    collected; its rows are mapped only while an array from :meth:`rows`
    lives. A search or a save reads them through :func:`files.windows` or
    a :class:`files.PageBudget`, which drop their resident pages after
    every ``_MAP_BYTES`` read, in tiles and windows of at most that many
    bytes, so at most twice that of them stays resident during a search,
    and none between searches.
    """

    def __init__(self, fh, offsets: np.ndarray, ids: np.ndarray,
                 start: int, dim: int):
        self.offsets = offsets  # (n_clusters + 1,) int64
        self.ids = ids
        self._fh, self._start, self._dim = fh, start, dim
        weakref.finalize(self, fh.close)

    def rows(self) -> np.ndarray:
        """The (count, dim) float32 rows, list after list, read-only: a
        plain array over an ``np.memmap``, which slices faster."""
        if not len(self.ids):
            return np.empty((0, self._dim), "<f4")
        return np.memmap(self._fh, "<f4", "r", self._start,
                         (len(self.ids), self._dim)).view(np.ndarray)


@dataclass
class IvfIndex:
    """Inverted-file index: unit-norm centroids plus per-cluster id lists.

    An index built by :func:`build_ivf` scores a list by gathering its rows
    from the attached bank. One read by :func:`load_index` keeps its file
    (``file``) open and scores each list as one slice of the file's rows.
    """

    n_clusters: int
    dim: int
    seed: int
    centroids: np.ndarray                 # (n_clusters, dim) float32
    lists: list[np.ndarray]               # uint64 ids, ascending within a list
    bank: EmbeddingBank | None = field(default=None, repr=False)
    file: _IndexFile | None = field(default=None, repr=False, compare=False)

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


def _assign(rows: np.ndarray, centroids: np.ndarray,
            check: bool = False) -> np.ndarray:
    """Argmax-cosine assignment; ties go to the lowest cluster id.

    Each row's scores are its row of one ``piece @ centroids.T`` product.
    Each ``SCAN_BLOCK`` block of rows is cut into pieces of a multiple of
    12 rows, the last one taking the rest, of at most half ``_MAP_BYTES``
    of rows and ``_TILE_BYTES`` of scores (but at least 12 rows): a mapped
    bank is read in pieces of at most the page budget, each counted in a
    :class:`files.PageBudget`, and a piece's scores stay in L2.

    OpenBLAS 0.3.31's Haswell core gives a row other bits when the rows
    before it in its product are not a multiple of 12, or when it is one
    of the product's last ``m mod 12`` rows. So pieces of a multiple of 12
    rows that end where their block ends give each row the bits of one
    product over its whole ``SCAN_BLOCK`` block. This is measured under
    its SkylakeX, Haswell, Sandybridge and Nehalem cores at one BLAS
    thread, and under SkylakeX and Sandybridge at two; under Haswell and
    Nehalem at two threads a row's bits depend on where OpenBLAS splits
    each product between its threads, so no piece size keeps them.

    With ``check``, a row with a non-finite score against finite centroids
    is a corrupt bank row: :class:`CorruptBank` names it by its position.
    """
    out = np.empty(rows.shape[0], dtype=np.int64)
    step = min(_TILE_BYTES // (4 * centroids.shape[0]), window_rows(rows) // 2)
    step = max(12, step // 12 * 12)
    pages = PageBudget(rows)
    for start in range(0, rows.shape[0], SCAN_BLOCK):
        cuts = [start + a for a in
                _cuts(min(SCAN_BLOCK, rows.shape[0] - start), step)]
        for a, b in zip(cuts, cuts[1:]):
            piece = rows[a:b]
            scores = piece @ centroids.T
            if check:
                _check_finite_rows(scores, np.arange(a, b))
            out[a:b] = np.argmax(scores, axis=1)
            pages.read(piece.nbytes)
    pages.close()
    return out


def _check_finite_rows(values: np.ndarray, ids: np.ndarray) -> None:
    """Raise :class:`CorruptBank` naming bank row ``ids[i]`` for the first
    row i of ``values`` that holds a non-finite value."""
    finite = np.isfinite(values).all(axis=1)
    if not finite.all():
        raise errors.CorruptBank(
            f"bank row {int(ids[np.argmin(finite)])} is not finite")


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
    """Mean of members, renormalized.

    Each column of a cluster's members, taken in ascending id order, is
    summed in float64 as ``np.add.reduceat`` sums a segment: the first
    member plus numpy's pairwise sum of the rest. A column-major copy of the
    members gives those bits with each column contiguous, not strided by
    the row width.
    """
    order = np.argsort(labels, kind="stable")
    counts = np.bincount(labels, minlength=n_clusters)
    stops = np.cumsum(counts)

    new = old.astype(np.float64)
    for c in np.flatnonzero(counts):
        ids = order[stops[c] - counts[c]:stops[c]]
        members = np.asfortranarray(rows[ids], dtype=np.float64)
        # -0.0 adds exactly, so a column of -0.0 keeps its sign
        sums = members[0] + np.add.reduce(members[1:], axis=0, initial=-0.0)
        new[c] = sums / counts[c]
    norms = np.linalg.norm(new, axis=1)
    degenerate = norms <= 1e-12
    new[degenerate] = old[degenerate]
    norms[degenerate] = 1.0
    return (new / norms[:, None]).astype(np.float32)


def build_ivf(bank: EmbeddingBank, n_clusters: int, seed: int,
              max_iters: int = DEFAULT_MAX_ITERS) -> IvfIndex:
    """Train a spherical k-means coarse quantizer and invert the assignment.

    Training runs on a seeded subsample of at most 256 rows per centroid;
    the final assignment pass always covers the full bank. A non-finite bank
    row raises :class:`CorruptBank`. A mapped bank is read in sequential
    windows (:func:`files.windows`), the sample's rows taken from each:
    one scattered gather of the sample would map nearly the whole file.
    The assignment pass reads it in pieces of at most half
    ``_MAP_BYTES`` (:func:`_assign`). A bank of at most 256 rows per
    centroid is trained on as it is, and a mapped one is then mapped
    whole while it trains, as much as the sample would hold.
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
    if not 0 <= seed < 2**64:  # the index header stores it as a u64
        raise errors.ValidationError(f"seed must be in [0, 2**64), got {seed}")

    rng = np.random.default_rng(seed)
    budget = _TRAIN_ROWS_PER_CLUSTER * n_clusters
    if bank.count > budget:
        train_idx = np.sort(rng.choice(bank.count, size=budget, replace=False))
        train = np.empty((budget, bank.dim), np.float32)
        for start, window in windows(bank.vectors):
            a, b = np.searchsorted(train_idx, [start, start + len(window)])
            train[a:b] = window[train_idx[a:b] - start]
    else:
        train_idx = np.arange(bank.count)
        train = np.asarray(bank.vectors)
    # a non-finite training row would poison a centroid, and the assignment
    # pass would then blame every row; check the sample before training
    _check_finite_rows(train, train_idx)

    centroids = _spherical_kmeans(train, n_clusters, seed, max_iters)
    del train  # before the full pass allocates its scores
    labels = _assign(np.asarray(bank.vectors), centroids, check=True)
    # one stable sort groups the ids by cluster, ascending within each
    order = np.argsort(labels, kind="stable").astype(np.uint64)
    bounds = np.cumsum(np.bincount(labels, minlength=n_clusters))[:-1]
    lists = np.split(order, bounds)
    return IvfIndex(n_clusters=n_clusters, dim=bank.dim, seed=int(seed),
                    centroids=centroids, lists=lists, bank=bank)


def ivf_search(index: IvfIndex, query: QueryEmbedding, k: int,
               nprobe: int) -> list[RetrievalHit]:
    """Scan the nprobe clusters whose centroids best match the query."""
    if index.bank is None:
        raise errors.ValidationError("index is not attached to a bank")
    return search(index.bank, query.vector[None, :], k, index, nprobe,
                  space_tag=query.space_tag).hits(0)


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
                raise errors.ValidationError("index is not attached to this bank")
            if nprobe is None:
                raise errors.InvalidProbe("nprobe is required with an index")
        self.bank = bank
        self.index = index
        self.nprobe = nprobe

    def search(self, queries, k: int, space_tag: str | None = None,
               what: str = "query") -> HitTable:
        """:func:`search` over the bound bank, index and nprobe."""
        return search(self.bank, queries, k, self.index, self.nprobe,
                      space_tag, what)

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


def batch_topk(queries: EmbeddingBank, bank: EmbeddingBank, k: int,
               index: IvfIndex | None = None, nprobe: int | None = None,
               threads: int = 1) -> list[list[RetrievalHit]]:
    """Top-k hit list of each query of the bank, in bank order.

    ``threads`` is validated by :func:`check_threads` and otherwise unused.
    """
    check_threads(threads)
    table = Retriever(bank, index, nprobe).search(
        queries.vectors, k, space_tag=queries.space_tag)
    return [table.hits(i) for i in range(queries.count)]


# ---------------------------------------------------------------------------
# index file round-trip


def save_index(index: IvfIndex, path) -> None:
    """Write the index file (format version 2), little-endian:

        header    magic b"RTRCIVF1", u32 version, u32 n_clusters, u32 dim,
                  u64 seed
        f32       centroids, (n_clusters, dim)
        u64       offsets, (n_clusters + 1): list c is ids[offsets[c]:
                  offsets[c + 1]]
        u64       ids, every list's ids in list order
        padding   zero bytes up to a multiple of 64
        f32       rows, (count, dim): row i holds bank row ids[i]

    The lists must hold every id of 0..n-1 once, the rule
    :func:`load_index` checks; otherwise this raises
    :class:`ValidationError` and leaves an existing file as it was. The
    rows are copied from their source, the bank for a built index and the
    index's own file for a loaded one, in windows of ``_MAP_BYTES``
    (:func:`files.windows`): each run of a window's rows that lands on
    consecutive file rows (one per list and window, as a list's ids
    ascend) is gathered and written after one seek, at most
    ``_TILE_BYTES`` per write, so no scattered gather maps the whole
    source. A target that cannot seek (a pipe) gets the rows in file order
    from one window.
    """
    if index.file is None and index.bank is None:
        raise errors.ValidationError("index is not attached to a bank")
    header = _INDEX_HEADER.pack(INDEX_MAGIC, INDEX_VERSION,
                                index.n_clusters, index.dim, index.seed)
    offsets = np.zeros(index.n_clusters + 1, "<u8")
    np.cumsum([len(lst) for lst in index.lists], out=offsets[1:])
    ids = np.concatenate([np.asarray(lst, "<u8") for lst in index.lists])
    if not _dense_range(ids):
        raise errors.ValidationError("id lists do not cover a dense range")
    source = index.bank.vectors if index.file is None else index.file.rows()
    if len(ids) != len(source):
        raise errors.BankMisalignment(
            f"index covers {len(ids)} ids, its rows number {len(source)}")
    src = ids.astype(np.int64)  # the source row of each file row
    if index.file is not None:
        where = np.empty(len(index.file.ids), np.int64)
        where[index.file.ids] = np.arange(len(where))
        src = where[src]
    dest = np.empty(len(ids), np.int64)  # the file row of each source row
    dest[src] = np.arange(len(ids))
    ids_end = (_INDEX_HEADER.size + 4 * index.n_clusters * index.dim
               + offsets.nbytes + ids.nbytes)
    rows_at = ids_end + -ids_end % PAYLOAD_ALIGN  # zero padding between
    with replace_atomically(path, "index", "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(index.centroids, "<f4").tobytes())
        fh.write(offsets.tobytes())
        fh.write(ids)
        fh.write(bytes(rows_at - ids_end))
        payload = len(ids) * 4 * index.dim
        if fh.seekable() and payload:
            # zeros first, in large sequential writes: the page cache then
            # holds the rows in large folios, which the out-of-order writes
            # below fill in place. Written straight out of order, the rows
            # land in small folios, and a mapped read of the file faults
            # about four times as often (256 against 55 faults per one-row
            # search of the 440k x 256 index, ext4, Linux 6.18)
            zeros = bytes(min(_PREFILL_BYTES, payload))
            for left in range(payload, 0, -len(zeros)):
                fh.write(zeros[:left])
            fh.seek(rows_at)
        # each write gathers at most _TILE_BYTES of rows
        piece = max(1, _TILE_BYTES // (4 * index.dim))
        at = 0  # the file row written next
        for start, window in windows(source, None if fh.seekable()
                                     else max(1, len(ids))):
            order = np.argsort(dest[start:start + len(window)])
            rows = dest[start:start + len(window)][order]
            cuts = np.union1d(np.flatnonzero(np.diff(rows) != 1) + 1,
                              np.arange(0, len(rows), piece)).tolist()
            for a, b in zip(cuts, cuts[1:] + [len(rows)]):
                if rows[a] != at:
                    fh.seek(rows_at + int(rows[a]) * 4 * index.dim)
                fh.write(np.ascontiguousarray(window[order[a:b]], "<f4"))
                at = int(rows[b - 1]) + 1


def _dense_range(ids: np.ndarray) -> bool:
    """Whether the n ids are each below n and cover 0..n-1: a permutation."""
    total = int(ids.shape[0])
    seen = np.zeros(total, dtype=bool)
    if total and int(ids.max()) < total:
        seen[ids] = True
    return bool(seen.all())


def load_index(path, bank: EmbeddingBank | None = None) -> IvfIndex:
    """Read an index file's header, centroids and id lists, and check that
    its rows fill the rest of the file; the rows themselves are not read.
    The file stays open for :func:`search` to map. Any other version than
    2 is :class:`CorruptIndex`: rebuild such an index from its bank."""
    try:
        fh = open(path, "rb")
        try:
            index = _read_index(fh)
        except BaseException:
            fh.close()
            raise
    except OSError as exc:
        raise errors.IoError(f"cannot read index {path}: {exc}") from exc
    if bank is not None:
        index.attach(bank)
    return index


def _read_index(fh) -> IvfIndex:
    size = os.fstat(fh.fileno()).st_size

    def read(count: int, dtype: str, what: str) -> np.ndarray:
        if fh.tell() + count * np.dtype(dtype).itemsize > size:
            raise errors.CorruptIndex(f"truncated {what}", byte_offset=size)
        out = np.empty(count, dtype)
        fh.readinto(out)
        return out

    if size < _INDEX_HEADER.size:
        raise errors.CorruptIndex("file too small for header", byte_offset=size)
    magic, version, n_clusters, dim, seed = _INDEX_HEADER.unpack(
        fh.read(_INDEX_HEADER.size))
    if magic != INDEX_MAGIC:
        raise errors.CorruptIndex(f"bad magic {magic!r}", byte_offset=0)
    if version != INDEX_VERSION:
        raise errors.CorruptIndex(f"unsupported version {version}", byte_offset=8)
    if n_clusters < 1 or dim < 1:
        raise errors.CorruptIndex("degenerate cluster count or dim",
                                  byte_offset=12)
    offset = fh.tell()
    centroids = read(n_clusters * dim, "<f4", "centroid payload").reshape(
        n_clusters, dim)
    bad = np.flatnonzero(~np.isfinite(centroids).all(axis=1))
    if bad.size:
        raise errors.CorruptIndex(f"centroid {bad[0]} is not finite",
                                  byte_offset=offset + int(bad[0]) * dim * 4)
    offset = fh.tell()
    offsets = read(n_clusters + 1, "<u8", "list offsets")
    bad = np.flatnonzero(offsets[1:] < offsets[:-1])
    if offsets[0] != 0 or bad.size:
        at = 0 if offsets[0] != 0 else int(bad[0]) + 1
        raise errors.CorruptIndex("list offsets do not ascend from 0",
                                  byte_offset=offset + 8 * at)
    ids = read(int(offsets[-1]), "<u8", "id lists")
    start = payload_start(fh, size, len(ids) * dim, errors.CorruptIndex)

    if not _dense_range(ids):
        raise errors.CorruptIndex("id lists do not cover a dense range")
    offsets = offsets.astype(np.int64)
    # each list is a view of the one id array
    return IvfIndex(n_clusters=n_clusters, dim=dim, seed=int(seed),
                    centroids=centroids, lists=np.split(ids, offsets[1:-1]),
                    file=_IndexFile(fh, offsets, ids, start, dim))
