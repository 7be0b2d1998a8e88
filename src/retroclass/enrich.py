"""Retrieval enrichment of prototypes and queries.

The enrichment step retrieves the top-k captions for a class prompt (or for
an image query), softmax-weights them by retrieval score at a configurable
temperature, collapses them to a weighted centroid, and interpolates that
centroid with the original vector. Interpolation endpoints are exact: a
mixing weight of 0 returns the input unchanged (bitwise, when output
renormalization is off).

Numerics: weights and centroid accumulation run in float64; centroids and
interpolated outputs round to float32. A temperature near 0 concentrates
weight on the best-scoring caption; a large temperature approaches a plain
average.

Fusion works on stacks of rows (:func:`fuse_rows`); the one-vector functions
are that code applied to one row. Every step is elementwise or runs along one
row (row softmax, centroid sums taken in hit order, one dot-product norm per
row), so a row's result is bitwise the same whatever the batch it is in.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import errors
from .bank import EmbeddingBank
from .index import RetrievalHit, Retriever
from .prompts import merge_alias_prototypes

log = logging.getLogger("retroclass.enrich")

_CONFIG_FIELDS = ("k", "tau_tt", "tau_it", "alpha", "beta",
                  "use_temperature_tt", "use_temperature_it",
                  "renormalize_output")


@dataclass(frozen=True)
class EnrichmentConfig:
    """Operating point for both enrichment branches.

    Defaults follow the reference operating point: k=10 neighbors, a sharp
    temperature (1.0) for text-to-text weighting, a near-uniform temperature
    (100.0) for image-to-text weighting, and interpolation weights
    alpha=0.2 (prototype branch) / beta=0.5 (query branch).
    """

    k: int = 10
    tau_tt: float = 1.0
    tau_it: float = 100.0
    alpha: float = 0.2
    beta: float = 0.5
    use_temperature_tt: bool = True
    use_temperature_it: bool = True
    renormalize_output: bool = True

    def __post_init__(self):
        if self.k < 1:
            raise errors.ValidationError(f"k must be >= 1, got {self.k}")
        for name in ("tau_tt", "tau_it"):
            tau = getattr(self, name)
            if not np.isfinite(tau) or tau <= 0:
                raise errors.InvalidTemperature(
                    f"{name} must be positive and finite, got {tau}")
        for name in ("alpha", "beta"):
            val = getattr(self, name)
            if not np.isfinite(val) or not 0.0 <= val <= 1.0:
                raise errors.ValidationError(
                    f"{name} must lie in [0, 1], got {val}")

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in _CONFIG_FIELDS}

    @classmethod
    def from_dict(cls, obj: dict) -> "EnrichmentConfig":
        if not isinstance(obj, dict):
            raise errors.ValidationError("enrichment config must be a JSON object")
        unknown = set(obj) - set(_CONFIG_FIELDS)
        if unknown:
            raise errors.ValidationError(
                f"unknown config keys: {sorted(unknown)}")
        return cls(**obj)

    @classmethod
    def load(cls, path) -> "EnrichmentConfig":
        try:
            with open(Path(path), encoding="utf-8") as fh:
                obj = json.load(fh)
        except OSError as exc:
            raise errors.IoError(f"cannot read config {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise errors.ValidationError(f"config is not valid JSON: {exc}") from exc
        return cls.from_dict(obj)


def row_error(exc_type, what: str, row: int, n_rows: int, message: str):
    """An error about one row of a stack; stacks of several rows name it."""
    return exc_type(f"{what} {row}: {message}" if n_rows > 1 else message)


def row_norms(rows: np.ndarray) -> np.ndarray:
    """L2 norm of each float64 row, each one ``sqrt(row.dot(row))``.

    That is what ``np.linalg.norm`` computes for a single vector, so a row's
    norm does not depend on the rows stacked around it.
    """
    return np.sqrt(np.array([row.dot(row) for row in rows], dtype=np.float64))


def _softmax_rows(scores: np.ndarray, tau: float) -> np.ndarray:
    scaled = scores / tau
    scaled -= scaled.max(axis=1, keepdims=True)
    weights = np.exp(scaled)
    return weights / weights.sum(axis=1, keepdims=True)


def _centroid_rows(vectors, ids: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Row i: sum over j of weights[i, j] * vectors[ids[i, j]], in float64.

    The terms are added in hit order, one hit column at a time, so only
    (rows, dim) temporaries exist whatever k is.
    """
    acc = np.asarray(vectors[ids[:, 0]], dtype=np.float64) * weights[:, :1]
    for j in range(1, ids.shape[1]):
        acc += np.asarray(vectors[ids[:, j]], dtype=np.float64) * weights[:, j:j + 1]
    return acc.astype(np.float32)


def softmax_weights(scores, tau: float) -> np.ndarray:
    """Temperature-scaled softmax with max subtraction.

    Stable for |score / tau| up to at least 1e4: the shifted exponents are
    all <= 0, so nothing overflows and the sum is always >= 1.
    """
    arr = np.asarray(scores, dtype=np.float64).reshape(-1)
    if arr.size == 0:
        raise errors.EmptyScores("no scores to weight")
    if not np.isfinite(tau) or tau <= 0:
        raise errors.InvalidTemperature(f"tau must be positive and finite, got {tau}")
    if not np.all(np.isfinite(arr)):
        raise errors.ValidationError("scores contain non-finite values")
    return _softmax_rows(arr[None, :], tau)[0]


def uniform_weights(n: int) -> np.ndarray:
    if n < 1:
        raise errors.EmptyScores("no scores to weight")
    return np.full(n, 1.0 / n, dtype=np.float64)


def weighted_centroid(embeddings, weights) -> np.ndarray:
    """Sum of weight * embedding, accumulated in float64, rounded to float32.

    The result is deliberately not renormalized here; interpolation decides
    what happens to the norm.
    """
    matrix = np.asarray(embeddings, dtype=np.float32)
    w = np.asarray(weights, dtype=np.float64).reshape(-1)
    if matrix.ndim != 2:
        raise errors.ValidationError("embeddings must be a 2-D matrix")
    if matrix.shape[0] != w.shape[0]:
        raise errors.LengthMismatch(
            f"{matrix.shape[0]} embeddings but {w.shape[0]} weights")
    if matrix.shape[0] == 0:
        raise errors.EmptyScores("no embeddings to combine")
    return _centroid_rows(matrix, np.arange(w.shape[0])[None, :], w[None, :])[0]


@dataclass(frozen=True)
class HitTable:
    """Top-k retrieval results of n queries, as arrays.

    Row i holds ``counts[i]`` hits in its first columns, score-desc with ties
    id-asc. An IVF probe can return fewer than k hits, or none; the unused
    cells are 0.
    """

    ids: np.ndarray      # (n, k) int64
    scores: np.ndarray   # (n, k) float64, the retrieval scores widened
    counts: np.ndarray   # (n,) int64


def retrieve_rows(retriever: Retriever, vectors, k: int, space_tag: str,
                  what: str = "query") -> HitTable:
    """One ``retriever.topk`` call per vector, packed into a HitTable."""
    n = len(vectors)
    ids = np.zeros((n, k), dtype=np.int64)
    scores = np.zeros((n, k), dtype=np.float64)
    counts = np.zeros(n, dtype=np.int64)
    for i, vector in enumerate(vectors):
        try:
            hits = retriever.topk(vector, k, space_tag=space_tag)
        except errors.RetroclassError as exc:
            raise row_error(type(exc), what, i, n, str(exc)) from exc
        counts[i] = len(hits)
        ids[i, :len(hits)] = [h.id for h in hits]
        scores[i, :len(hits)] = [h.score for h in hits]
    return HitTable(ids, scores, counts)


@dataclass(frozen=True)
class WeightedCaptions:
    """Retrieved captions plus their fusion weights and embeddings."""

    hits: tuple[RetrievalHit, ...]
    weights: np.ndarray      # float64 probability vector
    embeddings: np.ndarray   # (len(hits), dim) float32

    def __post_init__(self):
        hits = tuple(self.hits)
        object.__setattr__(self, "hits", hits)
        w = np.asarray(self.weights, dtype=np.float64).reshape(-1)
        emb = np.asarray(self.embeddings, dtype=np.float32)
        if emb.ndim != 2:
            raise errors.ValidationError("embeddings must be a 2-D matrix")
        if not (len(hits) == w.shape[0] == emb.shape[0]):
            raise errors.LengthMismatch(
                f"hits={len(hits)} weights={w.shape[0]} embeddings={emb.shape[0]}")
        if len(hits):
            if np.any(w < 0) or abs(w.sum() - 1.0) > 1e-6:
                raise errors.ValidationError(
                    "weights must be non-negative and sum to 1")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "embeddings", emb)

    def __len__(self) -> int:
        return len(self.hits)


def gather_captions(hits: list[RetrievalHit], bank: EmbeddingBank) -> WeightedCaptions:
    """Pull caption embeddings for the hit ids, with uniform initial weights.

    The embedding bank may differ from the bank that produced the hits (the
    two caption banks are aligned id-for-id), which is exactly how retrieval
    in one space feeds fusion in another.
    """
    if not hits:
        return WeightedCaptions((), np.empty(0), np.empty((0, bank.dim), np.float32))
    ids = [h.id for h in hits]
    for row_id in ids:
        if not 0 <= row_id < bank.count:
            raise errors.IdOutOfRange(
                f"hit id {row_id} outside [0, {bank.count})")
    emb = np.array(bank.vectors[np.asarray(ids, dtype=np.int64)])
    return WeightedCaptions(tuple(hits), uniform_weights(len(hits)), emb)


@dataclass(frozen=True)
class EnrichedVector:
    """Result of one enrichment: the vector plus a fallback marker."""

    vector: np.ndarray
    partial: bool = False


def _unit_rows(rows64: np.ndarray, positions, n_rows: int, what: str,
               message: str) -> np.ndarray:
    norms = row_norms(rows64)
    bad = np.flatnonzero(norms <= 1e-12)
    if bad.size:
        raise row_error(errors.DegeneratePrototype, what,
                        int(positions[bad[0]]), n_rows, message)
    return (rows64 / norms[:, None]).astype(np.float32)


def _identity_or_renorm(rows: np.ndarray, renormalize: bool, what: str,
                        positions, n_rows: int) -> np.ndarray:
    out = np.array(rows, dtype=np.float32)
    if renormalize:
        out = _unit_rows(out.astype(np.float64), positions, n_rows, what,
                         "vector has near-zero norm")
    return out


def fuse_rows(base, hits: HitTable, vectors, frac: float, tau: float,
              use_temperature: bool, renormalize: bool,
              what: str) -> tuple[np.ndarray, np.ndarray]:
    """Interpolate each base row with the weighted centroid of its hits.

    ``vectors`` holds the caption embeddings the hit ids index. Returns the
    float32 rows and a mask of partial rows: a row with no hits passes
    through unchanged. Rows are grouped by hit count, so a row with fewer
    than k hits is weighted over exactly the hits it has.
    """
    base = np.asarray(base, dtype=np.float32)
    n = base.shape[0]
    partial = hits.counts == 0
    for i in np.flatnonzero(partial):
        # graceful degradation: no neighbors means the input passes through
        log.warning("partial enrichment: empty retrieval set for %s %d",
                    what, i)
    out = np.array(base)
    live = np.flatnonzero(~partial)
    if live.size == 0:
        return out, partial
    if vectors.shape[1] != base.shape[1]:
        raise errors.DimensionMismatch(
            f"caption dim {vectors.shape[1]} != vector dim {base.shape[1]}")
    if frac == 0.0:
        out[live] = _identity_or_renorm(base[live], renormalize, what, live, n)
        return out, partial
    for c in np.unique(hits.counts[live]):
        rows = live[hits.counts[live] == c]
        ids = hits.ids[rows, :c]
        scores = hits.scores[rows, :c]
        if ids.min() < 0 or ids.max() >= vectors.shape[0]:
            raise errors.IdOutOfRange(
                f"hit ids outside [0, {vectors.shape[0]})")
        if use_temperature:
            if not np.all(np.isfinite(scores)):
                raise errors.ValidationError("scores contain non-finite values")
            weights = _softmax_rows(scores, tau)
        else:
            weights = np.full(scores.shape, 1.0 / c, dtype=np.float64)
        centroid = _centroid_rows(vectors, ids, weights)
        out64 = frac * centroid.astype(np.float64) + \
            (1.0 - frac) * base[rows].astype(np.float64)
        if renormalize:
            out[rows] = _unit_rows(out64, rows, n, what,
                                   f"interpolated {what} vector has near-zero norm")
        else:
            out[rows] = out64.astype(np.float32)
    return out, partial


def _interpolate(base, retrieved: WeightedCaptions | None, frac: float,
                 tau: float, use_temperature: bool, renormalize: bool,
                 what: str) -> EnrichedVector:
    """:func:`fuse_rows` on one row whose hits are already gathered."""
    base = np.asarray(base, dtype=np.float32).reshape(1, -1)
    if retrieved is None or len(retrieved) == 0:
        hits = HitTable(np.zeros((1, 0), np.int64), np.zeros((1, 0)),
                        np.zeros(1, np.int64))
        vectors = np.empty((0, base.shape[1]), np.float32)
    else:
        c = len(retrieved)
        hits = HitTable(np.arange(c)[None, :],
                        np.array([[h.score for h in retrieved.hits]]),
                        np.array([c]))
        vectors = retrieved.embeddings
    out, partial = fuse_rows(base, hits, vectors, frac, tau, use_temperature,
                             renormalize, what)
    return EnrichedVector(out[0], partial=bool(partial[0]))


def enrich_prototype(prototype, retrieved: WeightedCaptions | None,
                     config: EnrichmentConfig) -> EnrichedVector:
    """Interpolate a class prototype with its retrieved caption centroid.

    Weighting uses the text-to-text temperature (or a plain average when
    that branch's temperature toggle is off). alpha = 0 returns the
    prototype itself, exactly, when renormalization is off.
    """
    return _interpolate(prototype, retrieved, config.alpha, config.tau_tt,
                        config.use_temperature_tt, config.renormalize_output,
                        "prototype")


def enrich_query(query, retrieved: WeightedCaptions | None,
                 config: EnrichmentConfig) -> EnrichedVector:
    """Interpolate an image query with its retrieved caption centroid."""
    return _interpolate(query, retrieved, config.beta, config.tau_it,
                        config.use_temperature_it, config.renormalize_output,
                        "query")


@dataclass(frozen=True)
class PrototypeSet:
    """A stack of class vectors: one row per class, in class-index order."""

    matrix: np.ndarray
    kind: str  # "zeroshot" | "retrieved" | "final"
    partial: tuple[int, ...] = ()

    def __post_init__(self):
        if self.kind not in ("zeroshot", "retrieved", "final"):
            raise errors.ValidationError(f"unknown prototype kind {self.kind!r}")
        matrix = np.asarray(self.matrix, dtype=np.float32)
        if matrix.ndim != 2 or matrix.shape[0] < 1:
            raise errors.ValidationError("prototype matrix must be (n_classes, dim)")
        matrix.setflags(write=False)
        object.__setattr__(self, "matrix", matrix)

    @property
    def n_classes(self) -> int:
        return int(self.matrix.shape[0])


def zeroshot_prototypes(specs) -> PrototypeSet:
    """Merged (renormalized-mean) prototype per class, no retrieval."""
    if not specs:
        raise errors.ValidationError("spec list is empty")
    rows = [spec.merged_prototype() for spec in specs]
    return PrototypeSet(np.vstack(rows), kind="zeroshot")


@dataclass(frozen=True)
class PrototypeRows:
    """The rows prototype enrichment works on.

    One row per class, or one per alias when aliases merge after
    enrichment; ``bounds[c]:bounds[c + 1]`` are class c's rows.
    """

    base: np.ndarray                 # (rows, dim) float32 prototypes
    queries: tuple[np.ndarray, ...]  # the retrieval query of each row
    bounds: np.ndarray               # (n_classes + 1,) row offsets
    class_ids: tuple[int, ...]       # spec.index of each class
    merge_after: bool


def prototype_rows(specs, llm_bank: EmbeddingBank,
                   vlm_text_bank: EmbeddingBank, retriever: Retriever,
                   merge_aliases: str = "before") -> PrototypeRows:
    """Check the enrichment inputs and lay out the rows to enrich."""
    if not specs:
        raise errors.ValidationError("spec list is empty")
    if merge_aliases not in ("before", "after"):
        raise errors.ValidationError(
            f'merge_aliases must be "before" or "after", got {merge_aliases!r}')
    if llm_bank.count != vlm_text_bank.count:
        raise errors.BankMisalignment(
            f"caption banks misaligned: {llm_bank.count} vs {vlm_text_bank.count} rows")
    if retriever.bank is not llm_bank:
        raise errors.ValidationError(
            "retriever must be bound to the retrieval-space caption bank")
    for spec in specs:
        if spec.retrieval_space != llm_bank.space_tag:
            raise errors.SpaceMismatch(
                f"class {spec.name!r} retrieval space {spec.retrieval_space!r} "
                f"!= bank space {llm_bank.space_tag!r}")
        if spec.prototype_space != vlm_text_bank.space_tag:
            raise errors.SpaceMismatch(
                f"class {spec.name!r} prototype space {spec.prototype_space!r} "
                f"!= bank space {vlm_text_bank.space_tag!r}")
        if spec.retrieval_queries.shape[1] != llm_bank.dim:
            raise errors.DimensionMismatch(
                f"class {spec.name!r} retrieval query dim "
                f"{spec.retrieval_queries.shape[1]} != bank dim {llm_bank.dim}")
        if spec.prototypes.shape[1] != vlm_text_bank.dim:
            raise errors.DimensionMismatch(
                f"class {spec.name!r} prototype dim {spec.prototypes.shape[1]} "
                f"!= bank dim {vlm_text_bank.dim}")

    if merge_aliases == "before":
        base = [spec.merged_prototype() for spec in specs]
        queries = [spec.merged_retrieval_query() for spec in specs]
        sizes = [1] * len(specs)
    else:
        base = [row for spec in specs for row in spec.prototypes]
        queries = [row for spec in specs for row in spec.retrieval_queries]
        sizes = [len(spec.all_names) for spec in specs]
    return PrototypeRows(np.vstack(base), tuple(queries),
                         np.concatenate(([0], np.cumsum(sizes))),
                         tuple(spec.index for spec in specs),
                         merge_aliases == "after")


def fuse_prototypes(rows: PrototypeRows, hits: HitTable | None,
                    vlm_text_bank: EmbeddingBank,
                    config: EnrichmentConfig) -> PrototypeSet:
    """Enriched prototypes for one config from already retrieved hits.

    ``hits`` holds each row's retrieval from the llm bank at ``config.k``;
    it may be None when alpha is 0, which needs no retrieval.
    """
    if config.alpha == 0.0:
        # endpoint short-circuit: no retrieval, no partial rows
        n = rows.base.shape[0]
        out = _identity_or_renorm(rows.base, config.renormalize_output,
                                  "prototype", np.arange(n), n)
        partial = np.zeros(out.shape[0], dtype=bool)
    else:
        out, partial = fuse_rows(rows.base, hits, vlm_text_bank.vectors,
                                 config.alpha, config.tau_tt,
                                 config.use_temperature_tt,
                                 config.renormalize_output, "prototype")
    if rows.merge_after:
        spans = list(zip(rows.bounds[:-1], rows.bounds[1:]))
        out = np.vstack([merge_alias_prototypes(out[a:b]) for a, b in spans])
        partial = np.array([partial[a:b].any() for a, b in spans])
    return PrototypeSet(out, kind="final",
                        partial=tuple(cid for cid, p in zip(rows.class_ids, partial)
                                      if p))


def enrich_all_prototypes(specs, llm_bank: EmbeddingBank,
                          vlm_text_bank: EmbeddingBank,
                          retriever: Retriever,
                          config: EnrichmentConfig,
                          merge_aliases: str = "before") -> PrototypeSet:
    """Enrich every class prototype through caption retrieval.

    Retrieval runs against ``llm_bank`` with each class's retrieval query;
    fusion embeddings come from ``vlm_text_bank`` at the same ids, so the two
    banks must be aligned row-for-row. ``merge_aliases`` picks whether alias
    prototypes merge before enrichment (one retrieval per class) or after
    (one retrieval per alias, merging the enriched outputs).
    """
    rows = prototype_rows(specs, llm_bank, vlm_text_bank, retriever,
                          merge_aliases)
    hits = None
    if config.alpha > 0:
        hits = retrieve_rows(retriever, rows.queries, config.k,
                             llm_bank.space_tag, "prototype")
    return fuse_prototypes(rows, hits, vlm_text_bank, config)
