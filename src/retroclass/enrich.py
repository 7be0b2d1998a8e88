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
row, one stacked call for a stack; alias merges sum each class's rows in order
in one ``reduceat``), so a row's result is bitwise the same whatever the batch.
"""

from __future__ import annotations

import logging
import numbers
from dataclasses import dataclass

import numpy as np

from . import errors
from .bank import EmbeddingBank, row_norms
from .files import read_json
from .errors import row_error
from .index import HitTable, RetrievalHit, Retriever
from .prompts import ClassTable

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
        if not isinstance(self.k, int) or isinstance(self.k, bool):
            raise errors.ValidationError(f"k must be an integer, got {self.k!r}")
        if self.k < 1:
            raise errors.ValidationError(f"k must be >= 1, got {self.k}")
        for name in ("use_temperature_tt", "use_temperature_it",
                     "renormalize_output"):
            flag = getattr(self, name)
            if not isinstance(flag, bool):
                raise errors.ValidationError(
                    f"{name} must be true or false, got {flag!r}")
        for name in ("tau_tt", "tau_it", "alpha", "beta"):
            val = getattr(self, name)
            # stored as float, so that an integer-valued config reports as
            # the same numbers a sweep of it does
            if not isinstance(val, numbers.Real) or isinstance(val, bool):
                raise errors.ValidationError(
                    f"{name} must be a number, got {val!r}")
            object.__setattr__(self, name, float(val))
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
        return read_json(path, "config", cls.from_dict)


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


def gather_captions(hits: list[RetrievalHit], bank: EmbeddingBank) -> HitTable:
    """A hit list as the one-row :class:`HitTable` that :func:`fuse_rows`
    takes, its ids checked against ``bank``.

    The fusion bank may differ from the bank that produced the hits (the two
    caption banks are aligned id-for-id), which is exactly how retrieval in
    one space feeds fusion in another.
    """
    ids = [h.id for h in hits]
    for row_id in ids:
        if not 0 <= row_id < bank.count:
            raise errors.IdOutOfRange(
                f"hit id {row_id} outside [0, {bank.count})")
    return HitTable(np.array([ids], dtype=np.int64),
                    np.array([[h.score for h in hits]], dtype=np.float64),
                    np.array([len(ids)], dtype=np.int64))


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
    if hits.counts.shape[0] != n:
        raise errors.ValidationError(
            f"hit table has {hits.counts.shape[0]} rows for {n} {what} rows")
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


def enrich_prototype(prototype, captions: HitTable | None,
                     bank: EmbeddingBank,
                     config: EnrichmentConfig) -> EnrichedVector:
    """Interpolate a class prototype with its retrieved caption centroid.

    ``captions`` is a one-row table from :func:`gather_captions` whose ids
    index ``bank``; None passes the prototype through as partial. Weighting
    uses the text-to-text temperature (or a plain average when that branch's
    temperature toggle is off). alpha = 0 returns the prototype itself,
    exactly, when renormalization is off.
    """
    out, partial = fuse_rows(
        np.asarray(prototype, dtype=np.float32).reshape(1, -1),
        captions if captions is not None else gather_captions([], bank),
        bank.vectors, config.alpha, config.tau_tt, config.use_temperature_tt,
        config.renormalize_output, "prototype")
    return EnrichedVector(out[0], partial=bool(partial[0]))


def enrich_query(query, captions: HitTable | None, bank: EmbeddingBank,
                 config: EnrichmentConfig) -> EnrichedVector:
    """Interpolate an image query with its retrieved caption centroid."""
    out, partial = fuse_rows(
        np.asarray(query, dtype=np.float32).reshape(1, -1),
        captions if captions is not None else gather_captions([], bank),
        bank.vectors, config.beta, config.tau_it, config.use_temperature_it,
        config.renormalize_output, "query")
    return EnrichedVector(out[0], partial=bool(partial[0]))


@dataclass(frozen=True)
class PrototypeSet:
    """A stack of class vectors: one row per class, in class-index order."""

    matrix: np.ndarray
    partial: tuple[int, ...] = ()

    def __post_init__(self):
        matrix = np.asarray(self.matrix, dtype=np.float32)
        if matrix.ndim != 2 or matrix.shape[0] < 1:
            raise errors.ValidationError("prototype matrix must be (n_classes, dim)")
        matrix.setflags(write=False)
        object.__setattr__(self, "matrix", matrix)

    @property
    def n_classes(self) -> int:
        return int(self.matrix.shape[0])


def zeroshot_prototypes(table: ClassTable) -> PrototypeSet:
    """Merged (renormalized-mean) prototype per class, no retrieval."""
    return PrototypeSet(table.merged_prototypes)


def check_enrichment_banks(table: ClassTable, llm_bank: EmbeddingBank,
                           vlm_text_bank: EmbeddingBank,
                           merge_aliases: str) -> None:
    """Check the merge policy, that the two caption banks align, and that
    each side of the table matches its bank's space and dim."""
    if merge_aliases not in ("before", "after"):
        raise errors.ValidationError(
            f'merge_aliases must be "before" or "after", got {merge_aliases!r}')
    if llm_bank.count != vlm_text_bank.count:
        raise errors.BankMisalignment(
            f"caption banks misaligned: {llm_bank.count} vs {vlm_text_bank.count} rows")
    for what, rows, space, bank in (
            ("retrieval query", table.retrieval_queries, table.retrieval_space,
             llm_bank),
            ("prototype", table.prototypes, table.prototype_space,
             vlm_text_bank)):
        if space != bank.space_tag:
            raise errors.SpaceMismatch(
                f"{what} space {space!r} != bank space {bank.space_tag!r}")
        if rows.shape[1] != bank.dim:
            raise errors.DimensionMismatch(
                f"{what} dim {rows.shape[1]} != bank dim {bank.dim}")


def enrichment_queries(table: ClassTable, merge_aliases: str) -> np.ndarray:
    """The rows prototype enrichment retrieves for: one merged retrieval
    query per class, or one per name when aliases merge after enrichment."""
    if merge_aliases == "after":
        return table.retrieval_queries
    return table.merged(table.retrieval_queries)


def fuse_prototypes(table: ClassTable, hits: HitTable | None,
                    vlm_text_bank: EmbeddingBank, config: EnrichmentConfig,
                    merge_aliases: str) -> PrototypeSet:
    """Enriched prototypes for one config from already retrieved hits.

    ``hits`` holds the retrieval of each :func:`enrichment_queries` row from
    the llm bank at ``config.k``; it may be None when alpha is 0, which needs
    no retrieval.
    """
    after = merge_aliases == "after"
    base = table.prototypes if after else table.merged_prototypes
    if config.alpha == 0.0:
        # endpoint short-circuit: no retrieval, no partial rows
        n = base.shape[0]
        out = _identity_or_renorm(base, config.renormalize_output,
                                  "prototype", np.arange(n), n)
        partial = np.zeros(n, dtype=bool)
    else:
        out, partial = fuse_rows(base, hits, vlm_text_bank.vectors,
                                 config.alpha, config.tau_tt,
                                 config.use_temperature_tt,
                                 config.renormalize_output, "prototype")
    if after:
        out = table.merged(out)
        partial = np.logical_or.reduceat(partial, table.bounds[:-1])
    return PrototypeSet(out, partial=tuple(np.flatnonzero(partial).tolist()))


def fuse_queries(queries: np.ndarray, hits: HitTable | None,
                 caption_bank: EmbeddingBank | None,
                 config: EnrichmentConfig | None) -> np.ndarray:
    """The query rows to score for one config.

    With beta > 0 each row is interpolated with the centroid of its
    retrieved captions: ``hits`` holds each row's retrieval at ``config.k``,
    and its ids index ``caption_bank``. Otherwise the rows pass through, and
    ``hits`` and ``caption_bank`` may be None.
    """
    if config is None or config.beta == 0:
        return queries
    out, _ = fuse_rows(queries, hits, caption_bank.vectors, config.beta,
                       config.tau_it, config.use_temperature_it,
                       config.renormalize_output, "query")
    return out


def enrich_all_prototypes(table: ClassTable, llm_bank: EmbeddingBank,
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
    check_enrichment_banks(table, llm_bank, vlm_text_bank, merge_aliases)
    if retriever.bank is not llm_bank:
        raise errors.ValidationError(
            "retriever must be bound to the retrieval-space caption bank")
    hits = None
    if config.alpha > 0:
        hits = retriever.search(enrichment_queries(table, merge_aliases),
                                config.k, what="prototype")
    return fuse_prototypes(table, hits, vlm_text_bank, config, merge_aliases)
