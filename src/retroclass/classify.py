"""Cosine classification over class prototypes.

Logits are true cosines computed in float64 (explicit division by both
norms), so they are insensitive to whether the prototype matrix was
renormalized after interpolation. Ranking ties break toward the lowest
class index. With enrichment disabled the pipeline reduces exactly to
argmax(query . prototype) over the zero-shot prototypes.

Scoring works on stacks of query rows; the one-query functions are the same
code applied to one row. Each query's logits come from its own
matrix-vector product and dot-product norm, never from a product across
queries (one stacked ``matmul`` runs them), so a query's result is bitwise
the same whatever the batch size. Eval ranks only the label, unsorted.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import errors
from .bank import EmbeddingBank, row_norms
from .enrich import EnrichmentConfig, PrototypeSet, fuse_queries
from .errors import row_error
from .files import read_jsonl, replace_atomically
from .index import QueryEmbedding, Retriever, check_threads


def _prototype_matrix(prototypes) -> np.ndarray:
    matrix = prototypes.matrix if isinstance(prototypes, PrototypeSet) else \
        np.asarray(prototypes, dtype=np.float32)
    if matrix.ndim != 2 or matrix.shape[0] < 1:
        raise errors.ValidationError("prototype matrix must be (n_classes, dim)")
    return matrix


def query_norms(queries) -> np.ndarray:
    """Float64 norm of each query row; a non-finite or near-zero row is
    named."""
    q = np.asarray(queries, dtype=np.float64)
    qnorms = row_norms(q)
    bad = np.flatnonzero(~np.isfinite(qnorms))
    if bad.size:
        raise row_error(errors.ValidationError, "query", int(bad[0]),
                        q.shape[0], "query vector is not finite")
    bad = np.flatnonzero(qnorms <= 1e-12)
    if bad.size:
        raise row_error(errors.ZeroVector, "query", int(bad[0]), q.shape[0],
                        "query vector has near-zero norm")
    return qnorms


def prototype_norms(prototypes) -> np.ndarray:
    """Float64 norm of each prototype row; a degenerate row is named."""
    pnorms = np.linalg.norm(_prototype_matrix(prototypes).astype(np.float64),
                            axis=1)
    bad = np.flatnonzero(~(np.isfinite(pnorms) & (pnorms > 1e-12)))
    if bad.size:
        row = int(bad[0])
        raise errors.DegeneratePrototype(
            f"prototype row {row} has "
            f"{'near-zero' if np.isfinite(pnorms[row]) else 'non-finite'} norm")
    return pnorms


def cosine_rows(queries, prototypes, qnorms: np.ndarray,
                pnorms: np.ndarray) -> np.ndarray:
    """:func:`logits_rows` given :func:`query_norms` of ``queries`` and
    :func:`prototype_norms` of ``prototypes``, so that a caller scoring one
    stack against several sets (or several stacks against one set) takes
    each norm once."""
    matrix = _prototype_matrix(prototypes)
    q = np.ascontiguousarray(queries, dtype=np.float64)
    if q.shape[1] != matrix.shape[1]:
        raise errors.DimensionMismatch(
            f"query dim {q.shape[1]} != prototype dim {matrix.shape[1]}")
    p64 = np.ascontiguousarray(matrix, dtype=np.float64)
    # one stacked matmul, one prototypes-by-row gemv per query row
    raw = np.matmul(p64, q[:, :, None])[:, :, 0]
    return np.clip(raw / (pnorms * qnorms[:, None]), -1.0, 1.0)


def logits_rows(queries, prototypes) -> np.ndarray:
    """Cosine of each query row against every prototype row, (n, C) float64."""
    q = np.ascontiguousarray(queries, dtype=np.float64)
    return cosine_rows(q, prototypes, query_norms(q),
                       prototype_norms(prototypes))


def rank_rows(logit_rows: np.ndarray) -> np.ndarray:
    """Class indices of each row, score-desc, ties to the lowest index."""
    return np.argsort(-logit_rows, axis=1, kind="stable")


def label_ranks(logit_rows: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Each row's label's position in :func:`rank_rows`' order, unsorted:
    the classes above the label, and those tying it at a lower index."""
    own = np.take_along_axis(logit_rows, labels[:, None], axis=1)
    before = np.arange(logit_rows.shape[1]) < labels[:, None]
    return np.count_nonzero(
        (logit_rows > own) | ((logit_rows == own) & before), axis=1)


def logits(query_vector, prototypes) -> np.ndarray:
    """Cosine of the query against every prototype row, as float64."""
    q = np.asarray(query_vector, dtype=np.float64).reshape(1, -1)
    return logits_rows(q, prototypes)[0]


def predict_topk(logit_vector, m: int) -> list[tuple[int, float]]:
    """Top-m (class index, logit) pairs, score-desc, ties to lowest index."""
    arr = np.asarray(logit_vector, dtype=np.float64).reshape(-1)
    n = arr.shape[0]
    if m < 1 or m > n:
        raise errors.InvalidM(f"m must be in [1, {n}], got {m}")
    order = rank_rows(arr[None, :])[0, :m]
    return list(zip(order.tolist(), arr[order].tolist()))


@dataclass(frozen=True)
class Prediction:
    """Full ranking of all classes for one query."""

    query_id: int
    topk: tuple[tuple[int, float], ...]
    enriched: bool

    def to_json_dict(self) -> dict:
        return {"query_id": self.query_id,
                "topk": [[i, s] for i, s in self.topk],
                "enriched": self.enriched}


def classify_query(query: QueryEmbedding, prototypes: PrototypeSet,
                   retriever: Retriever | None = None,
                   config: EnrichmentConfig | None = None,
                   query_id: int = 0) -> Prediction:
    """:func:`classify_batch` for one query."""
    return classify_batch(EmbeddingBank(query.vector[None, :], query.space_tag),
                          prototypes, retriever, config,
                          first_query_id=query_id)[0]


def classify_batch(queries: EmbeddingBank, prototypes: PrototypeSet,
                   retriever: Retriever | None = None,
                   config: EnrichmentConfig | None = None,
                   threads: int = 1,
                   first_query_id: int = 0) -> list[Prediction]:
    """Rank every class for each query of the bank, in bank order.

    With no config, or a config whose alpha and beta are both 0, this is the
    plain zero-shot pipeline; ``prototypes`` is the set to score against,
    enriched or not. With beta > 0 a retriever over the caption bank is
    required: each query is interpolated with its own retrieved caption
    centroid before scoring. Each prediction is bitwise what
    :func:`classify_query` gives for that query alone. ``threads`` is
    accepted and validated but starts no workers; BLAS does its own
    threading.
    """
    check_threads(threads)
    active = config is not None and (config.alpha > 0 or config.beta > 0)
    hits = captions = None
    if config is not None and config.beta > 0:
        if retriever is None:
            raise errors.ValidationError(
                "a caption retriever is required when beta > 0")
        hits = retriever.search(queries.vectors, config.k,
                                space_tag=queries.space_tag)
        captions = retriever.bank
    scores = logits_rows(fuse_queries(queries.vectors, hits, captions,
                                      config), prototypes)
    order = rank_rows(scores)
    ranked = np.take_along_axis(scores, order, axis=1)
    return [Prediction(first_query_id + i, tuple(zip(ids, vals)), active)
            for i, (ids, vals) in enumerate(zip(order.tolist(),
                                                ranked.tolist()))]


def write_predictions(predictions: list[Prediction], path) -> None:
    """One JSON object per line: {"query_id", "topk", "enriched"}."""
    with replace_atomically(path, "predictions") as fh:
        for pred in predictions:
            fh.write(json.dumps(pred.to_json_dict()) + "\n")


def _parse_prediction(i: int, obj) -> Prediction:
    return Prediction(query_id=int(obj["query_id"]),
                      topk=tuple((int(c), float(s)) for c, s in obj["topk"]),
                      enriched=bool(obj["enriched"]))


def read_predictions(path) -> list[Prediction]:
    return read_jsonl(path, "predictions", _parse_prediction, errors.CorruptData)
