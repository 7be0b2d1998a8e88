"""Cosine classification over class prototypes.

Logits are true cosines computed in float64 (explicit division by both
norms), so they are insensitive to whether the prototype matrix was
renormalized after interpolation. Ranking ties break toward the lowest
class index. With enrichment disabled the pipeline reduces exactly to
argmax(query . prototype) over the zero-shot prototypes.

Scoring works on stacks of query rows; the one-query functions are the same
code applied to one row. Each query's logits come from its own
matrix-vector product and dot-product norm, never from a product across
queries, so a query's result is bitwise the same whatever the batch size.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import errors
from .enrich import (EnrichmentConfig, HitTable, PrototypeSet, fuse_rows,
                     retrieve_rows, row_error, row_norms)
from .index import QueryEmbedding, Retriever, check_threads


def logits_rows(queries, prototypes) -> np.ndarray:
    """Cosine of each query row against every prototype row, (n, C) float64."""
    matrix = prototypes.matrix if isinstance(prototypes, PrototypeSet) else \
        np.asarray(prototypes, dtype=np.float32)
    if matrix.ndim != 2 or matrix.shape[0] < 1:
        raise errors.ValidationError("prototype matrix must be (n_classes, dim)")
    q = np.asarray(queries, dtype=np.float64)
    if q.shape[1] != matrix.shape[1]:
        raise errors.DimensionMismatch(
            f"query dim {q.shape[1]} != prototype dim {matrix.shape[1]}")
    qnorms = row_norms(q)
    bad = np.flatnonzero(qnorms <= 1e-12)
    if bad.size:
        raise row_error(errors.ZeroVector, "query", int(bad[0]), q.shape[0],
                        "query vector has near-zero norm")
    p64 = matrix.astype(np.float64)
    pnorms = np.linalg.norm(p64, axis=1)
    if np.any(pnorms <= 1e-12):
        bad = int(np.flatnonzero(pnorms <= 1e-12)[0])
        raise errors.DegeneratePrototype(f"prototype row {bad} has near-zero norm")
    raw = np.empty((q.shape[0], matrix.shape[0]), dtype=np.float64)
    for i, row in enumerate(q):
        raw[i] = p64 @ row
    return np.clip(raw / (pnorms * qnorms[:, None]), -1.0, 1.0)


def rank_rows(logit_rows: np.ndarray) -> np.ndarray:
    """Class indices of each row, score-desc, ties to the lowest index."""
    return np.argsort(-logit_rows, axis=1, kind="stable")


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


def select_prototypes(zeroshot: PrototypeSet, enriched: PrototypeSet | None,
                      config: EnrichmentConfig | None) -> PrototypeSet:
    """The prototype set queries are scored against under ``config``."""
    if config is None:
        return zeroshot
    if config.alpha > 0 and enriched is None:
        raise errors.ValidationError(
            "enriched prototypes are required when alpha > 0")
    return enriched if enriched is not None else zeroshot


def retrieve_query_hits(queries: list[QueryEmbedding],
                        retriever: Retriever | None, k: int) -> HitTable:
    """Top-k captions of every query, for the query enrichment branch."""
    if retriever is None:
        raise errors.ValidationError(
            "a caption retriever is required when beta > 0")
    tag = retriever.bank.space_tag
    for i, query in enumerate(queries):
        if query.space_tag != tag:
            raise row_error(errors.SpaceMismatch, "query", i, len(queries),
                            f"query space {query.space_tag!r} != caption "
                            f"bank space {tag!r}")
    return retrieve_rows(retriever, [q.vector for q in queries], k, tag)


def query_matrix(queries: list[QueryEmbedding], dim: int) -> np.ndarray:
    """The query vectors stacked as (n, dim) float32."""
    for i, query in enumerate(queries):
        if query.vector.shape[0] != dim:
            raise row_error(errors.DimensionMismatch, "query", i, len(queries),
                            f"query dim {query.vector.shape[0]} != "
                            f"prototype dim {dim}")
    if not queries:
        return np.empty((0, dim), dtype=np.float32)
    return np.vstack([q.vector for q in queries])


def rank_queries(queries: np.ndarray, prototypes: PrototypeSet,
                 hits: HitTable | None, caption_vectors,
                 config: EnrichmentConfig | None) -> tuple[np.ndarray, np.ndarray]:
    """Rank every class for each query row: (class order, logits), both (n, C).

    With beta > 0 each query is first interpolated with the centroid of its
    retrieved captions; ``hits`` index ``caption_vectors`` at ``config.k``.
    """
    if config is not None and config.beta > 0:
        queries, _ = fuse_rows(queries, hits, caption_vectors, config.beta,
                               config.tau_it, config.use_temperature_it,
                               config.renormalize_output, "query")
    scores = logits_rows(queries, prototypes)
    return rank_rows(scores), scores


def classify_query(query: QueryEmbedding,
                   zeroshot: PrototypeSet,
                   enriched: PrototypeSet | None = None,
                   retriever: Retriever | None = None,
                   config: EnrichmentConfig | None = None,
                   query_id: int = 0) -> Prediction:
    """Rank every class for one query.

    With no config, or a config whose alpha and beta are both 0, this is the
    plain zero-shot pipeline. Otherwise the enriched prototype set must be
    supplied when alpha > 0, and a retriever over the caption bank must be
    supplied when beta > 0 (the query is interpolated with its own retrieved
    caption centroid before scoring).
    """
    return classify_batch([query], zeroshot, enriched, retriever, config,
                          first_query_id=query_id)[0]


def classify_batch(queries: list[QueryEmbedding],
                   zeroshot: PrototypeSet,
                   enriched: PrototypeSet | None = None,
                   retriever: Retriever | None = None,
                   config: EnrichmentConfig | None = None,
                   threads: int = 1,
                   first_query_id: int = 0) -> list[Prediction]:
    """Classify queries independently; output order matches input order.

    Each prediction is bitwise what :func:`classify_query` gives for that
    query alone. ``threads`` is accepted and validated but starts no
    workers; BLAS does its own threading.
    """
    check_threads(threads)
    if not queries:
        return []
    prototypes = select_prototypes(zeroshot, enriched, config)
    active = config is not None and (config.alpha > 0 or config.beta > 0)
    hits = caption_vectors = None
    if config is not None and config.beta > 0:
        hits = retrieve_query_hits(queries, retriever, config.k)
        caption_vectors = retriever.bank.vectors
    order, scores = rank_queries(
        query_matrix(queries, prototypes.matrix.shape[1]), prototypes, hits,
        caption_vectors, config)
    ranked = np.take_along_axis(scores, order, axis=1)
    return [Prediction(first_query_id + i, tuple(zip(ids, vals)), active)
            for i, (ids, vals) in enumerate(zip(order.tolist(),
                                                ranked.tolist()))]


def write_predictions(predictions: list[Prediction], path) -> None:
    """One JSON object per line: {"query_id", "topk", "enriched"}."""
    try:
        with open(Path(path), "w", encoding="utf-8") as fh:
            for pred in predictions:
                fh.write(json.dumps(pred.to_json_dict()) + "\n")
    except OSError as exc:
        raise errors.IoError(f"cannot write predictions to {path}: {exc}") from exc


def read_predictions(path) -> list[Prediction]:
    try:
        with open(Path(path), encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise errors.IoError(f"cannot read predictions at {path}: {exc}") from exc
    out = []
    for i, line in enumerate(lines):
        try:
            obj = json.loads(line)
            out.append(Prediction(
                query_id=int(obj["query_id"]),
                topk=tuple((int(c), float(s)) for c, s in obj["topk"]),
                enriched=bool(obj["enriched"]),
            ))
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise errors.CorruptData(f"predictions line {i} is invalid: {exc}") from exc
    return out
