import numpy as np
import pytest

from retroclass import errors
from retroclass.classify import (Prediction, classify_batch, classify_query,
                                 logits, predict_topk, read_predictions,
                                 write_predictions)
from retroclass.enrich import (EnrichmentConfig, PrototypeSet,
                               enrich_all_prototypes, enrich_query,
                               gather_captions, zeroshot_prototypes)
from retroclass.index import QueryEmbedding, Retriever, exact_topk


def unit32(rng, d=8):
    v = rng.standard_normal(d)
    return (v / np.linalg.norm(v)).astype(np.float32)


def proto_set(rows, kind="zeroshot"):
    return PrototypeSet(np.asarray(rows, np.float32), kind=kind)


# -- logits ------------------------------------------------------------------

def test_logits_hand_values():
    protos = proto_set([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
    out = logits(np.array([1.0, 0.0], np.float32), protos)
    assert out.dtype == np.float64
    assert np.allclose(out, [1.0, 0.0, -1.0])


def test_logits_are_norm_invariant():
    # identical directions, different stored norms, same cosine
    protos_unit = proto_set([[0.6, 0.8], [1.0, 0.0]])
    protos_scaled = proto_set([[0.3, 0.4], [0.25, 0.0]])
    q = np.array([0.6, 0.8], np.float32)
    assert np.allclose(logits(q, protos_unit), logits(q, protos_scaled),
                       atol=1e-12)


def test_logits_clipped_to_cosine_range(rng):
    v = unit32(rng)
    out = logits(v, proto_set([v]))
    assert out[0] <= 1.0


def test_logits_validation(rng):
    protos = proto_set(np.eye(3))
    with pytest.raises(errors.DimensionMismatch):
        logits(np.ones(4, np.float32), protos)
    with pytest.raises(errors.ZeroVector):
        logits(np.zeros(3, np.float32), protos)
    with pytest.raises(errors.DegeneratePrototype):
        logits(np.ones(3, np.float32),
               np.array([[1, 0, 0], [0, 0, 0]], np.float32))


# -- predict_topk ------------------------------------------------------------

def test_predict_topk_orders_and_breaks_ties():
    ranked = predict_topk([0.5, 0.9, 0.5, -0.1], 4)
    assert [c for c, _ in ranked] == [1, 0, 2, 3]
    assert ranked[0][1] == pytest.approx(0.9)


def test_predict_topk_m_validation():
    with pytest.raises(errors.InvalidM):
        predict_topk([0.1, 0.2], 0)
    with pytest.raises(errors.InvalidM):
        predict_topk([0.1, 0.2], 3)


# -- classify_query ----------------------------------------------------------

def test_classify_no_config_is_zero_shot(rng):
    protos = proto_set(np.vstack([unit32(rng) for _ in range(5)]))
    q = QueryEmbedding(unit32(rng), "vlm-text")
    pred = classify_query(q, protos)
    expect = predict_topk(logits(q.vector, protos), 5)
    assert pred.topk == tuple(expect)
    assert not pred.enriched
    assert len(pred.topk) == 5


def test_classify_alpha_requires_enriched_set(rng):
    protos = proto_set(np.vstack([unit32(rng) for _ in range(3)]))
    q = QueryEmbedding(unit32(rng), "vlm-text")
    with pytest.raises(errors.ValidationError, match="enriched"):
        classify_query(q, protos, config=EnrichmentConfig(alpha=0.2, beta=0.0))


def test_classify_beta_requires_retriever(rng):
    protos = proto_set(np.vstack([unit32(rng) for _ in range(3)]))
    q = QueryEmbedding(unit32(rng), "vlm-text")
    with pytest.raises(errors.ValidationError, match="retriever"):
        classify_query(q, protos, config=EnrichmentConfig(alpha=0.0, beta=0.5))


def test_classify_beta_space_mismatch(small_fixture):
    specs = small_fixture.build_specs()
    zs = zeroshot_prototypes(specs)
    retr = Retriever(small_fixture.llm_bank)  # llm-text, not the query space
    q = QueryEmbedding(np.array(small_fixture.queries.vectors[0]), "vlm-text")
    with pytest.raises(errors.SpaceMismatch):
        classify_query(q, zs, retriever=retr,
                       config=EnrichmentConfig(alpha=0.0, beta=0.5))


def test_classify_enriched_flag_reflects_config(small_fixture):
    specs = small_fixture.build_specs()
    zs = zeroshot_prototypes(specs)
    q = QueryEmbedding(np.array(small_fixture.queries.vectors[0]), "vlm-text")
    off = classify_query(q, zs, config=EnrichmentConfig(alpha=0.0, beta=0.0))
    assert not off.enriched
    retr = Retriever(small_fixture.vlm_bank)
    on = classify_query(q, zs, retriever=retr,
                        config=EnrichmentConfig(alpha=0.0, beta=0.5))
    assert on.enriched


def test_enrichment_off_reduces_to_zero_shot_bitwise(small_fixture):
    """alpha=beta=0, renormalization off: the full pipeline and the plain
    cosine ranking must produce identical floats for every query."""
    specs = small_fixture.build_specs()
    zs = zeroshot_prototypes(specs)
    retr = Retriever(small_fixture.llm_bank)
    cfg = EnrichmentConfig(alpha=0.0, beta=0.0, renormalize_output=False)
    enriched = enrich_all_prototypes(specs, small_fixture.llm_bank,
                                     small_fixture.vlm_bank, retr, cfg)
    for i in range(small_fixture.queries.count):
        q = QueryEmbedding(np.array(small_fixture.queries.vectors[i]),
                           "vlm-text")
        via_pipeline = classify_query(q, zs, enriched,
                                      Retriever(small_fixture.vlm_bank), cfg)
        plain = predict_topk(logits(q.vector, zs), zs.n_classes)
        assert via_pipeline.topk == tuple(plain)


def test_any_renormalization_keeps_ranking(small_fixture):
    specs = small_fixture.build_specs()
    zs = zeroshot_prototypes(specs)
    cfg_off = EnrichmentConfig(alpha=0.0, beta=0.0, renormalize_output=False)
    cfg_on = EnrichmentConfig(alpha=0.0, beta=0.0, renormalize_output=True)
    retr = Retriever(small_fixture.llm_bank)
    e_off = enrich_all_prototypes(specs, small_fixture.llm_bank,
                                  small_fixture.vlm_bank, retr, cfg_off)
    e_on = enrich_all_prototypes(specs, small_fixture.llm_bank,
                                 small_fixture.vlm_bank, retr, cfg_on)
    for i in range(small_fixture.queries.count):
        q = QueryEmbedding(np.array(small_fixture.queries.vectors[i]),
                           "vlm-text")
        r_off = classify_query(q, zs, e_off, None, cfg_off)
        r_on = classify_query(q, zs, e_on, None, cfg_on)
        assert [c for c, _ in r_off.topk] == [c for c, _ in r_on.topk]


# -- batch -------------------------------------------------------------------

def batch_inputs(small_fixture, n=10):
    specs = small_fixture.build_specs()
    zs = zeroshot_prototypes(specs)
    queries = [QueryEmbedding(np.array(small_fixture.queries.vectors[i]),
                              "vlm-text") for i in range(n)]
    return zs, queries


def test_batch_matches_single_calls(small_fixture):
    zs, queries = batch_inputs(small_fixture)
    cfg = EnrichmentConfig(alpha=0.0, beta=0.5)
    retr = Retriever(small_fixture.vlm_bank)
    batch = classify_batch(queries, zs, None, retr, cfg)
    for i, pred in enumerate(batch):
        single = classify_query(queries[i], zs, None, retr, cfg, query_id=i)
        assert pred == single
    assert [p.query_id for p in batch] == list(range(len(queries)))


def test_batch_threads_do_not_change_results(small_fixture):
    zs, queries = batch_inputs(small_fixture, n=16)
    cfg = EnrichmentConfig(alpha=0.0, beta=0.5)
    retr = Retriever(small_fixture.vlm_bank)
    runs = [classify_batch(queries, zs, None, retr, cfg, threads=t)
            for t in (0, 1, 3)]
    assert runs[0] == runs[1] == runs[2]


def test_batch_error_carries_query_index(small_fixture, rng):
    zs, queries = batch_inputs(small_fixture, n=2)
    bad = QueryEmbedding(unit32(rng, d=24), "llm-text")  # wrong space
    cfg = EnrichmentConfig(alpha=0.0, beta=0.5)
    retr = Retriever(small_fixture.vlm_bank)
    with pytest.raises(errors.SpaceMismatch, match="query 2"):
        classify_batch(queries + [bad], zs, None, retr, cfg, threads=1)


def loop_fuse(base, query, banks, cfg, frac, tau, use_temperature):
    """One vector's enrichment, written out with 1-D numpy calls."""
    retrieval_bank, fusion_bank = banks
    hits = exact_topk(query, retrieval_bank, cfg.k)
    emb = np.array(fusion_bank.vectors[[h.id for h in hits]]).astype(np.float64)
    scores = np.array([h.score for h in hits])
    if use_temperature:
        scaled = scores / tau
        scaled -= scaled.max()
        w = np.exp(scaled)
        w = w / w.sum()
    else:
        w = np.full(len(hits), 1.0 / len(hits))
    centroid = (emb * w[:, None]).sum(axis=0).astype(np.float32)
    out = frac * centroid.astype(np.float64) + \
        (1.0 - frac) * base.astype(np.float64)
    if cfg.renormalize_output:
        out = out / np.linalg.norm(out)
    return out.astype(np.float32)


def loop_ranking(qv, prototypes):
    """One query's ranking, written out with 1-D numpy calls."""
    p64 = prototypes.astype(np.float64)
    q = qv.astype(np.float64)
    cos = np.clip((p64 @ q) / (np.linalg.norm(p64, axis=1) * np.linalg.norm(q)),
                  -1.0, 1.0)
    order = np.lexsort((np.arange(cos.shape[0]), -cos))
    return tuple((int(i), float(cos[i])) for i in order)


@pytest.mark.parametrize("n", [1, 7, 64])
@pytest.mark.parametrize("cfg", [
    EnrichmentConfig(),
    EnrichmentConfig(alpha=0.4, beta=0.8, tau_it=2.0, use_temperature_tt=False,
                     renormalize_output=False),
], ids=["default", "no-renorm"])
def test_batch_rows_equal_one_query_calls(golden_fixture, n, cfg):
    """Every row of a batch is bitwise the one-query result and the result
    of the same arithmetic done one vector at a time."""
    fx = golden_fixture
    specs = fx.build_specs()
    zs = zeroshot_prototypes(specs)
    enriched = enrich_all_prototypes(specs, fx.llm_bank, fx.vlm_bank,
                                     Retriever(fx.llm_bank), cfg)
    loop_protos = np.vstack([
        loop_fuse(spec.merged_prototype(),
                  QueryEmbedding(spec.merged_retrieval_query(), "llm-text"),
                  (fx.llm_bank, fx.vlm_bank), cfg, cfg.alpha, cfg.tau_tt,
                  cfg.use_temperature_tt)
        for spec in specs])
    assert np.array_equal(enriched.matrix.view(np.uint32),
                          loop_protos.view(np.uint32))
    retr = Retriever(fx.vlm_bank)
    queries = [QueryEmbedding(np.array(fx.queries.vectors[i]), "vlm-text")
               for i in range(0, 8 * n, 8)]
    batch = classify_batch(queries, zs, enriched, retr, cfg,
                           first_query_id=100)
    assert [p.query_id for p in batch] == list(range(100, 100 + n))
    for i, pred in enumerate(batch):
        assert pred == classify_query(queries[i], zs, enriched, retr, cfg,
                                      query_id=100 + i)
        qv = loop_fuse(queries[i].vector, queries[i],
                       (fx.vlm_bank, fx.vlm_bank), cfg, cfg.beta, cfg.tau_it,
                       cfg.use_temperature_it)
        assert pred.topk == loop_ranking(qv, enriched.matrix)


def test_batch_with_short_and_empty_hit_lists(small_fixture):
    """Rows with k, fewer than k, or no hits in one batch each match the
    row-by-row pipeline; an empty row passes through unenriched."""
    zs, queries = batch_inputs(small_fixture, n=9)
    cfg = EnrichmentConfig(alpha=0.0, beta=0.5, k=6)
    kept = {q.vector.tobytes(): (0, 3, cfg.k)[i % 3]
            for i, q in enumerate(queries)}

    class ShortRetriever(Retriever):
        def topk(self, vector, k, space_tag=None):
            hits = super().topk(vector, k, space_tag)
            return hits[:kept[np.asarray(vector, np.float32).tobytes()]]

    retr = ShortRetriever(small_fixture.vlm_bank)
    batch = classify_batch(queries, zs, None, retr, cfg)
    for i, pred in enumerate(batch):
        hits = retr.topk(queries[i].vector, cfg.k)
        vec = enrich_query(queries[i].vector,
                           gather_captions(hits, small_fixture.vlm_bank),
                           cfg).vector
        assert pred.topk == tuple(predict_topk(logits(vec, zs), zs.n_classes))


def test_batch_dimension_error_carries_query_index(small_fixture):
    zs, queries = batch_inputs(small_fixture, n=3)
    bad = QueryEmbedding.from_raw(np.ones(7), "vlm-text")
    with pytest.raises(errors.DimensionMismatch, match="query 1"):
        classify_batch([queries[0], bad, queries[2]], zs)


def test_batch_negative_threads_rejected(small_fixture):
    zs, queries = batch_inputs(small_fixture, n=2)
    with pytest.raises(errors.ValidationError, match="threads"):
        classify_batch(queries, zs, threads=-1)


def test_empty_batch(small_fixture):
    zs, _ = batch_inputs(small_fixture, n=1)
    assert classify_batch([], zs) == []


# -- prediction files --------------------------------------------------------

def test_predictions_roundtrip(tmp_path, small_fixture):
    zs, queries = batch_inputs(small_fixture, n=5)
    preds = classify_batch(queries, zs)
    path = tmp_path / "preds.jsonl"
    write_predictions(preds, path)
    loaded = read_predictions(path)
    assert loaded == preds


def test_read_predictions_rejects_garbage(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"query_id": 0, "topk": [[0, 0.5]], "enriched": false}\nnot json\n')
    with pytest.raises(errors.RetroclassError):
        read_predictions(path)


def test_prediction_json_shape():
    pred = Prediction(3, ((1, 0.9), (0, 0.1)), True)
    assert pred.to_json_dict() == {"query_id": 3,
                                   "topk": [[1, 0.9], [0, 0.1]],
                                   "enriched": True}
