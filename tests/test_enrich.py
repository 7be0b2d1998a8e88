import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from retroclass import errors
from retroclass.bank import EmbeddingBank
from retroclass.enrich import (EnrichmentConfig, enrich_all_prototypes,
                               enrich_prototype, enrich_query, fuse_rows,
                               gather_captions, softmax_weights,
                               zeroshot_prototypes)
from retroclass.index import (IvfIndex, RetrievalHit, Retriever, build_ivf,
                              search)
from retroclass.prompts import merge_alias_prototypes

finite_scores = st.lists(
    st.floats(min_value=-100, max_value=100, allow_nan=False), min_size=1,
    max_size=20)


# -- config ------------------------------------------------------------------

def test_config_defaults_are_the_reference_operating_point():
    cfg = EnrichmentConfig()
    assert (cfg.k, cfg.tau_tt, cfg.tau_it) == (10, 1.0, 100.0)
    assert (cfg.alpha, cfg.beta) == (0.2, 0.5)
    assert cfg.use_temperature_tt and cfg.use_temperature_it
    assert cfg.renormalize_output


def test_config_validation():
    with pytest.raises(errors.ValidationError):
        EnrichmentConfig(k=0)
    with pytest.raises(errors.InvalidTemperature):
        EnrichmentConfig(tau_tt=0.0)
    with pytest.raises(errors.InvalidTemperature):
        EnrichmentConfig(tau_it=-1.0)
    with pytest.raises(errors.ValidationError):
        EnrichmentConfig(alpha=1.5)
    with pytest.raises(errors.ValidationError):
        EnrichmentConfig(beta=-0.1)


def test_config_numbers_are_floats_and_not_booleans():
    """An integer-valued config is stored as the floats a sweep of it uses;
    a boolean is not a number here."""
    cfg = EnrichmentConfig(tau_tt=2, tau_it=100, alpha=0, beta=1)
    assert cfg == EnrichmentConfig(tau_tt=2.0, tau_it=100.0, alpha=0.0,
                                   beta=1.0)
    for name in ("tau_tt", "tau_it", "alpha", "beta"):
        assert type(getattr(cfg, name)) is float
        for bad in (True, False, "0.5", None):
            with pytest.raises(errors.ValidationError, match=name):
                EnrichmentConfig(**{name: bad})


def test_config_dict_roundtrip_and_unknown_keys(tmp_path):
    cfg = EnrichmentConfig(alpha=0.3, use_temperature_it=False)
    assert EnrichmentConfig.from_dict(cfg.to_dict()) == cfg
    with pytest.raises(errors.ValidationError, match="unknown"):
        EnrichmentConfig.from_dict({"alpha": 0.2, "gamma": 1.0})
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg.to_dict()))
    assert EnrichmentConfig.load(path) == cfg


# -- softmax contract --------------------------------------------------------

@given(finite_scores, st.floats(min_value=1e-3, max_value=1e6))
def test_softmax_sums_to_one(scores, tau):
    w = softmax_weights(scores, tau)
    assert abs(w.sum() - 1.0) <= 1e-6
    assert np.all(w >= 0)


@given(finite_scores, st.floats(min_value=0.1, max_value=100),
       st.floats(min_value=-50, max_value=50))
def test_softmax_shift_invariance(scores, tau, shift):
    a = softmax_weights(scores, tau)
    b = softmax_weights([s + shift for s in scores], tau)
    assert np.max(np.abs(a - b)) <= 1e-6


@given(finite_scores, st.floats(min_value=0.1, max_value=100))
def test_softmax_preserves_order(scores, tau):
    w = softmax_weights(scores, tau)
    for i in range(len(scores)):
        for j in range(len(scores)):
            if scores[i] > scores[j]:
                assert w[i] >= w[j]


def test_softmax_closed_form_point():
    w = softmax_weights([1.0, 0.0], tau=1.0)
    assert w[0] == pytest.approx(0.731059, abs=1e-5)
    assert w[1] == pytest.approx(0.268941, abs=1e-5)


def test_softmax_high_tau_is_nearly_uniform(rng):
    scores = rng.uniform(-1, 1, size=10)
    w = softmax_weights(scores, tau=1e6)
    assert np.max(np.abs(w - 0.1)) <= 1e-4 * 0.1


def test_softmax_low_tau_concentrates(rng):
    scores = rng.uniform(-1, 1, size=10)
    scores[3] = scores.max() + 0.01
    w = softmax_weights(scores, tau=1e-3)
    assert w[3] >= 0.999


def test_softmax_extreme_magnitudes_stay_finite():
    for scores in ([1e4, -1e4], [-1e4, -1e4 + 1], [9999.0, 10000.0]):
        w = softmax_weights(scores, tau=1.0)
        assert np.all(np.isfinite(w))
        assert abs(w.sum() - 1.0) <= 1e-6


def test_softmax_validation():
    with pytest.raises(errors.EmptyScores):
        softmax_weights([], 1.0)
    with pytest.raises(errors.InvalidTemperature):
        softmax_weights([1.0], 0.0)
    with pytest.raises(errors.ValidationError):
        softmax_weights([1.0, float("nan")], 1.0)


# -- weighted centroid -------------------------------------------------------
#
# At alpha 1, with the temperature toggle and renormalization off, the
# enriched prototype is exactly the uniform-weight centroid of its captions.

CENTROID = EnrichmentConfig(alpha=1.0, use_temperature_tt=False,
                            renormalize_output=False)


def test_centroid_hand_example():
    bank = EmbeddingBank(np.array([[1.0, 0.0], [0.0, 1.0]], np.float32),
                         "vlm-text")
    # three hits on row 0 and one on row 1 weigh the rows 0.75 / 0.25
    hits = [RetrievalHit(0, 0.9)] * 3 + [RetrievalHit(1, 0.8)]
    out = enrich_prototype(np.array([0.6, 0.8], np.float32),
                           gather_captions(hits, bank), bank, CENTROID).vector
    assert out.dtype == np.float32
    assert np.array_equal(out, np.array([0.75, 0.25], np.float32))


def test_centroid_accumulates_in_float64():
    # float32 summation would lose the tiny component entirely
    big = np.full((1, 4), 1.0, np.float32)
    tiny = np.full((1, 4), 1e-10, np.float32)
    bank = EmbeddingBank(np.vstack([big] + [tiny] * 3), "vlm-text")
    hits = [RetrievalHit(i, 0.5) for i in range(4)]
    out64 = (1.0 * 0.25) + 3 * (1e-10 * 0.25)
    out = enrich_prototype(np.full(4, 0.5, np.float32),
                           gather_captions(hits, bank), bank, CENTROID).vector
    assert out[0] == np.float32(out64)


def test_gather_captions_cross_bank(rng):
    retrieval_bank = EmbeddingBank.from_matrix(rng.standard_normal((6, 4)),
                                               "llm-text")
    fusion_bank = EmbeddingBank.from_matrix(rng.standard_normal((6, 5)),
                                            "vlm-text")
    hits = [RetrievalHit(4, 0.9), RetrievalHit(1, 0.7)]
    table = gather_captions(hits, fusion_bank)
    assert table.ids.dtype == np.int64 and table.scores.dtype == np.float64
    assert table.ids.tolist() == [[4, 1]]
    assert table.scores.tolist() == [[0.9, 0.7]]
    assert table.counts.tolist() == [2]
    assert table.hits(0) == hits
    empty = gather_captions([], fusion_bank)
    assert empty.ids.shape == (1, 0) and empty.counts.tolist() == [0]
    assert retrieval_bank.dim != fusion_bank.dim  # the gather really crossed banks
    with pytest.raises(errors.IdOutOfRange, match=r"hit id 6 outside \[0, 6\)"):
        gather_captions([RetrievalHit(6, 0.5)], fusion_bank)
    with pytest.raises(errors.IdOutOfRange):
        gather_captions([RetrievalHit(-1, 0.5)], fusion_bank)


# -- interpolation -----------------------------------------------------------

def retrieved_fixture(rng, n=5, d=8):
    """(captions, bank): n hits on the n unit rows of a fusion bank."""
    bank = EmbeddingBank.from_matrix(rng.standard_normal((n, d)), "vlm-text")
    hits = [RetrievalHit(i, float(0.9 - 0.1 * i)) for i in range(n)]
    return gather_captions(hits, bank), bank


def unit32(rng, d=8):
    v = rng.standard_normal(d)
    return (v / np.linalg.norm(v)).astype(np.float32)


def test_alpha_zero_no_renorm_is_bitwise_identity(rng):
    proto = unit32(rng)
    cfg = EnrichmentConfig(alpha=0.0, renormalize_output=False)
    out = enrich_prototype(proto, *retrieved_fixture(rng), cfg)
    assert np.array_equal(out.vector.view(np.uint32), proto.view(np.uint32))
    assert not out.partial


def test_beta_zero_no_renorm_is_bitwise_identity(rng):
    q = unit32(rng)
    cfg = EnrichmentConfig(beta=0.0, renormalize_output=False)
    out = enrich_query(q, *retrieved_fixture(rng), cfg)
    assert np.array_equal(out.vector.view(np.uint32), q.view(np.uint32))


def test_alpha_one_is_pure_centroid(rng):
    proto = unit32(rng)
    captions, bank = retrieved_fixture(rng)
    out = enrich_prototype(proto, captions, bank, CENTROID)
    expect = np.asarray(bank.vectors, np.float64).mean(axis=0)
    assert np.allclose(out.vector, expect, atol=1e-7)


def test_interpolation_matches_scalar_formula(rng):
    proto = unit32(rng)
    captions, bank = retrieved_fixture(rng)
    cfg = EnrichmentConfig(alpha=0.3, renormalize_output=False)
    out = enrich_prototype(proto, captions, bank, cfg)
    w = softmax_weights(captions.scores[0], cfg.tau_tt)
    cent = (w @ np.asarray(bank.vectors, np.float64)).astype(np.float32)
    expect = 0.3 * cent.astype(np.float64) + 0.7 * proto.astype(np.float64)
    assert np.allclose(out.vector, expect.astype(np.float32), atol=0)


def test_renormalize_flag(rng):
    proto = unit32(rng)
    captions, bank = retrieved_fixture(rng)
    on = enrich_prototype(proto, captions, bank,
                          EnrichmentConfig(alpha=0.4)).vector
    off = enrich_prototype(proto, captions, bank, EnrichmentConfig(
        alpha=0.4, renormalize_output=False)).vector
    assert np.linalg.norm(on.astype(np.float64)) == pytest.approx(1.0, abs=1e-6)
    assert np.linalg.norm(off.astype(np.float64)) != pytest.approx(1.0, abs=1e-3)
    assert np.allclose(off / np.linalg.norm(off.astype(np.float64)), on,
                       atol=1e-6)


def test_empty_retrieval_passes_through_as_partial(rng, caplog):
    proto = unit32(rng)
    _, bank = retrieved_fixture(rng)
    cfg = EnrichmentConfig(alpha=0.4)
    for captions in (None, gather_captions([], bank)):
        caplog.clear()
        with caplog.at_level("WARNING", logger="retroclass.enrich"):
            out = enrich_prototype(proto, captions, bank, cfg)
        assert out.partial
        assert np.array_equal(out.vector, proto)
        assert any("partial" in rec.message for rec in caplog.records)


def test_temperature_toggle_switches_weighting(rng):
    proto = unit32(rng)
    bank = EmbeddingBank.from_matrix(rng.standard_normal((4, 8)), "vlm-text")
    hits = [RetrievalHit(i, float(s)) for i, s in
            enumerate([5.0, 1.0, 0.5, 0.2])]
    captions = gather_captions(hits, bank)
    cfg_soft = EnrichmentConfig(alpha=1.0, tau_tt=1.0, renormalize_output=False)
    soft = enrich_prototype(proto, captions, bank, cfg_soft).vector
    avg = enrich_prototype(proto, captions, bank, CENTROID).vector
    assert not np.allclose(soft, avg, atol=1e-4)
    assert np.allclose(avg, np.asarray(bank.vectors, np.float64).mean(axis=0),
                       atol=1e-6)


def test_fuse_rows_needs_one_hit_row_per_base_row(rng):
    bank = EmbeddingBank.from_matrix(rng.standard_normal((30, 8)), "vlm-text")
    base = np.array(bank.vectors[:8])
    for rows in (3, 12):
        hits = search(bank, np.array(bank.vectors[:rows]), 4)
        with pytest.raises(errors.ValidationError,
                           match=f"hit table has {rows} rows for 8 query rows"):
            fuse_rows(base, hits, bank.vectors, 0.5, 1.0, True, True, "query")


def test_dim_mismatch_between_captions_and_vector(rng):
    proto = unit32(rng, d=9)
    with pytest.raises(errors.DimensionMismatch):
        enrich_prototype(proto, *retrieved_fixture(rng, d=8),
                         EnrichmentConfig(alpha=0.5))


# -- whole-set enrichment ----------------------------------------------------

def test_zeroshot_prototypes_rows(small_fixture, alias_specs):
    for table in (small_fixture.build_specs(), alias_specs):
        zs = zeroshot_prototypes(table)
        assert zs.matrix.shape == (6, 24)
        for c, (a, b) in enumerate(zip(table.bounds[:-1], table.bounds[1:])):
            assert np.array_equal(zs.matrix[c],
                                  merge_alias_prototypes(table.prototypes[a:b]))


def test_enrich_all_prototypes_shapes_and_partial(small_fixture):
    specs = small_fixture.build_specs()
    retr = Retriever(small_fixture.llm_bank)
    out = enrich_all_prototypes(specs, small_fixture.llm_bank,
                                small_fixture.vlm_bank, retr,
                                EnrichmentConfig())
    assert out.matrix.shape == (6, 24)
    assert out.partial == ()
    norms = np.linalg.norm(out.matrix.astype(np.float64), axis=1)
    assert np.allclose(norms, 1.0, atol=1e-5)


def test_enrich_all_alpha_zero_skips_retrieval(small_fixture):
    specs = small_fixture.build_specs()

    class ExplodingRetriever(Retriever):
        def search(self, *a, **kw):
            raise AssertionError("retrieval must not run when alpha is 0")

    retr = ExplodingRetriever(small_fixture.llm_bank)
    cfg = EnrichmentConfig(alpha=0.0, renormalize_output=False)
    out = enrich_all_prototypes(specs, small_fixture.llm_bank,
                                small_fixture.vlm_bank, retr, cfg)
    zs = zeroshot_prototypes(specs)
    assert np.array_equal(out.matrix.view(np.uint32),
                          zs.matrix.view(np.uint32))


def test_enrich_all_merge_before_vs_after_both_valid(small_fixture):
    specs = small_fixture.build_specs()
    retr = Retriever(small_fixture.llm_bank)
    cfg = EnrichmentConfig()
    before = enrich_all_prototypes(specs, small_fixture.llm_bank,
                                   small_fixture.vlm_bank, retr, cfg,
                                   merge_aliases="before")
    after = enrich_all_prototypes(specs, small_fixture.llm_bank,
                                  small_fixture.vlm_bank, retr, cfg,
                                  merge_aliases="after")
    # single-alias classes: both policies retrieve once per class and agree
    assert np.allclose(before.matrix, after.matrix, atol=1e-6)
    with pytest.raises(errors.ValidationError):
        enrich_all_prototypes(specs, small_fixture.llm_bank,
                              small_fixture.vlm_bank, retr, cfg,
                              merge_aliases="sometimes")


def test_enrich_all_merge_after_flags_classes_with_an_empty_alias_row(
        small_fixture, alias_specs):
    """With aliases merged after enrichment, a class is partial when any
    of its name rows retrieved nothing, and its prototype is the merge of
    the rows enriched one at a time."""
    fx, table = small_fixture, alias_specs
    trained = build_ivf(fx.llm_bank, 4, seed=1)
    # one more list, empty, centred beyond the first alias row of class 5,
    # away from its primary row: at nprobe 1 that alias row alone probes it
    queries = table.retrieval_queries
    first, alias = table.bounds[5], table.bounds[5] + 1
    target = queries[alias] + 4.0 * (queries[alias] - queries[first])
    target = (target / np.linalg.norm(target)).astype(np.float32)
    index = IvfIndex(trained.n_clusters + 1, trained.dim, trained.seed,
                     np.vstack([trained.centroids, target]),
                     np.append(trained.offsets, len(trained.ids)),
                     trained.ids).attach(fx.llm_bank)
    retr = Retriever(fx.llm_bank, index, 1)
    cfg = EnrichmentConfig()
    out = enrich_all_prototypes(table, fx.llm_bank, fx.vlm_bank, retr, cfg,
                                merge_aliases="after")

    spans = list(zip(table.bounds[:-1], table.bounds[1:]))
    empty = retr.search(queries, cfg.k).counts == 0
    assert empty[alias] and not empty[first]
    expect = tuple(c for c, (a, b) in enumerate(spans) if empty[a:b].any())
    assert out.partial == expect == (5,)

    loop = []
    for a, b in spans:
        rows = []
        for r in range(a, b):
            hits = retr.search(queries[r:r + 1], cfg.k).hits(0)
            rows.append(enrich_prototype(table.prototypes[r],
                                         gather_captions(hits, fx.vlm_bank),
                                         fx.vlm_bank, cfg).vector)
        loop.append(merge_alias_prototypes(np.vstack(rows)))
    assert np.array_equal(out.matrix.view(np.uint32),
                          np.vstack(loop).view(np.uint32))


def test_enrich_all_misaligned_banks(small_fixture, rng):
    specs = small_fixture.build_specs()
    retr = Retriever(small_fixture.llm_bank)
    short = EmbeddingBank.from_matrix(rng.standard_normal((3, 24)), "vlm-text")
    with pytest.raises(errors.BankMisalignment):
        enrich_all_prototypes(specs, small_fixture.llm_bank, short, retr,
                              EnrichmentConfig())


def test_enrich_all_wrong_retriever_binding(small_fixture):
    specs = small_fixture.build_specs()
    retr = Retriever(small_fixture.vlm_bank)
    with pytest.raises(errors.ValidationError):
        enrich_all_prototypes(specs, small_fixture.llm_bank,
                              small_fixture.vlm_bank, retr,
                              EnrichmentConfig())


def test_enrich_all_space_mismatch(small_fixture, rng):
    specs = small_fixture.build_specs()
    n = small_fixture.llm_bank.count
    wrong_tag = EmbeddingBank.from_matrix(
        np.asarray(small_fixture.llm_bank.vectors), "vlm-image")
    retr = Retriever(wrong_tag)
    with pytest.raises(errors.SpaceMismatch):
        enrich_all_prototypes(specs, wrong_tag, small_fixture.vlm_bank, retr,
                              EnrichmentConfig())
    assert n == wrong_tag.count
