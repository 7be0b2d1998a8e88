import dataclasses
import struct
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import retroclass.bank as bank_mod
import retroclass.files as files_mod
import retroclass.index as index_mod
from retroclass import errors
from retroclass.bank import EmbeddingBank, bank_load, bank_save
from retroclass.index import (IvfIndex, QueryEmbedding, RetrievalHit,
                              Retriever, batch_topk, build_ivf, exact_topk,
                              ivf_search, load_index, recall_at_k, save_index,
                              search)
from conftest import run_bits
from scan_bits import near_ties, scaled_copy


def unit(v):
    v = np.asarray(v, dtype=np.float64)
    return (v / np.linalg.norm(v)).astype(np.float32)


def make_bank(rng, n, d, tag="llm-text"):
    return EmbeddingBank.from_matrix(rng.standard_normal((n, d)), tag)


def query_for(bank, rng):
    return QueryEmbedding.from_raw(rng.standard_normal(bank.dim),
                                   bank.space_tag)


def _csr(lists):
    """(offsets, ids) of id lists: the arrays an ``IvfIndex`` holds."""
    return np.cumsum([0] + [len(lst) for lst in lists]), np.concatenate(lists)


def oracle_topk(query, bank, k):
    """Independent full sort in float64, same (score desc, id asc) tie rule."""
    scores = np.asarray(bank.vectors, np.float64) @ np.asarray(query.vector,
                                                               np.float64)
    order = sorted(range(bank.count), key=lambda i: (-scores[i], i))
    return [(i, scores[i]) for i in order[: min(k, bank.count)]]


# -- QueryEmbedding ----------------------------------------------------------

def test_query_must_be_unit():
    with pytest.raises(errors.ValidationError):
        QueryEmbedding(np.array([3.0, 4.0], np.float32), "llm-text")
    with pytest.raises(errors.ZeroVector):
        QueryEmbedding(np.zeros(4, np.float32), "llm-text")


def test_query_from_raw_normalizes():
    q = QueryEmbedding.from_raw([3.0, 4.0], "llm-text")
    assert np.allclose(q.vector, [0.6, 0.8])
    with pytest.raises(errors.ZeroVector):
        QueryEmbedding.from_raw([0.0, 0.0], "llm-text")


# -- exact_topk --------------------------------------------------------------

def test_orthonormal_example():
    bank = EmbeddingBank.from_matrix(
        np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]]), "llm-text")
    hits = exact_topk(QueryEmbedding(np.array([1.0, 0.0], np.float32),
                                     "llm-text"), bank, 2)
    assert [(h.id, h.score) for h in hits] == [(0, 1.0), (1, 0.0)]


def test_query_equal_to_stored_row(rng):
    bank = make_bank(rng, 50, 16)
    j = 17
    q = QueryEmbedding(np.array(bank.vectors[j]), bank.space_tag)
    hits = exact_topk(q, bank, 3)
    assert hits[0].id == j
    assert hits[0].score == pytest.approx(1.0, abs=1e-5)


def test_k_larger_than_count(rng):
    bank = make_bank(rng, 4, 8)
    hits = exact_topk(query_for(bank, rng), bank, 10)
    assert len(hits) == 4


def test_search_table_is_no_wider_than_the_bank(rng):
    """A large k does not size the table: no row can hold more hits than
    the bank has rows, exact or IVF."""
    bank = make_bank(rng, 20, 8)
    index = build_ivf(bank, 4, seed=0)
    matrix = np.vstack([query_for(bank, rng).vector for _ in range(3)])
    for args in ((), (index, 2)):
        table = search(bank, matrix, 10**6, *args)
        assert table.ids.shape == table.scores.shape == (3, 20)
        narrow = search(bank, matrix, 20, *args)
        for name in ("ids", "scores", "counts"):
            assert np.array_equal(getattr(table, name), getattr(narrow, name))


def test_k_must_be_positive(rng):
    bank = make_bank(rng, 4, 8)
    with pytest.raises(errors.ValidationError):
        exact_topk(query_for(bank, rng), bank, 0)


def test_dim_mismatch(rng):
    bank = make_bank(rng, 4, 8)
    q = QueryEmbedding.from_raw(rng.standard_normal(9), "llm-text")
    with pytest.raises(errors.DimensionMismatch):
        exact_topk(q, bank, 2)


def test_space_tag_mismatch(rng):
    bank = make_bank(rng, 4, 8, tag="llm-text")
    q = QueryEmbedding.from_raw(rng.standard_normal(8), "vlm-text")
    with pytest.raises(errors.SpaceMismatch):
        exact_topk(q, bank, 2)


def test_empty_bank_errors(rng):
    bank = EmbeddingBank.from_matrix(np.empty((0, 8)), "llm-text")
    q = QueryEmbedding.from_raw(rng.standard_normal(8), "llm-text")
    with pytest.raises(errors.EmptyBank):
        exact_topk(q, bank, 2)


def test_tie_breaks_to_lowest_id():
    row = unit([1.0, 2.0, 3.0])
    other = unit([-1.0, 0.5, 0.0])
    bank = EmbeddingBank(np.asarray(np.vstack([other, row, other, row, row]),
                                    np.float32), "llm-text")
    hits = exact_topk(QueryEmbedding(row, "llm-text"), bank, 4)
    assert [h.id for h in hits] == [1, 3, 4, 0]


def test_scores_sorted_and_bounded(rng):
    bank = make_bank(rng, 300, 12)
    hits = exact_topk(query_for(bank, rng), bank, 20)
    scores = [h.score for h in hits]
    assert scores == sorted(scores, reverse=True)
    assert all(-1 - 1e-5 <= s <= 1 + 1e-5 for s in scores)


def test_matches_full_sort_oracle_fixed_seeds():
    rng = np.random.default_rng(2024)
    for _ in range(25):
        n = int(rng.integers(1, 400))
        d = int(rng.integers(2, 48))
        k = int(rng.integers(1, 21))
        bank = make_bank(rng, n, d)
        q = query_for(bank, rng)
        hits = exact_topk(q, bank, k)
        expect = oracle_topk(q, bank, k)
        assert [h.id for h in hits] == [i for i, _ in expect]
        for h, (_, s) in zip(hits, expect):
            assert h.score == pytest.approx(s, abs=1e-5)


def test_blocked_scan_respects_block_seams(monkeypatch, rng):
    monkeypatch.setattr(index_mod, "SCAN_BLOCK", 16)
    bank = make_bank(rng, 100, 8)
    q = query_for(bank, rng)
    hits = exact_topk(q, bank, 10)
    assert [h.id for h in hits] == [i for i, _ in oracle_topk(q, bank, 10)]


@given(st.integers(1, 120), st.integers(2, 24), st.integers(1, 15),
       st.integers(0, 2**31))
@settings(max_examples=60)
def test_oracle_property(n, d, k, seed):
    rng = np.random.default_rng(seed)
    bank = make_bank(rng, n, d)
    q = query_for(bank, rng)
    hits = exact_topk(q, bank, k)
    assert [h.id for h in hits] == [i for i, _ in oracle_topk(q, bank, k)]


# -- build_ivf ---------------------------------------------------------------

def test_degenerate_partition_one_per_cluster(rng):
    bank = make_bank(rng, 12, 6)
    index = build_ivf(bank, 12, seed=0)
    sizes = sorted(len(lst) for lst in index.lists)
    assert sizes == [1] * 12
    covered = np.sort(np.concatenate(index.lists))
    assert np.array_equal(covered, np.arange(12, dtype=np.uint64))


def test_two_blob_separation(rng):
    a = unit(np.ones(16))
    b = unit(np.concatenate([np.ones(8), -np.ones(8)]))
    blob_a = a + 0.05 * rng.standard_normal((60, 16))
    blob_b = b + 0.05 * rng.standard_normal((60, 16))
    bank = EmbeddingBank.from_matrix(np.vstack([blob_a, blob_b]), "llm-text")
    index = build_ivf(bank, 2, seed=5)
    truth = np.array([0] * 60 + [1] * 60)
    assign = np.empty(120, dtype=np.int64)
    for c, lst in enumerate(index.lists):
        assign[lst.astype(np.int64)] = c
    agree = max(np.mean(assign == truth), np.mean(assign == 1 - truth))
    assert agree >= 0.99


def test_build_determinism(rng):
    bank = make_bank(rng, 200, 10)
    i1 = build_ivf(bank, 8, seed=42)
    i2 = build_ivf(bank, 8, seed=42)
    assert np.array_equal(i1.centroids.view(np.uint32),
                          i2.centroids.view(np.uint32))
    for a, b in zip(i1.lists, i2.lists):
        assert np.array_equal(a, b)


def test_too_many_clusters(rng):
    bank = make_bank(rng, 5, 4)
    with pytest.raises(errors.TooManyClusters):
        build_ivf(bank, 6, seed=0)
    with pytest.raises(errors.ValidationError):
        build_ivf(bank, 0, seed=0)


def test_centroids_unit_norm_and_lists_sorted(rng):
    bank = make_bank(rng, 150, 8)
    index = build_ivf(bank, 6, seed=1)
    norms = np.linalg.norm(index.centroids.astype(np.float64), axis=1)
    assert np.allclose(norms, 1.0, atol=1e-5)
    for lst in index.lists:
        assert np.array_equal(lst, np.sort(lst))


def _reduceat_centroids(rows, labels, old, n_clusters):
    """The centroid update written with one ``np.add.reduceat``."""
    order = np.argsort(labels, kind="stable")
    sorted_rows = rows[order].astype(np.float64)
    sorted_labels = labels[order]
    starts = np.concatenate(([0], np.flatnonzero(np.diff(sorted_labels)) + 1))
    sums = np.add.reduceat(sorted_rows, starts, axis=0)
    present = sorted_labels[starts]
    counts = np.bincount(labels, minlength=n_clusters)
    new = old.astype(np.float64)
    new[present] = sums / counts[present, None]
    norms = np.linalg.norm(new, axis=1)
    degenerate = norms <= 1e-12
    new[degenerate] = old[degenerate]
    norms[degenerate] = 1.0
    return (new / norms[:, None]).astype(np.float32)


@pytest.mark.parametrize("d", [1, 2, 3, 5, 8, 17, 256, 1000])
def test_update_centroids_equals_reduceat_bitwise(d):
    """Per-cluster sums give the reduceat bits, with absent, one-member and
    zero-sum clusters, for unit rows, for rows whose values span 24 decades,
    and for rows where pairs of values near 1e12 cancel: there, summing a
    cluster in any other order moves its float32 centroid."""
    rng = np.random.default_rng(d)
    for trial in range(9):
        n = int(rng.integers(2, 3000 if d <= 256 else 600))
        n_clusters = int(rng.integers(6, 40))
        rows = rng.standard_normal((n, d))
        labels = rng.integers(5, n_clusters, n)
        if trial % 3 == 0:
            rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        elif trial % 3 == 1:
            rows *= 10.0 ** rng.integers(-12, 12, (n, d))
            rows[rng.random((n, d)) < 0.05] = -0.0
        else:
            pairs = np.flatnonzero(rng.random(n // 2) < 0.3) * 2
            rows[pairs] = rng.standard_normal((len(pairs), d)) * 1e12
            rows[pairs + 1] = -rows[pairs]
            labels[pairs + 1] = labels[pairs]
        rows = rows.astype(np.float32)
        # clusters 0 and 1 stay absent, 2 and 3 hold one row each, and 4
        # holds a row and its negation, so its sum is zero
        labels[:2] = [2, 3]
        if n >= 4:
            rows[3] = -rows[2]
            labels[2:4] = 4
        old = rng.standard_normal((n_clusters, d))
        old = (old / np.linalg.norm(old, axis=1, keepdims=True)).astype(
            np.float32)
        got = index_mod._update_centroids(rows, labels, old, n_clusters)
        want = _reduceat_centroids(rows, labels, old, n_clusters)
        assert got.dtype == np.float32
        assert np.array_equal(got.view(np.uint32), want.view(np.uint32))


def test_duplicate_rows_still_cover_all_ids(rng):
    # many identical rows force empty clusters, exercising the reseed path
    row = unit(rng.standard_normal(6))
    other = unit(rng.standard_normal(6))
    m = np.vstack([row] * 20 + [other] * 2)
    bank = EmbeddingBank(np.asarray(m, np.float32), "llm-text")
    index = build_ivf(bank, 4, seed=9)
    covered = np.sort(np.concatenate(index.lists))
    assert np.array_equal(covered, np.arange(22, dtype=np.uint64))


# -- ivf_search --------------------------------------------------------------

def test_full_probe_equals_exact_bitwise(rng):
    for _ in range(10):
        n = int(rng.integers(30, 500))
        d = int(rng.integers(4, 32))
        bank = make_bank(rng, n, d)
        nc = int(rng.integers(1, min(16, n) + 1))
        index = build_ivf(bank, nc, seed=3)
        q = query_for(bank, rng)
        k = int(rng.integers(1, 15))
        a = exact_topk(q, bank, k)
        b = ivf_search(index, q, k, nprobe=nc)
        assert a == b  # ids and float scores, exact


def test_nprobe_validation(rng):
    bank = make_bank(rng, 40, 8)
    index = build_ivf(bank, 4, seed=0)
    q = query_for(bank, rng)
    with pytest.raises(errors.InvalidProbe):
        ivf_search(index, q, 5, nprobe=0)
    with pytest.raises(errors.InvalidProbe):
        ivf_search(index, q, 5, nprobe=5)


def test_unattached_index_rejected(rng):
    bank = make_bank(rng, 40, 8)
    built = build_ivf(bank, 4, seed=0)
    detached = IvfIndex(built.n_clusters, built.dim, built.seed,
                        built.centroids, built.offsets, built.ids)
    with pytest.raises(errors.ValidationError):
        ivf_search(detached, query_for(bank, rng), 5, nprobe=2)


def test_nprobe_one_returns_hits_from_best_cluster(rng):
    a = unit(np.ones(16))
    b = unit(np.concatenate([np.ones(8), -np.ones(8)]))
    blob_a = a + 0.05 * rng.standard_normal((60, 16))
    blob_b = b + 0.05 * rng.standard_normal((60, 16))
    bank = EmbeddingBank.from_matrix(np.vstack([blob_a, blob_b]), "llm-text")
    index = build_ivf(bank, 2, seed=5)
    hits = ivf_search(index, QueryEmbedding(a, "llm-text"), 10, nprobe=1)
    assert len(hits) == 10
    assert all(h.id < 60 for h in hits)


def test_partial_probe_recall_on_mixture(rng):
    centers = rng.standard_normal((16, 24))
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    rows = np.repeat(centers, 125, axis=0) + 0.15 * rng.standard_normal((2000, 24))
    bank = EmbeddingBank.from_matrix(rows, "llm-text")
    index = build_ivf(bank, 16, seed=7)
    recalls = []
    for _ in range(40):
        q = query_for(bank, rng)
        approx = ivf_search(index, q, 10, nprobe=4)
        exact = exact_topk(q, bank, 10)
        recalls.append(recall_at_k(approx, exact))
    assert float(np.mean(recalls)) >= 0.8


# -- recall_at_k -------------------------------------------------------------

def test_recall_identity_and_disjoint():
    hits = [RetrievalHit(i, 1.0 - i / 10) for i in range(10)]
    other = [RetrievalHit(100 + i, 0.5) for i in range(10)]
    assert recall_at_k(hits, hits) == 1.0
    assert recall_at_k(other, hits) == 0.0


def test_recall_partial_overlap():
    exact = [RetrievalHit(i, 1.0) for i in range(10)]
    approx = [RetrievalHit(i, 1.0) for i in range(7)] + \
        [RetrievalHit(50 + i, 0.9) for i in range(3)]
    assert recall_at_k(approx, exact) == pytest.approx(0.7)


def test_recall_empty_baseline():
    with pytest.raises(errors.EmptyBaseline):
        recall_at_k([], [])


# -- search ------------------------------------------------------------------

def assert_same_row(table, row, single):
    """Row ``row`` of ``table`` is bitwise the only row of ``single``."""
    assert table.counts[row] == single.counts[0]
    assert np.array_equal(table.ids[row], single.ids[0])
    assert np.array_equal(table.scores[row].view(np.uint64),
                          single.scores[0].view(np.uint64))


@pytest.mark.parametrize("mapped", [False, True],
                         ids=["in-memory", "mapped-v2"])
def test_search_batch_rows_equal_one_row_calls(monkeypatch, tmp_path, rng,
                                               mapped):
    """A row's hits do not depend on the batch it is in: exact, IVF at
    nprobe 1 and full probe, with several blocks per scan. A kernel whose
    scores change with the batch width fails here."""
    monkeypatch.setattr(index_mod, "SCAN_BLOCK", 16)
    bank = make_bank(rng, 300, 64)
    if mapped:
        bank_save(bank, tmp_path / "b.bank")
        bank = bank_load(tmp_path / "b.bank")
        assert bank.vectors.flags.aligned
    index = build_ivf(bank, 6, seed=3)
    queries = np.vstack([query_for(bank, rng).vector for _ in range(64)])
    for n in (1, 2, 7, 64):
        batch = queries[:n]
        exact = search(bank, batch, 10)
        probe1 = search(bank, batch, 10, index, 1)
        full = search(bank, batch, 10, index, 6)
        for i in range(n):
            one = batch[i:i + 1]
            assert_same_row(exact, i, search(bank, one, 10))
            assert_same_row(probe1, i, search(bank, one, 10, index, 1))
            assert_same_row(full, i, search(bank, one, 10, index, 6))
            assert_same_row(full, i, search(bank, one, 10))
        assert (exact.counts == 10).all()


def test_exact_search_is_the_one_thread_plain_scan_at_1_and_2_threads(
        tmp_path):
    """``search`` ids and scores equal a plain one-thread scan, one
    ``block @ query`` per ``SCAN_BLOCK`` rows, at 1 and 2 BLAS threads:
    every ``m mod 8``, d up to 1024, duplicate rows and ties, a short last
    block, 1, 63, 64, 65 and 130 query rows, k >= m, k at least the 256
    column groups, and a mapped bank whose rows are not unit norm. OpenBLAS
    splits a product between threads, and the rows at a split get other
    bits; see ``scan_bits.py`` for the shapes. Each selection product takes
    the rows its block's cell budget allows: 4, 300 and 1,000 rows over
    small banks, and 64 then 130 rows over the two blocks of a
    ``SCAN_BLOCK`` + 1,000-row bank."""
    one = run_bits("scan_bits.py", tmp_path / "one.npz", 1)
    two = run_bits("scan_bits.py", tmp_path / "two.npz", 2)
    n = sum(name.startswith("ids") for name in one.files)
    assert n >= 26
    for i in range(n):
        ids, scores = one[f"ref_ids{i}"], one[f"ref_scores{i}"]
        for got in (one, two):
            assert np.array_equal(got[f"ids{i}"], ids), i
            assert np.array_equal(got[f"scores{i}"].view(np.uint64),
                                  scores.view(np.uint64)), i
            assert got[f"runs{i}"].tolist() == _selection_runs(
                *got[f"shape{i}"].tolist()), i


def _selection_runs(m, n, scan_block):
    """Query rows of each selection product of an exact scan of n rows over
    m bank rows: ``QUERY_BLOCK * SCAN_BLOCK // rows`` per run of a block."""
    runs = []
    for start in range(0, m, scan_block):
        width = index_mod.QUERY_BLOCK * scan_block // min(scan_block,
                                                          m - start)
        runs += [min(width, n - lo) for lo in range(0, n, width)]
    return runs


# -- batched selection -------------------------------------------------------

def _kth_largest(scores, k):
    """Each row's k-th largest score, NaN above every number (np.sort's
    order)."""
    return np.sort(scores, axis=1)[:, scores.shape[1] - k]


@pytest.mark.parametrize("kind", ["random", "one group", "contiguous top",
                                  "all equal", "non-finite"])
@pytest.mark.parametrize("m,k", [(8192, 10), (1000, 10), (1000, 37),
                                 (256, 10), (100, 10), (40, 40), (700, 256),
                                 (1000, 300), (300, 299)])
def test_kth_lower_bound_never_exceeds_the_kth_score(m, k, kind):
    """The k-th largest of the 256 strided group maxima is at most the k-th
    largest score, also when a row's top scores all fall in one group
    (columns j, j + 256, ...), when m is below 256, not a multiple of it,
    or at most k, when k is 256 or more, and with NaN and infinities. When
    the top k sit in k neighbouring columns, the strided groups keep them
    apart, and the bound is the k-th score itself."""
    rng = np.random.default_rng(m * 1000 + k)
    for _ in range(20):
        scores = rng.standard_normal((5, m)).astype(np.float32)
        if kind == "one group":
            scores[:, int(rng.integers(0, min(m, 256)))::256] += 10.0
        elif kind == "contiguous top":
            first = int(rng.integers(0, m - k + 1))
            scores[:, first:first + k] += 10.0
        elif kind == "all equal":
            scores[:] = scores[:, :1]
        elif kind == "non-finite":
            cells = rng.random(scores.shape) < 0.3
            scores[cells] = rng.choice(
                np.array([np.nan, np.inf, -np.inf], np.float32), cells.sum())
        bound = index_mod._kth_lower_bound(scores, k)
        kth = _kth_largest(scores, k)
        assert bound.dtype == np.float32 and bound.shape == (5,)
        assert (np.isnan(kth) | (bound <= kth)).all()
        if kind == "contiguous top" or m <= 256 or k >= 256:
            assert np.array_equal(bound, kth, equal_nan=True)


def test_full_block_scan_memory_stays_near_its_selection_product(rng):
    """Over one full ``SCAN_BLOCK`` block and 64 query rows, the batched
    selection, re-score and merge stay within 1.25 times the 35.8 MiB peak
    of a scan that re-scores one query row at a time: the 32 MiB selection
    product of the run, plus one row's candidates. That holds with an
    infinite norm bound, where every cell is a candidate, and at k 300,
    where the k-th score is taken exactly. Each row's hits are those of a
    one-row scan."""
    vectors = make_bank(rng, index_mod.SCAN_BLOCK, 16).vectors
    queries = np.vstack([unit(rng.standard_normal(16)) for _ in range(64)])
    for bound, k in ((np.inf, 10), (None, 10), (None, 300)):
        tracemalloc.start()
        try:
            table = index_mod._scan(vectors, queries, k, bound=bound)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * 35.8 * 2**20, (bound, k)
        for i in range(64):
            assert_same_row(table, i, index_mod._scan(
                vectors, queries[i:i + 1], k))


@pytest.mark.parametrize("dim", [7, 37])
def test_rescore_gathers_split_a_row_s_candidates(monkeypatch, rng, dim):
    """With 24 candidate rows per gather, a row's candidates span several
    gathers (rows of more than 8 values) and the flat candidate arrays are
    merged down many times; the hits stay bitwise those of the default
    gathers, with the selection margin and with every cell re-scored
    (infinite bound). Rows of at most 8 values are scored with one
    whole-block product per query row and call, so their rows are not
    split: one product per query row, as in a one-row scan. Near-tied rows
    give each query row many candidates; 3,001 bank rows leave a tail."""
    vectors = EmbeddingBank.from_matrix(near_ties(rng, 3001, dim),
                                        "llm-text").vectors
    top = vectors[0] + 0.3 * rng.standard_normal((70, dim)) / np.sqrt(dim)
    queries = (top / np.linalg.norm(top, axis=1, keepdims=True)).astype(
        np.float32)
    want = [index_mod._scan(vectors, queries, 30, bound=bound)
            for bound in (None, np.inf)]
    calls = []
    real = index_mod._rescore

    def logged(block, rows, pos, queries):
        calls.append(rows.copy())
        return real(block, rows, pos, queries)

    monkeypatch.setattr(index_mod, "_RESCORE_ROWS", 24)
    monkeypatch.setattr(index_mod, "_rescore", logged)
    for bound, expected in zip((None, np.inf), want):
        calls.clear()
        got = index_mod._scan(vectors, queries, 30, bound=bound)
        if dim > 8:
            assert max(len(rows) for rows in calls) <= 24
            # a row whose candidates end one gather and start the next
            assert any(a[-1] == b[0] for a, b in zip(calls, calls[1:]))
        else:
            # rows of at most 8 values are scored whole, once per query
            # row and call: each row comes in one call, in calls of at
            # most 24 cells plus one row's
            assert sum(len(np.unique(rows)) for rows in calls) == 70
            assert max(len(rows) for rows in calls) > 24
            assert all(len(rows) - np.count_nonzero(rows == rows[-1]) < 24
                       for rows in calls)
        for i in range(70):
            assert_same_row(got, i, index_mod.HitTable(
                expected.ids[i:i + 1], expected.scores[i:i + 1],
                expected.counts[i:i + 1]))


def test_search_rows_match_the_one_query_views(rng):
    bank = make_bank(rng, 200, 12)
    index = build_ivf(bank, 8, seed=2)
    queries = [query_for(bank, rng) for _ in range(5)]
    matrix = np.vstack([q.vector for q in queries])
    exact = search(bank, matrix, 7)
    probed = search(bank, matrix, 7, index, 3)
    for i, q in enumerate(queries):
        assert exact.hits(i) == exact_topk(q, bank, 7)
        assert probed.hits(i) == ivf_search(index, q, 7, 3)


def test_search_short_rows_leave_zero_cells(rng):
    bank = make_bank(rng, 60, 8)
    index = build_ivf(bank, 20, seed=1)
    matrix = np.vstack([query_for(bank, rng).vector for _ in range(6)])
    table = search(bank, matrix, 10, index, 1)
    assert table.ids.shape == table.scores.shape == (6, 10)
    assert (table.counts < 10).all()
    for i, c in enumerate(table.counts):
        assert len(table.hits(i)) == c
        assert not table.ids[i, c:].any() and not table.scores[i, c:].any()


def test_search_row_errors_name_the_row(rng):
    bank = make_bank(rng, 30, 8)
    rows = np.vstack([query_for(bank, rng).vector for _ in range(3)])
    zero, scaled = rows.copy(), rows.copy()
    zero[2] = 0.0
    scaled[1] *= 2.0
    with pytest.raises(errors.ZeroVector, match="query 2"):
        search(bank, zero, 3)
    with pytest.raises(errors.ValidationError, match="prototype 1: .*not unit"):
        search(bank, scaled, 3, what="prototype")
    with pytest.raises(errors.DimensionMismatch):
        search(bank, rows[:, :7], 3)
    with pytest.raises(errors.SpaceMismatch):
        search(bank, rows, 3, space_tag="vlm-text")
    with pytest.raises(errors.InvalidProbe):
        search(bank, rows, 3, build_ivf(bank, 4, seed=0))
    with pytest.raises(errors.ValidationError, match="not attached"):
        search(bank, rows, 3, build_ivf(make_bank(rng, 30, 8), 4, seed=0), 2)
    assert search(bank, rows[:0], 3).ids.shape == (0, 3)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_search_nonfinite_query_row_is_named_not_blamed_on_the_bank(rng, bad):
    """A non-finite query row is a bad query, not a corrupt bank row."""
    bank = make_bank(rng, 50, 8)
    rows = np.vstack([query_for(bank, rng).vector for _ in range(2)])
    rows[1] = bad
    with pytest.raises(errors.ValidationError, match="query 1: .*not unit") \
            as info:
        search(bank, rows, 3)
    assert not isinstance(info.value, errors.CorruptData)
    with pytest.raises(errors.ValidationError, match="not unit"):
        QueryEmbedding(rows[1], "llm-text")


def _with_empty_list(index, bank, centroid, at):
    """``index`` with one more list, empty, whose centroid is ``centroid``."""
    centroids = np.insert(index.centroids, at, centroid, axis=0)
    lists = list(index.lists)
    lists.insert(at, np.empty(0, np.uint64))
    return IvfIndex(index.n_clusters + 1, index.dim, index.seed, centroids,
                    *_csr(lists)).attach(bank)


def probe_oracle(index, queries, k, nprobe):
    """Independent probe: each row's best lists by (score desc, list asc),
    then a float64 full sort of the union of their ids."""
    rows = []
    vectors = np.asarray(index.bank.vectors, np.float64)
    for q in queries:
        cscores = index.centroids @ q
        lists = np.lexsort((np.arange(index.n_clusters), -cscores))[:nprobe]
        cand = np.concatenate([index.lists[c] for c in lists]).astype(np.int64)
        scores = vectors[cand] @ q.astype(np.float64)
        order = np.lexsort((cand, -scores))[:k]
        rows.append((cand[order], scores[order]))
    return rows


def test_grouped_probe_matches_one_row_calls_and_oracle(monkeypatch, rng):
    """Many rows share lists, each row probes several, lists span several
    chunks, and one list is empty: every batch row is bitwise its one-row
    call, and its ids are the oracle's."""
    monkeypatch.setattr(index_mod, "SCAN_BLOCK", 16)
    bank = make_bank(rng, 400, 16)
    queries = np.vstack([query_for(bank, rng).vector for _ in range(40)])
    index = _with_empty_list(build_ivf(bank, 6, seed=7), bank, queries[0], 2)
    queries[5] = queries[3]  # two rows with one query
    for nprobe in (1, 2, 3, 6):
        batch = search(bank, queries, 10, index, nprobe)
        for i, (ids, scores) in enumerate(probe_oracle(index, queries, 10,
                                                       nprobe)):
            assert_same_row(batch, i, search(bank, queries[i:i + 1], 10,
                                             index, nprobe))
            c = batch.counts[i]
            assert np.array_equal(batch.ids[i, :c], ids)
            assert np.allclose(batch.scores[i, :c], scores, rtol=0, atol=1e-6)
    # row 0 is the empty list's centroid: probing one list finds nothing
    assert search(bank, queries[:1], 10, index, 1).counts[0] == 0


def test_search_gathers_each_probed_list_once_per_chunk(monkeypatch, rng):
    """A search reads each probed list's rows out of the bank once per
    ``SCAN_BLOCK`` chunk, however many rows probe it."""
    monkeypatch.setattr(index_mod, "SCAN_BLOCK", 16)
    bank = make_bank(rng, 300, 16)
    built = build_ivf(bank, 6, seed=5)
    gathers = []

    class GatherSpy(np.ndarray):
        def __getitem__(self, key):
            if isinstance(key, np.ndarray):
                gathers.append(key.tolist())
            return np.asarray(super().__getitem__(key))

    spied = EmbeddingBank(np.asarray(bank.vectors).view(GatherSpy),
                          bank.space_tag)
    index = IvfIndex(built.n_clusters, built.dim, built.seed,
                     built.centroids, built.offsets, built.ids).attach(spied)
    queries = np.vstack([query_for(bank, rng).vector for _ in range(32)])
    table = search(spied, queries, 10, index, 3)
    probed = set()
    for q in queries:
        probed.update(np.lexsort((np.arange(6), -(built.centroids @ q)))[:3])
    expected = [ids[start:start + 16].tolist()
                for ids in (built.lists[c].astype(np.int64) for c in probed)
                for start in range(0, len(ids), 16)]
    assert sorted(gathers) == sorted(expected)
    plain = search(bank, queries, 10, built, 3)
    assert np.array_equal(table.ids, plain.ids)
    assert np.array_equal(table.scores, plain.scores)


def test_list_rows_split_into_runs_by_the_cell_budget(monkeypatch, rng):
    """A list chunk of m rows is scored against at most ``QUERY_BLOCK *
    SCAN_BLOCK // m`` of its probing rows at once, so its score buffer
    stays within the exact scan's cell budget; splitting a list's rows
    into several runs leaves the table bitwise unchanged."""
    monkeypatch.setattr(index_mod, "SCAN_BLOCK", 16)
    bank = make_bank(rng, 300, 16)
    index = build_ivf(bank, 4, seed=5)
    queries = np.vstack([query_for(bank, rng).vector for _ in range(32)])
    whole = search(bank, queries, 10, index, 2)
    runs = []  # (chunk rows, probing rows) of each score buffer
    real = index_mod._check_finite

    def logged(scores, ids, what):
        if what == "bank row":
            runs.append((len(ids), scores.shape[0]))
        return real(scores, ids, what)

    monkeypatch.setattr(index_mod, "QUERY_BLOCK", 2)
    monkeypatch.setattr(index_mod, "_check_finite", logged)
    split = search(bank, queries, 10, index, 2)
    assert all(rows <= 2 * 16 // m for m, rows in runs)
    # more buffers than chunks: some chunk's rows came in several runs
    assert len(runs) > sum(-(-len(lst) // 16) for lst in index.lists)
    assert np.array_equal(split.ids, whole.ids)
    assert np.array_equal(split.scores.view(np.uint64),
                          whole.scores.view(np.uint64))


def _index_of_lists(bank, lists, centroids, tmp_path, loaded):
    """An index over ``bank`` with the given id lists and centroids, as
    built in memory or saved and loaded."""
    index = IvfIndex(len(lists), bank.dim, 0, centroids,
                     *_csr([np.sort(lst).astype(np.uint64) for lst in lists])
                     ).attach(bank)
    if loaded:
        save_index(index, tmp_path / "lists.ivf")
        index = load_index(tmp_path / "lists.ivf", bank)
    return index


def _list_reference(index, queries, k, nprobe):
    """Each row's hits from its probed lists, ranked as in
    :func:`probe_oracle`: one float32 ``chunk @ q`` per ``SCAN_BLOCK``
    chunk of each list, then one ``np.lexsort`` (score desc, id asc)."""
    vectors = np.asarray(index.bank.vectors)
    out = []
    for q in queries:
        probed = np.lexsort((np.arange(index.n_clusters),
                             -(index.centroids @ q)))[:nprobe]
        ids, scores = [], []
        for c in probed:
            lst = index.lists[c].astype(np.int64)
            for start in range(0, len(lst), index_mod.SCAN_BLOCK):
                chunk = lst[start:start + index_mod.SCAN_BLOCK]
                ids.append(chunk)
                scores.append(vectors[chunk] @ q)
        ids, scores = np.concatenate(ids), np.concatenate(scores)
        order = np.lexsort((ids, -scores))[:k]
        out.append((ids[order], scores[order]))
    return out


def _assert_lists_selected(bank, index, queries, k, nprobe):
    """``search`` gives each row bitwise :func:`_list_reference`'s hits,
    and :func:`probe_oracle`'s ids. The lists are short enough at d 16 to
    be one tile each, so the reference's products are the scan's own,
    which OpenBLAS also runs in one thread at this size."""
    table = search(bank, queries, k, index, nprobe)
    reference = _list_reference(index, queries, k, nprobe)
    oracle = probe_oracle(index, queries, k, nprobe)
    for i, ((ids, scores), (oracle_ids, _)) in enumerate(zip(reference,
                                                             oracle)):
        c = table.counts[i]
        assert c == len(ids) == len(oracle_ids), i
        assert np.array_equal(table.ids[i, :c], ids), i
        assert np.array_equal(table.scores[i, :c].view(np.uint64),
                              scores.astype(np.float64).view(np.uint64)), i
        assert np.array_equal(table.ids[i, :c], oracle_ids), i
    return table


@pytest.mark.parametrize("loaded", [False, True], ids=["built", "loaded"])
def test_probed_lists_of_at_most_k_rows_keep_every_row(rng, tmp_path,
                                                       loaded):
    """Lists of 3, 8 and 10 rows at k 10 keep every row they hold, alone
    and beside longer lists, from a built and a loaded index."""
    sizes = [3, 8, 10, 40, 61]
    bank = make_bank(rng, sum(sizes), 16)
    lists = np.split(rng.permutation(bank.count), np.cumsum(sizes)[:-1])
    centroids = make_bank(rng, len(sizes), 16).vectors
    index = _index_of_lists(bank, lists, centroids, tmp_path, loaded)
    # two rows near each short list's centroid probe that list first
    queries = make_bank(rng, 6, 16).vectors
    queries = EmbeddingBank.from_matrix(
        np.repeat(centroids[:3], 2, axis=0) + 0.1 * queries,
        "llm-text").vectors
    for nprobe in (1, 2, 3):
        table = _assert_lists_selected(bank, index, queries, 10, nprobe)
        if nprobe == 1:
            assert table.counts.tolist() == [3, 3, 8, 8, 10, 10]


@pytest.mark.parametrize("loaded", [False, True], ids=["built", "loaded"])
def test_lists_above_256_rows_select_on_the_exact_kth_score(
        monkeypatch, rng, tmp_path, loaded):
    """Lists of 257 to 520 rows at k 256 and 300: at k at least the 256
    column groups a list's selection bound is its exact k-th score, so a
    list of more than k rows keeps exactly k candidates per row (no scores
    tie here), and one of at most k rows keeps them all; the hits are the
    reference's and the oracle's, from a built and a loaded index."""
    sizes = [257, 300, 520, 384]
    bank = make_bank(rng, sum(sizes), 16)
    lists = np.split(rng.permutation(bank.count), np.cumsum(sizes)[:-1])
    index = _index_of_lists(bank, lists, make_bank(rng, 4, 16).vectors,
                            tmp_path, loaded)
    queries = make_bank(rng, 12, 16).vectors
    kept = []  # (list rows, k, candidates per row) of each list buffer
    real = index_mod._candidates

    def logged(scores, k, margin):
        mask = real(scores, k, margin)
        if margin == 0.0:  # a list buffer, not the centroid probe
            kept.append((scores.shape[1], k,
                         np.count_nonzero(mask, axis=1).tolist()))
        return mask

    monkeypatch.setattr(index_mod, "_candidates", logged)
    for k in (256, 300):
        for nprobe in (1, 2, 3):
            _assert_lists_selected(bank, index, queries, k, nprobe)
    assert {(m, k) for m, k, _ in kept} == {(m, k) for m in sizes
                                            for k in (256, 300)}
    for m, k, counts in kept:
        assert set(counts) == {min(m, k)}


@pytest.mark.parametrize("loaded", [False, True], ids=["built", "loaded"])
def test_duplicate_rows_tie_at_the_kth_score_across_two_lists(rng, tmp_path,
                                                              loaded):
    """Three copies of one row, the middle id in list 0 and the others in
    list 1, rank just after the query's four nearest rows. Each list holds
    a multiple of 8 rows, so no copy is scored in a product's tail, and
    the copies tie exactly: at k 5 the lowest copy id wins from list 1, at
    k 6 a copy from each list is kept, at k 7 all three, in id order."""
    dim, n = 16, 1200
    q = unit(rng.standard_normal(dim))
    matrix = rng.standard_normal((n, dim))
    ids = rng.permutation(n)
    top, copies = ids[:4], np.sort(ids[4:7])
    matrix[top] = q + 0.02 * rng.standard_normal((4, dim))
    matrix[copies] = q + 0.08 * rng.standard_normal(dim)
    bank = EmbeddingBank.from_matrix(matrix, "llm-text")
    rest = ids[7:]
    lists = [np.concatenate([top[:2], copies[1:2], rest[:293]]),
             np.concatenate([top[2:], copies[::2], rest[293:593]]),
             rest[593:897], rest[897:]]
    assert [len(lst) for lst in lists] == [296, 304, 304, 296]
    near = EmbeddingBank.from_matrix(q + 0.05 * rng.standard_normal(
        (2, dim)), "llm-text").vectors
    centroids = np.vstack([near, make_bank(rng, 2, dim).vectors])
    index = _index_of_lists(bank, lists, centroids, tmp_path, loaded)
    queries = np.vstack([q, make_bank(rng, 1, dim).vectors, q])
    for k in (5, 6, 7):
        for nprobe in (2, 3):
            table = _assert_lists_selected(bank, index, queries, k, nprobe)
            assert sorted(table.ids[0, :4].tolist()) == sorted(top.tolist())
            assert table.ids[0, 4:k].tolist() == copies[:k - 4].tolist()
            assert len(set(table.scores[0, 3:k].tolist())) == 2


def test_nan_rows_in_later_tiles_name_the_first_in_row_order(monkeypatch,
                                                             rng, tmp_path):
    """NaN rows in the second and third 16-row tiles of a list that two
    rows probe: a loaded index raises ``CorruptIndex`` and a built one
    ``CorruptBank``, each naming the earlier row's bank id, the first
    non-finite score of the first row that probes the list."""
    monkeypatch.setattr(index_mod, "_TILE_BYTES", 16 * 16 * 4)
    bank = make_bank(rng, 300, 16)
    built = build_ivf(bank, 4, seed=1)
    c = int(np.argmax([len(lst) for lst in built.lists]))
    assert len(built.lists[c]) >= 64  # tiles at 0, 16, 32 and 48
    queries = np.vstack([built.centroids[c],
                         bank.vectors[int(built.lists[c][0])]])
    probed = index_mod._scan(built.centroids, queries, 2,
                             what="centroid").ids
    assert (probed == c).any(axis=1).all()
    victims = [int(built.lists[c][20]), int(built.lists[c][40])]

    path = tmp_path / "nan.ivf"
    save_index(built, path)
    raw = bytearray(path.read_bytes())
    first = _layout(path)[2] + sum(len(lst) for lst in built.lists[:c]) * 64
    for j in (20, 40):
        raw[first + j * 64:first + (j + 1) * 64] = \
            np.full(16, np.nan, "<f4").tobytes()
    path.write_bytes(bytes(raw))
    with pytest.raises(errors.CorruptIndex, match=(
            f"^index row {victims[0]} gives a non-finite score \\(nan\\)$")):
        search(bank, queries, 5, load_index(path, bank), 2)

    bank_save(bank, tmp_path / "nan.bank")
    raw = bytearray((tmp_path / "nan.bank").read_bytes())
    first = len(raw) - 300 * 64
    for row in victims:
        raw[first + row * 64:first + (row + 1) * 64] = \
            np.full(16, np.nan, "<f4").tobytes()
    (tmp_path / "nan.bank").write_bytes(bytes(raw))
    corrupt = bank_load(tmp_path / "nan.bank")
    index = IvfIndex(built.n_clusters, built.dim, built.seed,
                     built.centroids, built.offsets, built.ids).attach(corrupt)
    with pytest.raises(errors.CorruptBank, match=(
            f"^bank row {victims[0]} gives a non-finite score \\(nan\\)$")):
        search(corrupt, queries, 5, index, 2)


class ReadSpy(np.ndarray):
    """An array that records each item read and each ufunc (such as
    ``@``) it takes part in."""

    reads: list = []

    def __getitem__(self, key):
        ReadSpy.reads.append(key)
        return np.asarray(super().__getitem__(key))

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        ReadSpy.reads.append(ufunc.__name__)
        inputs = [np.asarray(x) if isinstance(x, ReadSpy) else x
                  for x in inputs]
        return getattr(ufunc, method)(*inputs, **kwargs)


def test_loaded_index_reads_no_bank_row(monkeypatch, rng, tmp_path):
    """A loaded index scores its lists from its own file: a search with
    fewer than every list probed reads nothing of the bank's rows, and
    returns the built index's hits."""
    bank = make_bank(rng, 300, 16)
    built = build_ivf(bank, 6, seed=5)
    save_index(built, tmp_path / "s.ivf")
    monkeypatch.setattr(ReadSpy, "reads", [])
    spied = EmbeddingBank(np.asarray(bank.vectors).view(ReadSpy),
                          bank.space_tag)
    index = load_index(tmp_path / "s.ivf", spied)
    queries = np.vstack([query_for(bank, rng).vector for _ in range(32)])
    for nprobe in (1, 3, 5):
        table = search(spied, queries, 10, index, nprobe)
        plain = search(bank, queries, 10, built, nprobe)
        assert np.array_equal(table.ids, plain.ids)
        assert np.array_equal(table.scores, plain.scores)
    assert ReadSpy.reads == []


def test_loaded_index_slices_each_probed_list_once_per_chunk(monkeypatch,
                                                             rng, tmp_path):
    """A loaded index reads each probed list once per ``SCAN_BLOCK``
    chunk, as a slice of its file's rows, however many rows probe it."""
    monkeypatch.setattr(index_mod, "SCAN_BLOCK", 16)
    bank = make_bank(rng, 300, 16)
    built = build_ivf(bank, 6, seed=5)
    save_index(built, tmp_path / "s.ivf")
    loaded = load_index(tmp_path / "s.ivf", bank)
    index = dataclasses.replace(loaded, rows=loaded.rows.view(ReadSpy))
    monkeypatch.setattr(ReadSpy, "reads", [])
    queries = np.vstack([query_for(bank, rng).vector for _ in range(32)])
    table = search(bank, queries, 10, index, 3)
    probed = set()
    for q in queries:
        probed.update(np.lexsort((np.arange(6), -(built.centroids @ q)))[:3])
    offsets = np.cumsum([0] + [len(lst) for lst in built.lists])
    expected = [(start, min(start + 16, offsets[c + 1]))
                for c in probed for start in range(offsets[c],
                                                   offsets[c + 1], 16)]
    assert all(isinstance(key, slice) and key.step is None
               for key in ReadSpy.reads)
    assert sorted((key.start, key.stop) for key in ReadSpy.reads) == \
        sorted(expected)
    plain = search(bank, queries, 10, built, 3)
    assert np.array_equal(table.ids, plain.ids)
    assert np.array_equal(table.scores, plain.scores)


def _release_spy(monkeypatch):
    """Count the page releases of mapped files: the returned list gets one
    entry per release, before it happens."""
    released = []
    real = files_mod._release

    def release(mapping):
        released.append(mapping)
        real(mapping)

    monkeypatch.setattr(files_mod, "_release", release)
    return released


def test_mapping_budget_releases_without_changing_hits(monkeypatch, rng,
                                                       tmp_path):
    """A batch search over a small loaded index releases its pages once,
    at its end, under the default budget; with a budget of 64 rows it
    releases them many times, and its table is bitwise the same."""
    bank = make_bank(rng, 2000, 16)
    built = build_ivf(bank, 8, seed=2)
    save_index(built, tmp_path / "s.ivf")
    index = load_index(tmp_path / "s.ivf", bank)
    queries = np.vstack([query_for(bank, rng).vector for _ in range(40)])
    released = _release_spy(monkeypatch)
    want = search(bank, queries, 10, index, 3)
    assert len(released) == 1
    monkeypatch.setattr(files_mod, "_MAP_BYTES", 64 * 16 * 4)
    got = search(bank, queries, 10, index, 3)
    assert len(released) > 5
    assert np.array_equal(got.counts, want.counts)
    assert np.array_equal(got.ids, want.ids)
    assert np.array_equal(got.scores.view(np.uint64),
                          want.scores.view(np.uint64))


def test_nan_row_scored_after_a_release_names_the_same_index_row(
        monkeypatch, rng, tmp_path):
    """A NaN row in the last list a search scores, read after its pages
    were released, raises the ``CorruptIndex`` of the unbudgeted search."""
    bank = make_bank(rng, 400, 8)
    built = build_ivf(bank, 4, seed=1)
    path = tmp_path / "nan.ivf"
    save_index(built, path)
    victim = int(built.lists[3][5])
    at = _layout(path)[2] + (sum(len(lst) for lst in built.lists[:3]) + 5) * 32
    raw = bytearray(path.read_bytes())
    raw[at:at + 32] = np.full(8, np.nan, "<f4").tobytes()
    path.write_bytes(bytes(raw))
    index = load_index(path, bank)
    message = f"^index row {victim} gives a non-finite score \\(nan\\)$"
    queries = np.array(built.centroids)  # with nprobe 2, every list
    with pytest.raises(errors.CorruptIndex, match=message):
        search(bank, queries, 5, index, 2)
    released = _release_spy(monkeypatch)
    monkeypatch.setattr(files_mod, "_MAP_BYTES", 1)
    with pytest.raises(errors.CorruptIndex, match=message):
        search(bank, queries, 5, index, 2)
    # after each list the NaN row's list follows, and once at the end
    assert len(released) == 4


@pytest.fixture(scope="module")
def ivf_bits(tmp_path_factory):
    """``tests/ivf_bits.py``'s arrays at 1 and 2 BLAS threads, by count."""
    tmp = tmp_path_factory.mktemp("ivf_bits")
    for threads in (1, 2):
        (tmp / f"w{threads}").mkdir()
    return {threads: run_bits("ivf_bits.py", tmp / f"t{threads}.npz",
                               threads, tmp / f"w{threads}")
            for threads in (1, 2)}


def _same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and \
        a.tobytes() == b.tobytes()


def test_loaded_and_built_index_search_bitwise_alike_at_1_and_2_threads(
        ivf_bits):
    """Lists of every size mod 16, an empty one and one of three
    ``SCAN_BLOCK`` chunks, at d 48 and d 7, and lists of 2 to 6 tiles at
    d 256: the loaded index's slices give the built index's gathered ids
    and score bits, at 1 and 2 BLAS threads."""
    for threads in (1, 2):
        got = ivf_bits[threads]
        n = sum(name.startswith("built_ids") for name in got.files)
        assert n == 18
        for i in range(n):
            assert np.array_equal(got[f"loaded_ids{i}"], got[f"built_ids{i}"])
            assert np.array_equal(got[f"loaded_scores{i}"].view(np.uint64),
                                  got[f"built_scores{i}"].view(np.uint64))


def test_tiled_list_scores_are_the_whole_chunk_product_at_1_thread(ivf_bits):
    """With 64-row tiles at d 48 and 1,024-row tiles at d 256, lists are
    scored tile by tile, yet at one BLAS thread each returned score is
    bitwise the hit's entry of one ``block @ query`` over its whole
    ``SCAN_BLOCK`` chunk."""
    got = ivf_bits[1]
    for i in range(18):
        assert got[f"built_scores{i}"].any()
        assert _same_bits(got[f"built_scores{i}"],
                          got[f"chunk_scores{i}"].astype(np.float64))


def test_ivf_rows_get_the_same_hits_in_a_batch_as_alone(ivf_bits):
    """Every list is tiled alike however many rows probe it, so each of
    the 40 rows gets the same ids and score bits in the batch as alone, at
    1 and 2 BLAS threads, from a built and a loaded index."""
    for threads in (1, 2):
        got = ivf_bits[threads]
        for i in range(18):
            for name in ("built", "loaded"):
                assert _same_bits(got[f"{name}_ids{i}"],
                                  got[f"{name}_alone_ids{i}"])
                assert _same_bits(got[f"{name}_scores{i}"],
                                  got[f"{name}_alone_scores{i}"])


@pytest.mark.parametrize("core", [None, "SkylakeX", "Haswell",
                                  "Sandybridge", "Nehalem"])
@pytest.mark.parametrize("blas_threads", [1, 2])
def test_assignment_has_the_bits_of_one_product_per_block(tmp_path,
                                                          blas_threads, core):
    """``_assign`` scores each ``SCAN_BLOCK`` block in products of a
    multiple of 12 rows, the last taking the rest, each at most half the
    page budget, and each row's scores and label are those of one
    ``block @ centroids.T`` per ``SCAN_BLOCK`` rows: at one BLAS thread
    under each forced OpenBLAS core, and at two under SkylakeX and
    Sandybridge. Under Haswell and Nehalem at two threads a row's bits
    depend on where OpenBLAS splits each product between its threads, so
    there a label may differ only where the block product's two best
    scores are within ``4 * dim * 2**-24``, the most that two float32 sums
    of the same unit rows can differ by twice. See ``assign_bits.py`` for
    the cases. A forced core must be the one that ran."""
    got = run_bits("assign_bits.py", tmp_path / "bits.npz", blas_threads,
                    core=core)
    split = blas_threads == 2 and str(got["core"]) in ("Haswell", "Nehalem")
    n = sum(name.startswith("labels") for name in got.files)
    assert n == 9
    for i in range(n):
        rows, dim, _ = got[f"shape{i}"].tolist()
        pieces = got[f"pieces{i}"]
        assert pieces.max() <= max(int(got[f"window{i}"]), 23), i
        ends = np.cumsum(pieces).tolist()
        for start in range(0, rows, index_mod.SCAN_BLOCK):
            end = min(start + index_mod.SCAN_BLOCK, rows)
            block = pieces[ends.index(start) + 1 if start else 0:
                           ends.index(end) + 1]
            step = int(block[0])
            assert (block[:-1] == step).all() and step % 12 == 0 or \
                len(block) == 1, i
            assert block[-1] < 2 * step, i
        ref, labels = got[f"ref_labels{i}"], got[f"labels{i}"]
        if not split:
            assert np.array_equal(labels, ref), i
            assert _same_bits(got[f"scores{i}"], got[f"ref_scores{i}"]), i
            continue
        scores = got[f"ref_scores{i}"]
        best = scores[np.arange(rows), ref]
        moved = np.flatnonzero(labels != ref)
        assert (best[moved] - scores[moved, labels[moved]]
                <= 4 * dim * 2.0 ** -24).all(), i


def _bank_with_nan_row(tmp_path, rng, row):
    """A saved 50x8 bank whose row ``row`` is NaN, loaded back, and the
    original bank."""
    bank = make_bank(rng, 50, 8)
    path = tmp_path / "nan.bank"
    bank_save(bank, path)
    raw = bytearray(path.read_bytes())
    start = len(raw) - (50 - row) * 8 * 4
    raw[start:start + 32] = np.full(8, np.nan, "<f4").tobytes()
    path.write_bytes(bytes(raw))
    return bank_load(path), bank


def test_nonfinite_bank_row_is_corrupt_not_empty(tmp_path, rng):
    corrupt, bank = _bank_with_nan_row(tmp_path, rng, 7)
    q = QueryEmbedding(bank.vectors[7], bank.space_tag)
    with pytest.raises(errors.CorruptBank, match="bank row 7 "):
        exact_topk(q, corrupt, 5)
    index = build_ivf(bank, 4, seed=0).attach(corrupt)
    with pytest.raises(errors.CorruptBank, match="bank row 7 "):
        ivf_search(index, q, 5, 1)


def test_nan_row_in_a_query_batch_raises_the_one_row_message(tmp_path, rng):
    corrupt, bank = _bank_with_nan_row(tmp_path, rng, 7)
    queries = np.vstack([query_for(bank, rng).vector for _ in range(64)])
    with pytest.raises(errors.CorruptBank) as one:
        search(corrupt, queries[:1], 5)
    with pytest.raises(errors.CorruptBank) as batch:
        search(corrupt, queries, 5)
    assert str(batch.value) == str(one.value) == \
        "bank row 7 gives a non-finite score (nan)"


def test_margin_follows_the_rows_of_a_scaled_mapped_bank(tmp_path, rng):
    """The selection margin scales with the rows' norm bound, read from
    the rows, not assumed to be 1. Over near-tied rows scaled by 1e3 in
    the file, a margin sized for unit rows drops some of a row's top k;
    with the bound, a batch still returns each row's one-row hits."""
    bank = EmbeddingBank.from_matrix(near_ties(rng, 3000, 64), "llm-text")
    scaled = scaled_copy(bank, 1e3, tmp_path / "scaled.bank")
    assert 1e3 <= scaled.norm_bound <= 1e3 * (1 + 1e-4)
    assert 1.0 <= bank.norm_bound <= 1.0 + 1e-4
    top = bank.vectors[0] + 0.3 * rng.standard_normal((64, 64)) / 8
    queries = (top / np.linalg.norm(top, axis=1, keepdims=True)).astype(
        np.float32)
    batch = search(scaled, queries, 10)
    for i in range(64):
        assert_same_row(batch, i, search(scaled, queries[i:i + 1], 10))


def test_norm_bound_is_computed_once_per_bank(monkeypatch, rng):
    calls = []
    real = bank_mod.norm_bound
    monkeypatch.setattr(bank_mod, "norm_bound",
                        lambda rows: calls.append(1) or real(rows))
    bank = make_bank(rng, 100, 8)
    queries = np.vstack([query_for(bank, rng).vector for _ in range(3)])
    search(bank, queries, 5)
    search(bank, queries[:1], 5)
    assert len(calls) == 1


def _overflowing_banks(rng):
    """A 20,000 x 48 bank of unit rows and the same rows times 2**66, whose
    float32 squares overflow (2**132 > float32's largest, about 2**128),
    and 7 unit queries near its rows."""
    unit_bank = make_bank(rng, 20000, 48)
    scaled = EmbeddingBank(unit_bank.vectors * np.float32(2.0 ** 66),
                           "llm-text")
    rows = np.asarray(unit_bank.vectors[:7], np.float64)
    queries = rows + 0.2 * rng.standard_normal(rows.shape) / np.sqrt(48)
    queries /= np.linalg.norm(queries, axis=1, keepdims=True)
    return unit_bank, scaled, queries.astype(np.float32)


def test_bank_whose_float32_squares_overflow_keeps_a_finite_bound(
        monkeypatch, rng):
    """Rows times 2**66 get the unit rows' ids and their scores times
    2**66, bit for bit, through the masked scan: the norm bound is taken
    again in float64 where float32 squares overflow, so fewer than all n x
    m cells are re-scored."""
    unit_bank, scaled, queries = _overflowing_banks(rng)
    assert 2.0 ** 66 <= scaled.norm_bound <= 2.0 ** 66 * (1 + 1e-4)
    expected = search(unit_bank, queries, 10)
    rescored = []
    real = index_mod._rescore

    def counting(block, rows, pos, q):
        rescored.append(len(pos))
        return real(block, rows, pos, q)

    monkeypatch.setattr(index_mod, "_rescore", counting)
    got = search(scaled, queries, 10)
    np.testing.assert_array_equal(got.ids, expected.ids)
    np.testing.assert_array_equal(got.counts, expected.counts)
    assert (got.scores == expected.scores * 2.0 ** 66).all()
    assert sum(rescored) < len(queries) * scaled.count


def test_nan_row_in_a_bank_whose_squares_overflow_is_named(rng):
    """A NaN row among rows whose float32 squares overflow still makes the
    bound NaN, and the scan raises the one-row message."""
    _, scaled, queries = _overflowing_banks(rng)
    rows = np.array(scaled.vectors)
    rows[12345] = np.nan
    corrupt = EmbeddingBank(rows, "llm-text")
    assert np.isnan(corrupt.norm_bound)
    with pytest.raises(errors.CorruptBank, match=r"^bank row 12345 gives a "
                       r"non-finite score \(nan\)$"):
        search(corrupt, queries, 10)


@pytest.mark.parametrize("window_bytes", [12, None],
                         ids=["one-row windows", "one window"])
@pytest.mark.parametrize("value,bound", [
    (0.5, np.sqrt(0.75)),
    (2.0 ** 100, 2.0 ** 100 * np.sqrt(3)),  # float32 squares overflow
    (float(np.finfo(np.float32).max), np.inf),  # so does the norm
    (np.inf, np.inf), (np.nan, np.nan)])
def test_norm_bound_of_rows_whose_squares_overflow(monkeypatch, window_bytes,
                                                   value, bound):
    """Row 3 of five rows of 0.5 set to ``value``: a window whose float32
    squares overflow is summed again in float64, a norm above float32's
    largest finite value gives inf, and a NaN row gives NaN, whether the
    row is folded in with the others or in a window of its own."""
    if window_bytes is not None:
        monkeypatch.setattr(files_mod, "_MAP_BYTES", window_bytes)
    rows = np.full((5, 3), 0.5, np.float32)
    rows[3] = value
    got = bank_mod.norm_bound(rows)
    if np.isnan(bound):
        assert np.isnan(got)
    else:
        assert bound <= got <= bound * (1 + 2.0 ** -20)


def test_build_ivf_names_a_nonfinite_bank_row(tmp_path, rng, monkeypatch):
    """Whether the NaN row falls in the training sample or only in the full
    assignment pass, the build raises instead of writing a NaN centroid, and
    names that row."""
    corrupt, _ = _bank_with_nan_row(tmp_path, rng, 7)
    with pytest.raises(errors.CorruptBank, match="^bank row 7 is not finite$"):
        build_ivf(corrupt, 4, seed=0)  # 50 rows: the whole bank is the sample
    trained = []
    real = index_mod._spherical_kmeans
    monkeypatch.setattr(index_mod, "_spherical_kmeans",
                        lambda *a: trained.append(1) or real(*a))
    monkeypatch.setattr(index_mod, "_TRAIN_ROWS_PER_CLUSTER", 2)  # 8 of 50
    reached_training = set()
    for seed in range(20):
        before = len(trained)
        with pytest.raises(errors.CorruptBank,
                           match="^bank row 7 is not finite$"):
            build_ivf(corrupt, 4, seed=seed)
        reached_training.add(len(trained) > before)
    # some samples hold row 7 and are refused before training; the others
    # train on finite rows and meet row 7 in the assignment pass
    assert reached_training == {False, True}


def test_nonfinite_centroid_is_corrupt_index(tmp_path, rng):
    path, bank = _saved_index(tmp_path, rng)
    raw = bytearray(path.read_bytes())
    offset = index_mod._INDEX_HEADER.size + 1 * 6 * 4
    raw[offset:offset + 4] = np.float32(np.inf).tobytes()
    path.write_bytes(bytes(raw))
    with pytest.raises(errors.CorruptIndex, match="centroid 1") as exc:
        load_index(path, bank)
    assert exc.value.byte_offset == offset
    index = build_ivf(bank, 3, seed=0)
    index.centroids[2, 0] = np.nan
    with pytest.raises(errors.CorruptIndex, match="centroid 2 "):
        ivf_search(index, query_for(bank, rng), 5, 1)
    queries = np.vstack([query_for(bank, rng).vector for _ in range(64)])
    with pytest.raises(errors.CorruptIndex,
                       match="^centroid 2 gives a non-finite score"):
        search(bank, queries, 5, index, 1)


# -- batch_topk --------------------------------------------------------------

def query_rows(queries):
    return [QueryEmbedding(row, queries.space_tag) for row in queries.vectors]


def test_batch_of_one_equals_single_call(rng):
    bank = make_bank(rng, 80, 8)
    queries = make_bank(rng, 1, 8)
    assert batch_topk(queries, bank, 5) == \
        [exact_topk(query_rows(queries)[0], bank, 5)]


def test_batch_matches_single_calls(rng):
    bank = make_bank(rng, 200, 12)
    queries = make_bank(rng, 30, 12)
    batch = batch_topk(queries, bank, 7)
    singles = [exact_topk(q, bank, 7) for q in query_rows(queries)]
    assert batch == singles


def test_batch_empty():
    bank = EmbeddingBank.from_matrix(np.eye(4), "llm-text")
    queries = EmbeddingBank(np.empty((0, 4), np.float32), "llm-text")
    assert batch_topk(queries, bank, 3) == []


def test_batch_thread_count_does_not_change_results(rng):
    bank = make_bank(rng, 150, 10)
    queries = make_bank(rng, 20, 10)
    runs = [batch_topk(queries, bank, 5, threads=t) for t in (0, 1, 2, 7)]
    assert all(r == runs[0] for r in runs[1:])


def test_batch_error_carries_query_index(rng):
    """A bank has one space tag and one width, so a query bank in the wrong
    space or of the wrong dim fails as a whole."""
    bank = make_bank(rng, 20, 8)
    with pytest.raises(errors.SpaceMismatch,
                       match="query space 'vlm-text' != bank space 'llm-text'"):
        batch_topk(make_bank(rng, 2, 8, "vlm-text"), bank, 3, threads=1)
    with pytest.raises(errors.DimensionMismatch, match="bank has 8 dims"):
        batch_topk(make_bank(rng, 2, 9), bank, 3, threads=1)


def test_batch_with_ivf_equals_ivf_singles(rng):
    bank = make_bank(rng, 300, 8)
    index = build_ivf(bank, 8, seed=2)
    queries = make_bank(rng, 10, 8)
    batch = batch_topk(queries, bank, 5, index=index, nprobe=3)
    singles = [ivf_search(index, q, 5, nprobe=3) for q in query_rows(queries)]
    assert batch == singles


# -- Retriever ---------------------------------------------------------------

def test_retriever_exact_and_ivf_paths(rng):
    bank = make_bank(rng, 120, 8)
    q = query_for(bank, rng)
    flat = Retriever(bank)
    assert flat.topk(q.vector, 4) == exact_topk(q, bank, 4)
    index = build_ivf(bank, 6, seed=1)
    routed = Retriever(bank, index, nprobe=6)
    assert routed.topk(q.vector, 4) == exact_topk(q, bank, 4)


def test_retriever_requires_nprobe_with_index(rng):
    bank = make_bank(rng, 40, 8)
    index = build_ivf(bank, 4, seed=0)
    with pytest.raises(errors.InvalidProbe):
        Retriever(bank, index)


def test_retriever_rejects_an_index_of_another_bank(rng, tmp_path):
    bank = make_bank(rng, 40, 8)
    other = make_bank(rng, 40, 8)
    index = build_ivf(other, 4, seed=0)
    save_index(index, tmp_path / "other.ivf")
    detached = load_index(tmp_path / "other.ivf")
    for idx in (index, detached):
        with pytest.raises(errors.ValidationError, match="not attached"):
            Retriever(bank, idx, nprobe=2)
        with pytest.raises(errors.ValidationError, match="not attached"):
            batch_topk(make_bank(rng, 3, 8), bank, 5, index=idx, nprobe=2)


def test_retriever_space_tag_override(rng):
    bank = make_bank(rng, 40, 8, tag="vlm-text")
    r = Retriever(bank)
    with pytest.raises(errors.SpaceMismatch):
        r.topk(np.array(bank.vectors[0]), 3, space_tag="llm-text")


# -- index file format -------------------------------------------------------

def test_index_roundtrip_bitwise(tmp_path, rng):
    bank = make_bank(rng, 90, 8)
    index = build_ivf(bank, 5, seed=11)
    p1, p2 = tmp_path / "a.ivf", tmp_path / "b.ivf"
    save_index(index, p1)
    loaded = load_index(p1, bank)
    assert loaded.n_clusters == index.n_clusters
    assert loaded.seed == index.seed
    assert np.array_equal(loaded.centroids.view(np.uint32),
                          index.centroids.view(np.uint32))
    for a, b in zip(loaded.lists, index.lists):
        assert np.array_equal(a, b)
    save_index(loaded, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_loaded_index_searches_identically(tmp_path, rng):
    bank = make_bank(rng, 200, 12)
    index = build_ivf(bank, 8, seed=4)
    path = tmp_path / "s.ivf"
    save_index(index, path)
    loaded = load_index(path, bank)
    for _ in range(5):
        q = query_for(bank, rng)
        assert ivf_search(loaded, q, 6, 3) == ivf_search(index, q, 6, 3)


def _saved_index(tmp_path, rng):
    bank = make_bank(rng, 50, 6)
    index = build_ivf(bank, 3, seed=0)
    path = tmp_path / "c.ivf"
    save_index(index, path)
    return path, bank


def test_index_corrupt_magic(tmp_path, rng):
    path, bank = _saved_index(tmp_path, rng)
    raw = bytearray(path.read_bytes())
    raw[0:8] = b"BADMAGIC"
    path.write_bytes(bytes(raw))
    with pytest.raises(errors.CorruptIndex, match="magic") as exc:
        load_index(path, bank)
    assert exc.value.byte_offset == 0


def test_index_corrupt_version(tmp_path, rng):
    path, bank = _saved_index(tmp_path, rng)
    raw = bytearray(path.read_bytes())
    raw[8:12] = struct.pack("<I", 9)
    path.write_bytes(bytes(raw))
    with pytest.raises(errors.CorruptIndex, match="version") as exc:
        load_index(path, bank)
    assert exc.value.byte_offset == 8


def test_index_truncation(tmp_path, rng):
    path, bank = _saved_index(tmp_path, rng)
    raw = path.read_bytes()
    path.write_bytes(raw[:-5])
    with pytest.raises(errors.CorruptIndex, match="truncated"):
        load_index(path, bank)


def test_index_trailing_bytes(tmp_path, rng):
    path, bank = _saved_index(tmp_path, rng)
    path.write_bytes(path.read_bytes() + b"xx")
    with pytest.raises(errors.CorruptIndex, match="trailing"):
        load_index(path, bank)


def _v1_bytes(index) -> bytes:
    """``index`` in the version-1 layout: the header, the centroids, then
    each list as a u64 length and its ids; no rows."""
    out = [index_mod._INDEX_HEADER.pack(index_mod.INDEX_MAGIC, 1,
                                        index.n_clusters, index.dim,
                                        index.seed),
           index.centroids.astype("<f4").tobytes()]
    for lst in index.lists:
        out += [struct.pack("<Q", len(lst)), lst.astype("<u8").tobytes()]
    return b"".join(out)


def test_index_v1_file_is_refused_at_its_version(tmp_path, rng):
    path, bank = _saved_index(tmp_path, rng)
    path.write_bytes(_v1_bytes(load_index(path)))
    with pytest.raises(errors.CorruptIndex,
                       match="^unsupported version 1 ") as exc:
        load_index(path, bank)
    assert exc.value.byte_offset == 8


def _layout(path):
    """(offsets start, ids start, rows start) of a saved index file."""
    _, _, n_clusters, dim, _ = index_mod._INDEX_HEADER.unpack_from(
        path.read_bytes())
    offsets = index_mod._INDEX_HEADER.size + n_clusters * dim * 4
    ids = offsets + (n_clusters + 1) * 8
    count = struct.unpack_from("<Q", path.read_bytes(), ids - 8)[0]
    return offsets, ids, ids + count * 8 + (-(ids + count * 8) % 64)


def test_index_file_layout_and_damage_offsets(tmp_path, rng):
    """The rows start on a 64-byte boundary after zero padding and fill
    the file; truncation and trailing bytes name the byte where the rows
    part from the file's size, and damage before the rows names its
    place."""
    path, bank = _saved_index(tmp_path, rng)
    raw = path.read_bytes()
    offsets, ids, rows = _layout(path)
    assert rows % 64 == 0 and len(raw) == rows + 50 * 6 * 4
    assert raw[ids + 50 * 8:rows] == bytes(rows - ids - 50 * 8)
    index = load_index(path, bank)
    for c, lst in enumerate(index.lists):
        stored = np.frombuffer(raw, "<f4", len(lst) * 6, rows + 4 * 6 * int(
            np.sum([len(x) for x in index.lists[:c]]))).reshape(-1, 6)
        assert np.array_equal(stored, bank.vectors[lst])
    cases = [(raw[:-5], "truncated payload: expected 1200 payload bytes, "
                        "found 1195", rows + 1195),
             (raw + b"xx", "trailing bytes after payload: expected 1200 "
                           "payload bytes, found 1202", rows + 1200),
             (raw[:ids + 12], "truncated id lists", ids + 12),
             (raw[:rows - 1], "truncated padding", rows - 1)]
    padded = bytearray(raw)
    padded[rows - 1] = 1
    cases.append((bytes(padded), "non-zero padding", rows - 1))
    backwards = bytearray(raw)
    struct.pack_into("<Q", backwards, offsets + 8, 49)
    struct.pack_into("<Q", backwards, offsets + 16, 3)
    cases.append((bytes(backwards), "list offsets do not ascend from 0",
                  offsets + 16))
    for data, message, offset in cases:
        path.write_bytes(data)
        with pytest.raises(errors.CorruptIndex, match=f"^{message} ") as exc:
            load_index(path, bank)
        assert exc.value.byte_offset == offset, message


def test_nan_index_row_loads_and_fails_the_search_that_scores_it(tmp_path,
                                                                 rng):
    """Loading and ``index inspect`` never read an index file's rows, so a
    NaN row passes them; a search that scores it raises ``CorruptIndex``
    naming its bank id, and ``retrieve --index`` exits 3."""
    bank = make_bank(rng, 200, 8)
    built = build_ivf(bank, 4, seed=1)
    path = tmp_path / "nan.ivf"
    save_index(built, path)
    rows = _layout(path)[2]
    victim = int(built.lists[2][5])
    at = rows + (sum(len(lst) for lst in built.lists[:2]) + 5) * 8 * 4
    raw = bytearray(path.read_bytes())
    raw[at:at + 32] = np.full(8, np.nan, "<f4").tobytes()
    path.write_bytes(bytes(raw))
    index = load_index(path, bank)
    query = built.centroids[2:3]
    message = f"^index row {victim} gives a non-finite score \\(nan\\)$"
    with pytest.raises(errors.CorruptIndex, match=message):
        search(bank, query, 5, index, 1)
    # the full probe is the exact scan of the bank, whose rows are sound
    assert search(bank, query, 5, index, 4).counts[0] == 5
    bank_save(bank, tmp_path / "b.bank")
    bank_save(EmbeddingBank(query, bank.space_tag), tmp_path / "q.bank")
    cli = [sys.executable, "-m", "retroclass"]
    proc = subprocess.run([*cli, "index", "inspect", "--index", str(path)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    proc = subprocess.run([*cli, "retrieve", "--bank", str(tmp_path / "b.bank"),
                           "--queries", str(tmp_path / "q.bank"), "--k", "5",
                           "--index", str(path), "--nprobe", "1", "--out",
                           str(tmp_path / "h.jsonl")],
                          capture_output=True, text=True)
    assert proc.returncode == 3
    assert proc.stderr == \
        f"error: index row {victim} gives a non-finite score (nan)\n"


def test_save_onto_the_loaded_file_keeps_its_bytes(tmp_path, rng):
    """A loaded index reads its rows from its own mapping of its file, so
    saving it onto that path writes the same bytes, and it still searches
    alike."""
    bank = make_bank(rng, 300, 12)
    built = build_ivf(bank, 7, seed=2)
    path = tmp_path / "i.ivf"
    save_index(built, path)
    before = path.read_bytes()
    loaded = load_index(path, bank)
    save_index(loaded, path)
    assert path.read_bytes() == before
    queries = np.vstack([query_for(bank, rng).vector for _ in range(9)])
    table = search(bank, queries, 8, loaded, 2)
    plain = search(bank, queries, 8, built, 2)
    assert np.array_equal(table.ids, plain.ids)
    assert np.array_equal(table.scores, plain.scores)


def test_index_sparse_ids_rejected(tmp_path, rng):
    """An id list that repeats one id and so misses another is corrupt.
    ``save_index`` refuses to write one, so the file is edited here."""
    path, bank = _saved_index(tmp_path, rng)
    ids = _layout(path)[1]
    raw = bytearray(path.read_bytes())
    raw[ids + 8:ids + 16] = raw[ids:ids + 8]
    path.write_bytes(bytes(raw))
    with pytest.raises(errors.CorruptIndex, match="dense"):
        load_index(path)


@pytest.mark.parametrize("loaded", [False, True])
@pytest.mark.parametrize("damage", ["repeat", "drop", "beyond"])
def test_save_index_refuses_lists_load_index_refuses(tmp_path, rng, loaded,
                                                     damage):
    """Lists that are not a permutation of 0..n-1 (an id repeated in place
    of another, an id dropped, or an id past the end) would write a file
    that ``load_index`` refuses: ``save_index`` raises ``ValidationError``
    and keeps the old file."""
    path, bank = _saved_index(tmp_path, rng)
    before = path.read_bytes()
    index = load_index(path, bank) if loaded else build_ivf(bank, 3, seed=0)
    lists = index.lists
    first = lists[0]
    lists[0] = {"repeat": np.concatenate([first[:-1], first[:1]]),
                "drop": first[:-1],
                "beyond": np.append(first[:-1], np.uint64(50))}[damage]
    offsets, ids = _csr(lists)
    # attach() refuses 49 ids for 50 rows, so the dropped id's has no bank
    damaged = IvfIndex(index.n_clusters, index.dim, index.seed,
                       index.centroids, offsets, ids,
                       bank=bank if len(ids) == bank.count else None,
                       rows=index.rows)
    with pytest.raises(errors.ValidationError, match="dense range"):
        save_index(damaged, path)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.ivf"]


def test_save_index_refuses_a_list_that_does_not_ascend(tmp_path, rng):
    """A built index whose ids fall inside a list (two of them swapped)
    breaks the rule that each list ascends: ``save_index`` raises
    ``ValidationError``, keeps the old file and leaves no temporary file."""
    path, bank = _saved_index(tmp_path, rng)
    before = path.read_bytes()
    built = build_ivf(bank, 3, seed=0)
    lists = built.lists
    c = int(np.argmax([len(lst) for lst in lists]))
    lists[c] = lists[c].copy()
    lists[c][[1, 2]] = lists[c][[2, 1]]
    index = IvfIndex(built.n_clusters, built.dim, built.seed,
                     built.centroids, *_csr(lists), bank=bank)
    with pytest.raises(errors.ValidationError, match="does not ascend"):
        save_index(index, path)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.ivf"]


def test_loaded_index_lists_are_read_only(tmp_path, rng):
    """A loaded index's lists are views of its file's ids, which it pairs
    with the file's rows, so writing into one raises."""
    path, bank = _saved_index(tmp_path, rng)
    index = load_index(path, bank)
    with pytest.raises(ValueError, match="read-only"):
        index.lists[0][0] = index.lists[0][1]
    assert np.array_equal(index.lists[0], build_ivf(bank, 3, seed=0).lists[0])


def test_a_loaded_index_s_arrays_cannot_drift_from_its_rows(tmp_path, rng):
    """A loaded index's ``ids`` and ``offsets`` are read-only and cannot be
    rebound, and ``lists`` is made from them afresh: swapping two lists
    of it leaves every search's bytes as they were."""
    bank = make_bank(rng, 300, 8)
    save_index(build_ivf(bank, 4, seed=0), tmp_path / "s.ivf")
    index = load_index(tmp_path / "s.ivf", bank)
    queries = np.vstack([query_for(bank, rng).vector for _ in range(20)])
    want = search(bank, queries, 5, index, 1)
    lists = index.lists
    lists[0], lists[1] = lists[1], lists[0]
    got = search(bank, queries, 5, index, 1)
    assert np.array_equal(got.ids, want.ids)
    assert got.scores.tobytes() == want.scores.tobytes()
    assert np.array_equal(index.lists[0], lists[1])
    for name in ("ids", "offsets"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(index, name)[0] = 1
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(index, name, getattr(index, name).copy())


def test_a_bank_given_to_the_constructor_is_checked(rng):
    """``IvfIndex(..., bank=b)`` checks ``b`` as :meth:`attach` does: a
    60-row bank does not attach to an index over 50 ids, nor a bank of
    another dim."""
    bank = make_bank(rng, 50, 6)
    built = build_ivf(bank, 3, seed=0)
    arrays = (built.n_clusters, built.dim, built.seed, built.centroids,
              built.offsets, built.ids)
    with pytest.raises(errors.BankMisalignment, match="covers 50 ids"):
        IvfIndex(*arrays, bank=make_bank(rng, 60, 6))
    with pytest.raises(errors.DimensionMismatch):
        IvfIndex(*arrays, bank=make_bank(rng, 50, 7))
    assert IvfIndex(*arrays, bank=bank).bank is bank


def _mapped_rss_kb(path) -> int | None:
    """The resident kB of this process's mappings of ``path``, summed
    over ``/proc/self/smaps``; ``None`` when the file is not mapped."""
    rss, mapped = None, False
    with open("/proc/self/smaps") as fh:
        for line in fh:
            fields = line.split(None, 5)
            if not fields[0].endswith(":"):  # a mapping's header line
                mapped = fields[-1].rstrip("\n") == str(path)
            elif mapped and fields[0] == "Rss:":
                rss = (rss or 0) + int(fields[1])
    return rss


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads /proc/self/smaps")
def test_a_loaded_index_keeps_none_of_its_rows_resident_between_searches(
        tmp_path, rng):
    """A loaded index maps its file's rows once, and each search drops the
    pages it read at its end: after searches that probe every list, the
    mapping is there and none of it is resident."""
    bank = make_bank(rng, 3000, 32)
    built = build_ivf(bank, 4, seed=0)
    path = tmp_path / "s.ivf"
    save_index(built, path)
    index = load_index(path, bank)
    for _ in range(3):
        table = search(bank, np.array(built.centroids), 5, index, 3)
        assert (table.counts == 5).all()
    assert _mapped_rss_kb(path.resolve()) == 0


def test_save_index_holds_no_array_per_row(tmp_path, rng):
    """Saving a built and a loaded index of 200,000 x 8 rows allocates at
    most the zero prefill, one ``_TILE_BYTES`` piece and 1 MiB: no copy of
    the ids, no permutation of the rows, and no sort of them."""
    bank = EmbeddingBank.from_matrix(
        rng.standard_normal((200_000, 8), np.float32), "llm-text")
    built = build_ivf(bank, 8, seed=0)
    limit = (min(index_mod._PREFILL_BYTES, 4 * bank.vectors.size)
             + index_mod._TILE_BYTES + 2**20)
    for name in ("built", "loaded"):
        index = built if name == "built" else load_index(
            tmp_path / "built.ivf", bank)
        tracemalloc.start()
        try:
            save_index(index, tmp_path / f"{name}.ivf")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= limit, (name, peak, limit)
    assert (tmp_path / "loaded.ivf").read_bytes() == \
        (tmp_path / "built.ivf").read_bytes()


def test_attach_misaligned_bank(tmp_path, rng):
    path, bank = _saved_index(tmp_path, rng)
    small = make_bank(rng, 10, 6)
    with pytest.raises(errors.BankMisalignment):
        load_index(path, small)
    wrong_dim = make_bank(rng, 50, 7)
    with pytest.raises(errors.DimensionMismatch):
        load_index(path, wrong_dim)
