"""Acceptance checklist for the whole package.

Each test here covers one numbered criterion from the project's acceptance
contract and prints a `[criterion N] PASS/FAIL` line, so running

    pytest -s tests/test_acceptance.py

reads as a checklist.  The criteria:

  1. exact top-k equals a full-sort oracle on 500 random instances
  2. IVF: full probe is exactly the flat scan; nprobe=16 recall@10 >= 0.90
     on a 100k x 128 mixture
  3. retrieval softmax contract (normalization, shift invariance, order,
     temperature extremes, overflow safety, closed-form point)
  4. alpha=beta=0 reduces bitwise to the plain cosine pipeline
  5. enrichment beats zero-shot by >= 10 acc@1 points on the frozen fixture,
     and engine, scalar reference pipeline, and golden files all agree
  6. ablation ladder is non-decreasing and matches golden values
  7. every CLI command is byte-deterministic across reruns and thread counts
  8. 1M x 512 exact top-10 within 250 ms; IVF >= 5x faster at recall >= 0.9
  9. file formats round-trip bitwise and corruption is detected
"""

import json
import os
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from reference_pipeline import ReferencePipeline
from retroclass import errors
from retroclass.bank import EmbeddingBank, bank_load, bank_save
from retroclass.classify import classify_batch, logits, predict_topk
from retroclass.enrich import (EnrichmentConfig, enrich_all_prototypes,
                               softmax_weights, zeroshot_prototypes)
from retroclass.harness import run_eval
from retroclass.index import (QueryEmbedding, Retriever, build_ivf,
                              exact_topk, ivf_search, load_index,
                              recall_at_k, save_index)

GOLDEN_DIR = Path(__file__).parent / "golden"
CLI = [sys.executable, "-m", "retroclass"]


@contextmanager
def criterion(num, label):
    """Collects notes and prints one PASS/FAIL line for the checklist."""
    notes = []
    try:
        yield notes
    except BaseException:
        print(f"[criterion {num}] FAIL  {label}")
        raise
    detail = f"  ({'; '.join(notes)})" if notes else ""
    print(f"[criterion {num}] PASS  {label}{detail}")


def run_cli(*args, env_log=None, check=True):
    env = dict(os.environ)
    env.pop("RETROCLASS_LOG", None)
    if env_log is not None:
        env["RETROCLASS_LOG"] = env_log
    proc = subprocess.run([*CLI, *map(str, args)], capture_output=True,
                          text=True, env=env)
    if check and proc.returncode != 0:
        raise AssertionError(
            f"cli failed ({proc.returncode}): {proc.stderr}\n{proc.stdout}")
    return proc


def eval_fixture(fx, cfg, threads=0):
    return run_eval(fx.build_specs(), fx.queries, list(fx.labels),
                    fx.llm_bank, fx.vlm_bank, cfg, threads=threads)


def oracle_topk(vectors, query, k):
    """Independent check: one unblocked scoring pass, full sort, ties to the
    lowest id.

    Scores stay in float32 like the engine's: a float64 scorer would rank
    pairs separated by less than float32 resolution differently, so the
    oracle's independence is in the selection logic, not the dtype.
    """
    scores = np.asarray(vectors) @ np.asarray(query, dtype=np.float32)
    order = sorted(range(scores.shape[0]),
                   key=lambda i: (-scores[i], i))[:k]
    return [(i, float(scores[i])) for i in order]


# -- criterion 1: exact retrieval vs oracle ----------------------------------

def test_criterion_1_exact_topk_matches_full_sort_oracle():
    rng = np.random.default_rng(20240817)
    t0 = time.perf_counter()
    with criterion(1, "exact top-k == full-sort oracle, 500 instances") as notes:
        for trial in range(500):
            m = int(rng.integers(1, 2001))
            d = int(rng.integers(1, 65))
            k = int(rng.integers(1, min(20, m) + 1))
            mat = rng.standard_normal((m, d))
            if m >= 4 and trial % 3 == 0:
                # duplicated rows force score ties; the id rule must decide
                dst = rng.integers(0, m, size=max(1, m // 8))
                src = rng.integers(0, m, size=dst.shape[0])
                mat[dst] = mat[src]
            bank = EmbeddingBank.from_matrix(mat, "vlm-text")
            qe = QueryEmbedding.from_raw(rng.standard_normal(d), "vlm-text")
            hits = exact_topk(qe, bank, k)
            want = oracle_topk(bank.vectors, qe.vector, k)
            got = [(h.id, h.score) for h in hits]
            assert got == want, f"trial {trial}: {got} != {want}"
            assert all(hits[i].score >= hits[i + 1].score
                       for i in range(len(hits) - 1))
        dt = time.perf_counter() - t0
        assert dt < 60.0, f"took {dt:.1f}s, budget 60s"
        notes.append(f"{dt:.1f}s")


# -- criterion 2: IVF correctness and recall ---------------------------------

def test_criterion_2_ivf_full_probe_exact_and_recall():
    t0 = time.perf_counter()
    with criterion(2, "IVF full probe == exact; 100k recall@10 >= 0.90") as notes:
        rng = np.random.default_rng(71)
        for trial in range(100):
            m = int(rng.integers(40, 401))
            d = int(rng.integers(4, 33))
            n_clusters = int(rng.integers(1, min(16, m) + 1))
            k = int(rng.integers(1, min(20, m) + 1))
            bank = EmbeddingBank.from_matrix(rng.standard_normal((m, d)),
                                             "llm-text")
            index = build_ivf(bank, n_clusters, seed=trial)
            qe = QueryEmbedding.from_raw(rng.standard_normal(d), "llm-text")
            full = ivf_search(index, qe, k, nprobe=n_clusters)
            flat = exact_topk(qe, bank, k)
            assert full == flat, f"trial {trial}: full probe diverged"

        # scaled recall check: clustered data, fixed operating point
        rng = np.random.default_rng(42)
        n_rows, dim, n_centers = 100_000, 128, 256
        centers = rng.standard_normal((n_centers, dim))
        centers /= np.linalg.norm(centers, axis=1, keepdims=True)
        sigma = 0.7 / np.sqrt(dim)
        ids = rng.integers(0, n_centers, n_rows)
        rows = centers[ids] + sigma * rng.standard_normal((n_rows, dim))
        bank = EmbeddingBank.from_matrix(rows, "llm-text")
        del rows
        index = build_ivf(bank, 256, seed=42)
        qids = rng.integers(0, n_centers, 1000)
        qmat = centers[qids] + sigma * rng.standard_normal((1000, dim))
        recalls = []
        for q in qmat:
            qe = QueryEmbedding.from_raw(q, "llm-text")
            approx = ivf_search(index, qe, 10, nprobe=16)
            recalls.append(recall_at_k(approx, exact_topk(qe, bank, 10)))
        mean_recall = float(np.mean(recalls))
        assert mean_recall >= 0.90, f"mean recall@10 {mean_recall:.4f}"
        dt = time.perf_counter() - t0
        assert dt < 300.0, f"took {dt:.1f}s, budget 300s"
        notes.append(f"recall@10 {mean_recall:.4f}; {dt:.1f}s")


# -- criterion 3: softmax contract -------------------------------------------

def test_criterion_3_softmax_contract():
    rng = np.random.default_rng(33)
    taus = np.array([0.01, 0.1, 1.0, 10.0])
    with criterion(3, "softmax weights contract over 10^4 vectors") as notes:
        for _ in range(10_000):
            k = int(rng.integers(2, 21))
            scores = rng.uniform(-1.0, 1.0, k) * rng.choice((1.0, 5.0))
            tau = float(rng.choice(taus))
            w = softmax_weights(scores, tau)
            assert abs(w.sum() - 1.0) <= 1e-6
            shifted = softmax_weights(scores + rng.uniform(-5.0, 5.0), tau)
            assert np.max(np.abs(shifted - w)) <= 1e-6
            order = np.argsort(scores, kind="stable")
            assert np.all(np.diff(w[order]) >= 0.0)  # order preserved

        # near-infinite temperature flattens to uniform
        for _ in range(200):
            k = int(rng.integers(2, 21))
            w = softmax_weights(rng.uniform(-1.0, 1.0, k), 1e6)
            assert np.max(np.abs(w - 1.0 / k)) <= 1e-4 / k

        # near-zero temperature concentrates when the gap is >= 0.01
        for k in range(2, 21):
            for _ in range(50):
                top = rng.uniform(-0.5, 1.0)
                rest = top - 0.01 - rng.uniform(0.0, 0.5, k - 1)
                pos = int(rng.integers(0, k))
                scores = np.insert(rest, pos, top)
                w = softmax_weights(scores, 1e-3)
                assert w[pos] >= 0.999

        # |s/tau| up to 1e4 must not overflow or produce NaN
        for scores, tau in (([1e4, 0.0, -1e4], 1.0), ([10.0, -10.0], 1e-3),
                            ([-1e4, -1e4], 1.0)):
            w = softmax_weights(scores, tau)
            assert np.all(np.isfinite(w)) and abs(w.sum() - 1.0) <= 1e-6

        w = softmax_weights([1.0, 0.0], 1.0)
        assert np.allclose(w, [0.731059, 0.268941], atol=1e-5)
        notes.append("10^4 vectors + temperature extremes + closed form")


# -- criterion 4: reduction identity -----------------------------------------

def test_criterion_4_zero_config_reduces_to_plain_cosine(golden_fixture):
    fx = golden_fixture
    specs = fx.build_specs()
    zs = zeroshot_prototypes(specs)
    queries = [QueryEmbedding(np.array(fx.queries.vectors[i]),
                              fx.queries.space_tag)
               for i in range(fx.queries.count)]
    with criterion(4, "alpha=beta=0 == plain cosine ranking, every query") as notes:
        cfg_off = EnrichmentConfig(alpha=0.0, beta=0.0,
                                   renormalize_output=False)
        e_off = enrich_all_prototypes(specs, fx.llm_bank, fx.vlm_bank,
                                      Retriever(fx.llm_bank), cfg_off)
        preds = classify_batch(fx.queries, e_off, None, cfg_off)
        for i, pred in enumerate(preds):
            plain = predict_topk(logits(fx.queries.vectors[i], zs), zs.n_classes)
            assert pred.topk == tuple(plain), f"query {i} diverged"

        # renormalization must never change any ranking
        cfg_on = EnrichmentConfig(alpha=0.0, beta=0.0,
                                  renormalize_output=True)
        e_on = enrich_all_prototypes(specs, fx.llm_bank, fx.vlm_bank,
                                     Retriever(fx.llm_bank), cfg_on)
        preds_on = classify_batch(fx.queries, e_on, None, cfg_on)
        for off, on in zip(preds, preds_on):
            assert [c for c, _ in off.topk] == [c for c, _ in on.topk]
        notes.append(f"{len(preds)} queries, bitwise")


# -- criterion 5: enrichment margin vs independent reference ------------------

def test_criterion_5_enrichment_margin_and_reference_agreement(golden_fixture):
    fx = golden_fixture
    t0 = time.perf_counter()
    with criterion(5, "margin >= 10 pts; engine == reference == golden") as notes:
        zs_cfg = EnrichmentConfig(alpha=0.0, beta=0.0)
        zs = eval_fixture(fx, zs_cfg)
        enr = eval_fixture(fx, EnrichmentConfig())
        margin = enr.acc_at[1] - zs.acc_at[1]
        assert margin >= 0.10, f"margin {margin:.3f}"

        golden = json.loads((GOLDEN_DIR / "fixture_seed1.json").read_text())
        assert zs.to_json_dict(include_timing=False) == golden["zeroshot"]
        assert enr.to_json_dict(include_timing=False) == golden["enriched"]

        # scalar reference pipeline, written against no engine code
        ref = ReferencePipeline.from_fixture(fx)
        ref_zs = ref.evaluate(zs_cfg)
        ref_enr = ref.evaluate(EnrichmentConfig())
        assert ref_zs["acc1"] == zs.acc_at[1]
        assert ref_zs["acc5"] == zs.acc_at[5]
        assert ref_enr["acc1"] == enr.acc_at[1]
        assert ref_enr["acc5"] == enr.acc_at[5]

        dt = time.perf_counter() - t0
        assert dt < 120.0, f"took {dt:.1f}s, budget 120s"
        notes.append(f"margin +{margin * 100:.1f} pts; {dt:.1f}s")


# -- criterion 6: ablation ladder --------------------------------------------

def test_criterion_6_ablation_ladder_monotone_and_golden(golden_fixture):
    fx = golden_fixture
    with criterion(6, "ablation ladder non-decreasing, matches golden") as notes:
        golden = json.loads((GOLDEN_DIR / "ladder_seed1.json").read_text())
        assert len(golden["steps"]) == 5
        accs = []
        for step in golden["steps"]:
            report = eval_fixture(fx, EnrichmentConfig.from_dict(step["config"]))
            got = {str(m): v for m, v in sorted(report.acc_at.items())}
            assert got == step["acc_at"], step["label"]
            accs.append(report.acc_at[1])
        assert accs == sorted(accs), f"ladder decreased: {accs}"
        notes.append(" -> ".join(f"{a:.3f}" for a in accs))


# -- criterion 7: CLI determinism --------------------------------------------

def test_criterion_7_cli_byte_determinism(tmp_path):
    def strip_timing(path):
        payload = json.loads(Path(path).read_text())
        for rep in payload["reports"]:
            rep.pop("wall_time_ms", None)
        return payload

    with criterion(7, "every CLI command byte-stable across runs/threads") as notes:
        fixture_args = ("fixture", "--seed", 7, "--n-classes", 8, "--dim", 32,
                        "--queries-per-class", 5, "--captions-per-class", 12,
                        "--eta-p", 0.5, "--eta-c", 0.1)
        for d in ("fx1", "fx2"):
            run_cli(*fixture_args, "--out-dir", tmp_path / d)
        fx1, fx2 = tmp_path / "fx1", tmp_path / "fx2"
        for f in sorted(fx1.iterdir()):
            assert f.read_bytes() == (fx2 / f.name).read_bytes(), f.name

        rng = np.random.default_rng(5)
        np.save(tmp_path / "v.npy", rng.standard_normal((30, 32)))
        for d in ("b1.bank", "b2.bank"):
            run_cli("bank", "build", "--vectors", tmp_path / "v.npy",
                    "--tag", "llm-text", "--out", tmp_path / d)
        assert (tmp_path / "b1.bank").read_bytes() == \
            (tmp_path / "b2.bank").read_bytes()

        for d in ("i1.json", "i2.json"):
            run_cli("bank", "inspect", "--bank", tmp_path / "b1.bank",
                    "--check-norms", "--out", tmp_path / d)
        assert (tmp_path / "i1.json").read_bytes() == \
            (tmp_path / "i2.json").read_bytes()

        for d in ("x1.ivf", "x2.ivf"):
            run_cli("index", "build", "--bank", fx1 / "llm_db.bank",
                    "--clusters", 6, "--seed", 2, "--out", tmp_path / d)
        assert (tmp_path / "x1.ivf").read_bytes() == \
            (tmp_path / "x2.ivf").read_bytes()

        for d, threads in (("h1.jsonl", 1), ("h2.jsonl", 1), ("h3.jsonl", 5)):
            run_cli("retrieve", "--bank", fx1 / "llm_db.bank",
                    "--queries", fx1 / "retrieval_queries.bank",
                    "--k", 6, "--threads", threads, "--out", tmp_path / d)
        assert (tmp_path / "h1.jsonl").read_bytes() == \
            (tmp_path / "h2.jsonl").read_bytes() == \
            (tmp_path / "h3.jsonl").read_bytes()

        for d in ("e1.bank", "e2.bank"):
            run_cli("enrich-prototypes", "--classes", fx1 / "classes.json",
                    "--proto-bank", fx1 / "prototypes.bank",
                    "--retrieval-bank", fx1 / "retrieval_queries.bank",
                    "--llm-bank", fx1 / "llm_db.bank",
                    "--vlm-bank", fx1 / "vlm_db.bank",
                    "--out", tmp_path / d)
        assert (tmp_path / "e1.bank").read_bytes() == \
            (tmp_path / "e2.bank").read_bytes()

        for d, threads in (("p1.jsonl", 1), ("p2.jsonl", 1), ("p3.jsonl", 2)):
            run_cli("classify", "--queries", fx1 / "queries.bank",
                    "--prototypes", tmp_path / "e1.bank",
                    "--vlm-bank", fx1 / "vlm_db.bank",
                    "--threads", threads, "--out", tmp_path / d)
        assert (tmp_path / "p1.jsonl").read_bytes() == \
            (tmp_path / "p2.jsonl").read_bytes() == \
            (tmp_path / "p3.jsonl").read_bytes()

        for d, threads in (("r1.json", 1), ("r2.json", 1), ("r3.json", 4)):
            run_cli("eval", "--fixture-dir", fx1, "--threads", threads,
                    "--out", tmp_path / d)
        assert strip_timing(tmp_path / "r1.json") == \
            strip_timing(tmp_path / "r2.json") == \
            strip_timing(tmp_path / "r3.json")
        for d in ("r1.csv", "r2.csv"):
            run_cli("eval", "--fixture-dir", fx1, "--format", "csv",
                    "--out", tmp_path / d)
        assert (tmp_path / "r1.csv").read_bytes() == \
            (tmp_path / "r2.csv").read_bytes()

        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"alphas": [0.0, 0.2], "betas": [0.0, 0.5]}))
        for d in ("s1.csv", "s2.csv"):
            run_cli("sweep", "--fixture-dir", fx1, "--grid", grid,
                    "--out", tmp_path / d)
        assert (tmp_path / "s1.csv").read_bytes() == \
            (tmp_path / "s2.csv").read_bytes()
        notes.append("fixture/bank/index/retrieve/enrich/classify/eval/sweep")


# -- criterion 8: scaled performance ------------------------------------------

def test_criterion_8_million_row_latency_and_ivf_speedup(tmp_path):
    dim, n_rows, n_centers = 512, 1_000_000, 512
    rng = np.random.default_rng(88)
    centers = rng.standard_normal((n_centers, dim))
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    centers = centers.astype(np.float32)

    # build the 2 GB bank blockwise on disk; RAM stays bounded
    payload = tmp_path / "big.f32"
    mm = np.memmap(payload, dtype=np.float32, mode="w+", shape=(n_rows, dim))
    sigma = np.float32(0.7 / np.sqrt(dim))
    block_rows = 65_536
    for start in range(0, n_rows, block_rows):
        n = min(block_rows, n_rows - start)
        ids = rng.integers(0, n_centers, n)
        block = centers[ids] + sigma * rng.standard_normal(
            (n, dim), dtype=np.float32)
        norms = np.sqrt(np.einsum("ij,ij->i", block, block,
                                  dtype=np.float64))
        mm[start:start + n] = block / norms[:, None].astype(np.float32)
    mm.flush()
    del mm
    vectors = np.memmap(payload, dtype=np.float32, mode="r",
                        shape=(n_rows, dim))
    bank = EmbeddingBank(vectors, "vlm-text")

    with criterion(8, "1M x 512: exact <= 250 ms, IVF >= 5x at recall >= 0.9") as notes:
        index = build_ivf(bank, 512, seed=99, max_iters=8)

        qsigma = np.float32(0.5 / np.sqrt(dim))
        qmat = centers[rng.integers(0, n_centers, 20)] + \
            qsigma * rng.standard_normal((20, dim), dtype=np.float32)
        queries = [QueryEmbedding.from_raw(q, "vlm-text") for q in qmat]

        exact_topk(queries[0], bank, 10)  # warm the page cache
        timed = queries[:5]
        t0 = time.perf_counter()
        exact_hits = [exact_topk(q, bank, 10) for q in timed]
        mean_exact = (time.perf_counter() - t0) / len(timed)
        assert mean_exact <= 0.250, f"exact mean {mean_exact * 1e3:.0f} ms"

        truth = exact_hits + [exact_topk(q, bank, 10) for q in queries[5:]]
        chosen, chosen_recall = None, 0.0
        for nprobe in (4, 8, 16, 32, 64):
            recall = float(np.mean([
                recall_at_k(ivf_search(index, q, 10, nprobe), truth[i])
                for i, q in enumerate(queries)]))
            if recall >= 0.90:
                chosen, chosen_recall = nprobe, recall
                break
        assert chosen is not None, "no nprobe <= 64 reached recall 0.90"

        ivf_search(index, timed[0], 10, chosen)  # warmup
        t0 = time.perf_counter()
        for q in timed:
            ivf_search(index, q, 10, chosen)
        mean_ivf = (time.perf_counter() - t0) / len(timed)
        speedup = mean_exact / mean_ivf
        assert speedup >= 5.0, f"speedup {speedup:.1f}x at nprobe={chosen}"
        notes.append(f"exact {mean_exact * 1e3:.0f} ms, "
                     f"ivf {mean_ivf * 1e3:.1f} ms at nprobe={chosen}, "
                     f"recall {chosen_recall:.3f}, {speedup:.1f}x")


# -- criterion 9: format round-trips and corruption ---------------------------

def test_criterion_9_format_roundtrips_and_corruption(tmp_path):
    rng = np.random.default_rng(12)
    with criterion(9, "save/load/save bitwise; corruption detected") as notes:
        bank = EmbeddingBank.from_matrix(rng.standard_normal((200, 16)),
                                         "llm-text")
        p1, p2 = tmp_path / "a.bank", tmp_path / "b.bank"
        bank_save(bank, p1)
        bank_save(bank_load(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert (tmp_path / "a.bank.meta.jsonl").read_bytes() == \
            (tmp_path / "b.bank.meta.jsonl").read_bytes()

        index = build_ivf(bank, 8, seed=3)
        i1, i2 = tmp_path / "a.ivf", tmp_path / "b.ivf"
        save_index(index, i1)
        save_index(load_index(i1), i2)
        assert i1.read_bytes() == i2.read_bytes()

        blob = p1.read_bytes()
        bad_magic = tmp_path / "magic.bank"
        bad_magic.write_bytes(b"X" + blob[1:])
        with pytest.raises(errors.CorruptBank):
            bank_load(bad_magic)
        truncated = tmp_path / "short.bank"
        truncated.write_bytes(blob[:-8])
        with pytest.raises(errors.CorruptBank):
            bank_load(truncated)

        iblob = i1.read_bytes()
        bad_imagic = tmp_path / "magic.ivf"
        bad_imagic.write_bytes(b"X" + iblob[1:])
        with pytest.raises(errors.CorruptIndex):
            load_index(bad_imagic)
        itruncated = tmp_path / "short.ivf"
        itruncated.write_bytes(iblob[:-8])
        with pytest.raises(errors.CorruptIndex):
            load_index(itruncated)

        # the CLI maps corruption to exit code 3
        proc = run_cli("bank", "inspect", "--bank", bad_magic, check=False)
        assert proc.returncode == 3
        proc = run_cli("retrieve", "--bank", p1, "--queries", p1, "--k", 1,
                       "--index", itruncated, "--nprobe", 1,
                       "--out", tmp_path / "h.jsonl", check=False)
        assert proc.returncode == 3
        notes.append("bank + index, library and CLI")
