import json
from pathlib import Path

import numpy as np
import pytest

from retroclass import errors
from retroclass import index as index_mod
from retroclass.classify import Prediction, logits, predict_topk
from retroclass.enrich import (EnrichmentConfig, enrich_prototype, enrich_query,
                               gather_captions)
from retroclass.harness import (CSV_HEADER, EvalReport, SweepGrid, accuracy,
                                emit_report, load_fixture_dir, report_csv_row,
                                run_eval, run_sweep, synth_fixture)
from retroclass.index import build_ivf, ivf_search

GOLDEN_DIR = Path(__file__).parent / "golden"


def fake_pred(qid, ranking):
    n = len(ranking)
    return Prediction(qid, tuple((c, 1.0 - r / n) for r, c in
                                 enumerate(ranking)), False)


# -- accuracy ----------------------------------------------------------------

def test_accuracy_perfect_case():
    preds = [fake_pred(i, [i % 3, (i + 1) % 3, (i + 2) % 3]) for i in range(6)]
    labels = [i % 3 for i in range(6)]
    report = accuracy(preds, labels)
    assert report.acc_at[1] == 1.0
    assert report.acc_at[5] == 1.0


def test_accuracy_null_case():
    preds = [fake_pred(i, [1, 2, 3, 4, 5, 0]) for i in range(4)]
    report = accuracy(preds, [0, 0, 0, 0], ms=(1, 5))
    assert report.acc_at[1] == 0.0
    assert report.acc_at[5] == 0.0  # label always ranked 6th


def test_accuracy_hand_counted():
    preds = [fake_pred(0, [0, 1, 2]),   # label 0 -> top1 hit
             fake_pred(1, [2, 1, 0]),   # label 1 -> rank 2
             fake_pred(2, [0, 1, 2]),   # label 2 -> rank 3
             fake_pred(3, [1, 0, 2])]   # label 0 -> rank 2
    report = accuracy(preds, [0, 1, 2, 0], ms=(1, 2, 5))
    assert report.acc_at[1] == pytest.approx(0.25)
    assert report.acc_at[2] == pytest.approx(0.75)
    assert report.acc_at[5] == 1.0  # depth clamps to 3 classes
    assert report.n_queries == 4


def test_accuracy_per_class_weighted_average_matches_top1():
    preds = [fake_pred(i, [i % 2, 1 - i % 2]) for i in range(5)]
    labels = [0, 1, 0, 0, 1]
    report = accuracy(preds, labels)
    counts = [labels.count(c) for c in range(2)]
    weighted = sum(report.per_class_acc[c] * counts[c] for c in range(2)) / 5
    assert abs(weighted - report.acc_at[1]) <= 1e-9


def test_accuracy_validation():
    preds = [fake_pred(0, [0, 1])]
    with pytest.raises(errors.LabelMismatch):
        accuracy(preds, [0, 1])
    with pytest.raises(errors.LabelMismatch):
        accuracy(preds, [2])
    with pytest.raises(errors.LabelMismatch):
        accuracy([], [])
    with pytest.raises(errors.InvalidM):
        accuracy(preds, [0], ms=(0,))


# -- EvalReport --------------------------------------------------------------

def test_report_invariant_acc1_le_acc5():
    with pytest.raises(errors.InternalInvariantError):
        EvalReport(dataset="x", config=EnrichmentConfig(),
                   acc_at={1: 0.9, 5: 0.5}, per_class_acc=(0.9,), n_queries=10)


def test_report_json_roundtrip_and_timing_strip():
    report = EvalReport(dataset="synthetic", config=EnrichmentConfig(),
                        acc_at={1: 0.4, 5: 0.8}, per_class_acc=(0.4, 0.4),
                        n_queries=10, wall_time_ms={"total": 12.5})
    full = report.to_json_dict()
    assert full["wall_time_ms"] == {"total": 12.5}
    bare = report.to_json_dict(include_timing=False)
    assert "wall_time_ms" not in bare
    assert EvalReport.strip_timing(full) == bare


# -- run_eval ----------------------------------------------------------------

def eval_fixture(fx, config, **kw):
    return run_eval(fx.build_specs(), fx.queries, list(fx.labels),
                    fx.llm_bank, fx.vlm_bank, config, **kw)


def test_run_eval_zero_config_equals_dedicated_zero_shot(small_fixture):
    r1 = eval_fixture(small_fixture, EnrichmentConfig(alpha=0.0, beta=0.0))
    r2 = eval_fixture(small_fixture, EnrichmentConfig(alpha=0.0, beta=0.0))
    assert r1.to_json_dict(include_timing=False) == \
        r2.to_json_dict(include_timing=False)


def test_run_eval_deterministic_across_threads(small_fixture):
    cfg = EnrichmentConfig()
    reports = [eval_fixture(small_fixture, cfg, threads=t) for t in (0, 1, 4)]
    dicts = [r.to_json_dict(include_timing=False) for r in reports]
    assert dicts[0] == dicts[1] == dicts[2]


def test_run_eval_label_count_mismatch(small_fixture):
    fx = small_fixture
    with pytest.raises(errors.LabelMismatch):
        run_eval(fx.build_specs(), fx.queries, [0, 1], fx.llm_bank,
                 fx.vlm_bank, EnrichmentConfig())


# -- synth_fixture contracts -------------------------------------------------

def test_fixture_same_seed_bitwise():
    a = synth_fixture(seed=5, n_classes=4, dim=16, queries_per_class=3,
                      eta_p=0.5, eta_c=0.1, captions_per_class=6)
    b = synth_fixture(seed=5, n_classes=4, dim=16, queries_per_class=3,
                      eta_p=0.5, eta_c=0.1, captions_per_class=6)
    for bank_a, bank_b in ((a.queries, b.queries), (a.llm_bank, b.llm_bank),
                           (a.prototype_bank, b.prototype_bank)):
        assert np.array_equal(np.asarray(bank_a.vectors).view(np.uint32),
                              np.asarray(bank_b.vectors).view(np.uint32))
    assert a.labels == b.labels


def test_fixture_validation():
    with pytest.raises(errors.InvalidFixture):
        synth_fixture(seed=1, n_classes=0, dim=8, queries_per_class=1,
                      eta_p=0.5, eta_c=0.1, captions_per_class=1)
    with pytest.raises(errors.InvalidFixture):
        synth_fixture(seed=1, n_classes=2, dim=8, queries_per_class=1,
                      eta_p=-0.5, eta_c=0.1, captions_per_class=1)
    with pytest.raises(errors.InvalidFixture):
        synth_fixture(seed=1, n_classes=2, dim=1, queries_per_class=1,
                      eta_p=0.5, eta_c=0.1, captions_per_class=1)


def test_fixture_banks_are_aligned_and_tagged():
    fx = synth_fixture(seed=3, n_classes=3, dim=12, queries_per_class=2,
                       eta_p=0.5, eta_c=0.1, captions_per_class=4)
    assert fx.llm_bank.count == fx.vlm_bank.count == 12
    assert fx.llm_bank.space_tag == "llm-text"
    assert fx.vlm_bank.space_tag == "vlm-text"
    assert fx.queries.space_tag == "vlm-text"
    assert fx.llm_bank.metadata([0]) == fx.vlm_bank.metadata([0])
    assert len(fx.labels) == fx.queries.count


def test_fixture_clean_prototypes_make_enrichment_a_noop():
    # eta_p = 0: the zero-shot prototypes are already the class centers, so
    # a small prototype interpolation moves acc@1 by at most one point
    fx = synth_fixture(seed=7, n_classes=10, dim=32, queries_per_class=30,
                       eta_p=0.0, eta_c=0.0, captions_per_class=10)
    zs = eval_fixture(fx, EnrichmentConfig(alpha=0.0, beta=0.0))
    enr = eval_fixture(fx, EnrichmentConfig(alpha=0.2, beta=0.0))
    assert abs(enr.acc_at[1] - zs.acc_at[1]) <= 0.01


def test_fixture_exact_captions_recover_prototypes_at_alpha_one():
    # eta_c = 0 makes every caption the exact class center; alpha = 1 must
    # then reproduce the accuracy of noise-free prototypes
    noisy = synth_fixture(seed=9, n_classes=10, dim=32, queries_per_class=30,
                          eta_p=0.9, eta_c=0.0, captions_per_class=10)
    clean = synth_fixture(seed=9, n_classes=10, dim=32, queries_per_class=30,
                          eta_p=0.0, eta_c=0.0, captions_per_class=10)
    recovered = eval_fixture(noisy, EnrichmentConfig(alpha=1.0, beta=0.0))
    ideal = eval_fixture(clean, EnrichmentConfig(alpha=0.0, beta=0.0))
    assert recovered.acc_at[1] == pytest.approx(ideal.acc_at[1], abs=1e-9)


def test_fixture_dir_roundtrip(tmp_path, small_fixture):
    out = tmp_path / "fx"
    small_fixture.save(out)
    loaded = load_fixture_dir(out)
    assert loaded.labels == small_fixture.labels
    assert loaded.class_config == small_fixture.class_config
    for a, b in ((loaded.queries, small_fixture.queries),
                 (loaded.llm_bank, small_fixture.llm_bank),
                 (loaded.vlm_bank, small_fixture.vlm_bank),
                 (loaded.prototype_bank, small_fixture.prototype_bank),
                 (loaded.retrieval_query_bank,
                  small_fixture.retrieval_query_bank)):
        assert np.array_equal(np.asarray(a.vectors).view(np.uint32),
                              np.asarray(b.vectors).view(np.uint32))
        assert a.space_tag == b.space_tag
    r1 = eval_fixture(loaded, EnrichmentConfig())
    r2 = eval_fixture(small_fixture, EnrichmentConfig())
    assert r1.to_json_dict(include_timing=False) == \
        r2.to_json_dict(include_timing=False)


# -- golden regression -------------------------------------------------------

@pytest.mark.parametrize("seed", [1, 2, 3])
def test_golden_fixture_reports(seed):
    golden = json.loads((GOLDEN_DIR / f"fixture_seed{seed}.json").read_text())
    params = golden["fixture"]
    fx = synth_fixture(**params)
    zs = eval_fixture(fx, EnrichmentConfig(alpha=0.0, beta=0.0))
    enr = eval_fixture(fx, EnrichmentConfig())
    assert zs.to_json_dict(include_timing=False) == golden["zeroshot"]
    assert enr.to_json_dict(include_timing=False) == golden["enriched"]


def test_golden_ladder_monotone_and_exact():
    golden = json.loads((GOLDEN_DIR / "ladder_seed1.json").read_text())
    fx = synth_fixture(**golden["fixture"])
    accs = []
    for step in golden["steps"]:
        cfg = EnrichmentConfig.from_dict(step["config"])
        report = eval_fixture(fx, cfg)
        got = {str(m): v for m, v in sorted(report.acc_at.items())}
        assert got == step["acc_at"], step["label"]
        accs.append(report.acc_at[1])
    assert accs == sorted(accs)


# -- sweeps ------------------------------------------------------------------

def test_grid_points_order_and_cardinality():
    grid = SweepGrid(alphas=(0.0, 0.2), betas=(0.0, 0.5))
    pts = list(grid.points())
    assert len(pts) == 4
    assert pts[0] == (0.0, 0.0, 1.0, 100.0, (True, True))
    assert pts[1][1] == 0.5  # beta varies before alpha
    big = SweepGrid(alphas=tuple(i / 10 for i in range(11)),
                    betas=tuple(i / 10 for i in range(11)))
    assert len(list(big.points())) == 121


def test_grid_validation():
    with pytest.raises(errors.EmptyGrid):
        SweepGrid(alphas=(), betas=(0.0,))
    with pytest.raises(errors.ValidationError):
        SweepGrid.from_dict({"alphas": [0.1], "betas": [0.1], "bogus": []})
    grid = SweepGrid.from_dict(
        {"alphas": [0.0], "betas": [0.5],
         "toggles": [{"use_temperature_tt": False}]})
    assert grid.toggles == ((False, True),)


def test_run_sweep_anchor_point_equals_zero_shot(small_fixture):
    grid = SweepGrid(alphas=(0.0, 0.2), betas=(0.0, 0.5))
    fx = small_fixture
    reports = run_sweep(grid, fx.build_specs(), fx.queries, list(fx.labels),
                        fx.llm_bank, fx.vlm_bank,
                        base_config=EnrichmentConfig())
    assert len(reports) == 4
    zs = eval_fixture(fx, EnrichmentConfig(alpha=0.0, beta=0.0))
    assert reports[0].acc_at == zs.acc_at
    assert reports[0].config.alpha == 0.0 and reports[0].config.beta == 0.0


@pytest.mark.parametrize("merge_aliases", ["before", "after"])
@pytest.mark.parametrize("renormalize", [True, False])
def test_run_sweep_reports_equal_per_point_run_eval(small_fixture, alias_specs,
                                                    merge_aliases, renormalize):
    fx = small_fixture
    grid = SweepGrid(alphas=(0.0, 0.3), betas=(0.0, 0.6), taus_tt=(1.0, 0.2),
                     taus_it=(100.0, 5.0),
                     toggles=((True, True), (False, False), (True, False)))
    base = EnrichmentConfig(k=4, renormalize_output=renormalize)
    reports = run_sweep(grid, alias_specs, fx.queries, list(fx.labels),
                        fx.llm_bank, fx.vlm_bank, base_config=base,
                        merge_aliases=merge_aliases)
    assert len(reports) == 48
    for report in reports:
        single = run_eval(alias_specs, fx.queries, list(fx.labels),
                          fx.llm_bank, fx.vlm_bank, report.config,
                          merge_aliases=merge_aliases)
        assert report.to_json_dict(include_timing=False) == \
            single.to_json_dict(include_timing=False)


@pytest.mark.parametrize("alphas, betas, retrieves", [
    ((0.0, 0.2, 0.4), (0.0, 0.5), "classes+queries"),
    ((0.0, 0.2), (0.0,), "classes"),
    ((0.0,), (0.0, 0.5), "queries"),
    ((0.0,), (0.0,), "nothing"),
])
def test_run_sweep_retrieves_once_per_query(small_fixture, monkeypatch,
                                            alphas, betas, retrieves):
    fx = small_fixture
    real = index_mod.exact_topk
    calls = []

    def counting(query, bank, k):
        calls.append(bank.space_tag)
        return real(query, bank, k)

    monkeypatch.setattr(index_mod, "exact_topk", counting)
    grid = SweepGrid(alphas=alphas, betas=betas, taus_tt=(1.0, 0.5),
                     toggles=((True, True), (False, False)))
    run_sweep(grid, fx.build_specs(), fx.queries, list(fx.labels),
              fx.llm_bank, fx.vlm_bank)
    n_classes, n_queries = fx.prototype_bank.count, fx.queries.count
    expected = {"classes+queries": n_classes + n_queries,
                "classes": n_classes, "queries": n_queries, "nothing": 0}
    assert len(calls) == expected[retrieves]
    assert calls.count("llm-text") == (n_classes if "classes" in retrieves else 0)


def test_ivf_eval_with_short_hit_lists_matches_row_by_row(small_fixture):
    """nprobe=1 over lists of about 3 rows gives fewer than k hits; the
    array path must weight each row over exactly the hits it has."""
    fx = small_fixture
    cfg = EnrichmentConfig(k=8)
    n_lists = fx.llm_bank.count // 3
    llm_index = build_ivf(fx.llm_bank, n_lists, seed=1)
    vlm_index = build_ivf(fx.vlm_bank, n_lists, seed=2)
    report = run_eval(fx.build_specs(), fx.queries, list(fx.labels),
                      fx.llm_bank, fx.vlm_bank, cfg, llm_index=llm_index,
                      vlm_index=vlm_index, nprobe=1)

    specs = fx.build_specs()
    rows, short = [], 0
    for spec in specs:
        query = index_mod.QueryEmbedding(spec.merged_retrieval_query(), "llm-text")
        hits = ivf_search(llm_index, query, cfg.k, 1)
        short += len(hits) < cfg.k
        rows.append(enrich_prototype(spec.merged_prototype(),
                                     gather_captions(hits, fx.vlm_bank),
                                     cfg).vector)
    prototypes = np.vstack(rows)
    preds = []
    for i in range(fx.queries.count):
        query = index_mod.QueryEmbedding(fx.queries.vectors[i], "vlm-text")
        hits = ivf_search(vlm_index, query, cfg.k, 1)
        short += len(hits) < cfg.k
        vec = enrich_query(query.vector, gather_captions(hits, fx.vlm_bank),
                           cfg).vector
        ranked = predict_topk(logits(vec, prototypes), len(specs))
        preds.append(Prediction(i, tuple(ranked), True))
    assert short > 0
    expect = accuracy(preds, fx.labels, dataset="synthetic", config=cfg)
    assert report.to_json_dict(include_timing=False) == \
        expect.to_json_dict(include_timing=False)


def test_threads_validated_but_never_change_results(small_fixture):
    fx = small_fixture
    grid = SweepGrid(alphas=(0.0, 0.2), betas=(0.0, 0.5))
    args = (fx.build_specs(), fx.queries, list(fx.labels), fx.llm_bank,
            fx.vlm_bank)
    runs = [run_sweep(grid, *args, threads=t) for t in (0, 1, 5)]
    dicts = [[r.to_json_dict(include_timing=False) for r in run] for run in runs]
    assert dicts[0] == dicts[1] == dicts[2]
    with pytest.raises(errors.ValidationError, match="threads"):
        run_sweep(grid, *args, threads=-1)
    with pytest.raises(errors.ValidationError, match="threads"):
        run_eval(*args, EnrichmentConfig(), threads=-1)


def test_run_sweep_empty_grid_rejected(small_fixture):
    with pytest.raises(errors.EmptyGrid):
        SweepGrid(alphas=(), betas=())


# -- report emission ---------------------------------------------------------

def sample_report():
    return EvalReport(dataset="synthetic", config=EnrichmentConfig(),
                      acc_at={1: 0.45, 5: 0.81}, per_class_acc=(0.45,),
                      n_queries=100, wall_time_ms={"total": 3.0})


def test_csv_row_format():
    row = report_csv_row(sample_report())
    assert row == "synthetic,10,0.2,0.5,1.0,100.0,true,true,true,100,0.45,0.81"
    assert len(row.split(",")) == len(CSV_HEADER.split(","))


def test_emit_csv(tmp_path):
    path = tmp_path / "r.csv"
    emit_report([sample_report(), sample_report()], "csv", path)
    lines = path.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 3
    assert "wall_time" not in path.read_text()


def test_emit_json_roundtrip(tmp_path):
    path = tmp_path / "r.json"
    report = sample_report()
    emit_report([report], "json", path)
    obj = json.loads(path.read_text())
    assert obj["schema_version"] == 1
    entry = obj["reports"][0]
    assert EvalReport.strip_timing(entry) == \
        report.to_json_dict(include_timing=False)
    assert EnrichmentConfig.from_dict(entry["config"]) == report.config


def test_emit_validation(tmp_path):
    with pytest.raises(errors.ValidationError):
        emit_report([], "json", tmp_path / "x.json")
    with pytest.raises(errors.ValidationError):
        emit_report([sample_report()], "yaml", tmp_path / "x.yaml")
    with pytest.raises(errors.IoError):
        emit_report([sample_report()], "json",
                    tmp_path / "missing-dir" / "x.json")
