"""Tests for the benchmark's own helpers.

    python3 -m pytest -q perfbench/tests
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import common  # noqa: E402
import tracing  # noqa: E402
from tracing import Span  # noqa: E402


# -- percentile rule -------------------------------------------------------


def test_p95_needs_ten_samples_beyond_it():
    assert common.percentile(list(range(200)), 95) == 189
    with pytest.raises(ValueError):
        common.percentile(list(range(199)), 95)


def test_percentile_rule_at_the_median_and_tail():
    assert common.percentile(list(range(20)), 50) == 9
    with pytest.raises(ValueError):
        common.percentile(list(range(19)), 50)
    with pytest.raises(ValueError):
        common.percentile(list(range(1000)), 99.5)
    assert common.percentile(list(range(1000)), 99) == 989


# -- self time -------------------------------------------------------------


def test_self_time_nested_and_overlapping_children():
    spans = [
        Span(0, "a", 0.0, 10.0, None, 0),
        Span(1, "b", 1.0, 4.0, 0, 0),
        Span(2, "c", 3.0, 6.0, 0, 0),    # overlaps b
        Span(3, "d", 2.0, 3.0, 1, 0),    # grandchild: counts only against b
        Span(4, "e", 9.0, 12.0, 0, 0),   # runs past its parent: clipped
    ]
    selfs = tracing.self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 5.0 - 1.0)
    assert selfs[1] == pytest.approx(2.0)
    assert selfs[2] == pytest.approx(3.0)
    assert selfs[3] == pytest.approx(1.0)
    assert selfs[4] == pytest.approx(3.0)


def test_self_times_sum_to_top_level_coverage():
    spans = [Span(0, "a", 1.0, 5.0, None, 0), Span(1, "b", 2.0, 3.0, 0, 0),
             Span(2, "c", 6.0, 8.0, None, 1), Span(3, "d", 6.5, 7.0, 2, 1)]
    total = sum(tracing.self_times(spans).values())
    assert total == pytest.approx(6.0)
    assert tracing.top_level_coverage(spans, 0.0, 10.0) == pytest.approx(0.6)


def test_union_length_merges_overlaps_and_ignores_empty():
    assert tracing.union_length([(0, 2), (1, 3), (5, 6), (4, 4)]) == 4


# -- digests ---------------------------------------------------------------


def test_digest_rejects_a_one_byte_change():
    data = b"dataset,k,alpha\nsynthetic,10,0.2\n"
    expected = hashlib.sha256(data).hexdigest()
    assert common.digest_matches(data, expected)
    for i in range(len(data)):
        changed = bytearray(data)
        changed[i] ^= 1
        assert not common.digest_matches(bytes(changed), expected)


def test_report_digest_ignores_only_wall_time():
    report = {"schema_version": 1, "reports": [
        {"acc_at": {"1": 0.5}, "wall_time_ms": {"total": 1.0}}]}
    base = common.report_bytes_without_timing(json.dumps(report).encode())
    report["reports"][0]["wall_time_ms"]["total"] = 2.0
    assert common.report_bytes_without_timing(json.dumps(report).encode()) == base
    report["reports"][0]["acc_at"]["1"] = 0.51
    assert common.report_bytes_without_timing(json.dumps(report).encode()) != base


# -- identity wrapper ------------------------------------------------------


def _bindings():
    """Every attribute of every retroclass module and of the patched classes."""
    from retroclass.bank import EmbeddingBank
    from retroclass.index import Retriever
    out = {}
    for mod in tracing._package_modules():
        for key, value in vars(mod).items():
            out[(mod.__name__, key)] = value
    for cls in (EmbeddingBank, Retriever):
        for key, value in vars(cls).items():
            out[(cls.__qualname__, key)] = value
    return out


def test_identity_wrapper_restores_every_binding():
    import retroclass
    from retroclass import classify, harness, index
    from retroclass.bank import EmbeddingBank

    span_map = json.loads((BENCH / "layers.json").read_text())["spans"]
    span_map["gone.function"] = "retroclass.index:no_such_function"
    before = _bindings()
    original = index.exact_topk
    tracer = tracing.Tracer()
    tracer.install(span_map)
    try:
        assert index.exact_topk is not original
        assert retroclass.exact_topk is index.exact_topk
        assert harness.classify_batch is classify.classify_batch
        assert harness.classify_batch is not before[("retroclass.classify",
                                                     "classify_batch")]
        assert "gone.function" in tracer.absent
        assert set(tracer.absent) == {"gone.function"}

        bank = EmbeddingBank.from_matrix(
            np.random.default_rng(0).standard_normal((50, 8)), "t")
        hits = index.Retriever(bank).topk(bank.vectors[3], 5)
        assert hits[0].id == 3
    finally:
        tracer.restore()
    assert _bindings() == before

    names = {s.name: s for s in tracer.spans}
    assert names["index.exact_topk"].parent == names["index.retriever_topk"].id
    assert names["bank.from_matrix"].parent is None


def test_unresolvable_target_is_reported_absent_not_zero():
    tracer = tracing.Tracer()
    tracer.install({"index.batch_topk": "retroclass.index:renamed_away",
                    "index.retriever_topk": "retroclass.index:Retriever.gone"})
    tracer.restore()
    assert set(tracer.absent) == {"index.batch_topk", "index.retriever_topk"}
    assert tracer.spans == []


def test_absent_span_is_reported_as_null_with_reason():
    import run
    tracer = tracing.Tracer(run.CAPTURES)
    tracer.install({"index.batch_topk": "retroclass.index:renamed_away"})
    tracer.restore()
    spec = {"per_layer": [
        {"name": "index.batch_topk.ms", "unit": "ms"},
        {"name": "index.exact_topk.calls", "unit": "count"}]}
    tp = run.TracedPass(tracer, 0.0, 1.0, [1.0], 1.0)
    out = run.layer_metrics(tp, spec, {"index.batch_topk", "index.exact_topk"})
    assert out["index.batch_topk.ms"]["value"] is None
    assert "renamed_away" in out["index.batch_topk.ms"]["absent"]
    assert out["index.exact_topk.calls"] == {"value": 0, "unit": "count"}
