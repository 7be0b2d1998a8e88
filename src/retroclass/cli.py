"""Command line interface.

Subcommands: bank build|inspect, index build, retrieve, enrich-prototypes,
classify, eval, sweep, fixture. Exit codes: 0 success, 2 invalid input,
3 corrupt data, 4 internal invariant violation. Set RETROCLASS_LOG to
error|warn|info|debug to control logging (default warn).

Every command is deterministic for fixed inputs and seeds. --threads is
accepted and validated (it must be >= 0) but starts no workers; BLAS
threads come from OPENBLAS_NUM_THREADS.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import traceback
from pathlib import Path

import numpy as np

from . import errors
from .bank import (CaptionRecord, EmbeddingBank, bank_load, bank_save,
                   check_norms)
from .classify import classify_batch, write_predictions
from .enrich import EnrichmentConfig, enrich_all_prototypes
from .harness import (SweepGrid, emit_report, load_fixture_dir, run_eval,
                      run_sweep, synth_fixture)
from .index import (IvfIndex, QueryEmbedding, Retriever, batch_topk,
                    build_ivf, load_index, save_index)
from .prompts import build_class_specs, load_class_config

_LOG_LEVELS = {"error": logging.ERROR, "warn": logging.WARNING,
               "info": logging.INFO, "debug": logging.DEBUG}


def _setup_logging() -> None:
    raw = os.environ.get("RETROCLASS_LOG", "warn").lower()
    if raw not in _LOG_LEVELS:
        print(f"error: RETROCLASS_LOG must be one of {sorted(_LOG_LEVELS)}, "
              f"got {raw!r}", file=sys.stderr)
        raise SystemExit(errors.EXIT_VALIDATION)
    logging.basicConfig(level=_LOG_LEVELS[raw],
                        format="%(levelname)s %(name)s: %(message)s")


def _load_meta_lines(path: Path, count: int) -> list[CaptionRecord]:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if len(lines) != count:
        raise errors.ValidationError(
            f"metadata has {len(lines)} lines but vectors have {count} rows")
    records = []
    for i, line in enumerate(lines):
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise errors.ValidationError(
                f"metadata line {i} is not valid JSON: {exc}") from exc
        if "text" not in obj:
            raise errors.ValidationError(f"metadata line {i} has no text field")
        rec_id = int(obj.get("id", i))
        if rec_id != i:
            raise errors.ValidationError(
                f"metadata line {i} carries id {rec_id}")
        records.append(CaptionRecord(rec_id, obj["text"], obj.get("source")))
    return records


def _load_query_bank(path: str) -> EmbeddingBank:
    return bank_load(path)


def _queries_from_bank(bank: EmbeddingBank) -> list[QueryEmbedding]:
    return [QueryEmbedding(bank.vectors[i], bank.space_tag)
            for i in range(bank.count)]


def _maybe_index(path: str | None, bank: EmbeddingBank) -> IvfIndex | None:
    if path is None:
        return None
    return load_index(path, bank)


def _load_labels(path: str) -> list[int]:
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise errors.IoError(f"cannot read labels {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise errors.ValidationError(f"labels file is not valid JSON: {exc}") from exc
    if not isinstance(obj, list):
        raise errors.ValidationError("labels file must hold a JSON list")
    return [int(x) for x in obj]


def _load_config(path: str | None) -> EnrichmentConfig:
    return EnrichmentConfig() if path is None else EnrichmentConfig.load(path)


# ---------------------------------------------------------------------------
# command handlers


def _cmd_bank_build(args) -> int:
    try:
        matrix = np.load(args.vectors)
    except (OSError, ValueError) as exc:
        raise errors.IoError(f"cannot read vectors {args.vectors}: {exc}") from exc
    if matrix.ndim != 2:
        raise errors.ValidationError(
            f"vector file must hold a 2-D array, got shape {matrix.shape}")
    records = None
    if args.meta is not None:
        records = _load_meta_lines(Path(args.meta), matrix.shape[0])
    bank = EmbeddingBank.from_matrix(matrix, args.tag, records=records)
    bank_save(bank, args.out)
    return errors.EXIT_OK


def _cmd_bank_inspect(args) -> int:
    bank = bank_load(args.bank)
    info = {
        "dim": bank.dim,
        "count": bank.count,
        "space_tag": bank.space_tag,
        "dtype": "float32",
        "version": 1,
    }
    if args.check_norms:
        info["norms_ok"] = check_norms(bank)
    text = json.dumps(info, indent=2) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if args.check_norms and not info["norms_ok"]:
        raise errors.InternalInvariantError("bank rows are not unit norm")
    return errors.EXIT_OK


def _cmd_index_build(args) -> int:
    bank = bank_load(args.bank)
    index = build_ivf(bank, args.clusters, args.seed, max_iters=args.max_iters)
    save_index(index, args.out)
    return errors.EXIT_OK


def _cmd_retrieve(args) -> int:
    bank = bank_load(args.bank)
    query_bank = _load_query_bank(args.queries)
    index = _maybe_index(args.index, bank)
    queries = _queries_from_bank(query_bank)
    hit_lists = batch_topk(queries, bank, args.k, index=index,
                           nprobe=args.nprobe, threads=args.threads)
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            for i, hits in enumerate(hit_lists):
                fh.write(json.dumps({
                    "query_id": i,
                    "hits": [[h.id, h.score] for h in hits],
                }) + "\n")
    except OSError as exc:
        raise errors.IoError(f"cannot write hits to {args.out}: {exc}") from exc
    return errors.EXIT_OK


def _cmd_enrich_prototypes(args) -> int:
    classes, zs_template, rt_template = load_class_config(args.classes)
    proto_bank = bank_load(args.proto_bank)
    rquery_bank = bank_load(args.retrieval_bank)
    llm_bank = bank_load(args.llm_bank)
    vlm_bank = bank_load(args.vlm_bank)
    config = _load_config(args.config)
    specs = build_class_specs(classes, zs_template, rt_template,
                              proto_bank, rquery_bank)
    retriever = Retriever(llm_bank, _maybe_index(args.index, llm_bank),
                          args.nprobe)
    proto_set = enrich_all_prototypes(
        specs, llm_bank, vlm_bank, retriever, config,
        merge_aliases="after" if args.merge_after else "before")
    # bank rows are unit norm by format; cosine logits are norm-invariant,
    # so storing renormalized rows preserves every ranking
    records = [CaptionRecord(spec.index, spec.name, "prototype")
               for spec in specs]
    out_bank = EmbeddingBank.from_matrix(proto_set.matrix, vlm_bank.space_tag,
                                         records=records)
    bank_save(out_bank, args.out)
    return errors.EXIT_OK


def _cmd_classify(args) -> int:
    query_bank = _load_query_bank(args.queries)
    proto_bank = bank_load(args.prototypes)
    config = _load_config(args.config)
    from .enrich import PrototypeSet
    proto_set = PrototypeSet(np.array(proto_bank.vectors), kind="final")
    retriever = None
    if config.beta > 0:
        if args.vlm_bank is None:
            raise errors.ValidationError(
                "--vlm-bank is required when config beta > 0")
        vlm_bank = bank_load(args.vlm_bank)
        retriever = Retriever(vlm_bank, _maybe_index(args.index, vlm_bank),
                              args.nprobe)
    queries = _queries_from_bank(query_bank)
    predictions = classify_batch(queries, proto_set, proto_set, retriever,
                                 config, threads=args.threads)
    write_predictions(predictions, args.out)
    return errors.EXIT_OK


def _eval_inputs(args):
    if args.fixture_dir is not None:
        fixture = load_fixture_dir(args.fixture_dir)
        specs = fixture.build_specs()
        return (specs, fixture.queries, list(fixture.labels),
                fixture.llm_bank, fixture.vlm_bank)
    needed = ("queries", "labels", "classes", "proto_bank",
              "retrieval_bank", "llm_bank", "vlm_bank")
    missing = [f"--{n.replace('_', '-')}" for n in needed
               if getattr(args, n) is None]
    if missing:
        raise errors.ValidationError(
            f"missing {', '.join(missing)} (or pass --fixture-dir)")
    classes, zs_template, rt_template = load_class_config(args.classes)
    proto_bank = bank_load(args.proto_bank)
    rquery_bank = bank_load(args.retrieval_bank)
    specs = build_class_specs(classes, zs_template, rt_template,
                              proto_bank, rquery_bank)
    return (specs, _load_query_bank(args.queries), _load_labels(args.labels),
            bank_load(args.llm_bank), bank_load(args.vlm_bank))


def _cmd_eval(args) -> int:
    specs, query_bank, labels, llm_bank, vlm_bank = _eval_inputs(args)
    config = _load_config(args.config)
    report = run_eval(
        specs, query_bank, labels, llm_bank, vlm_bank, config,
        llm_index=_maybe_index(args.llm_index, llm_bank),
        vlm_index=_maybe_index(args.vlm_index, vlm_bank),
        nprobe=args.nprobe, threads=args.threads, dataset=args.dataset_tag,
        merge_aliases="after" if args.merge_after else "before")
    emit_report([report], args.format, args.out)
    return errors.EXIT_OK


def _cmd_sweep(args) -> int:
    specs, query_bank, labels, llm_bank, vlm_bank = _eval_inputs(args)
    base = _load_config(args.config)
    grid = SweepGrid.load(args.grid)
    reports = run_sweep(grid, specs, query_bank, labels, llm_bank, vlm_bank,
                        base_config=base, dataset=args.dataset_tag,
                        threads=args.threads,
                        merge_aliases="after" if args.merge_after else "before")
    emit_report(reports, args.format, args.out)
    return errors.EXIT_OK


def _cmd_fixture(args) -> int:
    fixture = synth_fixture(seed=args.seed, n_classes=args.n_classes,
                            dim=args.dim,
                            queries_per_class=args.queries_per_class,
                            eta_p=args.eta_p, eta_c=args.eta_c,
                            captions_per_class=args.captions_per_class,
                            eta_q=args.eta_q)
    fixture.save(args.out_dir)
    return errors.EXIT_OK


# ---------------------------------------------------------------------------
# parser


def _add_eval_io(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--fixture-dir", help="directory written by `fixture`")
    parser.add_argument("--queries", help="query bank file")
    parser.add_argument("--labels", help="JSON list of integer labels")
    parser.add_argument("--classes", help="class config JSON")
    parser.add_argument("--proto-bank", help="prototype prompt bank")
    parser.add_argument("--retrieval-bank", help="retrieval query prompt bank")
    parser.add_argument("--llm-bank", help="retrieval-space caption bank")
    parser.add_argument("--vlm-bank", help="fusion-space caption bank")
    parser.add_argument("--llm-index", help="IVF index over the llm bank")
    parser.add_argument("--vlm-index", help="IVF index over the vlm bank")
    parser.add_argument("--nprobe", type=int, default=None)
    parser.add_argument("--config", help="enrichment config JSON")
    parser.add_argument("--dataset-tag", default="synthetic")
    parser.add_argument("--threads", type=int, default=1,
                        help="accepted for compatibility; starts no workers")
    parser.add_argument("--merge-after", action="store_true",
                        help="merge alias prototypes after enrichment")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="retroclass",
        description="Training-free retrieval enrichment for zero-shot "
                    "cosine classifiers.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_bank = sub.add_parser("bank", help="embedding bank files")
    bank_sub = p_bank.add_subparsers(dest="bank_command", required=True)

    p_build = bank_sub.add_parser("build", help="build a bank from a .npy matrix")
    p_build.add_argument("--vectors", required=True, help=".npy file, shape (n, d)")
    p_build.add_argument("--tag", required=True, help="embedding space tag")
    p_build.add_argument("--meta", help="JSONL metadata, one record per row")
    p_build.add_argument("--out", required=True)
    p_build.set_defaults(func=_cmd_bank_build)

    p_inspect = bank_sub.add_parser("inspect", help="print bank header info")
    p_inspect.add_argument("--bank", required=True)
    p_inspect.add_argument("--check-norms", action="store_true",
                           help="full scan verifying the unit-norm invariant")
    p_inspect.add_argument("--out", help="write JSON here instead of stdout")
    p_inspect.set_defaults(func=_cmd_bank_inspect)

    p_index = sub.add_parser("index", help="inverted-file indexes")
    index_sub = p_index.add_subparsers(dest="index_command", required=True)
    p_ibuild = index_sub.add_parser("build", help="train an IVF index")
    p_ibuild.add_argument("--bank", required=True)
    p_ibuild.add_argument("--clusters", type=int, required=True)
    p_ibuild.add_argument("--seed", type=int, default=0)
    p_ibuild.add_argument("--max-iters", type=int, default=25)
    p_ibuild.add_argument("--out", required=True)
    p_ibuild.set_defaults(func=_cmd_index_build)

    p_retrieve = sub.add_parser("retrieve", help="top-k search, exact or IVF")
    p_retrieve.add_argument("--bank", required=True)
    p_retrieve.add_argument("--queries", required=True, help="query bank file")
    p_retrieve.add_argument("--k", type=int, required=True)
    p_retrieve.add_argument("--index", help="IVF index file (exact scan if absent)")
    p_retrieve.add_argument("--nprobe", type=int, default=None)
    p_retrieve.add_argument("--threads", type=int, default=1,
                            help="accepted for compatibility; starts no workers")
    p_retrieve.add_argument("--out", required=True, help="hits JSONL")
    p_retrieve.set_defaults(func=_cmd_retrieve)

    p_enrich = sub.add_parser("enrich-prototypes",
                              help="build enriched class prototypes")
    p_enrich.add_argument("--classes", required=True, help="class config JSON")
    p_enrich.add_argument("--proto-bank", required=True)
    p_enrich.add_argument("--retrieval-bank", required=True)
    p_enrich.add_argument("--llm-bank", required=True)
    p_enrich.add_argument("--vlm-bank", required=True)
    p_enrich.add_argument("--config", help="enrichment config JSON")
    p_enrich.add_argument("--index", help="IVF index over the llm bank")
    p_enrich.add_argument("--nprobe", type=int, default=None)
    p_enrich.add_argument("--merge-after", action="store_true")
    p_enrich.add_argument("--out", required=True, help="output prototype bank")
    p_enrich.set_defaults(func=_cmd_enrich_prototypes)

    p_classify = sub.add_parser("classify", help="rank classes per query")
    p_classify.add_argument("--queries", required=True)
    p_classify.add_argument("--prototypes", required=True,
                            help="per-class prototype bank")
    p_classify.add_argument("--config", help="enrichment config JSON")
    p_classify.add_argument("--vlm-bank", help="caption bank for query enrichment")
    p_classify.add_argument("--index", help="IVF index over the vlm bank")
    p_classify.add_argument("--nprobe", type=int, default=None)
    p_classify.add_argument("--threads", type=int, default=1,
                            help="accepted for compatibility; starts no workers")
    p_classify.add_argument("--out", required=True, help="predictions JSONL")
    p_classify.set_defaults(func=_cmd_classify)

    p_eval = sub.add_parser("eval", help="evaluate one configuration")
    _add_eval_io(p_eval)
    p_eval.add_argument("--format", choices=("json", "csv"), default="json")
    p_eval.add_argument("--out", required=True)
    p_eval.set_defaults(func=_cmd_eval)

    p_sweep = sub.add_parser("sweep", help="evaluate a parameter grid")
    _add_eval_io(p_sweep)
    p_sweep.add_argument("--grid", required=True, help="sweep grid JSON")
    p_sweep.add_argument("--format", choices=("json", "csv"), default="csv")
    p_sweep.add_argument("--out", required=True)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_fixture = sub.add_parser("fixture", help="generate a synthetic problem")
    p_fixture.add_argument("--seed", type=int, required=True)
    p_fixture.add_argument("--n-classes", type=int, required=True)
    p_fixture.add_argument("--dim", type=int, required=True)
    p_fixture.add_argument("--queries-per-class", type=int, required=True)
    p_fixture.add_argument("--captions-per-class", type=int, required=True)
    p_fixture.add_argument("--eta-p", type=float, required=True)
    p_fixture.add_argument("--eta-c", type=float, required=True)
    p_fixture.add_argument("--eta-q", type=float, default=0.35)
    p_fixture.add_argument("--out-dir", required=True)
    p_fixture.set_defaults(func=_cmd_fixture)

    return parser


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except errors.RetroclassError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return errors.EXIT_VALIDATION
    except Exception:
        traceback.print_exc()
        return errors.EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
