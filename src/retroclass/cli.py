"""Command line interface.

Subcommands: bank build|inspect, index build|inspect, retrieve,
enrich-prototypes, classify, eval, sweep, fixture. Exit codes: 0 success,
2 invalid input, 3 corrupt data, 4 internal invariant violation. Set
RETROCLASS_LOG to error|warn|info|debug to control logging (default warn).

Every command is deterministic for fixed inputs and seeds. --threads is
accepted and validated (it must be >= 0) but starts no workers; BLAS
threads come from OPENBLAS_NUM_THREADS.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import os
import sys
import traceback

import numpy as np

from . import errors
from .bank import (FORMAT_VERSION, CaptionRecord, EmbeddingBank, bank_build,
                   bank_load, bank_save, check_norms, parse_caption_record)
from .classify import classify_batch, write_predictions
from .enrich import EnrichmentConfig, PrototypeSet, enrich_all_prototypes
from .files import read_json, read_jsonl, replace_atomically
from .harness import (SweepGrid, emit_report, load_fixture_dir, parse_labels,
                      run_eval, run_sweep, synth_fixture)
from .index import (IvfIndex, Retriever, build_ivf, check_threads,
                    load_index, save_index)
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


def _check_nprobe(args) -> None:
    """--nprobe with no index flag would be ignored, so it is an error."""
    flags = [f for f in ("index", "llm_index", "vlm_index") if hasattr(args, f)]
    if getattr(args, "nprobe", None) is not None and \
            all(getattr(args, f) is None for f in flags):
        raise errors.ValidationError("--nprobe needs " + " or ".join(
            "--" + f.replace("_", "-") for f in flags))


def _load_config(path: str | None) -> EnrichmentConfig:
    return EnrichmentConfig() if path is None else EnrichmentConfig.load(path)


def _load_index(path: str | None, bank: EmbeddingBank) -> IvfIndex | None:
    """The index at ``path``, attached to ``bank``; None without a path."""
    return None if path is None else load_index(path, bank)


# ---------------------------------------------------------------------------
# command handlers


def _cmd_bank_build(args) -> int:
    try:
        # mapped: bank_build reads it buffer by buffer and drops its pages
        # every 64 MiB, so neither a copy nor the whole file stays resident
        matrix = np.load(args.vectors, mmap_mode="r")
    except (OSError, ValueError) as exc:
        raise errors.IoError(f"cannot read vectors {args.vectors}: {exc}") from exc
    if not isinstance(matrix, np.ndarray):  # an .npz archive
        matrix.close()
        raise errors.ValidationError(f"{args.vectors} is not a .npy file")
    if matrix.ndim != 2:
        raise errors.ValidationError(
            f"vector file must hold a 2-D array, got shape {matrix.shape}")
    records = None
    if args.meta is not None:
        records = read_jsonl(args.meta, "metadata", parse_caption_record,
                             count=matrix.shape[0])
    bank_build(matrix, args.tag, args.out, records=records)
    return errors.EXIT_OK


def _write_info(info: dict, out: str | None, what: str) -> None:
    """``info`` as indented JSON, to ``out`` or else to stdout."""
    text = json.dumps(info, indent=2) + "\n"
    if out:
        with replace_atomically(out, what) as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_bank_inspect(args) -> int:
    bank = bank_load(args.bank)
    info = {
        "dim": bank.dim,
        "count": bank.count,
        "space_tag": bank.space_tag,
        "dtype": "float32",
        "version": FORMAT_VERSION,
    }
    if args.check_norms:
        info["norms_ok"] = check_norms(bank)
    _write_info(info, args.out, "bank info")
    if args.check_norms and not info["norms_ok"]:
        raise errors.CorruptBank("bank rows are not unit norm")
    return errors.EXIT_OK


def _cmd_index_build(args) -> int:
    bank = bank_load(args.bank)
    index = build_ivf(bank, args.clusters, args.seed, max_iters=args.max_iters)
    save_index(index, args.out)
    return errors.EXIT_OK


def _cmd_index_inspect(args) -> int:
    index = load_index(args.index)
    sizes = np.array([len(lst) for lst in index.lists])
    mean = float(sizes.mean())
    _write_info({
        "n_clusters": index.n_clusters,
        "dim": index.dim,
        "seed": index.seed,
        "list_size_min": int(sizes.min()),
        "list_size_mean": mean,
        "list_size_max": int(sizes.max()),
        "imbalance": float(sizes.max()) / mean if mean else None,
    }, args.out, "index info")
    return errors.EXIT_OK


def _cmd_retrieve(args) -> int:
    check_threads(args.threads)
    bank = bank_load(args.bank)
    queries = bank_load(args.queries)
    table = Retriever(bank, _load_index(args.index, bank), args.nprobe).search(
        queries.vectors, args.k, space_tag=queries.space_tag)
    with replace_atomically(args.out, "hits") as fh:
        for i, count in enumerate(table.counts.tolist()):
            hits = zip(table.ids[i, :count].tolist(),
                       table.scores[i, :count].tolist())
            fh.write(json.dumps({"query_id": i, "hits": list(hits)}) + "\n")
    return errors.EXIT_OK


def _class_table(args):
    """The class table of ``--classes``, ``--proto-bank`` and
    ``--retrieval-bank``."""
    classes, zs_template, rt_template = load_class_config(args.classes)
    return build_class_specs(classes, zs_template, rt_template,
                             bank_load(args.proto_bank),
                             bank_load(args.retrieval_bank))


def _cmd_enrich_prototypes(args) -> int:
    table = _class_table(args)
    llm_bank = bank_load(args.llm_bank)
    vlm_bank = bank_load(args.vlm_bank)
    config = _load_config(args.config)
    retriever = Retriever(llm_bank, _load_index(args.index, llm_bank),
                          args.nprobe)
    proto_set = enrich_all_prototypes(
        table, llm_bank, vlm_bank, retriever, config,
        merge_aliases="after" if args.merge_after else "before")
    # bank rows are unit norm by format; cosine logits are norm-invariant,
    # so storing renormalized rows preserves every ranking
    records = [CaptionRecord(i, names[0], "prototype")
               for i, names in enumerate(table.names)]
    out_bank = EmbeddingBank.from_matrix(proto_set.matrix, vlm_bank.space_tag,
                                         records=records)
    bank_save(out_bank, args.out)
    return errors.EXIT_OK


def _cmd_classify(args) -> int:
    query_bank = bank_load(args.queries)
    proto_bank = bank_load(args.prototypes)
    if proto_bank.space_tag != query_bank.space_tag:
        raise errors.SpaceMismatch(
            f"prototype space {proto_bank.space_tag!r} != query space "
            f"{query_bank.space_tag!r}")
    config = _load_config(args.config)
    proto_set = PrototypeSet(np.array(proto_bank.vectors))
    retriever = None
    if config.beta > 0:
        if args.vlm_bank is None:
            raise errors.ValidationError(
                "--vlm-bank is required when config beta > 0")
        vlm_bank = bank_load(args.vlm_bank)
        retriever = Retriever(vlm_bank, _load_index(args.index, vlm_bank),
                              args.nprobe)
    predictions = classify_batch(query_bank, proto_set, retriever, config,
                                 threads=args.threads)
    write_predictions(predictions, args.out)
    return errors.EXIT_OK


def _eval_inputs(args):
    """The inputs and keywords that eval and sweep pass to the harness.

    The inputs come either from ``--fixture-dir`` or from the seven file
    flags, never from a mix: a file flag beside ``--fixture-dir`` is an error.
    """
    files = ("queries", "labels", "classes", "proto_bank", "retrieval_bank",
             "llm_bank", "vlm_bank")
    given = [f"--{n.replace('_', '-')}" for n in files
             if getattr(args, n) is not None]
    if args.fixture_dir is not None:
        if given:
            raise errors.ValidationError(
                f"--fixture-dir cannot be combined with {', '.join(given)}")
        fixture = load_fixture_dir(args.fixture_dir)
        inputs = (fixture.build_specs(), fixture.queries, list(fixture.labels),
                  fixture.llm_bank, fixture.vlm_bank)
    else:
        missing = [f"--{n.replace('_', '-')}" for n in files
                   if getattr(args, n) is None]
        if missing:
            raise errors.ValidationError(
                f"missing {', '.join(missing)} (or pass --fixture-dir)")
        table = _class_table(args)
        query_bank = bank_load(args.queries)
        labels = list(read_json(args.labels, "labels", parse_labels))
        inputs = (table, query_bank, labels, bank_load(args.llm_bank),
                  bank_load(args.vlm_bank))
    llm_bank, vlm_bank = inputs[3:]
    return inputs, {
        "llm_index": _load_index(args.llm_index, llm_bank),
        "vlm_index": _load_index(args.vlm_index, vlm_bank),
        "nprobe": args.nprobe, "threads": args.threads,
        "dataset": args.dataset_tag,
        "merge_aliases": "after" if args.merge_after else "before"}


def _cmd_eval(args) -> int:
    inputs, keywords = _eval_inputs(args)
    report = run_eval(*inputs, _load_config(args.config), **keywords)
    emit_report([report], args.format, args.out)
    return errors.EXIT_OK


def _cmd_sweep(args) -> int:
    inputs, keywords = _eval_inputs(args)
    base = _load_config(args.config)
    reports = run_sweep(SweepGrid.load(args.grid), *inputs, base_config=base,
                        **keywords)
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared after."""
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
    p_iinspect = index_sub.add_parser(
        "inspect", help="print index header info and list-size balance")
    p_iinspect.add_argument("--index", required=True)
    p_iinspect.add_argument("--out", help="write JSON here instead of stdout")
    p_iinspect.set_defaults(func=_cmd_index_inspect)

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
    args = build_parser().parse_args(argv)
    try:
        _check_nprobe(args)
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
