"""Evaluation harness: accuracy reports, sweeps, and a synthetic fixture.

Everything here is deterministic for fixed seeds and inputs; wall-clock
timings are the single exception and live in their own report field so
comparisons can drop them.
"""

from __future__ import annotations

import itertools
import json
import logging
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import errors
from .bank import CaptionRecord, EmbeddingBank, bank_load, bank_save
# classify_batch stays importable from here: perfbench's tracer tests check
# that wrapping it rebinds this module's name too
from .classify import (Prediction, classify_batch,  # noqa: F401
                       cosine_rows, label_ranks, prototype_norms, query_norms)
from .enrich import (EnrichmentConfig, check_enrichment_banks,
                     enrichment_queries, fuse_prototypes, fuse_queries,
                     zeroshot_prototypes)
from .files import read_json, replace_atomically
from .index import IvfIndex, Retriever, check_threads
from .prompts import ClassTable, build_class_specs, parse_class_config

log = logging.getLogger("retroclass.harness")

REPORT_SCHEMA_VERSION = 1
CSV_HEADER = ("dataset,k,alpha,beta,tau_tt,tau_it,use_temperature_tt,"
              "use_temperature_it,renormalize_output,n_queries,acc_at_1,acc_at_5")


@dataclass(frozen=True)
class EvalReport:
    """Accuracy summary for one configuration on one query set."""

    dataset: str
    config: EnrichmentConfig
    acc_at: dict[int, float]
    per_class_acc: tuple[float, ...]
    n_queries: int
    wall_time_ms: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        if 1 in self.acc_at and 5 in self.acc_at:
            if self.acc_at[1] > self.acc_at[5] + 1e-12:
                raise errors.InternalInvariantError(
                    f"acc@1 {self.acc_at[1]} exceeds acc@5 {self.acc_at[5]}")

    def to_json_dict(self, include_timing: bool = True) -> dict:
        out = {
            "schema_version": REPORT_SCHEMA_VERSION,
            "dataset": self.dataset,
            "config": self.config.to_dict(),
            "n_queries": self.n_queries,
            "acc_at": {str(m): self.acc_at[m] for m in sorted(self.acc_at)},
            "per_class_acc": list(self.per_class_acc),
        }
        if include_timing:
            out["wall_time_ms"] = dict(self.wall_time_ms)
        return out

    @staticmethod
    def strip_timing(obj: dict) -> dict:
        return {k: v for k, v in obj.items() if k != "wall_time_ms"}


def accuracy(predictions: list[Prediction], labels, ms=(1, 5),
             dataset: str = "unknown", config: EnrichmentConfig | None = None,
             wall_time_ms: dict[str, float] | None = None) -> EvalReport:
    """Score ranked predictions against integer labels.

    acc@m counts a query as correct when its label appears among the first
    min(m, n_classes) ranked class indices. Per-class accuracies weighted by
    class frequency average back to acc@1.
    """
    n_classes = len(predictions[0].topk) if predictions else 0
    for pred in predictions:
        if len(pred.topk) != n_classes:
            raise errors.LabelMismatch("predictions rank differing class counts")
    labels = _check_labels(labels, len(predictions), n_classes)
    order = np.array([[c for c, _ in pred.topk] for pred in predictions],
                     dtype=np.int64).reshape(len(predictions), n_classes)
    found = order == labels[:, None]
    ranks = np.where(found.any(axis=1), found.argmax(axis=1), n_classes)
    return _rank_report(ranks, labels, n_classes, ms, dataset, config,
                        wall_time_ms)


def _check_labels(labels, n: int, n_classes: int) -> np.ndarray:
    """``labels`` as int64: one per query, each a class index."""
    labels = np.asarray([int(x) for x in labels], dtype=np.int64)
    if n != labels.shape[0]:
        raise errors.LabelMismatch(f"{n} queries but {labels.shape[0]} labels")
    if n == 0:
        raise errors.LabelMismatch("cannot score an empty prediction list")
    out_of_range = (labels < 0) | (labels >= n_classes)
    if out_of_range.any():
        raise errors.LabelMismatch(
            f"label {int(labels[out_of_range][0])} outside [0, {n_classes})")
    return labels


def _rank_report(ranks: np.ndarray, labels: np.ndarray, n_classes: int, ms,
                 dataset: str, config, wall_time_ms) -> EvalReport:
    """:func:`accuracy`'s report from the position of each query's label in
    its ranking (``n_classes`` where the ranking lacks it)."""
    acc_at = {}
    for m in ms:
        if m < 1:
            raise errors.InvalidM(f"m must be >= 1, got {m}")
        acc_at[int(m)] = int(np.count_nonzero(
            ranks < min(m, n_classes))) / len(labels)
    counts = np.bincount(labels, minlength=n_classes)
    correct = np.bincount(labels[ranks == 0], minlength=n_classes)
    return EvalReport(dataset=dataset,
                      config=config if config is not None else EnrichmentConfig(),
                      acc_at=acc_at,
                      per_class_acc=tuple(
                          float(correct[c] / counts[c]) if counts[c] else 0.0
                          for c in range(n_classes)),
                      n_queries=len(labels),
                      wall_time_ms=wall_time_ms or {})


def run_eval(table: ClassTable, query_bank: EmbeddingBank, labels,
             llm_bank: EmbeddingBank, vlm_bank: EmbeddingBank,
             config: EnrichmentConfig,
             llm_index: IvfIndex | None = None,
             vlm_index: IvfIndex | None = None,
             nprobe: int | None = None,
             threads: int = 1,
             dataset: str = "synthetic",
             merge_aliases: str = "before") -> EvalReport:
    """Full pipeline evaluation: enrich prototypes, classify, score.

    ``threads`` is validated and otherwise unused (see ``check_threads``).
    """
    return _evaluate([config], table, query_bank, labels, llm_bank, vlm_bank,
                     llm_index, vlm_index, nprobe, threads, dataset,
                     merge_aliases)[0]


def _evaluate(configs: list[EnrichmentConfig], table: ClassTable,
              query_bank: EmbeddingBank, labels, llm_bank: EmbeddingBank,
              vlm_bank: EmbeddingBank, llm_index: IvfIndex | None,
              vlm_index: IvfIndex | None, nprobe: int | None, threads: int,
              dataset: str, merge_aliases: str) -> list[EvalReport]:
    """Evaluate configs that share k: retrieve once, then fuse and score each.

    Top-k hits depend on the banks, index, nprobe, k and the query, not on
    alpha, beta, the temperatures or their toggles. So each class retrieval
    query (if any config has alpha > 0) and each image query (if any has
    beta > 0) is retrieved once. Fused prototypes depend only on alpha,
    tau_tt, use_temperature_tt and renormalize_output, and fused queries on
    beta, tau_it, use_temperature_it and renormalize_output: each distinct
    setting is fused once, at its first config, and kept for the later
    ones, with its float64 row norms. Every config then costs scoring.
    Each report's ``retrieve`` time is that shared retrieval, and its
    ``enrich_prototypes`` and ``classify`` times hold only the fusion (and
    the norms) done at that config; the first report's
    ``enrich_prototypes`` also holds the alias merges of the zero-shot
    prototypes and of the retrieval queries, which run before retrieval.
    """
    check_threads(threads)
    labels = _check_labels(labels, query_bank.count, len(table))
    if table.prototype_space != query_bank.space_tag:
        raise errors.SpaceMismatch(
            f"prototype space {table.prototype_space!r} "
            f"!= query space {query_bank.space_tag!r}")
    k = configs[0].k

    t0 = time.perf_counter()
    zs = zeroshot_prototypes(table)
    proto_queries = proto_hits = None
    if any(c.alpha > 0 for c in configs):
        check_enrichment_banks(table, llm_bank, vlm_bank, merge_aliases)
        proto_queries = enrichment_queries(table, merge_aliases)
    t1 = time.perf_counter()
    merge_ms = (t1 - t0) * 1000.0
    if proto_queries is not None:
        proto_hits = Retriever(llm_bank, llm_index, nprobe).search(
            proto_queries, k, what="prototype")
    query_hits = None
    if any(c.beta > 0 for c in configs):
        query_hits = Retriever(vlm_bank, vlm_index, nprobe).search(
            query_bank.vectors, k, space_tag=query_bank.space_tag)
    retrieve_ms = (time.perf_counter() - t1) * 1000.0

    # the fused prototypes and queries of each distinct setting, with their
    # norms, by the config fields they depend on (k is shared)
    prototype_sets, query_rows = {}, {}
    reports = []
    for config in configs:
        t1 = time.perf_counter()
        proto_key = (config.alpha, config.tau_tt, config.use_temperature_tt,
                     config.renormalize_output)
        if proto_key not in prototype_sets:
            protos = fuse_prototypes(table, proto_hits, vlm_bank, config,
                                     merge_aliases) if config.alpha > 0 else zs
            prototype_sets[proto_key] = protos, prototype_norms(protos)
        t2 = time.perf_counter()
        query_key = (config.beta, config.tau_it, config.use_temperature_it,
                     config.renormalize_output)
        if query_key not in query_rows:
            rows = fuse_queries(query_bank.vectors, query_hits, vlm_bank,
                                config)
            query_rows[query_key] = rows, query_norms(rows)
        rows, qnorms = query_rows[query_key]
        protos, pnorms = prototype_sets[proto_key]
        ranks = label_ranks(cosine_rows(rows, protos, qnorms, pnorms),
                            labels)
        t3 = time.perf_counter()
        reports.append(_rank_report(
            ranks, labels, len(table), (1, 5), dataset, config, {
                "retrieve": retrieve_ms,
                "enrich_prototypes": merge_ms + (t2 - t1) * 1000.0,
                "classify": (t3 - t2) * 1000.0,
                "total": retrieve_ms + merge_ms + (t3 - t1) * 1000.0,
            }))
        merge_ms = 0.0  # the merges count once, at the first config
    return reports


# ---------------------------------------------------------------------------
# sweeps


@dataclass(frozen=True)
class SweepGrid:
    """Axes of a parameter sweep. Iteration order: alpha slowest, then beta,
    tau_tt, tau_it, and the temperature-toggle pairs fastest."""

    alphas: tuple[float, ...]
    betas: tuple[float, ...]
    taus_tt: tuple[float, ...] = (1.0,)
    taus_it: tuple[float, ...] = (100.0,)
    toggles: tuple[tuple[bool, bool], ...] = ((True, True),)
    # each numeric axis and the config field its values set
    _FIELDS = {"alphas": "alpha", "betas": "beta", "taus_tt": "tau_tt",
               "taus_it": "tau_it"}

    def __post_init__(self):
        for name in (*self._FIELDS, "toggles"):
            axis = tuple(getattr(self, name))
            if len(axis) == 0:
                raise errors.EmptyGrid(f"grid axis {name} is empty")
            object.__setattr__(self, name, axis)
        # every axis value is checked, and stored, as a config field
        for name, key in self._FIELDS.items():
            object.__setattr__(self, name, tuple(
                getattr(EnrichmentConfig(**{key: v}), key)
                for v in getattr(self, name)))
        for use_tt, use_it in self.toggles:
            EnrichmentConfig(use_temperature_tt=use_tt,
                             use_temperature_it=use_it)

    def points(self):
        return itertools.product(self.alphas, self.betas, self.taus_tt,
                                 self.taus_it, self.toggles)

    @classmethod
    def from_dict(cls, obj: dict) -> "SweepGrid":
        if not isinstance(obj, dict):
            raise errors.ValidationError("sweep grid must be a JSON object")
        unknown = set(obj) - {*cls._FIELDS, "toggles"}
        if unknown:
            raise errors.ValidationError(f"unknown grid keys: {sorted(unknown)}")
        kwargs = {}
        for key in cls._FIELDS:
            if key in obj:
                if not isinstance(obj[key], list):
                    raise errors.ValidationError(f"grid {key} must be a list")
                kwargs[key] = obj[key]
        if "toggles" in obj:
            toggles = []
            for entry in obj["toggles"]:
                if not isinstance(entry, dict):
                    raise errors.ValidationError(
                        "each toggle entry must be an object with "
                        "use_temperature_tt / use_temperature_it")
                unknown = set(entry) - {"use_temperature_tt",
                                        "use_temperature_it"}
                if unknown:
                    raise errors.ValidationError(
                        f"unknown toggle keys: {sorted(unknown)}")
                toggles.append((entry.get("use_temperature_tt", True),
                                entry.get("use_temperature_it", True)))
            kwargs["toggles"] = tuple(toggles)
        if "alphas" not in kwargs or "betas" not in kwargs:
            raise errors.ValidationError("sweep grid needs alphas and betas")
        return cls(**kwargs)

    @classmethod
    def load(cls, path) -> "SweepGrid":
        return read_json(path, "grid", cls.from_dict)


def run_sweep(grid: SweepGrid, table: ClassTable, query_bank: EmbeddingBank,
              labels, llm_bank: EmbeddingBank, vlm_bank: EmbeddingBank,
              base_config: EnrichmentConfig | None = None,
              dataset: str = "synthetic", threads: int = 1,
              merge_aliases: str = "before",
              llm_index: IvfIndex | None = None,
              vlm_index: IvfIndex | None = None,
              nprobe: int | None = None) -> list[EvalReport]:
    """Evaluate every grid point. Report order follows the grid axes.

    Retrieval runs once per sweep at the base config's k, through the IVF
    indexes when given; each grid point then costs fusion plus scoring, and
    its report equals the ``run_eval`` report of that point.
    """
    base = base_config if base_config is not None else EnrichmentConfig()
    configs = [replace(base, alpha=alpha, beta=beta, tau_tt=tau_tt,
                       tau_it=tau_it, use_temperature_tt=use_tt,
                       use_temperature_it=use_it)
               for alpha, beta, tau_tt, tau_it, (use_tt, use_it)
               in grid.points()]
    return _evaluate(configs, table, query_bank, labels, llm_bank, vlm_bank,
                     llm_index, vlm_index, nprobe, threads, dataset,
                     merge_aliases)


# ---------------------------------------------------------------------------
# synthetic fixture


@dataclass(frozen=True)
class SynthFixture:
    """Self-contained classification problem with known geometry.

    Class centers are random unit vectors. Prototypes, captions, and queries
    are the centers plus isotropic Gaussian noise at their own scales,
    renormalized. Captions appear twice, in an aligned retrieval-space bank
    and a fusion-space bank, so the cross-space enrichment path is exercised
    end to end. With captions cleaner than prototypes (eta_c < eta_p),
    caption enrichment pulls prototypes toward the true centers.
    """

    queries: EmbeddingBank
    labels: tuple[int, ...]
    prototype_bank: EmbeddingBank
    retrieval_query_bank: EmbeddingBank
    llm_bank: EmbeddingBank
    vlm_bank: EmbeddingBank
    class_config: dict

    def build_specs(self) -> ClassTable:
        classes, zs_template, rt_template = parse_class_config(self.class_config)
        return build_class_specs(classes, zs_template, rt_template,
                                 self.prototype_bank, self.retrieval_query_bank)

    def save(self, out_dir) -> None:
        out = Path(out_dir)
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise errors.IoError(f"cannot create fixture directory {out}: "
                                 f"{exc}") from exc
        bank_save(self.queries, out / "queries.bank")
        bank_save(self.prototype_bank, out / "prototypes.bank")
        bank_save(self.retrieval_query_bank, out / "retrieval_queries.bank")
        bank_save(self.llm_bank, out / "llm_db.bank")
        bank_save(self.vlm_bank, out / "vlm_db.bank")
        with replace_atomically(out / "labels.json", "labels") as fh:
            json.dump(list(self.labels), fh)
        with replace_atomically(out / "classes.json", "class config") as fh:
            json.dump(self.class_config, fh, indent=2)


def synth_fixture(seed: int, n_classes: int, dim: int,
                  queries_per_class: int, eta_p: float, eta_c: float,
                  captions_per_class: int, eta_q: float = 0.35) -> SynthFixture:
    """Generate a deterministic synthetic classification problem.

    eta_p, eta_c, and eta_q are the per-coordinate Gaussian noise scales for
    prototypes, captions (and class retrieval queries), and image queries.
    The interesting regime has eta_p > eta_c: prototypes are noisy, captions
    hug the class centers, and retrieval enrichment provably helps.
    """
    for name, val in (("n_classes", n_classes), ("dim", dim),
                      ("queries_per_class", queries_per_class),
                      ("captions_per_class", captions_per_class)):
        if val < 1:
            raise errors.InvalidFixture(f"{name} must be >= 1, got {val}")
    if dim < 2:
        raise errors.InvalidFixture(f"dim must be >= 2, got {dim}")
    for name, val in (("eta_p", eta_p), ("eta_c", eta_c), ("eta_q", eta_q)):
        if not np.isfinite(val) or val < 0:
            raise errors.InvalidFixture(
                f"{name} must be a non-negative finite number, got {val}")
    if seed < 0:
        raise errors.InvalidFixture(f"seed must be >= 0, got {seed}")
    if eta_p <= eta_c and eta_p > 0:
        log.warning("eta_p <= eta_c: caption enrichment gains are not "
                    "guaranteed in this regime")

    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((n_classes, dim))
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)

    names = [f"class-{i:02d}" for i in range(n_classes)]

    proto = centers + eta_p * rng.standard_normal((n_classes, dim))
    rquery = centers + eta_c * rng.standard_normal((n_classes, dim))
    captions = (np.repeat(centers, captions_per_class, axis=0)
                + eta_c * rng.standard_normal((n_classes * captions_per_class, dim)))
    queries = (np.repeat(centers, queries_per_class, axis=0)
               + eta_q * rng.standard_normal((n_classes * queries_per_class, dim)))
    labels = np.repeat(np.arange(n_classes), queries_per_class)

    caption_records = [
        CaptionRecord(i, f"synthetic caption {i % captions_per_class} for "
                         f"{names[i // captions_per_class]}", "synth")
        for i in range(captions.shape[0])
    ]
    prompt_records = [CaptionRecord(i, f"a photo of a {names[i]}", "synth")
                      for i in range(n_classes)]

    fixture = SynthFixture(
        queries=EmbeddingBank.from_matrix(queries, "vlm-text"),
        labels=tuple(int(x) for x in labels),
        prototype_bank=EmbeddingBank.from_matrix(
            proto, "vlm-text", records=list(prompt_records)),
        retrieval_query_bank=EmbeddingBank.from_matrix(
            rquery, "llm-text", records=list(prompt_records)),
        llm_bank=EmbeddingBank.from_matrix(
            captions, "llm-text", records=list(caption_records)),
        vlm_bank=EmbeddingBank.from_matrix(
            captions, "vlm-text", records=list(caption_records)),
        class_config={
            "classes": [{"name": name, "aliases": []} for name in names],
            "zeroshot_prefix": "a photo of a",
            "retrieval_prefix": "a photo of a",
        },
    )
    return fixture


def parse_labels(obj) -> tuple[int, ...]:
    """Integer class labels from a JSON list, one per query."""
    if not isinstance(obj, list) or any(type(x) is not int for x in obj):
        raise errors.ValidationError("labels must be a JSON list of integers")
    return tuple(obj)


def _parse_fixture_classes(obj) -> dict:
    # the fixture keeps the raw dict and parses it again in build_specs;
    # parsing it here as well makes a malformed file fail while it is read
    parse_class_config(obj)
    return obj


def load_fixture_dir(fixture_dir) -> SynthFixture:
    """Read back a fixture written by :meth:`SynthFixture.save`."""
    d = Path(fixture_dir)
    labels = read_json(d / "labels.json", "labels", parse_labels)
    class_config = read_json(d / "classes.json", "class config",
                             _parse_fixture_classes)
    return SynthFixture(
        queries=bank_load(d / "queries.bank"),
        labels=labels,
        prototype_bank=bank_load(d / "prototypes.bank"),
        retrieval_query_bank=bank_load(d / "retrieval_queries.bank"),
        llm_bank=bank_load(d / "llm_db.bank"),
        vlm_bank=bank_load(d / "vlm_db.bank"),
        class_config=class_config,
    )


# ---------------------------------------------------------------------------
# report emission


def _format_csv_value(value) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return repr(value)
    return str(value)


def report_csv_row(report: EvalReport) -> str:
    cfg = report.config
    cells = [report.dataset, cfg.k, cfg.alpha, cfg.beta, cfg.tau_tt,
             cfg.tau_it, cfg.use_temperature_tt, cfg.use_temperature_it,
             cfg.renormalize_output, report.n_queries,
             report.acc_at.get(1, 0.0), report.acc_at.get(5, 0.0)]
    return ",".join(_format_csv_value(c) for c in cells)


def emit_report(reports: list[EvalReport], fmt: str, path) -> None:
    """Write reports as versioned JSON or a fixed-header CSV.

    CSV carries no timing columns, so byte-identical runs produce
    byte-identical files; JSON keeps timings in a wall_time_ms field that
    comparisons are expected to strip.
    """
    if fmt not in ("json", "csv"):
        raise errors.ValidationError(f"unknown report format {fmt!r}")
    if not reports:
        raise errors.ValidationError("no reports to write")
    with replace_atomically(path, "report") as fh:
        if fmt == "json":
            json.dump({"schema_version": REPORT_SCHEMA_VERSION,
                       "reports": [r.to_json_dict() for r in reports]},
                      fh, indent=2)
            fh.write("\n")
        else:
            fh.write(CSV_HEADER + "\n")
            for report in reports:
                fh.write(report_csv_row(report) + "\n")
