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
from .bank import CaptionRecord, EmbeddingBank, bank_save
# classify_batch stays importable from here: perfbench's tracer tests check
# that wrapping it rebinds this module's name too
from .classify import (Prediction, classify_batch, query_matrix,  # noqa: F401
                       rank_queries, retrieve_query_hits, select_prototypes)
from .enrich import (EnrichmentConfig, fuse_prototypes, prototype_rows,
                     retrieve_rows, zeroshot_prototypes)
from .index import IvfIndex, QueryEmbedding, Retriever, check_threads
from .prompts import build_class_specs, parse_class_config

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
    order = np.array([[c for c, _ in pred.topk] for pred in predictions],
                     dtype=np.int64).reshape(len(predictions), n_classes)
    return rank_accuracy(order, labels, ms, dataset, config, wall_time_ms)


def rank_accuracy(order: np.ndarray, labels, ms=(1, 5),
                  dataset: str = "unknown",
                  config: EnrichmentConfig | None = None,
                  wall_time_ms: dict[str, float] | None = None) -> EvalReport:
    """:func:`accuracy` for a (queries, classes) matrix of ranked class ids."""
    labels = np.asarray([int(x) for x in labels], dtype=np.int64)
    n, n_classes = order.shape
    if n != labels.shape[0]:
        raise errors.LabelMismatch(f"{n} predictions but {labels.shape[0]} labels")
    if n == 0:
        raise errors.LabelMismatch("cannot score an empty prediction list")
    out_of_range = (labels < 0) | (labels >= n_classes)
    if out_of_range.any():
        raise errors.LabelMismatch(
            f"label {int(labels[out_of_range][0])} outside [0, {n_classes})")

    acc_at = {}
    for m in ms:
        if m < 1:
            raise errors.InvalidM(f"m must be >= 1, got {m}")
        depth = min(m, n_classes)
        hits = int(np.count_nonzero(
            (order[:, :depth] == labels[:, None]).any(axis=1)))
        acc_at[int(m)] = hits / n

    counts = np.bincount(labels, minlength=n_classes)
    correct = np.bincount(labels[order[:, 0] == labels], minlength=n_classes)
    per_class = tuple(
        float(correct[c] / counts[c]) if counts[c] else 0.0
        for c in range(n_classes))

    return EvalReport(dataset=dataset,
                      config=config if config is not None else EnrichmentConfig(),
                      acc_at=acc_at,
                      per_class_acc=per_class,
                      n_queries=n,
                      wall_time_ms=wall_time_ms or {})


def run_eval(specs, query_bank: EmbeddingBank, labels,
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
    return _evaluate([config], specs, query_bank, labels, llm_bank, vlm_bank,
                     llm_index, vlm_index, nprobe, threads, dataset,
                     merge_aliases)[0]


def _evaluate(configs: list[EnrichmentConfig], specs,
              query_bank: EmbeddingBank, labels, llm_bank: EmbeddingBank,
              vlm_bank: EmbeddingBank, llm_index: IvfIndex | None,
              vlm_index: IvfIndex | None, nprobe: int | None, threads: int,
              dataset: str, merge_aliases: str) -> list[EvalReport]:
    """Evaluate configs that share k: retrieve once, then fuse and score each.

    Top-k hits depend on the banks, index, nprobe, k and the query, not on
    alpha, beta, the temperatures or their toggles. So each class retrieval
    query (if any config has alpha > 0) and each image query (if any has
    beta > 0) is retrieved once, and every config then costs array fusion
    plus scoring. Each report's ``retrieve`` time is that shared retrieval.
    """
    check_threads(threads)
    labels = [int(x) for x in labels]
    if len(labels) != query_bank.count:
        raise errors.LabelMismatch(
            f"{query_bank.count} queries but {len(labels)} labels")
    k = configs[0].k

    t0 = time.perf_counter()
    zs = zeroshot_prototypes(specs)
    rows = proto_hits = None
    if any(c.alpha > 0 for c in configs):
        llm_retriever = Retriever(llm_bank, llm_index, nprobe)
        rows = prototype_rows(specs, llm_bank, vlm_bank, llm_retriever,
                              merge_aliases)
        proto_hits = retrieve_rows(llm_retriever, rows.queries, k,
                                   llm_bank.space_tag, "prototype")
    queries = [QueryEmbedding(query_bank.vectors[i], query_bank.space_tag)
               for i in range(query_bank.count)]
    query_hits = None
    if any(c.beta > 0 for c in configs):
        query_hits = retrieve_query_hits(
            queries, Retriever(vlm_bank, vlm_index, nprobe), k)
    qmatrix = query_matrix(queries, zs.matrix.shape[1])
    retrieve_ms = (time.perf_counter() - t0) * 1000.0

    reports = []
    for config in configs:
        t1 = time.perf_counter()
        enriched = fuse_prototypes(rows, proto_hits, vlm_bank, config) \
            if config.alpha > 0 else None
        t2 = time.perf_counter()
        order, _ = rank_queries(qmatrix, select_prototypes(zs, enriched, config),
                                query_hits, vlm_bank.vectors, config)
        t3 = time.perf_counter()
        reports.append(rank_accuracy(
            order, labels, ms=(1, 5), dataset=dataset, config=config,
            wall_time_ms={
                "retrieve": retrieve_ms,
                "enrich_prototypes": (t2 - t1) * 1000.0,
                "classify": (t3 - t2) * 1000.0,
                "total": retrieve_ms + (t3 - t1) * 1000.0,
            }))
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

    def __post_init__(self):
        for name in ("alphas", "betas", "taus_tt", "taus_it", "toggles"):
            axis = tuple(getattr(self, name))
            if len(axis) == 0:
                raise errors.EmptyGrid(f"grid axis {name} is empty")
            object.__setattr__(self, name, axis)

    def points(self):
        return itertools.product(self.alphas, self.betas, self.taus_tt,
                                 self.taus_it, self.toggles)

    @classmethod
    def from_dict(cls, obj: dict) -> "SweepGrid":
        if not isinstance(obj, dict):
            raise errors.ValidationError("sweep grid must be a JSON object")
        known = {"alphas", "betas", "taus_tt", "taus_it", "toggles"}
        unknown = set(obj) - known
        if unknown:
            raise errors.ValidationError(f"unknown grid keys: {sorted(unknown)}")
        kwargs = {}
        for key in ("alphas", "betas", "taus_tt", "taus_it"):
            if key in obj:
                kwargs[key] = tuple(float(v) for v in obj[key])
        if "toggles" in obj:
            toggles = []
            for entry in obj["toggles"]:
                if not isinstance(entry, dict):
                    raise errors.ValidationError(
                        "each toggle entry must be an object with "
                        "use_temperature_tt / use_temperature_it")
                toggles.append((bool(entry.get("use_temperature_tt", True)),
                                bool(entry.get("use_temperature_it", True))))
            kwargs["toggles"] = tuple(toggles)
        if "alphas" not in kwargs or "betas" not in kwargs:
            raise errors.ValidationError("sweep grid needs alphas and betas")
        return cls(**kwargs)

    @classmethod
    def load(cls, path) -> "SweepGrid":
        try:
            with open(Path(path), encoding="utf-8") as fh:
                obj = json.load(fh)
        except OSError as exc:
            raise errors.IoError(f"cannot read grid {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise errors.ValidationError(f"grid is not valid JSON: {exc}") from exc
        return cls.from_dict(obj)


def run_sweep(grid: SweepGrid, specs, query_bank: EmbeddingBank, labels,
              llm_bank: EmbeddingBank, vlm_bank: EmbeddingBank,
              base_config: EnrichmentConfig | None = None,
              dataset: str = "synthetic", threads: int = 1,
              merge_aliases: str = "before") -> list[EvalReport]:
    """Evaluate every grid point. Report order follows the grid axes.

    Retrieval runs once per sweep at the base config's k; each grid point
    then costs fusion plus scoring, and its report equals the ``run_eval``
    report of that point.
    """
    base = base_config if base_config is not None else EnrichmentConfig()
    configs = [replace(base, alpha=alpha, beta=beta, tau_tt=tau_tt,
                       tau_it=tau_it, use_temperature_tt=use_tt,
                       use_temperature_it=use_it)
               for alpha, beta, tau_tt, tau_it, (use_tt, use_it)
               in grid.points()]
    return _evaluate(configs, specs, query_bank, labels, llm_bank, vlm_bank,
                     None, None, None, threads, dataset, merge_aliases)


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

    def build_specs(self):
        classes, zs_template, rt_template = parse_class_config(self.class_config)
        return build_class_specs(classes, zs_template, rt_template,
                                 self.prototype_bank, self.retrieval_query_bank)

    def save(self, out_dir) -> None:
        out = Path(out_dir)
        try:
            out.mkdir(parents=True, exist_ok=True)
            bank_save(self.queries, out / "queries.bank")
            bank_save(self.prototype_bank, out / "prototypes.bank")
            bank_save(self.retrieval_query_bank, out / "retrieval_queries.bank")
            bank_save(self.llm_bank, out / "llm_db.bank")
            bank_save(self.vlm_bank, out / "vlm_db.bank")
            with open(out / "labels.json", "w", encoding="utf-8") as fh:
                json.dump(list(self.labels), fh)
            with open(out / "classes.json", "w", encoding="utf-8") as fh:
                json.dump(self.class_config, fh, indent=2)
        except OSError as exc:
            raise errors.IoError(f"cannot write fixture to {out}: {exc}") from exc


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


def load_fixture_dir(fixture_dir) -> SynthFixture:
    """Read back a fixture written by :meth:`SynthFixture.save`."""
    from .bank import bank_load
    d = Path(fixture_dir)
    try:
        with open(d / "labels.json", encoding="utf-8") as fh:
            labels = json.load(fh)
        with open(d / "classes.json", encoding="utf-8") as fh:
            class_config = json.load(fh)
    except OSError as exc:
        raise errors.IoError(f"cannot read fixture at {d}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise errors.ValidationError(f"fixture JSON is invalid: {exc}") from exc
    return SynthFixture(
        queries=bank_load(d / "queries.bank"),
        labels=tuple(int(x) for x in labels),
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


def emit_report(reports: list[EvalReport], fmt: str, path,
                include_timing: bool = True) -> None:
    """Write reports as versioned JSON or a fixed-header CSV.

    CSV carries no timing columns, so byte-identical runs produce
    byte-identical files; JSON keeps timings in a wall_time_ms field that
    comparisons are expected to strip.
    """
    if fmt not in ("json", "csv"):
        raise errors.ValidationError(f"unknown report format {fmt!r}")
    if not reports:
        raise errors.ValidationError("no reports to write")
    path = Path(path)
    try:
        if fmt == "json":
            payload = {
                "schema_version": REPORT_SCHEMA_VERSION,
                "reports": [r.to_json_dict(include_timing=include_timing)
                            for r in reports],
            }
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(payload, fh, indent=2)
                fh.write("\n")
        else:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(CSV_HEADER + "\n")
                for report in reports:
                    fh.write(report_csv_row(report) + "\n")
    except OSError as exc:
        raise errors.IoError(f"cannot write report to {path}: {exc}") from exc
