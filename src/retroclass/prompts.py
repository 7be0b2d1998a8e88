"""Prompt templates and the class table.

Two prompt styles exist: a generic one ("a photo of a {CLS}") and a
domain-specific one ("a {domain word} of a {CLS}"). Substitution is verbatim,
with no article agreement, so "a amplifier" is the expected rendering.

A classification setup typically uses the domain-specific template for the
zero-shot prompt and the generic template for the retrieval prompt; both are
carried per prompt row so the two encoders can be driven independently.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import errors
from .bank import EmbeddingBank, row_norms
from .files import read_json

GENERIC_PREFIX = "a photo of a"


@dataclass(frozen=True)
class PromptTemplate:
    """A prompt prefix; expansion appends the class name."""

    prefix: str
    style: str = "generic"
    domain_word: str | None = None

    def __post_init__(self):
        if self.style not in ("generic", "domain_specific"):
            raise errors.ValidationError(f"unknown template style {self.style!r}")
        if not isinstance(self.prefix, str) or not self.prefix.strip():
            raise errors.ValidationError("template prefix must be non-empty")
        if self.style == "generic" and " ".join(self.prefix.split()) != GENERIC_PREFIX:
            raise errors.ValidationError(
                f'generic templates must use the prefix "{GENERIC_PREFIX}"')

    @classmethod
    def generic(cls) -> "PromptTemplate":
        return cls(GENERIC_PREFIX, style="generic")

    @classmethod
    def domain_specific(cls, domain_word: str) -> "PromptTemplate":
        if not domain_word or not domain_word.strip():
            raise errors.ValidationError("domain word must be non-empty")
        word = " ".join(domain_word.split())
        return cls(f"a {word} of a", style="domain_specific", domain_word=word)

    @classmethod
    def from_prefix(cls, prefix: str) -> "PromptTemplate":
        cleaned = " ".join(prefix.split())
        if cleaned == GENERIC_PREFIX:
            return cls.generic()
        return cls(cleaned, style="domain_specific")


def expand_template(template: PromptTemplate, class_name: str) -> str:
    """Render the prompt for one class name.

    Output has no leading or trailing whitespace and single spaces between
    tokens; the class name appears exactly once, verbatim.
    """
    if not isinstance(class_name, str) or not class_name.strip():
        raise errors.EmptyClassName("class name must be non-empty")
    return " ".join(f"{template.prefix} {class_name}".split())


@dataclass(frozen=True)
class ClassTable:
    """Every class's prompt rows, stacked in one table.

    Row r is the r-th rendered prompt, walking classes in declared order and
    names within a class as (primary, aliases...); class c owns rows
    ``bounds[c]:bounds[c + 1]``. Alias rows stay separate until a merge
    policy combines them.
    """

    names: tuple[tuple[str, ...], ...]  # per class: primary name, then aliases
    zeroshot_prompts: tuple[str, ...]
    retrieval_prompts: tuple[str, ...]
    prototypes: np.ndarray          # (rows, dim) float32 unit rows
    retrieval_queries: np.ndarray   # (rows, retrieval dim) float32 unit rows
    bounds: np.ndarray              # (n_classes + 1,) row offsets
    prototype_space: str
    retrieval_space: str

    def __len__(self) -> int:
        return len(self.names)

    def merged(self, rows) -> np.ndarray:
        """One :func:`merge_alias_prototypes` row per class of ``rows``,
        which are laid out like the table's, with its bits: one ``reduceat``
        sums each class's rows in order, as its mean does."""
        means = np.add.reduceat(np.asarray(rows, dtype=np.float64),
                                self.bounds[:-1], axis=0)
        means /= np.diff(self.bounds)[:, None]
        norms = row_norms(means)
        if (norms <= 1e-8).any():
            raise errors.DegenerateMerge("merged vectors cancel out")
        return (means / norms[:, None]).astype(np.float32)

    @cached_property
    def merged_prototypes(self) -> np.ndarray:
        """``merged(prototypes)``, computed once per table, read-only."""
        out = self.merged(self.prototypes)
        out.setflags(write=False)
        return out


def merge_alias_prototypes(vectors) -> np.ndarray:
    """Renormalized mean of the given vectors. Permutation invariant."""
    matrix = np.asarray(vectors, dtype=np.float64)
    if matrix.ndim == 1:
        matrix = matrix[None, :]
    if matrix.shape[0] == 0:
        raise errors.EmptyMerge("no vectors to merge")
    mean = matrix.mean(axis=0)
    norm = np.linalg.norm(mean)
    if norm <= 1e-8:
        raise errors.DegenerateMerge("merged vectors cancel out")
    return (mean / norm).astype(np.float32)


def build_class_specs(classes: list[tuple[str, list[str]]],
                      zeroshot_template: PromptTemplate,
                      retrieval_template: PromptTemplate,
                      prototype_bank: EmbeddingBank,
                      retrieval_query_bank: EmbeddingBank) -> ClassTable:
    """Assemble the class table from class declarations plus two aligned
    prompt banks, whose row r is the table's row r."""
    if not classes:
        raise errors.ValidationError("class list is empty")
    seen = set()
    for name, _ in classes:
        if not isinstance(name, str) or not name.strip():
            raise errors.EmptyClassName("class name must be non-empty")
        if name in seen:
            raise errors.ValidationError(f"duplicate class name {name!r}")
        seen.add(name)
    names = tuple((name, *aliases) for name, aliases in classes)
    flat = [nm for class_names in names for nm in class_names]
    for bank, label in ((prototype_bank, "prototype"),
                        (retrieval_query_bank, "retrieval query")):
        if bank.count != len(flat):
            raise errors.PromptBankMismatch(
                f"{len(flat)} prompts but {label} bank has {bank.count} rows")
    prototypes = np.array(prototype_bank.vectors, dtype=np.float32)
    retrieval_queries = np.array(retrieval_query_bank.vectors, dtype=np.float32)
    bounds = np.cumsum([0] + [len(n) for n in names])
    for arr in (prototypes, retrieval_queries, bounds):
        arr.setflags(write=False)
    return ClassTable(
        names=names,
        zeroshot_prompts=tuple(expand_template(zeroshot_template, nm)
                               for nm in flat),
        retrieval_prompts=tuple(expand_template(retrieval_template, nm)
                                for nm in flat),
        prototypes=prototypes,
        retrieval_queries=retrieval_queries,
        bounds=bounds,
        prototype_space=prototype_bank.space_tag,
        retrieval_space=retrieval_query_bank.space_tag,
    )


# ---------------------------------------------------------------------------
# class config file: {"classes": [{"name": ..., "aliases": [...]}, ...],
#                     "zeroshot_prefix": ..., "retrieval_prefix": ...}


def parse_class_config(obj: dict) -> tuple[list[tuple[str, list[str]]],
                                           PromptTemplate, PromptTemplate]:
    if not isinstance(obj, dict):
        raise errors.ValidationError("class config must be a JSON object")
    try:
        raw_classes = obj["classes"]
        zs_prefix = obj["zeroshot_prefix"]
        rt_prefix = obj["retrieval_prefix"]
    except KeyError as exc:
        raise errors.ValidationError(f"class config missing key {exc}") from exc
    if not isinstance(raw_classes, list) or not raw_classes:
        raise errors.ValidationError("class config needs a non-empty class list")
    classes = []
    for entry in raw_classes:
        if not isinstance(entry, dict) or "name" not in entry:
            raise errors.ValidationError("each class entry needs a name")
        aliases = entry.get("aliases", [])
        if not isinstance(aliases, list) or not all(isinstance(a, str) for a in aliases):
            raise errors.ValidationError("aliases must be a list of strings")
        classes.append((entry["name"], list(aliases)))
    return (classes,
            PromptTemplate.from_prefix(zs_prefix),
            PromptTemplate.from_prefix(rt_prefix))


def load_class_config(path) -> tuple[list[tuple[str, list[str]]],
                                     PromptTemplate, PromptTemplate]:
    return read_json(path, "class config", parse_class_config)
