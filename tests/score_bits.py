"""Stacked scoring, norm and merge calls against per-row loops, for a
subprocess.

    python tests/score_bits.py OUT.npz

Runs ``classify.cosine_rows``, ``classify.logits_rows``, ``bank.row_norms``,
``ClassTable.merged`` and ``classify.label_ranks`` over a fixed list of
cases and writes, per case, their result (``got_<case>``) and that of a
plain loop with one BLAS call per row (``ref_<case>``): ``p64 @ row`` per
query row, ``sqrt(row.dot(row))`` per row, one ``merge_alias_prototypes``
per class, and the label's position in ``rank_rows``' full stable sort. A
merge whose rows cancel writes the error's class name instead of rows. It
also writes the OpenBLAS core it ran (``core``, empty where it cannot be
read), so that ``test_classify.py`` can run it under ``OPENBLAS_CORETYPE``
and ``OPENBLAS_NUM_THREADS`` and check that the forced core took.
"""

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))
from bench_scan import blas_core  # noqa: E402

from retroclass import errors  # noqa: E402
from retroclass.bank import EmbeddingBank, row_norms  # noqa: E402
from retroclass.classify import (cosine_rows, label_ranks,  # noqa: E402
                                 logits_rows, prototype_norms, rank_rows)
from retroclass.prompts import (PromptTemplate,  # noqa: E402
                                build_class_specs, merge_alias_prototypes)

# (query rows, classes, dim); 256 x 64 x 256 is the sweep-grid fixture's
SCORE_SHAPES = ((1, 3, 8), (63, 200, 64), (130, 7, 1), (5, 1000, 33),
                (256, 64, 256), (64, 256, 1024))
NORM_DIMS = (1, 2, 7, 8, 9, 33, 256, 1024)


def loop_norms(rows):
    rows = np.ascontiguousarray(rows, dtype=np.float64)
    return np.sqrt(np.array([row.dot(row) for row in rows], dtype=np.float64))


def loop_logits(queries, prototypes):
    q = np.ascontiguousarray(queries, dtype=np.float64)
    p64 = np.asarray(prototypes, dtype=np.float64)
    raw = np.empty((q.shape[0], p64.shape[0]), dtype=np.float64)
    for i, row in enumerate(q):
        raw[i] = p64 @ row
    pnorms = prototype_norms(np.asarray(prototypes, dtype=np.float32))
    return np.clip(raw / (pnorms * loop_norms(q)[:, None]), -1.0, 1.0)


def loop_label_ranks(scores, labels):
    return np.argmax(rank_rows(scores) == labels[:, None], axis=1)


def unit(rng, n, d, dtype=np.float32):
    rows = rng.standard_normal((n, d))
    return (rows / np.linalg.norm(rows, axis=1, keepdims=True)).astype(dtype)


def merged_or_error(merge, rows):
    try:
        return merge(rows)
    except errors.DegenerateMerge as exc:
        return np.array(type(exc).__name__)


def table(rng, names_per_class, dim):
    classes = [(f"class {c}", [f"alias {c}.{a}" for a in range(n - 1)])
               for c, n in enumerate(names_per_class)]
    n_rows = sum(names_per_class)
    return build_class_specs(
        classes, PromptTemplate.generic(), PromptTemplate.generic(),
        EmbeddingBank(unit(rng, n_rows, dim), "vlm-text"),
        EmbeddingBank(unit(rng, n_rows, dim), "llm-text"))


def score_cases(rng, out):
    for i, (n, c, d) in enumerate(SCORE_SHAPES):
        queries, protos = unit(rng, n, d), unit(rng, c, d)
        out[f"logits{i}"] = (logits_rows(queries, protos),
                             loop_logits(queries, protos))
        q64 = queries.astype(np.float64)
        out[f"cosine{i}"] = (
            cosine_rows(q64, protos, loop_norms(q64), prototype_norms(protos)),
            loop_logits(q64, protos))
        # a float64 view one element in two: each row still takes the
        # contiguous row's calls
        wide = np.repeat(q64, 2, axis=1)[:, ::2]
        out[f"strided{i}"] = (logits_rows(wide, protos),
                              loop_logits(q64, protos))


def norm_cases(rng, out):
    for d in NORM_DIMS:
        rows = rng.standard_normal((97, d)) * rng.uniform(0.1, 10.0, (97, 1))
        out[f"norms{d}"] = (row_norms(rows), loop_norms(rows))
        out[f"norms32_{d}"] = (row_norms(rows.astype(np.float32)),
                               loop_norms(rows.astype(np.float32)))
        wide = np.repeat(rows, 2, axis=1)[:, ::2]
        out[f"norms_strided{d}"] = (row_norms(wide), loop_norms(rows))


def merge_cases(rng, out):
    for d in (1, 6, 64, 256):
        names = rng.integers(1, 4, 60)
        names[:3] = (1, 2, 3)
        t = table(rng, names.tolist(), d)

        def loop(rows):
            return np.vstack([merge_alias_prototypes(rows[a:b])
                              for a, b in zip(t.bounds[:-1], t.bounds[1:])])

        noisy = rng.standard_normal(t.prototypes.shape)
        cancel = np.array(noisy)  # class 2's rows sum to zero
        cancel[t.bounds[2] + 1] = -cancel[t.bounds[2]]
        cancel[t.bounds[2] + 2] = 0.0
        for name, rows in (("prototypes", t.prototypes),
                           ("queries", t.retrieval_queries),
                           ("noisy", noisy), ("cancel", cancel)):
            out[f"merged_{name}{d}"] = (merged_or_error(t.merged, rows),
                                        merged_or_error(loop, rows))


def rank_cases(rng, out):
    n, c = 300, 40
    scores = {
        "random": rng.standard_normal((n, c)),
        # a few values only: exact ties everywhere
        "ties": rng.integers(-2, 3, (n, c)) / 4.0,
        # -0.0 and 0.0 compare equal and tie
        "signed_zeros": rng.choice(np.array([-0.0, 0.0, 0.5, -0.5]), (n, c)),
        "cosines": logits_rows(unit(rng, n, 64), unit(rng, c, 64)),
    }
    for name, s in scores.items():
        labels = rng.integers(0, c, n)
        labels[:c] = np.arange(c)  # every column, the last one included
        labels[-5:] = c - 1
        out[f"ranks_{name}"] = (label_ranks(s, labels),
                                loop_label_ranks(s, labels))


def main(path):
    rng = np.random.default_rng(7)
    cases = {}
    for fill in (score_cases, norm_cases, merge_cases, rank_cases):
        fill(rng, cases)
    arrays = {"core": np.array(blas_core() or "")}
    for name, (got, ref) in cases.items():
        arrays[f"got_{name}"], arrays[f"ref_{name}"] = got, ref
    np.savez(path, **arrays)


if __name__ == "__main__":
    main(sys.argv[1])
