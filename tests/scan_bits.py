"""Exact-scan hits against a plain per-block scan, for a subprocess.

    python tests/scan_bits.py OUT.npz [WORKDIR]

Runs ``index.search`` over a fixed list of shapes and writes, per case,
its ids and scores (``ids<i>``, ``scores<i>``) and those of a plain scan
(``ref_ids<i>``, ``ref_scores<i>``): one ``block @ query`` per block of
``SCAN_BLOCK`` rows, fully sorted by (score desc, id asc). The plain scan
is the reference only when this runs with ``OPENBLAS_NUM_THREADS=1``;
``test_index.py`` runs it at 1 and 2 threads and compares. It also writes
the case's bank rows, query rows and scan block (``shape<i>``) and the
query rows of each selection product, in scan order (``runs<i>``), and
the OpenBLAS core it ran (``core``, empty where it cannot be read), so
that a forced ``OPENBLAS_CORETYPE`` can be checked to have taken. WORKDIR
holds the memory-mapped banks (default: a temporary directory).
"""

import sys
import tempfile
from pathlib import Path

import numpy as np

import retroclass.index as index_mod
from retroclass.bank import EmbeddingBank, bank_load, bank_save

QUERY_ROWS = (1, 63, 64, 65, 130)


def cases(rng):
    """(m, d, query rows, k, scan block or None, variant) per case."""
    out = []
    for t in range(8):  # every m mod 8, random m up to 20k and d up to 1024
        m = int(rng.integers(0, 2500)) * 8 + t or 8
        d = int(rng.integers(1, 1025))
        k = (1, 10, 37)[t % 3]
        out.append((m, d, QUERY_ROWS[t % 5], k, None, "random"))
    out += [
        (20000, 1024, 65, 10, None, "random"),
        (8193, 256, 64, 8193, None, "random"),        # k >= m
        (3001, 96, 130, 5000, None, "random"),        # k > m
        (2600, 300, 63, 20, 1000, "random"),          # short last block
        (2013, 40, 64, 3000, 1000, "random"),         # ... with k > m
        (6000, 128, 65, 12, None, "duplicates"),      # duplicate rows, ties
        (999, 7, 130, 50, None, "duplicates"),
        (3000, 64, 64, 10, None, "near-ties"),        # scores ulps apart
        (3000, 64, 64, 10, None, "scaled"),           # ... mapped, x 1e3
        (4100, 256, 1, 10, None, "scaled"),
        (3000, 64, 64, 10, None, "overflow"),         # x 1e20: N in float64
        (20001, 5, 64, 10, None, "random"),           # narrow rows
        (16390, 2, 1, 40, None, "duplicates"),
        # selection products wider than QUERY_BLOCK rows
        (8192, 256, 300, 10, None, "random"),         # sweep-grid's shape
        (999, 7, 1000, 10, None, "duplicates"),
        (2000, 48, 4, 10, None, "near-ties"),         # the smallest GEMM
        # a full block takes QUERY_BLOCK rows per product, a short one more
        (index_mod.SCAN_BLOCK + 1000, 64, 130, 10, None, "random"),
        # k at least the column groups: the exact k-th selection score
        (8192, 256, 64, 300, None, "random"),
    ]
    return out


CANDIDATES = index_mod._candidates


class RunLog:
    """Records the query rows of each selection product ``_scan`` makes.
    ``_scan`` passes ``_candidates`` each product whole, once."""

    def __init__(self):
        self.widths = []

    def __call__(self, scores, k, margin):
        self.widths.append(scores.shape[0])
        return CANDIDATES(scores, k, margin)


def near_ties(rng, m, d):
    """Rows within about 1e-6 of one direction in their first two thirds,
    random after, and queries near that direction: a query's top scores are
    a few float32 ulps apart, so a product that sums in another order
    ranks them differently."""
    matrix = rng.standard_normal((m, d))
    matrix[:2 * m // 3] = matrix[0] + 1e-6 * rng.standard_normal(
        (2 * m // 3, d))
    return matrix


def scaled_copy(bank, factor, path):
    """``bank`` saved to ``path`` with its payload rows multiplied by
    ``factor`` in the file, and loaded back: rows that ``bank_load`` does
    not re-check."""
    bank_save(bank, path)
    raw = bytearray(path.read_bytes())
    start = len(raw) - bank.count * bank.dim * 4
    rows = np.frombuffer(bytes(raw[start:]), "<f4") * np.float32(factor)
    raw[start:] = rows.astype("<f4").tobytes()
    path.write_bytes(bytes(raw))
    return bank_load(path)


def make_bank(rng, m, d, variant, workdir, i):
    matrix = rng.standard_normal((m, d))
    if variant == "duplicates":
        matrix[1::7] = matrix[0]
        matrix[5::11] = matrix[3]
    if variant in ("near-ties", "scaled", "overflow"):
        matrix = near_ties(rng, m, d)
    bank = EmbeddingBank.from_matrix(matrix, "llm-text")
    if variant in ("scaled", "overflow"):
        factor = 1e3 if variant == "scaled" else 1e20
        return scaled_copy(bank, factor, Path(workdir) / f"scaled{i}.bank")
    return bank


def plain_scan(vectors, queries, k):
    ids, scores = [], []
    for q in queries:
        full = np.concatenate([vectors[s:s + index_mod.SCAN_BLOCK] @ q
                               for s in range(0, vectors.shape[0],
                                              index_mod.SCAN_BLOCK)])
        order = np.lexsort((np.arange(full.shape[0]), -full))[:k]
        ids.append(order)
        scores.append(full[order].astype(np.float64))
    return np.array(ids), np.array(scores)


def main(out, workdir):
    # here, not at the top: test_index.py imports this module
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))
    from bench_scan import blas_core

    rng = np.random.default_rng(20240)
    arrays = {"core": np.array(blas_core() or "")}
    default_block = index_mod.SCAN_BLOCK
    for i, (m, d, nq, k, block, variant) in enumerate(cases(rng)):
        bank = make_bank(rng, m, d, variant, workdir, i)
        queries = rng.standard_normal((nq, d))
        if variant in ("near-ties", "scaled", "overflow"):
            top = np.asarray(bank.vectors[0], np.float64)
            queries = top / np.linalg.norm(top) + 0.3 * queries / np.sqrt(d)
        same = min(3, nq)  # queries equal to bank rows
        queries[nq - same:] = np.asarray(bank.vectors[:same])
        queries = (queries / np.linalg.norm(queries, axis=1,
                                            keepdims=True)).astype(np.float32)
        index_mod.SCAN_BLOCK = block or default_block
        index_mod._candidates = runs = RunLog()
        table = index_mod.search(bank, queries, k)
        index_mod._candidates = CANDIDATES
        assert (table.counts == min(k, m)).all()
        arrays[f"ids{i}"], arrays[f"scores{i}"] = table.ids, table.scores
        arrays[f"shape{i}"] = np.array([m, nq, index_mod.SCAN_BLOCK])
        arrays[f"runs{i}"] = np.array(runs.widths)
        arrays[f"ref_ids{i}"], arrays[f"ref_scores{i}"] = plain_scan(
            bank.vectors, queries, k)
        index_mod.SCAN_BLOCK = default_block
    np.savez(out, **arrays)


if __name__ == "__main__":
    if len(sys.argv) > 2:
        main(sys.argv[1], sys.argv[2])
    else:
        with tempfile.TemporaryDirectory() as tmp:
            main(sys.argv[1], tmp)
