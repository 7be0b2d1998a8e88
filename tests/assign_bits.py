"""The IVF assignment pass against one product per ``SCAN_BLOCK`` block,
for a subprocess.

    python tests/assign_bits.py OUT.npz

For each case this runs ``index._assign`` with ``check`` on and records the
scores of every product it makes (through ``_check_finite_rows``). It
writes its labels, the scores and the row count of each of its products
(``labels<i>``, ``scores<i>``, ``pieces<i>``), the rows of ``_MAP_BYTES``
(``window<i>``), and the labels and scores of a plain
``np.argmax(block @ centroids.T, axis=1)`` over blocks of ``SCAN_BLOCK``
rows (``ref_labels<i>``, ``ref_scores<i>``). The cases set ``_MAP_BYTES``
so that the budget, not the score buffer, sizes some of the products, take
banks of one and of two blocks, none a multiple of a product, and give two
centroids the same row, so some rows tie. It also writes the OpenBLAS core
it ran (``core``, empty where it cannot be read), so that ``test_index.py``
can run it under ``OPENBLAS_CORETYPE`` and ``OPENBLAS_NUM_THREADS`` and
check that the forced core took.
"""

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))
from bench_scan import blas_core  # noqa: E402

import retroclass.files as files_mod  # noqa: E402
import retroclass.index as index_mod  # noqa: E402

# (rows, dim, clusters, _MAP_BYTES or None for the default)
CASES = ((30001, 256, 128, None), (30001, 256, 128, 1 << 20),
         (140003, 16, 7, None), (140003, 16, 7, 16 * 4 * 1500),
         (140000, 8, 2, None), (5000, 1024, 64, None),
         (5000, 1024, 64, 4 << 20), (9001, 96, 16, 96 * 4 * 2000),
         (3001, 37, 5, 37 * 4 * 1200))


def unit(rng, n, d):
    rows = rng.standard_normal((n, d), dtype=np.float32)
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def reference(rows, centroids):
    scores = np.empty((len(rows), len(centroids)), np.float32)
    for start in range(0, len(rows), index_mod.SCAN_BLOCK):
        block = rows[start:start + index_mod.SCAN_BLOCK]
        scores[start:start + len(block)] = block @ centroids.T
    return np.argmax(scores, axis=1), scores


def assign(rows, centroids):
    """``_assign``'s labels, the scores of its products and their rows."""
    products = []
    real = index_mod._check_finite_rows

    def spy(values, ids):
        products.append((int(ids[0]), values.copy()))
        real(values, ids)

    index_mod._check_finite_rows = spy
    try:
        labels = index_mod._assign(rows, centroids, check=True)
    finally:
        index_mod._check_finite_rows = real
    scores = np.vstack([values for _, values in products])
    assert [first for first, _ in products] == \
        np.cumsum([0] + [len(v) for _, v in products])[:-1].tolist()
    return labels, scores, np.array([len(v) for _, v in products])


def main(path):
    rng = np.random.default_rng(23)
    arrays = {"core": np.array(blas_core() or "")}
    default = files_mod._MAP_BYTES
    for i, (n, d, c, budget) in enumerate(CASES):
        rows, centroids = unit(rng, n, d), unit(rng, c, d)
        centroids[-1] = centroids[0]  # a tie on every row that picks it
        files_mod._MAP_BYTES = default if budget is None else budget
        try:
            labels, scores, pieces = assign(rows, centroids)
            arrays[f"window{i}"] = np.array(files_mod.window_rows(rows))
        finally:
            files_mod._MAP_BYTES = default
        ref_labels, ref_scores = reference(rows, centroids)
        arrays.update({f"labels{i}": labels, f"scores{i}": scores,
                       f"pieces{i}": pieces, f"ref_labels{i}": ref_labels,
                       f"ref_scores{i}": ref_scores,
                       f"shape{i}": np.array([n, d, c])})
    np.savez(path, **arrays)


if __name__ == "__main__":
    main(sys.argv[1])
