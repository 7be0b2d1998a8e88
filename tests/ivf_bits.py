"""IVF hits of a built index and of the same index saved and loaded, for a
subprocess.

    python tests/ivf_bits.py OUT.npz WORKDIR

A built index gathers each probed list's rows from its bank; a loaded one
slices them from its own file. For each case this writes both searches'
ids and scores (``built_ids<i>``, ``built_scores<i>``, ``loaded_ids<i>``,
``loaded_scores<i>``), the same searches made one row at a time and
stacked (``built_alone_ids<i>`` and so on), and, for each hit of the
built search, its score in one ``block @ query`` over the hit's whole
``SCAN_BLOCK`` chunk of its list (``chunk_scores<i>``).

At d 48 and d 7 the lists hold every size mod 16, one list is empty and
one is longer than ``SCAN_BLOCK`` (set to 1,500 rows for these cases), so
the lists are read in full and short chunks, and the scan's tiles are set
to 64 rows at d 48, so that every list of more than 127 rows crosses tile
edges (at d 7 a chunk is one tile). A d 256 case keeps the module's own
sizes: its lists take 1,024-row tiles, whose products OpenBLAS splits
between threads when more than one is allowed, and at 2 threads such a
tile's bits can differ from a whole-list product's. ``test_index.py``
runs it at 1 and 2 BLAS threads and compares. It also writes the OpenBLAS
core it ran (``core``, empty where it cannot be read), so that a forced
``OPENBLAS_CORETYPE`` can be checked to have taken.
"""

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))
from bench_scan import blas_core  # noqa: E402

import retroclass.index as index_mod  # noqa: E402
from retroclass.bank import EmbeddingBank  # noqa: E402
from retroclass.index import (IvfIndex, load_index, save_index,  # noqa: E402
                              search)

SCAN_BLOCK = 1500
LONG_LIST = 4000  # chunks of 1,500, 1,500 and 1,000 rows
TILE_BYTES = 64 * 48 * 4  # 64-row tiles at d 48
# d 256 at the module's own chunk and tile sizes: lists of 2 to 6 tiles of
# 1,024 rows, products that OpenBLAS splits between threads
LARGE_LISTS = [2185, 3310, 3763, 6182, 700]


def list_sizes(rng) -> list[int]:
    sizes = [r + 16 * int(rng.integers(0, 40)) for r in range(16)]
    return sizes + [0, LONG_LIST]


def case(rng, dim: int, sizes: list[int], path: Path, out: dict,
         i: int) -> int:
    """Write case ``i`` onward into ``out``; the next case number."""
    n = sum(sizes)
    bank = EmbeddingBank.from_matrix(rng.standard_normal((n, dim)), "llm-text")
    ids = rng.permutation(n).astype(np.uint64)
    lists = [np.sort(part) for part in np.split(ids, np.cumsum(sizes)[:-1])]
    centroids = EmbeddingBank.from_matrix(
        rng.standard_normal((len(sizes), dim)), "llm-text").vectors
    built = IvfIndex(len(sizes), dim, 0, np.array(centroids),
                     np.cumsum([0] + sizes), np.concatenate(lists)
                     ).attach(bank)
    save_index(built, path)
    loaded = load_index(path, bank)
    noisy = bank.vectors[rng.integers(0, n, 40)] + \
        0.3 * rng.standard_normal((40, dim)) / np.sqrt(dim)
    queries = EmbeddingBank.from_matrix(noisy, "llm-text").vectors
    for nprobe in (1, 3, len(sizes) - 1):
        for k in (10, 700):
            for name, index in (("built", built), ("loaded", loaded)):
                table = search(bank, queries, k, index, nprobe)
                out[f"{name}_ids{i}"] = table.ids
                out[f"{name}_scores{i}"] = table.scores
                alone = [search(bank, queries[r:r + 1], k, index, nprobe)
                         for r in range(len(queries))]
                out[f"{name}_alone_ids{i}"] = np.vstack([t.ids for t in alone])
                out[f"{name}_alone_scores{i}"] = np.vstack(
                    [t.scores for t in alone])
                if name == "built":
                    out[f"chunk_scores{i}"] = chunk_scores(bank, lists,
                                                           queries, table)
            i += 1
    return i


def chunk_scores(bank, lists, queries, table) -> np.ndarray:
    """Each hit's score in one ``block @ query`` over its whole chunk."""
    where = {}  # bank id: (list, chunk start, position in the chunk)
    for c, ids in enumerate(lists):
        for j, id_ in enumerate(ids.tolist()):
            start = j - j % index_mod.SCAN_BLOCK
            where[id_] = (c, start, j - start)
    products = {}  # (list, chunk start, row): the chunk's scores
    out = np.zeros(table.scores.shape, np.float32)
    for r in range(len(queries)):
        for col in range(int(table.counts[r])):
            c, start, pos = where[int(table.ids[r, col])]
            if (c, start, r) not in products:
                block = bank.vectors[lists[c][start:start +
                                              index_mod.SCAN_BLOCK]]
                products[c, start, r] = block @ queries[r]
            out[r, col] = products[c, start, r][pos]
    return out


def main(out_path: str, workdir: str) -> None:
    defaults = index_mod.SCAN_BLOCK, index_mod._TILE_BYTES
    index_mod.SCAN_BLOCK, index_mod._TILE_BYTES = SCAN_BLOCK, TILE_BYTES
    rng = np.random.default_rng(1516)
    out, i = {"core": np.array(blas_core() or "")}, 0
    for dim in (48, 7):
        i = case(rng, dim, list_sizes(rng), Path(workdir) / f"d{dim}.ivf",
                 out, i)
    index_mod.SCAN_BLOCK, index_mod._TILE_BYTES = defaults
    i = case(rng, 256, LARGE_LISTS, Path(workdir) / "d256.ivf", out, i)
    np.savez(out_path, **out)


if __name__ == "__main__":
    main(*sys.argv[1:3])
