"""IVF hits of a built index and of the same index saved and loaded, for a
subprocess.

    python tests/ivf_bits.py OUT.npz WORKDIR

A built index gathers each probed list's rows from its bank; a loaded one
slices them from its own file. For each case this writes both searches'
ids and scores (``built_ids<i>``, ``built_scores<i>``, ``loaded_ids<i>``,
``loaded_scores<i>``). The lists hold every size mod 16, one list is
empty and one is longer than ``SCAN_BLOCK`` (set to 1,500 rows here), so
the lists are read in full and short chunks; at d 48 and d 7 OpenBLAS
splits those products between threads when more than one is allowed.
``test_index.py`` runs it at 1 and 2 BLAS threads and compares.
"""

import sys
from pathlib import Path

import numpy as np

import retroclass.index as index_mod
from retroclass.bank import EmbeddingBank
from retroclass.index import IvfIndex, load_index, save_index, search

SCAN_BLOCK = 1500
LONG_LIST = 4000  # chunks of 1,500, 1,500 and 1,000 rows


def list_sizes(rng) -> list[int]:
    sizes = [r + 16 * int(rng.integers(0, 40)) for r in range(16)]
    return sizes + [0, LONG_LIST]


def case(rng, dim: int, path: Path, out: dict, i: int) -> int:
    """Write case ``i`` onward into ``out``; the next case number."""
    sizes = list_sizes(rng)
    n = sum(sizes)
    bank = EmbeddingBank.from_matrix(rng.standard_normal((n, dim)), "llm-text")
    ids = rng.permutation(n).astype(np.uint64)
    lists = [np.sort(part) for part in np.split(ids, np.cumsum(sizes)[:-1])]
    centroids = EmbeddingBank.from_matrix(
        rng.standard_normal((len(sizes), dim)), "llm-text").vectors
    built = IvfIndex(len(sizes), dim, 0, np.array(centroids),
                     lists).attach(bank)
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
            i += 1
    return i


def main(out_path: str, workdir: str) -> None:
    index_mod.SCAN_BLOCK = SCAN_BLOCK
    rng = np.random.default_rng(1516)
    out, i = {}, 0
    for dim in (48, 7):
        i = case(rng, dim, Path(workdir) / f"d{dim}.ivf", out, i)
    np.savez(out_path, **out)


if __name__ == "__main__":
    main(*sys.argv[1:3])
