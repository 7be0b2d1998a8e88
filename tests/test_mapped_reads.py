"""Full passes over mapped banks and index files release their pages
(``files.windows``, ``files.PageBudget``): every result is the same
whatever the budget, edits to a copy-on-write mapping survive, and a pass
keeps far less than the file resident."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import retroclass
import retroclass.files as files_mod
import retroclass.index as index_mod
from retroclass import errors
from retroclass.bank import (EmbeddingBank, bank_build, bank_load, bank_save,
                             check_norms, norm_bound)
from retroclass.index import build_ivf, load_index, save_index, search

ROWS, DIM = 700, 8
ROW_BYTES = DIM * 4
BUDGETS = {"one_row": ROW_BYTES, "seven_rows": 7 * ROW_BYTES,
           "default": files_mod._MAP_BYTES}


@pytest.fixture(params=list(BUDGETS))
def budget(request, monkeypatch):
    """Run the test with ``_MAP_BYTES`` at one row, seven rows and the
    default; the value holds the releases made."""
    monkeypatch.setattr(files_mod, "_MAP_BYTES", BUDGETS[request.param])
    released = []
    real = files_mod._release

    def release(mapping):
        released.append(mapping)
        real(mapping)

    monkeypatch.setattr(files_mod, "_release", release)
    return released


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    """A raw ``.npy`` input, the bank built from it, its 4-list index and
    queries, written once under the default budget."""
    tmp = tmp_path_factory.mktemp("mapped")
    rng = np.random.default_rng(7)
    np.save(tmp / "in.npy", rng.standard_normal((ROWS, DIM)).astype(np.float32))
    bank_build(np.load(tmp / "in.npy", mmap_mode="r"), "llm-text",
               tmp / "b.bank")
    bank = bank_load(tmp / "b.bank")
    save_index(build_ivf(bank, 2, seed=3), tmp / "b.ivf")
    noisy = np.asarray(bank.vectors[:24]) + 0.2 * rng.standard_normal((24, DIM))
    queries = EmbeddingBank.from_matrix(noisy, "llm-text").vectors
    return tmp, queries


def _bytes(path):
    return Path(path).read_bytes()


def test_bank_build_and_save_are_budget_invariant(saved, budget, tmp_path):
    tmp, _ = saved
    bank_build(np.load(tmp / "in.npy", mmap_mode="r"), "llm-text",
               tmp_path / "b.bank")
    assert _bytes(tmp_path / "b.bank") == _bytes(tmp / "b.bank")
    bank_save(bank_load(tmp / "b.bank"), tmp_path / "copy.bank")
    assert _bytes(tmp_path / "copy.bank") == _bytes(tmp / "b.bank")
    if files_mod._MAP_BYTES < ROWS * ROW_BYTES:
        assert budget


def test_norm_passes_are_budget_invariant(saved, budget):
    tmp, _ = saved
    bank = bank_load(tmp / "b.bank")
    memory = np.array(bank.vectors)
    assert norm_bound(bank.vectors) == norm_bound(memory)
    assert check_norms(bank)
    if files_mod._MAP_BYTES < ROWS * ROW_BYTES:
        assert budget  # the mapped passes released their pages


def test_build_and_save_index_are_budget_invariant(saved, budget, tmp_path):
    """The training sample, the assignment pass, and the saves of a built
    and of a loaded index give the same bytes at every budget."""
    tmp, _ = saved
    bank = bank_load(tmp / "b.bank")
    built = build_ivf(bank, 2, seed=3)  # 700 rows > 512: a sampled build
    save_index(built, tmp_path / "built.ivf")
    assert _bytes(tmp_path / "built.ivf") == _bytes(tmp / "b.ivf")
    save_index(load_index(tmp / "b.ivf", bank), tmp_path / "loaded.ivf")
    assert _bytes(tmp_path / "loaded.ivf") == _bytes(tmp / "b.ivf")


def test_searches_are_budget_invariant(saved, budget, monkeypatch):
    """Exact and IVF searches over the mapped bank and index return the
    bits of an in-memory search, whatever the budget and block size."""
    tmp, queries = saved
    bank = bank_load(tmp / "b.bank")
    memory = EmbeddingBank(np.array(bank.vectors), "llm-text")
    index = load_index(tmp / "b.ivf", bank)
    built = build_ivf(memory, 2, seed=3)
    monkeypatch.setattr(index_mod, "SCAN_BLOCK", 64)
    for got, want in ((search(bank, queries, 10), search(memory, queries, 10)),
                      (search(bank, queries, 10, index, 1),
                       search(memory, queries, 10, built, 1))):
        assert np.array_equal(got.ids, want.ids)
        assert np.array_equal(got.counts, want.counts)
        assert got.scores.tobytes() == want.scores.tobytes()
    if files_mod._MAP_BYTES < 64 * ROW_BYTES:
        assert budget


@pytest.fixture(scope="module")
def wide(tmp_path_factory):
    """A 700 x 24 bank and its 2-list index, saved: rows of more than 8
    values, whose IVF lists are scored in tiles."""
    tmp = tmp_path_factory.mktemp("wide")
    rng = np.random.default_rng(8)
    bank_build(rng.standard_normal((ROWS, 24)), "llm-text", tmp / "w.bank")
    save_index(build_ivf(bank_load(tmp / "w.bank"), 2, seed=3), tmp / "w.ivf")
    return tmp


def _reads(monkeypatch):
    """The bytes of each block a pass counts in a ``PageBudget`` of a file
    mapping, in order; ``files.windows`` counts each window there."""
    reads = []
    real = files_mod.PageBudget.read

    def read(self, nbytes):
        if self._mapping is not None:
            reads.append(nbytes)
        real(self, nbytes)

    monkeypatch.setattr(files_mod.PageBudget, "read", read)
    return reads


def _pass(name, saved, wide, tmp_path):
    """Run one full pass over mapped files; return its row width in bytes
    and the rows of the smallest block its kernel scores."""
    tmp, queries = saved
    bank = bank_load(tmp / "b.bank")
    if name == "norm_bound":
        norm_bound(bank.vectors)
    elif name == "exact search":
        search(bank, queries, 10)
    elif name == "save_index":
        save_index(build_ivf(EmbeddingBank(np.array(bank.vectors),
                                           "llm-text"), 2, seed=3).attach(bank),
                   tmp_path / "built.ivf")
        save_index(load_index(tmp / "b.ivf", bank), tmp_path / "loaded.ivf")
    elif name == "build_ivf":
        # products of 12 rows, the last of a block taking up to 11 more
        build_ivf(bank, 2, seed=3)
        return ROW_BYTES, 23
    elif name == "ivf search":
        # tiles of 16 rows, the last of a list taking up to 15 more
        bank = bank_load(wide / "w.bank")
        search(bank, np.array(bank.vectors[::30]), 10,
               load_index(wide / "w.ivf", bank), 1)
        return 24 * 4, 31
    return ROW_BYTES, 1


@pytest.mark.parametrize("name", ["norm_bound", "exact search", "save_index",
                                  "build_ivf", "ivf search"])
def test_no_pass_reads_a_block_larger_than_the_budget(saved, wide, budget,
                                                      monkeypatch, tmp_path,
                                                      name):
    """Between two page releases no pass reads a block larger than
    ``_MAP_BYTES``, unless the budget holds fewer rows than the smallest
    block the pass's kernel scores: one row for ``norm_bound``, the exact
    scan's selection and ``save_index``, 12 rows for the assignment, a
    16-row tile for an IVF list of rows of more than 8 values. With
    ``SCAN_BLOCK`` at 64 rows, a block of the exact scan, the assignment
    or an IVF list is larger than the budget below the default."""
    monkeypatch.setattr(index_mod, "SCAN_BLOCK", 64)
    monkeypatch.setattr(index_mod, "_TILE_BYTES", 16 * 24 * 4)
    reads = _reads(monkeypatch)
    row_bytes, unit = _pass(name, saved, wide, tmp_path)
    assert reads
    assert max(reads) <= max(files_mod._MAP_BYTES, unit * row_bytes)
    if sum(reads) > 2 * max(files_mod._MAP_BYTES, unit * row_bytes):
        assert budget


def _nan_bank(tmp, path, row):
    raw = bytearray(_bytes(tmp / "b.bank"))
    at = len(raw) - (ROWS - row) * ROW_BYTES
    raw[at:at + ROW_BYTES] = np.full(DIM, np.nan, "<f4").tobytes()
    path.write_bytes(bytes(raw))
    return bank_load(path)


def test_nan_row_after_a_release_keeps_its_message(saved, budget,
                                                   monkeypatch, tmp_path):
    """A NaN row read after the pages before it were released raises the
    error the default budget raises, naming the same row."""
    tmp, queries = saved
    bank = _nan_bank(tmp, tmp_path / "nan.bank", 650)
    monkeypatch.setattr(index_mod, "SCAN_BLOCK", 64)
    with pytest.raises(errors.CorruptBank,
                       match=r"^bank row 650 gives a non-finite score \(nan\)$"):
        search(bank, queries, 5)
    with pytest.raises(errors.CorruptBank, match=r"^bank row 650 is not finite$"):
        build_ivf(bank, 2, seed=3)
    assert np.isnan(norm_bound(bank.vectors))
    assert not check_norms(bank)
    if files_mod._MAP_BYTES < 64 * ROW_BYTES:
        assert budget


def test_copy_on_write_edits_survive_a_scan_a_build_and_a_save(
        saved, budget, tmp_path):
    """A mode ``"c"`` mapping is never released, so its edits stay: the
    scan finds the edited row, the build and the save see it, and the
    array still holds it afterwards."""
    tmp, queries = saved
    raw = bank_load(tmp / "b.bank").vectors
    cow = np.memmap(tmp / "b.bank", "<f4", "c", raw.offset, raw.shape)
    cow[600] = queries[0]
    bank = EmbeddingBank(cow, "llm-text")
    assert search(bank, queries[:1], 1).ids[0, 0] == 600
    build_ivf(bank, 2, seed=3)
    bank_save(bank, tmp_path / "edited.bank")
    assert np.array_equal(bank_load(tmp_path / "edited.bank").vectors[600],
                          queries[0])
    assert np.array_equal(cow[600], queries[0])
    assert budget == []  # nothing of the copy-on-write mapping released


def test_in_memory_and_copy_on_write_arrays_have_no_shared_mapping(saved):
    tmp, _ = saved
    raw = bank_load(tmp / "b.bank").vectors
    assert files_mod._shared_mapping(np.asarray(raw)[3:]) is raw._mmap
    assert files_mod._shared_mapping(np.array(raw)) is None
    cow = np.memmap(tmp / "b.bank", "<f4", "c", raw.offset, raw.shape)
    assert files_mod._shared_mapping(cow[5:]) is None


def _child_env():
    return dict(os.environ, OPENBLAS_NUM_THREADS="1",
                PYTHONPATH=os.pathsep.join(
                    [str(Path(retroclass.__file__).resolve().parent.parent),
                     os.environ.get("PYTHONPATH", "")]))


def test_save_index_streams_to_a_pipe(saved):
    """A target that cannot seek gets the rows in file order, from one
    window: ``index build --out /dev/stdout`` into a pipe, with a budget
    of seven rows, writes the bytes of the file."""
    tmp, _ = saved
    code = ("import sys, retroclass.files; from retroclass import cli; "
            f"retroclass.files._MAP_BYTES = {7 * ROW_BYTES}; "
            "sys.exit(cli.main(sys.argv[1:]))")
    proc = subprocess.run(
        [sys.executable, "-c", code, "index", "build", "--bank",
         str(tmp / "b.bank"), "--clusters", "2", "--seed", "3", "--out",
         "/dev/stdout"], capture_output=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == _bytes(tmp / "b.ivf")


# one command in a child with the budget of its first argument, in bytes;
# prints its VmHWM rise in MB
_CHILD = """
import sys
import retroclass.files
from retroclass import cli
retroclass.files._MAP_BYTES = int(sys.argv.pop(1))

def hwm():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh
                    if line.startswith("VmHWM:")) / 1024

before = hwm()
assert cli.main(sys.argv[1:]) == 0
print(hwm() - before)
"""


def _bank_of(tmp_path, rows, dim):
    """A ``rows`` x ``dim`` bank ``b.bank`` and a 4-row query bank
    ``q.bank`` in ``tmp_path``, built from a mapped ``.npy``."""
    vectors = np.lib.format.open_memmap(tmp_path / "in.npy", "w+",
                                        np.float32, (rows, dim))
    rng = np.random.default_rng(0)
    for start in range(0, rows, 1 << 16):
        vectors[start:start + (1 << 16)] = rng.standard_normal(
            (min(1 << 16, rows - start), dim), dtype=np.float32)
    vectors.flush()
    del vectors
    bank_build(np.load(tmp_path / "in.npy", mmap_mode="r"), "llm-text",
               tmp_path / "b.bank")
    bank_build(np.load(tmp_path / "in.npy", mmap_mode="r")[:4], "llm-text",
               tmp_path / "q.bank")
    (tmp_path / "in.npy").unlink()


def _peak_rises(tmp_path, budget):
    """The VmHWM rise in MB of ``index build`` and of an exact
    ``retrieve`` over ``tmp_path``'s banks, each in a child with a page
    budget of ``budget`` bytes."""
    rises = []
    for argv in (["index", "build", "--bank", tmp_path / "b.bank",
                  "--clusters", 8, "--seed", 0, "--out", tmp_path / "b.ivf"],
                 ["retrieve", "--bank", tmp_path / "b.bank", "--queries",
                  tmp_path / "q.bank", "--k", 10, "--out",
                  tmp_path / "hits.jsonl"]):
        proc = subprocess.run([sys.executable, "-c", _CHILD, str(budget),
                               *map(str, argv)], capture_output=True,
                              text=True, env=_child_env())
        assert proc.returncode == 0, proc.stderr
        rises.append(float(proc.stdout))
    return rises


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads VmHWM from /proc")
def test_full_passes_keep_less_than_the_bank_resident(tmp_path):
    """Over a 64 MiB bank file, neither ``index build`` nor an exact
    ``retrieve`` raises its process's peak RSS by the bank's size: each
    full pass drops the pages it has read."""
    rows, dim = 1 << 19, 32
    _bank_of(tmp_path, rows, dim)
    bank_mb = rows * dim * 4 / 2 ** 20
    build, retrieve = _peak_rises(tmp_path, 1 << 20)
    assert build < bank_mb and retrieve < bank_mb


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads VmHWM from /proc")
def test_full_passes_keep_less_than_a_scan_block_resident(tmp_path):
    """With a 4 MiB budget over a 64 MiB bank of 256-byte rows, whose
    ``SCAN_BLOCK`` blocks are 32 MiB, ``index build`` raises its process's
    peak RSS by less than one block and an exact 4-row ``retrieve`` by
    less than half of one: the assignment and the exact scan, its
    selection and its re-score, read a block in pieces of at most the
    budget, and the assignment's scores of a piece stay small. (Over
    ext4 and Linux 6.18 these read 24 and 10 MB, against 47 and 36 MB
    when each block was read whole.)"""
    dim = 64
    _bank_of(tmp_path, 1 << 18, dim)
    block_mb = index_mod.SCAN_BLOCK * dim * 4 / 2 ** 20
    build, retrieve = _peak_rises(tmp_path, 4 << 20)
    assert build < block_mb and retrieve < block_mb / 2
