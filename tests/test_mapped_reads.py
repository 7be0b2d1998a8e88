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


# one command in a child with a 1 MiB budget; prints its VmHWM rise in MB
_CHILD = """
import sys
import retroclass.files
from retroclass import cli
retroclass.files._MAP_BYTES = 1 << 20

def hwm():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh
                    if line.startswith("VmHWM:")) / 1024

before = hwm()
assert cli.main(sys.argv[1:]) == 0
print(hwm() - before)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads VmHWM from /proc")
def test_full_passes_keep_less_than_the_bank_resident(tmp_path):
    """Over a 64 MiB bank file, neither ``index build`` nor an exact
    ``retrieve`` raises its process's peak RSS by the bank's size: each
    full pass drops the pages it has read."""
    rows, dim = 1 << 19, 32
    vectors = np.lib.format.open_memmap(tmp_path / "in.npy", "w+",
                                        np.float32, (rows, dim))
    rng = np.random.default_rng(0)
    for start in range(0, rows, 1 << 16):
        vectors[start:start + (1 << 16)] = rng.standard_normal(
            (1 << 16, dim), dtype=np.float32)
    vectors.flush()
    del vectors
    bank_build(np.load(tmp_path / "in.npy", mmap_mode="r"), "llm-text",
               tmp_path / "b.bank")
    bank_build(np.load(tmp_path / "in.npy", mmap_mode="r")[:4], "llm-text",
               tmp_path / "q.bank")
    (tmp_path / "in.npy").unlink()
    bank_mb = rows * dim * 4 / 2 ** 20
    for argv in (["index", "build", "--bank", tmp_path / "b.bank",
                  "--clusters", 8, "--seed", 0, "--out", tmp_path / "b.ivf"],
                 ["retrieve", "--bank", tmp_path / "b.bank", "--queries",
                  tmp_path / "q.bank", "--k", 10, "--out",
                  tmp_path / "hits.jsonl"]):
        proc = subprocess.run([sys.executable, "-c", _CHILD,
                               *map(str, argv)], capture_output=True,
                              text=True, env=_child_env())
        assert proc.returncode == 0, proc.stderr
        assert float(proc.stdout) < bank_mb, argv[:2]
