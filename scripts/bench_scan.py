#!/usr/bin/env python3
"""Time the exact scan of ``index.search`` and record it as JSON.

    python scripts/bench_scan.py --out BENCH_scan.json --label change

Times ``search`` at 1, 2, 3, 64, 256 and 320 query rows over an in-memory
8192 x 256 bank (256 rows over it is the image query batch of the
``perfbench`` sweep-grid workload), and one query over a memory-mapped
131072 x 512 bank (one
``SCAN_BLOCK`` of the 1M x 512 bank of acceptance criterion 8, built the
same way: an offset-0 ``np.memmap``, warmed by one call first). Each entry
records the median and quartiles of ``--repeats`` calls, the bank rows
scored per query, and the candidate rows re-scored per query (``null``
when the scan has no re-score step; counted from the candidates passed
to ``index._rescore``). ``cli_retrieve_mapped`` times whole
one-query ``retroclass retrieve`` processes over that bank saved as a bank
file (page cache warmed by one run first): each process loads the bank
afresh, so it pays every per-bank cost of its first scan. Machine facts
(nproc, numpy, the BLAS build, the core OpenBLAS runs,
``OPENBLAS_NUM_THREADS``) are recorded alongside.

The run is stored under ``runs[LABEL]`` of ``--out``; other labels already
in that file are kept, so one file can hold a before and an after run.
Run it against another checkout by putting that checkout's ``src`` first
on ``PYTHONPATH``.
"""

import argparse
import ctypes
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import retroclass.index as index_mod
from retroclass.bank import EmbeddingBank, bank_save

K = 10


def blas_core() -> str | None:
    """The core OpenBLAS runs, which its build configuration does not name
    (a DYNAMIC_ARCH build picks it at load): ``scipy_openblas_get_corename64_``
    of numpy's bundled ``libscipy_openblas64_*.so``, or None where that
    library or symbol is missing."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas64_*.so")):
        try:
            corename = ctypes.CDLL(str(path)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        return corename().decode()
    return None


def machine() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": len(os.sched_getaffinity(0)),
            "numpy": np.__version__,
            "blas": {key: blas.get(key) for key in
                     ("name", "version", "openblas configuration")},
            "blas_core": blas_core(),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS")}


def quartiles(samples: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) of the samples; a single sample is all three."""
    if len(samples) > 1:
        return tuple(statistics.quantiles(samples, n=4))
    return (samples[0],) * 3


def unit_rows(rng, n, dim):
    rows = rng.standard_normal((n, dim)).astype(np.float32)
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def time_search(bank, queries, repeats) -> dict:
    """Quartiles of ``repeats`` timed calls, and the rows each query
    scored and re-scored in the last one."""
    rescored = []
    real = getattr(index_mod, "_rescore", None)
    if real is not None:
        def counting(*args):
            # the candidate positions come second to last, in
            # _rescore(block, rows, pos, queries) as in the one-row
            # _rescore(block, pos, query) of older checkouts
            rescored.append(len(args[-2]))
            return real(*args)
        index_mod._rescore = counting
    try:
        times = []
        for _ in range(repeats):
            rescored.clear()
            t0 = time.perf_counter()
            index_mod.search(bank, queries, K)
            times.append(time.perf_counter() - t0)
    finally:
        if real is not None:
            index_mod._rescore = real
    q1, median, q3 = quartiles(times)
    n = queries.shape[0]
    return {"query_rows": n, "bank_rows": bank.count, "dim": bank.dim,
            "k": K, "repeats": repeats,
            "ms_median": median * 1e3, "ms_q1": q1 * 1e3, "ms_q3": q3 * 1e3,
            "ms_per_query": median * 1e3 / n,
            "rows_scored_per_query": bank.count,
            "rescored_per_query": (sum(rescored) / n if real is not None
                                   else None)}


def time_cli_retrieve(bank, query, repeats, tmp) -> dict:
    """Quartiles of ``repeats`` one-query ``retroclass retrieve`` runs over
    ``bank`` saved to a file, each in a fresh process."""
    bank_path, query_path = tmp / "bank.bank", tmp / "query.bank"
    bank_save(bank, bank_path)
    bank_save(EmbeddingBank(query, bank.space_tag), query_path)
    cmd = [sys.executable, "-m", "retroclass", "retrieve", "--bank",
           str(bank_path), "--queries", str(query_path), "--k", str(K),
           "--out", str(tmp / "hits.jsonl")]
    times = []
    for _ in range(repeats + 1):  # the first run warms the page cache
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True)
        times.append(time.perf_counter() - t0)
    q1, median, q3 = quartiles(times[1:])
    return {"query_rows": 1, "bank_rows": bank.count, "dim": bank.dim,
            "k": K, "repeats": repeats,
            "ms_median": median * 1e3, "ms_q1": q1 * 1e3, "ms_q3": q3 * 1e3,
            "ms_per_query": median * 1e3,
            "rows_scored_per_query": bank.count, "rescored_per_query": None}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", required=True, help="JSON file to update")
    ap.add_argument("--label", required=True, help="name of this run")
    ap.add_argument("--rows", type=int, default=8192)
    ap.add_argument("--dim", type=int, default=256)
    ap.add_argument("--mapped-rows", type=int, default=131072)
    ap.add_argument("--mapped-dim", type=int, default=512)
    ap.add_argument("--repeats", type=int, default=15)
    args = ap.parse_args()

    rng = np.random.default_rng(0)
    bank = EmbeddingBank(unit_rows(rng, args.rows, args.dim), "llm-text")
    queries = unit_rows(rng, 320, args.dim)
    index_mod.search(bank, queries[:1], K)  # one-time per-bank work
    entries = {f"memory_{n}_rows": time_search(bank, queries[:n], args.repeats)
               for n in (1, 2, 3, 64, 256, 320)}
    cli_repeats = max(2, args.repeats // 3)

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "mapped.f32"
        shape = (args.mapped_rows, args.mapped_dim)
        mm = np.memmap(path, dtype=np.float32, mode="w+", shape=shape)
        for start in range(0, shape[0], 65536):
            stop = min(start + 65536, shape[0])
            mm[start:stop] = unit_rows(rng, stop - start, shape[1])
        mm.flush()
        del mm
        mapped = EmbeddingBank(np.memmap(path, dtype=np.float32, mode="r",
                                         shape=shape), "vlm-text")
        query = unit_rows(rng, 1, shape[1])
        t0 = time.perf_counter()
        index_mod.search(mapped, query, K)  # page cache and norm bound
        warm_ms = (time.perf_counter() - t0) * 1e3
        entries["mapped_1_row"] = time_search(mapped, query, args.repeats)
        entries["mapped_1_row"]["first_call_ms"] = warm_ms
        entries["cli_retrieve_mapped"] = time_cli_retrieve(
            mapped, query, cli_repeats, Path(tmp))
        del mapped

    out = Path(args.out)
    data = json.loads(out.read_text()) if out.exists() else {}
    data.setdefault("runs", {})[args.label] = {"machine": machine(),
                                                "search": entries}
    out.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    for name, entry in entries.items():
        print(f"{args.label} {name}: {entry['ms_median']:.2f} ms "
              f"(q1 {entry['ms_q1']:.2f}, q3 {entry['ms_q3']:.2f}), "
              f"re-scored/query {entry['rescored_per_query']}")


if __name__ == "__main__":
    main()
