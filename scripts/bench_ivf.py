#!/usr/bin/env python3
"""Time IVF retrieval through a saved index and record it as JSON.

    OPENBLAS_NUM_THREADS=1 python scripts/bench_ivf.py \\
        --out BENCH_ivf.json --label change

Writes the synthetic clustered bank of ``scripts/bench_setup.py``
(``--rows`` x ``--dim``, seed 0) and builds it and a ``--clusters``-list
index with ``retroclass bank build`` and ``retroclass index build``. Its
queries are ``--queries`` bank rows plus Gaussian noise, renormalized.
The bank and index are then loaded as the CLI loads them
(``bank_load``, ``load_index(path, bank)``) and timed:

* ``search_1_row``: each query alone through ``search(..., nprobe)``,
  after one warm-up pass over all of them;
* ``search_32_rows``: the first 32 queries as one batch, ``--repeats``
  times;
* ``cli_retrieve``: whole ``retroclass retrieve --index`` processes over
  those 32 queries (page cache warmed by one run first), so each one pays
  the bank and index loads. ``max(2, repeats // 3)`` of them run spread
  evenly among the ``search_32_rows`` batches, so a slow spell of the host
  moves samples of both, not every sample of one;
* ``load_index``: ``--repeats`` loads of the index file, after the
  searches, so that the build's writes have left the page cache's dirty
  list;
* ``rss_rise_mb``: the process's ``VmRSS`` after the single-query calls
  of a fresh load, less the value before them (Linux only);
* ``minor_faults_per_search``: the process's minor page faults
  (``ru_minflt``) over the timed single-query loop, per search;
* ``rows_per_probed_list``: for the 32-query batch, how many lists are
  probed by 1, 2, ... of its rows (a list's rows are read once and scored
  against every row that probes it, so this is their reuse).

Each timing records the median and quartiles. Machine facts are recorded as
in ``scripts/bench_scan.py``. The run is stored under ``runs[LABEL]`` of
``--out``; other labels already in that file are kept, so one file can hold
a before and an after run. Run it against another checkout by putting that
checkout's ``src`` first on ``PYTHONPATH``.
"""

import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from retroclass.bank import EmbeddingBank, bank_load, bank_save
from retroclass.index import load_index, search
from bench_scan import bench_parser, cli, ms_spread, record
from bench_setup import write_input

K = 10
BATCH = 32


def timings(seconds: list[float]) -> dict:
    return {"samples": len(seconds), **ms_spread(seconds)}


def timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def rss_mb() -> float:
    with open("/proc/self/status") as fh:
        kb = next(int(line.split()[1]) for line in fh
                  if line.startswith("VmRSS:"))
    return kb / 1024


def main() -> None:
    ap = bench_parser(__doc__)
    ap.add_argument("--rows", type=int, default=440_000)
    ap.add_argument("--dim", type=int, default=256)
    ap.add_argument("--clusters", type=int, default=128)
    ap.add_argument("--nprobe", type=int, default=8)
    ap.add_argument("--queries", type=int, default=128)
    ap.add_argument("--repeats", type=int, default=15)
    args = ap.parse_args()

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        paths = {name: tmp / name for name in
                 ("bank.npy", "bank.bank", "queries.bank", "bank.ivf",
                  "hits.jsonl")}
        write_input(paths["bank.npy"], args.rows, args.dim)
        cli(["bank", "build", "--vectors", str(paths["bank.npy"]), "--tag",
             "llm-text", "--out", str(paths["bank.bank"])])
        paths["bank.npy"].unlink()
        cli(["index", "build", "--bank", str(paths["bank.bank"]),
             "--clusters", str(args.clusters), "--seed", "0",
             "--out", str(paths["bank.ivf"])])

        bank = bank_load(paths["bank.bank"])
        rng = np.random.default_rng(1)
        picks = np.sort(rng.choice(bank.count, args.queries, replace=False))
        noisy = np.asarray(bank.vectors[picks], np.float64) + \
            rng.standard_normal((args.queries, args.dim)) / np.sqrt(args.dim)
        queries = EmbeddingBank.from_matrix(noisy, bank.space_tag)
        batch = EmbeddingBank(queries.vectors[:BATCH], bank.space_tag)
        bank_save(batch, paths["queries.bank"])

        index = load_index(paths["bank.ivf"], bank)
        rows = queries.vectors
        # each batch row's probed lists: the top nprobe of its one-row
        # centroid product, ties to the lower list, as search picks them
        probed = [np.lexsort((np.arange(args.clusters),
                              -(index.centroids @ q)))[:args.nprobe]
                  for q in rows[:BATCH]]
        reuse = np.bincount(np.bincount(np.concatenate(probed)))

        def one(i):
            search(bank, rows[i:i + 1], K, index, args.nprobe)

        before = rss_mb()
        for i in range(len(rows)):
            one(i)
        rise = rss_mb() - before
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        singles = [timed(lambda: one(i)) for i in range(len(rows))]
        faults = (resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                  - faults) / len(rows)
        argv = [sys.executable, "-m", "retroclass", "retrieve", "--bank",
                str(paths["bank.bank"]), "--queries",
                str(paths["queries.bank"]), "--k", str(K), "--index",
                str(paths["bank.ivf"]), "--nprobe", str(args.nprobe),
                "--out", str(paths["hits.jsonl"])]
        subprocess.run(argv, check=True)  # warms the page cache
        batches, processes = [], []
        spread = max(2, args.repeats // 3)  # processes among the batches
        for r in range(1, args.repeats + 1):
            batches.append(timed(lambda: search(bank, rows[:BATCH], K, index,
                                                args.nprobe)))
            while len(processes) < r * spread // args.repeats:
                processes.append(timed(lambda: subprocess.run(argv,
                                                              check=True)))
        del index
        loads = [timed(lambda: load_index(paths["bank.ivf"], bank))
                 for _ in range(args.repeats)]
        index_bytes = paths["bank.ivf"].stat().st_size
        del bank

    entry = {"shape": {"rows": args.rows, "dim": args.dim,
                       "clusters": args.clusters, "nprobe": args.nprobe,
                       "k": K, "queries": args.queries},
             "index_bytes": index_bytes,
             "load_index": timings(loads),
             "search_1_row": timings(singles),
             f"search_{BATCH}_rows": timings(batches),
             "cli_retrieve": timings(processes),
             "rss_rise_mb": rise,
             "minor_faults_per_search": faults,
             "rows_per_probed_list": {str(r): int(c)
                                      for r, c in enumerate(reuse) if r and c}}
    record(args, entry)
    for name in ("load_index", "search_1_row", f"search_{BATCH}_rows",
                 "cli_retrieve"):
        e = entry[name]
        print(f"{args.label} {name}: {e['ms_median']:.2f} ms "
              f"(q1 {e['ms_q1']:.2f}, q3 {e['ms_q3']:.2f})")
    print(f"{args.label} rss_rise_mb over {args.queries} single-query "
          f"searches: {rise:.1f}; minor faults per search: {faults:.1f}")
    print(f"{args.label} lists probed by r of {BATCH} rows, r: count: "
          f"{entry['rows_per_probed_list']}")


if __name__ == "__main__":
    main()
