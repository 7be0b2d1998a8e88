#!/usr/bin/env python3
"""Time bank ingest and IVF build, stage by stage, and record it as JSON.

    OPENBLAS_NUM_THREADS=1 python scripts/bench_setup.py \\
        --out BENCH_setup.json --label change

Writes a synthetic clustered float32 bank of ``--rows`` x ``--dim`` to a
``.npy`` file (unit centers plus Gaussian noise, seed 0, the shape of the
benchmark's ivf-large input), then runs ``retroclass bank build`` and
``retroclass index build --clusters N`` in this process ``--repeats``
times. Each command's wall time is split into stages by wrapping the
functions it calls:

* ``bank build``: ``normalize`` (``bank._normalize_rows``, once per
  ingest buffer), ``payload`` and ``sidecar`` (the bank file's and the
  sidecar's writes), and ``load``, the rest (reading and checking the
  ``.npy``; the mapped input's pages are read while normalizing);
* ``index build``: ``train`` (``index._spherical_kmeans``), ``assign``
  (the full-bank assignment pass), ``save`` (``index.save_index``), and
  ``load``, the rest (mapping the bank, sampling, building the lists).

Each stage records the median and quartiles over the repeats; every
repeat of ``index build`` but the first writes over the index file the one
before wrote. ``save_index`` times ``index.save_index`` of the built index
``--repeats`` times as a first write to a new path (``first_ms``) and then
as an overwrite of that file (``overwrite_ms``). ``process`` runs each
command ``--repeats`` times more, each in a fresh interpreter, and records
the median and quartiles of its wall time (with imports) and peak RSS
(``VmHWM``, so Linux only): ``bank build``, ``index build``, and a
``retroclass retrieve`` of 32 noisy bank rows at k 10, exact
(``retrieve_exact``) and through the index at nprobe 8
(``retrieve_index``). ``outputs`` holds the SHA-256 of the bank, sidecar
and index files, so two runs can be checked for identical bytes.
Machine facts are recorded as in ``scripts/bench_scan.py``.

The run is stored under ``runs[LABEL]`` of ``--out``; other labels already
in that file are kept, so one file can hold a before and an after run.
Run it against another checkout by putting that checkout's ``src`` first
on ``PYTHONPATH``.
"""

import contextlib
import hashlib
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import retroclass.bank as bank_mod
import retroclass.cli as cli_mod
import retroclass.index as index_mod
from bench_scan import bench_parser, cli, record, spread

# run one command in a fresh interpreter; print its wall time and peak RSS.
# VmHWM, not ru_maxrss: a child's ru_maxrss starts at this process's RSS.
CHILD = """
import sys, time
t0 = time.perf_counter()
from retroclass import cli
code = cli.main(sys.argv[1:])
wall = time.perf_counter() - t0
with open("/proc/self/status") as fh:
    kb = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
print(code, wall, kb / 1024)
"""


def write_input(path: Path, rows: int, dim: int) -> None:
    rng = np.random.default_rng(0)
    centers = rng.standard_normal((min(1024, rows), dim))
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    centers = centers.astype(np.float32)
    scale = np.float32(1.25 / np.sqrt(dim))
    out = np.lib.format.open_memmap(path, mode="w+", dtype=np.float32,
                                    shape=(rows, dim))
    for start in range(0, rows, 65536):
        n = min(65536, rows - start)
        labels = rng.integers(0, len(centers), n)
        out[start:start + n] = centers[labels] + scale * rng.standard_normal(
            (n, dim), dtype=np.float32)
    out.flush()
    del out


class Stages:
    """Wall time per stage of one command, by wrapping module functions."""

    def __init__(self):
        self.ms: dict[str, float] = {}
        self.patched: list[tuple[object, str, object]] = []

    def add(self, stage: str, seconds: float) -> None:
        self.ms[stage] = self.ms.get(stage, 0.0) + seconds * 1e3

    def wrap(self, module, name: str, stage) -> None:
        """Time calls to ``module.name``; ``stage(args, kwargs)`` names the
        stage of a call, or ``None`` to leave it untimed."""
        real = getattr(module, name)

        def timed(*args, **kwargs):
            label = stage(args, kwargs)
            t0 = time.perf_counter()
            try:
                return real(*args, **kwargs)
            finally:
                if label is not None:
                    self.add(label, time.perf_counter() - t0)
        self.patched.append((module, name, real))
        setattr(module, name, timed)

    def wrap_writer(self) -> None:
        """Time ``bank.replace_atomically`` blocks: the bank file is the
        payload, the sidecar is the sidecar. The bank file's block holds
        the sidecar's and the normalization, whose stages it leaves out."""
        real = bank_mod.replace_atomically

        @contextlib.contextmanager
        def timed(path, what, *args, **kwargs):
            t0, inner = time.perf_counter(), sum(self.ms.values())
            with real(path, what, *args, **kwargs) as fh:
                yield fh
            inner = (sum(self.ms.values()) - inner) / 1e3
            self.add("sidecar" if what == "metadata sidecar" else "payload",
                     time.perf_counter() - t0 - inner)
        self.patched.append((bank_mod, "replace_atomically", real))
        bank_mod.replace_atomically = timed

    def run(self, argv: list[str]) -> dict[str, float]:
        t0 = time.perf_counter()
        try:
            cli(argv)
        finally:
            total = (time.perf_counter() - t0) * 1e3
            for module, name, real in reversed(self.patched):
                setattr(module, name, real)
        self.ms["load"] = total - sum(self.ms.values())
        self.ms["total"] = total
        return self.ms


def bank_build(argv: list[str]) -> dict[str, float]:
    stages = Stages()
    stages.wrap(bank_mod, "_normalize_rows", lambda a, k: "normalize")
    stages.wrap_writer()
    return stages.run(argv)


def index_build(argv: list[str]) -> dict[str, float]:
    stages = Stages()
    stages.wrap(index_mod, "_spherical_kmeans", lambda a, k: "train")
    # training assigns its sample too; only the checked full-bank pass counts
    stages.wrap(index_mod, "_assign",
                lambda a, k: "assign" if k.get("check") else None)
    stages.wrap(cli_mod, "save_index", lambda a, k: "save")
    return stages.run(argv)


def summarize(samples: list[dict[str, float]]) -> dict:
    out = {"repeats": len(samples)}
    for stage in samples[0]:
        out[f"{stage}_ms"] = spread([s[stage] for s in samples])
    return out


def save_timings(bank_path: Path, clusters: int, repeats: int,
                 tmp: Path) -> dict:
    """``save_index`` of the built index, as a first write and then as an
    overwrite of the same file, in milliseconds."""
    index = index_mod.build_ivf(bank_mod.bank_load(bank_path), clusters, 0)
    first, again = [], []
    for r in range(repeats):
        path = tmp / f"save{r}.ivf"
        for times in (first, again):
            t0 = time.perf_counter()
            index_mod.save_index(index, path)
            times.append((time.perf_counter() - t0) * 1e3)
        path.unlink()
    return {"repeats": repeats, "first_ms": spread(first),
            "overwrite_ms": spread(again)}


def write_queries(vectors: Path, path: Path, n: int = 32) -> None:
    """``n`` rows of the input plus Gaussian noise, as a bank file."""
    rows = np.load(vectors, mmap_mode="r")
    rng = np.random.default_rng(1)
    picks = np.sort(rng.choice(rows.shape[0], min(n, rows.shape[0]),
                               replace=False))
    np.save(path.with_suffix(".npy"), rows[picks] + rng.standard_normal(
        (len(picks), rows.shape[1]), dtype=np.float32) / np.sqrt(rows.shape[1]))
    cli(["bank", "build", "--vectors", str(path.with_suffix(".npy")), "--tag",
         "llm-text", "--out", str(path)])


def in_child(argv: list[str], repeats: int) -> dict:
    """Wall time and peak RSS of ``repeats`` runs of one command, each in a
    fresh interpreter: one noisy run does not move the median."""
    walls, rss = [], []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-c", CHILD, *argv],
                              check=True, capture_output=True, text=True)
        code, wall, mb = proc.stdout.split()
        if code != "0":
            raise SystemExit(f"retroclass {' '.join(argv[:2])} exited {code}")
        walls.append(float(wall))
        rss.append(float(mb))
    return {"repeats": repeats, "wall_s": spread(walls),
            "peak_rss_mb": spread(rss)}


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def main() -> None:
    ap = bench_parser(__doc__)
    ap.add_argument("--rows", type=int, default=440_000)
    ap.add_argument("--dim", type=int, default=256)
    ap.add_argument("--clusters", type=int, default=128)
    ap.add_argument("--repeats", type=int, default=3)
    args = ap.parse_args()

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        vectors, bank, index = tmp / "bank.npy", tmp / "bank.bank", tmp / "bank.ivf"
        write_input(vectors, args.rows, args.dim)
        bank_argv = ["bank", "build", "--vectors", str(vectors), "--tag",
                     "llm-text", "--out", str(bank)]
        index_argv = ["index", "build", "--bank", str(bank), "--clusters",
                      str(args.clusters), "--seed", "0", "--out", str(index)]
        bank_runs, index_runs = [], []
        for _ in range(args.repeats):
            bank_runs.append(bank_build(bank_argv))
            index_runs.append(index_build(index_argv))
        save = save_timings(bank, args.clusters, args.repeats, tmp)
        write_queries(vectors, tmp / "queries.bank")
        retrieve_argv = ["retrieve", "--bank", str(bank), "--queries",
                         str(tmp / "queries.bank"), "--k", "10", "--out",
                         str(tmp / "hits.jsonl")]
        process = {"bank_build": in_child(bank_argv, args.repeats),
                   "index_build": in_child(index_argv, args.repeats),
                   "retrieve_exact": in_child(retrieve_argv, args.repeats),
                   "retrieve_index": in_child(retrieve_argv + [
                       "--index", str(index), "--nprobe",
                       str(min(8, args.clusters))], args.repeats)}
        outputs = {"bank": sha256(bank),
                   "sidecar": sha256(bank.with_name(bank.name + ".meta.jsonl")),
                   "index": sha256(index)}

    entry = {"shape": {"rows": args.rows, "dim": args.dim,
                       "clusters": args.clusters},
             "bank_build": summarize(bank_runs),
             "index_build": summarize(index_runs),
             "save_index": save, "process": process, "outputs": outputs}
    record(args, entry)
    for command in ("bank_build", "index_build"):
        stages = ", ".join(f"{name[:-3]} {value['median']:.0f}"
                           for name, value in entry[command].items()
                           if name.endswith("_ms") and name != "total_ms")
        print(f"{args.label} {command}: {entry[command]['total_ms']['median']:.0f} ms "
              f"({stages}); process {process[command]['wall_s']['median']:.2f}"
              f" s, {process[command]['peak_rss_mb']['median']:.0f} MB")
    print(f"{args.label} save_index: first write "
          f"{save['first_ms']['median']:.0f} ms, overwrite "
          f"{save['overwrite_ms']['median']:.0f} ms")
    for command in ("retrieve_exact", "retrieve_index"):
        print(f"{args.label} {command}: process "
              f"{process[command]['wall_s']['median']:.2f} s, "
              f"{process[command]['peak_rss_mb']['median']:.0f} MB")


if __name__ == "__main__":
    main()
