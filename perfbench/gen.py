#!/usr/bin/env python3
"""Seeded input generator for the pipeline benchmark.

Runs in its own process so that its memory is not counted in the measured
process's peak RSS, and before any set-up timing starts:

    python3 perfbench/gen.py --workload eval-cli --seed 3 --out DIR

``eval-cli`` writes a fixture directory (the same files as ``retroclass
fixture``); ``ivf-large`` writes ``bank.npy``, ``queries.npy`` and
``batch_queries.npy``. ``sweep-grid`` keeps its banks in memory, so its
fixture is built inside the measured process from ``FIXTURE`` and never
written here.

Noise at dim 256. ``synth_fixture`` adds per-coordinate noise, so a noise
vector's norm grows as eta * sqrt(dim). The eta values used at dim 64 make
dim-256 prototypes almost pure noise (zero-shot acc@1 0.0115 at 200
classes). eta_p=0.3, eta_c=0.05, eta_q=0.175 put zero-shot acc@1 near 0.14
and enriched acc@1 near 0.98, so enrichment and its retrievals do real work
and a wrong retrieval changes the report.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# 64 classes x 4 queries, 8192 captions: both caption banks (2 x 8 MB) fit
# in a 105 MiB L3, and a pass takes well under a second, so one run holds
# enough passes for a median that a few seconds of neighbour load cannot move.
FIXTURE = dict(n_classes=64, dim=256, queries_per_class=4,
               captions_per_class=128, eta_p=0.3, eta_c=0.05, eta_q=0.175)
# The fixture seed is ``--seed`` modulo this, so that reports can be checked
# against digests recorded for every variant (perfbench/digests.json).
FIXTURE_VARIANTS = 32

# 440k x 256 float32 is 450 MB, 4.1x a 105 MiB L3. More mixture centers than
# IVF clusters, spread wide enough that probing a few lists loses some true
# neighbours, so recall@10 stays below 1.0. The centers come from a fixed
# seed and ``--seed`` draws the rows and queries, so every seed has the same
# cluster geometry and IVF work per query varies little between seeds.
# ``queries`` feed the single-query loops; the first ``batch_queries`` of
# them are the query bank of each ``retroclass retrieve`` batch pass, short
# enough that a run holds a dozen passes.
IVF_BANK = dict(rows=440_000, dim=256, centers=1024, spread=1.25, queries=128,
                batch_queries=32, center_seed=20241101)


def fixture_seed(seed: int) -> int:
    return seed % FIXTURE_VARIANTS


def write_fixture(seed: int, out: Path) -> None:
    from retroclass.harness import synth_fixture
    synth_fixture(seed=fixture_seed(seed), **FIXTURE).save(out)


def write_ivf_bank(seed: int, out: Path) -> None:
    import numpy as np
    p = IVF_BANK
    centers = np.random.default_rng(p["center_seed"]).standard_normal(
        (p["centers"], p["dim"]))
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    centers = centers.astype(np.float32)
    scale = np.float32(p["spread"] / np.sqrt(p["dim"]))
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    bank = np.lib.format.open_memmap(out / "bank.npy", mode="w+",
                                     dtype=np.float32,
                                     shape=(p["rows"], p["dim"]))
    block = 65536
    for start in range(0, p["rows"], block):
        n = min(block, p["rows"] - start)
        labels = rng.integers(0, p["centers"], n)
        bank[start:start + n] = centers[labels] + scale * rng.standard_normal(
            (n, p["dim"]), dtype=np.float32)
    bank.flush()
    del bank
    labels = rng.integers(0, p["centers"], p["queries"])
    queries = centers[labels] + scale * rng.standard_normal(
        (p["queries"], p["dim"]), dtype=np.float32)
    np.save(out / "queries.npy", queries)
    np.save(out / "batch_queries.npy", queries[:p["batch_queries"]])


WRITERS = {"eval-cli": write_fixture, "ivf-large": write_ivf_bank}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WRITERS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    out = Path(args.out)
    tmp = out.with_name(out.name + f".tmp{os.getpid()}")
    shutil.rmtree(tmp, ignore_errors=True)
    WRITERS[args.workload](args.seed, tmp)
    tmp.rename(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
