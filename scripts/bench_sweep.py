#!/usr/bin/env python3
"""Time an alpha/beta sweep pass and record it as JSON.

    OPENBLAS_NUM_THREADS=1 python scripts/bench_sweep.py \\
        --out BENCH_sweep.json --label change

Builds the synthetic fixture in memory (``harness.synth_fixture``; by
default seed 3 and the shape of the ``perfbench`` sweep-grid workload:
64 classes, dim 256, 4 queries and 128 captions per class) and times
``--repeats`` passes after one warm-up pass. A pass is what a sweep-grid
operation runs: ``run_sweep`` over alphas 0, 0.2, 0.4 and betas 0, 0.5
(6 grid points) on a freshly built class table, then ``emit_report`` of
its CSV. The run records:

* ``pass``: the median and quartiles of the pass wall time, and
  ``queries_per_s``, the fixture's queries times the grid points over the
  median pass;
* ``stages``: per pass, the reports' ``wall_time_ms``: ``retrieve`` (shared
  by every point), and ``enrich_prototypes`` (with the alias merges of
  the zero-shot prototypes and the retrieval queries) and ``classify``
  summed over the points; ``rest`` is the pass less those three (the
  class table and the CSV). Each is a median and quartiles over the
  passes;
* ``csv_sha256``: the CSV's digest, so two runs can be checked for
  identical output;
* the machine facts of ``scripts/bench_scan.py``, the running OpenBLAS
  core included.

The run is stored under ``runs[LABEL]`` of ``--out``; other labels already
in that file are kept, so one file can hold a before and an after run.
Run it against another checkout by putting that checkout's ``src`` first
on ``PYTHONPATH``.
"""

import hashlib
import tempfile
import time
from pathlib import Path

from bench_scan import bench_parser, record, spread

from retroclass import harness

GRID = {"alphas": [0.0, 0.2, 0.4], "betas": [0.0, 0.5]}
NOISE = dict(eta_p=0.3, eta_c=0.05, eta_q=0.175)


def main() -> None:
    ap = bench_parser(__doc__)
    ap.add_argument("--seed", type=int, default=3)
    ap.add_argument("--n-classes", type=int, default=64)
    ap.add_argument("--dim", type=int, default=256)
    ap.add_argument("--queries-per-class", type=int, default=4)
    ap.add_argument("--captions-per-class", type=int, default=128)
    ap.add_argument("--repeats", type=int, default=40)
    args = ap.parse_args()

    fx = harness.synth_fixture(
        seed=args.seed, n_classes=args.n_classes, dim=args.dim,
        queries_per_class=args.queries_per_class,
        captions_per_class=args.captions_per_class, **NOISE)
    labels = list(fx.labels)
    grid = harness.SweepGrid.from_dict(GRID)
    passes, stages = [], {"retrieve": [], "enrich_prototypes": [],
                          "classify": [], "rest": []}
    with tempfile.TemporaryDirectory() as tmp:
        csv = Path(tmp) / "sweep.csv"
        for i in range(args.repeats + 1):  # the first pass warms up
            t0 = time.perf_counter()
            reports = harness.run_sweep(grid, fx.build_specs(), fx.queries,
                                        labels, fx.llm_bank, fx.vlm_bank)
            harness.emit_report(reports, "csv", csv)
            wall_ms = (time.perf_counter() - t0) * 1e3
            if i == 0:
                continue
            passes.append(wall_ms)
            timed = {"retrieve": reports[0].wall_time_ms["retrieve"]}
            for stage in ("enrich_prototypes", "classify"):
                timed[stage] = sum(r.wall_time_ms[stage] for r in reports)
            timed["rest"] = wall_ms - sum(timed.values())
            for stage, ms in timed.items():
                stages[stage].append(ms)
        digest = hashlib.sha256(csv.read_bytes()).hexdigest()

    queries = fx.queries.count * len(reports)
    pass_ms = spread(passes)
    entry = {"shape": {"seed": args.seed, "n_classes": args.n_classes,
                       "dim": args.dim,
                       "queries_per_class": args.queries_per_class,
                       "captions_per_class": args.captions_per_class,
                       "grid_points": len(reports)},
             "pass": {"repeats": args.repeats,
                      **{f"ms_{k}": v for k, v in pass_ms.items()},
                      "queries_per_s": queries / pass_ms["median"] * 1e3},
             "stages": {f"{stage}_ms": spread(samples)
                        for stage, samples in stages.items()},
             "csv_sha256": digest}
    record(args, entry)
    p = entry["pass"]
    print(f"{args.label} pass: {p['ms_median']:.2f} ms (q1 {p['ms_q1']:.2f}, "
          f"q3 {p['ms_q3']:.2f}), {p['queries_per_s']:.0f} queries/s")
    for stage, s in entry["stages"].items():
        print(f"{args.label} {stage}: {s['median']:.2f} ms")


if __name__ == "__main__":
    main()
