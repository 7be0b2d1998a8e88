#!/usr/bin/env python3
"""Sweep the two interpolation weights over a grid and write a CSV.

alpha mixes retrieved-caption centroids into the class prototypes, beta
mixes retrieved captions into each query. alpha=beta=0 is the zero-shot
anchor row, useful as a sanity check on any sweep output.
"""

import argparse

from retroclass.enrich import EnrichmentConfig
from retroclass.harness import SweepGrid, emit_report, run_sweep, synth_fixture


def parse_floats(text: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in text.split(",") if tok.strip())


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--n-classes", type=int, default=20)
    ap.add_argument("--dim", type=int, default=64)
    ap.add_argument("--queries-per-class", type=int, default=50)
    ap.add_argument("--captions-per-class", type=int, default=40)
    ap.add_argument("--eta-p", type=float, default=0.6)
    ap.add_argument("--eta-c", type=float, default=0.1)
    ap.add_argument("--alphas", type=parse_floats,
                    default=(0.0, 0.2, 0.4, 0.6, 0.8, 1.0))
    ap.add_argument("--betas", type=parse_floats,
                    default=(0.0, 0.2, 0.4, 0.6, 0.8, 1.0))
    ap.add_argument("--out", default="sweep.csv")
    args = ap.parse_args()

    fx = synth_fixture(seed=args.seed, n_classes=args.n_classes,
                       dim=args.dim,
                       queries_per_class=args.queries_per_class,
                       captions_per_class=args.captions_per_class,
                       eta_p=args.eta_p, eta_c=args.eta_c)
    grid = SweepGrid(alphas=args.alphas, betas=args.betas)
    reports = run_sweep(grid, fx.build_specs(), fx.queries, list(fx.labels),
                        fx.llm_bank, fx.vlm_bank,
                        base_config=EnrichmentConfig())
    emit_report(reports, "csv", args.out)

    best = max(reports, key=lambda r: (r.acc_at[1], -r.config.alpha,
                                       -r.config.beta))
    print(f"{len(reports)} grid points -> {args.out}")
    print(f"best acc@1 {best.acc_at[1]:.3f} at "
          f"alpha={best.config.alpha} beta={best.config.beta} "
          f"(zero-shot {reports[0].acc_at[1]:.3f})")


if __name__ == "__main__":
    main()
