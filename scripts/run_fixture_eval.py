#!/usr/bin/env python3
"""Build a synthetic fixture and compare zero-shot vs enriched accuracy.

The fixture plants class centers on the unit sphere, derives noisy
prototypes (eta_p) and low-noise captions (eta_c), so retrieval has real
signal to add back. Expect a double-digit acc@1 margin at the defaults.
"""

import argparse

from retroclass.enrich import EnrichmentConfig
from retroclass.harness import run_eval, synth_fixture


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--n-classes", type=int, default=20)
    ap.add_argument("--dim", type=int, default=64)
    ap.add_argument("--queries-per-class", type=int, default=50)
    ap.add_argument("--captions-per-class", type=int, default=40)
    ap.add_argument("--eta-p", type=float, default=0.6)
    ap.add_argument("--eta-c", type=float, default=0.1)
    ap.add_argument("--alpha", type=float, default=0.2)
    ap.add_argument("--beta", type=float, default=0.5)
    ap.add_argument("--k", type=int, default=10)
    args = ap.parse_args()

    fx = synth_fixture(seed=args.seed, n_classes=args.n_classes,
                       dim=args.dim,
                       queries_per_class=args.queries_per_class,
                       captions_per_class=args.captions_per_class,
                       eta_p=args.eta_p, eta_c=args.eta_c)
    table = fx.build_specs()
    labels = list(fx.labels)

    def evaluate(config):
        return run_eval(table, fx.queries, labels, fx.llm_bank, fx.vlm_bank,
                        config)

    zs = evaluate(EnrichmentConfig(alpha=0.0, beta=0.0))
    enr = evaluate(EnrichmentConfig(alpha=args.alpha, beta=args.beta,
                                    k=args.k))

    print(f"fixture seed={args.seed} classes={args.n_classes} "
          f"dim={args.dim} queries={fx.queries.count}")
    print(f"{'config':<12} {'acc@1':>7} {'acc@5':>7} {'total_ms':>9}")
    for name, rep in (("zero-shot", zs), ("enriched", enr)):
        print(f"{name:<12} {rep.acc_at[1]:>7.3f} {rep.acc_at[5]:>7.3f} "
              f"{rep.wall_time_ms['total']:>9.1f}")
    print(f"margin: {(enr.acc_at[1] - zs.acc_at[1]) * 100:+.1f} acc@1 points")


if __name__ == "__main__":
    main()
