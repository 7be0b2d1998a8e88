#!/usr/bin/env python3
"""Regenerate the golden regression reports under tests/golden/.

The goldens freeze the fixture evaluations (seeds 1-3, zero-shot and
default-enriched configs) and the five-step toggle ladder at seed 1.
Timing fields are stripped; everything else must match bit-for-bit on
every future run, so regenerate only when the pipeline contract itself
changes, and say why in the commit.
"""

import argparse
import json
from pathlib import Path

from retroclass.enrich import EnrichmentConfig
from retroclass.harness import run_eval, synth_fixture

FIXTURE_PARAMS = dict(n_classes=20, dim=64, queries_per_class=50,
                      eta_p=0.6, eta_c=0.1, captions_per_class=40)

LADDER = [
    ("zero-shot", EnrichmentConfig(alpha=0.0, beta=0.0)),
    ("+alpha-average", EnrichmentConfig(alpha=0.2, beta=0.0,
                                        use_temperature_tt=False)),
    ("+tau-tt", EnrichmentConfig(alpha=0.2, beta=0.0)),
    ("+beta-average", EnrichmentConfig(alpha=0.2, beta=0.5,
                                       use_temperature_it=False)),
    ("+tau-it", EnrichmentConfig(alpha=0.2, beta=0.5)),
]


def eval_report(fixture, config):
    table = fixture.build_specs()
    report = run_eval(table, fixture.queries, list(fixture.labels),
                      fixture.llm_bank, fixture.vlm_bank, config)
    return report.to_json_dict(include_timing=False)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default=None,
                        help="default: tests/golden next to this script's repo")
    args = parser.parse_args()
    out_dir = Path(args.out_dir) if args.out_dir else \
        Path(__file__).resolve().parent.parent / "tests" / "golden"
    out_dir.mkdir(parents=True, exist_ok=True)

    for seed in (1, 2, 3):
        fixture = synth_fixture(seed=seed, **FIXTURE_PARAMS)
        payload = {
            "fixture": {"seed": seed, **FIXTURE_PARAMS},
            "zeroshot": eval_report(fixture,
                                    EnrichmentConfig(alpha=0.0, beta=0.0)),
            "enriched": eval_report(fixture, EnrichmentConfig()),
        }
        path = out_dir / f"fixture_seed{seed}.json"
        path.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {path}")

    fixture = synth_fixture(seed=1, **FIXTURE_PARAMS)
    steps = []
    for label, config in LADDER:
        report = eval_report(fixture, config)
        steps.append({"label": label, "config": report["config"],
                      "acc_at": report["acc_at"]})
    ladder_path = out_dir / "ladder_seed1.json"
    ladder_path.write_text(json.dumps(
        {"fixture": {"seed": 1, **FIXTURE_PARAMS}, "steps": steps},
        indent=2) + "\n")
    print(f"wrote {ladder_path}")


if __name__ == "__main__":
    main()
