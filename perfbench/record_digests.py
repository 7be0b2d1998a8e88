#!/usr/bin/env python3
"""Record the output digests the benchmark checks eval-cli and sweep-grid against.

    python3 perfbench/record_digests.py

Writes perfbench/digests.json: for every fixture variant, the SHA-256 of the
eval report with ``wall_time_ms`` removed and of the sweep CSV. Record them
only from a commit whose outputs are known good (frozen goldens and the
reference pipeline agree); later commits must reproduce them byte for byte.
"""

import json
import shutil
import sys

import run as bench


def main() -> int:
    rc = bench.import_package()
    work = bench.make_workdir("digests")
    digests = {"source_sha256": bench.common.source_digest(bench.SRC),
               "eval-cli": {}, "sweep-grid": {}}
    try:
        for variant in range(bench.gen.FIXTURE_VARIANTS):
            for key, cls in (("eval-cli", bench.EvalCli),
                             ("sweep-grid", bench.SweepGrid)):
                wl = cls(rc, bench.Run(key, variant, 1, False), work)
                wl.prepare()
                wl.setup()
                code, data = wl.op()
                if code != 0:
                    raise SystemExit(f"{key} variant {variant}: exit code {code}")
                digests[key][str(variant)] = bench.common.sha256_hex(
                    wl.canonical(data))
            print(f"variant {variant}: {digests['eval-cli'][str(variant)][:12]} "
                  f"{digests['sweep-grid'][str(variant)][:12]}", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(bench.HERE / "digests.json", "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
