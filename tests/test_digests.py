"""The benchmark's 64 output digests, and the IVF outputs' digests,
checked in the test suite.

``perfbench/digests.json`` holds, for each of the 32 fixture variants, the
SHA-256 of the sweep-grid CSV and of the eval-cli report without its
timings; the benchmark refuses a run whose outputs differ. This test
computes both outputs the way ``perfbench/run.py`` does and checks them
against that file, writing nothing under ``perfbench/``.

``IVF_DIGESTS`` freezes the SHA-256 of the seed-1 fixture's ``index
build``, of that index loaded and saved again, and of its ``retrieve
--index`` hits (``tests/ivf_digests.py``), in this process and at 1 and 2
BLAS threads.
"""

import ast
import json
import sys
from pathlib import Path

import pytest

from retroclass import cli
from retroclass.harness import SweepGrid, emit_report, run_sweep, synth_fixture
from conftest import run_bits
from ivf_digests import digests

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(BENCH))

import common  # noqa: E402
import gen  # noqa: E402

DIGESTS = json.loads((BENCH / "digests.json").read_text(encoding="utf-8"))


def _sweep_grid() -> dict:
    """``SWEEP_GRID`` of ``perfbench/run.py``, read without importing the
    module: importing it sets ``OPENBLAS_NUM_THREADS=1`` for the rest of
    the process."""
    tree = ast.parse((BENCH / "run.py").read_text(encoding="utf-8"))
    return next(ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign)
                and [t.id for t in node.targets
                     if isinstance(t, ast.Name)] == ["SWEEP_GRID"])


SWEEP_GRID = _sweep_grid()


@pytest.mark.parametrize("variant", range(gen.FIXTURE_VARIANTS))
def test_outputs_match_the_benchmark_digests(variant, tmp_path):
    """The sweep-grid CSV (``run_sweep`` over the grid, then
    ``emit_report`` as CSV) and the eval-cli report (``retroclass eval``
    over the fixture saved to a directory, timings removed) of the variant
    hash to the digests the benchmark checks."""
    fixture = synth_fixture(seed=variant, **gen.FIXTURE)
    reports = run_sweep(SweepGrid.from_dict(SWEEP_GRID), fixture.build_specs(),
                        fixture.queries, list(fixture.labels),
                        fixture.llm_bank, fixture.vlm_bank, threads=1)
    emit_report(reports, "csv", tmp_path / "sweep.csv")
    fixture.save(tmp_path / "fx")
    argv = ["eval", "--fixture-dir", str(tmp_path / "fx"), "--threads", "1",
            "--out", str(tmp_path / "report.json")]
    assert cli.main(argv) == 0
    report = common.report_bytes_without_timing(
        (tmp_path / "report.json").read_bytes())
    for key, data in (("sweep-grid", (tmp_path / "sweep.csv").read_bytes()),
                      ("eval-cli", report)):
        assert common.sha256_hex(data) == DIGESTS[key][str(variant)], key


# the index file is written in list order, so a loaded index saves it again
IVF_DIGESTS = {
    "index_build":
        "d7df81621463de3f2e661d27b43cb831a98042f506e530a4ddd0784b4e1a6a50",
    "index_resave":
        "d7df81621463de3f2e661d27b43cb831a98042f506e530a4ddd0784b4e1a6a50",
    "retrieve":
        "acf1016078e4f2d84eeb570ec7ec1c686e65b1eded8830b9056c7f82c97e346e",
}


def test_ivf_outputs_match_their_frozen_digests(tmp_path):
    assert digests(tmp_path) == IVF_DIGESTS


@pytest.mark.parametrize("blas_threads", [1, 2])
def test_ivf_outputs_match_their_frozen_digests_at_blas_threads(
        tmp_path, blas_threads):
    got = run_bits("ivf_digests.py", tmp_path / "digests.npz", blas_threads,
                   tmp_path)
    assert {name: str(got[name]) for name in IVF_DIGESTS} == IVF_DIGESTS
