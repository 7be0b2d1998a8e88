"""The scripts under scripts/ run end to end on the current API: the
golden regenerator reproduces the frozen goldens byte for byte, and each
bench script records a before and an after run in one JSON file."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import retroclass

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"
GOLDEN = ROOT / "tests" / "golden"


def run_script(name, *args, cwd):
    # the scripts import the same retroclass as this test, run from any cwd
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(retroclass.__file__).resolve().parent.parent),
         env.get("PYTHONPATH", "")])
    proc = subprocess.run([sys.executable, SCRIPTS / name, *map(str, args)],
                          capture_output=True, text=True, cwd=cwd, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc


def test_regen_golden_reproduces_the_frozen_goldens(tmp_path):
    run_script("regen_golden.py", "--out-dir", tmp_path / "golden",
               cwd=tmp_path)
    written = sorted(p.name for p in (tmp_path / "golden").iterdir())
    assert written == sorted(p.name for p in GOLDEN.iterdir())
    for name in written:
        assert (tmp_path / "golden" / name).read_bytes() == \
            (GOLDEN / name).read_bytes(), name


def test_bench_scan_small(tmp_path):
    out = tmp_path / "bench.json"
    for label in ("before", "after"):
        run_script("bench_scan.py", "--out", out, "--label", label,
                   "--rows", 300, "--dim", 16, "--mapped-rows", 1000,
                   "--mapped-dim", 8, "--repeats", 2, cwd=tmp_path)
    runs = json.loads(out.read_text())["runs"]
    assert sorted(runs) == ["after", "before"]
    search = runs["after"]["search"]
    assert sorted(search) == ["cli_retrieve_mapped", "mapped_1_row",
                              "memory_1_rows", "memory_256_rows",
                              "memory_2_rows", "memory_320_rows",
                              "memory_3_rows", "memory_64_rows"]
    assert search["memory_64_rows"]["query_rows"] == 64
    assert search["memory_256_rows"]["query_rows"] == 256
    assert search["mapped_1_row"]["bank_rows"] == 1000
    assert search["cli_retrieve_mapped"]["rescored_per_query"] is None
    # each query re-scores at least its k candidates
    assert all(entry["rescored_per_query"] >= 10 for name, entry in
               search.items() if name != "cli_retrieve_mapped")
    assert runs["after"]["machine"]["numpy"] == np.__version__
    # the running OpenBLAS core's name, or null where it cannot be read
    core = runs["after"]["machine"]["blas_core"]
    assert core is None or isinstance(core, str) and core


def test_bench_setup_small(tmp_path):
    out = tmp_path / "bench.json"
    for label in ("before", "after"):
        run_script("bench_setup.py", "--out", out, "--label", label,
                   "--rows", 600, "--dim", 8, "--clusters", 4,
                   "--repeats", 2, cwd=tmp_path)
    runs = json.loads(out.read_text())["runs"]
    assert sorted(runs) == ["after", "before"]
    after = runs["after"]
    assert after["shape"] == {"rows": 600, "dim": 8, "clusters": 4}
    assert sorted(after["bank_build"]) == [
        "load_ms", "normalize_ms", "payload_ms", "repeats", "sidecar_ms",
        "total_ms"]
    assert sorted(after["index_build"]) == [
        "assign_ms", "load_ms", "repeats", "save_ms", "total_ms", "train_ms"]
    for command in ("bank_build", "index_build"):
        stages = after[command]
        assert stages["repeats"] == 2
        assert all(v["q1"] <= v["median"] <= v["q3"]
                   for k, v in stages.items() if k.endswith("_ms"))
        assert after["process"][command]["peak_rss_mb"]["median"] > 0
    assert sorted(after["process"]) == [
        "bank_build", "index_build", "retrieve_exact", "retrieve_index"]
    for child in after["process"].values():
        assert child["repeats"] == 2
        assert all(child[name]["q1"] <= child[name]["median"] <=
                   child[name]["q3"] for name in ("wall_s", "peak_rss_mb"))
    # the same synthetic input gives the same bytes on every run
    assert after["outputs"] == runs["before"]["outputs"]
    assert after["machine"]["numpy"] == np.__version__


def test_bench_ivf_small(tmp_path):
    out = tmp_path / "bench.json"
    for label in ("before", "after"):
        run_script("bench_ivf.py", "--out", out, "--label", label,
                   "--rows", 3000, "--dim", 16, "--clusters", 8, "--nprobe", 2,
                   "--queries", 40, "--repeats", 3, cwd=tmp_path)
    runs = json.loads(out.read_text())["runs"]
    assert sorted(runs) == ["after", "before"]
    after = runs["after"]
    assert after["shape"] == {"rows": 3000, "dim": 16, "clusters": 8,
                              "nprobe": 2, "k": 10, "queries": 40}
    # the rows follow the header, centroids, lists and padding
    assert after["index_bytes"] >= 3000 * (16 * 4 + 8)
    assert after["search_1_row"]["samples"] == 40
    for name in ("load_index", "search_1_row", "search_32_rows",
                 "cli_retrieve"):
        entry = after[name]
        assert 0 < entry["ms_q1"] <= entry["ms_median"] <= entry["ms_q3"]
    assert after["rss_rise_mb"] < 100
    # each search drops the index rows' pages at its end, so it faults
    # some of them back in
    assert after["minor_faults_per_search"] > 0
    # 32 rows probe 2 of the 8 lists each
    reuse = after["rows_per_probed_list"]
    assert all(1 <= int(r) <= 32 for r in reuse)
    assert sum(int(r) * c for r, c in reuse.items()) == 32 * 2
    assert sum(reuse.values()) <= 8
    assert after["machine"]["numpy"] == np.__version__


def test_bench_sweep_small(tmp_path):
    out = tmp_path / "bench.json"
    for label in ("before", "after"):
        run_script("bench_sweep.py", "--out", out, "--label", label,
                   "--n-classes", 4, "--dim", 16, "--queries-per-class", 3,
                   "--captions-per-class", 6, "--repeats", 3, cwd=tmp_path)
    runs = json.loads(out.read_text())["runs"]
    assert sorted(runs) == ["after", "before"]
    after = runs["after"]
    assert after["shape"] == {"seed": 3, "n_classes": 4, "dim": 16,
                              "queries_per_class": 3,
                              "captions_per_class": 6, "grid_points": 6}
    sweep = after["pass"]
    assert sweep["repeats"] == 3
    assert 0 < sweep["ms_q1"] <= sweep["ms_median"] <= sweep["ms_q3"]
    # 12 queries at each of the 6 grid points per median pass
    assert sweep["queries_per_s"] == pytest.approx(
        12 * 6 / sweep["ms_median"] * 1e3)
    assert sorted(after["stages"]) == ["classify_ms", "enrich_prototypes_ms",
                                       "rest_ms", "retrieve_ms"]
    for stage in after["stages"].values():
        assert stage["q1"] <= stage["median"] <= stage["q3"]
    # the same fixture gives the same CSV on every run
    assert after["csv_sha256"] == runs["before"]["csv_sha256"]
    assert "blas_core" in after["machine"]
