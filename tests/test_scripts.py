"""The example scripts under scripts/ run end to end on the current API."""

import os
import subprocess
import sys
from pathlib import Path

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


def test_run_fixture_eval_small(tmp_path):
    proc = run_script("run_fixture_eval.py", "--n-classes", 4, "--dim", 16,
                      "--queries-per-class", 3, "--captions-per-class", 6,
                      cwd=tmp_path)
    assert "margin:" in proc.stdout


def test_sweep_alpha_beta_small(tmp_path):
    out = tmp_path / "sweep.csv"
    run_script("sweep_alpha_beta.py", "--n-classes", 4, "--dim", 16,
               "--queries-per-class", 3, "--captions-per-class", 6,
               "--alphas", "0,0.5", "--betas", "0,0.5", "--out", out,
               cwd=tmp_path)
    assert len(out.read_text().splitlines()) == 1 + 4
