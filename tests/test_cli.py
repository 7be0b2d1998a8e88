import json
import os
import subprocess
import sys

import numpy as np
import pytest

from retroclass.bank import bank_load

CLI = [sys.executable, "-m", "retroclass"]


def run_cli(*args, env_log=None, check=True):
    env = dict(os.environ)
    env.pop("RETROCLASS_LOG", None)
    if env_log is not None:
        env["RETROCLASS_LOG"] = env_log
    proc = subprocess.run([*CLI, *map(str, args)], capture_output=True,
                          text=True, env=env)
    if check and proc.returncode != 0:
        raise AssertionError(
            f"cli failed ({proc.returncode}): {proc.stderr}\n{proc.stdout}")
    return proc


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """One fixture directory shared by the CLI tests in this module."""
    root = tmp_path_factory.mktemp("cli")
    run_cli("fixture", "--seed", 7, "--n-classes", 5, "--dim", 16,
            "--queries-per-class", 4, "--captions-per-class", 8,
            "--eta-p", 0.5, "--eta-c", 0.1, "--out-dir", root / "fx")
    return root


def test_fixture_writes_expected_files(workdir):
    names = {p.name for p in (workdir / "fx").iterdir()}
    assert {"queries.bank", "prototypes.bank", "retrieval_queries.bank",
            "llm_db.bank", "vlm_db.bank", "labels.json",
            "classes.json"} <= names


def test_fixture_deterministic(tmp_path):
    for d in ("a", "b"):
        run_cli("fixture", "--seed", 3, "--n-classes", 3, "--dim", 8,
                "--queries-per-class", 2, "--captions-per-class", 4,
                "--eta-p", 0.4, "--eta-c", 0.1, "--out-dir", tmp_path / d)
    for name in ("queries.bank", "llm_db.bank", "labels.json"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()


def test_bank_build_and_inspect(tmp_path):
    rng = np.random.default_rng(0)
    np.save(tmp_path / "vecs.npy", rng.standard_normal((6, 4)))
    meta = tmp_path / "meta.jsonl"
    meta.write_text("".join(json.dumps({"id": i, "text": f"row {i}"}) + "\n"
                            for i in range(6)))
    bank_path = tmp_path / "built.bank"
    run_cli("bank", "build", "--vectors", tmp_path / "vecs.npy",
            "--tag", "llm-text", "--meta", meta, "--out", bank_path)
    bank = bank_load(bank_path)
    assert bank.count == 6 and bank.space_tag == "llm-text"
    assert bank.metadata([3])[0].text == "row 3"

    proc = run_cli("bank", "inspect", "--bank", bank_path, "--check-norms")
    info = json.loads(proc.stdout)
    assert info == {"dim": 4, "count": 6, "space_tag": "llm-text",
                    "dtype": "float32", "version": 1, "norms_ok": True}


def test_bank_build_meta_count_mismatch(tmp_path):
    rng = np.random.default_rng(0)
    np.save(tmp_path / "v.npy", rng.standard_normal((3, 4)))
    meta = tmp_path / "m.jsonl"
    meta.write_text('{"id": 0, "text": "only one"}\n')
    proc = run_cli("bank", "build", "--vectors", tmp_path / "v.npy",
                   "--tag", "llm-text", "--meta", meta,
                   "--out", tmp_path / "x.bank", check=False)
    assert proc.returncode == 2


def test_index_build_retrieve_roundtrip(workdir, tmp_path):
    fx = workdir / "fx"
    idx = tmp_path / "llm.ivf"
    run_cli("index", "build", "--bank", fx / "llm_db.bank",
            "--clusters", 4, "--seed", 1, "--out", idx)
    flat = tmp_path / "flat.jsonl"
    routed = tmp_path / "routed.jsonl"
    run_cli("retrieve", "--bank", fx / "llm_db.bank",
            "--queries", fx / "retrieval_queries.bank", "--k", 5,
            "--out", flat)
    run_cli("retrieve", "--bank", fx / "llm_db.bank",
            "--queries", fx / "retrieval_queries.bank", "--k", 5,
            "--index", idx, "--nprobe", 4, "--out", routed)
    # full probe must equal the exact scan byte-for-byte
    assert flat.read_bytes() == routed.read_bytes()
    first = json.loads(flat.read_text().splitlines()[0])
    assert set(first) == {"query_id", "hits"}
    assert len(first["hits"]) == 5


def test_enrich_classify_eval_flow(workdir, tmp_path):
    fx = workdir / "fx"
    proto_bank = tmp_path / "enriched.bank"
    run_cli("enrich-prototypes", "--classes", fx / "classes.json",
            "--proto-bank", fx / "prototypes.bank",
            "--retrieval-bank", fx / "retrieval_queries.bank",
            "--llm-bank", fx / "llm_db.bank", "--vlm-bank", fx / "vlm_db.bank",
            "--out", proto_bank)
    assert bank_load(proto_bank).count == 5

    preds = tmp_path / "preds.jsonl"
    run_cli("classify", "--queries", fx / "queries.bank",
            "--prototypes", proto_bank, "--vlm-bank", fx / "vlm_db.bank",
            "--out", preds)
    lines = preds.read_text().splitlines()
    assert len(lines) == 20
    assert json.loads(lines[0])["enriched"] is True

    report = tmp_path / "report.json"
    run_cli("eval", "--fixture-dir", fx, "--out", report)
    obj = json.loads(report.read_text())
    assert obj["schema_version"] == 1
    assert obj["reports"][0]["n_queries"] == 20


def test_classify_beta_without_vlm_bank_is_validation_error(workdir, tmp_path):
    fx = workdir / "fx"
    proto_bank = tmp_path / "p.bank"
    run_cli("enrich-prototypes", "--classes", fx / "classes.json",
            "--proto-bank", fx / "prototypes.bank",
            "--retrieval-bank", fx / "retrieval_queries.bank",
            "--llm-bank", fx / "llm_db.bank", "--vlm-bank", fx / "vlm_db.bank",
            "--out", proto_bank)
    proc = run_cli("classify", "--queries", fx / "queries.bank",
                   "--prototypes", proto_bank, "--out", tmp_path / "p.jsonl",
                   check=False)
    assert proc.returncode == 2
    assert "vlm-bank" in proc.stderr


def test_eval_explicit_banks_match_fixture_dir(workdir, tmp_path):
    fx = workdir / "fx"
    r1 = tmp_path / "r1.json"
    r2 = tmp_path / "r2.json"
    run_cli("eval", "--fixture-dir", fx, "--out", r1)
    run_cli("eval", "--queries", fx / "queries.bank",
            "--labels", fx / "labels.json", "--classes", fx / "classes.json",
            "--proto-bank", fx / "prototypes.bank",
            "--retrieval-bank", fx / "retrieval_queries.bank",
            "--llm-bank", fx / "llm_db.bank", "--vlm-bank", fx / "vlm_db.bank",
            "--out", r2)
    strip = lambda p: [
        {k: v for k, v in rep.items() if k != "wall_time_ms"}
        for rep in json.loads(p.read_text())["reports"]]
    assert strip(r1) == strip(r2)


def test_eval_missing_inputs_lists_flags(tmp_path):
    proc = run_cli("eval", "--out", tmp_path / "r.json", check=False)
    assert proc.returncode == 2
    assert "--queries" in proc.stderr and "--fixture-dir" in proc.stderr


def test_sweep_csv(workdir, tmp_path):
    fx = workdir / "fx"
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"alphas": [0.0, 0.2], "betas": [0.0, 0.5]}))
    out = tmp_path / "sweep.csv"
    run_cli("sweep", "--fixture-dir", fx, "--grid", grid, "--out", out)
    lines = out.read_text().splitlines()
    assert len(lines) == 5
    assert lines[0].startswith("dataset,k,alpha,beta")


def test_cli_outputs_deterministic_across_runs_and_threads(workdir, tmp_path):
    fx = workdir / "fx"
    outs = []
    for tag, threads in (("a", 1), ("b", 3), ("c", 0)):
        out = tmp_path / f"report_{tag}.json"
        run_cli("eval", "--fixture-dir", fx, "--threads", threads,
                "--out", out)
        payload = json.loads(out.read_text())
        for rep in payload["reports"]:
            rep.pop("wall_time_ms")
        outs.append(payload)
    assert outs[0] == outs[1] == outs[2]

    h1, h2 = tmp_path / "h1.jsonl", tmp_path / "h2.jsonl"
    for out, threads in ((h1, 1), (h2, 6)):
        run_cli("retrieve", "--bank", fx / "vlm_db.bank",
                "--queries", fx / "queries.bank", "--k", 7,
                "--threads", threads, "--out", out)
    assert h1.read_bytes() == h2.read_bytes()


def test_exit_code_validation_error(workdir, tmp_path):
    fx = workdir / "fx"
    proc = run_cli("retrieve", "--bank", fx / "llm_db.bank",
                   "--queries", fx / "retrieval_queries.bank", "--k", 0,
                   "--out", tmp_path / "h.jsonl", check=False)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:")


def test_negative_threads_is_a_validation_error(workdir, tmp_path):
    fx = workdir / "fx"
    proc = run_cli("eval", "--fixture-dir", fx, "--threads", -1,
                   "--out", tmp_path / "r.json", check=False)
    assert proc.returncode == 2
    assert "threads must be >= 0" in proc.stderr


def test_exit_code_missing_file(tmp_path):
    proc = run_cli("bank", "inspect", "--bank", tmp_path / "nope.bank",
                   check=False)
    assert proc.returncode == 2


def test_exit_code_corrupt_bank(workdir, tmp_path):
    bank_path = tmp_path / "corrupt.bank"
    bank_path.write_bytes(b"NOTABANK" + bytes(40))
    proc = run_cli("bank", "inspect", "--bank", bank_path, check=False)
    assert proc.returncode == 3
    assert "byte offset 0" in proc.stderr


def test_exit_code_corrupt_index(workdir, tmp_path):
    fx = workdir / "fx"
    idx = tmp_path / "bad.ivf"
    run_cli("index", "build", "--bank", fx / "llm_db.bank", "--clusters", 2,
            "--seed", 0, "--out", idx)
    idx.write_bytes(idx.read_bytes()[:-4])
    proc = run_cli("retrieve", "--bank", fx / "llm_db.bank",
                   "--queries", fx / "retrieval_queries.bank", "--k", 3,
                   "--index", idx, "--nprobe", 2,
                   "--out", tmp_path / "h.jsonl", check=False)
    assert proc.returncode == 3


def test_bad_log_level_rejected(workdir):
    proc = run_cli("bank", "inspect", "--bank", "whatever",
                   env_log="loud", check=False)
    assert proc.returncode == 2
    assert "RETROCLASS_LOG" in proc.stderr


def test_log_level_debug_accepted(workdir, tmp_path):
    fx = workdir / "fx"
    proc = run_cli("bank", "inspect", "--bank", fx / "llm_db.bank",
                   env_log="debug")
    assert json.loads(proc.stdout)["count"] == 40
