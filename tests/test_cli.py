import json
import os
import resource
import shutil
import stat
import subprocess
import sys

import numpy as np
import pytest

from retroclass.bank import EmbeddingBank, bank_load, bank_save

CLI = [sys.executable, "-m", "retroclass"]


def run_cli(*args, env_log=None, check=True, blas_threads=None):
    env = dict(os.environ)
    env.pop("RETROCLASS_LOG", None)
    if env_log is not None:
        env["RETROCLASS_LOG"] = env_log
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = str(blas_threads)
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
                    "dtype": "float32", "version": 2, "norms_ok": True}


def test_parser_is_built_once_and_keeps_no_arguments(tmp_path, capsys):
    """``cli.main`` reuses one parser; a flag of one call does not carry
    over to the next."""
    from retroclass import cli
    assert cli.build_parser() is cli.build_parser()
    path = tmp_path / "a.bank"
    bank_save(EmbeddingBank.from_matrix(np.eye(3), "llm-text"), path)
    for argv, norms in ((["--check-norms"], True), ([], None)):
        assert cli.main(["bank", "inspect", "--bank", str(path)] + argv) == 0
        assert json.loads(capsys.readouterr().out).get("norms_ok") is norms


def test_bank_build_meta_count_mismatch(tmp_path):
    rng = np.random.default_rng(0)
    np.save(tmp_path / "v.npy", rng.standard_normal((3, 4)))
    meta = tmp_path / "m.jsonl"
    meta.write_text('{"id": 0, "text": "only one"}\n')
    proc = run_cli("bank", "build", "--vectors", tmp_path / "v.npy",
                   "--tag", "llm-text", "--meta", meta,
                   "--out", tmp_path / "x.bank", check=False)
    assert proc.returncode == 2


def test_bank_build_meta_id_defaults_to_line_number(tmp_path):
    np.save(tmp_path / "v.npy", np.ones((2, 4)))
    meta = tmp_path / "m.jsonl"
    meta.write_text('{"text": "zero"}\n{"text": "one", "source": "s"}\n')
    run_cli("bank", "build", "--vectors", tmp_path / "v.npy", "--tag",
            "llm-text", "--meta", meta, "--out", tmp_path / "ok.bank")
    records = bank_load(tmp_path / "ok.bank").metadata([0, 1])
    assert [(r.id, r.text, r.source) for r in records] == \
        [(0, "zero", None), (1, "one", "s")]
    meta.write_text('{"text": "zero"}\n{"id": 0, "text": "one"}\n')
    proc = run_cli("bank", "build", "--vectors", tmp_path / "v.npy", "--tag",
                   "llm-text", "--meta", meta, "--out", tmp_path / "bad.bank",
                   check=False)
    assert proc.returncode == 2 and "carries id 0, expected 1" in proc.stderr
    # only a JSON integer is an id: no string, fraction or boolean passes
    for rid in ('"1"', "1.9", "true"):
        meta.write_text('{"text": "zero"}\n{"id": %s, "text": "one"}\n' % rid)
        proc = run_cli("bank", "build", "--vectors", tmp_path / "v.npy",
                       "--tag", "llm-text", "--meta", meta, "--out",
                       tmp_path / "bad.bank", check=False)
        assert proc.returncode == 2, rid
        assert f"carries id {rid}, expected 1" in proc.stderr, rid


def test_out_writes_through_symlink_and_streams_to_pipe(workdir, tmp_path):
    fx = workdir / "fx"
    argv = ["retrieve", "--bank", fx / "llm_db.bank", "--queries",
            fx / "retrieval_queries.bank", "--k", 3, "--out"]
    run_cli(*argv, tmp_path / "plain.jsonl")
    expected = (tmp_path / "plain.jsonl").read_bytes()
    target = tmp_path / "real.jsonl"
    target.write_text("old\n")
    target.chmod(0o600)
    link = tmp_path / "link.jsonl"
    link.symlink_to(target)
    run_cli(*argv, link)
    assert link.is_symlink() and target.read_bytes() == expected
    assert stat.S_IMODE(target.stat().st_mode) == 0o600
    assert {p.name for p in tmp_path.iterdir()} == \
        {"plain.jsonl", "real.jsonl", "link.jsonl"}
    # a pipe cannot be replaced, so the report streams into it
    assert run_cli(*argv, "/dev/stdout").stdout == expected.decode()


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


@pytest.mark.parametrize("command", ["eval", "sweep"])
def test_fixture_dir_rejects_file_flags(workdir, tmp_path, command):
    """The inputs come from --fixture-dir or from the file flags, never a
    mix; index, config and --threads flags still combine with it."""
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"alphas": [0.0], "betas": [0.0]}))
    argv = [command, "--fixture-dir", workdir / "fx", "--threads", 2,
            "--out", tmp_path / "out"]
    argv += ["--grid", grid] if command == "sweep" else []
    run_cli(*argv)
    for flags in (["--queries", tmp_path / "missing.bank"],
                  ["--labels", "l.json", "--vlm-bank", "v.bank"]):
        (tmp_path / "out").unlink(missing_ok=True)
        proc = run_cli(*argv, *flags, check=False)
        assert proc.returncode == 2, proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), proc.stderr
        assert all(f in lines[0] for f in flags[::2]), proc.stderr
        assert not (tmp_path / "out").exists()


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


def test_integer_valued_config_eval_row_equals_sweep_row(workdir, tmp_path):
    fx = workdir / "fx"
    config, grid = tmp_path / "cfg.json", tmp_path / "grid.json"
    config.write_text(json.dumps({"alpha": 0, "beta": 1}))
    grid.write_text(json.dumps({"alphas": [0], "betas": [1]}))
    run_cli("eval", "--fixture-dir", fx, "--config", config, "--format", "csv",
            "--out", tmp_path / "eval.csv")
    run_cli("sweep", "--fixture-dir", fx, "--grid", grid,
            "--out", tmp_path / "sweep.csv")
    rows = [(tmp_path / f"{name}.csv").read_text().splitlines()
            for name in ("eval", "sweep")]
    assert rows[0] == rows[1]
    assert rows[0][1].split(",")[2:4] == ["0.0", "1.0"]


def test_large_k_does_not_size_the_hit_table(workdir, tmp_path):
    """k beyond the caption count costs no memory: the run fits in a 3 GB
    address space, where two (n, k) tables would need 30 GB each."""
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"k": 10**9}))
    limit = 3 * 1024 ** 3
    proc = subprocess.run(
        [*CLI, "eval", "--fixture-dir", str(workdir / "fx"), "--config",
         str(config), "--out", str(tmp_path / "r.json")],
        capture_output=True, text=True,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS,
                                              (limit, limit)))
    assert proc.returncode == 0, proc.stderr
    assert json.loads((tmp_path / "r.json").read_text())[
        "reports"][0]["config"]["k"] == 10**9


def _strip_timing(path):
    return [{k: v for k, v in rep.items() if k != "wall_time_ms"}
            for rep in json.loads(path.read_text())["reports"]]


def test_sweep_with_indexes_equals_per_point_eval(workdir, tmp_path):
    fx = workdir / "fx"
    flags = ["--nprobe", 1]
    for name in ("llm", "vlm"):
        idx = tmp_path / f"{name}.ivf"
        run_cli("index", "build", "--bank", fx / f"{name}_db.bank",
                "--clusters", 4, "--seed", 0, "--out", idx)
        flags += [f"--{name}-index", idx]
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"alphas": [0.0, 0.4], "betas": [0.0, 0.5]}))
    sweeps = {}
    for tag, extra in (("exact", []), ("ivf", flags)):
        out = tmp_path / f"{tag}.json"
        run_cli("sweep", "--fixture-dir", fx, "--grid", grid,
                "--format", "json", *extra, "--out", out)
        sweeps[tag] = _strip_timing(out)
    # one list of about 10 captions per probe changes the query branch here
    assert sweeps["ivf"] != sweeps["exact"]
    points = []
    for i, rep in enumerate(sweeps["ivf"]):
        config, out = tmp_path / f"c{i}.json", tmp_path / f"e{i}.json"
        config.write_text(json.dumps(rep["config"]))
        run_cli("eval", "--fixture-dir", fx, "--config", config, *flags,
                "--out", out)
        points += _strip_timing(out)
    assert sweeps["ivf"] == points


@pytest.mark.parametrize("command", ["retrieve", "enrich-prototypes",
                                     "classify", "eval", "sweep"])
def test_nprobe_without_index_is_a_validation_error(workdir, tmp_path,
                                                    command):
    fx = workdir / "fx"
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"alphas": [0.2], "betas": [0.5]}))
    argv = {
        "retrieve": ["--bank", fx / "llm_db.bank",
                     "--queries", fx / "retrieval_queries.bank", "--k", 3],
        "enrich-prototypes": [
            "--classes", fx / "classes.json",
            "--proto-bank", fx / "prototypes.bank",
            "--retrieval-bank", fx / "retrieval_queries.bank",
            "--llm-bank", fx / "llm_db.bank", "--vlm-bank", fx / "vlm_db.bank"],
        "classify": ["--queries", fx / "queries.bank",
                     "--prototypes", fx / "prototypes.bank",
                     "--vlm-bank", fx / "vlm_db.bank"],
        "eval": ["--fixture-dir", fx],
        "sweep": ["--fixture-dir", fx, "--grid", grid],
    }[command]
    proc = run_cli(command, *argv, "--nprobe", 5, "--out", tmp_path / "out",
                   check=False)
    assert proc.returncode == 2, proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: --nprobe needs")
    assert not (tmp_path / "out").exists()


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


def test_index_inspect(workdir, tmp_path):
    fx = workdir / "fx"
    idx = tmp_path / "llm.ivf"
    run_cli("index", "build", "--bank", fx / "llm_db.bank", "--clusters", 4,
            "--seed", 2, "--out", idx)
    proc = run_cli("index", "inspect", "--index", idx)
    info = json.loads(proc.stdout)
    assert list(info) == ["n_clusters", "dim", "seed", "list_size_min",
                          "list_size_mean", "list_size_max", "imbalance"]
    assert (info["n_clusters"], info["dim"], info["seed"]) == (4, 16, 2)
    assert info["list_size_mean"] == 10.0  # 40 rows over 4 lists
    assert 1 <= info["list_size_min"] <= 10 <= info["list_size_max"]
    assert info["imbalance"] == info["list_size_max"] / 10.0
    run_cli("index", "inspect", "--index", idx, "--out", tmp_path / "i.json")
    assert (tmp_path / "i.json").read_text() == proc.stdout
    idx.write_bytes(idx.read_bytes()[:-4])
    proc = run_cli("index", "inspect", "--index", idx, check=False)
    assert proc.returncode == 3 and proc.stderr.startswith("error:")


def test_exit_code_nonfinite_bank_row(workdir, tmp_path):
    """A NaN row in a bank file is corrupt data, not a silently empty hit
    list."""
    fx = workdir / "fx"
    bank_path = tmp_path / "nan.bank"
    raw = bytearray((fx / "llm_db.bank").read_bytes())
    raw[-16 * 4:] = np.full(16, np.nan, "<f4").tobytes()  # the last row
    bank_path.write_bytes(bytes(raw))
    proc = run_cli("retrieve", "--bank", bank_path,
                   "--queries", fx / "retrieval_queries.bank", "--k", 3,
                   "--out", tmp_path / "h.jsonl", check=False)
    assert proc.returncode == 3
    assert proc.stderr.splitlines() == [
        "error: bank row 39 gives a non-finite score (nan)"]


def _nan_row_bank(fx, tmp_path):
    """The fixture's 40x16 llm bank with its row 7 set to NaN."""
    bank_path = tmp_path / "nan.bank"
    raw = bytearray((fx / "llm_db.bank").read_bytes())
    start = len(raw) - (40 - 7) * 16 * 4
    raw[start:start + 16 * 4] = np.full(16, np.nan, "<f4").tobytes()
    bank_path.write_bytes(bytes(raw))
    return bank_path


def test_retrieve_nan_bank_row_in_a_64_query_batch_exits_3(workdir,
                                                          tmp_path):
    bank_path = _nan_row_bank(workdir / "fx", tmp_path)
    queries = tmp_path / "q.bank"
    rng = np.random.default_rng(3)
    bank_save(EmbeddingBank.from_matrix(rng.standard_normal((64, 16)),
                                        "llm-text"), queries)
    proc = run_cli("retrieve", "--bank", bank_path, "--queries", queries,
                   "--k", 5, "--out", tmp_path / "h.jsonl", check=False)
    assert proc.returncode == 3
    assert proc.stderr.splitlines() == [
        "error: bank row 7 gives a non-finite score (nan)"]


def test_index_build_on_nonfinite_bank_row_is_corrupt(workdir, tmp_path):
    bank_path = _nan_row_bank(workdir / "fx", tmp_path)
    idx = tmp_path / "nan.ivf"
    proc = run_cli("index", "build", "--bank", bank_path, "--clusters", 4,
                   "--out", idx, check=False)
    assert proc.returncode == 3
    assert proc.stderr.splitlines() == ["error: bank row 7 is not finite"]
    assert not idx.exists()


def test_check_norms_on_nonfinite_bank_row_is_corrupt(workdir, tmp_path):
    bank_path = _nan_row_bank(workdir / "fx", tmp_path)
    proc = run_cli("bank", "inspect", "--bank", bank_path, "--check-norms",
                   check=False)
    assert proc.returncode == 3
    assert json.loads(proc.stdout)["norms_ok"] is False
    assert proc.stderr.splitlines() == ["error: bank rows are not unit norm"]


def test_nonfinite_query_row_is_a_validation_error_naming_it(workdir,
                                                            tmp_path):
    """A NaN query row is named as the bad query: not blamed on the caption
    bank, not scored into a wrong accuracy or NaN logits."""
    fx = tmp_path / "fx"
    shutil.copytree(workdir / "fx", fx)
    raw = bytearray((fx / "queries.bank").read_bytes())
    start = len(raw) - (20 - 4) * 16 * 4
    raw[start:start + 16 * 4] = np.full(16, np.nan, "<f4").tobytes()
    (fx / "queries.bank").write_bytes(bytes(raw))
    configs = []
    for i, point in enumerate([{}, {"alpha": 0.0, "beta": 0.0},
                               {"alpha": 0.2, "beta": 0.0}]):
        configs.append(tmp_path / f"cfg{i}.json")
        configs[-1].write_text(json.dumps(point))
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"alphas": [0.0, 0.2], "betas": [0.0, 0.5]}))
    argvs = [["eval", "--fixture-dir", fx, "--config", c] for c in configs]
    argvs += [["sweep", "--fixture-dir", fx, "--grid", grid]]
    argvs += [["classify", "--queries", fx / "queries.bank",
               "--prototypes", fx / "prototypes.bank", "--config", c,
               "--vlm-bank", fx / "vlm_db.bank"] for c in configs]
    for argv in argvs:
        proc = run_cli(*argv, "--out", tmp_path / "out", check=False)
        assert proc.returncode == 2, (argv, proc.stderr)
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: query 4: "), \
            (argv, proc.stderr)
        assert not (tmp_path / "out").exists()


def _retagged_queries(fx, tmp_path):
    """A copy of the fixture directory whose query bank is tagged
    llm-text, while its prototypes stay vlm-text."""
    out = tmp_path / "retagged"
    shutil.copytree(fx, out)
    queries = bank_load(fx / "queries.bank")
    bank_save(EmbeddingBank(np.array(queries.vectors), "llm-text"),
              out / "queries.bank")
    return out


def test_query_space_mismatch_at_beta_zero_is_a_validation_error(
        workdir, tmp_path):
    """Queries are scored against the prototypes even when beta is 0 and
    no query is retrieved, so their spaces must match then too."""
    fx = _retagged_queries(workdir / "fx", tmp_path)
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"alpha": 0.2, "beta": 0.0}))
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"alphas": [0.0, 0.2], "betas": [0.0]}))
    for argv in (["eval", "--fixture-dir", fx, "--config", config],
                 ["sweep", "--fixture-dir", fx, "--grid", grid],
                 ["classify", "--queries", fx / "queries.bank",
                  "--prototypes", fx / "prototypes.bank",
                  "--config", config]):
        proc = run_cli(*argv, "--out", tmp_path / "out", check=False)
        assert proc.returncode == 2, proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and "'llm-text'" in lines[0], proc.stderr
        assert not (tmp_path / "out").exists()


def _explicit_eval(fx, labels, classes):
    return ["eval", "--queries", fx / "queries.bank", "--labels", labels,
            "--classes", classes, "--proto-bank", fx / "prototypes.bank",
            "--retrieval-bank", fx / "retrieval_queries.bank",
            "--llm-bank", fx / "llm_db.bank", "--vlm-bank", fx / "vlm_db.bank"]


def _eval_config(fx, path):
    return ["eval", "--fixture-dir", fx, "--config", path]


def _sweep_grid(fx, path):
    return ["sweep", "--fixture-dir", fx, "--grid", path]


def _build_meta(fx, path):
    np.save(path.with_name("one_row.npy"), np.ones((1, 4)))
    return ["bank", "build", "--vectors", path.with_name("one_row.npy"),
            "--tag", "llm-text", "--meta", path]


# (case, file contents, command line given the fixture dir and the file)
MALFORMED_INPUTS = [
    ("config-k-string", b'{"k": "10"}', _eval_config),
    ("config-not-utf8", b'{"k": 10, "note": "\xff"}', _eval_config),
    ("config-deep-nesting", b"[" * 100_000, _eval_config),
    ("config-k-fraction", b'{"k": 2.5}', _eval_config),
    ("config-toggle-string", b'{"use_temperature_tt": "false"}', _eval_config),
    ("config-alpha-boolean", b'{"alpha": true, "beta": false, "tau_tt": true}',
     _eval_config),
    ("grid-alpha-string", b'{"alphas": ["x"], "betas": [0]}', _sweep_grid),
    ("grid-alphas-number", b'{"alphas": 5, "betas": [0]}', _sweep_grid),
    ("grid-toggle-string", b'{"alphas": [0], "betas": [0], "toggles": '
     b'[{"use_temperature_tt": "false"}]}', _sweep_grid),
    ("grid-toggle-misspelt-key", b'{"alphas": [0], "betas": [0], "toggles": '
     b'[{"use_temperature_t": false}]}', _sweep_grid),
    ("classes-prefix-number",
     b'{"classes": [{"name": "a"}], "zeroshot_prefix": 5, '
     b'"retrieval_prefix": "a photo of a"}',
     lambda fx, path: _explicit_eval(fx, fx / "labels.json", path)),
    ("labels-strings", b'["a"]',
     lambda fx, path: _explicit_eval(fx, path, fx / "classes.json")),
    ("labels-infinite", b"[1e999]",
     lambda fx, path: _explicit_eval(fx, path, fx / "classes.json")),
    ("labels-fraction", b"[1.7]",
     lambda fx, path: _explicit_eval(fx, path, fx / "classes.json")),
    ("labels-boolean", b"[true]",
     lambda fx, path: _explicit_eval(fx, path, fx / "classes.json")),
    ("grid-alpha-boolean", b'{"alphas": [true], "betas": [0]}', _sweep_grid),
    ("grid-alpha-numeric-string", b'{"alphas": ["0.5"], "betas": [0]}',
     _sweep_grid),
    ("meta-line-number", b"5\n", _build_meta),
    ("meta-id-string", b'{"id": "x", "text": "a"}\n', _build_meta),
]


@pytest.mark.parametrize("contents,argv", [case[1:] for case in MALFORMED_INPUTS],
                         ids=[case[0] for case in MALFORMED_INPUTS])
def test_malformed_input_file_is_a_validation_error(workdir, tmp_path,
                                                    contents, argv):
    path = tmp_path / "input"
    path.write_bytes(contents)
    proc = run_cli(*argv(workdir / "fx", path), "--out", tmp_path / "out",
                   check=False)
    assert proc.returncode == 2, proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), proc.stderr
    assert "Traceback" not in proc.stderr


def test_grid_value_error_names_the_grid_file(workdir, tmp_path):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"alphas": [2.0], "betas": [0.0]}))
    proc = run_cli(*_sweep_grid(workdir / "fx", grid), "--out",
                   tmp_path / "out", check=False)
    assert proc.returncode == 2, proc.stderr
    assert str(grid) in proc.stderr and "alpha" in proc.stderr
    assert not (tmp_path / "out").exists()


def _save_vectors(tmp_path, kind):
    m = np.random.default_rng(0).standard_normal((3, 4))
    if kind == "npz":
        np.savez(tmp_path / "v.npz", m)
        return tmp_path / "v.npz"
    arrays = {"strings": m.astype(str), "structured": np.zeros((3, 4), "f4,f4"),
              "complex": m + 1j}
    np.save(tmp_path / "v.npy", arrays[kind])
    return tmp_path / "v.npy"


@pytest.mark.parametrize("kind", ["npz", "strings", "structured", "complex"])
def test_bank_build_needs_one_real_numeric_array(tmp_path, kind):
    out = tmp_path / "x.bank"
    proc = run_cli("bank", "build", "--vectors", _save_vectors(tmp_path, kind),
                   "--tag", "llm-text", "--out", out, check=False)
    assert proc.returncode == 2, proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), proc.stderr
    assert not out.exists()


def test_bank_build_refuses_a_row_whose_norm_overflows(tmp_path):
    np.save(tmp_path / "v.npy", np.array([[3.0, 4.0], [1e200, 1e200]]))
    out = tmp_path / "x.bank"
    proc = run_cli("bank", "build", "--vectors", tmp_path / "v.npy",
                   "--tag", "llm-text", "--out", out, check=False)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == "error: row 1 norm overflows\n"
    assert not out.exists()


@pytest.mark.parametrize("dtype,order", [
    ("<f4", "C"), ("<f4", "F"), ("<f8", "C"), ("<f8", "F"), ("<i2", "C"),
    (">f4", "C"), (">f8", "F")])
def test_bank_build_of_a_mapped_npy_is_the_whole_read_bytes(tmp_path, dtype,
                                                           order):
    """``bank build`` maps its ``.npy``; the bank and sidecar bytes are those
    of building from the array read whole, across normalization steps."""
    from retroclass.cli import main
    rows = np.random.default_rng(3).standard_normal((5000, 64)) * 300
    np.save(tmp_path / "v.npy", np.asarray(rows, dtype=dtype, order=order))
    assert main(["bank", "build", "--vectors", str(tmp_path / "v.npy"),
                 "--tag", "llm-text", "--out", str(tmp_path / "a.bank")]) == 0
    bank_save(EmbeddingBank.from_matrix(np.load(tmp_path / "v.npy"),
                                        "llm-text"), tmp_path / "b.bank")
    for name in ("{}.bank", "{}.bank.meta.jsonl"):
        assert (tmp_path / name.format("a")).read_bytes() == \
            (tmp_path / name.format("b")).read_bytes()
    if dtype[1] == "f":
        rows[4100, 5] = np.nan
        np.save(tmp_path / "v.npy", np.asarray(rows, dtype=dtype, order=order))
        proc = run_cli("bank", "build", "--vectors", tmp_path / "v.npy",
                       "--tag", "llm-text", "--out", tmp_path / "c.bank",
                       check=False)
        assert proc.returncode == 2
        assert proc.stderr == "error: row 4100 contains non-finite values\n"


@pytest.mark.parametrize("argv", [
    ["index", "build", "--bank", "FX/llm_db.bank", "--clusters", "2",
     "--seed=-1"],
    ["index", "build", "--bank", "FX/llm_db.bank", "--clusters", "2",
     "--seed", str(2**64)],
    ["fixture", "--seed=-1", "--n-classes", "2", "--dim", "4",
     "--queries-per-class", "1", "--captions-per-class", "1",
     "--eta-p", "0.5", "--eta-c", "0.1"],
], ids=["index-negative", "index-too-large", "fixture-negative"])
def test_out_of_range_seed_is_a_validation_error(workdir, tmp_path, argv):
    argv = [a.replace("FX", str(workdir / "fx")) for a in argv]
    out = ["--out-dir" if argv[0] == "fixture" else "--out", tmp_path / "out"]
    proc = run_cli(*argv, *out, check=False)
    assert proc.returncode == 2, proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and "seed" in lines[0], proc.stderr
    assert not (tmp_path / "out").exists()


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


def test_retrieve_bytes_do_not_depend_on_blas_threads(tmp_path):
    """Over 8193 x 256 with 64 queries at k 8193, every score of every row
    is written, and OpenBLAS splits the products between its threads; the
    hits file is the same at 1 and 2 BLAS threads."""
    rng = np.random.default_rng(8193)
    for name, rows in (("bank", 8193), ("queries", 64)):
        np.save(tmp_path / f"{name}.npy",
                rng.standard_normal((rows, 256)).astype(np.float32))
        run_cli("bank", "build", "--vectors", tmp_path / f"{name}.npy",
                "--tag", "llm-text", "--out", tmp_path / f"{name}.bank")
    outs = []
    for threads in (1, 2):
        outs.append(tmp_path / f"hits{threads}.jsonl")
        run_cli("retrieve", "--bank", tmp_path / "bank.bank", "--queries",
                tmp_path / "queries.bank", "--k", 8193, "--out", outs[-1],
                blas_threads=threads)
    assert len(outs[0].read_text().splitlines()) == 64
    assert outs[0].read_bytes() == outs[1].read_bytes()
