#!/usr/bin/env python3
"""Pipeline benchmark for retroclass.

    python3 perfbench/run.py --workload eval-cli --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30 --trace 0

Workloads (each one process, a closed loop with one client, ``--threads 1``,
one BLAS thread):

* ``eval-cli``   ``retroclass eval --fixture-dir D --threads 1`` in-process
  through ``retroclass.cli.main``, on a saved fixture (memory-mapped banks).
* ``sweep-grid`` ``harness.run_sweep`` plus its CSV on in-memory banks from
  ``synth_fixture``, alphas {0, 0.2, 0.4} x betas {0, 0.5}.
* ``ivf-large``  set-up ingests a 440k x 256 bank with ``retroclass bank
  build`` and ``retroclass index build``; the measured part is a single-query
  ``ivf_search`` loop, an ``exact_topk`` loop and ``retroclass retrieve
  --index`` batch passes.

BENCHMARK.json lists ``sweep-grid`` and ``ivf-large``, whose results are
gated. ``eval-cli`` runs by name and under ``all`` but is not gated: its
scalar loops over unaligned memory-mapped banks swing with the host's speed
far more than the other two (see README.md).

With ``--trace 0`` the last line of output is a JSON object carrying every
end-to-end metric of BENCHMARK.json; with ``--trace 1`` it carries every
per-layer metric, from one traced pass compared against untraced passes of
the same run. Every output is checked; a failed check counts as a failed
operation and makes the exit code 1. Full results, machine facts and (when
traced) the spans go to perfbench/results/.
"""

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CACHE = HERE / ".cache"
WORK = HERE / ".work"
RESULTS = HERE / "results"
sys.path.insert(0, str(HERE))

# One BLAS thread, set before numpy loads and inherited by child processes,
# so that the measuring process uses one vCPU of a 2-vCPU host and never
# waits for a second BLAS thread that other tenants can slow.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import common  # noqa: E402
import gen  # noqa: E402
import tracing  # noqa: E402

WORKLOADS = ("eval-cli", "sweep-grid", "ivf-large")
SWEEP_GRID = {"alphas": [0.0, 0.2, 0.4], "betas": [0.0, 0.5]}
K = 10
IVF_CLUSTERS = 128
IVF_NPROBE = 8
IVF_P95_SAMPLES = 220          # at least 10 samples beyond p95
EXACT_MIN_SAMPLES = 8
EXACT_TRACED_QUERIES = 8
SCORE_ATOL = 1e-5
RECALL_FLOOR = 0.8             # seeds 1-5 measured 0.88-0.92 at nprobe 8
MIN_PASSES = 3                 # timed passes of eval-cli, sweep-grid, retrieve
TRACE_BASELINE_PASSES = 3      # untraced passes the traced pass is compared to
IMPORT_PROBES = 4              # before set-up, and again after measuring
SETUP_REPS = 3                 # set-up bodies per run; their median is reported
IVF_SETUP_REPS = 2             # ivf-large: each is a 440k-row ingest, ~13 s


def import_package():
    """Import retroclass from this checkout's src/, or exit non-zero."""
    sys.path.insert(0, str(SRC))
    try:
        import retroclass
        import retroclass.cli  # noqa: F401
    except ImportError as exc:
        sys.exit(f"error: cannot import retroclass from {SRC}: {exc}")
    if SRC.resolve() not in Path(retroclass.__file__).resolve().parents:
        sys.exit(f"error: retroclass imported from {retroclass.__file__}, "
                 f"not from {SRC}")
    return retroclass


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def load_json(name: str) -> dict:
    with open(HERE / name, encoding="utf-8") as fh:
        return json.load(fh)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cpu_seconds() -> float:
    t = os.times()
    return t.user + t.system


# ---------------------------------------------------------------------------
# inputs and scratch space


def _shape_tag(workload: str) -> str:
    shape = gen.IVF_BANK if workload == "ivf-large" else gen.FIXTURE
    return common.sha256_hex(json.dumps(shape, sort_keys=True).encode())[:10]


def inputs_for(workload: str, seed: int) -> Path:
    """Generated inputs, written once per (workload, seed, shape).

    Only the newest entry per workload is kept, which bounds the disk used
    by runs over many seeds.
    """
    variant = seed if workload == "ivf-large" else f"v{gen.fixture_seed(seed)}"
    path = CACHE / f"{workload}-{variant}-{_shape_tag(workload)}"
    if path.exists():
        return path
    for old in CACHE.glob(f"{workload}-*"):
        shutil.rmtree(old, ignore_errors=True)
    CACHE.mkdir(parents=True, exist_ok=True)
    subprocess.run([sys.executable, str(HERE / "gen.py"), "--workload",
                    workload, "--seed", str(seed), "--out", str(path)],
                   check=True, timeout=600)
    return path


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


def make_workdir(workload: str) -> Path:
    """A fresh scratch directory; those of dead benchmark processes go."""
    WORK.mkdir(parents=True, exist_ok=True)
    for old in WORK.iterdir():
        pid = old.name.rsplit("-", 1)[-1]
        if pid.isdigit() and not _alive(int(pid)):
            shutil.rmtree(old, ignore_errors=True)
    path = WORK / f"{workload}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir()
    return path


def import_probes(n: int) -> list[float]:
    """Times from process start until ``retroclass.cli`` is imported."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    times = []
    for _ in range(n):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import retroclass.cli"],
                       env=env, check=True, timeout=120)
        times.append(time.perf_counter() - t0)
    return times


# ---------------------------------------------------------------------------
# bookkeeping for one run


class Run:
    def __init__(self, workload: str, seed: int, seconds: int, trace: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.e2e: dict[str, float] = {}
        self.extra: dict[str, tuple[float, str]] = {}
        self.info: dict = {}

    def op(self, ok: bool, what: str) -> None:
        """Count one operation; a failed output check fails it."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)


def timed_passes(run: Run, op, check, seconds: float, minimum: int):
    """Closed loop of whole passes for ``seconds``; returns pass times."""
    times = []
    start = time.perf_counter()
    while len(times) < minimum or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        out = op()
        times.append(time.perf_counter() - t0)
        err = check(out)
        run.op(err is None, err or "")
    return times


# ---------------------------------------------------------------------------
# eval-cli and sweep-grid: one pass is one call of the entry point


class PassWorkload:
    """A workload whose operation is one pass over the whole fixture.

    ``prepare`` makes the inputs (untimed); ``setup`` is the timed set-up
    body; ``op`` is one closed-loop call returning (exit code, output bytes).
    """

    digest_key = ""
    grid_points = 1

    def __init__(self, rc, run: Run, work: Path):
        self.rc = rc
        self.run = run
        self.work = work
        self.variant = gen.fixture_seed(run.seed)
        self.queries_per_op = (gen.FIXTURE["n_classes"]
                               * gen.FIXTURE["queries_per_class"] * self.grid_points)
        recorded = load_json("digests.json").get(self.digest_key, {})
        self.expected = recorded.get(str(self.variant))
        self.first = None

    def canonical(self, out: bytes) -> bytes:
        """The output bytes whose SHA-256 is checked."""
        return out

    def check(self, out) -> str | None:
        code, data = out
        if code != 0:
            return f"{self.run.workload}: exit code {code}"
        data = self.canonical(data)
        if self.first is None:
            self.first = data
        if self.expected is not None and not common.digest_matches(data, self.expected):
            return (f"{self.run.workload}: digest {common.sha256_hex(data)} "
                    f"!= recorded {self.expected}")
        if data != self.first:
            return f"{self.run.workload}: output changed between passes"
        return None


class EvalCli(PassWorkload):
    digest_key = "eval-cli"

    def prepare(self) -> None:
        self.out = self.work / "report.json"
        self.argv = ["eval", "--fixture-dir",
                     str(inputs_for("eval-cli", self.run.seed)),
                     "--threads", "1", "--out", str(self.out)]

    def setup(self) -> float:
        return 0.0  # every pass loads the fixture itself

    def op(self):
        code = self.rc.cli.main(self.argv)
        return code, self.out.read_bytes() if code == 0 else b""

    def canonical(self, out: bytes) -> bytes:
        return common.report_bytes_without_timing(out)

    def finish(self, out) -> None:
        report = json.loads(out[1])["reports"][0]
        self.run.extra["acc_at_1"] = (report["acc_at"]["1"], "ratio")


class SweepGrid(PassWorkload):
    digest_key = "sweep-grid"
    grid_points = len(SWEEP_GRID["alphas"]) * len(SWEEP_GRID["betas"])

    def prepare(self) -> None:
        # in-memory banks, as in the library example; generation is untimed
        self.fixture = self.rc.harness.synth_fixture(
            seed=self.variant, **gen.FIXTURE)
        self.labels = list(self.fixture.labels)
        self.out = self.work / "sweep.csv"

    def setup(self) -> float:
        t0 = time.perf_counter()
        self.grid = self.rc.harness.SweepGrid.from_dict(SWEEP_GRID)
        return time.perf_counter() - t0

    def op(self):
        fx = self.fixture
        h = self.rc.harness
        reports = h.run_sweep(self.grid, fx.build_specs(), fx.queries,
                              self.labels, fx.llm_bank, fx.vlm_bank, threads=1)
        h.emit_report(reports, "csv", self.out)
        return 0, self.out.read_bytes()

    def finish(self, out) -> None:
        lines = out[1].decode().splitlines()
        col = lines[0].split(",").index("acc_at_1")
        self.run.extra["best_acc_at_1"] = (
            max(float(line.split(",")[col]) for line in lines[1:]), "ratio")


def run_pass_workload(wl: PassWorkload, run: Run, tracer_factory):
    wl.prepare()
    body = [wl.setup() for _ in range(SETUP_REPS)]
    run.info["setup_body_s"] = body
    run.info["setup_body_s_median"] = statistics.median(body)

    warm = wl.op()
    err = wl.check(warm)
    run.op(err is None, err or "")
    wl.finish(warm)

    cpu0, wall0 = cpu_seconds(), time.perf_counter()
    times = timed_passes(run, wl.op, wl.check,
                         run.seconds * (0.5 if run.trace else 1.0),
                         TRACE_BASELINE_PASSES if run.trace else MIN_PASSES)
    cpu_over_wall = (cpu_seconds() - cpu0) / (time.perf_counter() - wall0)
    run.info["pass_s"] = times
    run.info["cpu_over_wall"] = cpu_over_wall
    if not run.trace:
        run.e2e["queries_per_s"] = wl.queries_per_op * len(times) / sum(times)
        run.e2e["call_ms_p50"] = statistics.median(times) * 1e3
        run.e2e["peak_rss_mb"] = peak_rss_mb()
        return None

    tracer = tracer_factory()
    tracer.op = run.attempted
    tracer.install(load_json("layers.json")["spans"])
    try:
        t0 = time.perf_counter()
        traced = wl.op()
        t1 = time.perf_counter()
    finally:
        tracer.restore()
    err = wl.check(traced)
    run.op(err is None, f"traced pass: {err}" if err else "")
    return TracedPass(tracer, t0, t1, times, cpu_over_wall)


# ---------------------------------------------------------------------------
# ivf-large


def order_ok(hits) -> bool:
    """Score descending, ties by ascending id."""
    return all((a.score > b.score) or (a.score == b.score and a.id < b.id)
               for a, b in zip(hits, hits[1:]))


class IvfLarge:
    def __init__(self, rc, run: Run, work: Path):
        self.rc = rc
        self.run = run
        self.work = work
        self.rep = 0
        self.pass_log = None
        self.tracer = None

    def setup(self) -> float:
        """One ingest: bank build, query bank build, index build, loads."""
        cli, bank_mod, index_mod = self.rc.cli, self.rc.bank, self.rc.index
        inputs = inputs_for("ivf-large", self.run.seed)
        old = self.work / f"rep{self.rep - 1}"
        self.bank = self.index = self.queries = None
        gc.collect()
        shutil.rmtree(old, ignore_errors=True)
        d = self.work / f"rep{self.rep}"
        self.rep += 1
        d.mkdir()
        self.bank_path, self.query_path = d / "bank.bank", d / "queries.bank"
        self.index_path, self.hits_path = d / "bank.ivf", d / "hits.jsonl"
        t0 = time.perf_counter()
        for argv in (["bank", "build", "--vectors", str(inputs / "bank.npy"),
                      "--tag", "llm-text", "--out", str(self.bank_path)],
                     ["bank", "build", "--vectors", str(inputs / "queries.npy"),
                      "--tag", "llm-text", "--out", str(self.query_path)],
                     ["bank", "build", "--vectors",
                      str(inputs / "batch_queries.npy"), "--tag", "llm-text",
                      "--out", str(d / "batch_queries.bank")],
                     ["index", "build", "--bank", str(self.bank_path),
                      "--clusters", str(IVF_CLUSTERS), "--seed", "0",
                      "--out", str(self.index_path)]):
            code = cli.main(argv)
            if code != 0:
                raise RuntimeError(f"retroclass {' '.join(argv[:2])} exited {code}")
        self.bank = bank_mod.bank_load(self.bank_path)
        qbank = bank_mod.bank_load(self.query_path)
        self.index = index_mod.load_index(self.index_path, self.bank)
        self.queries = [index_mod.QueryEmbedding(qbank.vectors[i], qbank.space_tag)
                        for i in range(qbank.count)]
        elapsed = time.perf_counter() - t0
        self.first_ivf: dict[int, list] = {}
        self.first_exact: dict[int, list] = {}
        self.op_counts: dict[tuple[str, int], int] = {}
        self.op_failed: dict[tuple[str, int], int] = {}
        self.batch_ok = 0
        self.retrieve_argv = [
            "retrieve", "--bank", str(self.bank_path), "--queries",
            str(d / "batch_queries.bank"), "--k", str(K), "--index", str(self.index_path),
            "--nprobe", str(IVF_NPROBE), "--threads", "1",
            "--out", str(self.hits_path)]
        return elapsed

    # -- single operations, each checked against its first result ---------

    def _mark_op(self) -> None:
        if self.tracer is not None:
            self.tracer.op = self.run.attempted

    def _one(self, kind: str, i: int, fn):
        q = self.queries[i % len(self.queries)]
        self._mark_op()
        t0 = time.perf_counter()
        hits = fn(q)
        dt = time.perf_counter() - t0
        first = self.first_ivf if kind == "ivf" else self.first_exact
        j = i % len(self.queries)
        key = (kind, j)
        self.op_counts[key] = self.op_counts.get(key, 0) + 1
        if self.pass_log is not None:
            self.pass_log.append([kind, j, [[h.id, h.score] for h in hits]])
        if j not in first:
            first[j] = hits
            ok = order_ok(hits) and len(hits) == K
        else:  # a repeat must match a first answer that passed
            ok = hits == first[j] and not self.op_failed.get(key)
        self.op_failed[key] = self.op_failed.get(key, 0) + (not ok)
        self.run.op(ok, f"{kind} query {j}: order or repeat mismatch")
        return dt

    def ivf_op(self, i: int) -> float:
        index_mod = self.rc.index
        return self._one("ivf", i, lambda q: index_mod.ivf_search(
            self.index, q, K, IVF_NPROBE))

    def exact_op(self, i: int) -> float:
        index_mod = self.rc.index
        return self._one("exact", i, lambda q: index_mod.exact_topk(q, self.bank, K))

    def batch_op(self) -> float:
        self._mark_op()
        t0 = time.perf_counter()
        code = self.rc.cli.main(self.retrieve_argv)
        dt = time.perf_counter() - t0
        ok = code == 0 and self._batch_matches()
        self.batch_ok += ok
        self.run.op(ok, "retrieve: exit code or hits differ from ivf_search")
        return dt

    def _batch_matches(self) -> bool:
        """The batch answers equal the single-query answers, which ran first."""
        lines = self.hits_path.read_text().splitlines()
        if len(lines) != gen.IVF_BANK["batch_queries"]:
            return False
        for i, line in enumerate(lines):
            obj = json.loads(line)
            want = self.first_ivf.get(i)
            if obj["query_id"] != i or want is None or self.op_failed.get(("ivf", i)) \
                    or [[h.id, h.score] for h in want] != obj["hits"]:
                return False
        return True

    # -- one fixed pass, for the traced comparison -------------------------

    def fixed_pass(self) -> str:
        """Every pool query through IVF, a few exact, one batch; a digest."""
        self.pass_log = []
        for i in range(len(self.queries)):
            self.ivf_op(i)
        for i in range(EXACT_TRACED_QUERIES):
            self.exact_op(i)
        self.batch_op()
        log, self.pass_log = self.pass_log, None
        return common.sha256_hex(json.dumps(log).encode()
                                 + self.hits_path.read_bytes())

    # -- oracle checks after the measured part ------------------------------

    def verify(self) -> float:
        """Check every first result against a float64 oracle; returns recall."""
        import numpy as np
        qmat = np.vstack([q.vector for q in self.queries]).astype(np.float64)
        oracle_ids, oracle_scores = oracle_topk(self.bank.vectors, qmat, K)
        vectors = self.bank.vectors

        def scores_ok(j, hits):
            ids = np.array([h.id for h in hits], dtype=np.int64)
            got = np.array([h.score for h in hits])
            true = np.asarray(vectors[ids], np.float64) @ qmat[j]
            return bool(np.all(np.abs(got - true) <= SCORE_ATOL))

        recalls = []
        for j, hits in self.first_ivf.items():
            ok = scores_ok(j, hits)
            recalls.append(len({h.id for h in hits} & set(oracle_ids[j].tolist())) / K)
            self._fail_all("ivf", j, ok, f"ivf query {j}: score off the oracle")
        if any(self.op_failed.get(("ivf", j))
               for j in range(gen.IVF_BANK["batch_queries"])):
            self.run.failed += self.batch_ok  # they matched failing answers
            self.batch_ok = 0
        for j, hits in self.first_exact.items():
            got = np.array([h.score for h in hits])
            ok = scores_ok(j, hits) and got.shape == oracle_scores[j].shape and \
                bool(np.all(np.abs(got - oracle_scores[j]) <= SCORE_ATOL))
            self._fail_all("exact", j, ok, f"exact query {j}: not the oracle top-{K}")
        recall = float(np.mean(recalls))
        self.run.op(recall >= RECALL_FLOOR,
                    f"recall@{K} {recall:.3f} below {RECALL_FLOOR}")
        return recall

    def _fail_all(self, kind, j, ok, what):
        """A failed oracle check fails every operation that returned those hits."""
        if not ok:
            key = (kind, j)
            n = self.op_counts[key] - self.op_failed[key]
            self.op_failed[key] = self.op_counts[key]
            self.run.failed += n
            if len(self.run.failures) < 20:
                self.run.failures.append(f"{what} ({n} operations)")


def oracle_topk(vectors, qmat, k: int, block: int = 32768):
    """Exact top-k in float64, score descending then id ascending.

    Gives the first k of a full sort of every row's score: each block keeps
    its k best and the survivors are sorted. An exact float64 tie at the
    k-th score would be cut arbitrarily; continuous mixture data has none.
    """
    import numpy as np
    nq = qmat.shape[0]
    best_ids = np.empty((nq, 0), np.int64)
    best_scores = np.empty((nq, 0), np.float64)
    for start in range(0, vectors.shape[0], block):
        rows = np.asarray(vectors[start:start + block], dtype=np.float64)
        scores = qmat @ rows.T
        kk = min(k, scores.shape[1])
        part = np.argpartition(-scores, kk - 1, axis=1)[:, :kk]
        ids = np.concatenate([best_ids, part + start], axis=1)
        sc = np.concatenate([best_scores, np.take_along_axis(scores, part, 1)], axis=1)
        order = np.lexsort((ids, -sc), axis=1)[:, :k]
        best_ids = np.take_along_axis(ids, order, 1)
        best_scores = np.take_along_axis(sc, order, 1)
    return best_ids, best_scores


def run_ivf_large(wl: IvfLarge, run: Run, tracer_factory):
    if run.trace:
        tracer = wl.tracer = tracer_factory()
        spans = load_json("layers.json")["spans"]
        tracer.install(spans)
        try:
            wl.setup()
        finally:
            tracer.restore()
        cpu0, wall0 = cpu_seconds(), time.perf_counter()
        times, digests = [], set()
        for _ in range(TRACE_BASELINE_PASSES):
            t0 = time.perf_counter()
            digests.add(wl.fixed_pass())
            times.append(time.perf_counter() - t0)
        cpu1, wall1 = cpu_seconds(), time.perf_counter()
        tracer.install(spans)
        try:
            t0 = time.perf_counter()
            traced_digest = wl.fixed_pass()
            t1 = time.perf_counter()
        finally:
            tracer.restore()
        run.op(digests == {traced_digest},
               "traced pass output differs from the untraced passes")
        run.extra["recall_at_10"] = (wl.verify(), "ratio")
        return TracedPass(tracer, t0, t1, times, (cpu1 - cpu0) / (wall1 - wall0))

    body = [wl.setup() for _ in range(IVF_SETUP_REPS)]
    run.info["setup_body_s"] = body
    run.info["setup_body_s_median"] = statistics.median(body)
    cpu0, wall0 = cpu_seconds(), time.perf_counter()
    ivf_lat, exact_lat, batch = [], [], []
    start = time.perf_counter()
    while len(ivf_lat) < IVF_P95_SAMPLES or time.perf_counter() - start < 0.4 * run.seconds:
        ivf_lat.append(wl.ivf_op(len(ivf_lat)))
    start = time.perf_counter()
    while len(exact_lat) < EXACT_MIN_SAMPLES or time.perf_counter() - start < 0.2 * run.seconds:
        exact_lat.append(wl.exact_op(len(exact_lat)))
    start = time.perf_counter()
    while len(batch) < MIN_PASSES or time.perf_counter() - start < 0.4 * run.seconds:
        batch.append(wl.batch_op())
    cpu1, wall1 = cpu_seconds(), time.perf_counter()
    run.e2e["peak_rss_mb"] = peak_rss_mb()
    recall = wl.verify()
    run.info.update(cpu_over_wall=(cpu1 - cpu0) / (wall1 - wall0),
                    ivf_samples=len(ivf_lat), exact_samples=len(exact_lat),
                    batch_pass_s=batch)
    run.e2e["queries_per_s"] = gen.IVF_BANK["batch_queries"] * len(batch) / sum(batch)
    run.e2e["call_ms_p50"] = statistics.median(ivf_lat) * 1e3
    run.extra["ivf_query_ms_p50"] = (statistics.median(ivf_lat) * 1e3, "ms")
    run.extra["ivf_query_ms_p95"] = (common.percentile(ivf_lat, 95) * 1e3, "ms")
    run.extra["exact_query_ms_p50"] = (statistics.median(exact_lat) * 1e3, "ms")
    run.extra["recall_at_10"] = (recall, "ratio")


# ---------------------------------------------------------------------------
# per-layer metrics from a traced pass


@dataclass
class TracedPass:
    tracer: tracing.Tracer
    start: float
    end: float
    untraced: list[float]       # wall times of the untraced passes
    cpu_over_wall: float        # over the untraced passes


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _file_bytes(args, kwargs, result):
    path = Path(_arg(args, kwargs, 1, "path"))
    sidecar = path.with_name(path.name + ".meta.jsonl")
    return path.stat().st_size + (sidecar.stat().st_size if sidecar.exists() else 0)


def _list_sizes(index):
    return [len(lst) for lst in index.lists]


CAPTURES = {
    "bank.load": lambda a, kw, r: not r.vectors.flags.aligned,
    "bank.save": _file_bytes,
    "index.exact_topk": lambda a, kw, r: (
        _arg(a, kw, 0, "query").vector.tobytes(), _arg(a, kw, 1, "bank").count,
        _arg(a, kw, 1, "bank").dim),
    "index.ivf_search": lambda a, kw, r: (
        _arg(a, kw, 1, "query").vector.tobytes(), _arg(a, kw, 0, "index"),
        _arg(a, kw, 1, "query").vector, _arg(a, kw, 3, "nprobe")),
    "index.build_ivf": lambda a, kw, r: _list_sizes(r),
    "index.load_index": lambda a, kw, r: _list_sizes(r),
    "enrich.enrich_all_prototypes": lambda a, kw, r: len(r.partial),
}


def _ivf_candidates(index, qvec, nprobe) -> int:
    import numpy as np
    if nprobe == index.n_clusters:
        return index.bank.count
    cscores = index.centroids @ qvec
    probed = np.lexsort((np.arange(index.n_clusters), -cscores))[:nprobe]
    return int(sum(len(index.lists[c]) for c in probed))


def layer_metrics(tp: TracedPass, spec: dict, span_names) -> dict:
    tracer = tp.tracer
    selfs = tracing.self_times(tracer.spans)
    by_name: dict[str, list] = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)
    cap = tracer.captured

    exact = cap["index.exact_topk"]
    ivf = cap["index.ivf_search"]
    candidates = [_ivf_candidates(ix, qv, nprobe) for _, ix, qv, nprobe in ivf]
    rows = sum(count for _, count, _ in exact) + sum(candidates)
    bytes_scanned = sum(count * dim * 4 for _, count, dim in exact) + \
        sum(c * ix.dim * 4 for c, (_, ix, _, _) in zip(candidates, ivf))
    calls = len(exact) + len(ivf)
    lists = cap["index.build_ivf"] + cap["index.load_index"]
    untraced = statistics.median(tp.untraced)
    computed = {
        "bank.unaligned_loads": ("bank.load", lambda: sum(cap["bank.load"])),
        "bank.save.bytes": ("bank.save", lambda: sum(cap["bank.save"])),
        "index.rows_scored": ("index.exact_topk", lambda: rows),
        "index.bytes_scanned": ("index.exact_topk", lambda: bytes_scanned),
        "index.ivf_candidates_mean": ("index.ivf_search", lambda: (
            sum(candidates) / len(candidates) if candidates else 0.0)),
        "index.ivf_candidates_max": ("index.ivf_search",
                                     lambda: max(candidates, default=0)),
        "index.list_imbalance": ("index.load_index", lambda: max(
            (max(s) / (sum(s) / len(s)) for s in lists), default=0.0)),
        "index.unique_query_ratio": ("index.exact_topk", lambda: (
            len({q for q, *_ in exact} | {q for q, *_ in ivf}) / calls
            if calls else 0.0)),
        "enrich.partial_prototypes": ("enrich.enrich_all_prototypes",
                                      lambda: sum(cap["enrich.enrich_all_prototypes"])),
        "process.cpu_over_wall": (None, lambda: tp.cpu_over_wall),
        "trace.overhead_ratio": (None, lambda: (tp.end - tp.start) / untraced),
        "trace.top_level_coverage": (None, lambda: tracing.top_level_coverage(
            [s for s in tracer.spans if s.start >= tp.start], tp.start, tp.end)),
    }
    out = {}
    for entry in spec["per_layer"]:
        name, unit = entry["name"], entry["unit"]
        if name in computed:
            needs, fn = computed[name]
            if needs is not None and needs in tracer.absent:
                out[name] = {"value": None, "unit": unit,
                             "absent": tracer.absent[needs]}
            else:
                out[name] = {"value": fn(), "unit": unit}
            continue
        span, _, kind = name.rpartition(".")
        if span not in span_names:
            raise KeyError(f"per-layer metric {name} has no producer")
        if span in tracer.absent:
            out[name] = {"value": None, "unit": unit, "absent": tracer.absent[span]}
            continue
        spans = by_name.get(span, [])
        if kind == "calls":
            value = len(spans)
        elif kind == "ms":
            value = sum(s.duration for s in spans) * 1e3
        elif kind == "self_ms":
            value = sum(selfs[s.id] for s in spans) * 1e3
        else:
            raise KeyError(f"per-layer metric {name}: unknown kind {kind}")
        out[name] = {"value": value, "unit": unit}
    return out


# ---------------------------------------------------------------------------
# the exact_topk gap between an in-memory and a memory-mapped bank


def mmap_gap(rc, work: Path, rows: int = 32768, dim: int = 256,
             queries: int = 15) -> dict:
    import numpy as np
    rng = np.random.default_rng(12345)
    bank = rc.bank.EmbeddingBank.from_matrix(rng.standard_normal((rows, dim)),
                                             "llm-text")
    path = work / "gap.bank"
    rc.bank.bank_save(bank, path)
    mapped = rc.bank.bank_load(path)
    qs = [rc.index.QueryEmbedding.from_raw(v, "llm-text")
          for v in rng.standard_normal((queries, dim))]
    out = {"rows": rows, "dim": dim,
           "mapped_aligned": bool(mapped.vectors.flags.aligned)}
    for label, b in (("in_memory_ms", bank), ("mapped_ms", mapped)):
        rc.index.exact_topk(qs[0], b, K)
        lat = []
        for q in qs:
            t0 = time.perf_counter()
            rc.index.exact_topk(q, b, K)
            lat.append(time.perf_counter() - t0)
        out[label] = statistics.median(lat) * 1e3
    out["mapped_over_in_memory"] = out["mapped_ms"] / out["in_memory_ms"]
    return out


# ---------------------------------------------------------------------------
# driver


def run_one(args) -> int:
    rc = import_package()
    spec = load_spec()
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    work = make_workdir(args.workload)
    traced = None
    try:
        # Half the import probes run before set-up and half after the measured
        # part, so that their median spans the run's shifts in host speed.
        imports = [] if run.trace else import_probes(IMPORT_PROBES)
        factory = lambda: tracing.Tracer(CAPTURES)  # noqa: E731
        if args.workload == "ivf-large":
            traced = run_ivf_large(IvfLarge(rc, run, work), run, factory)
        else:
            cls = EvalCli if args.workload == "eval-cli" else SweepGrid
            traced = run_pass_workload(cls(rc, run, work), run, factory)
        if not run.trace:
            imports += import_probes(IMPORT_PROBES)
            import_s = statistics.median(imports)
            run.e2e["setup_s"] = import_s + run.info["setup_body_s_median"]
            run.info["import_probe_s"] = imports
        run.info["mmap_gap"] = mmap_gap(rc, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if run.trace:
        span_names = set(load_json("layers.json")["spans"])
        metrics = layer_metrics(traced, spec, span_names)
    else:
        metrics = {}
        for entry in spec["end_to_end"]:
            metrics[entry["name"]] = {"value": run.e2e[entry["name"]],
                                      "unit": entry["unit"]}
    run.extra["failed_ratio"] = (run.failed / max(run.attempted, 1), "ratio")
    report(run, metrics, traced, common.machine_facts(ROOT, SRC))
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0 if run.failed == 0 else 1


def report(run: Run, metrics: dict, traced, facts: dict) -> None:
    print(f"workload {run.workload}  seed {run.seed}  seconds {run.seconds}  "
          f"trace {int(run.trace)}")
    for name, m in metrics.items():
        shown = m["value"] if m["value"] is not None else f"absent ({m['absent']})"
        print(f"  {name:40s} {shown} {m['unit']}")
    for name, (value, unit) in run.extra.items():
        print(f"  {name:40s} {value} {unit}")
    counts = {k: len(v) if isinstance(v, list) else v for k, v in run.info.items()
              if k in ("pass_s", "ivf_samples", "exact_samples", "batch_pass_s")}
    print(f"  samples {json.dumps(counts)}")
    print(f"  attempted {run.attempted}  failed {run.failed}")
    for what in run.failures:
        print(f"  FAILED: {what}")
    gap = run.info["mmap_gap"]
    print(f"  exact_topk {gap['rows']}x{gap['dim']}: in-memory "
          f"{gap['in_memory_ms']:.3f} ms, memory-mapped {gap['mapped_ms']:.3f} ms")
    print(f"  machine {json.dumps(facts)}")
    RESULTS.mkdir(exist_ok=True)
    stem = f"{run.workload}-seed{run.seed}-trace{int(run.trace)}"
    result = {"workload": run.workload, "seed": run.seed, "seconds": run.seconds,
              "metrics": metrics,
              "extra": {k: {"value": v, "unit": u} for k, (v, u) in run.extra.items()},
              "attempted": run.attempted, "failed": run.failed,
              "failures": run.failures, "info": run.info, "machine": facts}
    (RESULTS / f"{stem}.json").write_text(json.dumps(result, indent=2) + "\n")
    if traced is not None:
        spans = [vars(s) for s in traced.tracer.spans]
        (RESULTS / f"{stem}-spans.json").write_text(json.dumps(spans) + "\n")


def run_all(args) -> int:
    """Each workload in its own process; one summary line at the end."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        try:
            last = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{workload}: no result (exit code {proc.returncode})")
            combined["correct"] = False
            continue
        combined["correct"] &= bool(last["correct"]) and proc.returncode == 0
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        for name, m in last["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = m
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be >= 1")
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
