"""SHA-256 digests of the IVF outputs of the seed-1 fixture.

    python tests/ivf_digests.py OUT.npz WORKDIR

Saves the fixture the golden reports are frozen against into WORKDIR, then
writes the SHA-256 of three outputs:

* ``index_build``: ``retroclass index build`` over its LLM caption bank,
  16 lists, seed 0;
* ``index_resave``: that file loaded and saved again,
  ``save_index(load_index(path), ...)``;
* ``retrieve``: ``retroclass retrieve --index --nprobe 3 --k 10`` of its
  retrieval queries over that bank and index.

It also writes the OpenBLAS core it ran (``core``, empty where it cannot be
read). ``test_digests.py`` calls :func:`digests` in its own process and
runs this script at 1 and 2 BLAS threads.
"""

import hashlib
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))
from bench_scan import blas_core  # noqa: E402
from conftest import GOLDEN_FIXTURE_PARAMS  # noqa: E402

from retroclass import cli  # noqa: E402
from retroclass.harness import synth_fixture  # noqa: E402
from retroclass.index import load_index, save_index  # noqa: E402


def digests(workdir: Path) -> dict[str, str]:
    """Each output's SHA-256, by name; the files are written in
    ``workdir``."""
    fx = workdir / "fx"
    synth_fixture(**GOLDEN_FIXTURE_PARAMS).save(fx)
    paths = {name: workdir / name for name in
             ("index_build", "index_resave", "retrieve")}
    for argv in (["index", "build", "--bank", fx / "llm_db.bank",
                  "--clusters", 16, "--seed", 0, "--out",
                  paths["index_build"]],
                 ["retrieve", "--bank", fx / "llm_db.bank", "--queries",
                  fx / "retrieval_queries.bank", "--k", 10, "--index",
                  paths["index_build"], "--nprobe", 3, "--out",
                  paths["retrieve"]]):
        assert cli.main([str(a) for a in argv]) == 0, argv[:2]
    save_index(load_index(paths["index_build"]), paths["index_resave"])
    return {name: hashlib.sha256(path.read_bytes()).hexdigest()
            for name, path in paths.items()}


def main(out_path: str, workdir: str) -> None:
    np.savez(out_path, core=np.array(blas_core() or ""),
             **{name: np.array(hexdigest) for name, hexdigest in
                digests(Path(workdir)).items()})


if __name__ == "__main__":
    main(*sys.argv[1:3])
