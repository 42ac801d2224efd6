"""Rebuilds are byte-identical across BLAS kernels.

OpenBLAS picks its kernels for the CPU at load time, and `OPENBLAS_CORETYPE`
forces another set. The program calls BLAS in k-means training (`pq`) and in
the multi-word Hamming sum (`embed.hamming_to_many`). One child process per
kernel builds a TIFC index with L = 128 (two-word codes, so the Hamming sum
runs its gemv) and an IFC index with K = 16, M = 2 from the same synthetic
data, which `generate_synthetic` makes without BLAS, saves both, batch-queries
them and prints one SHA-256 over the files and the answers. Every kernel must
print the same digest.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import cnnidx

CORES = ("Haswell", "SkylakeX", "Sandybridge")

CHILD = """
import hashlib
import sys
from pathlib import Path

import numpy as np

from cnnidx import invindex, search, vecio
from cnnidx.search import QueryConfig
from cnnidx.vecio import SynthSpec

db, queries, _ = vecio.generate_synthetic(SynthSpec(40, 50, 128, 1.0, 0.1, seed=16))
digest = hashlib.sha256()
for scheme, params, t in (("tifc", dict(S=8, L=128), 45),
                          ("ifc", dict(S=8, L=32, K=16, M=2), 11)):
    path = Path(sys.argv[1]) / f"{scheme}.idx"
    invindex.save(invindex.build(db, invindex.build_config(scheme, params)), path)
    digest.update(path.read_bytes())
    results, _ = search.batch_query(invindex.load(path), queries, QueryConfig(8, t, 10))
    for r in results:
        digest.update(np.asarray(r.entries, dtype=np.int64).tobytes())
print(digest.hexdigest())
"""


def test_rebuild_identical_under_each_blas_kernel(tmp_path):
    src = str(Path(cnnidx.__file__).resolve().parent.parent)
    digests = {}
    for core in CORES:
        env = dict(os.environ, OPENBLAS_CORETYPE=core, OPENBLAS_VERBOSE="2",
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        work = tmp_path / core
        work.mkdir()
        child = subprocess.run([sys.executable, "-c", CHILD, str(work)], env=env,
                               capture_output=True, text=True, timeout=120)
        assert child.returncode == 0, child.stderr
        if f"Core: {core}" not in child.stderr.splitlines():
            pytest.skip(f"the BLAS did not report running its {core} kernels")
        digests[core] = child.stdout.strip()
    assert len(set(digests.values())) == 1, digests
