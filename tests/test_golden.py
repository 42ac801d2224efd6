"""Golden outputs: the saved index file and the `batch_query` answers of
three small indexes, pinned as SHA-256 digests.

The cases are TIFC, IFC with M | L and IFC with L % M != 0 (the per-word
mean table of `PqCodebook.codes`), all over one `vecio.generate_synthetic`
set, which is drawn without BLAS. A file digest covers every byte `save`
writes; an answer digest covers each query's (id, votes, minimum Hamming)
entries and its candidate count. A change that keeps "same words, same
bytes" leaves every digest in place; one that moves a digest on purpose (a
format bump moves the file digests alone) updates the constant and says why.

numpy does not promise its `Generator` streams across versions, so the
digests hold for the numpy they were recorded with, `NUMPY_VERSION`; a
failure under another version names both.
"""

import hashlib

import numpy as np
import pytest

from cnnidx import invindex, search, vecio
from cnnidx.search import QueryConfig
from cnnidx.vecio import SynthSpec

NUMPY_VERSION = "2.4.6"

# name: build parameters, query config, file SHA-256, answer SHA-256
CASES = {
    "tifc": (dict(S=6, L=16), QueryConfig(6, 6, 10),
             "320e75861a7a7d5e7fa130dee914b57e63e7deef39ca5101f44f91e58847d896",
             "6ecad10c4b590ed65fea179bc57bfea8d3c8d68f1a47e08abc491a36d4b37363"),
    "ifc-m-divides-l": (dict(S=6, L=16, K=8, M=2), QueryConfig(6, 6, 10),
                        "ddd342286fc68be2f1ac3c7729f00ca5b216b2f0eff1b0cd9e6c015ec3e3436c",
                        "c394e739f1a63e520af8e5e97c3302abe74a95d9aca26dda44fe14786f1800e9"),
    "ifc-l-mod-m": (dict(S=6, L=16, K=8, M=3), QueryConfig(6, 6, 10),
                    "be862e816eece5d0f0cf33f079f8eee2fa89feda2450fa9866ed3913685c0243",
                    "26b4e272d9a81346c5060015efaebf0f4899f05830a5c1c169e720efda4fc6e2"),
}


@pytest.fixture(scope="module")
def dataset():
    """20 clusters x 30 points, D = 48, and one query per cluster."""
    db, queries, _ = vecio.generate_synthetic(SynthSpec(20, 30, 48, 1.0, 0.5, seed=31))
    return db, queries


def answer_digest(results) -> str:
    digest = hashlib.sha256()
    for r in results:
        digest.update(np.asarray(r.entries, dtype=np.int64).reshape(-1, 3).tobytes())
        digest.update(np.int64(r.candidates).tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("name", CASES)
def test_digests(dataset, tmp_path, name):
    params, qcfg, file_sha, answer_sha = CASES[name]
    db, queries = dataset
    scheme = name.split("-")[0]
    path = tmp_path / f"{name}.idx"
    invindex.save(invindex.build(db, invindex.build_config(scheme, params)), path)
    results, _ = search.batch_query(invindex.load(path), queries, qcfg)
    got = (hashlib.sha256(path.read_bytes()).hexdigest(), answer_digest(results))
    assert got == (file_sha, answer_sha), (
        f"digests recorded under numpy {NUMPY_VERSION}, run under {np.__version__}")
