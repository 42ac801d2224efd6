"""Golden outputs: the saved index file and the `batch_query` answers of
three small indexes, pinned as SHA-256 digests.

The cases are TIFC, IFC with M | L and IFC with L % M != 0 (the
reconstructed-word path of `PqCodebook.word_means`), all over one
`vecio.generate_synthetic` set, which is drawn without BLAS. A file digest
covers every byte `save` writes; an answer digest covers each query's (id,
votes, minimum Hamming) entries and its candidate count. A change that
keeps "same words, same bytes" leaves every digest in place; one that moves
a digest on purpose (a format bump moves the file digests alone) updates the
constant and says why.

`CNNIDX08` moved the file digests: the `nlists` section left the file, so an
IFC file is the `CNNIDX07` one without those 8 bytes, under the new magic and
CRC, and its answers did not move. The TIFC digests moved with the codes:
one code per vector against the per-segment lower median of the database's
segment means, in place of a code per link against a drawn table.

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
             "537eedf1660bec2157d0450d7ad433f21b19eafd158c779052f2fcb9a370fc8a",
             "a95a110a8612e0c5ef32e64ee747a289ee34aea36c1022fbf446dd618e602a05"),
    "ifc-m-divides-l": (dict(S=6, L=16, K=8, M=2), QueryConfig(6, 6, 10),
                        "8c424d6be2d2cf1550e912c41a41175cbe625808a31004da94140210ad893dbd",
                        "c394e739f1a63e520af8e5e97c3302abe74a95d9aca26dda44fe14786f1800e9"),
    "ifc-l-mod-m": (dict(S=6, L=16, K=8, M=3), QueryConfig(6, 6, 10),
                    "72e5334ff4a2c2516940de01ce0cbc3d60ced3d675fb6579a27eaff5a8890099",
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
