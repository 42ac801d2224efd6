"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`. The end-to-end criteria
build 10k and 100k synthetic databases and take a couple of minutes total.
"""

import time

import numpy as np
import pytest

from cnnidx import baseline, embed, evaluation, invindex, pq, search, tifc, vecio
from cnnidx.embed import EmbedConfig
from cnnidx.invindex import BuildConfig
from cnnidx.pq import PqConfig
from cnnidx.search import QueryConfig
from cnnidx.vecio import FeatureSet, SynthSpec

from test_pq import exhaustive_ranking, random_codebook


def report(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\n[criterion {criterion}] {status} — {detail}")
    assert ok, f"criterion {criterion}: {detail}"


# shared end-to-end configuration: 100 clusters, D=64, IFC K=64 M=2, L=32,
# S = W = 40, T = round(0.35 * L)
SPEC_10K = SynthSpec(100, 100, 64, 1.0, 0.1, seed=2024)
SPEC_100K = SynthSpec(100, 1000, 64, 1.0, 0.1, seed=2024)
IFC_CFG = dict(scheme="ifc", link_count=40, code_length=32)
PQ_CFG = dict(segments=2, words_per_segment=64)
QUERY_CFG = QueryConfig(assignment_count=40, hamming_threshold=round(0.35 * 32),
                        top_k=10)


@pytest.fixture(scope="module")
def synth10k():
    return vecio.generate_synthetic(SPEC_10K)


@pytest.fixture(scope="module")
def ifc10k(synth10k):
    db = synth10k[0]
    return invindex.build(db, BuildConfig(pq=PqConfig(**PQ_CFG), **IFC_CFG))


def test_criterion_1_pq_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(1)

    # assign == exhaustive product-centroid argmin
    for k in (2, 4, 8):
        for m in (1, 2, 3):
            seg_dim = 2
            cb = random_codebook(k=k, m=m, seg_dim=seg_dim, seed=k * 10 + m)
            full = pq.reconstruct_batch(np.arange(k**m), cb).astype(np.float64)
            xs = rng.standard_normal((1000, m * seg_dim))
            d = ((xs[:, None, :] - full[None, :, :]) ** 2).sum(axis=2)
            expected = d.argmin(axis=1)
            for i in range(1000):
                assert pq.assign(xs[i], cb) == expected[i], (k, m, i)

    # nearest_words(S) == brute-force sorted enumeration, all S
    for k in (2, 3, 4):
        for m in (1, 2, 3):
            cb = random_codebook(k=k, m=m, seg_dim=2, seed=100 + k * 10 + m)
            for trial in range(5):
                x = rng.standard_normal(cb.dim)
                oracle = [w for _, w in exhaustive_ranking(x, cb)]
                for s in range(1, k**m + 1):
                    got = [w for w, _ in pq.nearest_words(x, cb, s)]
                    assert got == oracle[:s], (k, m, s)

    elapsed = time.perf_counter() - start
    report(1, elapsed < 60.0,
           f"assign and nearest_words match exhaustive oracles ({elapsed:.1f}s)")


def test_criterion_2_softmax_suite():
    rng = np.random.default_rng(2)
    trials = 10_000
    x = rng.uniform(-50, 50, size=(trials, 32))
    probs = tifc.softmax_rows(x)

    sums = probs.sum(axis=1)
    assert np.all(np.abs(sums - 1.0) < 1e-9), "normalization"

    shift = tifc.softmax_rows(x + rng.uniform(-100, 100, size=(trials, 1)))
    assert np.max(np.abs(shift - probs)) < 1e-12, "shift invariance"

    # top-S selection follows the raw components (softmax is monotone)
    np.testing.assert_array_equal(np.argsort(-probs, axis=1, kind="stable"),
                                  np.argsort(-x, axis=1, kind="stable"))
    for i in range(0, trials, 500):
        s = int(rng.integers(1, 33))
        got = [w for w, _ in tifc.top_words(probs[i], s)]
        assert got == list(np.argsort(-x[i], kind="stable")[:s])

    big = tifc.softmax(np.array([1e4, 0.0, -1e4, 5e3]))
    assert np.all(np.isfinite(big)) and big.sum() == pytest.approx(1.0)

    report(2, True, f"normalization/shift/top-S/overflow over {trials} trials")


def test_criterion_3_binary_embedding():
    rng = np.random.default_rng(3)

    x = rng.standard_normal(32)
    all_ones = embed.encode(x, x, EmbedConfig(8))
    assert np.unpackbits(all_ones, bitorder="little")[:8].tolist() == [1] * 8

    code = embed.encode([1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 1.0], EmbedConfig(2))
    assert np.unpackbits(code, bitorder="little")[:2].tolist() == [1, 0]

    for _ in range(200):
        a = rng.standard_normal(24)
        c = rng.standard_normal(24)
        np.testing.assert_array_equal(embed.encode(a, c, EmbedConfig(8)),
                                      embed.encode(2 * a, 2 * c, EmbedConfig(8)))

    for _ in range(500):
        p, q, r = rng.integers(0, 256, size=(3, 8), dtype=np.uint8)
        assert embed.hamming(p, p) == 0
        assert embed.hamming(p, q) == embed.hamming(q, p)
        assert embed.hamming(p, r) <= embed.hamming(p, q) + embed.hamming(q, r)

    report(3, True, "threshold boundary, worked example, scale invariance, metric axioms")


def test_criterion_4_ap_oracle():
    from test_evaluation import ap_direct

    assert evaluation.average_precision([7, 0, 8, 1], {7, 8}) == pytest.approx(5 / 6)
    rng = np.random.default_rng(4)
    for _ in range(1000):
        n = int(rng.integers(2, 40))
        ranked = list(rng.permutation(n)[: rng.integers(1, n + 1)])
        relevant = set(rng.choice(n, size=int(rng.integers(1, n)), replace=False).tolist())
        assert evaluation.average_precision(ranked, relevant) == \
            ap_direct(ranked, relevant)
    report(4, True, "AP equals direct-definition oracle on 1000 random rankings")


def test_criterion_5_monotonicity():
    db, queries, _ = vecio.generate_synthetic(SynthSpec(10, 100, 32, 1.0, 0.1, seed=5))
    ix = invindex.build(db, BuildConfig(
        scheme="ifc", link_count=8, code_length=16,
        pq=PqConfig(segments=2, words_per_segment=16)))

    for q in queries.vectors[:20]:
        prev: set[int] = set()
        for w in (1, 2, 4, 8, 16, 32):
            cur = search.candidate_set(ix, q, w)
            assert prev <= cur, "candidate_set must grow with W"
            prev = cur

    for q in queries.vectors[:20]:
        prev_votes: dict[int, int] = {}
        for t in range(0, 17, 2):
            cfg = QueryConfig(assignment_count=8, hamming_threshold=t, top_k=1000)
            cur = {i: v for i, v, _ in search.query(ix, q, cfg).entries}
            assert all(cur.get(i, 0) >= v for i, v in prev_votes.items()), \
                "votes must not decrease with T"
            prev_votes = cur

    report(5, True, "candidate supersets in W and vote monotonicity in T (1k index)")


def test_criterion_6_end_to_end_recall(synth10k, ifc10k):
    start = time.perf_counter()
    db, queries, _ = synth10k
    results, _ = search.batch_query(ifc10k, queries, QUERY_CFG)
    # recall@10: fraction of queries whose true (brute-force) nearest
    # neighbor appears in the returned top 10
    hits = 0
    for i, q in enumerate(queries.vectors):
        true_nn = baseline.brute_force(db, q, 1)[0]
        hits += true_nn in results[i].ids
    recall = hits / queries.n
    elapsed = time.perf_counter() - start
    report(6, recall >= 0.80 and elapsed < 120.0,
           f"recall@10 = {recall:.3f} over {queries.n} queries ({elapsed:.1f}s)")


def test_criterion_7_sublinear_time_trend(synth10k, ifc10k):
    """IFC's mean query time grows less than 5x from 10k to 100k vectors,
    while brute force grows more than 5x and IFC scans under 30% of the
    100k database. IFC is timed over three `batch_query` passes per size,
    10k and 100k alternating, and the factor is the ratio of the medians: a
    slow moment of the host falls on one pass, not on the factor."""
    db10, queries, _ = synth10k
    db100, _, _ = vecio.generate_synthetic(SPEC_100K)
    ix100 = invindex.build(db100, BuildConfig(pq=PqConfig(**PQ_CFG), **IFC_CFG))

    def brute_force_time(db):
        bf = []
        for q in queries.vectors:
            t0 = time.perf_counter()
            baseline.brute_force(db, q, 10)
            bf.append(time.perf_counter() - t0)
        return float(np.mean(bf))

    ifc = {10: [], 100: []}
    for _ in range(3):
        for size, ix in ((10, ifc10k), (100, ix100)):
            _, summary = search.batch_query(ix, queries, QUERY_CFG)
            ifc[size].append(summary.mean_query_time)
    scan100 = float(np.mean(summary.candidate_counts)) / db100.n
    passes = ", ".join(f"x{b / a:.2f}" for a, b in zip(ifc[10], ifc[100]))
    ifc_factor = float(np.median(ifc[100]) / np.median(ifc[10]))
    bf_factor = brute_force_time(db100) / brute_force_time(db10)
    ok = ifc_factor < 5.0 and bf_factor > 5.0 and scan100 < 0.3
    report(7, ok,
           f"10k->100k: IFC x{ifc_factor:.2f} (<5; median of three passes, each {passes}), "
           f"BF x{bf_factor:.2f} (~10), scan fraction {scan100:.3f} (<0.3)")


def test_criterion_8_storage_trend(tmp_path):
    n, dim, length, links = 100_000, 4096, 512, 4
    db, _, _ = vecio.generate_synthetic(SynthSpec(100, n // 100, dim, 1.0, 0.1, seed=99))
    raw_path = tmp_path / "raw.fvecs"
    vecio.write_feature_file(db, raw_path)
    raw_size = raw_path.stat().st_size
    assert raw_size == n * (4 + 4 * dim)

    training = FeatureSet(db.vectors[::10])
    ix = invindex.build(
        db,
        BuildConfig(scheme="ifc", link_count=links, code_length=length,
                    pq=PqConfig(segments=2, words_per_segment=64)),
        training=training)
    idx_path = tmp_path / "big.idx"
    invindex.save(ix, idx_path)
    idx_size = idx_path.stat().st_size

    st = invindex.stats(ix)
    # 68 bytes per link: 4-byte id + 64-byte code
    per_link = (st.posting_bytes + st.code_bytes) / (n * links)
    ratio = raw_size / idx_size
    ok = (ratio >= 5.0
          and abs(st.estimated_file_bytes - idx_size) <= 0.10 * idx_size
          and abs(per_link - 68.0) <= 0.10 * 68.0)
    report(8, ok,
           f"index {idx_size / 1e6:.1f} MB vs raw {raw_size / 1e6:.1f} MB "
           f"(x{ratio:.1f} smaller), {per_link:.1f} bytes/link")


def test_criterion_9_persistence(synth10k, ifc10k, tmp_path):
    _, queries, _ = synth10k
    before, _ = search.batch_query(ifc10k, queries, QUERY_CFG)

    path = tmp_path / "ifc.idx"
    invindex.save(ifc10k, path)
    after, _ = search.batch_query(invindex.load(path), queries, QUERY_CFG)
    assert all(a.entries == b.entries for a, b in zip(before, after))

    # byte-identical rebuild under fixed seeds
    db = synth10k[0]
    rebuilt = invindex.build(db, BuildConfig(pq=PqConfig(**PQ_CFG), **IFC_CFG))
    path2 = tmp_path / "rebuilt.idx"
    invindex.save(rebuilt, path2)
    assert path.read_bytes() == path2.read_bytes()

    report(9, True,
           f"round-trip search equality on {queries.n} queries; "
           "byte-identical rebuild")
