#!/usr/bin/env python3
"""Compare TIFC, IFC, brute force and LSH on a synthetic clustered dataset:
MAP, mean query time, scan fraction and index size in one table."""

import argparse

from cnnidx import baseline, evaluation, invindex, search, vecio
from cnnidx.baseline import LshConfig
from cnnidx.invindex import build_config
from cnnidx.vecio import SynthSpec


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--clusters", type=int, default=100)
    ap.add_argument("--per-cluster", type=int, default=100)
    ap.add_argument("--dim", type=int, default=64)
    ap.add_argument("--seed", type=int, default=2024)
    ap.add_argument("--S", type=int, default=40)
    ap.add_argument("--W", type=int, default=40)
    ap.add_argument("--L", type=int, default=32)
    ap.add_argument("--K", type=int, default=64)
    ap.add_argument("--M", type=int, default=2)
    ap.add_argument("--topk", type=int, default=10)
    args = ap.parse_args()

    spec = SynthSpec(args.clusters, args.per_cluster, args.dim,
                     cluster_stddev=1.0, noise_stddev=0.1, seed=args.seed)
    db, queries, gt = vecio.generate_synthetic(spec)
    tifc_cfg = build_config("tifc", {**vars(args), "S": min(args.S, args.dim)})
    ifc_cfg = build_config("ifc", vars(args))
    # both schemes query at `cnnidx query`'s default T, which depends on L alone
    t = search.query_config(ifc_cfg, {}).hamming_threshold
    print(f"database {db.n} x {db.dim}, {queries.n} queries, "
          f"S={args.S} W={args.W} L={args.L} T={t} K={args.K} M={args.M}")

    rows = []

    def add_row(name, ranked, candidates, times, index_bytes):
        report = evaluation.evaluate(
            dict(enumerate(ranked)), gt,
            query_times=times, candidate_counts=candidates,
            database_size=db.n, index_bytes=index_bytes)
        rows.append((name, report.map, report.mean_query_time * 1e3,
                     report.scan_fraction, index_bytes / 1e6))

    for name, lsh in (("BF", None), ("LSH", LshConfig(tables=8, bits_per_table=16))):
        add_row(name, *baseline.run(db, queries, args.topk, lsh), db.vectors.nbytes)

    for name, cfg in (("TIFC", tifc_cfg), ("IFC", ifc_cfg)):
        ix = invindex.build(db, cfg)
        qcfg = search.query_config(cfg, {"W": min(args.W, ix.quantizer.word_count),
                                         "top_k": args.topk})
        results, summary = search.batch_query(ix, queries, qcfg)
        add_row(name, [r.ids for r in results], summary.candidate_counts, summary.query_times,
                invindex.stats(ix).estimated_file_bytes)

    print(f"\n{'method':<6} {'MAP':>9} {'ms/query':>9} {'scan':>6} {'MB':>8}")
    for name, m, ms, scan, mb in rows:
        print(f"{name:<6} {m:>9.6f} {ms:>9.3f} {scan:>6.3f} {mb:>8.2f}")


if __name__ == "__main__":
    main()
