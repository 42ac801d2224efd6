#!/usr/bin/env python3
"""Warm factors of acceptance criterion 7: IFC's mean `batch_query` time at
100k vectors over that at 10k, with a per-stage table of the query scan.

    PYTHONPATH=src python3 scripts/bench_criterion7.py [--pairs 15] [--warmup 3]

The two indexes are built once, as the criterion builds them: the specs,
the build and query configurations and the queries come from
`tests/test_acceptance.py`. Both are warmed up with `--warmup` batch runs
each, then `--pairs` pairs of batch runs alternate which index goes first.
Each pair's factor is the criterion's: the ratio of the two batches'
`BatchSummary.mean_query_time`. The criterion passes below 5.0; it gates the
ratio of the medians of three passes per size, 10k and 100k alternating,
with no warm-up, so judge a change by the warm median here and by full
tier-1 runs, not by isolated runs of the test. Each batch run is also
divided by its host factor (`scripts/stagetimer.py`), and each pair's factor
and the summary are printed raw and, in brackets or on their own line,
host-corrected.

The table splits one warm `batch_query` pass into the self times of its
calls, by a `stagetimer.StageTimer`, in ms per query: encode (the
quantizer's `words` and `invindex.list_codes`), probe (the lookup of the
words' lists, `invindex.find_lists`, and of their slices, `search._spans`),
gather (`search._gather`, the ids and codes of the probed lists), Hamming
(`embed.hamming_to_many`) and scan (the rest of `search._scan`: votes,
minimum Hamming, rank and candidate count). Each cell gives the raw time
and, after a slash, the time divided by the pass's host factor. The mean
entries scanned and kept (at distance < T) per query are counted from
`hamming_to_many`'s results, outside every stage's time.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "tests"), str(ROOT / "scripts")]

from stagetimer import PassFactors, StageTimer  # noqa: E402
from test_acceptance import IFC_CFG, PQ_CFG, QUERY_CFG, SPEC_100K, SPEC_10K  # noqa: E402

from cnnidx import invindex, search, vecio  # noqa: E402
from cnnidx.invindex import BuildConfig  # noqa: E402
from cnnidx.pq import PqConfig  # noqa: E402

STAGES = {
    "encode": ("pq.PqCodebook.words", "tifc.VirtualWordBank.words", "invindex.list_codes"),
    "probe": ("invindex.find_lists", "search._spans"),
    "gather": ("search._gather",),
    "Hamming": ("embed.hamming_to_many",),
    "scan": ("search._scan",),
}


def batch_time(ix, queries) -> float:
    _, summary = search.batch_query(ix, queries, QUERY_CFG)
    return summary.mean_query_time


def scan_stages(ix, queries) -> tuple[dict[str, tuple[float, float]], int, int]:
    """Mean seconds per query of each stage, raw and host-corrected, and the
    mean entries scanned and kept per query, from one `batch_query` pass."""
    def scanned_kept(dists):
        return np.array([len(dists), np.count_nonzero(dists < QUERY_CFG.hamming_threshold)])

    timer = StageTimer(STAGES, counters={"embed.hamming_to_many": scanned_kept})
    factors = PassFactors()
    with timer:
        search.batch_query(ix, queries, QUERY_CFG)
    factor = factors.next()
    q = queries.n
    scanned, kept = (timer.counts["embed.hamming_to_many"] // q).tolist()
    return {k: (v / q, v / q / factor) for k, v in timer.take().items()}, scanned, kept


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--pairs", type=int, default=15)
    ap.add_argument("--warmup", type=int, default=3)
    args = ap.parse_args()

    cfg = BuildConfig(pq=PqConfig(**PQ_CFG), **IFC_CFG)
    db10, queries, _ = vecio.generate_synthetic(SPEC_10K)
    db100, _, _ = vecio.generate_synthetic(SPEC_100K)
    t0 = time.perf_counter()
    indexes = {"10k": invindex.build(db10, cfg), "100k": invindex.build(db100, cfg)}
    print(f"built both indexes in {time.perf_counter() - t0:.1f} s", flush=True)
    del db10, db100
    for _ in range(args.warmup):
        for ix in indexes.values():
            batch_time(ix, queries)

    factors = PassFactors()
    ratios = {"raw": [], "host-corrected": []}
    for p in range(args.pairs):
        order = ("10k", "100k") if p % 2 == 0 else ("100k", "10k")
        times = {}
        for name in order:
            t = batch_time(indexes[name], queries)
            times[name] = (t, t / factors.next())
        for col, label in enumerate(ratios):
            ratios[label].append(times["100k"][col] / times["10k"][col])
        print(f"pair {p + 1:2d} ({order[0]} first): 10k {times['10k'][0] * 1e3:.3f} ms "
              f"[{times['10k'][1] * 1e3:.3f}], 100k {times['100k'][0] * 1e3:.3f} ms "
              f"[{times['100k'][1] * 1e3:.3f}], x{ratios['raw'][-1]:.2f} "
              f"[x{ratios['host-corrected'][-1]:.2f}]", flush=True)
    for label, values in ratios.items():
        q1, med, q3 = np.percentile(values, [25, 50, 75])
        print(f"{label} factor over {args.pairs} warm pairs: median x{med:.2f} (quartiles "
              f"x{q1:.2f}-x{q3:.2f}), {sum(f >= 5.0 for f in values)} of {args.pairs} "
              "at or over x5.00")

    print("\nms per query, raw / host-corrected | " + " | ".join(STAGES)
          + " | entries / kept")
    for name, ix in indexes.items():
        stages, scanned, kept = scan_stages(ix, queries)
        cells = " | ".join(f"{stages[s][0] * 1e3:.3f} / {stages[s][1] * 1e3:.3f}"
                           for s in STAGES)
        print(f"{name} | {cells} | {scanned:,} / {kept:,}")


if __name__ == "__main__":
    main()
