#!/usr/bin/env python3
"""Median time per single query of each stage of `search.query`, on an
index shaped like each benchmark workload.

    PYTHONPATH=src python3 scripts/bench_query_stages.py [--seed 1] [--queries 300] [--passes 5]

One index per workload that `BENCHMARK.json` runs (`ifc-hard` and
`tifc-wide`) is built from `perfbench/datagen.hard_vectors` with the shape
and build parameters of `perfbench/run.py`'s `WORKLOADS`, through
`invindex.build_config`, and queried with that workload's W, T and top-k.
After one warm pass, `--passes` passes run every query through the stages of
`query` one after another, and the table gives each stage's median in us:

- check: `search._check_config` and `search._check_queries`;
- scores: the word stage's scores, `pq.segment_distances_batch` (IFC); a
  TIFC query ranks its activations themselves, so this stage is empty;
- words: the choice of the W words from those scores, `pq._nearest` (IFC)
  or `VirtualWordBank.words` (TIFC);
- encode: the quantizer's `codes`, the query's codes against its words;
- scan: `search._scan`, the list scan, votes and ranking.

`query` is the median of whole `search.query` calls, timed in the same
passes. Every staged answer is checked equal to `query`'s. Each cell gives
the raw median and, after a slash, the median of the timings divided by
their pass's host factor (`scripts/hostfactor.py`), which reads the same
on a slower or busier host.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "scripts")]

import datagen  # noqa: E402
from hostfactor import PassFactors  # noqa: E402

from run import WORKLOADS  # noqa: E402

from cnnidx import invindex, pq, search  # noqa: E402
from cnnidx.pq import PqCodebook  # noqa: E402
from cnnidx.vecio import FeatureSet  # noqa: E402

STAGES = ("check", "scores", "words", "encode", "scan", "query")
BENCH_WORKLOADS = [w["name"] for w in
                   json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def staged_query(ix, q, cfg) -> tuple[list[float], search.RankedResult]:
    """`search.query` split into its stages: the perf_counter reading after
    each, and the result."""
    quantizer, w = ix.quantizer, cfg.assignment_count
    t = [time.perf_counter()]
    search._check_config(ix, cfg)
    xs = np.asarray(search._check_queries(ix, np.asarray(q)[None], w), dtype=np.float64)
    t.append(time.perf_counter())
    if isinstance(quantizer, PqCodebook):
        scores = pq.segment_distances_batch(xs, quantizer)
        t.append(time.perf_counter())
        wids = pq._nearest(scores, quantizer.sub_codebooks.shape[1], w)[0]
    else:
        t.append(time.perf_counter())
        wids = quantizer.words(xs, w)
    t.append(time.perf_counter())
    codes = quantizer.codes(xs, wids, ix.config.code_length)
    t.append(time.perf_counter())
    result = search._scan(ix, wids[0], codes[0], cfg, count_candidates=False)
    t.append(time.perf_counter())
    return t, result


def stage_medians(ix, queries, cfg, passes: int) -> dict[str, tuple[float, float]]:
    """Median seconds per query of each stage over `passes` passes, after
    one warm pass, raw and host-corrected; raises if a staged answer differs
    from `search.query`'s."""
    raw = {s: [] for s in STAGES}
    corrected = {s: [] for s in STAGES}
    factors = PassFactors()
    for p in range(passes + 1):
        times = {s: [] for s in STAGES}
        for q in queries:
            t, staged = staged_query(ix, q, cfg)
            t0 = time.perf_counter()
            ref = search.query(ix, q, cfg)
            t1 = time.perf_counter()
            if staged.entries != ref.entries:
                raise AssertionError("the staged query disagrees with search.query")
            for stage, a, b in zip(STAGES, t, t[1:]):
                times[stage].append(b - a)
            times["query"].append(t1 - t0)
        factor = factors.next()
        if p == 0:
            continue
        for stage, seconds in times.items():
            raw[stage] += seconds
            corrected[stage] += [x / factor for x in seconds]
    return {s: (float(np.median(raw[s])), float(np.median(corrected[s]))) for s in STAGES}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--queries", type=int, default=300)
    ap.add_argument("--passes", type=int, default=5)
    args = ap.parse_args()

    print("us per query, raw / host-corrected | " + " | ".join(STAGES))
    for name in BENCH_WORKLOADS:
        spec = WORKLOADS[name]
        db, queries = datagen.hard_vectors(args.seed, spec["n"], args.queries, spec["dim"])
        ix = invindex.build(FeatureSet(db), invindex.build_config(spec["scheme"], spec))
        del db
        cfg = search.QueryConfig(assignment_count=spec["W"], hamming_threshold=spec["T"],
                                 top_k=spec["top_k"])
        med = stage_medians(ix, queries, cfg, args.passes)
        print(f"{name} | " + " | ".join(f"{med[s][0] * 1e6:.1f} / {med[s][1] * 1e6:.1f}"
                                        for s in STAGES), flush=True)


if __name__ == "__main__":
    main()
