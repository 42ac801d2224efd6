#!/usr/bin/env python3
"""Median time of each stage of `invindex.build`, `invindex.load` and
`search.query`, on an index shaped like each benchmark workload.

    PYTHONPATH=src python3 scripts/bench_stages.py [--seed 1] [--loads 40] [--queries 300] [--passes 5]

One index per workload that `BENCHMARK.json` runs (`ifc-hard` and
`tifc-wide`) is built from `perfbench/datagen.hard_vectors` with the shape
and build parameters of `perfbench/run.py`'s `WORKLOADS`, through
`invindex.build_config`, saved to a temporary directory and queried with
that workload's W, T and top-k. The real `build`, `load` and `query` run,
and a `stagetimer.StageTimer` splits their time into the self times of
named calls. The stages of `build` and `save`, in ms per build:

- train: the IFC codebook's training (`pq.train`) or the TIFC reference,
  the in-place partition of the (L, n) segment means that gives each
  segment's lower median (`tifc.lower_medians`), and the bank made from it
  (`tifc.make_virtual_words`);
- words: the quantizer's `words`, each chunk's words in the build's
  first pass;
- codes: `invindex.list_codes`, each chunk's codes in the second pass:
  IFC's against its words' reference means, gathered by word id from the
  codebook's table, TIFC's one code a row against the reference row;
- group + save: the rest of `build` and `save`: chiefly the stable argsort
  of the words, the slot array (IFC), the grouped words and the ids made
  from it, the float64 casts and the writes into place of the caller's
  chunks in both passes, TIFC's segment means in the first, its wait for
  the helpers' last chunks, and the file.

`build` runs each pass's chunks on the calling thread and one helper per
further CPU, up to `invindex.MAX_THREADS`, so words and codes are busy time
summed over threads, and the stages may add up to more than the whole
`build` (and `save`) call beside them.

The stages of `load`, in ms per load:

- header: `invindex._read_header`;
- quantizer: the IFC codebook's constants (`PqCodebook.__post_init__`) or
  the TIFC bank (`tifc.make_virtual_words`, which copies the L reference
  means that the payload holds, and draws nothing);
- rules: `invindex._check_sections`, every rule on the sections' values:
  their counts, the finite payload and the posting rules (`save` runs the
  same function, inside group + save);
- sections: the rest of `load`, chiefly its one walk of the sections,
  each read into its array with the CRC updated as it arrives.

`load` runs on the calling thread alone, so its stages add up to no more
than the whole call. `build` runs its threads through `invindex._fill_rows`,
on `invindex._threads()` threads at most, so each workload's first line
gives that count beside its file size and traced build peak.

The stages of `query`, in us per query:

- check: `search._check_config` and `search._check_queries`;
- scores: the word stage's scores, `pq.segment_distances_batch` (IFC); a
  TIFC query ranks its activations themselves, so this stage reads 0;
- words: the choice of the W words, `pq._nearest` (IFC) or
  `tifc.top_words_rows` (TIFC); a one-row IFC query at K^M = 4,096 is
  within `pq.DENSE_WORDS`, so it scores all K^M words (`pq._dense_nearest`),
  where the build's chunks run the prune-and-merge (`pq._pruned_merge`),
  both inside this stage's time;
- encode: `invindex.list_codes`, the query's codes against its words;
- scan: `invindex.find_lists`, the lookup of the words' lists, and
  `search._scan`, the list scan, votes and ranking.

A query runs the row step that `batch_query` runs on its chunks,
`search._rank_rows`, on its one row. The self time of that step (the
selection of each row's found lists and codes) and of `query` itself is
in no stage, only in the whole `query`.

`build`, `load` and `query` are whole calls. `BUILDS` rounds of one build
each, `--loads` rounds of one load each and `--passes` passes over the
queries each follow one warm round or pass, and each cell gives the median
per call, raw and, after a slash, of the timings divided by their round's
or pass's host factor (`scripts/stagetimer.py`), which reads the same on a
slower or busier host.
The file size of each index is printed too, and the traced peak of one
more, untimed build under `tracemalloc`, in MiB: the most memory the build's
Python and numpy allocations held at once, which checks a memory change
without a benchmark run.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "scripts")]

import datagen  # noqa: E402
from stagetimer import PassFactors, StageTimer  # noqa: E402

from run import WORKLOADS  # noqa: E402

from cnnidx import invindex, search  # noqa: E402
from cnnidx.vecio import FeatureSet  # noqa: E402

BUILDS = 5  # timed builds per workload, after one warm build
BUILD_STAGES = {
    "train": ("pq.train", "tifc.lower_medians", "tifc.make_virtual_words"),
    "words": ("pq.PqCodebook.words", "tifc.VirtualWordBank.words"),
    "codes": ("invindex.list_codes",),
    "group + save": ("invindex.build", "invindex.save"),
}
LOAD_STAGES = {
    "header": ("invindex._read_header",),
    "quantizer": ("pq.PqCodebook.__post_init__", "tifc.make_virtual_words"),
    "rules": ("invindex._check_sections",),
    "sections": ("invindex.load",),
}
QUERY_STAGES = {
    "check": ("search._check_config", "search._check_queries"),
    "scores": ("pq.segment_distances_batch",),
    "words": ("pq._nearest", "tifc.top_words_rows"),
    "encode": ("invindex.list_codes",),
    "scan": ("invindex.find_lists", "search._scan"),
}
BENCH_WORKLOADS = [w["name"] for w in
                   json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def stage_medians(stages: dict, whole: str, calls: list, passes: int
                  ) -> dict[str, tuple[float, float]]:
    """Median seconds per call of each stage and of the `whole` call, raw
    and host-corrected, over `passes` passes of every call in `calls` after
    one warm pass."""
    raw = {s: [] for s in [*stages, whole]}
    corrected = {s: [] for s in raw}
    timer = StageTimer(stages)
    factors = PassFactors()
    for p in range(passes + 1):
        times = []
        with timer:
            for call in calls:
                t0 = time.perf_counter()
                call()
                times.append({whole: time.perf_counter() - t0, **timer.take()})
        factor = factors.next()
        if p == 0:
            continue
        for t in times:
            for stage, seconds in t.items():
                raw[stage].append(seconds)
                corrected[stage].append(seconds / factor)
    return {s: (float(np.median(raw[s])), float(np.median(corrected[s]))) for s in raw}


def traced_build_peak(db: FeatureSet, cfg: invindex.BuildConfig) -> float:
    """MiB that `tracemalloc` traces at the peak of one `invindex.build`."""
    tracemalloc.start()
    try:
        invindex.build(db, cfg)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def row(name: str, medians: dict, scale: float, digits: int) -> str:
    return f"{name} | " + " | ".join(f"{raw * scale:.{digits}f} / {corr * scale:.{digits}f}"
                                     for raw, corr in medians.values())


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--loads", type=int, default=40)
    ap.add_argument("--queries", type=int, default=300)
    ap.add_argument("--passes", type=int, default=5)
    args = ap.parse_args()

    with tempfile.TemporaryDirectory() as tmp:
        for name in BENCH_WORKLOADS:
            spec = WORKLOADS[name]
            db, queries = datagen.hard_vectors(args.seed, spec["n"], args.queries, spec["dim"])
            path = Path(tmp) / f"{name}.idx"
            db, build_cfg = FeatureSet(db), invindex.build_config(spec["scheme"], spec)
            build = stage_medians(BUILD_STAGES, "build",
                                  [lambda: invindex.save(invindex.build(db, build_cfg), path)],
                                  BUILDS)
            peak = traced_build_peak(db, build_cfg)
            del db
            ix = invindex.load(path)
            cfg = search.query_config(build_cfg, spec)
            load = stage_medians(LOAD_STAGES, "load", [lambda: invindex.load(path)], args.loads)
            query = stage_medians(QUERY_STAGES, "query",
                                  [lambda q=q: search.query(ix, q, cfg) for q in queries],
                                  args.passes)
            print(f"{name}, {invindex._threads()} thread(s), {path.stat().st_size:,} bytes, "
                  f"traced build peak {peak:.1f} MiB")
            print("  ms per build, raw / host-corrected | " + " | ".join(build))
            print("  " + row("build", build, 1e3, 1))
            print("  ms per load, raw / host-corrected | " + " | ".join(load))
            print("  " + row("load", load, 1e3, 2))
            print("  us per query, raw / host-corrected | " + " | ".join(query))
            print("  " + row("query", query, 1e6, 1), flush=True)


if __name__ == "__main__":
    main()
