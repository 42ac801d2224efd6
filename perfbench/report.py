"""Every workload, untraced and traced, in one command, plus a check of the
per-layer predictions the benchmark was designed around.

    python3 perfbench/report.py --seed 1 --seconds 50

Prints each workload's end-to-end metrics (error_rate included) by name and
unit, the per-layer metrics side by side, and for each prediction whether it
holds. A prediction is stated before measuring and reported as measured:
"large on X" holds when X's value is at least every other workload's; "~zero
on Y" holds when Y's value is at most 10% of the smallest "large on" value;
"smallest on Y" holds when Y's value is the least of all workloads.
"""

from __future__ import annotations

import argparse
import sys

import run

ZERO_SHARE = 0.10

# (metric, end-to-end metrics it should move, large on, ~zero on, kind of "zero")
PREDICTIONS = [
    ("pq.nearest_words_batch.s", "build_s", ["ifc-hard"], ["tifc-wide"], "zero"),
    ("pq.train.s", "build_s", ["ifc-fine"], ["tifc-wide"], "zero"),
    ("pq.nearest_words.s", "query_p50_ms, batch_qps", ["ifc-fine", "ifc-hard"],
     ["tifc-wide"], "zero"),
    ("search.select_words.s", "query_p50_ms, batch_qps", ["ifc-fine", "ifc-hard"],
     ["tifc-wide"], "zero"),
    ("tifc.softmax_rows.s", "build_s, peak_rss_mb", ["tifc-wide"], ["ifc-fine"], "zero"),
    ("tifc.top_words_rows.s", "build_s, peak_rss_mb", ["tifc-wide"], ["ifc-fine"], "zero"),
    ("embed.segment_means.s", "build_s, peak_rss_mb", ["tifc-wide"], ["ifc-fine"], "zero"),
    ("embed.pack_bits.s", "build_s, peak_rss_mb", ["tifc-wide"], ["ifc-fine"], "zero"),
    ("tifc.make_virtual_words.s", "setup_s", ["tifc-wide"], ["ifc-hard", "ifc-fine"], "zero"),
    ("embed.hamming_to_many.s", "query_p50_ms", ["tifc-wide"], ["ifc-fine"], "zero"),
    ("embed.hamming_to_many.calls", "query_p50_ms", ["tifc-wide"], ["ifc-fine"], "zero"),
    ("search.query.self_s", "query_p50_ms", ["tifc-wide"], ["ifc-fine"], "zero"),
    ("search.candidate_set.s", "batch_qps only", ["ifc-hard"], ["ifc-fine"], "smallest"),
    ("invindex.load.s", "setup_s, build_s", ["ifc-fine"], ["ifc-hard"], "zero"),
    ("invindex.save.s", "setup_s, build_s", ["ifc-fine"], ["ifc-hard"], "zero"),
    ("invindex.build.self_s", "setup_s, build_s", ["ifc-fine"], ["ifc-hard"], "zero"),
    ("vecio.read_feature_file.s", "build_s", ["tifc-wide"], [], "zero"),
]


def judge(values: dict[str, float], large: list[str], low: list[str], kind: str) -> list[str]:
    """The parts of one prediction that fail; empty when it holds."""
    fails = []
    others = [v for w, v in values.items() if w not in large]
    for w in large:
        if others and values[w] < max(others):
            fails.append(f"not largest on {w}")
    floor = min(values[w] for w in large)
    for w in low:
        if kind == "smallest" and values[w] > min(values.values()):
            fails.append(f"not smallest on {w}")
        if kind == "zero" and values[w] > ZERO_SHARE * floor:
            fails.append(f"not ~zero on {w}")
    return fails


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=50)
    args = ap.parse_args(argv)
    names = list(run.WORKLOADS)
    e2e, layer = {}, {}
    for w in names:
        for trace, store in ((False, e2e), (True, layer)):
            rec = run.run(w, args.seed, args.seconds, trace)
            store[w] = {k: m["value"] for k, m in rec["result"]["metrics"].items()}
            store[w]["_units"] = {k: m["unit"] for k, m in rec["result"]["metrics"].items()}
            if not trace:
                store[w]["error_rate"] = rec["error_rate"]
                store[w]["_units"]["error_rate"] = "fraction"
            print(f"[{w} trace={int(trace)}] correct={rec['result']['correct']} "
                  f"error_rate={rec['error_rate']:.3g} index={rec['index_sha256'][:16]} "
                  f"answers={rec['answers_sha256'][:16]}", flush=True)

    def table(title: str, data: dict) -> None:
        print(f"\n{title}\n{'metric':34s}" + "".join(f"{w:>14s}" for w in names) + "  unit")
        for key, unit in data[names[0]]["_units"].items():
            print(f"{key:34s}" + "".join(f"{data[w].get(key, float('nan')):>14.6g}"
                                         for w in names) + f"  {unit}")

    table(f"End-to-end (seed {args.seed}, {args.seconds:g} s)", e2e)
    table("Per-layer (traced run)", layer)
    print("\nPredictions")
    held = 0
    for metric, moves, large, low, kind in PREDICTIONS:
        if any(metric not in layer[w] for w in names):
            print(f"  absent  {metric}")
            continue
        values = {w: layer[w][metric] for w in names}
        fails = judge(values, large, low, kind)
        held += not fails
        shown = ", ".join(f"{w}={v:.4g}" for w, v in values.items())
        print(f"  {'holds ' if not fails else 'FAILS '} {metric} (moves {moves}): {shown}"
              + (f"  [{'; '.join(fails)}]" if fails else ""))
    print(f"{held} of {len(PREDICTIONS)} predictions hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
