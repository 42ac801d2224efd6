#!/usr/bin/env python3
"""Time `embed.hamming_to_many` against numpy's row sum of the word
popcounts, at code widths of 64 to 4,096 bits and several scan lengths.

    PYTHONPATH=src python3 scripts/bench_hamming.py [--rows 10 100 200 8000] [--repeats 100]

Each width and row count gets random packed codes and one query code per
row, as a query's posting scan passes them. The row sum is
`counts.sum(axis=-1, dtype=np.int64)` over `embed.word_popcounts`, or the
counts as they are for a one-word code. The two are timed interleaved, in
alternating order, so that a change in the host's speed hits both alike, and
checked equal first. The table gives each one's median and quartiles in
microseconds, and the ratio of the medians. Re-check
`embed.COLUMN_SUM_MAX_WORDS` and `embed.COLUMN_SUM_MIN_ROWS` with it on a new
machine or numpy: the kernel should be no slower than the row sum anywhere.
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from cnnidx import embed

WIDTHS = (64, 128, 256, 512, 1024, 2048, 4096)


def row_sum(code, codes):
    counts = embed.word_popcounts(code, codes)
    if counts.shape[-1] == 1:
        return counts[..., 0]
    return counts.sum(axis=-1, dtype=np.int64)


FORMS = {"hamming_to_many": embed.hamming_to_many, "row sum": row_sum}


def time_forms(bits: int, rows: int, repeats: int, rng) -> dict[str, np.ndarray]:
    codes = rng.integers(0, 256, (rows, bits // 8), dtype=np.uint8)
    code = rng.integers(0, 256, (rows, bits // 8), dtype=np.uint8)
    if not np.array_equal(embed.hamming_to_many(code, codes), row_sum(code, codes)):
        raise AssertionError(f"hamming_to_many disagrees with the row sum at {bits} bits")
    names = list(FORMS)
    samples = {name: [] for name in names}
    for r in range(repeats):
        for name in names[r % 2:] + names[:r % 2]:
            t0 = time.perf_counter_ns()
            FORMS[name](code, codes)
            samples[name].append(time.perf_counter_ns() - t0)
    return {name: np.array(s) / 1e3 for name, s in samples.items()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--rows", type=int, nargs="+", default=[10, 100, 200, 8000])
    ap.add_argument("--repeats", type=int, default=100)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    rng = np.random.default_rng(args.seed)
    print(f"numpy {np.__version__}, {args.repeats} interleaved repeats, "
          f"COLUMN_SUM_MAX_WORDS = {embed.COLUMN_SUM_MAX_WORDS}, "
          f"COLUMN_SUM_MIN_ROWS = {embed.COLUMN_SUM_MIN_ROWS}")
    print("median [q1, q3] in us")
    print(f"{'rows':>5} {'bits':>5}" + "".join(f" {name:>20}" for name in FORMS) + "  ratio")
    for rows in args.rows:
        for bits in WIDTHS:
            times = time_forms(bits, rows, args.repeats, rng)
            q = {name: np.percentile(t, [25, 50, 75]) for name, t in times.items()}
            cells = "".join(f" {f'{m:.1f} [{q1:.1f}, {q3:.1f}]':>20}" for q1, m, q3 in q.values())
            ratio = q["hamming_to_many"][1] / q["row sum"][1]
            print(f"{rows:>5} {bits:>5}{cells}  {ratio:.2f}")


if __name__ == "__main__":
    main()
