"""A fixed reference workload that measures the host's speed during a run.

The shared hosts this benchmark runs on change speed by tens of percent for
spells of a fraction of a second to minutes (other tenants' load on the same
cores, caches and memory), so the same code timed in two runs can differ by
30%. ``HostRef.sample`` times a fixed piece of work shaped like the query's
inner loop (per posting list: XOR and popcount of packed codes, a threshold,
vote and minimum updates; then a lexsort of the hits) on data of its own.
A sample is the median time of its reference queries, so that one stall
of the host does not set it. The worker takes a sample before and after
every timed call, and every 100 queries of a pass; ``run.py`` divides each
timed call by its host factor

    host factor = (mean of the samples within run.WINDOW_S of the call)
                  / REF_QUERY_S

so that a timing reads as it would on a host on which one reference query
takes ``REF_QUERY_S``. This code is part of the benchmark, not of the
program, so a change to the program cannot change the factor, except
through what it leaves running beside the measured calls.
"""

from __future__ import annotations

import time

import numpy as np

SEED = 20150801  # fixed: every run, whatever its --seed, does the same work
N = 15_000  # ids voted on
LISTS = 40  # posting lists per reference query
LIST_LEN = 400
CODE_BYTES = 4
THRESHOLD = 14  # of 32 bits
QUERIES_PER_SAMPLE = 10
# About the median seconds of one reference query on the 2-vCPU development
# VM; only the scale of the corrected timings depends on it.
REF_QUERY_S = 0.0015


class HostRef:
    def __init__(self):
        rng = np.random.default_rng(SEED)
        self.lists = [(rng.integers(0, N, LIST_LEN),
                       rng.integers(0, 256, (LIST_LEN, CODE_BYTES), dtype=np.uint8))
                      for _ in range(LISTS)]
        self.codes = rng.integers(0, 256, (QUERIES_PER_SAMPLE, LISTS, CODE_BYTES),
                                  dtype=np.uint8)
        self.answer = None
        self.times: list[float] = []  # middle of each sample, perf_counter clock
        self.seconds: list[float] = []

    def _query(self, codes: np.ndarray) -> list[tuple[int, int, int]]:
        votes = np.zeros(N, dtype=np.int32)
        min_h = np.full(N, 8 * CODE_BYTES + 1, dtype=np.int32)
        for code, (ids, list_codes) in zip(codes, self.lists):
            d = np.bitwise_count(list_codes ^ code).sum(axis=-1, dtype=np.int64)
            keep = d < THRESHOLD
            kept = ids[keep]
            votes[kept] += 1
            np.minimum.at(min_h, kept, d[keep].astype(np.int32))
        hit = np.nonzero(votes)[0]
        order = np.lexsort((hit, min_h[hit], -votes[hit]))[:10]
        return [(int(i), int(votes[i]), int(min_h[i])) for i in hit[order]]

    def sample(self) -> None:
        """Record one sample: when it was taken and the median seconds of
        its queries. Raises if its answers differ from the first sample's.
        An untimed query first brings the reference's data back into the
        caches, so the program's use of them does not show in the sample."""
        self._query(self.codes[0])
        answer, seconds = [], []
        start = time.perf_counter()
        for codes in self.codes:
            t0 = time.perf_counter()
            answer.append(self._query(codes))
            seconds.append(time.perf_counter() - t0)
        self.times.append((start + time.perf_counter()) / 2)
        self.seconds.append(float(np.median(seconds)))
        if self.answer is None:
            self.answer = answer
        elif answer != self.answer:
            raise RuntimeError("host reference gave a different answer")
