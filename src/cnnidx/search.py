"""Query pipeline: assign the query to W words (multiple assignment), filter
each probed posting list by Hamming distance < T against the query's binary
code for that list (IFC) or its one code (TIFC), then rank candidates by
vote count.

The rows are checked, then the index's quantizer assigns each its W words
(`words`), and one row step, `_rank_rows`, takes a chunk of rows and their
words: it packs each row's codes against its words' reference means with
`invindex.list_codes`, the one code function that the build runs too, looks
the words up among the index's lists (`invindex.find_lists`), and scans one
row's lists at a time. `query` runs the row step on its one row, and
`batch_query` on chunks sized as the build's are, so a query is one row of a
batch.

A run's files (`RUN_SUFFIXES`) are written by `write_run` and their timings
read back by `read_query_times`, and by no other code."""

from __future__ import annotations

import json
import math
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from .embed import hamming_to_many
from .invindex import BuildConfig, InvertedIndex, _row_bytes, find_lists, list_codes
from .vecio import DataError, check_ints, chunk_rows, write_int_lists, write_json


@dataclass
class QueryConfig:
    assignment_count: int  # W
    hamming_threshold: int  # T, entries at distance >= T are discarded
    top_k: int = 10

    def __post_init__(self):
        check_ints(self, {"assignment_count": 1, "hamming_threshold": 0, "top_k": 1})


def query_config(build_cfg: BuildConfig, params: dict) -> QueryConfig:
    """The QueryConfig of params' W, T and top_k, as they are; one left out
    or None takes `cnnidx query`'s default for an index built under
    build_cfg: W = S, T = round(0.35 * L), top_k 10."""
    w, t, top_k = (params.get(k) for k in ("W", "T", "top_k"))
    return QueryConfig(
        assignment_count=build_cfg.link_count if w is None else w,
        hamming_threshold=round(0.35 * build_cfg.code_length) if t is None else t,
        top_k=QueryConfig.top_k if top_k is None else top_k)


@dataclass
class RankedResult:
    """Entries sorted by votes desc, then min Hamming asc, then image id."""

    entries: list[tuple[int, int, int]]  # (image_id, votes, min_hamming)
    candidates: int  # distinct ids in the probed lists, before the Hamming filter

    @property
    def ids(self) -> list[int]:
        return [e[0] for e in self.entries]


@dataclass
class BatchSummary:
    """Per-query bookkeeping of a batch run; timings are wall-clock seconds."""

    candidate_counts: list[int] = field(default_factory=list)
    query_times: list[float] = field(default_factory=list)

    @property
    def mean_query_time(self) -> float:
        return float(np.mean(self.query_times)) if self.query_times else 0.0


def _check_queries(ix: InvertedIndex, qs, count: int) -> np.ndarray:
    """The query rows, checked against the index but not cast: the right
    dimension, finite values and 1 <= count <= word count."""
    qs = np.asarray(qs)
    if not 1 <= count <= ix.quantizer.word_count:
        raise ValueError(f"assignment count must be in [1, {ix.quantizer.word_count}]")
    if qs.ndim != 2 or qs.shape[1] != ix.quantizer.dim:
        raise ValueError(f"query dim {qs.shape[1:]} does not match index dim "
                         f"{ix.quantizer.dim}")
    if not np.all(np.isfinite(qs)):
        raise ValueError("query must be finite")
    return qs


def select_words(ix: InvertedIndex, q, count: int) -> np.ndarray:
    """The W words a query is assigned to, in selection order, as an int64
    array: the one-row case of the batch word assignment."""
    return ix.quantizer.words(_check_queries(ix, np.asarray(q)[None], count), count)[0]


def _spans(ix: InvertedIndex, lists: np.ndarray) -> tuple[np.ndarray, list[slice]]:
    """The lengths of the given lists and their slices of `ix.ids`/`ix.codes`,
    list after list."""
    starts = ix.offsets[lists]
    ends = ix.offsets[lists + 1]
    return ends - starts, [slice(a, b) for a, b in zip(starts.tolist(), ends.tolist())]


def _gather(a: np.ndarray, spans: list[slice], dtype=None) -> np.ndarray:
    """The rows of `a` in the given slices, one after another, at `dtype` if
    given. Each list is contiguous, so copying it slice by slice costs a
    fraction of a row-index gather per entry: the 73,477 ids of a query at
    100k vectors (W = 40) in 0.035 against 0.126 ms on 2 vCPUs."""
    return np.concatenate([a[s] for s in spans] or [a[:0]], dtype=dtype)


def _check_config(ix: InvertedIndex, cfg: QueryConfig) -> None:
    length, n = ix.config.code_length, ix.indexed_count
    if cfg.hamming_threshold > length:
        raise ValueError(
            f"hamming_threshold {cfg.hamming_threshold} exceeds code length {length}")
    if cfg.assignment_count * (length + 1) * n >= 2**63:
        raise ValueError("assignment_count * (code_length + 1) * indexed_count "
                         "exceeds the int64 ranking key")


def _scan(ix: InvertedIndex, lists: np.ndarray, q_codes: np.ndarray, cfg: QueryConfig
          ) -> RankedResult:
    """Vote and rank over one query's posting lists, given its code against
    each list (IFC, (len(lists), B)) or its one code (TIFC, (B,)).

    All probed entries are gathered at once and go through one Hamming pass:
    under IFC each entry's code, gathered list by list, against the query's
    code for its list; under TIFC the code of each entry's vector, taken by
    id, against the query's one code.
    Two `ufunc.at` passes over them then fill n-sized arrays: each id's votes
    (its entries at distance < T) and its minimum distance over all its
    entries. Entries below T are the kept ones, so an id was kept iff that
    minimum is < T, and then it is the minimum over its kept entries; an id
    was scanned iff its minimum is <= L, which counts the candidates without
    another pass over the entries. The ranking key packs (W - votes,
    min Hamming, id) into one int64; ids strictly increasing within each list
    keep votes <= W.
    """
    n, length, w = ix.indexed_count, ix.config.code_length, cfg.assignment_count
    lengths, spans = _spans(ix, lists)
    # cast in the copy: `ufunc.at` would cast narrower ids to intp twice
    ids = _gather(ix.ids, spans, np.intp)
    if ix.config.pq:
        dists = hamming_to_many(np.repeat(q_codes, lengths, axis=0), _gather(ix.codes, spans))
    else:  # `np.take` of 8,183 32-byte codes: 8.8 against 88 us by fancy index, 2 vCPUs
        dists = hamming_to_many(q_codes, np.take(ix.codes, ids, axis=0))
    votes = np.zeros(n, dtype=np.min_scalar_type(w))
    np.add.at(votes, ids, (dists < cfg.hamming_threshold).view(np.uint8))
    min_h = np.full(n, length + 1, dtype=dists.dtype)
    np.minimum.at(min_h, ids, dists)

    hit = np.flatnonzero(min_h < cfg.hamming_threshold)
    key = ((w - votes[hit].astype(np.int64)) * (length + 1) + min_h[hit]) * n + hit
    if len(key) > cfg.top_k:
        key = np.partition(key, cfg.top_k - 1)[: cfg.top_k]
    key.sort()
    rest = key // n
    entries = zip((key % n).tolist(), (w - rest // (length + 1)).tolist(),
                  (rest % (length + 1)).tolist())
    return RankedResult(list(entries), int(np.count_nonzero(min_h <= length)))


def _rank_rows(ix: InvertedIndex, xs: np.ndarray, words: np.ndarray, cfg: QueryConfig
               ) -> list[RankedResult]:
    """The row step: the results of float64 rows xs given their (N, W) words,
    each row's lists scanned on their own and a word without a list skipped."""
    codes = list_codes(ix.quantizer, xs, words, ix.config.code_length)
    lists, found = find_lists(ix, words)
    return [_scan(ix, lq[fq], cq[fq] if ix.config.pq else cq[0], cfg)
            for lq, fq, cq in zip(lists, found, codes)]


def query(ix: InvertedIndex, q, cfg: QueryConfig) -> RankedResult:
    """Rank database images for one query vector.

    A posting entry votes when its code is at Hamming distance < T from the
    query's code against the entry's list (IFC), or when its vector's code
    is at distance < T from the query's one code (TIFC). Images are ranked
    by vote count, minimum observed Hamming distance, then id.

    This is the one-row case of `batch_query`: the row's words from
    `select_words`, then the same row step, so the result equals the
    batch's for that row, candidate count included.
    """
    _check_config(ix, cfg)
    q = np.asarray(q, dtype=np.float64)
    return _rank_rows(ix, q[None], select_words(ix, q, cfg.assignment_count)[None], cfg)[0]


def candidate_set(ix: InvertedIndex, q, count: int) -> set[int]:
    """Union of posting-list members over the W selected words (pre-filter)."""
    lists, found = find_lists(ix, select_words(ix, np.asarray(q, dtype=np.float64), count))
    return set(_gather(ix.ids, _spans(ix, lists[found])[1]).tolist())


def batch_query(ix: InvertedIndex, queries, cfg: QueryConfig
                ) -> tuple[list[RankedResult], BatchSummary]:
    """Run every query and count its candidates; each result equals `query`'s.

    The rows are checked once, then go through the row step in chunks within
    `CHUNK_BYTES` by `invindex._row_bytes`, each chunk cast to float64 and
    assigned its words by the quantizer. A query's entry in `query_times` is
    an equal share of its chunk's wall time (index access only).
    """
    _check_config(ix, cfg)
    w = cfg.assignment_count
    qs = _check_queries(ix, queries.vectors if hasattr(queries, "vectors") else queries, w)
    rows = chunk_rows(_row_bytes(ix.quantizer, qs.shape[1], w, ix.config.code_length))
    summary = BatchSummary()
    results = []
    t0 = time.perf_counter()
    for lo in range(0, len(qs), rows):
        xs = np.asarray(qs[lo:lo + rows], dtype=np.float64)
        chunk = _rank_rows(ix, xs, ix.quantizer.words(xs, w), cfg)
        t1 = time.perf_counter()
        summary.query_times += [(t1 - t0) / len(chunk)] * len(chunk)
        t0 = t1
        summary.candidate_counts += [r.candidates for r in chunk]
        results += chunk
    return results, summary


# The files of a query run at one prefix: its ranked ids, its summary and its
# per-query times. The timings are apart, so reruns write the first two
# byte-identical.
RUN_SUFFIXES = (".ivecs", ".summary.json", ".timing.json")


def write_run(prefix, ids, candidate_counts, query_times, config: dict) -> float:
    """Write a query run's files and return its mean query time in seconds.

    `prefix.ivecs` holds each query's ranked ids as an integer list;
    `prefix.summary.json` the config, the query count, each query's
    candidate count (Python ints) and result size; `prefix.timing.json`
    `query_times_s`, each query's seconds, and `mean_query_time_s`."""
    ids_path, summary_path, timing_path = (f"{prefix}{s}" for s in RUN_SUFFIXES)
    run = BatchSummary(list(candidate_counts), list(query_times))
    write_int_lists(ids, ids_path)
    write_json({"config": config, "num_queries": len(ids),
                "candidate_counts": run.candidate_counts,
                "result_sizes": [len(r) for r in ids]}, summary_path)
    write_json({"query_times_s": run.query_times,
                "mean_query_time_s": run.mean_query_time}, timing_path)
    return run.mean_query_time


def read_query_times(path, count: int) -> list:
    """The `query_times_s` of a run's `.timing.json`, checked to be `count`
    finite numbers >= 0 of finite sum; otherwise a DataError naming `path`."""
    with open(path, "r", encoding="utf-8") as f:
        timing = json.load(f)
    times = timing.get("query_times_s") if isinstance(timing, dict) else None
    if not isinstance(times, list) or any(type(t) not in (int, float) for t in times):
        raise DataError(f"{path}: query_times_s must be a list of numbers")
    # `json.load` takes NaN and Infinity, and a NaN or infinite mean would
    # make a report invalid JSON
    finite = all(0 <= t <= sys.float_info.max for t in times)
    if not (finite and math.isfinite(sum(map(float, times)))):
        raise DataError(f"{path}: query_times_s must be finite, >= 0 and of finite sum")
    if len(times) != count:
        raise DataError(f"{path}: {len(times)} query times for {count} result records")
    return times
