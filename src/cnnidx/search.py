"""Query pipeline: assign the query to W words (multiple assignment), filter
each probed posting list by Hamming distance < T against the query's binary
code for that word, then rank candidates by vote count."""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

import numpy as np

from . import pq, tifc
from .embed import hamming_to_many, pack_bits, segment_means
from .invindex import SCHEME_TIFC, InvertedIndex
from .vecio import write_int_lists


@dataclass
class QueryConfig:
    assignment_count: int  # W
    hamming_threshold: int  # T, entries at distance >= T are discarded
    top_k: int = 10

    def __post_init__(self):
        if self.assignment_count < 1:
            raise ValueError("assignment_count must be >= 1")
        if self.hamming_threshold < 0:
            raise ValueError("hamming_threshold must be >= 0")
        if self.top_k < 1:
            raise ValueError("top_k must be >= 1")


@dataclass
class RankedResult:
    """Entries sorted by votes desc, then min Hamming asc, then image id."""

    entries: list[tuple[int, int, int]]  # (image_id, votes, min_hamming)
    # distinct ids in the probed lists, before the Hamming filter; None when
    # the query was not asked to count them
    candidates: int | None = None

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


def select_words(ix: InvertedIndex, q: np.ndarray, count: int) -> list[int]:
    """The W words a query is assigned to, in selection order."""
    q = np.asarray(q, dtype=np.float64)
    if not 1 <= count <= ix.word_count:
        raise ValueError(f"assignment count must be in [1, {ix.word_count}]")
    if not np.all(np.isfinite(q)):
        raise ValueError("query must be finite")
    if ix.scheme == SCHEME_TIFC:
        if q.shape != (ix.quantizer.dim,):
            raise ValueError(f"query dim {q.shape} does not match index")
        return [w for w, _ in tifc.top_words(tifc.softmax(q), count)]
    return [w for w, _ in pq.nearest_words(q, ix.quantizer, count)]


def _word_means(ix: InvertedIndex, wids: list[int]) -> np.ndarray:
    """Segment means of the reference vectors of the given words, (W, L)."""
    if ix.scheme == SCHEME_TIFC:
        refs = ix.quantizer.word_vectors[wids]
    else:
        refs = pq.reconstruct_batch(np.asarray(wids), ix.quantizer)
    return segment_means(refs, ix.code_length)


def _probe(ix: InvertedIndex, wids) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The posting lists of the given words: the positions in `wids` of the
    words that have a list, the lengths of those lists, and the rows of their
    entries in `ix.ids`/`ix.codes`, list after list."""
    wids = np.asarray(wids, dtype=np.int64)
    pos = np.searchsorted(ix.wids, wids)
    slots = np.flatnonzero(ix.wids.take(pos, mode="clip") == wids)
    starts = ix.offsets[pos[slots]]
    lengths = ix.offsets[pos[slots] + 1] - starts
    ends = np.cumsum(lengths)
    rows = np.arange(ends[-1] if len(ends) else 0) + np.repeat(starts - ends + lengths, lengths)
    return slots, lengths, rows


def query(ix: InvertedIndex, q, cfg: QueryConfig,
          count_candidates: bool = False) -> RankedResult:
    """Rank database images for one query vector.

    A posting entry votes when its code is at Hamming distance < T from the
    query's code against the shared word. Images are ranked by vote count,
    minimum observed Hamming distance, then id. With `count_candidates`, the
    result also counts the distinct ids in the probed lists; that marks every
    scanned entry, so single queries, which do not report it, skip it.

    All probed entries are gathered at once and go through one Hamming pass.
    The ranking key packs (W - votes, min Hamming, id) into one int64; ids
    strictly increasing within each list keep votes <= W.
    """
    n, length, w = ix.indexed_count, ix.code_length, cfg.assignment_count
    if cfg.hamming_threshold > length:
        raise ValueError(
            f"hamming_threshold {cfg.hamming_threshold} exceeds code length {length}")
    if w * (length + 1) * n >= 2**63:
        raise ValueError("assignment_count * (code_length + 1) * indexed_count "
                         "exceeds the int64 ranking key")
    q = np.asarray(q, dtype=np.float64)
    wids = select_words(ix, q, w)
    q_means = segment_means(q, length)
    c_means = _word_means(ix, wids)
    q_codes = pack_bits(q_means[None, :] >= c_means)

    slots, lengths, rows = _probe(ix, wids)
    ids = ix.ids[rows]
    # take() gathers rows of a 2-d array many times faster than [rows]
    dists = hamming_to_many(np.repeat(q_codes[slots], lengths, axis=0),
                            np.take(ix.codes, rows, axis=0))
    keep = dists < cfg.hamming_threshold
    kept_ids = ids[keep]
    votes = np.bincount(kept_ids, minlength=n)
    min_h = np.full(n, length, dtype=dists.dtype)
    np.minimum.at(min_h, kept_ids, dists[keep])

    hit = np.flatnonzero(votes > 0)  # on bool, many times faster than on int64
    key = ((w - votes[hit]) * (length + 1) + min_h[hit]) * n + hit
    if len(key) > cfg.top_k:
        key = np.partition(key, cfg.top_k - 1)[: cfg.top_k]
    key.sort()
    rest = key // n
    entries = zip((key % n).tolist(), (w - rest // (length + 1)).tolist(),
                  (rest % (length + 1)).tolist())
    candidates = None
    if count_candidates:
        seen = np.zeros(n, dtype=bool)
        seen[ids] = True
        candidates = int(np.count_nonzero(seen))
    return RankedResult(entries=list(entries), candidates=candidates)


def candidate_set(ix: InvertedIndex, q, count: int) -> set[int]:
    """Union of posting-list members over the W selected words (pre-filter)."""
    _, _, rows = _probe(ix, select_words(ix, np.asarray(q, dtype=np.float64), count))
    return set(ix.ids[rows].tolist())


def batch_query(ix: InvertedIndex, queries, cfg: QueryConfig
                ) -> tuple[list[RankedResult], BatchSummary]:
    """Run every query, timing each individually (index access only)."""
    summary = BatchSummary()
    results = []
    vectors = queries.vectors if hasattr(queries, "vectors") else np.asarray(queries)
    for q in vectors:
        t0 = time.perf_counter()
        res = query(ix, q, cfg, count_candidates=True)
        summary.query_times.append(time.perf_counter() - t0)
        summary.candidate_counts.append(res.candidates)
        results.append(res)
    return results, summary


def write_batch_results(results: list[RankedResult], summary: BatchSummary,
                        ids_path, summary_path, timing_path, config: dict) -> None:
    """Persist ranked id lists (binary int records) plus a deterministic JSON
    summary; timings go to a separate file so reruns are byte-identical."""
    write_int_lists([r.ids for r in results], ids_path)
    with open(summary_path, "w", encoding="utf-8") as f:
        json.dump(
            {
                "config": config,
                "num_queries": len(results),
                "candidate_counts": summary.candidate_counts,
                "result_sizes": [len(r.ids) for r in results],
            },
            f, indent=2, sort_keys=True)
        f.write("\n")
    with open(timing_path, "w", encoding="utf-8") as f:
        json.dump(
            {
                "query_times_s": summary.query_times,
                "mean_query_time_s": summary.mean_query_time,
            },
            f, indent=2, sort_keys=True)
        f.write("\n")
