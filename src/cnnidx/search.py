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


def query(ix: InvertedIndex, q, cfg: QueryConfig,
          count_candidates: bool = False) -> RankedResult:
    """Rank database images for one query vector.

    A posting entry votes when its code is at Hamming distance < T from the
    query's code against the shared word. Images are ranked by vote count,
    minimum observed Hamming distance, then id. With `count_candidates`, the
    result also counts the distinct ids in the probed lists; that marks every
    scanned entry, so single queries, which do not report it, skip it.
    """
    if cfg.hamming_threshold > ix.code_length:
        raise ValueError(
            f"hamming_threshold {cfg.hamming_threshold} exceeds code length {ix.code_length}")
    q = np.asarray(q, dtype=np.float64)
    wids = select_words(ix, q, cfg.assignment_count)
    q_means = segment_means(q, ix.code_length)
    c_means = _word_means(ix, wids)
    q_codes = pack_bits(q_means[None, :] >= c_means)

    n = ix.indexed_count
    votes = np.zeros(n, dtype=np.int32)
    min_h = np.full(n, ix.code_length + 1, dtype=np.int32)
    seen = np.zeros(n, dtype=bool) if count_candidates else None
    for qi, wid in enumerate(wids):
        entry = ix.lists.get(wid)
        if entry is None:
            continue
        ids, codes = entry
        if seen is not None:
            seen[ids] = True
        dists = hamming_to_many(q_codes[qi], codes)
        keep = dists < cfg.hamming_threshold
        if not keep.any():
            continue
        kept_ids = ids[keep]
        votes[kept_ids] += 1
        np.minimum.at(min_h, kept_ids, dists[keep].astype(np.int32))

    hit = np.nonzero(votes)[0]
    order = np.lexsort((hit, min_h[hit], -votes[hit]))[: cfg.top_k]
    ranked = hit[order]
    return RankedResult(
        entries=[(int(i), int(votes[i]), int(min_h[i])) for i in ranked],
        candidates=None if seen is None else int(np.count_nonzero(seen)))


def candidate_set(ix: InvertedIndex, q, count: int) -> set[int]:
    """Union of posting-list members over the W selected words (pre-filter)."""
    wids = select_words(ix, np.asarray(q, dtype=np.float64), count)
    out: set[int] = set()
    for wid in wids:
        entry = ix.lists.get(wid)
        if entry is not None:
            out.update(int(i) for i in entry[0])
    return out


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
