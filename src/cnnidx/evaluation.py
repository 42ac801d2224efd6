"""Retrieval accuracy (AP / MAP), timing, scan-fraction and storage
measurement, plus a parameter-sweep harness over the indexing and query
knobs (L, T, S, W, K, M), and the reader of its JSON spec files."""

from __future__ import annotations

import csv
import itertools
import json
from dataclasses import dataclass, field

import numpy as np

from . import invindex, search
from .invindex import InvertedIndex
from .vecio import DataError, FeatureSet


def average_precision(ranked, relevant) -> float:
    """AP of one ranking: mean over |relevant| of precision at each rank that
    holds a relevant id; relevant items never retrieved contribute 0. A
    ranking that repeats an id is a ValueError: AP would count the id at
    each of its ranks."""
    relevant, ranked = set(relevant), list(ranked)
    if not relevant:
        raise ValueError("relevant set must be non-empty")
    if len(set(ranked)) != len(ranked):
        raise ValueError("ranking repeats an id")
    hits = 0
    total = 0.0
    for rank, rid in enumerate(ranked, start=1):
        if rid in relevant:
            hits += 1
            total += hits / rank
    return total / len(relevant)


@dataclass
class EvalReport:
    """MAP plus efficiency figures; a figure is None (JSON null) when the
    inputs it needs were not given."""

    map: float
    per_query_ap: dict[int, float]
    mean_query_time: float | None
    scan_fraction: float | None
    index_bytes: int | None
    config: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "map": self.map,
            "per_query_ap": {str(k): v for k, v in sorted(self.per_query_ap.items())},
            "mean_query_time_s": self.mean_query_time,
            "scan_fraction": self.scan_fraction,
            "index_bytes": self.index_bytes,
            "config": self.config,
        }


def evaluate(results: dict[int, list[int]], gt: dict[int, set[int]],
             query_times=None, candidate_counts=None, database_size: int = 0,
             index_bytes: int | None = None, config: dict | None = None,
             exclude_self: bool = False) -> EvalReport:
    """Aggregate per-query AP into MAP plus efficiency figures.

    ``results`` maps query id to its ranked id list; every ground-truth query
    must be present, and a query that `average_precision` rejects (a ranking
    that repeats an id) is a DataError naming the query. With
    ``exclude_self`` each query's own id is dropped from both its ranking and
    its relevant set before AP, for queries that are database vectors
    (query-in-database conventions keep self matches by default).
    """
    missing = sorted(set(gt) - set(results))
    if missing:
        raise DataError(f"missing results for queries {missing[:5]}")
    per_ap: dict[int, float] = {}
    for qid, relevant in gt.items():
        ranked = results[qid]
        if exclude_self:
            ranked = [r for r in ranked if r != qid]
            relevant = relevant - {qid}
            if not relevant:
                continue
        try:
            per_ap[qid] = average_precision(ranked, relevant)
        except ValueError as exc:
            raise DataError(f"query {qid}: {exc}") from None
    map_score = float(np.mean(list(per_ap.values()))) if per_ap else 0.0
    mean_time = float(np.mean(query_times)) if query_times else None
    if candidate_counts and database_size:
        scan = float(np.mean(candidate_counts)) / database_size
    else:
        scan = None
    return EvalReport(
        map=map_score,
        per_query_ap=per_ap,
        mean_query_time=mean_time,
        scan_fraction=scan,
        index_bytes=index_bytes,
        config=config or {},
    )


SWEEPABLE = ("L", "T", "S", "W", "K", "M")


@dataclass
class SweepSpec:
    """A grid over any of L/T/S/W/K/M; everything else fixed in ``base``.

    ``base`` names the scheme, and ``base`` and the grid together set every
    key that `invindex.BUILD_KEYS` lists for it. W, T and top_k may be
    swept, set in ``base`` or left out (or None) for `cnnidx query`'s
    default (`search.query_config`). A ``base`` with no known scheme, a
    ``base`` or grid key that the scheme's points do not read, or a build
    key that neither sets is a ValueError that names the key.
    """

    grid: dict[str, list]
    base: dict

    def __post_init__(self):
        if not (isinstance(self.grid, dict) and self.grid and isinstance(self.base, dict)
                and all(isinstance(v, (list, tuple)) and v for v in self.grid.values())):
            raise ValueError("a sweep needs a grid of non-empty value lists and a base object")
        unknown = set(self.grid) - set(SWEEPABLE)
        if unknown:
            raise ValueError(f"cannot sweep over {sorted(unknown)}")
        scheme, schemes = self.base.get("scheme"), sorted(invindex.BUILD_KEYS)
        # a list: `in` on the dict would raise TypeError for an unhashable scheme
        if scheme not in schemes:
            raise ValueError(f"base.scheme must be one of {schemes}, got {scheme!r}")
        # a point reads the scheme, the query's keys and its scheme's build keys
        read = {"scheme", "top_k", "W", "T", *invindex.BUILD_KEYS[scheme]}
        for part, keys in (("base", self.base), ("grid", self.grid)):
            unread = set(keys) - read
            if unread:
                raise ValueError(f"sweep {part} keys {sorted(unread)} are read by no "
                                 f"{scheme} point")
        for key in invindex.BUILD_KEYS[scheme]:
            if key not in self.base and key not in self.grid:
                raise ValueError(f"spec has no base.{key} or grid.{key} for scheme {scheme}")


def read_sweep_spec(path) -> tuple[SweepSpec, dict[str, str]]:
    """The SweepSpec and the datasets of a JSON spec file: ``grid``, ``base``
    and ``datasets``, a non-empty path string for each of features, queries,
    ground_truth and, for scheme ifc only, train_features; any other key,
    at the top or in ``datasets``, is refused. Every rule is checked before
    any dataset is opened; a broken one is a DataError that names the file
    and the key."""
    with open(path, "r", encoding="utf-8") as f:
        raw = json.load(f)
    ds = raw.get("datasets") if isinstance(raw, dict) else None
    if not isinstance(ds, dict):
        raise DataError(f"{path}: a spec is a JSON object with a datasets object")
    for key in ("grid", "base", "datasets.features", "datasets.queries",
                "datasets.ground_truth"):
        if key.removeprefix("datasets.") not in (ds if "." in key else raw):
            raise DataError(f"{path}: spec has no {key}")
    # a misspelt train_features would leave an IFC sweep training on its database
    unknown = ([k for k in raw if k not in ("grid", "base", "datasets")]
               + [f"datasets.{k}" for k in ds
                  if k not in ("features", "queries", "ground_truth", "train_features")])
    if unknown:
        raise DataError(f"{path}: spec key {unknown[0]} is not one that a sweep reads")
    for key, value in ds.items():
        if not (isinstance(value, str) and value):  # 0 would be opened as stdin
            raise DataError(f"{path}: datasets.{key} must be a non-empty path string, "
                            f"got {value!r}")
    try:
        spec = SweepSpec(grid=raw["grid"], base=raw["base"])
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from None
    if "train_features" in ds and spec.base["scheme"] != invindex.SCHEME_IFC:
        raise DataError(f"{path}: datasets.train_features applies to scheme ifc only")
    return spec, ds


def sweep(spec: SweepSpec, db: FeatureSet, queries: FeatureSet,
          gt: dict[int, set[int]], training: FeatureSet | None = None) -> list[dict]:
    """Run the full pipeline once per grid point; rows follow grid iteration
    order. A point that the configs or the data refuse (a ValueError or a
    DataError) is reported in its row and the sweep continues; any other
    exception is a fault of the program and ends the sweep.

    Indexes are cached across points that share all build-side parameters.
    Each row reports the W and T its point ran with, and the fields of its
    `EvalReport.to_dict` except its config.
    """
    keys = list(spec.grid)
    index_cache: dict[tuple, InvertedIndex] = {}
    rows = []
    for values in itertools.product(*(spec.grid[k] for k in keys)):
        point = dict(spec.base)
        point.update(dict(zip(keys, values)))
        row = {k: point.get(k) for k in SWEEPABLE if k in point or k in ("W", "T")}
        row["scheme"] = point.get("scheme")
        try:
            cfg = invindex.build_config(point.get("scheme"), point)
            build_key = (cfg.scheme, *(point.get(k) for k in invindex.BUILD_KEYS[cfg.scheme]))
            ix = index_cache.get(build_key)
            if ix is None:
                ix = index_cache[build_key] = invindex.build(db, cfg, training=training)
            qcfg = search.query_config(cfg, point)
            row.update(W=qcfg.assignment_count, T=qcfg.hamming_threshold)
            results, summary = search.batch_query(ix, queries, qcfg)
            report = evaluate(
                {qid: results[qid].ids for qid in range(len(results))},
                gt,
                query_times=summary.query_times,
                candidate_counts=summary.candidate_counts,
                database_size=db.n,
                index_bytes=invindex.stats(ix).estimated_file_bytes,
            )
            row.update(report.to_dict())
            del row["config"]
        except (ValueError, DataError) as exc:  # keep sweeping past bad grid points
            row["error"] = f"{type(exc).__name__}: {exc}"
        rows.append(row)
    return rows


def write_sweep_csv(rows: list[dict], path) -> None:
    columns: list[str] = []
    for row in rows:
        for key in row:
            if key != "per_query_ap" and key not in columns:
                columns.append(key)
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.DictWriter(f, fieldnames=columns, extrasaction="ignore")
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
