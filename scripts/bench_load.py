#!/usr/bin/env python3
"""Median time of each stage of `invindex.load`, on an index file shaped like
each benchmark workload.

    PYTHONPATH=src python3 scripts/bench_load.py [--seed 1] [--loads 40]

One index per workload that `BENCHMARK.json` runs (`ifc-hard` and
`tifc-wide`) is built from `perfbench/datagen.hard_vectors` with the shape
and build parameters of `perfbench/run.py`'s `WORKLOADS`, through
`invindex.build_config`, and saved to a temporary directory. Each of
`--loads` rounds, after one warm round, runs the stages of `load` one after
another and then one whole `invindex.load`; the table gives each stage's
median in ms:

- read: the magic, the header and every section read into its array
  (`readinto`), the posting integers at their file widths, which the index
  keeps;
- crc: the CRC32 of the sections, checked against the trailer;
- quantizer: the quantizer made, as `load` makes it, from the payload and
  the `BuildConfig` and D that `invindex._read_header` gives: the IFC
  codebook (its float64 constants) or the TIFC table draw;
- checks: the finite payload, the list-length rule, the list offsets
  (int64), the index (whose construction checks the quantizer's shape) and
  `invindex._check_postings`.

`load` is the median of whole `invindex.load` calls. Every staged index is
checked equal to `load`'s. The file size of each index is printed too. Each
cell gives the raw median and, after a slash, the median of the timings
divided by their round's host factor (`scripts/hostfactor.py`), which reads
the same on a slower or busier host.
"""

from __future__ import annotations

import argparse
import json
import struct
import sys
import tempfile
import time
import zlib
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "scripts")]

import datagen  # noqa: E402
from hostfactor import PassFactors  # noqa: E402

from run import WORKLOADS  # noqa: E402

from cnnidx import invindex, tifc  # noqa: E402
from cnnidx.embed import code_bytes  # noqa: E402
from cnnidx.vecio import FeatureSet  # noqa: E402

STAGES = ("read", "crc", "quantizer", "checks", "load")
BENCH_WORKLOADS = [w["name"] for w in
                   json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def staged_load(path) -> tuple[list[float], invindex.InvertedIndex]:
    """`invindex.load` split into its stages, for a well-formed file: the
    perf_counter reading after each, and the index."""
    t = [time.perf_counter()]
    with open(path, "rb") as f:
        f.read(len(invindex.MAGIC))
        head = f.read(4)
        raw_header = f.read(struct.unpack("<I", head)[0])
        cfg, dim, word_count, indexed_count = invindex._read_header(path, raw_header)
        sections = [head, raw_header]

        def array(count, dtype):
            out = np.empty(count, dtype=dtype)
            f.readinto(out)
            sections.append(out)
            return out

        payload = array(cfg.pq.words_per_segment * dim if cfg.pq else 0, "<f4")
        total = indexed_count * cfg.link_count
        b = code_bytes(cfg.code_length)
        wid_t, len_t, id_t = invindex.posting_dtypes(word_count, indexed_count)
        nlists = int(array(1, "<u8")[0])
        wids = array(nlists, wid_t)
        lengths = array(nlists, len_t)
        ids = array(total, id_t)
        codes = array(total * b, np.uint8).reshape(total, b)
        (stored,) = struct.unpack("<I", f.read(4))
    t.append(time.perf_counter())
    crc = 0
    for sec in sections:
        crc = zlib.crc32(sec, crc)
    if crc != stored:
        raise AssertionError(f"{path}: checksum mismatch")
    t.append(time.perf_counter())
    if cfg.pq:
        quantizer = invindex.PqCodebook(
            payload.reshape(cfg.pq.segments, cfg.pq.words_per_segment, -1))
    else:
        quantizer = tifc.make_virtual_words(dim, cfg.virtual_word_seed, cfg.code_length)
    t.append(time.perf_counter())
    if not np.isfinite(payload).all():
        raise AssertionError(f"{path}: non-finite centroids")
    if np.any(lengths < 1) or np.any(lengths > total) or lengths.sum() != total:
        raise AssertionError(f"{path}: bad list lengths")
    offsets = np.zeros(nlists + 1, dtype=np.int64)
    np.cumsum(lengths, dtype=np.int64, out=offsets[1:])
    ix = invindex.InvertedIndex(
        config=cfg, indexed_count=indexed_count, wids=wids, offsets=offsets, ids=ids,
        codes=codes, quantizer=quantizer)
    invindex._check_postings(path, ix)
    t.append(time.perf_counter())
    return t, ix


def stage_medians(path, loads: int) -> dict[str, tuple[float, float]]:
    """Median seconds of each stage over `loads` rounds, after one warm
    round, raw and host-corrected; raises if a staged index differs from
    `invindex.load`'s."""
    raw = {s: [] for s in STAGES}
    corrected = {s: [] for s in STAGES}
    factors = PassFactors()
    for r in range(loads + 1):
        t, staged = staged_load(path)
        t0 = time.perf_counter()
        ref = invindex.load(path)
        t1 = time.perf_counter()
        factor = factors.next()
        for name in ("wids", "offsets", "ids", "codes"):
            a, b = getattr(staged, name), getattr(ref, name)
            if a.dtype != b.dtype or not np.array_equal(a, b):
                raise AssertionError(f"the staged load's {name} differ from invindex.load's")
        if r == 0:
            continue
        times = [b - a for a, b in zip(t, t[1:])] + [t1 - t0]
        for stage, seconds in zip(STAGES, times):
            raw[stage].append(seconds)
            corrected[stage].append(seconds / factor)
    return {s: (float(np.median(raw[s])), float(np.median(corrected[s]))) for s in STAGES}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--loads", type=int, default=40)
    args = ap.parse_args()

    print("ms per load, raw / host-corrected | bytes | " + " | ".join(STAGES))
    with tempfile.TemporaryDirectory() as tmp:
        for name in BENCH_WORKLOADS:
            spec = WORKLOADS[name]
            db, _ = datagen.hard_vectors(args.seed, spec["n"], 0, spec["dim"])
            path = Path(tmp) / f"{name}.idx"
            cfg = invindex.build_config(spec["scheme"], spec)
            invindex.save(invindex.build(FeatureSet(db), cfg), path)
            del db
            med = stage_medians(path, args.loads)
            print(f"{name} | {path.stat().st_size:,} | "
                  + " | ".join(f"{med[s][0] * 1e3:.2f} / {med[s][1] * 1e3:.2f}" for s in STAGES),
                  flush=True)


if __name__ == "__main__":
    main()
