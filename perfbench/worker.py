"""Program side of one benchmark run, in a fresh process.

    python3 perfbench/worker.py JOB.json

It receives only the generated feature files (named in the job file) and
drives ``cnnidx`` through its public API:

* build: features file -> ``invindex.build`` -> ``invindex.save``;
* setup, several times: ``invindex.load`` + the first ``search.query``;
* single queries: every query once, in a closed loop;
* batch: one ``search.batch_query`` call over the same queries.

Untraced, the run repeats these in cycles (see ``run_untraced``) so that each
timing has several samples. Traced, see ``run_traced``. Every timed call
is recorded as its [start, end] on the ``perf_counter`` clock, and a sample
of the host reference (``hostref.py``) is taken before and after each, and
every 100 queries of a pass, so that the host's speed around each call is
known. Answers and timings go to files beside the job file; the parent
process checks them.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import hostref
import spans

TRACED_PASSES = 2  # of single queries, each traced and untraced
REF_EVERY = 100  # queries of a pass between two host reference samples


def peak_rss_mb() -> float:
    """High-water RSS of this process's own address space.

    ``ru_maxrss`` is not used: Linux carries it across exec, so it would
    include the parent's peak at the moment this process was spawned.
    """
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def result_arrays(results, top_k: int) -> dict[str, np.ndarray]:
    """RankedResults as (len, top_k) id/vote/min-Hamming arrays padded with
    -1, plus each result's full length (-1 where the query raised)."""
    arr = np.full((3, len(results), top_k), -1, dtype=np.int64)
    lengths = np.full(len(results), -1, dtype=np.int64)
    for i, res in enumerate(results):
        if res is None:
            continue
        entries = np.asarray(res.entries, dtype=np.int64).reshape(-1, 3)[:top_k]
        lengths[i] = len(res.entries)
        arr[:, i, :len(entries)] = entries.T
    return {"ids": arr[0], "votes": arr[1], "hamming": arr[2], "lengths": lengths}


class Run:
    def __init__(self, job: dict):
        from cnnidx import invindex, search, vecio
        from cnnidx.invindex import BuildConfig
        from cnnidx.pq import PqConfig

        self.invindex, self.search, self.vecio = invindex, search, vecio
        self.job = job
        w = job["workload"]
        pq_cfg = (PqConfig(segments=w["M"], words_per_segment=w["K"])
                  if w["scheme"] == "ifc" else None)
        self.build_cfg = BuildConfig(scheme=w["scheme"], link_count=w["S"],
                                     code_length=w["L"], pq=pq_cfg)
        self.query_cfg = search.QueryConfig(
            assignment_count=w["W"], hamming_threshold=w["T"], top_k=w["top_k"])
        self.queries = vecio.read_feature_file(job["queries"]).vectors
        self.failed_queries = 0
        self.setup_results = []
        self.passes: dict[str, list] = {"single": [], "batch": []}
        self.candidate_counts: list[int] = []
        self.ref = hostref.HostRef()

    def build(self) -> list[float]:
        """Features file to index file: its [start, end]."""
        self.ref.sample()
        t0 = time.perf_counter()
        db = self.vecio.read_feature_file(self.job["features"])
        ix = self.invindex.build(db, self.build_cfg)
        self.invindex.save(ix, self.job["index"])
        span = [t0, time.perf_counter()]
        self.ref.sample()
        return span

    def setup(self, reps: int):
        """Load + first query, ``reps`` times: ([start, end] of each rep,
        last index)."""
        spans, ix = [], None
        self.ref.sample()
        for _ in range(reps):
            ix = None  # free the previous index before loading the next
            t0 = time.perf_counter()
            ix = self.invindex.load(self.job["index"])
            first = self.search.query(ix, self.queries[0], self.query_cfg)
            spans.append([t0, time.perf_counter()])
            self.setup_results.append(first)
            self.ref.sample()
        return spans, ix

    def singles(self, ix, tracer=None) -> list[list[float]]:
        """Every query once in a closed loop: [start, end] of each query."""
        query, cfg = self.search.query, self.query_cfg
        results, spans = [], []
        for i, q in enumerate(self.queries):
            if i % REF_EVERY == 0:
                self.ref.sample()
            if tracer is not None:
                tracer.query_id = i
            t0 = time.perf_counter()
            try:
                res = query(ix, q, cfg)
            except Exception:
                traceback.print_exc()
                res = None
                self.failed_queries += 1
            spans.append([t0, time.perf_counter()])
            results.append(res)
        self.ref.sample()
        if tracer is not None:
            tracer.query_id = -1
        self.passes["single"].append(result_arrays(results, cfg.top_k))
        return spans

    def batch(self, ix) -> list[float]:
        """One ``batch_query`` call over every query: its [start, end]."""
        self.ref.sample()
        t0 = time.perf_counter()
        try:
            results, summary = self.search.batch_query(ix, self.queries, self.query_cfg)
        except Exception:
            traceback.print_exc()
            results, summary = [None] * len(self.queries), None
            self.failed_queries += len(self.queries)
        span = [t0, time.perf_counter()]
        self.ref.sample()
        if summary is not None:
            self.candidate_counts = list(summary.candidate_counts)
        self.passes["batch"].append(result_arrays(results, self.query_cfg.top_k))
        return span

    def answers(self) -> dict[str, np.ndarray]:
        out = {f"setup_{k}": v for k, v in
               result_arrays(self.setup_results, self.query_cfg.top_k).items()}
        for kind, passes in self.passes.items():
            for field in passes[0]:
                out[f"{kind}_{field}"] = np.stack([a[field] for a in passes])
        return out


def run_untraced(job: dict) -> tuple[dict, Run]:
    """The workload's ``cycles`` cycles of setup, a pass of single queries, a
    batch call and another pass of single queries; the first ``builds``
    cycles start with a build. The count is fixed, so every run takes the
    same number of samples behind each timing."""
    r = Run(job)
    out = {k: [] for k in ("build", "setup", "latency", "batch", "index_digests")}
    for cycle in range(job["workload"]["cycles"]):
        if cycle < job["builds"]:
            out["build"].append(r.build())
            out["index_digests"].append(
                hashlib.sha256(Path(job["index"]).read_bytes()).hexdigest())
        spans, ix = r.setup(job["setup_reps"])
        out["setup"].extend(spans)
        out["latency"].append(r.singles(ix))
        out["batch"].append(r.batch(ix))
        out["latency"].append(r.singles(ix))
        ix = None
    return out | {"ref_t": r.ref.times, "ref_s": r.ref.seconds}, r


def run_traced(job: dict, spans_path) -> tuple[dict, Run]:
    """A traced build; passes of single queries alternating untraced and
    traced; then a traced setup and batch call.

    The overhead compares each query's fastest traced and untraced latency,
    where per-call tracing costs the most; the build's few coarse spans
    cost little and are not repeated untraced.
    """
    r = Run(job)
    threshold = r.query_cfg.hamming_threshold
    tracer = spans.Tracer(counters={
        "embed.hamming_to_many": lambda d: (d.size, int(np.count_nonzero(d < threshold))),
        "search.select_words": lambda words: (len(words),),
    })
    tracer.install()
    build_s = np.diff(r.build())[0]
    tracer.uninstall()
    index_digests = [hashlib.sha256(Path(job["index"]).read_bytes()).hexdigest()]

    _, ix = r.setup(job["setup_reps"])
    latencies = {False: [], True: []}
    for _ in range(TRACED_PASSES):
        for traced in (False, True):
            if traced:
                tracer.install()
            latencies[traced].append(np.diff(r.singles(ix, tracer if traced else None))[:, 0])
            tracer.uninstall()
    tracer.install()
    _, ix = r.setup(job["setup_reps"])
    r.batch(ix)
    tracer.uninstall()
    tracer.save(spans_path)

    untraced, traced = (np.min(latencies[t], axis=0).sum() for t in (False, True))
    st = r.invindex.stats(ix)
    return {"build_s": build_s, "overhead_frac": float(traced / untraced - 1.0),
            "traced_passes": TRACED_PASSES, "absent": tracer.absent,
            "index_digests": index_digests, "candidate_counts": r.candidate_counts,
            "index_total_entries": st.total_entries,
            "index_lists_occupied": st.word_count - st.list_length_histogram[0]}, r


def main(argv) -> int:
    job_path = Path(argv[1])
    job = json.loads(job_path.read_text())
    import cnnidx
    src = Path(job["src"]).resolve()
    if Path(cnnidx.__file__).resolve().parent.parent != src:
        print(f"cnnidx imported from {cnnidx.__file__}, expected {src}", file=sys.stderr)
        return 2
    out_dir = job_path.parent
    if job["trace"]:
        out, r = run_traced(job, job["spans"])
    else:
        out, r = run_untraced(job)
    np.savez(out_dir / "answers.npz", **r.answers())
    out["failed_queries"] = r.failed_queries
    out["peak_rss_mb"] = peak_rss_mb()
    out["numpy"] = np.__version__
    (out_dir / "timings.json").write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
