"""Index benchmark: build, cold start, query latency and batch throughput.

    python3 perfbench/run.py --workload ifc-hard --seed 1 --seconds 50 --trace 0

Run from the root of a checkout. It generates the workload's data from the
seed, computes the exact L2 top-k outside the program, runs the program side
in a fresh process (``worker.py``) that receives only the generated feature
files, checks every answer, and prints as its last line one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones from a
traced run. Every end-to-end timing is corrected for the host's speed
around it, measured with a fixed reference workload (``hostref.py``); the
uncorrected timings are printed too. A record with the machine, the
settings, the answer digests and every timing sample goes to
``perfbench/out/``. See ``perfbench/README.md`` for the workloads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import datagen
import hostref
import spans

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = BENCH_DIR / ".work"
OUT_DIR = BENCH_DIR / "out"

N_QUERIES = 1000
BUILDS = 2
SETUP_REPS = 5  # per cycle
WORKER_TIMEOUT_S = 170
WINDOW_S = 1.0  # host reference samples taken this close to a call correct it

# Recall floors sit well below every seed's measured recall@10 on the seed
# code (see README.md); falling under one means the answers broke.
# cycles: how many cycles a run makes (see worker.run_untraced), fixed per
# workload so that every run takes the same number of samples; with 3, a run
# measures 40-60 s on a 2-vCPU machine.
WORKLOADS = {
    "ifc-hard": dict(n=15_000, dim=64, scheme="ifc", K=64, M=2, L=32,
                     S=40, W=40, T=11, top_k=10, recall_floor=0.35, cycles=3),
    "tifc-wide": dict(n=10_000, dim=2048, scheme="tifc", K=None, M=None, L=256,
                      S=40, W=40, T=90, top_k=10, recall_floor=0.40, cycles=3),
    "ifc-fine": dict(n=10_000, dim=64, scheme="ifc", K=256, M=2, L=32,
                     S=40, W=40, T=11, top_k=10, recall_floor=0.35, cycles=3),
}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def check_results(a: dict, n: int, w: int, t: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Per result (last axis holds its entries): (well-ordered, in-bounds).

    Ordered: votes desc, then min Hamming asc, then id asc, with the padding
    only after the entries. In bounds: the query ran, at most top-k entries,
    ids in [0, n), 1 <= votes <= W, 0 <= min Hamming < T.
    """
    ids, votes, ham, lengths = a["ids"], a["votes"], a["hamming"], a["lengths"]
    valid = ids >= 0
    pairs = valid[..., 1:]
    before = ((votes[..., :-1] > votes[..., 1:])
              | ((votes[..., :-1] == votes[..., 1:])
                 & ((ham[..., :-1] < ham[..., 1:])
                    | ((ham[..., :-1] == ham[..., 1:]) & (ids[..., :-1] < ids[..., 1:])))))
    ordered = ((before | ~pairs).all(-1)
               & (valid.sum(-1) == np.clip(lengths, 0, k))
               & (valid[..., :-1] | ~pairs).all(-1))
    entry_ok = ~valid | ((ids < n) & (votes >= 1) & (votes <= w) & (ham >= 0) & (ham < t))
    bounded = (lengths >= 0) & (lengths <= k) & entry_ok.all(-1)
    return ordered, bounded


def rows_equal(a: dict, b: dict) -> np.ndarray:
    """Per query: do two answer sets agree entry for entry?"""
    eq = a["lengths"] == b["lengths"]
    for f in ("ids", "votes", "hamming"):
        eq &= (a[f] == b[f]).all(-1)
    return eq


def answers_of(npz, kind: str) -> dict[str, np.ndarray]:
    return {f: npz[f"{kind}_{f}"] for f in ("ids", "votes", "hamming", "lengths")}


def check_answers(npz, truth: np.ndarray, spec: dict, evaluation) -> dict:
    """Every check on the worker's answers; counts attempted and failed."""
    n, k = spec["n"], spec["top_k"]
    single, batch, setup = (answers_of(npz, kind) for kind in ("single", "batch", "setup"))
    attempted = failed = 0
    notes = []

    def tally(name: str, ok: np.ndarray) -> None:
        nonlocal attempted, failed
        bad = int(ok.size - np.count_nonzero(ok))
        attempted += int(ok.size)
        failed += bad
        if bad:
            notes.append(f"{name}: {bad} of {ok.size} failed")

    for kind, a in (("single", single), ("batch", batch), ("setup", setup)):
        ordered, bounded = check_results(a, n, spec["W"], spec["T"], k)
        tally(f"{kind} ordering", ordered)
        tally(f"{kind} bounds", bounded)
    first_pass = {f: v[0] for f, v in single.items()}
    agree = [rows_equal({f: v[b] for f, v in batch.items()}, first_pass)
             for b in range(batch["ids"].shape[0])]
    tally("batch_query == query", np.concatenate(agree))
    repeat = np.array([all(np.array_equal(v[p], v[0]) for v in single.values())
                       for p in range(1, single["ids"].shape[0])], dtype=bool)
    tally("every pass repeats the first", repeat)
    first = np.array([all(np.array_equal(setup[f][i], single[f][0, 0]) for f in setup)
                      for i in range(setup["ids"].shape[0])], dtype=bool)
    tally("first query after load == query 0", first)

    ranked = single["ids"][0]
    hits = [np.intersect1d(ranked[i][ranked[i] >= 0], truth[i]).size for i in range(len(truth))]
    recall = float(np.mean(hits)) / truth.shape[1]
    ap = [evaluation.average_precision([int(x) for x in ranked[i] if x >= 0], truth[i].tolist())
          for i in range(len(truth))]
    tally(f"recall_at_10 >= {spec['recall_floor']}", np.array([recall >= spec["recall_floor"]]))
    # operations: each load, each query (setup, single, batch)
    passes = single["ids"].shape[0] + batch["ids"].shape[0]
    attempted += 2 * setup["ids"].shape[0] + passes * len(truth)
    digest = hashlib.sha256()
    for f in ("ids", "votes", "hamming"):
        digest.update(np.ascontiguousarray(single[f][0], dtype="<i8").tobytes())
    return {"attempted": attempted, "failed": failed, "notes": notes,
            "single_passes": single["ids"].shape[0], "batch_calls": batch["ids"].shape[0],
            "recall_at_10": recall, "map_at_10": float(np.mean(ap)),
            "answers_sha256": digest.hexdigest()}


def blas_env(threads: int) -> dict[str, str]:
    return {var: str(threads) for var in
            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


def run_worker(job: dict, work: Path, deadline: float) -> dict:
    job_path = work / "job.json"
    job_path.write_text(json.dumps(job))
    env = dict(os.environ, **blas_env(job["blas_threads"]))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    try:
        # run() kills the worker and waits for it if the timeout expires
        proc = subprocess.run([sys.executable, str(BENCH_DIR / "worker.py"), str(job_path)],
                              env=env, cwd=ROOT, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError("worker timed out") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return json.loads((work / "timings.json").read_text())


def timings(t: dict, corrected: bool = True) -> dict:
    """Each timing is the median of its samples in the run: of the builds,
    the set-ups and the batch calls, and per query of its passes; p50 and p99
    are taken over the queries' medians, so one stall of the host does not
    set p99. Corrected, each sample is first divided by its host factor: the
    mean host reference sample (``hostref.py``) taken within ``WINDOW_S``
    of the call, over ``REF_QUERY_S``."""
    ref_t = np.array(t["ref_t"])
    ref_sum = np.concatenate([[0.0], np.cumsum(t["ref_s"])])

    def samples(kind: str) -> np.ndarray:
        span = np.array(t[kind])
        seconds = span[..., 1] - span[..., 0]
        if not corrected:
            return seconds
        # every call has a sample just before and just after it
        lo = np.searchsorted(ref_t, span[..., 0] - WINDOW_S)
        hi = np.searchsorted(ref_t, span[..., 1] + WINDOW_S)
        return seconds * hostref.REF_QUERY_S * (hi - lo) / (ref_sum[hi] - ref_sum[lo])

    per_query = np.median(samples("latency"), axis=0)
    return {
        "build_s": (float(np.median(samples("build"))), "s"),
        "setup_s": (float(np.median(samples("setup"))), "s"),
        "query_p50_ms": (float(np.percentile(per_query, 50)) * 1e3, "ms"),
        "query_p99_ms": (float(np.percentile(per_query, 99)) * 1e3, "ms"),
        "batch_qps": (N_QUERIES / float(np.median(samples("batch"))), "queries/s"),
    }


def end_to_end(t: dict, checks: dict, index_bytes: int) -> dict:
    return timings(t) | {
        "peak_rss_mb": (t["peak_rss_mb"], "MB"),
        "index_bytes": (index_bytes, "bytes"),
        "recall_at_10": (checks["recall_at_10"], "fraction"),
        "map_at_10": (checks["map_at_10"], "fraction"),
    }


def per_layer(t: dict, spans_path: Path, spec: dict) -> dict:
    out = {}
    totals = spans.span_totals(spans_path)
    for name in spans.SPAN_NAMES:
        if name in totals:
            for key, unit in (("s", "s"), ("self_s", "s"), ("calls", "count")):
                out[f"{name}.{key}"] = (totals[name][key], unit)
    with np.load(spans_path) as f:
        # single-loop calls only (query id >= 0); batch calls carry -1
        words = f["count:search.select_words"] if "count:search.select_words" in f else None
        ham = f["count:embed.hamming_to_many"] if "count:embed.hamming_to_many" in f else None
    if words is not None and ham is not None:
        words, ham = words[words[:, 0] >= 0], ham[ham[:, 0] >= 0]
        queries = N_QUERIES * t["traced_passes"]
        probed = words[:, 1].sum()
        scanned, kept = ham[:, 1].sum(), ham[:, 2].sum()
        out["search.lists_probed"] = (float(probed / queries), "count")
        out["search.lists_empty"] = (float((probed - len(ham)) / queries), "count")
        out["search.entries_scanned"] = (float(scanned / queries), "count")
        out["search.entries_kept"] = (float(kept / queries), "count")
        out["search.hamming_pass_ratio"] = (float(kept / scanned) if scanned else 0.0, "fraction")
    if t["candidate_counts"]:
        cand = float(np.mean(t["candidate_counts"]))
        out["search.candidates"] = (cand, "count")
        out["search.scan_fraction"] = (cand / spec["n"], "fraction")
    out["invindex.lists_occupied"] = (t["index_lists_occupied"], "count")
    out["invindex.entries"] = (t["index_total_entries"], "count")
    out["trace.overhead_frac"] = (t["overhead_frac"], "fraction")
    return out


def machine(blas_threads: int, numpy_version: str) -> dict:
    return {"nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
            "machine": platform.machine(), "python": platform.python_version(),
            "numpy": numpy_version, "blas_threads": blas_threads}


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the record (result, checks, settings)."""
    if not (SRC / "cnnidx" / "__init__.py").is_file():
        raise BenchError(f"no program sources at {SRC / 'cnnidx'}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from cnnidx import evaluation, vecio

    deadline = time.monotonic() + WORKER_TIMEOUT_S
    spec = WORKLOADS[workload]
    blas_threads = len(os.sched_getaffinity(0))
    work = WORK_ROOT / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    OUT_DIR.mkdir(exist_ok=True)
    try:
        db, queries = datagen.hard_vectors(seed, spec["n"], N_QUERIES, spec["dim"])
        truth = datagen.exact_top_k(db, queries, spec["top_k"])
        vecio.write_feature_file(vecio.FeatureSet(db), work / "db.fvecs")
        vecio.write_feature_file(vecio.FeatureSet(queries), work / "queries.fvecs")
        del db, queries
        spans_path = OUT_DIR / f"spans-{workload}.npz"
        job = {"workload": spec, "src": str(SRC), "features": str(work / "db.fvecs"),
               "queries": str(work / "queries.fvecs"), "index": str(work / "index.bin"),
               "builds": BUILDS, "setup_reps": SETUP_REPS, "trace": trace,
               "spans": str(spans_path), "blas_threads": blas_threads}
        t = run_worker(job, work, deadline)
        with np.load(work / "answers.npz") as npz:
            checks = check_answers(npz, truth, spec, evaluation)
        index_file = work / "index.bin"
        index_bytes = index_file.stat().st_size
        index_sha = hashlib.sha256(index_file.read_bytes()).hexdigest()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # every build of the run must give the same bytes as the file checked
    rebuilt = [d == index_sha for d in t["index_digests"]]
    if not all(rebuilt):
        checks["notes"].append("rebuilds are not byte-identical")
    # each build and save is an operation, each digest comparison a check
    attempted = checks["attempted"] + 3 * len(rebuilt)
    failed = checks["failed"] + rebuilt.count(False) + t["failed_queries"]
    metrics = per_layer(t, spans_path, spec) if trace else end_to_end(t, checks, index_bytes)
    host = {} if trace else {
        "uncorrected": {k: v for k, (v, _) in timings(t, corrected=False).items()}}
    rec = {
        "result": {"correct": failed == 0, "attempted": attempted, "failed": failed,
                   "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}},
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "settings": spec | {"n_queries": N_QUERIES, "builds": BUILDS,
                            "setup_reps_per_cycle": SETUP_REPS},
        "machine": machine(blas_threads, t["numpy"]),
        "single_passes": checks["single_passes"], "batch_calls": checks["batch_calls"],
        "latency_samples": checks["single_passes"] * N_QUERIES,
        "error_rate": failed / attempted, "check_notes": checks["notes"],
        "index_sha256": index_sha, "answers_sha256": checks["answers_sha256"],
        "absent": t.get("absent", []), **host,
        # every timed call ([start, end]) and host reference sample, to see
        # the host's drift in a run
        "timeline": {k: t[k] for k in ("build", "setup", "latency", "batch", "ref_t", "ref_s")
                     if k in t},
    }
    name = f"{workload}-seed{seed}-trace{int(trace)}.json"
    (OUT_DIR / name).write_text(json.dumps(rec, indent=1) + "\n")
    return rec


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="recorded with the run; the work a run measures is fixed per "
                         "workload (WORKLOADS[...]['cycles']), 40-60 s on 2 vCPUs")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        rec = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for key, m in rec["result"]["metrics"].items():
        print(f"{key:34s} {m['value']:>14.6g} {m['unit']}")
    print(f"{'error_rate':34s} {rec['error_rate']:>14.6g} fraction "
          f"({rec['result']['failed']} of {rec['result']['attempted']})")
    print(f"{rec['single_passes']} passes of single queries ({rec['latency_samples']} latency "
          f"samples), {rec['batch_calls']} batch calls, "
          f"index sha256 {rec['index_sha256'][:16]}, answers sha256 {rec['answers_sha256'][:16]}")
    if "uncorrected" in rec:
        print("uncorrected: " + ", ".join(f"{k} {v:.6g}" for k, v in rec["uncorrected"].items()))
    for note in rec["check_notes"]:
        print(f"check failed: {note}")
    if rec["absent"]:
        print(f"absent (not in this version of the program): {', '.join(rec['absent'])}")
    print(json.dumps(rec["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
