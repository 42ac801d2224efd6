#!/usr/bin/env python3
"""Run the benchmark over a list of seeds and write its results to one file.

    python3 scripts/bench_file.py [--seeds 1 2 ... 10] [--out .benchmarks]

For every seed and every workload that `BENCHMARK.json` lists, it calls
`perfbench/run.py`'s `run(workload, seed, seconds, False)`, the untraced run
that reports the end-to-end metrics, as `perfbench/test_smoke.py` does, for
`BENCHMARK.json`'s `run_seconds`, so every file's runs have one length; the
workloads alternate within each seed. It writes `BENCH_<short commit>.json`,
or `BENCH_<short commit>-dirty.json` when a tracked file differs from that
commit, holding:

- per workload and metric, the median, the quartiles and the count of the
  runs' values, with the metric's unit;
- every run's seed, index and answer SHA-256 and failed operations;
- the commit and whether the tree was clean;
- the machine: CPU model, CPU count, Python, numpy, the OpenBLAS version and
  the core OpenBLAS picked at run time.

Each run also leaves its full record in `perfbench/out/`, as `run.py` does.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def load_run():
    """`perfbench/run.py` as the module `run`, with `perfbench/` on sys.path
    for its own imports."""
    if str(PERFBENCH) not in sys.path:
        sys.path.insert(0, str(PERFBENCH))
    import run

    return run


def git_state() -> tuple[str, bool]:
    """The short commit of HEAD and whether no tracked file differs from it;
    ("unknown", False) outside a git checkout."""
    def git(*args: str) -> str:
        return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                              text=True, check=True).stdout.strip()

    try:
        return git("rev-parse", "--short", "HEAD"), not git("status", "--porcelain",
                                                           "--untracked-files=no")
    except (OSError, subprocess.CalledProcessError):
        return "unknown", False


def openblas_core() -> str | None:
    """The core that numpy's bundled OpenBLAS picked, or None if it cannot be
    read."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                  "libscipy_openblas64_*"))
    try:
        corename = ctypes.CDLL(libs[0]).scipy_openblas_get_corename64_
    except (IndexError, OSError, AttributeError):
        return None
    corename.argtypes, corename.restype = [], ctypes.c_char_p
    return corename().decode()


def machine() -> dict:
    model = next((line.split(":", 1)[1].strip() for line in
                  Path("/proc/cpuinfo").read_text().splitlines()
                  if line.startswith("model name")), None)
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"cpu_model": model, "cpu_count": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas["name"], "blas_version": blas["version"],
            "openblas_core": openblas_core()}


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75]).tolist()
    return {"median": median, "q1": q1, "q3": q3, "count": len(values)}


def bench(run, workloads: list[str], seeds: list[int], seconds: float) -> dict:
    """Every workload's untraced run on every seed, summarised."""
    records = {w: [] for w in workloads}
    for seed in seeds:
        for workload in workloads:
            print(f"{workload} seed {seed}", file=sys.stderr, flush=True)
            records[workload].append(run.run(workload, seed, seconds, False))
    out = {}
    for workload, recs in records.items():
        metrics = {}
        for name, m in recs[0]["result"]["metrics"].items():
            values = [r["result"]["metrics"][name]["value"] for r in recs]
            metrics[name] = {"unit": m["unit"], **quartiles(values)}
        runs = [{"seed": r["seed"], "index_sha256": r["index_sha256"],
                 "answers_sha256": r["answers_sha256"], "failed": r["result"]["failed"],
                 "attempted": r["result"]["attempted"]} for r in recs]
        out[workload] = {"metrics": metrics, "runs": runs}
    return out


def write_bench(workloads: dict, seeds: list[int], seconds: float, out_dir: Path) -> Path:
    commit, clean = git_state()
    doc = {"commit": commit, "clean": clean, "seeds": seeds, "seconds": seconds,
           "machine": machine(), "workloads": workloads}
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"BENCH_{commit}{'' if clean else '-dirty'}.json"
    path.write_text(json.dumps(doc, indent=1) + "\n")
    return path


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)))
    ap.add_argument("--out", type=Path, default=ROOT / ".benchmarks")
    args = ap.parse_args(argv)
    run = load_run()
    try:
        workloads = bench(run, [w["name"] for w in spec["workloads"]], args.seeds,
                          spec["run_seconds"])
    except run.BenchError as exc:
        print(f"bench_file: {exc}", file=sys.stderr)
        return 1
    print(write_bench(workloads, args.seeds, spec["run_seconds"], args.out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
