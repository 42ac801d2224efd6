"""The stage scripts under `scripts/` time the real `invindex.build`,
`invindex.load`, `search.query` and `search.batch_query`, split into stages
by the calls that `scripts/stagetimer.StageTimer` wraps. Running them here
on small indexes fails the suite when a wrapped name leaves `cnnidx` or a
stage stops being called. Each timing comes raw and divided by its pass's
host factor. The example script `compare_schemes.py` runs here on tiny
data, and `bench_file.py` on the benchmark's toy workloads, so a change that
breaks either fails too."""

import importlib.util
import json
import re
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from cnnidx import invindex, search, tifc, vecio
from cnnidx.invindex import BuildConfig
from cnnidx.pq import PqConfig
from cnnidx.vecio import FeatureSet
from cnnidx.search import QueryConfig
from cnnidx.vecio import SynthSpec

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
QUERY_CFG = QueryConfig(assignment_count=3, hamming_threshold=6, top_k=10)


def load_script(name: str):
    """Import scripts/<name>.py as a module, leaving sys.path as it was."""
    path = sys.path[:]
    try:
        spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = path
    return module


@pytest.fixture(params=["tifc", "ifc"])
def index(request, tifc_index, ifc_index):
    return tifc_index if request.param == "tifc" else ifc_index


def check_columns(timings, stages, empty=(), factor=None):
    """Every stage has a raw and a host-corrected timing, positive but for
    the stages in `empty`, which the run never called, and with a known
    factor the corrected one is the raw one over it."""
    assert set(timings) == set(stages)
    for stage, (raw, corrected) in timings.items():
        assert (raw == corrected == 0) if stage in empty else (raw > 0 and corrected > 0)
        if factor is not None:
            assert corrected == pytest.approx(raw / factor, rel=1e-12)


BUILD_CFGS = {
    "tifc": BuildConfig(scheme="tifc", link_count=3, code_length=8),
    "ifc": BuildConfig(scheme="ifc", link_count=3, code_length=8,
                       pq=PqConfig(segments=2, words_per_segment=4)),
}


def build_medians(db, cfg, path, passes, factor=None):
    bench = load_script("bench_stages")
    medians = bench.stage_medians(bench.BUILD_STAGES, "build",
                                  [lambda: invindex.save(invindex.build(db, cfg), path)],
                                  passes)
    check_columns(medians, [*bench.BUILD_STAGES, "build"], factor=factor)


def load_medians(path, passes, factor=None):
    bench = load_script("bench_stages")
    medians = bench.stage_medians(bench.LOAD_STAGES, "load",
                                  [lambda: invindex.load(path)], passes)
    check_columns(medians, [*bench.LOAD_STAGES, "load"], factor=factor)


def query_medians(ix, queries, passes, factor=None):
    bench = load_script("bench_stages")
    medians = bench.stage_medians(bench.QUERY_STAGES, "query",
                                  [lambda q=q: search.query(ix, q, QUERY_CFG) for q in queries],
                                  passes)
    empty = () if ix.config.pq else ("scores",)  # TIFC has no word scores
    check_columns(medians, [*bench.QUERY_STAGES, "query"], empty, factor)


@pytest.mark.parametrize("scheme", ["tifc", "ifc"])
def test_bench_build_stages_match_build(scheme, small_dataset, tmp_path):
    """Every build stage is called, and the timed builds write the file an
    untimed build writes."""
    db, cfg = small_dataset[0], BUILD_CFGS[scheme]
    invindex.save(invindex.build(db, cfg), tmp_path / "ref.idx")
    build_medians(db, cfg, tmp_path / "x.idx", passes=1)
    assert (tmp_path / "x.idx").read_bytes() == (tmp_path / "ref.idx").read_bytes()


def test_bench_stages_prints_traced_build_peak(monkeypatch, capsys):
    """The whole script on two small workloads, one build round each: every
    workload's line gives the thread count of `invindex._threads()`, which
    the stage split depends on, and its traced build peak, a positive MiB
    count."""
    bench = load_script("bench_stages")
    small = dict(n=200, dim=16, L=8, S=3, W=3, T=6, top_k=10)
    monkeypatch.setattr(bench, "WORKLOADS", {
        "tifc-small": dict(small, scheme="tifc", K=None, M=None),
        "ifc-small": dict(small, scheme="ifc", K=4, M=2)})
    monkeypatch.setattr(bench, "BENCH_WORKLOADS", ["tifc-small", "ifc-small"])
    monkeypatch.setattr(bench, "BUILDS", 1)
    monkeypatch.setattr(sys, "argv", ["bench_stages.py", "--loads", "1", "--queries", "5",
                                      "--passes", "1"])
    bench.main()
    heads = [line for line in capsys.readouterr().out.splitlines()
             if not line.startswith(" ")]
    assert [h.split(",")[0] for h in heads] == ["tifc-small", "ifc-small"]
    for head in heads:
        peak = re.fullmatch(r"[\w-]+, (\d+) thread\(s\), [\d,]+ bytes, "
                            r"traced build peak ([0-9.]+) MiB", head)
        assert peak and int(peak[1]) == invindex._threads() and float(peak[2]) > 0, head


def test_timer_keeps_one_stack_per_thread(monkeypatch):
    """A TIFC build on two threads over two chunks, each chunk's `words`
    held 50 ms: both threads' calls count in `words`, which so sums to at
    least 100 ms of busy time, and only the caller's are taken from the
    self time of `build`."""
    def slow_words(self, xs, count, original=tifc.VirtualWordBank.words):
        time.sleep(0.05)
        return original(self, xs, count)

    monkeypatch.setattr(tifc.VirtualWordBank, "words", slow_words)
    monkeypatch.setattr(invindex, "_cpus", lambda: 2)
    # 8 rows of 8 * (16 + 16 + 3 * 8) bytes per chunk, an eighth of the budget
    monkeypatch.setattr(vecio, "CHUNK_BYTES", 8 * 8 * 448)
    db = FeatureSet(np.random.default_rng(3).standard_normal((16, 16)).astype(np.float32))
    timer = load_script("stagetimer").StageTimer(
        {"build": ("invindex.build",), "words": ("tifc.VirtualWordBank.words",)},
        counters={"tifc.VirtualWordBank.words": len})
    with timer:
        t0 = time.perf_counter()
        invindex.build(db, BUILD_CFGS["tifc"])
        whole = time.perf_counter() - t0
    stages = timer.take()
    assert timer.counts["tifc.VirtualWordBank.words"] == 16  # rows of both threads
    assert stages["words"] >= 0.1
    assert 0 <= stages["build"] <= whole - 0.05


def test_timer_sums_every_thread_switching_often(monkeypatch):
    """Eight build threads over 1-row chunks, the interpreter switching
    threads every microsecond: the counts of every thread's calls add up to
    the rows, with none lost."""
    monkeypatch.setattr(invindex, "_cpus", lambda: 8)
    monkeypatch.setattr(vecio, "CHUNK_BYTES", 1)
    db = FeatureSet(np.random.default_rng(4).standard_normal((400, 16)).astype(np.float32))
    timer = load_script("stagetimer").StageTimer(
        {"words": ("tifc.VirtualWordBank.words",)},
        counters={"tifc.VirtualWordBank.words": len})
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with timer:
            invindex.build(db, BUILD_CFGS["tifc"])
    finally:
        sys.setswitchinterval(interval)
    assert timer.counts["tifc.VirtualWordBank.words"] == 400
    assert timer.take()["words"] > 0


def test_bench_load_stages_match_load(index, tmp_path):
    invindex.save(index, tmp_path / "x.idx")
    load_medians(tmp_path / "x.idx", passes=1)


def test_bench_query_stages_match_query(index, small_dataset):
    query_medians(index, small_dataset[1].vectors, passes=1)


def criterion7_case():
    """The criterion's query configuration (W = 40, T = 11, L = 32) on a
    small IFC index of 64 words."""
    db, queries, _ = vecio.generate_synthetic(SynthSpec(10, 20, 32, 1.0, 0.1, seed=5))
    return invindex.build(db, invindex.build_config("ifc", dict(S=4, L=32, K=8, M=2))), queries


def test_bench_criterion7_stages_match_scan():
    bench_criterion7 = load_script("bench_criterion7")
    stages, scanned, kept = bench_criterion7.scan_stages(*criterion7_case())
    check_columns(stages, bench_criterion7.STAGES)
    assert scanned >= kept > 0


@pytest.mark.parametrize("script, table", [
    ("bench_stages", "BUILD_STAGES"), ("bench_stages", "LOAD_STAGES"),
    ("bench_stages", "QUERY_STAGES"),
    ("bench_criterion7", "STAGES")])
def test_every_wrapped_name_exists(script, table):
    """A timer refuses a name that `cnnidx` does not have, so a rename
    under `src/` fails here instead of leaving a stage at 0."""
    timer_cls = load_script("stagetimer").StageTimer
    timer_cls(getattr(load_script(script), table))
    with pytest.raises(LookupError, match="search._no_such_stage"):
        timer_cls({"scan": ("search._scan", "search._no_such_stage")})


def test_timer_changes_no_answer_and_restores(index, small_dataset, tmp_path):
    """`load` runs every stage on the calling thread, on any CPU count."""
    queries = small_dataset[1]
    path = tmp_path / "x.idx"
    invindex.save(index, path)
    originals = (invindex.load, search._scan, search.hamming_to_many, search.list_codes)
    ref_single = [search.query(index, q, QUERY_CFG).entries for q in queries.vectors]
    ref_batch = search.batch_query(index, queries, QUERY_CFG)[0]
    tables = [load_script("bench_stages").LOAD_STAGES, load_script("bench_stages").QUERY_STAGES,
              load_script("bench_criterion7").STAGES]
    # every name of the three tables, once: a stage name two tables share
    # wraps the same calls in both, or a subset of them in the first
    timer = load_script("stagetimer").StageTimer({k: v for t in tables for k, v in t.items()})
    with timer:
        t0 = time.perf_counter()
        loaded = invindex.load(path)
        whole = time.perf_counter() - t0
        stages = timer.take()
        single = [search.query(loaded, q, QUERY_CFG).entries for q in queries.vectors]
        batch = search.batch_query(loaded, queries, QUERY_CFG)[0]
    assert all(np.array_equal(getattr(loaded, a), getattr(index, a))
               for a in ("wids", "offsets", "ids", "codes"))
    assert single == ref_single and batch == ref_batch
    # self times are disjoint, so the stages of `load` fit in the whole call
    assert 0 < sum(stages.values()) <= whole
    assert originals == (invindex.load, search._scan, search.hamming_to_many, search.list_codes)


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_tifc_load_stages_fit_on_any_cpu_count(tifc_index, tmp_path, monkeypatch, cpus):
    """A TIFC load runs every stage on the calling thread on any CPU count:
    the quantizer stage, the bank made from the payload's reference, is
    timed, and the stages, disjoint self times, fit in the whole call."""
    monkeypatch.setattr(invindex, "_cpus", lambda: cpus)
    path = tmp_path / "x.idx"
    invindex.save(tifc_index, path)
    timer = load_script("stagetimer").StageTimer(load_script("bench_stages").LOAD_STAGES)
    with timer:
        for _ in range(3):
            t0 = time.perf_counter()
            loaded = invindex.load(path)
            whole = time.perf_counter() - t0
            took = timer.take()
            assert took["quantizer"] > 0
            assert 0 < sum(took.values()) <= whole
    np.testing.assert_array_equal(loaded.quantizer.reference, tifc_index.quantizer.reference)


def test_stage_scripts_divide_by_host_factor(ifc_index, small_dataset, tmp_path,
                                             monkeypatch):
    """With every host sample at twice `hostref.REF_QUERY_S`, each pass's
    factor is 2, and every corrected timing is its raw one halved."""
    hostref = load_script("stagetimer").hostref

    def sample(self):
        self.times.append(time.perf_counter())
        self.seconds.append(2 * hostref.REF_QUERY_S)

    monkeypatch.setattr(hostref.HostRef, "sample", sample)
    build_medians(small_dataset[0], BUILD_CFGS["ifc"], tmp_path / "b.idx", passes=2,
                  factor=2.0)
    invindex.save(ifc_index, tmp_path / "x.idx")
    load_medians(tmp_path / "x.idx", passes=3, factor=2.0)
    query_medians(ifc_index, small_dataset[1].vectors, passes=2, factor=2.0)
    bench_criterion7 = load_script("bench_criterion7")
    stages = bench_criterion7.scan_stages(*criterion7_case())[0]
    check_columns(stages, bench_criterion7.STAGES, factor=2.0)


def test_compare_schemes_prints_a_row_per_method(monkeypatch, capsys):
    """The comparison runs both baselines and both schemes end to end. Brute
    force ranks 10 of each query's 20 cluster members first, for AP 0.5,
    and scans the whole database."""
    monkeypatch.setattr(sys, "argv", [
        "compare_schemes.py", "--clusters", "5", "--per-cluster", "20", "--dim", "16",
        "--S", "4", "--W", "4", "--L", "8", "--K", "4", "--M", "2"])
    load_script("compare_schemes").main()
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "database 100 x 16, 5 queries, S=4 W=4 L=8 T=3 K=4 M=2"
    rows = {line.split()[0]: [float(x) for x in line.split()[1:]] for line in lines[3:]}
    assert list(rows) == ["BF", "LSH", "TIFC", "IFC"]
    for name, (map_, ms, scan, mb) in rows.items():
        assert 0 <= map_ <= 1 and ms > 0 and 0 < scan <= 1 and mb >= 0, name
    assert rows["BF"][0] == 0.5 and rows["BF"][2] == 1.0


def test_count_src_lines_counts_code_and_docstrings(monkeypatch, capsys, tmp_path):
    """A blank line and a `#` comment do not count; a code line and a
    docstring line do, in each module and in the total."""
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text('"""Doc."""\n\n    # note\nx = 1  # set x\n')
    (tmp_path / "b.py").write_text("# only a comment\n\n")
    monkeypatch.setattr(sys, "argv", ["count_src_lines.py", "--root", str(tmp_path)])
    load_script("count_src_lines").main()
    assert capsys.readouterr().out.splitlines() == [
        "     0  b.py", "     2  pkg/a.py", "     2  total"]


def test_bench_file_summarises_seeded_runs(monkeypatch, tmp_path):
    """`bench_file.py` over the smoke test's toy workloads on seeds 3, 3 and
    4: the file holds every key, each metric's median is that of the runs'
    values, and the two runs of seed 3 give equal index and answer digests."""
    bench = load_script("bench_file")
    monkeypatch.setattr(sys, "path", sys.path[:])
    run = bench.load_run()
    import test_smoke

    monkeypatch.setattr(run, "WORKLOADS", test_smoke.TOY)
    monkeypatch.setattr(run, "N_QUERIES", 40)
    records, real_run = [], run.run
    monkeypatch.setattr(run, "run", lambda *args: records.append(real_run(*args)) or records[-1])
    seeds = [3, 3, 4]
    path = bench.write_bench(bench.bench(run, list(test_smoke.TOY), seeds, 1), seeds, 1,
                             tmp_path)
    doc = json.loads(path.read_text())
    assert set(doc) == {"commit", "clean", "seeds", "seconds", "machine", "workloads"}
    assert path.name == f"BENCH_{doc['commit']}{'' if doc['clean'] else '-dirty'}.json"
    assert set(doc["machine"]) == {"cpu_model", "cpu_count", "affinity_cpus", "python",
                                   "numpy", "blas", "blas_version", "openblas_core"}
    assert doc["seeds"] == seeds and list(doc["workloads"]) == list(test_smoke.TOY)
    names = [m["name"] for m in test_smoke.BENCHMARK["end_to_end"]]
    for workload, summary in doc["workloads"].items():
        recs = [r for r in records if r["workload"] == workload]
        assert list(summary["metrics"]) == names
        for name, m in summary["metrics"].items():
            values = [r["result"]["metrics"][name]["value"] for r in recs]
            assert m["median"] == np.median(values) and m["count"] == len(seeds)
            assert m["q1"] <= m["median"] <= m["q3"]
            assert m["unit"] == recs[0]["result"]["metrics"][name]["unit"]
        runs = summary["runs"]
        assert [r["seed"] for r in runs] == seeds
        assert all(r["failed"] == 0 and r["attempted"] > 0 for r in runs)
        for key in ("index_sha256", "answers_sha256"):
            assert runs[0][key] == runs[1][key] == recs[0][key]
