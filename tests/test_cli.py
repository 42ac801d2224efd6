import csv
import json
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from cnnidx import baseline, invindex, search, vecio
from cnnidx.cli import EXIT_DATA, EXIT_INTERNAL, EXIT_OK, EXIT_USAGE, build_parser, run
from cnnidx.invindex import BuildConfig
from cnnidx.pq import PqConfig
from test_invindex import section_arrays, write_old_file, write_raw


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Synthetic dataset generated through the CLI itself."""
    root = tmp_path_factory.mktemp("cliws")
    rc = run([
        "synth", "--clusters", "5", "--per-cluster", "20", "--dim", "16",
        "--cluster-std", "1.0", "--noise-std", "0.1", "--seed", "3",
        "--out-features", str(root / "db.fvecs"),
        "--out-queries", str(root / "q.fvecs"),
        "--out-gt", str(root / "gt.txt"),
    ])
    assert rc == EXIT_OK
    return root


def test_synth_outputs(workspace):
    db = vecio.read_feature_file(workspace / "db.fvecs")
    queries = vecio.read_feature_file(workspace / "q.fvecs")
    gt = vecio.read_ground_truth(workspace / "gt.txt")
    assert db.n == 100 and queries.n == 5 and len(gt) == 5


@pytest.mark.parametrize("flag, value, message", [
    ("--clusters", "0", "n_clusters must be >= 1, got 0"),
    ("--seed", "-1", "seed must be >= 0, got -1"),
    ("--cluster-std", "nan", "cluster_stddev must be finite, got nan"),
    ("--noise-std", "inf", "noise_stddev must be finite, got inf"),
    ("--cluster-std", "1e39",
     "cluster_stddev must be at most float32's largest value 3.4028235e+38, got 1e+39"),
    # below float32's largest value, but the draws times it are not
    ("--cluster-std", "3e38",
     "cluster_stddev must be at most 2.1267647e+37 for float32 draws to stay finite, "
     "got 3e+38"),
])
def test_synth_bad_spec_is_data_error(tmp_path, capsys, flag, value, message):
    """A bad spec fails before its config is echoed, so no NaN, which is not
    JSON, reaches stdout, and before numpy draws, so it warns of no overflow."""
    spec = {"--clusters": "2", "--per-cluster": "3", "--dim": "4", "--cluster-std": "1.0",
            "--noise-std": "0.1", "--seed": "0", flag: value}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = run(["synth", *[x for kv in spec.items() for x in kv],
                  "--out-features", str(tmp_path / "db.fvecs"),
                  "--out-queries", str(tmp_path / "q.fvecs"),
                  "--out-gt", str(tmp_path / "gt.txt")])
    assert rc == EXIT_DATA
    captured = capsys.readouterr()
    assert message in captured.err and captured.out == ""
    assert not (tmp_path / "db.fvecs").exists()


def test_build_query_evaluate_pipeline(workspace, capsys):
    rc = run([
        "build", "--features", str(workspace / "db.fvecs"),
        "--scheme", "ifc", "--S", "3", "--L", "8", "--K", "4", "--M", "2",
        "--out", str(workspace / "ifc.idx"),
    ])
    assert rc == EXIT_OK
    rc = run([
        "query", "--index", str(workspace / "ifc.idx"),
        "--queries", str(workspace / "q.fvecs"),
        "--W", "3", "--T", "5", "--topk", "20",
        "--out", str(workspace / "res"),
    ])
    assert rc == EXIT_OK
    assert (workspace / "res.ivecs").exists()
    assert (workspace / "res.summary.json").exists()
    assert (workspace / "res.timing.json").exists()

    rc = run([
        "evaluate", "--results", str(workspace / "res.ivecs"),
        "--ground-truth", str(workspace / "gt.txt"),
        "--out", str(workspace / "report.json"),
    ])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert "MAP " in out
    report = json.loads((workspace / "report.json").read_text())
    assert 0.0 <= report["map"] <= 1.0


def test_evaluate_reports_unknown_figures_as_null(workspace, tmp_path):
    # evaluate sees the ranked ids and the query times, not the index or its
    # candidate counts: scan fraction and index size are unknown, not zero
    rc = run([
        "build", "--features", str(workspace / "db.fvecs"),
        "--scheme", "ifc", "--S", "3", "--L", "8", "--K", "4", "--M", "2",
        "--out", str(tmp_path / "ifc.idx"),
    ])
    assert rc == EXIT_OK
    rc = run([
        "query", "--index", str(tmp_path / "ifc.idx"),
        "--queries", str(workspace / "q.fvecs"),
        "--W", "3", "--T", "5", "--topk", "20", "--out", str(tmp_path / "res"),
    ])
    assert rc == EXIT_OK
    common = ["evaluate", "--results", str(tmp_path / "res.ivecs"),
              "--ground-truth", str(workspace / "gt.txt")]
    rc = run(common + ["--timing", str(tmp_path / "res.timing.json"),
                       "--out", str(tmp_path / "timed.json")])
    assert rc == EXIT_OK
    timed = json.loads((tmp_path / "timed.json").read_text())
    assert timed["scan_fraction"] is None and timed["index_bytes"] is None
    assert timed["mean_query_time_s"] > 0
    rc = run(common + ["--out", str(tmp_path / "untimed.json")])
    assert rc == EXIT_OK
    untimed = json.loads((tmp_path / "untimed.json").read_text())
    assert untimed["mean_query_time_s"] is None
    assert untimed["map"] == timed["map"]


def test_query_defaults_follow_index(workspace, capsys):
    rc = run([
        "build", "--features", str(workspace / "db.fvecs"),
        "--scheme", "tifc", "--S", "4", "--L", "8",
        "--out", str(workspace / "tifc.idx"),
    ])
    assert rc == EXIT_OK
    rc = run([
        "query", "--index", str(workspace / "tifc.idx"),
        "--queries", str(workspace / "q.fvecs"),
        "--out", str(workspace / "dflt"),
    ])
    assert rc == EXIT_OK
    cfg = json.loads((workspace / "dflt.summary.json").read_text())["config"]
    assert cfg["W"] == 4  # defaults to the index link count S
    assert cfg["T"] == round(0.35 * 8)


def test_rerun_byte_identical(workspace):
    for tag in ("r1", "r2"):
        rc = run([
            "query", "--index", str(workspace / "ifc.idx"),
            "--queries", str(workspace / "q.fvecs"),
            "--W", "2", "--T", "4",
            "--out", str(workspace / tag),
        ])
        assert rc == EXIT_OK
    assert (workspace / "r1.ivecs").read_bytes() == (workspace / "r2.ivecs").read_bytes()
    assert (workspace / "r1.summary.json").read_text() == \
        (workspace / "r2.summary.json").read_text()


def test_baseline_bf_perfect_on_self_queries(workspace, tmp_path, capsys):
    rc = run([
        "baseline", "--method", "bf",
        "--features", str(workspace / "db.fvecs"),
        "--queries", str(workspace / "q.fvecs"),
        "--topk", "20",
        "--out", str(tmp_path / "bf"),
    ])
    assert rc == EXIT_OK
    rc = run([
        "evaluate", "--results", str(tmp_path / "bf.ivecs"),
        "--ground-truth", str(workspace / "gt.txt"),
    ])
    assert rc == EXIT_OK
    map_line = [l for l in capsys.readouterr().out.splitlines() if l.startswith("MAP")][-1]
    assert float(map_line.split()[1]) == pytest.approx(1.0)


def test_baseline_lsh_runs(workspace, tmp_path):
    rc = run([
        "baseline", "--method", "lsh",
        "--features", str(workspace / "db.fvecs"),
        "--queries", str(workspace / "q.fvecs"),
        "--topk", "10", "--tables", "4", "--bits", "8",
        "--out", str(tmp_path / "lsh"),
    ])
    assert rc == EXIT_OK
    assert (tmp_path / "lsh.ivecs").exists()


def read_run(prefix):
    """A run's ranked ids, candidate counts and result sizes, with its
    timings checked by the reader `evaluate --timing` uses."""
    ids = [r.tolist() for r in vecio.read_int_lists(f"{prefix}.ivecs")]
    summary = json.loads(Path(f"{prefix}.summary.json").read_text())
    times = search.read_query_times(f"{prefix}.timing.json", len(ids))
    timing = json.loads(Path(f"{prefix}.timing.json").read_text())
    assert timing["mean_query_time_s"] == pytest.approx(np.mean(times))
    assert summary["num_queries"] == len(ids)
    return ids, summary["candidate_counts"], summary["result_sizes"]


@pytest.mark.parametrize("scheme, flags", [
    ("tifc", ["--S", "4", "--L", "8"]),
    ("ifc", ["--S", "3", "--L", "8", "--K", "4", "--M", "2"]),
])
def test_query_run_files_hold_the_library_answers(workspace, tmp_path, scheme, flags):
    """`cnnidx query` writes `batch_query`'s ids and candidate counts, which
    are also each query's own `query` ids and `candidate_set` size."""
    rc = run(["build", "--features", str(workspace / "db.fvecs"), "--scheme", scheme,
              *flags, "--out", str(tmp_path / "x.idx")])
    assert rc == EXIT_OK
    rc = run(["query", "--index", str(tmp_path / "x.idx"), "--queries",
              str(workspace / "q.fvecs"), "--W", "3", "--T", "4", "--topk", "7",
              "--out", str(tmp_path / "r")])
    assert rc == EXIT_OK
    ix = invindex.load(tmp_path / "x.idx")
    queries = vecio.read_feature_file(workspace / "q.fvecs")
    cfg = search.QueryConfig(assignment_count=3, hamming_threshold=4, top_k=7)
    results, summary = search.batch_query(ix, queries, cfg)
    ids = [r.ids for r in results]
    assert read_run(tmp_path / "r") == (ids, summary.candidate_counts, [len(i) for i in ids])
    assert ids == [search.query(ix, q, cfg).ids for q in queries.vectors]
    assert summary.candidate_counts == [len(search.candidate_set(ix, q, 3))
                                        for q in queries.vectors]


@pytest.mark.parametrize("method, flags", [
    ("bf", []), ("lsh", ["--tables", "4", "--bits", "4"])])
def test_baseline_run_files_hold_the_library_answers(workspace, tmp_path, method, flags):
    """`cnnidx baseline` writes each query's `brute_force` or `lsh_query`
    ids, and the database size or bucket union it scanned."""
    rc = run(["baseline", "--method", method, "--features", str(workspace / "db.fvecs"),
              "--queries", str(workspace / "q.fvecs"), "--topk", "7", *flags,
              "--out", str(tmp_path / "b")])
    assert rc == EXIT_OK
    db = vecio.read_feature_file(workspace / "db.fvecs")
    queries = vecio.read_feature_file(workspace / "q.fvecs")
    if method == "bf":
        want = [(baseline.brute_force(db, q, 7), db.n) for q in queries.vectors]
    else:
        lix = baseline.lsh_build(db, baseline.LshConfig(4, 4))
        want = [baseline.lsh_query(lix, q, 7) for q in queries.vectors]
    ids = [w[0] for w in want]
    assert read_run(tmp_path / "b") == (ids, [w[1] for w in want], [len(i) for i in ids])


@pytest.mark.parametrize("method, flags", [
    ("bf", []), ("lsh", ["--tables", "4", "--bits", "4"])])
def test_baseline_normalize_runs_on_the_normalized_sets(workspace, tmp_path, method, flags):
    """`cnnidx baseline --normalize` writes the ids and scanned counts that
    `baseline.run` gives on the `l2_normalize`d database and queries."""
    rc = run(["baseline", "--method", method, "--features", str(workspace / "db.fvecs"),
              "--queries", str(workspace / "q.fvecs"), "--topk", "7", *flags, "--normalize",
              "--out", str(tmp_path / "b")])
    assert rc == EXIT_OK
    db = vecio.l2_normalize(vecio.read_feature_file(workspace / "db.fvecs"))
    queries = vecio.l2_normalize(vecio.read_feature_file(workspace / "q.fvecs"))
    lsh_cfg = baseline.LshConfig(4, 4) if method == "lsh" else None
    ids, scanned, _ = baseline.run(db, queries, 7, lsh_cfg)
    assert read_run(tmp_path / "b") == (ids, scanned, [len(i) for i in ids])
    assert json.loads((tmp_path / "b.summary.json").read_text())["config"]["normalize"]


def test_ifc_build_normalizes_its_training_set(workspace, tmp_path):
    """`cnnidx build --scheme ifc --normalize --train-features` writes the
    bytes of a library build on the normalized database and training set."""
    db = vecio.read_feature_file(workspace / "db.fvecs")
    training = vecio.FeatureSet(3 * db.vectors[::-1] + 1)
    vecio.write_feature_file(training, tmp_path / "train.fvecs")
    rc = run(["build", "--features", str(workspace / "db.fvecs"), "--scheme", "ifc",
              "--S", "3", "--L", "8", "--K", "4", "--M", "2", "--normalize",
              "--train-features", str(tmp_path / "train.fvecs"),
              "--out", str(tmp_path / "cli.idx")])
    assert rc == EXIT_OK
    cfg = BuildConfig("ifc", 3, 8, PqConfig(2, 4))
    ix = invindex.build(vecio.l2_normalize(db), cfg, training=vecio.l2_normalize(training))
    invindex.save(ix, tmp_path / "lib.idx")
    assert (tmp_path / "cli.idx").read_bytes() == (tmp_path / "lib.idx").read_bytes()


def test_build_defaults_are_the_configs_defaults():
    """A build command that leaves out S, L, K and M gets the config of the
    flags' defaults, through `build_config` as a sweep gets its own."""
    args = build_parser().parse_args(
        ["build", "--features", "db.fvecs", "--scheme", "ifc", "--out", "x.idx"])
    params = vars(args)
    assert invindex.build_config("ifc", params).pq == PqConfig(args.M, args.K)
    assert invindex.build_config("tifc", params) == BuildConfig("tifc", args.S, args.L)


def test_baseline_lsh_records_bucket_union(workspace, tmp_path):
    rc = run([
        "baseline", "--method", "lsh",
        "--features", str(workspace / "db.fvecs"),
        "--queries", str(workspace / "q.fvecs"),
        "--topk", "5", "--tables", "4", "--bits", "4",
        "--out", str(tmp_path / "lsh"),
    ])
    assert rc == EXIT_OK
    summary = json.loads((tmp_path / "lsh.summary.json").read_text())
    pairs = list(zip(summary["candidate_counts"], summary["result_sizes"]))
    assert all(scanned >= size for scanned, size in pairs)
    assert any(scanned > size for scanned, size in pairs)


def test_sweep_command(workspace, tmp_path):
    spec = {
        "grid": {"W": [1, 3]},
        "base": {"scheme": "ifc", "L": 8, "S": 3, "T": 4, "K": 4, "M": 2,
                 "top_k": 20},
        "datasets": {
            "features": str(workspace / "db.fvecs"),
            "queries": str(workspace / "q.fvecs"),
            "ground_truth": str(workspace / "gt.txt"),
        },
    }
    spec_path = tmp_path / "sweep.json"
    spec_path.write_text(json.dumps(spec))
    rc = run(["sweep", "--spec", str(spec_path), "--out-prefix", str(tmp_path / "sw")])
    assert rc == EXIT_OK
    lines = (tmp_path / "sw.csv").read_text().strip().splitlines()
    assert len(lines) == 3


def test_sweep_example_writes_its_grid_in_order(tmp_path):
    """The README's example: `synth` 20 clusters of 100 32-d vectors, then an
    IFC sweep over 6 T x 4 W. Both files hold the 24 points in grid order,
    the CSV the JSON's values, and the scan fraction depends on W alone."""
    assert run(["synth", "--clusters", "20", "--per-cluster", "100", "--dim", "32",
                "--seed", "7", "--out-features", str(tmp_path / "db.fvecs"),
                "--out-queries", str(tmp_path / "q.fvecs"),
                "--out-gt", str(tmp_path / "gt.txt")]) == EXIT_OK
    spec = {"grid": {"T": [2, 4, 6, 8, 11, 16], "W": [1, 4, 8, 16]},
            "base": {"scheme": "ifc", "L": 16, "S": 8, "K": 16, "M": 2, "top_k": 100},
            "datasets": {"features": str(tmp_path / "db.fvecs"),
                         "queries": str(tmp_path / "q.fvecs"),
                         "ground_truth": str(tmp_path / "gt.txt")}}
    (tmp_path / "sweep.json").write_text(json.dumps(spec))
    assert run(["sweep", "--spec", str(tmp_path / "sweep.json"),
                "--out-prefix", str(tmp_path / "sw")]) == EXIT_OK
    written = json.loads((tmp_path / "sw.json").read_text())
    with open(tmp_path / "sw.csv", newline="", encoding="utf-8") as f:
        table = list(csv.DictReader(f))
    grid = [(t, w) for t in (2, 4, 6, 8, 11, 16) for w in (1, 4, 8, 16)]
    assert [(r["T"], r["W"]) for r in written] == grid
    assert [(int(r["T"]), int(r["W"])) for r in table] == grid
    for line, row in zip(table, written):
        assert "error" not in row
        assert (float(line["map"]), float(line["scan_fraction"])) == \
            (row["map"], row["scan_fraction"])
    assert len({(r["W"], r["scan_fraction"]) for r in written}) == 4


def test_sweep_internal_error_exits_3(workspace, tmp_path, monkeypatch, capsys):
    """An exception that no bad point raises is a fault of the program: the
    sweep ends at it with exit 3 and writes no results."""
    def broken_build(*args, **kwargs):
        raise IndexError("index 7 is out of bounds")

    monkeypatch.setattr(invindex, "build", broken_build)
    spec = {"grid": {"W": [1, 3]}, "base": {"scheme": "tifc", "L": 8, "S": 3},
            "datasets": {"features": str(workspace / "db.fvecs"),
                         "queries": str(workspace / "q.fvecs"),
                         "ground_truth": str(workspace / "gt.txt")}}
    (tmp_path / "sweep.json").write_text(json.dumps(spec))
    rc = run(["sweep", "--spec", str(tmp_path / "sweep.json"),
              "--out-prefix", str(tmp_path / "sw")])
    assert rc == EXIT_INTERNAL
    assert ("cnnidx: internal error: IndexError: index 7 is out of bounds"
            in capsys.readouterr().err)
    assert not (tmp_path / "sw.csv").exists() and not (tmp_path / "sw.json").exists()


@pytest.mark.parametrize("command", ["build", "sweep"])
def test_internal_key_error_exits_3(workspace, tmp_path, monkeypatch, capsys, command):
    """No reader answers bad input with a KeyError: every build flag has a
    default, and a sweep spec is checked key by key before a point reads
    it. So a KeyError from inside the program is a fault, exit 3."""
    def broken_build(*args, **kwargs):
        raise KeyError("internal")

    monkeypatch.setattr(invindex, "build", broken_build)
    features = str(workspace / "db.fvecs")
    if command == "build":
        argv = ["build", "--features", features, "--scheme", "tifc", "--S", "3", "--L", "8",
                "--out", str(tmp_path / "x.idx")]
    else:
        spec = {"grid": {"W": [1]}, "base": {"scheme": "tifc", "L": 8, "S": 3},
                "datasets": {"features": features, "queries": str(workspace / "q.fvecs"),
                             "ground_truth": str(workspace / "gt.txt")}}
        (tmp_path / "sweep.json").write_text(json.dumps(spec))
        argv = ["sweep", "--spec", str(tmp_path / "sweep.json"),
                "--out-prefix", str(tmp_path / "sw")]
    assert run(argv) == EXIT_INTERNAL
    assert "cnnidx: internal error: KeyError: 'internal'" in capsys.readouterr().err


def test_sweep_point_that_its_configs_refuse_is_reported(workspace, tmp_path, capsys):
    """A point whose T exceeds the code length keeps its row, with the
    error, and prints that error to stderr; the other points run and the
    sweep exits 0."""
    spec = {"grid": {"T": [4, 9]}, "base": {"scheme": "tifc", "L": 8, "S": 3},
            "datasets": {"features": str(workspace / "db.fvecs"),
                         "queries": str(workspace / "q.fvecs"),
                         "ground_truth": str(workspace / "gt.txt")}}
    (tmp_path / "sweep.json").write_text(json.dumps(spec))
    rc = run(["sweep", "--spec", str(tmp_path / "sweep.json"),
              "--out-prefix", str(tmp_path / "sw")])
    assert rc == EXIT_OK
    ok, refused = json.loads((tmp_path / "sw.json").read_text())
    assert "error" not in ok and "map" in ok
    assert refused["error"] == "ValueError: hamming_threshold 9 exceeds code length 8"
    err = [line for line in capsys.readouterr().err.splitlines() if line]
    assert len(err) == 1
    assert err[0].startswith("[sweep] point {") and err[0].endswith(": " + refused["error"])
    assert err[0].count("hamming_threshold 9") == 1 and "'error'" not in err[0]


def test_sweep_without_w_and_t_takes_the_query_defaults(workspace, tmp_path):
    """Every point of a spec without W and T runs with `cnnidx query`'s
    defaults, W = S and T = round(0.35 * L), reports them, and scores the
    MAP that `cnnidx query` with its defaults and `cnnidx evaluate` score."""
    spec = {"grid": {"S": [2, 4]}, "base": {"scheme": "ifc", "L": 8, "K": 4, "M": 2},
            "datasets": {"features": str(workspace / "db.fvecs"),
                         "queries": str(workspace / "q.fvecs"),
                         "ground_truth": str(workspace / "gt.txt")}}
    (tmp_path / "sweep.json").write_text(json.dumps(spec))
    rc = run(["sweep", "--spec", str(tmp_path / "sweep.json"),
              "--out-prefix", str(tmp_path / "sw")])
    assert rc == EXIT_OK
    rows = json.loads((tmp_path / "sw.json").read_text())
    assert (tmp_path / "sw.csv").read_text().splitlines()[0].startswith("L,T,S,W,K,M,scheme,")
    for row in rows:
        assert "error" not in row and (row["W"], row["T"]) == (row["S"], 3)
        s = str(row["S"])
        assert run(["build", "--features", str(workspace / "db.fvecs"), "--scheme", "ifc",
                    "--S", s, "--L", "8", "--K", "4", "--M", "2",
                    "--out", str(tmp_path / "x.idx")]) == EXIT_OK
        assert run(["query", "--index", str(tmp_path / "x.idx"), "--queries",
                    str(workspace / "q.fvecs"), "--out", str(tmp_path / "r")]) == EXIT_OK
        assert run(["evaluate", "--results", str(tmp_path / "r.ivecs"), "--ground-truth",
                    str(workspace / "gt.txt"), "--out", str(tmp_path / "e.json")]) == EXIT_OK
        assert json.loads((tmp_path / "e.json").read_text())["map"] == row["map"]


@pytest.mark.parametrize("change", [
    {"grid": ["W"]},
    {"grid": {"W": 3}},
    {"base": []},
    {"datasets": []},
    None,
], ids=["grid-list", "grid-value-int", "base-list", "datasets-list", "top-level-list"])
def test_malformed_sweep_spec_is_data_error(workspace, tmp_path, capsys, change):
    spec = {
        "grid": {"W": [1]},
        "base": {"scheme": "tifc", "L": 8, "S": 3, "T": 4},
        "datasets": {"features": str(workspace / "db.fvecs"),
                     "queries": str(workspace / "q.fvecs"),
                     "ground_truth": str(workspace / "gt.txt")},
    }
    spec = [spec] if change is None else {**spec, **change}
    (tmp_path / "sweep.json").write_text(json.dumps(spec))
    rc = run(["sweep", "--spec", str(tmp_path / "sweep.json"),
              "--out-prefix", str(tmp_path / "sw")])
    assert rc == EXIT_DATA
    assert "data error" in capsys.readouterr().err
    assert not (tmp_path / "sw.csv").exists()


@pytest.mark.parametrize("missing", ["grid", "base", "datasets.features", "datasets.queries",
                                     "datasets.ground_truth"])
def test_sweep_spec_missing_key_is_named(tmp_path, capsys, missing):
    """A spec without one of its required keys exits 2 naming the spec file
    and the key, before it echoes its config or reads a file: no dataset
    exists."""
    spec = {"grid": {"W": [1]}, "base": {"scheme": "tifc", "L": 8, "S": 3},
            "datasets": {k: str(tmp_path / f"nope.{k}")
                         for k in ("features", "queries", "ground_truth")}}
    outer, _, key = missing.rpartition(".")
    del (spec[outer] if outer else spec)[key]
    (tmp_path / "sweep.json").write_text(json.dumps(spec))
    rc = run(["sweep", "--spec", str(tmp_path / "sweep.json"),
              "--out-prefix", str(tmp_path / "sw")])
    assert rc == EXIT_DATA
    out, err = capsys.readouterr()
    assert f"{tmp_path / 'sweep.json'}: spec has no {missing}" in err
    assert out == ""


def test_sweep_base_key_that_no_point_reads_is_data_error(workspace, tmp_path, capsys):
    """`kmeans_restarts` is no longer a setting: a spec that sets it exits 2
    naming the key, before any file is read or written."""
    spec = {"grid": {"W": [1]},
            "base": {"scheme": "ifc", "L": 8, "S": 3, "K": 4, "M": 2, "kmeans_restarts": 3},
            "datasets": {"features": str(tmp_path / "nope.fvecs"),
                         "queries": str(workspace / "q.fvecs"),
                         "ground_truth": str(workspace / "gt.txt")}}
    (tmp_path / "sweep.json").write_text(json.dumps(spec))
    rc = run(["sweep", "--spec", str(tmp_path / "sweep.json"),
              "--out-prefix", str(tmp_path / "sw")])
    assert rc == EXIT_DATA
    assert "'kmeans_restarts'" in capsys.readouterr().err
    assert not (tmp_path / "sw.csv").exists()


def test_tifc_sweep_with_train_features_is_data_error(workspace, tmp_path, capsys):
    """A TIFC sweep reads no training set: a spec that names one is refused
    before any file is read, so a missing path gives this error, not a
    missing-file one."""
    spec = {
        "grid": {"W": [1]},
        "base": {"scheme": "tifc", "L": 8, "S": 3, "T": 4},
        "datasets": {"features": str(workspace / "db.fvecs"),
                     "queries": str(workspace / "q.fvecs"),
                     "ground_truth": str(workspace / "gt.txt"),
                     "train_features": str(tmp_path / "nope.fvecs")},
    }
    (tmp_path / "sweep.json").write_text(json.dumps(spec))
    rc = run(["sweep", "--spec", str(tmp_path / "sweep.json"),
              "--out-prefix", str(tmp_path / "sw")])
    assert rc == EXIT_DATA
    assert "datasets.train_features applies to scheme ifc only" in capsys.readouterr().err
    assert not (tmp_path / "sw.csv").exists()


def _refused_sweep(tmp_path, monkeypatch, capsys, spec):
    """Run `cnnidx sweep` on spec, recording every read of a dataset; the
    spec's exit code, stdout, stderr and the reads."""
    reads = []
    for name in ("read_feature_file", "read_ground_truth"):
        monkeypatch.setattr(vecio, name, lambda *a, **k: reads.append(a))
    (tmp_path / "sweep.json").write_text(json.dumps(spec))
    rc = run(["sweep", "--spec", str(tmp_path / "sweep.json"),
              "--out-prefix", str(tmp_path / "sw")])
    out, err = capsys.readouterr()
    assert not (tmp_path / "sw.csv").exists()
    return rc, out, err, reads


@pytest.mark.parametrize("value", [None, 0, 5, "", [], {}],
                         ids=["null", "zero", "five", "empty", "list", "object"])
@pytest.mark.parametrize("key", ["features", "queries", "ground_truth", "train_features"])
def test_sweep_dataset_that_is_no_path_is_data_error(tmp_path, monkeypatch, capsys,
                                                     key, value):
    """A dataset value must be a non-empty path string: a number would be
    opened as a file descriptor (0 as stdin), and null is no path. The spec
    exits 2 naming the key, before its config is echoed and before any
    dataset is read."""
    spec = {"grid": {"W": [1]}, "base": {"scheme": "ifc", "L": 8, "S": 3, "K": 4, "M": 2},
            "datasets": {k: str(tmp_path / f"{k}.fvecs")
                         for k in ("features", "queries", "ground_truth")}}
    spec["datasets"][key] = value
    rc, out, err, reads = _refused_sweep(tmp_path, monkeypatch, capsys, spec)
    assert rc == EXIT_DATA
    assert f"datasets.{key} must be a non-empty path string, got {value!r}" in err
    assert out == "" and reads == []


def test_sweep_unknown_dataset_key_is_data_error(tmp_path, monkeypatch, capsys):
    """A misspelt `train_features` would leave an IFC sweep training on its
    database: the spec exits 2 naming the key, before any dataset is read."""
    spec = {"grid": {"W": [1]}, "base": {"scheme": "ifc", "L": 8, "S": 3, "K": 4, "M": 2},
            "datasets": {k: str(tmp_path / f"{k}.fvecs")
                         for k in ("features", "queries", "ground_truth", "train_feature")}}
    rc, out, err, reads = _refused_sweep(tmp_path, monkeypatch, capsys, spec)
    assert rc == EXIT_DATA
    assert (f"{tmp_path / 'sweep.json'}: spec key datasets.train_feature is not one that "
            "a sweep reads") in err
    assert out == "" and reads == []


def test_sweep_unknown_top_level_key_is_data_error(tmp_path, monkeypatch, capsys):
    """A misspelt `base` beside the real one would be ignored: the spec exits
    2 naming the key, before any dataset is read."""
    spec = {"grid": {"W": [1]}, "base": {"scheme": "tifc", "L": 8, "S": 3},
            "bsae": {"S": 9},
            "datasets": {k: str(tmp_path / f"{k}.fvecs")
                         for k in ("features", "queries", "ground_truth")}}
    rc, out, err, reads = _refused_sweep(tmp_path, monkeypatch, capsys, spec)
    assert rc == EXIT_DATA
    assert f"{tmp_path / 'sweep.json'}: spec key bsae is not one that a sweep reads" in err
    assert out == "" and reads == []


@pytest.mark.parametrize("base, grid, message", [
    ({"L": 8, "S": 3}, {"W": [1]}, "base.scheme must be one of ['ifc', 'tifc'], got None"),
    ({"scheme": "ifcc", "L": 8, "S": 3}, {"W": [1]},
     "base.scheme must be one of ['ifc', 'tifc'], got 'ifcc'"),
    ({"scheme": "ifc", "L": 8, "S": 3, "M": 2}, {"W": [1]},
     "spec has no base.K or grid.K for scheme ifc"),
    ({"scheme": "tifc", "S": 3}, {"S": [2, 4]}, "spec has no base.L or grid.L for scheme tifc"),
], ids=["no-scheme", "unknown-scheme", "no-K", "no-L"])
def test_sweep_whose_every_point_would_fail_is_data_error(tmp_path, monkeypatch, capsys,
                                                          base, grid, message):
    """A spec whose every point would fail the same way (no scheme, an
    unknown one, a build key that neither base nor grid sets) exits 2 naming
    the key, before its config is echoed and before any dataset is read,
    rather than writing a row of errors per point and exiting 0."""
    spec = {"grid": grid, "base": base,
            "datasets": {k: str(tmp_path / f"{k}.fvecs")
                         for k in ("features", "queries", "ground_truth")}}
    rc, out, err, reads = _refused_sweep(tmp_path, monkeypatch, capsys, spec)
    assert rc == EXIT_DATA
    assert f"{tmp_path / 'sweep.json'}: {message}" in err
    assert out == "" and reads == []


def test_unknown_flag_is_usage_error(workspace, capsys):
    rc = run(["build", "--bogus", "1"])
    assert rc == EXIT_USAGE
    capsys.readouterr()


def test_train_features_with_tifc_is_usage_error(tmp_path, capsys):
    # a TIFC build uses no training set: the flag is refused before any file
    # is opened, so the missing file gives no data error
    rc = run([
        "build", "--features", str(tmp_path / "db.fvecs"), "--scheme", "tifc",
        "--train-features", str(tmp_path / "nope.fvecs"), "--out", str(tmp_path / "x.idx"),
    ])
    assert rc == EXIT_USAGE
    assert "--train-features applies to --scheme ifc only" in capsys.readouterr().err
    assert not (tmp_path / "x.idx").exists()


class HeadOne:
    """A stdout read by `head -1`: the first line is taken, and every write
    after it raises BrokenPipeError."""

    def __init__(self):
        self.text = ""

    def write(self, s):
        if "\n" in self.text:
            raise BrokenPipeError(32, "Broken pipe")
        self.text += s
        return len(s)

    def flush(self):
        if "\n" in self.text:
            raise BrokenPipeError(32, "Broken pipe")


def test_closed_stdout_ends_quietly(workspace, tmp_path, monkeypatch, capsys):
    out = HeadOne()
    # put capsys's stream back before capsys is torn down: a setattr undone
    # after that would leave sys.stdout the closed capture stream for every
    # later test when pytest runs with -s
    with monkeypatch.context() as patch:
        patch.setattr(sys, "stdout", out)
        rc = run(["build", "--features", str(workspace / "db.fvecs"), "--scheme", "tifc",
                  "--S", "3", "--L", "8", "--out", str(tmp_path / "t.idx")])
    assert rc == EXIT_OK
    assert out.text.startswith("[build] config: ")
    assert capsys.readouterr().err == ""
    assert invindex.load(tmp_path / "t.idx").indexed_count == 100


def test_closed_stdout_pipe_exits_zero(workspace, tmp_path):
    """The process behind `cnnidx build ... | head -1`, with the reader gone
    before the first write: exit 0 and nothing on stderr. Its stdout is
    block-buffered, so the first write is the flush after the build."""
    src = str(Path(invindex.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    env.pop("PYTHONUNBUFFERED", None)
    proc = subprocess.Popen(
        [sys.executable, "-m", "cnnidx.cli", "build", "--features", str(workspace / "db.fvecs"),
         "--scheme", "tifc", "--S", "3", "--L", "8", "--out", str(tmp_path / "t.idx")],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == EXIT_OK
    assert err == b""
    assert (tmp_path / "t.idx").exists()


def test_missing_file_is_data_error(tmp_path, capsys):
    rc = run([
        "build", "--features", str(tmp_path / "nope.fvecs"),
        "--scheme", "tifc", "--out", str(tmp_path / "x.idx"),
    ])
    assert rc == EXIT_DATA
    assert "data error" in capsys.readouterr().err


@pytest.mark.parametrize("command, flag", [
    ("build", "--features"), ("query", "--index"), ("query", "--queries"),
    ("baseline", "--features"), ("evaluate", "--results")])
def test_directory_for_an_input_file_is_data_error(workspace, tmp_path, capsys, command,
                                                     flag):
    """An input path that names a directory cannot be opened: exit 2, the
    code of every file that cannot be read, not an internal error."""
    invindex.save(invindex.build(vecio.read_feature_file(workspace / "db.fvecs"),
                                 invindex.BuildConfig("tifc", link_count=3, code_length=8)),
                  tmp_path / "t.idx")
    args = {
        "build": {"--features": workspace / "db.fvecs", "--scheme": "tifc",
                  "--out": tmp_path / "x.idx"},
        "query": {"--index": tmp_path / "t.idx", "--queries": workspace / "q.fvecs",
                  "--out": tmp_path / "res"},
        "baseline": {"--method": "bf", "--features": workspace / "db.fvecs",
                     "--queries": workspace / "q.fvecs", "--out": tmp_path / "res"},
        "evaluate": {"--results": tmp_path / "res.ivecs", "--ground-truth": workspace / "gt.txt"},
    }[command]
    args[flag] = tmp_path
    rc = run([command, *[str(x) for kv in args.items() for x in kv]])
    err = capsys.readouterr().err
    assert rc == EXIT_DATA, err
    assert "data error" in err and "IsADirectoryError" not in err


@pytest.mark.parametrize("scheme", ["tifc", "ifc"])
@pytest.mark.parametrize("length", ["0", "-4"])
def test_build_code_length_below_one_is_usage_error(workspace, tmp_path, capsys,
                                                    scheme, length):
    rc = run([
        "build", "--features", str(workspace / "db.fvecs"), "--scheme", scheme,
        "--S", "3", "--L", length, "--K", "4", "--M", "2",
        "--out", str(tmp_path / "x.idx"),
    ])
    assert rc == EXIT_USAGE
    assert f"code_length must be >= 1, got {length}" in capsys.readouterr().err
    assert not (tmp_path / "x.idx").exists()


@pytest.mark.parametrize("scheme, flag, value, message", [
    # the k-means seed and iteration cap, and the table's seed, are no longer settings
    ("ifc", "--kmeans-seed", "-1", "cnnidx: error: unrecognized arguments: --kmeans-seed -1"),
    ("tifc", "--virtual-seed", "0", "cnnidx: error: unrecognized arguments: --virtual-seed 0"),
    ("ifc", "--S", "0", "cnnidx build: error: link_count must be >= 1, got 0"),
    ("ifc", "--K", "0", "cnnidx build: error: words_per_segment must be >= 1, got 0"),
    ("ifc", "--kmeans-iters", "25", "cnnidx: error: unrecognized arguments: --kmeans-iters 25"),
    # IFC trains one k-means run per segment: no restart count
    ("ifc", "--kmeans-restarts", "3",
     "cnnidx: error: unrecognized arguments: --kmeans-restarts 3"),
], ids=["kmeans-seed", "virtual-seed", "S", "K", "kmeans-iters", "kmeans-restarts"])
def test_build_bad_parameter_is_usage_error_before_any_read(tmp_path, capsys, scheme, flag,
                                                            value, message):
    # the features file does not exist: the parameters are refused before it
    # is opened, so its absence gives no data error
    rc = run([
        "build", "--features", str(tmp_path / "nope.fvecs"), "--scheme", scheme,
        "--S", "3", "--L", "8", "--K", "4", "--M", "2", flag, value,
        "--out", str(tmp_path / "x.idx"),
    ])
    assert rc == EXIT_USAGE
    assert message in capsys.readouterr().err
    assert not (tmp_path / "x.idx").exists()


def test_build_huge_segment_count_is_quick_usage_error(tmp_path, capsys):
    """K^M for K = 1000, M = 10^7 would take minutes to compute; the config
    refuses M first, before the features file is opened."""
    t0 = time.perf_counter()
    rc = run(["build", "--features", str(tmp_path / "nope.fvecs"), "--scheme", "ifc",
              "--M", "10000000", "--out", str(tmp_path / "x.idx")])
    assert time.perf_counter() - t0 < 1.0
    assert rc == EXIT_USAGE
    assert "cnnidx build: error: K^M does not fit in a 64-bit word id" in capsys.readouterr().err
    assert not (tmp_path / "x.idx").exists()


@pytest.mark.parametrize("command, flags, message", [
    ("query", ["--topk", "0"], "cnnidx query: error: top_k must be >= 1, got 0"),
    ("query", ["--W", "0"], "cnnidx query: error: assignment_count must be >= 1, got 0"),
    ("query", ["--T", "-1"], "cnnidx query: error: hamming_threshold must be >= 0, got -1"),
    *[("baseline", ["--method", method, "--topk", topk],
       f"cnnidx baseline: error: top_k must be >= 1, got {topk}")
      for method in ("bf", "lsh") for topk in ("0", "-2")],
    ("baseline", ["--method", "lsh", "--bits", "65"],
     "cnnidx baseline: error: bits_per_table must be <= 64, the bits of a bucket key"),
    ("baseline", ["--method", "lsh", "--tables", "0"],
     "cnnidx baseline: error: tables must be >= 1, got 0"),
    # the planes are one fixed draw: no seed flag
    ("baseline", ["--method", "lsh", "--seed", "0"],
     "cnnidx: error: unrecognized arguments: --seed 0"),
], ids=["query-topk", "query-W", "query-T", "bf-topk-0", "bf-topk--2", "lsh-topk-0",
        "lsh-topk--2", "lsh-bits", "lsh-tables", "lsh-seed"])
def test_search_bad_parameter_is_usage_error_before_any_read(tmp_path, capsys, command,
                                                             flags, message):
    """`query` and `baseline` refuse a flag that no index or data could make
    valid by the configs' own checks, as `build` does, before any file is
    opened: none of the input files exists."""
    inputs = (["--index", str(tmp_path / "nope.idx")] if command == "query"
              else ["--features", str(tmp_path / "nope.fvecs")])
    rc = run([command, *inputs, "--queries", str(tmp_path / "nope.fvecs"), *flags,
              "--out", str(tmp_path / "r")])
    assert rc == EXIT_USAGE
    assert message in capsys.readouterr().err
    assert not (tmp_path / "r.ivecs").exists()


@pytest.mark.parametrize("flags, message", [
    (["--T", "9"], "hamming_threshold 9 exceeds code length 8"),
    (["--W", "17"], "assignment count must be in [1, 16]"),
])
def test_query_parameter_beyond_the_index_is_data_error(workspace, tmp_path, capsys, flags,
                                                        message):
    """T <= L and W <= the word count need the index: they stay data errors,
    after the load."""
    assert run(["build", "--features", str(workspace / "db.fvecs"), "--scheme", "tifc",
                "--S", "3", "--L", "8", "--out", str(tmp_path / "x.idx")]) == EXIT_OK
    rc = run(["query", "--index", str(tmp_path / "x.idx"),
              "--queries", str(workspace / "q.fvecs"), *flags, "--out", str(tmp_path / "r")])
    assert rc == EXIT_DATA
    assert message in capsys.readouterr().err


def test_baseline_bf_ignores_the_lsh_flags(workspace, tmp_path):
    """The LSH flags configure nothing of a brute-force run, so their values
    are not checked there."""
    rc = run(["baseline", "--method", "bf", "--features", str(workspace / "db.fvecs"),
              "--queries", str(workspace / "q.fvecs"), "--bits", "65",
              "--out", str(tmp_path / "b")])
    assert rc == EXIT_OK


def test_query_on_malformed_index_is_data_error(workspace, tmp_path, capsys):
    # a CRC-valid file whose first posting id is -1, written at the ids' file
    # width (so as its largest value, outside [0, indexed_count)) from the
    # arrays alone, as no index that holds it can be made
    db = vecio.read_feature_file(workspace / "db.fvecs")
    ix = invindex.build(db, invindex.BuildConfig(scheme="tifc", link_count=3, code_length=8))
    ids = ix.ids.astype(np.int64)
    ids[0] = -1
    write_raw(tmp_path / "bad.idx", ix, section_arrays(ix, ids=ids))
    rc = run([
        "query", "--index", str(tmp_path / "bad.idx"),
        "--queries", str(workspace / "q.fvecs"), "--out", str(tmp_path / "res"),
    ])
    assert rc == EXIT_DATA
    assert "posting ids outside" in capsys.readouterr().err


@pytest.mark.parametrize("scheme", ["tifc", "ifc"])
def test_query_on_cnnidx04_index_asks_for_rebuild(workspace, tmp_path, capsys, scheme):
    db = vecio.read_feature_file(workspace / "db.fvecs")
    ix = invindex.build(db, invindex.build_config(scheme, dict(S=3, L=8, K=4, M=2)))
    write_old_file(ix, tmp_path / "old.idx", "CNNIDX04")
    rc = run(["query", "--index", str(tmp_path / "old.idx"),
              "--queries", str(workspace / "q.fvecs"), "--out", str(tmp_path / "res")])
    assert rc == EXIT_DATA
    assert ("index file in the old CNNIDX04 format; rebuild the index with `cnnidx build`"
            in capsys.readouterr().err)


@pytest.mark.parametrize("scheme", ["tifc", "ifc"])
def test_query_on_cnnidx05_index_asks_for_rebuild(workspace, tmp_path, capsys, scheme):
    db = vecio.read_feature_file(workspace / "db.fvecs")
    ix = invindex.build(db, invindex.build_config(scheme, dict(S=3, L=8, K=4, M=2)))
    write_old_file(ix, tmp_path / "old.idx", "CNNIDX05")
    rc = run(["query", "--index", str(tmp_path / "old.idx"),
              "--queries", str(workspace / "q.fvecs"), "--out", str(tmp_path / "res")])
    assert rc == EXIT_DATA
    assert ("index file in the old CNNIDX05 format; rebuild the index with `cnnidx build`"
            in capsys.readouterr().err)
    assert not (tmp_path / "res.ivecs").exists()


def test_evaluate_perfect_prints_one(tmp_path, capsys):
    vecio.write_int_lists([[0, 1], [2, 3]], tmp_path / "r.ivecs")
    (tmp_path / "gt.txt").write_text("0: 0 1\n1: 2 3\n")
    rc = run(["evaluate", "--results", str(tmp_path / "r.ivecs"),
              "--ground-truth", str(tmp_path / "gt.txt")])
    assert rc == EXIT_OK
    assert "MAP 1.000000" in capsys.readouterr().out


def test_evaluate_repeated_ranked_id_is_data_error(tmp_path, capsys):
    vecio.write_int_lists([[1, 1, 1], [5, 2]], tmp_path / "r.ivecs")
    (tmp_path / "gt.txt").write_text("0: 1\n1: 2\n")
    rc = run(["evaluate", "--results", str(tmp_path / "r.ivecs"),
              "--ground-truth", str(tmp_path / "gt.txt")])
    assert rc == EXIT_DATA
    captured = capsys.readouterr()
    assert "query 0: ranking repeats an id" in captured.err
    assert "MAP" not in captured.out


@pytest.mark.parametrize("timing", [
    [0.1, 0.2],
    {"query_times_s": "0.1"},
    {"query_times_s": [0.1, "0.2"]},
], ids=["top-level-list", "times-string", "times-hold-string"])
def test_malformed_timing_file_is_data_error(tmp_path, capsys, timing):
    vecio.write_int_lists([[0, 1], [2, 3]], tmp_path / "r.ivecs")
    (tmp_path / "gt.txt").write_text("0: 0 1\n1: 2 3\n")
    (tmp_path / "t.json").write_text(json.dumps(timing))
    rc = run(["evaluate", "--results", str(tmp_path / "r.ivecs"),
              "--ground-truth", str(tmp_path / "gt.txt"), "--timing", str(tmp_path / "t.json")])
    assert rc == EXIT_DATA
    assert "query_times_s must be a list of numbers" in capsys.readouterr().err


@pytest.mark.parametrize("times", [
    "[NaN, 1e308, -5]", "[0.1, NaN]", "[0.1, Infinity]", "[-Infinity]", "[0.1, -5]",
    "[1e308, 1e308]", "[1e400]", "[1" + "0" * 400 + "]",
], ids=["mixed", "nan", "inf", "minus-inf", "negative", "sum-overflows", "float-inf",
        "huge-int"])
def test_timing_values_not_finite_seconds_are_data_error(tmp_path, capsys, times):
    """`json.load` reads NaN and Infinity, which a report must not hold."""
    vecio.write_int_lists([[0, 1], [2, 3]], tmp_path / "r.ivecs")
    (tmp_path / "gt.txt").write_text("0: 0 1\n1: 2 3\n")
    (tmp_path / "t.json").write_text('{"query_times_s": %s}' % times)
    rc = run(["evaluate", "--results", str(tmp_path / "r.ivecs"),
              "--ground-truth", str(tmp_path / "gt.txt"), "--timing", str(tmp_path / "t.json"),
              "--out", str(tmp_path / "report.json")])
    assert rc == EXIT_DATA
    assert "query_times_s must be finite, >= 0 and of finite sum" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("times", [[7.0], [0.1] * 6, []], ids=["fewer", "more", "none"])
def test_timing_list_of_other_length_is_data_error(workspace, tmp_path, capsys, times):
    """A timing file must hold one time per result record of the query run."""
    rc = run(["build", "--features", str(workspace / "db.fvecs"), "--scheme", "tifc",
              "--S", "3", "--L", "8", "--out", str(tmp_path / "t.idx")])
    assert rc == EXIT_OK
    rc = run(["query", "--index", str(tmp_path / "t.idx"),
              "--queries", str(workspace / "q.fvecs"), "--out", str(tmp_path / "r")])
    assert rc == EXIT_OK
    (tmp_path / "t.json").write_text(json.dumps({"query_times_s": times}))
    rc = run(["evaluate", "--results", str(tmp_path / "r.ivecs"),
              "--ground-truth", str(workspace / "gt.txt"), "--timing", str(tmp_path / "t.json"),
              "--out", str(tmp_path / "report.json")])
    assert rc == EXIT_DATA
    assert f"{len(times)} query times for 5 result records" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


def test_query_with_no_results_evaluates_to_zero(workspace, tmp_path, capsys):
    # no entry has a Hamming distance below T = 0, so every record is empty
    rc = run(["build", "--features", str(workspace / "db.fvecs"), "--scheme", "tifc",
              "--S", "3", "--L", "8", "--out", str(tmp_path / "t.idx")])
    assert rc == EXIT_OK
    rc = run(["query", "--index", str(tmp_path / "t.idx"),
              "--queries", str(workspace / "q.fvecs"), "--T", "0",
              "--out", str(tmp_path / "res")])
    assert rc == EXIT_OK
    assert [len(r) for r in vecio.read_int_lists(tmp_path / "res.ivecs")] == [0] * 5
    rc = run(["evaluate", "--results", str(tmp_path / "res.ivecs"),
              "--ground-truth", str(workspace / "gt.txt")])
    assert rc == EXIT_OK
    assert "MAP 0.000000" in capsys.readouterr().out


@pytest.mark.parametrize("scheme, flags, echoed", [
    ("tifc", ["--S", "4", "--L", "8"], {"L": 8, "S": 4}),
    ("ifc", ["--S", "3", "--L", "8", "--K", "4", "--M", "2"],
     {"K": 4, "L": 8, "M": 2, "S": 3, "train_features": None}),
])
def test_build_echoes_its_scheme_parameters(workspace, tmp_path, capsys, scheme, flags,
                                            echoed):
    features, out = str(workspace / "db.fvecs"), str(tmp_path / "x.idx")
    rc = run(["build", "--features", features, "--scheme", scheme, *flags, "--out", out])
    assert rc == EXIT_OK
    want = {"features": features, "normalize": False, "out": out, "scheme": scheme, **echoed}
    line = capsys.readouterr().out.splitlines()[0]
    assert line == "[build] config: " + json.dumps(want, sort_keys=True)


def test_normalize_flag_pipeline(workspace, tmp_path):
    rc = run([
        "build", "--features", str(workspace / "db.fvecs"),
        "--scheme", "tifc", "--S", "3", "--L", "8", "--normalize",
        "--out", str(tmp_path / "norm.idx"),
    ])
    assert rc == EXIT_OK
    rc = run([
        "query", "--index", str(tmp_path / "norm.idx"),
        "--queries", str(workspace / "q.fvecs"), "--normalize",
        "--out", str(tmp_path / "norm"),
    ])
    assert rc == EXIT_OK
    cfg = json.loads((tmp_path / "norm.summary.json").read_text())["config"]
    assert cfg["normalize"] is True
