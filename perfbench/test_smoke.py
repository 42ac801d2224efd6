"""Toy-size smoke test of the benchmark itself.

    python3 -m pytest perfbench/test_smoke.py -q

Runs the whole pipeline (data, worker process, checks, metrics) on toy
workloads in a few seconds, and checks that the answer checks catch broken
answers.
"""

import json

import numpy as np
import pytest

import datagen
import run
import spans

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())

TOY = {
    "toy-ifc": dict(n=600, dim=16, scheme="ifc", K=8, M=2, L=8, S=4, W=4, T=3,
                    top_k=10, recall_floor=0.0, cycles=2),
    "toy-tifc": dict(n=600, dim=64, scheme="tifc", K=None, M=None, L=16, S=4, W=4, T=6,
                     top_k=10, recall_floor=0.0, cycles=2),
}


@pytest.fixture
def toy(monkeypatch):
    monkeypatch.setattr(run, "WORKLOADS", TOY)
    monkeypatch.setattr(run, "N_QUERIES", 40)


def test_untraced_run_reports_every_end_to_end_metric(toy):
    rec = run.run("toy-ifc", seed=3, seconds=1, trace=False)
    res = rec["result"]
    assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0
    names = [m["name"] for m in BENCHMARK["end_to_end"]]
    assert list(res["metrics"]) == names
    for m in BENCHMARK["end_to_end"]:
        assert res["metrics"][m["name"]]["unit"] == m["unit"]
        assert res["metrics"][m["name"]]["value"] > 0
    assert rec["batch_calls"] >= run.BUILDS


def test_traced_run_reports_every_per_layer_metric(toy):
    rec = run.run("toy-tifc", seed=3, seconds=1, trace=True)
    res = rec["result"]
    assert res["correct"] and not rec["absent"]
    for m in BENCHMARK["per_layer"]:
        assert res["metrics"][m["name"]]["unit"] == m["unit"], m["name"]
    metrics = res["metrics"]
    assert metrics["search.lists_probed"]["value"] == 4
    assert metrics["tifc.make_virtual_words.calls"]["value"] > 0
    assert metrics["pq.train.calls"]["value"] == 0


def test_tracer_wraps_imported_names_and_reports_missing_ones(monkeypatch):
    monkeypatch.syspath_prepend(str(run.SRC))
    from cnnidx import embed, search

    monkeypatch.setitem(spans.TARGETS, "search", ["query", "no_such_function"])
    original = search.hamming_to_many
    tracer = spans.Tracer()
    assert tracer.absent == ["search.no_such_function"]
    tracer.install()
    try:
        assert search.hamming_to_many is not original
        assert embed.hamming_to_many is search.hamming_to_many
    finally:
        tracer.uninstall()
    assert search.hamming_to_many is original and embed.hamming_to_many is original


def _answers(ids, votes, ham):
    a = {"ids": np.array([ids]), "votes": np.array([votes]), "hamming": np.array([ham])}
    a["lengths"] = (a["ids"] >= 0).sum(-1)
    return a


@pytest.mark.parametrize("ids, votes, ham, ordered, bounded", [
    ([4, 2, 9, -1], [3, 3, 1, -1], [0, 1, 2, -1], True, True),
    ([4, 2, -1, -1], [1, 3, -1, -1], [0, 0, -1, -1], False, True),   # votes ascend
    ([4, 2, -1, -1], [3, 3, -1, -1], [2, 1, -1, -1], False, True),   # Hamming descends
    ([4, 2, -1, -1], [3, 3, -1, -1], [1, 1, -1, -1], False, True),   # id tie-break
    ([4, 100, -1, -1], [3, 2, -1, -1], [1, 1, -1, -1], True, False),  # id >= n
    ([4, 2, -1, -1], [5, 2, -1, -1], [1, 1, -1, -1], True, False),   # votes > W
    ([4, 2, -1, -1], [3, 2, -1, -1], [1, 3, -1, -1], True, False),   # Hamming >= T
])
def test_checks_catch_broken_answers(ids, votes, ham, ordered, bounded):
    got_ordered, got_bounded = run.check_results(_answers(ids, votes, ham), n=10, w=4, t=3, k=4)
    assert bool(got_ordered[0]) == ordered
    assert bool(got_bounded[0]) == bounded


def test_more_entries_than_top_k_is_out_of_bounds():
    a = _answers([4, 2], [3, 2], [0, 0])
    a["lengths"] = np.array([3])
    assert not run.check_results(a, n=10, w=4, t=3, k=2)[1][0]


def test_data_repeats_per_seed_and_ground_truth_is_exact():
    db, q = datagen.hard_vectors(5, 300, 20, 16)
    db2, q2 = datagen.hard_vectors(5, 300, 20, 16)
    assert np.array_equal(db, db2) and np.array_equal(q, q2)
    assert (db >= 0).all() and 0 < (db == 0).mean() < 1
    truth = datagen.exact_top_k(db, q, 10, chunk=7)
    d = ((q[:, None, :].astype(np.float64) - db[None]) ** 2).sum(-1)
    for i in range(len(q)):
        expect = sorted(range(len(db)), key=lambda j: (d[i, j], j))[:10]
        assert np.allclose(d[i, truth[i]], d[i, expect])
