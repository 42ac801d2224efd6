"""The stage scripts under `scripts/` copy `invindex.load`, `search.query`
and `search._scan` stage by stage to time each stage. Each copy checks its
answers against the real function and raises on a mismatch, so running them
here on small indexes fails the suite when a copy drifts."""

import importlib.util
import sys
from pathlib import Path

import pytest

from cnnidx import invindex, vecio
from cnnidx.search import QueryConfig
from cnnidx.vecio import SynthSpec

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


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


def test_bench_load_stages_match_load(index, tmp_path):
    bench_load = load_script("bench_load")
    path = tmp_path / "x.idx"
    invindex.save(index, path)
    medians = bench_load.stage_medians(path, loads=1)
    assert set(medians) == set(bench_load.STAGES)


def test_bench_query_stages_match_query(index, small_dataset):
    bench_query_stages = load_script("bench_query_stages")
    cfg = QueryConfig(assignment_count=3, hamming_threshold=6, top_k=10)
    medians = bench_query_stages.stage_medians(index, small_dataset[1].vectors, cfg, passes=1)
    assert set(medians) == set(bench_query_stages.STAGES)


def test_bench_criterion7_stages_match_scan():
    """The criterion's query configuration (W = 40, T = 11, L = 32) on a
    small IFC index of 64 words."""
    bench_criterion7 = load_script("bench_criterion7")
    db, queries, _ = vecio.generate_synthetic(SynthSpec(10, 20, 32, 1.0, 0.1, seed=5))
    ix = invindex.build(db, invindex.build_config("ifc", dict(S=4, L=32, K=8, M=2)))
    stages, scanned, kept = bench_criterion7.stage_times(ix, queries)
    assert set(stages) == set(bench_criterion7.STAGES)
    assert scanned > 0
