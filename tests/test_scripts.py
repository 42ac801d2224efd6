"""The stage scripts under `scripts/` copy `invindex.load`, `search.query`
and `search._scan` stage by stage to time each stage. Each copy checks its
answers against the real function and raises on a mismatch, so running them
here on small indexes fails the suite when a copy drifts. Each timing comes
raw and divided by its pass's host factor (`scripts/hostfactor.py`)."""

import importlib.util
import sys
import time
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


def check_columns(timings, stages, factor=None):
    """Every stage has a raw and a host-corrected timing, both positive, and
    with a known factor the corrected one is the raw one over it."""
    assert set(timings) == set(stages)
    for raw, corrected in timings.values():
        assert raw > 0 and corrected > 0
        if factor is not None:
            assert corrected == pytest.approx(raw / factor, rel=1e-12)


def test_bench_load_stages_match_load(index, tmp_path):
    bench_load = load_script("bench_load")
    path = tmp_path / "x.idx"
    invindex.save(index, path)
    check_columns(bench_load.stage_medians(path, loads=1), bench_load.STAGES)


def test_bench_query_stages_match_query(index, small_dataset):
    bench_query_stages = load_script("bench_query_stages")
    cfg = QueryConfig(assignment_count=3, hamming_threshold=6, top_k=10)
    medians = bench_query_stages.stage_medians(index, small_dataset[1].vectors, cfg, passes=1)
    check_columns(medians, bench_query_stages.STAGES)


def criterion7_case():
    """The criterion's query configuration (W = 40, T = 11, L = 32) on a
    small IFC index of 64 words."""
    db, queries, _ = vecio.generate_synthetic(SynthSpec(10, 20, 32, 1.0, 0.1, seed=5))
    return invindex.build(db, invindex.build_config("ifc", dict(S=4, L=32, K=8, M=2))), queries


def test_bench_criterion7_stages_match_scan():
    bench_criterion7 = load_script("bench_criterion7")
    stages, scanned, kept = bench_criterion7.stage_times(*criterion7_case())
    check_columns(stages, bench_criterion7.STAGES)
    assert scanned > 0


def test_stage_scripts_divide_by_host_factor(ifc_index, small_dataset, tmp_path,
                                             monkeypatch):
    """With every host sample at twice `hostref.REF_QUERY_S`, each pass's
    factor is 2, and every corrected timing is its raw one halved."""
    hostref = load_script("hostfactor").hostref

    def sample(self):
        self.times.append(time.perf_counter())
        self.seconds.append(2 * hostref.REF_QUERY_S)

    monkeypatch.setattr(hostref.HostRef, "sample", sample)
    bench_load = load_script("bench_load")
    path = tmp_path / "x.idx"
    invindex.save(ifc_index, path)
    check_columns(bench_load.stage_medians(path, loads=3), bench_load.STAGES, 2.0)
    bench_query_stages = load_script("bench_query_stages")
    cfg = QueryConfig(assignment_count=3, hamming_threshold=6, top_k=10)
    medians = bench_query_stages.stage_medians(ifc_index, small_dataset[1].vectors, cfg,
                                               passes=2)
    check_columns(medians, bench_query_stages.STAGES, 2.0)
    bench_criterion7 = load_script("bench_criterion7")
    stages = bench_criterion7.stage_times(*criterion7_case())[0]
    check_columns(stages, bench_criterion7.STAGES, 2.0)
