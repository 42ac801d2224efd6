import re
import time

import numpy as np
import pytest

from cnnidx import baseline, evaluation, invindex, pq, vecio
from cnnidx.evaluation import SweepSpec, average_precision
from cnnidx.pq import PqConfig
from cnnidx.vecio import DataError, FeatureSet, SynthSpec


def ap_direct(ranked, relevant):
    """Independent AP definition: sum of precision at each relevant position,
    divided by the relevant-set size."""
    total = 0.0
    for pos in range(len(ranked)):
        if ranked[pos] in relevant:
            retrieved_so_far = ranked[: pos + 1]
            rel_so_far = sum(1 for r in retrieved_so_far if r in relevant)
            total += rel_so_far / (pos + 1)
    return total / len(relevant)


class TestAveragePrecision:
    def test_perfect_ranking(self):
        assert average_precision([4, 2, 9], {4, 2, 9}) == 1.0

    def test_worked_example_5_6(self):
        # relevant at ranks 1 and 3 of 2 relevant total
        assert average_precision([7, 0, 8, 1], {7, 8}) == pytest.approx(5 / 6)

    def test_nothing_retrieved(self):
        assert average_precision([1, 2, 3], {9}) == 0.0

    def test_unretrieved_relevant_penalized(self):
        assert average_precision([5], {5, 6}) == pytest.approx(0.5)

    def test_empty_relevant_rejected(self):
        with pytest.raises(ValueError):
            average_precision([1], set())

    def test_repeated_id_rejected(self):
        """Counted at each of its ranks, [1, 1, 1] would score 3.0."""
        with pytest.raises(ValueError, match="ranking repeats an id"):
            average_precision([1, 1, 1], {1})
        with pytest.raises(ValueError, match="ranking repeats an id"):
            average_precision(iter([4, 2, 4]), {2})

    def test_matches_direct_definition_on_random_rankings(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            n = int(rng.integers(1, 30))
            ranked = list(rng.permutation(n)[: rng.integers(1, n + 1)])
            relevant = set(rng.choice(n, size=int(rng.integers(1, n + 1)),
                                      replace=False).tolist())
            assert average_precision(ranked, relevant) == ap_direct(ranked, relevant)


class TestEvaluate:
    def test_map_is_mean_of_aps(self):
        results = {0: [0, 1], 1: [9, 8]}
        gt = {0: {0, 1}, 1: {5}}
        report = evaluation.evaluate(results, gt)
        assert report.map == pytest.approx(0.5)
        assert report.per_query_ap == {0: 1.0, 1: 0.0}

    def test_missing_query_rejected(self):
        with pytest.raises(DataError, match="missing results"):
            evaluation.evaluate({0: [1]}, {0: {1}, 1: {2}})

    def test_repeated_ranked_id_rejected(self):
        """Counted at each rank, a repeated relevant id would lift AP above 1."""
        with pytest.raises(DataError, match="query 0: ranking repeats an id"):
            evaluation.evaluate({0: [1, 1, 1], 1: [5, 2]}, {0: {1}, 1: {2}})
        with pytest.raises(DataError, match="query 1: ranking repeats an id"):
            evaluation.evaluate({0: [1], 1: [5, 2, 5]}, {0: {1}, 1: {2}})

    def test_bf_on_zero_noise_synth_has_source_at_rank_1(self):
        db, queries, gt = vecio.generate_synthetic(
            SynthSpec(10, 10, 16, 1.0, 0.0, seed=4))
        results = {}
        for qid, q in enumerate(queries.vectors):
            results[qid] = baseline.brute_force(db, q, 10)
            assert results[qid][0] in gt[qid]
        report = evaluation.evaluate(results, gt)
        assert report.map == pytest.approx(1.0)

    def test_timing_and_scan_fields(self):
        report = evaluation.evaluate({0: [1]}, {0: {1}},
                                     query_times=[0.5, 1.5],
                                     candidate_counts=[10, 30],
                                     database_size=100)
        assert report.mean_query_time == pytest.approx(1.0)
        assert report.scan_fraction == pytest.approx(0.2)

    def test_efficiency_fields_unknown_without_inputs(self):
        report = evaluation.evaluate({0: [1]}, {0: {1}}, candidate_counts=[10])
        assert report.mean_query_time is None
        assert report.scan_fraction is None  # no database size to divide by
        assert report.index_bytes is None

    def test_self_exclusion(self):
        results = {0: [0, 5, 6]}
        gt = {0: {0, 5}}
        keep = evaluation.evaluate(results, gt)
        drop = evaluation.evaluate(results, gt, exclude_self=True)
        assert keep.map == pytest.approx(1.0)
        assert drop.map == pytest.approx(1.0)  # 5 moves to rank 1 after drop

    def test_exclude_self_drops_each_query_id(self):
        """Each query's own id leaves its ranking and its relevant set; a
        query relevant only to itself is not scored."""
        results = {0: [0, 6, 5], 1: [2, 1, 0], 2: [2, 3]}
        gt = {0: {0, 5}, 1: {1, 2}, 2: {2}}
        keep = evaluation.evaluate(results, gt)
        drop = evaluation.evaluate(results, gt, exclude_self=True)
        assert keep.per_query_ap == pytest.approx({0: 5 / 6, 1: 1.0, 2: 1.0})
        # query 0: [6, 5] against {5}; query 1: [2, 0] against {2}
        assert drop.per_query_ap == pytest.approx({0: 0.5, 1: 1.0})
        assert drop.map == pytest.approx(0.75)

    def test_map_in_unit_interval(self):
        rng = np.random.default_rng(1)
        results = {q: list(rng.permutation(50)[:10]) for q in range(20)}
        gt = {q: set(rng.choice(50, 5, replace=False).tolist()) for q in range(20)}
        report = evaluation.evaluate(results, gt)
        assert 0.0 <= report.map <= 1.0
        assert all(0.0 <= ap <= 1.0 for ap in report.per_query_ap.values())


@pytest.fixture(scope="module")
def data():
    return vecio.generate_synthetic(SynthSpec(5, 20, 16, 1.0, 0.1, seed=8))


class TestSweep:
    BASE = {"scheme": "ifc", "L": 8, "S": 3, "W": 3, "T": 4,
            "K": 4, "M": 2, "top_k": 20}
    TIFC_BASE = {"scheme": "tifc", "L": 8, "S": 3, "W": 3, "T": 4, "top_k": 20}

    def test_threshold_boundary_rows(self, data):
        db, queries, gt = data
        spec = SweepSpec(grid={"T": [0, 8]}, base=self.BASE)
        rows = evaluation.sweep(spec, db, queries, gt)
        assert len(rows) == 2
        assert rows[0]["map"] == 0.0
        assert rows[1]["map"] > 0.0

    def test_candidates_monotone_in_w(self, data):
        db, queries, gt = data
        spec = SweepSpec(grid={"W": [1, 2, 4]}, base=self.BASE)
        rows = evaluation.sweep(spec, db, queries, gt)
        fracs = [r["scan_fraction"] for r in rows]
        assert fracs == sorted(fracs)

    def test_bad_point_reported_and_run_continues(self, data):
        db, queries, gt = data
        spec = SweepSpec(grid={"T": [4, 99]}, base=self.BASE)
        rows = evaluation.sweep(spec, db, queries, gt)
        assert "map" in rows[0]
        assert "error" in rows[1]

    @pytest.mark.parametrize("key, value, message", [
        ("T", 6.9, "hamming_threshold must be an integer, got 6.9"),
        ("W", "3", "assignment_count must be an integer, got '3'"),
        ("L", 8.9, "code_length must be an integer, got 8.9"),
        ("K", True, "words_per_segment must be an integer, got True"),
    ])
    def test_non_integer_point_is_a_row_error(self, data, key, value, message):
        """A value is never truncated: T = 6.9 does not run as T = 6."""
        db, queries, gt = data
        spec = SweepSpec(grid={key: [4, value]}, base=self.BASE)
        good, bad = evaluation.sweep(spec, db, queries, gt)
        assert "map" in good and "error" not in good
        assert "map" not in bad and message in bad["error"]

    def test_tifc_training_set_is_a_row_error(self, data):
        """A TIFC build reads no training set, so a sweep that gives one
        reports the refusal in every row rather than ignoring the set."""
        db, queries, gt = data
        spec = SweepSpec(grid={"W": [1, 3]}, base={"scheme": "tifc", "L": 8, "S": 3, "T": 4})
        rows = evaluation.sweep(spec, db, queries, gt, training=db)
        assert [row["error"] for row in rows] == [
            "ValueError: a TIFC build takes no training set"] * 2

    def test_huge_segment_count_is_a_row_error(self, data):
        """K^M for M = 10^7 is never computed: the point fails at once."""
        db, queries, gt = data
        t0 = time.perf_counter()
        (row,) = evaluation.sweep(SweepSpec(grid={"M": [10**7]}, base=self.BASE),
                                  db, queries, gt)
        assert time.perf_counter() - t0 < 1.0
        assert "K^M does not fit in a 64-bit word id" in row["error"]

    def test_small_training_set_is_a_row_error(self, data):
        """A DataError of one point, too few training vectors for its K, is
        reported in its row as a ValueError is."""
        db, queries, gt = data
        spec = SweepSpec(grid={"K": [4, 16]}, base=self.BASE)
        good, bad = evaluation.sweep(spec, db, queries, gt, training=FeatureSet(db.vectors[:10]))
        assert "map" in good and "error" not in good
        assert bad["error"] == "DataError: need at least 16 training vectors, got 10"

    def test_internal_error_ends_the_sweep(self, data, monkeypatch):
        """An exception other than a ValueError or a DataError is a fault of
        the program, not of a point: it leaves the sweep as it was raised."""
        db, queries, gt = data
        boom = IndexError("index 7 is out of bounds")

        def broken_build(*args, **kwargs):
            raise boom

        monkeypatch.setattr(invindex, "build", broken_build)
        with pytest.raises(IndexError) as info:
            evaluation.sweep(SweepSpec(grid={"W": [1, 3]}, base=self.BASE), db, queries, gt)
        assert info.value is boom

    def test_base_build_settings_reach_training(self, data, monkeypatch):
        db, queries, gt = data
        trained, train = [], pq.train

        def recording_train(training, cfg):
            trained.append(cfg)
            return train(training, cfg)

        monkeypatch.setattr(pq, "train", recording_train)
        base = dict(self.BASE, K=3)
        rows = evaluation.sweep(SweepSpec(grid={"W": [1, 3]}, base=base), db, queries, gt)
        assert all("map" in row for row in rows)
        # one build serves both points
        assert trained == [PqConfig(segments=2, words_per_segment=3)]

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            SweepSpec(grid={}, base=self.BASE)
        with pytest.raises(ValueError):
            SweepSpec(grid={"T": []}, base=self.BASE)

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ValueError):
            SweepSpec(grid={"bogus": [1]}, base=self.BASE)

    @pytest.mark.parametrize("key", ["kmeans_restarts", "kmeans_iter", "virtual_word_seed",
                                     "kmeans_seed", "kmeans_iters"])
    def test_base_key_that_no_point_reads_rejected(self, key):
        """A misspelt or retired setting would build with the default and
        say nothing, so the spec is refused, naming the key."""
        with pytest.raises(ValueError, match=f"'{key}'"):
            SweepSpec(grid={"W": [1]}, base={**self.BASE, key: 3})
        # every key a point reads passes
        for base in (self.BASE, self.TIFC_BASE):
            SweepSpec(grid={"W": [1]}, base=base)

    @pytest.mark.parametrize("grid, base, message", [
        ({"W": [1]}, {"K": 4}, "sweep base keys ['K'] are read by no tifc point"),
        ({"K": [4, 8]}, {}, "sweep grid keys ['K'] are read by no tifc point"),
        ({"M": [2], "S": [1]}, {}, "sweep grid keys ['M'] are read by no tifc point"),
    ])
    def test_key_that_the_scheme_does_not_read_rejected(self, grid, base, message):
        """A TIFC point reads no K or M: a spec that sets one, in base or
        grid, would label identical points with different values."""
        with pytest.raises(ValueError, match=re.escape(message)):
            SweepSpec(grid=grid, base={**self.TIFC_BASE, **base})

    @pytest.mark.parametrize("drop, scheme, message", [
        ("scheme", None, "base.scheme must be one of ['ifc', 'tifc'], got None"),
        (None, "IFC", "base.scheme must be one of ['ifc', 'tifc'], got 'IFC'"),
        (None, ["ifc"], "base.scheme must be one of ['ifc', 'tifc'], got ['ifc']"),
        ("K", "ifc", "spec has no base.K or grid.K for scheme ifc"),
        ("L", "tifc", "spec has no base.L or grid.L for scheme tifc"),
    ])
    def test_spec_whose_every_point_fails_rejected(self, drop, scheme, message):
        """Without a known scheme, or with a build key that neither base nor
        grid sets, every point would fail alike: the spec is refused."""
        base = {k: v for k, v in (self.TIFC_BASE if scheme == "tifc" else self.BASE).items()
                if k != drop}
        if scheme is not None:
            base["scheme"] = scheme
        with pytest.raises(ValueError, match=re.escape(message)):
            SweepSpec(grid={"W": [1]}, base=base)
        if drop not in (None, "scheme"):  # the grid may set the key instead
            SweepSpec(grid={drop: [4]}, base=base)

    def test_csv_and_json_outputs(self, data, tmp_path):
        db, queries, gt = data
        spec = SweepSpec(grid={"W": [1, 2]}, base=self.BASE)
        rows = evaluation.sweep(spec, db, queries, gt)
        evaluation.write_sweep_csv(rows, tmp_path / "s.csv")
        vecio.write_json(rows, tmp_path / "s.json")
        lines = (tmp_path / "s.csv").read_text().strip().splitlines()
        assert len(lines) == 3  # header + 2 rows
        assert "map" in lines[0] and "scan_fraction" in lines[0]
        import json
        loaded = json.loads((tmp_path / "s.json").read_text())
        assert len(loaded) == 2 and "per_query_ap" in loaded[0]
