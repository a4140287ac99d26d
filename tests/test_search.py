"""Exhaustive weight-tuple scan: ordering, thresholds, determinism, CSV."""

from __future__ import annotations

import math
import multiprocessing

import pytest

from crankspace import qseries, search
from crankspace.partitions import BoundExceeded
from crankspace.qseries import CrankSpec, bk_spec
from crankspace.search import (
    DEFAULT_SCAN_BOUND,
    SearchResult,
    check_scan_work,
    crank_space,
    exhaustive_search,
    results_to_csv,
    slice_defects,
)
from crankspace.verify import check_family_unimodality, check_first_gap_criterion

from helpers import TABLE1_ROWS, TABLE1_SCAN_BOUND, scan_threshold, spec_slices


class TestCrankSpace:
    def test_sizes_are_binomials(self):
        for k, r in ((3, 2), (4, 2), (5, 3), (6, 3)):
            assert sum(1 for _ in crank_space(k)) == math.comb(k, r)

    def test_row_order_is_frozen(self):
        assert [s.a for s in crank_space(3)] == [(2, 1), (3, 1), (3, 2)]
        assert [s.a for s in crank_space(4)] == [
            (2, 1), (3, 1), (4, 1), (3, 2), (4, 2), (4, 3),
        ]
        fives = [s.a for s in crank_space(5)]
        assert fives[0] == (3, 2, 1) and fives[-1] == (5, 4, 3)

    def test_row_order_matches_reference_table(self):
        generated = [
            (k, spec.a) for k in (3, 4, 5, 6) for spec in crank_space(k)
        ]
        assert generated == [(k, a) for k, a, _ in TABLE1_ROWS]

    def test_specs_are_inside_search_space(self):
        for k in (3, 4, 5, 6):
            for spec in crank_space(k):
                assert max(spec.a) <= k
                assert spec.k == k


class TestThresholdScan:
    def test_reference_spot_rows(self):
        assert scan_threshold(CrankSpec(3, (2, 1))).threshold == 7
        assert scan_threshold(CrankSpec(4, (4, 3))).threshold == 23
        assert scan_threshold(CrankSpec(6, (6, 5, 3))).threshold == 32

    def test_divergent_row(self):
        res = scan_threshold(CrankSpec(3, (3, 1)))
        assert res.threshold is None
        assert not res.eventually_unimodal
        assert res.largest_nonunimodal == res.n_hi - 1 == 74

    def test_threshold_invariant(self):
        res = scan_threshold(CrankSpec(3, (2, 1)), 40)
        slices = dict(spec_slices(res.spec, range(40)))
        m = res.threshold
        assert m == 0 or not slices[m].is_unimodal()
        for n in range(m + 1, 40):
            assert slices[n].is_unimodal()

    def test_zero_threshold_means_unimodal_from_the_start(self):
        res = scan_threshold(CrankSpec(4, (2, 1)), 30)
        assert res.threshold == 1
        slices = dict(spec_slices(res.spec, range(30)))
        assert all(slices[n].is_unimodal() for n in range(2, 30))

    def test_larger_bound_never_lowers_the_threshold(self):
        spec = CrankSpec(3, (2, 1))
        small = scan_threshold(spec, 20)
        large = scan_threshold(spec, TABLE1_SCAN_BOUND)
        assert small.threshold == large.threshold == 7

    def test_restart_can_flip_divergence_verdict(self):
        spec = CrankSpec(4, (4, 3))
        short = scan_threshold(spec, 20)
        full = scan_threshold(spec, TABLE1_SCAN_BOUND)
        assert not short.eventually_unimodal  # still failing at the horizon
        assert full.eventually_unimodal and full.threshold == 23
        assert full.threshold >= short.largest_nonunimodal

    def test_bound_validation(self):
        with pytest.raises(ValueError):
            scan_threshold(CrankSpec(3, (2, 1)), 1)
        with pytest.raises(ValueError, match="n_hi"):
            slice_defects([CrankSpec(3, (2, 1))], 1)

    def test_default_bound(self):
        assert DEFAULT_SCAN_BOUND == TABLE1_SCAN_BOUND == 75


class TestExhaustiveSearch:
    def test_row_count_and_order(self):
        results = exhaustive_search(3, 4, n_hi=30)
        assert [(r.spec.k, r.spec.a) for r in results] == [
            (k, a) for k, a, _ in TABLE1_ROWS if k in (3, 4)
        ]
        assert all(r.n_hi == 30 for r in results)

    def test_k_range_validation(self):
        with pytest.raises(ValueError):
            exhaustive_search(2, 6)
        with pytest.raises(ValueError):
            exhaustive_search(5, 4)

    @pytest.mark.parametrize("ranges", [
        {}, {"k_lo": 3, "k_hi": 4, "n_hi": 40}, {"k_lo": 7, "k_hi": 8, "n_hi": 60},
        {"k_lo": 5, "k_hi": 4},
    ])
    def test_scan_bound_admits_the_documented_scans(self, ranges):
        check_scan_work(**ranges)

    @pytest.mark.parametrize("ranges", [
        {"k_hi": 30}, {"n_hi": 100000}, {"k_lo": 10**9, "k_hi": 10**9}, {"k_lo": 3, "k_hi": 10**18},
    ])
    def test_scan_bound_refuses_large_scans(self, ranges):
        with pytest.raises(BoundExceeded, match="scan work bound"):
            check_scan_work(**ranges)

    def test_worker_count_does_not_change_results(self):
        serial = exhaustive_search(3, 6, n_hi=30, threads=1)
        pooled = exhaustive_search(3, 6, n_hi=30, threads=2)
        assert serial == pooled
        assert results_to_csv(serial) == results_to_csv(pooled)
        serial = check_family_unimodality(n_hi=30, threads=1)
        pooled = check_family_unimodality(n_hi=30, threads=2)
        assert serial._replace(elapsed_s=0) == pooled._replace(elapsed_s=0)

    @pytest.mark.parametrize("scan,builds", [
        (lambda: exhaustive_search(3, 6, n_hi=20, threads=1), 26),  # of 39 specs
        (lambda: check_family_unimodality(n_hi=20, threads=1), 8),  # of 13 families
    ], ids=["table1-tuples", "families"])
    def test_each_weight_tuple_is_packed_once(self, monkeypatch, scan, builds):
        packed = []
        build = qseries.iter_ck_slices
        monkeypatch.setattr(qseries, "iter_ck_slices", lambda a, *args: packed.append(a) or build(a, *args))
        scan()
        assert len(packed) == len(set(packed)) == builds

    def test_repeated_and_shared_specs_get_their_own_lists(self):
        odd, even = CrankSpec(3, (3, 2)), CrankSpec(4, (3, 2))
        [once] = slice_defects([odd], 30, threads=1)
        assert slice_defects([odd, even, odd], 30, threads=1) == [
            once, slice_defects([even], 30, threads=1)[0], once]

    def test_csv_shape(self):
        rows = results_to_csv(exhaustive_search(3, 3, n_hi=75)).splitlines()
        assert rows[0] == "k,a_vector,threshold,n_hi"
        assert rows[1] == '3,"(2,1)",7,75'
        assert rows[2] == '3,"(3,1)",-,75'
        assert rows[3] == '3,"(3,2)",6,75'

    def test_library_call_refuses_an_oversized_scan_before_scanning(self, monkeypatch):
        calls = []
        monkeypatch.setattr(search, "slice_defects", lambda *args, **kwargs: calls.append(args) or [])
        with pytest.raises(BoundExceeded, match="scan work bound"):
            exhaustive_search(3, 3, 10**6)
        assert calls == []

    def test_result_json_roundtrip(self):
        for res in exhaustive_search(3, 3, n_hi=20):
            data = res.to_json_dict()
            back = SearchResult(CrankSpec(data["k"], data["a"]), data["n_hi"],
                                data["largest_nonunimodal"])
            assert back == res
            # the written verdicts are the ones the scan implies
            assert (data["threshold"], data["eventually_unimodal"]) == (
                back.threshold, back.eventually_unimodal)
            assert data["k"] == 3 and isinstance(data["a"], list)


class TestCriteria:
    def test_first_gap_criterion_on_small_slice(self, monkeypatch):
        monkeypatch.setattr(search, "exhaustive_search",
                            lambda n_hi, threads: exhaustive_search(3, 4, n_hi, threads))
        rep = check_first_gap_criterion()
        assert rep.status == "pass"
        assert "k in [3, 4]" in rep.range

    def test_first_gap_mismatches_are_informative_at_a_finite_bound(self, monkeypatch):
        # neither mismatch is decided below n_hi: a tuple may still turn
        # unimodal past it, or fail again past it
        monkeypatch.setattr(search, "exhaustive_search", lambda n_hi, threads: [
            SearchResult(CrankSpec(3, (3, 1)), n_hi, None),  # unimodal, no adjacent pair
            SearchResult(CrankSpec(3, (2, 1)), n_hi, n_hi - 1),  # adjacent pair, top slice not unimodal
        ])
        rep = check_first_gap_criterion(n_hi=20)
        assert rep.status == "partial"
        assert [c.params["kind"] for c in rep.counterexamples] == [
            "unimodal-without-adjacent-pair", "adjacent-pair-not-unimodal"]
        assert not any(c.params["within_claim"] for c in rep.counterexamples)

    def test_family_scan_small_range(self):
        rep = check_family_unimodality(n_hi=30)
        assert rep.status == "pass"
        assert "onsets" in rep.range

    def test_family_scan_includes_second_family_for_odd_k(self, monkeypatch):
        scanned = []
        scan = search.slice_defects
        monkeypatch.setattr(search, "slice_defects",
                            lambda specs, *args: scanned.extend(specs) or scan(specs, *args))
        rep = check_family_unimodality(n_hi=30)
        assert rep.status == "pass"
        assert {bk_spec(k) for k in (7, 9, 11)} <= set(scanned)

    @pytest.mark.parametrize("n_hi", [1, -5])
    def test_family_scan_of_no_slices_raises(self, n_hi):
        with pytest.raises(ValueError, match="n_hi"):
            check_family_unimodality(n_hi=n_hi)


def no_pool(size):
    raise AssertionError(f"pool of {size} requested")


class TestThreadConfig:
    def test_fallback_is_positive(self, monkeypatch):
        # threads=None falls back to the usable CPUs; with no affinity mask and
        # an unknown CPU count that means one worker, run in-process, never a
        # pool of zero.
        monkeypatch.setattr(multiprocessing, "Pool", no_pool)
        monkeypatch.delattr(search.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(search.os, "cpu_count", lambda: None)
        assert search._pool_map(abs, [-3, -1, -2], threads=None) == [3, 1, 2]

    def test_one_cpu_in_the_affinity_mask_starts_no_pool(self, monkeypatch):
        # a `taskset -c 0` run: more CPUs exist, but the process may use one
        monkeypatch.setattr(multiprocessing, "Pool", no_pool)
        monkeypatch.setattr(search.os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(search.os, "cpu_count", lambda: 8)
        assert search._pool_map(abs, [-3, -1, -2], threads=2) == [3, 1, 2]
        assert search._pool_map(abs, [-3, -1, -2], threads=None) == [3, 1, 2]

    def test_pool_size_is_capped_at_cpu_count(self, monkeypatch):
        requested = []

        class FakePool:
            def __init__(self, size):
                requested.append(size)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return [fn(t) for t in tasks]

        monkeypatch.setattr(multiprocessing, "Pool", FakePool)
        monkeypatch.setattr(search.os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
        monkeypatch.setattr(search.os, "cpu_count", lambda: 8)
        assert search._pool_map(abs, list(range(-8, 0)), threads=64) == list(range(8, 0, -1))
        assert search._pool_map(abs, [-1, -2], threads=64) == [1, 2]
        assert search._pool_map(abs, list(range(-8, 0)), threads=None) == list(range(8, 0, -1))
        assert requested == [3, 2, 3]
