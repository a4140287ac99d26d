"""Exhaustive weight-tuple scan: ordering, thresholds, determinism, CSV."""

from __future__ import annotations

import contextlib
import itertools
import math
import os
import signal
import time
import weakref

import pytest

from crankspace import cli, qseries, search, verify
from crankspace.laurent import CrankspaceError, LaurentPoly
from crankspace.partitions import BoundExceeded
from crankspace.qseries import CrankSpec, SlotOverflow, bk_spec
from crankspace.search import (
    DEFAULT_SCAN_BOUND,
    SearchResult,
    check_scan_work,
    crank_space,
    exhaustive_search,
    results_to_csv,
    slice_defects,
)
from crankspace.verify import check_family_unimodality, check_first_gap_criterion, run_plan

from helpers import TABLE1_ROWS, TABLE1_SCAN_BOUND, count_windowed_pushes, scan_threshold, spec_slices


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

    def test_generated_tuples_equal_the_validated_construction(self):
        for k in range(3, 13):
            r = (k + k % 2) // 2
            specs = list(crank_space(k))
            assert specs == [CrankSpec(k, combo[::-1]) for combo in itertools.combinations(range(1, k + 1), r)]
            assert all(type(spec) is CrankSpec and type(spec.a) is tuple for spec in specs)

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

    # the largest n_hi the model admits for each documented scan, found by the model alone
    EDGES = [(3, 6, 295), (7, 8, 160), (3, 12, 47), (3, 17, 10)]

    @pytest.mark.parametrize("ranges", [
        {}, {"k_lo": 3, "k_hi": 4, "n_hi": 40}, {"k_lo": 7, "k_hi": 8, "n_hi": 60},
        {"k_lo": 5, "k_hi": 4},
        *({"k_lo": k_lo, "k_hi": k_hi, "n_hi": n_hi} for k_lo, k_hi, n_hi in EDGES),
    ])
    def test_scan_bound_admits_the_documented_scans(self, ranges):
        check_scan_work(**ranges)

    @pytest.mark.parametrize("ranges", [
        {"k_hi": 30}, {"n_hi": 100000}, {"k_lo": 10**9, "k_hi": 10**9}, {"k_lo": 3, "k_hi": 10**18},
        *({"k_lo": k_lo, "k_hi": k_hi, "n_hi": n_hi + 1} for k_lo, k_hi, n_hi in EDGES),
    ])
    def test_scan_bound_refuses_large_scans(self, ranges):
        with pytest.raises(BoundExceeded, match="scan work bound"):
            check_scan_work(**ranges)

    def test_family_scan_edge(self):
        # conj1.4 --n-max 316 scans below n_hi 317, the largest bound the model admits; planning
        # runs no scan
        claim, [instance] = verify._resolve("conj1.4")
        assert claim.plan(instance, 316, None, 1).cost == check_family_unimodality(n_hi=317).cost
        with pytest.raises(BoundExceeded, match="scan work bound"):
            claim.plan(instance, 317, None, 1)
        with pytest.raises(BoundExceeded, match="scan work bound"):
            check_family_unimodality(n_hi=318)

    @pytest.mark.parametrize("n_hi", [60, 317])
    def test_the_family_chains_cost_no_more_than_their_members_built_alone(self, n_hi):
        # each chain priced at its widest member's slot bits, a pentagonal pass as a theta pass at
        # its frame; conj1.4's cost sums each spec's tuple built alone
        chains = [[qseries.ak_spec(k).a for k in range(3, 13, 2)], [bk_spec(k).a for k in (7, 9, 11)]]
        prices = []
        for first, *rest in chains:
            weights = [*first, *(a[0] for a in rest), *(a[1] for a in rest)]
            prices.append(search.scan_work(len(first) + len(rest), n_hi - 1, len(weights), sum(weights)))
            alone = sum(search.scan_work(len(a), n_hi - 1, len(a), sum(a)) for a in [first, *rest])
            assert prices[-1] <= alone
        assert sum(prices) <= check_family_unimodality(n_hi=n_hi).cost

    def test_model_slot_bits_cover_the_kernels(self):
        # every slot width iter_ck_slices can pick for r weights to order N, either parity
        pentagonal = qseries._pentagonal_terms(300)
        for r in [*range(1, 13), *range(31, 500, 41), 498, 499, 500]:
            colored = qseries.colored_coeffs(2 * r, 300)
            for terms in ([], pentagonal):
                largest = 0
                for n in range(301):
                    largest = max(largest, *qseries._pentagonal_split(colored, n, terms))
                    assert qseries._slot_width(largest) <= search._slot_bits(r, n), (r, n, terms)

    def test_bound_is_the_model_cost_of_its_stated_edge(self):
        # cor3.5-B-k11-ell5 --n-max 117 packs weights (8, 7, 6, 5, 3, 2) to q^589
        assert search.SCAN_WORK_BOUND == search.scan_work(6, 589, 6, 31)
        claim, [instance] = verify._resolve("cor3.5-B-k11-ell5")
        claim.plan(instance, 117, None, 1)
        with pytest.raises(BoundExceeded, match="scan work bound"):
            claim.plan(instance, 118, None, 1)

    @pytest.mark.parametrize("claim_id,n_max", [("cor3.5-A-k996-ell5", "6"), ("cor3.5-A-k760-ell7", "5")])
    def test_wide_slot_scans_are_refused_before_any_table(self, capsys, monkeypatch, claim_id, n_max):
        # few sizes, but r and the slot width are large: each ran 30 s or more when admitted
        calls = []
        monkeypatch.setattr(qseries, "colored_coeffs", lambda *args: calls.append(args))
        code = cli.main(["verify", claim_id, "--n-max", n_max])
        out, err = capsys.readouterr()
        assert code == 2 and out == "" and "scan work bound" in err
        assert calls == []

    def test_model_ranks_the_default_colored_scans_as_measured(self, monkeypatch):
        # measured at their defaults: B-k11-ell5 1.67 s, B-k9-ell23 0.76 s, A-k6-ell5 0.42 s
        costs = []
        model = search.scan_work
        monkeypatch.setattr(search, "scan_work", lambda *args: costs.append(model(*args)) or costs[-1])
        for claim_id in ("cor3.5-B-k11-ell5", "cor3.5-B-k9-ell23", "cor3.5-A-k6-ell5"):
            claim, [instance] = verify._resolve(claim_id)
            claim.plan(instance, None, None, 1)
        assert len(costs) == 3 and costs[0] > costs[1] > costs[2]

    @pytest.mark.parametrize("scan", [
        lambda: exhaustive_search(3, 3, n_hi=5),
        lambda: check_first_gap_criterion(n_hi=5),
        lambda: check_family_unimodality(n_hi=5),
        lambda: verify.run_claims("cor3.5-A-k6-ell5", n_max=1),
    ], ids=["search", "conj4.2", "conj1.4", "cor3.5"])
    def test_every_scan_is_admitted_by_the_model(self, monkeypatch, scan):
        monkeypatch.setattr(search, "scan_work", lambda *args: search.SCAN_WORK_BOUND + 1)
        with pytest.raises(BoundExceeded, match="scan work bound"):
            scan()

    def test_worker_count_does_not_change_results(self, monkeypatch):
        three_cpus(monkeypatch)
        serial = exhaustive_search(3, 6, n_hi=30, threads=1)
        for threads in (2, 3):
            pooled = exhaustive_search(3, 6, n_hi=30, threads=threads)
            assert serial == pooled
            assert results_to_csv(serial) == results_to_csv(pooled)
        serial = run_plan(check_family_unimodality(n_hi=30, threads=1))
        for threads in (2, 3):
            pooled = run_plan(check_family_unimodality(n_hi=30, threads=threads))
            assert serial._replace(elapsed_s=0) == pooled._replace(elapsed_s=0)

    @pytest.mark.parametrize("scan,windowed,tuples,passes,frames,pentagonal,decoded,unpacked", [
        # 39 specs of 26 tuples, each screened; the 13 the screen leaves undecided are
        # built in 7 (r, a_1) groups, whose shared passes run once, a_1's and a_2's first
        (lambda: exhaustive_search(3, 6, n_hi=75, threads=1), 26, 13, 24, 98, [], 1323, 1845),
        # 105 specs of 70 tuples, likewise, in 5 groups
        (lambda: exhaustive_search(7, 8, n_hi=60, threads=1), 70, 35, 60, 399, [], 2604, 3609),
        # 13 families, unscreened: the family scan reads every defect.  Its 8 tuples are 2 chains,
        # A (3, 2) .. (7, 6, 5, 4, 3, 2) and B (6, 5, 3, 2) .. (8, 7, 6, 5, 3, 2); each member past
        # the first costs one pentagonal pass at frame a_2 and one theta pass, and a window audits
        # every member
        (lambda: run_plan(check_family_unimodality(n_hi=60, threads=1)), 8, 8, 12, 58, [3, 4, 5, 6, 6, 7],
         767, 1239),
    ], ids=["table1-tuples", "k7-8", "families"])
    def test_each_weight_tuple_is_packed_once(self, monkeypatch, scan, windowed, tuples, passes,
                                              frames, pentagonal, decoded, unpacked):
        built, theta_frames, pentagonal_frames, windows, slices, unpacks = [], [], [], {}, [], []
        build, theta_pass = qseries.iter_ck_slices, qseries._theta_pass
        pentagonal_pass = qseries._pentagonal_pass
        top_windows, decode, unpack = qseries.top_windows, qseries._slices, qseries._unpack_half

        def counted_build(members, sizes):  # a generator: counts the members it builds
            for a, scans in build(members, sizes):
                built.append(a)
                yield a, scans

        def full_pass(ints, aj, origin, bits, last, window=0):
            if not window:  # the screen's windowed passes are not counted
                theta_frames.append(max(aj, origin))
            theta_pass(ints, aj, origin, bits, last, window)

        def counted_pentagonal_pass(ints, terms, c, bits):
            if c:  # the passes at frame 0 build (q)_inf^r (_q_power)
                pentagonal_frames.append(c)
            pentagonal_pass(ints, terms, c, bits)

        def counted_scan(*args):
            for m, half in decode(*args):
                slices.append(m)
                yield m, half

        monkeypatch.setattr(qseries, "iter_ck_slices", counted_build)
        monkeypatch.setattr(qseries, "_theta_pass", full_pass)
        monkeypatch.setattr(qseries, "_pentagonal_pass", counted_pentagonal_pass)

        def counted_windows(members, m):
            found = top_windows(members, m)
            windows.update((a, window) for (a, _), window in zip(members, found))
            return found

        monkeypatch.setattr(qseries, "top_windows", counted_windows)
        monkeypatch.setattr(qseries, "_slices", counted_scan)
        monkeypatch.setattr(qseries, "_unpack_half", lambda *args: unpacks.append(args[2]) or unpack(*args))
        scan()
        assert len(built) == len(set(built)) == tuples
        assert len(theta_frames) == passes
        assert sum(theta_frames) == frames  # a pass counted as its frame's width, as _plan counts it
        assert sorted(pentagonal_frames) == pentagonal
        assert len(windows) == windowed
        assert len(slices) == decoded and len(unpacks) == unpacked
        if pentagonal:  # every chain member is audited by its window
            assert set(windows) == set(built)
        else:  # built are exactly the tuples with a parity the window left undecided
            assert set(built) == {a for a, found in windows.items()
                                  if any(LaurentPoly.unimodal_half(w) for w in found)}

    @pytest.mark.parametrize("scan", [
        lambda: run_plan(check_family_unimodality(n_hi=30, threads=1)),
        lambda: exhaustive_search(3, 6, n_hi=30, threads=1),
    ], ids=["families", "table1-tuples"])
    def test_a_member_is_released_before_the_next_one_builds(self, monkeypatch, scan):
        # when a pass of the next member starts, neither the scans nor the packed G handed out
        # for the members before it are alive: the build holds one member's entries at a time
        handed, passes = [], []
        build, decode = qseries._build, qseries._slices
        theta_pass, pentagonal_pass = qseries._theta_pass, qseries._pentagonal_pass

        class Packed(list):  # a list that takes a weak reference
            pass

        def tracked_build(*args):  # each G yielded as a copy that only its consumers hold
            for i, ints in build(*args):
                yield i, Packed(ints)

        def kept_scan(ints, *args):
            slices = decode(ints, *args)
            handed.extend((weakref.ref(ints), weakref.ref(slices)))
            return slices

        def check_released():
            assert sum(ref() is not None for ref in handed) == 0
            handed.clear()

        def checked_theta_pass(ints, aj, origin, bits, last, window=0):
            if not window:  # the screen's windowed passes hand no G out
                check_released()
                passes.append(aj)
            theta_pass(ints, aj, origin, bits, last, window)

        def checked_pentagonal_pass(ints, terms, c, bits):
            check_released()
            pentagonal_pass(ints, terms, c, bits)

        monkeypatch.setattr(qseries, "_build", tracked_build)
        monkeypatch.setattr(qseries, "_slices", kept_scan)
        monkeypatch.setattr(qseries, "_theta_pass", checked_theta_pass)
        monkeypatch.setattr(qseries, "_pentagonal_pass", checked_pentagonal_pass)
        scan()
        assert passes

    def test_tasks_start_largest_first(self, monkeypatch):
        handed = []
        pool_map = search._pool_map
        monkeypatch.setattr(search, "_pool_map",
                            lambda fn, tasks, threads: handed.extend(tasks) or pool_map(fn, tasks, threads))
        results = exhaustive_search(3, 6, n_hi=20, threads=1)
        # each task is the tuples of one r and one a_1 (7 groups), ranked by their summed model cost
        assert sorted(a for members, _, _ in handed for a, _ in members) == sorted(
            {a for _, a, _ in TABLE1_ROWS})
        groups = [{(len(a), a[0]) for a, _ in members} for members, _, _ in handed]
        assert all(len(group) == 1 for group in groups) and len(set().union(*groups)) == len(groups) == 7
        work = [sum(search.scan_work(len(a), 19, len(a), sum(a)) for a, _ in members)
                for members, _, _ in handed]
        assert work == sorted(work, reverse=True) and work[0] > work[-1]
        assert [r.spec.a for r in results] == [a for _, a, _ in TABLE1_ROWS]  # still in spec order

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_top_down_stop_finds_the_full_scans_largest_defect(self, monkeypatch, threads):
        three_cpus(monkeypatch)
        specs = [spec for k in range(3, 9) for spec in crank_space(k)]
        full = slice_defects(specs, 16, threads=1)
        assert any(len(bad) > 1 for bad in full) and any(bad == [1] for bad in full)
        results = exhaustive_search(3, 8, n_hi=16, threads=threads)
        assert [r.spec for r in results] == specs
        assert [r.largest_nonunimodal for r in results] == [bad[-1] if bad else None for bad in full]

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


class TestTopScreen:
    def test_a_screen_that_decides_nothing_changes_no_result(self, monkeypatch):
        three_cpus(monkeypatch)
        threads = (1, 2, 3)
        screened = [exhaustive_search(3, 8, n_hi=30, threads=t) for t in threads]
        reports = [run_plan(check_first_gap_criterion(n_hi=30, threads=t))._replace(elapsed_s=0)
                   for t in threads]
        assert {r.eventually_unimodal for r in screened[0]} == {True, False}

        monkeypatch.setattr(search, "_top_screen", lambda windows, top: {})  # every parity undecided
        for t, results, report in zip(threads, screened, reports):
            assert exhaustive_search(3, 8, n_hi=30, threads=t) == results == screened[0]
            assert run_plan(check_first_gap_criterion(n_hi=30, threads=t))._replace(elapsed_s=0) == report

    @pytest.mark.parametrize("k_lo,k_hi,n_hi,passes,pushes", [
        # to q^74 and q^59 every tuple goes alone, as each did in a walk of its own: 72 and 280
        # passes, 3,978 and 9,240 pushes
        (3, 6, 75, 72, 3978),
        (7, 8, 60, 280, 9240),
        # to q^1 and q^9 the tasks' tuples share their steps: alone they took 19,168 and 7,156
        # passes and pushed 19,168 and 61,282 terms
        (3, 13, 2, 5775, 5775),
        (3, 12, 10, 2364, 21347),
    ], ids=["table1", "k7-8-to-60", "k3-13-to-2", "k3-12-to-10"])
    def test_the_screens_windowed_walks(self, monkeypatch, k_lo, k_hi, n_hi, passes, pushes):
        pushed, expected = count_windowed_pushes(monkeypatch)
        exhaustive_search(k_lo, k_hi, n_hi, threads=1)
        assert pushed == expected  # no windowed pass adds a term that cannot reach its window
        assert (len(pushed), sum(pushed)) == (passes, pushes)

    def test_a_window_that_differs_from_the_built_half_is_a_fault(self, monkeypatch, capsys):
        top_windows = qseries.top_windows

        def planted(members, m):
            found = top_windows(members, m)
            for (a, _), windows in zip(members, found):
                if a == (3, 2):  # undecided in both parities; it stays so with its innermost slot raised
                    windows[:] = [[w[0] + 1] + w[1:] for w in windows]
                    assert all(LaurentPoly.unimodal_half(w) for w in windows)
            return found

        monkeypatch.setattr(qseries, "top_windows", planted)
        assert cli.main(["search", "table1"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" in captured.err and "ArithmeticError" in captured.err

    # the family scan's chains start at (3, 2) and (6, 5, 3, 2), and reach (5, 4, 3, 2) by two
    # chain steps from (3, 2)
    @pytest.mark.parametrize("planted_a", [(3, 2), (6, 5, 3, 2), (5, 4, 3, 2)],
                             ids=lambda a: "-".join(map(str, a)))
    def test_a_chain_member_that_differs_from_its_window_is_a_fault(self, monkeypatch, capsys, planted_a):
        top_windows = qseries.top_windows

        def planted(members, m):
            found = top_windows(members, m)
            for (a, _), windows in zip(members, found):
                if a == planted_a:
                    windows[:] = [[w[0] + 1] + w[1:] for w in windows]
            return found

        monkeypatch.setattr(qseries, "top_windows", planted)
        assert cli.main(["--threads", "1", "verify", "conj1.4", "--n-max", "30"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "ArithmeticError" in captured.err and f"weights {planted_a}" in captured.err


class TestHalfUnimodality:
    @pytest.mark.parametrize("top_only", [True, False], ids=["top-only", "full"])
    def test_scans_build_no_polynomial(self, monkeypatch, top_only):
        built = []
        init = LaurentPoly.__init__
        monkeypatch.setattr(LaurentPoly, "__init__",
                            lambda self, *args: built.append(args) or init(self, *args))
        specs = [spec for k in range(3, 7) for spec in crank_space(k)]
        defects = slice_defects(specs, 40, threads=1, top_only=top_only)
        assert built == []
        monkeypatch.undo()
        mirrored = [[n for n, f in spec_slices(spec, range(1, 40)) if not f.is_unimodal()]
                    for spec in specs]
        assert any(mirrored)
        assert defects == ([bad[-1:] for bad in mirrored] if top_only else mirrored)


class TestCriteria:
    def test_first_gap_criterion_on_small_slice(self, monkeypatch):
        monkeypatch.setattr(search, "exhaustive_search",
                            lambda n_hi, threads: exhaustive_search(3, 4, n_hi, threads))
        rep = run_plan(check_first_gap_criterion())
        assert rep.status == "pass"
        assert "k in [3, 4]" in rep.range

    def test_first_gap_mismatches_are_informative_at_a_finite_bound(self, monkeypatch):
        # neither mismatch is decided below n_hi: a tuple may still turn
        # unimodal past it, or fail again past it
        monkeypatch.setattr(search, "exhaustive_search", lambda n_hi, threads: [
            SearchResult(CrankSpec(3, (3, 1)), n_hi, None),  # unimodal, no adjacent pair
            SearchResult(CrankSpec(3, (2, 1)), n_hi, n_hi - 1),  # adjacent pair, top slice not unimodal
        ])
        rep = run_plan(check_first_gap_criterion(n_hi=20))
        assert rep.status == "partial"
        assert [c.params["kind"] for c in rep.counterexamples] == [
            "unimodal-without-adjacent-pair", "adjacent-pair-not-unimodal"]
        assert not any(c.params["within_claim"] for c in rep.counterexamples)

    def test_family_scan_small_range(self):
        rep = run_plan(check_family_unimodality(n_hi=30))
        assert rep.status == "pass"
        assert "onsets" in rep.range

    def test_family_scan_includes_second_family_for_odd_k(self, monkeypatch):
        scanned = []
        scan = search.slice_defects
        monkeypatch.setattr(search, "slice_defects",
                            lambda specs, *args: scanned.extend(specs) or scan(specs, *args))
        rep = run_plan(check_family_unimodality(n_hi=30))
        assert rep.status == "pass"
        assert {bk_spec(k) for k in (7, 9, 11)} <= set(scanned)

    @pytest.mark.parametrize("n_hi", [1, -5])
    def test_family_scan_of_no_slices_raises(self, n_hi):
        with pytest.raises(ValueError, match="n_hi"):
            check_family_unimodality(n_hi=n_hi)

    @pytest.mark.parametrize("n_hi", [1, -5])
    def test_first_gap_scan_of_no_slices_raises(self, n_hi):
        with pytest.raises(ValueError, match="n_hi"):
            check_first_gap_criterion(n_hi=n_hi)


def three_cpus(monkeypatch):
    """Let the map use three CPUs, so that --threads 3 forks two children on any host."""
    monkeypatch.setattr(search.os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)


def fork_spy(monkeypatch, forks: list, allowed: bool = True):
    """Count the map's forks; with allowed False, fail the test at the first one."""
    real_fork = os.fork

    def spy():
        if not allowed:
            raise AssertionError("a worker was forked")
        forks.append(1)
        return real_fork()

    monkeypatch.setattr(search.os, "fork", spy)


@contextlib.contextmanager
def deadline(seconds: float):
    """Raise TimeoutError in this process if the block runs past `seconds` (children do not inherit it)."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestThreadConfig:
    def test_fallback_is_positive(self, monkeypatch):
        # threads=None falls back to the usable CPUs; with no affinity mask and
        # an unknown CPU count that means one worker, run in-process, never a
        # pool of zero.
        fork_spy(monkeypatch, [], allowed=False)
        monkeypatch.delattr(search.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(search.os, "cpu_count", lambda: None)
        assert search._pool_map(abs, [-3, -1, -2], threads=None) == [3, 1, 2]

    def test_one_cpu_in_the_affinity_mask_starts_no_pool(self, monkeypatch):
        # a `taskset -c 0` run: more CPUs exist, but the process may use one
        fork_spy(monkeypatch, [], allowed=False)
        monkeypatch.setattr(search.os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(search.os, "cpu_count", lambda: 8)
        assert search._pool_map(abs, [-3, -1, -2], threads=2) == [3, 1, 2]
        assert search._pool_map(abs, [-3, -1, -2], threads=None) == [3, 1, 2]

    def test_without_fork_the_map_runs_serially(self, monkeypatch):
        three_cpus(monkeypatch)
        monkeypatch.delattr(search.os, "fork")
        assert search._pool_map(abs, [-3, -1, -2], threads=3) == [3, 1, 2]

    def test_pool_size_is_capped_at_cpu_count(self, monkeypatch):
        forks: list = []
        fork_spy(monkeypatch, forks)
        monkeypatch.setattr(search.os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
        monkeypatch.setattr(search.os, "cpu_count", lambda: 8)
        counts = []
        for tasks, threads in ((list(range(-8, 0)), 64), ([-1, -2], 64), (list(range(-8, 0)), None)):
            before = len(forks)
            assert search._pool_map(abs, tasks, threads) == [abs(t) for t in tasks]
            counts.append(1 + len(forks) - before)  # this process is a worker too
        assert counts == [3, 2, 3]
        assert_no_children()


class Refused(CrankspaceError):
    pass


class TestForkMap:
    @pytest.mark.parametrize("threads", [None, 1, 3])
    def test_no_tasks_fork_nothing(self, monkeypatch, threads):
        three_cpus(monkeypatch)
        fork_spy(monkeypatch, [], allowed=False)
        assert search._pool_map(abs, [], threads) == []

    @pytest.mark.parametrize("threads", [1, 2, 3])
    @pytest.mark.parametrize("error,code", [(Refused, 2), (SlotOverflow, 3)])
    def test_a_task_error_keeps_its_type_and_exit_code(self, monkeypatch, capsys, threads, error, code):
        three_cpus(monkeypatch)
        task = search._defects_task

        def failing(t):
            if any(a == (4, 3) for a, _ in t[0]):
                raise error("raised in a task")
            return task(t)

        monkeypatch.setattr(search, "_defects_task", failing)
        with pytest.raises(error, match="raised in a task"):
            slice_defects(list(crank_space(4)), 20, threads)
        args = ["--threads", str(threads), "search", "--k-lo", "3", "--k-hi", "4", "--n-hi", "20"]
        assert cli.main(args) == code
        captured = capsys.readouterr()
        assert captured.out == "" and "raised in a task" in captured.err
        assert_no_children()

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_the_lowest_index_failure_is_raised(self, monkeypatch, threads):
        three_cpus(monkeypatch)

        def fn(i):
            if i in (7, 23, 31):
                raise KeyError(i)
            time.sleep(0.001)
            return i

        with pytest.raises(KeyError) as raised:
            search._pool_map(fn, list(range(40)), threads)
        assert raised.value.args == (7,)
        assert_no_children()

    def test_a_child_that_dies_without_results_is_a_fault(self, monkeypatch, capsys):
        three_cpus(monkeypatch)
        real_fork = os.fork

        def dying_fork():
            pid = real_fork()
            if pid == 0:
                os._exit(9)
            return pid

        monkeypatch.setattr(search.os, "fork", dying_fork)
        with deadline(30):
            code = cli.main(["--threads", "2", "search", "--k-lo", "3", "--k-hi", "4", "--n-hi", "20"])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert "RuntimeError" in captured.err and "without its results" in captured.err
        assert_no_children()

    def test_children_are_reaped_when_this_process_fails(self, monkeypatch):
        three_cpus(monkeypatch)
        parent = os.getpid()

        class Interrupted(BaseException):
            pass

        def fn(i):
            if os.getpid() == parent:
                raise Interrupted
            time.sleep(0.05)  # children are still busy when this process gives up
            return i

        with deadline(30), pytest.raises(Interrupted):
            search._pool_map(fn, list(range(200)), 3)
        assert_no_children()

    def test_handing_out_many_tasks_never_blocks(self, monkeypatch):
        # one 4-byte token each would be 800 kB, past any pipe's capacity
        three_cpus(monkeypatch)
        tasks = list(range(-200_000, 0))
        with deadline(60):
            assert search._pool_map(abs, tasks, 3) == [-t for t in tasks]
        assert_no_children()
