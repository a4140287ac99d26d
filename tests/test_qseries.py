"""Colored-crank q-series engine vs. naive factor-by-factor oracles."""

from __future__ import annotations

import inspect
import random
import sys
import typing
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import crankspace.qseries
from crankspace import cli
from crankspace.laurent import CrankspaceError, LaurentPoly
from crankspace.partitions import colored_count, crank_poly, rank_poly
from crankspace.qseries import (
    CrankSpec,
    InvalidK,
    SlotOverflow,
    _slot_width,
    _unpack_half,
    ak_spec,
    bk_spec,
    colored_coeffs,
    iter_ck_slices,
    top_windows,
)
from crankspace.search import crank_space
from crankspace.verify import FAMILIES

from helpers import (
    colored_coeffs_reference,
    count_windowed_pushes,
    full_spectrum_slices,
    naive_colored_crank,
    naive_crank_series,
    naive_rank_series,
    TABLE1_ROWS,
    packed_rank_series,
    shift_add_half,
    spec_slices,
    tuple_slices,
)


def slices(spec: CrankSpec, order: int) -> list[LaurentPoly]:
    return [poly for _, poly in spec_slices(spec, range(order + 1))]


# Every valid spec with 3 <= k <= 8 and weights <= 9.
specs = st.integers(min_value=3, max_value=8).flatmap(
    lambda k: st.lists(st.integers(min_value=1, max_value=9), min_size=(k + k % 2) // 2,
                       max_size=(k + k % 2) // 2, unique=True)
    .map(lambda a: CrankSpec(k, tuple(sorted(a, reverse=True))))
)


class TestCrankSpec:
    def test_valid_spec(self):
        s = CrankSpec(5, (4, 2, 1))
        assert s.delta == 1

    def test_delta_matches_parity_and_weight_count(self):
        # odd k keeps one bare Euler factor; even k has none
        assert CrankSpec(6, (5, 3, 1)).delta == 0
        assert CrankSpec(7, (4, 3, 2, 1)).delta == 1
        for spec in (CrankSpec(6, (5, 3, 1)), CrankSpec(7, (4, 3, 2, 1))):
            assert 2 * len(spec.a) - spec.delta == spec.k

    def test_weight_count_is_forced_by_k(self):
        with pytest.raises(InvalidK):
            CrankSpec(7, (4, 3, 2))  # needs four weights
        with pytest.raises(InvalidK):
            CrankSpec(6, (4, 3, 2, 1))  # needs three

    @pytest.mark.parametrize(
        "k,a",
        [
            (0, ()),
            (1, (1,)),
            (2, (1,)),
            (3, (2, 2)),
            (3, (1, 2)),
            (3, (2, 1, 1)),
            (3, (2, -1)),
            (3, (2, 0)),
        ],
    )
    def test_invalid_specs_raise(self, k, a):
        with pytest.raises(InvalidK):
            CrankSpec(k, a)

    def test_invalid_k_is_value_error(self):
        assert issubclass(InvalidK, ValueError)


class TestFamilySpecs:
    def test_first_family_weights_are_consecutive_down_to_two(self):
        assert ak_spec(3).a == (3, 2)
        assert ak_spec(4).a == (3, 2)
        assert ak_spec(6).a == (4, 3, 2)
        assert ak_spec(7).a == (5, 4, 3, 2)

    def test_first_family_rejects_small_k(self):
        with pytest.raises(InvalidK):
            ak_spec(2)

    def test_second_family_skips_weight_four(self):
        assert bk_spec(7).a == (6, 5, 3, 2)
        assert bk_spec(9).a == (7, 6, 5, 3, 2)
        assert bk_spec(11).a == (8, 7, 6, 5, 3, 2)
        assert all(4 not in bk_spec(k).a for k in (7, 9, 11, 13))

    def test_second_family_gates_even_k(self):
        for k in (6, 8, 10):
            with pytest.raises(InvalidK):
                bk_spec(k)

    def test_second_family_rejects_small_odd_k(self):
        with pytest.raises(InvalidK):
            bk_spec(5)


class TestSeriesAgainstNaiveOracle:
    @pytest.mark.parametrize(
        "spec",
        [
            CrankSpec(3, (2, 1)),
            CrankSpec(3, (3, 1)),
            CrankSpec(4, (4, 3)),
            CrankSpec(5, (4, 2, 1)),
            CrankSpec(6, (6, 5, 4)),
            bk_spec(7),
        ],
        ids=lambda s: f"C{s.k}({','.join(map(str, s.a))})",
    )
    def test_colored_series_matches_oracle(self, spec):
        order = 14
        series = slices(spec, order)
        naive = naive_colored_crank(spec.a, spec.delta, order)
        assert len(series) == order + 1
        for n in range(order + 1):
            assert series[n] == naive[n], f"mismatch at q^{n}"

    def test_rank_series_matches_oracle_and_per_size_poly(self):
        order = 20
        series = packed_rank_series(order)
        naive = naive_rank_series(order)
        for n in range(order + 1):
            assert series[n] == naive[n]
            assert series[n] == rank_poly(n)

    def test_corrected_crank_series(self):
        order = 20
        raw = {n: f for n, (f,) in tuple_slices((1,), (1,), range(order + 1))}
        naive_raw = naive_crank_series(order)
        # size 1 is the corrected column: constant 1, not z - 1 + 1/z
        assert crank_poly(1) == LaurentPoly.one()
        assert raw[1] == naive_raw[1] == LaurentPoly(-1, (1, -1, 1))
        for n in range(order + 1):
            assert raw[n] == naive_raw[n]
            if n != 1:
                assert raw[n] == crank_poly(n)

    def test_specialization_at_one_counts_colored_partitions(self):
        for spec in (CrankSpec(3, (2, 1)), CrankSpec(5, (5, 4, 3)), ak_spec(6)):
            for n, poly in spec_slices(spec, range(13)):
                assert sum(poly.coeffs) == colored_count(spec.k, n)

    def test_colored_coeffs_prefix_property(self):
        long = colored_coeffs(4, 30)
        short = colored_coeffs(4, 12)
        assert long[:13] == short
        assert long[0] == 1 and long[1] == 4

    def test_colored_coeffs_match_one_color_at_a_time(self):
        reference = colored_coeffs_reference(15, 400)
        for k in range(16):
            assert list(colored_coeffs(k, 400)) == reference[k]

    def test_colored_coeffs_in_any_request_order(self, monkeypatch):
        monkeypatch.setattr(crankspace.qseries, "_COLORED_CACHE", {})
        reference = colored_coeffs_reference(13, 400)
        for k, order in ((12, 50), (3, 400), (12, 400), (13, 200), (2, 30)):
            assert list(colored_coeffs(k, order)) == reference[k][: order + 1]
        # only the chains k, k-3, ... (and the colors below k mod 3) are built
        assert sorted(crankspace.qseries._COLORED_CACHE) == [0, 1, 2, 3, 4, 6, 7, 9, 10, 12, 13]

    @pytest.mark.parametrize("k,order,message", [(-1, 5, "k must be >= 0"),
                                                 (3, -1, "order must be >= 0")], ids=["k", "order"])
    def test_colored_coeffs_refuse_a_negative_argument(self, k, order, message):
        with pytest.raises(CrankspaceError, match=message):
            colored_coeffs(k, order)

    @staticmethod
    def root_walk(r: int, order: int) -> list[int]:
        """(q)_inf^r to q^order, as the build walks start: r root steps from the series 1."""
        tree = 0
        for _ in range(r):
            tree = [(0, order, tree)]
        [(leaf, ints)] = crankspace.qseries._build([1] + [0] * order, 0, tree, 0)
        assert leaf == 0
        return ints

    def test_root_steps_build_eulers_and_jacobis_series(self):
        # one root step is (q)_inf = sum_j (-1)^j q^(j(3j-1)/2) over all integers j, three are
        # (q)_inf^3 = sum_{j>=0} (-1)^j (2j+1) q^(j(j+1)/2)
        for order in (0, 10, 40):
            euler, jacobi = [0] * (order + 1), [0] * (order + 1)
            for j in range(-order - 1, order + 2):
                if j * (3 * j - 1) // 2 <= order:
                    euler[j * (3 * j - 1) // 2] = (-1) ** j
                if 0 <= j and j * (j + 1) // 2 <= order:
                    jacobi[j * (j + 1) // 2] = (-1) ** j * (2 * j + 1)
            assert self.root_walk(1, order) == euler and self.root_walk(3, order) == jacobi, order

    @pytest.mark.parametrize("r,n", [(1, 1), (3, 10), (4, 23)])
    def test_root_steps_build_q_power_to_each_order(self, r, n):
        # orders 0, n and n + 1: each walk's r root steps give (1 - q^j)^r multiplied out factor
        # by factor
        def product(order):
            series = [1] + [0] * order
            for j in range(1, order + 1):
                for _ in range(r):
                    for m in range(order, j - 1, -1):
                        series[m] -= series[m - j]
            return series

        for order in (0, n, n + 1):
            assert self.root_walk(r, order) == product(order), order

    def test_every_slice_is_symmetric(self):
        assert all(p.is_symmetric() for p in slices(CrankSpec(5, (5, 3, 2)), 15))


class TestKernelAgainstOracle:
    @settings(max_examples=40, deadline=None)
    @given(specs, st.integers(min_value=0, max_value=12))
    def test_random_specs_match_oracle(self, spec, order):
        assert slices(spec, order) == naive_colored_crank(spec.a, spec.delta, order)

    def test_slots_wider_than_64_bits(self, monkeypatch):
        widths = []
        monkeypatch.setattr("crankspace.qseries._slot_width",
                            lambda largest: widths.append(_slot_width(largest)) or widths[-1])
        spec = CrankSpec(11, (6, 5, 4, 3, 2, 1))
        assert slices(spec, 49) == naive_colored_crank(spec.a, spec.delta, 49)
        assert widths == [72]


def pack(slots: list[int], bits: int = 8) -> int:
    """Slot values (any size: an oversized one carries) as one packed integer."""
    return sum(v << (bits * i) for i, v in enumerate(slots))


class TestSlotCertificate:
    # 8-bit slots, margin 1: slot s holds the coefficient of z^(1 - s)
    @pytest.mark.parametrize("slots,nslots,total", [
        ([1, 2, 1, 256, 0], 5, 516),  # z^-2 carries into z^-3
        ([0, 0, 0, 0, 1], 4, 1),  # carries out of the top slot
        ([1, 2, 1], 3, 5),  # decodes, but to the wrong total
    ], ids=["carry-in-half", "carry-out-of-top", "wrong-total"])
    def test_decoded_sum_must_match_the_total(self, slots, nslots, total):
        with pytest.raises(SlotOverflow):
            _unpack_half(pack(slots), nslots, 8, 1, total)

    def test_half_is_read_from_the_centre_outward(self):
        assert _unpack_half(pack([1, 5, 1, 3]), 4, 8, 1, 13) == [5, 1, 3]
        assert _unpack_half(pack([1, 5, 1, 3], 64), 4, 64, 1, 13) == [5, 1, 3]

    @pytest.mark.parametrize("bits", [72, 120, 136, 200], ids=lambda b: f"{b}-bit")
    @pytest.mark.parametrize("high", [False, True], ids=["low-limb-only", "high-limbs"])
    def test_every_width_decodes_as_slot_by_slot(self, bits, high):
        # 1 to 4 limbs past the low one; with high set, some slots fill every limb
        rng = random.Random(bits)
        half = [rng.getrandbits(rng.choice([8, 64, bits]) if high else 64) for _ in range(50)]
        margin = 4
        slots = half[margin:0:-1] + half
        x, nbytes = pack(slots, bits), bits // 8
        raw = x.to_bytes(len(slots) * nbytes, "little")
        per_slot = [int.from_bytes(raw[i * nbytes : (i + 1) * nbytes], "little")
                    for i in range(len(slots))]
        assert any(v >> 64 for v in per_slot) == high
        assert _unpack_half(x, len(slots), bits, margin, 2 * sum(half) - half[0]) == per_slot[margin:]

    @pytest.mark.parametrize("bits", [72, 120, 136, 200], ids=lambda b: f"{b}-bit")
    @pytest.mark.parametrize("slot", [1, 4, 7], ids=["margin", "centre", "half"])
    def test_a_flipped_high_limb_bit_is_caught(self, bits, slot):
        half = [3 << (bits - 8), 5, 1 << 70, 7]
        slots = half[3:0:-1] + half
        x, total = pack(slots, bits), 2 * sum(half) - half[0]
        assert _unpack_half(x, len(slots), bits, 3, total) == half
        with pytest.raises(SlotOverflow):
            _unpack_half(x ^ (1 << (bits * slot + bits - 2)), len(slots), bits, 3, total)

    @pytest.mark.parametrize("bits", [64, 72, 120, 136, 200], ids=lambda b: f"{b}-bit")
    def test_big_endian_hosts_decode_slot_by_slot(self, monkeypatch, bits):
        rng = random.Random(bits)
        half = [rng.getrandbits(rng.choice([8, 64, bits])) for _ in range(50)]
        margin = 4
        slots = half[margin:0:-1] + half
        x, total = pack(slots, bits), 2 * sum(half) - half[0]
        by_limbs = _unpack_half(x, len(slots), bits, margin, total)
        monkeypatch.setattr(crankspace.qseries.sys, "byteorder", "big")
        assert _unpack_half(x, len(slots), bits, margin, total) == by_limbs == half
        with pytest.raises(SlotOverflow):
            _unpack_half(x ^ (1 << (bits * 7 + bits - 2)), len(slots), bits, margin, total)

    def test_margin_must_mirror(self):
        # the sum is right (2 * (5 + 1) - 5 == 7); only the mirror check sees it
        with pytest.raises(SlotOverflow, match="mirror"):
            _unpack_half(pack([2, 5, 1]), 3, 8, 1, 7)

    @pytest.mark.parametrize("slots,total", [
        ([256, 3, 256, 0], 515),  # z^1 carries into the centre; the margin mirrors
        ([1, 256, 1, 0], 258),  # the centre carries out into z^-1
    ], ids=["into-centre", "out-of-centre"])
    def test_carry_at_the_centre(self, slots, total):
        with pytest.raises(SlotOverflow):
            _unpack_half(pack(slots), 4, 8, 1, total)

    @pytest.mark.parametrize("spec", [CrankSpec(3, (2, 1)), CrankSpec(4, (4, 3)), bk_spec(9)],
                             ids=lambda s: f"C{s.k}({','.join(map(str, s.a))})")
    def test_slices_inside_the_margin(self, spec):
        # the margin's mirrors lie past slice 0's own span and end with slice 1's
        got = dict(spec_slices(spec, [1, 0]))
        naive = naive_colored_crank(spec.a, spec.delta, 1)
        assert got == {0: LaurentPoly.one(), 1: naive[1]}

    def test_narrow_slots_raise_instead_of_yielding(self, monkeypatch):
        monkeypatch.setattr("crankspace.qseries._slot_width", lambda largest: 8)
        yielded = []
        with pytest.raises(SlotOverflow):
            for item in spec_slices(bk_spec(9), [40]):
                yielded.append(item)
        assert yielded == []

    def test_overflow_is_not_a_usage_error(self, monkeypatch, capsys):
        assert issubclass(SlotOverflow, ArithmeticError)
        assert not issubclass(SlotOverflow, ValueError)
        monkeypatch.setattr("crankspace.qseries._slot_width", lambda largest: 8)
        assert cli.main(["verify", "cor3.5-B-k9-ell23", "--n-max", "2"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" in captured.err and "SlotOverflow" in captured.err


# Every weight tuple with k <= 8 and the two families as far as conj1.4 and cor3.5 go.
AUDIT_SPECS = sorted({spec for k in range(3, 9) for spec in crank_space(k)}
                     | {ak_spec(k) for k in range(3, 13)} | {bk_spec(k) for k in range(7, 14, 2)})


class TestFullSpectrumAudit:
    ORDER = 40

    @pytest.mark.parametrize("k", sorted({spec.k for spec in AUDIT_SPECS}))
    def test_half_spectrum_matches_full_spectrum(self, k):
        for spec in (s for s in AUDIT_SPECS if s.k == k):
            full = full_spectrum_slices(spec.a, spec.delta, self.ORDER)
            assert all(poly.is_symmetric() for poly in full), spec
            assert slices(spec, self.ORDER) == full, spec


def random_tuples(seed: int, orders: range) -> list[tuple[tuple[int, ...], int]]:
    """One (weights, order) per order: 1..5 distinct weights in 1..12, descending.

    Orders 0 and 1 are the recurrence's edges: no k >= 2 theta term, and one.
    """
    rng = random.Random(seed)
    return [(tuple(sorted(rng.sample(range(1, 13), rng.randint(1, 5)), reverse=True)), order)
            for order in orders]


class TestThetaBuild:
    """The theta-series division packs the same integers as the shift-add build."""

    CASES = {
        "table1": [(a, 74) for a in sorted({a for _, a, _ in TABLE1_ROWS})],
        "conj1.4": [(a, 59) for a in sorted({(ak_spec if kind == "A" else bk_spec)(k).a
                                             for kind, k in FAMILIES})],
        "cor3.5": [(ak_spec(6).a, 80), (bk_spec(9).a, 80), (bk_spec(11).a, 80)],
        "random": random_tuples(17, range(41)),
    }

    @pytest.mark.parametrize("group", sorted(CASES))
    def test_matches_the_shift_add_build(self, monkeypatch, group):
        # the packed entries iter_ck_slices builds, handed on before any slice is decoded
        monkeypatch.setattr(crankspace.qseries, "_slices", lambda ints, *args: ints)
        for a, order in self.CASES[group]:
            # the slot it picks for delta 0 at the one size order: the narrowest
            # that holds every geometric coefficient up to that order
            bits = _slot_width(colored_coeffs(2 * len(a), order)[order])
            [(_, [built])] = iter_ck_slices([(a, (0,))], [order])
            assert built == shift_add_half(a, order, bits), (a, order)


@st.composite
def member_sets(draw) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """1..5 distinct r-weight tuples from 1..top, each with one or both parities.

    A small top makes most of them share their largest weights.
    """
    r = draw(st.integers(1, 4))
    top = draw(st.integers(r, 9))
    weights = st.sets(st.integers(1, top), min_size=r, max_size=r).map(lambda w: tuple(sorted(w, reverse=True)))
    tuples = draw(st.lists(weights, min_size=1, max_size=5, unique=True))
    return [(a, draw(st.sampled_from([(0,), (1,), (0, 1), (1, 0)]))) for a in tuples]


class TestGroupBuild:
    """One kernel call builds a set of same-r tuples through one build tree of shared passes."""

    @settings(max_examples=80, deadline=None)
    @given(members=member_sets(), sizes=st.lists(st.integers(0, 24), min_size=1, max_size=4))
    @example(members=[((8, 7, 2, 1), (0,)), ((8, 7, 3, 1), (1,))], sizes=[30, 2])  # sharing a_1, a_2 does not pay
    @example(members=[((6, 5, 2), (1,)), ((6, 5, 1), (0, 1)), ((6, 5, 4), (0,)), ((6, 3, 1), (1,))],
             sizes=[20, 0, 7])
    def test_group_build_matches_lone_and_shift_add_builds(self, members, sizes):
        frames, packed, grouped = [], [], {}
        theta_pass, decode = crankspace.qseries._theta_pass, crankspace.qseries._slices

        def counted_pass(ints, aj, origin, bits, last, window=0):
            frames.append(max(aj, origin))
            theta_pass(ints, aj, origin, bits, last, window)

        def kept_scan(ints, c, bits, *args):
            packed.append((ints, bits))
            return decode(ints, c, bits, *args)

        with mock.patch.object(crankspace.qseries, "_theta_pass", counted_pass), \
                mock.patch.object(crankspace.qseries, "_slices", kept_scan):
            for a, scans in iter_ck_slices(members, sizes):
                grouped[a] = [list(scan) for scan in scans]
                ints, bits = packed[-1]
                assert ints == shift_add_half(a, max(sizes), bits), a
        assert sorted(grouped) == sorted(a for a, _ in members)
        for a, deltas in members:
            [(_, scans)] = iter_ck_slices([(a, deltas)], sizes)
            assert grouped[a] == [list(scan) for scan in scans], a
        # never more work than building each tuple alone, ascending: r passes, its weights' sum
        assert len(frames) <= sum(len(a) for a, _ in members)
        assert sum(frames) <= sum(sum(a) for a, _ in members)

    def test_a_branch_is_taken_only_where_it_pays(self):
        # sharing 8 and 7 costs 8 + 8 + 2 * (8 + 8) = 48 frame units; alone, 18 + 19, each member
        # a chain of one-step nodes, ascending, ending in its index; every step reaches q^9
        assert crankspace.qseries._plan(0, [(0, (8, 7, 2, 1)), (1, (8, 7, 3, 1))], 9) == (
            (37, 8), 9, [(1, 9, [(2, 9, [(7, 9, [(8, 9, 0)])])]), (1, 9, [(3, 9, [(7, 9, [(8, 9, 1)])])])])
        # sharing 6 and 5 costs 6 + 6 + 3 * 6 = 30 against 12 + 13 + 15 alone, in 5 passes, not 9;
        # below 5, at frame 6, sharing nothing more costs no less
        rests = [(5, 1), (5, 2), (5, 4)]
        assert crankspace.qseries._plan(0, [(i, (6, *rest)) for i, rest in enumerate(rests)], 9) == (
            (30, 5), 9, [(6, 9, [(5, 9, [(1, 9, 0), (2, 9, 1), (4, 9, 2)])])])
        # at frame 6 dividing by 2 or 4 first costs as much as last: a tie keeps each chain ascending
        assert crankspace.qseries._plan(6, [(0, (2, 1)), (1, (4, 3))], 9) == (
            (24, 4), 9, [(1, 9, [(2, 9, 0)]), (3, 9, [(4, 9, 1)])])

    def test_a_windowed_step_is_priced_by_the_order_it_reaches(self):
        plan = crankspace.qseries._plan
        # alone, with window 8: 7's pass reaches q^59 and, reframing by 1, reads q^7 of 6's;
        # 6's, reframing by 5, reads q^1 of 1's, which reads q^1 of (q)_inf^3: 59 + 7 + 1 units
        assert plan(0, [(0, (7, 6, 1))], 59, 8) == ((67, 3), 1, [(1, 1, [(6, 7, [(7, 59, 0)])])])
        # below a shared 7, at frame 7, every step reaches q^59: sharing costs 4 * 59 against
        # 67 + 67 alone; to q^3 it costs 4 * 3 against 2 * (3 + 3 + 1), and its 7 reads q^1
        members = [(0, (7, 6, 1)), (1, (7, 6, 2))]
        assert plan(0, members, 59, 8) == (
            (134, 6), 1, [(1, 1, [(6, 7, [(7, 59, 0)])]), (2, 1, [(6, 7, [(7, 59, 1)])])])
        assert plan(0, members, 3, 8) == ((12, 4), 1, [(7, 3, [(6, 3, [(1, 3, 0), (2, 3, 1)])])])

    def test_one_member_is_one_chain_and_none_builds_nothing(self):
        assert crankspace.qseries._plan(0, [(4, (3, 2))], 9) == ((5, 2), 9, [(2, 9, [(3, 9, 4)])])
        assert crankspace.qseries._plan(0, [], 9) == ((0, 0), 0, [])
        assert list(iter_ck_slices([], [5])) == []

    def test_members_must_share_r(self):
        # or nest (TestChainBuild): each one's weights after a_1 are the member's before it
        for weights in ([(3, 2), (4, 3, 1)], [(3, 2), (4, 3, 2), (5, 3, 2)], [(4, 3, 2), (3, 2)]):
            with pytest.raises(CrankspaceError, match="share r or nest"):
                list(iter_ck_slices([(a, (0,)) for a in weights], [5]))

    def test_members_must_have_distinct_weights(self):
        with pytest.raises(CrankspaceError, match="distinct weights"):
            list(iter_ck_slices([((3, 2), (0,)), ((3, 2), (1,))], [5]))


@st.composite
def chains(draw) -> list[tuple[int, ...]]:
    """1..4 weight tuples, each the one before it with one larger weight on top."""
    chain = [tuple(sorted(draw(st.sets(st.integers(1, 6), min_size=1, max_size=3)), reverse=True))]
    for top in sorted(draw(st.sets(st.integers(chain[0][0] + 1, 10), max_size=3))):
        chain.append((top, *chain[-1]))
    return chain


class TestChainBuild:
    """Members that nest across r are one chain: each is (q)_inf times the one before it, over one theta."""

    FAMILIES = {"A": [ak_spec(k).a for k in range(3, 13, 2)], "B": [bk_spec(k).a for k in (7, 9, 11)]}

    @staticmethod
    def assert_chain_matches_lone_and_shift_add_builds(chain, deltas, sizes):
        packed, chained, decode = [], {}, crankspace.qseries._slices

        def kept_scan(ints, c, bits, *args):
            packed.append((ints, bits))
            return decode(ints, c, bits, *args)

        with mock.patch.object(crankspace.qseries, "_slices", kept_scan):
            for a, scans in iter_ck_slices([(a, deltas) for a in chain], sizes):
                chained[a] = [list(scan) for scan in scans]
                ints, bits = packed[-1]
                assert ints == shift_add_half(a, max(sizes), bits), a
        assert list(chained) == chain
        for a in chain:
            [(_, scans)] = iter_ck_slices([(a, deltas)], sizes)
            assert chained[a] == [list(scan) for scan in scans], a

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_family_chains_match_lone_and_shift_add_builds(self, family):
        self.assert_chain_matches_lone_and_shift_add_builds(self.FAMILIES[family], (0, 1), range(40, -1, -1))

    @settings(max_examples=40, deadline=None)
    @given(chain=chains(), deltas=st.sampled_from([(0,), (1,), (0, 1)]),
           sizes=st.lists(st.integers(0, 24), min_size=1, max_size=4))
    def test_random_chains_match_lone_and_shift_add_builds(self, chain, deltas, sizes):
        self.assert_chain_matches_lone_and_shift_add_builds(chain, deltas, sizes)

    def test_a_chain_slot_is_its_widest_members(self, monkeypatch):
        # to q^59, r = 2 alone packs 64-bit slots and r = 6 needs 72: in the narrower slots
        # of its smallest member the chain overflows
        qs, sizes, chain = crankspace.qseries, range(59, 0, -1), self.FAMILIES["A"]
        widths = []
        monkeypatch.setattr(qs, "_slot_width", lambda largest: widths.append(_slot_width(largest)) or widths[-1])
        for members in ([chain[0]], [chain[-1]], chain):
            next(iter_ck_slices([(a, (0, 1)) for a in members], sizes))
        assert widths == [64, 72, 72]
        monkeypatch.setattr(qs, "_slot_width", lambda largest: 64)
        with pytest.raises(SlotOverflow):
            for _, scans in iter_ck_slices([(a, (0, 1)) for a in chain], sizes):
                [list(scan) for scan in scans]


@pytest.mark.parametrize("argv,roots", [
    # two chains from r = 2 and 4, and eight windowed walks, one per chain member
    (["verify", "conj1.4", "--n-max", "30"], 41),
    # seven (r, a_1) tasks of r = 2 or 3, each walked once windowed and once in full
    (["search", "table1"], 36),
    # one lone tuple of r = 3, unscreened
    (["verify", "cor3.5-A-k6-ell5", "--n-max", "5"], 3),
    (["verify", "cor3.5-B-k11-ell5", "--n-max", "24"], 6),
], ids=["conj1.4", "table1", "cor3.5-A", "cor3.5-B"])
def test_every_pass_runs_in_the_build_walk(monkeypatch, capsys, argv, roots):
    # one route per build: chains, shared trees, the screen's windowed trees and the root
    # steps that build (q)_inf^r alike are walked by _build; roots counts those steps, the
    # pentagonal passes at frame 0
    qs, callers, root_steps = crankspace.qseries, [], []
    for name in ("_theta_pass", "_pentagonal_pass"):
        def spy(*args, name=name, run=getattr(qs, name)):
            callers.append(sys._getframe(1).f_code.co_name)
            root_steps.append(name == "_pentagonal_pass" and args[1] == 0)  # (ints, c, bits)
            run(*args)

        monkeypatch.setattr(qs, name, spy)
    assert cli.main(["--threads", "1", *argv]) == 0
    capsys.readouterr()
    assert set(callers) == {"_build"}
    assert sum(root_steps) == roots


@pytest.mark.parametrize("argv,copies", [
    # two chains, whose lists are a leaf and one step, and six windows, each a chain alone
    (["verify", "conj1.4", "--n-max", "30"], {False: 0, True: 0}),
    # 7 tasks: the 13 tuples built include three shared branches into 4, 3 and 2 tuples,
    # 3 + 2 + 1 copies; the 26 screened go alone, one list per task, one step per tuple
    (["search", "table1"], {False: 6, True: 19}),
], ids=["conj1.4", "table1"])
def test_a_step_copies_its_entries_only_before_the_last_step_of_its_list(monkeypatch, capsys, argv, copies):
    # the last step of each list in a tree works on the entries in place, each step before it on
    # a copy: the entry lists the walks step through, less each walk's own, full and windowed.
    # A walk is a call from outside _build: its root steps recurse at frame 0 too
    qs, stepped, walks = crankspace.qseries, {False: [], True: []}, {False: 0, True: 0}
    build = qs._build

    def spy(ints, c, tree, bits, window=0):
        stepped[bool(window)].append(ints)  # held, so that no two of them share an id
        walks[bool(window)] += sys._getframe(1).f_code.co_name != "_build"
        return build(ints, c, tree, bits, window)

    monkeypatch.setattr(qs, "_build", spy)
    assert cli.main(["--threads", "1", *argv]) == 0
    capsys.readouterr()
    assert {kind: len({id(ints) for ints in lists}) - walks[kind] for kind, lists in stepped.items()} == copies


class TestTopWindows:
    """The search screen's window of a top slice is the end of that slice's built half."""

    def test_window_is_the_end_of_the_top_half(self):
        # every tuple with 3 <= k <= 12 at n_hi 2, 3 and 12, and with k 3..8 at 30, in k's parity,
        # windowed alone and with all the tuples of its r and a_1, as one search task
        checked = 0
        for n_hi, k_hi in ((2, 12), (3, 12), (12, 12), (30, 8)):
            tasks: dict = {}
            for k in range(3, k_hi + 1):
                for spec in crank_space(k):
                    a, deltas = spec.a, (spec.delta,)
                    [(_, [[(_, half)]])] = iter_ck_slices([(a, deltas)], [n_hi - 1])
                    assert top_windows([(a, deltas)], n_hi - 1) == [[half[-a[0] - 1 :]]], (a, k, n_hi)
                    tasks.setdefault((len(a), a[0]), {}).setdefault(a, {})[spec.delta] = half[-a[0] - 1 :]
                    checked += 1
            for task in tasks.values():
                members = [(a, tuple(ends)) for a, ends in task.items()]
                assert top_windows(members, n_hi - 1) == [list(ends.values()) for ends in task.values()]
        assert checked == 5868
        # members of any r and a_1 in one call: the A and B chains, with (4, 2, 1) walked beside
        # (4, 3, 2), each member's windows in member order, as it gets them alone
        mixed = [(ak_spec(k).a, (0, 1)) for k in range(3, 13, 2)] + [(bk_spec(k).a, (1,)) for k in (7, 9, 11)]
        mixed.insert(5, ((4, 2, 1), (0,)))
        for m in (1, 11, 29):
            assert top_windows(mixed, m) == [top_windows([member], m)[0] for member in mixed], m

    def test_windowed_passes_keep_every_entry_inside_the_window(self, monkeypatch):
        theta_pass, passes = crankspace.qseries._theta_pass, []

        def spy(ints, aj, origin, bits, last, window=0):
            theta_pass(ints, aj, origin, bits, last, window)
            assert window and all(0 <= x < 1 << (bits * window) for x in ints)
            passes.append(aj)

        monkeypatch.setattr(crankspace.qseries, "_theta_pass", spy)
        for a in [(3, 2), (5, 3, 1), (7, 6, 4, 2), (12, 11, 10, 9, 8, 7)]:
            top_windows([(a, (0, 1))], 59)
        assert len(passes) == 15

    def test_a_windowed_build_adds_no_term_past_its_window(self, monkeypatch):
        # a term whose lowest slot is W or above cannot reach the window, so none is added: each
        # windowed pass pushes exactly the terms whose lowest slot is below W, alone (frame
        # a_j) and below a shared first step (frame a_1), and an odd slice shifts in only q^1's
        # term (a_1*g < a_1 + 1)
        qs, shifted = crankspace.qseries, []
        split = qs._pentagonal_split
        pushed, expected = count_windowed_pushes(monkeypatch)

        def counted_split(series, m, terms, shift=0):
            if shift:
                shifted.append([g for g, _ in terms if g <= m])
            return split(series, m, terms, shift)

        monkeypatch.setattr(qs, "_pentagonal_split", counted_split)
        task = [(spec.a, (0, 1)) for spec in crank_space(8) if spec.a[0] == 7]  # 20 tuples
        for members, m in [([((1,), (0, 1))], 12), ([((5, 3, 1), (0, 1))], 30),
                           ([((7, 6, 5, 4, 3, 2), (0, 1))], 59), (task, 9)]:
            shifted.clear()
            top_windows(members, m)
            assert shifted == [[], [1]] * len(members), members
        assert pushed == expected
        assert len(pushed) == 10 + 35 and sum(pushed[:10]) == 262 and sum(pushed) == 584  # 35: a trie


def one_parity_builds(a: tuple[int, ...], sizes: range) -> list[tuple[int, tuple[LaurentPoly, ...]]]:
    """Per size, the odd-k and even-k slices of weights a, from two separate builds."""
    r = len(a)
    odd, even = (spec_slices(CrankSpec(k, a), sizes) for k in (2 * r - 1, 2 * r))
    return [(m, (f0, f1)) for (m, f1), (_, f0) in zip(odd, even)]


class TestSharedParityBuild:
    # every weight tuple of k = 3..6, and the A_(2j-1)/A_(2j) pairs up to A11/A12
    TUPLES = sorted({spec.a for k in range(3, 7) for spec in crank_space(k)}
                    | {ak_spec(k).a for k in range(3, 13, 2)})

    @pytest.mark.parametrize("r", sorted({len(a) for a in TUPLES}))
    def test_shared_build_matches_two_one_parity_builds(self, r):
        for a in (a for a in self.TUPLES if len(a) == r):
            assert tuple_slices(a, (0, 1), range(40)) == one_parity_builds(a, range(40)), a

    def test_shared_slot_is_the_widest_parity_slot(self, monkeypatch):
        # at order 83, r = 3: the odd parity's pos totals need 72-bit slots and
        # the even parity's fit in 64, so the shared build decodes both slot by slot
        widths = []
        monkeypatch.setattr("crankspace.qseries._slot_width",
                            lambda largest: widths.append(_slot_width(largest)) or widths[-1])
        a, sizes = (3, 2, 1), range(1, 84)
        shared = tuple_slices(a, (0, 1), sizes)
        assert widths == [72]
        assert shared == one_parity_builds(a, sizes)
        assert widths == [72, 72, 64]


class TestSliceAccess:
    def test_iter_matches_full_series(self):
        spec = CrankSpec(4, (3, 2))
        pairs = list(spec_slices(spec, range(11)))
        assert [n for n, _ in pairs] == list(range(11))
        assert [p for _, p in pairs] == naive_colored_crank(spec.a, spec.delta, 10)

    def test_slices_at_picks_requested_indices(self):
        spec = CrankSpec(3, (3, 2))
        series = slices(spec, 20)
        got = list(spec_slices(spec, [20, 0, 7]))
        assert [n for n, _ in got] == [20, 0, 7]
        for n, poly in got:
            assert poly == series[n]

    def test_slices_at_rejects_out_of_range(self):
        spec = CrankSpec(3, (2, 1))
        with pytest.raises(ValueError):
            list(spec_slices(spec, [3, -1]))
        assert list(spec_slices(spec, [])) == []


def test_public_annotations_resolve():
    for _, fn in inspect.getmembers(crankspace.qseries, inspect.isfunction):
        if fn.__module__ == crankspace.qseries.__name__:
            typing.get_type_hints(fn)
