"""Enumerators against brute-force oracles, plus the representative maps of
the proof witnesses (`witness`)."""

from __future__ import annotations

import random
import time
import tracemalloc
from functools import cache
from itertools import chain, combinations
from math import comb

import pytest

import design_forge.blocks as blocks_module
import design_forge.field as field_module
from design_forge.blocks import (
    BlockFamily,
    family_predicate,
    gdd_blocks,
    gdd_groups,
    lift_chunks,
    shift_invariant_blocks,
    sum_to_shift_blocks,
    sum_to_zero_blocks,
    zero_sum_blocks,
    zero_sum_blocks_containing,
)
from design_forge.errors import (
    ArgumentError,
    BudgetExceededError,
    ConsistencyError,
    FamilyError,
    InvalidShiftError,
    RangeError,
)
from helpers import (
    brute_gdd_blocks,
    brute_gdd_groups,
    brute_shift_invariant,
    brute_sum_to_shift,
    brute_sum_to_zero,
    brute_xor_subsets,
    brute_zero_sum,
    brute_zero_sum_containing,
    hamming_weight_count,
    made_blocks,
    xor_sum,
)
from witness import (
    MapViolationError,
    NoRepresentativeError,
    as_block,
    natural_ordering,
    quotient,
    replace_point_map,
    representative,
    shift_representative,
)


def lifted_chunks(ambient, k, alpha):
    """The lifted design in GF(2^ambient) as made: the chunks of the lift
    of the zero-sum family one exponent down."""
    return lift_chunks(zero_sum_blocks(ambient - 1, k), alpha)


class TestZeroSumBlocks:
    def test_smallest_field(self):
        fam = zero_sum_blocks(3, 3)
        assert len(fam) == 7
        assert (1, 2, 3) in fam
        assert (1, 4, 5) in fam

    def test_m3_k4_brute(self):
        assert len(zero_sum_blocks(3, 4)) == 7

    def test_m4_k3(self):
        assert len(zero_sum_blocks(4, 3)) == 35

    @pytest.mark.parametrize("m,k", [(3, 3), (3, 4)] + [(4, k) for k in range(3, 13)])
    def test_matches_brute_force(self, m, k):
        fam = zero_sum_blocks(m, k)
        assert list(fam) == brute_zero_sum(m, k)

    @pytest.mark.parametrize("m", [3, 4])
    def test_complement_bijection(self, m):
        v = 2**m - 1
        everything = set(range(1, 2**m))
        for k in range(3, v - 3):
            fam = set(zero_sum_blocks(m, k))
            mirror = set(zero_sum_blocks(m, v - k))
            assert {tuple(sorted(everything - set(b))) for b in fam} == mirror
            assert len(fam) == len(mirror)

    @pytest.mark.parametrize("m,k", [(3, 3), (3, 4), (4, 7), (5, 3), (5, 4), (5, 5)])
    def test_nonempty(self, m, k):
        assert len(zero_sum_blocks(m, k)) > 0

    def test_canonical_and_sorted_output(self):
        fam = zero_sum_blocks(4, 4)
        assert list(fam) == sorted(fam)
        assert all(all(a < b for a, b in zip(blk, blk[1:])) for blk in fam)

    def test_k_out_of_range(self):
        with pytest.raises(RangeError):
            zero_sum_blocks(3, 5)
        with pytest.raises(RangeError):
            zero_sum_blocks(4, 99)
        with pytest.raises(RangeError):
            zero_sum_blocks(4, 2)

    def test_budget_exceeded_names_the_bound(self):
        with pytest.raises(BudgetExceededError) as exc:
            zero_sum_blocks(4, 5, budget=10)
        assert exc.value.budget == 10

    def test_family_rechecks_members(self):
        with pytest.raises(FamilyError):
            BlockFamily("W", 3, 3, ((1, 2, 4),))  # XOR is 7, not 0
        with pytest.raises(FamilyError):
            BlockFamily("W", 3, 3, ((3, 2, 1),))  # not increasing


def _search_nodes(n, k):
    """Nodes of a depth-first search for k ascending points out of n that
    places the first k - 1 and looks up the last: one per placed point and
    one per lookup, counted by walking the search."""

    @cache
    def walk(lo, slots):
        if slots == 1:
            return 1
        return sum(1 + walk(i + 1, slots - 1) for i in range(lo, n - slots + 1))

    return walk(0, k)


class TestSearchBudget:
    @pytest.mark.parametrize("n", [7, 15, 31, 62])
    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_closed_form_counts_the_search_nodes(self, n, k):
        closed = sum(comb(n - k + d, d) for d in range(1, k)) + comb(n - 1, k - 1)
        assert closed == _search_nodes(n, k)

    @pytest.mark.parametrize(
        "build,args,n,k",
        [
            (zero_sum_blocks, (4, 5), 15, 5),
            (zero_sum_blocks, (5, 4), 31, 4),
            (zero_sum_blocks_containing, (5, 5, 3, 9), 29, 3),
            (sum_to_shift_blocks, (4, 6, 5), 14, 6),
            (sum_to_shift_blocks, (5, 3, 30), 30, 3),
            (sum_to_zero_blocks, (5, 4, 7), 30, 4),
            (zero_sum_blocks_containing, (5, 3, 3, 9), 29, 1),
            (zero_sum_blocks_containing, (5, 4, 3, 9), 29, 2),
            (sum_to_shift_blocks, (5, 2, 30), 30, 2),
        ],
        ids=lambda v: getattr(v, "__name__", None),
    )
    def test_a_budget_of_exactly_the_count_suffices(self, build, args, n, k):
        nodes = _search_nodes(n, k)
        assert len(build(*args, budget=nodes)) > 0
        if nodes == 1:  # one lookup; a budget of 0 is refused as an argument
            with pytest.raises(ArgumentError):
                build(*args, budget=0)
            return
        with pytest.raises(BudgetExceededError) as exc:
            build(*args, budget=nodes - 1)
        assert exc.value.budget == nodes - 1

    def test_lifted_family_adds_one_node_per_block(self):
        nodes = _search_nodes(15, 4) + len(gdd_blocks(5, 4, 9))
        assert len(gdd_blocks(5, 4, 9, budget=nodes)) == 840
        with pytest.raises(BudgetExceededError):
            gdd_blocks(5, 4, 9, budget=nodes - 1)
        # A lift of a family searched elsewhere is charged that search too,
        # when it is called, before any chunk is asked for.
        base = zero_sum_blocks(4, 4)
        assert sorted(made_blocks(lift_chunks(base, 9, nodes))) == list(gdd_blocks(5, 4, 9))
        with pytest.raises(BudgetExceededError) as exc:
            lift_chunks(base, 9, nodes - 1)
        assert str(exc.value) == f"lifted blocks (exp=5, k=4, alpha=9): exceeded the enumeration budget of {nodes - 1} nodes"

    def test_a_lift_refuses_a_bad_shift_when_it_is_called(self):
        base = zero_sum_blocks(4, 4)
        with pytest.raises(InvalidShiftError):
            lift_chunks(base, 0, budget=1)  # before the budget is charged
        with pytest.raises(InvalidShiftError):
            lift_chunks(base, 99)  # before any chunk is asked for

    def test_shift_invariant_family_charges_one_node_per_point(self):
        assert len(shift_invariant_blocks(5, 6, 3, budget=comb(15, 3) * 6)) == 455
        with pytest.raises(BudgetExceededError):
            shift_invariant_blocks(5, 6, 3, budget=comb(15, 3) * 6 - 1)

    def test_search_over_budget_fails_before_it_starts(self):
        start = time.perf_counter()
        with pytest.raises(BudgetExceededError):
            zero_sum_blocks(16, 3)  # 4.29e9 nodes
        assert time.perf_counter() - start < 5


def _search_grounds():
    """Grounds of the search for m = 3..5: GF(2^m)* whole, less one point,
    less a pair, and a random subset with gaps, each sorted."""
    for m in (3, 4, 5):
        full = tuple(range(1, 1 << m))
        gaps = tuple(sorted(random.Random(m).sample(full, 2 * len(full) // 3)))
        yield f"m{m}-whole", full
        yield f"m{m}-less-alpha", tuple(x for x in full if x != 5)
        yield f"m{m}-less-pair", tuple(x for x in full if x not in (3, 6))
        yield f"m{m}-gaps", gaps


SEARCH_GROUNDS = dict(_search_grounds())


class TestXorSubsets:
    """`_xor_subsets` against the brute-force oracle: the lanes of the same
    blocks, in the same order, as `_pack` writes them, in 1-byte and in
    4-byte lanes."""

    @staticmethod
    def _search(ground, k, target, size=1):
        return blocks_module._xor_subsets(ground, k, target, blocks_module._Budget(10**9, "test"), size)

    @staticmethod
    def _lanes(blocks, size):
        return blocks_module._pack(list(chain.from_iterable(blocks)), size)

    @pytest.mark.parametrize("target_kind", ["zero", "in-ground", "outside"])
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("name", SEARCH_GROUNDS)
    def test_matches_brute_force(self, name, k, target_kind):
        ground = SEARCH_GROUNDS[name]
        target = {
            "zero": 0,
            "in-ground": ground[len(ground) // 2],
            "outside": min(set(range(1, 2 * ground[-1] + 2)) - set(ground)),
        }[target_kind]
        want = brute_xor_subsets(ground, k, target)
        for size in (1, 4):
            got = self._search(ground, k, target, size)
            assert type(got) is bytes and got == self._lanes(want, size)

    @pytest.mark.parametrize("name", SEARCH_GROUNDS)
    def test_the_whole_ground_is_one_block_or_none(self, name):
        ground = SEARCH_GROUNDS[name]
        whole = xor_sum(ground)
        for size in (1, 4):
            assert self._search(ground, len(ground), whole, size) == self._lanes([ground], size)
            assert self._search(ground, len(ground), whole ^ 1, size) == b""
            assert self._search(ground[:2], 2, ground[0] ^ ground[1], size) == self._lanes([ground[:2]], size)
            assert self._search(ground[:1], 1, ground[0], size) == self._lanes([ground[:1]], size)

    def test_one_point_heads_keep_no_table(self):
        """The k = 3 search over 1,023 points writes 2 MiB of lanes and
        peaks at ~4.3 MiB traced; keeping each one-point head's pair table
        took it to 48 MiB."""
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            out = self._search(tuple(range(1, 1024)), 3, 0, 4)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert len(out) == 174_251 * 3 * 4
        assert peak < 8 * 2**20

    def test_the_family_peaks_near_twice_its_lanes(self):
        """`zero_sum_blocks(10, 3)` holds no tuple per block: its traced
        peak is the search's output buffer and the copy made of it, then
        the lanes and one chunk of the family check (~4.7 MiB for 2.0 MiB
        of lanes, where a tuple per block took it to 17.7 MiB)."""
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            fam = zero_sum_blocks(10, 3)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert len(fam) == 174_251
        assert peak < 2.5 * len(fam.lanes)


class TestZeroSumBlocksContaining:
    def test_unique_triple(self):
        fam = zero_sum_blocks_containing(3, 3, 1, 2)
        assert tuple(fam) == ((1, 2, 3),)

    def test_known_sizes(self):
        assert len(zero_sum_blocks_containing(4, 4, 1, 2)) == 6
        assert len(zero_sum_blocks_containing(4, 5, 3, 7)) == 16

    @pytest.mark.parametrize("i,j", [(1, 2), (3, 7), (5, 12), (9, 14)])
    def test_matches_brute_force(self, i, j):
        for k in (3, 4, 5):
            fam = zero_sum_blocks_containing(4, k, i, j)
            assert list(fam) == brute_zero_sum_containing(4, k, i, j)

    def test_size_is_pair_independent(self):
        sizes = {
            len(zero_sum_blocks_containing(4, 5, i, j))
            for i, j in [(1, 2), (2, 9), (7, 8), (14, 15)]
        }
        assert len(sizes) == 1

    def test_bad_arguments(self):
        with pytest.raises(ArgumentError):
            zero_sum_blocks_containing(3, 3, 2, 2)
        with pytest.raises(ArgumentError):
            zero_sum_blocks_containing(3, 3, 0, 2)


# The three families tied to one shift: sum-to-alpha (I), sum-to-zero (J)
# and shift-invariant (L). Their sizes satisfy the three-way counting
# identity that drives the per-point recurrence.
SHIFTED_BUILDERS = (sum_to_shift_blocks, sum_to_zero_blocks, shift_invariant_blocks)


class TestShiftedSumFamilies:
    def test_m3_k2(self):
        sizes = [len(build(3, 2, 1)) for build in SHIFTED_BUILDERS]
        assert sizes == [3, 0, 3]

    def test_odd_k_shift_invariant_is_empty(self):
        for k in (3, 5):
            assert len(shift_invariant_blocks(3, k, 1)) == 0

    def test_m4_case_identity(self):
        fam_i, fam_j, fam_l = (build(4, 4, 5) for build in SHIFTED_BUILDERS)
        assert (len(fam_i), len(fam_j), len(fam_l)) == (56, 77, 21)
        assert len(fam_i) == len(fam_j) - 21  # k = 0 (mod 4)

    @pytest.mark.parametrize("alpha", range(1, 8))
    def test_m3_matches_brute_force(self, alpha):
        for k in range(2, 7):
            fam_i, fam_j, fam_l = (build(3, k, alpha) for build in SHIFTED_BUILDERS)
            assert list(fam_i) == brute_sum_to_shift(3, k, alpha)
            assert list(fam_j) == brute_sum_to_zero(3, k, alpha)
            assert list(fam_l) == brute_shift_invariant(3, k, alpha)

    @pytest.mark.parametrize("alpha,k", [(1, 4), (5, 6), (11, 3)])
    def test_m4_spot_matches_brute_force(self, alpha, k):
        fam_i, fam_j, fam_l = (build(4, k, alpha) for build in SHIFTED_BUILDERS)
        assert list(fam_i) == brute_sum_to_shift(4, k, alpha)
        assert list(fam_j) == brute_sum_to_zero(4, k, alpha)
        assert list(fam_l) == brute_shift_invariant(4, k, alpha)

    def test_zero_shift_rejected(self):
        for build in SHIFTED_BUILDERS:
            with pytest.raises(InvalidShiftError):
                build(3, 3, 0)


def _traced_peak(build) -> int:
    """Bytes that `build()` allocates at its peak, under tracemalloc."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        build()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


class TestGddBlocks:
    def test_known_count(self):
        assert len(gdd_blocks(4, 3, 1)) == 28

    @pytest.mark.parametrize("alpha", range(1, 16))
    def test_ambient_16_matches_brute_force(self, alpha):
        for k in (3, 4):
            assert list(gdd_blocks(4, k, alpha)) == brute_gdd_blocks(4, k, alpha)

    @pytest.mark.parametrize("alpha", range(1, 32))
    def test_ambient_32_every_alpha_matches_brute_force(self, alpha):
        for k in (3, 4):
            expected = brute_gdd_blocks(5, k, alpha)
            assert list(gdd_blocks(5, k, alpha)) == expected
            assert sorted(made_blocks(lifted_chunks(5, k, alpha))) == expected

    @pytest.mark.parametrize("alpha", [1, 9, 30])
    def test_ambient_32_spot_matches_brute_force(self, alpha):
        for k in (4, 5):
            expected = brute_gdd_blocks(5, k, alpha)
            assert list(gdd_blocks(5, k, alpha)) == expected
            assert sorted(made_blocks(lifted_chunks(5, k, alpha))) == expected

    @pytest.mark.parametrize("k, alpha", [(k, a) for k in (3, 4, 5) for a in (1, 6, 19, 31)])
    def test_many_sorted_runs_merge_exactly(self, monkeypatch, k, alpha):
        """Chunks of 1, 3 and 64 blocks make a sorted run each, so most
        first points have blocks in several runs; as made, they are the
        same blocks."""
        expected = brute_gdd_blocks(5, k, alpha)
        for chunk in (1, 3, 64):
            monkeypatch.setattr(blocks_module, "_CHUNK", chunk)
            assert list(gdd_blocks(5, k, alpha)) == expected
            assert sorted(made_blocks(lifted_chunks(5, k, alpha))) == expected

    @pytest.mark.parametrize("chunk", [1, 3, 64])
    def test_many_sorted_runs_merge_exactly_in_wide_lanes(self, monkeypatch, chunk):
        expected = gdd_blocks(8, 3, 129)
        monkeypatch.setattr(blocks_module, "_CHUNK", chunk)
        assert gdd_blocks(8, 3, 129).lanes == expected.lanes
        assert sorted(made_blocks(lifted_chunks(8, 3, 129))) == list(expected)

    def test_the_lift_holds_one_bucket_of_keys_at_a_time(self):
        """722,176 blocks: 4.1 MiB of lanes, ~42 MiB had every block a key."""
        assert _traced_peak(lambda: gdd_blocks(6, 6, 1)) < 20 * 2**20

    def test_the_made_order_holds_no_key_per_block(self):
        """The stream holds one chunk's columns at a time: 722,176 blocks
        or 5,287,360, made and dropped a chunk at a time, in ~1 MiB."""
        for k in (6, 7):
            assert _traced_peak(lambda: sum(map(len, lifted_chunks(6, k, 1)))) < 4 * 2**20

    # An alpha with each top bit: the section inserts its zero bit there.
    @pytest.mark.parametrize("ambient, k, alpha", [(6, k, a) for k in (4, 5) for a in (1, 2, 7, 12, 21, 47)] + [(6, 6, 33)])
    def test_the_made_order_sorts_to_the_ordered_one(self, ambient, k, alpha):
        assert sorted(made_blocks(lifted_chunks(ambient, k, alpha))) == list(gdd_blocks(ambient, k, alpha))

    @pytest.mark.parametrize("chunk", [3, blocks_module._CHUNK])
    @pytest.mark.parametrize("ambient, k, alpha", [(5, 4, 6), (6, 5, 47), (8, 3, 129)])
    def test_the_stream_is_the_family_in_chunks(self, monkeypatch, chunk, ambient, k, alpha):
        """Each chunk holds at most `_CHUNK` blocks: the lifts of one run of
        bases, one choice of shifts after another, each run meeting the
        same cosets of {0, alpha} in the same order. The runs ascend, and
        the blocks sort to the family."""
        family = list(gdd_blocks(ambient, k, alpha))
        monkeypatch.setattr(blocks_module, "_CHUNK", chunk)
        made, bases = [], []
        for c in lifted_chunks(ambient, k, alpha):
            blocks = made_blocks([c])
            cosets = [tuple(sorted(quotient(x, alpha, ambient) for x in b)) for b in blocks]
            n = len(set(cosets))
            assert 0 < len(blocks) <= chunk and cosets == cosets[:n] * (len(blocks) // n)
            if bases[-n:] != cosets[:n]:
                bases += cosets[:n]
            made += blocks
        assert sorted(made) == family
        assert bases == list(zero_sum_blocks(ambient - 1, k))

    def test_budget_exceeded_names_the_bound(self):
        with pytest.raises(BudgetExceededError) as exc:
            gdd_blocks(5, 4, 1, budget=10)
        assert exc.value.budget == 10

    def test_blocks_avoid_their_own_shift(self):
        for b in gdd_blocks(5, 4, 7):
            bs = set(b)
            assert not bs & {x ^ 7 for x in bs}

    def test_every_block_sums_to_the_shift(self):
        for b in gdd_blocks(5, 4, 1):
            acc = 0
            for x in b:
                acc ^= x
            assert acc == 1

    def test_range_errors(self):
        with pytest.raises(RangeError):
            gdd_blocks(4, 5, 1)  # over the cap for this ambient size
        with pytest.raises(RangeError):
            gdd_blocks(4, 2, 1)  # pairs come from gdd_groups
        with pytest.raises(InvalidShiftError):
            gdd_blocks(4, 3, 0)
        with pytest.raises(InvalidShiftError):
            gdd_blocks(4, 3, 16)


class TestGddGroups:
    def test_ambient_16_shift_one(self):
        fam = gdd_groups(4, 1)
        assert tuple(fam) == ((2, 3), (4, 5), (6, 7), (8, 9), (10, 11), (12, 13), (14, 15))

    def test_count_ambient_32(self):
        assert len(gdd_groups(5, 9)) == 15

    @pytest.mark.parametrize("ambient", [4, 5])
    def test_partition_of_the_point_set(self, ambient):
        for alpha in range(1, 2**ambient):
            fam = gdd_groups(ambient, alpha)
            seen = [x for g in fam for x in g]
            assert len(seen) == len(set(seen))
            assert set(seen) == set(range(1, 2**ambient)) - {alpha}


class TestRepresentative:
    def test_all_survivors(self):
        o = natural_ordering(1, 3)
        assert representative((2, 4, 6), 1, o) == 6

    def test_single_survivor(self):
        o = natural_ordering(1, 3)
        assert representative((2, 3, 4), 1, o) == 4

    def test_unique_under_any_fixed_ordering(self):
        o = natural_ordering(1, 3)
        rev = o.reversed()
        assert representative((2, 4, 6), 1, rev) == 2

    def test_no_representative(self):
        o = natural_ordering(1, 3)
        with pytest.raises(NoRepresentativeError):
            representative((2, 3), 1, o)

    def test_ordering_shift_mismatch(self):
        o = natural_ordering(2, 3)
        with pytest.raises(ArgumentError):
            representative((2, 4, 6), 1, o)


class TestReplacePointMap:
    def test_identity_when_target_already_present(self):
        o = natural_ordering(2 ^ 4, 3)
        b = (1, 2, 4, 7)
        assert replace_point_map(b, 1, 2, 4, o) == b

    def test_exhaustive_bijection_small(self):
        o = natural_ordering(2 ^ 4, 4)
        dom = zero_sum_blocks_containing(4, 4, 1, 2)
        cod = set(zero_sum_blocks_containing(4, 4, 1, 4))
        images = [replace_point_map(b, 1, 2, 4, o) for b in dom]
        assert len(set(images)) == len(dom) == len(cod) == 6
        assert set(images) == cod

    @pytest.mark.parametrize("ell", [4, 8, 15])
    def test_round_trip_over_a_whole_family(self, ell):
        o = natural_ordering(2 ^ ell, 4)
        dom = zero_sum_blocks_containing(4, 5, 1, 2)
        assert len(dom) == 16
        for b in dom:
            image = replace_point_map(b, 1, 2, ell, o)
            assert replace_point_map(image, 1, ell, 2, o) == b

    def test_full_triple_sweep_is_clean_on_the_small_field(self):
        for k in (3, 4):
            families = {}
            for i in range(1, 8):
                for j in range(1, 8):
                    if i != j:
                        families[(i, j)] = zero_sum_blocks_containing(3, k, i, j)
            for i in range(1, 8):
                for j in range(1, 8):
                    for ell in range(1, 8):
                        if len({i, j, ell}) < 3:
                            continue
                        o = natural_ordering(j ^ ell, 3)
                        dom = families[(i, j)]
                        cod = set(families[(i, ell)])
                        images = {replace_point_map(b, i, j, ell, o) for b in dom}
                        assert images == cod

    def test_degenerate_case_is_surfaced_not_silent(self):
        # The removal/insertion collides when the representative lands on
        # i + (j + ell); the map reports it and carries the evidence.
        o = natural_ordering(1 ^ 8, 4)
        with pytest.raises(MapViolationError) as exc:
            replace_point_map((1, 2, 4, 10, 13), 4, 1, 8, o)
        assert exc.value.block == (1, 2, 4, 10, 13)
        assert exc.value.image == (2, 4, 8, 10)
        # The size identity between the two families holds regardless.
        assert len(zero_sum_blocks_containing(4, 5, 4, 1)) == len(
            zero_sum_blocks_containing(4, 5, 4, 8)
        )

    def test_ordering_independence_of_the_image_size(self):
        natural = natural_ordering(2 ^ 4, 4)
        reverse = natural.reversed()
        dom = zero_sum_blocks_containing(4, 4, 1, 2)
        cod = set(zero_sum_blocks_containing(4, 4, 1, 4))
        for ordering in (natural, reverse):
            images = {replace_point_map(b, 1, 2, 4, ordering) for b in dom}
            assert images == cod

    def test_domain_membership_is_enforced(self):
        o = natural_ordering(2 ^ 4, 3)
        with pytest.raises(FamilyError):
            replace_point_map((1, 2, 3), 5, 2, 4, o)  # does not contain 5
        with pytest.raises(ArgumentError):
            replace_point_map((1, 2, 3), 1, 2, 2, o)  # ell duplicates j

    def test_repeated_point_is_a_family_error(self):
        o = natural_ordering(6, 3)
        with pytest.raises(FamilyError, match="duplicate element 1 in block"):
            replace_point_map((1, 1, 2, 2), 1, 2, 4, o)

    def test_sampled_triples_either_biject_or_report(self):
        rng = random.Random(1726)
        outcomes = {"clean": 0, "reported": 0}
        for _ in range(60):
            k = rng.choice((5, 6))
            i, j, ell = rng.sample(range(1, 16), 3)
            o = natural_ordering(j ^ ell, 4)
            dom = zero_sum_blocks_containing(4, k, i, j)
            cod = set(zero_sum_blocks_containing(4, k, i, ell))
            try:
                images = {replace_point_map(b, i, j, ell, o) for b in dom}
            except MapViolationError:
                outcomes["reported"] += 1
                assert len(dom) == len(cod)
            else:
                outcomes["clean"] += 1
                assert images == cod
        assert sum(outcomes.values()) == 60


class TestShiftRepresentative:
    def test_odd_k_bijection(self):
        o = natural_ordering(1, 3)
        fam_i = sum_to_shift_blocks(3, 3, 1)
        images = {shift_representative(b, 1, 3, o) for b in fam_i}
        assert len(images) == len(fam_i)
        assert images == set(sum_to_zero_blocks(3, 3, 1))

    def test_shift_invariant_blocks_have_no_representative(self):
        o = natural_ordering(1, 3)
        with pytest.raises(NoRepresentativeError):
            shift_representative((2, 3), 1, 2, o)

    def test_k0_mod4_bijects_onto_the_difference(self):
        o = natural_ordering(5, 4)
        fam_i, fam_j, fam_l = (build(4, 4, 5) for build in SHIFTED_BUILDERS)
        fixed = set(fam_l)
        images = {shift_representative(b, 5, 4, o) for b in fam_i}
        assert len(images) == len(fam_i)
        assert images == set(fam_j) - fixed

    def test_image_sum_shifts_by_alpha(self):
        o = natural_ordering(3, 4)
        fam_i = sum_to_shift_blocks(4, 5, 3)
        for b in list(fam_i)[:20]:
            image = shift_representative(b, 3, 5, o)
            acc = 0
            for x in image:
                acc ^= x
            assert acc == 0

    def test_domain_enforced(self):
        o = natural_ordering(1, 3)
        with pytest.raises(FamilyError):
            shift_representative((1, 2, 3), 1, 3, o)  # contains the shift itself
        with pytest.raises(ArgumentError):
            shift_representative((2, 4, 6), 1, 4, o)  # size mismatch

    def test_repeated_point_is_a_family_error(self):
        o = natural_ordering(4, 3)
        with pytest.raises(FamilyError, match="duplicate element 1 in block"):
            shift_representative((1, 1, 2, 6), 4, 4, o)


class TestFamilyPlumbing:
    def test_as_block_sorts_and_rejects_duplicates(self):
        assert as_block([5, 1, 3]) == (1, 3, 5)
        with pytest.raises(FamilyError):
            as_block([1, 1, 2])

    def test_membership_is_binary_search(self):
        fam = zero_sum_blocks(4, 3)
        assert (1, 2, 3) in fam
        assert (1, 2, 4) not in fam
        assert [4, 8, 12] in fam

    def test_membership_holds_in_any_block_order(self):
        fam = BlockFamily("W", 3, 3, [(3, 5, 6), (1, 2, 3), (1, 4, 5)])
        assert (1, 2, 3) in fam and (3, 5, 6) in fam and (1, 4, 5) in fam
        # (5, 6, 1) and (6, 1, 2) are bytes of the lanes across two blocks.
        for other in ((1, 2, 4), (5, 6, 1), (6, 1, 2), (2, 3, 1), (1, 6, 7)):
            assert other not in fam
        assert () in BlockFamily("W", 3, 0, [()]) and () not in BlockFamily("W", 3, 0, [])

    @pytest.mark.parametrize("ambient, k, alpha", [(5, 4, 7), (8, 3, 129)], ids=["bytes", "wide"])
    def test_membership_of_the_lift_as_made(self, ambient, k, alpha):
        made = BlockFamily("U", ambient, k, made_blocks(lifted_chunks(ambient, k, alpha)), alpha=alpha)
        members = set(gdd_blocks(ambient, k, alpha))
        assert all(b in made for b in members)
        ground = range(1, 2**ambient) if ambient < 8 else range(1, 24)
        assert [b for b in combinations(ground, k) if b in made] == sorted(members & set(combinations(ground, k)))

    @pytest.mark.parametrize("fam", [zero_sum_blocks(4, 3), zero_sum_blocks(8, 3)], ids=["bytes", "wide"])
    def test_membership_of_what_is_not_k_points_is_false(self, fam):
        # Only k ints that fit a lane can be members; a float equal to a
        # point is not one.
        first = next(iter(fam))
        assert first in fam and list(first) in fam and (True, *first[1:]) in fam
        for other in (5, None, "ab", "abc", (1.0, 2, 3), (first[0] + 0.0, *first[1:]),
                      first[:-1], (*first, 0), (-1, 2, 3), (2**40, 2, 3), ([1], 2, 3)):
            assert other not in fam

    @pytest.mark.parametrize(
        "fam",
        [zero_sum_blocks(4, 5), sum_to_shift_blocks(9, 3, 100), gdd_blocks(5, 5, 19), gdd_groups(17, 3),
         # Wpair and L are built in order, with no sort of the whole family.
         zero_sum_blocks_containing(4, 4, 1, 2), zero_sum_blocks_containing(5, 5, 17, 3),
         zero_sum_blocks_containing(6, 4, 63, 40), zero_sum_blocks_containing(9, 4, 300, 5),
         shift_invariant_blocks(4, 4, 1), shift_invariant_blocks(5, 6, 7), shift_invariant_blocks(6, 4, 33),
         shift_invariant_blocks(8, 4, 200), shift_invariant_blocks(9, 4, 3)],
        ids=["W", "I-wide", "U", "groups-wide", "Wpair-1-2", "Wpair-17-3", "Wpair-63-40", "Wpair-wide",
             "L-1", "L-7", "L-33", "L-wide-200", "L-wide-3"],
    )
    def test_lanes_hold_the_blocks_in_order(self, fam):
        assert len(fam.lanes) == len(fam) * fam.k * fam.lane_size
        assert fam.lane_size == (1 if fam.m < 8 else 4)
        blocks = tuple(fam)
        assert blocks == tuple(fam) == tuple(sorted(blocks))
        assert all(type(b) is tuple and all(type(x) is int for x in b) for b in blocks)
        width = fam.k * fam.lane_size
        keys = [fam.lanes[i : i + width] for i in range(0, len(fam.lanes), width)]
        assert keys == sorted(keys)  # big-endian lanes sort as the blocks do
        again = BlockFamily(fam.kind, fam.m, fam.k, blocks, alpha=fam.alpha, pair=fam.pair)
        assert again == fam and again.lanes == fam.lanes and hash(again) == hash(fam)
        assert BlockFamily._from_lanes(fam.kind, fam.m, fam.k, fam.lanes, alpha=fam.alpha, pair=fam.pair) == fam

    @pytest.mark.parametrize("fam", [gdd_blocks(5, 4, 1), gdd_blocks(8, 3, 129)], ids=["bytes", "wide"])
    def test_points_are_the_blocks_in_turn(self, fam):
        points = fam.points
        assert list(points) == [x for block in fam for x in block]
        assert points is fam.lanes if fam.lane_size == 1 else points.typecode == "I"

    def test_a_bad_lane_names_its_block_unpacked(self):
        fam = gdd_blocks(5, 4, 1)
        lanes = bytearray(fam.lanes)
        lanes[4 * 7 + 3] = 31  # block 7 keeps its order but not its sum
        b = (*tuple(fam)[7][:3], 31)
        with pytest.raises(FamilyError) as exc:
            BlockFamily._from_lanes("U", 5, 4, bytes(lanes), alpha=1)
        assert str(exc.value) == f"block {b} violates the U predicate"

    def test_an_enumerators_own_bad_block_is_a_consistency_error(self, monkeypatch):
        # A bad block the enumerator made is a fault of ours, not refused input.
        monkeypatch.setattr(blocks_module, "cosets_of", lambda alpha, m: field_module.cosets_of(2, m))
        with pytest.raises(ConsistencyError) as exc:
            shift_invariant_blocks(4, 4, 1)  # built from the cosets of 2, checked against 1
        assert str(exc.value) == "enumerated block (1, 3, 4, 6) violates the L predicate"
        assert isinstance(exc.value.__cause__, FamilyError)
        monkeypatch.setattr(blocks_module, "_xor_subsets", lambda *args: bytes((1, 2, 4)))
        with pytest.raises(ConsistencyError) as exc:
            zero_sum_blocks(3, 3)
        assert str(exc.value) == "enumerated block (1, 2, 4) violates the W predicate"

    def test_predicates_require_their_parameters(self):
        for kind in ("I", "J", "L", "U"):
            with pytest.raises(ArgumentError, match=f"family '{kind}' needs a shift alpha"):
                family_predicate(kind, 3, 3)
        with pytest.raises(ArgumentError, match="family 'Wpair' needs its required pair"):
            family_predicate("Wpair", 3, 3)
        with pytest.raises(ArgumentError, match="unknown family kind 'X'"):
            family_predicate("X", 3, 3)
        with pytest.raises(InvalidShiftError):
            family_predicate("U", 3, 3, alpha=8)

    def test_independent_predicate_pass_over_every_family(self):
        # Re-verify enumerator output with the standalone predicates.
        fam = zero_sum_blocks(3, 4)
        pred = family_predicate("W", 3, 4)
        assert all(pred(b) for b in fam)
        fam_i, fam_j, fam_l = (build(4, 4, 9) for build in SHIFTED_BUILDERS)
        for family, kind in ((fam_i, "I"), (fam_j, "J"), (fam_l, "L")):
            pred = family_predicate(kind, 4, 4, alpha=9)
            assert all(pred(b) for b in family)
        fam_u = gdd_blocks(4, 3, 5)
        pred = family_predicate("U", 4, 3, alpha=5)
        assert all(pred(b) for b in fam_u)


def _brute_family(kind, m, k, alpha, pair):
    if kind == "W":
        return brute_zero_sum(m, k)
    if kind == "Wpair":
        return brute_zero_sum_containing(m, k, *pair)
    if kind == "I":
        return brute_sum_to_shift(m, k, alpha)
    if kind == "J":
        return brute_sum_to_zero(m, k, alpha)
    if kind == "L":
        return brute_shift_invariant(m, k, alpha)
    return brute_gdd_groups(m, alpha) if k == 2 else brute_gdd_blocks(m, k, alpha)


_ORACLE_CASES = [
    case
    for m in (3, 4)
    for case in (
        [(m, "W", None, None)]
        + [(m, "Wpair", None, pair) for pair in ((1, 2), (3, 2**m - 1))]
        + [(m, kind, alpha, None) for kind in "IJLU" for alpha in (1, 6, 2**m - 1)]
    )
]


class TestPredicateOracles:
    @pytest.mark.parametrize(
        "m,kind,alpha,pair",
        _ORACLE_CASES,
        ids=lambda v: "-".join(map(str, v)) if isinstance(v, tuple) else None,
    )
    def test_predicate_is_brute_force_membership(self, m, kind, alpha, pair):
        # Every k-subset of 0..2^m - 1, for every k: the predicate accepts
        # exactly the oracle's members, in any order, and nothing that
        # holds a point outside 1..2^m - 1 or has another size.
        size = 2**m
        preds = [family_predicate(kind, m, k, alpha=alpha, pair=pair) for k in range(size + 2)]
        for k in range(size + 1):
            pred = preds[k]
            members = set(_brute_family(kind, m, k, alpha, pair))
            for b in combinations(range(size), k):
                assert pred(b) == pred(b[::-1]) == (b in members), b
            for b in members:
                assert not preds[k + 1](b), b
                if b:
                    assert not preds[k - 1](b), b
                    assert not pred(b[:-1] + (size,)), b
                    assert not pred((-1,) + b[1:]), b

    @pytest.mark.parametrize(
        "m,kind,alpha,pair",
        _ORACLE_CASES,
        ids=lambda v: "-".join(map(str, v)) if isinstance(v, tuple) else None,
    )
    def test_predicate_rejects_a_repeated_point(self, m, kind, alpha, pair):
        # A member of k - 2 points with one of its points put in twice
        # more keeps its XOR-sum, its set and its allowed points, but is no
        # k-subset; nor is a member of k - 1 points with one put in again.
        preds = [family_predicate(kind, m, k, alpha=alpha, pair=pair) for k in range(2**m + 2)]
        for k in range(2**m):
            for b in _brute_family(kind, m, k, alpha, pair):
                for x in b:
                    for extra in ((x,), (x, x)):
                        c = b + extra
                        assert not preds[len(c)](c) and not preds[len(c)](c[::-1]), c
        assert not family_predicate("W", 3, 4)((1, 1, 2, 2))
        assert not family_predicate("L", 3, 4, alpha=1)((2, 3, 2, 3))

    def test_predicate_takes_any_iterable(self):
        # Like `in`: the points may come from a generator, and anything
        # that is not iterable is no member.
        assert family_predicate("W", 3, 3)(x for x in (1, 2, 3))
        assert family_predicate("L", 3, 4, alpha=1)(x for x in (3, 2, 5, 4))
        assert not family_predicate("W", 3, 3)(x for x in (1, 2, 4))
        assert not family_predicate("W", 3, 3)(5)

    @pytest.mark.parametrize("m", [3, 8], ids=["bytes", "wide"])
    def test_predicate_rejects_points_that_fit_no_lane(self, m):
        # The predicate reads the points as given, one lane each: an int
        # past the lane or below 0 with allowed low bits is no member.
        pred = family_predicate("W", m, 3)
        assert pred((1, 2, 3)) and pred([3, True, 2])
        for shift in (8, 32, 40):
            for last in (3 + (1 << shift), 3 - (1 << shift)):
                assert not pred((1, 2, last)) and not pred((last, 1, 2)), last
        for last in (3.0, "3", None, [3]):
            assert not pred((1, 2, last))

    @pytest.mark.parametrize(
        "kind,m,k,alpha,pair,block,message",
        [
            pytest.param("W", 3, 3, None, None, (1, 8, 9), "violates the W predicate",
                         id="point-out-of-range"),
            pytest.param("I", 3, 4, 1, None, (1, 2, 4, 6), "violates the I predicate",
                         id="alpha-in-I"),
            pytest.param("J", 3, 3, 1, None, (1, 2, 3), "violates the J predicate",
                         id="alpha-in-J"),
            pytest.param("U", 4, 4, 1, None, (1, 2, 4, 6), "violates the U predicate",
                         id="alpha-in-U"),
            pytest.param("I", 3, 3, 1, None, (2, 4, 6), "violates the I predicate",
                         id="wrong-xor"),
            pytest.param("U", 4, 5, 1, None, (2, 3, 4, 8, 12), "violates the U predicate",
                         id="coset-collision-in-U"),
            pytest.param("Wpair", 3, 3, None, (1, 2), (1, 4, 5), "violates the Wpair predicate",
                         id="pair-missing"),
            pytest.param("L", 3, 2, 1, None, (2, 4), "violates the L predicate",
                         id="L-not-shift-closed"),
            pytest.param("W", 3, 3, None, None, (1, 2, 4, 7), "violates the W predicate",
                         id="too-long"),
            pytest.param("W", 3, 4, None, None, (1, 2, 3), "violates the W predicate",
                         id="too-short"),
            pytest.param("W", 3, 3, None, None, (3, 2, 1), "is not strictly increasing",
                         id="not-increasing"),
            pytest.param("W", 3, 3, None, None, (4, 2, 1), "is not strictly increasing",
                         id="order-checked-before-predicate"),
            pytest.param("W", 3, 3, None, None, (1, 1, 2), "is not strictly increasing",
                         id="repeated-point"),
        ],
    )
    def test_family_error_names_the_violation(self, kind, m, k, alpha, pair, block, message):
        with pytest.raises(FamilyError) as exc:
            BlockFamily(kind, m, k, (block,), alpha=alpha, pair=pair)
        assert str(exc.value) == f"block {block} {message}"


@pytest.fixture(params=["columns", "sets"])
def set_test_form(request, monkeypatch):
    """Force L's and U's set condition on a chunk of two or more blocks
    onto one form of the check; a single block always takes the set form."""
    limit = 10**9 if request.param == "columns" else 0
    monkeypatch.setattr(blocks_module, "_PAIR_TESTS_PER_POINT", limit)
    return request.param


def _planted(fam, faults):
    """The family's blocks with each (position, block) of `faults` put in."""
    blocks = list(fam)
    for pos, block in faults:
        blocks[pos] = block
    return tuple(blocks)


def _family_error(fam, blocks):
    with pytest.raises(FamilyError) as exc:
        BlockFamily(fam.kind, fam.m, fam.k, blocks, alpha=fam.alpha, pair=fam.pair)
    return str(exc.value)


@pytest.fixture(scope="module")
def lifted_over_a_chunk():
    fam = gdd_blocks(6, 5, 1)
    assert len(fam) > blocks_module._CHUNK + 1
    return fam


# Blocks of the U family at ambient 6, k = 5, alpha = 1 that break one fact
# each; None stands for the block in place with its first two points swapped.
_U_FAULTS = [
    pytest.param(None, "is not strictly increasing", id="order"),
    pytest.param((2, 4, 8, 16, 32), "violates the U predicate", id="xor"),
    pytest.param((1, 2, 4, 8, 14), "violates the U predicate", id="alpha-point"),
    pytest.param((2, 3, 4, 8, 12), "violates the U predicate", id="coset-collision"),
    pytest.param((2, 4, 8, 64, 79), "violates the U predicate", id="out-of-range"),
    pytest.param((2, 4, 8, 199, 200), "violates the U predicate", id="guard-bit-set"),
    pytest.param((2, 4, 8, 16, 256), "violates the U predicate", id="past-a-byte"),
    pytest.param((-1, 2, 4, 8, 16), "violates the U predicate", id="negative"),
    pytest.param((2, 4, 8, 16), "violates the U predicate", id="too-short"),
]


class TestLaneCheck:
    @pytest.mark.parametrize("block,message", _U_FAULTS)
    @pytest.mark.parametrize("where", ["first", "chunk-end", "chunk-start", "last"])
    def test_one_fault_anywhere_names_its_block(self, lifted_over_a_chunk, block, message, where):
        fam = lifted_over_a_chunk
        pos = {"first": 0, "chunk-end": blocks_module._CHUNK - 1,
               "chunk-start": blocks_module._CHUNK, "last": len(fam) - 1}[where]
        if block is None:
            b = tuple(fam)[pos]
            block = (b[1], b[0], *b[2:])
        assert _family_error(fam, _planted(fam, [(pos, block)])) == f"block {block} {message}"

    @pytest.mark.parametrize(
        "early,late",
        [((2, 4, 8, 16, 32), (-1, 2, 4, 8, 16)), ((-1, 2, 4, 8, 16), (2, 4, 8, 16, 32)),
         ((2, 4, 8, 16), (4, 2, 8, 16, 32)), ((4, 2, 8, 16, 32), (2, 3, 4, 8, 12))],
    )
    def test_the_first_of_two_faults_is_named(self, lifted_over_a_chunk, early, late):
        fam = lifted_over_a_chunk
        start = blocks_module._CHUNK
        for faults in ([(start + 3, early), (start + 40, late)],
                       [(start - 1, early), (start, late)]):
            message = _family_error(fam, _planted(fam, faults))
            assert message.startswith(f"block {early} ")

    @pytest.mark.parametrize(
        "fam",
        [zero_sum_blocks(8, 3), sum_to_shift_blocks(9, 3, 100), gdd_groups(17, 3)],
        ids=["m8", "m9", "ambient17"],
    )
    def test_wide_lanes(self, fam):
        top = 1 << fam.m
        assert tuple(BlockFamily(fam.kind, fam.m, fam.k, tuple(fam), alpha=fam.alpha)) == tuple(fam)
        b = tuple(fam)[-1]
        assert b[-1] >= top // 2  # the last block reaches the top bit of m
        out = (*b[:-2], top + b[-2], top + b[-1])  # same XOR-sum and order
        for pos in (0, len(fam) - 1):
            assert _family_error(fam, _planted(fam, [(pos, out)])) == (
                f"block {out} violates the {fam.kind} predicate"
            )
        swapped = (b[-1], *b[:-1])
        assert _family_error(fam, _planted(fam, [(0, swapped)])) == (
            f"block {swapped} is not strictly increasing"
        )

    def test_ambient_17_groups_at_the_top_of_the_field(self):
        fam = gdd_groups(17, 3)
        assert (2**17 - 4, 2**17 - 1) in fam
        pred = family_predicate("U", 17, 2, alpha=3)
        assert all(pred(b) for b in fam)
        assert not pred((3, 2**17 - 1)) and not pred((2**17, 2**17 + 3))

    @pytest.mark.parametrize(
        "block,message",
        [
            ((1, 126, 127), None),
            ((1, 128, 129), "violates the W predicate"),
            ((127, 128, 255), "violates the W predicate"),
            ((1, 129, 128), "is not strictly increasing"),
            ((128, 256, 384), "violates the W predicate"),
            ((256, 128, 384), "is not strictly increasing"),
            ((-1, 2, 3), "violates the W predicate"),
            ((2, -1, 3), "is not strictly increasing"),
        ],
    )
    def test_points_past_the_byte_lanes_at_m7(self, block, message):
        pred = family_predicate("W", 7, 3)
        assert pred(block) == (message is None) == pred(block[::-1])
        family = ((1, 2, 3), (1, 4, 5), block, (2, 4, 6))
        if message is None:
            BlockFamily("W", 7, 3, family)
        else:
            with pytest.raises(FamilyError) as exc:
                BlockFamily("W", 7, 3, family)
            assert str(exc.value) == f"block {block} {message}"

    @pytest.mark.parametrize("kind,alpha", [("L", 6), ("U", 6), ("L", 1), ("U", 9)])
    def test_set_condition_is_brute_force_membership(self, set_test_form, kind, alpha):
        # The predicate checks one block; the block twice over is a chunk
        # of two, which takes the form `set_test_form` forces.
        for k in range(8):
            pred = family_predicate(kind, 4, k, alpha=alpha)
            rule = blocks_module._Rule(kind, 4, k, alpha, None)
            members = set(_brute_family(kind, 4, k, alpha, None))
            for b in combinations(range(1, 16), k):
                assert pred(b) == pred(b[::-1]) == (b in members), b
                twice = blocks_module._columns(blocks_module._pack(b + b, 1), k, 1)
                assert rule.first_bad(twice, 2) == (None if b in members else 0), b

    @pytest.mark.parametrize(
        "build,args,fault",
        [
            (gdd_blocks, (5, 5, 9), (2, 4, 11, 16, 20)),  # 2 ^ 9 = 11
            (shift_invariant_blocks, (5, 6, 3), (1, 2, 4, 7, 8, 12)),  # 12 ^ 3 = 15
        ],
    )
    def test_set_condition_over_whole_families(self, set_test_form, build, args, fault):
        fam = build(*args)
        assert tuple(BlockFamily(fam.kind, fam.m, fam.k, tuple(fam), alpha=fam.alpha)) == tuple(fam)
        for pos in (0, len(fam) - 1):
            assert _family_error(fam, _planted(fam, [(pos, fault)])) == (
                f"block {fault} violates the {fam.kind} predicate"
            )

    def test_large_k_shift_invariant_block_is_linear_in_k(self):
        # One block of 65,534 points: C(k, 2) column tests would be 2.1e9.
        start = time.perf_counter()
        fam = shift_invariant_blocks(16, 65534, 1)
        assert len(fam) == 1 and len(tuple(fam)[0]) == 65534
        assert family_predicate("L", 16, 65534, alpha=1)(tuple(fam)[0])
        assert time.perf_counter() - start < 10


def _lift_sizes_within_the_default_budget():
    """Every k that gdd_blocks reaches under the default budget, at some
    ambient exponent: its whole charge, the zero-sum search over the
    2^m - 1 base points and 2^(k-1) lifted blocks per base, fits."""
    sizes = set()
    for m in range(3, 17):
        n = 2**m - 1
        # 2^(k-1) > the budget from k = 28 on, whatever the base count.
        for k in range(3, min(n - 3, 27) + 1):
            search = comb(n, k - 1) - 1 + comb(n - 1, k - 1)
            if search + (hamming_weight_count(m, k) << (k - 1)) <= blocks_module.DEFAULT_NODE_BUDGET:
                sizes.add(k)
    return sorted(sizes)


class TestSortingNetwork:
    def test_reachable_sizes(self):
        sizes = _lift_sizes_within_the_default_budget()
        assert sizes == list(range(3, 13))
        gdd_blocks(5, 12, 1)  # k = 12 at ambient 5 fits
        with pytest.raises(BudgetExceededError):
            gdd_blocks(6, 9, 1)

    @pytest.mark.parametrize("k", [1, 2, *_lift_sizes_within_the_default_budget(), 16])
    def test_sorts_every_zero_one_vector(self, k):
        # The 0-1 principle (Knuth, TAOCP vol. 3, 5.3.4): a comparator
        # network sorts every input iff it sorts every 0/1 input. One lane
        # per 0/1 vector, so the network runs as gdd_blocks runs it.
        pairs = blocks_module._sorting_network(k)
        assert all(0 <= i < j < k for i, j in pairs)
        n = 2**k
        cols = [int.from_bytes(bytes(v >> j & 1 for v in range(n)), "little") for j in range(k)]
        blocks_module._sort_lanes(cols, pairs, n, 8)
        lanes = [c.to_bytes(n, "little") for c in cols]
        for v in range(n):
            ones = v.bit_count()
            assert [lane[v] for lane in lanes] == [0] * (k - ones) + [1] * ones

    def test_sorts_wide_lanes(self):
        rng = random.Random(8)
        for k in (3, 6, 7, 12):
            rows = [rng.sample(range(1, 2**17), k) for _ in range(200)]
            cols = [sum(row[j] << (32 * i) for i, row in enumerate(rows)) for j in range(k)]
            blocks_module._sort_lanes(cols, blocks_module._sorting_network(k), len(rows), 32)
            got = [[c >> (32 * i) & (2**32 - 1) for c in cols] for i in range(len(rows))]
            assert got == [sorted(row) for row in rows]
