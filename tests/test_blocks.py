"""Enumerators against brute-force oracles, plus the representative maps of
`design_forge.witness`."""

from __future__ import annotations

import random
from itertools import combinations

import pytest

from design_forge.blocks import (
    BlockFamily,
    family_predicate,
    gdd_blocks,
    gdd_groups,
    shift_invariant_blocks,
    sum_to_shift_blocks,
    sum_to_zero_blocks,
    zero_sum_blocks,
    zero_sum_blocks_containing,
)
from design_forge.errors import (
    ArgumentError,
    BudgetExceededError,
    FamilyError,
    InvalidShiftError,
    MapViolationError,
    NoRepresentativeError,
    RangeError,
)
from design_forge.witness import (
    as_block,
    natural_ordering,
    replace_point_map,
    representative,
    shift_representative,
)
from helpers import (
    brute_gdd_blocks,
    brute_gdd_groups,
    brute_shift_invariant,
    brute_sum_to_shift,
    brute_sum_to_zero,
    brute_zero_sum,
    brute_zero_sum_containing,
)


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


class TestZeroSumBlocksContaining:
    def test_unique_triple(self):
        fam = zero_sum_blocks_containing(3, 3, 1, 2)
        assert fam.blocks == ((1, 2, 3),)

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


class TestGddBlocks:
    def test_known_count(self):
        assert len(gdd_blocks(4, 3, 1)) == 28

    @pytest.mark.parametrize("alpha", range(1, 16))
    def test_ambient_16_matches_brute_force(self, alpha):
        for k in (3, 4):
            assert list(gdd_blocks(4, k, alpha)) == brute_gdd_blocks(4, k, alpha)

    @pytest.mark.parametrize("alpha", [1, 9, 30])
    def test_ambient_32_spot_matches_brute_force(self, alpha):
        for k in (4, 5):
            assert list(gdd_blocks(5, k, alpha)) == brute_gdd_blocks(5, k, alpha)

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
        assert fam.blocks == ((2, 3), (4, 5), (6, 7), (8, 9), (10, 11), (12, 13), (14, 15))

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
                        cod = set(families[(i, ell)].blocks)
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
        cod = set(zero_sum_blocks_containing(4, 4, 1, 4).blocks)
        for ordering in (natural, reverse):
            images = {replace_point_map(b, 1, 2, 4, ordering) for b in dom}
            assert images == cod

    def test_domain_membership_is_enforced(self):
        o = natural_ordering(2 ^ 4, 3)
        with pytest.raises(FamilyError):
            replace_point_map((1, 2, 3), 5, 2, 4, o)  # does not contain 5
        with pytest.raises(ArgumentError):
            replace_point_map((1, 2, 3), 1, 2, 2, o)  # ell duplicates j

    def test_sampled_triples_either_biject_or_report(self):
        rng = random.Random(1726)
        outcomes = {"clean": 0, "reported": 0}
        for _ in range(60):
            k = rng.choice((5, 6))
            i, j, ell = rng.sample(range(1, 16), 3)
            o = natural_ordering(j ^ ell, 4)
            dom = zero_sum_blocks_containing(4, k, i, j)
            cod = set(zero_sum_blocks_containing(4, k, i, ell).blocks)
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
        assert images == set(sum_to_zero_blocks(3, 3, 1).blocks)

    def test_shift_invariant_blocks_have_no_representative(self):
        o = natural_ordering(1, 3)
        with pytest.raises(NoRepresentativeError):
            shift_representative((2, 3), 1, 2, o)

    def test_k0_mod4_bijects_onto_the_difference(self):
        o = natural_ordering(5, 4)
        fam_i, fam_j, fam_l = (build(4, 4, 5) for build in SHIFTED_BUILDERS)
        fixed = set(fam_l.blocks)
        images = {shift_representative(b, 5, 4, o) for b in fam_i}
        assert len(images) == len(fam_i)
        assert images == set(fam_j.blocks) - fixed

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
