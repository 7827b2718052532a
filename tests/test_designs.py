"""Verification engines: pair sweeps, histograms, verdicts, reports."""

from __future__ import annotations

import random
from collections import Counter
from itertools import combinations

import pytest

from design_forge import designs
from design_forge.blocks import gdd_blocks, gdd_groups, zero_sum_blocks
from design_forge.designs import (
    GddReport,
    observed_params,
    verify_bibd,
    verify_gdd,
)
from design_forge.errors import (
    ContainmentError,
    PartitionError,
    ShapeError,
    StateError,
)
from helpers import pair_coverage


def lifted_points(ambient, alpha):
    return [x for x in range(1, 2**ambient) if x != alpha]


def brute_gdd_verdict(points, groups, blocks):
    """(cross-pair histogram, worst same-group coverage, counterexample)
    straight from the brute-force pair coverage."""
    cov = pair_coverage(points, blocks)
    same = {pr for g in groups for pr in combinations(sorted(g), 2)}
    cross = [pr for pr in cov if pr not in same]
    within = max((cov[pr] for pr in same), default=0)
    if within:
        example = min(pr for pr in same if cov[pr])
    else:
        example = next(
            (pr for pr in cross if cov[pr] != cov[cross[0]]), None
        )
    return dict(Counter(cov[pr] for pr in cross)), within, example


@pytest.fixture(params=["bitsets", "indices"])
def incidence_form(request, monkeypatch):
    """Force the sweep to hold each point's blocks in one form."""
    limit = 10**9 if request.param == "bitsets" else 0
    monkeypatch.setattr(designs, "_BITSET_MAX_V_PER_K", limit)
    return request.param


class TestVerifyBibd:
    def test_smallest_design(self):
        report = verify_bibd(range(1, 8), zero_sum_blocks(3, 3))
        assert report.passed
        assert observed_params(report) == (7, 7, 3, 1)

    def test_m4_k7(self):
        report = verify_bibd(range(1, 16), zero_sum_blocks(4, 7))
        assert report.passed
        assert report.lambda_histogram == {87: 105}

    def test_m4_k5_full_parameters(self):
        report = verify_bibd(range(1, 16), zero_sum_blocks(4, 5))
        assert observed_params(report) == (15, 168, 56, 16)

    def test_failure_reports_smallest_divergent_pair(self):
        report = verify_bibd(range(1, 8), [(1, 2, 3)])
        assert not report.passed
        assert report.counterexample == (1, 4)
        assert report.lambda_histogram == {0: 18, 1: 3}

    def test_histograms_against_brute_coverage(self):
        for fam in (zero_sum_blocks(4, 4), zero_sum_blocks(4, 4).blocks[1:]):
            report = verify_bibd(range(1, 16), fam)
            cov = pair_coverage(range(1, 16), fam)
            occurrences = Counter(x for b in fam for x in b)
            assert report.lambda_histogram == dict(Counter(cov.values()))
            assert report.r_histogram == dict(Counter(occurrences.values()))

    def test_double_counting_identity(self):
        for m, k in [(3, 3), (4, 4), (4, 6)]:
            fam = zero_sum_blocks(m, k)
            report = verify_bibd(range(1, 2**m), fam)
            assert (
                sum(r * n for r, n in report.r_histogram.items())
                == report.b * report.k
            )

    def test_accepts_plain_iterables(self):
        report = verify_bibd({1, 2, 3}, [(1, 2), (1, 3), (2, 3)])
        assert report.passed
        assert observed_params(report) == (3, 3, 2, 1)

    def test_nonuniform_sizes_raise(self):
        with pytest.raises(ShapeError):
            verify_bibd(range(1, 8), [(1, 2, 3), (1, 4)])

    def test_duplicate_point_in_a_block_raises(self):
        with pytest.raises(ShapeError):
            verify_bibd(range(1, 8), [(1, 1, 2)])

    def test_escaping_block_raises(self):
        with pytest.raises(ContainmentError):
            verify_bibd(range(1, 8), [(1, 2, 9)])

    def test_empty_collection_raises(self):
        with pytest.raises(ShapeError):
            verify_bibd(range(1, 8), [])


class TestVerifyGdd:
    def test_smallest_lifted_design(self):
        report = verify_gdd(
            lifted_points(4, 1), gdd_groups(4, 1), gdd_blocks(4, 3, 1)
        )
        assert report.passed
        assert report.partition_ok
        assert report.group_count == 7
        assert report.within_group_coverage == 0
        assert report.cross_group_lambda == 1

    def test_ambient_32_k4(self):
        report = verify_gdd(
            lifted_points(5, 1), gdd_groups(5, 1), gdd_blocks(5, 4, 1)
        )
        assert report.passed
        assert report.cross_group_lambda == 12

    def test_same_group_pairs_uncovered(self):
        report = verify_gdd(
            lifted_points(4, 3), gdd_groups(4, 3), gdd_blocks(4, 4, 3)
        )
        assert report.within_group_coverage == 0

    def test_missing_group_breaks_the_partition(self):
        groups = list(gdd_groups(4, 1))[:-1]
        report = verify_gdd(lifted_points(4, 1), groups, gdd_blocks(4, 3, 1))
        assert not report.passed
        assert not report.partition_ok

    def test_block_through_a_group_fails(self):
        points = [2, 3, 4, 5]
        groups = [(2, 3), (4, 5)]
        report = verify_gdd(points, groups, [(2, 3), (2, 4)])
        assert not report.passed
        assert report.within_group_coverage == 1
        assert report.counterexample == (2, 3)

    def test_unbalanced_cross_pairs_fail(self):
        points = [2, 3, 4, 5]
        groups = [(2, 3), (4, 5)]
        report = verify_gdd(points, groups, [(2, 4), (2, 5)])
        assert not report.passed
        assert report.partition_ok
        assert report.counterexample == (3, 4)

    def test_single_group_is_not_a_design(self):
        report = verify_gdd([2, 3], [(2, 3)], [(2, 3)])
        assert not report.partition_ok

    def test_duplicated_point_in_group_raises(self):
        with pytest.raises(PartitionError):
            verify_gdd([2, 3, 4, 5], [(2, 2), (4, 5)], [(2, 4)])

    def test_group_outside_points_raises(self):
        with pytest.raises(ContainmentError):
            verify_gdd([2, 3], [(2, 9)], [(2, 3)])

    @pytest.mark.parametrize(
        "ambient,k,alpha",
        [(4, k, alpha) for k in (3, 4) for alpha in range(1, 16)] + [(5, 4, 1)],
    )
    def test_against_brute_coverage(self, ambient, k, alpha):
        points = lifted_points(ambient, alpha)
        groups = gdd_groups(ambient, alpha)
        fam = gdd_blocks(ambient, k, alpha)
        for blocks, passed in ((fam, True), (fam.blocks[1:], False)):
            report = verify_gdd(points, groups, blocks)
            hist, within, example = brute_gdd_verdict(points, groups, blocks)
            assert report.passed is passed
            assert report.lambda_histogram == hist
            assert report.within_group_coverage == within
            assert report.counterexample == example

    def test_overlapping_groups_count_both_groups(self):
        points = [1, 2, 3, 4, 5]
        groups = [(1, 2, 3), (3, 4, 5)]
        report = verify_gdd(points, groups, [(1, 3), (3, 4), (3, 4)])
        assert not report.passed
        assert not report.partition_ok
        assert report.within_group_coverage == 2
        assert report.counterexample == (1, 3)
        assert report.lambda_histogram == {0: 4}

    def test_singleton_groups_accepted(self):
        report = verify_gdd([1, 2, 3], [(1,), (2,), (3,)], [(1, 2), (1, 3), (2, 3)])
        assert report.passed
        assert report.partition_ok
        assert report.group_count == 3
        assert report.cross_group_lambda == 1

    def test_group_defects_win_over_empty_blocks(self):
        with pytest.raises(ShapeError, match="empty group collection"):
            verify_gdd([2, 3, 4, 5], [], [])
        with pytest.raises(PartitionError, match="repeats a point"):
            verify_gdd([2, 3, 4, 5], [(2, 2), (4, 5)], [])
        with pytest.raises(ContainmentError, match="group"):
            verify_gdd([2, 3, 4, 5], [(2, 9), (4, 5)], [])
        with pytest.raises(ShapeError, match="uniform group size"):
            verify_gdd([2, 3, 4, 5], [(2, 3), (4,)], [])


class TestIncidenceForms:
    """Bitset and block-index incidence must give identical verdicts."""

    def test_bibd_against_brute_coverage(self, incidence_form):
        rng = random.Random(7)
        sparse = [tuple(rng.sample(range(40), 3)) for _ in range(30)]
        sparse += sparse[:2]
        fam = zero_sum_blocks(4, 4)
        for points, blocks in (
            (range(1, 16), fam),
            (range(1, 16), fam.blocks[1:]),
            (range(40), sparse),
        ):
            report = verify_bibd(points, blocks)
            cov = pair_coverage(points, blocks)
            pairs = list(cov)
            example = next(
                (pr for pr in pairs if cov[pr] != cov[pairs[0]]), None
            )
            occurrences = Counter(x for b in blocks for x in b)
            occurrences.update({p: 0 for p in points})
            assert report.lambda_histogram == dict(Counter(cov.values()))
            assert report.r_histogram == dict(Counter(occurrences.values()))
            assert report.counterexample == example

    @pytest.mark.parametrize("ambient,k,alpha", [(4, 3, 1), (4, 4, 6), (5, 4, 1)])
    def test_gdd_against_brute_coverage(self, incidence_form, ambient, k, alpha):
        points = lifted_points(ambient, alpha)
        groups = gdd_groups(ambient, alpha)
        fam = gdd_blocks(ambient, k, alpha)
        for blocks in (fam, fam.blocks[1:], [fam.blocks[0], fam.blocks[0]]):
            report = verify_gdd(points, groups, blocks)
            hist, within, example = brute_gdd_verdict(points, groups, blocks)
            assert report.lambda_histogram == hist
            assert report.within_group_coverage == within
            assert report.counterexample == example

    def test_block_defects_raise_alike(self, incidence_form):
        with pytest.raises(ShapeError, match="uniform block size 3, found 2"):
            verify_bibd(range(1, 8), [(1, 2, 3), (1, 4)])
        with pytest.raises(ShapeError, match="repeats a point"):
            verify_bibd(range(1, 8), [(1, 2, 3), (1, 1, 2)])
        with pytest.raises(ContainmentError, match="uses point 9"):
            verify_bibd(range(1, 8), [(1, 2, 3), (1, 2, 9)])

    @pytest.mark.parametrize("m,k", [(6, 3), (7, 3), (8, 3)])
    def test_zero_sum_designs_on_each_side_of_the_choice(self, m, k):
        # At k = 3, v = 63 holds bitsets; v = 127 and v = 255 hold block
        # indices.
        v = 2**m - 1
        report = verify_bibd(range(1, 2**m), zero_sum_blocks(m, k))
        assert report.passed
        assert observed_params(report)[0] == v
        assert report.r_histogram == {report.b * k // v: v}


class TestObservedParams:
    def test_rejects_failed_reports(self):
        report = verify_bibd(range(1, 8), [(1, 2, 3)])
        with pytest.raises(StateError):
            observed_params(report)

    def test_rejects_grouped_reports(self):
        report = verify_gdd(
            lifted_points(4, 1), gdd_groups(4, 1), gdd_blocks(4, 3, 1)
        )
        assert isinstance(report, GddReport)
        with pytest.raises(StateError):
            observed_params(report)

    def test_identities_hold_on_pass(self):
        v, b, r, lam = observed_params(
            verify_bibd(range(1, 16), zero_sum_blocks(4, 4))
        )
        assert (v, b, r, lam) == (15, 105, 28, 6)
        assert r * 3 == lam * 14
        assert b * 4 == v * r
