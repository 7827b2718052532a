"""Verification engines: pair sweeps, histograms, verdicts, reports."""

from __future__ import annotations

import random
import tracemalloc
from array import array
from collections import Counter
from itertools import combinations

import pytest

import design_forge.blocks as blocks_module
from design_forge import cli, designs
from design_forge.blocks import BlockFamily, gdd_blocks, gdd_chunks, gdd_groups, zero_sum_blocks
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
from helpers import made_blocks, pair_coverage


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
        for fam in (zero_sum_blocks(4, 4), tuple(zero_sum_blocks(4, 4))[1:]):
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

    def test_one_point_blocks_raise(self):
        with pytest.raises(ShapeError, match="blocks must have at least two points"):
            verify_bibd(range(1, 4), [(1,), (2,)])


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
        for blocks, passed in ((fam, True), (tuple(fam)[1:], False)):
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


class TestLiftOrder:
    """verify-gdd verifies the lift a chunk at a time, in the order it is
    made; the report is the one on the lexicographic family."""

    @pytest.mark.parametrize(
        "ambient, k, alpha",
        [(4, k, a) for k in (3, 4) for a in range(1, 16)]
        + [(5, k, a) for k in (3, 4, 5) for a in range(1, 32)]
        + [(6, 4, a) for a in (1, 2, 7, 12, 21, 47)]
        + [(6, 6, a) for a in (1, 21, 63)],
    )
    def test_the_report_does_not_depend_on_the_order(self, ambient, k, alpha):
        points, groups = lifted_points(ambient, alpha), gdd_groups(ambient, alpha)
        made = verify_gdd(points, groups, gdd_chunks(ambient, k, alpha))
        assert made == verify_gdd(points, groups, gdd_blocks(ambient, k, alpha))
        assert made.passed

    @pytest.mark.parametrize("ambient, k, alpha", [(5, 4, 19), (6, 3, 37)])
    def test_either_incidence_form_reads_the_made_order(self, incidence_form, ambient, k, alpha):
        points, groups = lifted_points(ambient, alpha), gdd_groups(ambient, alpha)
        made = tuple(made_blocks(gdd_chunks(ambient, k, alpha)))
        for blocks in (made, made[1:]):
            assert verify_gdd(points, groups, blocks) == verify_gdd(points, groups, sorted(blocks))

    @pytest.mark.parametrize("ambient, k, alpha", [(4, 3, 1), (5, 4, 19), (6, 3, 37), (6, 5, 6)])
    def test_chunks_of_three_report_as_the_family(self, monkeypatch, incidence_form, ambient, k, alpha):
        """With `_CHUNK` at 3 every chunk's counts are summed into the
        report; a short stream fails as the short family does, with the
        same counterexample."""
        points, groups = lifted_points(ambient, alpha), gdd_groups(ambient, alpha)
        family = gdd_blocks(ambient, k, alpha)
        monkeypatch.setattr(blocks_module, "_CHUNK", 3)
        assert verify_gdd(points, groups, gdd_chunks(ambient, k, alpha)) == verify_gdd(points, groups, family)
        made = made_blocks(gdd_chunks(ambient, k, alpha))[1:]
        short = [BlockFamily("U", ambient, k, made[i : i + 3], alpha=alpha) for i in range(0, len(made), 3)]
        report = verify_gdd(points, groups, short)
        assert not report.passed
        assert report == verify_gdd(points, groups, sorted(made))
        assert verify_bibd(points, short) == verify_bibd(points, sorted(made))

    def test_a_stream_reads_a_chunk_at_a_time(self):
        """Chunks of any packed kind, empty ones skipped; one of another size
        raises, and a stream of no block is empty."""
        fam = zero_sum_blocks(4, 4)
        rows = list(fam)
        packed = cli._Packed(bytes(x for b in rows[5:] for x in b), 4, len(rows) - 5)
        chunks = [BlockFamily("W", 4, 4, rows[:5]), BlockFamily("W", 4, 4, []), packed]
        assert verify_bibd(range(1, 16), iter(chunks)) == verify_bibd(range(1, 16), fam)
        with pytest.raises(ShapeError, match="uniform block size 4, found 3"):
            verify_bibd(range(1, 16), [fam, zero_sum_blocks(4, 3)])
        with pytest.raises(ShapeError, match="empty block collection"):
            verify_bibd(range(1, 16), iter([BlockFamily("W", 4, 4, [])]))

    def test_a_bad_block_in_a_later_chunk_raises_as_in_one_family(self, incidence_form):
        rows = list(zero_sum_blocks(4, 4))
        for bad, error in (((1, 2, 3, 16), ContainmentError), ((1, 2, 2, 1), ShapeError)):
            flat = [x for b in rows[:-4] + [bad] + rows[-3:] for x in b]
            packed = cli._Packed(bytes(flat[40:]), 4, len(flat[40:]) // 4)
            chunks = [cli._Packed(bytes(flat[:40]), 4, 10), packed]
            got = _outcome(verify_bibd, range(1, 16), chunks)
            assert got == _outcome(verify_bibd, range(1, 16), rows[:-4] + [bad] + rows[-3:])
            assert got[0] is error and str(bad) in got[1]

    @pytest.mark.parametrize("k, b", [(6, 722_176), (7, 5_287_360)])
    def test_the_sweep_state_does_not_grow_with_b(self, k, b):
        """Over the stream the sweep holds one chunk's v bitsets of 65,536
        bits and its columns, beside the lift's own chunk, and C(v, 2)
        pair counts: ~1.8 MiB traced at 722,176 blocks, ~3.6 MiB at
        5,287,360, where the base family alone grows by 0.5 MiB."""
        points, groups = lifted_points(6, 1), gdd_groups(6, 1)
        chunks = gdd_chunks(6, k, 1)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            report = verify_gdd(points, groups, chunks)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert report.passed and report.b == b
        assert peak < 4 * 2**20


class TestIncidenceForms:
    """Bitset and block-index incidence must give identical verdicts."""

    def test_bibd_against_brute_coverage(self, incidence_form):
        rng = random.Random(7)
        sparse = [tuple(rng.sample(range(40), 3)) for _ in range(30)]
        sparse += sparse[:2]
        fam = zero_sum_blocks(4, 4)
        for points, blocks in (
            (range(1, 16), fam),
            (range(1, 16), tuple(fam)[1:]),
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
        for blocks in (fam, tuple(fam)[1:], [tuple(fam)[0], tuple(fam)[0]]):
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

    @pytest.mark.parametrize("kind", [bytes, array, list])
    @pytest.mark.parametrize("fault", ["top", "repeat"])
    def test_a_fault_only_in_the_last_column_read(self, incidence_form, kind, fault):
        # Packed blocks are translated one column at a time, so a block
        # whose only defect is its last point is flagged by the last column
        # read, and raises as the same blocks given as tuples do.
        points, fam = range(1, 32), zero_sum_blocks(5, 4)
        blocks = list(fam)
        blocks[-3] = (*blocks[-3][:3], 32 if fault == "top" else blocks[-3][0])
        flat = [x for b in blocks for x in b]
        packed = cli._Packed(bytes(flat) if kind is bytes else array("I", flat) if kind is array else flat, 4, len(blocks))
        assert [packed.column(j)[-3] for j in range(4)] == list(blocks[-3])
        got = _outcome(verify_bibd, points, packed)
        assert got == _outcome(verify_bibd, points, blocks) == _first_defect(blocks, points)
        assert got[0] is (ContainmentError if fault == "top" else ShapeError)

    def test_the_sweep_holds_no_copy_of_the_blocks(self):
        # Beside the lanes (made before tracing starts) the bitset form
        # holds its rows, v ints of b bits, and the scratch of one index
        # column of b bytes at a time, about three such columns; an index
        # copy of the whole family was six columns more.
        fam = gdd_blocks(6, 6, 5)
        points, groups = lifted_points(6, 5), gdd_groups(6, 5)
        b, v = len(fam), len(points)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            report = verify_gdd(points, groups, fam)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert report.passed and report.b == b == 722_176
        assert peak < v * b // 8 + 4 * b

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


def _outcome(verify, *args):
    """A report, or the type and message of what the call raised."""
    try:
        return verify(*args)
    except Exception as exc:  # noqa: BLE001 - every error is compared
        return type(exc), str(exc)


def _first_defect(items, points, noun="block"):
    """The error of the first defective item, found item by item: another
    size than the first item's, a repeated point, a point outside."""
    size = len(items[0])
    for item in items:
        if len(item) != size:
            return ShapeError, f"expected uniform {noun} size {size}, found {len(item)}"
        if len(set(item)) != size:
            return ShapeError, f"{noun} {tuple(item)} repeats a point"
        for x in item:
            if x not in set(points):
                return ContainmentError, f"{noun} {tuple(item)} uses point {x} outside the point set"
    return None


# Faults planted into one block of a valid design, as functions of the
# block and the size of the field.
_BLOCK_FAULTS = {
    "short": lambda b, top: b[:-1],
    "long": lambda b, top: (*b, b[0]),
    "repeat": lambda b, top: (b[0], b[0], *b[2:]),
    "negative": lambda b, top: (-1, *b[1:]),
    "top": lambda b, top: (*b[:-1], top),
    "float-of-a-point": lambda b, top: (float(b[0]), *b[1:]),
    "float-repeat": lambda b, top: (b[0], float(b[0]), *b[2:]),
    "float": lambda b, top: (b[0] + 0.5, *b[1:]),
    "string": lambda b, top: (*b[:-1], "x"),
    "string-repeat": lambda b, top: ("x", "x", *b[2:]),
    "unhashable": lambda b, top: (*b[:-1], [1]),
    "not-a-block": lambda b, top: 5,
}


class TestInputForms:
    """A family, a list and a generator of the same blocks give identical
    reports and errors in both incidence forms."""

    @pytest.mark.parametrize(
        "case",
        ["bibd-4-4", "bibd-8-3", "gdd-5-4-19", "gdd-6-3-37", "bibd-4-4-escaping",
         "gdd-5-4-19-escaping"],
    )
    def test_clean_input(self, incidence_form, case):
        kind, *args = case.split("-")
        if kind == "bibd":
            fam = zero_sum_blocks(int(args[0]), int(args[1]))
            points = range(1, 8) if "escaping" in args else range(1, 2 ** fam.m)
            group_forms = [None]
        else:
            ambient, k, alpha = map(int, args[:3])
            fam = gdd_blocks(ambient, k, alpha)
            # Escaping: a block with one point outside, 31, and none other.
            points = lifted_points(ambient, alpha)[: -1 if "escaping" in args else None]
            groups = gdd_groups(ambient, alpha)
            if "escaping" in args:
                groups = [g for g in groups if set(g) <= set(points)]
            group_forms = [lambda: groups, lambda: list(groups), lambda: iter(list(groups))]
        blocks = list(fam)
        got = []
        for make_groups in group_forms:
            for form in (lambda: fam, lambda: blocks, lambda: iter(blocks), lambda: tuple(blocks)):
                if make_groups is None:
                    got.append(_outcome(verify_bibd, points, form()))
                else:
                    got.append(_outcome(verify_gdd, points, make_groups(), form()))
        assert got == got[:1] * len(got)
        if "escaping" in args:
            assert got[0] == _first_defect(blocks, points)
        else:
            assert got[0].passed

    @pytest.mark.parametrize("fault", sorted(_BLOCK_FAULTS))
    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    def test_planted_fault(self, incidence_form, fault, where):
        fam = gdd_blocks(5, 4, 19)
        points, groups = lifted_points(5, 19), gdd_groups(5, 19)
        blocks = list(fam)
        pos = {"first": 0, "middle": len(blocks) // 2, "last": len(blocks) - 1}[where]
        blocks[pos] = _BLOCK_FAULTS[fault](blocks[pos], 32)
        got = _outcome(verify_gdd, points, groups, blocks)
        assert _outcome(verify_gdd, points, groups, iter(blocks)) == got
        if fault == "float-of-a-point":  # 1.0 == 1: the same point
            assert got == verify_gdd(points, groups, fam)
        elif fault == "unhashable":
            assert got == (TypeError, "unhashable type: 'list'")
        elif fault == "not-a-block":
            assert got == (TypeError, "object of type 'int' has no len()")
        else:
            assert got == _first_defect(blocks, points)

    def test_the_first_of_two_faults_is_named(self, incidence_form):
        fam = zero_sum_blocks(5, 4)
        blocks = list(fam)
        for early, late in (("repeat", "short"), ("top", "repeat"), ("string", "negative")):
            planted = list(blocks)
            planted[10] = _BLOCK_FAULTS[early](blocks[10], 32)
            planted[-3] = _BLOCK_FAULTS[late](blocks[-3], 32)
            got = _outcome(verify_bibd, range(1, 32), planted)
            assert got == _first_defect(planted, range(1, 32))

    @pytest.mark.parametrize(
        "groups,error",
        [
            ([(2, 3), (4, 4)], (PartitionError, "group (4, 4) repeats a point")),
            ([(2, 3), (4, 9)], (ContainmentError, "group (4, 9) uses point 9 outside the point set")),
            ([(2, 3), (4, 5, 6)], (ShapeError, "expected uniform group size 2, found 3")),
            ([(2, 3), (4.0, 5)], None),
        ],
    )
    def test_group_faults(self, groups, error):
        points = [2, 3, 4, 5]
        got = _outcome(verify_gdd, points, groups, [(2, 4), (3, 5)])
        assert got == _outcome(verify_gdd, points, iter(groups), [(2, 4), (3, 5)])
        if error is None:
            assert got.partition_ok
        else:
            assert got == error
