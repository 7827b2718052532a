"""Additive structure: cosets, the section, and the orderings and quotient
map of `design_forge.witness`."""

from __future__ import annotations

import random
from functools import partial

import pytest

from design_forge.errors import ArgumentError, InvalidShiftError, RangeError
from design_forge.field import cosets_of, section
from design_forge.witness import coset_of, natural_ordering, quotient
from helpers import xor_sum


class TestCosets:
    def test_shift_one_pairs_consecutive(self):
        cs = cosets_of(1, 3)
        assert cs == [(0, 1), (2, 3), (4, 5), (6, 7)]

    def test_shift_six(self):
        cs = cosets_of(6, 3)
        assert cs == [(0, 6), (1, 7), (2, 4), (3, 5)]

    @pytest.mark.parametrize("alpha", range(1, 16))
    def test_count_is_half_the_field(self, alpha):
        assert len(cosets_of(alpha, 4)) == 8

    @pytest.mark.parametrize("m", range(3, 7))
    def test_partition(self, m):
        for alpha in range(1, 2**m):
            cs = cosets_of(alpha, m)
            seen = [x for c in cs for x in c]
            assert len(seen) == 2**m
            assert set(seen) == set(range(2**m))
            assert cs[0] == (0, alpha)

    def test_zero_shift_rejected(self):
        with pytest.raises(InvalidShiftError):
            cosets_of(0, 4)

    def test_shift_outside_field_rejected(self):
        with pytest.raises(InvalidShiftError):
            cosets_of(16, 4)

    def test_coset_of_picks_smaller_member(self):
        assert coset_of(7, 1) == (6, 7)
        assert coset_of(6, 1) == (6, 7)
        assert coset_of(2, 6) == (2, 4)


class TestNaturalOrdering:
    def test_ranks_ascend_with_minima(self):
        o = natural_ordering(1, 3)
        assert o.rank(0) == 1 and o.rank(1) == 1
        assert o.rank(6) == 4 and o.rank(7) == 4

    def test_shift_six_ranks(self):
        o = natural_ordering(6, 3)
        assert o.rank(2) == 3
        assert o.rank(4) == 3

    @pytest.mark.parametrize("alpha", range(1, 16))
    def test_bijective_onto_initial_segment(self, alpha):
        o = natural_ordering(alpha, 4)
        assert sorted(o.ranks.values()) == list(range(1, 9))

    def test_deterministic(self):
        assert natural_ordering(5, 4) == natural_ordering(5, 4)

    def test_reversed_is_still_bijective(self):
        o = natural_ordering(3, 4).reversed()
        assert sorted(o.ranks.values()) == list(range(1, 9))
        assert o.rank(0) == 8

    def test_zero_shift_rejected(self):
        with pytest.raises(InvalidShiftError):
            natural_ordering(0, 3)


class TestQuotientIso:
    def test_subgroup_maps_to_zero(self):
        for alpha in range(1, 16):
            psi = partial(quotient, alpha=alpha, exp=4)
            assert psi(0) == 0
            assert psi(alpha) == 0

    def test_shift_one_is_a_right_shift(self):
        # With alpha = 1 the top set bit is bit 0, so the map just drops
        # the low bit.
        psi = partial(quotient, alpha=1, exp=4)
        assert all(psi(x) == x >> 1 for x in range(16))
        assert psi(coset_of(2, 1)[0]) ^ psi(coset_of(4, 1)[0]) == psi(coset_of(6, 1)[0])

    @pytest.mark.parametrize("exp", [4, 5])
    def test_additive_and_constant_on_cosets_exhaustive(self, exp):
        size = 2**exp
        for alpha in range(1, size):
            psi = partial(quotient, alpha=alpha, exp=exp)
            for x in range(size):
                assert psi(x) == psi(x ^ alpha)
                for y in range(size):
                    assert psi(x ^ y) == psi(x) ^ psi(y)

    @pytest.mark.parametrize("alpha", [1, 9, 37, 63])
    def test_additive_at_exponent_six(self, alpha):
        psi = partial(quotient, alpha=alpha, exp=6)
        for x in range(64):
            assert psi(x) == psi(x ^ alpha)
            for y in range(64):
                assert psi(x ^ y) == psi(x) ^ psi(y)

    @pytest.mark.parametrize("exp", [4, 5, 6])
    def test_onto_the_smaller_field(self, exp):
        for alpha in (1, 2**exp - 1):
            psi = partial(quotient, alpha=alpha, exp=exp)
            assert {psi(x) for x in range(2**exp)} == set(range(2 ** (exp - 1)))

    def test_zero_sum_transfers_through_the_quotient(self):
        # XOR-sum of a subset lands in {0, alpha} exactly when the images
        # of its cosets XOR to zero.
        rng = random.Random(20260808)
        for exp, alpha in [(4, 1), (4, 7), (5, 9), (5, 30)]:
            psi = partial(quotient, alpha=alpha, exp=exp)
            points = [x for x in range(1, 2**exp) if x != alpha]
            for _ in range(300):
                k = rng.randrange(2, 7)
                b = rng.sample(points, k)
                lifted_zero = xor_sum(b) in (0, alpha)
                image_zero = xor_sum(psi(x) for x in b) == 0
                assert lifted_zero == image_zero

    def test_invalid_shift_rejected(self):
        with pytest.raises(InvalidShiftError):
            quotient(0, 0, 4)
        with pytest.raises(InvalidShiftError):
            quotient(0, 16, 4)

    def test_element_outside_field_rejected(self):
        with pytest.raises(ArgumentError):
            quotient(16, 1, 4)

    def test_exponent_bounds(self):
        with pytest.raises(RangeError):
            quotient(0, 1, 3)


def _check_section_points(sec, alpha, exp):
    # Every nonzero entry avoids the subgroup, the entries meet each coset
    # of {0, alpha} exactly once, and the quotient map undoes the table.
    assert len(sec) == 2 ** (exp - 1)
    assert all(s not in (0, alpha) for s in sec[1:])
    assert len({min(s, s ^ alpha) for s in sec}) == len(sec)
    assert all(quotient(s, alpha, exp) == y for y, s in enumerate(sec))


class TestSection:
    @pytest.mark.parametrize("exp", [4, 5, 6])
    def test_additive_exhaustive(self, exp):
        for alpha in range(1, 2**exp):
            sec = section(alpha, exp)
            for y in range(len(sec)):
                for z in range(len(sec)):
                    assert sec[y ^ z] == sec[y] ^ sec[z]

    @pytest.mark.parametrize("exp", [4, 5, 6])
    def test_one_point_per_coset_and_quotient_inverts(self, exp):
        for alpha in range(1, 2**exp):
            _check_section_points(section(alpha, exp), alpha, exp)

    @pytest.mark.parametrize("alpha", [1, 2**16, 2**17 - 1])
    def test_top_ambient_exponent(self, alpha):
        sec = section(alpha, 17)
        # Additive: the image of 0 is 0 and every entry is the XOR of the
        # entry without its lowest set bit and the entry of that bit, which
        # makes each entry the XOR of the images of its bits.
        assert sec[0] == 0
        assert all(sec[y] == sec[y & (y - 1)] ^ sec[y & -y] for y in range(1, len(sec)))
        _check_section_points(sec, alpha, 17)

    def test_invalid_arguments_rejected(self):
        with pytest.raises(InvalidShiftError):
            section(0, 4)
        with pytest.raises(InvalidShiftError):
            section(16, 4)
        with pytest.raises(RangeError):
            section(1, 3)
        with pytest.raises(RangeError):
            section(1, 18)
