"""Recurrence layer: exact integer tables, closed forms, route agreement."""

from __future__ import annotations

from math import comb

import pytest

from design_forge.errors import ConsistencyError, RangeError
from design_forge.params import (
    balance_parameters,
    closed_form_balance,
    gdd_balance_parameters,
    hamming_weight_counts,
    parameter_rows,
    reference_gdd_balance,
    replication_numbers,
)
from helpers import closed_form_gdd_balance, hamming_weight_enumerator
from witness import balance_step


class TestWeightCounts:
    def test_small_field_exact(self):
        assert hamming_weight_counts(3, 7) == [1, 0, 0, 7, 7, 0, 0, 1]

    def test_m4_low_rows(self):
        b = hamming_weight_counts(4, 15)
        assert b[3] == 35
        assert b[4] == 105
        assert b[5] == 168

    @pytest.mark.parametrize("m", range(3, 9))
    def test_palindrome(self, m):
        v = 2**m - 1
        b = hamming_weight_counts(m, v)
        assert b == b[::-1]

    @pytest.mark.parametrize("m", range(3, 9))
    def test_total_count_is_the_code_size(self, m):
        v = 2**m - 1
        assert sum(hamming_weight_counts(m, v)) == 2 ** (v - m)

    @pytest.mark.parametrize("m", range(3, 9))
    def test_nonnegative(self, m):
        assert all(x >= 0 for x in hamming_weight_counts(m, 2**m - 1))

    @pytest.mark.parametrize("m", range(3, 7))
    def test_every_design_size_is_nonempty(self, m):
        b = hamming_weight_counts(m, 2**m - 1)
        assert all(b[k] > 0 for k in range(3, 2**m - 3))

    @pytest.mark.parametrize("m", range(3, 11))
    def test_matches_the_closed_form_enumerator(self, m):
        assert hamming_weight_counts(m, 2**m - 1) == hamming_weight_enumerator(m)

    @pytest.mark.parametrize("m", range(3, 7))
    def test_every_k_max_is_a_prefix(self, m):
        v = 2**m - 1
        full = hamming_weight_counts(m, v)
        assert all(hamming_weight_counts(m, k_max) == full[: k_max + 1] for k_max in range(v + 1))

    def test_k_max_out_of_range(self):
        with pytest.raises(RangeError):
            hamming_weight_counts(3, 8)


class TestReplicationNumbers:
    def test_small_field(self):
        assert replication_numbers(3) == {2: 0, 3: 3, 4: 4, 5: 0}

    def test_m4_seed_and_step(self):
        r = replication_numbers(4)
        assert r[3] == 7
        assert r[4] == 28  # 35 - 7

    @pytest.mark.parametrize("m", range(3, 7))
    def test_pinned_top_row_agrees_with_the_recurrence(self, m):
        # The top row is assigned zero by definition; the step that would
        # produce it lands on the same zero.
        top = 2**m - 3
        r = replication_numbers(m)
        b = hamming_weight_counts(m, top)
        k = top - 1
        step = b[k] - r[k]
        if k % 4 == 2:
            step += comb(2 ** (m - 1) - 1, k // 2)
        elif k % 4 == 0:
            step -= comb(2 ** (m - 1) - 1, k // 2)
        assert r[top] == 0
        assert step == 0

    @pytest.mark.parametrize("m", range(3, 9))
    def test_nonnegative(self, m):
        assert all(x >= 0 for x in replication_numbers(m).values())


class TestBalanceParameters:
    def test_m4_row(self):
        lam = balance_parameters(4)
        assert [lam[k] for k in (3, 4, 5, 6, 7)] == [1, 6, 16, 40, 87]

    def test_m5_row(self):
        lam = balance_parameters(5)
        assert lam[4] == 14
        assert lam[5] == 112

    @pytest.mark.parametrize("m", range(3, 7))
    def test_boundary_rows(self, m):
        lam = balance_parameters(m)
        assert lam[2] == 0
        assert lam[2**m - 3] == 0

    @pytest.mark.parametrize("m", range(3, 9))
    def test_single_formula_step_matches_the_case_split(self, m):
        lam = balance_parameters(m)
        for k in range(3, 2**m - 4):
            assert balance_step(lam[k], k, m) == lam[k + 1]

    def test_step_has_no_correction_at_odd_k(self):
        # cos(k*pi/2) vanishes at odd k, so the step is the bare ratio.
        assert balance_step(1, 3, 4) == 6
        assert balance_step(16, 5, 4) == (16 - 6) * 16 // 4

    def test_step_signs_at_even_k(self):
        assert balance_step(6, 4, 4) == 22 - comb(6, 1)  # k = 0 (mod 4)
        assert balance_step(40, 6, 4) == 72 + comb(6, 2)  # k = 2 (mod 4)

    @pytest.mark.parametrize("m", range(3, 7))
    def test_double_counting_identities_per_row(self, m):
        v = 2**m - 1
        b = hamming_weight_counts(m, 2**m - 3)
        r = replication_numbers(m)
        lam = balance_parameters(m)
        for k in range(3, 2**m - 3):
            assert r[k] * (k - 1) == lam[k] * (v - 1)
            assert b[k] * k == v * r[k]


class TestGddBalanceParameters:
    def test_listed_values(self):
        assert gdd_balance_parameters(3)[3] == 1
        assert gdd_balance_parameters(3)[4] == 4
        assert gdd_balance_parameters(4)[4] == 12
        assert gdd_balance_parameters(4)[5] == 64
        assert gdd_balance_parameters(5)[4] == 28

    @pytest.mark.parametrize("m", range(3, 9))
    def test_scaling_route_recomputed(self, m):
        lam = balance_parameters(m)
        lp = gdd_balance_parameters(m)
        for k in range(3, 2**m - 2):
            assert lp[k] == 2 ** (k - 3) * lam[k]

    @pytest.mark.parametrize("m", range(3, 7))
    def test_boundary_rows(self, m):
        lp = gdd_balance_parameters(m)
        assert lp[2] == 0
        assert lp[2**m - 3] == 0


class TestClosedForms:
    @pytest.mark.parametrize("m", range(4, 9))
    def test_balance_matches_recurrence(self, m):
        lam = balance_parameters(m)
        for k in range(3, 8):
            assert closed_form_balance(m, k) == lam[k]

    @pytest.mark.parametrize("m", range(4, 9))
    def test_gdd_balance_matches_recurrence(self, m):
        lp = gdd_balance_parameters(m)
        for k in range(3, 8):
            assert closed_form_gdd_balance(m, k) == lp[k]

    def test_known_cells(self):
        assert closed_form_balance(4, 6) == 40
        assert closed_form_balance(4, 7) == 87  # 12 * 10 * 87 / 120
        assert closed_form_gdd_balance(3, 4) == 4
        assert closed_form_gdd_balance(4, 5) == 64

    def test_small_m_limited_to_low_k(self):
        assert [closed_form_balance(3, k) for k in (3, 4)] == [1, 2]
        assert [closed_form_gdd_balance(3, k) for k in (3, 4)] == [1, 4]
        with pytest.raises(RangeError):
            closed_form_balance(3, 5)

    def test_reference_column_verbatim(self):
        # Earlier-construction column; collapses to zero whenever m < k.
        assert reference_gdd_balance(4, 3) == 1
        assert reference_gdd_balance(4, 4) == (16 - 8) // 2
        assert reference_gdd_balance(4, 7) == 0
        assert reference_gdd_balance(5, 5) == 24 * 16 // 6
        assert reference_gdd_balance(7, 7) == 120 * 112 * 96 * 64 // 120

    def test_reference_column_is_integral_for_desk_sizes(self):
        for m in range(3, 9):
            for k in range(3, 8):
                assert reference_gdd_balance(m, k) >= 0


class TestParamTable:
    @pytest.mark.parametrize("m", range(3, 7))
    def test_rows_cover_the_advertised_range(self, m):
        assert [k for k, *_ in parameter_rows(m)] == list(range(2, 2**m - 2))

    def test_zero_rows(self):
        rows = {k: values for k, *values in parameter_rows(4)}
        assert rows[2] == [0, 0, 0, 0]
        assert rows[13][1:] == [0, 0, 0]

    @pytest.mark.parametrize("m", range(3, 9))
    def test_values_are_ints(self, m):
        assert all(type(x) is int for row in parameter_rows(m) for x in row)
        assert all(type(x) is int for x in hamming_weight_counts(m, 2**m - 1))

    def test_consistency_error_is_reachable(self):
        with pytest.raises(ConsistencyError):
            balance_step(1, 4, 4)  # a wrong lambda_4 breaks exact divisibility
