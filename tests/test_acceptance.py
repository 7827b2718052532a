"""Acceptance suite: every exit criterion at its stated (exact) tolerance.

Each criterion runs as one test and prints a single PASS line on the way
out; a failure surfaces as an ordinary pytest failure naming the criterion.
All comparisons are exact integer equality.
"""

from __future__ import annotations

import random

import pytest

from design_forge import cli, params
from design_forge.blocks import (
    gdd_blocks,
    gdd_groups,
    zero_sum_blocks,
    zero_sum_blocks_containing,
)
from design_forge.designs import observed_params, verify_bibd, verify_gdd
from design_forge.params import (
    balance_parameters,
    closed_form_balance,
    gdd_balance_parameters,
    parameter_rows,
    replication_numbers,
)
from helpers import (
    brute_shift_invariant,
    brute_sum_to_shift,
    brute_sum_to_zero,
    closed_form_gdd_balance,
    run_cli,
)
from witness import MapViolationError, natural_ordering, replace_point_map

# (ambient exponent, block size, expected cross-group coverage)
GDD_CASES = [(4, 3, 1), (4, 4, 4), (5, 4, 12), (5, 5, 64), (6, 4, 28)]


@pytest.fixture(scope="module")
def gdd_sweep():
    """Verify every lifted case for every nonzero shift; reused by two criteria."""
    results = {}
    for ambient, k, expected in GDD_CASES:
        observed = set()
        for alpha in range(1, 2**ambient):
            points = [x for x in range(1, 2**ambient) if x != alpha]
            report = verify_gdd(
                points, gdd_groups(ambient, alpha), gdd_blocks(ambient, k, alpha)
            )
            assert report.passed, f"ambient 2^{ambient}, k={k}, alpha={alpha}"
            assert report.partition_ok
            assert report.within_group_coverage == 0
            observed.add(report.cross_group_lambda)
        results[(ambient, k)] = (observed, expected)
    return results


def test_criterion_1_bibd_reproduction():
    expected = [
        (3, 3, 1),
        (4, 3, 1),
        (4, 4, 6),
        (4, 5, 16),
        (4, 6, 40),
        (4, 7, 87),
        (5, 3, 1),
        (5, 4, 14),
    ]
    for m, k, lam in expected:
        report = verify_bibd(range(1, 2**m), zero_sum_blocks(m, k))
        assert report.passed, (m, k)
        v, _, _, observed = observed_params(report)
        assert v == 2**m - 1
        assert observed == lam, (m, k)
    print("ACCEPTANCE 1 PASS: enumerated designs reproduce all eight listed "
          "(v, k, lambda) triples exactly")


def test_criterion_2_gdd_reproduction_every_alpha(gdd_sweep):
    for (ambient, k), (observed, expected) in gdd_sweep.items():
        assert observed == {expected}, (ambient, k)
    print("ACCEPTANCE 2 PASS: lifted designs verify with the listed lambda' "
          "for every nonzero shift in every ambient field")


def test_criterion_3_bridging_identity(gdd_sweep):
    for ambient, k, _ in GDD_CASES:
        m = ambient - 1
        report = verify_bibd(range(1, 2**m), zero_sum_blocks(m, k))
        _, _, _, lam = observed_params(report)
        observed, _ = gdd_sweep[(ambient, k)]
        assert observed == {2 ** (k - 3) * lam}, (ambient, k)
    print("ACCEPTANCE 3 PASS: observed lambda' equals 2^(k-3) times the "
          "observed lambda one exponent down, in every case")


def test_criterion_4_recurrence_enumeration_agreement():
    for m, ks in ((3, range(3, 5)), (4, range(3, 13))):
        b = {k: b_k for k, b_k, _, _, _ in parameter_rows(m)}
        r = replication_numbers(m)
        lam = balance_parameters(m)
        for k in ks:
            family = zero_sum_blocks(m, k)
            assert len(family) == b[k], (m, k)
            report = verify_bibd(range(1, 2**m), family)
            _, _, observed_r, observed_lam = observed_params(report)
            assert observed_r == r[k], (m, k)
            assert observed_lam == lam[k], (m, k)
    print("ACCEPTANCE 4 PASS: block counts, per-point counts, and pair "
          "coverage all match the recurrences at m=3 and m=4")


def test_criterion_5_three_way_count_identity():
    from math import comb

    for m in (3, 4):
        half = 2 ** (m - 1) - 1
        for alpha in range(1, 2**m):
            for k in range(2, 2**m - 1):
                i_count = len(brute_sum_to_shift(m, k, alpha))
                j_count = len(brute_sum_to_zero(m, k, alpha))
                l_count = len(brute_shift_invariant(m, k, alpha))
                if k % 2 == 1:
                    assert l_count == 0
                    assert i_count == j_count, (m, alpha, k)
                elif k % 4 == 2:
                    assert l_count == comb(half, k // 2)
                    assert i_count == j_count + comb(half, k // 2), (m, alpha, k)
                else:
                    assert l_count == comb(half, k // 2)
                    assert i_count == j_count - comb(half, k // 2), (m, alpha, k)
    print("ACCEPTANCE 5 PASS: brute-force family sizes satisfy the three-way "
          "identity for every shift and size at m=3 and m=4")


def test_criterion_6_replacement_map_property_suite():
    rng = random.Random(20260808)
    spots = [(3, 3), (3, 4), (4, 3), (4, 4), (4, 5), (4, 6)]
    clean = reported = 0
    for _ in range(200):
        m, k = rng.choice(spots)
        i, j, ell = rng.sample(range(1, 2**m), 3)
        ordering = natural_ordering(j ^ ell, m)
        domain = zero_sum_blocks_containing(m, k, i, j)
        codomain = set(zero_sum_blocks_containing(m, k, i, ell))
        try:
            images = [replace_point_map(b, i, j, ell, ordering) for b in domain]
        except MapViolationError as exc:
            # Structured violation: the size identity must still hold.
            reported += 1
            assert exc.image is not None
            assert len(domain) == len(codomain), (m, k, i, j, ell)
        else:
            clean += 1
            assert set(images) == codomain, (m, k, i, j, ell)
            assert len(set(images)) == len(domain)
            for b, image in zip(domain, images):
                back = replace_point_map(image, i, ell, j, ordering)
                assert back == b, (m, k, i, j, ell)
    assert clean + reported == 200
    print(f"ACCEPTANCE 6 PASS: 200 sampled triples ({clean} clean bijections, "
          f"{reported} structured violations with the count identity intact)")


def test_criterion_7_structural_invariants():
    for m in range(3, 9):
        v = 2**m - 1
        b = [1, 0, *(row[1] for row in parameter_rows(m)), 0, 1]  # b_0 .. b_v
        assert b == b[::-1], m  # palindrome via recurrence
        assert sum(b) == 2 ** (v - m), m  # total codeword count
        replication_numbers(m)  # all divisions exact or ConsistencyError
        balance_parameters(m)
        gdd_balance_parameters(m)
    for m in (3, 4):
        v = 2**m - 1
        everything = set(range(1, 2**m))
        for k in range(3, v - 3):
            fam = set(zero_sum_blocks(m, k))
            mirror = set(zero_sum_blocks(m, v - k))
            assert len(fam) == len(mirror), (m, k)  # palindrome via enumeration
            complements = {tuple(sorted(everything - set(blk))) for blk in fam}
            assert complements == mirror, (m, k)
    print("ACCEPTANCE 7 PASS: palindrome, complement bijection, codeword "
          "total, and exact divisions all hold")


def test_criterion_8_closed_forms_match_recurrences():
    for m in range(4, 9):
        lam = balance_parameters(m)
        lifted = gdd_balance_parameters(m)
        for k in range(3, 8):
            assert closed_form_balance(m, k) == lam[k], (m, k)
            assert closed_form_gdd_balance(m, k) == lifted[k], (m, k)
    print("ACCEPTANCE 8 PASS: both closed-form columns equal the recurrence "
          "outputs for k = 3..7, m = 4..8")


def test_criterion_9_cli_contract(monkeypatch, capsys):
    proc = run_cli(["crosscheck", "--m", "3..4", "--k", "3..7"])
    assert proc.returncode == 0
    assert proc.stderr == b""

    rerun = run_cli(["crosscheck", "--m", "3..4", "--k", "3..7"])
    assert rerun.stdout == proc.stdout  # byte-identical reruns

    real = params.parameter_rows

    def perturbed(m, unit=1):
        for row in real(m, unit):
            if row[0] == 4:
                k, b, r, lam, lp = row
                row = (k, b + 1, r, lam, lp)
            yield row

    monkeypatch.setattr(params, "parameter_rows", perturbed)
    rc = cli.main(["crosscheck", "--m", "3", "--k", "3..4"])
    captured = capsys.readouterr()
    assert rc == 1
    assert "blocks" in captured.err
    print("ACCEPTANCE 9 PASS: crosscheck sweep exits 0, a perturbed table "
          "exits 1, and reruns are byte-identical")
