"""CLI contract: formats, exit codes, determinism, round trips."""

from __future__ import annotations

import decimal
import hashlib
import json
import os
import resource
import stat
import subprocess
import sys
import time

import pytest

from design_forge import blocks, cli, errors, params
from design_forge.errors import ConsistencyError
from helpers import SRC_DIR, run_cli


class TestEnumerate:
    def test_block_lines_and_summary(self):
        proc = run_cli(["enumerate", "--m", "3", "--k", "3"])
        assert proc.returncode == 0
        lines = proc.stdout.decode().splitlines()
        assert len(lines) == 7
        first = json.loads(lines[0])
        assert first == {"m": 3, "k": 3, "family": "W", "alpha": None, "block": [1, 2, 3]}
        assert b"enumerated 7 blocks" in proc.stderr

    def test_lifted_family_lives_one_exponent_up(self):
        proc = run_cli(["enumerate", "--m", "3", "--k", "3", "--family", "U", "--alpha", "1"])
        assert proc.returncode == 0
        lines = proc.stdout.decode().splitlines()
        assert len(lines) == 28
        assert all(json.loads(line)["m"] == 4 for line in lines)

    def test_groups_via_block_size_two(self):
        proc = run_cli(["enumerate", "--m", "3", "--k", "2", "--family", "U", "--alpha", "1"])
        assert proc.returncode == 0
        assert len(proc.stdout.splitlines()) == 7

    def test_out_of_range_size_exits_2(self):
        proc = run_cli(["enumerate", "--m", "4", "--k", "99"])
        assert proc.returncode == 2
        assert proc.stdout == b""

    def test_pair_family_needs_both_elements(self):
        proc = run_cli(["enumerate", "--m", "4", "--k", "4", "--family", "Wpair", "--i", "1"])
        assert proc.returncode == 2

    def test_budget_flag_exits_3(self):
        proc = run_cli(["enumerate", "--m", "4", "--k", "5", "--budget", "10"])
        assert proc.returncode == 3

    @pytest.mark.parametrize("budget", ["0", "-5"])
    def test_nonpositive_budget_exits_2(self, budget):
        proc = run_cli(["enumerate", "--m", "3", "--k", "3", "--budget", budget])
        assert proc.returncode == 2
        assert proc.stdout == b""

    def test_budget_failure_leaves_no_partial_file(self, tmp_path):
        target = tmp_path / "w.jsonl"
        proc = run_cli(
            ["enumerate", "--m", "4", "--k", "5", "--budget", "10", "--out", str(target)]
        )
        assert proc.returncode == 3
        assert not target.exists()
        assert list(tmp_path.iterdir()) == []

    def test_block_of_every_ground_point(self):
        # k = 2046 takes all of GF(2^11) minus {0, 1}, which XOR to 1: one
        # block, found without one stack frame per point.
        proc = run_cli(["enumerate", "--family", "I", "--m", "11", "--k", "2046", "--alpha", "1"])
        assert proc.returncode == 0
        lines = proc.stdout.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["block"] == list(range(2, 2048))

    def test_search_over_budget_exits_3_before_searching(self):
        # 4.29e9 search nodes against the default 10^8: refused up front.
        proc = run_cli(["verify-bibd", "--m", "16", "--k", "3"])
        assert proc.returncode == 3
        assert proc.stdout == b""
        assert b"exceeded the enumeration budget of 100000000 nodes" in proc.stderr

    def test_shift_invariant_budget_counts_points(self):
        # C(31, 20) = 84,672,315 blocks of 40 points each: 3.4e9 points
        # against the default 10^8, refused before any block is built.
        start = time.perf_counter()
        proc = run_cli(["enumerate", "--family", "L", "--m", "6", "--k", "40", "--alpha", "1"])
        assert time.perf_counter() - start < 3
        assert proc.returncode == 3
        assert proc.stdout == b""
        assert b"exceeded the enumeration budget of 100000000 nodes" in proc.stderr

    def test_export_requires_out(self):
        proc = run_cli(["export", "--m", "3", "--k", "3"])
        assert proc.returncode == 2

    def test_lifted_budget_exits_3_and_leaves_no_file(self, tmp_path):
        target = tmp_path / "report.json"
        proc = run_cli(
            ["verify-gdd", "--m", "4", "--k", "4", "--alpha", "1",
             "--budget", "10", "--out", str(target)]
        )
        assert proc.returncode == 3
        assert not target.exists()

    def test_csv_format_rejected_for_blocks(self):
        proc = run_cli(["enumerate", "--m", "3", "--k", "3", "--format", "csv"])
        assert proc.returncode == 2


# SHA-256 of `enumerate` stdout, one family of each kind. U at --m 8 holds
# 32-bit lanes (ambient 9), and U at --m 5 --k 5 runs past one 65,536-block
# chunk. Recorded before blocks were held packed, so any change to their
# bytes is a change of behaviour.
ENUMERATE_DIGESTS = {
    "W 5 5": "cb735cabc05ccd0962741155de94426c3070e96547d41484c935589fd9b112e7",
    "Wpair 5 5 --i 3 --j 17": "6c067764044723aca7693f2c47a905b8be2663410e29a817237f82fcc9aad7b2",
    "I 5 4 --alpha 9": "6e8e6c218971d23c132fab0506f62cfa0914c45f44a003e110a34e7ce6cfc9d8",
    "J 5 4 --alpha 6": "94a46e5ee15d03df3793754134ad5caa75b3616b141bd5fb346a32d1f6bf8fb6",
    "L 5 6 --alpha 3": "3f12f3d802a113265c726a0492be507bbc8cc1e0a5652613b2f73df7754304bd",
    "U 4 5 --alpha 11": "9288c7d32501ca41ca845e62f3398333a6988d606fa988fd0fe86d439313dc48",
    "U 8 2 --alpha 300": "6f7d2bac2db75d51a50ed9054ec3e19e71c7fb2e09b3dee8ff45903687ebb549",
    "U 8 3 --alpha 257": "2af97af09b8e5b2902cea70d770b566be423fbca26bf232c3ddae084e848251c",
    "U 5 5 --alpha 1": "5f07f8dd3a336a465c90681be5b66673364988272b65ea99997f72ac7b990cc8",
}


@pytest.mark.parametrize("case", sorted(ENUMERATE_DIGESTS))
def test_golden_enumerate_digest(case):
    family, m, k, *rest = case.split()
    proc = run_cli(["enumerate", "--family", family, "--m", m, "--k", k, *rest])
    assert proc.returncode == 0
    assert hashlib.sha256(proc.stdout).hexdigest() == ENUMERATE_DIGESTS[case]


# SHA-256 of `params --m m` stdout. The table holds exact integers only,
# so any change to its bytes is a change of behaviour.
PARAMS_DIGESTS = {
    3: "c0cda6858b7a910b7b7ff5a549feaa165cffee54510f4120d25d706f92b9b20a",
    4: "cee5c740ae2f1bb8deb455034bd31ad2165f824d749ef7e41f4ae6002d35ed67",
    5: "f97c5255754bb75eeec58e79f5bfa4ab7fb2af34f9a5e215d7271838f86d5db3",
    6: "325ae23faa4a993a950650e10148f5f0856753ba6eeb01a5ccefb754911cf76f",
    7: "47b4572625052d4936974865c0d6f2034980ff30897a28c023cfafe912b134d5",
    8: "84949f23128e2c981c3fc62e509a93cbcf29b886777158cdd41b190f4ffeb892",
    9: "405afd142efa26e49135e55ab6d44577b2b5126ed14a5560a6d2249f1983a0df",
    10: "fede7448685b920e072c1b143bac2223b39f90cf008f3e0022e15b1db448e22b",
    11: "59df787821039447e88c58e12fc38b4b902c7e126cd311ed8ea6c5e3e486c992",
    12: "21133e8b664ec04ef2ee9b472f0832333587da8fdc321ed79c7acc0b954678ab",
    13: "b11b2fa699372be232fe03ef04b1d44cc6bc67c33b0189b9a48cb70d385dd098",
}


def test_export_file_holds_the_enumerate_bytes(tmp_path):
    # 32-bit lanes and a non-null alpha, written to a file by export.
    target = tmp_path / "u.jsonl"
    proc = run_cli(["export", "--family", "U", "--m", "8", "--k", "3", "--alpha", "257",
                    "--out", str(target)])
    assert proc.returncode == 0
    digest = hashlib.sha256(target.read_bytes()).hexdigest()
    assert digest == ENUMERATE_DIGESTS["U 8 3 --alpha 257"]


class TestParams:
    @pytest.mark.parametrize("m", sorted(PARAMS_DIGESTS))
    def test_golden_table_digest(self, m):
        proc = run_cli(["params", "--m", str(m)])
        assert proc.returncode == 0
        assert hashlib.sha256(proc.stdout).hexdigest() == PARAMS_DIGESTS[m]

    def test_m4_table_cells(self):
        proc = run_cli(["params", "--m", "4"])
        assert proc.returncode == 0
        text = proc.stdout.decode()
        assert text.count("\r\n") == text.count("\n")  # RFC 4180 line endings
        rows = {line.split(",")[0]: line.split(",") for line in text.split("\r\n") if line}
        assert rows["4"][3] == "6" and rows["4"][4] == "12"
        assert rows["7"][3] == "87"

    def test_m3_boundary_rows(self):
        proc = run_cli(["params", "--m", "3"])
        rows = {line.split(",")[0]: line.split(",") for line in proc.stdout.decode().split("\r\n") if line}
        assert rows["2"][3] == "0"
        assert rows["5"][3] == "0"

    def test_m5_midrange_cell(self):
        proc = run_cli(["params", "--m", "5"])
        rows = {line.split(",")[0]: line.split(",") for line in proc.stdout.decode().split("\r\n") if line}
        assert rows["5"][3] == "112"
        assert rows["4"][4] == "28"

    def test_closed_form_cells_limited_to_small_k(self):
        proc = run_cli(["params", "--m", "3"])
        rows = {line.split(",")[0]: line.split(",") for line in proc.stdout.decode().split("\r\n") if line}
        assert rows["3"][5] == "1"
        assert rows["5"][5] == ""  # no closed form at this size

    def test_jsonl_format_rejected_for_params(self):
        proc = run_cli(["params", "--m", "4", "--format", "jsonl"])
        assert proc.returncode == 2

    def test_k_span_prints_those_rows_of_a_large_table(self):
        start = time.perf_counter()
        proc = run_cli(["params", "--m", "16", "--k", "3..7"])
        assert time.perf_counter() - start < 10
        assert proc.returncode == 0
        lines = proc.stdout.decode().split("\r\n")
        assert lines[0].startswith("k,b_k,") and lines[-1] == ""
        rows = [line.split(",") for line in lines[1:-1]]
        assert [row[0] for row in rows] == ["3", "4", "5", "6", "7"]
        assert all(row[5] == row[3] for row in rows)  # closed_lambda_k == lambda_k

    def test_k_span_over_every_row_is_the_whole_table(self):
        assert run_cli(["params", "--m", "5", "--k", "2..29"]).stdout == run_cli(["params", "--m", "5"]).stdout

    @pytest.mark.parametrize("span", ["30", "1..4", "0", "5..3"])
    def test_k_outside_the_table_exits_2(self, span):
        proc = run_cli(["params", "--m", "5", "--k", span])
        assert proc.returncode == 2
        assert proc.stdout == b""

    def test_the_callers_decimal_context_neither_changes_nor_rounds_the_table(self, tmp_path, capsys):
        # A 5-digit context in the calling process would round every large
        # cell; params formats in a context of its own and restores this one.
        out = tmp_path / "table.csv"
        context = decimal.getcontext()
        saved = context.prec
        context.prec = 5
        try:
            assert cli.main(["params", "--m", "9", "--out", str(out)]) == 0
            assert decimal.getcontext().prec == 5
        finally:
            context.prec = saved
        capsys.readouterr()
        assert hashlib.sha256(out.read_bytes()).hexdigest() == PARAMS_DIGESTS[9]

    def test_a_value_that_would_be_rounded_exits_4(self, monkeypatch, tmp_path, capsys):
        # C(63, k) * (63 - k) passes 10 digits at k = 7, long before the
        # 17-digit b_k: at 10 digits the first rounding raises, so nothing
        # rounded is printed.
        out = tmp_path / "table.csv"
        out.write_text("old")
        monkeypatch.setattr(decimal, "MAX_PREC", 10)
        assert cli.main(["params", "--m", "6", "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert err.startswith(("error: internal: Inexact", "error: internal: Rounded")), err
        assert out.read_text() == "old"


# SHA-256 of `crosscheck` stdout, each span under 2 s. Every cell compares
# the recurrences' row with what enumeration and the sweep observe, so any
# change to these bytes is a change of behaviour.
CROSSCHECK_DIGESTS = {
    "--m 3..4 --k 3..6 --gdd": "df3ca8e5642a848e932ef49fcbdc67212aa726674f32a84b9c76719f94953687",
    "--m 3..6 --k 3..5": "8b962a7728fa0e88c109bc32808e8ebe9f063b7f499d2ff71c066d964c989ac0",
    "--m 7..10 --k 3": "48ecbd76c57d1e3c8e1b92ac4004076336dd7dcb10f21dd7d33c79b377df9b0d",
}


class TestCrosscheck:
    @pytest.mark.parametrize("span", sorted(CROSSCHECK_DIGESTS))
    def test_golden_crosscheck_digest(self, span):
        proc = run_cli(["crosscheck", *span.split()])
        assert proc.returncode == 0
        assert proc.stderr == b""
        assert hashlib.sha256(proc.stdout).hexdigest() == CROSSCHECK_DIGESTS[span]

    def test_rows_past_the_k_bound_are_never_made(self, monkeypatch, capsys):
        real = params.parameter_rows
        made = []

        def recording(m, unit=1):
            for row in real(m, unit):
                made.append(row[0])
                yield row

        monkeypatch.setattr(params, "parameter_rows", recording)
        assert cli.main(["crosscheck", "--m", "5", "--k", "3..4"]) == 0
        assert max(made) == 4

    def test_sweep_is_clean(self):
        proc = run_cli(["crosscheck", "--m", "3..4", "--k", "3..7"])
        assert proc.returncode == 0
        lines = proc.stdout.decode().strip().split("\r\n")
        assert len(lines) == 1 + 2 + 5  # header, two m=3 rows, five m=4 rows
        assert all(line.endswith("yes") for line in lines[1:])
        assert proc.stderr == b""

    def test_gdd_sweep_is_clean(self):
        proc = run_cli(["crosscheck", "--m", "3", "--k", "3..4", "--gdd"])
        assert proc.returncode == 0
        gdd_rows = [
            line for line in proc.stdout.decode().split("\r\n") if ",gdd," in line
        ]
        assert [row.split(",")[5] for row in gdd_rows] == ["1", "4"]

    def test_perturbed_table_exits_1(self, monkeypatch, capsys):
        real = params.parameter_rows

        def perturbed(m, unit=1):
            for row in real(m, unit):
                if row[0] == 3:
                    k, b, r, lam, lp = row
                    row = (k, b, r, lam + 1, lp)
                yield row

        monkeypatch.setattr(params, "parameter_rows", perturbed)
        rc = cli.main(["crosscheck", "--m", "3", "--k", "3..4"])
        captured = capsys.readouterr()
        assert rc == 1
        assert "lambda" in captured.err
        assert "no" in captured.out

    def test_perturbed_replication_exits_1(self, monkeypatch, capsys):
        real = params.parameter_rows

        def perturbed(m, unit=1):
            for row in real(m, unit):
                if row[0] == 4:
                    k, b, r, lam, lp = row
                    row = (k, b, r + 1, lam, lp)
                yield row

        monkeypatch.setattr(params, "parameter_rows", perturbed)
        rc = cli.main(["crosscheck", "--m", "3", "--k", "3..4"])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err.splitlines() == ["m,k,check,field,observed,expected", "3,4,bibd,replication,4,5"]
        assert captured.out.splitlines()[1:] == ["3,3,bibd,7,7,1,1,yes", "3,4,bibd,7,7,2,2,no"]

    def test_unbalanced_design_exits_1(self, monkeypatch, capsys):
        # A wrong enumeration, not a wrong table: one block short, neither
        # r nor lambda is constant and both show as unbalanced.
        real = blocks.zero_sum_blocks

        def short(m, k, budget):
            family = real(m, k, budget)
            return blocks.BlockFamily(family.kind, m, k, tuple(family)[1:])

        monkeypatch.setattr(blocks, "zero_sum_blocks", short)
        assert cli.main(["crosscheck", "--m", "3", "--k", "3"]) == 1
        captured = capsys.readouterr()
        assert captured.out.splitlines()[1:] == ["3,3,bibd,6,7,unbalanced,1,no"]
        assert captured.err.splitlines() == [
            "m,k,check,field,observed,expected",
            "3,3,bibd,blocks,6,7",
            "3,3,bibd,lambda,unbalanced,1",
            "3,3,bibd,replication,unbalanced,3",
        ]

    def test_unbalanced_lifted_design_exits_1(self, monkeypatch, capsys):
        real = blocks.lift_chunks

        def short(base, alpha, budget):
            chunks = real(base, alpha, budget)
            if alpha != 1:
                return chunks
            made = [b for c in chunks for b in zip(*map(c.column, range(c.k)))]
            return [blocks.BlockFamily("U", base.m + 1, base.k, made[1:], alpha=alpha)]

        monkeypatch.setattr(blocks, "lift_chunks", short)
        assert cli.main(["crosscheck", "--m", "3", "--k", "3", "--gdd"]) == 1
        captured = capsys.readouterr()
        assert captured.out.splitlines()[1:] == [
            "3,3,bibd,7,7,1,1,yes",
            "3,3,gdd,419,420,1|unbalanced,1,no",
        ]
        assert captured.err.splitlines() == [
            "m,k,check,field,observed,expected",
            "3,3,gdd,blocks,419,420",
            "3,3,gdd,lambda,1|unbalanced,1",
        ]

    def test_perturbed_lifted_balance_exits_1(self, monkeypatch, capsys):
        # lambda'_3 off by one: the summed count and lambda' both disagree
        # with what the enumeration shows.
        real = params.parameter_rows

        def perturbed(m, unit=1):
            for row in real(m, unit):
                if row[0] == 3:
                    k, b, r, lam, lp = row
                    row = (k, b, r, lam, lp + 1)
                yield row

        monkeypatch.setattr(params, "parameter_rows", perturbed)
        assert cli.main(["crosscheck", "--m", "3", "--k", "3", "--gdd"]) == 1
        captured = capsys.readouterr()
        assert captured.out.splitlines()[1:] == [
            "3,3,bibd,7,7,1,1,yes",
            "3,3,gdd,420,840,1,2,no",
        ]
        assert captured.err.splitlines() == [
            "m,k,check,field,observed,expected",
            "3,3,gdd,blocks,420,840",
            "3,3,gdd,lambda,1,2",
        ]

    def test_closed_form_disagreeing_with_the_table_exits_1(self, monkeypatch, capsys):
        # The closed form is a second route to lambda_k, checked without a column.
        real = params.closed_form_balance
        monkeypatch.setattr(params, "closed_form_balance", lambda m, k: real(m, k) + 1)
        assert cli.main(["crosscheck", "--m", "3", "--k", "3..4"]) == 1
        captured = capsys.readouterr()
        assert captured.out.splitlines()[1:] == ["3,3,bibd,7,7,1,1,no", "3,4,bibd,7,7,2,2,no"]
        assert captured.err.splitlines() == [
            "m,k,check,field,observed,expected",
            "3,3,bibd,closed_lambda,2,1",
            "3,4,bibd,closed_lambda,3,2",
        ]

    def test_one_zero_sum_search_per_cell(self, monkeypatch, capsys):
        # Every alpha of a cell lifts the family its bibd row searched.
        real, calls = blocks._xor_subsets, []

        def counted(*args):
            calls.append(args[1])
            return real(*args)

        monkeypatch.setattr(blocks, "_xor_subsets", counted)
        assert cli.main(["crosscheck", "--m", "3..4", "--k", "3..4", "--gdd"]) == 0
        assert calls == [3, 4, 3, 4]

    def test_byte_identical_reruns(self):
        first = run_cli(["crosscheck", "--m", "3", "--k", "3..4"])
        second = run_cli(["crosscheck", "--m", "3", "--k", "3..4"])
        assert first.stdout == second.stdout
        assert first.returncode == second.returncode == 0


class TestDeterminism:
    def test_export_files_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        run_cli(["export", "--m", "4", "--k", "4", "--out", str(a)])
        run_cli(["export", "--m", "4", "--k", "4", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()
        assert len(a.read_bytes().splitlines()) == 105

    def test_params_files_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli(["params", "--m", "5", "--out", str(a)])
        run_cli(["params", "--m", "5", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestVerifyRoundTrip:
    def test_bibd_live_equals_reingested(self, tmp_path):
        exported = tmp_path / "w44.jsonl"
        run_cli(["export", "--m", "4", "--k", "4", "--out", str(exported)])
        live = run_cli(["verify-bibd", "--m", "4", "--k", "4"])
        ingested = run_cli(["verify-bibd", "--m", "4", "--k", "4", "--blocks", str(exported)])
        assert live.returncode == ingested.returncode == 0
        assert live.stdout == ingested.stdout
        report = json.loads(live.stdout)
        assert report["passed"] and report["lambda_histogram"] == {"6": 105}

    def test_gdd_live_equals_reingested(self, tmp_path):
        blocks_file = tmp_path / "u.jsonl"
        groups_file = tmp_path / "g.jsonl"
        run_cli(["export", "--m", "3", "--k", "3", "--family", "U", "--alpha", "1", "--out", str(blocks_file)])
        run_cli(["export", "--m", "3", "--k", "2", "--family", "U", "--alpha", "1", "--out", str(groups_file)])
        live = run_cli(["verify-gdd", "--m", "3", "--k", "3", "--alpha", "1"])
        ingested = run_cli(
            [
                "verify-gdd", "--m", "3", "--k", "3", "--alpha", "1",
                "--blocks", str(blocks_file), "--groups", str(groups_file),
            ]
        )
        assert live.returncode == ingested.returncode == 0
        assert live.stdout == ingested.stdout
        report = json.loads(live.stdout)
        assert report["cross_group_lambda"] == 1

    def test_failing_verification_exits_1(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(
            json.dumps({"m": 3, "k": 3, "family": "W", "alpha": None, "block": [1, 2, 3]})
            + "\n"
        )
        proc = run_cli(["verify-bibd", "--m", "3", "--k", "3", "--blocks", str(bad)])
        assert proc.returncode == 1
        report = json.loads(proc.stdout)
        assert report["counterexample"] == [1, 4]

    def test_export_for_another_alpha_rejected(self, tmp_path):
        exported = tmp_path / "u.jsonl"
        run_cli(["export", "--m", "4", "--k", "4", "--family", "U", "--alpha", "3", "--out", str(exported)])
        proc = run_cli(["verify-gdd", "--m", "4", "--k", "4", "--alpha", "5", "--blocks", str(exported)])
        assert proc.returncode == 2
        assert b"alpha 3, expected alpha 5" in proc.stderr

    def test_export_of_another_family_rejected(self, tmp_path):
        exported = tmp_path / "u.jsonl"
        run_cli(["export", "--m", "3", "--k", "3", "--family", "U", "--alpha", "1", "--out", str(exported)])
        proc = run_cli(["verify-bibd", "--m", "4", "--k", "3", "--blocks", str(exported)])
        assert proc.returncode == 2

    @pytest.mark.parametrize("first", [1.0, "1", True], ids=["float", "digit-string", "bool"])
    def test_non_integer_points_rejected(self, tmp_path, first):
        # Each edited record still XORs to 0 once coerced to int.
        exported = tmp_path / "w.jsonl"
        run_cli(["export", "--m", "3", "--k", "3", "--out", str(exported)])
        lines = exported.read_text().splitlines(keepends=True)
        record = json.loads(lines[0])
        assert record["block"] == [1, 2, 3]
        record["block"][0] = first
        exported.write_text(json.dumps(record) + "\n" + "".join(lines[1:]))
        proc = run_cli(["verify-bibd", "--m", "3", "--k", "3", "--blocks", str(exported)])
        assert proc.returncode == 2
        assert proc.stdout == b""
        assert proc.stderr.endswith(b":1: not a block record\n")

    @pytest.mark.parametrize(
        "argv,record",
        [
            (["verify-bibd", "--blocks"], {"m": 3, "k": 3, "family": "W", "alpha": None, "block": [1, 2]}),
            (["verify-gdd", "--alpha", "1", "--blocks"], {"m": 4, "k": 3, "family": "U", "alpha": 1, "block": [2, 4]}),
            (["verify-gdd", "--alpha", "1", "--groups"], {"m": 4, "k": 2, "family": "U", "alpha": 1, "block": [2]}),
        ],
        ids=["bibd-blocks", "gdd-blocks", "gdd-groups"],
    )
    def test_record_with_a_short_block_rejected(self, tmp_path, argv, record):
        # The record's k field is right; its block is one point short.
        bad = tmp_path / "short.jsonl"
        bad.write_text(json.dumps(record) + "\n")
        proc = run_cli([argv[0], "--m", "3", "--k", "3", *argv[1:], str(bad)])
        assert proc.returncode == 2
        assert proc.stdout == b""
        k = record["k"]
        assert proc.stderr == f"error: {bad}:1: block of {k - 1} points, expected {k}\n".encode()

    @pytest.mark.parametrize("flag", ["--blocks", "--groups"])
    def test_file_that_is_not_utf8_rejected(self, tmp_path, flag):
        bad = tmp_path / "latin1.jsonl"
        bad.write_bytes(b'{"m": 4, "k": 3, "family": "U", "alpha": 1, "block": [2, 4, 7]} \xe9\n')
        proc = run_cli(["verify-gdd", "--m", "3", "--k", "3", "--alpha", "1", flag, str(bad)])
        assert proc.returncode == 2
        assert proc.stdout == b""
        assert proc.stderr == f"error: {bad}: not UTF-8 text\n".encode()

    def test_record_of_another_block_size_rejected(self, tmp_path):
        bad = tmp_path / "k4.jsonl"
        bad.write_text(json.dumps({"m": 3, "k": 4, "family": "W", "alpha": None, "block": [1, 2, 4, 7]}) + "\n")
        proc = run_cli(["verify-bibd", "--m", "3", "--k", "3", "--blocks", str(bad)])
        assert proc.returncode == 2
        assert proc.stdout == b""
        assert proc.stderr == f"error: {bad}:1: block size 4, expected 3\n".encode()

    @pytest.mark.parametrize("field_k", [4, 100_000_000_000_000], ids=["export", "head-names-k"])
    def test_a_huge_block_size_is_refused_by_the_first_record(self, tmp_path, field_k):
        # No string grows with --k: an export of k = 4, or one whose heads
        # name the huge k, is read line by line and refused at line 1.
        k = 100_000_000_000_000
        exported = tmp_path / "w44.jsonl"
        assert run_cli(["export", "--m", "4", "--k", "4", "--out", str(exported)]).returncode == 0
        exported.write_text(exported.read_text().replace('"k": 4,', f'"k": {field_k},'))
        proc = run_cli(["verify-bibd", "--m", "4", "--k", str(k), "--blocks", str(exported)])
        assert proc.returncode == 2
        assert proc.stdout == b""
        expected = f"block size 4, expected {k}" if field_k == 4 else f"block of 4 points, expected {k}"
        assert proc.stderr == f"error: {exported}:1: {expected}\n".encode()

    @pytest.mark.parametrize(
        "argv,field,value,message",
        [
            (["verify-bibd"], "m", 3.0, "block lives in GF(2^3.0), expected GF(2^3)"),
            (["verify-bibd"], "k", 3.0, "block size 3.0, expected 3"),
            (["verify-gdd", "--alpha", "1"], "alpha", True, "block made for alpha True, expected alpha 1"),
        ],
        ids=["float-m", "float-k", "bool-alpha"],
    )
    def test_header_field_of_another_type_rejected(self, tmp_path, argv, field, value, message):
        # Each value equals the expected one under ==; only its type is wrong.
        exported = tmp_path / "e.jsonl"
        family = ["--family", "U", "--alpha", "1"] if argv[0] == "verify-gdd" else []
        assert run_cli(["export", "--m", "3", "--k", "3", *family, "--out", str(exported)]).returncode == 0
        lines = exported.read_text().splitlines(keepends=True)
        record = json.loads(lines[0])
        record[field] = value
        exported.write_text(json.dumps(record) + "\n" + "".join(lines[1:]))
        proc = run_cli([argv[0], "--m", "3", "--k", "3", *argv[1:], "--blocks", str(exported)])
        assert proc.returncode == 2
        assert proc.stdout == b""
        assert proc.stderr == f"error: {exported}:1: {message}\n".encode()

    def test_blank_lines_are_skipped(self, tmp_path, capsys):
        exported, spaced = tmp_path / "w.jsonl", tmp_path / "spaced.jsonl"
        assert cli.main(["export", "--m", "4", "--k", "4", "--out", str(exported)]) == 0
        lines = exported.read_text().splitlines(keepends=True)
        spaced.write_text("\n" + "\n  \n".join(lines) + "\n\n")
        capsys.readouterr()
        outs = []
        for path in (exported, spaced):
            assert cli.main(["verify-bibd", "--m", "4", "--k", "4", "--blocks", str(path)]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1] and json.loads(outs[0])["passed"]

    def test_mismatched_export_rejected(self, tmp_path):
        exported = tmp_path / "w.jsonl"
        run_cli(["export", "--m", "3", "--k", "3", "--out", str(exported)])
        proc = run_cli(["verify-bibd", "--m", "4", "--k", "3", "--blocks", str(exported)])
        assert proc.returncode == 2


class TestUsage:
    def test_no_command_exits_2(self):
        proc = run_cli([])
        assert proc.returncode == 2

    def test_range_where_single_expected_exits_2(self):
        proc = run_cli(["enumerate", "--m", "3..4", "--k", "3"])
        assert proc.returncode == 2

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["enumerate", "--m", "3", "--k", "abc"], "expected an int or 'a..b' range, got 'abc'"),
            (["enumerate", "--m", "3", "--k", "5..3"], "empty range '5..3'"),
            (["crosscheck", "--m", "4..3", "--k", "3"], "empty range '4..3'"),
        ],
        ids=["not-an-int", "empty-k-range", "empty-m-range"],
    )
    def test_malformed_span_exits_2(self, argv, message):
        proc = run_cli(argv)
        assert proc.returncode == 2
        assert proc.stdout == b""
        assert proc.stderr == f"error: {message}\n".encode()

    def test_verify_gdd_requires_alpha(self, capsys):
        assert cli.main(["verify-gdd", "--m", "3", "--k", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: verify-gdd needs --alpha (an element of GF(2^(m+1)))\n"

    def test_alpha_required_for_shifted_families(self, capsys):
        for family in ("I", "J", "L", "U"):
            assert cli.main(["enumerate", "--m", "3", "--k", "3", "--family", family]) == 2
            assert capsys.readouterr() == ("", f"error: family {family} needs --alpha\n")

    @pytest.mark.parametrize(
        "argv,code,message",
        [
            (["--family", "I", "--k", "5", "--budget", "10"], 3,
             "sum-to-shift blocks (m=4, k=5, alpha=3): exceeded the enumeration budget of 10 nodes"),
            (["--family", "J", "--k", "5", "--budget", "10"], 3,
             "sum-to-zero blocks (m=4, k=5, alpha=3): exceeded the enumeration budget of 10 nodes"),
            *((["--family", f, "--k", k], 2, f"shifted-sum family in GF(2^4): block size must be in 2..14, got {k}")
              for f in "IJ" for k in ("1", "15")),
        ],
    )
    def test_sum_to_shift_and_sum_to_zero_messages(self, argv, code, message, capsys):
        # Pinned byte for byte: I and J are one enumerator with two targets.
        assert cli.main(["enumerate", "--m", "4", "--alpha", "3", *argv]) == code
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_params_prints_past_the_int_to_str_limit(self, tmp_path):
        limited, unlimited = tmp_path / "limited.csv", tmp_path / "unlimited.csv"
        proc = run_cli(
            ["params", "--m", "12", "--out", str(limited)],
            env_extra={"PYTHONINTMAXSTRDIGITS": "640"},
        )
        assert proc.returncode == 0
        assert proc.stderr == b""
        assert run_cli(["params", "--m", "12", "--out", str(unlimited)]).returncode == 0
        assert limited.read_bytes() == unlimited.read_bytes()

    @pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"),
        reason="this Python has no int-to-str limit",
    )
    def test_params_restores_the_int_to_str_limit(self, capsys):
        before = sys.get_int_max_str_digits()
        assert cli.main(["params", "--m", "3"]) == 0
        capsys.readouterr()
        assert sys.get_int_max_str_digits() == before

    def test_params_without_the_int_to_str_limit_api(self, monkeypatch, tmp_path, capsys):
        # Pythons before 3.10.7 have no limit and no functions to set it.
        normal, fallback = tmp_path / "normal.csv", tmp_path / "fallback.csv"
        assert cli.main(["params", "--m", "6", "--out", str(normal)]) == 0
        monkeypatch.delattr(sys, "set_int_max_str_digits", raising=False)
        monkeypatch.delattr(sys, "get_int_max_str_digits", raising=False)
        assert cli.main(["params", "--m", "6", "--out", str(fallback)]) == 0
        capsys.readouterr()
        assert fallback.read_bytes() == normal.read_bytes()

    @pytest.mark.parametrize("command", [["params", "--m", "5"], ["export", "--m", "4", "--k", "4"]])
    def test_failure_while_streaming_leaves_the_old_file(self, monkeypatch, tmp_path, capsys, command):
        # Rows are made while they are written; one that fails part way
        # leaves --out as it was and no temporary file behind.
        out = tmp_path / "out.txt"
        out.write_text("old")
        real_points, real_reference = blocks.BlockFamily.points, params.reference_gdd_balance
        calls = []

        def failing(real):
            def wrapped(*args, **kwargs):
                calls.append(1)
                if len(calls) == 3:
                    raise RuntimeError("failed part way")
                return real(*args, **kwargs)
            return wrapped

        class FailingPoints:
            """A family's points, of which export's third chunk fails as it
            is read (a chunk is 4 blocks here, so W(4, 4) makes 27)."""

            def __init__(self, family):
                self.points = real_points.fget(family)

            def __len__(self):
                return len(self.points)

            def __getitem__(self, chunk):
                return read_chunk(self.points, chunk)

        read_chunk = failing(lambda points, chunk: points[chunk])
        monkeypatch.setattr(blocks.BlockFamily, "points", property(FailingPoints))
        monkeypatch.setattr(cli, "_CHUNK_POINTS", 16)
        monkeypatch.setattr(params, "reference_gdd_balance", failing(real_reference))
        assert cli.main([*command, "--out", str(out)]) == 4
        assert "failed part way" in capsys.readouterr().err
        assert out.read_text() == "old"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    @pytest.mark.parametrize(
        "command",
        [["verify-bibd", "--k", "3", "--blocks", "{w}", "--budget", "0"],
         ["verify-gdd", "--k", "3", "--alpha", "1", "--blocks", "{u}", "--groups", "{g}", "--budget", "-5"]],
        ids=["verify-bibd", "verify-gdd"],
    )
    def test_nonpositive_budget_exits_2_when_reading_blocks(self, tmp_path, capsys, command):
        # --budget is checked on every path, not only those that enumerate.
        files = {name: tmp_path / f"{name}.jsonl" for name in "wug"}
        for name, args in (("w", ["--k", "3"]), ("u", ["--k", "3", "--family", "U", "--alpha", "1"]),
                           ("g", ["--k", "2", "--family", "U", "--alpha", "1"])):
            assert cli.main(["export", "--m", "3", *args, "--out", str(files[name])]) == 0
        capsys.readouterr()
        argv = [command[0], "--m", "3", *(arg.format(**files) for arg in command[1:])]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: budget must be positive, got {command[-1]}\n"

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["verify-bibd", "--m", "-1", "--k", "3", "--blocks", os.devnull],
             "field exponent must be an int in 3..16, got -1"),
            (["verify-gdd", "--m", "-2", "--k", "3", "--alpha", "1", "--groups", os.devnull],
             "field exponent must be an int in 4..17, got -1"),
            (["verify-gdd", "--m", "30", "--k", "3", "--alpha", "1"],
             "field exponent must be an int in 4..17, got 31"),
            (["verify-bibd", "--m", "40", "--k", "3", "--blocks", os.devnull],
             "field exponent must be an int in 3..16, got 40"),
            (["verify-gdd", "--m", "3", "--k", "3", "--alpha", "0", "--blocks", os.devnull, "--groups", os.devnull],
             "shift must be a nonzero element of GF(2^4), got 0"),
        ],
        ids=["bibd-negative", "gdd-negative", "gdd-30", "bibd-40", "gdd-alpha-0"],
    )
    def test_m_and_alpha_are_checked_before_any_point_is_listed(self, argv, message):
        # --m and --alpha are checked on every path, also when nothing is
        # enumerated. The child is capped at 1 GiB of address space: listing
        # the 2^31 or more points of such a field fails for memory (exit 4)
        # instead of filling the machine.
        def cap():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        proc = subprocess.run(
            [sys.executable, "-m", "design_forge.cli", *argv],
            capture_output=True, env=dict(os.environ, PYTHONPATH=SRC_DIR), preexec_fn=cap,
        )
        assert proc.returncode == 2
        assert proc.stdout == b""
        assert proc.stderr == f"error: {message}\n".encode()

    @pytest.mark.parametrize(
        "command", [["params", "--m", "3"], ["crosscheck", "--m", "3..4", "--k", "3..6", "--gdd"]],
        ids=["params", "crosscheck"],
    )
    @pytest.mark.parametrize(
        "where,problem",
        [("", "is a directory"), ("missing/out.csv", "is in a directory that does not exist")],
        ids=["directory", "missing-directory"],
    )
    def test_unwritable_out_is_refused_before_the_command_runs(
        self, monkeypatch, tmp_path, capsys, command, where, problem
    ):
        def ran(args):
            raise AssertionError("the command ran")

        monkeypatch.setattr(cli, f"cmd_{command[0]}", ran)
        out = tmp_path / where
        assert cli.main([*command, "--out", str(out)]) == 2
        assert capsys.readouterr() == ("", f"error: --out {out} {problem}\n")
        assert list(tmp_path.iterdir()) == []

    def test_out_through_a_link_replaces_its_target_and_keeps_the_link(self, tmp_path, capsys):
        assert cli.main(["params", "--m", "3"]) == 0
        table = capsys.readouterr().out
        target, link = tmp_path / "table.csv", tmp_path / "link.csv"
        target.write_text("old\n")
        link.symlink_to(target.name)
        assert cli.main(["params", "--m", "3", "--out", str(link)]) == 0
        assert capsys.readouterr() == ("", "")
        assert os.readlink(link) == target.name
        assert target.read_bytes() == table.encode()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.csv", "table.csv"]

    @pytest.mark.parametrize(
        "umask,mode", [(0o022, 0o644), (0o077, 0o600), (0o002, 0o664)], ids=["022", "077", "002"]
    )
    def test_a_new_out_file_has_the_mode_open_would_give_it(self, tmp_path, capsys, umask, mode):
        out = tmp_path / "table.csv"
        old = os.umask(umask)
        try:
            assert cli.main(["params", "--m", "3", "--out", str(out)]) == 0
        finally:
            os.umask(old)
        assert stat.S_IMODE(out.stat().st_mode) == mode
        assert capsys.readouterr() == ("", "")

    @pytest.mark.parametrize("through_link", [False, True], ids=["file", "link"])
    def test_a_replaced_out_file_keeps_its_mode(self, tmp_path, capsys, through_link):
        target, link = tmp_path / "table.csv", tmp_path / "link.csv"
        target.write_text("old\n")
        target.chmod(0o640)
        link.symlink_to(target.name)
        old = os.umask(0o022)
        try:
            assert cli.main(["params", "--m", "3", "--out", str(link if through_link else target)]) == 0
        finally:
            os.umask(old)
        assert stat.S_IMODE(target.stat().st_mode) == 0o640
        assert target.read_text().startswith("k,b_k,")
        assert capsys.readouterr() == ("", "")

    @pytest.mark.parametrize("kind", ["fifo", "link-loop"])
    def test_out_that_is_not_a_regular_file_is_refused_before_the_command_runs(
        self, monkeypatch, tmp_path, capsys, kind
    ):
        def ran(args):
            raise AssertionError("the command ran")

        monkeypatch.setattr(cli, "cmd_params", ran)
        out = tmp_path / "out"
        if kind == "fifo":
            os.mkfifo(out)
        else:
            out.symlink_to("loop")
            (tmp_path / "loop").symlink_to("out")
        assert cli.main(["params", "--m", "3", "--out", str(out)]) == 2
        assert capsys.readouterr() == ("", f"error: --out {out} is not a regular file\n")
        assert out.is_fifo() if kind == "fifo" else os.readlink(out) == "loop"

    def test_streamed_text_counts_what_was_written(self, capsys):
        text = cli._csv_text([["a", "bc"], ["d"]])
        assert len(text) == 0
        cli._write_output(text, None)
        assert capsys.readouterr().out == "a,bc\r\nd\r\n"
        assert len(text) == 9

    def test_crosscheck_checks_m_range_before_any_work(self):
        for span in ("3..17", "16..17", "2..4"):
            proc = run_cli(["crosscheck", "--m", span, "--k", "3", "--budget", "1000"])
            assert proc.returncode == 2
            assert proc.stdout == b""
            assert proc.stderr.startswith(b"error: field exponent")
            assert proc.stderr.count(b"\n") == 1

    def test_crosscheck_over_budget_exits_3_before_the_table(self):
        # The m = 16 table takes seconds; the first search is over budget.
        start = time.perf_counter()
        proc = run_cli(["crosscheck", "--m", "16", "--k", "3"])
        assert time.perf_counter() - start < 3
        assert proc.returncode == 3
        assert proc.stdout == b""
        assert proc.stderr.startswith(b"error: ") and proc.stderr.count(b"\n") == 1

    def test_crosscheck_over_budget_exits_3_before_its_row(self):
        # Rows 2..30000 of m = 16 take ~10 s; the search for k = 30000 is
        # over budget, so no row is made.
        start = time.perf_counter()
        proc = run_cli(["crosscheck", "--m", "16", "--k", "30000..30001"])
        assert time.perf_counter() - start < 3
        assert proc.returncode == 3
        assert proc.stdout == b""
        assert proc.stderr.startswith(b"error: ") and proc.stderr.count(b"\n") == 1

    @pytest.mark.parametrize(
        "argv,first_over",
        [
            (["verify-gdd", "--m", "3", "--k", "3", "--alpha", "1"], "lifted blocks (exp=4, k=3, alpha=1)"),
            (["crosscheck", "--m", "3", "--k", "3", "--gdd"], "zero-sum blocks (m=3, k=3)"),
        ],
        ids=["verify-gdd", "crosscheck"],
    )
    def test_a_lift_is_charged_its_search_and_its_blocks(self, argv, first_over, capsys):
        # W(3, 3) takes 35 search nodes and lifts to 28 blocks for alpha 1:
        # each lift is charged 63, on its own budget, whether it searched
        # W itself (verify-gdd) or took crosscheck's.
        assert cli.main([*argv, "--budget", "63"]) == 0
        capsys.readouterr()
        for budget, over in ((62, "lifted blocks (exp=4, k=3, alpha=1)"), (30, first_over)):
            assert cli.main([*argv, "--budget", str(budget)]) == 3
            assert capsys.readouterr() == ("", f"error: {over}: exceeded the enumeration budget of {budget} nodes\n")

    @pytest.mark.parametrize("span", ["1..2", "50..60"])
    def test_crosscheck_rejects_a_k_span_with_no_cell(self, span):
        proc = run_cli(["crosscheck", "--m", "3..4", "--k", span])
        assert proc.returncode == 2
        assert proc.stdout == b""
        assert proc.stderr == f"error: --k {span} selects no block size in 3..12 for --m 3..4\n".encode()

    def test_keyboard_interrupt_exits_130(self, monkeypatch, capsys):
        def interrupted(args):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "cmd_params", interrupted)
        assert cli.main(["params", "--m", "3"]) == 130
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: interrupted\n"

    def test_internal_error_exits_4(self, monkeypatch, capsys):
        def broken(m, unit=1):
            raise ConsistencyError("forced")

        monkeypatch.setattr(params, "parameter_rows", broken)
        assert cli.main(["params", "--m", "3"]) == 4
        assert capsys.readouterr().err == "error: internal: ConsistencyError: forced\n"

    def test_any_input_error_exits_2(self, monkeypatch, capsys):
        class Refused(errors.InputError):
            pass

        def refusing(args):
            raise Refused("refused input")

        monkeypatch.setattr(cli, "cmd_params", refusing)
        assert cli.main(["params", "--m", "3"]) == 2
        assert capsys.readouterr().err == "error: refused input\n"

    def test_failure_before_the_command_exits_4(self, monkeypatch, capsys):
        def broken(text, flag):
            raise RuntimeError("forced")

        monkeypatch.setattr(cli, "_single", broken)
        assert cli.main(["params", "--m", "3"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: internal: RuntimeError: forced\n"

    def test_an_enumerators_own_bad_block_exits_4(self, monkeypatch, capsys):
        monkeypatch.setattr(blocks, "_xor_subsets", lambda *args: bytes((1, 2, 4)))  # the lanes of one block
        assert cli.main(["enumerate", "--m", "3", "--k", "3"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: internal: ConsistencyError: enumerated block (1, 2, 4) violates the W predicate\n"
        )

    def test_the_verified_lift_is_still_checked_as_a_family(self, monkeypatch, capsys):
        # verify-gdd takes the lift in the order it is made, with no sort of
        # the blocks, and still checks every block against the U rule. At
        # alpha 1 the section keeps point order, so unsorted points pass.
        monkeypatch.setattr(blocks, "_sort_lanes", lambda *args: None)
        assert cli.main(["verify-gdd", "--m", "3", "--k", "4", "--alpha", "9"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: internal: ConsistencyError: enumerated block (8, 2, 4, 7) is not strictly increasing\n"
        )

    def test_a_bad_block_in_a_later_chunk_exits_4(self, monkeypatch, capsys):
        # The lift at --m 5 --k 6 is 16 chunks of two choices each; the
        # third chunk is left unsorted, so its first block, the base
        # (1, 2, 3, 4, 8, 12) with its third point shifted by 33, fails
        # once two chunks have been swept.
        real, calls = blocks._sort_lanes, []

        def sort_but_the_third(*args):
            calls.append(len(calls))
            if len(calls) != 3:
                real(*args)

        monkeypatch.setattr(blocks, "_sort_lanes", sort_but_the_third)
        assert cli.main(["verify-gdd", "--m", "5", "--k", "6", "--alpha", "33"]) == 4
        captured = capsys.readouterr()
        assert len(calls) == 3
        assert captured.out == ""
        assert captured.err == (
            "error: internal: ConsistencyError: enumerated block (1, 2, 34, 4, 8, 12) is not strictly increasing\n"
        )

    def test_in_process_main_matches_subprocess_contract(self, capsys):
        assert cli.main(["params", "--m", "3"]) == 0
        assert cli.main(["enumerate", "--m", "4", "--k", "99"]) == 2
        assert cli.main(["enumerate", "--m", "4", "--k", "5", "--budget", "10"]) == 3
        capsys.readouterr()
