"""CLI contract: formats, exit codes, determinism, round trips."""

from __future__ import annotations

import hashlib
import json
import sys

import pytest

from design_forge import cli, params
from design_forge.errors import ConsistencyError
from helpers import run_cli, run_python


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
}


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


class TestCrosscheck:
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
        real = params.param_table

        def perturbed(m):
            table = real(m)
            rows = dict(table.rows)
            row = rows[3]
            rows[3] = params.ParamRow(
                row.blocks, row.replication, row.balance + 1, row.gdd_balance
            )
            return params.ParamTable(table.m, rows)

        monkeypatch.setattr(params, "param_table", perturbed)
        rc = cli.main(["crosscheck", "--m", "3", "--k", "3..4"])
        captured = capsys.readouterr()
        assert rc == 1
        assert "lambda" in captured.err
        assert "no" in captured.out

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

    def test_alpha_required_for_shifted_families(self):
        for family in ("I", "J", "L", "U"):
            proc = run_cli(["enumerate", "--m", "3", "--k", "3", "--family", family])
            assert proc.returncode == 2

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

    def test_crosscheck_checks_m_range_before_any_work(self):
        for span in ("3..17", "16..17", "2..4"):
            proc = run_cli(["crosscheck", "--m", span, "--k", "3", "--budget", "1000"])
            assert proc.returncode == 2
            assert proc.stdout == b""
            assert proc.stderr.startswith(b"error: field exponent")
            assert proc.stderr.count(b"\n") == 1

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
        def broken(m):
            raise ConsistencyError("forced")

        monkeypatch.setattr(params, "param_table", broken)
        assert cli.main(["params", "--m", "3"]) == 4
        assert capsys.readouterr().err == "error: internal: ConsistencyError: forced\n"

    def test_in_process_main_matches_subprocess_contract(self, capsys):
        assert cli.main(["params", "--m", "3"]) == 0
        assert cli.main(["enumerate", "--m", "4", "--k", "99"]) == 2
        assert cli.main(["enumerate", "--m", "4", "--k", "5", "--budget", "10"]) == 3
        capsys.readouterr()


class TestModuleBoundary:
    def test_commands_do_not_import_the_witnesses(self):
        proc = run_python(
            ["-c", "import design_forge.cli, sys; print('design_forge.witness' in sys.modules)"]
        )
        assert proc.returncode == 0
        assert proc.stdout == b"False\n"
