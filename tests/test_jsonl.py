"""The JSONL layer: export's text against an encoder written here, and the
ingest of edited exports against outcomes recorded before the ingest read
export's own text in bulk."""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from array import array

import pytest

from design_forge import blocks, cli
from helpers import SRC_DIR, run_cli


def oracle_text(m, k, kind, alpha, block_list) -> str:
    """Export's text as json.dumps writes each record."""
    return "".join(
        json.dumps({"m": m, "k": k, "family": kind, "alpha": alpha, "block": list(b)}) + "\n"
        for b in block_list
    )


# enumerate's arguments -> the same family from the library. U at --m 8
# holds 4-byte lanes; L at odd k is empty.
FAMILIES = {
    "W 4 4": lambda: blocks.zero_sum_blocks(4, 4),
    "Wpair 5 5 --i 3 --j 17": lambda: blocks.zero_sum_blocks_containing(5, 5, 3, 17),
    "I 4 4 --alpha 9": lambda: blocks.sum_to_shift_blocks(4, 4, 9),
    "J 4 4 --alpha 6": lambda: blocks.sum_to_zero_blocks(4, 4, 6),
    "L 4 6 --alpha 3": lambda: blocks.shift_invariant_blocks(4, 6, 3),
    "L 4 5 --alpha 3": lambda: blocks.shift_invariant_blocks(4, 5, 3),
    "U 3 4 --alpha 11": lambda: blocks.gdd_blocks(4, 4, 11),
    "U 3 2 --alpha 5": lambda: blocks.gdd_groups(4, 5),
    "U 8 3 --alpha 257": lambda: blocks.gdd_blocks(9, 3, 257),
}


@pytest.mark.parametrize("case", sorted(FAMILIES))
def test_export_text_equals_json_dumps_per_block(case, tmp_path):
    family, m, k, *rest = case.split()
    target = tmp_path / "out.jsonl"
    proc = run_cli(["export", "--family", family, "--m", m, "--k", k, *rest, "--out", str(target)])
    assert proc.returncode == 0
    made = FAMILIES[case]()
    assert (made.lane_size == 4) == (case == "U 8 3 --alpha 257")
    expected = oracle_text(made.m, made.k, made.kind, made.alpha, made)
    assert (expected == "") == (case == "L 4 5 --alpha 3")
    assert target.read_text(encoding="utf-8") == expected


@pytest.mark.parametrize("shift", [-1, 0, 1])
@pytest.mark.parametrize("m,k", [(6, 4), (8, 3)], ids=["1-byte", "4-byte"])
def test_export_text_at_chunk_edges(m, k, shift):
    # A chunk is 4,096 blocks at k = 4: 4,095, 4,096 and 4,097 blocks.
    n = cli._CHUNK_POINTS // k + shift
    full = blocks.zero_sum_blocks(m, k)
    part = blocks.BlockFamily("W", m, k, tuple(full)[:n])
    assert len(part) == n and part.lane_size == (1 if m < 8 else 4)
    assert "".join(cli._jsonl_text(part)) == oracle_text(m, k, "W", None, part)


# ---------------------------------------------------------------------------
# ingest of edited exports


def _head_of(line: str, **fields) -> str:
    record = json.loads(line)
    record.update(fields)
    return json.dumps(record) + "\n"


def _batched(lines: list[str]) -> list[str]:
    """The export repeated past 160 KiB, so that it spans three batches."""
    return lines * (160_000 // len("".join(lines)) + 1)


def _second_batch_fault(lines: list[str]) -> list[str]:
    lines = _batched(lines)
    n, size = 0, 0
    while size <= 80_000:
        size += len(lines[n])
        n += 1
    lines[n] = _head_of(lines[n], m=99)
    return lines


def _late_bad_byte(lines: list[str]) -> list[str]:
    lines = _batched(lines)
    lines[1] = _head_of(lines[1], family="X")
    lines[-1] = lines[-1][:-1] + " \udce9\n"
    return lines


def _point(lines: list[str], text, at: int = 0) -> list[str]:
    """The first point x of line `at` replaced by text(x)."""
    lines = list(lines)
    head, rest = lines[at].split("[", 1)
    first, rest = rest.split(",", 1)
    lines[at] = f"{head}[{text(first)},{rest}"
    return lines


def _block_text(lines: list[str], text, at: int = 0) -> list[str]:
    """Line `at` with the text after its "[" replaced by text(of it)."""
    lines = list(lines)
    head, rest = lines[at].split("[", 1)
    lines[at] = f"{head}[{text(rest)}"
    return lines


def _first_digit_before_the_brace(lines: list[str]) -> list[str]:
    """The first line with its head's first digit moved before its "{":
    the head keeps its length and its text without digits."""
    line = lines[0]
    at = next(i for i, c in enumerate(line) if c.isdigit())
    return [line[at] + line[:at] + line[at + 1 :], *lines[1:]]


# Each edit maps the export's lines to the lines of the edited file; a
# lone surrogate stands for a byte that is not UTF-8 (\xe9).
EDITS = {
    "canonical": lambda lines: lines,
    "batched": _batched,
    "leading-zero": lambda lines: _point(lines, lambda x: "0" + x),
    "negative-point": lambda lines: _point(lines, lambda x: "-" + x),
    "point-256": lambda lines: _point(lines, lambda x: "256"),
    "point-2^32": lambda lines: _point(lines, lambda x: str(1 << 32)),
    "point-2^64": lambda lines: _point(lines, lambda x: str(1 << 64)),
    "last-point-2^32": lambda lines: _point(lines, lambda x: str(1 << 32), -1),
    # Points that do not fit a byte, or 32 bits, only after whole batches
    # of points that do (k = 4 puts a multiple of 4 bytes before them).
    "batched-last-point-300": lambda lines: _point(_batched(lines), lambda x: "300", -1),
    "batched-last-point-2^32": lambda lines: _point(_batched(lines), lambda x: str(1 << 32), -1),
    "crlf": lambda lines: [line.replace("\n", "\r\n") for line in lines],
    "trailing-spaces": lambda lines: [line.replace("\n", "  \n") for line in lines],
    "no-final-newline": lambda lines: [*lines[:-1], lines[-1].rstrip("\n")],
    "reordered-keys": lambda lines: [
        json.dumps(dict(reversed(json.loads(lines[0]).items()))) + "\n", *lines[1:]
    ],
    "second-batch-header-fault": _second_batch_fault,
    "bad-byte-after-header-fault": lambda lines: [
        lines[0], _head_of(lines[1], m=99), lines[2][:-1] + " \udce9\n", *lines[3:]
    ],
    "late-bad-byte-after-header-fault": _late_bad_byte,
    # Edits that, but for "head-repeated", keep the text without its digits
    # export's, so that only the head and the JSON of the points refuse them.
    "digit-before-a-later-brace": lambda lines: [lines[0], "5" + lines[1], *lines[2:]],
    "digit-moved-before-the-first-brace": _first_digit_before_the_brace,
    "digit-after-the-brackets": lambda lines: _block_text(lines, lambda t: t.replace("]}\n", "]}5\n")),
    "last-digit-after-the-brackets": lambda lines: _block_text(lines, lambda t: t.replace("]}\n", "]}5\n"), -1),
    "digit-between-comma-and-space": lambda lines: _block_text(lines, lambda t: t.replace(", ", ",5 ", 1)),
    "empty-point": lambda lines: _point(lines, lambda x: ""),
    "batched-last-leading-zero": lambda lines: _point(_batched(lines), lambda x: "0" + x, -1),
    "head-repeated": lambda lines: [lines[0], lines[1][: lines[1].index("[") + 1] + lines[1], *lines[2:]],
}

# The file each command reads, and its command line.
COMMANDS = {
    "bibd-blocks": (["export", "--m", "4", "--k", "4"],
                    ["verify-bibd", "--m", "4", "--k", "4", "--blocks"]),
    "gdd-blocks": (["export", "--m", "3", "--k", "3", "--family", "U", "--alpha", "1"],
                   ["verify-gdd", "--m", "3", "--k", "3", "--alpha", "1", "--blocks"]),
    "gdd-groups": (["export", "--m", "3", "--k", "2", "--family", "U", "--alpha", "1"],
                   ["verify-gdd", "--m", "3", "--k", "3", "--alpha", "1", "--groups"]),
}


def ingest_outcome(tmp_path, capsys, command: str, edit: str):
    """(exit code, SHA-256 of stdout or "", stderr with the file's path as
    {path}) of the command on its export after the edit."""
    export, verify = COMMANDS[command]
    exported = tmp_path / f"{command}.jsonl"
    assert cli.main([*export, "--out", str(exported)]) == 0
    lines = exported.read_text(encoding="utf-8").splitlines(keepends=True)
    edited = tmp_path / f"{command}-{edit}.jsonl"
    edited.write_bytes("".join(EDITS[edit](lines)).encode("utf-8", "surrogateescape"))
    capsys.readouterr()
    code = cli.main([*verify, str(edited)])
    out, err = capsys.readouterr()
    digest = hashlib.sha256(out.encode()).hexdigest() if out else ""
    return code, digest, err.replace(str(edited), "{path}")


# Recorded by ingest_outcome before the ingest had a bulk path, when every
# file was read line by line; the edits that keep the text without its
# digits were recorded when a regular expression chose the bulk batches,
# which read each of them line by line.
INGEST_OUTCOMES = {
    "bibd-blocks bad-byte-after-header-fault": (2, "", "error: {path}: not UTF-8 text\n"),
    "bibd-blocks batched-last-point-300": (2, "", "error: block (300, 13, 14, 15) uses point 300 outside the point set\n"),
    "bibd-blocks batched-last-point-2^32": (2, "", "error: block (4294967296, 13, 14, 15) uses point 4294967296 outside the point set\n"),
    "bibd-blocks batched": (0, "69d6d4e29964b394b8735fe99ab8bee98684876677937a04828d484cf0bd757b", ""),
    "bibd-blocks batched-last-leading-zero": (2, "", "error: {path}:2310: not a block record\n"),
    "bibd-blocks canonical": (0, "dc57329bbb0b6249b34866480eaaba951d97138c1692001986a2a7e314885275", ""),
    "bibd-blocks crlf": (0, "dc57329bbb0b6249b34866480eaaba951d97138c1692001986a2a7e314885275", ""),
    "bibd-blocks digit-after-the-brackets": (2, "", "error: {path}:1: not a block record\n"),
    "bibd-blocks digit-before-a-later-brace": (2, "", "error: {path}:2: not a block record\n"),
    "bibd-blocks digit-between-comma-and-space": (2, "", "error: {path}:1: not a block record\n"),
    "bibd-blocks digit-moved-before-the-first-brace": (2, "", "error: {path}:1: not a block record\n"),
    "bibd-blocks empty-point": (2, "", "error: {path}:1: not a block record\n"),
    "bibd-blocks head-repeated": (2, "", "error: {path}:2: not a block record\n"),
    "bibd-blocks last-digit-after-the-brackets": (2, "", "error: {path}:105: not a block record\n"),
    "bibd-blocks last-point-2^32": (2, "", "error: block (4294967296, 13, 14, 15) uses point 4294967296 outside the point set\n"),
    "bibd-blocks late-bad-byte-after-header-fault": (2, "", "error: {path}:2: block of family X, expected W\n"),
    "bibd-blocks leading-zero": (2, "", "error: {path}:1: not a block record\n"),
    "bibd-blocks negative-point": (2, "", "error: block (-1, 2, 4, 7) uses point -1 outside the point set\n"),
    "bibd-blocks no-final-newline": (0, "dc57329bbb0b6249b34866480eaaba951d97138c1692001986a2a7e314885275", ""),
    "bibd-blocks point-256": (2, "", "error: block (256, 2, 4, 7) uses point 256 outside the point set\n"),
    "bibd-blocks point-2^32": (2, "", "error: block (4294967296, 2, 4, 7) uses point 4294967296 outside the point set\n"),
    "bibd-blocks point-2^64": (2, "", "error: block (18446744073709551616, 2, 4, 7) uses point 18446744073709551616 outside the point set\n"),
    "bibd-blocks reordered-keys": (0, "dc57329bbb0b6249b34866480eaaba951d97138c1692001986a2a7e314885275", ""),
    "bibd-blocks second-batch-header-fault": (2, "", "error: {path}:1119: block lives in GF(2^99), expected GF(2^4)\n"),
    "bibd-blocks trailing-spaces": (0, "dc57329bbb0b6249b34866480eaaba951d97138c1692001986a2a7e314885275", ""),
    "gdd-blocks bad-byte-after-header-fault": (2, "", "error: {path}: not UTF-8 text\n"),
    "gdd-blocks batched-last-point-300": (2, "", "error: block (300, 11, 13) uses point 300 outside the point set\n"),
    "gdd-blocks batched-last-point-2^32": (2, "", "error: block (4294967296, 11, 13) uses point 4294967296 outside the point set\n"),
    "gdd-blocks batched": (0, "647c29af92341d38a4d8847e5870c59d9759bd0a7cc230525860b61954fd8784", ""),
    "gdd-blocks batched-last-leading-zero": (2, "", "error: {path}:2464: not a block record\n"),
    "gdd-blocks canonical": (0, "92eac27aecfd43adf46bdd5700febd6a6766efd8e92198f418eb7372a37101cc", ""),
    "gdd-blocks crlf": (0, "92eac27aecfd43adf46bdd5700febd6a6766efd8e92198f418eb7372a37101cc", ""),
    "gdd-blocks digit-after-the-brackets": (2, "", "error: {path}:1: not a block record\n"),
    "gdd-blocks digit-before-a-later-brace": (2, "", "error: {path}:2: not a block record\n"),
    "gdd-blocks digit-between-comma-and-space": (2, "", "error: {path}:1: not a block record\n"),
    "gdd-blocks digit-moved-before-the-first-brace": (2, "", "error: {path}:1: not a block record\n"),
    "gdd-blocks empty-point": (2, "", "error: {path}:1: not a block record\n"),
    "gdd-blocks head-repeated": (2, "", "error: {path}:2: not a block record\n"),
    "gdd-blocks last-digit-after-the-brackets": (2, "", "error: {path}:28: not a block record\n"),
    "gdd-blocks last-point-2^32": (2, "", "error: block (4294967296, 11, 13) uses point 4294967296 outside the point set\n"),
    "gdd-blocks late-bad-byte-after-header-fault": (2, "", "error: {path}:2: block of family X, expected U\n"),
    "gdd-blocks leading-zero": (2, "", "error: {path}:1: not a block record\n"),
    "gdd-blocks negative-point": (2, "", "error: block (-2, 4, 7) uses point -2 outside the point set\n"),
    "gdd-blocks no-final-newline": (0, "92eac27aecfd43adf46bdd5700febd6a6766efd8e92198f418eb7372a37101cc", ""),
    "gdd-blocks point-256": (2, "", "error: block (256, 4, 7) uses point 256 outside the point set\n"),
    "gdd-blocks point-2^32": (2, "", "error: block (4294967296, 4, 7) uses point 4294967296 outside the point set\n"),
    "gdd-blocks point-2^64": (2, "", "error: block (18446744073709551616, 4, 7) uses point 18446744073709551616 outside the point set\n"),
    "gdd-blocks reordered-keys": (0, "92eac27aecfd43adf46bdd5700febd6a6766efd8e92198f418eb7372a37101cc", ""),
    "gdd-blocks second-batch-header-fault": (2, "", "error: {path}:1227: block lives in GF(2^99), expected GF(2^4)\n"),
    "gdd-blocks trailing-spaces": (0, "92eac27aecfd43adf46bdd5700febd6a6766efd8e92198f418eb7372a37101cc", ""),
    "gdd-groups bad-byte-after-header-fault": (2, "", "error: {path}: not UTF-8 text\n"),
    "gdd-groups batched-last-point-300": (2, "", "error: group (300, 15) uses point 300 outside the point set\n"),
    "gdd-groups batched-last-point-2^32": (2, "", "error: group (4294967296, 15) uses point 4294967296 outside the point set\n"),
    "gdd-groups batched": (1, "4342531ae2d159a0cecaa34d30c4ce1c1fa0eebfb65f6f672030993550e1a217", ""),
    "gdd-groups batched-last-leading-zero": (2, "", "error: {path}:2590: not a block record\n"),
    "gdd-groups canonical": (0, "92eac27aecfd43adf46bdd5700febd6a6766efd8e92198f418eb7372a37101cc", ""),
    "gdd-groups crlf": (0, "92eac27aecfd43adf46bdd5700febd6a6766efd8e92198f418eb7372a37101cc", ""),
    "gdd-groups digit-after-the-brackets": (2, "", "error: {path}:1: not a block record\n"),
    "gdd-groups digit-before-a-later-brace": (2, "", "error: {path}:2: not a block record\n"),
    "gdd-groups digit-between-comma-and-space": (2, "", "error: {path}:1: not a block record\n"),
    "gdd-groups digit-moved-before-the-first-brace": (2, "", "error: {path}:1: not a block record\n"),
    "gdd-groups empty-point": (2, "", "error: {path}:1: not a block record\n"),
    "gdd-groups head-repeated": (2, "", "error: {path}:2: not a block record\n"),
    "gdd-groups last-digit-after-the-brackets": (2, "", "error: {path}:7: not a block record\n"),
    "gdd-groups last-point-2^32": (2, "", "error: group (4294967296, 15) uses point 4294967296 outside the point set\n"),
    "gdd-groups late-bad-byte-after-header-fault": (2, "", "error: {path}:2: block of family X, expected U\n"),
    "gdd-groups leading-zero": (2, "", "error: {path}:1: not a block record\n"),
    "gdd-groups negative-point": (2, "", "error: group (-2, 3) uses point -2 outside the point set\n"),
    "gdd-groups no-final-newline": (0, "92eac27aecfd43adf46bdd5700febd6a6766efd8e92198f418eb7372a37101cc", ""),
    "gdd-groups point-256": (2, "", "error: group (256, 3) uses point 256 outside the point set\n"),
    "gdd-groups point-2^32": (2, "", "error: group (4294967296, 3) uses point 4294967296 outside the point set\n"),
    "gdd-groups point-2^64": (2, "", "error: group (18446744073709551616, 3) uses point 18446744073709551616 outside the point set\n"),
    "gdd-groups reordered-keys": (0, "92eac27aecfd43adf46bdd5700febd6a6766efd8e92198f418eb7372a37101cc", ""),
    "gdd-groups second-batch-header-fault": (2, "", "error: {path}:1295: block lives in GF(2^99), expected GF(2^4)\n"),
    "gdd-groups trailing-spaces": (0, "92eac27aecfd43adf46bdd5700febd6a6766efd8e92198f418eb7372a37101cc", ""),
}


@pytest.mark.parametrize("edit", sorted(EDITS))
@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_ingest_of_edited_export_is_pinned(tmp_path, capsys, command, edit):
    expected = INGEST_OUTCOMES[f"{command} {edit}"]
    assert ingest_outcome(tmp_path, capsys, command, edit) == tuple(expected)


def _bad_byte_in_the_fault_batch(lines: list[str]) -> list[str]:
    """A header fault on line 2 and a byte that is not UTF-8 ~20 KB later:
    in the same 64 KiB batch, but in a later 8 KiB decode chunk."""
    lines = _batched(lines)
    lines[1] = _head_of(lines[1], m=99)
    n, size = 0, 0
    while size <= 20_000:
        size += len(lines[n])
        n += 1
    lines[n] = lines[n][:-1] + " \udce9\n"
    return lines


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_bad_byte_in_the_batch_of_a_header_fault_is_reported(tmp_path, capsys, monkeypatch, command):
    # A batch is decoded whole before any of its lines is checked, so the
    # byte refuses the file before the header fault on line 2 is seen.
    monkeypatch.setitem(EDITS, "bad-byte-in-the-fault-batch", _bad_byte_in_the_fault_batch)
    outcome = ingest_outcome(tmp_path, capsys, command, "bad-byte-in-the-fault-batch")
    assert outcome == (2, "", "error: {path}: not UTF-8 text\n")


def _per_line(path, *expect):
    """The blocks as read line by line: the file with a space added to
    every line, so that no batch is export's text."""
    spaced = path.with_name("spaced-" + path.name)
    spaced.write_text(path.read_text().replace("\n", " \n"))
    return cli._read_jsonl_blocks(str(spaced), *expect)


@pytest.mark.parametrize(
    "export,expect,kind",
    [
        (["--m", "4", "--k", "4"], (4, 4, "W", None), bytes),
        (["--m", "3", "--k", "3", "--family", "U", "--alpha", "1"], (4, 3, "U", 1), bytes),
        (["--m", "8", "--k", "3", "--family", "U", "--alpha", "257"], (9, 3, "U", 257), array),
    ],
    ids=["W", "U", "U-4-byte"],
)
def test_bulk_and_per_line_ingest_pack_the_same_points(tmp_path, export, expect, kind):
    exported = tmp_path / "e.jsonl"
    assert cli.main(["export", *export, "--out", str(exported)]) == 0
    bulk, per_line = cli._read_jsonl_blocks(str(exported), *expect), _per_line(exported, *expect)
    made = [p for line in exported.read_text().splitlines() for p in json.loads(line)["block"]]
    for packed in bulk, per_line:
        assert type(packed.points) is kind and packed.k == expect[1]
        assert list(packed.points) == made and len(packed) * packed.k == len(made) > 0


def _pack_sizes(monkeypatch) -> list[int]:
    """The number of points of each call to `cli._pack` from now on: k
    for a line read on its own, more for a batch read in bulk."""
    sizes, pack = [], cli._pack

    def counted(out, points):
        sizes.append(len(points))
        return pack(out, points)

    monkeypatch.setattr(cli, "_pack", counted)
    return sizes


@pytest.mark.parametrize(
    "export,expect,kind",
    [
        (["--m", "4", "--k", "4"], (4, 4, "W", None), bytes),
        (["--m", "8", "--k", "3", "--family", "U", "--alpha", "257"], (9, 3, "U", 257), array),
    ],
    ids=["W", "U-4-byte"],
)
def test_batches_read_line_by_line_then_in_bulk(tmp_path, monkeypatch, export, expect, kind):
    # A first batch that is not export's text (its lines are spaced), then
    # batches that are: each is read its own way into the one packing.
    exported = tmp_path / "e.jsonl"
    assert cli.main(["export", *export, "--out", str(exported)]) == 0
    text = exported.read_text()
    spaced = text.replace("\n", " \n")
    mixed = tmp_path / "mixed.jsonl"
    mixed.write_text(spaced * (70_000 // len(spaced) + 1) + text * (140_000 // len(text) + 1))
    sizes = _pack_sizes(monkeypatch)
    packed = cli._read_jsonl_blocks(str(mixed), *expect)
    made = [p for line in mixed.read_text().splitlines() for p in json.loads(line)["block"]]
    assert sizes[0] == expect[1] and sizes[-1] > expect[1]
    assert type(packed.points) is kind and packed.k == expect[1]
    assert list(packed.points) == made and len(packed) * packed.k == len(made)


@pytest.mark.parametrize(
    "chunks,kind",
    [
        ([[1, 2, 3, 4], [5, 6, 7, 8]], bytes),
        ([[1, 2, 3, 4], [5, 6, 7, 300]], array),
        ([[1, 2, 3, 4], [5, 300, 7, 8], [9, 10, 11, 1 << 32]], list),
        ([[1, 2, 3, 4], [-1, 6, 7, 8], [9, 10, 11, 300]], list),
        ([[1 << 64, 2, 3, 4], [5, 6, 7, 8]], list),
    ],
    ids=["byte", "then-300", "then-2^32", "negative", "2^64-first"],
)
def test_pack_widens_without_changing_earlier_points(chunks, kind):
    out = bytearray()
    for chunk in chunks:
        out = cli._pack(out, tuple(chunk))
    packed = cli._Packed(out, 4, len(chunks))
    assert type(packed.points) is kind and list(packed.points) == sum(chunks, [])


def test_valid_design_with_large_points_only_after_whole_batches(tmp_path, monkeypatch):
    # The export of m = 9, k = 3 reordered so that the 10,795 blocks
    # inside GF(2^8) come first: ~0.6 MB of batches whose every point fits
    # a byte, then the blocks holding a point past 255.
    exported = tmp_path / "w93.jsonl"
    assert cli.main(["export", "--m", "9", "--k", "3", "--out", str(exported)]) == 0
    lines = exported.read_text().splitlines(keepends=True)
    lines.sort(key=lambda line: max(json.loads(line)["block"]) > 255)
    assert sum(max(json.loads(line)["block"]) < 256 for line in lines) == 10_795
    exported.write_text("".join(lines))
    sizes = _pack_sizes(monkeypatch)
    packed = cli._read_jsonl_blocks(str(exported), 9, 3, "W", None)
    assert min(sizes) > 3  # every batch is read in bulk
    assert list(packed.points) == [p for line in lines for p in json.loads(line)["block"]]
    read = run_cli(["verify-bibd", "--m", "9", "--k", "3", "--blocks", str(exported)])
    live = run_cli(["verify-bibd", "--m", "9", "--k", "3"])
    assert read.returncode == live.returncode == 0
    assert read.stdout == live.stdout


def test_export_piped_into_ingest_is_read_once(tmp_path):
    # A pipe is read once, batch by batch, like a file: its first batch is
    # export's text, read in bulk, and its last line, which is not, is read
    # line by line; the report covers the whole file.
    exported = tmp_path / "w.jsonl"
    assert cli.main(["export", "--m", "5", "--k", "4", "--out", str(exported)]) == 0
    text = exported.read_text()
    edited = text + text.splitlines(keepends=True)[0].replace("\n", " \n")
    assert len(text) > 1 << 16
    argv = [sys.executable, "-m", "design_forge.cli", "verify-bibd", "--m", "5", "--k", "4",
            "--blocks", "/dev/stdin"]
    env = dict(os.environ, PYTHONPATH=SRC_DIR)
    piped = subprocess.run(argv, input=edited.encode(), capture_output=True, env=env)
    live = run_cli(["verify-bibd", "--m", "5", "--k", "4"])
    assert piped.returncode == 1 and piped.stderr == b""
    assert json.loads(piped.stdout)["b"] == json.loads(live.stdout)["b"] + 1
