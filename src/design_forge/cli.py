"""Command-line front end: enumerate families, verify designs, print exact
parameter tables, and cross-check enumeration against the recurrences.

Conventions:
  * --m is always the base exponent. Families that live in the lifted
    field (family U, verify-gdd, crosscheck --gdd) operate in
    GF(2^(m+1)) with --alpha taken from that larger field.
  * Blocks are exported as JSON Lines, one object per block, fields
    {"m", "k", "family", "alpha", "block"}; elements are decimal bitmask
    values. Parameter tables are RFC 4180 CSV with exact decimal integers.
  * Output payloads are deterministic: identical invocations produce
    byte-identical files. Timing lives in the stderr summary only, and
    nothing is written to --out until the work has finished, so a failed
    run leaves no partial file.

Exit codes: 0 success, 1 verification or cross-check mismatch, 2 usage or
range errors, 3 enumeration budget exhausted, 4 internal error (any other
exception; a bug or an environment limit, never a verdict on the design),
130 interrupted (KeyboardInterrupt).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import tempfile
import time

from . import blocks, designs, params
from .errors import (
    ArgumentError,
    BudgetExceededError,
    ContainmentError,
    FamilyError,
    InvalidShiftError,
    PartitionError,
    RangeError,
    ShapeError,
    StateError,
)
from .field import check_exponent

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4
EXIT_INTERRUPTED = 130

_USAGE_ERRORS = (
    ArgumentError,
    ContainmentError,
    FamilyError,
    InvalidShiftError,
    PartitionError,
    RangeError,
    ShapeError,
    StateError,
    OSError,
)


def _parse_span(text: str) -> tuple[int, int]:
    """Parse '4' or '3..7' into an inclusive (lo, hi) pair."""
    if ".." in text:
        lo_text, hi_text = text.split("..", 1)
    else:
        lo_text = hi_text = text
    try:
        lo, hi = int(lo_text), int(hi_text)
    except ValueError:
        raise ArgumentError(f"expected an int or 'a..b' range, got {text!r}") from None
    if lo > hi:
        raise ArgumentError(f"empty range {text!r}")
    return lo, hi


def _single(text: str, flag: str) -> int:
    lo, hi = _parse_span(text)
    if lo != hi:
        raise ArgumentError(f"{flag} takes a single value here, got range {text!r}")
    return lo


def _resolve_budget(args) -> int:
    if args.budget <= 0:
        raise ArgumentError(f"budget must be positive, got {args.budget}")
    return args.budget


def _write_output(text: str, out_path: str | None) -> None:
    """Print to stdout, or atomically replace the target file."""
    if out_path is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(out_path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".design-forge-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, out_path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _csv_text(rows: list[list[str]]) -> str:
    # RFC 4180: CRLF record separators, plain decimal integers.
    return "".join(",".join(row) + "\r\n" for row in rows)


# ---------------------------------------------------------------------------
# enumerate / export


def _enumerate_family(args, budget: int) -> blocks.BlockFamily:
    m = args.m_single
    k = _single(args.k, "--k")
    family = args.family
    if family == "W":
        return blocks.zero_sum_blocks(m, k, budget)
    if family == "Wpair":
        if args.i is None or args.j is None:
            raise ArgumentError("family Wpair needs --i and --j")
        return blocks.zero_sum_blocks_containing(m, k, args.i, args.j, budget)
    if family in ("I", "J", "L"):
        if args.alpha is None:
            raise ArgumentError(f"family {family} needs --alpha")
        fn = {
            "I": blocks.sum_to_shift_blocks,
            "J": blocks.sum_to_zero_blocks,
            "L": blocks.shift_invariant_blocks,
        }[family]
        return fn(m, k, args.alpha, budget)
    if family == "U":
        if args.alpha is None:
            raise ArgumentError("family U needs --alpha")
        if k == 2:
            return blocks.gdd_groups(m + 1, args.alpha)
        return blocks.gdd_blocks(m + 1, k, args.alpha, budget)
    raise ArgumentError(f"unknown family {family!r}")


def _jsonl_text(family: blocks.BlockFamily) -> str:
    lines = []
    for block in family.blocks:
        lines.append(
            json.dumps(
                {
                    "m": family.m,
                    "k": family.k,
                    "family": family.kind,
                    "alpha": family.alpha,
                    "block": list(block),
                }
            )
        )
    return "".join(line + "\n" for line in lines)


def cmd_enumerate(args) -> int:
    if args.command == "export" and args.out is None:
        raise ArgumentError("export needs --out; use enumerate to stream to stdout")
    budget = _resolve_budget(args)
    start = time.perf_counter()
    family = _enumerate_family(args, budget)
    elapsed = time.perf_counter() - start
    _write_output(_jsonl_text(family), args.out)
    print(
        f"enumerated {len(family)} blocks in {elapsed:.3f}s "
        f"(family={family.kind}, m={family.m}, k={family.k}, alpha={family.alpha})",
        file=sys.stderr,
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify


def _read_jsonl_blocks(
    path: str, expect_m: int, expect_k: int, expect_family: str, expect_alpha: int | None
) -> list[tuple[int, ...]]:
    """Re-ingest exported blocks; the engine accepts any well-formed design
    whose records name the expected field, block size, family and shift."""
    out = []
    with open(path, encoding="utf-8") as fh:
        for n, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
                block = tuple(obj["block"])
                if set(map(type, block)) - {int}:  # a float, string or bool
                    raise TypeError
            except (ValueError, KeyError, TypeError):
                raise ArgumentError(f"{path}:{n}: not a block record") from None
            if obj.get("m") != expect_m:
                raise ArgumentError(
                    f"{path}:{n}: block lives in GF(2^{obj.get('m')}), expected GF(2^{expect_m})"
                )
            if obj.get("k") != expect_k:
                raise ArgumentError(
                    f"{path}:{n}: block size {obj.get('k')}, expected {expect_k}"
                )
            if obj.get("family") != expect_family:
                raise ArgumentError(
                    f"{path}:{n}: block of family {obj.get('family')}, expected {expect_family}"
                )
            if obj.get("alpha") != expect_alpha:
                raise ArgumentError(
                    f"{path}:{n}: block made for alpha {obj.get('alpha')}, expected alpha {expect_alpha}"
                )
            out.append(block)
    return out


def _report_json(report: designs.DesignReport) -> str:
    return json.dumps(dataclasses.asdict(report)) + "\n"


def cmd_verify_bibd(args) -> int:
    m = args.m_single
    k = _single(args.k, "--k")
    points = range(1, 1 << m)
    if args.blocks_path:
        block_list = _read_jsonl_blocks(args.blocks_path, m, k, "W", None)
    else:
        block_list = blocks.zero_sum_blocks(m, k, _resolve_budget(args))
    report = designs.verify_bibd(points, block_list)
    _write_output(_report_json(report), args.out)
    return EXIT_OK if report.passed else EXIT_MISMATCH


def cmd_verify_gdd(args) -> int:
    m = args.m_single
    k = _single(args.k, "--k")
    if args.alpha is None:
        raise ArgumentError("verify-gdd needs --alpha (an element of GF(2^(m+1)))")
    ambient = m + 1
    alpha = args.alpha
    points = [x for x in range(1, 1 << ambient) if x != alpha]
    if args.groups_path:
        group_list = _read_jsonl_blocks(args.groups_path, ambient, 2, "U", alpha)
    else:
        group_list = blocks.gdd_groups(ambient, alpha)
    if args.blocks_path:
        block_list = _read_jsonl_blocks(args.blocks_path, ambient, k, "U", alpha)
    else:
        block_list = blocks.gdd_blocks(ambient, k, alpha, _resolve_budget(args))
    report = designs.verify_gdd(points, group_list, block_list)
    _write_output(_report_json(report), args.out)
    return EXIT_OK if report.passed else EXIT_MISMATCH


# ---------------------------------------------------------------------------
# params


def _param_rows(m: int) -> list[list[str]]:
    table = params.param_table(m)
    closed = params.closed_forms(m)
    top = (1 << m) - 3
    rows = [
        [
            "k",
            "b_k",
            "r_k",
            "lambda_k",
            "lambda_prime_k",
            "closed_lambda_k",
            "reference_lambda_prime_k",
        ]
    ]
    for k in range(2, top + 1):
        row = table.rows[k]
        closed_cell = str(closed[k][0]) if k in closed else ""
        reference_cell = (
            str(params.reference_gdd_balance(m, k)) if 3 <= k <= 7 else ""
        )
        rows.append(
            [
                str(k),
                str(row.blocks),
                str(row.replication),
                str(row.balance),
                str(row.gdd_balance),
                closed_cell,
                reference_cell,
            ]
        )
    return rows


def cmd_params(args) -> int:
    # b_k has ~0.3 * 2^m digits, past Python's int-to-str limit from m = 14.
    # The limit guards parsing outside text, which params does not do after
    # argparse, so it is lifted only while the table is formatted.
    if not hasattr(sys, "set_int_max_str_digits"):  # this Python has no limit
        rows = _param_rows(args.m_single)
    else:
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            rows = _param_rows(args.m_single)
        finally:
            sys.set_int_max_str_digits(limit)
    _write_output(_csv_text(rows), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# crosscheck


def cmd_crosscheck(args) -> int:
    budget = _resolve_budget(args)
    m_lo, m_hi = _parse_span(args.m)
    check_exponent(m_lo)
    check_exponent(m_hi)
    k_lo, k_hi = _parse_span(args.k)
    # Each m runs the sizes of --k that exist for it, 3..2^m - 4.
    if k_hi < 3 or k_lo > (1 << m_hi) - 4:
        raise ArgumentError(
            f"--k {args.k} selects no block size in 3..{(1 << m_hi) - 4} for --m {args.m}"
        )
    out_rows = [
        [
            "m",
            "k",
            "check",
            "observed_blocks",
            "expected_blocks",
            "observed_lambda",
            "expected_lambda",
            "ok",
        ]
    ]
    mismatches: list[list[str]] = []

    def record(m, k, check, ob, eb, ol, el):
        blocks_ok = str(ob) == str(eb)
        lambda_ok = str(ol) == str(el)
        out_rows.append(
            [str(m), str(k), check, str(ob), str(eb), str(ol), str(el),
             "yes" if blocks_ok and lambda_ok else "no"]
        )
        if not blocks_ok:
            mismatches.append([str(m), str(k), check, "blocks", str(ob), str(eb)])
        if not lambda_ok:
            mismatches.append([str(m), str(k), check, "lambda", str(ol), str(el)])

    for m in range(m_lo, m_hi + 1):
        table = params.param_table(m)
        top = (1 << m) - 4
        for k in range(max(k_lo, 3), min(k_hi, top) + 1):
            family = blocks.zero_sum_blocks(m, k, budget)
            report = designs.verify_bibd(range(1, 1 << m), family)
            observed_lambda = (
                next(iter(report.lambda_histogram)) if report.passed else "unbalanced"
            )
            record(
                m, k, "bibd",
                len(family), table.rows[k].blocks,
                observed_lambda, table.rows[k].balance,
            )
            if args.gdd:
                ambient = m + 1
                observed = set()
                total_blocks = 0
                for alpha in range(1, 1 << ambient):
                    fam = blocks.gdd_blocks(ambient, k, alpha, budget)
                    total_blocks += len(fam)
                    rep = designs.verify_gdd(
                        [x for x in range(1, 1 << ambient) if x != alpha],
                        blocks.gdd_groups(ambient, alpha),
                        fam,
                    )
                    observed.add(
                        rep.cross_group_lambda if rep.passed else "unbalanced"
                    )
                observed_text = "|".join(str(o) for o in sorted(observed, key=str))
                # The recurrence implies a block count: every one of the
                # cross-group pairs is covered lambda' times, each block
                # covering C(k, 2) of them, summed over all shifts.
                points = (1 << ambient) - 2
                cross_pairs = points * (points - 1) // 2 - ((1 << m) - 1)
                numerator = ((1 << ambient) - 1) * table.rows[k].gdd_balance * cross_pairs
                denominator = k * (k - 1) // 2
                expected_blocks = (
                    numerator // denominator
                    if numerator % denominator == 0
                    else f"{numerator}/{denominator}"
                )
                record(
                    m, k, "gdd",
                    total_blocks, expected_blocks,
                    observed_text, str(table.rows[k].gdd_balance),
                )
    _write_output(_csv_text(out_rows), args.out)
    if mismatches:
        header = [["m", "k", "check", "field", "observed", "expected"]]
        sys.stderr.write(_csv_text(header + mismatches))
        return EXIT_MISMATCH
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser / dispatch


def _add_common(sub, *, k_flag=True, alpha=False, budget=True, out=True):
    sub.add_argument("--m", required=True, help="base field exponent (or a..b for crosscheck)")
    if k_flag:
        sub.add_argument("--k", required=True, help="block size (or a..b range)")
    if alpha:
        sub.add_argument("--alpha", type=int, help="coset-defining shift")
    if budget:
        sub.add_argument("--budget", type=int, default=blocks.DEFAULT_NODE_BUDGET, help="enumeration node budget (default %(default)s)")
    if out:
        sub.add_argument("--out", help="write output to this file instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="design-forge",
        description=(
            "Enumerate, verify, and cross-check pair-balanced block designs "
            "built from zero-XOR-sum subsets of binary fields."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, brief in (
        ("enumerate", "enumerate a block family as JSON lines"),
        ("export", "enumerate a block family into a file (--out required)"),
    ):
        p = sub.add_parser(name, help=brief)
        _add_common(p, alpha=True)
        p.add_argument(
            "--family",
            choices=blocks.FAMILY_KINDS,
            default="W",
            help="family U lives in GF(2^(m+1)); --k 2 with U yields the groups",
        )
        p.add_argument("--i", type=int, help="first required element (family Wpair)")
        p.add_argument("--j", type=int, help="second required element (family Wpair)")
        p.set_defaults(handler=cmd_enumerate)

    p = sub.add_parser("verify-bibd", help="pair-balance check for the zero-sum family")
    _add_common(p)
    p.add_argument("--blocks", dest="blocks_path", help="verify these exported blocks instead of enumerating")
    p.set_defaults(handler=cmd_verify_bibd)

    p = sub.add_parser("verify-gdd", help="grouped balance check in GF(2^(m+1))")
    _add_common(p, alpha=True)
    p.add_argument("--blocks", dest="blocks_path", help="verify these exported blocks instead of enumerating")
    p.add_argument("--groups", dest="groups_path", help="read groups from this export instead of deriving them")
    p.set_defaults(handler=cmd_verify_gdd)

    p = sub.add_parser("params", help="exact parameter table (recurrences only) as CSV")
    _add_common(p, k_flag=False, budget=False)
    p.set_defaults(handler=cmd_params)

    p = sub.add_parser(
        "crosscheck",
        help="enumerate and re-derive every parameter, exit 1 on any mismatch",
    )
    _add_common(p)
    p.add_argument(
        "--gdd",
        action="store_true",
        help="also verify the lifted designs in GF(2^(m+1)) for every nonzero alpha",
    )
    p.set_defaults(handler=cmd_crosscheck)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed the usage message
        return EXIT_USAGE if exc.code else EXIT_OK
    if hasattr(args, "m"):
        try:
            args.m_single = (
                _single(args.m, "--m") if args.command != "crosscheck" else None
            )
        except _USAGE_ERRORS as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
    try:
        return args.handler(args)
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        detail = " ".join(str(exc).split())
        print(f"error: internal: {type(exc).__name__}: {detail}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
