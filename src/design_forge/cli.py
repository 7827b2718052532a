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

Exit codes: 0 success, 1 verification or cross-check mismatch, 2 refused
input (an `errors.InputError`, or an OSError), 3 enumeration budget
exhausted, 4 internal error (any other exception; a bug or an environment
limit, never a verdict on the design), 130 interrupted (KeyboardInterrupt).
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from array import array
from itertools import chain, islice

# The routes (blocks, designs, params), json, dataclasses and tempfile are imported
# by the helpers that use them: a command loads only what it runs, --help none.
from .errors import ArgumentError, BudgetExceededError, InputError
from .field import DEFAULT_NODE_BUDGET, FAMILY_KINDS, MAX_AMBIENT_EXPONENT, MIN_EXPONENT, check_exponent, check_shift

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4
EXIT_INTERRUPTED = 130

# Points per chunk of export's text.
_CHUNK_POINTS = 1 << 14


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


class _Text:
    """Output text made piece by piece while it is written, so the whole
    text is never held at once. len() counts the characters made so far,
    which is the length of the text once it has been written."""

    __slots__ = ("pieces", "length")

    def __init__(self, pieces):
        self.pieces = pieces
        self.length = 0

    def __iter__(self):
        for piece in self.pieces:
            self.length += len(piece)
            yield piece

    def __len__(self) -> int:
        return self.length


def _write_output(text, out_path: str | None) -> None:
    """Print a str or a `_Text` to stdout, or atomically replace the file
    `out_path` (resolved by `main`) with it via a temporary file beside it."""
    pieces = (text,) if isinstance(text, str) else text
    if out_path is None:
        sys.stdout.writelines(pieces)
        return
    import tempfile
    # A replaced file keeps its mode; a new one gets what open() would give it.
    os.umask(umask := os.umask(0))
    mode = os.stat(out_path).st_mode & 0o7777 if os.path.exists(out_path) else 0o666 & ~umask
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(out_path), prefix=".design-forge-")
    try:
        os.chmod(tmp, mode)
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(pieces)
        os.replace(tmp, out_path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _csv_text(rows) -> _Text:
    # RFC 4180: CRLF record separators, plain decimal integers.
    return _Text(",".join(row) + "\r\n" for row in rows)


# ---------------------------------------------------------------------------
# enumerate / export


def _enumerate_family(args) -> blocks.BlockFamily:
    from . import blocks
    m, k, budget = args.m_single, _single(args.k, "--k"), args.budget
    family = args.family
    if family == "W":
        return blocks.zero_sum_blocks(m, k, budget)
    if family == "Wpair":
        if args.i is None or args.j is None:
            raise ArgumentError("family Wpair needs --i and --j")
        return blocks.zero_sum_blocks_containing(m, k, args.i, args.j, budget)
    if args.alpha is None:  # I, J, L and U, the rest of argparse's choices
        raise ArgumentError(f"family {family} needs --alpha")
    if family == "U":
        if k == 2:
            return blocks.gdd_groups(m + 1, args.alpha)
        return blocks.gdd_blocks(m + 1, k, args.alpha, budget)
    fn = {
        "I": blocks.sum_to_shift_blocks,
        "J": blocks.sum_to_zero_blocks,
        "L": blocks.shift_invariant_blocks,
    }[family]
    return fn(m, k, args.alpha, budget)


def _record_head(m: int, k: int, family: str, alpha: int | None) -> str:
    """A block record's text up to its first point, through the "["."""
    import json
    return json.dumps({"m": m, "k": k, "family": family, "alpha": alpha, "block": []})[:-2]


def _jsonl_text(family: blocks.BlockFamily) -> _Text:
    """The family's records, a chunk of ~16 K points per str.join, which
    puts each point's string (from a table of the field's points, made
    once) after the separator before it."""
    k, points = family.k, family.points
    head = _record_head(family.m, k, family.kind, family.alpha)
    text_of = list(map(str, range(1 << family.m))).__getitem__
    places = ["]}\n" + head, None] + [", ", None] * (k - 1)  # a block's separators and points
    step = max(1, _CHUNK_POINTS // k) * k

    def chunk(start: int) -> str:
        out = places * (min(step, len(points) - start) // k)
        out[1::2], out[0] = map(text_of, points[start : start + step]), head
        return "".join(out) + "]}\n"

    return _Text(map(chunk, range(0, len(points), step)))


def cmd_enumerate(args) -> int:
    if args.command == "export" and args.out is None:
        raise ArgumentError("export needs --out; use enumerate to stream to stdout")
    start = time.perf_counter()
    family = _enumerate_family(args)
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


def _differs(got, expected) -> bool:
    """A header field is refused unless it has the expected value and type:
    3.0 is not 3, and true is not 1."""
    return got != expected or type(got) is not type(expected)


class _Packed:
    """Ingested blocks or groups: `points` holds the k points of each of
    the n items in turn: bytes, an array("I") or a list, as `_pack` left
    them. The verifier reads them one column at a time, as a family's.
    (A plain class: a dataclass would add ~1 ms to every start of the cli.)"""

    __slots__ = ("points", "k", "n")

    def __init__(self, points, k: int, n: int):
        self.points = bytes(points) if type(points) is bytearray else points
        self.k, self.n = k, n

    def __len__(self) -> int:
        return self.n

    def column(self, j: int):
        """Point j of every item in turn."""
        return self.points[j :: self.k]


def _pack(out, points):
    """out with points appended, widened as they need it: a bytearray while
    every point fits a byte, then an array("I"), then a list (a point below
    0 or past 2^32 - 1). Each step appends all of points or none of them."""
    if type(out) is bytearray:
        try:
            out += bytes(points)
            return out
        except ValueError:
            out = array("I", iter(out))  # array("I", out) would read out's raw bytes
    if type(out) is array:
        try:
            out += array("I", points)
            return out
        except OverflowError:
            out = out.tolist()
    out += points
    return out


def _bulk_points(batch: str, lines: int, head: str, k: int):
    """The points of a batch of lines if it is exactly export's text for
    records that open with `head`, else None. Of its three checks the first
    cannot be dropped: a digit of the head moved before the "{" passes the
    other two."""
    import json
    if not batch.startswith(head):
        return None
    digits = str.maketrans("", "", "0123456789")
    skeleton, plain = head.translate(digits), batch.translate(digits)
    # Lengths first: at a k past any batch's length no record is made.
    if len(plain) != lines * (len(skeleton) + 2 * k + 1):
        return None
    if plain != (skeleton + ", " * (k - 1) + "]}\n") * lines:
        return None
    try:  # a joint other than "]}\n" + head leaves a "]" that ends the array
        return json.loads("[" + batch[len(head) : -3].replace("]}\n" + head, ", ") + "]")
    except ValueError:
        return None


def _read_jsonl_blocks(
    path: str, expect_m: int, expect_k: int, expect_family: str, expect_alpha: int | None
) -> _Packed:
    """Re-ingest exported blocks; the engine accepts any well-formed design
    whose records name the expected field, block size, family and shift.

    The file is read once, in ~64 KiB batches of lines, and packed as it
    is read. A batch whose text is exactly what export writes for these
    fields is read in bulk by `_bulk_points`. Any other batch is checked
    line by line.
    """
    import json
    head = _record_head(expect_m, expect_k, expect_family, expect_alpha)
    out, n, count = bytearray(), 0, 0
    try:
        with open(path, encoding="utf-8") as fh:
            while lines := fh.readlines(1 << 16):
                if (points := _bulk_points("".join(lines), len(lines), head, expect_k)) is not None:
                    out = _pack(out, points)
                    n += len(lines)
                    count += len(lines)
                    continue
                for line in lines:
                    n += 1
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
                    if _differs(obj.get("m"), expect_m):
                        raise ArgumentError(
                            f"{path}:{n}: block lives in GF(2^{obj.get('m')}), expected GF(2^{expect_m})"
                        )
                    if _differs(obj.get("k"), expect_k):
                        raise ArgumentError(
                            f"{path}:{n}: block size {obj.get('k')}, expected {expect_k}"
                        )
                    if len(block) != expect_k:
                        raise ArgumentError(f"{path}:{n}: block of {len(block)} points, expected {expect_k}")
                    if obj.get("family") != expect_family:
                        raise ArgumentError(
                            f"{path}:{n}: block of family {obj.get('family')}, expected {expect_family}"
                        )
                    if _differs(obj.get("alpha"), expect_alpha):
                        raise ArgumentError(
                            f"{path}:{n}: block made for alpha {obj.get('alpha')}, expected alpha {expect_alpha}"
                        )
                    out = _pack(out, block)
                    count += 1
    except UnicodeDecodeError:
        raise ArgumentError(f"{path}: not UTF-8 text") from None
    return _Packed(out, expect_k, count)


def _report_json(report: designs.DesignReport) -> str:
    import dataclasses
    import json
    return json.dumps(dataclasses.asdict(report)) + "\n"


def _bibd_report(m: int, k: int, budget: int, blocks_path=None):
    """The zero-sum design of GF(2^m), enumerated or read, and its report."""
    from . import designs
    check_exponent(m)
    if blocks_path:
        block_list = _read_jsonl_blocks(blocks_path, m, k, "W", None)
    else:
        from . import blocks
        block_list = blocks.zero_sum_blocks(m, k, budget)
    return block_list, designs.verify_bibd(range(1, 1 << m), block_list)


def _gdd_report(m: int, k: int, alpha: int, budget: int, blocks_path=None, groups_path=None, base=None):
    """The report on the design lifted to GF(2^(m+1)) for alpha: its groups,
    then its blocks, each derived (the lift of `base`, or of the zero-sum
    family searched here if no base is given, swept a chunk at a time as
    the lift makes them) or read."""
    if not (blocks_path and groups_path):  # a family is made, not only read
        from . import blocks
    from . import designs
    ambient = m + 1
    check_exponent(ambient, lo=MIN_EXPONENT + 1, hi=MAX_AMBIENT_EXPONENT)
    check_shift(alpha, ambient)
    points = [x for x in range(1, 1 << ambient) if x != alpha]
    if groups_path:
        group_list = _read_jsonl_blocks(groups_path, ambient, 2, "U", alpha)
    else:
        group_list = blocks.gdd_groups(ambient, alpha)
    if blocks_path:
        block_list = _read_jsonl_blocks(blocks_path, ambient, k, "U", alpha)
    else:
        block_list = blocks.lift_chunks(blocks.zero_sum_blocks(m, k, budget) if base is None else base, alpha, budget)
    return designs.verify_gdd(points, group_list, block_list)


def cmd_verify_bibd(args) -> int:
    k = _single(args.k, "--k")
    _, report = _bibd_report(args.m_single, k, args.budget, args.blocks_path)
    _write_output(_report_json(report), args.out)
    return EXIT_OK if report.passed else EXIT_MISMATCH


def cmd_verify_gdd(args) -> int:
    k = _single(args.k, "--k")
    if args.alpha is None:
        raise ArgumentError("verify-gdd needs --alpha (an element of GF(2^(m+1)))")
    report = _gdd_report(
        args.m_single, k, args.alpha, args.budget, args.blocks_path, args.groups_path
    )
    _write_output(_report_json(report), args.out)
    return EXIT_OK if report.passed else EXIT_MISMATCH


# ---------------------------------------------------------------------------
# params


def _param_rows(m: int, rows):
    """The table's CSV rows, each formatted as it is written."""
    from . import params
    header = [
        "k",
        "b_k",
        "r_k",
        "lambda_k",
        "lambda_prime_k",
        "closed_lambda_k",
        "reference_lambda_prime_k",
    ]
    closed_top = min(7, (1 << m) - 4)  # the table's closed_lambda_k cells

    def row(values) -> list[str]:
        k = values[0]
        closed_cell = str(params.closed_form_balance(m, k)) if 3 <= k <= closed_top else ""
        reference_cell = (
            str(params.reference_gdd_balance(m, k)) if 3 <= k <= 7 else ""
        )
        return [*map(str, values), closed_cell, reference_cell]

    return chain([header], map(row, rows))


def cmd_params(args) -> int:
    # The rows are stepped in exact decimals because a Decimal's str() is
    # linear in its digits, where str(int) is quadratic. The context holds
    # every value exactly, and a value it would have to round raises
    # (exit 4) instead of being printed. The rows are made and formatted
    # inside it, so the caller's context is never changed.
    import decimal
    from . import params

    m = args.m_single
    check_exponent(m)
    top = (1 << m) - 3
    lo, hi = (2, top) if args.k is None else _parse_span(args.k)
    if lo < 2 or hi > top:
        raise ArgumentError(f"--k {args.k} is outside 2..{top} for --m {m}")
    exact = decimal.Context(
        prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN,
        traps=[decimal.InvalidOperation, decimal.DivisionByZero, decimal.Overflow,
               decimal.Inexact, decimal.Rounded],
    )
    with decimal.localcontext(exact):
        rows = islice(params.parameter_rows(m, decimal.Decimal(1)), lo - 2, hi - 1)
        _write_output(_csv_text(_param_rows(m, rows)), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# crosscheck


def cmd_crosscheck(args) -> int:
    from . import designs, params
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

    def record(m, k, check, ob, eb, ol, el, *more):
        # `more`: (field, observed, expected) checked without a column.
        bad = [
            [str(m), str(k), check, name, str(o), str(e)]
            for name, o, e in (("blocks", ob, eb), ("lambda", ol, el), *more)
            if str(o) != str(e)
        ]
        out_rows.append(
            [str(m), str(k), check, str(ob), str(eb), str(ol), str(el), "no" if bad else "yes"]
        )
        mismatches.extend(bad)

    for m in range(m_lo, m_hi + 1):
        lo, hi = max(k_lo, 3), min(k_hi, (1 << m) - 4)
        rows = islice(params.parameter_rows(m), lo - 2, hi - 1)
        for k in range(lo, hi + 1):
            base, report = _bibd_report(m, k, args.budget)
            # Row k is made only once k's search has fit its budget, and the
            # rows past --k never are: row k takes O(k) steps of the recurrences.
            _, b_k, r_k, lam_k, lp_k = next(rows)
            if report.passed:
                _, b, r, lam = designs.observed_params(report)
            else:
                b, r, lam = report.b, "unbalanced", "unbalanced"
            closed = params.closed_form_balance(m, k)  # a second route to lambda_k
            record(m, k, "bibd", b, b_k, lam, lam_k, ("replication", r, r_k), ("closed_lambda", closed, lam_k))
            if args.gdd:
                reports = [_gdd_report(m, k, a, args.budget, base=base) for a in range(1, 2 << m)]
                observed = {x.cross_group_lambda if x.passed else "unbalanced" for x in reports}
                # The recurrence implies a block count: every one of the
                # cross-group pairs is covered lambda' times, each block
                # covering C(k, 2) of them, summed over all shifts. A passing
                # report's b and r follow from its lambda the same way, so
                # lambda' checks them too.
                points = (2 << m) - 2
                cross_pairs = points * (points - 1) // 2 - ((1 << m) - 1)
                numerator = ((2 << m) - 1) * lp_k * cross_pairs
                denominator = k * (k - 1) // 2
                quotient, rest = divmod(numerator, denominator)
                expected_blocks = f"{numerator}/{denominator}" if rest else quotient
                record(
                    m, k, "gdd",
                    sum(x.b for x in reports), expected_blocks,
                    "|".join(sorted(map(str, observed))), str(lp_k),
                )
    _write_output(_csv_text(out_rows), args.out)
    if mismatches:
        header = [["m", "k", "check", "field", "observed", "expected"]]
        sys.stderr.writelines(_csv_text(header + mismatches))
        return EXIT_MISMATCH
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser / dispatch


def _add_common(sub, *, k_flag=True, alpha=False, budget=True):
    sub.add_argument("--m", required=True, help="base field exponent (or a..b for crosscheck)")
    if k_flag:
        sub.add_argument("--k", required=True, help="block size (or a..b range)")
    if alpha:
        sub.add_argument("--alpha", type=int, help="coset-defining shift")
    if budget:
        sub.add_argument("--budget", type=int, default=DEFAULT_NODE_BUDGET, help="enumeration node budget (default %(default)s)")
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
            choices=FAMILY_KINDS,
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
    p.add_argument("--k", help="print only the rows of these block sizes (an int or a..b range)")
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
    try:
        args.m_single = _single(args.m, "--m") if args.command != "crosscheck" else None
        if getattr(args, "budget", 1) <= 0:
            raise ArgumentError(f"budget must be positive, got {args.budget}")
        if args.out is not None:  # refused now, not after the work
            target = os.path.realpath(args.out)  # a link is kept and its target replaced
            if os.path.isdir(target):
                raise ArgumentError(f"--out {args.out} is a directory")
            if not os.path.isdir(os.path.dirname(target)):
                raise ArgumentError(f"--out {args.out} is in a directory that does not exist")
            # A FIFO or a device, as the name is opened, or a link that never resolves.
            if os.path.exists(args.out) and not os.path.isfile(args.out) or os.path.islink(target):
                raise ArgumentError(f"--out {args.out} is not a regular file")
            args.out = target
        return args.handler(args)
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        detail = " ".join(str(exc).split())
        print(f"error: internal: {type(exc).__name__}: {detail}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
