"""Run one design-forge CLI invocation with a span around every layer call.

Usage, from the repository root with ``src`` on PYTHONPATH:

    python3 perfbench/traced.py SPANS_OUT OP_ID ARGV...

The script wraps, by module attribute, the public block enumerators,
``BlockFamily.__post_init__`` (family re-validation), the verifiers, the
recurrences, the cli command handlers and the cli serialisers, then calls
``design_forge.cli.main(ARGV)``. Spans (label, function, start, end,
parent, op id) are kept in memory and written to SPANS_OUT as JSON once
``main`` returns, each with its self time: its duration minus the part
covered by its child spans.

Per-node and per-block callables (``_Budget.spend``, family predicates)
are never wrapped, so tracing costs a constant per layer call and nothing
per search node. Search nodes are read from the budget object each
enumeration creates. A wrapped name that no longer exists is listed as
missing in SPANS_OUT instead of failing the run. The exit code is main's.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from math import comb

# Span label -> the (module, attribute path) pairs wrapped under it. The
# labels are the trace's layers; run.py turns them into per-layer metrics.
TARGETS = {
    "blocks.enum": [
        ("blocks", name)
        for name in (
            "zero_sum_blocks",
            "zero_sum_blocks_containing",
            "sum_to_shift_blocks",
            "sum_to_zero_blocks",
            "shift_invariant_blocks",
            "gdd_blocks",
            "gdd_groups",
        )
    ],
    "blocks.validate": [("blocks", "BlockFamily.__post_init__")],
    "designs.sweep": [("designs", "verify_bibd"), ("designs", "verify_gdd")],
    "params.table": [
        ("params", "param_table"),
        ("params", "closed_forms"),
        ("params", "reference_gdd_balance"),
    ],
    "params.weights": [("params", "hamming_weight_counts")],
    "params.replication": [("params", "replication_numbers")],
    "params.balance": [("params", "balance_parameters")],
    "params.gdd_balance": [("params", "gdd_balance_parameters")],
    "cli.command": [
        ("cli", name)
        for name in (
            "cmd_enumerate",
            "cmd_verify_bibd",
            "cmd_verify_gdd",
            "cmd_params",
            "cmd_crosscheck",
        )
    ],
    "cli.jsonl_encode": [("cli", "_jsonl_text")],
    "cli.jsonl_decode": [("cli", "_read_jsonl_blocks")],
    "cli.csv_encode": [("cli", "_csv_text")],
    "cli.write": [("cli", "_write_output")],
}
# Every enumeration creates one of these; it carries the nodes spent.
BUDGET_LABEL = "blocks.budget"
BUDGET_TARGET = ("blocks", "_Budget")


def _enum_counts(args, result, new_budgets) -> dict:
    return {
        "blocks": len(result) if result is not None else 0,
        "nodes": sum(b.limit - b.remaining for b in new_budgets),
    }


def _sweep_counts(args, result, new_budgets) -> dict:
    # Computed, not counted: the sweep adds C(k, 2) increments per block.
    if result is None:
        return {"pair_incs": 0}
    return {"pair_incs": result.b * comb(result.k, 2)}


def _write_counts(args, result, new_budgets) -> dict:
    # The cli writes ASCII only, so characters are bytes.
    return {"bytes": len(args[0])}


COUNTERS = {
    "blocks.enum": _enum_counts,
    "designs.sweep": _sweep_counts,
    "cli.write": _write_counts,
}


class Tracer:
    """Span recorder for one process. Spans are lists
    [label, name, start, end, parent index, counts]."""

    def __init__(self, op_id: str):
        self.op_id = op_id
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.budgets: list = []
        self.missing: list[str] = []

    def wrap(self, label: str, name: str, fn):
        spans, stack, budgets = self.spans, self.stack, self.budgets
        counter = COUNTERS.get(label)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [label, name, 0.0, 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(idx)
            mark = len(budgets)
            result = None
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                span[3] = clock()
                stack.pop()
                if counter is not None:
                    span[5] = counter(args, result, budgets[mark:])

        return traced

    def install(self, modules: dict) -> None:
        for label, targets in TARGETS.items():
            for module_name, path in targets:
                owner, attr = _resolve(modules[module_name], path)
                if owner is None:
                    self.missing.append(f"{module_name}.{path}")
                    continue
                setattr(owner, attr, self.wrap(label, f"{module_name}.{path}", getattr(owner, attr)))
        owner, attr = _resolve(modules[BUDGET_TARGET[0]], BUDGET_TARGET[1])
        if owner is None:
            self.missing.append(".".join(BUDGET_TARGET))
            return
        budgets = self.budgets
        base = getattr(owner, attr)

        # Subclassing leaves spend() untouched: the per-node path is not wrapped.
        class CountedBudget(base):
            __slots__ = ()

            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                budgets.append(self)

        setattr(owner, attr, CountedBudget)

    def records(self) -> list[dict]:
        """Spans with self time, and whether an ancestor has the same label."""
        covered = [0.0] * len(self.spans)
        for _, _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out = []
        for idx, (label, name, start, end, parent, counts) in enumerate(self.spans):
            outer = True
            up = parent
            while up >= 0:
                if self.spans[up][0] == label:
                    outer = False
                    break
                up = self.spans[up][4]
            out.append(
                {
                    "label": label,
                    "name": name,
                    "start": start,
                    "end": end,
                    "parent": parent,
                    "op": self.op_id,
                    "self": end - start - covered[idx],
                    "outer": outer,
                    **(counts or {}),
                }
            )
        return out


def _resolve(module, path: str):
    """(owner, attribute) for a dotted path under module, or (None, None)."""
    owner = module
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, None
    if not hasattr(owner, attr):
        return None, None
    return owner, attr


def main(argv: list[str]) -> int:
    spans_path, op_id, cli_argv = argv[0], argv[1], argv[2:]
    from design_forge import blocks, cli, designs, params

    tracer = Tracer(op_id)
    tracer.install({"blocks": blocks, "cli": cli, "designs": designs, "params": params})
    try:
        return cli.main(cli_argv)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"spans": tracer.records(), "missing": tracer.missing}, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
