"""Command-line interface.

    leakbound validate NET.json
    leakbound measures NET.json --node Y1
    leakbound bound NET.json --targets Y1,Y2 [--source X]
                    [--method recursive|coupling|doeblin] [--compare-exact]
                    [--csv OUT.csv]
    leakbound couple PMFS.json --mode lp|n4|simul [--diag]
    leakbound sweep NET.json --param d --range 0:1/2:1/8 --targets Y2
                    [--source X] [--out OUT.csv]

Exit codes: 0 success, 1 usage, validation or precondition failure, 2
capacity refused, 3 I/O failure. Rationals print as num/den; logarithms with 12
significant digits.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import sys
from math import prod
from typing import NamedTuple

from . import bayesnet, bounds, netfile
from .couplings import (
    n4_condition,
    n4_mixture,
    union_mass,
    verify_intersection_property,
)
from .errors import (
    DEFAULT_MAX_STATES,
    CapacityError,
    LeakboundError,
    NetworkFormatError,
    output_str,
)
from .lp import min_union_coupling, min_union_coupling_diag
from .measures import (
    DiscreteChannel,
    JointPmf,
    format_fraction,
    log_fraction,
    tau_max,
    tau_max2,
)
from .simultaneous import build_simultaneous_coupling, f_quantity, y_union_mass

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_CAPACITY = 2
EXIT_IO = 3

REPORT_COLUMNS = [
    "node",
    "tau",
    "tau_max",
    "tau_max2",
    "bound_method",
    "bound_value",
    "exact_value",
    "gap",
    "preconditions",
]
BLANK_ROW = dict.fromkeys(REPORT_COLUMNS, "")


class Bound(NamedTuple):
    """One bound's names: its ``BoundReport`` field, its text label, its
    CSV ``bound_method`` and its ``sweep`` column."""

    field: str
    label: str
    method: str
    column: str

    def value(self, report: bounds.BoundReport):
        return getattr(report, self.field)


BOUNDS = (
    Bound("coupling_bound_value", "coupling bound", "coupling", "coupling_bound"),
    Bound("doeblin_bound_value", "doeblin bound", "doeblin", "doeblin_bound"),
    Bound("subadditivity_value", "subadditivity", "subadditivity", "baseline"),
)


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _load_net(text: str, source: str | None, bindings: dict | None = None):
    """Parse, re-root and validate one network document; validation
    problems name the parameter bindings they arise under."""
    net = netfile.parse_network(text, bindings=bindings)
    if source is not None:
        if source not in net.by_id:
            raise NetworkFormatError(f"--source {source!r} is not a node")
        net = net.with_source(source)
    problems = bayesnet.validate(net)
    if problems:
        where = "".join(f"{k}={v}: " for k, v in (bindings or {}).items())
        raise NetworkFormatError(where + "; ".join(problems))
    return net


def _fmt_log(value: float) -> str:
    return f"{value:.12g}"


def cmd_validate(args) -> int:
    try:
        net = netfile.parse_network(_read(args.path))
    except NetworkFormatError as err:
        print(f"parse error: {err}")
        return EXIT_INVALID
    problems = bayesnet.validate(net)
    if problems:
        for p in problems:
            print(p)
        return EXIT_INVALID
    print(f"ok: {len(net.nodes)} nodes, source {net.source}")
    return EXIT_OK


def cmd_measures(args) -> int:
    net = _load_net(_read(args.path), None)
    if args.node not in net.by_id:
        print(f"unknown node {args.node!r}")
        return EXIT_INVALID
    if args.node == net.source:
        print("the source node carries no distribution")
        return EXIT_INVALID
    channel, ms = net.cpt(args.node), net.measures(args.node)
    tau2 = "undefined (single row)" if ms.tau_max2 is None else format_fraction(ms.tau_max2)
    lines = [
        f"node {args.node} ({channel.n} rows, {len(channel.output_alphabet)} outputs)",
        f"tau       = {format_fraction(ms.tau)}",
        f"tau_max   = {format_fraction(ms.tau_max)}",
        f"tau_max2  = {tau2}",
        f"leakage   = {_fmt_log(ms.leakage_log)}",
    ]
    print("\n".join(lines))
    return EXIT_OK


def _measure_rows(net) -> list[dict]:
    rows = []
    for node in net.nodes:
        if node.node_id == net.source or node.rows is None:
            continue
        ms = net.measures(node.node_id)
        rows.append({
            **BLANK_ROW,
            "node": node.node_id,
            "tau": format_fraction(ms.tau),
            "tau_max": format_fraction(ms.tau_max),
            "tau_max2": "" if ms.tau_max2 is None else format_fraction(ms.tau_max2),
        })
    return rows


def _write_csv(rows: list[dict], columns: list[str], path: str | None) -> None:
    """The rows as CSV with a header, to ``path`` or else to stdout."""
    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=columns)
    writer.writeheader()
    writer.writerows(rows)
    if path:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(out.getvalue())
    else:
        sys.stdout.write(out.getvalue())


def _bound_rows(report: bounds.BoundReport, shown: list[Bound]) -> list[dict]:
    rows = []
    check_text = "; ".join(
        f"{name}={value}:{'pass' if ok else 'FAIL'}"
        for name, value, ok in report.precondition_log
    )
    for bound in shown:
        value = bound.value(report)
        rows.append({
            **BLANK_ROW,
            "bound_method": bound.method,
            "bound_value": "inapplicable" if value is None else format_fraction(value),
            "exact_value": format_fraction(report.exact_tau_max),
            "gap": "" if value is None else format_fraction(value - report.exact_tau_max),
            "preconditions": check_text,
        })
    return rows


def cmd_bound(args) -> int:
    net = _load_net(_read(args.path), args.source)
    targets = [t for t in args.targets.split(",") if t]
    report = bounds.query_report(
        net, targets, method=args.method, max_states=args.max_states
    )
    # A single-peel method shows, in the report and the CSV, its own bound
    # and the baseline.
    shown = [
        b for b in BOUNDS
        if args.method == "recursive" or b.method in (args.method, "subadditivity")
    ]
    _write_csv(_measure_rows(net) + _bound_rows(report, shown), REPORT_COLUMNS, args.csv)

    print(f"query: {report.query}")
    print(f"exact tau_max      = {format_fraction(report.exact_tau_max)}")
    print(f"exact leakage      = {_fmt_log(log_fraction(report.exact_tau_max))}")
    inapplicable = False
    for bound in shown:
        value = bound.value(report)
        if value is None:
            print(f"{bound.label:<18} = inapplicable")
            inapplicable = True
        else:
            print(
                f"{bound.label:<18} = {format_fraction(value)}"
                f" (log {_fmt_log(log_fraction(value))})"
            )
    for name, value, ok in report.precondition_log:
        print(f"precondition {name}: {value} [{'pass' if ok else 'FAIL'}]")

    if args.compare_exact:
        sound = all(
            b.value(report) is None or b.value(report) >= report.exact_tau_max
            for b in BOUNDS
        )
        print(f"soundness: {'OK' if sound else 'VIOLATED'}")
        if not sound:
            return EXIT_INVALID
    return EXIT_INVALID if inapplicable else EXIT_OK


def cmd_couple(args) -> int:
    items = netfile.parse_pmf_file(_read(args.path))

    if args.mode == "simul":
        if not items or not isinstance(items[0], JointPmf):
            print('simul mode needs a "joints" document')
            return EXIT_INVALID
        coupling = build_simultaneous_coupling(items, max_states=args.max_states)
        print(f"simultaneous coupling of {coupling.arity} joint PMFs")
        print(f"c_XY = {format_fraction(coupling.c_xy)}; c_Y = {format_fraction(coupling.c_y)}")
        target = tau_max(coupling.y_coupling.law)
        got = y_union_mass(coupling)
        print(f"y-union mass = {format_fraction(got)}; tau_max = {format_fraction(target)}"
              f" [{'OK' if got == target else 'MISMATCH'}]")
        print(f"f quantity   = {format_fraction(f_quantity(coupling))}")
        print(f"support size = {len(coupling.mass)} (joint marginals verified exactly)")
        if args.dump:
            for (xs, ys), q in sorted(coupling.mass.items()):
                print(f"x={','.join(map(str, xs))} y={','.join(map(str, ys))} : {format_fraction(q)}")
        return EXIT_OK

    if not items or isinstance(items[0], JointPmf):
        print(f'{args.mode} mode needs a "pmfs" document')
        return EXIT_INVALID
    channel = DiscreteChannel(items)
    target = tau_max(channel)

    if args.mode == "lp":
        solver = min_union_coupling_diag if args.diag else min_union_coupling
        result = solver(items, max_variables=args.max_states)
        coupling = result.witness
        print(f"LP optimum  = {format_fraction(result.optimal_value)}")
        print(f"tau_max     = {format_fraction(target)}")
        print("achieves tau_max" if result.achieves_tau_max
              else "optimum exceeds tau_max (no minimal coupling at this arity)")
    elif args.mode == "n4":
        holds, ing = n4_condition(channel)
        print(f"condition slack = {format_fraction(ing.condition_slack())}"
              f" [{'holds' if holds else 'fails'}]")
        if not holds:
            print(f"tau_max2 = {format_fraction(tau_max2(channel))}; no construction")
            return EXIT_INVALID
        mixture = n4_mixture(ing)
        size = sum(prod(len(entries) for _, entries in groups) for _, groups in mixture.parts)
        if size > args.max_states:
            raise CapacityError(size, args.max_states, "coupling support tuples")
        coupling = mixture.coupling()
        got = union_mass(coupling)
        print("marginals OK (verified exactly)")
        print(f"union mass = {format_fraction(got)}; tau_max = {format_fraction(target)}"
              f" [{'OK' if got == target else 'MISMATCH'}]")
        ok = verify_intersection_property(coupling, items)
        print(f"intersection property: {'OK' if ok else 'VIOLATED'}")

    print(f"support size = {len(coupling.mass)}")
    if args.dump:
        for tup, q in coupling.sorted_items():
            print(f"{','.join(map(str, tup))} : {format_fraction(q)}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    text = _read(args.path)
    values = netfile.parse_range(args.range, args.max_states)
    targets = [t for t in args.targets.split(",") if t]

    rows = []
    for value in values:
        net = _load_net(text, args.source, {args.param: value})
        report = bounds.query_report(
            net, targets, method="recursive", max_states=args.max_states
        )
        row = {args.param: output_str(value), "exact": format_fraction(report.exact_tau_max)}
        for bound in BOUNDS:
            got = bound.value(report)
            row[bound.column] = "" if got is None else format_fraction(got)
        rows.append(row)

    _write_csv(rows, [args.param, "exact", *(b.column for b in BOUNDS)], args.out)
    if args.out:
        print(f"wrote {len(rows)} rows to {args.out}")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """A usage error (a missing or malformed option) is invalid input:
    argparse's message, then exit 1, as exit 2 means a capacity refusal."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INVALID, f"{self.prog}: error: {message}\n")


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {text}")
    return value


# Built once per process: parse_args returns a fresh Namespace on every
# call and leaves the parser unchanged, so in-process callers share it.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="leakbound",
        description="Exact leakage measures, couplings, and bounds for "
        "discrete Bayesian networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a network file")
    p.add_argument("path")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("measures", help="leakage measures of one node's CPT")
    p.add_argument("path")
    p.add_argument("--node", required=True)
    p.set_defaults(fn=cmd_measures)

    def add_capacity(sp):
        sp.add_argument(
            "--max-states",
            type=positive_int,
            default=DEFAULT_MAX_STATES,
            help="state/variable budget for exact enumerations; inference "
            "counts the states of the targets' ancestral closure, sweep its "
            "values (default 1e6)",
        )

    p = sub.add_parser("bound", help="bound the composite leakage exponent")
    add_capacity(p)
    p.add_argument("path")
    p.add_argument("--targets", required=True, help="comma-separated node ids")
    p.add_argument("--source", default=None)
    p.add_argument(
        "--method",
        default="recursive",
        choices=["recursive", "coupling", "doeblin"],
    )
    p.add_argument("--compare-exact", action="store_true")
    p.add_argument("--csv", default=None, help="write the report table here")
    p.set_defaults(fn=cmd_bound)

    p = sub.add_parser("couple", help="build and verify couplings of PMFs")
    add_capacity(p)
    p.add_argument("path")
    p.add_argument("--mode", required=True, choices=["lp", "n4", "simul"])
    p.add_argument("--diag", action="store_true",
                   help="lp mode: pin the diagonal to the column minimum")
    p.add_argument("--dump", action="store_true", help="print the support")
    p.set_defaults(fn=cmd_couple)

    p = sub.add_parser("sweep", help="evaluate bounds over a parameter range")
    add_capacity(p)
    p.add_argument("path")
    p.add_argument("--param", required=True)
    p.add_argument("--range", required=True, help="start:stop:step, exact")
    p.add_argument("--targets", required=True)
    p.add_argument("--source", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_sweep)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as stop:  # after -h (0) or a usage error (1)
        return stop.code
    try:
        return args.fn(args)
    except OSError as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return EXIT_IO
    except CapacityError as err:
        print(f"capacity: {err}", file=sys.stderr)
        return EXIT_CAPACITY
    except LeakboundError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
